#!/usr/bin/env bash
# Docs reference check: fail on references to files that do not exist.
#
#   scripts/check_links.sh
#
# Three kinds of reference are checked (external http(s)/mailto links
# and pure #anchors are out of scope — the build environment is offline):
#
# * a markdown link `[text](target)` in README.md or docs/*.md, whose
#   target (any #fragment stripped) is resolved against the linking
#   file's directory;
# * a backticked repo-relative path in README.md or docs/*.md starting
#   with crates/, tests/, scripts/, shims/ or examples/ (its first word,
#   any `::item` or `:line` suffix stripped; globs and brace lists are
#   skipped), resolved against the repo root;
# * a `*.md` file named in a `//!` or `///` comment under crates/ or
#   examples/, resolved against the repo root, then docs/.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
for f in README.md docs/*.md; do
  [ -e "$f" ] || continue
  base=$(dirname "$f")
  # Extract every inline markdown link target.
  targets=$(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//' || true)
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    if [ ! -e "$base/$path" ]; then
      echo "broken link in $f: ($target) -> $base/$path does not exist"
      fail=1
    fi
  done <<< "$targets"

  paths=$(grep -oE '`(crates|tests|scripts|shims|examples)/[^`]*`' "$f" | tr -d '`' || true)
  while IFS= read -r path; do
    path="${path%% *}"
    path="${path%%:*}"
    case "$path" in
      ''|*'*'*|*'{'*|*'<'*|*'…'*) continue ;;
    esac
    if [ ! -e "$path" ]; then
      echo "stale path in $f: \`$path\` does not exist"
      fail=1
    fi
  done <<< "$paths"
done

docs=$(grep -rnE --include='*.rs' '^[[:space:]]*//[/!]' crates examples |
  grep -oE '^[^:]+:[0-9]+:|[A-Za-z0-9_./-]+\.md' || true)
while IFS= read -r token; do
  case "$token" in
    *.md) ;;
    *) where="${token%:}"; continue ;;
  esac
  if [ ! -e "$token" ] && [ ! -e "docs/$token" ]; then
    echo "stale doc reference at $where: $token does not exist"
    fail=1
  fi
done <<< "$docs"

if [ "$fail" -ne 0 ]; then
  echo "link check: FAILED"
  exit 1
fi
echo "link check: OK"
