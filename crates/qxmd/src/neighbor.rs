//! O(N) cell-list neighbour search for periodic orthorhombic boxes.
//!
//! The neighbour search of the Allegro-lite descriptors (XS-NNQMD, cutoff
//! 5.2 Å per paper Sec. VII.A.2). [`CellList::neighbor_lists`] is the one
//! search; inference and training both read its lists.
//!
//! * **Cells.** Every atom is binned into `floor(L / rcut)` cells per axis
//!   (at least one) and scans the *distinct* neighbour cells of its own on
//!   each axis: {c} with one cell, {c, c + 1} with two, {c − 1, c, c + 1}
//!   with three or more. A slab two cells thick costs O(N) like any box.
//! * **Minimum image.** (i, j) are neighbours when
//!   `dr = (p_j − p_i).min_image(L)` has `0 < |dr| < rcut`. Positions may
//!   lie outside [0, L). One image counts per pair, so the lists are those
//!   of the periodic system only when every side is at least 2·rcut.
//! * **Order.** Each pair is computed once, for `j > i`; the reversed
//!   entry carries `−dr` and the same `r`. Every list ascends in `j`, the
//!   order of an all-pairs scan, so downstream sums do not depend on the
//!   cell grid.
//! * **Layout.** One flat `Vec<Pair>` with per-atom offsets
//!   ([`NeighborLists`]), built with a fixed number of heap allocations.

use mlmd_numerics::vec3::Vec3;
use std::ops::Range;

/// A found neighbor pair with its minimum-image displacement.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pair {
    pub i: usize,
    pub j: usize,
    /// Displacement r_j − r_i (minimum image).
    pub dr: Vec3,
    pub r: f64,
}

/// Cell-list structure over one snapshot of positions.
pub struct CellList {
    /// Each atom's cell (x-fastest linear index).
    cell_of: Vec<u32>,
    /// Atom indices grouped by cell, ascending within each cell:
    /// `atoms[start[c]..start[c + 1]]` are the atoms of cell `c`.
    atoms: Vec<u32>,
    start: Vec<u32>,
    n_cells: [usize; 3],
    box_lengths: Vec3,
    rcut: f64,
}

impl CellList {
    /// Bin `positions` (wrapped into the box) into cells of side at least
    /// `rcut`.
    pub fn build(positions: &[Vec3], box_lengths: Vec3, rcut: f64) -> Self {
        assert!(rcut > 0.0);
        let n_cells = [
            ((box_lengths.x / rcut).floor() as usize).max(1),
            ((box_lengths.y / rcut).floor() as usize).max(1),
            ((box_lengths.z / rcut).floor() as usize).max(1),
        ];
        let cell_of: Vec<u32> = positions
            .iter()
            .map(|p| {
                let w = p.wrap_into(box_lengths);
                let cx = ((w.x / box_lengths.x * n_cells[0] as f64) as usize).min(n_cells[0] - 1);
                let cy = ((w.y / box_lengths.y * n_cells[1] as f64) as usize).min(n_cells[1] - 1);
                let cz = ((w.z / box_lengths.z * n_cells[2] as f64) as usize).min(n_cells[2] - 1);
                (cx + n_cells[0] * (cy + n_cells[1] * cz)) as u32
            })
            .collect();
        // Counting sort by cell, stable in the atom index.
        let mut start = vec![0u32; n_cells.iter().product::<usize>() + 1];
        for &c in &cell_of {
            start[c as usize + 1] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let mut fill = start.clone();
        let mut atoms = vec![0u32; positions.len()];
        for (idx, &c) in cell_of.iter().enumerate() {
            atoms[fill[c as usize] as usize] = idx as u32;
            fill[c as usize] += 1;
        }
        Self {
            cell_of,
            atoms,
            start,
            n_cells,
            box_lengths,
            rcut,
        }
    }

    /// Call `f` with the atoms of each distinct cell within one cell of
    /// cell `c` on every axis, periodically (see the module docs).
    fn for_each_neighbor_cell(&self, c: usize, mut f: impl FnMut(&[u32])) {
        let nc = self.n_cells;
        let home = [c % nc[0], c / nc[0] % nc[1], c / (nc[0] * nc[1])];
        let near = |a: usize| {
            let (h, n) = (home[a], nc[a]);
            let up = if h + 1 == n { 0 } else { h + 1 };
            let down = if h == 0 { n - 1 } else { h - 1 };
            ([h, up, down], n.min(3))
        };
        let ((xs, nx), (ys, ny), (zs, nz)) = (near(0), near(1), near(2));
        for &z in &zs[..nz] {
            for &y in &ys[..ny] {
                for &x in &xs[..nx] {
                    let o = x + nc[0] * (y + nc[1] * z);
                    f(&self.atoms[self.start[o] as usize..self.start[o + 1] as usize]);
                }
            }
        }
    }

    /// Every atom's neighbours within the cutoff, both directions, each
    /// list in ascending `j` (see the module docs).
    pub fn neighbor_lists(&self, positions: &[Vec3]) -> NeighborLists {
        let n = positions.len();
        let rc2 = self.rcut * self.rcut;
        // The scan tests each candidate pair from both ends: half the
        // candidates bound the pairs found, so `half` is allocated once.
        let mut candidates = 0;
        for &c in &self.cell_of {
            self.for_each_neighbor_cell(c as usize, |cell| candidates += cell.len());
        }
        // Each atom's pairs with j > i, sorted by j, atom after atom.
        let mut half: Vec<Pair> = Vec::with_capacity(candidates.saturating_sub(n) / 2);
        for (i, &c) in self.cell_of.iter().enumerate() {
            let lo = half.len();
            self.for_each_neighbor_cell(c as usize, |cell| {
                for j in cell.iter().map(|&b| b as usize).filter(|&j| j > i) {
                    let dr = (positions[j] - positions[i]).min_image(self.box_lengths);
                    let r2 = dr.norm_sqr();
                    if r2 < rc2 && r2 > 0.0 {
                        half.push(Pair {
                            i,
                            j,
                            dr,
                            r: r2.sqrt(),
                        });
                    }
                }
            });
            half[lo..].sort_unstable_by_key(|p| p.j);
        }
        // Atom k's list receives the reversed pairs of every i < k, in
        // ascending i, before its own: the whole list ascends in j.
        let mut offsets = vec![0usize; n + 1];
        for p in &half {
            offsets[p.i + 1] += 1;
            offsets[p.j + 1] += 1;
        }
        for k in 1..=n {
            offsets[k] += offsets[k - 1];
        }
        let mut fill = offsets.clone();
        let mut pairs = vec![Pair::default(); offsets[n]];
        for p in half {
            let back = Pair {
                i: p.j,
                j: p.i,
                dr: -p.dr,
                r: p.r,
            };
            for q in [p, back] {
                pairs[fill[q.i]] = q;
                fill[q.i] += 1;
            }
        }
        NeighborLists { pairs, offsets }
    }
}

/// Per-atom neighbour lists in one flat array (CSR layout): atom `i`'s
/// list is `pairs[offsets[i]..offsets[i + 1]]`, every entry with
/// `Pair::i == i`, in ascending `Pair::j`.
pub struct NeighborLists {
    pairs: Vec<Pair>,
    offsets: Vec<usize>,
}

impl NeighborLists {
    /// Atom `i`'s neighbours.
    pub fn of(&self, i: usize) -> &[Pair] {
        &self.pairs[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The lists of the atoms in `atoms`, back to back.
    pub fn span(&self, atoms: Range<usize>) -> &[Pair] {
        &self.pairs[self.offsets[atoms.start]..self.offsets[atoms.end]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlmd_numerics::rng::{Rng64, Xoshiro256};

    fn lists(positions: &[Vec3], l: Vec3, rcut: f64) -> NeighborLists {
        CellList::build(positions, l, rcut).neighbor_lists(positions)
    }

    /// The all-pairs oracle: each pair i < j computed once, its reverse
    /// carrying `−dr`, every list in ascending j.
    fn brute_force(positions: &[Vec3], l: Vec3, rcut: f64) -> Vec<Vec<Pair>> {
        let n = positions.len();
        let mut out = vec![Vec::new(); n];
        for (i, list) in out.iter_mut().enumerate() {
            for j in (0..n).filter(|&j| j != i) {
                let (a, b) = (i.min(j), i.max(j));
                let dr = (positions[b] - positions[a]).min_image(l);
                let r2 = dr.norm_sqr();
                if r2 < rcut * rcut && r2 > 0.0 {
                    let dr = if i < j { dr } else { -dr };
                    list.push(Pair {
                        i,
                        j,
                        dr,
                        r: r2.sqrt(),
                    });
                }
            }
        }
        out
    }

    /// `to_bits` equality of every field of every entry.
    fn assert_matches_oracle(positions: &[Vec3], l: Vec3, rcut: f64) {
        let got = lists(positions, l, rcut);
        let want = brute_force(positions, l, rcut);
        let total: usize = want.iter().map(Vec::len).sum();
        assert_eq!(got.span(0..positions.len()).len(), total);
        let bits = |p: &Pair| {
            (
                p.i,
                p.j,
                p.dr.x.to_bits(),
                p.dr.y.to_bits(),
                p.dr.z.to_bits(),
                p.r.to_bits(),
            )
        };
        for (i, expect) in want.iter().enumerate() {
            let g: Vec<_> = got.of(i).iter().map(bits).collect();
            let w: Vec<_> = expect.iter().map(bits).collect();
            assert_eq!(g, w, "atom {i}'s list in box {l:?}");
        }
    }

    /// `n` uniform positions in `[lo, hi)` per axis, scaled by `l`.
    fn random_positions(n: usize, l: Vec3, lo: f64, hi: f64, seed: u64) -> Vec<Vec3> {
        let mut rng = Xoshiro256::new(seed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    l.x * rng.range(lo, hi),
                    l.y * rng.range(lo, hi),
                    l.z * rng.range(lo, hi),
                )
            })
            .collect()
    }

    #[test]
    fn matches_the_all_pairs_oracle_bitwise_on_mixed_cell_counts() {
        // Per-axis cell counts mixing 1, 2, 3 and ≥ 4, with positions in
        // the box, left unwrapped up to half a box outside it, and on a
        // lattice (exactly-zero displacement components), every third
        // site moved out by a box length.
        let rcut = 3.0;
        for (k, cells) in [[9, 9, 2], [4, 4, 1], [3, 3, 3], [5, 2, 7], [1, 1, 1]]
            .into_iter()
            .enumerate()
        {
            let side = |c: usize| rcut * (c as f64 + 0.4);
            let l = Vec3::new(side(cells[0]), side(cells[1]), side(cells[2]));
            let density = 0.05;
            let n = ((l.x * l.y * l.z * density) as usize).max(12);
            let seed = 100 + k as u64;
            assert_matches_oracle(&random_positions(n, l, 0.0, 1.0, seed), l, rcut);
            assert_matches_oracle(&random_positions(n, l, -0.5, 1.5, seed), l, rcut);
            let steps = |len: f64| (0..(len / 1.3) as usize).map(|s| 1.3 * s as f64);
            let lattice: Vec<Vec3> = steps(l.z)
                .flat_map(|z| steps(l.y).flat_map(move |y| steps(l.x).map(move |x| (x, y, z))))
                .enumerate()
                .map(|(s, (x, y, z))| Vec3::new(x - l.x * (s % 3 == 0) as u8 as f64, y, z))
                .collect();
            assert_matches_oracle(&lattice, l, rcut);
        }
    }

    #[test]
    fn matches_brute_force_large_box() {
        let l = Vec3::splat(20.0);
        assert_matches_oracle(&random_positions(200, l, 0.0, 1.0, 3), l, 3.0);
    }

    #[test]
    fn matches_brute_force_small_box() {
        // Only 2 cells per axis.
        let l = Vec3::splat(6.0);
        assert_matches_oracle(&random_positions(40, l, 0.0, 1.0, 4), l, 3.0);
    }

    #[test]
    fn no_duplicate_pairs() {
        let l = Vec3::splat(15.0);
        let pos = random_positions(150, l, 0.0, 1.0, 5);
        let nl = lists(&pos, l, 3.5);
        for i in 0..pos.len() {
            let list = nl.of(i);
            assert!(list.iter().all(|p| p.i == i && p.j != i));
            assert!(
                list.windows(2).all(|w| w[0].j < w[1].j),
                "duplicate or unsorted"
            );
        }
        assert_eq!(nl.span(0..pos.len()).len() % 2, 0);
    }

    #[test]
    fn full_lists_symmetric() {
        let l = Vec3::splat(12.0);
        let pos = random_positions(60, l, 0.0, 1.0, 6);
        let nl = lists(&pos, l, 3.0);
        for p in nl.span(0..pos.len()) {
            let back = nl.of(p.j).iter().find(|q| q.j == p.i);
            let back = back.expect("asymmetric neighbor list");
            assert_eq!(back.r.to_bits(), p.r.to_bits());
            assert_eq!((back.dr + p.dr).norm(), 0.0);
        }
    }

    #[test]
    fn displacement_signs() {
        let l = Vec3::splat(10.0);
        let pos = vec![Vec3::new(1.0, 1.0, 1.0), Vec3::new(2.0, 1.0, 1.0)];
        let nl = lists(&pos, l, 2.0);
        assert_eq!(nl.span(0..2).len(), 2);
        // dr points from i to j.
        for (i, expect) in [(0, 1.0), (1, -1.0)] {
            let p = nl.of(i)[0];
            assert_eq!((p.i, p.j), (i, 1 - i));
            assert!((p.dr.x - expect).abs() < 1e-12);
            assert!((p.r - 1.0).abs() < 1e-12);
        }
    }
}
