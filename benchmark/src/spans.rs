//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the program is instrumented: a span here is two
//! `Instant` reads in the benchmark's own code, on either side of a call
//! to a crate's public function. Spans stay in memory and are written to
//! `benchmark/out/trace-<workload>.json` when the run ends.
//!
//! A span is named `<layer>.<what>`; the layer is a crate name, or
//! `iteration` / `job` for the root span of one operation. Self time is
//! taken on the wall-clock axis: every instant of a root span belongs to
//! the deepest spans active at that instant, shared equally when several
//! run concurrently (two pool threads, two ranks). Per-layer self times
//! plus the root's own self time (the residual) therefore sum to the
//! operation's wall-clock exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one; `None` for an operation's root.
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// Operation identifier shared by every span of one iteration or job.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The part of the name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder, shared by reference with pool threads and
/// rank threads. A disabled tracer records nothing and takes no lock, so
/// the same replay code runs traced and untraced.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span store poisoned");
        let id = spans.len() as SpanId;
        spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns,
        });
        id
    }

    /// Open a span whose id children need before it ends.
    fn open(&self, name: &'static str, parent: Option<SpanId>, op: u32) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, op, now, now)
    }

    fn close(&self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.lock().expect("span store poisoned")[id as usize].end_ns = now;
    }

    /// Run `f` inside a span; `f` receives the span's id for its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let out = f(self.enabled.then_some(id));
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span store poisoned")
    }
}

/// Self time of every span on the wall-clock axis, in nanoseconds,
/// indexed like `spans` (span ids are indices).
pub fn self_times_ns(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => children[p as usize].push(i),
            None => roots.push(i),
        }
    }
    let mut self_ns = vec![0.0; spans.len()];
    for root in roots {
        // The operation's subtree, then a sweep over its boundary times.
        let mut subtree = vec![root];
        let mut next = 0;
        while next < subtree.len() {
            subtree.extend_from_slice(&children[subtree[next]]);
            next += 1;
        }
        let mut bounds: Vec<u64> = subtree
            .iter()
            .flat_map(|&i| [spans[i].start_ns, spans[i].end_ns])
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        subtree.sort_by_key(|&i| spans[i].start_ns);
        let mut active: Vec<usize> = Vec::new();
        let mut next = 0;
        for w in bounds.windows(2) {
            let (t0, t1) = (w[0], w[1]);
            while next < subtree.len() && spans[subtree[next]].start_ns <= t0 {
                active.push(subtree[next]);
                next += 1;
            }
            active.retain(|&i| spans[i].end_ns > t0);
            let leaves: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&i| !active.iter().any(|&c| spans[c].parent == Some(spans[i].id)))
                .collect();
            let share = (t1 - t0) as f64 / leaves.len().max(1) as f64;
            for leaf in leaves {
                self_ns[leaf] += share;
            }
        }
    }
    self_ns
}

/// Where one traced run's wall-clock went, by layer.
#[derive(Clone, Debug)]
pub struct LayerTable {
    /// (layer, self seconds), largest first; root spans are not a layer.
    pub layers: Vec<(&'static str, f64)>,
    /// Self time of the root spans: inside an operation but inside no
    /// recorded call.
    pub residual_s: f64,
    /// Summed duration of the root spans.
    pub wall_s: f64,
    pub operations: usize,
}

impl LayerTable {
    pub fn build(spans: &[Span]) -> Self {
        let self_ns = self_times_ns(spans);
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        let (mut residual_ns, mut wall_ns, mut operations) = (0.0, 0.0, 0);
        for (s, &own) in spans.iter().zip(&self_ns) {
            if s.parent.is_none() {
                residual_ns += own;
                wall_ns += s.duration_ns() as f64;
                operations += 1;
            } else {
                *by_layer.entry(s.layer()).or_default() += own;
            }
        }
        let mut layers: Vec<(&'static str, f64)> =
            by_layer.into_iter().map(|(l, ns)| (l, ns * 1e-9)).collect();
        layers.sort_by(|a, b| b.1.total_cmp(&a.1));
        Self {
            layers,
            residual_s: residual_ns * 1e-9,
            wall_s: wall_ns * 1e-9,
            operations,
        }
    }

    /// Layer self times plus the residual: equals `wall_s` by construction.
    pub fn accounted_s(&self) -> f64 {
        self.layers.iter().map(|(_, s)| s).sum::<f64>() + self.residual_s
    }
}

/// Share of the operations' wall-clock spent in spans named `name` and
/// everything beneath them.
pub fn inclusive_share(spans: &[Span], name: &str) -> f64 {
    let self_ns = self_times_ns(spans);
    let wall: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64)
        .sum();
    let under = |mut i: usize| loop {
        if spans[i].name == name {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p as usize,
            None => return false,
        }
    };
    let inside: f64 = (0..spans.len())
        .filter(|&i| under(i))
        .map(|i| self_ns[i])
        .sum();
    if wall > 0.0 {
        inside / wall
    } else {
        0.0
    }
}

/// Write the spans of one traced run as JSON.
pub fn write_json(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\":\"{workload}\",\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.id, s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_interval_children_cover() {
        // root 0..100; a 10..40 with grandchild 20..30; b 50..90.
        let spans = vec![
            span(0, None, "iteration", 0, 100),
            span(1, Some(0), "qxmd.a", 10, 40),
            span(2, Some(1), "topo.g", 20, 30),
            span(3, Some(0), "dcmesh.b", 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30.0, 20.0, 10.0, 40.0]);
        let table = LayerTable::build(&spans);
        assert_eq!(table.operations, 1);
        assert!((table.residual_s - 30e-9).abs() < 1e-18);
        assert!((table.accounted_s() - table.wall_s).abs() < 1e-18);
        assert_eq!(table.layers[0].0, "dcmesh");
        // qxmd.a and its grandchild together cover 30 of 100.
        assert!((inclusive_share(&spans, "qxmd.a") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn concurrent_children_share_the_instant() {
        // Two pool threads step at once for 0..60; one continues to 80.
        let spans = vec![
            span(0, None, "iteration", 0, 100),
            span(1, Some(0), "core.batch", 0, 90),
            span(2, Some(1), "dcmesh.step", 0, 60),
            span(3, Some(1), "dcmesh.step", 0, 80),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![10.0, 10.0, 30.0, 50.0]);
        assert_eq!(own.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn operations_are_attributed_independently() {
        // Two overlapping jobs: each job's tree sums to its own latency.
        let spans = vec![
            span(0, None, "job", 0, 50),
            span(1, Some(0), "service.queue_wait", 5, 25),
            span(2, None, "job", 10, 40),
            span(3, Some(2), "service.queue_wait", 10, 40),
        ];
        let table = LayerTable::build(&spans);
        assert_eq!(table.operations, 2);
        assert!((table.wall_s - 80e-9).abs() < 1e-18);
        assert!((table.layers[0].1 - 50e-9).abs() < 1e-18);
        assert!((table.residual_s - 30e-9).abs() < 1e-18);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let seen = t.span("core.x", None, 0, |id| id);
        assert_eq!(seen, None);
        assert!(t.into_spans().is_empty());
        let t = Tracer::new(true);
        let child = t.span("iteration", None, 7, |root| {
            t.span("core.x", root, 7, |id| id)
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(child, Some(1));
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
