//! The `service` layer rows (and the planner's predicted-vs-actual
//! audit), read off one traced job stream.

use crate::inputs::{JobKind, SERVICE_WORKERS};
use crate::metrics::Report;
use crate::stats::{percentile, sorted};
use crate::workloads::service::{JobTrace, StreamStats};

/// Percentile of the values `pick` extracts from the jobs that have one;
/// 0 when none does.
fn pct(jobs: &[JobTrace], pick: impl Fn(&JobTrace) -> Option<f64>, p: f64) -> f64 {
    let values: Vec<f64> = jobs.iter().filter_map(pick).collect();
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(&values), p)
    }
}

pub fn service_layer(r: &mut Report, stream: &StreamStats) {
    let jobs = &stream.jobs;
    let ns = |a: Option<u64>, b: Option<u64>| Some(b?.saturating_sub(a?) as f64);
    r.set(
        "service.submit_us",
        pct(jobs, |j| Some(j.submit_call_ns as f64), 50.0) * 1e-3,
    );
    let queue_wait = |j: &JobTrace| ns(j.queued_ns, j.started_ns);
    r.set(
        "service.queue_wait_ms_p50",
        pct(jobs, queue_wait, 50.0) * 1e-6,
    );
    r.set(
        "service.queue_wait_ms_p99",
        pct(jobs, queue_wait, 99.0) * 1e-6,
    );
    r.set(
        "service.run_ms_p50",
        pct(jobs, |j| ns(j.started_ns, j.completed_ns), 50.0) * 1e-6,
    );
    r.set(
        "service.resolve_us",
        pct(jobs, |j| j.resolve_ns.map(|v| v as f64), 50.0) * 1e-3,
    );

    let (before, after) = (&stream.before, &stream.after);
    let sweeps = jobs.iter().filter(|j| j.kind == JobKind::Sweep).count();
    let dedup_hits = after.dedup_hits - before.dedup_hits;
    r.set(
        "service.dedup_hit_ratio",
        dedup_hits as f64 / sweeps.max(1) as f64,
    );
    let actual = after.actual_secs - before.actual_secs;
    r.set(
        "service.worker_busy_frac",
        actual / (SERVICE_WORKERS as f64 * stream.makespan_s),
    );
    r.set("service.peak_queued", after.peak_queued as f64);
    r.set(
        "exasim.pred_over_actual",
        (after.predicted_secs - before.predicted_secs) / actual,
    );
    for (kind, name) in [
        (JobKind::Fdtd, "service.latency_p50_ms.fdtd"),
        (JobKind::Md, "service.latency_p50_ms.md"),
        (JobKind::Mesh, "service.latency_p50_ms.mesh"),
        (JobKind::Sweep, "service.latency_p50_ms.sweep"),
        (JobKind::Floquet, "service.latency_p50_ms.floquet"),
    ] {
        let of_kind = |j: &JobTrace| (j.kind == kind).then(|| j.latency_s()).flatten();
        r.set(name, pct(jobs, of_kind, 50.0) * 1e3);
    }
}
