//! Order statistics and the reduction from per-operation wall-clock
//! samples to the end-to-end metrics.

/// Percentiles a tail may be reported at, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// A percentile is only reported when at least this many samples lie
/// beyond it.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// How many of `n` samples lie beyond percentile `pct` (exact for the
/// ladder's percentiles: the product is taken before the division).
pub fn samples_beyond(n: usize, pct: f64) -> f64 {
    n as f64 * (100.0 - pct) / 100.0
}

/// The highest percentile of [`PERCENTILE_LADDER`] with at least
/// [`MIN_SAMPLES_BEYOND`] of `n` samples beyond it. The median is the
/// floor: it is reported whatever `n` is.
pub fn tail_percentile(n: usize) -> f64 {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .filter(|p| samples_beyond(n, *p) >= MIN_SAMPLES_BEYOND)
        .fold(PERCENTILE_LADDER[0], f64::max)
}

/// Percentile of an ascending slice, linearly interpolated between order
/// statistics. Panics on an empty slice: every caller has at least one
/// sample by construction.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// The end-to-end timing metrics of one run. Every workload is a stream
/// of operations (one iteration = one complete solution; one job = one
/// reply), so the same reduction serves all six.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub wall_s: f64,
    pub wall_p75_s: f64,
    pub jobs_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    /// Sample count behind the percentiles (printed, not a metric).
    pub n: usize,
}

/// Reduce per-operation wall-clock samples (seconds) to the end-to-end
/// metrics. `tail_pct` is the workload's designed tail percentile: 99 on
/// the job stream (thousands of samples), 75 on the iteration workloads
/// (tens of samples) — fixed per workload so the statistic never flips
/// between runs when `n` straddles a threshold.
pub fn end_to_end(samples_s: &[f64], makespan_s: f64, tail_pct: f64) -> EndToEnd {
    let s = sorted(samples_s);
    let p50 = percentile(&s, 50.0);
    EndToEnd {
        wall_s: p50,
        wall_p75_s: percentile(&s, 75.0),
        jobs_per_s: s.len() as f64 / makespan_s,
        latency_p50_ms: 1e3 * p50,
        latency_p99_ms: 1e3 * percentile(&s, tail_pct),
        n: s.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_samples_beyond() {
        // 40 samples: p75 leaves exactly 10 beyond, p90 only 4.
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(5000), 99.0);
        // Too few samples for any tail: the median is still reported.
        assert_eq!(tail_percentile(3), 50.0);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 75.0), 4.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn end_to_end_reduces_one_sample_set_to_all_metrics() {
        let samples: Vec<f64> = (1..=41).map(|i| i as f64 * 0.01).collect();
        let e = end_to_end(&samples, 10.0, 75.0);
        assert_eq!(e.n, 41);
        assert!((e.wall_s - 0.21).abs() < 1e-12);
        assert!((e.wall_p75_s - 0.31).abs() < 1e-12);
        assert!((e.latency_p50_ms - 210.0).abs() < 1e-9);
        assert!((e.latency_p99_ms - 310.0).abs() < 1e-9);
        assert!((e.jobs_per_s - 4.1).abs() < 1e-12);
    }
}
