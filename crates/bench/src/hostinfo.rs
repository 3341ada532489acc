//! Host peak-rate probe: a reference point for "% of peak" columns.
//!
//! The paper normalizes kernel rates against the PVC tile's FP64 peak;
//! on an arbitrary host we normalize against the measured rate of a
//! well-blocked double-precision GEMM (the practical peak of this code
//! base on this machine).

use mlmd_numerics::gemm::{gemm_flops, gemm_parallel};
use mlmd_numerics::matrix::Matrix;
use mlmd_numerics::rng::{Rng64, SplitMix64};
use std::time::Instant;

/// Measured f64 GEMM rate (GFLOP/s) of an n×n×n product: one warm-up,
/// then three timed repetitions. Nothing is cached — each call probes.
pub fn probe(n: usize) -> f64 {
    let mut rng = SplitMix64::new(7);
    let a = Matrix::from_fn(n, n, |_, _| rng.next_f64() - 0.5);
    let b = Matrix::from_fn(n, n, |_, _| rng.next_f64() - 0.5);
    let mut c = Matrix::<f64>::zeros(n, n);
    gemm_parallel(1.0, &a, &b, 0.0, &mut c);
    let start = Instant::now();
    let reps = 3;
    for _ in 0..reps {
        gemm_parallel(1.0, &a, &b, 0.0, &mut c);
    }
    reps as f64 * gemm_flops::<f64>(n, n, n) as f64 / start.elapsed().as_secs_f64() / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_returns_positive_rates() {
        assert!(probe(96) > 0.01);
    }
}
