//! Floating-point-operation accounting.
//!
//! The paper measures FLOP/s by counting operations (Intel SDE) and timing
//! kernels (unitrace), then dividing (Sec. VI.B). This module is the Rust
//! analogue: kernels increment a [`FlopCounter`] as they run, and
//! [`FlopReport`] turns (count, wall-time) pairs into the GFLOP/s and
//! percent-of-peak columns of Tables IV–V.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Thread-safe FLOP accumulator shared by the kernels of one module.
#[derive(Debug, Default)]
pub struct FlopCounter {
    count: AtomicU64,
}

impl FlopCounter {
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
        }
    }

    /// Record `n` floating-point operations.
    #[inline]
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Total recorded so far.
    pub fn total(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Reset to zero, returning the previous total.
    pub fn reset(&self) -> u64 {
        self.count.swap(0, Ordering::Relaxed)
    }
}

impl Clone for FlopCounter {
    fn clone(&self) -> Self {
        Self {
            count: AtomicU64::new(self.total()),
        }
    }
}

thread_local! {
    static GEMM_TALLY: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Record `n` FLOPs on the calling thread's GEMM tally.
///
/// The GEMM entry points in [`crate::gemm`] and [`crate::cgemm`] call this
/// once per kernel invocation with the *analytic* count of the problem
/// shape (`MAC_FLOPS · m·n·k`), not a count derived from the loop
/// structure — so the naive oracle and the blocked kernel record identical
/// totals for the same shape by construction (the invariant the `hotspots`
/// bench and the flops regression test pin). The tally is thread-local and
/// charged on the thread that *enters* the kernel (parallel kernels charge
/// the caller, not the pool workers), which keeps readings deterministic
/// under a multi-threaded test runner.
#[inline]
pub fn record_gemm(n: u64) {
    GEMM_TALLY.with(|t| t.set(t.get() + n));
}

/// Total GEMM FLOPs recorded on this thread since the last
/// [`reset_gemm_tally`].
pub fn gemm_tally() -> u64 {
    GEMM_TALLY.with(|t| t.get())
}

/// Zero this thread's GEMM tally, returning the previous total.
pub fn reset_gemm_tally() -> u64 {
    GEMM_TALLY.with(|t| t.replace(0))
}

/// A measured kernel: FLOPs and wall-clock time.
#[derive(Clone, Copy, Debug)]
pub struct FlopReport {
    pub flops: u64,
    pub elapsed: Duration,
}

impl FlopReport {
    pub fn new(flops: u64, elapsed: Duration) -> Self {
        Self { flops, elapsed }
    }

    /// Achieved GFLOP/s.
    pub fn gflops(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.flops as f64 / secs / 1e9
    }
}

/// Run a closure and produce a [`FlopReport`] from a counter delta.
pub fn measure<F: FnOnce()>(counter: &FlopCounter, f: F) -> FlopReport {
    let before = counter.total();
    let start = std::time::Instant::now();
    f();
    let elapsed = start.elapsed();
    FlopReport::new(counter.total() - before, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = FlopCounter::new();
        c.add(10);
        c.add(32);
        assert_eq!(c.total(), 42);
        assert_eq!(c.reset(), 42);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = FlopCounter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.total(), 8000);
    }

    #[test]
    fn gflops_math() {
        let r = FlopReport::new(2_000_000_000, Duration::from_secs(1));
        assert!((r.gflops() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_is_safe() {
        let r = FlopReport::new(100, Duration::ZERO);
        assert_eq!(r.gflops(), 0.0);
    }

    #[test]
    fn measure_wraps_closure() {
        let c = FlopCounter::new();
        let r = measure(&c, || c.add(1234));
        assert_eq!(r.flops, 1234);
    }
}
