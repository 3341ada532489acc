//! Host-timing gates: the wall-clock claims this crate asserts on the
//! machine it runs on. Every test runs its code path in any build but
//! asserts timing only when `!cfg!(debug_assertions)`; tier-1 and CI run
//! them as `cargo test --release -q -p mlmd-bench --test host_gates`.
//! The tests hold one lock so no two timings share the cores.

use mlmd_bench::kin_prop_ladder;
use mlmd_core::engine::{Engine, TraceObserver};
use mlmd_floquet::sweep::{DimerConfig, SuperlatticeSweep};
use mlmd_numerics::gemm::{gemm_blocked, gemm_naive};
use mlmd_numerics::grid::Grid3;
use mlmd_numerics::matrix::Matrix;
use mlmd_numerics::rng::{Rng64, SplitMix64};
use std::hint::black_box;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

static HOST: Mutex<()> = Mutex::new(());

fn host() -> MutexGuard<'static, ()> {
    HOST.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Smallest of `reps` wall-clocks of `f` — minimum rather than mean, so
/// a shared-CPU scheduling hiccup cannot fake a slowdown.
fn min_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut rng = SplitMix64::new(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.next_f64() - 0.5)
}

type Gemm = fn(f64, &Matrix<f64>, &Matrix<f64>, f64, &mut Matrix<f64>);

/// The cache-blocked f64 GEMM must be ≥ 1.3× the naive oracle on at least
/// one hot-path shape: the DC-MESH skewed panels (seven 1-column panels
/// plus a ragged 25-column trailer of a (64×64)·(64×32) product) or a
/// 256² square product, the shape of the LFD subspace rotations.
#[test]
fn blocked_gemm_beats_naive_on_a_hot_path_shape() {
    let _host = host();
    let (m, k) = (64usize, 64usize);
    let a = random_matrix(m, k, 1);
    let b = random_matrix(k, 32, 2);
    let panels: Vec<(usize, usize)> = (0..7).map(|j| (j, 1)).chain([(7, 25)]).collect();
    let skewed = |kernel: Gemm| {
        min_secs(5, || {
            for &(j0, w) in &panels {
                let bp = Matrix::from_fn(k, w, |p, j| b[(p, j0 + j)]);
                let mut cp = Matrix::<f64>::zeros(m, w);
                kernel(1.0, black_box(&a), &bp, 0.0, &mut cp);
                black_box(cp);
            }
        })
    };
    let a2 = random_matrix(256, 256, 3);
    let b2 = random_matrix(256, 256, 4);
    let mut c2 = Matrix::<f64>::zeros(256, 256);
    let mut square = |kernel: Gemm| min_secs(3, || kernel(1.0, black_box(&a2), &b2, 0.0, &mut c2));

    let s_skew = skewed(gemm_naive) / skewed(gemm_blocked);
    let s_sq = square(gemm_naive) / square(gemm_blocked);
    if !cfg!(debug_assertions) {
        assert!(
            s_skew.max(s_sq) >= 1.3,
            "blocked f64 GEMM must be >= 1.3x naive on a hot-path shape \
             (skewed panels {s_skew:.2}x, square256 {s_sq:.2}x)"
        );
    }
}

/// The streaming `FloquetObserver` (one complex rotation per harmonic per
/// step) adds < 10 % step overhead over a bare `TraceObserver` on the
/// same driven 320-cell Yee run, min of 5 full runs each.
#[test]
fn floquet_observer_overhead_under_ten_percent() {
    let _host = host();
    let mut sweep = SuperlatticeSweep::canonical(
        [0.4, 0.7, 1.5, 2.5]
            .into_iter()
            .map(|dimerization| DimerConfig {
                dimerization,
                patch_period: 20,
            })
            .collect(),
    );
    sweep.n_steps = 2_000;
    let config = &sweep.configs[2];
    let floquet = min_secs(5, || {
        let mut obs = sweep.observer();
        Engine::run(&mut sweep.driver(config), sweep.n_steps, &mut obs);
        black_box(obs.finish().total_power());
    });
    let trace = min_secs(5, || {
        let mut obs = TraceObserver::every();
        Engine::run(&mut sweep.driver(config), sweep.n_steps, &mut obs);
        black_box(obs.trace.len());
    });
    let overhead = floquet / trace - 1.0;
    if !cfg!(debug_assertions) {
        assert!(
            overhead < 0.10,
            "FloquetObserver must stay under 10% step overhead vs TraceObserver, \
             measured {:.1}% ({floquet:.6} s vs {trace:.6} s)",
            overhead * 100.0
        );
    }
}

/// Cores this host actually delivers: the same CPU-bound loop on two
/// threads at once against once alone (1.0 on one core, ≈ 2.0 on two).
/// `available_parallelism` counts vCPUs, which may share a physical core.
fn parallel_capacity() -> f64 {
    let work = || (0..20_000_000u64).fold(0u64, |x, i| black_box(x.wrapping_mul(31) ^ i));
    let alone = min_secs(3, || {
        black_box(work());
    });
    let paired = min_secs(3, || {
        std::thread::scope(|s| {
            let other = s.spawn(work);
            black_box(work());
            black_box(other.join().unwrap());
        })
    });
    2.0 * alone / paired
}

/// The Table III ladder on this host: reordering does not regress, and
/// the parallel tier beats baseline where there is a second core to win
/// with (the 2-vCPU reference host measures ≈ 1.0 cores, so there only
/// the reorder bound applies).
#[test]
fn table_iii_ladder_shape_on_host() {
    let _host = host();
    let grid = Grid3::new(32, 32, 32, 0.5);
    // Debug builds run the ladder once, for the code path (correctness of
    // all four tiers is asserted in mlmd-lfd's unit and property tests).
    if cfg!(debug_assertions) {
        assert_eq!(kin_prop_ladder(grid, 16, 3).len(), 4);
        return;
    }
    // A >1× parallel speedup is impossible without a second core (the
    // tier then time-slices), so that claim is gated on measured
    // capacity rather than the vCPU count.
    let multicore = parallel_capacity() > 1.6;
    // Retry a few times so a transient stall on a shared host cannot
    // fail a correct implementation.
    let mut best_parallel: f64 = 0.0;
    let mut best_reorder: f64 = 0.0;
    for _ in 0..4 {
        let rows = kin_prop_ladder(grid, 16, 3);
        best_parallel = best_parallel.max(rows[3].speedup);
        best_reorder = best_reorder.max(rows[1].speedup);
        if best_reorder > 0.8 && (!multicore || best_parallel > 1.2) {
            break;
        }
    }
    assert!(best_reorder > 0.8, "reordering must not regress badly");
    if multicore {
        assert!(
            best_parallel > 1.2,
            "parallel must beat baseline on a multi-core host, got {best_parallel:.2}x"
        );
    }
}
