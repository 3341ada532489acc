//! Scheduler regression suite for the work-stealing rayon shim (PR 2).
//!
//! Pins the two acceptance criteria of the nested-pool oversubscription
//! fix at the kernel level: (1) parallel calls nested inside an installed
//! pool observe the pool width, not the hardware width; (2) the parallel
//! tiers of `gemm_parallel` and `kin_prop` stay *bit-identical* to their
//! serial oracles regardless of pool width — scheduling must never change
//! a single floating-point operation.

use mlmd::dcmesh::ehrenfest::{pulse_field, run_inner_loop, EhrenfestConfig};
use mlmd::lfd::kin_prop::{KinImpl, KinProp};
use mlmd::lfd::occupation::Occupations;
use mlmd::lfd::propagator::QdStep;
use mlmd::lfd::wavefunction::WaveFunctions;
use mlmd::maxwell::source::GaussianPulse;
use mlmd::numerics::flops::FlopCounter;
use mlmd::numerics::gemm::gemm_parallel;
use mlmd::numerics::grid::Grid3;
use mlmd::numerics::matrix::Matrix;
use mlmd::numerics::rng::{Rng64, SplitMix64};
use mlmd::numerics::vec3::Vec3;
use mlmd::numerics::PAR_THRESHOLD;
use rayon::prelude::*;

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut rng = SplitMix64::new(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.next_f64() - 0.5)
}

#[test]
fn device_pool_width_survives_nesting() {
    // A parallel region launched inside an installed pool (the OpenMP
    // `target`-region analogue) must see the pool's width — with the old
    // per-call shim the inner region saw full hardware width instead.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .unwrap();
    let widths: Vec<usize> = pool.install(|| {
        (0..6usize)
            .into_par_iter()
            .map(|_| {
                let inner: usize = (0..4usize)
                    .into_par_iter()
                    .map(|_| rayon::current_num_threads())
                    .sum();
                assert_eq!(rayon::current_num_threads(), 3);
                inner / 4
            })
            .collect()
    });
    assert_eq!(widths, vec![3; 6]);
}

#[test]
fn gemm_parallel_bit_identical_across_pool_widths() {
    // 64³ > the 32768-element parallel threshold, so the pool really runs.
    let (m, k, n) = (64, 64, 64);
    let a = random_matrix(m, k, 21);
    let b = random_matrix(k, n, 22);
    let c0 = random_matrix(m, n, 23);

    let run_with_width = |threads: usize| -> Matrix<f64> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let mut c = c0.clone();
        pool.install(|| gemm_parallel(1.7, &a, &b, -0.3, &mut c));
        c
    };

    let serial = run_with_width(1);
    for threads in [2, 3, 8] {
        let par = run_with_width(threads);
        assert_eq!(
            serial.as_slice(),
            par.as_slice(),
            "gemm_parallel drifted from its serial oracle at width {threads}"
        );
    }
}

#[test]
fn kin_prop_parallel_bit_identical_to_serial_tiers() {
    let grid = Grid3::new(8, 8, 8, 0.4);
    let kp = KinProp::new(grid);
    let a = Vec3::new(0.2, -0.1, 0.05);
    let run = |imp: KinImpl, threads: usize| -> WaveFunctions {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let mut wf = WaveFunctions::random(grid, 6, 1234);
        pool.install(|| kp.propagate_n(imp, &mut wf, 0.02, a, 4, &FlopCounter::new()));
        wf
    };
    // The bond update is identical per (bond, orbital) in every tier that
    // uses the SoA layout, so Parallel must match Blocked to the last bit,
    // at any pool width.
    let blocked = run(KinImpl::Blocked, 1);
    for threads in [1, 2, 5] {
        let parallel = run(KinImpl::Parallel, threads);
        let diff = parallel.psi.max_abs_diff(&blocked.psi);
        assert_eq!(
            diff, 0.0,
            "kin_prop Parallel deviates from the Blocked oracle by {diff} at width {threads}"
        );
    }
}

#[test]
fn inner_loop_bit_identical_across_pool_widths() {
    // 16³ grid × 8 orbitals sits at the shared dispatch threshold, so the
    // loop hands its orbital blocks to the pool.
    let grid = Grid3::new(16, 16, 16, 0.5);
    let norb = 8;
    assert_eq!(grid.len() * norb, PAR_THRESHOLD);
    let wf0 = WaveFunctions::plane_waves(grid, norb);
    let occ = Occupations::aufbau(norb, 6.0);
    let vloc: Vec<f64> = (0..grid.len()).map(|g| 0.1 * (g % 7) as f64).collect();
    let cfg = EhrenfestConfig {
        dt_qd: 0.05,
        n_qd: 6,
        self_consistent: false,
    };
    let run = |block: usize, threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let mut qd = QdStep::new(grid);
        qd.kin.block = block;
        let mut wf = wf0.clone();
        let res = pool.install(|| {
            run_inner_loop(
                &qd,
                &mut wf,
                &occ,
                &vloc,
                Vec3::ZERO,
                pulse_field(GaussianPulse::new(0.04, 0.4, 0.1, 0.2), Vec3::EX),
                0.0,
                cfg,
            )
        });
        let mut d = mlmd::numerics::codec::Fnv64::new();
        for x in res.current_trace.iter().chain([&res.absorbed_energy]) {
            d.write_f64(*x);
        }
        (d.finish(), wf.panel_digest())
    };
    // The default block width and an uneven one (blocks of 3, 3, 2).
    for block in [8, 3] {
        let serial = run(block, 1);
        for threads in [2, 4] {
            assert_eq!(
                run(block, threads),
                serial,
                "block {block}, width {threads}"
            );
        }
    }
    assert_eq!(run(3, 1), run(8, 1), "result depends on the block width");
}

#[test]
fn skewed_parallel_map_is_exact_and_ordered() {
    // A deliberately imbalanced workload (first item 1000× heavier) must
    // produce exactly the same vector as the sequential evaluation.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let work = |i: usize| -> f64 {
        let iters = if i == 0 { 20_000 } else { 20 };
        let mut acc = i as f64 + 0.5;
        for _ in 0..iters {
            acc = (acc * 1.000_000_1).sin() + i as f64;
        }
        acc
    };
    let seq: Vec<f64> = (0..128).map(work).collect();
    let par: Vec<f64> = pool.install(|| (0..128).into_par_iter().map(work).collect());
    assert_eq!(seq, par);
}
