//! Criterion bench: the Fig. 4/5 cost-model sweeps (deterministic, fast —
//! benchmarks the model evaluation itself), plus the `pool_scaling` group
//! timing the rayon shim's persistent work-stealing scheduler on skewed
//! workloads (its A/B against the retired per-call static partition is
//! recorded in BENCH_pr2.json).

use criterion::{criterion_group, criterion_main, Criterion};
use mlmd_exasim::dcmesh_model::DcMeshModel;
use mlmd_exasim::nnqmd_model::NnqmdModel;
use mlmd_exasim::scaling::{self, sweeps};
use mlmd_numerics::gemm::gemm_blocked;
use mlmd_numerics::matrix::Matrix;
use mlmd_numerics::rng::{Rng64, SplitMix64};
use rayon::prelude::*;
use std::hint::black_box;

fn bench_scaling(c: &mut Criterion) {
    let dcmesh = DcMeshModel::paper_config();
    let nnqmd = NnqmdModel::paper_config();
    let mut group = c.benchmark_group("fig45_scaling_model");
    group.sample_size(20);
    group.bench_function("fig4a_weak", |b| {
        b.iter(|| scaling::dcmesh_weak(black_box(&dcmesh), 128.0, &sweeps::DCMESH_WEAK));
    });
    group.bench_function("fig4b_strong", |b| {
        b.iter(|| scaling::dcmesh_strong(black_box(&dcmesh), 12_582_912.0, &sweeps::DCMESH_STRONG));
    });
    group.bench_function("fig5a_weak", |b| {
        b.iter(|| scaling::nnqmd_weak(black_box(&nnqmd), 10_240_000.0, &sweeps::NNQMD_WEAK));
    });
    group.bench_function("fig5b_strong", |b| {
        b.iter(|| scaling::nnqmd_strong(black_box(&nnqmd), 984_000_000.0, &sweeps::NNQMD_STRONG));
    });
    group.finish();
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut rng = SplitMix64::new(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.next_f64() - 0.5)
}

/// Deliberately skewed workloads for the scheduler: uneven GEMM panels
/// and a domain loop with one oversized domain, which the work-stealing
/// pool's persistent workers rebalance.
fn bench_pool_scaling(c: &mut Criterion) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let mut group = c.benchmark_group("pool_scaling/worksteal");
    group.sample_size(60);

    // Imbalanced GEMM panels: C = A·B computed panel-by-panel where seven
    // panels are 1 column wide and the last holds the remaining 25 — the
    // shape of the ragged trailing panel in a blocked hierarchical GEMM.
    let (m, k, n) = (64usize, 64usize, 32usize);
    let a = random_matrix(m, k, 1);
    let b = random_matrix(k, n, 2);
    let panels: Vec<(usize, usize)> = (0..7).map(|j| (j, 1)).chain([(7, 25)]).collect();
    group.bench_function("gemm_skewed_panels", |bch| {
        pool.install(|| {
            bch.iter(|| {
                let out: Vec<Matrix<f64>> = panels
                    .clone()
                    .into_par_iter()
                    .map(|(j0, w)| {
                        let bp = Matrix::from_fn(k, w, |p, j| b[(p, j0 + j)]);
                        let mut cp = Matrix::<f64>::zeros(m, w);
                        gemm_blocked(1.0, black_box(&a), &bp, 0.0, &mut cp);
                        cp
                    })
                    .collect();
                black_box(out)
            });
        });
    });

    // Uniform panels of the same total size: the no-skew control.
    let uniform: Vec<(usize, usize)> = (0..8).map(|j| (4 * j, 4)).collect();
    group.bench_function("gemm_uniform_panels", |bch| {
        pool.install(|| {
            bch.iter(|| {
                let out: Vec<Matrix<f64>> = uniform
                    .clone()
                    .into_par_iter()
                    .map(|(j0, w)| {
                        let bp = Matrix::from_fn(k, w, |p, j| b[(p, j0 + j)]);
                        let mut cp = Matrix::<f64>::zeros(m, w);
                        gemm_blocked(1.0, black_box(&a), &bp, 0.0, &mut cp);
                        cp
                    })
                    .collect();
                black_box(out)
            });
        });
    });

    // Domain loop with one oversized domain (the DC-MESH shape: one dense
    // hotspot domain among small ones).
    let domain_sizes: Vec<usize> = [60_000usize]
        .into_iter()
        .chain(std::iter::repeat_n(4_000, 15))
        .collect();
    group.bench_function("domain_loop_skewed", |bch| {
        pool.install(|| {
            bch.iter(|| {
                let sums: Vec<f64> = domain_sizes
                    .clone()
                    .into_par_iter()
                    .map(|len| {
                        let mut acc = 0.0f64;
                        for i in 0..len {
                            acc += (i as f64).sqrt();
                        }
                        acc
                    })
                    .collect();
                black_box(sums)
            });
        });
    });
    group.finish();
}

criterion_group!(benches, bench_scaling, bench_pool_scaling);
criterion_main!(benches);
