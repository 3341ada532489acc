//! Criterion bench: the Table IV parameterized-precision modes of the
//! nonlocal correction (FP64 / FP32 / BF16-split with FP32 accumulation),
//! plus the PR-10 bf16-vs-f64 NNQMD inference A/B.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlmd_lfd::nlp_prop::{NlpPrecision, NlpProp};
use mlmd_lfd::wavefunction::WaveFunctions;
use mlmd_nnqmd::infer::{
    block_evaluate, block_evaluate_many_bf16, ForceRequest, BF16_ENERGY_ATOL_PER_ATOM,
    BF16_FORCE_ATOL, BF16_FORCE_RTOL,
};
use mlmd_nnqmd::model::{AllegroLite, ModelConfig, QuantizedModel};
use mlmd_numerics::complex::c64;
use mlmd_numerics::flops::FlopCounter;
use mlmd_numerics::grid::Grid3;
use mlmd_numerics::vec3::Vec3;
use mlmd_qxmd::perovskite::PerovskiteLattice;
use std::hint::black_box;

fn bench_precision(c: &mut Criterion) {
    let grid = Grid3::new(16, 16, 16, 0.5);
    let norb = 12;
    let wf0 = WaveFunctions::random(grid, norb, 1);
    let wf = WaveFunctions::random(grid, norb, 2);
    let nlp = NlpProp::new(&wf0, c64::new(0.0, -0.01));
    let flops = FlopCounter::new();
    let mut group = c.benchmark_group("table4_precision");
    group.sample_size(10);
    for prec in NlpPrecision::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(prec.label()),
            &prec,
            |b, &prec| {
                let mut t = wf.clone();
                b.iter(|| nlp.apply(black_box(&mut t), prec, &flops));
            },
        );
    }
    group.finish();
}

/// bf16-storage vs f64 NNQMD block inference on the canonical perovskite
/// patch, with the documented accuracy envelope re-checked on the bench
/// fixture so the timing A/B always ships next to its error bound.
fn bench_nnqmd_precision(c: &mut Criterion) {
    let model = AllegroLite::new(
        ModelConfig {
            hidden: 8,
            k_max: 5,
            rcut: 4.0,
        },
        1,
    );
    let quant = QuantizedModel::from_model(&model);
    let lat = PerovskiteLattice::uniform(3, 3, 3, Vec3::new(0.0, 0.0, 0.2));
    let sys = &lat.system;
    let requests = [ForceRequest {
        species: &sys.species,
        positions: &sys.positions,
        box_lengths: sys.box_lengths,
        n_batches: 2,
    }];
    let mut group = c.benchmark_group("pr10_nnqmd_precision");
    group.sample_size(10);
    group.bench_function("block_evaluate_f64", |b| {
        b.iter(|| {
            block_evaluate(
                black_box(&model),
                &sys.species,
                &sys.positions,
                sys.box_lengths,
                2,
            )
        });
    });
    group.bench_function("block_evaluate_many_bf16", |b| {
        b.iter(|| block_evaluate_many_bf16(black_box(&quant), &requests));
    });
    group.finish();

    // Envelope check on the bench fixture (same bound as the proptests).
    let f64_res = block_evaluate(&model, &sys.species, &sys.positions, sys.box_lengths, 2);
    let bf_res = block_evaluate_many_bf16(&quant, &requests).remove(0);
    let fmax = f64_res
        .forces
        .iter()
        .map(|f| f.norm())
        .fold(0.0f64, f64::max);
    let ferr = f64_res
        .forces
        .iter()
        .zip(&bf_res.forces)
        .map(|(a, b)| (*a - *b).norm())
        .fold(0.0f64, f64::max);
    let eerr = (f64_res.energy - bf_res.energy).abs() / sys.species.len() as f64;
    println!(
        "pr10_nnqmd_precision/envelope: force err {ferr:.3e} (bound {:.3e}), \
         energy err/atom {eerr:.3e} (bound {BF16_ENERGY_ATOL_PER_ATOM:.3e}), \
         peak bytes f64 {} vs bf16 {}",
        BF16_FORCE_RTOL * fmax + BF16_FORCE_ATOL,
        f64_res.peak_neighbor_bytes,
        bf_res.peak_neighbor_bytes,
    );
    assert!(
        ferr <= BF16_FORCE_RTOL * fmax + BF16_FORCE_ATOL,
        "bf16 forces out of envelope on bench fixture: {ferr:.3e}"
    );
    assert!(
        eerr <= BF16_ENERGY_ATOL_PER_ATOM,
        "bf16 energy out of envelope on bench fixture: {eerr:.3e}"
    );
}

criterion_group!(benches, bench_precision, bench_nnqmd_precision);
criterion_main!(benches);
