//! Kernel-level layers: `numerics`, `lfd`, `qxmd`, `nnqmd`, `maxwell`,
//! `topo`.

use super::{nproc, per_call, per_call_pair};
use crate::inputs::{Inputs, ENSEMBLE_BATCHES, FDTD_CELLS, FDTD_STEPS, NN_RESPONSE_BATCHES};
use crate::metrics::Report;
use crate::workloads::ensemble::{bf16_force_error, build_domains, requests};
use crate::workloads::pipeline_run::RESPOND_MODEL;
use mlmd::core::config::PipelineConfig;
use mlmd::core::engine::{Engine, NullObserver};
use mlmd::core::pipeline::{Pipeline, MESH_STAGE_EDGE, MESH_STAGE_NORB};
use mlmd::lfd::hartree::Multigrid;
use mlmd::lfd::{KinProp, NlpPrecision, NlpProp, QdStep, WaveFunctions};
use mlmd::maxwell::source::GaussianPulse;
use mlmd::maxwell::{PulsedYee, Yee1d};
use mlmd::nnqmd::infer::block_evaluate_many_bf16;
use mlmd::nnqmd::{block_evaluate, block_evaluate_many, AllegroLite, ForceBatch, QuantizedModel};
use mlmd::numerics::cgemm::{overlap, rank_update};
use mlmd::numerics::fft::Fft3d;
use mlmd::numerics::flops::FlopCounter;
use mlmd::numerics::gemm::{gemm_blocked, gemm_flops, gemm_parallel};
use mlmd::numerics::stencil::{laplacian, Order};
use mlmd::numerics::{c64, Grid3, Matrix, Rng64, SplitMix64, Vec3};
use mlmd::qxmd::hopping::SurfaceHopping;
use mlmd::qxmd::nac::NacMatrix;
use mlmd::qxmd::neighbor::CellList;
use mlmd::qxmd::perovskite::PerovskiteLattice;
use mlmd::topo::switching::{compare, TextureReport};
use std::hint::black_box;
use std::time::Instant;

/// The MESH stage's FD grid and panel width — the shape every
/// wave-function kernel below runs at.
pub(crate) fn stage_grid() -> Grid3 {
    Grid3::new(MESH_STAGE_EDGE, MESH_STAGE_EDGE, MESH_STAGE_EDGE, 0.5)
}

pub(crate) fn stage_panel() -> WaveFunctions {
    WaveFunctions::plane_waves(stage_grid(), MESH_STAGE_NORB)
}

/// A smooth, zero-mean test density/potential on the stage grid.
pub(crate) fn stage_field() -> Vec<f64> {
    let grid = stage_grid();
    (0..grid.len())
        .map(|g| {
            let (i, j, k) = grid.coords(g);
            let phase = |n: usize| std::f64::consts::TAU * n as f64 / MESH_STAGE_EDGE as f64;
            0.1 * (phase(i).cos() + phase(j).sin() * phase(k).cos())
        })
        .collect()
}

struct HostSizes {
    llc_bytes: usize,
    stream_array_bytes: usize,
}

/// Size of the largest cache level the kernel reports for cpu0.
fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            let text = std::fs::read_to_string(path).ok()?;
            let text = text.trim();
            let (digits, scale) = match text.as_bytes().last()? {
                b'K' => (&text[..text.len() - 1], 1 << 10),
                b'M' => (&text[..text.len() - 1], 1 << 20),
                _ => (text, 1),
            };
            Some(digits.parse::<usize>().ok()? * scale)
        })
        .max()
        .unwrap_or(32 << 20)
}

fn mem_available_bytes() -> usize {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("MemAvailable:"))?;
            line.split_whitespace().nth(1)?.parse::<usize>().ok()
        })
        .map_or(1 << 30, |kb| kb << 10)
}

/// Multiply-add rate of this build on all cores: independent `a·m + c`
/// chains on register-resident values. The compute roof kernels are held
/// against — a roof of this code base's code generation, not of the
/// silicon.
fn host_peak_gflops() -> f64 {
    const LANES: usize = 32;
    const ROUNDS: usize = 2_000_000;
    let threads = nproc();
    let best = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    scope.spawn(move || {
                        let mut acc = [1.0 + t as f64 * 1e-3; LANES];
                        let (m, c) = (black_box(1.000_000_1), black_box(1e-9));
                        for _ in 0..ROUNDS {
                            for a in &mut acc {
                                *a = *a * m + c;
                            }
                        }
                        black_box(acc);
                    });
                }
            });
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (2 * LANES * ROUNDS * threads) as f64 / best / 1e9
}

/// STREAM triad `a = b + s·c` on all cores, each array at least four
/// times the last-level cache (less only if memory is short; both sizes
/// are printed). Bytes are computed: two reads and one write per element.
fn host_stream_gbs(sizes: &HostSizes) -> f64 {
    let n = sizes.stream_array_bytes / 8;
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let chunk = n.div_ceil(nproc());
    let mut pass = || {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = *y + 3.0 * *z;
                    }
                });
            }
        });
        start.elapsed().as_secs_f64()
    };
    pass(); // first touch of `a`
    let best = pass().min(pass());
    black_box(&a);
    (3 * 8 * n) as f64 / best / 1e9
}

pub fn numerics(r: &mut Report) {
    let llc = llc_bytes();
    let sizes = HostSizes {
        llc_bytes: llc,
        // Three arrays must fit in a third of what is available.
        stream_array_bytes: (4 * llc).min(mem_available_bytes() / 9),
    };
    let peak = host_peak_gflops();
    let stream = host_stream_gbs(&sizes);
    r.set("numerics.host_peak_gflops", peak);
    r.set("numerics.host_stream_gbs", stream);

    let mut rng = SplitMix64::new(7);
    let mut random = |rows, cols| Matrix::from_fn(rows, cols, |_, _| rng.next_f64() - 0.5);
    let (a, b) = (random(256, 256), random(256, 256));
    let mut c = Matrix::<f64>::zeros(256, 256);
    let secs = per_call(5, 1, || gemm_parallel(1.0, &a, &b, 0.0, &mut c));
    r.set(
        "numerics.gemm_square256_gflops",
        gemm_flops::<f64>(256, 256, 256) as f64 / secs / 1e9,
    );

    // The MESH panel product: (norb × ngrid)·(ngrid × norb).
    let (norb, ngrid) = (MESH_STAGE_NORB, stage_grid().len());
    let (a, b) = (random(norb, ngrid), random(ngrid, norb));
    let mut c = Matrix::<f64>::zeros(norb, norb);
    let secs = per_call(7, 50, || gemm_blocked(1.0, &a, &b, 0.0, &mut c));
    let flops = gemm_flops::<f64>(norb, norb, ngrid) as f64;
    let skewed = flops / secs / 1e9;
    r.set("numerics.gemm_skewed_panel_gflops", skewed);
    // Roofline bound at the computed intensity: each operand and the
    // result moved once.
    let bytes = (8 * (2 * norb * ngrid + norb * norb)) as f64;
    r.set(
        "numerics.gemm_skewed_roofline_frac",
        skewed / peak.min(stream * flops / bytes),
    );

    let panel = stage_panel();
    let mut s = Matrix::<c64>::zeros(norb, norb);
    let secs = per_call(7, 50, || {
        overlap(c64::one(), &panel.psi, &panel.psi, c64::zero(), &mut s)
    });
    r.set("numerics.cgemm_overlap_us", secs * 1e6);
    let mut out = panel.psi.clone();
    let secs = per_call(7, 50, || {
        rank_update(c64::real(1e-3), &panel.psi, &s, &mut out)
    });
    r.set("numerics.cgemm_rank_update_us", secs * 1e6);

    let fft = Fft3d::new(MESH_STAGE_EDGE, MESH_STAGE_EDGE, MESH_STAGE_EDGE);
    let mut data: Vec<c64> = panel.psi.col(1).to_vec();
    let secs = per_call(7, 50, || {
        fft.forward(&mut data);
        fft.inverse(&mut data);
    });
    r.set("numerics.fft3d_us", secs * 1e6);

    let grid = stage_grid();
    let field = stage_field();
    let mut lap = vec![0.0; grid.len()];
    let secs = per_call(7, 200, || laplacian(&grid, &field, &mut lap, Order::Second));
    // Computed bytes: one read and one write per grid point.
    r.set(
        "numerics.laplacian_gbs",
        (16 * grid.len()) as f64 / secs / 1e9,
    );
    println!(
        "# host: nproc {} llc_bytes {} stream_array_bytes {}",
        nproc(),
        sizes.llc_bytes,
        sizes.stream_array_bytes
    );
}

pub fn lfd(r: &mut Report) {
    let grid = stage_grid();
    let flops = FlopCounter::new();
    let mut wf = stage_panel();
    let kin = KinProp::new(grid);
    let secs = per_call(7, 20, || {
        kin.step(&mut wf, 0.05, Vec3::new(0.01, 0.0, 0.0), &flops)
    });
    r.set("lfd.kin_prop_us", secs * 1e6);

    let nlp = NlpProp::new(&stage_panel(), c64::new(0.0, -1e-3));
    let secs = per_call(7, 20, || nlp.apply(&mut wf, NlpPrecision::F64, &flops));
    r.set("lfd.nlp_prop_us", secs * 1e6);

    let qd = QdStep::new(grid);
    let vloc = stage_field();
    let mut wf = stage_panel();
    let secs = per_call(7, 20, || {
        qd.step(&mut wf, &vloc, Vec3::new(0.01, 0.0, 0.0), 0.05)
    });
    r.set("lfd.propagator_step_us", secs * 1e6);

    let mg = Multigrid::new(grid);
    let rho = stage_field();
    let mut cycles = 0;
    let secs = per_call(5, 1, || cycles = mg.solve(&rho, 1e-8, 50).1);
    r.set("lfd.hartree_mg_us", secs * 1e6);
    r.set("lfd.hartree_mg_cycles", cycles as f64);
}

pub fn qxmd(r: &mut Report) {
    // The 2560-atom analytic respond stage of `switching_e2e`.
    let pipeline = Pipeline::new(PipelineConfig::small_demo());
    let atoms = pipeline.config.n_atoms();
    let mut stage = pipeline.supercell_md_stage(0.3);
    const STEPS: usize = 50;
    let secs = per_call(3, 1, || Engine::run(&mut stage, STEPS, &mut NullObserver));
    r.set("qxmd.md_atom_steps_per_s", (atoms * STEPS) as f64 / secs);

    let positions = &stage.system().positions;
    let box_lengths = stage.system().box_lengths;
    let secs = per_call(7, 5, || {
        black_box(CellList::build(positions, box_lengths, RESPOND_MODEL.rcut));
    });
    r.set("qxmd.celllist_build_us", secs * 1e6);

    // NAC and hopping at the MESH panel shape.
    let before = stage_panel();
    let mut after = stage_panel();
    QdStep::new(stage_grid()).step(&mut after, &stage_field(), Vec3::new(0.02, 0.0, 0.0), 0.05);
    let dv = stage_grid().dv();
    let mut nac = NacMatrix::from_overlaps(&before.psi, &after.psi, dv, 8.0);
    let secs = per_call(7, 50, || {
        nac = NacMatrix::from_overlaps(&before.psi, &after.psi, dv, 8.0)
    });
    r.set("qxmd.nac_us", secs * 1e6);
    let hopping = SurfaceHopping::new(300.0, 10.0);
    let eps: Vec<f64> = (0..MESH_STAGE_NORB).map(|s| 0.1 * s as f64).collect();
    let secs = per_call(7, 200, || {
        let mut f = [2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        black_box(hopping.step(&mut f, &eps, &nac, 8.0));
    });
    r.set("qxmd.hop_us", secs * 1e6);
}

pub fn nnqmd(r: &mut Report, inputs: &Inputs) {
    // f64: the 640-atom respond stage of `nn_response_f64`.
    let model = AllegroLite::new(RESPOND_MODEL, inputs.nn_response.seed);
    let (nx, ny, nz) = inputs.nn_response.cells;
    let big = PerovskiteLattice::uniform(nx, ny, nz, Vec3::new(0.0, 0.0, 0.1)).system;
    let secs = per_call(5, 1, || {
        black_box(block_evaluate(
            &model,
            &big.species,
            &big.positions,
            big.box_lengths,
            NN_RESPONSE_BATCHES,
        ));
    });
    r.set("nnqmd.infer_f64_atoms_per_s", big.len() as f64 / secs);

    // bf16 and batching: the four 160-atom domains of `nn_ensemble_bf16`.
    let model = AllegroLite::new(RESPOND_MODEL, inputs.model_seed);
    let secs = per_call(7, 5, || {
        black_box(QuantizedModel::from_model(&model));
    });
    r.set("nnqmd.quantize_ms", secs * 1e3);
    let quantized = QuantizedModel::from_model(&model);
    let domains = build_domains(inputs);
    let reqs = requests(&domains);
    let atoms: usize = domains.iter().map(|d| d.len()).sum();
    let secs = per_call(7, 1, || {
        black_box(block_evaluate_many_bf16(&quantized, &reqs));
    });
    r.set("nnqmd.infer_bf16_atoms_per_s", atoms as f64 / secs);
    let (many, single) = per_call_pair(
        5,
        || {
            black_box(block_evaluate_many(&model, &reqs));
        },
        || {
            for d in &domains {
                black_box(block_evaluate(
                    &model,
                    &d.species,
                    &d.positions,
                    d.box_lengths,
                    ENSEMBLE_BATCHES,
                ));
            }
        },
    );
    r.set("nnqmd.many_vs_single_ratio", many / single);
    r.set(
        "nnqmd.bf16_force_err",
        bf16_force_error(&model, &quantized, &domains).0,
    );

    // Two submitters mirroring each other's requests: the rendezvous
    // should evaluate each distinct request once.
    const ROUNDS: usize = 4;
    let batch = ForceBatch::new(model, ENSEMBLE_BATCHES, 2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for d in domains.iter().take(ROUNDS) {
                    black_box(batch.submit(&d.species, &d.positions, d.box_lengths));
                }
            });
        }
    });
    r.set(
        "nnqmd.force_batch_unique_ratio",
        batch.unique_evaluations() as f64 / batch.requests_served() as f64,
    );
}

pub fn maxwell(r: &mut Report) {
    // The FDTD job of `service_mix`.
    const CELLS: usize = FDTD_CELLS;
    const STEPS: usize = FDTD_STEPS;
    let current = vec![0.0; CELLS];
    let mut field = Yee1d::new(CELLS, 1.0, 0.5);
    let secs = per_call(7, 10, || {
        for _ in 0..STEPS {
            field.step(&current, None);
        }
    });
    r.set(
        "maxwell.yee_cell_steps_per_s",
        (CELLS * STEPS) as f64 / secs,
    );
    let mut driven = PulsedYee::new(
        Yee1d::new(CELLS, 1.0, 0.5),
        GaussianPulse::new(0.2, 0.3, 20.0, 8.0),
        CELLS / 4,
    );
    let secs = per_call(7, 10, || {
        for _ in 0..STEPS {
            black_box(driven.advance());
        }
    });
    r.set("maxwell.pulsed_yee_step_ns", secs / STEPS as f64 * 1e9);
}

pub fn topo(r: &mut Report) {
    // The 16×16×2 texture `switching_e2e` samples 200 times per run.
    let before = Pipeline::new(PipelineConfig::small_demo()).polarization();
    let secs = per_call(7, 20, || {
        black_box(TextureReport::analyze(&before));
    });
    r.set("topo.texture_analyze_us", secs * 1e6);
    let dark = PipelineConfig {
        cells: (16, 16, 2),
        u0: 0.2,
        ..PipelineConfig::small_demo()
    };
    let after = Pipeline::new(dark).polarization();
    let secs = per_call(7, 20, || {
        black_box(compare(&before, &after));
    });
    r.set("topo.compare_us", secs * 1e6);
}
