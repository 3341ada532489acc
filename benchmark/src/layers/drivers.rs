//! Driver-level layers: `dcmesh`, `parallel`, `floquet`, `exasim`, `core`.

use super::kernels::{stage_field, stage_grid, stage_panel};
use super::{per_call, per_call_pair};
use crate::inputs::{service_material, Inputs, FDTD_CELLS, FLOQUET_DIMERIZATIONS, MESH_DIST_RANKS};
use crate::metrics::Report;
use crate::spans::{Span, Tracer};
use crate::stats::median;
use crate::workloads::mesh::run_probed_domain;
use crate::workloads::{self, cold_mesh_stage, Iteration};
use mlmd::core::config::PipelineConfig;
use mlmd::core::engine::{
    CancelToken, Engine, NullObserver, ResponseTraceObserver, SampleStride, TraceObserver,
};
use mlmd::core::pipeline::Pipeline;
use mlmd::dcmesh::checkpoint::{decode_checkpoint, encode_checkpoint};
use mlmd::dcmesh::ehrenfest::{run_inner_loop, EhrenfestConfig};
use mlmd::dcmesh::fixture::small_serial_scf;
use mlmd::dcmesh::scf::band_energies;
use mlmd::dcmesh::GroundStateCache;
use mlmd::exasim::calibrate::{calibrate, CalibrationConfig};
use mlmd::exasim::planner::Planner;
use mlmd::exasim::Machine;
use mlmd::floquet::sweep::{DimerConfig, SuperlatticeSweep};
use mlmd::lfd::{Occupations, QdStep};
use mlmd::maxwell::source::GaussianPulse;
use mlmd::maxwell::{PulsedYee, Yee1d};
use mlmd::numerics::flops::{gemm_tally, reset_gemm_tally};
use mlmd::numerics::{c64, Vec3};
use mlmd::parallel::comm::{CollectiveOp, CollectiveRecord, World};
use mlmd::service::JobSpec;
use std::hint::black_box;
use std::time::Instant;

pub fn dcmesh(r: &mut Report, inputs: &Inputs) {
    let config = inputs.mesh_pulse;
    let e0 = inputs.sweep_amplitudes[2];
    let pipeline = Pipeline::new(config);

    // Construction: a fresh descent vs a hit in the process cache.
    let secs = per_call(3, 1, || cold_mesh_stage(&config, e0));
    r.set("dcmesh.construct_cold_ms", secs * 1e3);
    let secs = per_call(5, 1, || {
        black_box(pipeline.mesh_stage(e0));
    });
    r.set("dcmesh.construct_warm_ms", secs * 1e3);

    // One MD step, and the GEMM flops it enters on this thread.
    let mut driver = pipeline.mesh_stage(e0);
    driver.step();
    reset_gemm_tally();
    driver.step();
    r.set("numerics.gemm_flops_per_mesh_step", gemm_tally() as f64);
    let step = per_call(8, 1, || {
        black_box(driver.step());
    });
    r.set("dcmesh.step_us", step * 1e6);

    // The step's public constituents, timed on their own.
    let ehrenfest: EhrenfestConfig = config.ehrenfest;
    let qd = QdStep::new(stage_grid());
    let occ = Occupations::aufbau(stage_panel().norb, 4.0);
    let vloc = stage_field();
    let mut wf = stage_panel();
    let inner = per_call(5, 1, || {
        black_box(run_inner_loop(
            &qd,
            &mut wf,
            &occ,
            &vloc,
            Vec3::ZERO,
            |_| Vec3::new(0.0, 0.0, e0),
            0.0,
            ehrenfest,
        ));
    });
    r.set("dcmesh.inner_loop_us", inner * 1e6);
    let bands = per_call(7, 10, || {
        black_box(band_energies(&stage_grid(), &vloc, &wf));
    });
    r.set("dcmesh.band_energies_us", bands * 1e6);
    let timed = |name: &str| r.get(name).expect("kernel layers are probed first") * 1e-6;
    let explained = inner + bands + timed("qxmd.nac_us") + timed("qxmd.hop_us");
    r.set("dcmesh.step_residual_frac", 1.0 - explained / step);

    // Checkpoint codec on the stage's own ground state.
    let gs = pipeline.mesh_stage_builder(e0).ground_state();
    let bytes = encode_checkpoint(&gs);
    let mb = bytes.len() as f64 / 1e6;
    let secs = per_call(7, 5, || {
        black_box(encode_checkpoint(&gs));
    });
    r.set("dcmesh.ckpt_encode_mbs", mb / secs);
    let secs = per_call(7, 5, || {
        black_box(decode_checkpoint(&bytes).expect("own checkpoint decodes"));
    });
    r.set("dcmesh.ckpt_decode_mbs", mb / secs);

    let mut scf = small_serial_scf();
    let secs = per_call(3, 1, || {
        black_box(scf.iterate());
    });
    r.set("dcmesh.scf_iterate_ms", secs * 1e3);
    r.set(
        "dcmesh.gs_cache_computes",
        GroundStateCache::global().computes() as f64,
    );
}

/// Collective calls and logical payload bytes summed over the fabric,
/// per rank.
fn per_rank_totals(rows: &[CollectiveRecord], ranks: usize) -> (f64, f64, f64) {
    let sum = |f: fn(&CollectiveRecord) -> f64| rows.iter().map(f).sum::<f64>() / ranks as f64;
    (
        sum(|row| row.stats.ops as f64),
        sum(|row| row.stats.bytes as f64),
        sum(|row| row.stats.wall_secs),
    )
}

fn median_duration_s(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect();
    median(&durations)
}

pub fn parallel(r: &mut Report, inputs: &Inputs) {
    let secs = per_call(9, 1, || {
        black_box(World::run(2, |comm| comm.rank()));
    });
    r.set("parallel.world_spawn_us", secs * 1e6);

    // The two collectives of a distributed MESH step at their payloads:
    // the E/J exchange and one rank's half of the orbital panel.
    const ROUNDS: usize = 200;
    let half_panel = stage_grid().len() * stage_panel().norb / MESH_DIST_RANKS;
    let (_, rows) = World::run_probed(MESH_DIST_RANKS, |comm| {
        for _ in 0..ROUNDS {
            black_box(comm.allreduce_sum_vec(vec![1.0; 2]));
            black_box(comm.allgather_vec(vec![c64::one(); half_panel]));
        }
    });
    let mean_us = |op: CollectiveOp| {
        let row = rows.iter().find(|row| row.comm == 0 && row.op == op);
        row.map_or(0.0, |row| row.stats.mean_wall_secs() * 1e6)
    };
    r.set(
        "parallel.allreduce_us",
        mean_us(CollectiveOp::AllreduceSumVec),
    );
    r.set(
        "parallel.allgather_panel_us",
        mean_us(CollectiveOp::AllgatherVec),
    );

    // The rank-sharded domain itself. Two run lengths: their difference
    // cancels what construction contributes to the counters.
    let pipeline = Pipeline::new(inputs.mesh_dist);
    let e0 = inputs.dist_amplitude;
    const SHORT: usize = 4;
    const LONG: usize = 12;
    let probed = |ranks: usize, steps: usize| {
        let tracer = Tracer::new(true);
        let start = Instant::now();
        let (_, rows) = run_probed_domain(&pipeline, e0, ranks, steps, &tracer, None, 0);
        let wall = start.elapsed().as_secs_f64();
        (per_rank_totals(&rows, ranks), wall, tracer.into_spans())
    };
    let per_step = |long: f64, short: f64| (long - short) / (LONG - SHORT) as f64;
    let ((ops_s, bytes_s, _), _, _) = probed(MESH_DIST_RANKS, SHORT);
    let ((ops_l, bytes_l, coll_secs), wall, spans) = probed(MESH_DIST_RANKS, LONG);
    r.set("parallel.collectives_per_step", per_step(ops_l, ops_s));
    r.set("parallel.bytes_per_step", per_step(bytes_l, bytes_s));
    // Time inside collectives (waiting for the peer included) over the
    // rank-seconds of the world.
    r.set("parallel.collective_time_frac", coll_secs / wall);
    let serial_step = r.get("dcmesh.step_us").expect("dcmesh is probed first") * 1e-6;
    r.set(
        "parallel.dist2_over_serial",
        median_duration_s(&spans, "dcmesh.dist_step") / serial_step,
    );
    // Four ranks oversubscribe a two-core host: counts only.
    let ((ops4_s, ..), _, _) = probed(4, SHORT);
    let ((ops4_l, ..), _, _) = probed(4, LONG);
    r.set(
        "parallel.dist4_collectives_per_step",
        per_step(ops4_l, ops4_s),
    );
}

pub fn floquet(r: &mut Report) {
    let configs: Vec<DimerConfig> = FLOQUET_DIMERIZATIONS
        .into_iter()
        .map(|dimerization| DimerConfig {
            dimerization,
            patch_period: 20,
        })
        .collect();
    let sweep = SuperlatticeSweep::canonical(configs);
    let secs = per_call(3, 1, || {
        black_box(sweep.execute(&CancelToken::new()));
    });
    r.set("floquet.sweep4_ms", secs * 1e3);

    // The streaming spectral observer against a plain trace observer.
    let config = sweep.configs[1];
    let (observed, plain) = per_call_pair(
        7,
        || {
            let mut observer = sweep.observer();
            Engine::run(&mut sweep.driver(&config), sweep.n_steps, &mut observer);
            black_box(observer.finish());
        },
        || {
            let mut observer = TraceObserver::every();
            Engine::run(&mut sweep.driver(&config), sweep.n_steps, &mut observer);
            black_box(observer.trace);
        },
    );
    r.set("floquet.observer_overhead_frac", observed / plain - 1.0);
    let secs = per_call(7, 5, || {
        black_box(sweep.invariant(&config));
    });
    r.set("floquet.invariant_us", secs * 1e6);
}

pub fn exasim(r: &mut Report) {
    let start = Instant::now();
    let calibration = calibrate(&CalibrationConfig::quick());
    r.set("exasim.calibrate_ms", start.elapsed().as_secs_f64() * 1e3);
    let planner = Planner::new(Machine::from_calibration(&calibration), calibration);
    let job = JobSpec::mesh_run(service_material(), 0.1, 2).plan_job();
    let secs = per_call(7, 1000, || {
        black_box(planner.plan(black_box(&job)));
    });
    r.set("exasim.plan_ns", secs * 1e9);
}

/// Wall-clock of `Pipeline::run` against the summed spans of its public
/// stage equivalents: the share of a run no public stage explains.
fn pipeline_residual_frac(inputs: &Inputs) -> f64 {
    let mut iteration: Box<dyn Iteration> = workloads::setup("switching_e2e", inputs).iteration;
    let mut runs = Vec::new();
    let mut stages = Vec::new();
    for op in 0..3 {
        let start = Instant::now();
        iteration.run().expect("switching run passes its checks");
        runs.push(start.elapsed().as_secs_f64());
        let tracer = Tracer::new(true);
        iteration
            .replay(&tracer, op)
            .expect("switching replay passes its checks");
        let spans = tracer.into_spans();
        let root = spans.iter().find(|s| s.parent.is_none()).map(|s| s.id);
        let staged: u64 = spans
            .iter()
            .filter(|s| s.parent == root && root.is_some())
            .map(Span::duration_ns)
            .sum();
        stages.push(staged as f64 * 1e-9);
    }
    1.0 - median(&stages) / median(&runs)
}

pub fn core(r: &mut Report, inputs: &Inputs) {
    // Engine loop + null observer against a bare advance loop, on the
    // cheapest stepper (so the loop overhead is not lost in the step).
    const STEPS: usize = 20_000;
    let make = || {
        PulsedYee::new(
            Yee1d::new(FDTD_CELLS, 1.0, 0.5),
            GaussianPulse::new(0.2, 0.3, 20.0, 8.0),
            FDTD_CELLS / 4,
        )
    };
    let (engine, bare) = per_call_pair(
        9,
        || {
            let mut stepper = make();
            Engine::run(&mut stepper, STEPS, &mut NullObserver);
            black_box(stepper.time());
        },
        || {
            let mut stepper = make();
            for _ in 0..STEPS {
                black_box(stepper.advance());
            }
            black_box(stepper.time());
        },
    );
    r.set(
        "core.engine_ns_per_step",
        (engine - bare) / STEPS as f64 * 1e9,
    );

    // The response observer (texture analysis every 10th step) on the
    // 2560-atom stage.
    let config = PipelineConfig::small_demo();
    let pipeline = Pipeline::new(config);
    const MD_STEPS: usize = 100;
    let (observed, unobserved) = per_call_pair(
        5,
        || {
            let mut observer =
                ResponseTraceObserver::new(config.cells, config.dt_fs, SampleStride::new(10));
            Engine::run(
                &mut pipeline.supercell_md_stage(0.3),
                MD_STEPS,
                &mut observer,
            );
            black_box(observer.trace);
        },
        || {
            Engine::run(
                &mut pipeline.supercell_md_stage(0.3),
                MD_STEPS,
                &mut NullObserver,
            )
        },
    );
    r.set("core.response_observer_frac", observed / unobserved - 1.0);

    // The lit/dark pair: one after the other vs one RunPlan batch.
    let e0 = inputs.switching.pulse_e0;
    let steps = config.mesh_steps;
    let (sequential, batched) = per_call_pair(
        5,
        || {
            black_box(pipeline.mesh_batch(&[e0], steps));
            black_box(pipeline.mesh_batch(&[0.0], steps));
        },
        || {
            black_box(pipeline.mesh_batch(&[e0, 0.0], steps));
        },
    );
    r.set("core.runplan_pair_efficiency", sequential / (2.0 * batched));
    r.set(
        "core.pipeline_residual_frac",
        pipeline_residual_frac(inputs),
    );
}
