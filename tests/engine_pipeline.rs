//! Engine-refactor regression suite.
//!
//! 1. The engine-based `Pipeline::run` is pinned **bit-for-bit** against
//!    the pre-refactor trajectory (captured from the seed implementation
//!    at commit `9a9c531`, before the `Stepper`/`Observer`/`RunPlan`
//!    rewrite) for both the lit and dark `small_demo` configurations.
//!    The respond-stage values (the response-trace digest, the last polar
//!    order and charge, the final charge) were re-pinned when the Langevin
//!    noise moved from Box–Muller to the ziggurat sampler; stages 0–2 keep
//!    their pre-refactor pins.
//! 2. `RunPlan` batched execution is pinned identical to sequential runs
//!    at pool widths 1, 2, and 4.
//! 3. The switching verdict holds over an ensemble of seeds — the physics
//!    check that licenses re-pinning the respond-stage values above.
//!    Tier-1 and CI also run this file in release, for all ten seeds:
//!    `cargo test --release -q --test engine_pipeline`.

use mlmd::core::config::PipelineConfig;
use mlmd::core::engine::{Engine, RunPlan, TraceObserver};
use mlmd::core::pipeline::{Pipeline, PipelineOutcome};
use mlmd::dcmesh::mesh::MeshStepRecord;

/// FNV-1a over the f64 bit patterns of a (time, a, b) trace — the same
/// digest used to capture the pre-refactor pins.
fn checksum(trace: &[(f64, f64, f64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (a, b, c) in trace {
        for bits in [a.to_bits(), b.to_bits(), c.to_bits()] {
            h ^= bits;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

struct Pins {
    initial_q: u64,
    final_q: u64,
    n_exc_peak: u64,
    exc_frac: u64,
    mesh_len: usize,
    mesh_checksum: u64,
    trace_len: usize,
    trace_checksum: u64,
    first_polar: u64,
    last_polar: u64,
    last_charge: u64,
}

/// Lit small_demo: stages 0–2 from the pre-refactor pipeline, the
/// respond stage from ziggurat Langevin noise.
const LIT: Pins = Pins {
    initial_q: 0xbff0000000000001,
    final_q: 0x0000000000000000,
    n_exc_peak: 0x3fc7fa55f8aa84b3,
    exc_frac: 0x3fd7fa55f8aa84b3,
    mesh_len: 6,
    mesh_checksum: 0xe7cb5d5c37024ba8,
    trace_len: 201,
    trace_checksum: 0x7cdd41e0ebb864cb,
    first_polar: 0x3fd340d88dca6f95,
    last_polar: 0x3f7073bb19551272,
    last_charge: 0x0000000000000000,
};

/// Dark small_demo: stages 0–2 from the pre-refactor pipeline, the
/// respond stage from ziggurat Langevin noise.
const DARK: Pins = Pins {
    initial_q: 0xbff0000000000001,
    final_q: 0xbff0000000000001,
    n_exc_peak: 0x0000000000000000,
    exc_frac: 0x0000000000000000,
    mesh_len: 6,
    mesh_checksum: 0xcc70076f1c82a15a,
    trace_len: 201,
    trace_checksum: 0x1688fc43ccd7dc49,
    first_polar: 0x3fd34153d1f10b9b,
    last_polar: 0x3fd5ca95990ec7c2,
    last_charge: 0xbff0000000000001,
};

fn assert_pinned(out: &PipelineOutcome, pins: &Pins, label: &str) {
    assert_eq!(
        out.initial_topological_charge.to_bits(),
        pins.initial_q,
        "{label}: initial charge drifted from the pre-refactor trajectory"
    );
    assert_eq!(
        out.final_topological_charge.to_bits(),
        pins.final_q,
        "{label}: final charge"
    );
    assert_eq!(
        out.n_exc_peak.to_bits(),
        pins.n_exc_peak,
        "{label}: n_exc_peak"
    );
    assert_eq!(
        out.excitation_fraction.to_bits(),
        pins.exc_frac,
        "{label}: excitation fraction"
    );
    assert_eq!(
        out.mesh_records.len(),
        pins.mesh_len,
        "{label}: mesh trajectory length"
    );
    let mesh: Vec<(f64, f64, f64)> = out
        .mesh_records
        .iter()
        .map(|r| (r.time_fs, r.n_exc, r.atom_potential_energy))
        .collect();
    assert_eq!(
        checksum(&mesh),
        pins.mesh_checksum,
        "{label}: mesh trajectory digest"
    );
    assert_eq!(
        out.response_trace.len(),
        pins.trace_len,
        "{label}: response trace length"
    );
    let trace: Vec<(f64, f64, f64)> = out
        .response_trace
        .iter()
        .map(|r| (r.time_fs, r.polar_order, r.mean_charge))
        .collect();
    assert_eq!(
        checksum(&trace),
        pins.trace_checksum,
        "{label}: response trace digest"
    );
    let first = out.response_trace.first().unwrap();
    let last = out.response_trace.last().unwrap();
    assert_eq!(
        first.polar_order.to_bits(),
        pins.first_polar,
        "{label}: first polar order"
    );
    assert_eq!(
        last.polar_order.to_bits(),
        pins.last_polar,
        "{label}: last polar order"
    );
    assert_eq!(
        last.mean_charge.to_bits(),
        pins.last_charge,
        "{label}: last mean charge"
    );
}

#[test]
fn lit_pipeline_matches_pre_refactor_trajectory_bit_for_bit() {
    let mut p = Pipeline::new(PipelineConfig::small_demo());
    let out = p.run();
    assert_pinned(&out, &LIT, "lit");
}

#[test]
fn dark_pipeline_matches_pre_refactor_trajectory_bit_for_bit() {
    let mut cfg = PipelineConfig::small_demo();
    cfg.pulse_e0 = 0.0;
    let mut p = Pipeline::new(cfg);
    let out = p.run();
    assert_pinned(&out, &DARK, "dark");
}

/// The switching verdict is a property of the physics, not of one noise
/// realisation: over `small_demo` seeds (which drive only the respond
/// stage's Langevin stream), the lit run erases the skyrmion and the dark
/// run keeps its charge. Ten seeds in release; two in debug, for the path.
#[test]
fn switching_verdict_holds_across_seeds() {
    let n_seeds = if cfg!(debug_assertions) { 2 } else { 10 };
    for seed in 0..n_seeds {
        let mut lit = PipelineConfig::small_demo();
        lit.seed = seed;
        let mut dark = lit;
        dark.pulse_e0 = 0.0;
        let lit = Pipeline::new(lit).run();
        assert!(
            lit.verdict.topology_switched,
            "seed {seed}: lit run kept Q {} → {}",
            lit.initial_topological_charge, lit.final_topological_charge
        );
        let dark = Pipeline::new(dark).run();
        assert!(
            !dark.verdict.topology_switched
                && (dark.final_topological_charge - dark.initial_topological_charge).abs() < 0.5,
            "seed {seed}: dark run lost Q {} → {}",
            dark.initial_topological_charge,
            dark.final_topological_charge
        );
    }
}

fn mesh_traces_equal(a: &[MeshStepRecord], b: &[MeshStepRecord], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: trajectory length");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            ra.time_fs.to_bits(),
            rb.time_fs.to_bits(),
            "{label}: step {i} time"
        );
        assert_eq!(
            ra.n_exc.to_bits(),
            rb.n_exc.to_bits(),
            "{label}: step {i} n_exc"
        );
        assert_eq!(
            ra.absorbed_energy.to_bits(),
            rb.absorbed_energy.to_bits(),
            "{label}: step {i} absorbed energy"
        );
        assert_eq!(
            ra.atom_potential_energy.to_bits(),
            rb.atom_potential_energy.to_bits(),
            "{label}: step {i} potential energy"
        );
        for (fa, fb) in ra.occupations.iter().zip(&rb.occupations) {
            assert_eq!(fa.to_bits(), fb.to_bits(), "{label}: step {i} occupations");
        }
    }
}

#[test]
fn run_plan_batched_matches_sequential_at_all_pool_widths() {
    let cfg = PipelineConfig::small_demo();
    let steps = cfg.mesh_steps;
    let pipeline = Pipeline::new(cfg);
    // Sequential oracle: lit and dark drivers stepped one after another.
    let lit_seq = Engine::run_collect(&mut pipeline.mesh_stage(cfg.pulse_e0), steps);
    let dark_seq = Engine::run_collect(&mut pipeline.mesh_stage(0.0), steps);
    for width in [1usize, 2, 4] {
        let mut plan = RunPlan::new();
        plan.push(
            pipeline.mesh_stage(cfg.pulse_e0),
            TraceObserver::every(),
            steps,
        );
        plan.push(pipeline.mesh_stage(0.0), TraceObserver::every(), steps);
        let done = plan.execute_with_width(width);
        assert_eq!(done.len(), 2);
        mesh_traces_equal(
            &lit_seq,
            &done[0].observer.trace,
            &format!("width {width} lit"),
        );
        mesh_traces_equal(
            &dark_seq,
            &done[1].observer.trace,
            &format!("width {width} dark"),
        );
    }
}
