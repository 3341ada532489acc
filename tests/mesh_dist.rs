//! Integration: the distributed MESH step driver against its serial
//! oracle, through the facade.
//!
//! The paper's MESH stage (Maxwell field ↔ Ehrenfest electrons ↔ surface
//! hopping ↔ QXMD atoms) dominates wall-clock at scale, so PR 5 shards it
//! the same way PR 3 sharded the SCF: one communicator per domain, band
//! decomposition inside each group. These tests pin the distributed
//! trajectory — band energies, per-step topological charges, and the
//! mesh-trace FNV digest — to the serial `MeshDriver` **bit-for-bit** at
//! 1, 2, and 4 ranks per domain, and pin the lit/dark pump–probe batch
//! executed *inside* `World::run` to the in-process `RunPlan` batch.
//!
//! No tolerance anywhere: column propagation, current terms, excitation
//! terms, and band energies are sharded column-locally; coupling steps
//! run redundantly on replicated inputs; world-level collectives carry
//! one non-zero contribution per domain.
//!
//! Serial and distributed drivers run one step body
//! (`MeshDriver::step_in`), so the 1-rank case holds by construction; the
//! 2- and 4-rank cases compare the sharded-and-gathered inner loop with
//! the monolithic one, the `self_consistent` fixture covers the
//! redundant-propagation branch, and the per-step collective counts of
//! each case are pinned as exact integers.

use mlmd::core::config::PipelineConfig;
use mlmd::core::pipeline::Pipeline;
use mlmd::dcmesh::dist_mesh::{run_distributed_mesh, DistributedMeshDriver};
use mlmd::dcmesh::ehrenfest::EhrenfestConfig;
use mlmd::dcmesh::fixture::{small_mesh_builder, small_mesh_driver};
use mlmd::dcmesh::mesh::{MeshConfig, MeshDriverBuilder, MeshStepRecord};
use mlmd::parallel::comm::{CollectiveOp, World};

const STEPS: usize = 3;

/// FNV-1a over the f64 bit patterns of the salient per-step fields — the
/// same digest shape `tests/engine_pipeline.rs` pins the pipeline with.
fn mesh_checksum(records: &[MeshStepRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in records {
        for bits in [
            r.time_fs.to_bits(),
            r.n_exc.to_bits(),
            r.absorbed_energy.to_bits(),
            r.atom_potential_energy.to_bits(),
            r.topological_charge.to_bits(),
        ] {
            h ^= bits;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        for f in &r.occupations {
            h ^= f.to_bits();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn assert_traces_equal(want: &[MeshStepRecord], got: &[MeshStepRecord], label: &str) {
    assert_eq!(want.len(), got.len(), "{label}: trajectory length");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(
            w.time_fs.to_bits(),
            g.time_fs.to_bits(),
            "{label}: step {i} time"
        );
        assert_eq!(
            w.n_exc.to_bits(),
            g.n_exc.to_bits(),
            "{label}: step {i} n_exc"
        );
        assert_eq!(
            w.absorbed_energy.to_bits(),
            g.absorbed_energy.to_bits(),
            "{label}: step {i} absorbed energy"
        );
        assert_eq!(
            w.atom_potential_energy.to_bits(),
            g.atom_potential_energy.to_bits(),
            "{label}: step {i} potential energy"
        );
        assert_eq!(
            w.topological_charge.to_bits(),
            g.topological_charge.to_bits(),
            "{label}: step {i} topological charge"
        );
        assert_eq!(
            w.mean_polarization.z.to_bits(),
            g.mean_polarization.z.to_bits(),
            "{label}: step {i} polarization"
        );
        assert_eq!(w.occupations.len(), g.occupations.len());
        for (a, b) in w.occupations.iter().zip(&g.occupations) {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: step {i} occupations");
        }
    }
    assert_eq!(
        mesh_checksum(want),
        mesh_checksum(got),
        "{label}: mesh-trace FNV digest"
    );
}

#[test]
fn distributed_mesh_trajectory_is_bit_identical_across_rank_counts() {
    let mut serial = small_mesh_driver(0.05);
    let want = serial.run(STEPS);
    let want_eps: Vec<u64> = serial.band_energies().iter().map(|e| e.to_bits()).collect();
    assert!(!want_eps.is_empty(), "oracle must record band energies");
    // 1, 2, and 4 ranks per domain: with norb = 8, band ranges of width
    // 8, 4, and 2.
    for ranks_per_domain in [1usize, 2, 4] {
        let out = World::run(ranks_per_domain, |world| {
            let mut drv = DistributedMeshDriver::new(world, 1, |_| small_mesh_builder(0.05));
            let trace = drv.run(STEPS);
            let eps: Vec<u64> = drv.band_energies().iter().map(|e| e.to_bits()).collect();
            let q = drv.topological_charge();
            (trace, eps, q)
        });
        for (rank, (trace, eps, q)) in out.iter().enumerate() {
            let label = format!("{ranks_per_domain} ranks/domain, rank {rank}");
            assert_traces_equal(&want, trace, &label);
            assert_eq!(&want_eps, eps, "{label}: band energies");
            assert_eq!(
                serial.topological_charge().to_bits(),
                q.to_bits(),
                "{label}: final topological charge"
            );
        }
    }
}

/// The canonical fixture with the self-consistent Hartree update on: the
/// inner loop couples the orbitals every QD step, so a band group
/// propagates the full panel redundantly instead of sharding it.
fn self_consistent_builder() -> MeshDriverBuilder {
    small_mesh_builder(0.05).config(MeshConfig {
        ehrenfest: EhrenfestConfig {
            dt_qd: 0.05,
            n_qd: 8,
            self_consistent: true,
        },
        exc_per_cell_scale: 30.0,
        ..Default::default()
    })
}

#[test]
fn self_consistent_fallback_is_bit_identical_at_two_ranks() {
    let mut serial = self_consistent_builder().build();
    let want = serial.run(STEPS);
    let out = World::run(2, |world| {
        let mut drv = DistributedMeshDriver::new(world, 1, |_| self_consistent_builder());
        let trace = drv.run(STEPS);
        (trace, drv.band_energies().to_vec())
    });
    for (rank, (trace, eps)) in out.iter().enumerate() {
        assert_traces_equal(&want, trace, &format!("self-consistent, rank {rank}"));
        let bits = |e: &[f64]| e.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(serial.band_energies()), bits(eps), "rank {rank} eps");
    }
}

/// Collective calls one rank makes per MD step on a one-domain world of
/// `ranks`, as `[AllgatherVec on the domain communicator, AllreduceSumVec
/// on the world, anything else]`. Two run lengths are differenced so the
/// construction broadcast cancels; the fabric counts one op per member
/// rank per call.
fn collectives_per_step(ranks: usize, builder: fn() -> MeshDriverBuilder) -> [u64; 3] {
    let count = |steps: usize| {
        let (_, rows) = World::run_probed(ranks, |world| {
            DistributedMeshDriver::new(world, 1, |_| builder()).run(steps);
        });
        let mut calls = [0u64; 3];
        for row in &rows {
            let slot = match (row.comm, row.op) {
                (0, CollectiveOp::AllreduceSumVec) => 1,
                (comm, CollectiveOp::AllgatherVec) if comm != 0 => 0,
                _ => 2,
            };
            calls[slot] += row.stats.ops;
        }
        calls
    };
    let (short, long) = (count(1), count(3));
    let per = 2 * ranks as u64;
    std::array::from_fn(|i| {
        let extra = long[i] - short[i];
        assert_eq!(extra % per, 0, "every rank makes every call");
        extra / per
    })
}

#[test]
fn step_collective_counts_are_pinned_per_rank_count() {
    // The one step body must not grow a collective in either case: four
    // allgathers (sub-panels, current terms, excitation terms, band
    // energies) when the inner loop is sharded, two when it runs
    // redundantly, none on one rank; always one world-level E/J exchange.
    let lit: fn() -> MeshDriverBuilder = || small_mesh_builder(0.05);
    assert_eq!(collectives_per_step(1, lit), [0, 1, 0]);
    assert_eq!(collectives_per_step(2, lit), [4, 1, 0]);
    assert_eq!(collectives_per_step(4, lit), [4, 1, 0]);
    assert_eq!(collectives_per_step(2, self_consistent_builder), [2, 1, 0]);
}

#[test]
fn lit_and_dark_domains_run_concurrently_and_match_their_oracles() {
    // Two MESH domains (a pump-probe lit/dark pair) on a 2-domain ×
    // 2-ranks world: each domain's trajectory must match its own serial
    // oracle bit-for-bit, and the E/J exchange must see both domains.
    let amp = |d: usize| if d == 0 { 0.05 } else { 0.0 };
    let want_lit = small_mesh_driver(0.05).run(STEPS);
    let want_dark = small_mesh_driver(0.0).run(STEPS);
    let traces = run_distributed_mesh(2, 2, STEPS, |d| small_mesh_builder(amp(d)));
    assert_eq!(traces.len(), 2);
    assert_traces_equal(&want_lit, &traces[0], "lit domain");
    assert_traces_equal(&want_dark, &traces[1], "dark domain");
    // The two domains genuinely diverge (different pulses), so the match
    // above is not vacuous.
    assert_ne!(
        traces[0].last().unwrap().n_exc.to_bits(),
        traces[1].last().unwrap().n_exc.to_bits(),
        "lit and dark trajectories must differ"
    );
}

#[test]
fn exchange_table_is_replicated_and_matches_serial_absorption() {
    let out = World::run(4, |world| {
        let mut drv = DistributedMeshDriver::new(world, 2, |d| {
            small_mesh_builder(if d == 0 { 0.05 } else { 0.0 })
        });
        drv.run(2);
        drv.last_exchange().expect("exchange after steps").clone()
    });
    // Identical table on every rank of the world.
    for ex in &out {
        assert_eq!(ex.domain_current.len(), 2);
        for (a, b) in ex.domain_absorbed.iter().zip(&out[0].domain_absorbed) {
            assert_eq!(a.to_bits(), b.to_bits(), "exchange must replicate");
        }
    }
    // The lit domain's published absorption is the serial driver's.
    let mut serial = small_mesh_driver(0.05);
    serial.run(1);
    let want = serial.run(1)[0].absorbed_energy;
    assert_eq!(out[0].domain_absorbed[0].to_bits(), want.to_bits());
}

#[test]
fn world_executed_pump_probe_batch_matches_in_process_run_plan() {
    // The ROADMAP item: run the lit/dark RunPlan batch inside World::run
    // ranks. Pin the two `mesh_batch` forms bit-identical at 1 and 2
    // ranks per domain, through the public pipeline seam.
    let mut cfg = PipelineConfig::small_demo();
    cfg.mesh_steps = STEPS;
    let amplitudes = [cfg.pulse_e0, 0.0];
    let in_process = Pipeline::new(cfg).mesh_batch(&amplitudes, cfg.mesh_steps);
    for ranks_per_domain in [1usize, 2] {
        let mut world_cfg = cfg;
        world_cfg.mesh_ranks_per_domain = Some(ranks_per_domain);
        let in_world = Pipeline::new(world_cfg).mesh_batch(&amplitudes, cfg.mesh_steps);
        assert_eq!(in_process.len(), in_world.len());
        for (run, (a, b)) in in_process.iter().zip(&in_world).enumerate() {
            assert_traces_equal(a, b, &format!("rpd {ranks_per_domain}, run {run}"));
        }
    }
}

#[test]
fn full_pipeline_is_invariant_under_mesh_world_execution() {
    // End to end: Pipeline::run with the pulse stage executed inside
    // World::run must reproduce the in-process outcome bit-for-bit
    // (mesh trajectory, peak excitation, downstream response and final
    // topology all included).
    let mut cfg = PipelineConfig::small_demo();
    cfg.cells = (4, 4, 1);
    cfg.prepare_steps = 2;
    cfg.mesh_steps = 2;
    cfg.response_steps = 25;
    let base = Pipeline::new(cfg).run();
    let mut world_cfg = cfg;
    world_cfg.mesh_ranks_per_domain = Some(2);
    let dist = Pipeline::new(world_cfg).run();
    assert_eq!(base.n_exc_peak.to_bits(), dist.n_exc_peak.to_bits());
    assert_eq!(
        base.excitation_fraction.to_bits(),
        dist.excitation_fraction.to_bits()
    );
    assert_eq!(
        base.final_topological_charge.to_bits(),
        dist.final_topological_charge.to_bits()
    );
    assert_traces_equal(&base.mesh_records, &dist.mesh_records, "pipeline mesh");
    assert_eq!(base.response_trace.len(), dist.response_trace.len());
    for (a, b) in base.response_trace.iter().zip(&dist.response_trace) {
        assert_eq!(a.polar_order.to_bits(), b.polar_order.to_bits());
        assert_eq!(a.mean_charge.to_bits(), b.mean_charge.to_bits());
    }
}

#[test]
fn fabric_reclaims_channels_across_repeated_distributed_mesh_cycles() {
    // Satellite pin: the new mesh collectives (panel/term/excitation/eps
    // allgathers + the E/J allreduce) must not leak communicators when
    // drivers are built and dropped per cycle — the same non-growth
    // invariant `comm.rs` pins for bare split/drop cycles.
    let out = World::run(4, |world| {
        let mut counts = Vec::new();
        for _cycle in 0..3 {
            let mut drv = DistributedMeshDriver::new(world.clone(), 2, |d| {
                small_mesh_builder(if d == 0 { 0.03 } else { 0.0 })
            });
            drv.run(2);
            drop(drv);
            // Every rank drops its hierarchy (and its domain communicator
            // handles) before the barrier, so after it the per-cycle
            // communicators are fully retired.
            world.barrier();
            counts.push(world.fabric_live_comm_count());
        }
        counts
    });
    for counts in out {
        assert!(
            counts.iter().all(|&live| live == 1),
            "only the world comm may stay live: {counts:?}"
        );
    }
}
