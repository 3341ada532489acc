//! Exact work counts of the canonical fixtures, pinned as numbers.
//!
//! Wall-clock drifts with the host; a count does not. This binary pins
//! heap allocations with a counting `#[global_allocator]` local to it: it
//! wraps the system allocator and counts, per thread, every `alloc`,
//! `alloc_zeroed` and `realloc` and the bytes requested, so tests running
//! on other threads of the harness do not perturb the count.
//!
//! | operation | allocations | bytes |
//! |---|---|---|
//! | `MdStage<SupercellForce>::advance`, analytic, `small_demo` | 1 | 512 cells × 24 B (`displacement_field`) |
//! | `Langevin::apply`, after the first call | 0 | 0 |
//! | `MeshDriver::step`, `small_mesh_driver` | 85 at `n_qd` 30 and 60: none per QD step | — |
//! | `block_evaluate`, respond network, 4×4×2 and 8×8×2 perovskite | 23 at 160 and 640 atoms: none per atom | — |
//! | 10 000 `EventSink::emit` to a dropped receiver | 0 | 0 |
//!
//! It also pins the modeled host↔device traffic of the canonical MESH
//! fixture (`small_mesh_driver`: 8³ grid, 8 orbitals) on its
//! `TransferLedger`:
//!
//! | operation | H2D bytes | D2H bytes |
//! |---|---|---|
//! | construction | ψ (8³ × 8 × 16) + v_loc (8³ × 8) | 0 |
//! | each `MeshDriver::step` | Δv_loc (8³ × 8) + occupations (8 × 8) | Δf, n_exc, J ((8 + 4) × 8) |
//!
//! and the exact kernel work the benchmark reports as counts:
//!
//! | operation | count |
//! |---|---|
//! | GEMM flops per `MeshDriver::step` (`numerics.gemm_flops_per_mesh_step`) | 2 NAC overlaps × 8 N_orb² N_grid = 524 288 |
//! | QD flops per `MeshDriver::step` (`shadow.qd.flops`) | n_qd × (2 · 6 N_grid N_orb + `flops_per_steps(N_orb, 1)`) |
//! | `Multigrid::solve` V-cycles, 8³ probe density at tol 1e-8 (`lfd.hartree_mg_cycles`) | 5 |
//!
//! and the collectives of a one-domain `DistributedMeshDriver` over
//! `small_mesh_builder` (`parallel.collectives_per_step`,
//! `parallel.bytes_per_step`), counted by `World::run_probed`:
//!
//! | collective | calls per rank | logical bytes, all ranks |
//! |---|---|---|
//! | world `AllreduceSumVec`, per MESH step | 1 | 16 per rank (E, J) |
//! | domain `AllgatherVec`, per MESH step, above 1 rank | 4 | 73 344 at 2 and 4 ranks: ψ 65 536 + current terms 7 680 + 64 + 64 |
//! | domain `Bcast`, construction, above 1 rank | 1 | 152 per rank (the root-resolved ground state) |

use mlmd::core::config::PipelineConfig;
use mlmd::core::pipeline::{Pipeline, MESH_STAGE_EDGE};
use mlmd::dcmesh::dist_mesh::DistributedMeshDriver;
use mlmd::dcmesh::fixture::{small_mesh_builder, small_mesh_driver};
use mlmd::lfd::hartree::Multigrid;
use mlmd::lfd::propagator::FLOPS_PER_VLOC_POINT;
use mlmd::nnqmd::infer::block_evaluate;
use mlmd::nnqmd::model::{AllegroLite, ModelConfig};
use mlmd::numerics::flops::{gemm_tally, reset_gemm_tally};
use mlmd::numerics::grid::Grid3;
use mlmd::numerics::rng::Xoshiro256;
use mlmd::numerics::vec3::Vec3;
use mlmd::parallel::comm::{CollectiveOp, World};
use mlmd::qxmd::perovskite::PerovskiteLattice;
use mlmd::qxmd::thermostat::Langevin;
use mlmd::service::progress::EventSink;
use mlmd::service::{JobEvent, JobId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

struct Counting;

thread_local! {
    static COUNT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn tally(bytes: usize) {
    // `try_with`: the allocator also serves thread teardown, after the
    // thread-local is gone.
    let _ = COUNT.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations and bytes `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> (u64, u64) {
    let before = COUNT.with(Cell::get);
    f();
    let after = COUNT.with(Cell::get);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn respond_stage_step_allocates_only_the_displacement_field() {
    let cfg = PipelineConfig::small_demo();
    let mut stage = Pipeline::new(cfg).supercell_md_stage(0.3);
    stage.advance();
    let field_bytes = (cfg.n_cells() * std::mem::size_of::<Vec3>()) as u64;
    for _ in 0..3 {
        assert_eq!(
            allocations(|| {
                stage.advance();
            }),
            (1, field_bytes),
            "(allocations, bytes) per analytic MdStage::advance"
        );
    }
}

#[test]
fn langevin_apply_allocates_nothing() {
    let mut system = Pipeline::new(PipelineConfig::small_demo())
        .supercell_md_stage(0.0)
        .into_parts()
        .0;
    let thermo = Langevin::new(1.0, 0.3);
    let mut rng = Xoshiro256::new(1);
    thermo.apply(&mut system, 0.2, &mut rng);
    assert_eq!(
        allocations(|| thermo.apply(&mut system, 0.2, &mut rng)),
        (0, 0),
        "(allocations, bytes) per Langevin::apply after the first call"
    );
}

#[test]
fn mesh_driver_ledger_bytes_are_exact() {
    let mut driver = small_mesh_driver(0.05);
    let ledger = Arc::clone(&driver.shadow.ledger);
    let (n_grid, n_orb) = (8 * 8 * 8, 8);
    let psi_bytes = n_grid * n_orb * 16;
    assert_eq!(driver.shadow.psi_bytes(), psi_bytes);
    let construction = psi_bytes + n_grid * 8;
    assert_eq!(
        (ledger.h2d_bytes(), ledger.d2h_bytes()),
        (construction, 0),
        "(H2D, D2H) bytes after construction"
    );
    for steps in 1..=3 {
        driver.step();
        assert_eq!(
            (ledger.h2d_bytes(), ledger.d2h_bytes()),
            (
                construction + steps * (n_grid * 8 + n_orb * 8),
                steps * (n_orb + 4) * 8
            ),
            "(H2D, D2H) bytes after {steps} MeshDriver::step"
        );
    }
}

#[test]
fn mesh_driver_step_gemm_flops_are_exact() {
    let mut driver = small_mesh_driver(0.05);
    let (n_grid, n_orb) = (8 * 8 * 8, 8);
    driver.step();
    for _ in 0..2 {
        reset_gemm_tally();
        driver.step();
        // The NACs' forward and backward overlaps ψ(t)†ψ(t+Δt): one
        // complex multiply-add (8 flops) per N_orb² N_grid entry each.
        assert_eq!(
            gemm_tally(),
            2 * 8 * n_orb * n_orb * n_grid,
            "GEMM flops per MeshDriver::step"
        );
    }
}

#[test]
fn mesh_driver_step_qd_flops_are_exact() {
    let mut driver = small_mesh_driver(0.05);
    let (n_grid, n_orb) = (8 * 8 * 8u64, 8);
    let n_qd = driver.config.ehrenfest.n_qd as u64;
    // Per QD step: two half-step local phases and one symmetric kinetic
    // step over the whole panel — the accounting the cost model reads.
    let per_qd_step = 2 * FLOPS_PER_VLOC_POINT * n_grid * n_orb as u64
        + driver.shadow.qd.kin.flops_per_steps(n_orb, 1);
    for _ in 0..2 {
        let before = driver.shadow.qd.flops.total();
        driver.step();
        assert_eq!(
            driver.shadow.qd.flops.total() - before,
            n_qd * per_qd_step,
            "QD flops per MeshDriver::step"
        );
    }
}

#[test]
fn mesh_driver_step_allocations_do_not_grow_with_n_qd() {
    let per_step = |n_qd: usize| {
        let mut driver = small_mesh_driver(0.05);
        driver.config.ehrenfest.n_qd = n_qd;
        driver.step();
        allocations(|| {
            driver.step();
        })
        .0
    };
    let (at_30, at_60) = (per_step(30), per_step(60));
    assert_eq!(
        at_30, at_60,
        "allocations per MeshDriver::step at n_qd 30 vs 60"
    );
    assert_eq!(at_30, 85, "allocations per MeshDriver::step");
}

#[test]
fn hartree_probe_multigrid_cycles_are_exact() {
    // The benchmark's `lfd.hartree_mg_cycles` probe: the MESH stage grid
    // and its smooth zero-mean test density, solved to 1e-8.
    let edge = MESH_STAGE_EDGE;
    let grid = Grid3::new(edge, edge, edge, 0.5);
    let phase = |n: usize| std::f64::consts::TAU * n as f64 / edge as f64;
    let rho: Vec<f64> = (0..grid.len())
        .map(|g| {
            let (i, j, k) = grid.coords(g);
            0.1 * (phase(i).cos() + phase(j).sin() * phase(k).cos())
        })
        .collect();
    let (_, cycles) = Multigrid::new(grid).solve(&rho, 1e-8, 50);
    assert_eq!(cycles, 5, "V-cycles to tol 1e-8 on the 8³ probe");
}

/// Collective counters of a one-domain `DistributedMeshDriver` over
/// `small_mesh_builder` on `ranks` ranks, after construction and `steps`
/// MESH steps, summed over ranks and communicators:
/// `(op, on the world communicator) → (calls, logical bytes)`.
fn dist_mesh_collectives(ranks: usize, steps: usize) -> BTreeMap<(CollectiveOp, bool), (u64, u64)> {
    let (_, rows) = World::run_probed(ranks, |world| {
        DistributedMeshDriver::new(world, 1, |_| small_mesh_builder(0.05)).run(steps);
    });
    let mut totals = BTreeMap::new();
    for row in rows {
        let entry = totals.entry((row.op, row.comm == 0)).or_insert((0, 0));
        entry.0 += row.stats.ops;
        entry.1 += row.stats.bytes;
    }
    totals
}

#[test]
fn distributed_mesh_collectives_and_bytes_are_exact() {
    use CollectiveOp::{AllgatherVec, AllreduceSumVec, Bcast};
    for ranks in [1u64, 2, 4] {
        for steps in [0u64, 2] {
            // Each step: one world E/J exchange per rank…
            let mut want =
                BTreeMap::from([((AllreduceSumVec, true), (steps * ranks, steps * ranks * 16))]);
            if ranks > 1 {
                // …and the four domain allgathers (sub-panels, current
                // terms, excitation terms, band energies), whose shares
                // sum to the same bytes at any rank count; construction
                // broadcasts the root-resolved ground state once.
                want.insert((AllgatherVec, false), (steps * 4 * ranks, steps * 73_344));
                want.insert((Bcast, false), (ranks, ranks * 152));
            }
            want.retain(|_, &mut (calls, _)| calls > 0);
            assert_eq!(
                dist_mesh_collectives(ranks as usize, steps as usize),
                want,
                "(calls, bytes) per collective at {ranks} ranks after {steps} steps"
            );
        }
    }
}

#[test]
fn block_evaluate_allocations_do_not_grow_with_atoms() {
    // The respond stage's network on the 160-atom and the 640-atom
    // (`nn_response_f64`) slab: one neighbour search in flat lists and a
    // kernel scratch sized by the largest neighbourhood, whatever N.
    let model = AllegroLite::new(
        ModelConfig {
            hidden: 6,
            k_max: 4,
            rcut: 3.5,
        },
        41,
    );
    let per_call = |nx: usize, ny: usize| {
        let sys = PerovskiteLattice::uniform(nx, ny, 2, Vec3::new(0.0, 0.0, 0.1)).system;
        allocations(|| {
            block_evaluate(&model, &sys.species, &sys.positions, sys.box_lengths, 4);
        })
        .0
    };
    let (at_160, at_640) = (per_call(4, 4), per_call(8, 8));
    assert_eq!(
        at_160, at_640,
        "allocations per block_evaluate at 160 vs 640 atoms"
    );
    assert_eq!(at_160, 23, "allocations per block_evaluate");
}

#[test]
fn events_for_a_dropped_receiver_allocate_nothing() {
    // A subscriber that walked away: its events are discarded at send,
    // not queued for the lifetime of the sink.
    let mut sink = EventSink::new();
    drop(sink.attach());
    assert_eq!(
        allocations(|| {
            for _ in 0..10_000 {
                sink.emit(JobEvent::Started { id: JobId(1) });
            }
        }),
        (0, 0),
        "(allocations, bytes) of 10 000 emits to a dropped receiver"
    );
}
