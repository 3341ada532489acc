//! Measured calibration of the cost model: the loop-closing half of the
//! ROADMAP item "calibrate exasim from measured numbers".
//!
//! [`Machine`](crate::Machine) stays the *analytic shape* of a machine (rooflines, α–β
//! network, congestion exponent); [`Calibration`] is the *fitted* side —
//! numbers measured on the host this process runs on, by driving the
//! same fixture workloads the oracle suites pin:
//!
//! * α/β from [`mlmd_parallel::comm::World::run_probed`] counters over
//!   `allreduce_sum_vec` probes at two payload sizes;
//! * the MESH per-MD-step time from a timed `Engine::run` of the
//!   canonical [`mlmd_dcmesh::fixture::small_mesh_builder`] driver (the
//!   same 8³-grid / 8-state problem `Pipeline::mesh_stage_builder`
//!   builds, so the fit transfers to service mesh jobs);
//! * cold vs warm-start construction from timing the ground-state
//!   descent against a [`GroundStateCache`] hit;
//! * per-atom MD and per-cell FDTD step costs from short engine runs.
//!
//! Every term but α/β is a term of the in-process form the planner
//! prices (see [`crate::planner`]). Known residue: `alpha`/`beta` are
//! read only by [`Machine::from_calibration`](crate::Machine::from_calibration),
//! whose result nothing reads; they stay because the frozen `benchmark/`
//! crate builds a planner through it.
//!
//! A `Calibration` is plain `Copy` data.

use mlmd_core::config::PipelineConfig;
use mlmd_core::engine::{Engine, NullObserver, Stepper};
use mlmd_core::pipeline::Pipeline;
use mlmd_core::probe::time_secs;
use mlmd_dcmesh::checkpoint::{GroundStateCache, WarmStart};
use mlmd_dcmesh::fixture::small_mesh_builder;
use mlmd_maxwell::driver::PulsedYee;
use mlmd_maxwell::source::GaussianPulse;
use mlmd_maxwell::yee1d::Yee1d;
use mlmd_parallel::comm::{CollectiveOp, World};

/// Grid points of the canonical MESH fixture (8³).
pub const FIXTURE_NGRID: usize = 512;
/// Orbital states of the canonical MESH fixture.
pub const FIXTURE_NORB: usize = 8;
/// QD steps per MD step in the canonical MESH fixture.
pub const FIXTURE_N_QD: usize = 30;
/// Pulse amplitude the probe workloads run at.
pub const FIXTURE_E0: f64 = 0.05;

/// Relative QD-step work of an (ngrid, norb) MESH domain, in the same
/// kernel decomposition `DcMeshModel::qd_step_flops` uses (kin + five
/// GEMM pairs + streaming local passes). Only ratios of this quantity
/// are meaningful — it scales a measured fixture step time to another
/// problem shape.
pub fn qd_work(ngrid: usize, norb: usize) -> f64 {
    let (g, o) = (ngrid as f64, norb as f64);
    6.0 * g * o * 28.0 + 80.0 * g * o * o + 40.0 * g * o
}

/// Fitted cost terms, measured on the machine this process runs on.
/// All fields are seconds (or s/B for `beta`); see [`calibrate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Calibration {
    /// Per-collective latency: mean wall of a 1-element
    /// `allreduce_sum_vec` on the probe world (s/op).
    pub alpha: f64,
    /// Marginal per-byte collective cost (s/B), clamped at 0.
    pub beta: f64,
    /// MESH per-MD-step time on the canonical fixture (s).
    pub mesh_step: f64,
    /// QD steps per MD step the fixture ran with (`mesh_step`'s divisor).
    pub n_qd: f64,
    /// Cold driver construction: ground-state descent + assembly (s).
    pub construct_cold: f64,
    /// Warm-start construction: cache hit + assembly (s).
    pub construct_warm: f64,
    /// Supercell MD cost per atom per step (s).
    pub md_atom_step: f64,
    /// FDTD cost per Yee cell per step (s).
    pub fdtd_cell_step: f64,
}

impl Calibration {
    /// Per-QD-step time on the fixture.
    pub fn qd_step(&self) -> f64 {
        self.mesh_step / self.n_qd
    }

    /// Scale the measured fixture MD-step time to another MESH problem
    /// shape: kernel work scales by the [`qd_work`] ratio, the inner
    /// loop by the QD-step count ratio.
    pub fn mesh_step_scaled(&self, ngrid: usize, norb: usize, n_qd: usize) -> f64 {
        let work_ratio = qd_work(ngrid, norb) / qd_work(FIXTURE_NGRID, FIXTURE_NORB);
        self.mesh_step * work_ratio * (n_qd as f64 / self.n_qd)
    }
}

/// Probe workload sizes for [`calibrate`]. The defaults fit a full
/// profile in a couple of seconds on the 1-CPU CI container;
/// [`CalibrationConfig::quick`] trades fidelity for speed in tests.
#[derive(Clone, Copy, Debug)]
pub struct CalibrationConfig {
    /// Ranks of the collective probe world.
    pub probe_ranks: usize,
    /// `allreduce_sum_vec` repetitions per payload size.
    pub collective_rounds: usize,
    /// Elements (f64) of the large collective payload.
    pub payload_len: usize,
    /// MESH MD steps to average the per-step time over.
    pub mesh_steps: usize,
    /// Supercell MD probe steps.
    pub md_steps: usize,
    /// FDTD probe cells and steps.
    pub fdtd_cells: usize,
    pub fdtd_steps: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            probe_ranks: 2,
            collective_rounds: 64,
            payload_len: 4096,
            mesh_steps: 4,
            md_steps: 50,
            fdtd_cells: 256,
            fdtd_steps: 200,
        }
    }
}

impl CalibrationConfig {
    /// A cheaper profile for tests and the benchmark: fewer rounds and
    /// steps, same structure.
    pub fn quick() -> Self {
        Self {
            collective_rounds: 16,
            payload_len: 1024,
            mesh_steps: 2,
            md_steps: 20,
            fdtd_steps: 100,
            ..Self::default()
        }
    }
}

/// Mean per-op wall of the `AllreduceSumVec` row on world comm 0.
fn probed_allreduce_mean(ranks: usize, rounds: usize, len: usize) -> f64 {
    let (_, rows) = World::run_probed(ranks, |c| {
        for _ in 0..rounds {
            c.allreduce_sum_vec(vec![1.0; len]);
        }
    });
    rows.iter()
        .find(|r| r.comm == 0 && r.op == CollectiveOp::AllreduceSumVec)
        .map(|r| r.stats.mean_wall_secs())
        .unwrap_or(0.0)
}

/// Mean wall-clock per step of an unobserved engine run.
fn step_secs<S: Stepper>(stepper: &mut S, steps: usize) -> f64 {
    time_secs(|| Engine::run(stepper, steps, &mut NullObserver)).1 / steps as f64
}

/// Run the probe workloads and fit a [`Calibration`].
///
/// Everything measured here drives the *same* fixture problem the
/// oracle suites pin and the service's mesh jobs run.
///
/// # Panics
/// If a probe step or cell count in `cfg` is zero: every per-step term
/// is a quotient by one of them.
pub fn calibrate(cfg: &CalibrationConfig) -> Calibration {
    assert!(
        cfg.mesh_steps >= 1 && cfg.md_steps >= 1 && cfg.fdtd_steps >= 1 && cfg.fdtd_cells >= 1,
        "calibration probes need at least one step and one cell: {cfg:?}"
    );

    // --- α/β: collective latency and marginal bandwidth ----------------
    let small = probed_allreduce_mean(cfg.probe_ranks, cfg.collective_rounds, 1);
    let large = probed_allreduce_mean(cfg.probe_ranks, cfg.collective_rounds, cfg.payload_len);
    let alpha = small.max(0.0);
    let payload_bytes = (cfg.payload_len.saturating_sub(1) * 8) as f64;
    let beta = ((large - small) / payload_bytes).max(0.0);

    // --- MESH: construction (cold/warm) + per-step kernel --------------
    let cache = GroundStateCache::new();
    let warmed = || small_mesh_builder(FIXTURE_E0).warm_start(WarmStart::InMemory(cache.clone()));
    let (driver, construct_cold) = time_secs(|| warmed().build());
    drop(driver);
    let (mut driver, construct_warm) = time_secs(|| warmed().build());
    let mesh_step = step_secs(&mut driver, cfg.mesh_steps);

    // --- supercell MD: per-atom per-step cost --------------------------
    let mut md_config = PipelineConfig::small_demo();
    md_config.cells = (4, 4, 1);
    md_config.prepare_steps = 0;
    let atoms = md_config.n_atoms() as f64;
    let pipeline = Pipeline::new(md_config);
    let mut stage = pipeline.supercell_md_stage(0.0);
    let md_atom_step = step_secs(&mut stage, cfg.md_steps) / atoms;

    // --- FDTD: per-cell per-step cost ----------------------------------
    let field = Yee1d::new(cfg.fdtd_cells, 0.02, 0.009);
    let mut yee = PulsedYee::new(
        field,
        GaussianPulse::new(0.1, 0.8, 4.0, 2.0),
        cfg.fdtd_cells / 2,
    );
    let fdtd_cell_step = step_secs(&mut yee, cfg.fdtd_steps) / cfg.fdtd_cells as f64;

    Calibration {
        alpha,
        beta,
        mesh_step,
        n_qd: FIXTURE_N_QD as f64,
        construct_cold,
        construct_warm,
        md_atom_step,
        fdtd_cell_step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_calibration_is_sane() {
        let cal = calibrate(&CalibrationConfig::quick());
        assert!(cal.alpha >= 0.0 && cal.alpha.is_finite());
        assert!(cal.beta >= 0.0 && cal.beta.is_finite());
        assert!(cal.mesh_step > 0.0, "fixture steps take real time");
        assert!(cal.construct_cold > 0.0);
        assert!(
            cal.construct_warm <= cal.construct_cold * 2.0,
            "warm start ({}) must not dwarf the cold descent ({})",
            cal.construct_warm,
            cal.construct_cold
        );
        assert!(cal.md_atom_step > 0.0);
        assert!(cal.fdtd_cell_step > 0.0);
    }

    /// A fit whose only cost is a 1 s MESH step on the fixture.
    fn unit_calibration() -> Calibration {
        Calibration {
            alpha: 0.0,
            beta: 0.0,
            mesh_step: 1.0,
            n_qd: FIXTURE_N_QD as f64,
            construct_cold: 0.0,
            construct_warm: 0.0,
            md_atom_step: 0.0,
            fdtd_cell_step: 0.0,
        }
    }

    #[test]
    fn mesh_step_scaling_is_work_proportional() {
        let cal = unit_calibration();
        // Same shape, same n_qd → identity.
        let same = cal.mesh_step_scaled(FIXTURE_NGRID, FIXTURE_NORB, FIXTURE_N_QD);
        assert!((same - 1.0).abs() < 1e-12);
        // Double the QD loop → double the step.
        let deeper = cal.mesh_step_scaled(FIXTURE_NGRID, FIXTURE_NORB, 2 * FIXTURE_N_QD);
        assert!((deeper - 2.0).abs() < 1e-12);
        // More grid points → more work, superlinear in orbitals.
        assert!(cal.mesh_step_scaled(2 * FIXTURE_NGRID, FIXTURE_NORB, FIXTURE_N_QD) > 1.9);
        assert!(cal.mesh_step_scaled(FIXTURE_NGRID, 2 * FIXTURE_NORB, FIXTURE_N_QD) > 2.0);
    }

    #[test]
    fn qd_step_divides_the_md_step_by_the_inner_loop_length() {
        let mut cal = unit_calibration();
        cal.mesh_step = 0.3;
        cal.n_qd = 30.0;
        assert!((cal.qd_step() - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_step_probe_is_refused() {
        calibrate(&CalibrationConfig {
            md_steps: 0,
            ..CalibrationConfig::quick()
        });
    }
}
