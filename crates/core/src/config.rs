//! Pipeline configuration.

use mlmd_dcmesh::ehrenfest::EhrenfestConfig;
use mlmd_dcmesh::WarmStartPolicy;

/// All knobs of the end-to-end Fig. 3 run.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Supercell cells per axis (the superlattice lives in x–y).
    pub cells: (usize, usize, usize),
    /// Skyrmions per axis in the superlattice.
    pub skyrmions: (usize, usize),
    /// Skyrmion radius in cells.
    pub skyrmion_radius: f64,
    /// Spontaneous Ti displacement amplitude (Å).
    pub u0: f64,
    /// Preparation MD steps (NVE relaxation of the quenched texture).
    pub prepare_steps: usize,
    /// Laser peak field (a.u.).
    pub pulse_e0: f64,
    /// Laser carrier frequency (a.u.).
    pub pulse_omega: f64,
    /// DC-MESH MD steps under the pulse.
    pub mesh_steps: usize,
    /// Ehrenfest inner-loop settings.
    pub ehrenfest: EhrenfestConfig,
    /// XS-NNQMD response MD steps after the pulse.
    pub response_steps: usize,
    /// Response-trace sampling stride: record the polarization texture
    /// every this many MD steps (plus always the final step). The default
    /// of 10 reproduces the historical `step % 10` cadence bit-for-bit.
    pub response_sample_stride: usize,
    /// When `Some(n)`, the respond stage adds a neural-network force term
    /// evaluated through `block_evaluate` with `n` inference batches (the
    /// Sec. V.B.9 neighbor-list blocking). `None` (the default) keeps the
    /// analytic excitation-reshaped landscape only.
    pub respond_nn_batches: Option<usize>,
    /// When `Some(r)`, the pump–probe MESH batch (the lit/dark pair of
    /// `Pipeline::run`, or the N-amplitude `pump_probe_sweep`) executes
    /// *inside* a simulated-MPI `World::run` region: one
    /// `DistributedMeshDriver` domain per run, `r` ranks per domain
    /// sharding each driver's band-local work. `None` (the default) keeps
    /// the in-process `RunPlan` batch on the work-stealing pool — both
    /// paths are bit-identical (pinned in `tests/mesh_dist.rs`).
    pub mesh_ranks_per_domain: Option<usize>,
    /// Where MESH drivers get their converged ground state from.
    /// `ProcessCache` (the default) shares one descent per config hash
    /// across the whole process — a `RunPlan` batch or `pump_probe_sweep`
    /// runs N amplitudes off 1 descent, since the pulse does not enter
    /// the ground-state key — and is bit-identical to `Fresh` (the warm
    /// panel *is* the cold panel; pinned in the checkpoint suite).
    pub mesh_warm_start: WarmStartPolicy,
    /// MD time step (fs).
    pub dt_fs: f64,
    /// Excitation gain from DC-MESH n_exc to the per-cell fraction
    /// (the XN/NN extrapolation constant of MSA-3).
    pub excitation_gain: f64,
    /// RNG seed.
    pub seed: u64,
}

impl PipelineConfig {
    /// A laptop-scale demonstration: one skyrmion in a 16×16×2 supercell.
    pub fn small_demo() -> Self {
        Self {
            cells: (16, 16, 2),
            skyrmions: (1, 1),
            skyrmion_radius: 6.0,
            u0: 0.3,
            prepare_steps: 20,
            pulse_e0: 0.1,
            pulse_omega: 0.8,
            mesh_steps: 6,
            ehrenfest: EhrenfestConfig {
                dt_qd: 0.05,
                n_qd: 30,
                self_consistent: false,
            },
            response_steps: 2000,
            response_sample_stride: 10,
            respond_nn_batches: None,
            mesh_ranks_per_domain: None,
            mesh_warm_start: WarmStartPolicy::ProcessCache,
            dt_fs: 0.2,
            excitation_gain: 8.0,
            seed: 2025,
        }
    }

    /// A 2×2-skyrmion superlattice (the Fig. 3 geometry, shrunk).
    pub fn superlattice_demo() -> Self {
        Self {
            cells: (32, 32, 2),
            skyrmions: (2, 2),
            skyrmion_radius: 6.0,
            ..Self::small_demo()
        }
    }

    /// Total unit cells.
    pub fn n_cells(&self) -> usize {
        self.cells.0 * self.cells.1 * self.cells.2
    }

    /// Total atoms (5 per perovskite cell).
    pub fn n_atoms(&self) -> usize {
        5 * self.n_cells()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_sizes() {
        let c = PipelineConfig::small_demo();
        assert_eq!(c.n_cells(), 512);
        assert_eq!(c.n_atoms(), 2560);
        let s = PipelineConfig::superlattice_demo();
        assert_eq!(s.n_cells(), 2048);
        assert_eq!(s.skyrmions, (2, 2));
    }
}
