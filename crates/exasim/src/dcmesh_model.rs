//! DC-MESH cost model on the simulated machine.
//!
//! The per-QD-step kernel decomposition mirrors `mlmd-lfd` exactly —
//! kin_prop (bond updates), nlp_prop (two CGEMMs of Eq. (5)),
//! orthonormalization (same GEMM shapes), local-phase and field kernels —
//! with achieved rates taken from the paper's single-tile measurements
//! (Table V: kin_prop at 15.26% of peak, nlp_prop at 69.65%, CGEMMs at
//! 81–94%; Table IV: 17.95 TF/s in FP32/BF16 mode). Per-MD-step costs add
//! the global SCF tree, the `n_exc` gather, and the shadow Δv PCIe hop.

use crate::machine::Machine;
use crate::network;

/// Precision configuration of the nonlocal/GEMM tier (Table IV rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmPrecision {
    Fp64,
    Fp32,
    Fp32Bf16,
}

/// The workload of one DC domain (≡ one MPI rank ≡ one PVC tile).
#[derive(Clone, Copy, Debug)]
pub struct DcMeshModel {
    pub machine: Machine,
    /// KS orbitals per domain (paper: up to 1,024).
    pub norb: usize,
    /// FD grid points per domain (paper benchmark mesh: 70×70×72).
    pub ngrid: usize,
    /// QD steps per MD step (paper: 1,000).
    pub n_qd: usize,
    pub precision: GemmPrecision,
    /// Unique (core) electrons per domain = norb / overlap factor 8.
    pub overlap: f64,
    /// Non-amortized per-rank cost per MD step (s), independent of how
    /// many domains the rank hosts: full-scale synchronization,
    /// communication contention, and jitter. Calibrated so the strong-
    /// scaling efficiency reproduces the measured 0.843 at 4× ranks
    /// (Fig. 4b); in weak scaling it is identical on every rank and
    /// cancels, matching the paper's flat weak curves.
    pub md_fixed_per_rank: f64,
}

impl DcMeshModel {
    /// The paper's production configuration.
    pub fn paper_config() -> Self {
        Self {
            machine: Machine::aurora(),
            norb: 1024,
            ngrid: 70 * 70 * 72,
            n_qd: 1000,
            precision: GemmPrecision::Fp32Bf16,
            overlap: 8.0,
            md_fixed_per_rank: 450.0,
        }
    }

    /// The laptop fixture's domain shape on `machine` — what a
    /// [`crate::calibrate::Calibration`]-profiled container actually
    /// runs, so model predictions and measured fixture times are about
    /// the same problem.
    pub fn fixture_config(machine: Machine) -> Self {
        Self {
            machine,
            norb: crate::calibrate::FIXTURE_NORB,
            ngrid: crate::calibrate::FIXTURE_NGRID,
            n_qd: crate::calibrate::FIXTURE_N_QD,
            precision: GemmPrecision::Fp64,
            overlap: 1.0,
            md_fixed_per_rank: 0.0,
        }
    }

    /// Unique electrons represented per rank.
    pub fn electrons_per_rank(&self) -> f64 {
        self.norb as f64 / self.overlap
    }

    /// Achieved nlp_prop rate for the configured precision (FLOP/s),
    /// from the paper's single-tile measurements.
    fn nlp_rate(&self) -> f64 {
        match self.precision {
            GemmPrecision::Fp64 => 7.69e12,
            GemmPrecision::Fp32 => 16.02e12,
            GemmPrecision::Fp32Bf16 => 17.95e12,
        }
    }

    /// Achieved kin_prop (stencil) rate: 15.26% of FP32 peak.
    fn kin_rate(&self) -> f64 {
        0.1526 * self.machine.tile_fp32
    }

    /// FLOPs of one QD step, decomposed as in `mlmd-lfd` and Sec. V.B.5:
    /// GEMMification covers the time-propagation correction, the nonlocal
    /// parts of energy *and* current (TDCDFT), and the two-pass
    /// orthonormalization — five GEMM pairs of the Table V shapes total.
    pub fn qd_step_flops(&self) -> QdStepFlops {
        let (g, o) = (self.ngrid as f64, self.norb as f64);
        QdStepFlops {
            kin: 6.0 * g * o * 28.0,
            nlp: 16.0 * g * o * o,
            // Nonlocal corrections to energy and current (Sec. V.B.5).
            obs: 32.0 * g * o * o,
            // Orthonormalization every QD step: overlap + panel update,
            // applied twice per time-reversible step.
            ortho: 32.0 * g * o * o,
            // Local phases, density, current stencils, Hartree
            // refresh: streaming passes over grid × orbitals.
            local: 40.0 * g * o,
        }
    }

    /// Wall-clock of one QD step on one tile (the Table I "per QD step").
    pub fn qd_step_time(&self) -> f64 {
        let f = self.qd_step_flops();
        // Streaming kernels are HBM-bound: bytes ≈ 16 B per complex value
        // touched ~6 times per step.
        let stream_bytes = 6.0 * 16.0 * self.ngrid as f64 * self.norb as f64;
        f.kin / self.kin_rate()
            + (f.nlp + f.obs + f.ortho) / self.nlp_rate()
            + (f.local / (0.05 * self.machine.tile_fp32)).max(stream_bytes / self.machine.hbm_bw)
    }

    /// Per-MD-step overhead that does not scale with rank count's share
    /// of work: global SCF tree, surface hopping, shadow Δv over PCIe.
    pub fn md_overhead(&self, ranks: usize) -> f64 {
        let m = &self.machine;
        // Global multigrid potential: a tree of halo+restrict stages.
        let scf = 10.0 * m.allreduce_time(ranks, 8.0 * self.ngrid as f64 / 64.0);
        // n_exc gather (one scalar per domain) + w broadcast back.
        let gather = network::gather_small(m, ranks, 8.0) + network::bcast(m, ranks, 8.0);
        // Shadow handshake over PCIe: Δv down (Ngrid f64), Δf up (Norb).
        let pcie = (8.0 * self.ngrid as f64 + 8.0 * self.norb as f64) / m.pcie_bw;
        // Surface hopping + subspace diagonalization on the CPU: Norb³.
        let sh = (self.norb as f64).powi(3) * 2.0 / 1.0e11;
        scf + gather + pcie + sh
    }

    /// Wall-clock per MD step with `domains_per_rank` domains on each of
    /// `ranks` ranks.
    pub fn md_step_time(&self, ranks: usize, domains_per_rank: f64) -> f64 {
        domains_per_rank * self.n_qd as f64 * self.qd_step_time()
            + self.md_fixed_per_rank
            + self.md_overhead(ranks)
    }

    /// Time-to-solution in the paper's Table I metric:
    /// wall-clock per QD step ÷ total electrons.
    pub fn t2s(&self, ranks: usize) -> f64 {
        let electrons = self.electrons_per_rank() * ranks as f64;
        self.qd_step_time() / electrons
    }

    /// Aggregate FLOP/s of the whole application on `nodes` nodes
    /// (the Sec. VII.B accounting: single-domain FLOPs × domains ÷ time).
    pub fn sustained_flops(&self, nodes: usize) -> f64 {
        let ranks = self.machine.ranks(nodes);
        let f = self.qd_step_flops();
        let per_domain = f.kin + f.nlp + f.obs + f.ortho + f.local;
        per_domain * ranks as f64 / self.qd_step_time()
    }
}

/// FLOP decomposition of one QD step.
#[derive(Clone, Copy, Debug)]
pub struct QdStepFlops {
    pub kin: f64,
    pub nlp: f64,
    pub obs: f64,
    pub ortho: f64,
    pub local: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_qd_step_time_matches_measurement() {
        // Paper Sec. VII.C.1: 1.705 s per QD step for the 1,024-orbital
        // production domain.
        let m = DcMeshModel::paper_config();
        let t = m.qd_step_time();
        assert!(
            (1.2..2.2).contains(&t),
            "QD step time {t} s should be ≈1.7 s"
        );
    }

    #[test]
    fn t2s_matches_table_i() {
        // 1.11e-7 s per electron per QD step on 120,000 ranks.
        let m = DcMeshModel::paper_config();
        let t2s = m.t2s(120_000);
        assert!(
            (0.6e-7..2.0e-7).contains(&t2s),
            "T2S {t2s:e} should be ≈1.1e-7"
        );
    }

    #[test]
    fn nlp_dominates_kin() {
        // Table V: the GEMM tier is the hotspot, the stencil is cheap.
        let m = DcMeshModel::paper_config();
        let f = m.qd_step_flops();
        assert!(f.nlp > 10.0 * f.kin);
    }

    #[test]
    fn precision_ladder_speeds_up() {
        let mut m = DcMeshModel::paper_config();
        m.precision = GemmPrecision::Fp64;
        let t64 = m.qd_step_time();
        m.precision = GemmPrecision::Fp32;
        let t32 = m.qd_step_time();
        m.precision = GemmPrecision::Fp32Bf16;
        let tbf = m.qd_step_time();
        assert!(t64 > t32 && t32 > tbf, "{t64} > {t32} > {tbf}");
        // Table IV: FP32 ≈ 2× FP64 on the GEMM tier.
        assert!((t64 / t32) > 1.5);
    }

    #[test]
    fn sustained_performance_near_exaflop() {
        // Paper: 1.873 EFLOP/s on 10,000 nodes.
        let m = DcMeshModel::paper_config();
        let flops = m.sustained_flops(10_000);
        assert!(
            (1.0e18..3.0e18).contains(&flops),
            "sustained {flops:e} should be ≈1.9e18"
        );
    }

    #[test]
    fn md_overhead_grows_slowly_with_ranks() {
        let m = DcMeshModel::paper_config();
        let o1 = m.md_overhead(6_144);
        let o2 = m.md_overhead(120_000);
        assert!(o2 > o1);
        // …but stays far below the QD-loop time (weak scalability).
        assert!(o2 < 0.2 * m.n_qd as f64 * m.qd_step_time());
    }
}
