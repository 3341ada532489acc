//! Machine descriptions.
//!
//! Aurora numbers follow paper Sec. VI.B: 10,624 nodes, 6 × PVC GPUs
//! (2 tiles each) per node, 2×52-core Xeon Max, Slingshot-11 dragonfly.
//! Per-tile FP64 peak is 23 TFLOP/s nominal (Table IV header) with
//! power-throttling to ~11 TFLOP/s sustained; FP32 is dual-issued at the
//! same nominal peak; the XMX systolic arrays give BF16 a large
//! multiplier.

/// One machine model.
#[derive(Clone, Copy, Debug)]
pub struct Machine {
    pub name: &'static str,
    pub nodes: usize,
    /// GPU tiles (≡ MPI ranks for MLMD) per node.
    pub tiles_per_node: usize,
    /// Nominal per-tile peaks, FLOP/s.
    pub tile_fp64: f64,
    pub tile_fp32: f64,
    pub tile_bf16: f64,
    /// Sustained fraction of nominal FP64 under power constraints.
    pub power_derate: f64,
    /// HBM bandwidth per tile, B/s.
    pub hbm_bw: f64,
    /// Host↔device link bandwidth per tile, B/s.
    pub pcie_bw: f64,
    /// Network: per-message latency (s) and per-byte time (s/B) per rank.
    pub net_alpha: f64,
    pub net_beta: f64,
    /// Dragonfly congestion exponent: effective α grows ∝ log₂(P)^cong.
    pub congestion: f64,
}

impl Machine {
    /// Aurora (ALCF), as used for every headline number in the paper.
    pub fn aurora() -> Self {
        Machine {
            name: "Aurora",
            nodes: 10_624,
            tiles_per_node: 12,
            tile_fp64: 23.0e12,
            tile_fp32: 23.0e12,
            tile_bf16: 180.0e12,
            power_derate: 11.0 / 23.0,
            hbm_bw: 1.6e12,
            pcie_bw: 32.0e9,
            net_alpha: 2.0e-6,
            net_beta: 1.0 / 25.0e9,
            congestion: 1.0,
        }
    }

    /// The machine this process is running on, profiled from a measured
    /// [`crate::calibrate::Calibration`]: a single-node, single-tile
    /// description whose effective tile rate comes from the fixture's
    /// measured QD-step time and whose α/β come from the probed
    /// collective counters. The analytic *shape* (tree collectives,
    /// halo model) is unchanged — only the constants are fitted, which
    /// is exactly the `Machine`-vs-`Calibration` split.
    pub fn from_calibration(cal: &crate::calibrate::Calibration) -> Self {
        use crate::calibrate::{qd_work, FIXTURE_NGRID, FIXTURE_NORB};
        let qd_secs = cal.qd_step().max(1e-12);
        let tile = qd_work(FIXTURE_NGRID, FIXTURE_NORB) / qd_secs;
        Machine {
            name: "container",
            nodes: 1,
            tiles_per_node: 1,
            tile_fp64: tile,
            tile_fp32: tile,
            tile_bf16: tile,
            power_derate: 1.0,
            // Commodity-DRAM order of magnitude; the fitted per-step
            // kernel time already contains the real memory behavior, so
            // these only matter for the analytic roofline views.
            hbm_bw: 2.0e10,
            pcie_bw: 1.0e10,
            net_alpha: cal.alpha,
            net_beta: cal.beta,
            // Threads through one shared memory: no dragonfly growth.
            congestion: 1.0,
        }
    }

    /// Total ranks when using `nodes` nodes.
    pub fn ranks(&self, nodes: usize) -> usize {
        nodes * self.tiles_per_node
    }

    /// Machine-wide nominal FP64 peak on `nodes` nodes, FLOP/s.
    pub fn peak_fp64(&self, nodes: usize) -> f64 {
        self.ranks(nodes) as f64 * self.tile_fp64
    }

    /// Effective α for a collective over `p` ranks (latency × log-depth ×
    /// congestion).
    pub fn collective_alpha(&self, p: usize) -> f64 {
        let depth = (p.max(2) as f64).log2();
        self.net_alpha * depth.powf(self.congestion)
    }

    /// Time to allreduce `bytes` over `p` ranks (tree α–β model).
    pub fn allreduce_time(&self, p: usize, bytes: f64) -> f64 {
        let depth = (p.max(2) as f64).log2();
        self.collective_alpha(p) + depth * bytes * self.net_beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aurora_shape_matches_paper() {
        let m = Machine::aurora();
        // 10,000 nodes × 12 ranks = 120,000 ranks — the paper's largest run.
        assert_eq!(m.ranks(10_000), 120_000);
        // Full machine ≈ 2 EFLOP/s nominal FP64 at the derated 11 TF/tile:
        // the paper quotes "~2 EFLOP/s for FP64" for 10,624 nodes.
        let sustained = m.peak_fp64(10_624) * m.power_derate;
        assert!(
            (sustained - 1.4e18).abs() < 0.4e18,
            "sustained fleet FP64 ≈ 1.4 EF, got {sustained:e}"
        );
        let nominal = m.peak_fp64(10_624);
        assert!(nominal > 2.5e18, "nominal {nominal:e}");
    }

    #[test]
    fn collectives_grow_with_rank_count() {
        let m = Machine::aurora();
        assert!(m.allreduce_time(120_000, 8.0) > m.allreduce_time(6_144, 8.0));
        assert!(m.allreduce_time(1024, 1e6) > m.allreduce_time(1024, 8.0));
    }

    #[test]
    fn bf16_is_the_fast_path() {
        let m = Machine::aurora();
        assert!(m.tile_bf16 > 5.0 * m.tile_fp32);
    }
}
