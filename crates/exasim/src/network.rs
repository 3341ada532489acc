//! Network primitives shared by the cost models.
//!
//! An α–β (latency–bandwidth) model with tree collectives and a dragonfly
//! congestion exponent (paper Sec. VI.B: Slingshot 11, 64-port switches,
//! dragonfly topology with adaptive routing).

use crate::machine::Machine;

/// Cost of a gather of one small record (≤ `bytes` each) from `p` ranks
/// to a root — the end-of-MD-step `n_exc` gather of paper Sec. V.A.8.
pub fn gather_small(machine: &Machine, p: usize, bytes: f64) -> f64 {
    // Tree gather: log₂(p) stages; payload grows toward the root but
    // stays tiny — latency dominated.
    let depth = (p.max(2) as f64).log2();
    machine.collective_alpha(p) + depth * bytes * machine.net_beta
}

/// Cost of a broadcast of `bytes` to `p` ranks.
pub fn bcast(machine: &Machine, p: usize, bytes: f64) -> f64 {
    machine.allreduce_time(p, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_latency_dominated_for_tiny_payload() {
        let m = Machine::aurora();
        let t_small = gather_small(&m, 120_000, 8.0);
        let t_big = gather_small(&m, 120_000, 1e6);
        assert!(t_small < t_big);
        // Tiny-payload gather is within 2x of pure latency.
        assert!(t_small < 2.0 * m.collective_alpha(120_000) + 1e-3);
    }
}
