//! Metamodel-space algebra (MSA) — the three minimal-information
//! couplings of paper Sec. V (Fig. 1).
//!
//! MSA treats "level of theory" and "problem size / time / dataset" as
//! axes of a metamodel space; couplings between subproblems are arithmetic
//! in that space. This module gives each coupling an explicit, typed
//! interface so the payloads crossing subsystem boundaries are visible
//! (and countable — the whole point of the paradigm):
//!
//! | MSA | axis | payload | implemented by |
//! |---|---|---|---|
//! | 1 (shadow dynamics) | time | `Δf_s`, `Δv_loc` | [`mlmd_dcmesh::shadow`] |
//! | 2 (TEA) | dataset | per-dataset `(scale, shift)` | [`mlmd_nnqmd::tea`] |
//! | 3 (XN/NN) | space | `n_exc^(α)` → mixing weight `w` | [`XnNnCoupling`] / [`mlmd_nnqmd::mix`] |

/// MSA-3: XN/NN coupling — the excitation count from DC-MESH
/// (high-fidelity, small region) extrapolated to the NNQMD mixing weight
/// (low-fidelity, large region). "The sole assumption is that the
/// difference between [the two methods] remains the same across problem
/// sizes" — the weight is a *ratio*, not an absolute.
#[derive(Clone, Copy, Debug)]
pub struct XnNnCoupling {
    /// Electrons represented by the DC-MESH domain.
    pub domain_electrons: f64,
    /// Cells represented by the NNQMD supercell.
    pub supercell_cells: f64,
    /// Gain applied to the per-electron excitation fraction.
    pub gain: f64,
}

impl XnNnCoupling {
    /// Per-cell excitation fraction from the domain's excitation count.
    pub fn cell_fraction(&self, n_exc: f64) -> f64 {
        let per_electron = n_exc / self.domain_electrons.max(1e-300);
        (per_electron * self.gain).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xn_nn_weight_saturates() {
        let c = XnNnCoupling {
            domain_electrons: 128.0,
            supercell_cells: 1e6,
            gain: 50.0,
        };
        assert_eq!(c.cell_fraction(0.0), 0.0);
        assert!(c.cell_fraction(1.0) > 0.0);
        assert_eq!(c.cell_fraction(1e9), 1.0);
        // Monotone.
        assert!(c.cell_fraction(2.0) > c.cell_fraction(1.0));
    }
}
