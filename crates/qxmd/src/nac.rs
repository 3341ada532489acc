//! Nonadiabatic couplings (NACs) from orbital overlaps.
//!
//! Surface hopping needs `d_ij = ⟨φ_i|∂φ_j/∂t⟩`, which DC-MESH evaluates
//! from finite-difference overlaps of the orbital panels at consecutive
//! steps (the standard Hammes-Schiffer–Tully scheme):
//!
//! ```text
//! d_ij(t+Δt/2) ≈ [ ⟨φ_i(t)|φ_j(t+Δt)⟩ − ⟨φ_i(t+Δt)|φ_j(t)⟩ ] / 2Δt
//! ```
//!
//! The overlaps are CGEMMs on the orbital panels — another instance of the
//! paper's GEMMification.

use mlmd_numerics::cgemm::overlap;
use mlmd_numerics::complex::c64;
use mlmd_numerics::matrix::Matrix;

/// Antisymmetric NAC matrix `d_ij` (units 1/time).
#[derive(Clone, Debug)]
pub struct NacMatrix {
    pub d: Matrix<c64>,
}

impl NacMatrix {
    /// From two orbital panels (`Ngrid × Norb`, grid measure `dv`) at `t`
    /// and `t + dt`.
    pub fn from_overlaps(psi_t: &Matrix<c64>, psi_tdt: &Matrix<c64>, dv: f64, dt: f64) -> Self {
        assert_eq!(psi_t.rows(), psi_tdt.rows());
        assert_eq!(psi_t.cols(), psi_tdt.cols());
        let n = psi_t.cols();
        let mut s_fwd = Matrix::<c64>::zeros(n, n);
        let mut s_bwd = Matrix::<c64>::zeros(n, n);
        overlap(c64::real(dv), psi_t, psi_tdt, c64::zero(), &mut s_fwd);
        overlap(c64::real(dv), psi_tdt, psi_t, c64::zero(), &mut s_bwd);
        let inv = 1.0 / (2.0 * dt);
        let d = Matrix::from_fn(n, n, |i, j| (s_fwd[(i, j)] - s_bwd[(i, j)]).scale(inv));
        Self { d }
    }

    pub fn norb(&self) -> usize {
        self.d.rows()
    }

    /// |d_ij|² — the rate kernel used by the hopping master equation.
    pub fn rate(&self, i: usize, j: usize) -> f64 {
        self.d[(i, j)].norm_sqr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlmd_numerics::rng::{Rng64, SplitMix64};

    /// Max deviation from antisymmetry `d_ij = −d_ji*`.
    fn antisymmetry_error(nac: &NacMatrix) -> f64 {
        let n = nac.norb();
        let mut worst = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                worst = worst.max((nac.d[(i, j)] + nac.d[(j, i)].conj()).abs());
            }
        }
        worst
    }

    fn random_orthonormal(m: usize, n: usize, seed: u64) -> Matrix<c64> {
        let mut rng = SplitMix64::new(seed);
        let mut psi = Matrix::from_fn(m, n, |_, _| {
            c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5)
        });
        mlmd_numerics::ortho::gram_schmidt(&mut psi);
        psi
    }

    #[test]
    fn identical_panels_give_zero_nac() {
        let psi = random_orthonormal(60, 4, 1);
        let nac = NacMatrix::from_overlaps(&psi, &psi, 1.0, 0.01);
        for i in 0..4 {
            for j in 0..4 {
                assert!(nac.d[(i, j)].abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rotation_between_two_states_detected() {
        // φ_0' = cos θ φ_0 + sin θ φ_1 etc.: d_01 ≈ θ/dt.
        let psi = random_orthonormal(80, 2, 2);
        let theta: f64 = 1e-3;
        let dt = 0.01;
        let rotated = {
            let mut r = psi.clone();
            for g in 0..psi.rows() {
                let a = psi[(g, 0)];
                let b = psi[(g, 1)];
                r[(g, 0)] = a.scale(theta.cos()) + b.scale(theta.sin());
                r[(g, 1)] = a.scale(-theta.sin()) + b.scale(theta.cos());
            }
            r
        };
        let nac = NacMatrix::from_overlaps(&psi, &rotated, 1.0, dt);
        // ∂_t φ₁ ≈ −(θ/dt)·φ₀ for this rotation, so d_01 = −θ/dt.
        let expect = -theta / dt;
        assert!(
            (nac.d[(0, 1)].re - expect).abs() < 0.01 * expect.abs(),
            "d_01 = {} vs {expect}",
            nac.d[(0, 1)]
        );
        assert!(antisymmetry_error(&nac) < 1e-10);
    }

    #[test]
    fn antisymmetry_holds_generally() {
        let a = random_orthonormal(50, 5, 3);
        // Perturb into a nearby panel.
        let mut rng = SplitMix64::new(4);
        let b = Matrix::from_fn(50, 5, |i, j| {
            a[(i, j)] + c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5).scale(1e-3)
        });
        let nac = NacMatrix::from_overlaps(&a, &b, 1.0, 0.1);
        assert!(antisymmetry_error(&nac) < 1e-2 * nac.d.frobenius_norm().max(1e-12));
    }

    #[test]
    fn nac_scales_inversely_with_dt() {
        let psi = random_orthonormal(40, 2, 5);
        let rotated = {
            let mut r = psi.clone();
            for g in 0..psi.rows() {
                let a = psi[(g, 0)];
                let b = psi[(g, 1)];
                r[(g, 0)] = a.scale(0.9995) + b.scale(0.0316);
                r[(g, 1)] = a.scale(-0.0316) + b.scale(0.9995);
            }
            r
        };
        let n1 = NacMatrix::from_overlaps(&psi, &rotated, 1.0, 0.1);
        let n2 = NacMatrix::from_overlaps(&psi, &rotated, 1.0, 0.2);
        assert!((n1.d[(0, 1)].re / n2.d[(0, 1)].re - 2.0).abs() < 1e-10);
    }
}
