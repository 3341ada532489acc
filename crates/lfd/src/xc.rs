//! Exchange-correlation: LDA (Slater Xα) exchange.
//!
//! The paper's QXMD uses full nonlocal xc functionals; the LFD proxy needs
//! only a local potential with the right qualitative behaviour (attractive,
//! density-dependent, sub-linear). Slater exchange
//! `v_x(ρ) = −(3ρ/π)^{1/3}` and `ε_x(ρ) = −(3/4)(3/π)^{1/3} ρ^{1/3}`
//! is the standard choice, and the substitution this proxy makes for
//! the paper's functionals.

/// Exchange potential `v_x(ρ)` per grid point.
pub fn vx_lda(rho: &[f64], out: &mut [f64]) {
    assert_eq!(rho.len(), out.len());
    let c = (3.0 / std::f64::consts::PI).cbrt();
    for (v, &r) in out.iter_mut().zip(rho) {
        *v = -c * r.max(0.0).cbrt();
    }
}

/// Exchange energy `E_x = ∫ ε_x(ρ) ρ dV` (pass dV separately).
pub fn ex_lda(rho: &[f64], dv: f64) -> f64 {
    let c = -0.75 * (3.0 / std::f64::consts::PI).cbrt();
    rho.iter()
        .map(|&r| {
            let r = r.max(0.0);
            c * r.cbrt() * r
        })
        .sum::<f64>()
        * dv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn potential_is_attractive_and_monotone() {
        let rho = [0.0, 0.1, 1.0, 10.0];
        let mut v = [0.0; 4];
        vx_lda(&rho, &mut v);
        assert_eq!(v[0], 0.0);
        assert!(v[1] < 0.0);
        assert!(v[2] < v[1]);
        assert!(v[3] < v[2]);
    }

    #[test]
    fn known_value_at_unit_density() {
        let mut v = [0.0];
        vx_lda(&[1.0], &mut v);
        let expect = -(3.0f64 / std::f64::consts::PI).cbrt();
        assert!((v[0] - expect).abs() < 1e-14);
    }

    #[test]
    fn energy_scaling() {
        // E_x ∝ ρ^{4/3}: doubling ρ multiplies ε·ρ by 2^{4/3}.
        let e1 = ex_lda(&[1.0; 10], 0.1);
        let e2 = ex_lda(&[2.0; 10], 0.1);
        assert!((e2 / e1 - 2.0f64.powf(4.0 / 3.0)).abs() < 1e-12);
        assert!(e1 < 0.0);
    }

    #[test]
    fn virial_relation() {
        // For LDA exchange, v_x = (4/3) ε_x pointwise.
        let rho = [0.7];
        let mut v = [0.0];
        vx_lda(&rho, &mut v);
        let eps = ex_lda(&rho, 1.0) / rho[0];
        assert!((v[0] - 4.0 / 3.0 * eps).abs() < 1e-14);
    }

    #[test]
    fn negative_density_clamped() {
        let mut v = [0.0];
        vx_lda(&[-0.5], &mut v);
        assert_eq!(v[0], 0.0);
    }
}
