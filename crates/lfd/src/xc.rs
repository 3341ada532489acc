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
    fn virial_relation() {
        // For LDA exchange, v_x = (4/3) ε_x pointwise, with the energy
        // density ε_x(ρ) = −(3/4)(3/π)^{1/3} ρ^{1/3}.
        let rho = [0.7];
        let mut v = [0.0];
        vx_lda(&rho, &mut v);
        let eps = -0.75 * (3.0 / std::f64::consts::PI).cbrt() * rho[0].cbrt();
        assert!((v[0] - 4.0 / 3.0 * eps).abs() < 1e-14);
    }

    #[test]
    fn negative_density_clamped() {
        let mut v = [0.0];
        vx_lda(&[-0.5], &mut v);
        assert_eq!(v[0], 0.0);
    }
}
