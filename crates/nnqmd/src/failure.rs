//! Fidelity scaling: time-to-failure of large NNQMD simulations
//! (paper Sec. V.A.6, ref \[27\]).
//!
//! "Small prediction errors propagate and lead to unphysical atomic forces
//! that even cause the simulation to terminate unexpectedly. As
//! simulations become spatially larger …, the number of unphysical force
//! predictions increases proportionally." Allegro-Legato (SAM-trained)
//! weakens the size dependence: `t_failure ∝ N^{−0.14}` vs `N^{−0.29}`
//! for plain Allegro.
//!
//! Two tools:
//!
//! * [`md_time_to_failure`] — the *mechanistic* harness: run NNQMD with a
//!   weight-perturbed model (caricature of prediction error) and record
//!   when the first unphysical force appears. Demonstrates that sharper
//!   (more perturbed) models fail sooner, on real dynamics.
//! * [`FidelityScalingModel`] — the *statistical* model behind the
//!   exponents: each atom is an independent failure channel whose
//!   first-passage time is Weibull-distributed with shape `k`; the system
//!   fails at the minimum over N atoms, giving
//!   `E[t_fail] ∝ N^{−1/k}`. SAM's flatter minima correspond to larger
//!   `k` (thinner early-failure tail): `k ≈ 1/0.14` for Legato vs
//!   `k ≈ 1/0.29` for plain — the measured exponents of ref \[27\]. This is
//!   the documented substitution for the 10⁹-atom-scale failure
//!   statistics that cannot be gathered on a host machine.

use crate::model::AllegroLite;
use mlmd_numerics::rng::{Rng64, Xoshiro256};
use mlmd_numerics::stats::power_law_fit;
use mlmd_qxmd::atoms::AtomsSystem;
use mlmd_qxmd::integrator::{ForceField, VelocityVerlet};

/// Run MD with the given model until any force exceeds `f_max` (eV/Å) or
/// becomes non-finite; returns the number of completed steps (capped at
/// `max_steps`).
pub fn md_time_to_failure(
    model: &AllegroLite,
    sys: &mut AtomsSystem,
    dt: f64,
    f_max: f64,
    max_steps: usize,
) -> usize {
    let ff = crate::md::NnForceField::with_batches(model.clone(), 1);
    let vv = VelocityVerlet::new(dt);
    ff.compute(sys);
    for step in 0..max_steps {
        vv.step(sys, &ff);
        let worst = sys.forces.iter().map(|f| f.norm()).fold(0.0f64, f64::max);
        if !worst.is_finite() || worst > f_max {
            return step + 1;
        }
    }
    max_steps
}

/// Perturb a model's weights with Gaussian noise of relative scale
/// `sigma` — the stand-in for prediction error of an under-trained or
/// sharp model.
pub fn perturb_model(model: &AllegroLite, sigma: f64, seed: u64) -> AllegroLite {
    let mut rng = Xoshiro256::new(seed);
    let mut out = model.clone();
    for p in &mut out.params {
        *p += rng.normal(0.0, sigma * (p.abs() + 1e-3));
    }
    out
}

/// Statistical fidelity-scaling model: per-atom Weibull failure channels.
#[derive(Clone, Copy, Debug)]
pub struct FidelityScalingModel {
    /// Weibull shape parameter k: the system-size exponent is −1/k.
    pub shape: f64,
    /// Characteristic single-atom failure time (steps).
    pub t_scale: f64,
}

impl FidelityScalingModel {
    /// Plain Allegro: exponent −0.29 → k = 1/0.29.
    pub fn allegro() -> Self {
        Self {
            shape: 1.0 / 0.29,
            t_scale: 1.0e7,
        }
    }

    /// Allegro-Legato (SAM): exponent −0.14 → k = 1/0.14.
    pub fn allegro_legato() -> Self {
        Self {
            shape: 1.0 / 0.14,
            t_scale: 1.0e7,
        }
    }

    /// Time-to-failure of an `n`-atom system: the minimum over n channels.
    /// Uses the closed-form minimum: min of n Weibull(k, λ) is
    /// Weibull(k, λ·n^{−1/k}).
    pub fn sample_system(&self, n_atoms: f64, rng: &mut impl Rng64) -> f64 {
        let effective = self.t_scale * n_atoms.powf(-1.0 / self.shape);
        let u = rng.next_f64().max(1e-300);
        effective * (-u.ln()).powf(1.0 / self.shape)
    }

    /// Mean time-to-failure over `samples` runs at each system size.
    pub fn mean_t_failure(&self, sizes: &[f64], samples: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256::new(seed);
        sizes
            .iter()
            .map(|&n| {
                (0..samples)
                    .map(|_| self.sample_system(n, &mut rng))
                    .sum::<f64>()
                    / samples as f64
            })
            .collect()
    }

    /// Fit the measured scaling exponent over a size sweep.
    pub fn measured_exponent(&self, sizes: &[f64], samples: usize, seed: u64) -> f64 {
        let t = self.mean_t_failure(sizes, samples, seed);
        let (exp, _, _) = power_law_fit(sizes, &t);
        exp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use mlmd_numerics::vec3::Vec3;
    use mlmd_qxmd::perovskite::PerovskiteLattice;

    #[test]
    fn statistical_exponents_match_paper() {
        let sizes: Vec<f64> = (0..6).map(|i| 1e4 * 8f64.powi(i)).collect();
        let plain = FidelityScalingModel::allegro().measured_exponent(&sizes, 4000, 1);
        let legato = FidelityScalingModel::allegro_legato().measured_exponent(&sizes, 4000, 2);
        assert!(
            (plain + 0.29).abs() < 0.03,
            "plain exponent {plain} vs paper −0.29"
        );
        assert!(
            (legato + 0.14).abs() < 0.02,
            "legato exponent {legato} vs paper −0.14"
        );
        assert!(
            legato > plain,
            "Legato must depend more weakly on N: {legato} vs {plain}"
        );
    }

    #[test]
    fn bigger_systems_fail_sooner_statistically() {
        let m = FidelityScalingModel::allegro();
        let t = m.mean_t_failure(&[1e4, 1e6, 1e8], 2000, 3);
        assert!(
            t[0] > t[1] && t[1] > t[2],
            "t_failure must decrease with N: {t:?}"
        );
    }

    #[test]
    fn md_failure_detected_for_broken_model() {
        // A heavily-perturbed model produces unphysical forces quickly.
        let base = AllegroLite::new(
            ModelConfig {
                hidden: 6,
                k_max: 4,
                rcut: 3.5,
            },
            1,
        );
        let broken = perturb_model(&base, 50.0, 7);
        let lat = PerovskiteLattice::uniform(2, 2, 2, Vec3::ZERO);
        let mut sys = lat.system.clone();
        let steps = md_time_to_failure(&broken, &mut sys, 0.5, 5.0, 500);
        assert!(steps < 500, "broken model must fail, survived {steps}");
    }

    #[test]
    fn md_failure_later_for_smaller_perturbation() {
        let base = AllegroLite::new(
            ModelConfig {
                hidden: 6,
                k_max: 4,
                rcut: 3.5,
            },
            2,
        );
        let lat = PerovskiteLattice::uniform(2, 2, 2, Vec3::ZERO);
        let run = |sigma: f64| -> usize {
            let m = perturb_model(&base, sigma, 11);
            let mut sys = lat.system.clone();
            md_time_to_failure(&m, &mut sys, 0.5, 5.0, 2000)
        };
        let t_sharp = run(50.0);
        let t_smooth = run(0.001);
        assert!(
            t_smooth > t_sharp,
            "gentler model must survive longer: {t_smooth} vs {t_sharp}"
        );
    }

    #[test]
    fn weibull_minimum_scaling_closed_form() {
        // E[min of n] / E[single] = n^{−1/k}: check the sampler against
        // the analytic ratio.
        let m = FidelityScalingModel {
            shape: 4.0,
            t_scale: 1000.0,
        };
        let t1 = m.mean_t_failure(&[1.0], 20000, 5)[0];
        let t16 = m.mean_t_failure(&[16.0], 20000, 6)[0];
        let expect = 16f64.powf(-0.25);
        assert!(
            ((t16 / t1) - expect).abs() < 0.05 * expect,
            "ratio {} vs {expect}",
            t16 / t1
        );
    }
}
