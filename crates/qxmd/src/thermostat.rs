//! The Langevin thermostat.
//!
//! The pipeline's MD stages run under it: the prepare stage equilibrates
//! the skyrmion superlattice of the Fig. 3 workflow, and the respond stage
//! drains the photo-response into a cold bath.

use crate::atoms::{AtomsSystem, Species, KB_EV, MASS_TIME_UNIT};
use mlmd_numerics::rng::Rng64;
use mlmd_numerics::vec3::Vec3;

/// Langevin (stochastic) thermostat: friction + matched random kicks,
/// applied as an operator-split impulse after the deterministic step.
#[derive(Clone, Copy, Debug)]
pub struct Langevin {
    pub t_target: f64,
    /// Friction coefficient (1/fs).
    pub gamma: f64,
}

impl Langevin {
    pub fn new(t_target: f64, gamma: f64) -> Self {
        assert!(t_target >= 0.0 && gamma > 0.0);
        Self { t_target, gamma }
    }

    /// Ornstein–Uhlenbeck velocity update over `dt`:
    /// `v ← c₁ v + c₂ ξ` with `c₁ = e^{−γΔt}`,
    /// `c₂ = √((1−c₁²)·kT/m')` per component. ξ comes from
    /// [`Rng64::next_normal_ziggurat`]: three draws per atom per step are
    /// the hot path the ziggurat exists for.
    pub fn apply(&self, sys: &mut AtomsSystem, dt: f64, rng: &mut impl Rng64) {
        let c1 = (-self.gamma * dt).exp();
        // c₂ once per species, indexed by the `Species` discriminant.
        let c2 = Species::ALL.map(|s| {
            let m_eff = s.mass() * MASS_TIME_UNIT;
            ((1.0 - c1 * c1) * KB_EV * self.t_target / m_eff).sqrt()
        });
        for (&s, v) in sys.species.iter().zip(&mut sys.velocities) {
            let xi = Vec3::new(
                rng.next_normal_ziggurat(),
                rng.next_normal_ziggurat(),
                rng.next_normal_ziggurat(),
            );
            *v = *v * c1 + xi * c2[s as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlmd_numerics::rng::Xoshiro256;

    fn gas(n: usize) -> AtomsSystem {
        AtomsSystem::new(vec![Species::O; n], vec![Vec3::ZERO; n], Vec3::splat(100.0))
    }

    /// A gas of `per_species` atoms of each species, at rest.
    fn mixed_gas(per_species: usize) -> AtomsSystem {
        let species: Vec<Species> = Species::ALL
            .iter()
            .flat_map(|&s| std::iter::repeat_n(s, per_species))
            .collect();
        let n = species.len();
        AtomsSystem::new(species, vec![Vec3::ZERO; n], Vec3::splat(100.0))
    }

    /// Instantaneous kinetic temperature of one species' atoms.
    fn species_temperature(sys: &AtomsSystem, species: Species) -> f64 {
        let (sum, n) = sys
            .species
            .iter()
            .zip(&sys.velocities)
            .filter(|(s, _)| **s == species)
            .fold((0.0, 0usize), |(sum, n), (s, v)| {
                (sum + s.mass() * v.norm_sqr(), n + 1)
            });
        MASS_TIME_UNIT * sum / (3.0 * n as f64 * KB_EV)
    }

    /// Equipartition: started cold, every species equilibrates to
    /// ⟨½ m' v²⟩ = 3/2 kT on its own, whatever its mass (the stationary
    /// OU variance per component is kT/m'), on a pure O gas and on a mixed
    /// Pb/Ti/O gas whose masses span 13×.
    #[test]
    fn langevin_equilibrates_to_target() {
        for mut sys in [gas(300), mixed_gas(200)] {
            let mut rng = Xoshiro256::new(3);
            let thermo = Langevin::new(400.0, 0.05);
            let present: Vec<Species> = Species::ALL
                .into_iter()
                .filter(|s| sys.species.contains(s))
                .collect();
            // Start cold (v = 0) and let the OU process equilibrate
            // (1/γ = 40 steps), then average over the last 1500 steps.
            let mut t_avg = vec![0.0; present.len()];
            let n_samples = 1500;
            for step in 0..3000 {
                thermo.apply(&mut sys, 0.5, &mut rng);
                if step >= 3000 - n_samples {
                    for (t, &s) in t_avg.iter_mut().zip(&present) {
                        *t += species_temperature(&sys, s);
                    }
                }
            }
            for (t, s) in t_avg.iter().zip(&present) {
                let t = t / n_samples as f64;
                assert!(
                    (t - 400.0).abs() < 30.0,
                    "{} of {} atoms: T_avg = {t}",
                    s.symbol(),
                    sys.len()
                );
            }
        }
    }

    /// The thermostat is an exact OU process: in equilibrium the velocity
    /// autocorrelation ⟨v(t+τ)·v(t)⟩/⟨v²⟩ is e^{−γτ}. Checked at
    /// γτ = ½, 1, 2 over 12 time origins 2/γ apart on a mixed gas, within
    /// 5 standard errors of the ratio estimator, √((1 − C²)/M) for M
    /// velocity components.
    #[test]
    fn langevin_velocity_autocorrelation_is_exponential() {
        let (gamma, dt) = (0.1, 0.5);
        let lags = [10usize, 20, 40];
        let n_origins = 12;
        let mut sys = mixed_gas(150);
        let n = sys.len();
        let mut rng = Xoshiro256::new(5);
        sys.thermalize(300.0, &mut rng);
        let thermo = Langevin::new(300.0, gamma);
        // Weight each atom by its mass so every species contributes on
        // the same (kT) scale.
        let mass: Vec<f64> = sys.species.iter().map(|s| s.mass()).collect();
        let mut num = [0.0; 3];
        let mut den = 0.0;
        for _ in 0..n_origins {
            let v0 = sys.velocities.clone();
            den += v0
                .iter()
                .zip(&mass)
                .map(|(v, m)| m * v.norm_sqr())
                .sum::<f64>();
            for step in 1..=lags[2] {
                thermo.apply(&mut sys, dt, &mut rng);
                if let Some(k) = lags.iter().position(|&l| l == step) {
                    num[k] += sys
                        .velocities
                        .iter()
                        .zip(&v0)
                        .zip(&mass)
                        .map(|((v, w), m)| m * v.dot(*w))
                        .sum::<f64>();
                }
            }
        }
        let m = (3 * n * n_origins) as f64;
        for (k, &lag) in lags.iter().enumerate() {
            let want = (-gamma * lag as f64 * dt).exp();
            let got = num[k] / den;
            let tol = 5.0 * ((1.0 - want * want) / m).sqrt();
            assert!(
                (got - want).abs() < tol,
                "C(γτ = {}) = {got}, want {want} ± {tol}",
                gamma * lag as f64 * dt
            );
        }
    }
}
