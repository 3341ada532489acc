//! MD integration: velocity Verlet over a [`ForceField`].
//!
//! Positions in Å, velocities in Å/fs, forces in eV/Å, masses in amu.
//! The acceleration conversion `a = F/m / MASS_TIME_UNIT` keeps the unit
//! system consistent (1 amu·Å/fs² = 103.64 eV/Å).

use crate::atoms::{AtomsSystem, Species, MASS_TIME_UNIT};
use mlmd_numerics::vec3::Vec3;

/// Anything that can produce forces and a potential energy.
pub trait ForceField {
    /// Add this term's forces into `sys.forces` and return its energy.
    fn accumulate(&self, sys: &mut AtomsSystem) -> f64;

    /// Zero the force array and accumulate (the full-evaluation entry).
    fn compute(&self, sys: &mut AtomsSystem) -> f64 {
        for f in &mut sys.forces {
            *f = Vec3::ZERO;
        }
        self.accumulate(sys)
    }
}

impl ForceField for crate::ferro::FerroModel {
    fn accumulate(&self, sys: &mut AtomsSystem) -> f64 {
        crate::ferro::FerroModel::accumulate(self, sys)
    }
}

/// `1 / (m·MASS_TIME_UNIT)` per species, indexed by the `Species`
/// discriminant: one division per species per call instead of per atom.
fn inverse_masses() -> [f64; Species::ALL.len()] {
    Species::ALL.map(|s| 1.0 / (s.mass() * MASS_TIME_UNIT))
}

/// Velocity Verlet NVE integrator.
pub struct VelocityVerlet {
    /// Time step (fs).
    pub dt: f64,
}

impl VelocityVerlet {
    pub fn new(dt: f64) -> Self {
        assert!(dt > 0.0);
        Self { dt }
    }

    /// One step; returns the potential energy at the new positions.
    /// `sys.forces` must hold the forces at the current positions (call
    /// `ff.compute(sys)` once before the first step).
    pub fn step(&self, sys: &mut AtomsSystem, ff: &impl ForceField) -> f64 {
        self.half_kick_drift(sys);
        // New forces.
        let pe = ff.compute(sys);
        self.half_kick(sys);
        pe
    }

    /// First half of a step: half kick from the stored forces, then drift.
    /// Exposed so drivers that batch force evaluations across several
    /// systems (e.g. cross-domain inference batching) can interleave the
    /// two halves around one shared force call; `half_kick_drift` +
    /// external `ff.compute` + [`half_kick`](Self::half_kick) is
    /// bit-identical to [`step`](Self::step).
    pub fn half_kick_drift(&self, sys: &mut AtomsSystem) {
        let dt = self.dt;
        let inv_m = inverse_masses();
        // Half kick + drift.
        for i in 0..sys.len() {
            sys.velocities[i] += sys.forces[i] * (0.5 * dt * inv_m[sys.species[i] as usize]);
            let v = sys.velocities[i];
            sys.positions[i] += v * dt;
        }
    }

    /// Second half of a step: half kick from the freshly computed forces.
    pub fn half_kick(&self, sys: &mut AtomsSystem) {
        let dt = self.dt;
        let inv_m = inverse_masses();
        for i in 0..sys.len() {
            sys.velocities[i] += sys.forces[i] * (0.5 * dt * inv_m[sys.species[i] as usize]);
        }
    }

    /// Run `n_steps` and return (final potential energy, energy drift
    /// |E_tot(end) − E_tot(start)|).
    pub fn run(&self, sys: &mut AtomsSystem, ff: &impl ForceField, n_steps: usize) -> (f64, f64) {
        let mut pe = ff.compute(sys);
        let e0 = pe + sys.kinetic_energy();
        for _ in 0..n_steps {
            pe = self.step(sys, ff);
        }
        let e1 = pe + sys.kinetic_energy();
        (pe, (e1 - e0).abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::Species;

    /// Harmonic tether to the origin — an analytic testbed.
    struct Harmonic {
        k: f64,
    }

    impl ForceField for Harmonic {
        fn accumulate(&self, sys: &mut AtomsSystem) -> f64 {
            let mut e = 0.0;
            for i in 0..sys.len() {
                let d = sys.positions[i];
                e += 0.5 * self.k * d.norm_sqr();
                sys.forces[i] -= d * self.k;
            }
            e
        }
    }

    fn oscillator() -> AtomsSystem {
        let mut sys = AtomsSystem::new(
            vec![Species::O],
            vec![Vec3::new(0.5, 0.0, 0.0)],
            Vec3::splat(100.0),
        );
        sys.velocities[0] = Vec3::ZERO;
        sys
    }

    #[test]
    fn harmonic_period() {
        // ω = √(k/m'), m' = m·MASS_TIME_UNIT in eV·fs²/Å².
        let k = 5.0;
        let m_eff = Species::O.mass() * MASS_TIME_UNIT;
        let period = 2.0 * std::f64::consts::PI * (m_eff / k).sqrt();
        let mut sys = oscillator();
        let ff = Harmonic { k };
        let dt = period / 1000.0;
        let vv = VelocityVerlet::new(dt);
        ff.compute(&mut sys);
        for _ in 0..1000 {
            vv.step(&mut sys, &ff);
        }
        // One full period: back at start.
        assert!(
            (sys.positions[0].x - 0.5).abs() < 1e-3,
            "x after one period: {}",
            sys.positions[0].x
        );
    }

    #[test]
    fn energy_conservation() {
        let mut sys = oscillator();
        sys.velocities[0] = Vec3::new(0.01, 0.02, 0.0);
        let ff = Harmonic { k: 3.0 };
        let vv = VelocityVerlet::new(0.5);
        let (_, drift) = vv.run(&mut sys, &ff, 5000);
        let e_scale = 0.5 * 3.0 * 0.25;
        assert!(drift / e_scale < 1e-3, "drift {drift}");
    }

    /// E(0) and the largest |E(t) − E(0)| over `steps` Verlet steps of
    /// `dt` from `sys`.
    fn worst_energy_error(
        mut sys: AtomsSystem,
        ff: &impl ForceField,
        dt: f64,
        steps: usize,
    ) -> (f64, f64) {
        let vv = VelocityVerlet::new(dt);
        let e0 = ff.compute(&mut sys) + sys.kinetic_energy();
        let mut worst = 0.0f64;
        for _ in 0..steps {
            let pe = vv.step(&mut sys, ff);
            worst = worst.max((pe + sys.kinetic_energy() - e0).abs());
        }
        (e0, worst)
    }

    /// Known answer: on a harmonic oscillator velocity Verlet conserves
    /// the shadow energy `½mv² + ½kx²(1 − (ωΔt)²/4)` exactly, so released
    /// from rest its energy dips by `E₀(ωΔt)²/4` each time it crosses
    /// x = 0 — and never more.
    #[test]
    fn harmonic_energy_error_matches_the_shadow_energy() {
        let k = 5.0;
        let omega = (k / (Species::O.mass() * MASS_TIME_UNIT)).sqrt();
        let period = 2.0 * std::f64::consts::PI / omega;
        for per_period in [50, 100, 200] {
            let dt = period / per_period as f64;
            let (e0, worst) = worst_energy_error(oscillator(), &Harmonic { k }, dt, 3 * per_period);
            let want = e0 * (omega * dt).powi(2) / 4.0;
            assert!(
                (worst / want - 1.0).abs() < 5e-3,
                "{per_period} steps per period: worst |ΔE| {worst}, shadow energy predicts {want}"
            );
        }
    }

    /// Velocity Verlet is second order on the force field the pipeline
    /// runs too: released off its minimum, the anharmonic ferroelectric
    /// lattice's worst energy error over a fixed 24 fs window falls as Δt²
    /// (fitted order over Δt = 0.4, 0.2, 0.1 fs).
    #[test]
    fn ferroelectric_energy_error_is_second_order_in_dt() {
        use crate::ferro::{FerroModel, FerroParams};
        use crate::perovskite::PerovskiteLattice;
        use mlmd_numerics::rng::Xoshiro256;
        let lat = PerovskiteLattice::uniform(2, 2, 2, Vec3::new(0.05, 0.0, 0.2));
        let ff = FerroModel::new(&lat, FerroParams::pbtio3());
        let mut start = lat.system.clone();
        start.thermalize(300.0, &mut Xoshiro256::new(9));
        let dts = [0.4, 0.2, 0.1];
        let errs: Vec<f64> = dts
            .iter()
            .map(|&dt| worst_energy_error(start.clone(), &ff, dt, (24.0 / dt) as usize).1)
            .collect();
        let (order, _, r2) = mlmd_numerics::stats::power_law_fit(&dts, &errs);
        assert!(
            (order - 2.0).abs() < 0.2 && r2 > 0.999,
            "fitted order {order} (r² {r2}), worst |ΔE| {errs:?} eV"
        );
    }

    #[test]
    fn time_reversibility() {
        let mut sys = oscillator();
        sys.velocities[0] = Vec3::new(0.05, 0.0, 0.0);
        let ff = Harmonic { k: 2.0 };
        let vv = VelocityVerlet::new(0.2);
        let x0 = sys.positions[0];
        ff.compute(&mut sys);
        for _ in 0..100 {
            vv.step(&mut sys, &ff);
        }
        // Reverse velocities and integrate back.
        sys.velocities[0] = -sys.velocities[0];
        for _ in 0..100 {
            vv.step(&mut sys, &ff);
        }
        assert!((sys.positions[0] - x0).norm() < 1e-9);
    }

    #[test]
    fn split_halves_recompose_step_bitwise() {
        // half_kick_drift + compute + half_kick must be the same
        // floating-point program as step (cross-domain batching relies
        // on interleaving the halves around one shared force call).
        use crate::ferro::{FerroModel, FerroParams};
        use crate::perovskite::PerovskiteLattice;
        let p = FerroParams::pbtio3();
        let lat = PerovskiteLattice::uniform(2, 2, 2, Vec3::new(0.0, 0.0, 0.15));
        let ff = FerroModel::new(&lat, p);
        let vv = VelocityVerlet::new(0.2);
        let mut whole = lat.system.clone();
        let mut split = lat.system.clone();
        ff.compute(&mut whole);
        ff.compute(&mut split);
        for _ in 0..5 {
            vv.step(&mut whole, &ff);
            vv.half_kick_drift(&mut split);
            ff.compute(&mut split);
            vv.half_kick(&mut split);
        }
        for (a, b) in whole.positions.iter().zip(&split.positions) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        for (a, b) in whole.velocities.iter().zip(&split.velocities) {
            assert_eq!(a.y.to_bits(), b.y.to_bits());
        }
    }

    #[test]
    fn ferroelectric_lattice_stable_under_md() {
        // The coupled minimum must survive thermal-free NVE dynamics.
        use crate::ferro::{FerroModel, FerroParams};
        use crate::perovskite::PerovskiteLattice;
        let p = FerroParams::pbtio3();
        let u_star = ((3.0 * p.j_nn - p.a2) / (2.0 * p.a4)).sqrt();
        let lat = PerovskiteLattice::uniform(3, 3, 3, Vec3::new(0.0, 0.0, u_star));
        let mut sys = lat.system.clone();
        let ff = FerroModel::new(&lat, p);
        let vv = VelocityVerlet::new(0.2);
        let (_, drift) = vv.run(&mut sys, &ff, 500);
        assert!(drift < 1e-3, "energy drift {drift} eV");
        // Polarization persists.
        let u = ff.displacement_field(&sys);
        let mean_uz: f64 = u.iter().map(|v| v.z).sum::<f64>() / u.len() as f64;
        assert!(
            (mean_uz - u_star).abs() < 0.02,
            "polarization drifted: {mean_uz} vs {u_star}"
        );
    }
}
