//! Atomistic system state.
//!
//! Units: eV / Å / fs / amu (so forces are eV/Å). The conversion constant
//! [`KB_EV`] is Boltzmann's constant in eV/K; [`MASS_TIME_UNIT`] converts
//! `amu·Å²/fs²` to eV in the kinetic-energy bookkeeping.

use mlmd_numerics::vec3::Vec3;

/// Boltzmann constant in eV/K.
pub const KB_EV: f64 = 8.617_333_262e-5;
/// 1 amu·(Å/fs)² in eV.
pub const MASS_TIME_UNIT: f64 = 103.642_696;

/// Atomic species of the PbTiO3 system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Species {
    Pb,
    Ti,
    O,
}

impl Species {
    /// Every species, in discriminant order (`ALL[s as usize] == s`).
    pub const ALL: [Species; 3] = [Species::Pb, Species::Ti, Species::O];

    /// Atomic mass in amu.
    pub fn mass(self) -> f64 {
        match self {
            Species::Pb => 207.2,
            Species::Ti => 47.867,
            Species::O => 15.999,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            Species::Pb => "Pb",
            Species::Ti => "Ti",
            Species::O => "O",
        }
    }
}

/// The mutable state of an MD run.
#[derive(Clone, Debug)]
pub struct AtomsSystem {
    pub species: Vec<Species>,
    pub positions: Vec<Vec3>,
    pub velocities: Vec<Vec3>,
    pub forces: Vec<Vec3>,
    /// Orthorhombic periodic box lengths (Å).
    pub box_lengths: Vec3,
}

impl AtomsSystem {
    pub fn new(species: Vec<Species>, positions: Vec<Vec3>, box_lengths: Vec3) -> Self {
        let n = species.len();
        assert_eq!(positions.len(), n);
        Self {
            species,
            positions,
            velocities: vec![Vec3::ZERO; n],
            forces: vec![Vec3::ZERO; n],
            box_lengths,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.species.len()
    }

    pub fn is_empty(&self) -> bool {
        self.species.is_empty()
    }

    /// Minimum-image displacement from atom `i` to atom `j`.
    #[inline]
    pub fn displacement(&self, i: usize, j: usize) -> Vec3 {
        (self.positions[j] - self.positions[i]).min_image(self.box_lengths)
    }

    /// Kinetic energy in eV.
    pub fn kinetic_energy(&self) -> f64 {
        0.5 * MASS_TIME_UNIT
            * self
                .species
                .iter()
                .zip(&self.velocities)
                .map(|(s, v)| s.mass() * v.norm_sqr())
                .sum::<f64>()
    }

    /// Instantaneous temperature (K) from equipartition.
    pub fn temperature(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        2.0 * self.kinetic_energy() / (3.0 * self.len() as f64 * KB_EV)
    }

    /// Total momentum (amu·Å/fs).
    pub fn momentum(&self) -> Vec3 {
        self.species
            .iter()
            .zip(&self.velocities)
            .map(|(s, v)| *v * s.mass())
            .sum()
    }

    /// Remove center-of-mass drift.
    pub fn zero_momentum(&mut self) {
        let p = self.momentum();
        let m_total: f64 = self.species.iter().map(|s| s.mass()).sum();
        let v_com = p / m_total;
        for v in &mut self.velocities {
            *v -= v_com;
        }
    }

    /// Maxwell–Boltzmann velocities at temperature `t_kelvin`.
    pub fn thermalize(&mut self, t_kelvin: f64, rng: &mut impl mlmd_numerics::rng::Rng64) {
        for (s, v) in self.species.iter().zip(&mut self.velocities) {
            let sigma = (KB_EV * t_kelvin / (s.mass() * MASS_TIME_UNIT)).sqrt();
            *v = Vec3::new(
                rng.normal(0.0, sigma),
                rng.normal(0.0, sigma),
                rng.normal(0.0, sigma),
            );
        }
        self.zero_momentum();
    }

    /// Wrap all positions into the primary box.
    pub fn wrap_positions(&mut self) {
        for p in &mut self.positions {
            *p = p.wrap_into(self.box_lengths);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlmd_numerics::rng::Xoshiro256;

    fn two_atoms() -> AtomsSystem {
        AtomsSystem::new(
            vec![Species::Ti, Species::O],
            vec![Vec3::new(1.0, 1.0, 1.0), Vec3::new(9.5, 1.0, 1.0)],
            Vec3::splat(10.0),
        )
    }

    #[test]
    fn min_image_displacement() {
        let sys = two_atoms();
        let d = sys.displacement(0, 1);
        assert!((d.x + 1.5).abs() < 1e-12, "wraps around: {}", d.x);
    }

    #[test]
    fn temperature_of_thermalized_gas() {
        let n = 500;
        let mut sys =
            AtomsSystem::new(vec![Species::O; n], vec![Vec3::ZERO; n], Vec3::splat(100.0));
        let mut rng = Xoshiro256::new(7);
        sys.thermalize(300.0, &mut rng);
        let t = sys.temperature();
        assert!((t - 300.0).abs() < 30.0, "T = {t}");
    }

    #[test]
    fn zero_momentum_works() {
        let mut sys = two_atoms();
        sys.velocities[0] = Vec3::new(1.0, 0.0, 0.0);
        sys.zero_momentum();
        assert!(sys.momentum().norm() < 1e-12);
    }

    #[test]
    fn kinetic_energy_units() {
        // One O atom at 1 Å/fs: E = ½·m·v² = ½·15.999·103.64 eV.
        let mut sys = AtomsSystem::new(vec![Species::O], vec![Vec3::ZERO], Vec3::splat(10.0));
        sys.velocities[0] = Vec3::new(1.0, 0.0, 0.0);
        let expect = 0.5 * 15.999 * MASS_TIME_UNIT;
        assert!((sys.kinetic_energy() - expect).abs() < 1e-9);
    }

    #[test]
    fn masses_ordered_sensibly() {
        assert!(Species::Pb.mass() > Species::Ti.mass());
        assert!(Species::Ti.mass() > Species::O.mass());
    }

    #[test]
    fn wrap_positions_into_box() {
        let mut sys = two_atoms();
        sys.positions[0] = Vec3::new(-1.0, 11.0, 5.0);
        sys.wrap_positions();
        assert!((sys.positions[0].x - 9.0).abs() < 1e-12);
        assert!((sys.positions[0].y - 1.0).abs() < 1e-12);
    }
}
