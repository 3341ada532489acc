//! Synthetic NAQMD training-data generation.
//!
//! The paper trains on first-principles NAQMD data; our reference theory
//! is the QXMD effective model, which stands in for it.
//! Frames are perovskite supercells with thermal-like random displacements
//! and random polar textures, labeled with the energies and forces of a
//! [`mlmd_qxmd::ferro::FerroModel`] at a given excitation level — so a
//! ground-state dataset (x = 0) and an excited-state dataset (x > 0)
//! genuinely differ in their force fields, exactly the distinction the
//! XS/GS pair of networks must learn.

use crate::train::{Dataset, Frame};
use mlmd_numerics::rng::{Rng64, Xoshiro256};
use mlmd_numerics::vec3::Vec3;
use mlmd_qxmd::ferro::{FerroModel, FerroParams};
use mlmd_qxmd::integrator::ForceField;
use mlmd_qxmd::perovskite::PerovskiteLattice;

/// Generator settings.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Supercell dimensions.
    pub cells: (usize, usize, usize),
    /// RMS random displacement added to every atom (Å).
    pub rattle: f64,
    /// RMS random polar texture amplitude (Å).
    pub u_amplitude: f64,
    /// Uniform excitation fraction labeling the frames (0 = ground state).
    pub excitation: f64,
    pub n_frames: usize,
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            cells: (3, 3, 3),
            rattle: 0.05,
            u_amplitude: 0.25,
            excitation: 0.0,
            n_frames: 16,
            seed: 12345,
        }
    }
}

/// Generate a labeled dataset from the QXMD reference model.
pub fn generate(cfg: GenConfig) -> Dataset {
    let mut rng = Xoshiro256::new(cfg.seed);
    let mut frames = Vec::with_capacity(cfg.n_frames);
    let (nx, ny, nz) = cfg.cells;
    for _ in 0..cfg.n_frames {
        // Random smooth polar texture: uniform direction + noise.
        let base = Vec3::new(
            rng.normal(0.0, cfg.u_amplitude),
            rng.normal(0.0, cfg.u_amplitude),
            rng.normal(0.0, cfg.u_amplitude),
        );
        let mut noise = Xoshiro256::new(rng.next_u64());
        let lat = PerovskiteLattice::build(nx, ny, nz, |_, _, _| {
            base + Vec3::new(
                noise.normal(0.0, 0.3 * cfg.u_amplitude),
                noise.normal(0.0, 0.3 * cfg.u_amplitude),
                noise.normal(0.0, 0.3 * cfg.u_amplitude),
            )
        });
        let mut model = FerroModel::new(&lat, FerroParams::pbtio3());
        model.set_uniform_excitation(cfg.excitation);
        let mut sys = lat.system.clone();
        for p in &mut sys.positions {
            *p += Vec3::new(
                rng.normal(0.0, cfg.rattle),
                rng.normal(0.0, cfg.rattle),
                rng.normal(0.0, cfg.rattle),
            );
        }
        sys.wrap_positions();
        let energy = model.compute(&mut sys);
        frames.push(Frame {
            species: sys.species.clone(),
            positions: sys.positions.clone(),
            box_lengths: sys.box_lengths,
            energy,
            forces: sys.forces.clone(),
        });
    }
    Dataset { frames }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_have_consistent_shapes() {
        let ds = generate(GenConfig {
            n_frames: 3,
            ..Default::default()
        });
        assert_eq!(ds.frames.len(), 3);
        for f in &ds.frames {
            assert_eq!(f.species.len(), 5 * 27);
            assert_eq!(f.positions.len(), f.forces.len());
            assert!(f.energy.is_finite());
        }
    }

    #[test]
    fn frames_differ() {
        let ds = generate(GenConfig {
            n_frames: 2,
            ..Default::default()
        });
        assert!((ds.frames[0].energy - ds.frames[1].energy).abs() > 1e-9);
    }

    #[test]
    fn excited_labels_differ_from_ground() {
        let gs = generate(GenConfig {
            n_frames: 2,
            excitation: 0.0,
            seed: 7,
            ..Default::default()
        });
        let xs = generate(GenConfig {
            n_frames: 2,
            excitation: 0.15,
            seed: 7,
            ..Default::default()
        });
        // Same geometries (same seed), different labels.
        assert!((gs.frames[0].energy - xs.frames[0].energy).abs() > 1e-6);
    }

    #[test]
    fn deterministic() {
        let a = generate(GenConfig::default());
        let b = generate(GenConfig::default());
        assert_eq!(a.frames[0].energy, b.frames[0].energy);
    }
}
