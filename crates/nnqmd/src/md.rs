//! NNQMD molecular dynamics: the trained network as an MD force field,
//! serial or over simulated-MPI ranks.
//!
//! The parallel driver follows the paper's XS-NNQMD structure: each rank
//! owns a contiguous atom block, positions are exchanged (the functional
//! analogue of the halo exchange; the cost model in `mlmd-exasim` accounts
//! for the real halo volumes), forces for owned atoms are computed with
//! the strictly-local model, and the total energy is allreduced. Serial
//! and parallel drivers run the same blocking loop and per-centre kernel
//! ([`crate::infer`]).

use crate::infer::{
    evaluate_centres, ForceRequest, InferPrecision, InferenceModel, BYTES_PER_NEIGHBOR,
};
use crate::kernel::Scratch;
use crate::mix::XsGsModel;
use crate::model::AllegroLite;
use mlmd_numerics::vec3::Vec3;
use mlmd_parallel::comm::Comm;
use mlmd_parallel::hier::partition;
use mlmd_qxmd::atoms::AtomsSystem;
use mlmd_qxmd::integrator::ForceField;

/// Serial force-field adapter for a single network.
///
/// Inference runs at f64 unless [`with_precision`](Self::with_precision)
/// selects the bf16-storage / f32-accumulate network, which trades the
/// documented force envelope ([`crate::infer::BF16_FORCE_RTOL`]) for half
/// the parameter bytes.
pub struct NnForceField {
    net: InferenceModel,
    /// Number of inference batches (Sec. V.B.9 blocking).
    pub n_batches: usize,
}

impl NnForceField {
    pub fn new(model: AllegroLite) -> Self {
        Self::with_batches(model, 2)
    }

    /// Explicit neighbor-list blocking factor.
    pub fn with_batches(model: AllegroLite, n_batches: usize) -> Self {
        assert!(
            n_batches >= 1,
            "NnForceField::with_batches: n_batches must be at least 1"
        );
        Self {
            net: InferenceModel::new(model),
            n_batches,
        }
    }

    /// Select the inference precision (builder style). Choosing
    /// [`InferPrecision::Bf16`] quantizes the network once up front.
    pub fn with_precision(mut self, precision: InferPrecision) -> Self {
        self.net = self.net.with_precision(precision);
        self
    }

    /// Inference precision in effect.
    pub fn precision(&self) -> InferPrecision {
        self.net.precision()
    }
}

impl ForceField for NnForceField {
    fn accumulate(&self, sys: &mut AtomsSystem) -> f64 {
        let rq = ForceRequest {
            species: &sys.species,
            positions: &sys.positions,
            box_lengths: sys.box_lengths,
            n_batches: self.n_batches,
        };
        let res = self.net.evaluate_many(&[rq]).remove(0);
        for (f, r) in sys.forces.iter_mut().zip(&res.forces) {
            *f += *r;
        }
        res.energy
    }
}

/// Force-field adapter for the XS/GS mixed model (Eq. 4).
pub struct XsGsForceField {
    pub model: XsGsModel,
}

impl ForceField for XsGsForceField {
    fn accumulate(&self, sys: &mut AtomsSystem) -> f64 {
        let (e, forces) = self
            .model
            .evaluate(&sys.species, &sys.positions, sys.box_lengths);
        for (f, r) in sys.forces.iter_mut().zip(&forces) {
            *f += *r;
        }
        e
    }
}

/// Per-step, per-domain record of an NNQMD MD run
/// ([`crate::ensemble::NnMdEnsemble`]).
#[derive(Clone, Copy, Debug)]
pub struct NnMdRecord {
    /// Simulation time after the step (fs).
    pub time_fs: f64,
    /// Potential energy at the new positions (eV).
    pub potential_energy: f64,
    /// Kinetic energy after the step (eV).
    pub kinetic_energy: f64,
}

/// One parallel force evaluation over a communicator: rank `r` computes
/// the per-atom contributions of its atom block, forces are summed
/// across ranks (each edge contributes from exactly one owner), and the
/// energy is allreduced. Returns (energy, forces) replicated on all ranks.
pub fn parallel_forces(comm: &Comm, model: &AllegroLite, sys: &AtomsSystem) -> (f64, Vec<Vec3>) {
    let rq = ForceRequest {
        species: &sys.species,
        positions: &sys.positions,
        box_lengths: sys.box_lengths,
        n_batches: 1,
    };
    let owned = partition(sys.len(), comm.size(), comm.rank());
    let local = evaluate_centres(
        &model.cfg,
        &model.params,
        BYTES_PER_NEIGHBOR,
        &mut Scratch::new(),
        &rq,
        owned,
    );
    let energy = comm.allreduce_sum(local.energy);
    // Reduce force components.
    let flat: Vec<f64> = local.forces.iter().flat_map(|f| [f.x, f.y, f.z]).collect();
    let total = comm.allreduce_sum_vec(flat);
    let forces = total
        .chunks_exact(3)
        .map(|c| Vec3::new(c[0], c[1], c[2]))
        .collect();
    (energy, forces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use mlmd_numerics::rng::Xoshiro256;
    use mlmd_parallel::comm::World;
    use mlmd_qxmd::integrator::VelocityVerlet;
    use mlmd_qxmd::perovskite::PerovskiteLattice;

    fn small_system() -> AtomsSystem {
        PerovskiteLattice::uniform(2, 2, 2, Vec3::new(0.0, 0.0, 0.1)).system
    }

    fn model() -> AllegroLite {
        AllegroLite::new(
            ModelConfig {
                hidden: 6,
                k_max: 4,
                rcut: 3.5,
            },
            41,
        )
    }

    #[test]
    #[should_panic(expected = "NnForceField::with_batches: n_batches must be at least 1")]
    fn zero_batches_are_rejected() {
        NnForceField::with_batches(model(), 0);
    }

    #[test]
    fn nn_force_field_runs_md() {
        let mut sys = small_system();
        let mut rng = Xoshiro256::new(1);
        sys.thermalize(50.0, &mut rng);
        let ff = NnForceField::new(model());
        let vv = VelocityVerlet::new(0.1);
        let (_, drift) = vv.run(&mut sys, &ff, 50);
        assert!(drift.is_finite());
        assert!(sys.positions.iter().all(|p| p.x.is_finite()));
    }

    #[test]
    fn bf16_force_field_tracks_f64_within_envelope() {
        use crate::infer::{BF16_ENERGY_ATOL_PER_ATOM, BF16_FORCE_ATOL, BF16_FORCE_RTOL};
        let sys = small_system();
        let ff64 = NnForceField::new(model());
        let ff16 = NnForceField::new(model()).with_precision(InferPrecision::Bf16);
        assert_eq!(ff64.precision(), InferPrecision::F64);
        assert_eq!(ff16.precision(), InferPrecision::Bf16);
        let mut a = sys.clone();
        let mut b = sys.clone();
        let ea = ff64.compute(&mut a);
        let eb = ff16.compute(&mut b);
        let fmax = a.forces.iter().map(|f| f.norm()).fold(0.0_f64, f64::max);
        for (x, y) in a.forces.iter().zip(&b.forces) {
            let err = (*x - *y).norm();
            assert!(
                err <= BF16_FORCE_RTOL * fmax + BF16_FORCE_ATOL,
                "force error {err} outside envelope (fmax {fmax})"
            );
        }
        assert!((ea - eb).abs() <= BF16_ENERGY_ATOL_PER_ATOM * sys.len() as f64);
    }

    #[test]
    fn parallel_forces_match_serial() {
        let sys = small_system();
        let m = model();
        let serial = m.evaluate(&sys.species, &sys.positions, sys.box_lengths);
        for ranks in [1usize, 2, 4] {
            let out = World::run(ranks, |comm| parallel_forces(&comm, &m, &sys));
            for (energy, forces) in &out {
                assert!(
                    (energy - serial.energy).abs() < 1e-12,
                    "{ranks} ranks: energy {} vs {}",
                    energy,
                    serial.energy
                );
                for (a, b) in forces.iter().zip(&serial.forces) {
                    assert!((*a - *b).norm() < 1e-12, "{ranks} ranks: force mismatch");
                }
            }
        }
    }

    #[test]
    fn xsgs_force_field_responds_to_excitation() {
        let sys = small_system();
        let gs = model();
        let xs = AllegroLite::new(
            ModelConfig {
                hidden: 6,
                k_max: 4,
                rcut: 3.5,
            },
            42,
        );
        let mut mixed = XsGsModel::new(gs, xs, 0.05);
        mixed.set_excitation(0.0, sys.len());
        let ff = XsGsForceField { model: mixed };
        let mut s1 = sys.clone();
        let e_gs = ff.compute(&mut s1);
        let mut ff = ff;
        ff.model.set_excitation(1e9, sys.len());
        let mut s2 = sys.clone();
        let e_xs = ff.compute(&mut s2);
        assert!((e_gs - e_xs).abs() > 1e-9, "different surfaces must differ");
    }
}
