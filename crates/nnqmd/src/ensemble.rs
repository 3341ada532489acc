//! Lockstep multi-domain NNQMD: many MD systems, one inference call per
//! step.
//!
//! [`NnMdEnsemble`] drives D independent atom systems (divide-and-conquer
//! domains, replica studies, embarrassingly-parallel sweeps) through
//! velocity Verlet in lockstep: every step performs the half-kick+drift
//! of all domains, then serves *all* force requests with a single
//! inference call ([`crate::infer`]) at the ensemble's precision, then
//! applies all second half-kicks.
//!
//! Because a batched call evaluates each request exactly as a standalone
//! one would, and [`VelocityVerlet::half_kick_drift`] +
//! `compute` + [`VelocityVerlet::half_kick`] is the same floating-point
//! program as [`VelocityVerlet::step`], each domain's trajectory is
//! bit-identical to running it alone in an
//! [`MdStage`](mlmd_qxmd::md_stage::MdStage) over an
//! [`NnForceField`](crate::md::NnForceField) — pinned in the tests below. The
//! ensemble is the single-threaded counterpart of the
//! [`ForceBatch`](crate::batch::ForceBatch) rendezvous: same batching
//! semantics, no blocking, so it is safe under width-1 thread pools.

use crate::infer::{ForceRequest, InferPrecision, InferenceModel};
use crate::md::NnMdRecord;
use crate::model::AllegroLite;
use mlmd_numerics::vec3::Vec3;
use mlmd_qxmd::atoms::AtomsSystem;
use mlmd_qxmd::integrator::VelocityVerlet;

/// Lockstep velocity-Verlet driver over multiple domains sharing one
/// network, with a single batched inference per step.
pub struct NnMdEnsemble {
    domains: Vec<AtomsSystem>,
    net: InferenceModel,
    n_batches: usize,
    vv: VelocityVerlet,
    steps_taken: usize,
}

impl NnMdEnsemble {
    /// Assemble the ensemble and compute every domain's initial forces
    /// (one batched call). `n_batches` is the per-domain blocking factor
    /// forwarded to the inference layer.
    pub fn new(
        domains: Vec<AtomsSystem>,
        model: AllegroLite,
        dt_fs: f64,
        n_batches: usize,
    ) -> Self {
        assert!(!domains.is_empty(), "an ensemble needs at least one domain");
        assert!(
            n_batches >= 1,
            "NnMdEnsemble::new: n_batches must be at least 1"
        );
        let mut ensemble = Self {
            domains,
            net: InferenceModel::new(model),
            n_batches,
            vv: VelocityVerlet::new(dt_fs),
            steps_taken: 0,
        };
        ensemble.compute_all_forces();
        ensemble
    }

    /// Switch the inference precision (builder style). Selecting
    /// [`InferPrecision::Bf16`] quantizes the model once and recomputes
    /// the initial forces on the quantized surface.
    pub fn with_precision(mut self, precision: InferPrecision) -> Self {
        self.net = self.net.with_precision(precision);
        self.compute_all_forces();
        self
    }

    /// One batched force evaluation over all domains: zero every force
    /// array, evaluate all requests in one call, accumulate. Returns the
    /// per-domain potential energies.
    fn compute_all_forces(&mut self) -> Vec<f64> {
        let results = {
            let requests: Vec<ForceRequest<'_>> = self
                .domains
                .iter()
                .map(|sys| ForceRequest {
                    species: &sys.species,
                    positions: &sys.positions,
                    box_lengths: sys.box_lengths,
                    n_batches: self.n_batches,
                })
                .collect();
            self.net.evaluate_many(&requests)
        };
        let mut energies = Vec::with_capacity(self.domains.len());
        for (sys, res) in self.domains.iter_mut().zip(&results) {
            for f in &mut sys.forces {
                *f = Vec3::ZERO;
            }
            for (f, r) in sys.forces.iter_mut().zip(&res.forces) {
                *f += *r;
            }
            energies.push(res.energy);
        }
        energies
    }

    /// One lockstep velocity-Verlet step across all domains with a
    /// single batched inference call; returns one record per domain.
    pub fn advance(&mut self) -> Vec<NnMdRecord> {
        for sys in &mut self.domains {
            self.vv.half_kick_drift(sys);
        }
        let energies = self.compute_all_forces();
        for sys in &mut self.domains {
            self.vv.half_kick(sys);
        }
        self.steps_taken += 1;
        let time_fs = self.time_fs();
        self.domains
            .iter()
            .zip(&energies)
            .map(|(sys, &potential_energy)| NnMdRecord {
                time_fs,
                potential_energy,
                kinetic_energy: sys.kinetic_energy(),
            })
            .collect()
    }

    /// Simulation time (fs) after the steps taken so far.
    pub fn time_fs(&self) -> f64 {
        self.steps_taken as f64 * self.vv.dt
    }

    /// Steps advanced since construction.
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Number of domains driven in lockstep.
    pub fn n_domains(&self) -> usize {
        self.domains.len()
    }

    /// Inference precision in effect.
    pub fn precision(&self) -> InferPrecision {
        self.net.precision()
    }

    /// The evolving domains.
    pub fn domains(&self) -> &[AtomsSystem] {
        &self.domains
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::NnForceField;
    use crate::model::ModelConfig;
    use mlmd_numerics::rng::Xoshiro256;
    use mlmd_qxmd::md_stage::MdStage;
    use mlmd_qxmd::perovskite::PerovskiteLattice;

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

    fn domains(count: usize) -> Vec<AtomsSystem> {
        (0..count)
            .map(|d| {
                let mut sys = PerovskiteLattice::uniform(2, 2, 2, Vec3::new(0.0, 0.0, 0.1)).system;
                let mut rng = Xoshiro256::new(7 + d as u64);
                sys.thermalize(40.0, &mut rng);
                sys
            })
            .collect()
    }

    /// The width-1 loop the ensemble is pinned against: one domain alone
    /// under the same network and blocking, NVE.
    fn solo_loop(sys: &AtomsSystem, dt: f64, n_batches: usize) -> MdStage<NnForceField> {
        let force = NnForceField::with_batches(model(), n_batches);
        MdStage::new(sys.clone(), force, dt, None, Xoshiro256::new(0))
    }

    #[test]
    #[should_panic(expected = "NnMdEnsemble::new: n_batches must be at least 1")]
    fn zero_batches_are_rejected() {
        NnMdEnsemble::new(domains(1), model(), 0.1, 0);
    }

    #[test]
    fn ensemble_matches_per_domain_loops_bitwise() {
        // The load-bearing pin: batching force requests across domains
        // must not change a single bit of any domain's trajectory.
        let systems = domains(3);
        let dt = 0.1;
        let mut loops: Vec<_> = systems.iter().map(|sys| solo_loop(sys, dt, 2)).collect();
        let mut ensemble = NnMdEnsemble::new(systems, model(), dt, 2);
        for _ in 0..6 {
            let records = ensemble.advance();
            assert_eq!(records.len(), 3);
            for (md, rec) in loops.iter_mut().zip(&records) {
                let solo = md.advance();
                assert_eq!(
                    solo.potential_energy.to_bits(),
                    rec.potential_energy.to_bits(),
                    "potential energy must match bit-for-bit"
                );
                assert_eq!(
                    md.system().kinetic_energy().to_bits(),
                    rec.kinetic_energy.to_bits()
                );
            }
        }
        assert_eq!(ensemble.time_fs(), 6.0 * dt);
        assert_eq!(ensemble.steps_taken(), 6);
        for (md, sys) in loops.iter().zip(ensemble.domains()) {
            for (a, b) in md.system().positions.iter().zip(&sys.positions) {
                assert_eq!(a.x.to_bits(), b.x.to_bits(), "positions must match exactly");
                assert_eq!(a.y.to_bits(), b.y.to_bits());
                assert_eq!(a.z.to_bits(), b.z.to_bits());
            }
            for (a, b) in md.system().velocities.iter().zip(&sys.velocities) {
                assert_eq!(
                    a.z.to_bits(),
                    b.z.to_bits(),
                    "velocities must match exactly"
                );
            }
        }
    }

    #[test]
    fn bf16_ensemble_tracks_f64_trajectory() {
        // The quantized surface is a different (documented-envelope)
        // force field; over a few steps the trajectories stay close but
        // need not match bitwise.
        let systems = domains(2);
        let mut f64_ens = NnMdEnsemble::new(systems.clone(), model(), 0.1, 2);
        let mut bf16_ens =
            NnMdEnsemble::new(systems, model(), 0.1, 2).with_precision(InferPrecision::Bf16);
        assert_eq!(bf16_ens.precision(), InferPrecision::Bf16);
        for _ in 0..5 {
            f64_ens.advance();
            bf16_ens.advance();
        }
        for (a, b) in f64_ens.domains().iter().zip(bf16_ens.domains()) {
            for (pa, pb) in a.positions.iter().zip(&b.positions) {
                let d = (*pa - *pb).norm();
                assert!(d < 0.05, "bf16 trajectory strayed {d} Å after 5 steps");
                assert!(d.is_finite());
            }
        }
    }

    #[test]
    fn single_domain_ensemble_reduces_to_the_loop() {
        let systems = domains(1);
        let mut md = solo_loop(&systems[0], 0.2, 3);
        let mut ensemble = NnMdEnsemble::new(systems, model(), 0.2, 3);
        assert_eq!(ensemble.n_domains(), 1);
        for _ in 0..4 {
            let solo = md.advance();
            let rec = &ensemble.advance()[0];
            assert_eq!(
                solo.potential_energy.to_bits(),
                rec.potential_energy.to_bits()
            );
        }
    }
}
