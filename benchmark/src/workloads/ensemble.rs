//! `nn_ensemble_bf16`: four 160-atom domains advanced in lock-step by
//! `NnMdEnsemble` at `InferPrecision::Bf16` — the *other* use of the
//! inference layer (multi-request batching on cached pair lists), so a
//! unification that speeds the f64 path but slows this one, or breaks the
//! bf16 accuracy envelope, shows.

use super::{Checked, Iteration, Prepared};
use crate::digest::digest_of;
use crate::inputs::{Inputs, ENSEMBLE_BATCHES, ENSEMBLE_CELLS, ENSEMBLE_DT_FS, ENSEMBLE_STEPS};
use crate::spans::Tracer;
use crate::workloads::pipeline_run::RESPOND_MODEL;
use mlmd::core::engine::Engine;
use mlmd::nnqmd::infer::{
    block_evaluate_many_bf16, BlockEvalResult, BF16_FORCE_ATOL, BF16_FORCE_RTOL,
};
use mlmd::nnqmd::{
    block_evaluate_many, AllegroLite, ForceRequest, InferPrecision, NnMdEnsemble, NnMdRecord,
    QuantizedModel,
};
use mlmd::numerics::rng::Xoshiro256;
use mlmd::numerics::vec3::Vec3;
use mlmd::qxmd::atoms::AtomsSystem;
use mlmd::qxmd::integrator::VelocityVerlet;
use mlmd::qxmd::perovskite::PerovskiteLattice;

struct Ensemble {
    model: AllegroLite,
    domains: Vec<AtomsSystem>,
}

pub fn build_domains(inputs: &Inputs) -> Vec<AtomsSystem> {
    let (nx, ny, nz) = ENSEMBLE_CELLS;
    inputs
        .domains
        .iter()
        .map(|d| {
            let mut system =
                PerovskiteLattice::uniform(nx, ny, nz, Vec3::new(0.0, 0.0, d.u_z)).system;
            system.thermalize(40.0, &mut Xoshiro256::new(d.thermal_seed));
            system
        })
        .collect()
}

pub fn requests(domains: &[AtomsSystem]) -> Vec<ForceRequest<'_>> {
    domains
        .iter()
        .map(|sys| ForceRequest {
            species: &sys.species,
            positions: &sys.positions,
            box_lengths: sys.box_lengths,
            n_batches: ENSEMBLE_BATCHES,
        })
        .collect()
}

/// Largest force deviation of the bf16 path from the f64 path and the
/// envelope it must stay within, over every domain.
pub fn bf16_force_error(
    model: &AllegroLite,
    quantized: &QuantizedModel,
    domains: &[AtomsSystem],
) -> (f64, f64) {
    let reqs = requests(domains);
    let exact = block_evaluate_many(model, &reqs);
    let approx = block_evaluate_many_bf16(quantized, &reqs);
    let mut worst = (0.0f64, f64::INFINITY);
    for (e, a) in exact.iter().zip(&approx) {
        let scale = e.forces.iter().map(|f| f.norm()).fold(0.0, f64::max);
        let err = e
            .forces
            .iter()
            .zip(&a.forces)
            .map(|(x, y)| (*x - *y).norm())
            .fold(0.0, f64::max);
        let envelope = BF16_FORCE_RTOL * scale + BF16_FORCE_ATOL;
        if err / envelope >= worst.0 / worst.1 {
            worst = (err, envelope);
        }
    }
    worst
}

pub fn setup(inputs: &Inputs) -> Prepared {
    let model = AllegroLite::new(RESPOND_MODEL, inputs.model_seed);
    let quantized = QuantizedModel::from_model(&model);
    let domains = build_domains(inputs);
    let (err, envelope) = bf16_force_error(&model, &quantized, &domains);
    let within: Checked = if err <= envelope {
        Ok(())
    } else {
        Err(format!(
            "bf16 force error {err:e} exceeds envelope {envelope:e}"
        ))
    };
    Prepared {
        iteration: Box::new(Ensemble { model, domains }),
        setup_checks: vec![("bf16_force_envelope", within)],
    }
}

fn check_finite(records: &[Vec<NnMdRecord>]) -> Checked {
    let finite = records
        .iter()
        .flatten()
        .all(|r| r.potential_energy.is_finite() && r.kinetic_energy.is_finite());
    if finite && records.len() == ENSEMBLE_STEPS {
        Ok(())
    } else {
        Err("ensemble trace is short or not finite".into())
    }
}

/// Zero-and-accumulate, as the ensemble applies a batched result.
fn apply_forces(domains: &mut [AtomsSystem], results: &[BlockEvalResult]) {
    for (sys, res) in domains.iter_mut().zip(results) {
        for (f, r) in sys.forces.iter_mut().zip(&res.forces) {
            *f = Vec3::ZERO;
            *f += *r;
        }
    }
}

impl Iteration for Ensemble {
    fn run(&mut self) -> Result<u64, String> {
        let mut ensemble = NnMdEnsemble::new(
            self.domains.clone(),
            self.model.clone(),
            ENSEMBLE_DT_FS,
            ENSEMBLE_BATCHES,
        )
        .with_precision(InferPrecision::Bf16);
        let records = Engine::run_collect(&mut ensemble, ENSEMBLE_STEPS);
        check_finite(&records)?;
        Ok(digest_of(&records))
    }

    /// The ensemble's step is built from public halves — the two
    /// velocity-Verlet half steps around one `block_evaluate_many_bf16` —
    /// so the replay is the same floating-point program.
    fn replay(&mut self, tracer: &Tracer, op: u32) -> Result<u64, String> {
        let records = tracer.span("iteration", None, op, |root| {
            let mut domains = self.domains.clone();
            let exact = tracer.span("nnqmd.infer_many_f64", root, op, |_| {
                block_evaluate_many(&self.model, &requests(&domains))
            });
            apply_forces(&mut domains, &exact);
            let quantized = tracer.span("nnqmd.quantize", root, op, |_| {
                QuantizedModel::from_model(&self.model)
            });
            let infer = |domains: &[AtomsSystem]| {
                tracer.span("nnqmd.infer_many_bf16", root, op, |_| {
                    block_evaluate_many_bf16(&quantized, &requests(domains))
                })
            };
            let initial = infer(&domains);
            apply_forces(&mut domains, &initial);
            let vv = VelocityVerlet::new(ENSEMBLE_DT_FS);
            (1..=ENSEMBLE_STEPS)
                .map(|step| {
                    tracer.span("qxmd.half_kick_drift", root, op, |_| {
                        domains.iter_mut().for_each(|sys| vv.half_kick_drift(sys))
                    });
                    let results = infer(&domains);
                    tracer.span("qxmd.half_kick", root, op, |_| {
                        apply_forces(&mut domains, &results);
                        domains.iter_mut().for_each(|sys| vv.half_kick(sys));
                    });
                    domains
                        .iter()
                        .zip(&results)
                        .map(|(sys, res)| NnMdRecord {
                            time_fs: step as f64 * ENSEMBLE_DT_FS,
                            potential_energy: res.energy,
                            kinetic_energy: sys.kinetic_energy(),
                        })
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        });
        check_finite(&records)?;
        Ok(digest_of(&records))
    }

    fn prediction(&self) -> (&'static str, f64) {
        ("nnqmd.infer_many_bf16", 0.7)
    }
}
