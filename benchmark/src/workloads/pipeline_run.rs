//! `switching_e2e` and `nn_response_f64`: one iteration is one
//! `Pipeline::new(config).run()` — the Fig. 3 study from pulse to
//! switching verdict — under two configurations that stress different
//! layers (analytic MD + topology sampling vs f64 NN inference).

use super::{cold_mesh_stage, Checked, Iteration, Prepared, TimedStepper};
use crate::digest::digest_of;
use crate::inputs::Inputs;
use crate::spans::{SpanId, Tracer};
use mlmd::core::config::PipelineConfig;
use mlmd::core::engine::{
    polarization_of, Engine, NullObserver, Observer, RunPlan, SampleStride, StepInfo, TraceObserver,
};
use mlmd::core::msa::XnNnCoupling;
use mlmd::core::pipeline::{Pipeline, PipelineOutcome, ResponsePoint};
use mlmd::dcmesh::mesh::MeshStepRecord;
use mlmd::nnqmd::{AllegroLite, ModelConfig, NnForceField};
use mlmd::numerics::rng::Xoshiro256;
use mlmd::qxmd::atoms::AtomsSystem;
use mlmd::qxmd::ferro::FerroModel;
use mlmd::qxmd::integrator::ForceField;
use mlmd::qxmd::md_stage::{MdRecord, MdStage};
use mlmd::qxmd::thermostat::Langevin;
use mlmd::topo::switching::{compare, TextureReport};

/// The network `Pipeline::run` builds for its NN respond stage.
pub const RESPOND_MODEL: ModelConfig = ModelConfig {
    hidden: 6,
    k_max: 4,
    rcut: 3.5,
};

type OutcomeCheck = fn(&PipelineOutcome) -> Checked;

struct PipelineRun {
    config: PipelineConfig,
    check: OutcomeCheck,
    /// Span expected to dominate a replayed iteration, and its least share.
    prediction: (&'static str, f64),
}

fn check_switched(out: &PipelineOutcome) -> Checked {
    if !out.verdict.topology_switched {
        return Err(format!(
            "topology did not switch: Q {} -> {}",
            out.initial_topological_charge, out.final_topological_charge
        ));
    }
    if out.initial_topological_charge.abs() <= 0.5 {
        return Err(format!(
            "no initial skyrmion: |Q| = {}",
            out.initial_topological_charge.abs()
        ));
    }
    Ok(())
}

fn check_finite(out: &PipelineOutcome) -> Checked {
    let finite = out
        .response_trace
        .iter()
        .all(|p| p.polar_order.is_finite() && p.mean_charge.is_finite());
    if finite && !out.response_trace.is_empty() {
        Ok(())
    } else {
        Err("response trace is empty or not finite".into())
    }
}

pub fn setup_switching(inputs: &Inputs) -> Prepared {
    cold_mesh_stage(&inputs.switching, inputs.switching.pulse_e0);
    Prepared {
        iteration: Box::new(PipelineRun {
            config: inputs.switching,
            check: check_switched,
            prediction: ("qxmd.respond", 0.8),
        }),
        setup_checks: Vec::new(),
    }
}

pub fn setup_nn_response(inputs: &Inputs) -> Prepared {
    let config = inputs.nn_response;
    cold_mesh_stage(&config, config.pulse_e0);
    // Blocking must not change the physics: one batch and four agree bit
    // for bit. Checked once here; the timed iterations use four.
    let digest_at = |n_batches: usize| {
        let cfg = PipelineConfig {
            respond_nn_batches: Some(n_batches),
            ..config
        };
        digest_of(&Pipeline::new(cfg).run())
    };
    let (one, four) = (digest_at(1), digest_at(4));
    let blocking = if one == four {
        Ok(())
    } else {
        Err(format!("digest {one:#x} at 1 batch, {four:#x} at 4"))
    };
    Prepared {
        iteration: Box::new(PipelineRun {
            config,
            check: check_finite,
            prediction: ("nnqmd.infer_f64", 0.7),
        }),
        setup_checks: vec![("nn_blocking_invariant", blocking)],
    }
}

/// The respond-stage force model rebuilt from public parts, with a span
/// around the network term.
struct ReplayForce<'a> {
    ferro: FerroModel,
    network: Option<NnForceField>,
    tracer: &'a Tracer,
    parent: Option<SpanId>,
    op: u32,
}

impl ForceField for ReplayForce<'_> {
    fn accumulate(&self, sys: &mut AtomsSystem) -> f64 {
        let mut e = self.ferro.accumulate(sys);
        if let Some(nn) = &self.network {
            e += self
                .tracer
                .span("nnqmd.infer_f64", self.parent, self.op, |_| {
                    nn.accumulate(sys)
                });
        }
        e
    }
}

/// What `ResponseTraceObserver` does, with a span around each sample.
struct SampleObserver<'a> {
    stride: SampleStride,
    cells: (usize, usize, usize),
    dt_fs: f64,
    trace: Vec<ResponsePoint>,
    tracer: &'a Tracer,
    parent: Option<SpanId>,
    op: u32,
}

impl<'a> Observer<MdStage<ReplayForce<'a>>> for SampleObserver<'a> {
    fn observe(&mut self, info: StepInfo, stage: &MdStage<ReplayForce<'a>>, _record: &MdRecord) {
        if !self.stride.should_sample(info) {
            return;
        }
        let report = self.tracer.span("topo.sample", self.parent, self.op, |_| {
            let field = polarization_of(self.cells, &stage.force().ferro, stage.system());
            TextureReport::analyze(&field)
        });
        self.trace.push(ResponsePoint {
            time_fs: (info.index + 1) as f64 * self.dt_fs,
            polar_order: report.polar_order,
            mean_charge: report.mean_charge,
        });
    }
}

fn peak_exc(records: &[MeshStepRecord]) -> f64 {
    records.iter().map(|r| r.n_exc).fold(0.0, f64::max)
}

impl Iteration for PipelineRun {
    fn run(&mut self) -> Result<u64, String> {
        let out = Pipeline::new(self.config).run();
        (self.check)(&out)?;
        Ok(digest_of(&out))
    }

    fn replay(&mut self, tracer: &Tracer, op: u32) -> Result<u64, String> {
        let cfg = self.config;
        let out = tracer.span("iteration", None, op, |root| {
            let pipeline = tracer.span("core.pipeline_new", root, op, |_| Pipeline::new(cfg));
            // Prepare: the public MD stage over the fresh texture stands in
            // for the private quench (same atoms, same step count).
            let (system, mut ferro) = tracer.span("qxmd.prepare", root, op, |_| {
                let mut stage = pipeline.supercell_md_stage(0.0);
                Engine::run(&mut stage, cfg.prepare_steps, &mut NullObserver);
                let (system, force) = stage.into_parts();
                (system, force.ferro)
            });
            let before = tracer.span("topo.analyze", root, op, |_| {
                let field = polarization_of(cfg.cells, &ferro, &system);
                let charge = TextureReport::analyze(&field).mean_charge;
                (field, charge)
            });
            // Pulse: the lit/dark pair as one batch, a span per MESH step.
            let mesh = tracer.span("core.mesh_batch", root, op, |batch| {
                let mut plan = RunPlan::new();
                for e0 in [cfg.pulse_e0, 0.0] {
                    let inner =
                        tracer.span("dcmesh.construct", batch, op, |_| pipeline.mesh_stage(e0));
                    plan.push(
                        TimedStepper {
                            inner,
                            tracer,
                            name: "dcmesh.step",
                            parent: batch,
                            op,
                        },
                        TraceObserver::every(),
                        cfg.mesh_steps,
                    );
                }
                plan.execute()
            });
            let lit = &mesh[0].observer.trace;
            let n_exc_peak = (peak_exc(lit) - peak_exc(&mesh[1].observer.trace)).max(0.0);
            let fraction = XnNnCoupling {
                domain_electrons: 4.0,
                supercell_cells: cfg.n_cells() as f64,
                gain: cfg.excitation_gain,
            }
            .cell_fraction(n_exc_peak);
            // Respond: MD steps, with the NN term and the texture samples
            // as child spans.
            let (trace, after) = tracer.span("qxmd.respond", root, op, |respond| {
                ferro.set_uniform_excitation(fraction);
                let network = cfg.respond_nn_batches.map(|n| {
                    NnForceField::with_batches(AllegroLite::new(RESPOND_MODEL, cfg.seed), n)
                });
                let force = ReplayForce {
                    ferro,
                    network,
                    tracer,
                    parent: respond,
                    op,
                };
                let mut stage = MdStage::new(
                    system,
                    force,
                    cfg.dt_fs,
                    Some(Langevin::new(1.0, 0.3)),
                    Xoshiro256::new(cfg.seed ^ 0x5eed),
                );
                let mut observer = SampleObserver {
                    stride: SampleStride::new(cfg.response_sample_stride),
                    cells: cfg.cells,
                    dt_fs: cfg.dt_fs,
                    trace: Vec::new(),
                    tracer,
                    parent: respond,
                    op,
                };
                Engine::run(&mut stage, cfg.response_steps, &mut observer);
                let after = polarization_of(cfg.cells, &stage.force().ferro, stage.system());
                (observer.trace, after)
            });
            let verdict = tracer.span("topo.compare", root, op, |_| compare(&before.0, &after));
            PipelineOutcome {
                initial_topological_charge: before.1,
                final_topological_charge: verdict.after.mean_charge,
                verdict,
                n_exc_peak,
                excitation_fraction: fraction,
                mesh_records: lit.clone(),
                response_trace: trace,
            }
        });
        (self.check)(&out)?;
        Ok(digest_of(&out))
    }

    fn prediction(&self) -> (&'static str, f64) {
        self.prediction
    }
}
