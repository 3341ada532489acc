//! `mesh_pulse` and `mesh_dist`: the DC-MESH driver as an in-process
//! `RunPlan` batch and as one rank-sharded domain inside `World::run` —
//! the same physics through two uses of the `dcmesh` layer, so a gain on
//! one path that costs the other shows.

use super::{cold_mesh_stage, Checked, Iteration, Prepared, TimedStepper};
use crate::digest::digest_of;
use crate::inputs::{Inputs, MESH_DIST_RANKS, MESH_DIST_STEPS};
use crate::spans::{SpanId, Tracer};
use mlmd::core::config::PipelineConfig;
use mlmd::core::engine::{RunPlan, TraceObserver};
use mlmd::core::pipeline::{Pipeline, PumpProbeRun};
use mlmd::dcmesh::dist_mesh::DistributedMeshDriver;
use mlmd::dcmesh::mesh::MeshStepRecord;
use mlmd::parallel::comm::{CollectiveRecord, World};

// ------------------------------------------------------------ mesh_pulse

struct MeshPulse {
    pipeline: Pipeline,
    amplitudes: [f64; 3],
}

fn check_sweep(runs: &[PumpProbeRun]) -> Checked {
    let peaks: Vec<f64> = runs.iter().map(|r| r.n_exc_peak).collect();
    if peaks[0] > 0.0 && peaks.windows(2).all(|w| w[0] <= w[1]) {
        Ok(())
    } else {
        Err(format!(
            "peaks not positive and ascending in amplitude: {peaks:?}"
        ))
    }
}

pub fn setup_pulse(inputs: &Inputs) -> Prepared {
    cold_mesh_stage(&inputs.mesh_pulse, inputs.sweep_amplitudes[0]);
    let pipeline = Pipeline::new(inputs.mesh_pulse);
    // A dark run must measure exactly zero above the dark reference. Two
    // steps suffice: the check is about the subtraction, not the length.
    let short = PipelineConfig {
        mesh_steps: 2,
        ..inputs.mesh_pulse
    };
    let dark = Pipeline::new(short).pump_probe_sweep(&[0.0]);
    let dark_zero = if dark[0].n_exc_peak == 0.0 {
        Ok(())
    } else {
        Err(format!(
            "dark run measured n_exc_peak {}",
            dark[0].n_exc_peak
        ))
    };
    Prepared {
        iteration: Box::new(MeshPulse {
            pipeline,
            amplitudes: inputs.sweep_amplitudes,
        }),
        setup_checks: vec![("dark_run_is_zero", dark_zero)],
    }
}

impl Iteration for MeshPulse {
    fn run(&mut self) -> Result<u64, String> {
        let runs = self.pipeline.pump_probe_sweep(&self.amplitudes);
        check_sweep(&runs)?;
        Ok(digest_of(&runs))
    }

    fn replay(&mut self, tracer: &Tracer, op: u32) -> Result<u64, String> {
        let n_steps = self.pipeline.config.mesh_steps;
        let runs = tracer.span("iteration", None, op, |root| {
            let traces = tracer.span("core.mesh_batch", root, op, |batch| {
                let mut plan = RunPlan::new();
                for e0 in self.amplitudes.into_iter().chain([0.0]) {
                    let inner = tracer.span("dcmesh.construct", batch, op, |_| {
                        self.pipeline.mesh_stage(e0)
                    });
                    plan.push(
                        TimedStepper {
                            inner,
                            tracer,
                            name: "dcmesh.step",
                            parent: batch,
                            op,
                        },
                        TraceObserver::every(),
                        n_steps,
                    );
                }
                plan.execute()
                    .into_iter()
                    .map(|run| run.observer.trace)
                    .collect()
            });
            tracer.span("core.sweep_runs", root, op, |_| {
                Pipeline::sweep_runs(&self.amplitudes, traces)
            })
        });
        check_sweep(&runs)?;
        Ok(digest_of(&runs))
    }

    fn prediction(&self) -> (&'static str, f64) {
        ("dcmesh.step", 0.8)
    }
}

// ------------------------------------------------------------- mesh_dist

struct MeshDist {
    pipeline: Pipeline,
    e0: f64,
    /// Digest of the serial in-process batch, computed in set-up.
    serial: u64,
}

fn check_against_serial(trace: &[MeshStepRecord], serial: u64) -> Result<u64, String> {
    let got = digest_of(trace);
    if trace.len() == MESH_DIST_STEPS && got == serial {
        Ok(got)
    } else {
        Err(format!(
            "distributed trace ({} steps, digest {got:#x}) is not bit-identical \
             to the serial batch ({MESH_DIST_STEPS} steps, digest {serial:#x})",
            trace.len()
        ))
    }
}

pub fn setup_dist(inputs: &Inputs) -> Prepared {
    let e0 = inputs.dist_amplitude;
    cold_mesh_stage(&inputs.mesh_dist, e0);
    let pipeline = Pipeline::new(inputs.mesh_dist);
    let serial_config = PipelineConfig {
        mesh_ranks_per_domain: None,
        ..inputs.mesh_dist
    };
    let reference = Pipeline::new(serial_config).mesh_batch(&[e0], MESH_DIST_STEPS);
    Prepared {
        iteration: Box::new(MeshDist {
            pipeline,
            e0,
            serial: digest_of(&reference[0]),
        }),
        setup_checks: Vec::new(),
    }
}

/// One rank-sharded domain stepped inside a probed world, a span around
/// every `DistributedMeshDriver::step` on every rank. Returns the domain
/// root's trace and the fabric's collective counters.
pub fn run_probed_domain(
    pipeline: &Pipeline,
    e0: f64,
    ranks: usize,
    n_steps: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
    op: u32,
) -> (Vec<MeshStepRecord>, Vec<CollectiveRecord>) {
    tracer.span("parallel.world_run", parent, op, |world_span| {
        let (mut traces, rows) = World::run_probed(ranks, |world| {
            let mut driver = tracer.span("dcmesh.dist_construct", world_span, op, |_| {
                DistributedMeshDriver::new(world, 1, |_| pipeline.mesh_stage_builder(e0))
            });
            (0..n_steps)
                .map(|_| tracer.span("dcmesh.dist_step", world_span, op, |_| driver.step()))
                .collect::<Vec<_>>()
        });
        (traces.swap_remove(0), rows)
    })
}

impl Iteration for MeshDist {
    fn run(&mut self) -> Result<u64, String> {
        let mut traces = self.pipeline.mesh_batch(&[self.e0], MESH_DIST_STEPS);
        check_against_serial(&traces.swap_remove(0), self.serial)
    }

    fn replay(&mut self, tracer: &Tracer, op: u32) -> Result<u64, String> {
        let trace = tracer.span("iteration", None, op, |root| {
            run_probed_domain(
                &self.pipeline,
                self.e0,
                MESH_DIST_RANKS,
                MESH_DIST_STEPS,
                tracer,
                root,
                op,
            )
            .0
        });
        check_against_serial(&trace, self.serial)
    }

    fn prediction(&self) -> (&'static str, f64) {
        ("dcmesh.dist_step", 0.8)
    }
}
