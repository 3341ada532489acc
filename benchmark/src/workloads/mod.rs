//! The six workloads. Five are *iteration* workloads — one iteration is
//! one complete solution, repeated for the run's duration — and share the
//! [`Iteration`] interface; `service_mix` is a closed-loop job stream and
//! lives in [`service`].

pub mod ensemble;
pub mod mesh;
pub mod pipeline_run;
pub mod service;

use crate::inputs::Inputs;
use crate::spans::{SpanId, Tracer};
use mlmd::core::config::PipelineConfig;
use mlmd::core::engine::Stepper;
use mlmd::core::pipeline::Pipeline;
use mlmd::dcmesh::WarmStartPolicy;

/// Workload names, in the order `run.sh` runs them.
pub const NAMES: [&str; 6] = [
    "switching_e2e",
    "mesh_pulse",
    "mesh_dist",
    "nn_response_f64",
    "nn_ensemble_bf16",
    "service_mix",
];

/// One output check: what was checked and, when it failed, what was seen.
pub type Checked = Result<(), String>;

/// An iteration workload after set-up.
pub trait Iteration {
    /// One complete solution through the program's own entry point, with
    /// its output checks. `Ok` carries the digest of the returned records.
    fn run(&mut self) -> Result<u64, String>;

    /// The same solution replayed through the public functions the entry
    /// point is built from, with a span around each call into a layer.
    /// With a disabled tracer this is the untraced twin that
    /// `core.trace_overhead_frac` compares against.
    fn replay(&mut self, tracer: &Tracer, op: u32) -> Result<u64, String>;

    /// The interaction prediction written down before measuring: the span
    /// name that should dominate an iteration, and its least share.
    fn prediction(&self) -> (&'static str, f64);
}

/// Set-up results: the ready workload and the checks set-up itself made.
pub struct Prepared {
    pub iteration: Box<dyn Iteration>,
    pub setup_checks: Vec<(&'static str, Checked)>,
}

/// Set up the named iteration workload from the generated inputs.
pub fn setup(name: &str, inputs: &Inputs) -> Prepared {
    match name {
        "switching_e2e" => pipeline_run::setup_switching(inputs),
        "nn_response_f64" => pipeline_run::setup_nn_response(inputs),
        "mesh_pulse" => mesh::setup_pulse(inputs),
        "mesh_dist" => mesh::setup_dist(inputs),
        "nn_ensemble_bf16" => ensemble::setup(inputs),
        other => panic!("{other} is not an iteration workload"),
    }
}

/// Build one MESH driver with a fresh ground-state descent, bypassing the
/// process cache: the one-time cost a process pays before its first
/// solution. Set-up calls this so that repeating set-up repeats the
/// descent; the first measured operation then fills the real cache.
pub fn cold_mesh_stage(config: &PipelineConfig, e0: f64) {
    let cold = PipelineConfig {
        mesh_warm_start: WarmStartPolicy::Fresh,
        ..*config
    };
    std::hint::black_box(Pipeline::new(cold).mesh_stage(e0));
}

/// A stepper with a span around every `step` call — the benchmark-side
/// boundary of a driver layer.
pub struct TimedStepper<'a, S> {
    pub inner: S,
    pub tracer: &'a Tracer,
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub op: u32,
}

impl<S: Stepper> Stepper for TimedStepper<'_, S> {
    type Record = S::Record;

    fn step(&mut self) -> S::Record {
        let start = self.tracer.now_ns();
        let record = self.inner.step();
        self.tracer
            .record(self.name, self.parent, self.op, start, self.tracer.now_ns());
        record
    }

    fn time_fs(&self) -> f64 {
        self.inner.time_fs()
    }
}
