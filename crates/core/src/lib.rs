//! # mlmd-core — the MLMD orchestrator
//!
//! The paper's top-level contribution: divide–conquer–recombine (DCR) and
//! metamodel-space algebra (MSA) gluing DC-MESH and XS-NNQMD into one
//! end-to-end multiscale light-matter dynamics pipeline (Fig. 1).
//!
//! * [`engine`] — the driver seam: the [`engine::Stepper`] contract every
//!   time-stepping loop satisfies, [`engine::Observer`] sampling with a
//!   configurable stride, and the [`engine::RunPlan`] batch runner that
//!   executes independent runs concurrently on the work-stealing pool.
//! * [`msa`] — the three MSA couplings as explicit, typed interfaces:
//!   MSA-1 shadow occupations (time axis), MSA-2 total-energy alignment
//!   (dataset axis), MSA-3 XN/NN force extrapolation (space axis).
//! * [`pipeline`] — the Fig. 3 workflow: GS-prepared skyrmion
//!   superlattice → DC-MESH femtosecond pulse → XS-NNQMD large-scale
//!   dynamics → topological-switching verdict, rebuilt as engine runs
//!   (the pump–probe pair executes as one [`engine::RunPlan`] batch).
//! * [`probe`] — [`probe::time_secs`], the closure wall-clock
//!   `mlmd-exasim`'s calibration harness fits its terms from.
//! * [`config`] — run configuration.

pub mod config;
pub mod engine;
pub mod msa;
pub mod pipeline;
pub mod probe;

pub use config::PipelineConfig;
pub use engine::{Engine, Observer, RunPlan, SampleStride, Stepper};
pub use pipeline::{Pipeline, PipelineOutcome};
