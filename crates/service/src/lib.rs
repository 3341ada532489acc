//! # mlmd-service — simulation as a service
//!
//! The paper's end state is an exascale pipeline serving many concurrent
//! light-matter workloads; the ROADMAP north star is heavy multi-client
//! traffic. This crate is that layer: a persistent, multi-tenant job
//! service over the engine seam (`mlmd_core::engine`), so N clients
//! submitting pump–probe sweeps, MESH runs, MD relaxations, FDTD
//! pulses, and Floquet superlattice sweeps share one process, one
//! work-stealing pool, and one ground-state
//! cache — instead of each owning a blocking `Pipeline` call.
//!
//! The pieces, bottom-up:
//!
//! * [`job::JobSpec`] — the workload vocabulary. Each variant is a
//!   `Pipeline`/engine workload re-expressed as data, with a canonical
//!   [`job::JobSpec::dedup_key`] that folds in the ground-state config
//!   hash (`mlmd_dcmesh::checkpoint::ground_state_key` via the builder
//!   seam), so "same material, same measurement" is decidable before any
//!   work runs.
//! * [`progress::ProgressObserver`] — structured progress streaming on
//!   the `Observer` seam: wraps any inner observer and emits
//!   [`progress::JobEvent`]s over `std::sync::mpsc` channels at a
//!   configurable stride.
//! * [`scheduler::Scheduler`] — the service itself: a bounded
//!   priority/fairness queue (admission control + backpressure) feeding
//!   worker threads that execute jobs on the shared work-stealing pool,
//!   cross-request deduplication (identical in-flight jobs coalesce into
//!   one execution), and cooperative cancellation of both queued and
//!   running jobs through `mlmd_core::engine::CancelToken`. With a
//!   calibrated `mlmd_exasim::planner::Planner` configured
//!   ([`scheduler::ServiceConfig::planner`]), admission additionally
//!   costs every job ahead of time: oversized jobs are refused with
//!   [`scheduler::SubmitError::PlanRejected`], long jobs are demoted to
//!   the batch band, and the metrics report predicted-vs-actual
//!   wall-clock.
//!
//! The service under load is measured by `benchmark/`'s `service_mix`
//! workload (closed-loop mixed jobs; the `service.*` layer metrics),
//! which drives the public [`Scheduler`] API like any client.
//!
//! Two layers of deduplication compose here: *identical* jobs share one
//! execution (the scheduler's dedup groups), while merely
//! *similar* jobs — e.g. sweeps of the same material at different
//! amplitudes — still share the expensive eigenstate descent through the
//! process-wide `GroundStateCache` (the pulse does not enter the
//! ground-state key).

pub mod job;
pub mod progress;
pub mod scheduler;

pub use job::{JobOutput, JobResult, JobSpec, Priority};
pub use progress::{JobEvent, JobId, ProgressObserver};
pub use scheduler::{JobHandle, JobStatus, Scheduler, ServiceConfig, SubmitError};
