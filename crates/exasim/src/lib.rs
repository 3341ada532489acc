//! # mlmd-exasim — the simulated exascale substrate
//!
//! The paper's scaling experiments ran on 10,000 Aurora nodes (120,000
//! PVC tiles). This crate substitutes for that hardware: a
//! deterministic analytic cost model of the MLMD workloads on an
//! Aurora-like machine, built from
//!
//! * a machine description ([`machine`]): per-tile rooflines for
//!   FP64/FP32/BF16-systolic, HBM and PCIe bandwidths, and a Slingshot-
//!   style α–β network with a dragonfly congestion factor;
//! * workload decompositions that mirror the real code: the DC-MESH step
//!   cost ([`dcmesh_model`]) counts the same kin_prop/nlp_prop/vloc FLOPs
//!   the `mlmd-lfd` kernels count, plus SCF-tree, halo, and
//!   excitation-gather communication; the XS-NNQMD step cost
//!   ([`nnqmd_model`]) counts per-atom×weight inference work plus
//!   surface-halo exchange;
//! * experiment drivers ([`scaling`]) reproducing the weak/strong sweeps
//!   of Figs. 4 and 5, and the time-to-solution comparisons of
//!   Tables I and II ([`sota`]).
//!
//! The analytic side ([`machine`], [`dcmesh_model`], [`nnqmd_model`],
//! [`scaling`], [`sota`]) is pure arithmetic: no randomness, no wall
//! clock — the same inputs always print the same tables.
//!
//! # The measured side: calibration and planning
//!
//! The FLOP counts mirror the instrumented kernels (`mlmd-numerics`
//! `FlopCounter` totals through the LFD propagators), and the
//! communication terms are shaped after the *measured* collective
//! patterns of the distributed drivers. Since PR 8 the loop is closed in
//! code, not only in shape:
//!
//! * [`calibrate()`](calibrate::calibrate) runs short probe workloads on the canonical fixture
//!   (via `mlmd_parallel::comm::World::run_probed` collective counters
//!   and `mlmd_core::probe::time_secs` over whole engine runs) and fits
//!   a [`calibrate::Calibration`]: α/β, the MESH per-step time,
//!   cold/warm construction, per-atom MD and per-cell FDTD costs.
//!   [`Machine::from_calibration`] turns a fit into a container machine
//!   profile alongside the analytic [`Machine::aurora`].
//! * [`planner`] applies the calibrated model to a job's workload shape:
//!   [`planner::Planner::plan`] predicts the wall-clock and queue cost
//!   of running it as an in-process batch — the one form the service
//!   executes — and returns a [`planner::Prediction`] plus a
//!   [`planner::PlanVerdict`] — what `mlmd-service` consults at
//!   admission.

pub mod calibrate;
pub mod dcmesh_model;
pub mod machine;
pub mod network;
pub mod nnqmd_model;
pub mod planner;
pub mod scaling;
pub mod sota;

pub use calibrate::{calibrate, Calibration, CalibrationConfig};
pub use machine::Machine;
pub use planner::{PlanJob, PlanLimits, PlanVerdict, Planner, RejectReason};
