//! # mlmd-maxwell
//!
//! Light: Maxwell's equations for the MLMD stack (paper refs \[7, 8, 25\]).
//!
//! The multiscale Maxwell+TDDFT method (as in SALMON, ref \[25\]) treats light
//! on a *macroscopic* 1-D grid whose cells are far larger than a DC domain:
//! each macro-cell holds a piece of matter described microscopically, the
//! field hands the local vector potential `A(t)` down to the electron
//! dynamics, and the matter hands the macroscopic current `J(t)` back into
//! Ampère's law. That is precisely the `A_X(α)(t)` coupling of paper
//! Eq. (3).
//!
//! * [`yee1d`] — 1-D staggered Yee FDTD with Mur absorbing boundaries.
//! * [`source`] — Gaussian-envelope laser pulses and CW drives.
//! * [`multiscale`] — the macro-cell ↔ DC-domain coupling loop.
//! * [`driver`] — the self-driving Yee wrapper (solver + source + Ohmic
//!   response) in the no-argument stepper shape the engine layer runs.
//! * [`units`] — atomic-unit conversions for fields and intensities.
//!
//! # How the rest of the stack consumes light
//!
//! [`source::GaussianPulse`] is the field every MESH driver closes over:
//! the serial `MeshDriver` and the rank-distributed
//! `DistributedMeshDriver` (in `mlmd-dcmesh`) evaluate `E(t)` pointwise
//! inside the Ehrenfest inner loop and integrate the velocity-gauge
//! vector potential `A(t)` from it, while the matter side returns the
//! macroscopic current `J(t)` — the quantity the distributed driver's
//! per-step boundary E/J exchange publishes across domains, and the
//! quantity a [`multiscale`] macro-cell feeds back into Ampère's law.
//! [`driver::PulsedYee`] implements the engine layer's `Stepper`
//! contract, so FDTD runs batch under the same `RunPlan` machinery as
//! the MD drivers (see `docs/ARCHITECTURE.md`). Everything here is
//! deterministic pure arithmetic: the same pulse parameters always
//! produce bit-identical field histories, which is what lets the oracle
//! suites pin whole light-matter trajectories with zero tolerance.

pub mod driver;
pub mod multiscale;
pub mod source;
pub mod units;
pub mod yee1d;

pub use driver::PulsedYee;
pub use multiscale::MultiscaleMaxwell;
pub use source::GaussianPulse;
pub use yee1d::Yee1d;
