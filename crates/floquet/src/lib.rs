//! # mlmd-floquet — periodically driven workloads
//!
//! The paper's endgame is light-driven topological superlattices; this
//! crate turns periodic driving into a first-class workload class on
//! top of the engine layer (PAPERS.md: Midya & Feng's topological
//! multiband photonic superlattices for the lattice, and the
//! cavity-QED anomalous-Floquet analysis shape — drive periodically,
//! Fourier-transform the dynamics, extract invariants per band).
//!
//! Three modules, one per seam:
//!
//! * [`drive`] — the periodic drive source [`drive::CwDrive`], unified
//!   with [`drive::GaussianPulse`] under the [`drive::Drive`] enum
//!   (re-exported from `mlmd_maxwell::source`, where the steppers
//!   consume them), plus Floquet bookkeeping helpers (drive period,
//!   steps per period).
//! * [`spectral`] — [`spectral::FloquetObserver`], a streaming windowed
//!   DFT on the `mlmd_core::engine::Observer` seam: harmonic bins and a
//!   stroboscopic sub-trace accumulated during the run, no post-hoc
//!   trace storage.
//! * [`sweep`] — [`sweep::SuperlatticeSweep`], a geometry scan over
//!   SSH-dimer superlattices under a fixed drive, executed as one
//!   cancellable `RunPlan` batch, yielding per-configuration quantized
//!   charge, edge-state localization score, and Floquet spectrum.
//!
//! The service layer (`mlmd-service`) exposes the sweep as
//! `JobSpec::FloquetSweep`, with planner-costed admission.

pub mod drive;
pub mod spectral;
pub mod sweep;

pub use drive::{CwDrive, Drive, GaussianPulse};
pub use spectral::{FloquetObserver, FloquetSpectrum, HarmonicBin, Window};
pub use sweep::{DimerConfig, SuperlatticeSweep, SweepPoint};
