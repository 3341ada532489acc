//! # MLMD — Multiscale Light-Matter Dynamics
//!
//! Facade crate re-exporting the whole MLMD stack: a from-scratch Rust
//! reproduction of "Multiscale light-matter dynamics in quantum materials:
//! from electrons to topological superlattices" (SC 2025).
//!
//! The two modules of the paper's MLMD software:
//!
//! * **DC-MESH** ([`dcmesh`]) — divide-and-conquer
//!   Maxwell–Ehrenfest–surface-hopping quantum molecular dynamics, built on
//!   [`lfd`] (electron dynamics), [`maxwell`] (light), and [`qxmd`] (atoms).
//! * **XS-NNQMD** ([`nnqmd`]) — excited-state neural-network quantum MD
//!   with Allegro-lite equivariant potentials.
//!
//! plus [`topo`] (topological superlattice analysis), [`floquet`]
//! (periodic-drive workloads: Gaussian and CW sources, streaming
//! Floquet spectra, superlattice invariant sweeps), [`exasim`] (the
//! simulated-Aurora performance model behind the scaling figures),
//! [`core`] (the DCR/MSA orchestration pipeline of Fig. 3), and
//! [`service`] (the multi-tenant job service: bounded priority queue,
//! cross-request dedup, cooperative cancellation, streamed progress).
//!
//! ## Quickstart
//!
//! ```no_run
//! use mlmd::core::config::PipelineConfig;
//! use mlmd::core::pipeline::Pipeline;
//!
//! let config = PipelineConfig::small_demo();
//! let mut pipeline = Pipeline::new(config);
//! let outcome = pipeline.run();
//! println!("topological charge: {} -> {}",
//!          outcome.initial_topological_charge,
//!          outcome.final_topological_charge);
//! ```

pub use mlmd_core as core;
pub use mlmd_dcmesh as dcmesh;
pub use mlmd_exasim as exasim;
pub use mlmd_floquet as floquet;
pub use mlmd_lfd as lfd;
pub use mlmd_maxwell as maxwell;
pub use mlmd_nnqmd as nnqmd;
pub use mlmd_numerics as numerics;
pub use mlmd_parallel as parallel;
pub use mlmd_qxmd as qxmd;
pub use mlmd_service as service;
pub use mlmd_topo as topo;
