//! # mlmd-qxmd — Quantum eXcitation Molecular Dynamics
//!
//! The "CPU side" of DC-MESH (paper Fig. 2b): atoms, forces, integrators,
//! and the electron–atom coupling machinery (nonadiabatic couplings and
//! surface hopping) that drives longer-time structural response.
//!
//! The PbTiO3 substrate is an *effective ferroelectric lattice model*,
//! standing in for first-principles QXMD forces: a double-well energy on
//! the Ti off-centering vector `u` with ferroelectric nearest-neighbour
//! coupling, plus harmonic tethers holding the Pb/O cage — the minimal
//! Hamiltonian that hosts polar topological textures. Photoexcitation
//! flattens the double well proportionally to the excitation density
//! (the mechanism established in ref \[11\]), which is what makes
//! light-induced switching possible.
//!
//! * [`atoms`] — the atomistic system state (positions, velocities,
//!   forces, species, periodic box).
//! * [`perovskite`] — PbTiO3 supercell builder with polar displacement
//!   textures.
//! * [`neighbor`] — O(N) cell-list neighbor search (for the NNQMD
//!   descriptors).
//! * [`ferro`] — the ferroelectric double-well model, ground and excited
//!   state variants.
//! * [`integrator`] — velocity Verlet NVE driver over a [`ForceField`].
//! * [`md_stage`] — self-contained MD stage (integrator + thermostat +
//!   RNG stream) in the no-argument driver shape the engine layer steps.
//! * [`thermostat`] — the Langevin thermostat.
//! * [`nac`] — nonadiabatic couplings from orbital overlaps.
//! * [`hopping`] — surface hopping as occupation kinetics (master
//!   equation with detailed balance), the `Û_SH` of paper Eq. (2).
//!
//! # Determinism contract
//!
//! Every propagator here is deterministic in its inputs — the
//! [`nac::NacMatrix`] overlaps, the [`hopping::SurfaceHopping`] master
//! equation (no stochastic hops: occupation kinetics, not trajectory
//! branching), velocity Verlet, and the [`ferro::FerroModel`] forces —
//! and [`md_stage::MdStage`] owns its RNG stream rather than sharing
//! global state. That is what lets the DC-MESH drivers run these exact
//! kernels *redundantly on every rank* of a simulated-MPI domain group
//! and stay bit-identical to the serial oracle (`tests/mesh_dist.rs`),
//! and what lets `RunPlan` batches reproduce sequential trajectories
//! regardless of pool width (`tests/engine_pipeline.rs`).

pub mod atoms;
pub mod ferro;
pub mod hopping;
pub mod integrator;
pub mod md_stage;
pub mod nac;
pub mod neighbor;
pub mod perovskite;
pub mod thermostat;

pub use atoms::{AtomsSystem, Species};
pub use ferro::FerroModel;
pub use integrator::{ForceField, VelocityVerlet};
pub use md_stage::{MdRecord, MdStage};
pub use perovskite::PerovskiteLattice;
