//! # mlmd-lfd — Local Field Dynamics
//!
//! The "GPU side" of DC-MESH (paper Fig. 2b): quantum dynamics of electrons
//! on a real-space finite-difference grid under a laser field, implementing
//! the time evolution of Eq. (2):
//!
//! ```text
//! |ψ_s(t+Δt_MD)⟩ = Π_n  exp(−i Δt_QD/ħ · ĥ_loc(t_n))  ⊗  nonlocal correction
//! ```
//!
//! * [`wavefunction`] — KS orbital panels on a [`mlmd_numerics::Grid3`],
//!   grid-major for GEMM and orbital-fastest SoA for stencils (Sec. V.B.2).
//! * [`kin_prop`] — the local kinetic propagator: block-diagonal
//!   split-operator (ref \[41\]) with Peierls-phase vector-potential coupling,
//!   in the four optimization tiers of Table III (baseline / data-loop
//!   reordering / blocking-tiling / hierarchical parallel).
//! * [`nlp_prop`] — GEMMified nonlocal correction: paper Eq. (5) projector
//!   form and Kleinman–Bylander separable pseudopotentials, with
//!   parameterized FP64/FP32/BF16-split precision (Secs. V.B.5, V.B.7).
//! * [`hartree`] — Poisson solvers: spectral FFT and geometric multigrid
//!   ("globally sparse" tier of GSLF, Sec. V.A.2).
//! * [`xc`] — LDA (Slater) exchange.
//! * [`density`] / [`current`] — occupation-weighted density and TDCDFT
//!   macroscopic current (feeds Maxwell's equations, Sec. V.B.5).
//! * [`occupation`] — occupation numbers `f_s ∈ \[0,1\]`, the small-dynamic-
//!   range handshake payload of shadow dynamics (Sec. V.A.3).
//! * [`potential`] — the ionic pseudo-wells of the local potential.
//! * [`propagator`] — the full split-operator QD step and the
//!   self-consistent time-reversible loop (ref \[43\]).

pub mod current;
pub mod density;
pub mod hartree;
pub mod kin_prop;
pub mod nlp_prop;
pub mod occupation;
pub mod potential;
pub mod propagator;
pub mod wavefunction;
pub mod xc;

pub use kin_prop::{KinImpl, KinProp};
pub use nlp_prop::{NlpPrecision, NlpProp};
pub use occupation::Occupations;
pub use propagator::QdStep;
pub use wavefunction::WaveFunctions;
