//! # mlmd-nnqmd — Excited-State Neural-Network Quantum Molecular Dynamics
//!
//! The XS-NNQMD module of MLMD (paper Secs. V.A.6–V.A.8, V.B.9): a
//! strictly-local equivariant neural-network potential in the spirit of
//! Allegro (ref \[36\]), trained on QXMD reference data, with
//!
//! * **Allegro-lite architecture** ([`model`]): per-edge radial Bessel
//!   features ([`basis`]) → species-pair scalar latents → an equivariant
//!   vector channel (sums of unit edge vectors with invariant weights) →
//!   invariant recombination → per-edge energies. Hand-written
//!   reverse-mode gradients give exact forces `F = −∇E` and parameter
//!   gradients (property-tested against finite differences).
//! * **Allegro-Legato training** ([`train`]): Adam plus sharpness-aware
//!   minimization (SAM, ref \[46\]) — the loss-landscape-flattening recipe
//!   that extends simulation time-to-failure (ref \[27\]).
//! * **Allegro-FM** ([`fm`], [`tea`]): multi-fidelity dataset unification
//!   by total-energy alignment (affine metamodel-space algebra, MSA type 2,
//!   ref \[49\]) and fine-tuning of a pretrained foundation model to the
//!   excited-state task.
//! * **XS/GS force mixing** ([`mix`]): paper Eq. (4),
//!   `F = (1−w)·F_GS + w·F_XS`, with `w` driven by the per-domain
//!   excitation count delivered by DC-MESH (MSA type 3).
//! * **Block model inference** ([`infer`]): the two-batch neighbor-list
//!   blocking of Sec. V.B.9 that caps device-memory footprint, around one
//!   per-centre kernel generic over precision — f64 over the reference
//!   parameters, or f32 over bf16-rounded ones
//!   ([`model::QuantizedModel`], Sec. VI.C) under a documented,
//!   property-tested force-accuracy envelope.
//! * **Cross-domain batched inference** ([`ensemble`], [`batch`]): one
//!   inference call per MD step serves every domain's force request.
//!   The lockstep driver ([`ensemble::NnMdEnsemble`]) runs serial
//!   multi-domain ensembles; the blocking rendezvous
//!   ([`batch::ForceBatch`]) for concurrent rank threads has no driver
//!   caller and is kept for the benchmark's dedup probe. Both are
//!   bit-identical per request to standalone evaluation.
//! * **Fidelity scaling** ([`failure`]): the time-to-failure harness
//!   reproducing `t_failure ∝ N^{−0.14}` (Legato) vs `N^{−0.29}` (plain).
//! * **MD force fields** ([`md`]): the network as a `ForceField` for
//!   `mlmd_qxmd`'s `MdStage` (the width-1 MD loop), serial or over
//!   simulated-MPI ranks.
//! * **Training-data generation** ([`gen`]): synthetic "NAQMD" reference
//!   frames labeled by the QXMD effective model, which stands in for
//!   first-principles NAQMD.

pub mod basis;
pub mod batch;
pub mod ensemble;
pub mod failure;
pub mod fm;
pub mod gen;
pub mod infer;
mod kernel;
pub mod md;
pub mod mix;
pub mod model;
pub mod tea;
pub mod train;

pub use batch::ForceBatch;
pub use ensemble::NnMdEnsemble;
pub use infer::{
    block_evaluate, block_evaluate_many, BlockEvalResult, ForceRequest, InferPrecision,
};
pub use md::{NnForceField, NnMdRecord};
pub use mix::XsGsModel;
pub use model::{AllegroLite, ModelConfig, QuantizedModel};
pub use train::{Adam, Dataset, Frame, SamConfig, Trainer};
