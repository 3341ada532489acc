//! # mlmd-dcmesh — Divide-and-Conquer Maxwell–Ehrenfest–Surface-Hopping
//!
//! The DC-MESH module of MLMD (paper Fig. 2): the first code to integrate
//! Ehrenfest dynamics (attosecond light-electron coupling), surface
//! hopping (femtosecond electron-atom coupling), and Maxwell's equations
//! in one divide-and-conquer framework.
//!
//! * [`domain`] — spatial DC decomposition: mutually-exclusive cores with
//!   periodic buffer layers (Fig. 2a, Sec. V.A.1); the "recombine" step
//!   reads only core values.
//! * [`scf`] — global–local self-consistent field: local orbitals refined
//!   per domain against a *global* KS potential solved by multigrid
//!   (the GSLF/GSLD solver split of Sec. V.A.2).
//! * [`ehrenfest`] — the N_QD-step inner loop of Eq. (2): split-operator
//!   QD steps under frozen Δv with the self-consistent time-reversible
//!   Hartree update of ref \[43\]. One loop, in column-block form over
//!   the domain's band group; [`ehrenfest::run_inner_loop`] is its
//!   one-block case.
//! * [`shadow`] — shadow dynamics (Sec. V.A.3): GPU-resident wave
//!   functions and potential (plain storage), CPU↔GPU handshake limited
//!   to Δv_loc (down) and Δf / n_exc / J (up), each crossing recorded on
//!   a transfer ledger so tests can assert the O(occupations) claim.
//! * [`mesh`] — the full MESH step driver: Maxwell field ↔ Ehrenfest
//!   electrons ↔ surface hopping ↔ QXMD atoms, with per-step
//!   topological-charge accumulation of the QM patch. The step is written
//!   once, over the domain's band group; one rank is the serial case. Its
//!   QXMD stage is the excitation-reshaped ferroelectric model alone.
//! * [`checkpoint`] — MESH ground-state checkpointing and warm starts:
//!   the converged pre-descent panel as a first-class, FNV-keyed artifact
//!   ([`checkpoint::GroundState`]) that can be cached in-process
//!   ([`checkpoint::GroundStateCache`]) or saved to a versioned,
//!   digest-protected binary file, so one descent serves every driver,
//!   rank, and sweep amplitude with the same configuration. The SCF
//!   drivers always start from the seeded random panel.
//! * [`dist`] / [`dist_mesh`] — the SCF and the MESH step driver sharded
//!   across simulated-MPI ranks (see below).
//! * [`fixture`] — the canonical laptop-scale problems every
//!   oracle-comparison surface builds (SCF two-domain fixture, MESH
//!   driver fixture).
//!
//! # Distributed vs. serial oracle
//!
//! | on ranks | on one rank | shared code | pinned by |
//! |---|---|---|---|
//! | [`dist::DistributedDcScf`] (one domain per rank group) | [`scf::DcScf`] (all domains on one rank; kept as the oracle) | [`scf::run_scf_loop`] and the whole local solve, [`scf::local_solve`], taking the domain communicator | `tests/dc_dist.rs` |
//! | [`dist_mesh::DistributedMeshDriver`] | [`mesh::MeshDriver`] | the whole step: one body, `MeshDriver::step_in`, and under it one Ehrenfest inner loop, both taking the domain communicator | `tests/mesh_dist.rs` |
//!
//! Each runs inside [`mlmd_parallel::comm::World::run`] with one
//! communicator per domain ([`mlmd_parallel::hier::Hierarchy::build`]).
//! Work that reads and writes a single orbital column — SCF descent and
//! subspace-Hamiltonian columns; MESH Ehrenfest propagation, current
//! terms, excitation terms, band energies — is sharded by
//! [`mlmd_parallel::hier::partition`] and recombined with `allgather_vec`
//! in band order. Orbital- and atom-coupling steps — Gram–Schmidt,
//! Rayleigh–Ritz, density mixing and the multigrid solve on the SCF side;
//! NACs, the hopping master equation, velocity Verlet, the shadow
//! handshake, and the per-step topological charge on the MESH side — run
//! redundantly on replicated inputs. World-level reductions (the SCF
//! density recombine and band-energy total; the MESH boundary E/J
//! exchange) carry exactly one non-zero contribution per domain, so the
//! left-fold over ranks reproduces the serial domain-loop order.
//!
//! No float sum is ever reordered, so trajectories at 2 and 4 ranks per
//! domain match one rank **bit-for-bit** — no tolerances anywhere in the
//! comparison suites. For MESH the one-rank case is the serial driver by
//! construction and there is no second inner loop: the suite checks the
//! one loop's invariance under the column partition, and golden digests
//! in [`ehrenfest`] pin it to the per-step loop it replaced.

pub mod checkpoint;
pub mod dist;
pub mod dist_mesh;
pub mod domain;
pub mod ehrenfest;
pub mod fixture;
pub mod mesh;
pub mod scf;
pub mod shadow;

pub use checkpoint::{GroundState, GroundStateCache, WarmStart, WarmStartPolicy};
pub use dist::DistributedDcScf;
pub use dist_mesh::{DistributedMeshDriver, MeshExchange};
pub use domain::{DomainDecomposition, DomainSpec};
pub use mesh::{MeshConfig, MeshDriver, MeshDriverBuilder};
pub use shadow::ShadowDomain;
