//! # mlmd-parallel
//!
//! The parallel-hardware substrate of MLMD: a thread-backed simulated MPI
//! (communicators, point-to-point messages, collectives, hierarchical
//! splits) and an explicit, byte-accounted host↔device transfer ledger.
//!
//! The paper's DC-MESH uses hierarchical MPI parallelization — "one MPI
//! communicator per domain, each handled by multiple MPI ranks through
//! hybrid band-space decomposition" (Sec. V.A.1) — and claims its shadow
//! dynamics makes CPU↔GPU traffic *O(occupation numbers)* rather than
//! *O(wave functions)* (Sec. V.A.3). Both properties are reproduced here in
//! a form that unit tests can assert:
//!
//! * [`comm`] — `World::run(n, |comm| …)` spawns ranks as threads;
//!   [`comm::Comm`] offers tag-matched `send`/`recv`, `barrier`,
//!   `allreduce`, `gather`/`allgather`/`allgather_vec`, `bcast`,
//!   `scatter`, and MPI_Comm_split-style [`comm::Comm::split`].
//!   Collective traffic lives in a reserved tag namespace
//!   ([`comm::COLLECTIVE_TAG_BIT`]). Each communicator owns one mailbox
//!   per rank, queued per (source, tag), and is reclaimed when its last
//!   handle drops. Every public collective is
//!   instrumented: the fabric keeps per-(communicator, op) counters
//!   ([`comm::OpStats`]: op count, payload bytes, wall time) that
//!   [`comm::Comm::collective_stats`] snapshots and
//!   [`comm::World::run_probed`] returns alongside the rank results —
//!   the measurement side of `mlmd-exasim`'s α/β calibration.
//! * [`hier`] — the domain / band-space hierarchy of DC-MESH.
//! * [`device`] — the [`device::TransferLedger`], on which
//!   `mlmd-dcmesh`'s shadow domain records every modeled PCIe crossing of
//!   its device-resident wave functions and potential.
//!
//! # Who runs on this substrate
//!
//! Both rank-distributed DC-MESH drivers in `mlmd-dcmesh` —
//! `DistributedDcScf` (the global–local SCF) and `DistributedMeshDriver`
//! (the Maxwell/Ehrenfest/hopping step loop) — are written against this
//! API exactly as the paper's Fortran/C++ is written against MPI, and
//! their oracle suites (`tests/dc_dist.rs`, `tests/mesh_dist.rs`) lean
//! on two comm-layer guarantees: collectives deliver contributions in
//! *rank order* (so a left-fold with one non-zero term per domain
//! reproduces a serial domain loop bit-for-bit), and `allgather_vec`
//! concatenates ragged per-rank blocks in rank order (so contiguous
//! band-range column blocks reassemble into a column-major panel with no
//! copy fix-up). The reclamation diagnostic
//! [`comm::Comm::fabric_live_comm_count`] exists so those suites can pin
//! non-growth across repeated driver build/run/drop cycles.

pub mod comm;
pub mod device;
pub mod hier;

pub use comm::{CollectiveOp, CollectiveRecord, Comm, OpStats, World};
pub use device::TransferLedger;
