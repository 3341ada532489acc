//! # mlmd-bench — the measurement harness
//!
//! Regenerates every table and figure of the paper's evaluation; this
//! table is the experiment index:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I — Maxwell–Ehrenfest time-to-solution vs SOTA |
//! | `table2` | Table II — XS-NNQMD time-to-solution vs SOTA |
//! | `table3` | Table III — kin_prop optimization ladder (measured on this host) |
//! | `table4` | Table IV — DC-MESH FLOP/s vs problem size and precision |
//! | `table5` | Table V — hotspot-kernel FLOP/s |
//! | `fig4` | Fig. 4 — DC-MESH weak/strong scaling |
//! | `fig5` | Fig. 5 — XS-NNQMD weak/strong scaling |
//! | `fidelity` | ref \[27\] — t_failure ∝ N^(−0.14/−0.29) fidelity scaling |
//!
//! Host-measured numbers (Tables III–V) report this machine's wall-clock
//! and GFLOP/s — the paper's *shape* (who wins, by what factor) is the
//! reproduction target, not Aurora's absolute TFLOP/s. Model-projected
//! numbers (Tables I–II, Figs. 4–5) come from `mlmd-exasim` and are
//! deterministic. The host-timing gates (blocked vs naive GEMM, Floquet
//! observer overhead, the Table III ladder) are `tests/host_gates.rs`,
//! asserted in release builds; regression numbers live in `benchmark/`.

pub mod hostinfo;
pub mod tables;

pub use tables::*;
