//! # mlmd-numerics
//!
//! Numerical substrate for the MLMD (multiscale light-matter dynamics) stack.
//!
//! This crate is the stand-in for the vendor math libraries the paper builds
//! on (oneMKL BLAS, FFT libraries): everything above it — the LFD quantum
//! propagators, the Maxwell solver, the Allegro-lite network — is expressed
//! in terms of the primitives defined here.
//!
//! Contents:
//!
//! * [`complex`] — `Complex<T>` arithmetic (the `c64`/`c32` of the KS wave
//!   functions).
//! * [`codec`] — deterministic little-endian byte framing + FNV-1a
//!   hashing (the ground-state checkpoint serializer substrate).
//! * [`bf16`] — software brain-float-16 with round-to-nearest-even and the
//!   1/2/3-component split decomposition used by the MKL
//!   `float_to_BF16{,x2,x3}` compute modes (paper Sec. VI.C).
//! * [`matrix`] — dense column-major matrices.
//! * [`gemm`] — real GEMM kernels: naive / blocked / parallel, plus the
//!   mixed-precision split-BF16 modes with FP32 accumulation.
//! * [`cgemm`] — complex GEMM (the `nlp_prop` hotspot of Table V).
//! * [`fft`] — arbitrary-length 1-D/3-D complex FFT (radix-2 + Bluestein).
//! * [`grid`] — 3-D finite-difference grid descriptors.
//! * [`stencil`] — finite-difference operators (Laplacian, gradient).
//! * [`eigen`] — Jacobi eigensolvers (real symmetric, complex Hermitian).
//! * [`ortho`] — modified Gram–Schmidt orthonormalization.
//! * [`rng`] — deterministic counter-based RNG (SplitMix64, Xoshiro256**).
//! * [`vec3`] — 3-vectors for atomistic modules.
//! * [`stats`] — summary statistics and least-squares fits used by the
//!   benchmark harness (scaling exponents, TEA alignment).
//! * [`flops`] — floating-point-operation accounting (paper Sec. VI.B).

pub mod bf16;
pub mod cgemm;
pub mod codec;
pub mod complex;
pub mod eigen;
pub mod fft;
pub mod flops;
pub mod gemm;
pub mod grid;
pub mod matrix;
pub mod ortho;
pub mod rng;
pub mod stats;
pub mod stencil;
pub mod vec3;

/// Work size (elements touched, or `m·n·k` for a GEMM) below which a
/// kernel runs serially instead of dispatching to the thread pool: under
/// it, dispatch overhead dominates. The one threshold every pool-capable
/// kernel reads ([`gemm::gemm_parallel`], the QD local phase and the
/// Ehrenfest inner loop's block dispatch).
pub const PAR_THRESHOLD: usize = 32_768;

pub use bf16::SplitMode;
pub use complex::{c32, c64, Complex};
pub use grid::Grid3;
pub use matrix::Matrix;
pub use rng::{Rng64, SplitMix64, Xoshiro256};
pub use vec3::Vec3;
