//! Dense column-major matrices.
//!
//! Column-major layout matches BLAS conventions and — more importantly for
//! this codebase — the wave-function matrix Ψ of paper Sec. V.B.5, whose
//! columns are KS orbitals on `Ngrid` grid points. `nlp_prop` GEMMs then map
//! directly onto contiguous column panels.

use crate::complex::{Complex, Real};

/// Element types a dense matrix / GEMM kernel can hold: real or complex.
pub trait Scalar:
    Copy
    + PartialEq
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + Send
    + Sync
    + std::fmt::Debug
    + 'static
{
    fn zero() -> Self;
    fn one() -> Self;
    /// Complex conjugate (identity for real scalars).
    fn conj(self) -> Self;
    /// Squared modulus as f64 (for norms and error measures).
    fn abs_sqr(self) -> f64;
    /// FLOPs of one multiply-accumulate of this type (2 real, 8 complex).
    const MAC_FLOPS: u64;
}

impl Scalar for f32 {
    #[inline(always)]
    fn zero() -> Self {
        0.0
    }
    #[inline(always)]
    fn one() -> Self {
        1.0
    }
    #[inline(always)]
    fn conj(self) -> Self {
        self
    }
    #[inline(always)]
    fn abs_sqr(self) -> f64 {
        (self * self) as f64
    }
    const MAC_FLOPS: u64 = 2;
}

impl Scalar for f64 {
    #[inline(always)]
    fn zero() -> Self {
        0.0
    }
    #[inline(always)]
    fn one() -> Self {
        1.0
    }
    #[inline(always)]
    fn conj(self) -> Self {
        self
    }
    #[inline(always)]
    fn abs_sqr(self) -> f64 {
        self * self
    }
    const MAC_FLOPS: u64 = 2;
}

impl<T: Real> Scalar for Complex<T> {
    #[inline(always)]
    fn zero() -> Self {
        Complex::zero()
    }
    #[inline(always)]
    fn one() -> Self {
        Complex::one()
    }
    #[inline(always)]
    fn conj(self) -> Self {
        Complex::conj(self)
    }
    #[inline(always)]
    fn abs_sqr(self) -> f64 {
        self.norm_sqr().to_f64()
    }
    const MAC_FLOPS: u64 = 8;
}

/// Dense column-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix<T> {
    data: Vec<T>,
    rows: usize,
    cols: usize,
}

impl<T: Scalar> Matrix<T> {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![T::zero(); rows * cols],
            rows,
            cols,
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { data, rows, cols }
    }

    /// Wrap an existing column-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Self { data, rows, cols }
    }

    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Column `j` as a contiguous slice (an orbital, for Ψ matrices).
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[T] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Plain transpose.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Hermitian (conjugate) transpose.
    pub fn conj_transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x.abs_sqr()).sum::<f64>().sqrt()
    }

    /// Max |a_ij − b_ij| (as modulus), for kernel-vs-reference testing.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs_sqr().sqrt())
            .fold(0.0, f64::max)
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[j * self.rows + i]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.rows + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn shape_and_indexing() {
        let mut m = Matrix::<f64>::zeros(3, 2);
        m[(2, 1)] = 5.0;
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(2, 1)], 5.0);
        assert_eq!(m.as_slice()[5], 5.0); // col-major: last element
    }

    #[test]
    fn from_fn_column_major_layout() {
        let m = Matrix::from_fn(2, 2, |i, j| (10 * i + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn conj_transpose_conjugates() {
        let m = Matrix::from_fn(2, 2, |i, j| c64::new(i as f64, j as f64));
        let h = m.conj_transpose();
        assert_eq!(h[(1, 0)], c64::new(0.0, -1.0));
        assert_eq!(h[(0, 1)], c64::new(1.0, 0.0));
    }

    #[test]
    fn frobenius() {
        let m = Matrix::from_vec(2, 1, vec![3.0f64, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn columns_are_contiguous() {
        let m = Matrix::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        assert_eq!(m.col(1), &[10.0, 11.0, 12.0]);
    }
}
