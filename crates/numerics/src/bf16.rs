//! Software brain-float-16 and the split-component decomposition behind the
//! MKL `float_to_BF16{,x2,x3}` compute modes (paper Secs. V.B.7 and VI.C).
//!
//! BF16 keeps the f32 exponent (8 bits) and truncates the mantissa to 7
//! bits. The "split" trick writes an f32 `x` as a sum of BF16 components
//! `x ≈ x₁ + x₂ + x₃` (each component capturing the residual of the previous
//! ones); products of BF16 values are exact in f32, so a GEMM over the
//! components with f32 accumulation recovers accuracy as more components are
//! kept: `BF16 < BF16x2 < BF16x3 ≈ FP32`. This module provides the scalar
//! type and split machinery; `cgemm::cgemm_c32_split` builds the matrix
//! kernel on top.

/// A 16-bit brain float stored as its raw bit pattern.
#[allow(non_camel_case_types)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct bf16(pub u16);

impl bf16 {
    pub const ZERO: bf16 = bf16(0);
    pub const ONE: bf16 = bf16(0x3F80);

    /// Convert from f32 with round-to-nearest-even (the hardware behaviour
    /// of XMX/AMX units, not plain truncation).
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        if x.is_nan() {
            // Quiet NaN, preserving the sign.
            return bf16(((bits >> 16) as u16) | 0x0040);
        }
        // Round to nearest even on the truncated 16 bits.
        let round_bit = 0x0000_8000u32;
        let lsb = (bits >> 16) & 1;
        let rounded = bits.wrapping_add(round_bit - 1 + lsb);
        bf16((rounded >> 16) as u16)
    }

    /// Widen back to f32 (exact: BF16 ⊂ F32).
    #[inline(always)]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Round-trip an f32 through BF16 (the "quantize" operation).
    #[inline(always)]
    pub fn quantize(x: f32) -> f32 {
        Self::from_f32(x).to_f32()
    }
}

impl From<f32> for bf16 {
    fn from(x: f32) -> Self {
        bf16::from_f32(x)
    }
}

impl From<bf16> for f32 {
    fn from(x: bf16) -> Self {
        x.to_f32()
    }
}

/// Number of BF16 components used to represent each f32 input of a GEMM.
///
/// Mirrors the oneMKL BLAS compute modes described in paper Sec. VI.C: the
/// library "internally converts single-precision input data to sums of 1, 2,
/// or 3 BF16 values" and multiplies the component matrices on the systolic
/// array with FP32 accumulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SplitMode {
    /// `float_to_BF16`: one component; fastest, least accurate.
    Bf16,
    /// `float_to_BF16x2`: two components, three component products.
    Bf16x2,
    /// `float_to_BF16x3`: three components, six component products;
    /// accuracy comparable to FP32.
    Bf16x3,
}

impl SplitMode {
    /// Number of split components per input value.
    #[inline]
    pub fn components(self) -> usize {
        match self {
            SplitMode::Bf16 => 1,
            SplitMode::Bf16x2 => 2,
            SplitMode::Bf16x3 => 3,
        }
    }

    /// Component-product pairs `(i, j)` retained: all with `i + j ≤ k + 1`
    /// (1-based), dropping the negligible high-order cross terms exactly as
    /// the MKL emulation does (1, 3, and 6 products respectively).
    pub fn product_pairs(self) -> &'static [(usize, usize)] {
        match self {
            SplitMode::Bf16 => &[(0, 0)],
            SplitMode::Bf16x2 => &[(0, 0), (0, 1), (1, 0)],
            SplitMode::Bf16x3 => &[(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)],
        }
    }

    /// Relative FLOP cost versus a plain FP32 GEMM (number of component
    /// products). Used by the exasim roofline projection.
    #[inline]
    pub fn product_count(self) -> usize {
        self.product_pairs().len()
    }
}

/// Decompose `x` into `n` BF16 components such that
/// `x ≈ Σ components[k]` with strictly decreasing magnitude.
#[inline]
pub fn split_f32(x: f32, n: usize) -> [f32; 3] {
    let mut out = [0.0f32; 3];
    let mut residual = x;
    for slot in out.iter_mut().take(n.min(3)) {
        let c = bf16::quantize(residual);
        *slot = c;
        residual -= c;
    }
    out
}

/// Split an entire slice into `n` component planes (structure-of-arrays:
/// `planes[k][i]` is the k-th component of `x[i]`). The planes hold the
/// BF16 values widened to f32, ready for exact f32 products.
pub fn split_slice(x: &[f32], n: usize) -> Vec<Vec<f32>> {
    let mut planes = vec![vec![0.0f32; x.len()]; n];
    for (i, &v) in x.iter().enumerate() {
        let c = split_f32(v, n);
        for (k, plane) in planes.iter_mut().enumerate() {
            plane[i] = c[k];
        }
    }
    planes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Max relative reconstruction error of the split representation
    /// over a slice.
    fn reconstruction_error(x: &[f32], n: usize) -> f64 {
        let mut worst = 0.0f64;
        for &v in x {
            let c = split_f32(v, n);
            let rec: f32 = c.iter().take(n).sum();
            let denom = v.abs().max(f32::MIN_POSITIVE) as f64;
            worst = worst.max(((v - rec).abs() as f64) / denom);
        }
        worst
    }

    #[test]
    fn exact_values_survive() {
        for &v in &[0.0f32, 1.0, -1.0, 0.5, 2.0, -0.25, 128.0] {
            assert_eq!(bf16::quantize(v), v, "{v} should be exactly representable");
        }
    }

    #[test]
    fn one_is_one() {
        assert_eq!(bf16::ONE.to_f32(), 1.0);
        assert_eq!(bf16::ZERO.to_f32(), 0.0);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between bf16(1.0) and the next
        // representable value; RNE keeps the even mantissa (1.0).
        let halfway = 1.0f32 + 2.0f32.powi(-8);
        assert_eq!(bf16::quantize(halfway), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0f32 + 2.0f32.powi(-8) + 2.0f32.powi(-12);
        assert!(bf16::quantize(above) > 1.0);
    }

    #[test]
    fn relative_error_bounded() {
        // BF16 has 8 mantissa bits (incl. implicit) → rel. error ≤ 2^-8.
        let mut x = 0.917_f32;
        for _ in 0..100 {
            let q = bf16::quantize(x);
            assert!(((q - x) / x).abs() <= 2.0f32.powi(-8), "x={x} q={q}");
            x *= 1.093;
        }
    }

    #[test]
    fn nan_and_inf() {
        assert!(bf16::quantize(f32::NAN).is_nan());
        assert_eq!(bf16::quantize(f32::INFINITY), f32::INFINITY);
        assert_eq!(bf16::quantize(f32::NEG_INFINITY), f32::NEG_INFINITY);
    }

    #[test]
    fn split_components_shrink() {
        let c = split_f32(0.333_333_34, 3);
        assert!(c[0].abs() > c[1].abs());
        assert!(c[1].abs() > c[2].abs() || c[2] == 0.0);
    }

    #[test]
    fn split_accuracy_ladder() {
        let xs: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.7193).sin() * 3.7).collect();
        let e1 = reconstruction_error(&xs, 1);
        let e2 = reconstruction_error(&xs, 2);
        let e3 = reconstruction_error(&xs, 3);
        assert!(e1 > e2, "x2 must beat x1: {e1} vs {e2}");
        assert!(e2 > e3, "x3 must beat x2: {e2} vs {e3}");
        // Three components capture ≥ 24 mantissa bits → f32-like accuracy.
        assert!(e3 < 1e-6, "x3 should be f32-accurate, got {e3}");
    }

    #[test]
    fn split_slice_layout() {
        let xs = [1.5f32, -2.25, 0.1];
        let planes = split_slice(&xs, 2);
        assert_eq!(planes.len(), 2);
        assert_eq!(planes[0].len(), 3);
        for i in 0..3 {
            let rec = planes[0][i] + planes[1][i];
            assert!(((xs[i] - rec) / xs[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn quantize_is_monotone() {
        // Round-to-nearest-even is order-preserving: x ≤ y ⇒ q(x) ≤ q(y).
        let mut xs: Vec<f32> = vec![
            f32::NEG_INFINITY,
            -3.4e38,
            -1.0,
            -1e-3,
            -1e-40,
            -0.0,
            0.0,
            1e-45,
            1e-40,
            f32::MIN_POSITIVE,
            1e-3,
            0.1,
            1.0,
            1.5,
            3.4e38,
            f32::INFINITY,
        ];
        for i in 0..1000 {
            xs.push((i as f32 - 500.0) * 0.037);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in xs.windows(2) {
            let (qa, qb) = (bf16::quantize(w[0]), bf16::quantize(w[1]));
            assert!(
                qa <= qb,
                "monotonicity violated: q({}) = {qa} > q({}) = {qb}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn nan_round_trip_is_quiet_and_sign_preserving() {
        let q = bf16::from_f32(f32::NAN);
        assert!(q.to_f32().is_nan());
        assert_ne!(q.0 & 0x0040, 0, "quiet bit must be set");
        let neg = bf16::from_f32(f32::from_bits(0xFFC0_0000));
        assert!(neg.to_f32().is_nan());
        assert!(neg.to_f32().is_sign_negative());
    }

    #[test]
    fn subnormals_round_trip_or_flush_to_signed_zero() {
        // A bf16-representable f32 subnormal survives the round trip exactly.
        let s = f32::from_bits(0x0001_0000);
        assert!(s.is_subnormal());
        assert_eq!(bf16::quantize(s).to_bits(), s.to_bits());
        // Subnormals below bf16 resolution flush to zero, keeping the sign.
        assert_eq!(
            bf16::quantize(f32::from_bits(1)).to_bits(),
            0.0f32.to_bits()
        );
        assert_eq!(
            bf16::quantize(f32::from_bits(0x8000_0001)).to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    fn product_pair_counts_match_mkl() {
        assert_eq!(SplitMode::Bf16.product_count(), 1);
        assert_eq!(SplitMode::Bf16x2.product_count(), 3);
        assert_eq!(SplitMode::Bf16x3.product_count(), 6);
    }
}
