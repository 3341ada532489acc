//! Complex arithmetic for KS wave functions and spectral methods.
//!
//! A minimal, `#[repr(C)]`, `Copy` complex type generic over `f32`/`f64`.
//! Layout matches the interleaved (re, im) convention of BLAS `c`/`z`
//! routines so slices of `Complex<T>` can be reinterpreted as `[T]` pairs.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point scalar abstraction (`f32` or `f64`).
pub trait Real:
    Copy
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Send
    + Sync
    + std::fmt::Debug
    + std::fmt::Display
    + 'static
{
    const ZERO: Self;
    const ONE: Self;
    const TWO: Self;
    const PI: Self;
    fn from_f64(x: f64) -> Self;
    fn to_f64(self) -> f64;
    fn abs(self) -> Self;
    fn sqrt(self) -> Self;
    fn sin(self) -> Self;
    fn cos(self) -> Self;
    fn exp(self) -> Self;
    fn hypot(self, other: Self) -> Self;
    fn atan2(self, other: Self) -> Self;
    fn mul_add(self, a: Self, b: Self) -> Self;
}

macro_rules! impl_real {
    ($t:ty, $pi:expr) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const TWO: Self = 2.0;
            const PI: Self = $pi;
            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn sin(self) -> Self {
                <$t>::sin(self)
            }
            #[inline(always)]
            fn cos(self) -> Self {
                <$t>::cos(self)
            }
            #[inline(always)]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline(always)]
            fn hypot(self, other: Self) -> Self {
                <$t>::hypot(self, other)
            }
            #[inline(always)]
            fn atan2(self, other: Self) -> Self {
                <$t>::atan2(self, other)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
        }
    };
}

impl_real!(f32, std::f32::consts::PI);
impl_real!(f64, std::f64::consts::PI);

/// A complex number `re + i·im`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Complex<T> {
    pub re: T,
    pub im: T,
}

/// Double-precision complex (BLAS `z`).
#[allow(non_camel_case_types)]
pub type c64 = Complex<f64>;
/// Single-precision complex (BLAS `c`).
#[allow(non_camel_case_types)]
pub type c32 = Complex<f32>;

impl<T: Real> Complex<T> {
    pub const fn new(re: T, im: T) -> Self {
        Self { re, im }
    }

    /// The additive identity.
    #[inline(always)]
    pub fn zero() -> Self {
        Self::new(T::ZERO, T::ZERO)
    }

    /// The multiplicative identity.
    #[inline(always)]
    pub fn one() -> Self {
        Self::new(T::ONE, T::ZERO)
    }

    /// The imaginary unit `i`.
    #[inline(always)]
    pub fn i() -> Self {
        Self::new(T::ZERO, T::ONE)
    }

    /// A purely real complex number.
    #[inline(always)]
    pub fn real(re: T) -> Self {
        Self::new(re, T::ZERO)
    }

    /// `e^{iθ}` — the phase factors of split-operator propagation.
    #[inline]
    pub fn cis(theta: T) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared modulus `|z|²` (no square root; the density kernel).
    #[inline(always)]
    pub fn norm_sqr(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> T {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle).
    #[inline]
    pub fn arg(self) -> T {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Self::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Multiply by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: T) -> Self {
        Self::new(self.re * s, self.im * s)
    }

    /// Fused multiply-add: `self + a*b`, keeping intermediate products in
    /// the scalar's native precision.
    #[inline(always)]
    pub fn mul_acc(self, a: Self, b: Self) -> Self {
        Self::new(
            self.re + a.re * b.re - a.im * b.im,
            self.im + a.re * b.im + a.im * b.re,
        )
    }

    /// Inverse `1/z`.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    /// Lossless-ish cast between precisions via f64.
    #[inline]
    pub fn cast<U: Real>(self) -> Complex<U> {
        Complex::new(U::from_f64(self.re.to_f64()), U::from_f64(self.im.to_f64()))
    }
}

impl<T: Real> Add for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<T: Real> Sub for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<T: Real> Mul for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl<T: Real> Div for Complex<T> {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w = z · w⁻¹ is the definition
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl<T: Real> Neg for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl<T: Real> AddAssign for Complex<T> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<T: Real> SubAssign for Complex<T> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<T: Real> MulAssign for Complex<T> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: Real> DivAssign for Complex<T> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<T: Real> Mul<T> for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: T) -> Self {
        self.scale(rhs)
    }
}

impl<T: Real> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

impl<T: Real> From<T> for Complex<T> {
    #[inline]
    fn from(re: T) -> Self {
        Self::real(re)
    }
}

impl<T: Real + std::fmt::Display> std::fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im < T::ZERO {
            write!(f, "{}-{}i", self.re, self.im.abs())
        } else {
            write!(f, "{}+{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: c64, b: c64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn arithmetic_identities() {
        let z = c64::new(3.0, -4.0);
        assert_eq!(z + c64::zero(), z);
        assert_eq!(z * c64::one(), z);
        assert!(close(z * z.inv(), c64::one(), 1e-14));
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
    }

    #[test]
    fn conjugation_and_modulus() {
        let z = c64::new(1.5, 2.5);
        assert!(close(z * z.conj(), c64::real(z.norm_sqr()), 1e-14));
        assert_eq!(z.conj().conj(), z);
    }

    #[test]
    fn euler_identity() {
        let z = c64::cis(std::f64::consts::PI);
        assert!(close(z, c64::real(-1.0), 1e-15));
    }

    #[test]
    fn cis_is_unit_modulus() {
        for k in 0..100 {
            let theta = 0.0628 * k as f64;
            assert!((c64::cis(theta).abs() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn exp_of_sum_is_product() {
        let a = c64::new(0.3, 1.2);
        let b = c64::new(-0.1, 0.4);
        assert!(close((a + b).exp(), a.exp() * b.exp(), 1e-12));
    }

    #[test]
    fn mul_acc_matches_expanded() {
        let c = c64::new(1.0, 1.0);
        let a = c64::new(0.5, -0.25);
        let b = c64::new(2.0, 3.0);
        assert!(close(c.mul_acc(a, b), c + a * b, 1e-15));
    }

    #[test]
    fn division() {
        let a = c64::new(4.0, 2.0);
        let b = c64::new(1.0, -1.0);
        assert!(close(a / b * b, a, 1e-14));
    }

    #[test]
    fn precision_cast() {
        let z = c64::new(0.1, 0.2);
        let w: c32 = z.cast();
        assert!((w.re - 0.1f32).abs() < 1e-7);
        let back: c64 = w.cast();
        assert!((back.re - 0.1).abs() < 1e-7);
    }

    #[test]
    fn sum_iterator() {
        let v = vec![c64::new(1.0, 2.0); 10];
        let s: c64 = v.into_iter().sum();
        assert_eq!(s, c64::new(10.0, 20.0));
    }
}
