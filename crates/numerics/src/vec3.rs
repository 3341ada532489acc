//! 3-vectors for the atomistic modules (positions, velocities, forces,
//! polarizations, electromagnetic field components).

use std::iter::Sum;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A 3-component f64 vector.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    pub const EX: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    pub const EY: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    pub const EZ: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    #[inline(always)]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self::new(v, v, v)
    }

    #[inline(always)]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline(always)]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.dot(self)
    }

    #[inline(always)]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Unit vector; zero vector maps to zero (callers guard physics).
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n > 0.0 {
            self / n
        } else {
            Vec3::ZERO
        }
    }

    /// Component-wise minimum-image wrap into a periodic box of lengths `l`:
    /// `x − l·round(x/l)` per component, to the bit.
    ///
    /// A component with |x| < 0.49·l (l finite) is already inside the half
    /// box: `round` gives ±0 there, so the formula returns `x + 0.0` (which
    /// maps −0 to +0). That case skips the division and the `round`, which
    /// on baseline x86-64 (no SSE4.1) is an out-of-line call; the tethers,
    /// `displacement_field` and most neighbour candidates take it.
    #[inline]
    pub fn min_image(self, l: Vec3) -> Vec3 {
        #[inline(always)]
        fn wrap(x: f64, l: f64) -> f64 {
            if x.abs() < 0.49 * l && l.is_finite() {
                x + 0.0
            } else {
                x - l * (x / l).round()
            }
        }
        Vec3::new(wrap(self.x, l.x), wrap(self.y, l.y), wrap(self.z, l.z))
    }

    /// Wrap a position into [0, L) per component.
    #[inline]
    pub fn wrap_into(self, l: Vec3) -> Vec3 {
        let w = |x: f64, l: f64| x - l * (x / l).floor();
        Vec3::new(w(self.x, l.x), w(self.y, l.y), w(self.z, l.z))
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline(always)]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline(always)]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl AddAssign for Vec3 {
    #[inline(always)]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl SubAssign for Vec3 {
    #[inline(always)]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline(always)]
    fn mul_assign(&mut self, s: f64) {
        *self = *self * s;
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline(always)]
    fn div_assign(&mut self, s: f64) {
        *self = *self / s;
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, |a, b| a + b)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline(always)]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_cross() {
        assert_eq!(Vec3::EX.dot(Vec3::EY), 0.0);
        assert_eq!(Vec3::EX.cross(Vec3::EY), Vec3::EZ);
        assert_eq!(Vec3::EY.cross(Vec3::EZ), Vec3::EX);
    }

    #[test]
    fn cross_is_antisymmetric() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-0.5, 4.0, 1.5);
        assert_eq!(a.cross(b), -(b.cross(a)));
        assert!(a.cross(b).dot(a).abs() < 1e-12);
    }

    #[test]
    fn norms() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.normalized().norm(), 1.0);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn min_image_wraps() {
        let l = Vec3::splat(10.0);
        let d = Vec3::new(9.0, -9.0, 4.0).min_image(l);
        assert!((d.x + 1.0).abs() < 1e-12);
        assert!((d.y - 1.0).abs() < 1e-12);
        assert!((d.z - 4.0).abs() < 1e-12);
    }

    /// `min_image` returns the bits of `x − l·round(x/l)` in every
    /// component: at signed zeros, subnormals, NaN and infinities, for
    /// finite, infinite, NaN and zero lengths, one ulp either side of the
    /// 0.49·l shortcut edge and of the half box, on half-box ties, and on
    /// 10⁵ seeded values (half scaled to the box, half raw bit patterns).
    #[test]
    fn min_image_has_the_formula_bits() {
        use crate::rng::{Rng64, Xoshiro256};
        let formula = |x: f64, l: f64| x - l * (x / l).round();
        let tiny = f64::from_bits(1);
        let lengths = [
            10.0,
            3.9,
            1e-300,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            tiny,
            4.0 * tiny,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            0.0,
            -0.0,
            -10.0,
        ];
        let specials = [
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE / 3.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -7.5,
        ];
        let mut cases = Vec::new();
        for l in lengths {
            cases.extend(specials.map(|x| (x, l)));
            for edge in [0.49 * l, 0.5 * l] {
                for x in [edge.next_down(), edge, edge.next_up()] {
                    cases.extend([(x, l), (-x, l)]);
                }
            }
            cases.extend([1.5, -2.5, 3.5].map(|k| (k * l, l)));
        }
        let mut rng = Xoshiro256::new(45);
        for _ in 0..50_000 {
            let l = rng.range(0.1, 100.0);
            cases.push((l * rng.range(-1.5, 1.5), l));
            cases.push((
                f64::from_bits(rng.next_u64()),
                f64::from_bits(rng.next_u64()),
            ));
        }
        // Each case once in each component.
        for k in 0..cases.len() {
            let [a, b, c] = [0, 1, 2].map(|j| cases[(k + j) % cases.len()]);
            let d = Vec3::new(a.0, b.0, c.0).min_image(Vec3::new(a.1, b.1, c.1));
            for (got, (x, l)) in [(d.x, a), (d.y, b), (d.z, c)] {
                assert_eq!(
                    got.to_bits(),
                    formula(x, l).to_bits(),
                    "min_image({x:e}, {l:e}) = {got:e}, formula {:e}",
                    formula(x, l)
                );
            }
        }
    }

    #[test]
    fn wrap_into_box() {
        let l = Vec3::splat(5.0);
        let p = Vec3::new(-0.5, 5.5, 2.0).wrap_into(l);
        assert!((p.x - 4.5).abs() < 1e-12);
        assert!((p.y - 0.5).abs() < 1e-12);
        assert!((p.z - 2.0).abs() < 1e-12);
    }

    #[test]
    fn indexing() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        v[2] = 7.0;
        assert_eq!(v[0] + v[1] + v[2], 10.0);
    }

    #[test]
    fn sum_iterator() {
        let total: Vec3 = (0..4).map(|i| Vec3::splat(i as f64)).sum();
        assert_eq!(total, Vec3::splat(6.0));
    }
}
