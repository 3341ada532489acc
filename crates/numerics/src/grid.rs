//! 3-D finite-difference grid descriptors.
//!
//! A [`Grid3`] is the index geometry shared by the LFD wave-function arrays,
//! densities, and potentials: `nx × ny × nz` points with uniform spacing
//! `h`, x-fastest storage (`idx = i + nx*(j + ny*k)`), periodic wrapping.

/// Regular 3-D grid with uniform spacing (atomic units in LFD).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Grid3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Grid spacing (bohr in LFD, arbitrary elsewhere).
    pub h: f64,
}

impl Grid3 {
    pub fn new(nx: usize, ny: usize, nz: usize, h: f64) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid dims must be positive");
        assert!(h > 0.0, "grid spacing must be positive");
        Self { nx, ny, nz, h }
    }

    /// Cubic grid.
    pub fn cubic(n: usize, h: f64) -> Self {
        Self::new(n, n, n, h)
    }

    /// Total number of points.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Volume element dV = h³.
    #[inline(always)]
    pub fn dv(&self) -> f64 {
        self.h * self.h * self.h
    }

    /// Box lengths (Lx, Ly, Lz).
    pub fn lengths(&self) -> (f64, f64, f64) {
        (
            self.nx as f64 * self.h,
            self.ny as f64 * self.h,
            self.nz as f64 * self.h,
        )
    }

    /// Linear index of (i, j, k); x fastest.
    #[inline(always)]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        i + self.nx * (j + self.ny * k)
    }

    /// Inverse of [`Self::idx`].
    #[inline(always)]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        let i = idx % self.nx;
        let j = (idx / self.nx) % self.ny;
        let k = idx / (self.nx * self.ny);
        (i, j, k)
    }

    /// Periodic neighbor in +x/-x etc. expressed as index math.
    #[inline(always)]
    pub fn wrap(&self, i: isize, n: usize) -> usize {
        i.rem_euclid(n as isize) as usize
    }

    /// Periodic index of (i+di, j+dj, k+dk).
    #[inline]
    pub fn idx_offset(
        &self,
        i: usize,
        j: usize,
        k: usize,
        di: isize,
        dj: isize,
        dk: isize,
    ) -> usize {
        let ii = self.wrap(i as isize + di, self.nx);
        let jj = self.wrap(j as isize + dj, self.ny);
        let kk = self.wrap(k as isize + dk, self.nz);
        self.idx(ii, jj, kk)
    }

    /// Physical position of point (i, j, k).
    #[inline]
    pub fn position(&self, i: usize, j: usize, k: usize) -> (f64, f64, f64) {
        (i as f64 * self.h, j as f64 * self.h, k as f64 * self.h)
    }

    /// Reciprocal-space squared wave vector |G|² for FFT index (a, b, c)
    /// with standard wrap-to-negative convention. Used by spectral Poisson.
    pub fn g_squared(&self, a: usize, b: usize, c: usize) -> f64 {
        let comp = |idx: usize, n: usize, l: f64| -> f64 {
            let m = if idx <= n / 2 {
                idx as f64
            } else {
                idx as f64 - n as f64
            };
            2.0 * std::f64::consts::PI * m / l
        };
        let (lx, ly, lz) = self.lengths();
        let gx = comp(a, self.nx, lx);
        let gy = comp(b, self.ny, ly);
        let gz = comp(c, self.nz, lz);
        gx * gx + gy * gy + gz * gz
    }

    /// A coarser grid for multigrid hierarchies (dims halved, rounded up,
    /// spacing doubled).
    pub fn coarsen(&self) -> Grid3 {
        Grid3 {
            nx: (self.nx / 2).max(1),
            ny: (self.ny / 2).max(1),
            nz: (self.nz / 2).max(1),
            h: self.h * 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        let g = Grid3::new(5, 7, 3, 0.5);
        for k in 0..3 {
            for j in 0..7 {
                for i in 0..5 {
                    assert_eq!(g.coords(g.idx(i, j, k)), (i, j, k));
                }
            }
        }
    }

    #[test]
    fn x_is_fastest() {
        let g = Grid3::new(4, 4, 4, 1.0);
        assert_eq!(g.idx(1, 0, 0), 1);
        assert_eq!(g.idx(0, 1, 0), 4);
        assert_eq!(g.idx(0, 0, 1), 16);
    }

    #[test]
    fn periodic_wrap() {
        let g = Grid3::new(4, 4, 4, 1.0);
        assert_eq!(g.idx_offset(0, 0, 0, -1, 0, 0), g.idx(3, 0, 0));
        assert_eq!(g.idx_offset(3, 3, 3, 1, 1, 1), g.idx(0, 0, 0));
    }

    #[test]
    fn volume_element() {
        let g = Grid3::cubic(10, 0.2);
        assert!((g.dv() - 0.008).abs() < 1e-15);
        assert_eq!(g.len(), 1000);
    }

    #[test]
    fn g_squared_symmetry() {
        let g = Grid3::cubic(8, 0.7);
        // G²(k) == G²(n-k) for the real-signal symmetry points.
        for a in 1..4 {
            assert!((g.g_squared(a, 0, 0) - g.g_squared(8 - a, 0, 0)).abs() < 1e-12);
        }
        assert_eq!(g.g_squared(0, 0, 0), 0.0);
    }

    #[test]
    fn coarsen_halves() {
        let g = Grid3::new(8, 6, 4, 0.25);
        let c = g.coarsen();
        assert_eq!((c.nx, c.ny, c.nz), (4, 3, 2));
        assert!((c.h - 0.5).abs() < 1e-15);
    }
}
