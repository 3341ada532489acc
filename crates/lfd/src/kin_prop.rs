//! `kin_prop` — the local kinetic time-propagator (paper Secs. V.A.5, V.B.2–4).
//!
//! Implements `exp(−iΔt T̂)` by the block-diagonal split-operator scheme of
//! Richardson (ref \[41\]): the 1-D finite-difference kinetic operator along
//! each axis decomposes into bond operators `B = λ[[1,−1],[−1,1]]`
//! (λ = 1/2h²) acting on nearest-neighbour pairs; bonds of equal parity are
//! disjoint, so `exp(−iτB)` is an *exact 2×2 unitary* applied
//! independently — and data-parallel — across the grid:
//!
//! ```text
//! a' = u·a + v·e^{+iφ}·b        u = (1+e)/2,  v = (1−e)/2,
//! b' = v·e^{−iφ}·a + u·b        e = e^{−2iλτ}
//! ```
//!
//! with the Peierls phase `φ = −A_axis·h` carrying the vector-potential
//! coupling of Eq. (3) (velocity gauge, uniform A per DC domain).
//!
//! The four [`KinImpl`] tiers reproduce the optimization ladder of
//! **Table III**:
//!
//! | tier | paper section | what changes |
//! |---|---|---|
//! | `Baseline`  | —      | orbital-major storage, per-point index math |
//! | `Reordered` | V.B.2  | orbital-fastest SoA, stencil coefficient reused across orbitals, precomputed bond lists |
//! | `Blocked`   | V.B.3  | orbital blocks in split re/im block-SoA ([`SplitBlock`]) processed through *all* sweeps while cache-resident |
//! | `Parallel`  | V.B.4  | the `Blocked` blocks dispatched over the pool (the GPU offload analogue) |
//!
//! All four produce bit-identical states (asserted in tests); only their
//! speed differs. `Blocked` and `Parallel` run the one split-layout sweep
//! kernel, [`KinProp::step_split`], which `QdStep::step` and the Ehrenfest
//! inner loop of `mlmd-dcmesh` also call: the loop keeps each block
//! resident through all of its QD steps, extending the ladder's data
//! locality across the local-phase and current kernels.

use crate::wavefunction::WaveFunctions;
use mlmd_numerics::complex::c64;
use mlmd_numerics::flops::FlopCounter;
use mlmd_numerics::grid::Grid3;
use mlmd_numerics::vec3::Vec3;
use rayon::prelude::*;

/// FLOPs per bond update per orbital: 4 complex multiplies + 2 complex adds.
pub const FLOPS_PER_BOND_ORBITAL: u64 = 28;

/// Optimization tier (Table III rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KinImpl {
    Baseline,
    Reordered,
    Blocked,
    Parallel,
}

impl KinImpl {
    pub const ALL: [KinImpl; 4] = [
        KinImpl::Baseline,
        KinImpl::Reordered,
        KinImpl::Blocked,
        KinImpl::Parallel,
    ];

    pub fn label(self) -> &'static str {
        match self {
            KinImpl::Baseline => "Baseline",
            KinImpl::Reordered => "Data & loop re-ordering (B.2)",
            KinImpl::Blocked => "Blocking/tiling (B.3)",
            KinImpl::Parallel => "Hierarchical parallel regions (B.4)",
        }
    }
}

/// 2×2 bond-mixing coefficients for one axis and sweep time τ.
#[derive(Clone, Copy, Debug)]
struct BondCoeffs {
    u: c64,
    vp: c64,
    vm: c64,
}

impl BondCoeffs {
    fn new(lambda: f64, tau: f64, phi: f64) -> Self {
        let e = c64::cis(-2.0 * lambda * tau);
        let u = (c64::one() + e).scale(0.5);
        let v = (c64::one() - e).scale(0.5);
        Self {
            u,
            vp: v * c64::cis(phi),
            vm: v * c64::cis(-phi),
        }
    }

    #[inline(always)]
    fn mix(&self, a: c64, b: c64) -> (c64, c64) {
        (self.u * a + self.vp * b, self.vm * a + self.u * b)
    }

    /// [`Self::mix`] over two runs of orbitals held as split re/im arrays,
    /// in the same operation order term by term.
    #[inline(always)]
    fn mix_split(&self, a_re: &mut [f64], a_im: &mut [f64], b_re: &mut [f64], b_im: &mut [f64]) {
        let (u, vp, vm) = (self.u, self.vp, self.vm);
        let n = a_re.len();
        let (a_im, b_re, b_im) = (&mut a_im[..n], &mut b_re[..n], &mut b_im[..n]);
        for s in 0..n {
            let (ar, ai, br, bi) = (a_re[s], a_im[s], b_re[s], b_im[s]);
            a_re[s] = (u.re * ar - u.im * ai) + (vp.re * br - vp.im * bi);
            a_im[s] = (u.re * ai + u.im * ar) + (vp.re * bi + vp.im * br);
            b_re[s] = (vm.re * ar - vm.im * ai) + (u.re * br - u.im * bi);
            b_im[s] = (vm.re * ai + vm.im * ar) + (u.re * bi + u.im * br);
        }
    }
}

/// A block of orbitals in split block-SoA layout: `re[g·width + s]` and
/// `im[g·width + s]`, orbital-fastest per grid point with the real and
/// imaginary parts in separate arrays, so every sweep and phase loop runs
/// over plain `f64` runs the autovectorizer can use.
///
/// A block is gathered once from consecutive panel columns, stays resident
/// through any number of steps, and is scattered back once. Re-gathering
/// into the same block, or `clone_from` into it, reuses its storage.
#[derive(Debug, Default)]
pub struct SplitBlock {
    width: usize,
    pub(crate) re: Vec<f64>,
    pub(crate) im: Vec<f64>,
}

impl Clone for SplitBlock {
    fn clone(&self) -> Self {
        let mut copy = Self::default();
        copy.clone_from(self);
        copy
    }

    fn clone_from(&mut self, source: &Self) {
        self.width = source.width;
        self.re.clone_from(&source.re);
        self.im.clone_from(&source.im);
    }
}

impl SplitBlock {
    /// Orbitals in the block.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Load `cols`, consecutive grid-major columns of `ngrid` points each
    /// (a column-major panel slice); the width is `cols.len() / ngrid`.
    pub fn gather(&mut self, cols: &[c64], ngrid: usize) {
        assert_eq!(cols.len() % ngrid, 0, "columns of {ngrid} points");
        let bw = cols.len() / ngrid;
        self.width = bw;
        self.re.resize(cols.len(), 0.0);
        self.im.resize(cols.len(), 0.0);
        for (s, col) in cols.chunks_exact(ngrid).enumerate() {
            for (g, z) in col.iter().enumerate() {
                self.re[g * bw + s] = z.re;
                self.im[g * bw + s] = z.im;
            }
        }
    }

    /// Store the block back into the columns it was gathered from.
    pub fn scatter(&self, cols: &mut [c64]) {
        assert_eq!(cols.len(), self.re.len(), "scatter into a different shape");
        let bw = self.width;
        if bw == 0 {
            return;
        }
        for (s, col) in cols.chunks_exact_mut(cols.len() / bw).enumerate() {
            for (g, z) in col.iter_mut().enumerate() {
                *z = c64::new(self.re[g * bw + s], self.im[g * bw + s]);
            }
        }
    }

    /// Multiply every orbital pointwise by `phase[g]`, as `Complex::mul`.
    pub fn apply_phase(&mut self, phase: &[c64]) {
        let bw = self.width;
        assert_eq!(self.re.len(), phase.len() * bw);
        if bw == 0 {
            return;
        }
        for ((re, im), p) in self
            .re
            .chunks_exact_mut(bw)
            .zip(self.im.chunks_exact_mut(bw))
            .zip(phase)
        {
            for (r, i) in re.iter_mut().zip(im.iter_mut()) {
                let (zr, zi) = (*r, *i);
                *r = zr * p.re - zi * p.im;
                *i = zr * p.im + zi * p.re;
            }
        }
    }
}

/// Plan-time partition of one bond set into branch-free runs (PR 10).
///
/// `fwd` bonds have the a-operand at the lower grid index (the common,
/// non-wrapping case); `wrap` bonds cross the periodic boundary, so their
/// a-operand sits at the *higher* index and the split-borrow direction
/// reverses. Partitioning once at plan time removes the per-bond
/// `(lo, hi, first_is_lo)` branch from the innermost sweep loop, leaving
/// two straight-line loops the autovectorizer can unroll. Bonds within a
/// set touch disjoint grid-point pairs, so executing the two lists
/// back-to-back is bit-identical to the interleaved traversal.
#[derive(Default)]
struct BondSetPlan {
    /// `(lo, hi)` with the a-operand at `lo`.
    fwd: Vec<(u32, u32)>,
    /// `(lo, hi)` with the a-operand at `hi` (periodic wrap bonds).
    wrap: Vec<(u32, u32)>,
}

impl BondSetPlan {
    fn from_bonds(bonds: &[(u32, u32)]) -> Self {
        let mut plan = Self::default();
        for &(g1, g2) in bonds {
            if g1 < g2 {
                plan.fwd.push((g1, g2));
            } else {
                plan.wrap.push((g2, g1));
            }
        }
        plan
    }
}

/// Planned kinetic propagator for one grid geometry.
pub struct KinProp {
    grid: Grid3,
    /// Bond lists: [x-even, x-odd, y-even, y-odd, z-even, z-odd], each a
    /// disjoint set of (g1, g2) grid-index pairs.
    bonds: [Vec<(u32, u32)>; 6],
    /// Branch-free execution plans for the Blocked/Parallel tiers, one per
    /// bond set.
    plans: [BondSetPlan; 6],
    /// Orbital block size for the Blocked/Parallel tiers.
    pub block: usize,
}

impl KinProp {
    /// Plan for a grid; all dimensions must be even so that each parity
    /// class tiles the periodic axis exactly.
    pub fn new(grid: Grid3) -> Self {
        assert!(
            grid.nx.is_multiple_of(2) && grid.ny.is_multiple_of(2) && grid.nz.is_multiple_of(2),
            "kin_prop requires even grid dimensions (got {}×{}×{})",
            grid.nx,
            grid.ny,
            grid.nz
        );
        let mut bonds: [Vec<(u32, u32)>; 6] = Default::default();
        for axis in 0..3 {
            let n_axis = [grid.nx, grid.ny, grid.nz][axis];
            for parity in 0..2 {
                let list = &mut bonds[2 * axis + parity];
                for k in 0..grid.nz {
                    for j in 0..grid.ny {
                        for i in 0..grid.nx {
                            let along = [i, j, k][axis];
                            if along % 2 == parity {
                                let g1 = grid.idx(i, j, k) as u32;
                                let (di, dj, dk) = match axis {
                                    0 => (1isize, 0isize, 0isize),
                                    1 => (0, 1, 0),
                                    _ => (0, 0, 1),
                                };
                                let g2 = grid.idx_offset(i, j, k, di, dj, dk) as u32;
                                let _ = n_axis;
                                list.push((g1, g2));
                            }
                        }
                    }
                }
            }
        }
        let plans = [
            BondSetPlan::from_bonds(&bonds[0]),
            BondSetPlan::from_bonds(&bonds[1]),
            BondSetPlan::from_bonds(&bonds[2]),
            BondSetPlan::from_bonds(&bonds[3]),
            BondSetPlan::from_bonds(&bonds[4]),
            BondSetPlan::from_bonds(&bonds[5]),
        ];
        Self {
            grid,
            bonds,
            plans,
            block: 8,
        }
    }

    fn lambda(&self) -> f64 {
        0.5 / (self.grid.h * self.grid.h)
    }

    fn coeffs(&self, axis: usize, tau: f64, a: Vec3) -> BondCoeffs {
        let phi = -a[axis] * self.grid.h;
        BondCoeffs::new(self.lambda(), tau, phi)
    }

    /// FLOPs of `n_steps` symmetric propagation steps on `norb` orbitals.
    pub fn flops_per_steps(&self, norb: usize, n_steps: usize) -> u64 {
        // Symmetric step = 2 passes over all 6 bond sets = 6·Ngrid bonds.
        6 * self.grid.len() as u64 * norb as u64 * FLOPS_PER_BOND_ORBITAL * n_steps as u64
    }

    /// Propagate `wf` by `n_steps` symmetric split-operator kinetic steps
    /// of `dt` each, under uniform vector potential `a`, using the selected
    /// implementation tier. Conversion into the tier's preferred layout is
    /// done once and amortized over all steps, matching how Table III runs
    /// 1,000 QD steps.
    pub fn propagate_n(
        &self,
        imp: KinImpl,
        wf: &mut WaveFunctions,
        dt: f64,
        a: Vec3,
        n_steps: usize,
        flops: &FlopCounter,
    ) {
        assert_eq!(wf.grid, self.grid, "wave functions on a different grid");
        flops.add(self.flops_per_steps(wf.norb, n_steps));
        match imp {
            KinImpl::Baseline => self.run_baseline(wf, dt, a, n_steps),
            KinImpl::Reordered => self.run_soa(wf, dt, a, n_steps, false),
            KinImpl::Blocked => self.run_blocked(wf, dt, a, n_steps, false),
            KinImpl::Parallel => self.run_blocked(wf, dt, a, n_steps, true),
        }
    }

    /// One symmetric step of the `Parallel` tier.
    pub fn step(&self, wf: &mut WaveFunctions, dt: f64, a: Vec3, flops: &FlopCounter) {
        self.propagate_n(KinImpl::Parallel, wf, dt, a, 1, flops);
    }

    // ---- Baseline: orbital-major, inline index arithmetic ----------------

    fn run_baseline(&self, wf: &mut WaveFunctions, dt: f64, a: Vec3, n_steps: usize) {
        let tau = 0.5 * dt;
        let grid = self.grid;
        let norb = wf.norb;
        for _ in 0..n_steps {
            for s in 0..norb {
                let col = wf.psi.col_mut(s);
                for sweep in 0..12 {
                    // 0..6 forward half-step, then 6..12 reversed order.
                    let set = if sweep < 6 { sweep } else { 11 - sweep };
                    let axis = set / 2;
                    let parity = set % 2;
                    let c = self.coeffs(axis, tau, a);
                    // Naive traversal: recompute neighbour indices with
                    // wrap-around arithmetic at every point (the pre-B.2
                    // code structure).
                    for k in 0..grid.nz {
                        for j in 0..grid.ny {
                            for i in 0..grid.nx {
                                let along = [i, j, k][axis];
                                if along % 2 != parity {
                                    continue;
                                }
                                let g1 = i + grid.nx * (j + grid.ny * k);
                                let (ii, jj, kk) = match axis {
                                    0 => ((i + 1) % grid.nx, j, k),
                                    1 => (i, (j + 1) % grid.ny, k),
                                    _ => (i, j, (k + 1) % grid.nz),
                                };
                                let g2 = ii + grid.nx * (jj + grid.ny * kk);
                                let (na, nb) = c.mix(col[g1], col[g2]);
                                col[g1] = na;
                                col[g2] = nb;
                            }
                        }
                    }
                }
            }
        }
    }

    // ---- Reordered: orbital-fastest SoA, precomputed bonds ---------------

    fn run_soa(&self, wf: &mut WaveFunctions, dt: f64, a: Vec3, n_steps: usize, _par: bool) {
        let norb = wf.norb;
        let mut data = wf.to_soa();
        let tau = 0.5 * dt;
        for _ in 0..n_steps {
            for sweep in 0..12 {
                let set = if sweep < 6 { sweep } else { 11 - sweep };
                let c = self.coeffs(set / 2, tau, a);
                for &(g1, g2) in &self.bonds[set] {
                    let b1 = g1 as usize * norb;
                    let b2 = g2 as usize * norb;
                    for s in 0..norb {
                        let (na, nb) = c.mix(data[b1 + s], data[b2 + s]);
                        data[b1 + s] = na;
                        data[b2 + s] = nb;
                    }
                }
            }
        }
        wf.from_soa(&data);
    }

    // ---- Blocked / Parallel: split block-SoA, all sweeps per resident block

    fn run_blocked(&self, wf: &mut WaveFunctions, dt: f64, a: Vec3, n_steps: usize, par: bool) {
        let norb = wf.norb;
        let ngrid = self.grid.len();
        // The parallel tier needs enough blocks to feed the pool
        // (2 tasks per thread for load balance); the serial blocked tier
        // uses the cache-sized block. An empty panel has no blocks.
        let bs = if par {
            (norb / (2 * rayon::current_num_threads()).max(1)).clamp(1, self.block.max(1))
        } else {
            self.block.max(1)
        };
        let run = |cols: &mut [c64]| {
            let mut block = SplitBlock::default();
            block.gather(cols, ngrid);
            for _ in 0..n_steps {
                self.step_split(&mut block, dt, a);
            }
            block.scatter(cols);
        };
        let panel = wf.psi.as_mut_slice();
        if par {
            panel.par_chunks_mut(bs * ngrid).for_each(run);
        } else {
            panel.chunks_mut(bs * ngrid).for_each(run);
        }
    }

    /// One symmetric kinetic step — the 12 bond sweeps, forward then
    /// reversed — on a resident [`SplitBlock`]. The one sweep kernel of the
    /// `Blocked`/`Parallel` tiers, `QdStep::step` and the Ehrenfest loop.
    ///
    /// Each bond update performs `BondCoeffs::mix` with the operation order
    /// of `Complex::mul`/`add` spelled out on the split arrays, so it is
    /// bit-identical to the `c64` tiers. An empty block is a no-op.
    pub fn step_split(&self, block: &mut SplitBlock, dt: f64, a: Vec3) {
        let bw = block.width();
        if bw == 0 {
            return;
        }
        assert_eq!(
            block.re.len(),
            self.grid.len() * bw,
            "block on a different grid"
        );
        let tau = 0.5 * dt;
        let coeffs: [BondCoeffs; 6] = std::array::from_fn(|set| self.coeffs(set / 2, tau, a));
        let (re, im) = (&mut block.re[..], &mut block.im[..]);
        for sweep in 0..12 {
            let set = if sweep < 6 { sweep } else { 11 - sweep };
            let c = &coeffs[set];
            let plan = &self.plans[set];
            // The plan-time fwd/wrap partition makes both loops
            // branch-free; bonds in a set are disjoint, so the regrouped
            // order is bit-identical (see BondSetPlan).
            for &(lo, hi) in &plan.fwd {
                let (lo, hi) = (lo as usize * bw, hi as usize * bw);
                let (re_lo, re_hi) = re.split_at_mut(hi);
                let (im_lo, im_hi) = im.split_at_mut(hi);
                c.mix_split(
                    &mut re_lo[lo..lo + bw],
                    &mut im_lo[lo..lo + bw],
                    &mut re_hi[..bw],
                    &mut im_hi[..bw],
                );
            }
            for &(lo, hi) in &plan.wrap {
                let (lo, hi) = (lo as usize * bw, hi as usize * bw);
                let (re_lo, re_hi) = re.split_at_mut(hi);
                let (im_lo, im_hi) = im.split_at_mut(hi);
                c.mix_split(
                    &mut re_hi[..bw],
                    &mut im_hi[..bw],
                    &mut re_lo[lo..lo + bw],
                    &mut im_lo[lo..lo + bw],
                );
            }
        }
    }

    /// Finite-difference kinetic dispersion `E(k) = Σ_a (1−cos(k_a h))/h²`
    /// with vector-potential shift — the exact eigenvalue a plane wave
    /// accumulates per unit time under this propagator's Hamiltonian.
    pub fn fd_dispersion(&self, k: Vec3, a: Vec3) -> f64 {
        let h = self.grid.h;
        let mut e = 0.0;
        for axis in 0..3 {
            e += (1.0 - ((k[axis] + a[axis]) * h).cos()) / (h * h);
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid3 {
        Grid3::new(8, 8, 8, 0.4)
    }

    fn counter() -> FlopCounter {
        FlopCounter::new()
    }

    #[test]
    fn all_tiers_agree() {
        let g = grid();
        let kp = KinProp::new(g);
        let reference = {
            let mut wf = WaveFunctions::random(g, 5, 42);
            kp.propagate_n(
                KinImpl::Baseline,
                &mut wf,
                0.01,
                Vec3::new(0.2, 0.0, -0.1),
                3,
                &counter(),
            );
            wf
        };
        for imp in [KinImpl::Reordered, KinImpl::Blocked, KinImpl::Parallel] {
            let mut wf = WaveFunctions::random(g, 5, 42);
            kp.propagate_n(imp, &mut wf, 0.01, Vec3::new(0.2, 0.0, -0.1), 3, &counter());
            let diff = wf.psi.max_abs_diff(&reference.psi);
            assert!(diff < 1e-12, "{imp:?} deviates by {diff}");
        }
    }

    #[test]
    fn tiers_are_bit_identical() {
        // The fwd/wrap plan partition reorders disjoint bond updates only,
        // so every tier reproduces the baseline bits exactly.
        let g = grid();
        let kp = KinProp::new(g);
        let run = |imp: KinImpl| {
            let mut wf = WaveFunctions::random(g, 5, 42);
            kp.propagate_n(imp, &mut wf, 0.01, Vec3::new(0.2, 0.0, -0.1), 3, &counter());
            wf
        };
        let reference = run(KinImpl::Baseline);
        for imp in [KinImpl::Reordered, KinImpl::Blocked, KinImpl::Parallel] {
            let wf = run(imp);
            for (x, y) in wf.psi.as_slice().iter().zip(reference.psi.as_slice()) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "{imp:?}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "{imp:?}");
            }
        }
    }

    #[test]
    fn empty_panel_is_a_no_op_in_every_tier() {
        let g = grid();
        let kp = KinProp::new(g);
        for imp in KinImpl::ALL {
            let mut wf = WaveFunctions::zeros(g, 0);
            kp.propagate_n(imp, &mut wf, 0.01, Vec3::new(0.2, 0.0, -0.1), 3, &counter());
            assert_eq!(wf.psi.as_slice().len(), 0, "{imp:?}");
        }
    }

    #[test]
    fn unitarity_exact() {
        let g = grid();
        let kp = KinProp::new(g);
        let mut wf = WaveFunctions::random(g, 4, 7);
        for _ in 0..50 {
            kp.step(&mut wf, 0.05, Vec3::new(0.3, -0.2, 0.1), &counter());
        }
        assert!(wf.norm_error() < 1e-11, "norm error {}", wf.norm_error());
    }

    #[test]
    fn orthogonality_preserved() {
        // The propagator is one unitary applied to all orbitals: overlaps
        // are invariants.
        let g = grid();
        let kp = KinProp::new(g);
        let mut wf = WaveFunctions::random(g, 3, 9);
        let s01 = wf.overlap(0, &wf, 1);
        for _ in 0..20 {
            kp.step(&mut wf, 0.03, Vec3::ZERO, &counter());
        }
        let s01_after = wf.overlap(0, &wf, 1);
        assert!((s01 - s01_after).abs() < 1e-10);
    }

    #[test]
    fn free_particle_phase_evolution() {
        // A plane wave must acquire phase e^{-i E(k) t} with the FD
        // dispersion; Trotter error is O(dt²) per step, so use small dt.
        let g = Grid3::new(16, 16, 16, 0.5);
        let kp = KinProp::new(g);
        let mut wf = WaveFunctions::plane_waves(g, 2); // mode 1 = (0,0,±1)-like
        let before = wf.psi[(3, 1)];
        let dt = 1e-3;
        let steps = 200;
        for _ in 0..steps {
            kp.step(&mut wf, dt, Vec3::ZERO, &counter());
        }
        // Identify the mode's k vector from the plane-wave constructor:
        // mode 1 has |m|²=1; measure its energy from the accumulated phase
        // and compare to the smallest nonzero FD dispersion value.
        let after = wf.psi[(3, 1)];
        let phase = (after / before).arg();
        let t = dt * steps as f64;
        let (lx, _, _) = g.lengths();
        let kmin = 2.0 * std::f64::consts::PI / lx;
        // Candidate energies along each axis (grid is cubic, all equal).
        let e_expect = kp.fd_dispersion(Vec3::new(kmin, 0.0, 0.0), Vec3::ZERO);
        let phase_expect = -(e_expect * t);
        let wrap = |x: f64| {
            (x + std::f64::consts::PI).rem_euclid(2.0 * std::f64::consts::PI) - std::f64::consts::PI
        };
        assert!(
            wrap(phase - phase_expect).abs() < 2e-3,
            "phase {phase} vs expected {phase_expect}"
        );
    }

    #[test]
    fn vector_potential_shifts_dispersion() {
        // With A ≠ 0 the gamma-mode (k = 0) acquires energy E(A) ≠ 0.
        let g = Grid3::new(12, 12, 12, 0.5);
        let kp = KinProp::new(g);
        let a = Vec3::new(0.4, 0.0, 0.0);
        let mut wf = WaveFunctions::plane_waves(g, 1); // k = 0 mode only
        let before = wf.psi[(0, 0)];
        let dt = 1e-3;
        let steps = 100;
        for _ in 0..steps {
            kp.step(&mut wf, dt, a, &counter());
        }
        let after = wf.psi[(0, 0)];
        let phase = (after / before).arg();
        let e_expect = kp.fd_dispersion(Vec3::ZERO, a);
        assert!(
            (phase + e_expect * dt * steps as f64).abs() < 1e-3,
            "phase {phase}, expected {}",
            -e_expect * dt * steps as f64
        );
    }

    #[test]
    fn trotter_error_is_second_order() {
        // Halving dt (same total time) must reduce the error ~4×.
        let g = Grid3::new(8, 8, 8, 0.6);
        let kp = KinProp::new(g);
        let total_t = 0.2;
        let run = |nsteps: usize| -> WaveFunctions {
            let mut wf = WaveFunctions::random(g, 2, 5);
            kp.propagate_n(
                KinImpl::Parallel,
                &mut wf,
                total_t / nsteps as f64,
                Vec3::ZERO,
                nsteps,
                &counter(),
            );
            wf
        };
        let exact = run(512); // fine-step proxy for the exact result
        let err = |w: &WaveFunctions| w.psi.max_abs_diff(&exact.psi);
        let e1 = err(&run(8));
        let e2 = err(&run(16));
        let ratio = e1 / e2;
        assert!(
            ratio > 3.0 && ratio < 5.5,
            "expected ~4x error reduction, got {ratio} ({e1} / {e2})"
        );
    }

    #[test]
    fn flop_accounting() {
        let g = grid();
        let kp = KinProp::new(g);
        let c = counter();
        let mut wf = WaveFunctions::random(g, 3, 1);
        kp.propagate_n(KinImpl::Parallel, &mut wf, 0.01, Vec3::ZERO, 2, &c);
        assert_eq!(c.total(), kp.flops_per_steps(3, 2));
        assert_eq!(
            kp.flops_per_steps(1, 1),
            6 * g.len() as u64 * FLOPS_PER_BOND_ORBITAL
        );
    }

    #[test]
    fn bond_sets_are_disjoint_and_complete() {
        let g = Grid3::new(6, 4, 8, 1.0);
        let kp = KinProp::new(g);
        for axis in 0..3 {
            let mut touched = vec![0u8; g.len()];
            for parity in 0..2 {
                for &(g1, g2) in &kp.bonds[2 * axis + parity] {
                    touched[g1 as usize] += 1;
                    touched[g2 as usize] += 1;
                }
            }
            // Every point participates in exactly 2 bonds per axis.
            assert!(touched.iter().all(|&t| t == 2), "axis {axis}");
        }
    }

    #[test]
    #[should_panic(expected = "even grid dimensions")]
    fn odd_grid_rejected() {
        KinProp::new(Grid3::new(7, 8, 8, 1.0));
    }
}
