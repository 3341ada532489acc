//! The per-centre inference kernel: one atom's forward and reverse pass
//! over its cached neighbor pairs, generic over the compute precision.
//!
//! This is the network of [`crate::model`] evaluated for inference only
//! (no parameter gradients), written once over
//! [`Real`](mlmd_numerics::complex::Real):
//!
//! * `R = f64` over [`AllegroLite::params`](crate::model::AllegroLite) is
//!   the reference-precision path;
//! * `R = f32` over the bf16-rounded parameters of a
//!   [`QuantizedModel`](crate::model::QuantizedModel) is the
//!   bf16-storage / f32-accumulate path of paper Sec. VI.C.
//!
//! Geometry (`r`, `û`) is narrowed from the f64 neighbor pairs at the
//! kernel boundary and forces are widened back to f64 on the way out.
//! [`AllegroLite::evaluate`](crate::model::AllegroLite::evaluate) is a
//! separate implementation (it also carries parameter gradients) and is
//! the oracle the inference tests compare this kernel against.
//!
//! Per directed edge, for width H and K radial functions, the kernel
//! makes one `sin`/`cos` pair (every k > 1 of the basis follows by angle
//! addition, and the cutoff reuses the k = 1 pair), one exponential and
//! one division per activation (the sigmoid `s = 1/(1 + e^(−x))` is kept
//! in [`Scratch`]; SiLU is `x·s` and its derivative `s·(1 + x·(1 − s))`):
//! 2 trig calls, 2·H exponentials and 2·H divisions, that is 2, 12 and 12
//! at H = 6, K = 4. Each layer's sigmoids are one flat pass over all of a
//! centre's edges; at `f32` its exponential is a branch-free polynomial
//! ([`KernelReal`]), so that pass vectorizes, while `f64` keeps libm.
//! These expressions round differently from the direct `sin(k·a·r)`,
//! `x/d` and libm `expf` they replace, so the results were re-baselined,
//! not kept bit-identical: the golden digests in `infer.rs` pin the
//! current program. Each accumulator sums in a fixed order: over edges
//! in list order (ascending neighbour index), then over hidden and radial
//! features.

use crate::model::{silu_denom, silu_deriv, species_index, ModelConfig, Offsets};
use mlmd_numerics::complex::Real;
use mlmd_numerics::vec3::Vec3;
use mlmd_qxmd::atoms::Species;
use mlmd_qxmd::neighbor::Pair;

/// Reusable per-edge buffers for [`accumulate_center`], sized by the
/// largest neighborhood seen so far: steady-state inference performs no
/// heap allocation.
pub(crate) struct Scratch<R> {
    b: Vec<R>,
    db: Vec<R>,
    x0: Vec<R>,
    /// The sigmoid `1/(1 + e^(−x0))` per layer-0 activation: SiLU and its
    /// derivative share one exponential and one division.
    d0: Vec<R>,
    h0: Vec<R>,
    x1: Vec<R>,
    /// The sigmoid `1/(1 + e^(−x1))` per layer-1 activation.
    d1: Vec<R>,
    gh0: Vec<R>,
    a: Vec<R>,
    gp: Vec<R>,
    r: Vec<R>,
    uhat: Vec<[R; 3]>,
    pt: Vec<usize>,
}

impl<R: Real> Scratch<R> {
    pub(crate) fn new() -> Self {
        Self {
            b: Vec::new(),
            db: Vec::new(),
            x0: Vec::new(),
            d0: Vec::new(),
            h0: Vec::new(),
            x1: Vec::new(),
            d1: Vec::new(),
            gh0: Vec::new(),
            a: Vec::new(),
            gp: Vec::new(),
            r: Vec::new(),
            uhat: Vec::new(),
            pt: Vec::new(),
        }
    }

    /// Zeroed buffers for `ne` edges of `kdim` radial and `hdim` hidden
    /// features.
    fn reset(&mut self, ne: usize, kdim: usize, hdim: usize) {
        for (buf, len) in [
            (&mut self.b, ne * kdim),
            (&mut self.db, ne * kdim),
            (&mut self.x0, ne * hdim),
            (&mut self.d0, ne * hdim),
            (&mut self.h0, ne * hdim),
            (&mut self.x1, ne * hdim),
            (&mut self.d1, ne * hdim),
            (&mut self.gh0, ne * hdim),
            (&mut self.a, ne),
            (&mut self.gp, ne),
            (&mut self.r, ne),
        ] {
            buf.clear();
            buf.resize(len, R::ZERO);
        }
        self.uhat.clear();
        self.uhat.resize(ne, [R::ZERO; 3]);
        self.pt.clear();
        self.pt.resize(ne, 0);
    }
}

/// [`RadialBasis::eval_with_deriv`](crate::basis::RadialBasis::eval_with_deriv)
/// at precision `R`, from one `sin`/`cos` pair: the k = 1 term's
/// `sin(a·r)` and `cos(a·r)` also give the cutoff, and every k > 1 follows
/// from them by angle addition.
fn basis<R: Real>(rcut: f64, r: R, val: &mut [R], dval: &mut [R]) {
    let half = R::from_f64(0.5);
    let rc = R::from_f64(rcut);
    let a = R::PI / rc;
    let (s1, c1) = ((a * r).sin(), (a * r).cos());
    let (fc, dfc) = if r >= rc {
        (R::ZERO, R::ZERO)
    } else {
        (half * (c1 + R::ONE), -half * a * s1)
    };
    let floor = R::from_f64(1e-12);
    let inv_r = R::ONE / if r > floor { r } else { floor };
    let (mut s, mut c) = (s1, c1);
    for (k, (v, dv)) in val.iter_mut().zip(dval.iter_mut()).enumerate() {
        let kk = R::from_f64((k + 1) as f64);
        let g = s * inv_r;
        let dg = (kk * a * c - s * inv_r) * inv_r;
        *v = g * fc;
        *dv = dg * fc + g * dfc;
        // sin and cos of (k + 2)·a·r, by angle addition.
        (s, c) = (s * c1 + c * s1, c * c1 - s * s1);
    }
}

/// The precisions the kernel runs at, each with its own SiLU denominator.
pub(crate) trait KernelReal: Real {
    /// `1 + e^(−x)`: libm at `f64`, [`exp_f32`] at `f32`.
    fn denom(x: Self) -> Self;
}

impl KernelReal for f64 {
    #[inline]
    fn denom(x: f64) -> f64 {
        silu_denom(x)
    }
}

impl KernelReal for f32 {
    #[inline]
    fn denom(x: f32) -> f32 {
        1.0 + exp_f32(-x)
    }
}

/// `e^x` in f32 without a libm call and without branches, so that the
/// flat sigmoid passes vectorize: the Cody–Waite reduction
/// `x = n·ln 2 + r` (|r| ≤ ln 2/2), the degree-7 Cephes `expf`
/// polynomial for `e^r`, then `2^n` from the exponent bits. The argument
/// is clamped to [−87, 88], where `2^n` stays a normal float, so ±∞ give
/// finite values; `f32::clamp` keeps NaN a NaN. Relative error
/// ≤ 3·`f32::EPSILON` on that range (tested below).
#[inline]
fn exp_f32(x: f32) -> f32 {
    // 1.5·2²³: adding it rounds to an integer held in the low mantissa bits.
    const SHIFT: f32 = 12_582_912.0;
    // ln 2 = LN2_HI + LN2_LO; LN2_HI has 9 significant bits, so n·LN2_HI
    // is exact.
    const LN2_HI: f32 = 355.0 / 512.0;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // e^r ≈ 1 + r + r²·P(r), P in Horner order.
    const P: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        0.166_666_66,
        0.5,
    ];
    let x = x.clamp(-87.0, 88.0);
    let t = x * std::f32::consts::LOG2_E + SHIFT;
    let n = t - SHIFT;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let p = P[1..].iter().fold(P[0], |p, &c| p * r + c);
    let er = p * (r * r) + r + 1.0;
    // n again, as an integer read from t's low mantissa bits.
    let n_int = t.to_bits() as i32 - SHIFT.to_bits() as i32;
    er * f32::from_bits(((n_int + 127) as u32) << 23)
}

#[inline]
fn dot<R: Real>(a: [R; 3], b: [R; 3]) -> R {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// Energy contribution of atom `i` (its species shift plus its edge
/// energies) evaluated on its cached neighbor `pairs` with the flat
/// parameter vector `params` of a `cfg`-shaped network, with the forces
/// that contribution exerts accumulated into `forces`. Because the
/// strictly-local energy decomposes as `E = Σ_i E_i`, summing this over
/// all atoms reproduces the full evaluation — the property that makes the
/// block inference of Sec. V.B.9 lossless.
pub(crate) fn accumulate_center<R: KernelReal>(
    cfg: &ModelConfig,
    params: &[R],
    scratch: &mut Scratch<R>,
    species: &[Species],
    pairs: &[Pair],
    i: usize,
    forces: &mut [Vec3],
) -> f64 {
    let hdim = cfg.hidden;
    let kdim = cfg.k_max;
    let off = Offsets::new(hdim, kdim);
    let w0 = &params[off.w0..off.b0];
    let b0 = &params[off.b0..off.wv];
    let wv = &params[off.wv..off.u];
    let u = &params[off.u..off.b1];
    let b1 = &params[off.b1..off.we];
    let we = &params[off.we..off.shifts];
    let si = species_index(species[i]);
    let mut energy = params[off.shifts + si];
    let ne = pairs.len();
    if ne == 0 {
        return energy.to_f64();
    }
    scratch.reset(ne, kdim, hdim);
    // ---- layer 0 pre-activations ----
    for (e, pr) in pairs.iter().enumerate() {
        let r = R::from_f64(pr.r);
        let pt = 3 * si + species_index(species[pr.j]);
        scratch.r[e] = r;
        scratch.uhat[e] = [
            R::from_f64(pr.dr.x / pr.r),
            R::from_f64(pr.dr.y / pr.r),
            R::from_f64(pr.dr.z / pr.r),
        ];
        scratch.pt[e] = pt;
        let bk = &mut scratch.b[e * kdim..(e + 1) * kdim];
        let dbk = &mut scratch.db[e * kdim..(e + 1) * kdim];
        basis(cfg.rcut, r, bk, dbk);
        let x0e = &mut scratch.x0[e * hdim..(e + 1) * hdim];
        for (h, x0h) in x0e.iter_mut().enumerate() {
            let row = pt * hdim + h;
            let mut acc = b0[row];
            for (&w, &bv) in w0[row * kdim..(row + 1) * kdim].iter().zip(bk.iter()) {
                acc += w * bv;
            }
            *x0h = acc;
        }
    }
    for (s, &x) in scratch.d0.iter_mut().zip(&scratch.x0) {
        *s = R::ONE / R::denom(x);
    }
    // ---- layer 0 activations + vector channel ----
    let mut v = [R::ZERO; 3];
    let layer0 = scratch
        .x0
        .chunks_exact(hdim)
        .zip(scratch.d0.chunks_exact(hdim));
    let edges = scratch.h0.chunks_exact_mut(hdim).zip(&mut scratch.a);
    for (((x0e, s0e), (h0e, a_e)), uh) in layer0.zip(edges).zip(&scratch.uhat) {
        *a_e = R::ZERO;
        for (h, ((&x0h, &s0h), h0h)) in x0e.iter().zip(s0e).zip(h0e).enumerate() {
            let hh = x0h * s0h;
            *h0h = hh;
            *a_e += wv[h] * hh;
        }
        v[0] += uh[0] * *a_e;
        v[1] += uh[1] * *a_e;
        v[2] += uh[2] * *a_e;
    }
    let q = dot(v, v);
    // ---- layer 1 pre-activations ----
    let layer1 = scratch
        .x1
        .chunks_exact_mut(hdim)
        .zip(scratch.h0.chunks_exact(hdim));
    for ((x1e, h0e), &uh) in layer1.zip(&scratch.uhat) {
        let p_e = dot(v, uh);
        for (h, x1h) in x1e.iter_mut().enumerate() {
            let urow = &u[h * (hdim + 2)..(h + 1) * (hdim + 2)];
            let mut acc = b1[h];
            for (&uz, &h0z) in urow.iter().zip(h0e) {
                acc += uz * h0z;
            }
            acc += urow[hdim] * q;
            acc += urow[hdim + 1] * p_e;
            *x1h = acc;
        }
    }
    for (s, &x) in scratch.d1.iter_mut().zip(&scratch.x1) {
        *s = R::ONE / R::denom(x);
    }
    // ---- energy: edges in list order, then features ----
    let layer1 = scratch
        .x1
        .chunks_exact(hdim)
        .zip(scratch.d1.chunks_exact(hdim));
    for (x1e, s1e) in layer1 {
        for ((&x1h, &s1h), &weh) in x1e.iter().zip(s1e).zip(we) {
            energy += weh * (x1h * s1h);
        }
    }
    // ---- reverse pass A: gq, gp, gh0 through layer 1 ----
    let mut gq = R::ZERO;
    let layer1 = scratch
        .x1
        .chunks_exact(hdim)
        .zip(scratch.d1.chunks_exact(hdim));
    for (e, (x1e, s1e)) in layer1.enumerate() {
        let gh0e = &mut scratch.gh0[e * hdim..(e + 1) * hdim];
        for (h, (&x1h, &s1h)) in x1e.iter().zip(s1e).enumerate() {
            let urow = &u[h * (hdim + 2)..(h + 1) * (hdim + 2)];
            let gx1 = we[h] * silu_deriv(x1h, s1h);
            for (g0, &uz) in gh0e.iter_mut().zip(urow) {
                *g0 += gx1 * uz;
            }
            gq += gx1 * urow[hdim];
            scratch.gp[e] += gx1 * urow[hdim + 1];
        }
    }
    // ---- vector-channel gradient ----
    let mut gv = [v[0] * R::TWO * gq, v[1] * R::TWO * gq, v[2] * R::TWO * gq];
    for (uh, &gpe) in scratch.uhat.iter().zip(&scratch.gp) {
        gv[0] += uh[0] * gpe;
        gv[1] += uh[1] * gpe;
        gv[2] += uh[2] * gpe;
    }
    // ---- reverse pass B: per-edge chains → forces ----
    for (e, pr) in pairs.iter().enumerate() {
        let uh = scratch.uhat[e];
        let a_e = scratch.a[e];
        let gpe = scratch.gp[e];
        let pt = scratch.pt[e];
        let ga = dot(uh, gv);
        let x0e = &scratch.x0[e * hdim..(e + 1) * hdim];
        let s0e = &scratch.d0[e * hdim..(e + 1) * hdim];
        let gh0e = &scratch.gh0[e * hdim..(e + 1) * hdim];
        let dbe = &scratch.db[e * kdim..(e + 1) * kdim];
        let mut gr = R::ZERO;
        for (h, ((&x0h, &s0h), &gh0l1)) in x0e.iter().zip(s0e).zip(gh0e).enumerate() {
            let gh0 = gh0l1 + wv[h] * ga;
            let gx0 = gh0 * silu_deriv(x0h, s0h);
            let row = pt * hdim + h;
            for (&w, &dbv) in w0[row * kdim..(row + 1) * kdim].iter().zip(dbe) {
                gr += gx0 * w * dbv;
            }
        }
        let gu = [
            v[0] * gpe + gv[0] * a_e,
            v[1] * gpe + gv[1] * a_e,
            v[2] * gpe + gv[2] * a_e,
        ];
        let udot = dot(uh, gu);
        let inv_r = R::ONE / scratch.r[e];
        // d û/d dr = (I − û ûᵀ)/r; dr = r_j − r_i.
        let g_dr = Vec3::new(
            (uh[0] * gr + (gu[0] - uh[0] * udot) * inv_r).to_f64(),
            (uh[1] * gr + (gu[1] - uh[1] * udot) * inv_r).to_f64(),
            (uh[2] * gr + (gu[2] - uh[2] * udot) * inv_r).to_f64(),
        );
        forces[pr.j] -= g_dr;
        forces[i] += g_dr;
    }
    energy.to_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::RadialBasis;

    #[test]
    fn exp_f32_is_within_three_epsilon_of_f64_exp() {
        // Two million points across the clamp range. Measured: 0.67 ε
        // (libm `expf`: 0.50 ε).
        let (lo, hi, n) = (-87.0, 88.0, 2_000_000);
        let mut worst = 0.0f64;
        for i in 0..=n {
            let x = (lo + (hi - lo) * i as f64 / n as f64) as f32;
            let exact = f64::from(x).exp();
            worst = worst.max((f64::from(exp_f32(x)) - exact).abs() / exact);
        }
        assert!(
            worst <= 3.0 * f64::from(f32::EPSILON),
            "max relative error {worst:.3e}"
        );
    }

    #[test]
    fn exp_f32_keeps_nan_and_stays_finite_outside_its_range() {
        assert!(exp_f32(f32::NAN).is_nan());
        for x in [f32::INFINITY, f32::NEG_INFINITY, 1e4, -1e4] {
            let y = exp_f32(x);
            assert!(y.is_finite() && y >= 0.0, "exp_f32({x}) = {y}");
        }
    }

    #[test]
    fn basis_recurrence_matches_the_direct_radial_basis() {
        // The angle-addition basis against `RadialBasis`'s direct sin/cos,
        // values and derivatives, at r = i·r_c/500 for i in 1..500. Both
        // take the derivative as (k·a·cos − sin/r)/r, which cancels as
        // r → 0 and so loses digits as 1/r in either evaluation: errors
        // are measured in units of max(1, 1/r), r in Å. The f32 error is
        // relative to the basis scale k_max·π/r_c, the largest |B_k|.
        // Measured: 5.4e-15 at f64, 5.2e-7 at f32.
        let rcut = 3.5;
        let (mut worst64, mut worst32) = (0.0f64, 0.0f64);
        for k_max in [1, 4, 8] {
            let direct = RadialBasis::new(k_max, rcut);
            let scale = k_max as f64 * std::f64::consts::PI / rcut;
            let (mut v, mut dv) = (vec![0.0; k_max], vec![0.0; k_max]);
            let (mut v64, mut dv64) = (vec![0.0f64; k_max], vec![0.0f64; k_max]);
            let (mut v32, mut dv32) = (vec![0.0f32; k_max], vec![0.0f32; k_max]);
            for i in 1..500 {
                let r = rcut * i as f64 / 500.0;
                let unit = r.recip().max(1.0);
                direct.eval_with_deriv(r, &mut v, &mut dv);
                basis(rcut, r, &mut v64, &mut dv64);
                basis(rcut, r as f32, &mut v32, &mut dv32);
                let got = v64.iter().chain(&dv64).zip(v32.iter().chain(&dv32));
                for (&want, (&g64, &g32)) in v.iter().chain(&dv).zip(got) {
                    worst64 = worst64.max((g64 - want).abs() / unit);
                    worst32 = worst32.max((f64::from(g32) - want).abs() / (unit * scale));
                }
            }
        }
        assert!(worst64 <= 1e-13, "f64 basis off by {worst64:.3e}");
        assert!(
            worst32 <= 1e-5,
            "f32 basis off by {worst32:.3e} of its scale"
        );
    }
}
