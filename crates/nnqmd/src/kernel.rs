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
//! Per directed edge the kernel spends its transcendentals once each: one
//! exponential per activation (`d = 1 + e^(−x)` is kept in [`Scratch`]
//! for the reverse pass, which evaluates the derivative from it) and one
//! `sin`/`cos` per radial basis function (the cutoff reuses the k = 1
//! pair) — 2·H exponentials and 2·K trig calls for width H and K radial
//! functions. Every value is the same floating-point expression it was
//! when each use computed its own, so the results are bit-identical to
//! that form (pinned by the golden digests in `infer.rs`). Each
//! accumulator sums in a fixed order: over edges in list order (ascending
//! neighbour index), then over hidden and radial features.

use crate::model::{silu, silu_denom, silu_deriv, species_index, ModelConfig, Offsets};
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
    /// `1 + e^(−x0)` per layer-0 activation: [`silu`] and its derivative
    /// share one exponential.
    d0: Vec<R>,
    h0: Vec<R>,
    x1: Vec<R>,
    /// `1 + e^(−x1)` per layer-1 activation.
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
/// at precision `R`. The cutoff's `sin(a·r)` and `cos(a·r)` are those of
/// the k = 1 term (`1·a·r == a·r` exactly), computed once.
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
    for (k, (v, dv)) in val.iter_mut().zip(dval.iter_mut()).enumerate() {
        let kk = R::from_f64((k + 1) as f64);
        let (s, c) = if k == 0 {
            (s1, c1)
        } else {
            ((kk * a * r).sin(), (kk * a * r).cos())
        };
        let g = s * inv_r;
        let dg = (kk * a * c - s * inv_r) * inv_r;
        *v = g * fc;
        *dv = dg * fc + g * dfc;
    }
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
pub(crate) fn accumulate_center<R: Real>(
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
    // ---- forward: layer 0 + vector channel ----
    let mut v = [R::ZERO; 3];
    for (e, pr) in pairs.iter().enumerate() {
        let r = R::from_f64(pr.r);
        let uh = [
            R::from_f64(pr.dr.x / pr.r),
            R::from_f64(pr.dr.y / pr.r),
            R::from_f64(pr.dr.z / pr.r),
        ];
        let pt = 3 * si + species_index(species[pr.j]);
        scratch.r[e] = r;
        scratch.uhat[e] = uh;
        scratch.pt[e] = pt;
        let bk = &mut scratch.b[e * kdim..(e + 1) * kdim];
        let dbk = &mut scratch.db[e * kdim..(e + 1) * kdim];
        basis(cfg.rcut, r, bk, dbk);
        let x0e = &mut scratch.x0[e * hdim..(e + 1) * hdim];
        let d0e = &mut scratch.d0[e * hdim..(e + 1) * hdim];
        let h0e = &mut scratch.h0[e * hdim..(e + 1) * hdim];
        let mut a_e = R::ZERO;
        for (h, ((x0h, d0h), h0h)) in x0e.iter_mut().zip(d0e).zip(h0e).enumerate() {
            let row = pt * hdim + h;
            let mut acc = b0[row];
            for (&w, &bv) in w0[row * kdim..(row + 1) * kdim].iter().zip(bk.iter()) {
                acc += w * bv;
            }
            *x0h = acc;
            *d0h = silu_denom(acc);
            let hh = silu(acc, *d0h);
            *h0h = hh;
            a_e += wv[h] * hh;
        }
        scratch.a[e] = a_e;
        v[0] += uh[0] * a_e;
        v[1] += uh[1] * a_e;
        v[2] += uh[2] * a_e;
    }
    let q = dot(v, v);
    // ---- layer 1 + energy ----
    let layer1 = scratch
        .x1
        .chunks_exact_mut(hdim)
        .zip(scratch.d1.chunks_exact_mut(hdim));
    for (e, (x1e, d1e)) in layer1.enumerate() {
        let p_e = dot(v, scratch.uhat[e]);
        let h0e = &scratch.h0[e * hdim..(e + 1) * hdim];
        for (h, (x1h, d1h)) in x1e.iter_mut().zip(d1e).enumerate() {
            let urow = &u[h * (hdim + 2)..(h + 1) * (hdim + 2)];
            let mut acc = b1[h];
            for (&uz, &h0z) in urow.iter().zip(h0e) {
                acc += uz * h0z;
            }
            acc += urow[hdim] * q;
            acc += urow[hdim + 1] * p_e;
            *x1h = acc;
            *d1h = silu_denom(acc);
            energy += we[h] * silu(acc, *d1h);
        }
    }
    // ---- reverse pass A: gq, gp, gh0 through layer 1 ----
    let mut gq = R::ZERO;
    let layer1 = scratch
        .x1
        .chunks_exact(hdim)
        .zip(scratch.d1.chunks_exact(hdim));
    for (e, (x1e, d1e)) in layer1.enumerate() {
        let gh0e = &mut scratch.gh0[e * hdim..(e + 1) * hdim];
        for (h, (&x1h, &d1h)) in x1e.iter().zip(d1e).enumerate() {
            let urow = &u[h * (hdim + 2)..(h + 1) * (hdim + 2)];
            let gx1 = we[h] * silu_deriv(x1h, d1h);
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
        let d0e = &scratch.d0[e * hdim..(e + 1) * hdim];
        let gh0e = &scratch.gh0[e * hdim..(e + 1) * hdim];
        let dbe = &scratch.db[e * kdim..(e + 1) * kdim];
        let mut gr = R::ZERO;
        for (h, ((&x0h, &d0h), &gh0l1)) in x0e.iter().zip(d0e).zip(gh0e).enumerate() {
            let gh0 = gh0l1 + wv[h] * ga;
            let gx0 = gh0 * silu_deriv(x0h, d0h);
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
