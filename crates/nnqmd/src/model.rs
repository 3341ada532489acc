//! Allegro-lite: a strictly-local equivariant neural-network potential
//! with hand-written reverse-mode differentiation.
//!
//! Architecture (per directed edge i→j within `rcut`):
//!
//! ```text
//! B      = radial Bessel features of r_ij                    (K)
//! h0     = silu(W0[pair(s_i,s_j)]·B + b0[pair])              (H)   scalars
//! a_ij   = wv·h0                                             (1)   vector weight
//! V_i    = Σ_j a_ij û_ij                                     (3)   EQUIVARIANT
//! q_i    = |V_i|²,   p_ij = V_i·û_ij                               invariants
//! h1     = silu(U·[h0, q_i, p_ij] + b1)                      (H)
//! e_ij   = we·h1,    E = Σ_i c_{s_i} + Σ_{ij} e_ij
//! ```
//!
//! The only geometric objects are `r_ij` and `û_ij`; every learned weight
//! multiplies an invariant, so `E` is exactly invariant under global
//! rotations, translations, and permutations of identical atoms — the
//! group-theoretic equivariance the Allegro family is built on (paper
//! Sec. V.A.6), property-tested below. Forces and parameter gradients are
//! exact reverse-mode derivatives (no autodiff framework — this crate *is*
//! the framework), checked against finite differences.

use crate::basis::RadialBasis;
use mlmd_numerics::bf16::bf16;
use mlmd_numerics::complex::Real;
use mlmd_numerics::rng::{Rng64, Xoshiro256};
use mlmd_numerics::vec3::Vec3;
use mlmd_qxmd::atoms::Species;
use mlmd_qxmd::neighbor::CellList;

/// Hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Hidden width H.
    pub hidden: usize,
    /// Radial basis size K.
    pub k_max: usize,
    /// Cutoff radius (Å). Paper uses 5.2 Å for PbTiO3.
    pub rcut: f64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            hidden: 16,
            k_max: 8,
            rcut: 5.2,
        }
    }
}

/// Flat-parameter offsets.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Offsets {
    pub(crate) w0: usize,
    pub(crate) b0: usize,
    pub(crate) wv: usize,
    pub(crate) u: usize,
    pub(crate) b1: usize,
    pub(crate) we: usize,
    pub(crate) shifts: usize,
    pub(crate) total: usize,
}

impl Offsets {
    pub(crate) fn new(h: usize, k: usize) -> Self {
        let w0 = 0;
        let b0 = w0 + 9 * h * k;
        let wv = b0 + 9 * h;
        let u = wv + h;
        let b1 = u + h * (h + 2);
        let we = b1 + h;
        let shifts = we + h;
        let total = shifts + 3;
        Self {
            w0,
            b0,
            wv,
            u,
            b1,
            we,
            shifts,
            total,
        }
    }
}

pub(crate) fn species_index(s: Species) -> usize {
    match s {
        Species::Pb => 0,
        Species::Ti => 1,
        Species::O => 2,
    }
}

/// `d = 1 + e^(−x)`: the one exponential [`silu`] and [`silu_deriv`] of
/// the same `x` share (the latter through the sigmoid `1/d`).
#[inline]
pub(crate) fn silu_denom<R: Real>(x: R) -> R {
    R::ONE + (-x).exp()
}

/// `silu(x) = x / (1 + e^(−x))`, given `d = silu_denom(x)`.
#[inline]
pub(crate) fn silu<R: Real>(x: R, d: R) -> R {
    x / d
}

/// `silu'(x) = s·(1 + x·(1 − s))`, given the sigmoid `s = 1/silu_denom(x)`.
#[inline]
pub(crate) fn silu_deriv<R: Real>(x: R, s: R) -> R {
    s * (R::ONE + x * (R::ONE - s))
}

/// Energy + forces of one evaluation.
#[derive(Clone, Debug)]
pub struct EvalResult {
    pub energy: f64,
    pub forces: Vec<Vec3>,
}

/// The model: configuration plus a flat parameter vector.
#[derive(Clone, Debug)]
pub struct AllegroLite {
    pub cfg: ModelConfig,
    pub basis: RadialBasis,
    pub params: Vec<f64>,
    off: Offsets,
}

impl AllegroLite {
    /// Random small-weight initialization (deterministic per seed).
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        let off = Offsets::new(cfg.hidden, cfg.k_max);
        let mut rng = Xoshiro256::new(seed);
        let scale_in = (1.0 / cfg.k_max as f64).sqrt();
        let scale_h = (1.0 / (cfg.hidden + 2) as f64).sqrt();
        let mut params = vec![0.0; off.total];
        for (idx, p) in params.iter_mut().enumerate() {
            let g = rng.normal(0.0, 1.0);
            *p = if idx < off.b0 {
                g * scale_in
            } else if idx >= off.u && idx < off.b1 {
                g * scale_h
            } else if idx >= off.we && idx < off.shifts {
                g * 0.1
            } else if idx >= off.shifts {
                0.0
            } else if idx >= off.wv && idx < off.u {
                g * 0.3
            } else {
                0.0 // biases
            };
        }
        Self {
            cfg,
            basis: RadialBasis::new(cfg.k_max, cfg.rcut),
            params,
            off,
        }
    }

    pub fn n_params(&self) -> usize {
        self.off.total
    }

    #[inline]
    fn w0(&self, pt: usize, h: usize, k: usize) -> f64 {
        self.params[self.off.w0 + (pt * self.cfg.hidden + h) * self.cfg.k_max + k]
    }

    #[inline]
    fn b0(&self, pt: usize, h: usize) -> f64 {
        self.params[self.off.b0 + pt * self.cfg.hidden + h]
    }

    #[inline]
    fn wv(&self, h: usize) -> f64 {
        self.params[self.off.wv + h]
    }

    #[inline]
    fn u(&self, h: usize, z: usize) -> f64 {
        self.params[self.off.u + h * (self.cfg.hidden + 2) + z]
    }

    #[inline]
    fn b1(&self, h: usize) -> f64 {
        self.params[self.off.b1 + h]
    }

    #[inline]
    fn we(&self, h: usize) -> f64 {
        self.params[self.off.we + h]
    }

    #[inline]
    fn shift(&self, s: usize) -> f64 {
        self.params[self.off.shifts + s]
    }

    /// Energy and forces.
    pub fn evaluate(
        &self,
        species: &[Species],
        positions: &[Vec3],
        box_lengths: Vec3,
    ) -> EvalResult {
        self.forward(species, positions, box_lengths, false).0
    }

    /// Energy, forces, and the exact parameter gradient `dE/dθ`.
    pub fn evaluate_grad(
        &self,
        species: &[Species],
        positions: &[Vec3],
        box_lengths: Vec3,
    ) -> (EvalResult, Vec<f64>) {
        let (res, g) = self.forward(species, positions, box_lengths, true);
        (res, g.expect("param grads requested"))
    }

    fn forward(
        &self,
        species: &[Species],
        positions: &[Vec3],
        box_lengths: Vec3,
        want_pgrad: bool,
    ) -> (EvalResult, Option<Vec<f64>>) {
        let n = positions.len();
        assert_eq!(species.len(), n);
        let hdim = self.cfg.hidden;
        let kdim = self.cfg.k_max;
        let lists =
            CellList::build(positions, box_lengths, self.cfg.rcut).neighbor_lists(positions);
        let mut energy = 0.0;
        let mut forces = vec![Vec3::ZERO; n];
        let mut pgrad = if want_pgrad {
            Some(vec![0.0; self.off.total])
        } else {
            None
        };
        // Per-species constant shifts.
        for &s in species {
            energy += self.shift(species_index(s));
            if let Some(g) = pgrad.as_deref_mut() {
                g[self.off.shifts + species_index(s)] += 1.0;
            }
        }
        // Scratch buffers reused across atoms (workhorse pattern).
        let mut bvals = vec![0.0; kdim];
        let mut dbvals = vec![0.0; kdim];
        struct EdgeCache {
            j: usize,
            r: f64,
            uhat: Vec3,
            b: Vec<f64>,
            db: Vec<f64>,
            x0: Vec<f64>,
            h0: Vec<f64>,
            a: f64,
            pt: usize,
        }
        for i in 0..n {
            let si = species_index(species[i]);
            let edges_in = lists.of(i);
            if edges_in.is_empty() {
                continue;
            }
            // ---- forward over this atom's edges ----
            let mut edges: Vec<EdgeCache> = Vec::with_capacity(edges_in.len());
            let mut v_i = Vec3::ZERO;
            for pr in edges_in {
                let r = pr.r;
                let uhat = pr.dr / r;
                let pt = 3 * si + species_index(species[pr.j]);
                self.basis.eval_with_deriv(r, &mut bvals, &mut dbvals);
                let mut x0 = vec![0.0; hdim];
                let mut h0 = vec![0.0; hdim];
                for h in 0..hdim {
                    let mut acc = self.b0(pt, h);
                    for (k, &bv) in bvals.iter().enumerate().take(kdim) {
                        acc += self.w0(pt, h, k) * bv;
                    }
                    x0[h] = acc;
                    h0[h] = silu(acc, silu_denom(acc));
                }
                let mut a = 0.0;
                for (h, &h0h) in h0.iter().enumerate() {
                    a += self.wv(h) * h0h;
                }
                v_i += uhat * a;
                edges.push(EdgeCache {
                    j: pr.j,
                    r,
                    uhat,
                    b: bvals.clone(),
                    db: dbvals.clone(),
                    x0,
                    h0,
                    a,
                    pt,
                });
            }
            let q_i = v_i.norm_sqr();
            // Layer 1 per edge + energy; cache x1/h1/z tail.
            struct Layer1Cache {
                x1: Vec<f64>,
                h1: Vec<f64>,
                p: f64,
            }
            let mut l1: Vec<Layer1Cache> = Vec::with_capacity(edges.len());
            for e in &edges {
                let p = v_i.dot(e.uhat);
                let mut x1 = vec![0.0; hdim];
                let mut h1 = vec![0.0; hdim];
                for h in 0..hdim {
                    let mut acc = self.b1(h);
                    for z in 0..hdim {
                        acc += self.u(h, z) * e.h0[z];
                    }
                    acc += self.u(h, hdim) * q_i;
                    acc += self.u(h, hdim + 1) * p;
                    x1[h] = acc;
                    h1[h] = silu(acc, silu_denom(acc));
                }
                for (h, &h1h) in h1.iter().enumerate() {
                    energy += self.we(h) * h1h;
                }
                l1.push(Layer1Cache { x1, h1, p });
            }
            // ---- reverse ----
            // Pass A: per-edge gradients into h0 (layer-1 path), gq, gp.
            let mut gq_i = 0.0;
            let mut gp: Vec<f64> = vec![0.0; edges.len()];
            let mut gh0_l1: Vec<Vec<f64>> = vec![vec![0.0; hdim]; edges.len()];
            for (eidx, (e, c)) in edges.iter().zip(&l1).enumerate() {
                let _ = e;
                for h in 0..hdim {
                    let gx1 = self.we(h) * silu_deriv(c.x1[h], 1.0 / silu_denom(c.x1[h]));
                    if let Some(g) = pgrad.as_deref_mut() {
                        g[self.off.we + h] += c.h1[h];
                        g[self.off.b1 + h] += gx1;
                        for z in 0..hdim {
                            g[self.off.u + h * (hdim + 2) + z] += gx1 * edges[eidx].h0[z];
                        }
                        g[self.off.u + h * (hdim + 2) + hdim] += gx1 * q_i;
                        g[self.off.u + h * (hdim + 2) + hdim + 1] += gx1 * c.p;
                    }
                    for (z, g0) in gh0_l1[eidx].iter_mut().enumerate() {
                        *g0 += gx1 * self.u(h, z);
                    }
                    gq_i += gx1 * self.u(h, hdim);
                    gp[eidx] += gx1 * self.u(h, hdim + 1);
                }
            }
            // Vector-channel gradient.
            let mut gv = v_i * (2.0 * gq_i);
            for (eidx, e) in edges.iter().enumerate() {
                gv += e.uhat * gp[eidx];
            }
            // Pass B: finish per-edge chains and write forces.
            for (eidx, e) in edges.iter().enumerate() {
                let ga = e.uhat.dot(gv);
                // h0 gradient: layer-1 path + vector-weight path.
                let mut gr = 0.0; // dE/dr for this edge
                for h in 0..hdim {
                    let gh0 = gh0_l1[eidx][h] + self.wv(h) * ga;
                    let gx0 = gh0 * silu_deriv(e.x0[h], 1.0 / silu_denom(e.x0[h]));
                    if let Some(g) = pgrad.as_deref_mut() {
                        g[self.off.wv + h] += e.h0[h] * ga;
                        g[self.off.b0 + e.pt * hdim + h] += gx0;
                        for k in 0..kdim {
                            g[self.off.w0 + (e.pt * hdim + h) * kdim + k] += gx0 * e.b[k];
                        }
                    }
                    // dE/dr through the radial basis.
                    for k in 0..kdim {
                        gr += gx0 * self.w0(e.pt, h, k) * e.db[k];
                    }
                }
                // Unit-vector gradient: from p and from V.
                let gu_total = v_i * gp[eidx] + gv * e.a;
                // d û/d dr = (I − û ûᵀ)/r.
                let g_dr = e.uhat * gr + (gu_total - e.uhat * e.uhat.dot(gu_total)) / e.r;
                // dr = r_j − r_i.
                forces[e.j] -= g_dr;
                forces[i] += g_dr;
            }
        }
        (EvalResult { energy, forces }, pgrad)
    }
}

/// BF16-storage / f32-accumulate network: the oneMKL `float_to_BF16`
/// compute mode of paper Sec. VI.C applied to the network. Every learned
/// parameter is rounded to bf16 (round-to-nearest-even,
/// [`bf16::quantize`]) and widened back to f32; the inference kernel then
/// runs at `f32` over these parameters.
///
/// Accuracy envelope: bf16 keeps 8 mantissa bits, so each parameter
/// carries a relative error ≤ 2⁻⁸ ≈ 3.9×10⁻³; the shallow two-layer
/// network amplifies this by a small factor. Forces stay within
/// [`crate::infer::BF16_FORCE_RTOL`] of the peak f64 force magnitude
/// (property-tested across random networks in `infer.rs`).
#[derive(Clone, Debug)]
pub struct QuantizedModel {
    pub(crate) cfg: ModelConfig,
    /// Parameters quantized through bf16, stored widened to f32.
    pub(crate) params: Vec<f32>,
}

impl QuantizedModel {
    /// Quantize an f64 reference model through bf16 storage.
    pub fn from_model(model: &AllegroLite) -> Self {
        let params = model
            .params
            .iter()
            .map(|&p| bf16::quantize(p as f32))
            .collect();
        Self {
            cfg: model.cfg,
            params,
        }
    }

    pub fn n_params(&self) -> usize {
        self.params.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{block_evaluate_many_bf16, ForceRequest};

    /// A small random cluster in a huge box (effectively open boundary,
    /// so rotations are exact symmetries).
    fn cluster(n: usize, seed: u64) -> (Vec<Species>, Vec<Vec3>, Vec3) {
        let mut rng = Xoshiro256::new(seed);
        let species: Vec<Species> = (0..n)
            .map(|i| match i % 3 {
                0 => Species::Pb,
                1 => Species::Ti,
                _ => Species::O,
            })
            .collect();
        let positions: Vec<Vec3> = (0..n)
            .map(|_| {
                Vec3::new(
                    50.0 + rng.range(-3.0, 3.0),
                    50.0 + rng.range(-3.0, 3.0),
                    50.0 + rng.range(-3.0, 3.0),
                )
            })
            .collect();
        (species, positions, Vec3::splat(100.0))
    }

    fn rotate_z(v: Vec3, th: f64) -> Vec3 {
        Vec3::new(
            v.x * th.cos() - v.y * th.sin(),
            v.x * th.sin() + v.y * th.cos(),
            v.z,
        )
    }

    #[test]
    fn forces_are_exact_gradients() {
        let (species, positions, bl) = cluster(8, 1);
        let model = AllegroLite::new(ModelConfig::default(), 7);
        let res = model.evaluate(&species, &positions, bl);
        let h = 1e-6;
        for atom in [0usize, 3, 7] {
            for axis in 0..3 {
                let mut plus = positions.clone();
                plus[atom][axis] += h;
                let mut minus = positions.clone();
                minus[atom][axis] -= h;
                let ep = model.evaluate(&species, &plus, bl).energy;
                let em = model.evaluate(&species, &minus, bl).energy;
                let f_num = -(ep - em) / (2.0 * h);
                let f_ana = res.forces[atom][axis];
                assert!(
                    (f_ana - f_num).abs() < 1e-6 * (1.0 + f_num.abs()),
                    "atom {atom} axis {axis}: {f_ana} vs {f_num}"
                );
            }
        }
    }

    #[test]
    fn param_gradients_are_exact() {
        let (species, positions, bl) = cluster(6, 2);
        let mut model = AllegroLite::new(
            ModelConfig {
                hidden: 6,
                k_max: 4,
                rcut: 5.2,
            },
            3,
        );
        let (_, g) = model.evaluate_grad(&species, &positions, bl);
        let h = 1e-6;
        // Spot-check a spread of parameter indices.
        let n = model.n_params();
        for idx in [0, n / 7, n / 3, n / 2, 2 * n / 3, n - 1] {
            let orig = model.params[idx];
            model.params[idx] = orig + h;
            let ep = model.evaluate(&species, &positions, bl).energy;
            model.params[idx] = orig - h;
            let em = model.evaluate(&species, &positions, bl).energy;
            model.params[idx] = orig;
            let fd = (ep - em) / (2.0 * h);
            assert!(
                (g[idx] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                "param {idx}: analytic {} vs fd {fd}",
                g[idx]
            );
        }
    }

    #[test]
    fn translation_invariance() {
        let (species, positions, bl) = cluster(7, 3);
        let model = AllegroLite::new(ModelConfig::default(), 11);
        let e0 = model.evaluate(&species, &positions, bl).energy;
        let shifted: Vec<Vec3> = positions
            .iter()
            .map(|&p| p + Vec3::new(1.37, -2.11, 0.55))
            .collect();
        let e1 = model.evaluate(&species, &shifted, bl).energy;
        assert!((e0 - e1).abs() < 1e-10, "{e0} vs {e1}");
    }

    #[test]
    fn rotation_equivariance() {
        let (species, positions, bl) = cluster(9, 4);
        let model = AllegroLite::new(ModelConfig::default(), 13);
        let center = Vec3::splat(50.0);
        let th = 0.83;
        let rotated: Vec<Vec3> = positions
            .iter()
            .map(|&p| center + rotate_z(p - center, th))
            .collect();
        let r0 = model.evaluate(&species, &positions, bl);
        let r1 = model.evaluate(&species, &rotated, bl);
        assert!(
            (r0.energy - r1.energy).abs() < 1e-9,
            "energy not invariant: {} vs {}",
            r0.energy,
            r1.energy
        );
        for (f0, f1) in r0.forces.iter().zip(&r1.forces) {
            let fr = rotate_z(*f0, th);
            assert!(
                (fr - *f1).norm() < 1e-9,
                "forces must co-rotate: {fr:?} vs {f1:?}"
            );
        }
    }

    #[test]
    fn permutation_invariance() {
        let (mut species, mut positions, bl) = cluster(6, 5);
        // Make atoms 0 and 3 the same species, then swap them.
        species[0] = Species::O;
        species[3] = Species::O;
        let model = AllegroLite::new(ModelConfig::default(), 17);
        let e0 = model.evaluate(&species, &positions, bl).energy;
        positions.swap(0, 3);
        let e1 = model.evaluate(&species, &positions, bl).energy;
        assert!((e0 - e1).abs() < 1e-10);
    }

    #[test]
    fn newton_third_law() {
        let (species, positions, bl) = cluster(10, 6);
        let model = AllegroLite::new(ModelConfig::default(), 19);
        let res = model.evaluate(&species, &positions, bl);
        let total: Vec3 = res.forces.iter().copied().sum();
        assert!(total.norm() < 1e-9, "forces must sum to zero: {total:?}");
    }

    #[test]
    fn species_sensitivity() {
        let (mut species, positions, bl) = cluster(6, 7);
        let model = AllegroLite::new(ModelConfig::default(), 23);
        let e0 = model.evaluate(&species, &positions, bl).energy;
        species[2] = Species::Pb;
        let e1 = model.evaluate(&species, &positions, bl).energy;
        assert!((e0 - e1).abs() > 1e-9, "species must matter");
    }

    #[test]
    fn isolated_atoms_only_have_shifts() {
        let species = vec![Species::Ti, Species::O];
        let positions = vec![Vec3::new(10.0, 10.0, 10.0), Vec3::new(40.0, 40.0, 40.0)];
        let mut model = AllegroLite::new(ModelConfig::default(), 29);
        let o = model.off;
        model.params[o.shifts] = 1.0; // Pb
        model.params[o.shifts + 1] = 2.0; // Ti
        model.params[o.shifts + 2] = 4.0; // O
        let res = model.evaluate(&species, &positions, Vec3::splat(100.0));
        assert!((res.energy - 6.0).abs() < 1e-12);
        assert!(res.forces.iter().all(|f| f.norm() < 1e-12));
    }

    #[test]
    fn periodic_images_seen() {
        // Two atoms separated across the boundary must interact.
        let species = vec![Species::Ti, Species::O];
        let positions = vec![Vec3::new(0.5, 5.0, 5.0), Vec3::new(9.5, 5.0, 5.0)];
        let model = AllegroLite::new(ModelConfig::default(), 31);
        let res = model.evaluate(&species, &positions, Vec3::splat(10.0));
        assert!(
            res.forces[0].norm() > 1e-8,
            "periodic pair at distance 1.0 must interact"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (species, positions, bl) = cluster(8, 8);
        let m1 = AllegroLite::new(ModelConfig::default(), 37);
        let m2 = AllegroLite::new(ModelConfig::default(), 37);
        assert_eq!(
            m1.evaluate(&species, &positions, bl).energy,
            m2.evaluate(&species, &positions, bl).energy
        );
    }

    /// Full quantized-path evaluation over a system.
    fn quantized_evaluate(
        qm: &QuantizedModel,
        species: &[Species],
        positions: &[Vec3],
        bl: Vec3,
    ) -> (f64, Vec<Vec3>) {
        let rq = ForceRequest {
            species,
            positions,
            box_lengths: bl,
            n_batches: 1,
        };
        let res = block_evaluate_many_bf16(qm, &[rq]).remove(0);
        (res.energy, res.forces)
    }

    #[test]
    fn quantized_params_are_bf16_representable() {
        let model = AllegroLite::new(ModelConfig::default(), 43);
        let qm = QuantizedModel::from_model(&model);
        assert_eq!(qm.n_params(), model.n_params());
        for &p in &qm.params {
            assert_eq!(bf16::quantize(p), p, "quantization must be idempotent");
        }
    }

    #[test]
    fn quantized_tracks_f64_reference() {
        let (species, positions, bl) = cluster(12, 21);
        let model = AllegroLite::new(ModelConfig::default(), 47);
        let reference = model.evaluate(&species, &positions, bl);
        let qm = QuantizedModel::from_model(&model);
        let (energy, forces) = quantized_evaluate(&qm, &species, &positions, bl);
        let fmax = reference
            .forces
            .iter()
            .map(|f| f.norm())
            .fold(0.0_f64, f64::max);
        assert!(
            (energy - reference.energy).abs() < 0.02 * reference.energy.abs().max(1.0),
            "energy {energy} vs {}",
            reference.energy
        );
        for (a, b) in forces.iter().zip(&reference.forces) {
            let err = (*a - *b).norm();
            assert!(
                err < 0.05 * fmax + 1e-4,
                "force error {err} too large (fmax {fmax})"
            );
        }
    }

    #[test]
    fn quantized_obeys_newtons_third_law() {
        // Per-edge ± accumulation cancels pairwise, so the total force is
        // zero to f64 summation noise even on the quantized surface.
        let (species, positions, bl) = cluster(10, 6);
        let model = AllegroLite::new(ModelConfig::default(), 19);
        let qm = QuantizedModel::from_model(&model);
        let (_, forces) = quantized_evaluate(&qm, &species, &positions, bl);
        let total: Vec3 = forces.iter().copied().sum();
        assert!(total.norm() < 1e-9, "forces must sum to zero: {total:?}");
    }

    #[test]
    fn quantized_is_deterministic() {
        let (species, positions, bl) = cluster(9, 14);
        let model = AllegroLite::new(ModelConfig::default(), 53);
        let q1 = QuantizedModel::from_model(&model);
        let q2 = QuantizedModel::from_model(&model);
        let (e1, f1) = quantized_evaluate(&q1, &species, &positions, bl);
        let (e2, f2) = quantized_evaluate(&q2, &species, &positions, bl);
        assert_eq!(e1.to_bits(), e2.to_bits());
        for (a, b) in f1.iter().zip(&f2) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
        }
    }

    #[test]
    fn quantized_forces_approximate_quantized_energy_gradient() {
        // The f32 reverse pass must be the exact-in-structure gradient of
        // the f32 forward; against a central difference of the quantized
        // energy the residual is only f32 rounding noise.
        let (species, positions, bl) = cluster(8, 1);
        let model = AllegroLite::new(ModelConfig::default(), 7);
        let qm = QuantizedModel::from_model(&model);
        let (_, forces) = quantized_evaluate(&qm, &species, &positions, bl);
        let h = 1e-3;
        let fscale = forces.iter().map(|f| f.norm()).fold(0.0_f64, f64::max);
        for atom in [0usize, 5] {
            for axis in 0..3 {
                let mut plus = positions.clone();
                plus[atom][axis] += h;
                let mut minus = positions.clone();
                minus[atom][axis] -= h;
                let (ep, _) = quantized_evaluate(&qm, &species, &plus, bl);
                let (em, _) = quantized_evaluate(&qm, &species, &minus, bl);
                let f_num = -(ep - em) / (2.0 * h);
                let f_ana = forces[atom][axis];
                assert!(
                    (f_ana - f_num).abs() < 5e-3 * (1.0 + fscale),
                    "atom {atom} axis {axis}: {f_ana} vs {f_num}"
                );
            }
        }
    }
}
