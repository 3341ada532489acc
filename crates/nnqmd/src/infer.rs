//! Block model inference (paper Sec. V.B.9).
//!
//! "The neighbor-list tensor has a large prefactor, about 50–200 … we
//! block the model inference calculation in two batches to overcome the
//! limitation in the system scalability and have achieved an
//! order-of-magnitude larger system size."
//!
//! One blocking loop serves every precision: it runs the one neighbour
//! search of `mlmd_qxmd::neighbor` once per request — flat lists, each in
//! ascending neighbour index, O(N) in any box shape — partitions the atoms
//! into batches that bound the modeled device working set, and runs the
//! per-centre kernel (`kernel.rs`, generic over precision) directly on the
//! cached pairs. Energy is summed per atom in index order, so the result
//! is bit-invariant under the blocking factor at either precision and
//! agrees with the monolithic [`AllegroLite::evaluate`] to rounding (both
//! asserted in tests). A request's heap allocations are a fixed number,
//! independent of its atom count (pinned in `tests/work_counts.rs`).
//!
//! The f64 results are pinned by `to_bits` digests on the 160- and
//! 640-atom perovskite slabs, and checked outward: forces equal −∇E by
//! central differences at atoms whose neighbours lie across the periodic
//! boundary, and sum to zero.

use crate::kernel::{accumulate_center, KernelReal, Scratch};
use crate::model::{AllegroLite, ModelConfig, QuantizedModel};
use mlmd_numerics::vec3::Vec3;
use mlmd_qxmd::atoms::Species;
use mlmd_qxmd::neighbor::CellList;
use std::ops::Range;

/// Numeric precision of the inference kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InferPrecision {
    /// f64 kernel over the reference parameters.
    #[default]
    F64,
    /// f32 kernel over bf16-rounded parameters ([`QuantizedModel`]): half
    /// the parameter bytes, forces within the documented envelope below.
    Bf16,
}

/// Documented force-accuracy envelope of the bf16 path: for any system,
///
/// ```text
/// max_i |F_bf16(i) − F_f64(i)| ≤ BF16_FORCE_RTOL · max_i |F_f64(i)| + BF16_FORCE_ATOL
/// ```
///
/// The bf16 parameter rounding carries ≤ 2⁻⁸ ≈ 3.9×10⁻³ relative error
/// per weight; the shallow two-layer network and the force chain rule
/// amplify it by a small factor. The constants below are calibrated with
/// margin over the worst case observed across randomized networks and
/// configurations (property-tested in this module).
pub const BF16_FORCE_RTOL: f64 = 5e-2;
/// Absolute floor of the force envelope (eV/Å) for near-zero force fields.
pub const BF16_FORCE_ATOL: f64 = 1e-4;
/// Energy envelope of the bf16 path, per atom (eV): the per-atom energies
/// are O(1) in the shifted network, and bf16 rounding perturbs each by
/// O(2⁻⁸) times the activation scale.
pub const BF16_ENERGY_ATOL_PER_ATOM: f64 = 2e-2;

/// Result of a blocked inference.
#[derive(Clone, Debug)]
pub struct BlockEvalResult {
    pub energy: f64,
    pub forces: Vec<Vec3>,
    /// Peak bytes of the modeled neighbor-list working set across batches.
    pub peak_neighbor_bytes: u64,
    pub n_batches: usize,
}

/// Bytes per neighbor entry in the modeled device layout
/// (edge vector 3×f32 + distance f32 + index u32 + features ~ 48B → use a
/// representative 64 bytes, the "50–200× prefactor" regime of the paper).
/// Edge features stored in bf16 halve it.
pub const BYTES_PER_NEIGHBOR: u64 = 64;

/// One domain's force request in a cross-domain batched evaluation.
///
/// Multiple divide-and-conquer domains (or MD replicas) advance in
/// lockstep; instead of each issuing its own `block_evaluate`, the driver
/// collects one `ForceRequest` per domain and issues a single
/// [`block_evaluate_many`] per MD step.
#[derive(Clone, Copy)]
pub struct ForceRequest<'a> {
    pub species: &'a [Species],
    pub positions: &'a [Vec3],
    pub box_lengths: Vec3,
    /// Per-request neighbor-list blocking factor (Sec. V.B.9).
    pub n_batches: usize,
}

/// The blocking loop: energy and forces contributed by the centres in
/// `atoms` of one request (all of them, or the block a rank owns),
/// evaluated batch by batch with the kernel at precision `R`.
pub(crate) fn evaluate_centres<R: KernelReal>(
    cfg: &ModelConfig,
    params: &[R],
    bytes_per_neighbor: u64,
    scratch: &mut Scratch<R>,
    rq: &ForceRequest<'_>,
    atoms: Range<usize>,
) -> BlockEvalResult {
    assert!(rq.n_batches >= 1);
    let lists =
        CellList::build(rq.positions, rq.box_lengths, cfg.rcut).neighbor_lists(rq.positions);
    let mut energy = 0.0;
    let mut forces = vec![Vec3::ZERO; rq.positions.len()];
    let mut peak = 0u64;
    // `step_by` needs a non-zero step even when `atoms` is empty.
    let batch_size = atoms.len().div_ceil(rq.n_batches).max(1);
    for lo in atoms.clone().step_by(batch_size) {
        let hi = (lo + batch_size).min(atoms.end);
        // Working set: the neighbor entries of this batch only.
        let batch_neighbors = lists.span(lo..hi).len();
        peak = peak.max(batch_neighbors as u64 * bytes_per_neighbor);
        for i in lo..hi {
            let neigh = lists.of(i);
            energy += accumulate_center(cfg, params, scratch, rq.species, neigh, i, &mut forces);
        }
    }
    BlockEvalResult {
        energy,
        forces,
        peak_neighbor_bytes: peak,
        n_batches: rq.n_batches,
    }
}

/// Every request through [`evaluate_centres`], sharing one scratch.
fn evaluate_requests<R: KernelReal>(
    cfg: &ModelConfig,
    params: &[R],
    bytes_per_neighbor: u64,
    requests: &[ForceRequest<'_>],
) -> Vec<BlockEvalResult> {
    let mut scratch = Scratch::new();
    requests
        .iter()
        .map(|rq| {
            let atoms = 0..rq.positions.len();
            evaluate_centres(cfg, params, bytes_per_neighbor, &mut scratch, rq, atoms)
        })
        .collect()
}

/// Evaluate energy/forces batch-by-batch over atom blocks at f64.
pub fn block_evaluate(
    model: &AllegroLite,
    species: &[Species],
    positions: &[Vec3],
    box_lengths: Vec3,
    n_batches: usize,
) -> BlockEvalResult {
    let rq = ForceRequest {
        species,
        positions,
        box_lengths,
        n_batches,
    };
    block_evaluate_many(model, &[rq]).remove(0)
}

/// Serve every domain's force request with one f64 inference call.
///
/// Each request is evaluated with exactly the per-request partitioning of
/// [`block_evaluate`], so `block_evaluate_many(&[r])[0]` is bit-identical
/// to `block_evaluate(r)` — aggregation changes *where* inference runs,
/// never *what* it computes (asserted in tests).
pub fn block_evaluate_many(
    model: &AllegroLite,
    requests: &[ForceRequest<'_>],
) -> Vec<BlockEvalResult> {
    evaluate_requests(&model.cfg, &model.params, BYTES_PER_NEIGHBOR, requests)
}

/// [`block_evaluate_many`] on the bf16-storage / f32-accumulate network.
pub fn block_evaluate_many_bf16(
    model: &QuantizedModel,
    requests: &[ForceRequest<'_>],
) -> Vec<BlockEvalResult> {
    evaluate_requests(&model.cfg, &model.params, BYTES_PER_NEIGHBOR / 2, requests)
}

/// A network owned at its inference precision: what the MD drivers hold.
/// The quantized parameters exist exactly when the precision is bf16, so
/// the two can never disagree.
pub(crate) struct InferenceModel {
    reference: AllegroLite,
    quantized: Option<QuantizedModel>,
}

impl InferenceModel {
    /// The network at [`InferPrecision::F64`].
    pub(crate) fn new(reference: AllegroLite) -> Self {
        Self {
            reference,
            quantized: None,
        }
    }

    /// Switch precision; [`InferPrecision::Bf16`] quantizes the reference
    /// parameters once, here.
    pub(crate) fn with_precision(mut self, precision: InferPrecision) -> Self {
        self.quantized = match precision {
            InferPrecision::F64 => None,
            InferPrecision::Bf16 => Some(QuantizedModel::from_model(&self.reference)),
        };
        self
    }

    pub(crate) fn precision(&self) -> InferPrecision {
        if self.quantized.is_some() {
            InferPrecision::Bf16
        } else {
            InferPrecision::F64
        }
    }

    /// One inference call over `requests` at the owned precision.
    pub(crate) fn evaluate_many(&self, requests: &[ForceRequest<'_>]) -> Vec<BlockEvalResult> {
        match &self.quantized {
            Some(quantized) => block_evaluate_many_bf16(quantized, requests),
            None => block_evaluate_many(&self.reference, requests),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use mlmd_numerics::rng::{Rng64, Xoshiro256};
    use mlmd_qxmd::atoms::AtomsSystem;
    use mlmd_qxmd::perovskite::PerovskiteLattice;

    fn setup(n: usize) -> (AllegroLite, Vec<Species>, Vec<Vec3>, Vec3) {
        setup_in_box(n, 14.0)
    }

    fn setup_in_box(n: usize, l: f64) -> (AllegroLite, Vec<Species>, Vec<Vec3>, Vec3) {
        let model = AllegroLite::new(
            ModelConfig {
                hidden: 8,
                k_max: 5,
                rcut: 4.0,
            },
            11,
        );
        let mut rng = Xoshiro256::new(5);
        let species: Vec<Species> = (0..n)
            .map(|i| match i % 3 {
                0 => Species::Pb,
                1 => Species::Ti,
                _ => Species::O,
            })
            .collect();
        let positions: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(rng.range(0.0, l), rng.range(0.0, l), rng.range(0.0, l)))
            .collect();
        (model, species, positions, Vec3::splat(l))
    }

    /// One request through the bf16 entry point.
    fn evaluate_bf16(
        qm: &QuantizedModel,
        species: &[Species],
        positions: &[Vec3],
        box_lengths: Vec3,
        n_batches: usize,
    ) -> BlockEvalResult {
        let rq = ForceRequest {
            species,
            positions,
            box_lengths,
            n_batches,
        };
        block_evaluate_many_bf16(qm, &[rq]).remove(0)
    }

    fn assert_bitwise_equal(a: &BlockEvalResult, b: &BlockEvalResult) {
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        for (fa, fb) in a.forces.iter().zip(&b.forces) {
            assert_eq!(fa.x.to_bits(), fb.x.to_bits());
            assert_eq!(fa.y.to_bits(), fb.y.to_bits());
            assert_eq!(fa.z.to_bits(), fb.z.to_bits());
        }
    }

    /// FNV-1a over the energy and every force component (`to_bits`) of
    /// each result, in order.
    fn digest(results: &[BlockEvalResult]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bits: u64| {
            for byte in bits.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for res in results {
            eat(res.energy.to_bits());
            for f in &res.forces {
                eat(f.x.to_bits());
                eat(f.y.to_bits());
                eat(f.z.to_bits());
            }
        }
        h
    }

    /// The network of the NN respond stage (`hidden` 6, `k_max` 4,
    /// `rcut` 3.5 Å) at a fixed seed.
    fn respond_model() -> AllegroLite {
        AllegroLite::new(
            ModelConfig {
                hidden: 6,
                k_max: 4,
                rcut: 3.5,
            },
            41,
        )
    }

    /// A polarized perovskite patch with every atom jittered by up to
    /// 0.08 Å per axis. Atoms on the cell faces at 0 move below 0: the
    /// positions are left unwrapped, as MD leaves them.
    fn jittered_perovskite(nx: usize, ny: usize, nz: usize) -> AtomsSystem {
        let mut sys = PerovskiteLattice::uniform(nx, ny, nz, Vec3::new(0.0, 0.0, 0.1)).system;
        let mut rng = Xoshiro256::new(2025);
        for p in &mut sys.positions {
            *p += Vec3::new(
                rng.range(-0.08, 0.08),
                rng.range(-0.08, 0.08),
                rng.range(-0.08, 0.08),
            );
        }
        sys
    }

    #[test]
    fn f64_golden_digests_are_pinned() {
        // The 640-atom 8×8×2 slab is the `nn_response_f64` shape: 2 cells
        // across z at this cutoff. Pinned at 1 and 4 batches (equal, by
        // batch invariance) and on the 160-atom 4×4×2 slab.
        let model = respond_model();
        let run = |sys: &AtomsSystem, n_batches: usize| {
            digest(&[block_evaluate(
                &model,
                &sys.species,
                &sys.positions,
                sys.box_lengths,
                n_batches,
            )])
        };
        let big = jittered_perovskite(8, 8, 2);
        assert_eq!(big.len(), 640);
        assert_eq!(run(&big, 1), 0x4a3f_fa08_132b_2937);
        assert_eq!(run(&big, 4), 0x4a3f_fa08_132b_2937);
        let small = jittered_perovskite(4, 4, 2);
        assert_eq!(run(&small, 2), 0xd317_7782_1c7e_226e);
    }

    #[test]
    fn forces_are_the_negative_gradient_across_the_periodic_boundary() {
        // An outward check: central differences of the energy, at atoms
        // with at least one neighbour reached only through a periodic
        // image, on the 9×9×2-cell slab and the 3×3×3-cell cube.
        let model = respond_model();
        let rcut = model.cfg.rcut;
        for (nx, ny, nz) in [(8, 8, 2), (3, 3, 3)] {
            let sys = jittered_perovskite(nx, ny, nz);
            let (sp, l) = (&sys.species, sys.box_lengths);
            let energy = |ps: &[Vec3]| block_evaluate(&model, sp, ps, l, 2).energy;
            let res = block_evaluate(&model, sp, &sys.positions, l, 2);
            let total = res.forces.iter().fold(Vec3::ZERO, |acc, f| acc + *f);
            assert!(total.norm() < 1e-9, "ΣF = {total:?} on {nx}×{ny}×{nz}");
            let crosses = |i: usize| {
                (0..sys.len()).any(|j| {
                    let raw = sys.positions[j] - sys.positions[i];
                    let dr = raw.min_image(l);
                    j != i && dr.norm() < rcut && (raw - dr).norm() > 1.0
                })
            };
            let atoms: Vec<usize> = (0..sys.len())
                .filter(|&i| crosses(i))
                .step_by(7)
                .take(4)
                .collect();
            assert_eq!(atoms.len(), 4);
            let h = 1e-4;
            for &i in &atoms {
                for axis in 0..3 {
                    let mut ps = sys.positions.clone();
                    ps[i][axis] += h;
                    let up = energy(&ps);
                    ps[i][axis] -= 2.0 * h;
                    let down = energy(&ps);
                    let fd = -(up - down) / (2.0 * h);
                    let f = res.forces[i][axis];
                    assert!(
                        (fd - f).abs() < 1e-6 * (1.0 + f.abs()),
                        "atom {i} axis {axis} on {nx}×{ny}×{nz}: F {f} vs −dE/dx {fd}"
                    );
                }
            }
        }
    }

    #[test]
    fn bf16_golden_digest_is_pinned() {
        // The digest of the generic kernel at `f32`, over two blocking
        // factors: any change to its floating-point program shows here.
        let model = respond_model();
        let sys = jittered_perovskite(4, 4, 2);
        assert_eq!(sys.len(), 160);
        let requests = [2usize, 3].map(|n_batches| ForceRequest {
            species: &sys.species,
            positions: &sys.positions,
            box_lengths: sys.box_lengths,
            n_batches,
        });
        let results = block_evaluate_many_bf16(&QuantizedModel::from_model(&model), &requests);
        assert_eq!(digest(&results), 0xa79d_1f5d_58fd_09cd);
    }

    #[test]
    fn bf16_envelope_holds_on_the_perovskite_fixture() {
        // The documented envelope on the canonical 3×3×3 perovskite patch
        // (the proptests below cover random networks and configurations).
        let model = AllegroLite::new(
            ModelConfig {
                hidden: 8,
                k_max: 5,
                rcut: 4.0,
            },
            1,
        );
        let sys = PerovskiteLattice::uniform(3, 3, 3, Vec3::new(0.0, 0.0, 0.2)).system;
        let (sp, ps, bl) = (&sys.species, &sys.positions, sys.box_lengths);
        let reference = block_evaluate(&model, sp, ps, bl, 2);
        let quant = evaluate_bf16(&QuantizedModel::from_model(&model), sp, ps, bl, 2);
        let fmax = reference
            .forces
            .iter()
            .map(|f| f.norm())
            .fold(0.0, f64::max);
        let ferr = (quant.forces.iter().zip(&reference.forces))
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0, f64::max);
        assert!(
            ferr <= BF16_FORCE_RTOL * fmax + BF16_FORCE_ATOL,
            "force error {ferr:.3e} (fmax {fmax:.3e})"
        );
        let eerr = (quant.energy - reference.energy).abs() / sp.len() as f64;
        assert!(
            eerr <= BF16_ENERGY_ATOL_PER_ATOM,
            "energy error/atom {eerr:.3e}"
        );
    }

    #[test]
    fn blocked_matches_monolithic() {
        let (model, sp, ps, bl) = setup(40);
        let reference = model.evaluate(&sp, &ps, bl);
        for n_batches in [1usize, 2, 4, 7] {
            let blocked = block_evaluate(&model, &sp, &ps, bl, n_batches);
            assert!(
                (blocked.energy - reference.energy).abs() < 1e-12,
                "energy mismatch at {n_batches} batches"
            );
            for (a, b) in blocked.forces.iter().zip(&reference.forces) {
                assert!(
                    (*a - *b).norm() < 1e-12,
                    "force mismatch at {n_batches} batches"
                );
            }
        }
    }

    #[test]
    fn two_batches_halve_peak_memory() {
        let (model, sp, ps, bl) = setup(60);
        let one = block_evaluate(&model, &sp, &ps, bl, 1);
        let two = block_evaluate(&model, &sp, &ps, bl, 2);
        assert!(
            two.peak_neighbor_bytes < one.peak_neighbor_bytes,
            "blocking must reduce peak memory"
        );
        let ratio = two.peak_neighbor_bytes as f64 / one.peak_neighbor_bytes as f64;
        assert!(
            (0.3..0.75).contains(&ratio),
            "two batches should roughly halve the peak, got {ratio}"
        );
    }

    #[test]
    fn bf16_path_is_batch_invariant_bitwise() {
        // Energy and forces reduce per atom in index order, so blocking
        // must not change a single bit of the output at either precision.
        let (model, sp, ps, bl) = setup(40);
        let qm = QuantizedModel::from_model(&model);
        let reference = evaluate_bf16(&qm, &sp, &ps, bl, 1);
        let reference_f64 = block_evaluate(&model, &sp, &ps, bl, 1);
        for n_batches in [2usize, 4, 7] {
            assert_bitwise_equal(&evaluate_bf16(&qm, &sp, &ps, bl, n_batches), &reference);
            assert_bitwise_equal(
                &block_evaluate(&model, &sp, &ps, bl, n_batches),
                &reference_f64,
            );
        }
    }

    #[test]
    fn bf16_blocking_still_reduces_peak_memory() {
        let (model, sp, ps, bl) = setup(60);
        let qm = QuantizedModel::from_model(&model);
        let one = evaluate_bf16(&qm, &sp, &ps, bl, 1);
        let two = evaluate_bf16(&qm, &sp, &ps, bl, 2);
        assert!(two.peak_neighbor_bytes < one.peak_neighbor_bytes);
        // And the bf16 working set is half the f64-path model.
        let f64_one = block_evaluate(&model, &sp, &ps, bl, 1);
        assert_eq!(one.peak_neighbor_bytes, f64_one.peak_neighbor_bytes / 2);
    }

    #[test]
    fn many_with_single_request_is_bit_identical() {
        let (model, sp, ps, bl) = setup(30);
        let direct = block_evaluate(&model, &sp, &ps, bl, 2);
        let many = block_evaluate_many(
            &model,
            &[ForceRequest {
                species: &sp,
                positions: &ps,
                box_lengths: bl,
                n_batches: 2,
            }],
        );
        assert_eq!(many.len(), 1);
        assert_eq!(many[0].energy.to_bits(), direct.energy.to_bits());
        for (a, b) in many[0].forces.iter().zip(&direct.forces) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    #[test]
    fn many_serves_heterogeneous_domains_bit_identically() {
        // Aggregating requests from domains of different sizes and
        // blocking factors must reproduce each standalone call exactly.
        let (model, sp1, ps1, bl1) = setup(24);
        let (_, sp2, ps2, bl2) = setup(36);
        let (_, sp3, ps3, bl3) = setup(15);
        let requests = [
            ForceRequest {
                species: &sp1,
                positions: &ps1,
                box_lengths: bl1,
                n_batches: 1,
            },
            ForceRequest {
                species: &sp2,
                positions: &ps2,
                box_lengths: bl2,
                n_batches: 3,
            },
            ForceRequest {
                species: &sp3,
                positions: &ps3,
                box_lengths: bl3,
                n_batches: 2,
            },
        ];
        let many = block_evaluate_many(&model, &requests);
        assert_eq!(many.len(), 3);
        for (res, rq) in many.iter().zip(&requests) {
            let direct = block_evaluate(
                &model,
                rq.species,
                rq.positions,
                rq.box_lengths,
                rq.n_batches,
            );
            assert_eq!(res.energy.to_bits(), direct.energy.to_bits());
            assert_eq!(res.n_batches, direct.n_batches);
            assert_eq!(res.peak_neighbor_bytes, direct.peak_neighbor_bytes);
            for (a, b) in res.forces.iter().zip(&direct.forces) {
                assert_eq!(a.x.to_bits(), b.x.to_bits());
                assert_eq!(a.y.to_bits(), b.y.to_bits());
                assert_eq!(a.z.to_bits(), b.z.to_bits());
            }
        }
    }

    #[test]
    fn many_bf16_matches_per_request_bf16() {
        let (model, sp1, ps1, bl1) = setup(24);
        let (_, sp2, ps2, bl2) = setup(31);
        let qm = QuantizedModel::from_model(&model);
        let requests = [
            ForceRequest {
                species: &sp1,
                positions: &ps1,
                box_lengths: bl1,
                n_batches: 2,
            },
            ForceRequest {
                species: &sp2,
                positions: &ps2,
                box_lengths: bl2,
                n_batches: 2,
            },
        ];
        let many = block_evaluate_many_bf16(&qm, &requests);
        for (res, rq) in many.iter().zip(&requests) {
            let direct = evaluate_bf16(&qm, rq.species, rq.positions, rq.box_lengths, rq.n_batches);
            assert_eq!(res.energy.to_bits(), direct.energy.to_bits());
            for (a, b) in res.forces.iter().zip(&direct.forces) {
                assert_eq!(a.x.to_bits(), b.x.to_bits());
            }
        }
    }

    #[test]
    fn peak_memory_supports_larger_systems() {
        // The Sec. V.B.9 claim: for a fixed memory budget, blocking admits
        // a larger system. Verify the scaling: peak(N, 2 batches) ≈
        // peak(N/2, 1 batch) at the same density.
        let (model, sp, ps, bl) = setup(80);
        let full = block_evaluate(&model, &sp, &ps, bl, 2);
        let (_, sp2, ps2, bl2) = setup_in_box(40, 14.0 / 2f64.cbrt());
        let half = block_evaluate(&model, &sp2, &ps2, bl2, 1);
        let ratio = full.peak_neighbor_bytes as f64 / half.peak_neighbor_bytes as f64;
        assert!(
            (0.5..=1.5).contains(&ratio),
            "peak(80 atoms, 2 batches) / peak(40 atoms, 1 batch) = {ratio}"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn random_case(
            seed: u64,
            n: usize,
            l: f64,
            hidden: usize,
        ) -> (AllegroLite, Vec<Species>, Vec<Vec3>, Vec3) {
            let model = AllegroLite::new(
                ModelConfig {
                    hidden,
                    k_max: 5,
                    rcut: 4.0,
                },
                seed ^ 0x9e37_79b9,
            );
            let mut rng = Xoshiro256::new(seed);
            let species: Vec<Species> = (0..n)
                .map(|i| match i % 3 {
                    0 => Species::Pb,
                    1 => Species::Ti,
                    _ => Species::O,
                })
                .collect();
            let positions: Vec<Vec3> = (0..n)
                .map(|_| Vec3::new(rng.range(0.0, l), rng.range(0.0, l), rng.range(0.0, l)))
                .collect();
            (model, species, positions, Vec3::splat(l))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]

            /// The documented bf16 accuracy envelope holds across random
            /// networks (random weights, two widths) and random
            /// configurations — the contract that licenses running MD on
            /// the quantized surface.
            #[test]
            fn bf16_forces_within_documented_envelope(
                seed in 0u64..0x4000_0000,
                n in 8usize..32,
                wide in 0usize..2,
            ) {
                let hidden = [6usize, 10][wide];
                let (model, sp, ps, bl) = random_case(seed, n, 12.0, hidden);
                let reference = block_evaluate(&model, &sp, &ps, bl, 2);
                let qm = QuantizedModel::from_model(&model);
                let quant = evaluate_bf16(&qm, &sp, &ps, bl, 2);
                let fmax = reference
                    .forces
                    .iter()
                    .map(|f| f.norm())
                    .fold(0.0_f64, f64::max);
                let bound = BF16_FORCE_RTOL * fmax + BF16_FORCE_ATOL;
                for (a, b) in quant.forces.iter().zip(&reference.forces) {
                    let err = (*a - *b).norm();
                    prop_assert!(
                        err <= bound,
                        "force error {err} exceeds envelope {bound} (fmax {fmax})"
                    );
                }
                let de = (quant.energy - reference.energy).abs();
                prop_assert!(
                    de <= BF16_ENERGY_ATOL_PER_ATOM * n as f64,
                    "energy error {de} over {n} atoms"
                );
            }

            /// Blocking factors must not change a bit of the result at
            /// either precision.
            #[test]
            fn batching_is_invariant_at_widths_1_2_4(
                seed in 0u64..4096,
                n in 8usize..36,
            ) {
                let (model, sp, ps, bl) = random_case(seed, n, 13.0, 6);
                let r1 = block_evaluate(&model, &sp, &ps, bl, 1);
                let qm = QuantizedModel::from_model(&model);
                let q1 = evaluate_bf16(&qm, &sp, &ps, bl, 1);
                for width in [2usize, 4] {
                    let rw = block_evaluate(&model, &sp, &ps, bl, width);
                    let qw = evaluate_bf16(&qm, &sp, &ps, bl, width);
                    for (wide, one) in [(&rw, &r1), (&qw, &q1)] {
                        prop_assert_eq!(wide.energy.to_bits(), one.energy.to_bits());
                        for (a, b) in wide.forces.iter().zip(&one.forces) {
                            prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
                            prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
                            prop_assert_eq!(a.z.to_bits(), b.z.to_bits());
                        }
                    }
                }
            }
        }
    }
}
