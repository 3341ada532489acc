//! Deterministic pseudo-random number generation.
//!
//! HPC reproducibility requires bit-identical streams independent of thread
//! scheduling, so the simulation crates use explicit, seedable generators
//! (SplitMix64 for seeding/light use, Xoshiro256** for long streams) rather
//! than global state. `jump()` provides independent per-rank substreams.
//!
//! Two standard-normal samplers draw from these streams, for two kinds of
//! caller, and they give different streams from the same generator state:
//!
//! * [`Rng64::next_normal`] is Box–Muller: one `ln`, `sqrt` and `cos` per
//!   draw. Its callers draw once, at initialisation (network weights,
//!   Maxwell–Boltzmann velocities, training sets, failure probes), where
//!   speed does not matter and golden digests and seed-tuned tests pin the
//!   exact stream, so it stays as it is.
//! * [`Rng64::next_normal_ziggurat`] is the Marsaglia–Tsang ziggurat:
//!   about 99 % of draws cost one `next_u64`, a table lookup and a compare.
//!   It serves the per-step hot path, the Langevin thermostat's three
//!   draws per atom per step, where Box–Muller's transcendentals cost
//!   more than the rest of an MD step together.

use std::sync::OnceLock;

/// Common interface for the 64-bit generators.
pub trait Rng64 {
    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Uniform f64 in [0, 1).
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in [lo, hi).
    #[inline]
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in [0, n). `n` must be positive.
    ///
    /// Draws directly from the integer stream (`next_u64() % n`) instead of
    /// double-rounding through `next_f64`: the old float path lost the low
    /// bits to the 53-bit mantissa and silently mapped `n == 0` to 0. The
    /// modulo bias is ≤ n/2⁶⁴, far below anything these simulations resolve.
    #[inline]
    fn next_below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "next_below requires n > 0");
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal via Box–Muller.
    #[inline]
    fn next_normal(&mut self) -> f64 {
        let u1 = self.next_f64().max(1e-300);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal with given mean and standard deviation.
    #[inline]
    fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.next_normal()
    }

    /// Standard normal by the 256-layer ziggurat (Marsaglia & Tsang,
    /// J. Stat. Softw. 5(8), 2000). One `next_u64` supplies the layer
    /// (bits 0–7), the sign (bit 8) and a 53-bit abscissa (bits 11–63),
    /// so no two of them share a bit. A draw inside the layer's core
    /// returns at once; one in a layer's wedge is accepted against the
    /// density with a second uniform, and one past the base strip's edge r
    /// comes from Marsaglia's exponential-rejection tail sampler.
    ///
    /// The core test is inlined into the caller; the wedge and the tail,
    /// about 1 % of draws, continue out of line in `ziggurat_slow`.
    #[inline(always)]
    fn next_normal_ziggurat(&mut self) -> f64 {
        let z = Ziggurat::tables();
        let bits = self.next_u64();
        let (i, x, sign) = z.layer(bits);
        if x < z.x[i + 1] {
            return signed(x, sign);
        }
        ziggurat_slow(self, z, bits)
    }
}

/// `x` with the sign bit `sign` (0 or 1 << 63) set.
#[inline(always)]
fn signed(x: f64, sign: u64) -> f64 {
    f64::from_bits(x.to_bits() | sign)
}

/// The rest of [`Rng64::next_normal_ziggurat`] for a draw `bits` that
/// missed its layer's core: the wedge or tail test, then fresh draws in
/// the same order until one is accepted.
#[cold]
fn ziggurat_slow<R: Rng64 + ?Sized>(rng: &mut R, z: &Ziggurat, mut bits: u64) -> f64 {
    loop {
        let (i, x, sign) = z.layer(bits);
        if x < z.x[i + 1] {
            return signed(x, sign);
        }
        if i == 0 {
            loop {
                // 1 − U ∈ (0, 1], so both logarithms are finite.
                let a = -(1.0 - rng.next_f64()).ln() / ZIGGURAT_R;
                let b = -(1.0 - rng.next_f64()).ln();
                if 2.0 * b > a * a {
                    return signed(ZIGGURAT_R + a, sign);
                }
            }
        }
        if z.f[i] + (z.f[i + 1] - z.f[i]) * rng.next_f64() < (-0.5 * x * x).exp() {
            return signed(x, sign);
        }
        bits = rng.next_u64();
    }
}

/// Right edge r of the ziggurat's base strip, for 256 layers.
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;
/// Area of every ziggurat layer under e^{−x²/2}: r·e^{−r²/2} plus the
/// tail beyond r, √(π/2)·erfc(r/√2).
const ZIGGURAT_V: f64 = 4.928_673_233_974_658e-3;

/// The ziggurat's layer tables, built once per process.
struct Ziggurat {
    /// Layer right edges, decreasing: `x[0] = V/f(r)` (the base strip as a
    /// rectangle of area V), `x[1] = r`, … `x[256] = 0`. Layer `i` spans
    /// heights `f[i]..f[i + 1]`; below `x[i + 1]` it lies wholly under the
    /// density.
    x: [f64; 257],
    /// The density at the edges, `f[i] = e^{−x[i]²/2}`.
    f: [f64; 257],
}

impl Ziggurat {
    #[inline]
    fn tables() -> &'static Self {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(|| {
            let pdf = |x: f64| (-0.5 * x * x).exp();
            let mut x = [0.0; 257];
            x[0] = ZIGGURAT_V / pdf(ZIGGURAT_R);
            x[1] = ZIGGURAT_R;
            // Each layer has area V: x[i]·(f(x[i+1]) − f(x[i])) = V.
            for i in 1..255 {
                x[i + 1] = (-2.0 * (ZIGGURAT_V / x[i] + pdf(x[i])).ln()).sqrt();
            }
            Self { x, f: x.map(pdf) }
        })
    }

    /// Layer `i` (bits 0–7), abscissa `x = U·x[i]` (bits 11–63) and sign
    /// bit (bit 8, moved to bit 63) of one draw.
    #[inline(always)]
    fn layer(&self, bits: u64) -> (usize, f64, u64) {
        let i = (bits & 0xff) as usize;
        let x = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * self.x[i];
        (i, x, (bits & 0x100) << 55)
    }
}

/// SplitMix64: tiny, fast, passes BigCrush; the canonical seeder.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Xoshiro256**: the workhorse generator for long simulation streams.
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64 (never produces the all-zero state).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Jump ahead 2^128 steps: gives independent substreams for parallel
    /// ranks (call `jump()` rank-times, or use [`Self::for_rank`]).
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_2618_E03F_C9AA,
            0x39AB_DC45_29B1_661C,
        ];
        let mut t = [0u64; 4];
        for j in JUMP {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    for (ti, si) in t.iter_mut().zip(self.s) {
                        *ti ^= si;
                    }
                }
                self.next_u64();
            }
        }
        self.s = t;
    }

    /// Independent substream for a given parallel rank.
    pub fn for_rank(seed: u64, rank: usize) -> Self {
        let mut rng = Self::new(seed);
        for _ in 0..rank {
            rng.jump();
        }
        rng
    }
}

impl Rng64 for Xoshiro256 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // First outputs for seed 0 (published reference sequence).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn determinism() {
        let mut a = Xoshiro256::new(123);
        let mut b = Xoshiro256::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Xoshiro256::new(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02, "mean far from 1/2");
    }

    #[test]
    fn jump_produces_disjoint_streams() {
        let mut a = Xoshiro256::for_rank(99, 0);
        let mut b = Xoshiro256::for_rank(99, 1);
        let same = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    /// Known answers for a standard-normal sampler over 10⁶ seeded draws:
    /// the moments E[x] = 0, E[x²] = 1, E[x⁴] = 3, and the two-sided tail
    /// masses P(|x| > t) = erfc(t/√2) = 2(1 − Φ(t)) at t = 1, 2, 3 and at
    /// the ziggurat's base-strip edge r = 3.6541528853610088, each within
    /// 5 standard errors (E[x⁸] = 105 sets the 4th moment's; the masses'
    /// are binomial, √(p(1−p)/n)).
    fn assert_standard_normal(label: &str, mut draw: impl FnMut() -> f64) {
        const N: usize = 1_000_000;
        const TAILS: [(f64, f64); 4] = [
            (1.0, 0.317_310_507_862_914_15),
            (2.0, 0.045_500_263_896_358_44),
            (3.0, 0.002_699_796_063_260_191_3),
            (3.654_152_885_361_009, 0.000_258_032_487_653_901_3),
        ];
        let (mut m1, mut m2, mut m4) = (0.0, 0.0, 0.0);
        let mut beyond = [0usize; 4];
        for _ in 0..N {
            let x = draw();
            let x2 = x * x;
            m1 += x;
            m2 += x2;
            m4 += x2 * x2;
            for (count, &(t, _)) in beyond.iter_mut().zip(&TAILS) {
                *count += usize::from(x.abs() > t);
            }
        }
        let n = N as f64;
        let tol = |var: f64| 5.0 * (var / n).sqrt();
        for (what, got, want, var) in [
            ("E[x]", m1 / n, 0.0, 1.0),
            ("E[x²]", m2 / n, 1.0, 2.0),
            ("E[x⁴]", m4 / n, 3.0, 96.0),
        ] {
            assert!(
                (got - want).abs() < tol(var),
                "{label}: {what} = {got}, want {want} ± {}",
                tol(var)
            );
        }
        for (&count, &(t, p)) in beyond.iter().zip(&TAILS) {
            let got = count as f64 / n;
            assert!(
                (got - p).abs() < tol(p * (1.0 - p)),
                "{label}: P(|x| > {t}) = {got}, want {p} ± {}",
                tol(p * (1.0 - p))
            );
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = Xoshiro256::new(31);
        assert_standard_normal("Box–Muller", || r.next_normal());
        let mut r = Xoshiro256::new(31);
        assert_standard_normal("ziggurat", || r.next_normal_ziggurat());
    }

    /// The ziggurat's stream is pinned bit for bit: an FNV-1a digest of the
    /// first 10⁶ draws for two seeds. Only the tail sampler returns
    /// |z| > r, so the digests cover all three paths (core, wedge, tail).
    #[test]
    fn ziggurat_stream_is_pinned() {
        use crate::codec::Fnv64;
        for (seed, want) in [(31, 0xd957_7d2c_d1ef_a489), (2024, 0xf44c_8d99_3bcd_dc34)] {
            let mut r = Xoshiro256::new(seed);
            let mut h = Fnv64::new();
            let mut tail = 0usize;
            for _ in 0..1_000_000 {
                let z = r.next_normal_ziggurat();
                tail += usize::from(z.abs() > ZIGGURAT_R);
                h.write_f64(z);
            }
            assert!(tail > 0, "seed {seed}: no draw reached the tail");
            assert_eq!(h.finish(), want, "seed {seed}: digest {:#018x}", h.finish());
        }
    }

    /// r and V are consistent: the 255 layers built upward from the base
    /// strip close at the density's peak, the top layer having area V too.
    #[test]
    fn ziggurat_layers_close_at_the_peak() {
        let z = Ziggurat::tables();
        assert!(z.x.windows(2).all(|w| w[0] > w[1]), "edges must decrease");
        assert_eq!(z.x[256], 0.0);
        let top = z.x[255] * (1.0 - z.f[255]);
        assert!(
            (top / ZIGGURAT_V - 1.0).abs() < 1e-12,
            "top layer area {top} vs {ZIGGURAT_V}"
        );
    }

    #[test]
    fn next_below_in_bounds_and_covers_all_residues() {
        let mut r = Xoshiro256::new(11);
        for n in [1usize, 2, 3, 17, 1000] {
            let mut seen = vec![false; n.min(64)];
            for _ in 0..4096 {
                let x = r.next_below(n);
                assert!(x < n, "next_below({n}) returned {x}");
                if x < seen.len() {
                    seen[x] = true;
                }
            }
            if n <= 64 {
                assert!(seen.iter().all(|&s| s), "residues missing for n = {n}");
            }
        }
    }

    #[test]
    fn next_below_uses_integer_stream() {
        // Regression: the draw must be next_u64() % n, not a double-rounded
        // float path (which dropped the low 11 bits of the generator).
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for n in [7usize, 255, 1 << 20] {
            assert_eq!(a.next_below(n) as u64, b.next_u64() % n as u64);
        }
    }

    #[test]
    #[should_panic(expected = "next_below requires n > 0")]
    #[cfg(debug_assertions)]
    fn next_below_zero_is_rejected() {
        SplitMix64::new(1).next_below(0);
    }

    #[test]
    fn range_bounds() {
        let mut r = SplitMix64::new(5);
        for _ in 0..1000 {
            let x = r.range(-3.0, 7.0);
            assert!((-3.0..7.0).contains(&x));
        }
    }
}
