//! Ground-state checkpointing and warm-start sources.
//!
//! The converged pre-descent eigenstate panel of a MESH domain (the
//! `refine_orbitals` + `subspace_rotate` relaxation in
//! [`crate::mesh::MeshDriver`] construction) is a pure function of the
//! grid, the initial panel, the occupations, the descent parameters, and
//! the initial potential `v_loc⁰` — and it is by far the most expensive
//! part of driver construction. This module makes that work reusable:
//!
//! * [`GroundState`] — the converged panel plus the inputs a driver
//!   needs to resume from it (occupations, `v_loc⁰`, descent metadata),
//!   keyed by an FNV config hash ([`ground_state_key`]);
//! * [`GroundStateCache`] — a thread-safe in-memory map from config key
//!   to one `OnceLock` per ground state, with a process-wide instance
//!   ([`GroundStateCache::global`]) so `RunPlan` batches and
//!   `pump_probe_sweep` amplitudes share one descent per config
//!   (N amplitudes = 1 descent, however many callers race);
//! * [`WarmStart`] — the source a builder resolves its ground state
//!   from: `Fresh` (always descend), `InMemory` (a cache), or `File` (a
//!   checkpoint on disk);
//! * the **checkpoint format** — a versioned, self-describing binary
//!   frame ([`encode_checkpoint`]/[`decode_checkpoint`],
//!   [`save_checkpoint`]/[`load_checkpoint`]): magic, format version,
//!   config hash, length-prefixed payload, and a trailing FNV digest
//!   over the payload bytes. A wrong magic/version/key is a hard,
//!   diagnosable [`CheckpointError`]; a corrupted or truncated payload
//!   is caught by the digest before any field is trusted.
//!
//! The warm path is bit-identical to the cold path by construction: a
//! cached or checkpointed panel was produced by exactly the descent the
//! cold path would run on the same inputs, and the config key pins every
//! input that enters that descent (the ferro-patch geometry and tracked
//! sites are captured through the `v_loc⁰` samples). Quantities that do
//! *not* affect the ground state — the pulse, the MD time step, the
//! surface-hopping parameters — are deliberately excluded, which is what
//! lets every amplitude of a pump–probe sweep share one key.

use mlmd_lfd::wavefunction::WaveFunctions;
use mlmd_numerics::codec::{fnv1a_bytes, ByteReader, ByteWriter, CodecError, Fnv64};
use mlmd_numerics::grid::Grid3;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// First 8 bytes of every checkpoint: `b"MLMDGSCP"` as a little-endian
/// u64 ("MLMD ground-state checkpoint").
pub const CHECKPOINT_MAGIC: u64 = u64::from_le_bytes(*b"MLMDGSCP");
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Domain separator folded first into every MESH ground-state key.
const MESH_KEY_SALT: u64 = u64::from_le_bytes(*b"mesh-gs\0");

/// Descent parameters the checkpointed panel was converged with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DescentMeta {
    /// Steepest-descent damping η.
    pub eta: f64,
    /// Descent sweep count.
    pub steps: u64,
}

/// A converged ground state: the relaxed orbital panel plus everything a
/// driver needs to resume from it, keyed by the FNV config hash of the
/// inputs that produced it.
#[derive(Clone, Debug)]
pub struct GroundState {
    /// Config hash of the producing inputs (see [`ground_state_key`]).
    pub key: u64,
    /// The converged orbital panel.
    pub panel: WaveFunctions,
    /// Occupations `f_s` the panel was converged with.
    pub occupations: Vec<f64>,
    /// Initial local potential `v_loc⁰` the descent ran against.
    pub vloc0: Vec<f64>,
    /// Descent parameters used.
    pub meta: DescentMeta,
}

/// FNV config hash identifying a MESH ground-state problem: grid shape
/// and spacing, orbital count, descent parameters, occupations, the
/// initial panel, and the `v_loc⁰` samples (which encode the ferro-patch
/// geometry and tracked sites). Everything that enters the pre-descent —
/// and nothing that doesn't.
pub fn ground_state_key(
    grid: &Grid3,
    initial_panel_digest: u64,
    occupations: &[f64],
    vloc0: &[f64],
    eta: f64,
    steps: usize,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(MESH_KEY_SALT);
    h.write_u64(grid.nx as u64);
    h.write_u64(grid.ny as u64);
    h.write_u64(grid.nz as u64);
    h.write_f64(grid.h);
    h.write_f64(eta);
    h.write_u64(steps as u64);
    h.write_u64(occupations.len() as u64);
    for &f in occupations {
        h.write_f64(f);
    }
    h.write_u64(initial_panel_digest);
    h.write_u64(vloc0.len() as u64);
    for &v in vloc0 {
        h.write_f64(v);
    }
    h.finish()
}

struct CacheInner {
    /// One cell per key ever requested; the map is locked only to fetch
    /// or insert a key's cell, never while a descent runs.
    map: Mutex<HashMap<u64, Arc<OnceLock<GroundState>>>>,
    computes: AtomicU64,
}

/// A thread-safe in-memory map from config key to converged ground
/// state. Cloning shares the underlying store (it is a handle, not a
/// copy).
#[derive(Clone)]
pub struct GroundStateCache {
    inner: Arc<CacheInner>,
}

impl GroundStateCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(CacheInner {
                map: Mutex::new(HashMap::new()),
                computes: AtomicU64::new(0),
            }),
        }
    }

    /// The process-wide cache: every handle returned here shares one
    /// store, so `RunPlan` batches, `pump_probe_sweep` amplitudes, and
    /// repeated pipeline constructions in one process all reuse the same
    /// converged ground states.
    pub fn global() -> Self {
        static GLOBAL: OnceLock<GroundStateCache> = OnceLock::new();
        GLOBAL.get_or_init(GroundStateCache::new).clone()
    }

    /// Return the cached ground state for `key`, computing and caching
    /// it on a miss. Each key has one `OnceLock`, and `compute` runs
    /// outside the map lock through `get_or_init`: exactly one caller
    /// runs the descent, concurrent callers on the same key block until
    /// it publishes (no thundering herd — `computes()` counts one per key
    /// no matter how many threads race). If the computing closure
    /// panics, the cell stays empty and one waiter computes instead.
    pub fn get_or_compute(&self, key: u64, compute: impl FnOnce() -> GroundState) -> GroundState {
        let cell = Arc::clone(
            self.inner
                .map
                .lock()
                .expect("cache poisoned")
                .entry(key)
                .or_default(),
        );
        cell.get_or_init(|| {
            let gs = compute();
            assert_eq!(
                gs.key, key,
                "cache key {key:#018x} does not match the computed ground state's key {:#018x}",
                gs.key
            );
            self.inner.computes.fetch_add(1, Ordering::Relaxed);
            gs
        })
        .clone()
    }

    /// Number of cached (finished) ground states.
    pub fn len(&self) -> usize {
        self.inner
            .map
            .lock()
            .expect("cache poisoned")
            .values()
            .filter(|cell| cell.get().is_some())
            .count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many ground states this cache has had to compute (misses that
    /// ran the descent) — the counter the "N amplitudes = 1 descent"
    /// claim is pinned with.
    pub fn computes(&self) -> u64 {
        self.inner.computes.load(Ordering::Relaxed)
    }
}

impl Default for GroundStateCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for GroundStateCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroundStateCache")
            .field("len", &self.len())
            .field("computes", &self.computes())
            .finish()
    }
}

/// Where a driver builder gets its converged ground state from.
#[derive(Clone, Debug, Default)]
pub enum WarmStart {
    /// Always run the descent from the initial panel (the cold path —
    /// the serial oracle's behavior).
    #[default]
    Fresh,
    /// Reuse (or populate) an in-memory cache keyed by config hash.
    InMemory(GroundStateCache),
    /// Load a checkpoint file; a missing file, wrong version, or key
    /// mismatch is a hard error, never a silent fresh descent.
    File(PathBuf),
}

/// The `Copy` policy form of [`WarmStart`] that rides inside
/// `PipelineConfig` (which is `Copy`, so it cannot hold a cache handle
/// or a path): `ProcessCache` resolves to
/// `WarmStart::InMemory(GroundStateCache::global())` at build time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WarmStartPolicy {
    /// Descend fresh on every construction.
    Fresh,
    /// Share converged ground states process-wide by config hash.
    #[default]
    ProcessCache,
}

impl WarmStartPolicy {
    /// Resolve the policy to a concrete source.
    pub fn to_warm_start(self) -> WarmStart {
        match self {
            WarmStartPolicy::Fresh => WarmStart::Fresh,
            WarmStartPolicy::ProcessCache => WarmStart::InMemory(GroundStateCache::global()),
        }
    }
}

/// Why a checkpoint could not be read.
#[derive(Debug)]
pub enum CheckpointError {
    Io(std::io::Error),
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic {
        found: u64,
    },
    /// The format version is not [`CHECKPOINT_VERSION`].
    VersionMismatch {
        found: u32,
        expected: u32,
    },
    /// The checkpoint's config hash is not the one the loading
    /// configuration computed — it was written for a different problem.
    KeyMismatch {
        found: u64,
        expected: u64,
    },
    /// The frame ended before the declared payload + digest.
    Truncated {
        needed: usize,
        remaining: usize,
    },
    /// The trailing digest does not match the payload bytes (corruption).
    DigestMismatch {
        found: u64,
        expected: u64,
    },
    /// The payload parsed but its fields are inconsistent.
    Malformed(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic { found } => write!(
                f,
                "not a ground-state checkpoint: magic {found:#018x}, \
                 expected {CHECKPOINT_MAGIC:#018x}"
            ),
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint format version {found} unsupported (this build reads \
                 version {expected}); re-save the checkpoint with this build"
            ),
            CheckpointError::KeyMismatch { found, expected } => write!(
                f,
                "checkpoint config hash {found:#018x} does not match this \
                 configuration's hash {expected:#018x}: the checkpoint was written \
                 for a different grid/orbital-count/descent/geometry"
            ),
            CheckpointError::Truncated { needed, remaining } => write!(
                f,
                "checkpoint truncated: needed {needed} more bytes, {remaining} remaining"
            ),
            CheckpointError::DigestMismatch { found, expected } => write!(
                f,
                "checkpoint payload digest {found:#018x} != stored {expected:#018x}: \
                 payload corrupted"
            ),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint payload: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { needed, remaining } => {
                CheckpointError::Truncated { needed, remaining }
            }
        }
    }
}

/// The self-describing prefix of a checkpoint, readable without
/// deserializing the panel — what `scripts/ckpt_header.sh` prints.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointHeader {
    pub version: u32,
    pub config_hash: u64,
    pub payload_len: u64,
    pub meta: DescentMeta,
    /// Panel shape: (nx, ny, nz), grid spacing, orbital count.
    pub grid: (u64, u64, u64),
    pub grid_h: f64,
    pub norb: u64,
}

/// Encode a ground state into the versioned checkpoint frame:
/// magic, version, config hash, payload length, payload (descent meta,
/// panel, occupations, `v_loc⁰`), trailing FNV digest over the payload
/// bytes.
pub fn encode_checkpoint(gs: &GroundState) -> Vec<u8> {
    let mut payload = ByteWriter::new();
    payload.put_f64(gs.meta.eta);
    payload.put_u64(gs.meta.steps);
    gs.panel.encode(&mut payload);
    payload.put_u64(gs.occupations.len() as u64);
    for &f in &gs.occupations {
        payload.put_f64(f);
    }
    payload.put_u64(gs.vloc0.len() as u64);
    for &v in &gs.vloc0 {
        payload.put_f64(v);
    }
    let payload = payload.into_bytes();
    let mut frame = ByteWriter::new();
    frame.put_u64(CHECKPOINT_MAGIC);
    frame.put_u32(CHECKPOINT_VERSION);
    frame.put_u64(gs.key);
    frame.put_u64(payload.len() as u64);
    frame.put_bytes(&payload);
    frame.put_u64(fnv1a_bytes(&payload));
    frame.into_bytes()
}

/// Validate magic/version and return (config hash, payload bytes) with
/// the digest already checked.
fn checked_payload(bytes: &[u8]) -> Result<(u64, &[u8]), CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take_u64()?;
    if magic != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic { found: magic });
    }
    let version = r.take_u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let key = r.take_u64()?;
    let payload_len = r.take_u64()? as usize;
    let payload = r.take_bytes(payload_len)?;
    let stored_digest = r.take_u64()?;
    let found = fnv1a_bytes(payload);
    if found != stored_digest {
        return Err(CheckpointError::DigestMismatch {
            found,
            expected: stored_digest,
        });
    }
    Ok((key, payload))
}

/// Decode a checkpoint frame produced by [`encode_checkpoint`],
/// validating magic, version, and the trailing payload digest.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<GroundState, CheckpointError> {
    let (key, payload) = checked_payload(bytes)?;
    let mut r = ByteReader::new(payload);
    let eta = r.take_f64()?;
    let steps = r.take_u64()?;
    let panel = WaveFunctions::decode(&mut r)?;
    let n_occ = r.take_u64()? as usize;
    let mut occupations = Vec::with_capacity(n_occ);
    for _ in 0..n_occ {
        occupations.push(r.take_f64()?);
    }
    if occupations.len() != panel.norb {
        return Err(CheckpointError::Malformed(
            "occupation count does not match the panel's orbital count",
        ));
    }
    let n_vloc = r.take_u64()? as usize;
    let mut vloc0 = Vec::with_capacity(n_vloc);
    for _ in 0..n_vloc {
        vloc0.push(r.take_f64()?);
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Malformed("trailing bytes after payload"));
    }
    Ok(GroundState {
        key,
        panel,
        occupations,
        vloc0,
        meta: DescentMeta { eta, steps },
    })
}

/// Read only the self-describing prefix (version, config hash, descent
/// meta, panel shape) — the digest over the full payload is still
/// verified first, so a header is never reported from a corrupt file.
pub fn read_header(path: &Path) -> Result<CheckpointHeader, CheckpointError> {
    let bytes = std::fs::read(path)?;
    let mut r = ByteReader::new(&bytes);
    let _ = r.take_u64()?; // magic, re-validated below
    let version = r.take_u32()?;
    let (config_hash, payload) = checked_payload(&bytes)?;
    let mut p = ByteReader::new(payload);
    let eta = p.take_f64()?;
    let steps = p.take_u64()?;
    let nx = p.take_u64()?;
    let ny = p.take_u64()?;
    let nz = p.take_u64()?;
    let grid_h = p.take_f64()?;
    let norb = p.take_u64()?;
    Ok(CheckpointHeader {
        version,
        config_hash,
        payload_len: payload.len() as u64,
        meta: DescentMeta { eta, steps },
        grid: (nx, ny, nz),
        grid_h,
        norb,
    })
}

/// Write `gs` as a checkpoint file.
pub fn save_checkpoint(gs: &GroundState, path: &Path) -> Result<(), CheckpointError> {
    std::fs::write(path, encode_checkpoint(gs))?;
    Ok(())
}

/// Load a checkpoint file (magic, version, and digest validated).
pub fn load_checkpoint(path: &Path) -> Result<GroundState, CheckpointError> {
    decode_checkpoint(&std::fs::read(path)?)
}

/// Load a checkpoint file and require its config hash to be `expected` —
/// the loading path every warm start goes through, so a checkpoint can
/// never silently seed a different problem.
pub fn load_for_key(path: &Path, expected: u64) -> Result<GroundState, CheckpointError> {
    let gs = load_checkpoint(path)?;
    if gs.key != expected {
        return Err(CheckpointError::KeyMismatch {
            found: gs.key,
            expected,
        });
    }
    Ok(gs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_gs(seed: u64) -> GroundState {
        let grid = Grid3::new(4, 4, 4, 0.5);
        let panel = WaveFunctions::random(grid, 3, seed);
        let occupations = vec![2.0, 1.0, 0.0];
        let vloc0: Vec<f64> = (0..grid.len()).map(|i| -1.0 / (1.0 + i as f64)).collect();
        let key = ground_state_key(&grid, panel.panel_digest(), &occupations, &vloc0, 0.1, 60);
        GroundState {
            key,
            panel,
            occupations,
            vloc0,
            meta: DescentMeta {
                eta: 0.1,
                steps: 60,
            },
        }
    }

    #[test]
    fn checkpoint_round_trip_is_bit_identical() {
        let gs = sample_gs(7);
        let bytes = encode_checkpoint(&gs);
        let back = decode_checkpoint(&bytes).expect("round trip");
        assert_eq!(back.key, gs.key);
        assert_eq!(back.meta, gs.meta);
        assert_eq!(back.panel.panel_digest(), gs.panel.panel_digest());
        let occ_bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(occ_bits(&back.occupations), occ_bits(&gs.occupations));
        assert_eq!(occ_bits(&back.vloc0), occ_bits(&gs.vloc0));
    }

    #[test]
    fn bad_magic_and_version_are_hard_errors() {
        let gs = sample_gs(1);
        let mut bytes = encode_checkpoint(&gs);
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xff;
        assert!(matches!(
            decode_checkpoint(&wrong_magic),
            Err(CheckpointError::BadMagic { .. })
        ));
        // Bump the version field (bytes 8..12).
        bytes[8] = bytes[8].wrapping_add(1);
        match decode_checkpoint(&bytes) {
            Err(CheckpointError::VersionMismatch { found, expected }) => {
                assert_eq!(expected, CHECKPOINT_VERSION);
                assert_ne!(found, expected);
            }
            other => panic!("want VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_fails_the_digest() {
        let gs = sample_gs(2);
        let mut bytes = encode_checkpoint(&gs);
        // Flip one bit in the middle of the payload region.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(CheckpointError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let gs = sample_gs(3);
        let bytes = encode_checkpoint(&gs);
        for cut in [bytes.len() - 1, bytes.len() / 2, 10] {
            assert!(
                matches!(
                    decode_checkpoint(&bytes[..cut]),
                    Err(CheckpointError::Truncated { .. })
                ),
                "cut at {cut} must be Truncated"
            );
        }
    }

    #[test]
    fn cache_computes_once_per_key() {
        let cache = GroundStateCache::new();
        let gs = sample_gs(4);
        let key = gs.key;
        let first = cache.get_or_compute(key, || gs.clone());
        let second = cache.get_or_compute(key, || panic!("must hit the cache"));
        assert_eq!(cache.computes(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(first.panel.panel_digest(), second.panel.panel_digest());
    }

    #[test]
    fn concurrent_callers_compute_exactly_once() {
        // Thundering-herd regression: N threads race get_or_compute on
        // one key with a slow compute. The in-flight guard must let
        // exactly one descent run; before the fix every racer that
        // missed ran its own.
        let cache = GroundStateCache::new();
        let gs = sample_gs(8);
        let key = gs.key;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                let gs = gs.clone();
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_compute(key, move || {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        gs
                    })
                })
            })
            .collect();
        let digests: Vec<u64> = handles
            .into_iter()
            .map(|h| h.join().expect("racer panicked").panel.panel_digest())
            .collect();
        assert_eq!(cache.computes(), 1, "exactly one descent per key");
        assert_eq!(cache.len(), 1);
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn failed_compute_releases_waiters_and_allows_retry() {
        let cache = GroundStateCache::new();
        let gs = sample_gs(9);
        let key = gs.key;
        // First computer panics; the slot must be cleaned up…
        let panicker = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                cache.get_or_compute(key, || panic!("descent diverged"));
            })
        };
        assert!(panicker.join().is_err());
        assert_eq!(cache.computes(), 0);
        assert_eq!(cache.len(), 0);
        // …so a later caller computes fresh instead of hanging.
        let back = cache.get_or_compute(key, || gs.clone());
        assert_eq!(back.panel.panel_digest(), gs.panel.panel_digest());
        assert_eq!(cache.computes(), 1);
    }

    #[test]
    fn waiter_blocked_on_a_panicking_compute_recomputes() {
        // The retry test above only has a caller that arrives after the
        // panic; this one is already parked on the in-flight compute
        // when it unwinds, and must be released to compute itself.
        let cache = GroundStateCache::new();
        let gs = sample_gs(10);
        let key = gs.key;
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let panicker = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                cache.get_or_compute(key, || {
                    started_tx.send(()).expect("test thread alive");
                    // Give the waiter time to park on this compute.
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    panic!("descent diverged");
                });
            })
        };
        started_rx.recv().expect("panicker started its compute");
        let back = cache.get_or_compute(key, || gs.clone());
        assert!(panicker.join().is_err());
        assert_eq!(back.panel.panel_digest(), gs.panel.panel_digest());
        assert_eq!(cache.computes(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_separate_problems_and_salt_domains() {
        let grid = Grid3::new(4, 4, 4, 0.5);
        let a = WaveFunctions::random(grid, 2, 1);
        let occ = [2.0, 0.0];
        let v = vec![0.0; grid.len()];
        let base = ground_state_key(&grid, a.panel_digest(), &occ, &v, 0.1, 60);
        // Each descent parameter participates in the hash.
        assert_ne!(
            base,
            ground_state_key(&grid, a.panel_digest(), &occ, &v, 0.2, 60)
        );
        assert_ne!(
            base,
            ground_state_key(&grid, a.panel_digest(), &occ, &v, 0.1, 61)
        );
    }

    #[test]
    fn header_reads_shape_without_decoding_panel() {
        let gs = sample_gs(5);
        let dir = std::env::temp_dir().join("mlmd_ckpt_header_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gs.ckpt");
        save_checkpoint(&gs, &path).unwrap();
        let h = read_header(&path).unwrap();
        assert_eq!(h.version, CHECKPOINT_VERSION);
        assert_eq!(h.config_hash, gs.key);
        assert_eq!(h.grid, (4, 4, 4));
        assert_eq!(h.norb, 3);
        assert_eq!(h.meta, gs.meta);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_for_key_rejects_foreign_checkpoints() {
        let gs = sample_gs(6);
        let dir = std::env::temp_dir().join("mlmd_ckpt_key_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gs.ckpt");
        save_checkpoint(&gs, &path).unwrap();
        assert!(load_for_key(&path, gs.key).is_ok());
        match load_for_key(&path, gs.key ^ 1) {
            Err(CheckpointError::KeyMismatch { found, expected }) => {
                assert_eq!(found, gs.key);
                assert_eq!(expected, gs.key ^ 1);
            }
            other => panic!("want KeyMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
