//! Deterministic byte-level serialization and FNV-1a hashing.
//!
//! The ground-state checkpoint layer (`mlmd-dcmesh`'s `checkpoint`
//! module) needs a serializer whose output is a pure function of the
//! encoded values — no padding, no platform-dependent layout, no
//! allocator addresses — so that a checkpoint written on one host hashes
//! and round-trips identically on another. This module provides that
//! substrate:
//!
//! * [`ByteWriter`] / [`ByteReader`] — little-endian scalar framing over
//!   a flat byte buffer; the reader returns [`CodecError::Truncated`]
//!   instead of panicking, so corrupted or short payloads surface as
//!   diagnosable errors;
//! * [`Fnv64`] — the streaming 64-bit FNV-1a variant the integration
//!   suites already use for trajectory digests (fold each 8-byte block
//!   as `h ← (h ⊕ block) · prime`), plus the one-shot [`fnv1a_bytes`]
//!   over raw bytes for payload digests.
//!
//! Floats are framed by their IEEE-754 bit patterns ([`f64::to_bits`]),
//! which makes encode → decode the identity on every value including
//! negative zero and NaN payloads — the property the bit-identity pins
//! rely on.

use std::fmt;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Decoding failure: the buffer ended before the requested value. (What
/// a frame's magic, version and digest must be is the frame owner's
/// business — `mlmd-dcmesh`'s `CheckpointError` — not this layer's.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The reader needed `needed` more bytes but only `remaining` were left.
    Truncated { needed: usize, remaining: usize },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => write!(
                f,
                "truncated payload: needed {needed} more bytes, {remaining} remaining"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Streaming 64-bit FNV-1a over 8-byte blocks — the digest shape the
/// oracle suites pin trajectories with (`h ← (h ⊕ block) · prime`).
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Fold one 64-bit block.
    pub fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Fold a float by its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot byte-wise FNV-1a (the classic octet-at-a-time variant), used
/// for checkpoint payload digests where the input is an opaque byte run.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Little-endian scalar framing into a growable byte buffer.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Frame a float by its IEEE-754 bit pattern (lossless for every
    /// value, including −0.0 and NaN payloads).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian scalar reader over a byte slice; every `take_*` returns
/// [`CodecError::Truncated`] instead of panicking on short input.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip_is_exact() {
        let mut w = ByteWriter::new();
        w.put_u32(7);
        w.put_u64(u64::MAX);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_f64(1.0 / 3.0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u32().unwrap(), 7);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.take_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.take_f64().unwrap().to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn short_reads_report_truncation() {
        let mut w = ByteWriter::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            r.take_u64(),
            Err(CodecError::Truncated {
                needed: 8,
                remaining: 4
            })
        );
        // A failed take consumes nothing.
        assert_eq!(r.take_u32().unwrap(), 1);
    }

    #[test]
    fn block_fnv_matches_manual_fold() {
        let mut h = Fnv64::new();
        h.write_f64(1.5);
        h.write_u64(42);
        let mut want = FNV_OFFSET;
        for bits in [1.5f64.to_bits(), 42] {
            want ^= bits;
            want = want.wrapping_mul(FNV_PRIME);
        }
        assert_eq!(h.finish(), want);
    }

    #[test]
    fn byte_fnv_is_order_sensitive() {
        assert_ne!(fnv1a_bytes(b"ab"), fnv1a_bytes(b"ba"));
        assert_ne!(fnv1a_bytes(b""), 0);
    }

    #[test]
    fn encoding_is_byte_deterministic() {
        let encode = || {
            let mut w = ByteWriter::new();
            w.put_u64(3);
            w.put_f64(std::f64::consts::PI);
            w.put_bytes(b"tail");
            w.into_bytes()
        };
        assert_eq!(encode(), encode());
        assert_eq!(fnv1a_bytes(&encode()), fnv1a_bytes(&encode()));
    }
}
