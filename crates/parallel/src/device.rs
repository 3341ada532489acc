//! The host↔device transfer ledger.
//!
//! The paper's DCR paradigm maps data-parallel LFD onto GPU and
//! complex-chemistry QXMD onto CPU (Fig. 2b), and its shadow dynamics
//! keeps the wave functions GPU-resident so only occupation-sized
//! payloads cross PCIe (Secs. V.A.3, V.B.6). Device storage is modeled as
//! host memory; every modeled transfer is recorded in a
//! [`TransferLedger`], which turns those data-movement claims into
//! testable byte counts.

use std::sync::atomic::{AtomicU64, Ordering};

/// Byte accounting of host↔device traffic.
#[derive(Debug, Default)]
pub struct TransferLedger {
    h2d_bytes: AtomicU64,
    d2h_bytes: AtomicU64,
}

impl TransferLedger {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record_h2d(&self, bytes: u64) {
        self.h2d_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn record_d2h(&self, bytes: u64) {
        self.d2h_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn h2d_bytes(&self) -> u64 {
        self.h2d_bytes.load(Ordering::Relaxed)
    }

    pub fn d2h_bytes(&self) -> u64 {
        self.d2h_bytes.load(Ordering::Relaxed)
    }

    /// Total bytes crossing the link in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.h2d_bytes() + self.d2h_bytes()
    }

    /// Zero all counters (e.g. after warm-up).
    pub fn reset(&self) {
        self.h2d_bytes.store(0, Ordering::Relaxed);
        self.d2h_bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts() {
        let l = TransferLedger::new();
        l.record_h2d(100);
        l.record_h2d(50);
        l.record_d2h(8);
        assert_eq!(l.h2d_bytes(), 150);
        assert_eq!(l.d2h_bytes(), 8);
        assert_eq!(l.total_bytes(), 158);
        l.reset();
        assert_eq!(l.total_bytes(), 0);
    }
}
