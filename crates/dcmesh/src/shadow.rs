//! Shadow dynamics — the CPU↔GPU minimal-information handshake
//! (paper Sec. V.A.3, Fig. 2b).
//!
//! "To minimize data transfer between CPU and GPU, we adopt a shadow
//! dynamics approach, in which a GPU-resident proxy is solved to capture
//! effective action of LFD on QXMD through electronic occupation numbers
//! f_s ∈ \[0,1\], which are negligible compared to the large memory
//! footprint of KS wave functions represented on many spatial grid
//! points."
//!
//! [`ShadowDomain`] owns the GPU-resident wave-function state (a
//! [`DeviceBuffer`]) and funnels *all* CPU↔GPU traffic through two calls:
//!
//! * [`ShadowDomain::push_delta_v`] — QXMD → LFD: the change in local
//!   potential since the last MD step (H2D, `Ngrid` doubles);
//! * [`ShadowDomain::run_md_step`] — N_QD device-side QD steps (zero
//!   transfer), then LFD → QXMD: `Δf`, `n_exc`, and `J` (D2H, `Norb + 4`
//!   doubles).
//!
//! The transfer ledger makes the amortization claim a unit-testable
//! inequality: per MD step, bytes moved ≪ wave-function bytes, and
//! wave-function bytes move exactly once (at initialization).

use crate::ehrenfest::{
    fold_inner_loop, propagate_columns, run_inner_loop, EhrenfestConfig, EhrenfestResult,
};
use mlmd_lfd::occupation::Occupations;
use mlmd_lfd::propagator::QdStep;
use mlmd_lfd::wavefunction::WaveFunctions;
use mlmd_numerics::complex::c64;
use mlmd_numerics::vec3::Vec3;
use mlmd_parallel::buffer::DeviceBuffer;
use mlmd_parallel::comm::Comm;
use mlmd_parallel::device::TransferLedger;
use mlmd_parallel::hier::partition;
use std::sync::Arc;

/// Per-domain shadow-coupled LFD state.
pub struct ShadowDomain {
    /// GPU-resident wave functions (flattened complex panel).
    device_psi: DeviceBuffer<c64>,
    /// GPU-resident frozen potential.
    device_v: DeviceBuffer<f64>,
    /// Host-side template (grid/norb bookkeeping; data lives on device).
    wf_shape: WaveFunctions,
    pub occupations: Occupations,
    pub qd: QdStep,
    pub ledger: Arc<TransferLedger>,
    /// Vector potential carried across MD steps.
    pub a: Vec3,
}

/// What comes back up the link each MD step (the D2H payload).
#[derive(Clone, Debug)]
pub struct ShadowReport {
    pub delta_f: Vec<f64>,
    pub n_exc: f64,
    pub current: Vec3,
    pub absorbed_energy: f64,
}

impl ShadowDomain {
    /// Initialize: uploads the wave functions and potential once
    /// (`enter data map(to)` — the only O(Ngrid·Norb) transfer ever).
    pub fn new(
        wf: WaveFunctions,
        occupations: Occupations,
        vloc: &[f64],
        ledger: Arc<TransferLedger>,
    ) -> Self {
        let qd = QdStep::new(wf.grid);
        let device_psi = DeviceBuffer::from_host(wf.psi.as_slice(), Arc::clone(&ledger));
        let device_v = DeviceBuffer::from_host(vloc, Arc::clone(&ledger));
        Self {
            device_psi,
            device_v,
            wf_shape: WaveFunctions::zeros(wf.grid, wf.norb),
            occupations,
            qd,
            ledger,
            a: Vec3::ZERO,
        }
    }

    /// Wave-function footprint (bytes) — the quantity shadow dynamics
    /// keeps off the link.
    pub fn psi_bytes(&self) -> u64 {
        self.device_psi.bytes()
    }

    /// QXMD → LFD: ship the potential change (H2D of `Ngrid` doubles).
    pub fn push_delta_v(&mut self, delta_v: &[f64]) {
        assert_eq!(delta_v.len(), self.device_v.len());
        // Apply increment device-side after a minimal H2D of the delta.
        // (Modeled as an upload of the delta array.)
        let mut merged = self.device_v.device_slice().to_vec();
        for (m, d) in merged.iter_mut().zip(delta_v) {
            *m += d;
        }
        self.device_v.upload(&merged);
    }

    /// Run one MD step's worth of device-side QD dynamics and return the
    /// small-payload report (D2H of `Norb + 4` doubles, modeled).
    pub fn run_md_step(
        &mut self,
        field: impl Fn(f64) -> Vec3,
        t0: f64,
        cfg: EhrenfestConfig,
    ) -> (ShadowReport, EhrenfestResult) {
        // Device-side compute: operate directly on the device buffers
        // (no ledger traffic — this is `use_device_ptr` territory).
        let mut wf = WaveFunctions::zeros(self.wf_shape.grid, self.wf_shape.norb);
        wf.psi
            .as_mut_slice()
            .copy_from_slice(self.device_psi.device_slice());
        let vloc = self.device_v.device_slice().to_vec();
        let result = run_inner_loop(
            &self.qd,
            &mut wf,
            &self.occupations,
            &vloc,
            self.a,
            field,
            t0,
            cfg,
        );
        self.a = result.a_final;
        self.device_psi
            .device_slice_mut()
            .copy_from_slice(wf.psi.as_slice());
        // The report payload crosses the link: Δf (Norb) + n_exc + J (4).
        self.record_report_payload();
        let report = ShadowReport {
            delta_f: self.occupations.delta_f(),
            n_exc: self.occupations.n_exc(),
            current: Vec3::new(result.mean_current(), 0.0, 0.0),
            absorbed_energy: result.absorbed_energy,
        };
        (report, result)
    }

    /// Update occupations from surface hopping (host side computes the
    /// hopping; the new f_s are part of the next step's device inputs but
    /// are O(Norb) — accounted as an upload).
    pub fn set_occupations(&mut self, f: &[f64]) {
        self.ledger.record_h2d(std::mem::size_of_val(f) as u64);
        self.occupations = Occupations::new(f.to_vec());
    }

    /// Read back the full wave functions (big D2H — only for analysis /
    /// checkpointing, never in the MD loop).
    pub fn download_wavefunctions(&self) -> WaveFunctions {
        let data = self.device_psi.download();
        let mut wf = WaveFunctions::zeros(self.wf_shape.grid, self.wf_shape.norb);
        wf.psi.as_mut_slice().copy_from_slice(&data);
        wf
    }

    /// Device-side view of the wave functions for computations that run
    /// *on* the GPU in the paper (NAC overlaps, excitation projections,
    /// band energies) — no link traffic, like `use_device_ptr`.
    pub fn download_wavefunctions_unmetered(&self) -> WaveFunctions {
        let mut wf = WaveFunctions::zeros(self.wf_shape.grid, self.wf_shape.norb);
        wf.psi
            .as_mut_slice()
            .copy_from_slice(self.device_psi.device_slice());
        wf
    }

    /// [`Self::run_md_step`] band-sharded over the ranks of `domain`, each
    /// holding a replica of this shadow domain: propagate this rank's
    /// block of orbital columns under the frozen device potential (the
    /// incrementally-updated `device_v`, not a freshly assembled v_loc),
    /// allgather the sub-panels and per-orbital current terms, install
    /// the reassembled panel device-side (no link traffic), and fold the
    /// terms into the monolithic loop's result, bit for bit. Requires
    /// `!cfg.self_consistent`: the Hartree update couples the columns.
    pub(crate) fn run_md_step_sharded(
        &mut self,
        domain: &Comm,
        field: impl Fn(f64) -> Vec3,
        t0: f64,
        cfg: EhrenfestConfig,
    ) -> EhrenfestResult {
        let grid = self.wf_shape.grid;
        let norb = self.wf_shape.norb;
        let ngrid = grid.len();
        let cols = partition(norb, domain.size(), domain.rank());
        let mut sub = WaveFunctions::zeros(grid, cols.len());
        sub.psi
            .as_mut_slice()
            .copy_from_slice(&self.device_psi.device_slice()[cols.start * ngrid..cols.end * ngrid]);
        let my_terms = propagate_columns(
            &self.qd,
            &mut sub,
            &self.occupations,
            cols.start,
            self.device_v.device_slice(),
            self.a,
            &field,
            t0,
            cfg,
        );
        // Sub-panels are contiguous column blocks in domain-rank order, so
        // the concatenation *is* the column-major panel; same for the
        // owned-column-major current terms.
        let panel = domain.allgather_vec(sub.psi.as_slice().to_vec());
        let all_terms = domain.allgather_vec(my_terms);
        self.device_psi.device_slice_mut().copy_from_slice(&panel);
        let result = fold_inner_loop(
            &all_terms,
            norb,
            &self.occupations,
            &grid,
            self.a,
            &field,
            t0,
            cfg,
        );
        self.a = result.a_final;
        // The same small report crosses the link as in `run_md_step`.
        self.record_report_payload();
        result
    }

    /// Ledger-account the per-MD-step D2H report payload
    /// (`Norb + 4` doubles: Δf + n_exc + J).
    fn record_report_payload(&self) {
        let payload_len = self.occupations.len() + 4;
        self.ledger
            .record_d2h((payload_len * std::mem::size_of::<f64>()) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlmd_numerics::grid::Grid3;

    fn setup() -> (ShadowDomain, Arc<TransferLedger>) {
        let grid = Grid3::new(8, 8, 8, 0.5);
        let wf = WaveFunctions::plane_waves(grid, 4);
        let occ = Occupations::aufbau(4, 4.0);
        let vloc = vec![0.0; grid.len()];
        let ledger = Arc::new(TransferLedger::new());
        let dom = ShadowDomain::new(wf, occ, &vloc, Arc::clone(&ledger));
        (dom, ledger)
    }

    #[test]
    fn initialization_uploads_psi_once() {
        let (dom, ledger) = setup();
        let psi_bytes = dom.psi_bytes();
        // H2D at init = psi + vloc.
        let v_bytes = (8 * 8 * 8 * 8) as u64;
        assert_eq!(ledger.h2d_bytes(), psi_bytes + v_bytes);
        assert_eq!(ledger.d2h_bytes(), 0);
    }

    #[test]
    fn md_step_traffic_is_small() {
        let (mut dom, ledger) = setup();
        ledger.reset(); // discard the init upload
        let cfg = EhrenfestConfig {
            dt_qd: 0.05,
            n_qd: 50,
            self_consistent: false,
        };
        let psi_bytes = dom.psi_bytes();
        for step in 0..3 {
            let dv = vec![1e-4; 8 * 8 * 8];
            dom.push_delta_v(&dv);
            let t0 = step as f64 * 50.0 * 0.05;
            dom.run_md_step(|_| Vec3::new(0.01, 0.0, 0.0), t0, cfg);
        }
        // The central shadow-dynamics claim: per-MD-step traffic is far
        // below the wave-function footprint (here Δv dominates: Ngrid
        // doubles vs Ngrid×Norb complexes = 8× more, ×N_QD if naive).
        let per_step = ledger.total_bytes() / 3;
        assert!(
            per_step < psi_bytes / 2,
            "per-step traffic {per_step} must be ≪ psi bytes {psi_bytes}"
        );
        // And the naive alternative (psi down+up every QD step) would be
        // 2 × 50 × psi_bytes per MD step — we must be orders below that.
        assert!(per_step < 2 * 50 * psi_bytes / 100);
    }

    #[test]
    fn qd_dynamics_runs_on_device_state() {
        let (mut dom, _ledger) = setup();
        let before = dom.download_wavefunctions();
        let cfg = EhrenfestConfig {
            dt_qd: 0.05,
            n_qd: 20,
            self_consistent: false,
        };
        dom.run_md_step(|_| Vec3::new(0.02, 0.0, 0.0), 0.0, cfg);
        let after = dom.download_wavefunctions();
        let diff = before.psi.max_abs_diff(&after.psi);
        assert!(diff > 1e-8, "device state must evolve, diff {diff}");
        assert!(after.norm_error() < 1e-9, "and stay unitary");
    }

    #[test]
    fn report_has_occupation_payload() {
        let (mut dom, _) = setup();
        let cfg = EhrenfestConfig {
            dt_qd: 0.05,
            n_qd: 5,
            self_consistent: false,
        };
        let (report, _) = dom.run_md_step(|_| Vec3::ZERO, 0.0, cfg);
        assert_eq!(report.delta_f.len(), 4);
        assert!(report.n_exc >= 0.0);
    }

    #[test]
    fn occupation_update_counts_small_upload() {
        let (mut dom, ledger) = setup();
        ledger.reset();
        dom.set_occupations(&[2.0, 1.5, 0.5, 0.0]);
        assert_eq!(ledger.h2d_bytes(), 32);
        assert!((dom.occupations.total() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn vector_potential_persists_across_md_steps() {
        let (mut dom, _) = setup();
        let cfg = EhrenfestConfig {
            dt_qd: 0.05,
            n_qd: 10,
            self_consistent: false,
        };
        dom.run_md_step(|_| Vec3::new(0.05, 0.0, 0.0), 0.0, cfg);
        let a1 = dom.a;
        dom.run_md_step(|_| Vec3::new(0.05, 0.0, 0.0), 0.5, cfg);
        let a2 = dom.a;
        assert!(
            a2.x.abs() > a1.x.abs(),
            "A keeps integrating: {a1:?} → {a2:?}"
        );
    }
}
