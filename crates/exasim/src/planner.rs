//! The ahead-of-time run planner: the calibrated cost model *inverted*.
//!
//! `DcMeshModel`/`NnqmdModel` predict wall-clock from a chosen execution
//! shape; [`Planner::plan`] goes the other way — given a job's workload
//! shape ([`PlanJob`]) and a measured [`Calibration`], it enumerates the
//! feasible execution choices (ranks-per-domain rung, batch width,
//! sampling stride), predicts wall-clock and queue cost for each, and
//! returns the cheapest [`Placement`] plus a [`PlanVerdict`] against the
//! admission limits. The service scheduler calls this before admitting a
//! job: the verdict gates admission, the predicted cost annotates the
//! job and drives band placement.
//!
//! Every enumerated choice is an execution form the oracle suites
//! already pin bit-identical (serial runs, in-process
//! `mlmd_core::engine::RunPlan` batches, `World` runs at the 1/2/4
//! ranks-per-domain ladder), so planning picks *how fast* a job runs,
//! never *what* it computes.

use crate::calibrate::{Calibration, RPD_LADDER};
use crate::machine::Machine;

/// A job's workload shape, as data the planner can cost. The service
/// layer maps each `JobSpec` variant onto one of these.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlanJob {
    /// `runs` independent MESH trajectories (a pump–probe sweep counts
    /// its shared dark reference), each `steps` MD steps of an
    /// (`ngrid` points, `norb` states, `n_qd` QD-steps/MD-step) domain.
    /// `stride` is the requested trace-sampling stride; `warm_shared`
    /// says whether the runs share one ground-state descent.
    MeshBatch {
        runs: usize,
        steps: usize,
        ngrid: usize,
        norb: usize,
        n_qd: usize,
        stride: usize,
        warm_shared: bool,
    },
    /// Supercell MD: `steps` velocity-Verlet steps over `atoms` atoms.
    Md { steps: usize, atoms: usize },
    /// 1-D FDTD: `steps` Yee updates over `cells` cells.
    Fdtd { steps: usize, cells: usize },
    /// A Floquet superlattice sweep: `runs` independent driven FDTD
    /// configurations of `steps` Yee updates over `cells` cells each,
    /// batched on the work-stealing pool. Costed from the measured
    /// `fdtd_cell_step` (the streaming spectral observer rides inside
    /// the pinned <10% overhead margin); the per-configuration
    /// invariant extraction is O(grid²) closed-form work, charged as
    /// free against FDTD stepping.
    FloquetSweep {
        runs: usize,
        steps: usize,
        cells: usize,
    },
}

/// One chosen execution configuration with its predictions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Placement {
    /// `None`: in-process batch on the work-stealing pool. `Some(r)`:
    /// a simulated-MPI `World` with `r` ranks per domain.
    pub ranks_per_domain: Option<usize>,
    /// Concurrent runs per batch wave.
    pub batch_width: usize,
    /// Trace-sampling stride (the requested stride, coarsened if the
    /// trace would exceed [`PlanLimits::max_trace_samples`]).
    pub sample_stride: usize,
    /// Predicted wall-clock (s).
    pub predicted_secs: f64,
    /// Predicted queue cost: rank-seconds of capacity occupied.
    pub predicted_cost: f64,
}

/// Why a job was refused at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Even the best execution choice exceeds the wall-clock limit.
    WallClock,
    /// The job would occupy more rank-seconds than the queue allows.
    QueueCost,
}

/// The planner's answer about one job, checked against [`PlanLimits`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlanVerdict {
    Accept {
        predicted_secs: f64,
    },
    Reject {
        reason: RejectReason,
        predicted: f64,
        limit: f64,
    },
}

impl PlanVerdict {
    /// Whether this verdict admits the job.
    pub fn is_accept(&self) -> bool {
        matches!(self, PlanVerdict::Accept { .. })
    }
}

impl std::fmt::Display for PlanVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanVerdict::Accept { predicted_secs } => {
                write!(f, "accept (predicted {predicted_secs:.3} s)")
            }
            PlanVerdict::Reject {
                reason,
                predicted,
                limit,
            } => {
                let what = match reason {
                    RejectReason::WallClock => "wall-clock",
                    RejectReason::QueueCost => "queue cost",
                };
                write!(
                    f,
                    "reject: predicted {what} {predicted:.3} exceeds limit {limit:.3}"
                )
            }
        }
    }
}

/// Admission limits the verdict is checked against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanLimits {
    /// Hardest acceptable predicted wall-clock for one job (s).
    pub max_wall_secs: f64,
    /// Largest acceptable predicted queue cost (rank-seconds).
    pub max_cost_rank_secs: f64,
    /// Jobs predicted longer than this are demoted one priority band by
    /// the scheduler (interactive work stays responsive).
    pub batch_threshold_secs: f64,
    /// Largest trace the planner will let a job record; the sampling
    /// stride is coarsened to fit.
    pub max_trace_samples: usize,
}

impl Default for PlanLimits {
    fn default() -> Self {
        Self {
            max_wall_secs: 60.0,
            max_cost_rank_secs: 240.0,
            batch_threshold_secs: 1.0,
            max_trace_samples: 100_000,
        }
    }
}

/// The ahead-of-time planner: analytic machine shape + measured
/// calibration + admission limits.
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    pub machine: Machine,
    pub calibration: Calibration,
    pub limits: PlanLimits,
    /// Width of the work-stealing pool in-process batches share.
    pub pool_width: usize,
}

impl Planner {
    /// A planner for the machine this process runs on.
    pub fn new(machine: Machine, calibration: Calibration) -> Self {
        let pool_width = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            machine,
            calibration,
            limits: PlanLimits::default(),
            pool_width,
        }
    }

    /// Replace the admission limits.
    pub fn with_limits(mut self, limits: PlanLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Enumerate the feasible execution choices for `job`, predict each,
    /// and return the cheapest plan plus its admission verdict. The
    /// serial (width-1, in-process) form is always among the candidates,
    /// so the chosen plan never predicts worse than the serial baseline.
    pub fn plan(&self, job: &PlanJob) -> (Placement, PlanVerdict) {
        let mut best: Option<Placement> = None;
        for cand in self.candidates(job) {
            let better = match &best {
                None => true,
                Some(b) => cand.predicted_secs < b.predicted_secs,
            };
            if better {
                best = Some(cand);
            }
        }
        let plan = best.expect("at least the serial candidate exists");
        let verdict = self.verdict_for(&plan);
        (plan, verdict)
    }

    /// Predicted wall-clock of the serial baseline (in-process, one run
    /// at a time) — the yardstick the property suite holds `plan`
    /// against.
    pub fn predict_serial(&self, job: &PlanJob) -> f64 {
        self.in_process_candidate(job, 1).predicted_secs
    }

    fn verdict_for(&self, plan: &Placement) -> PlanVerdict {
        if plan.predicted_secs > self.limits.max_wall_secs {
            return PlanVerdict::Reject {
                reason: RejectReason::WallClock,
                predicted: plan.predicted_secs,
                limit: self.limits.max_wall_secs,
            };
        }
        if plan.predicted_cost > self.limits.max_cost_rank_secs {
            return PlanVerdict::Reject {
                reason: RejectReason::QueueCost,
                predicted: plan.predicted_cost,
                limit: self.limits.max_cost_rank_secs,
            };
        }
        PlanVerdict::Accept {
            predicted_secs: plan.predicted_secs,
        }
    }

    fn candidates(&self, job: &PlanJob) -> Vec<Placement> {
        match *job {
            PlanJob::MeshBatch { runs, .. } => {
                let mut out = Vec::new();
                // In-process batch: full pool width first (preferred on
                // ties), then the serial baseline.
                let wide = self.pool_width.min(runs.max(1)).max(1);
                out.push(self.in_process_candidate(job, wide));
                if wide != 1 {
                    out.push(self.in_process_candidate(job, 1));
                }
                // World forms at the measured ranks-per-domain rungs.
                for &rpd in &RPD_LADDER {
                    if let Some(c) = self.world_candidate(job, rpd) {
                        out.push(c);
                    }
                }
                out
            }
            PlanJob::Md { steps, atoms } => {
                let secs = steps as f64 * atoms as f64 * self.calibration.md_atom_step;
                vec![Placement {
                    ranks_per_domain: None,
                    batch_width: 1,
                    sample_stride: 1,
                    predicted_secs: secs,
                    predicted_cost: secs,
                }]
            }
            PlanJob::Fdtd { steps, cells } => {
                let secs = steps as f64 * cells as f64 * self.calibration.fdtd_cell_step;
                vec![Placement {
                    ranks_per_domain: None,
                    batch_width: 1,
                    sample_stride: 1,
                    predicted_secs: secs,
                    predicted_cost: secs,
                }]
            }
            PlanJob::FloquetSweep { runs, steps, cells } => {
                let per_run = steps as f64 * cells as f64 * self.calibration.fdtd_cell_step;
                let candidate = |width: usize| {
                    let parallel = width as f64;
                    let secs = runs as f64 * per_run / parallel;
                    Placement {
                        ranks_per_domain: None,
                        batch_width: width,
                        sample_stride: 1,
                        predicted_secs: secs,
                        predicted_cost: secs * parallel,
                    }
                };
                // Pool-wide batch preferred on ties, serial baseline kept.
                let wide = self.pool_width.min(runs.max(1)).max(1);
                let mut out = vec![candidate(wide)];
                if wide != 1 {
                    out.push(candidate(1));
                }
                out
            }
        }
    }

    /// Coarsen the requested stride until `runs × steps / stride` fits
    /// the trace budget.
    fn fit_stride(&self, runs: usize, steps: usize, requested: usize) -> usize {
        let stride = requested.max(1);
        let budget = self.limits.max_trace_samples.max(1);
        let total = runs.saturating_mul(steps);
        stride.max(total.div_ceil(budget))
    }

    fn mesh_shape(job: &PlanJob) -> (usize, usize, usize, usize, usize, bool) {
        match *job {
            PlanJob::MeshBatch {
                runs,
                steps,
                ngrid,
                norb,
                n_qd,
                warm_shared,
                ..
            } => (runs, steps, ngrid, norb, n_qd, warm_shared),
            _ => unreachable!("mesh candidates are only built for MeshBatch"),
        }
    }

    fn mesh_construction(&self, runs: usize, warm_shared: bool) -> f64 {
        let cal = &self.calibration;
        if warm_shared {
            cal.construct_cold + (runs.saturating_sub(1)) as f64 * cal.construct_warm
        } else {
            runs as f64 * cal.construct_cold
        }
    }

    fn in_process_candidate(&self, job: &PlanJob, width: usize) -> Placement {
        let (runs, steps, ngrid, norb, n_qd, warm_shared) = Self::mesh_shape(job);
        let stride = match *job {
            PlanJob::MeshBatch { stride, .. } => stride,
            _ => 1,
        };
        let cal = &self.calibration;
        let step = cal.mesh_step_scaled(ngrid, norb, n_qd);
        let parallel = width.min(self.pool_width).min(runs.max(1)).max(1) as f64;
        let secs = self.mesh_construction(runs, warm_shared)
            + runs as f64 * steps as f64 * step / parallel;
        Placement {
            ranks_per_domain: None,
            batch_width: width,
            sample_stride: self.fit_stride(runs, steps, stride),
            predicted_secs: secs,
            predicted_cost: secs * parallel,
        }
    }

    fn world_candidate(&self, job: &PlanJob, rpd: usize) -> Option<Placement> {
        let (runs, steps, ngrid, norb, n_qd, warm_shared) = Self::mesh_shape(job);
        let stride = match *job {
            PlanJob::MeshBatch { stride, .. } => stride,
            _ => 1,
        };
        let cal = &self.calibration;
        let fitted = cal.dist_step_for(rpd)?;
        if fitted <= 0.0 {
            // The rung was not measured (zeroed fit) — don't plan on it.
            return None;
        }
        // The fitted per-step time is for one fixture domain with `rpd`
        // ranks time-slicing this host; scale to the job's shape, then
        // let domains parallelize across the pool. Construction is
        // charged exactly as for the in-process form: the distributed
        // fit runs off a pre-warmed cache, so `dist_fixed` is the world
        // form's *extra* envelope (spawn + plumbing), not the descent.
        let work_ratio = cal.mesh_step_scaled(ngrid, norb, n_qd) / cal.mesh_step.max(1e-12);
        let step = fitted * work_ratio;
        let parallel = self.pool_width.min(runs.max(1)).max(1) as f64;
        let (runs_f, steps_f) = (runs as f64, steps as f64);
        let secs = self.mesh_construction(runs, warm_shared)
            + cal.dist_fixed_for(rpd)?
            + runs_f * steps_f * step / parallel;
        let ranks = (runs * rpd) as f64;
        Some(Placement {
            ranks_per_domain: Some(rpd),
            batch_width: runs.max(1),
            sample_stride: self.fit_stride(runs, steps, stride),
            predicted_secs: secs,
            predicted_cost: secs * ranks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::{FIXTURE_NGRID, FIXTURE_NORB, FIXTURE_N_QD};

    /// A deterministic synthetic fit: serial step 10 ms, distributed
    /// rungs slower (the 1-CPU container truth), warm construction 10×
    /// cheaper than cold.
    fn fake_calibration() -> Calibration {
        Calibration {
            alpha: 2.0e-6,
            beta: 5.0e-11,
            mesh_step: 0.010,
            n_qd: FIXTURE_N_QD as f64,
            construct_cold: 0.008,
            construct_warm: 0.0008,
            dist_step: [0.012, 0.020, 0.036],
            dist_fixed: [0.002, 0.004, 0.008],
            md_atom_step: 2.0e-7,
            fdtd_cell_step: 4.0e-9,
        }
    }

    fn fixture_job(runs: usize, steps: usize) -> PlanJob {
        PlanJob::MeshBatch {
            runs,
            steps,
            ngrid: FIXTURE_NGRID,
            norb: FIXTURE_NORB,
            n_qd: FIXTURE_N_QD,
            stride: 1,
            warm_shared: true,
        }
    }

    fn planner() -> Planner {
        let cal = fake_calibration();
        let mut p = Planner::new(Machine::from_calibration(&cal), cal);
        p.pool_width = 1; // the CI container
        p
    }

    #[test]
    fn small_job_accepted_with_serial_plan_on_one_cpu() {
        let p = planner();
        let (plan, verdict) = p.plan(&fixture_job(2, 3));
        assert!(verdict.is_accept(), "{verdict}");
        // On a 1-wide pool with slower distributed rungs, the in-process
        // form must win.
        assert_eq!(plan.ranks_per_domain, None);
        // cold + warm + 2 runs × 3 steps × 10 ms.
        let want = 0.008 + 0.0008 + 6.0 * 0.010;
        assert!((plan.predicted_secs - want).abs() < 1e-9);
        assert!(plan.predicted_secs <= p.predict_serial(&fixture_job(2, 3)) + 1e-12);
    }

    #[test]
    fn wide_pool_prefers_parallel_batch() {
        let mut p = planner();
        p.pool_width = 8;
        let (plan, _) = p.plan(&fixture_job(4, 10));
        assert_eq!(plan.ranks_per_domain, None);
        assert_eq!(plan.batch_width, 4);
        assert!(plan.predicted_secs < p.predict_serial(&fixture_job(4, 10)));
    }

    #[test]
    fn oversized_wall_clock_is_rejected_with_limit_named() {
        let p = planner();
        let (_, verdict) = p.plan(&fixture_job(1, 1_000_000));
        match verdict {
            PlanVerdict::Reject {
                reason,
                predicted,
                limit,
            } => {
                assert_eq!(reason, RejectReason::WallClock);
                assert!(predicted > limit);
                assert_eq!(limit, p.limits.max_wall_secs);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn queue_cost_limit_rejects_independently() {
        let mut p = planner();
        p.limits.max_wall_secs = f64::INFINITY;
        p.limits.max_cost_rank_secs = 0.001;
        let (_, verdict) = p.plan(&fixture_job(2, 50));
        assert!(
            matches!(
                verdict,
                PlanVerdict::Reject {
                    reason: RejectReason::QueueCost,
                    ..
                }
            ),
            "{verdict}"
        );
    }

    #[test]
    fn stride_coarsens_to_fit_trace_budget() {
        let mut p = planner();
        p.limits.max_trace_samples = 10;
        let (plan, _) = p.plan(&fixture_job(2, 100));
        // 200 samples into a budget of 10 → stride 20.
        assert_eq!(plan.sample_stride, 20);
        p.limits.max_trace_samples = 100_000;
        let (plan, _) = p.plan(&fixture_job(2, 100));
        assert_eq!(plan.sample_stride, 1, "requested stride kept when it fits");
    }

    #[test]
    fn md_and_fdtd_predictions_scale_linearly() {
        let p = planner();
        let t1 = p
            .plan(&PlanJob::Md {
                steps: 100,
                atoms: 80,
            })
            .0
            .predicted_secs;
        let t2 = p
            .plan(&PlanJob::Md {
                steps: 200,
                atoms: 80,
            })
            .0
            .predicted_secs;
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
        let f1 = p
            .plan(&PlanJob::Fdtd {
                steps: 64,
                cells: 128,
            })
            .0
            .predicted_secs;
        let f2 = p
            .plan(&PlanJob::Fdtd {
                steps: 64,
                cells: 256,
            })
            .0
            .predicted_secs;
        assert!((f2 - 2.0 * f1).abs() < 1e-12);
    }

    #[test]
    fn floquet_sweep_batches_across_the_pool() {
        let mut p = planner();
        let job = PlanJob::FloquetSweep {
            runs: 4,
            steps: 1200,
            cells: 320,
        };
        // 1-wide pool: serial, cost = 4 × steps × cells × per-cell.
        let (plan, verdict) = p.plan(&job);
        assert!(verdict.is_accept(), "{verdict}");
        assert_eq!(plan.batch_width, 1);
        let want = 4.0 * 1200.0 * 320.0 * 4.0e-9;
        assert!((plan.predicted_secs - want).abs() < 1e-12);
        // A wide pool splits wall-clock across the batch but occupies
        // the same rank-seconds.
        p.pool_width = 4;
        let (wide, _) = p.plan(&job);
        assert_eq!(wide.batch_width, 4);
        assert!((wide.predicted_secs - want / 4.0).abs() < 1e-12);
        assert!((wide.predicted_cost - plan.predicted_cost).abs() < 1e-12);
    }

    #[test]
    fn unmeasured_rungs_are_skipped() {
        let mut cal = fake_calibration();
        cal.dist_step = [0.0; 3];
        let mut p = Planner::new(Machine::from_calibration(&cal), cal);
        p.pool_width = 1;
        let (plan, _) = p.plan(&fixture_job(1, 2));
        assert_eq!(plan.ranks_per_domain, None);
    }

    #[test]
    fn verdict_display_is_informative() {
        let p = planner();
        let (_, verdict) = p.plan(&fixture_job(1, 1_000_000));
        let text = format!("{verdict}");
        assert!(text.contains("reject"), "{text}");
        assert!(text.contains("wall-clock"), "{text}");
    }
}
