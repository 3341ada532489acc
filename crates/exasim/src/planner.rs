//! The admission cost predictor: the calibrated cost model applied to a
//! job's shape.
//!
//! Given a job's workload shape ([`PlanJob`]) and a measured
//! [`Calibration`], [`Planner::plan`] predicts wall-clock and queue cost
//! ([`Prediction`]) and checks them against the admission limits
//! ([`PlanVerdict`]). The service scheduler calls this before admitting a
//! job: the verdict gates admission, the predicted seconds annotate the
//! job and drive band placement.
//!
//! What is costed is the one form the service executes: an in-process
//! `mlmd_core::engine::RunPlan` batch on the work-stealing pool (a
//! single run is the one-run batch). That form is the only one with a
//! cancellation and progress seam, so it is the only one a job can run
//! in; the planner chooses nothing, it prices.
//!
//! Known residue (kept because the frozen `benchmark/` crate compiles
//! against the signature): [`Planner::new`]'s `machine` is stored and
//! read by nothing.

use crate::calibrate::Calibration;
use crate::machine::Machine;

/// A job's workload shape, as data the planner can cost. The service
/// layer maps each `JobSpec` variant onto one of these.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlanJob {
    /// `runs` independent MESH trajectories (a pump–probe sweep counts
    /// its shared dark reference), each `steps` MD steps of an
    /// (`ngrid` points, `norb` states, `n_qd` QD-steps/MD-step) domain.
    /// `warm_shared` says whether the runs share one ground-state
    /// descent.
    MeshBatch {
        runs: usize,
        steps: usize,
        ngrid: usize,
        norb: usize,
        n_qd: usize,
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

/// What a job is predicted to take, run as an in-process batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Predicted wall-clock (s).
    pub predicted_secs: f64,
    /// Predicted queue cost: rank-seconds of capacity occupied
    /// (wall-clock × pool threads the batch keeps busy).
    pub predicted_cost: f64,
}

/// Why a job was refused at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The predicted wall-clock exceeds the limit, or is not a finite
    /// number (a broken calibration must not admit everything).
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
}

impl Default for PlanLimits {
    fn default() -> Self {
        Self {
            max_wall_secs: 60.0,
            max_cost_rank_secs: 240.0,
            batch_threshold_secs: 1.0,
        }
    }
}

/// The admission cost predictor: measured calibration + admission
/// limits (+ the analytic machine shape, which nothing reads; see the
/// module doc).
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

    /// Predict `job`'s wall-clock and queue cost and check them against
    /// the admission limits.
    pub fn plan(&self, job: &PlanJob) -> (Prediction, PlanVerdict) {
        let prediction = self.predict(job);
        (prediction, self.verdict_for(&prediction))
    }

    /// `fixed + runs · per_run / min(pool_width, runs)`: construction is
    /// paid once, the runs share the pool.
    fn predict(&self, job: &PlanJob) -> Prediction {
        let cal = &self.calibration;
        let (runs, fixed, per_run) = match *job {
            PlanJob::MeshBatch {
                runs,
                steps,
                ngrid,
                norb,
                n_qd,
                warm_shared,
            } => {
                let construction = if warm_shared {
                    cal.construct_cold + runs.saturating_sub(1) as f64 * cal.construct_warm
                } else {
                    runs as f64 * cal.construct_cold
                };
                let step = cal.mesh_step_scaled(ngrid, norb, n_qd);
                (runs, construction, steps as f64 * step)
            }
            PlanJob::Md { steps, atoms } => {
                (1, 0.0, steps as f64 * atoms as f64 * cal.md_atom_step)
            }
            PlanJob::Fdtd { steps, cells } => {
                (1, 0.0, steps as f64 * cells as f64 * cal.fdtd_cell_step)
            }
            PlanJob::FloquetSweep { runs, steps, cells } => {
                (runs, 0.0, steps as f64 * cells as f64 * cal.fdtd_cell_step)
            }
        };
        let parallel = self.pool_width.min(runs).max(1) as f64;
        let predicted_secs = fixed + runs as f64 * per_run / parallel;
        Prediction {
            predicted_secs,
            predicted_cost: predicted_secs * parallel,
        }
    }

    fn verdict_for(&self, p: &Prediction) -> PlanVerdict {
        // A NaN compares false against every limit, so it is refused by
        // name rather than slipping through both `>` checks.
        if !p.predicted_secs.is_finite() || p.predicted_secs > self.limits.max_wall_secs {
            return PlanVerdict::Reject {
                reason: RejectReason::WallClock,
                predicted: p.predicted_secs,
                limit: self.limits.max_wall_secs,
            };
        }
        if p.predicted_cost > self.limits.max_cost_rank_secs {
            return PlanVerdict::Reject {
                reason: RejectReason::QueueCost,
                predicted: p.predicted_cost,
                limit: self.limits.max_cost_rank_secs,
            };
        }
        PlanVerdict::Accept {
            predicted_secs: p.predicted_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::{FIXTURE_NGRID, FIXTURE_NORB, FIXTURE_N_QD};

    /// A deterministic synthetic fit: MESH step 10 ms, warm construction
    /// 10× cheaper than cold.
    fn fake_calibration() -> Calibration {
        Calibration {
            alpha: 2.0e-6,
            beta: 5.0e-11,
            mesh_step: 0.010,
            n_qd: FIXTURE_N_QD as f64,
            construct_cold: 0.008,
            construct_warm: 0.0008,
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
        // cold + warm + 2 runs × 3 steps × 10 ms.
        let want = 0.008 + 0.0008 + 6.0 * 0.010;
        assert!((plan.predicted_secs - want).abs() < 1e-9);
    }

    #[test]
    fn wide_pool_prefers_parallel_batch() {
        let mut p = planner();
        for (pool_width, parallel) in [(1, 1.0), (2, 2.0), (8, 4.0)] {
            p.pool_width = pool_width;
            let (plan, _) = p.plan(&fixture_job(4, 10));
            // cold + 3 warm + 4 runs × 10 steps × 10 ms over the threads
            // the batch can fill; each of them is occupied throughout.
            let want = 0.008 + 3.0 * 0.0008 + 4.0 * 10.0 * 0.010 / parallel;
            assert!(
                (plan.predicted_secs - want).abs() < 1e-9,
                "width {pool_width}"
            );
            assert!((plan.predicted_cost - want * parallel).abs() < 1e-9);
        }
    }

    #[test]
    fn non_finite_prediction_is_rejected_even_without_limits() {
        let mut cal = fake_calibration();
        cal.mesh_step = f64::NAN;
        let mut p = Planner::new(Machine::from_calibration(&cal), cal);
        p.limits.max_wall_secs = f64::INFINITY;
        p.limits.max_cost_rank_secs = f64::INFINITY;
        let (_, verdict) = p.plan(&fixture_job(1, 2));
        assert!(
            matches!(
                verdict,
                PlanVerdict::Reject {
                    reason: RejectReason::WallClock,
                    ..
                }
            ),
            "{verdict}"
        );
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
        let want = 4.0 * 1200.0 * 320.0 * 4.0e-9;
        assert!((plan.predicted_secs - want).abs() < 1e-12);
        // A wide pool splits wall-clock across the batch but occupies
        // the same rank-seconds.
        p.pool_width = 4;
        let (wide, _) = p.plan(&job);
        assert!((wide.predicted_secs - want / 4.0).abs() < 1e-12);
        assert!((wide.predicted_cost - plan.predicted_cost).abs() < 1e-12);
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
