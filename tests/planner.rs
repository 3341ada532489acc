//! End-to-end pin of the calibrated planner in service admission: a real
//! `calibrate()` fit must predict a real scheduler execution within 2×,
//! and the admission gate must refuse oversized work with the typed
//! verdict — the PR-8 acceptance criteria, asserted against the public
//! API only.

use mlmd_core::config::PipelineConfig;
use mlmd_core::engine::SampleStride;
use mlmd_exasim::calibrate::{calibrate, Calibration, CalibrationConfig, FIXTURE_E0};
use mlmd_exasim::planner::{PlanLimits, Planner};
use mlmd_exasim::Machine;
use mlmd_service::scheduler::{Scheduler, ServiceConfig, SubmitError};
use mlmd_service::{JobEvent, JobSpec, Priority};

/// The small-fixture material: the pipeline's MESH stage is the same
/// 8³-grid / 8-state / 30-QD-step domain the calibration probes, so the
/// fitted constants transfer to the job without any shape scaling.
fn fixture_material() -> PipelineConfig {
    let mut cfg = PipelineConfig::small_demo();
    cfg.cells = (4, 4, 1);
    cfg.prepare_steps = 0;
    cfg
}

fn planned_scheduler(planner: Planner) -> Scheduler {
    Scheduler::new(ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        progress_stride: SampleStride::EVERY,
        dedup: true,
        planner: Some(planner),
    })
}

/// A deterministic synthetic fit for the tests that exercise admission
/// logic rather than prediction accuracy.
fn synthetic_planner() -> Planner {
    let cal = Calibration {
        alpha: 2.0e-6,
        beta: 5.0e-11,
        mesh_step: 0.010,
        n_qd: 30.0,
        construct_cold: 0.008,
        construct_warm: 0.0008,
        md_atom_step: 2.0e-7,
        fdtd_cell_step: 4.0e-9,
    };
    Planner::new(Machine::from_calibration(&cal), cal)
}

#[test]
fn calibrated_prediction_matches_measured_wall_clock_within_2x() {
    // A real fit of this host, then a real execution of the same fixture
    // through the service. 12 MD steps amortize per-step noise; the 2×
    // band is the acceptance criterion, not a tight timing assertion.
    let cal = calibrate(&CalibrationConfig::quick());
    assert!(cal.mesh_step > 0.0, "fit measured a positive step time");
    let planner = Planner::new(Machine::from_calibration(&cal), cal).with_limits(PlanLimits {
        max_wall_secs: 600.0,
        max_cost_rank_secs: 2400.0,
        ..PlanLimits::default()
    });
    let s = planned_scheduler(planner);
    let steps = 12;
    let job = s
        .submit(JobSpec::mesh_run(fixture_material(), FIXTURE_E0, steps))
        .expect("small fixture job admitted");
    let plan = job.plan().expect("admitted job carries its plan");
    assert!(plan.predicted_secs > 0.0);
    let out = job.wait();
    assert!(!out.cancelled);
    assert_eq!(out.steps_done, steps);
    let m = s.metrics();
    assert_eq!(m.planned, 1);
    assert!(m.predicted_secs > 0.0 && m.actual_secs > 0.0);
    let ratio = m.actual_secs / m.predicted_secs;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "measured {} s vs predicted {} s: ratio {ratio} outside the 2× band",
        m.actual_secs,
        m.predicted_secs
    );
    s.shutdown();
}

#[test]
fn oversized_job_is_refused_with_the_typed_verdict() {
    let s = planned_scheduler(synthetic_planner());
    // 10 ms/step × 10⁷ steps ≈ 28 hours predicted: far over the 60 s
    // admission limit, refused before it can occupy a queue slot.
    let huge = JobSpec::mesh_run(fixture_material(), 0.05, 10_000_000);
    let err = s.submit(huge).unwrap_err();
    let SubmitError::PlanRejected(verdict) = err else {
        panic!("expected PlanRejected, got {err:?}");
    };
    assert!(!verdict.is_accept());
    let text = format!("{verdict}");
    assert!(text.contains("reject"), "{text}");
    let m = s.metrics();
    assert_eq!(m.plan_rejected, 1);
    assert_eq!(m.admitted, 0, "rejection happened before admission");
    // The same scheduler still serves right-sized work.
    let ok = s.submit(JobSpec::fdtd_pulse(64, 0.2, 0.3, 25)).unwrap();
    assert!(!ok.wait().cancelled);
    s.shutdown();
}

#[test]
fn admitted_job_carries_the_planners_prediction() {
    // What admission annotates a job with is `Planner::plan` of its
    // shape — there is no second costing inside the scheduler.
    let planner = synthetic_planner();
    let s = planned_scheduler(planner);
    for spec in [
        JobSpec::mesh_run(fixture_material(), 0.05, 2),
        JobSpec::fdtd_pulse(64, 0.2, 0.3, 25),
    ] {
        let want = planner.plan(&spec.plan_job()).0;
        let job = s.submit(spec).unwrap();
        assert_eq!(job.plan(), Some(want));
        job.wait();
    }
    s.shutdown();
}

#[test]
fn predicted_long_jobs_queue_behind_interactive_work() {
    let mut planner = synthetic_planner();
    // Everything FDTD-sized is "interactive"; mesh work is "batch".
    planner.limits.batch_threshold_secs = 0.001;
    planner.limits.max_wall_secs = f64::INFINITY;
    planner.limits.max_cost_rank_secs = f64::INFINITY;
    let s = planned_scheduler(planner);
    // Stall the single worker so queue order alone decides execution
    // order (the FDTD blocker itself predicts over the threshold and is
    // demoted — irrelevant, it runs first regardless).
    let blocker = s
        .submit(JobSpec::fdtd_pulse(100_000, 0.2, 0.99, 20_000))
        .unwrap();
    while !matches!(
        blocker.events().recv().expect("blocker resolved unstarted"),
        JobEvent::Started { .. }
    ) {}
    let feed = s.subscribe();
    // Submitted second at Normal, but predicted long → demoted to Low.
    let batch = s
        .submit_for(
            "t",
            Priority::Normal,
            JobSpec::fdtd_pulse(4_096, 0.2, 0.41, 2_000),
        )
        .unwrap();
    // Submitted last at Normal, predicted short → stays Normal, runs first.
    let interactive = s
        .submit_for("t", Priority::Normal, JobSpec::fdtd_pulse(32, 0.2, 0.42, 8))
        .unwrap();
    blocker.cancel();
    interactive.wait();
    batch.wait();
    let started: Vec<_> = feed
        .try_iter()
        .filter_map(|e| match e {
            JobEvent::Started { id } => Some(id),
            _ => None,
        })
        .collect();
    assert_eq!(
        started,
        vec![interactive.id(), batch.id()],
        "the short job overtook the demoted batch job"
    );
    assert!(s.metrics().demoted >= 2, "blocker and batch were demoted");
    s.shutdown();
}
