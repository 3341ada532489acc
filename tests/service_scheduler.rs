//! Integration suite for the job-service layer (PR 7):
//!
//! 1. `RunPlan` batches preserve submission order at pool widths 1, 2,
//!    and 4, and a run cancelled mid-batch reports a partial trace (a
//!    valid prefix) while its batch-mates complete untouched.
//! 2. The scheduler coalesces identical-material sweeps onto one
//!    execution (dedup hit-rate 7/8 on an 8-sweep batch) while the
//!    process-wide ground-state cache keeps the eigenstate descent to at
//!    most one compute.
//! 3. Cancellation is observed for both queued jobs (resolved
//!    `Unstarted`, never started) and running jobs (partial trace), and
//!    the bounded queue pushes back with `QueueFull` instead of growing.

use mlmd::core::config::PipelineConfig;
use mlmd::core::engine::{CancelToken, RunPlan, SampleStride, Stepper, TraceObserver};
use mlmd::dcmesh::checkpoint::GroundStateCache;
use mlmd::service::{JobEvent, JobResult, JobSpec, Scheduler, ServiceConfig, SubmitError};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic integration stepper: counts steps and (optionally)
/// fires its own cancel token *during* step `cancel_at`, so the engine
/// observes the cancellation at the next step boundary.
struct CancelAt {
    count: usize,
    cancel_at: usize,
    token: CancelToken,
}

impl CancelAt {
    fn free(tag: usize) -> Self {
        Self {
            count: tag * 1000, // distinct record streams per run
            cancel_at: usize::MAX,
            token: CancelToken::new(),
        }
    }
}

impl Stepper for CancelAt {
    type Record = usize;

    fn step(&mut self) -> usize {
        self.count += 1;
        if self.count % 1000 == self.cancel_at {
            self.token.cancel();
        }
        self.count
    }

    fn time_fs(&self) -> f64 {
        self.count as f64
    }
}

#[test]
fn run_plan_keeps_submission_order_and_partial_traces_at_all_widths() {
    const STEPS: usize = 8;
    const CANCELLED_RUN: usize = 2;
    const CANCEL_AT: usize = 3;
    for width in [1usize, 2, 4] {
        let mut plan = RunPlan::new();
        for run in 0..5 {
            let mut stepper = CancelAt::free(run);
            if run == CANCELLED_RUN {
                stepper.cancel_at = CANCEL_AT;
            }
            let token = stepper.token.clone();
            plan.push_cancellable(stepper, TraceObserver::every(), STEPS, token);
        }
        let done = plan.execute_with_width(width);
        assert_eq!(done.len(), 5, "width {width}: one result per submission");
        for (run, planned) in done.iter().enumerate() {
            let expected_steps = if run == CANCELLED_RUN {
                CANCEL_AT
            } else {
                STEPS
            };
            assert_eq!(
                planned.outcome.cancelled,
                run == CANCELLED_RUN,
                "width {width}: run {run} cancellation flag"
            );
            assert_eq!(
                planned.outcome.steps_done, expected_steps,
                "width {width}: run {run} steps"
            );
            // Submission order survives the pool, and a cancelled run's
            // trace is the exact prefix of an uncancelled one.
            let expected: Vec<usize> = (1..=expected_steps).map(|s| run * 1000 + s).collect();
            assert_eq!(
                planned.observer.trace, expected,
                "width {width}: run {run} trace"
            );
        }
    }
}

/// A small but real identical-material MESH sweep: ground-state descent
/// on the primary, followers share the result without running at all.
fn sweep_spec() -> JobSpec {
    let mut cfg = PipelineConfig::small_demo();
    cfg.cells = (4, 4, 1);
    cfg.prepare_steps = 2;
    cfg.mesh_steps = 2;
    cfg.response_steps = 10;
    JobSpec::pump_probe_sweep(cfg, vec![0.05, 0.1])
}

fn sweep_service() -> Scheduler {
    Scheduler::new(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        progress_stride: SampleStride::EVERY,
        dedup: true,
        planner: None,
    })
}

#[test]
fn identical_sweeps_share_one_execution_and_one_descent() {
    let scheduler = sweep_service();
    let computes_before = GroundStateCache::global().computes();
    // A long-running job pins one worker; the sweep batch lands while
    // the primary is still in flight, so followers coalesce.
    let blocker = scheduler
        .submit(JobSpec::fdtd_pulse(100_000, 0.2, 0.3, 20_000))
        .expect("admitted");
    let sweep = sweep_spec();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            scheduler
                .submit_for(
                    &format!("tenant-{}", i % 4),
                    Default::default(),
                    sweep.clone(),
                )
                .expect("admitted")
        })
        .collect();
    blocker.cancel();
    let outputs: Vec<_> = handles.iter().map(|h| h.wait()).collect();
    assert_eq!(
        scheduler.metrics().dedup_hits,
        7,
        "8 identical sweeps, 7 coalesced (hit-rate 7/8)"
    );
    for out in &outputs {
        assert!(!out.cancelled);
        assert!(Arc::ptr_eq(&outputs[0], out), "one shared result object");
        let JobResult::PumpProbe(runs) = &out.result else {
            panic!("sweep result expected");
        };
        assert_eq!(runs.len(), 2);
    }
    // The whole batch cost at most one eigenstate descent: the primary's
    // three drivers (two lit + dark) share the process-wide cache, and
    // the followers never ran at all. (<= because an earlier test in
    // this process may already have seeded the key.)
    let computes = GroundStateCache::global().computes() - computes_before;
    assert!(
        computes <= 1,
        "one descent for the whole batch, saw {computes}"
    );
    scheduler.shutdown();
}

#[test]
fn queued_and_running_jobs_both_cancel_and_queue_stays_bounded() {
    let scheduler = Scheduler::new(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        progress_stride: SampleStride::new(50),
        dedup: false,
        planner: None,
    });
    // Occupy the single worker with a slow grid.
    let running = scheduler
        .submit(JobSpec::fdtd_pulse(100_000, 0.2, 0.31, 20_000))
        .expect("admitted");
    while !matches!(
        running.events().try_iter().last(),
        Some(JobEvent::Started { .. }) | Some(JobEvent::Progress { .. })
    ) {
        std::thread::sleep(Duration::from_millis(2));
    }
    // Fill the queue, then demonstrate backpressure.
    let queued = scheduler
        .submit(JobSpec::fdtd_pulse(64, 0.2, 0.32, 100))
        .expect("admitted");
    let other = scheduler
        .submit(JobSpec::fdtd_pulse(64, 0.2, 0.33, 100))
        .expect("admitted");
    let err = scheduler
        .submit(JobSpec::fdtd_pulse(64, 0.2, 0.34, 100))
        .expect_err("admission control pushes back at capacity");
    assert_eq!(err, SubmitError::QueueFull { capacity: 2 });
    // Cancel the queued job: resolves Unstarted without ever starting.
    queued.cancel();
    let out = queued.wait();
    assert!(out.cancelled);
    assert!(matches!(out.result, JobResult::Unstarted));
    assert!(
        !queued
            .events()
            .try_iter()
            .any(|e| matches!(e, JobEvent::Started { .. })),
        "queued-cancelled job never started"
    );
    // Cancel the running job: cooperative stop with a partial trace.
    running.cancel();
    let out = running.wait();
    assert!(out.cancelled);
    assert!(out.steps_done < 20_000);
    let JobResult::Fdtd(trace) = &out.result else {
        panic!("fdtd trace expected");
    };
    assert_eq!(
        trace.len(),
        out.steps_done,
        "partial trace is a valid prefix"
    );
    // The untouched job still completes.
    assert!(!other.wait().cancelled);
    let m = scheduler.metrics();
    assert!(m.rejected >= 1);
    assert_eq!(m.cancelled, 2);
    scheduler.shutdown();
}

#[test]
fn mixed_workload_jobs_run_through_one_service() {
    // Every JobSpec variant executes end-to-end through the scheduler.
    let scheduler = Scheduler::new(ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        progress_stride: SampleStride::new(5),
        dedup: true,
        planner: None,
    });
    let mut cfg = PipelineConfig::small_demo();
    cfg.cells = (4, 4, 1);
    cfg.prepare_steps = 2;
    cfg.mesh_steps = 3;
    cfg.response_steps = 10;
    let mesh = scheduler.submit(JobSpec::mesh_run(cfg, 0.05, 3)).unwrap();
    let md = scheduler.submit(JobSpec::md_run(cfg, 0.2, 12)).unwrap();
    let fdtd = scheduler
        .submit(JobSpec::fdtd_pulse(64, 0.2, 0.3, 25))
        .unwrap();
    let mesh_out = mesh.wait();
    assert!(matches!(&mesh_out.result, JobResult::Mesh(t) if t.len() == 3));
    let md_out = md.wait();
    assert!(matches!(&md_out.result, JobResult::Md(t) if t.len() == 12));
    let fdtd_out = fdtd.wait();
    assert!(matches!(&fdtd_out.result, JobResult::Fdtd(t) if t.len() == 25));
    assert_eq!(scheduler.metrics().completed, 3);
    scheduler.shutdown();
}
