//! End-to-end pin of the Floquet workload class (PR 9): a
//! `JobSpec::FloquetSweep` submitted through a planner-enabled
//! `Scheduler` runs a 4-configuration SSH-dimer sweep and detects the
//! topological transition — the quantized charge of the dimer Bloch map
//! flips sign across η = 1 while edge states appear — and the planner's
//! admission gate costs the new workload class like any other.

use mlmd::exasim::calibrate::Calibration;
use mlmd::exasim::planner::Planner;
use mlmd::exasim::Machine;
use mlmd::floquet::sweep::{DimerConfig, SuperlatticeSweep};
use mlmd::service::{JobResult, JobSpec, Scheduler, ServiceConfig, SubmitError};
use mlmd_core::engine::SampleStride;

/// A deterministic synthetic fit (the planner-suite constants), so the
/// admission decisions under test don't depend on host timing.
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

fn planned_scheduler() -> Scheduler {
    Scheduler::new(ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        progress_stride: SampleStride::new(100),
        dedup: true,
        planner: Some(synthetic_planner()),
    })
}

fn ssh_dimer_sweep() -> SuperlatticeSweep {
    SuperlatticeSweep::canonical(
        [0.4, 0.7, 1.5, 2.5]
            .into_iter()
            .map(|dimerization| DimerConfig {
                dimerization,
                patch_period: 20,
            })
            .collect(),
    )
}

#[test]
fn floquet_sweep_detects_the_topological_transition_through_the_service() {
    let scheduler = planned_scheduler();
    let spec = JobSpec::floquet_sweep(ssh_dimer_sweep());
    let total = spec.total_steps();
    let job = scheduler.submit(spec).expect("sweep admitted");
    // Planner enabled: the admitted job carries its ahead-of-time plan.
    let plan = job.plan().expect("admitted job carries its plan");
    assert!(plan.predicted_secs > 0.0);
    let out = job.wait();
    assert!(!out.cancelled);
    assert_eq!(out.steps_done, total);
    let JobResult::Floquet(points) = &out.result else {
        panic!("floquet result expected, got {:?}", out.result);
    };
    assert_eq!(points.len(), 4);
    // The band invariant flips sign exactly at the dimerization
    // transition: one phase below η = 1, the opposite above.
    let charges: Vec<i64> = points.iter().map(|p| p.charge).collect();
    assert_eq!(charges[0], charges[1], "same phase below the transition");
    assert_eq!(charges[2], charges[3], "same phase above the transition");
    assert_eq!(charges[1], -charges[2], "quantized charge flips at η = 1");
    for p in points {
        assert!(p.charge.abs() == 1, "dimer Bloch map carries unit charge");
        assert!(p.charge_residual < 1e-9, "charge is cleanly quantized");
        assert!(p.spectrum.total_power() > 0.0, "probe saw the drive");
        assert_eq!(p.spectrum.samples, p.outcome.steps_done);
    }
    // Edge states mark the nontrivial side only.
    assert!(!points[0].topological && !points[1].topological);
    assert!(points[2].topological && points[3].topological);
    assert_eq!(scheduler.metrics().completed, 1);
    scheduler.shutdown();
}

#[test]
fn identical_floquet_sweeps_coalesce_and_oversized_ones_are_refused() {
    let scheduler = planned_scheduler();
    // Pin both workers so the dedup followers land while the primary is
    // still in flight.
    let blockers: Vec<_> = (0..2)
        .map(|i| {
            scheduler
                .submit(JobSpec::fdtd_pulse(
                    100_000,
                    0.2,
                    0.3 + i as f64 * 0.01,
                    20_000,
                ))
                .expect("admitted")
        })
        .collect();
    let spec = JobSpec::floquet_sweep(ssh_dimer_sweep());
    let a = scheduler.submit(spec.clone()).expect("admitted");
    let b = scheduler.submit(spec).expect("admitted");
    for blocker in &blockers {
        blocker.cancel();
    }
    let (oa, ob) = (a.wait(), b.wait());
    assert!(!oa.cancelled && !ob.cancelled);
    assert_eq!(
        scheduler.metrics().dedup_hits,
        1,
        "identical sweeps coalesce"
    );
    // Admission control applies to the new workload class: a sweep
    // predicted at ~10⁶ s of pool time is refused before queueing.
    let mut huge = ssh_dimer_sweep();
    huge.n_steps = 1_000_000_000;
    let err = scheduler
        .submit(JobSpec::floquet_sweep(huge))
        .expect_err("oversized sweep refused");
    assert!(matches!(err, SubmitError::PlanRejected(_)));
    scheduler.shutdown();
}
