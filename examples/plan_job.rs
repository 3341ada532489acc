//! Calibrate this machine, then let the planner gate service admission.
//!
//! The example fits a [`Calibration`] from short probe workloads (probed
//! collectives + fixture MESH/MD/FDTD runs), prints the fitted
//! constants, and opens a scheduler with the planner wired into
//! admission. It then submits three jobs: a right-sized MESH run (shows
//! the prediction and, after execution, its error), a
//! deliberately oversized run (refused with the typed verdict before it
//! can occupy a queue slot), and an MD relaxation predicted long enough
//! to be demoted to the batch band.
//!
//! ```sh
//! cargo run --release --example plan_job
//! ```
//!
//! [`Calibration`]: mlmd::exasim::calibrate::Calibration

use mlmd::core::config::PipelineConfig;
use mlmd::core::engine::SampleStride;
use mlmd::exasim::calibrate::{calibrate, CalibrationConfig, FIXTURE_E0};
use mlmd::exasim::planner::{PlanLimits, Planner};
use mlmd::exasim::Machine;
use mlmd::service::{JobSpec, Scheduler, ServiceConfig, SubmitError};

fn main() {
    println!("calibrating this machine (short probe workloads)...");
    let cal = calibrate(&CalibrationConfig::quick());
    println!("  collective alpha    {:>12.3e} s/op", cal.alpha);
    println!("  collective beta     {:>12.3e} s/B", cal.beta);
    println!("  MESH step           {:>12.6} s", cal.mesh_step);
    println!("  construction (cold) {:>12.6} s", cal.construct_cold);
    println!("  construction (warm) {:>12.6} s", cal.construct_warm);
    println!("  MD per atom-step    {:>12.3e} s", cal.md_atom_step);
    println!("  FDTD per cell-step  {:>12.3e} s", cal.fdtd_cell_step);

    // Tight limits so the example's "oversized" job is visibly refused.
    let planner = Planner::new(Machine::from_calibration(&cal), cal).with_limits(PlanLimits {
        max_wall_secs: 30.0,
        max_cost_rank_secs: 120.0,
        batch_threshold_secs: 0.05,
    });
    let scheduler = Scheduler::new(ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        progress_stride: SampleStride::new(10),
        dedup: true,
        planner: Some(planner),
    });

    let mut material = PipelineConfig::small_demo();
    material.cells = (4, 4, 1);
    material.prepare_steps = 0;

    // 1. A right-sized job: admitted, annotated, predicted.
    let steps = 16;
    let job = scheduler
        .submit(JobSpec::mesh_run(material, FIXTURE_E0, steps))
        .expect("right-sized job admitted");
    let plan = job.plan().expect("planner annotated the job");
    println!("\nMESH run ({steps} steps) admitted:");
    println!(
        "  predicted {:.4} s wall-clock, {:.4} rank-seconds (as an in-process batch)",
        plan.predicted_secs, plan.predicted_cost
    );
    let out = job.wait();
    assert!(!out.cancelled);
    let m = scheduler.metrics();
    println!(
        "  measured  {:.4} s  ({:+.1}% prediction error)",
        m.actual_secs,
        100.0 * (m.actual_secs - m.predicted_secs) / m.predicted_secs
    );

    // 2. An oversized job: refused before it can queue.
    match scheduler.submit(JobSpec::mesh_run(material, FIXTURE_E0, 10_000_000)) {
        Err(SubmitError::PlanRejected(verdict)) => {
            println!("\nMESH run (10M steps) refused at admission:");
            println!("  {verdict}");
        }
        other => panic!("expected a plan rejection, got {other:?}"),
    }

    // 3. A long MD relaxation: admitted but demoted to the batch band.
    let md = scheduler
        .submit(JobSpec::md_run(material, 0.2, 50_000))
        .expect("MD job admitted");
    let md_plan = md.plan().expect("planned");
    md.wait();
    let m = scheduler.metrics();
    println!(
        "\nMD relaxation predicted {:.3} s (> {:.2} s batch threshold): demoted jobs so far: {}",
        md_plan.predicted_secs, 0.05, m.demoted
    );
    println!(
        "\nservice metrics: planned {}, plan-rejected {}, demoted {}, predicted {:.3} s, actual {:.3} s",
        m.planned, m.plan_rejected, m.demoted, m.predicted_secs, m.actual_secs
    );
    scheduler.shutdown();
}
