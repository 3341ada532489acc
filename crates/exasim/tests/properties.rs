//! Property tests for the cost-model/planner layer: scaling-curve
//! invariants over arbitrary sweeps, and monotonicity of the planner's
//! prediction over random calibrations and job shapes.

use mlmd_exasim::calibrate::{Calibration, FIXTURE_NGRID, FIXTURE_NORB, FIXTURE_N_QD};
use mlmd_exasim::planner::{PlanJob, Planner};
use mlmd_exasim::scaling::{dcmesh_strong, dcmesh_weak, nnqmd_strong, nnqmd_weak};
use mlmd_exasim::{dcmesh_model::DcMeshModel, nnqmd_model::NnqmdModel, Machine};
use proptest::prelude::*;

/// An arbitrary-but-valid calibration from raw positive constants.
fn calibration(
    mesh_step: f64,
    construct_cold: f64,
    warm_frac: f64,
    md_atom_step: f64,
    fdtd_cell_step: f64,
) -> Calibration {
    Calibration {
        alpha: 2.0e-6,
        beta: 5.0e-11,
        mesh_step,
        n_qd: FIXTURE_N_QD as f64,
        construct_cold,
        construct_warm: construct_cold * warm_frac,
        md_atom_step,
        fdtd_cell_step,
    }
}

/// A strictly increasing rank sweep from arbitrary positive increments.
fn rank_sweep(increments: &[usize]) -> Vec<usize> {
    let mut p = 0usize;
    increments
        .iter()
        .map(|&d| {
            p += d.max(1);
            p
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn strong_scaling_time_monotone_non_increasing(
        total in 1.0e5f64..1.0e8,
        increments in prop::collection::vec(1usize..5000, 2..6),
    ) {
        // More ranks on a fixed problem can never predict a slower step:
        // per-rank work shrinks and the overhead terms grow slower than
        // the work term falls over these sweeps.
        let sweep = rank_sweep(&increments);
        let dc = dcmesh_strong(&DcMeshModel::paper_config(), total * 100.0, &sweep);
        for w in dc.windows(2) {
            prop_assert!(
                w[1].time <= w[0].time * (1.0 + 1e-9),
                "DC-MESH strong time rose: {} ranks {} s -> {} ranks {} s",
                w[0].ranks, w[0].time, w[1].ranks, w[1].time
            );
        }
        let nn = nnqmd_strong(&NnqmdModel::paper_config(), total * 1.0e3, &sweep);
        for w in nn.windows(2) {
            prop_assert!(w[1].time <= w[0].time * (1.0 + 1e-9));
        }
    }

    #[test]
    fn efficiency_always_in_unit_interval(
        granularity in 16.0f64..512.0,
        atoms_per_rank in 1.0e4f64..1.0e7,
        increments in prop::collection::vec(1usize..5000, 2..6),
    ) {
        // The ScalePoint clamp: no sweep, however ordered, reports an
        // efficiency outside [0, 1].
        let mut sweep = rank_sweep(&increments);
        sweep.reverse(); // worst case: t0 is the most-loaded point
        for pt in dcmesh_weak(&DcMeshModel::paper_config(), granularity, &sweep) {
            prop_assert!((0.0..=1.0).contains(&pt.efficiency), "{}", pt.efficiency);
        }
        for pt in nnqmd_weak(&NnqmdModel::paper_config(), atoms_per_rank, &sweep) {
            prop_assert!((0.0..=1.0).contains(&pt.efficiency), "{}", pt.efficiency);
        }
        sweep.reverse();
        for pt in dcmesh_strong(&DcMeshModel::paper_config(), 1.0e7, &sweep) {
            prop_assert!((0.0..=1.0).contains(&pt.efficiency), "{}", pt.efficiency);
        }
    }

    #[test]
    fn prediction_is_monotone_in_work_and_pool_width(
        mesh_step in 1.0e-4f64..0.5,
        construct_cold in 1.0e-4f64..0.5,
        warm_frac in 0.001f64..1.0,
        fdtd_cell_step in 1.0e-10f64..1.0e-6,
        pool_width in 1usize..9,
        runs in 1usize..6,
        steps in 1usize..200,
        warm_shared in 0usize..2,
        mesh in 0usize..2,
    ) {
        // More steps or more runs never predict a shorter job, a wider
        // pool never predicts a longer one, and a job occupies at least
        // one thread for as long as it runs — whatever the fit says
        // about this host.
        let cal = calibration(mesh_step, construct_cold, warm_frac, 2.0e-7, fdtd_cell_step);
        let mut planner = Planner::new(Machine::from_calibration(&cal), cal);
        planner.pool_width = pool_width;
        let job = |runs: usize, steps: usize| {
            if mesh == 1 {
                PlanJob::MeshBatch {
                    runs,
                    steps,
                    ngrid: FIXTURE_NGRID,
                    norb: FIXTURE_NORB,
                    n_qd: FIXTURE_N_QD,
                    warm_shared: warm_shared == 1,
                }
            } else {
                PlanJob::FloquetSweep { runs, steps, cells: 320 }
            }
        };
        let slack = 1.0 + 1e-9;
        let base = planner.plan(&job(runs, steps)).0;
        prop_assert!(base.predicted_cost * slack >= base.predicted_secs);
        let longer = planner.plan(&job(runs, steps + 1)).0;
        prop_assert!(longer.predicted_secs * slack >= base.predicted_secs);
        let more = planner.plan(&job(runs + 1, steps)).0;
        prop_assert!(more.predicted_secs * slack >= base.predicted_secs);
        planner.pool_width = pool_width + 1;
        let wider = planner.plan(&job(runs, steps)).0;
        prop_assert!(wider.predicted_secs <= base.predicted_secs * slack);
    }
}
