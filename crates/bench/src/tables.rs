//! Table/figure generators. Each function returns the formatted text the
//! corresponding binary prints, so tests can validate content.

use crate::hostinfo;
use mlmd_exasim::dcmesh_model::{DcMeshModel, GemmPrecision};
use mlmd_exasim::nnqmd_model::NnqmdModel;
use mlmd_exasim::scaling::{self, sweeps};
use mlmd_exasim::sota;
use mlmd_lfd::kin_prop::{KinImpl, KinProp};
use mlmd_lfd::nlp_prop::{NlpPrecision, NlpProp};
use mlmd_lfd::wavefunction::WaveFunctions;
use mlmd_nnqmd::failure::FidelityScalingModel;
use mlmd_numerics::cgemm::{cgemm_flops, overlap, rank_update};
use mlmd_numerics::complex::c64;
use mlmd_numerics::flops::FlopCounter;
use mlmd_numerics::grid::Grid3;
use mlmd_numerics::matrix::Matrix;
use mlmd_numerics::vec3::Vec3;
use std::fmt::Write as _;
use std::time::Instant;

fn full_mode() -> bool {
    std::env::var("MLMD_FULL").is_ok()
}

// ---------------------------------------------------------------- Table I

/// Table I: Maxwell–Ehrenfest time-to-solution vs the published SOTA.
pub fn table1() -> String {
    let model = DcMeshModel::paper_config();
    let mut s = String::new();
    let _ = writeln!(s, "Table I: State-of-the-art Maxwell-Ehrenfest simulations");
    let _ = writeln!(
        s,
        "{:<22} {:<12} {:<20} {:>12} {:>12} {:>16}",
        "Work", "System", "Machine", "Electrons", "T2S [s]", "PFLOP/s (%peak)"
    );
    for r in sota::table_i_sota() {
        let _ = writeln!(
            s,
            "{:<22} {:<12} {:<20} {:>12.0} {:>12.3e} {:>9.2} ({:.1})",
            r.work,
            r.system,
            r.machine,
            r.electrons,
            r.t2s,
            r.pflops.unwrap_or(0.0),
            r.peak_pct.unwrap_or(0.0)
        );
    }
    let ours = sota::table_i_this_work(&model);
    let _ = writeln!(
        s,
        "{:<22} {:<12} {:<20} {:>12.0} {:>12.3e} {:>9.2} ({:.1})",
        ours.work,
        ours.system,
        ours.machine,
        ours.electrons,
        ours.t2s,
        ours.pflops.unwrap_or(0.0),
        ours.peak_pct.unwrap_or(0.0)
    );
    let _ = writeln!(
        s,
        "\nSpeedup over best SOTA (SALMON): {:.0}x   [paper: 152x]",
        sota::table_i_speedup(&model)
    );
    let _ = writeln!(
        s,
        "Paper reference row: PbTiO3, 15,360,000 electrons, 1.11e-7 s, 1873 PFLOP/s (100.2%)"
    );
    s
}

// --------------------------------------------------------------- Table II

/// Table II: XS-NNQMD time-to-solution vs SOTA.
pub fn table2() -> String {
    let model = NnqmdModel::paper_config();
    let mut s = String::new();
    let _ = writeln!(s, "Table II: State-of-the-art XS-NNQMD simulations");
    let _ = writeln!(
        s,
        "{:<24} {:<22} {:>16}",
        "Work", "Machine", "T2S [s/(atom·w·step)]"
    );
    for r in sota::table_ii_sota() {
        let _ = writeln!(s, "{:<24} {:<22} {:>16.3e}", r.work, r.machine, r.t2s);
    }
    let ours = sota::table_ii_this_work(&model);
    let _ = writeln!(
        s,
        "{:<24} {:<22} {:>16.3e}",
        ours.work, ours.machine, ours.t2s
    );
    let _ = writeln!(
        s,
        "\nSpeedup over SOTA: {:.0}x   [paper: 3,780x]",
        sota::table_ii_speedup(&model)
    );
    let _ = writeln!(
        s,
        "Workload: 1.2288e12 atoms x 690,000 weights on 120,000 ranks (model)"
    );
    s
}

// -------------------------------------------------------------- Table III

/// One measured row of the kin_prop ladder.
#[derive(Clone, Copy, Debug)]
pub struct LadderRow {
    pub imp: KinImpl,
    pub seconds: f64,
    pub speedup: f64,
}

/// Measure the Table III optimization ladder on this host.
pub fn kin_prop_ladder(grid: Grid3, norb: usize, steps: usize) -> Vec<LadderRow> {
    let kp = KinProp::new(grid);
    let flops = FlopCounter::new();
    let mut rows = Vec::new();
    let mut baseline = 0.0;
    for imp in KinImpl::ALL {
        let mut wf = WaveFunctions::random(grid, norb, 99);
        let start = Instant::now();
        kp.propagate_n(imp, &mut wf, 0.01, Vec3::ZERO, steps, &flops);
        let secs = start.elapsed().as_secs_f64();
        if imp == KinImpl::Baseline {
            baseline = secs;
        }
        rows.push(LadderRow {
            imp,
            seconds: secs,
            speedup: baseline / secs,
        });
    }
    rows
}

/// Table III: the kin_prop optimization ladder, measured here + paper row.
pub fn table3() -> String {
    let (grid, norb, steps) = if full_mode() {
        (Grid3::new(70, 70, 72, 0.5), 64, 100)
    } else {
        (Grid3::new(32, 32, 32, 0.5), 16, 10)
    };
    let rows = kin_prop_ladder(grid, norb, steps);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table III: kin_prop() local time-propagator ladder ({}x{}x{} mesh, {} orbitals, {} steps)",
        grid.nx, grid.ny, grid.nz, norb, steps
    );
    let _ = writeln!(
        s,
        "{:<38} {:>12} {:>10}",
        "Implementation", "Runtime (s)", "Speedup"
    );
    let paper = [
        ("Baseline (paper, CPU)", 8.655, 1.0),
        ("Data & loop re-ordering (paper)", 2.356, 3.67),
        ("Blocking/tiling (paper)", 0.939, 9.22),
        ("GPU hierarchical parallel (paper)", 0.026, 338.0),
    ];
    for row in &rows {
        let _ = writeln!(
            s,
            "{:<38} {:>12.4} {:>9.2}x",
            row.imp.label(),
            row.seconds,
            row.speedup
        );
    }
    let _ = writeln!(
        s,
        "\nPaper reference (Polaris, 70x70x72, 64 orbitals, 1000 steps):"
    );
    for (name, secs, sp) in paper {
        let _ = writeln!(s, "{name:<38} {secs:>12.3} {sp:>9.2}x");
    }
    s
}

// --------------------------------------------------------------- Table IV

/// Table IV: DC-MESH rate vs orbital count and precision —
/// host-measured GFLOP/s for the nonlocal tier, BF16-split accuracy, and
/// the PVC-projected TFLOP/s from the machine model.
pub fn table4() -> String {
    let grid = if full_mode() {
        Grid3::new(40, 40, 40, 0.5)
    } else {
        Grid3::new(24, 24, 24, 0.5)
    };
    let orbital_counts: &[usize] = if full_mode() {
        &[32, 64, 128]
    } else {
        &[16, 32, 64]
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table IV: DC-MESH nonlocal-tier performance vs problem size and precision"
    );
    let _ = writeln!(
        s,
        "(host-measured on a {}x{}x{} mesh; PVC column from the machine model)",
        grid.nx, grid.ny, grid.nz
    );
    let _ = writeln!(
        s,
        "{:>8} {:<12} {:>14} {:>14} {:>16}",
        "Orbitals", "Precision", "Host GFLOP/s", "Max |err|", "PVC TFLOP/s"
    );
    for &norb in orbital_counts {
        let wf0 = WaveFunctions::random(grid, norb, 11);
        let mut wf = WaveFunctions::random(grid, norb, 12);
        for (a, b) in wf.psi.as_mut_slice().iter_mut().zip(wf0.psi.as_slice()) {
            *a += b.scale(0.3);
        }
        let nlp = NlpProp::new(&wf0, c64::new(0.0, -0.01));
        for prec in [
            NlpPrecision::F64,
            NlpPrecision::F32,
            NlpPrecision::Bf16,
            NlpPrecision::Bf16x2,
            NlpPrecision::Bf16x3,
        ] {
            let counter = FlopCounter::new();
            let mut test = wf.clone();
            // Warm-up pass (first-touch allocations), then timed passes.
            nlp.apply(&mut test, prec, &counter);
            counter.reset();
            let reps = 3;
            let start = Instant::now();
            for _ in 0..reps {
                nlp.apply(&mut test, prec, &counter);
            }
            let secs = start.elapsed().as_secs_f64();
            let gflops = counter.total() as f64 / secs / 1e9;
            let err = nlp.precision_error(&wf, prec);
            let pvc = pvc_projection(prec);
            let _ = writeln!(
                s,
                "{:>8} {:<12} {:>14.2} {:>14.3e} {:>16}",
                norb,
                prec.label(),
                gflops,
                err,
                pvc
            );
        }
    }
    let _ = writeln!(
        s,
        "\nPaper reference (single PVC tile, 1024 orbitals): FP32 14.98 TF/s (65.2%),"
    );
    let _ = writeln!(s, "FP32/BF16 17.95 TF/s (78.0%), FP64 7.69 TF/s (33.4%).");
    let _ = writeln!(
        s,
        "Notes: the FP64-vs-FP32 throughput gap on PVC comes from power throttling"
    );
    let _ = writeln!(
        s,
        "and the XMX systolic arrays — hardware effects a CPU host does not mirror"
    );
    let _ = writeln!(
        s,
        "(here FP64 SIMD is the fast path); the PVC column carries that ordering."
    );
    let _ = writeln!(
        s,
        "BF16 rows are software-emulated (slow in wall-clock by construction); their"
    );
    let _ = writeln!(
        s,
        "reproduced content is the accuracy ladder Bf16 < Bf16x2 < Bf16x3 ≈ FP32."
    );
    s
}

fn pvc_projection(prec: NlpPrecision) -> String {
    let mut model = DcMeshModel::paper_config();
    model.precision = match prec {
        NlpPrecision::F64 => GemmPrecision::Fp64,
        NlpPrecision::F32 => GemmPrecision::Fp32,
        _ => GemmPrecision::Fp32Bf16,
    };
    let f = model.qd_step_flops();
    let t = model.qd_step_time();
    format!(
        "{:.2}",
        (f.kin + f.nlp + f.obs + f.ortho + f.local) / t / 1e12
    )
}

// ---------------------------------------------------------------- Table V

/// Table V: hotspot kernels, host-measured, with the paper's PVC column.
/// Percentages are relative to the best dense rate observed on this host
/// (the practical peak of this code base here), mirroring how the paper
/// normalizes against the PVC tile peak.
pub fn table5() -> String {
    let (grid, norb) = if full_mode() {
        (Grid3::new(40, 40, 40, 0.5), 64)
    } else {
        (Grid3::new(20, 20, 24, 0.5), 32)
    };
    let dgemm_gflops = hostinfo::probe(if full_mode() { 512 } else { 256 });
    let ngrid = grid.len();
    let wf0 = WaveFunctions::random(grid, norb, 21);
    let wf = WaveFunctions::random(grid, norb, 22);
    // Measure every kernel first, then normalize.
    let mut overlap_out = Matrix::<c64>::zeros(norb, norb);
    let t1 = time(|| overlap(c64::one(), &wf0.psi, &wf.psi, c64::zero(), &mut overlap_out));
    let r1 = cgemm_flops(norb, norb, ngrid) as f64 / t1 / 1e9;
    let mut psi_t = wf.psi.clone();
    let t2 = time(|| rank_update(c64::new(-0.01, 0.0), &wf0.psi, &overlap_out, &mut psi_t));
    let r2 = cgemm_flops(ngrid, norb, norb) as f64 / t2 / 1e9;
    let nlp = NlpProp::new(&wf0, c64::new(0.0, -0.01));
    let counter = FlopCounter::new();
    let mut test = wf.clone();
    let t3 = time(|| nlp.apply(&mut test, NlpPrecision::F64, &counter));
    let r3 = counter.reset() as f64 / t3 / 1e9;
    let kp = KinProp::new(grid);
    let mut wfk = wf.clone();
    let t4 = time(|| kp.propagate_n(KinImpl::Parallel, &mut wfk, 0.01, Vec3::ZERO, 1, &counter));
    let r4 = counter.total() as f64 / t4 / 1e9;
    let peak = dgemm_gflops.max(r1).max(r2).max(r3);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table V: hotspot kernels on {}x{}x{} mesh, {} orbitals (host dense peak: {:.1} GF/s)",
        grid.nx, grid.ny, grid.nz, norb, peak
    );
    let _ = writeln!(
        s,
        "{:<14} {:>14} {:>12} {:>22}",
        "Kernel", "Host GFLOP/s", "% host peak", "Paper (PVC, % peak)"
    );
    for (name, rate, paper) in [
        ("CGEMM (1)", r1, "18.72 TF/s (81.4%)"),
        ("CGEMM (2)", r2, "21.66 TF/s (94.2%)"),
        ("nlp_prop()", r3, "16.02 TF/s (69.7%)"),
        ("kin_prop()", r4, "3.51 TF/s (15.3%)"),
    ] {
        let _ = writeln!(
            s,
            "{:<14} {:>14.2} {:>11.1}% {:>22}",
            name,
            rate,
            100.0 * rate / peak,
            paper
        );
    }
    let _ = writeln!(
        s,
        "\nReproduced shape: dense CGEMMs run near peak; the stencil tier sits far"
    );
    let _ = writeln!(
        s,
        "below it (paper: 15.3% vs 81-94%) — the arithmetic-intensity gap that"
    );
    let _ = writeln!(s, "motivates GEMMification (Sec. V.B.5).");
    s
}

fn time(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64().max(1e-9)
}

// ------------------------------------------------------------------ Fig 4

/// Fig. 4: DC-MESH weak and strong scaling series.
pub fn fig4() -> String {
    let model = DcMeshModel::paper_config();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 4a: DC-MESH weak scaling (wall-clock per MD step, s)"
    );
    for granularity in [32.0, 128.0] {
        let _ = writeln!(s, "  granularity {granularity} electrons/rank:");
        let _ = writeln!(
            s,
            "  {:>10} {:>14} {:>14} {:>12}",
            "ranks", "electrons", "time (s)", "efficiency"
        );
        for p in scaling::dcmesh_weak(&model, granularity, &sweeps::DCMESH_WEAK) {
            let _ = writeln!(
                s,
                "  {:>10} {:>14.3e} {:>14.1} {:>12.3}",
                p.ranks, p.size, p.time, p.efficiency
            );
        }
    }
    let _ = writeln!(
        s,
        "  [paper: efficiency 1.0 at 120,000 ranks, 15.36M electrons]"
    );
    let _ = writeln!(s, "\nFig. 4b: DC-MESH strong scaling, 12,582,912 electrons");
    let _ = writeln!(
        s,
        "  {:>10} {:>14} {:>12}",
        "ranks", "time (s)", "efficiency"
    );
    for p in scaling::dcmesh_strong(&model, 12_582_912.0, &sweeps::DCMESH_STRONG) {
        let _ = writeln!(
            s,
            "  {:>10} {:>14.1} {:>12.3}",
            p.ranks, p.time, p.efficiency
        );
    }
    let _ = writeln!(s, "  [paper: efficiency 0.843 at 98,304 ranks]");
    s
}

// ------------------------------------------------------------------ Fig 5

/// Fig. 5: XS-NNQMD weak and strong scaling series.
pub fn fig5() -> String {
    let model = NnqmdModel::paper_config();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 5a: XS-NNQMD weak scaling (wall-clock per MD step, s)"
    );
    for (g, paper) in [
        (160_000.0, 0.957),
        (640_000.0, 0.964),
        (10_240_000.0, 0.997),
    ] {
        let _ = writeln!(s, "  granularity {g} atoms/rank [paper eff: {paper}]:");
        let _ = writeln!(
            s,
            "  {:>10} {:>14} {:>12}",
            "ranks", "time (s)", "efficiency"
        );
        for p in scaling::nnqmd_weak(&model, g, &sweeps::NNQMD_WEAK) {
            let _ = writeln!(
                s,
                "  {:>10} {:>14.2} {:>12.3}",
                p.ranks, p.time, p.efficiency
            );
        }
    }
    let _ = writeln!(s, "\nFig. 5b: XS-NNQMD strong scaling");
    for (n, paper) in [(221_400_000.0, 0.440), (984_000_000.0, 0.773)] {
        let _ = writeln!(s, "  {n:.3e} atoms [paper eff at 73,800 ranks: {paper}]:");
        let _ = writeln!(
            s,
            "  {:>10} {:>14} {:>12}",
            "ranks", "time (s)", "efficiency"
        );
        for p in scaling::nnqmd_strong(&model, n, &sweeps::NNQMD_STRONG) {
            let _ = writeln!(
                s,
                "  {:>10} {:>14.2} {:>12.3}",
                p.ranks, p.time, p.efficiency
            );
        }
    }
    s
}

// -------------------------------------------------------------- Fidelity

/// Fidelity scaling: the t_failure exponents of ref \[27\].
pub fn fidelity() -> String {
    let sizes: Vec<f64> = (0..6).map(|i| 1e4 * 8f64.powi(i)).collect();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fidelity scaling: time-to-failure vs system size (ref [27])"
    );
    let _ = writeln!(
        s,
        "{:>12} {:>18} {:>18}",
        "atoms", "Allegro t_fail", "Legato t_fail"
    );
    let plain = FidelityScalingModel::allegro();
    let legato = FidelityScalingModel::allegro_legato();
    let tp = plain.mean_t_failure(&sizes, 4000, 1);
    let tl = legato.mean_t_failure(&sizes, 4000, 2);
    for ((n, a), b) in sizes.iter().zip(&tp).zip(&tl) {
        let _ = writeln!(s, "{n:>12.1e} {a:>18.3e} {b:>18.3e}");
    }
    let ep = plain.measured_exponent(&sizes, 4000, 1);
    let el = legato.measured_exponent(&sizes, 4000, 2);
    let _ = writeln!(
        s,
        "\nMeasured exponents: Allegro {ep:.3} [paper: -0.29], Allegro-Legato {el:.3} [paper: -0.14]"
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_all_competitors() {
        let t = table1();
        for name in ["Qb@ll", "PWDFT", "SALMON", "This work"] {
            assert!(t.contains(name), "missing {name}:\n{t}");
        }
    }

    #[test]
    fn table2_has_speedup() {
        let t = table2();
        assert!(t.contains("Speedup"));
        assert!(t.contains("Linker"));
    }

    #[test]
    fn ladder_variants_all_measured() {
        let rows = kin_prop_ladder(Grid3::new(8, 8, 8, 0.5), 4, 2);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.seconds > 0.0));
        assert!((rows[0].speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig4_contains_both_panels() {
        let f = fig4();
        assert!(f.contains("Fig. 4a"));
        assert!(f.contains("Fig. 4b"));
        assert!(f.contains("120000") || f.contains("120,000"));
    }

    #[test]
    fn fig5_contains_both_panels() {
        let f = fig5();
        assert!(f.contains("Fig. 5a"));
        assert!(f.contains("Fig. 5b"));
    }

    #[test]
    fn fidelity_exponents_reported() {
        let f = fidelity();
        assert!(f.contains("-0.29"));
        assert!(f.contains("-0.14"));
    }
}
