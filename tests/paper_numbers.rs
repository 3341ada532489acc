//! Integration: the headline numbers of the paper's evaluation, pinned to
//! tolerance bands (the `table*`/`fig*` bins of `mlmd-bench` print the
//! paper-vs-measured rows).

use mlmd::exasim::dcmesh_model::DcMeshModel;
use mlmd::exasim::nnqmd_model::NnqmdModel;
use mlmd::exasim::scaling::{self, sweeps};
use mlmd::exasim::sota;

#[test]
fn abstract_headline_claims() {
    // "152- and 3,780-times faster than the state-of-the-art".
    let dcmesh = DcMeshModel::paper_config();
    let nnqmd = NnqmdModel::paper_config();
    let s1 = sota::table_i_speedup(&dcmesh);
    let s2 = sota::table_ii_speedup(&nnqmd);
    assert!((100.0..250.0).contains(&s1), "ME speedup {s1} (paper 152)");
    assert!(
        (3000.0..4500.0).contains(&s2),
        "XS speedup {s2} (paper 3780)"
    );
    // "achieving 1.87 EFLOP/s for the former".
    let flops = dcmesh.sustained_flops(10_000);
    assert!(
        (1.0e18..3.0e18).contains(&flops),
        "{flops:e} (paper 1.873e18)"
    );
}

#[test]
fn performance_attributes_table() {
    // T2S: 1.11e-7 s/(electron·step) and 1.88e-15 s/(atom·weight·step).
    let dcmesh = DcMeshModel::paper_config();
    let t2s_me = dcmesh.t2s(120_000);
    assert!((0.6e-7..2.0e-7).contains(&t2s_me), "{t2s_me:e}");
    let nnqmd = NnqmdModel::paper_config();
    let t2s_xs = nnqmd.t2s(120_000, 1.2288e12);
    assert!((1.5e-15..2.5e-15).contains(&t2s_xs), "{t2s_xs:e}");
    // Weak-scaling efficiencies: ~1.0 (DC-MESH) and 0.997 (XS-NNQMD).
    let w1 = scaling::dcmesh_weak(&dcmesh, 128.0, &sweeps::DCMESH_WEAK)
        .last()
        .unwrap()
        .efficiency;
    assert!(w1 > 0.93, "DC-MESH weak {w1}");
    let w2 = scaling::nnqmd_weak(&nnqmd, 10_240_000.0, &sweeps::NNQMD_WEAK)
        .last()
        .unwrap()
        .efficiency;
    assert!(w2 > 0.99, "XS-NNQMD weak {w2}");
}

#[test]
fn figure_4b_and_5b_strong_scaling() {
    let dcmesh = DcMeshModel::paper_config();
    let eff = scaling::dcmesh_strong(&dcmesh, 12_582_912.0, &sweeps::DCMESH_STRONG)
        .last()
        .unwrap()
        .efficiency;
    assert!((0.75..0.95).contains(&eff), "Fig 4b: {eff} (paper 0.843)");
    let nnqmd = NnqmdModel::paper_config();
    let big = scaling::nnqmd_strong(&nnqmd, 984_000_000.0, &sweeps::NNQMD_STRONG)
        .last()
        .unwrap()
        .efficiency;
    let small = scaling::nnqmd_strong(&nnqmd, 221_400_000.0, &sweeps::NNQMD_STRONG)
        .last()
        .unwrap()
        .efficiency;
    assert!(big > small, "Fig 5b ordering");
}
