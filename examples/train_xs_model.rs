//! Train the Allegro-lite XS-NNQMD model stack end to end:
//!
//! 1. generate ground-state and excited-state reference datasets from the
//!    QXMD effective model (synthetic stand-ins for the paper's NAQMD data);
//! 2. unify a second "fidelity" with TEA (MSA-2);
//! 3. pretrain the foundation model (SAM/Legato training);
//! 4. fine-tune the XS model from the FM weights;
//! 5. report held-out force errors and the Eq. (4) mixed-force behaviour,
//!    plus the fidelity-scaling exponents of ref \[27\].
//!
//! ```sh
//! cargo run --release --example train_xs_model
//! ```

use mlmd::nnqmd::failure::FidelityScalingModel;
use mlmd::nnqmd::fm::{fine_tune, pretrain};
use mlmd::nnqmd::gen::{generate, GenConfig};
use mlmd::nnqmd::mix::XsGsModel;
use mlmd::nnqmd::model::{AllegroLite, ModelConfig};
use mlmd::nnqmd::tea;
use mlmd::nnqmd::train::{force_rmse, Dataset, Frame};

fn main() {
    let cfg = ModelConfig {
        hidden: 8,
        k_max: 5,
        rcut: 4.5,
    };
    // --- datasets ---
    println!("generating reference data from the QXMD effective model…");
    let gs = generate(GenConfig {
        cells: (2, 2, 2),
        n_frames: 16,
        excitation: 0.0,
        seed: 101,
        ..Default::default()
    });
    let xs = generate(GenConfig {
        cells: (2, 2, 2),
        n_frames: 12,
        excitation: 0.12,
        seed: 102,
        ..Default::default()
    });
    let (xs_train, xs_val) = xs.split(0.75);
    // --- TEA: fold in a shifted-fidelity copy of the GS data ---
    let foreign = Dataset {
        frames: gs
            .frames
            .iter()
            .map(|f| Frame {
                energy: 1.1 * f.energy + 75.0,
                forces: f.forces.iter().map(|v| *v * 1.1).collect(),
                species: f.species.clone(),
                positions: f.positions.clone(),
                box_lengths: f.box_lengths,
            })
            .collect(),
    };
    let overlaps = vec![gs
        .frames
        .iter()
        .map(|f| (1.1 * f.energy + 75.0, f.energy))
        .collect::<Vec<_>>()];
    let unified = tea::unify(&[gs.clone(), foreign], &overlaps);
    println!(
        "TEA unified {} + {} frames onto one energy scale",
        gs.len(),
        unified.len() - gs.len()
    );
    // --- FM pretraining (GS, SAM) ---
    let mut fm = AllegroLite::new(cfg, 7);
    println!(
        "pretraining the foundation model ({} params)…",
        fm.n_params()
    );
    let history = pretrain(&mut fm, &unified, 60, 5e-3);
    println!(
        "  loss {:.4} -> {:.4} over {} epochs",
        history[0],
        history.last().unwrap(),
        history.len()
    );
    println!("  GS force RMSE: {:.4} eV/Å", force_rmse(&fm, &gs));
    // --- XS fine-tune ---
    println!("fine-tuning the XS model from FM weights…");
    let xs_model = fine_tune(&fm, &xs_train, 30, 2e-3);
    println!(
        "  XS force RMSE (held out): {:.4} eV/Å (FM before tuning: {:.4})",
        force_rmse(&xs_model, &xs_val),
        force_rmse(&fm, &xs_val)
    );
    // --- Eq. (4) mixing ---
    let mut mixed = XsGsModel::new(fm, xs_model, 0.05);
    let frame = &xs_val.frames[0];
    for n_exc_per_atom in [0.0, 0.025, 0.05] {
        mixed.set_excitation(
            n_exc_per_atom * frame.positions.len() as f64,
            frame.positions.len(),
        );
        let (e, _) = mixed.evaluate(&frame.species, &frame.positions, frame.box_lengths);
        println!(
            "  w = {:.2}: mixed energy {:+.3} eV (Eq. 4 blend)",
            mixed.weight(),
            e
        );
    }
    // --- fidelity scaling ---
    let sizes: Vec<f64> = (0..5).map(|i| 1e4 * 10f64.powi(i)).collect();
    let ep = FidelityScalingModel::allegro().measured_exponent(&sizes, 2000, 1);
    let el = FidelityScalingModel::allegro_legato().measured_exponent(&sizes, 2000, 2);
    println!("\nfidelity scaling t_failure ∝ N^α:");
    println!("  Allegro        α = {ep:.3}  [paper: -0.29]");
    println!("  Allegro-Legato α = {el:.3}  [paper: -0.14]");
}
