//! The effective ferroelectric Hamiltonian of the PbTiO3 substrate.
//!
//! A second-principles-style model (à la Zhong–Vanderbilt effective
//! Hamiltonians, the approach the paper's ref \[13\] calls "second
//! principles"): the soft-mode coordinate of each unit cell is the Ti
//! off-centering `u_i`, with
//!
//! ```text
//! E = Σ_i [ a₂(x_i)|u_i|² + a₄|u_i|⁴ + a_ani(u_x²u_y² + u_y²u_z² + u_z²u_x²) ]
//!   − Σ_⟨ij⟩ J(x_i, x_j) u_i·u_j
//!   + (k/2) Σ_{Pb,O} |r − R⁰|²           (cage tethers)
//!   − z* E_ext·Σ_i u_i                    (field coupling)
//! ```
//!
//! `a₂ < 0, a₄ > 0` gives the ferroelectric double well with spontaneous
//! `|u₀| = √(−a₂/2a₄)`; `J > 0` orders neighbouring dipoles; the
//! anisotropy favours ⟨100⟩ polarization (tetragonal PbTiO3).
//!
//! **Photoexcitation** enters through the per-cell excitation fraction
//! `x_i ∈ \[0,1\]` (from the DC-MESH `n_exc` handshake, paper Sec. V.A.8):
//! `a₂(x) = a₂ + β·x` and `J(x) = J·max(0, 1−κ_J·(x_i+x_j)/2)` — carrier
//! screening flattens the double well and decouples the dipoles, the
//! switching mechanism established in ref \[11\].

use crate::atoms::AtomsSystem;
use crate::perovskite::PerovskiteLattice;
use mlmd_numerics::vec3::Vec3;

/// Model parameters (eV, Å).
#[derive(Clone, Copy, Debug)]
pub struct FerroParams {
    /// Quadratic soft-mode coefficient (negative → double well), eV/Å².
    pub a2: f64,
    /// Quartic coefficient, eV/Å⁴.
    pub a4: f64,
    /// Cubic anisotropy, eV/Å⁴ (positive favours ⟨100⟩ axes).
    pub a_ani: f64,
    /// Nearest-neighbour dipole coupling, eV/Å².
    pub j_nn: f64,
    /// Tether stiffness for Pb and O cage atoms, eV/Å².
    pub k_tether: f64,
    /// Excitation hardening of the well: a₂(x) = a₂ + β·x, eV/Å².
    pub beta_exc: f64,
    /// Excitation weakening of the coupling: J(x) = J·max(0, 1−κ_J·x̄).
    pub kappa_j: f64,
    /// Effective Born charge for field coupling (|e|).
    pub z_star: f64,
}

impl FerroParams {
    /// PbTiO3-like defaults: spontaneous |u₀| = 0.3 Å, well depth
    /// ≈ 0.12 eV/cell, 10% excitation neutralizes the well.
    pub fn pbtio3() -> Self {
        Self {
            a2: -2.7,
            a4: 15.0,
            a_ani: 5.0,
            j_nn: 0.3,
            k_tether: 8.0,
            beta_exc: 30.0,
            kappa_j: 8.0,
            z_star: 7.1,
        }
    }

    /// Spontaneous displacement magnitude of the uncoupled ground-state
    /// well, `√(−a₂/2a₄)` (0 if the well is closed).
    pub fn u_spontaneous(&self) -> f64 {
        if self.a2 < 0.0 {
            (-self.a2 / (2.0 * self.a4)).sqrt()
        } else {
            0.0
        }
    }

    /// The excitation fraction that closes the double well.
    pub fn critical_excitation(&self) -> f64 {
        if self.a2 >= 0.0 {
            0.0
        } else {
            -self.a2 / self.beta_exc
        }
    }
}

/// The model bound to one supercell geometry.
#[derive(Clone, Debug)]
pub struct FerroModel {
    pub params: FerroParams,
    n_cells: (usize, usize, usize),
    ti_index: Vec<usize>,
    /// Ideal lattice sites of every atom (tether anchors; Ti anchor is the
    /// cell center, used only to define u).
    ideal: Vec<Vec3>,
    /// Which atoms are tethered (everything but Ti).
    tethered: Vec<bool>,
    cell_centers: Vec<Vec3>,
    /// Per-cell excitation fraction x ∈ \[0,1\].
    excitation: Vec<f64>,
    /// External field (V/Å), couples as −z*·E·u.
    pub e_field: Vec3,
}

impl FerroModel {
    /// Bind to a lattice. The *ideal* (centrosymmetric) sites are derived
    /// from the lattice geometry, not the current positions, so a polar
    /// starting texture feels the correct restoring forces.
    pub fn new(lat: &PerovskiteLattice, params: FerroParams) -> Self {
        let (nx, ny, nz) = lat.n_cells;
        let a = lat.a;
        let n_atoms = lat.system.len();
        let mut ideal = vec![Vec3::ZERO; n_atoms];
        let mut tethered = vec![true; n_atoms];
        let mut cell_centers = vec![Vec3::ZERO; lat.cell_count()];
        for kz in 0..nz {
            for ky in 0..ny {
                for kx in 0..nx {
                    let c = lat.cell_idx(kx, ky, kz);
                    let origin = Vec3::new(kx as f64 * a, ky as f64 * a, kz as f64 * a);
                    cell_centers[c] = origin + Vec3::splat(0.5 * a);
                    let base = 5 * c;
                    ideal[base] = origin; // Pb
                    ideal[base + 1] = cell_centers[c]; // Ti (not tethered)
                    tethered[base + 1] = false;
                    ideal[base + 2] = origin + Vec3::new(0.5 * a, 0.5 * a, 0.0);
                    ideal[base + 3] = origin + Vec3::new(0.5 * a, 0.0, 0.5 * a);
                    ideal[base + 4] = origin + Vec3::new(0.0, 0.5 * a, 0.5 * a);
                }
            }
        }
        Self {
            params,
            n_cells: lat.n_cells,
            ti_index: lat.ti_index.clone(),
            ideal,
            tethered,
            cell_centers,
            excitation: vec![0.0; lat.cell_count()],
            e_field: Vec3::ZERO,
        }
    }

    pub fn cell_count(&self) -> usize {
        self.ti_index.len()
    }

    /// Supercell dimensions `(nx, ny, nz)` the model is bound to — the
    /// shape a `PolarizationField` over [`Self::displacement_field`] needs.
    pub fn n_cells(&self) -> (usize, usize, usize) {
        self.n_cells
    }

    /// Set the per-cell excitation fractions (clamped to \[0,1\]) — the
    /// XS/GS mixing input delivered by DC-MESH.
    pub fn set_excitation(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.cell_count());
        for (e, &v) in self.excitation.iter_mut().zip(x) {
            *e = v.clamp(0.0, 1.0);
        }
    }

    /// Uniform excitation helper.
    pub fn set_uniform_excitation(&mut self, x: f64) {
        let v = vec![x; self.cell_count()];
        self.set_excitation(&v);
    }

    pub fn excitation(&self) -> &[f64] {
        &self.excitation
    }

    fn cell_idx(&self, kx: usize, ky: usize, kz: usize) -> usize {
        kx + self.n_cells.0 * (ky + self.n_cells.1 * kz)
    }

    /// Per-cell u field from the current positions.
    pub fn displacement_field(&self, sys: &AtomsSystem) -> Vec<Vec3> {
        self.ti_index
            .iter()
            .zip(&self.cell_centers)
            .map(|(&ti, &center)| (sys.positions[ti] - center).min_image(sys.box_lengths))
            .collect()
    }

    /// Compute energy and *accumulate* forces (assumes `sys.forces` holds
    /// the other terms or zeros).
    pub fn accumulate(&self, sys: &mut AtomsSystem) -> f64 {
        let p = self.params;
        let u = self.displacement_field(sys);
        let (nx, ny, nz) = self.n_cells;
        let mut energy = 0.0;
        // On-site double well + anisotropy + field.
        for (c, &ui) in u.iter().enumerate().take(self.cell_count()) {
            let x = self.excitation[c];
            let a2 = p.a2 + p.beta_exc * x;
            let u2 = ui.norm_sqr();
            energy += a2 * u2 + p.a4 * u2 * u2;
            energy += p.a_ani
                * (ui.x * ui.x * ui.y * ui.y
                    + ui.y * ui.y * ui.z * ui.z
                    + ui.z * ui.z * ui.x * ui.x);
            energy -= p.z_star * self.e_field.dot(ui);
            let mut f = ui * (-2.0 * a2 - 4.0 * p.a4 * u2);
            f -= Vec3::new(
                2.0 * p.a_ani * ui.x * (ui.y * ui.y + ui.z * ui.z),
                2.0 * p.a_ani * ui.y * (ui.x * ui.x + ui.z * ui.z),
                2.0 * p.a_ani * ui.z * (ui.x * ui.x + ui.y * ui.y),
            );
            f += self.e_field * p.z_star;
            sys.forces[self.ti_index[c]] += f;
        }
        // Nearest-neighbour coupling (periodic), each bond once. The +1
        // neighbour wraps by compare, not by an integer `%` per bond.
        let next = |k: usize, n: usize| if k + 1 == n { 0 } else { k + 1 };
        for kz in 0..nz {
            let kz1 = next(kz, nz);
            for ky in 0..ny {
                let ky1 = next(ky, ny);
                for kx in 0..nx {
                    let c = self.cell_idx(kx, ky, kz);
                    let kx1 = next(kx, nx);
                    for n in [
                        self.cell_idx(kx1, ky, kz),
                        self.cell_idx(kx, ky1, kz),
                        self.cell_idx(kx, ky, kz1),
                    ] {
                        if n == c {
                            continue; // degenerate axis (n_cells == 1)
                        }
                        let xbar = 0.5 * (self.excitation[c] + self.excitation[n]);
                        let j = p.j_nn * (1.0 - p.kappa_j * xbar).max(0.0);
                        energy -= j * u[c].dot(u[n]);
                        sys.forces[self.ti_index[c]] += u[n] * j;
                        sys.forces[self.ti_index[n]] += u[c] * j;
                    }
                }
            }
        }
        // Cage tethers.
        for (idx, (&anchor, &is_tethered)) in self.ideal.iter().zip(&self.tethered).enumerate() {
            if !is_tethered {
                continue;
            }
            let d = (sys.positions[idx] - anchor).min_image(sys.box_lengths);
            energy += 0.5 * p.k_tether * d.norm_sqr();
            sys.forces[idx] -= d * p.k_tether;
        }
        energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perovskite::PerovskiteLattice;

    fn model_with_u(u: Vec3) -> (FerroModel, AtomsSystem) {
        let lat = PerovskiteLattice::uniform(3, 3, 3, u);
        let m = FerroModel::new(&lat, FerroParams::pbtio3());
        (m, lat.system)
    }

    fn energy_of(u: Vec3) -> f64 {
        let (m, mut sys) = model_with_u(u);
        sys.forces = vec![Vec3::ZERO; sys.len()];
        m.accumulate(&mut sys)
    }

    #[test]
    fn double_well_minimum_below_para() {
        let p = FerroParams::pbtio3();
        let u0 = p.u_spontaneous();
        assert!((u0 - 0.3).abs() < 1e-12);
        let e_para = energy_of(Vec3::ZERO);
        let e_polar = energy_of(Vec3::new(0.0, 0.0, u0));
        assert!(
            e_polar < e_para,
            "polar state must be lower: {e_polar} vs {e_para}"
        );
    }

    #[test]
    fn both_wells_degenerate() {
        let u0 = FerroParams::pbtio3().u_spontaneous();
        let up = energy_of(Vec3::new(0.0, 0.0, u0));
        let dn = energy_of(Vec3::new(0.0, 0.0, -u0));
        assert!((up - dn).abs() < 1e-9, "±u degenerate by symmetry");
    }

    #[test]
    fn anisotropy_prefers_axes_over_diagonal() {
        let u0 = FerroParams::pbtio3().u_spontaneous();
        let axis = energy_of(Vec3::new(0.0, 0.0, u0));
        let diag = energy_of(Vec3::splat(u0 / 3.0f64.sqrt()));
        assert!(axis < diag, "⟨100⟩ {axis} must beat ⟨111⟩ {diag}");
    }

    #[test]
    fn excitation_closes_the_well() {
        let p = FerroParams::pbtio3();
        let xc = p.critical_excitation();
        assert!((xc - 0.09).abs() < 1e-12);
        let u0 = p.u_spontaneous();
        let lat = PerovskiteLattice::uniform(3, 3, 3, Vec3::new(0.0, 0.0, u0));
        let mut m = FerroModel::new(&lat, p);
        let mut sys = lat.system.clone();
        // Above critical excitation (and with J suppressed), the polar
        // state is pushed back toward center: force on Ti anti-parallel to u.
        m.set_uniform_excitation(2.0 * xc);
        sys.forces = vec![Vec3::ZERO; sys.len()];
        m.accumulate(&mut sys);
        let f = sys.forces[m.ti_index[0]];
        assert!(f.z < 0.0, "excited well must push u → 0, F_z = {}", f.z);
    }

    #[test]
    fn ground_state_force_vanishes_at_coupled_minimum() {
        // With uniform texture, the J term adds −6J u² per cell, shifting
        // the minimum to √((−a₂+6J)/2a₄) — wait: E/cell = a₂u²+a₄u⁴−3Ju·u
        // (3 bonds/cell at uniform u) → u* = √((3J−a₂)/(2a₄)).
        let p = FerroParams::pbtio3();
        let u_star = ((3.0 * p.j_nn - p.a2) / (2.0 * p.a4)).sqrt();
        let (m, mut sys) = model_with_u(Vec3::new(0.0, 0.0, u_star));
        sys.forces = vec![Vec3::ZERO; sys.len()];
        m.accumulate(&mut sys);
        for c in 0..m.cell_count() {
            let f = sys.forces[m.ti_index[c]];
            assert!(f.norm() < 1e-9, "residual force {f:?} at coupled minimum");
        }
    }

    #[test]
    fn forces_match_numerical_gradient() {
        let (m, mut sys) = model_with_u(Vec3::new(0.12, -0.07, 0.21));
        // Perturb a few atoms off-ideal to make the test nontrivial.
        sys.positions[0] += Vec3::new(0.03, -0.02, 0.05);
        sys.positions[7] += Vec3::new(-0.04, 0.01, 0.02);
        let atom = 7;
        let h = 1e-6;
        let energy_at = |sys: &AtomsSystem| -> f64 {
            let mut s = sys.clone();
            s.forces = vec![Vec3::ZERO; s.len()];
            m.accumulate(&mut s)
        };
        sys.forces = vec![Vec3::ZERO; sys.len()];
        m.accumulate(&mut sys);
        let f_analytic = sys.forces[atom];
        for axis in 0..3 {
            let mut plus = sys.clone();
            plus.positions[atom][axis] += h;
            let mut minus = sys.clone();
            minus.positions[atom][axis] -= h;
            let f_num = -(energy_at(&plus) - energy_at(&minus)) / (2.0 * h);
            assert!(
                (f_analytic[axis] - f_num).abs() < 1e-5,
                "axis {axis}: analytic {} vs numeric {}",
                f_analytic[axis],
                f_num
            );
        }
    }

    #[test]
    fn external_field_tilts_the_well() {
        let u0 = FerroParams::pbtio3().u_spontaneous();
        let lat = PerovskiteLattice::uniform(2, 2, 2, Vec3::new(0.0, 0.0, u0));
        let mut m = FerroModel::new(&lat, FerroParams::pbtio3());
        m.e_field = Vec3::new(0.0, 0.0, 0.05);
        let mut sys_up = lat.system.clone();
        sys_up.forces = vec![Vec3::ZERO; sys_up.len()];
        let e_up = m.accumulate(&mut sys_up);
        let lat_dn = PerovskiteLattice::uniform(2, 2, 2, Vec3::new(0.0, 0.0, -u0));
        let mut sys_dn = lat_dn.system.clone();
        sys_dn.forces = vec![Vec3::ZERO; sys_dn.len()];
        let e_dn = m.accumulate(&mut sys_dn);
        assert!(
            e_up < e_dn,
            "field along +z must favour +u: {e_up} vs {e_dn}"
        );
    }

    #[test]
    fn tethers_restore_cage_atoms() {
        let (m, mut sys) = model_with_u(Vec3::ZERO);
        sys.positions[0] += Vec3::new(0.1, 0.0, 0.0); // Pb of cell 0
        sys.forces = vec![Vec3::ZERO; sys.len()];
        m.accumulate(&mut sys);
        assert!(sys.forces[0].x < -0.5, "tether must pull Pb back");
    }
}
