//! The ionic part of the local Kohn–Sham potential.
//!
//! Soft Gaussian pseudo-wells: the local channel of a norm-conserving
//! pseudopotential, regularized at the origin. The MESH driver's frozen
//! potential is this term alone; the DC-SCF's global potential adds the
//! multigrid Hartree term ([`crate::hartree`]) and LDA exchange
//! ([`crate::xc`]) to it in one place, `mlmd_dcmesh::scf`.

use mlmd_numerics::grid::Grid3;
use mlmd_numerics::vec3::Vec3;

/// An ion contributing to the local potential.
#[derive(Clone, Copy, Debug)]
pub struct AtomSite {
    pub pos: Vec3,
    /// Effective valence charge (well depth scale, hartree·bohr-ish units).
    pub z_eff: f64,
    /// Gaussian width (bohr).
    pub sigma: f64,
}

/// `v_ion(r) = Σ_I −Z_I · exp(−|r−R_I|²/2σ_I²)` with minimum-image wrap.
pub fn ionic_potential(grid: &Grid3, atoms: &[AtomSite]) -> Vec<f64> {
    let (lx, ly, lz) = grid.lengths();
    let lens = Vec3::new(lx, ly, lz);
    let mut v = vec![0.0; grid.len()];
    for k in 0..grid.nz {
        for j in 0..grid.ny {
            for i in 0..grid.nx {
                let (x, y, z) = grid.position(i, j, k);
                let r = Vec3::new(x, y, z);
                let mut acc = 0.0;
                for a in atoms {
                    let d = (r - a.pos).min_image(lens);
                    acc -= a.z_eff * (-d.norm_sqr() / (2.0 * a.sigma * a.sigma)).exp();
                }
                v[grid.idx(i, j, k)] = acc;
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid3 {
        Grid3::new(12, 12, 12, 0.5)
    }

    #[test]
    fn ionic_well_is_deepest_at_the_atom() {
        let g = grid();
        let atom = AtomSite {
            pos: Vec3::new(3.0, 3.0, 3.0),
            z_eff: 4.0,
            sigma: 0.8,
        };
        let v = ionic_potential(&g, &[atom]);
        let at_atom = v[g.idx(6, 6, 6)]; // 3.0/0.5 = index 6
        let far = v[g.idx(0, 0, 0)];
        assert!(
            at_atom < -3.9,
            "well depth ≈ −Z at the center, got {at_atom}"
        );
        assert!(far > at_atom, "potential must decay away from the ion");
    }

    #[test]
    fn ionic_potential_is_periodic() {
        let g = grid();
        // Atom at the box corner: the well must wrap smoothly.
        let atom = AtomSite {
            pos: Vec3::ZERO,
            z_eff: 2.0,
            sigma: 0.6,
        };
        let v = ionic_potential(&g, &[atom]);
        let corner = v[g.idx(0, 0, 0)];
        // Neighbours on both periodic sides see the same value by symmetry.
        assert!((v[g.idx(1, 0, 0)] - v[g.idx(11, 0, 0)]).abs() < 1e-12);
        assert!(corner < v[g.idx(1, 0, 0)]);
    }

    #[test]
    fn superposition_of_two_atoms() {
        let g = grid();
        let a1 = AtomSite {
            pos: Vec3::new(1.5, 1.5, 1.5),
            z_eff: 1.0,
            sigma: 0.5,
        };
        let a2 = AtomSite {
            pos: Vec3::new(4.0, 4.0, 4.0),
            z_eff: 1.0,
            sigma: 0.5,
        };
        let v1 = ionic_potential(&g, &[a1]);
        let v2 = ionic_potential(&g, &[a2]);
        let v12 = ionic_potential(&g, &[a1, a2]);
        for i in 0..g.len() {
            assert!((v12[i] - v1[i] - v2[i]).abs() < 1e-12);
        }
    }
}
