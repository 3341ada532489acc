//! Multiscale Maxwell ↔ matter coupling (paper Eq. (3), ref \[25\]).
//!
//! The macroscopic 1-D field grid is divided into cells; each *matter cell*
//! hosts microscopic electron dynamics (a cluster of DC domains). Per
//! Maxwell step:
//!
//! 1. the field solver advances `E`, `H` with the matter current `J` of the
//!    previous exchange;
//! 2. each matter cell integrates `A(t) ← A(t) − E(t)·dt` (velocity gauge,
//!    c-scaled units), producing the uniform vector potential its DC
//!    domains feel — the `A_X(α)(t)` of Eq. (3);
//! 3. the matter returns an updated `J` for the next step.
//!
//! The handshake payload per cell per exchange is two scalars (A, J): the
//! MSA-style minimal-information coupling.

use crate::yee1d::Yee1d;

/// One macroscopic matter cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct MatterCell {
    /// Leftmost E-node of this cell.
    pub node0: usize,
    /// Number of E-nodes covered.
    pub width: usize,
    /// Accumulated vector potential (a.u.).
    pub a: f64,
    /// Macroscopic current density last reported by the matter.
    pub j: f64,
}

/// The coupled field-plus-matter-cells system.
#[derive(Clone, Debug)]
pub struct MultiscaleMaxwell {
    pub field: Yee1d,
    pub cells: Vec<MatterCell>,
}

impl MultiscaleMaxwell {
    /// Lay out `n_cells` matter cells of `cell_width` nodes starting at
    /// node `offset` inside a field grid of `n_nodes`.
    pub fn new(
        n_nodes: usize,
        dz: f64,
        dt: f64,
        offset: usize,
        n_cells: usize,
        cell_width: usize,
    ) -> Self {
        assert!(
            offset + n_cells * cell_width < n_nodes,
            "matter cells exceed field grid"
        );
        let cells = (0..n_cells)
            .map(|c| MatterCell {
                node0: offset + c * cell_width,
                width: cell_width,
                a: 0.0,
                j: 0.0,
            })
            .collect();
        Self {
            field: Yee1d::new(n_nodes, dz, dt),
            cells,
        }
    }

    /// Average E over a cell.
    fn cell_field(&self, c: &MatterCell) -> f64 {
        let sum: f64 = self.field.ex[c.node0..c.node0 + c.width].iter().sum();
        sum / c.width as f64
    }

    /// Advance one Maxwell step. `currents[c]` is the macroscopic current
    /// density reported by matter cell `c` (from the TDCDFT current of its
    /// DC domains); `source` is an optional soft source (node, value).
    /// Returns the per-cell vector potentials after the step.
    pub fn step(&mut self, currents: &[f64], source: Option<(usize, f64)>) -> Vec<f64> {
        assert_eq!(currents.len(), self.cells.len());
        // Scatter cell currents onto the field grid.
        let mut j = vec![0.0; self.field.len()];
        for (cell, &jc) in self.cells.iter_mut().zip(currents) {
            cell.j = jc;
            for jn in j[cell.node0..cell.node0 + cell.width].iter_mut() {
                *jn = jc;
            }
        }
        self.field.step(&j, source);
        // Integrate A(t) = −∫E dt per cell.
        let dt = self.field.dt;
        let fields: Vec<f64> = self.cells.iter().map(|c| self.cell_field(c)).collect();
        for (cell, e) in self.cells.iter_mut().zip(fields) {
            cell.a -= e * dt;
        }
        self.cells.iter().map(|c| c.a).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::GaussianPulse;

    /// Runs `steps` vacuum-response steps; returns the last step's
    /// per-cell vector potentials.
    fn drive(
        sim: &mut MultiscaleMaxwell,
        steps: usize,
        pulse: &GaussianPulse,
        src_node: usize,
    ) -> Vec<f64> {
        let zeros = vec![0.0; sim.cells.len()];
        let mut a = Vec::new();
        for _ in 0..steps {
            let t = sim.field.time();
            a = sim.step(&zeros, Some((src_node, pulse.field(t) * sim.field.dt)));
        }
        a
    }

    #[test]
    fn vector_potential_accumulates_when_pulse_passes() {
        let mut sim = MultiscaleMaxwell::new(500, 1.0, 0.5, 300, 4, 10);
        let pulse = GaussianPulse::new(0.2, 0.3, 40.0, 12.0);
        let a = drive(&mut sim, 1200, &pulse, 50);
        // The pulse passed through all cells: every A must have moved.
        for (i, &ai) in a.iter().enumerate() {
            assert!(ai.abs() > 1e-8, "cell {i} never saw the pulse: A = {ai}");
        }
    }

    #[test]
    fn downstream_cells_lag_upstream_cells() {
        let mut sim = MultiscaleMaxwell::new(800, 1.0, 0.5, 300, 2, 100);
        let pulse = GaussianPulse::new(0.2, 0.3, 40.0, 12.0);
        // Stop while the pulse is inside the first cell.
        let a = drive(&mut sim, 700, &pulse, 50);
        assert!(
            a[0].abs() > 10.0 * a[1].abs().max(1e-12),
            "upstream cell must respond first: {a:?}"
        );
    }

    #[test]
    fn responding_current_attenuates_transmission() {
        // An absorbing matter slab (J = σE) reduces the field behind it.
        let run = |sigma: f64| -> f64 {
            // 15 narrow matter cells so each responds to its local field.
            let mut sim = MultiscaleMaxwell::new(600, 1.0, 0.5, 200, 15, 4);
            let pulse = GaussianPulse::new(0.2, 0.3, 40.0, 12.0);
            let mut transmitted: f64 = 0.0;
            for _ in 0..1400 {
                let t = sim.field.time();
                let currents: Vec<f64> = sim
                    .cells
                    .iter()
                    .map(|c| {
                        let e: f64 = sim.field.ex[c.node0..c.node0 + c.width].iter().sum::<f64>()
                            / c.width as f64;
                        sigma * e
                    })
                    .collect();
                sim.step(&currents, Some((50, pulse.field(t) * sim.field.dt)));
                transmitted = transmitted.max(sim.field.ex[450].abs());
            }
            transmitted
        };
        let free = run(0.0);
        let damped = run(0.5);
        assert!(
            damped < 0.6 * free,
            "absorbing slab must attenuate: {damped} vs {free}"
        );
    }

    #[test]
    fn cell_layout_checked() {
        let sim = MultiscaleMaxwell::new(100, 1.0, 0.5, 10, 3, 5);
        assert_eq!(sim.cells[0].node0, 10);
        assert_eq!(sim.cells[2].node0, 20);
    }

    #[test]
    #[should_panic(expected = "exceed field grid")]
    fn oversize_layout_rejected() {
        MultiscaleMaxwell::new(100, 1.0, 0.5, 50, 10, 10);
    }
}
