//! Self-driving field stepper: a Yee grid bundled with its soft source
//! and a linear matter response, so one no-argument call advances the
//! whole configuration.
//!
//! [`Yee1d::step`] takes the current density and source as arguments —
//! the right shape for a caller that computes the matter response
//! itself, but not steppable by a generic driver loop. [`PulsedYee`]
//! closes over the source (any [`Drive`] injected at a fixed node) and an
//! Ohmic conduction response `J = σE`, which is how the FDTD job and the
//! Floquet sweep drive the grid. The `mlmd-core` engine layer implements
//! its `Stepper` contract on this wrapper.

use crate::source::Drive;
use crate::yee1d::Yee1d;

/// Per-step record of a driven Yee run.
#[derive(Clone, Copy, Debug)]
pub struct FieldRecord {
    /// Field time after the step (natural units, c = 1).
    pub time: f64,
    /// Field energy `½∫(E² + H²) dz` after the step.
    pub energy: f64,
}

/// A 1-D Yee grid driven by a soft [`Drive`] source, with an optional
/// conductivity profile `σ(z)` feeding back `J = σE`.
#[derive(Clone, Debug)]
pub struct PulsedYee {
    pub field: Yee1d,
    pub drive: Drive,
    /// E-node where the soft source is injected.
    pub source_node: usize,
    /// Per-node conductivity (zeros = vacuum).
    sigma: Vec<f64>,
}

impl PulsedYee {
    /// Vacuum grid with the source at `source_node`. Accepts any drive
    /// shape (a bare [`crate::source::GaussianPulse`] converts in place).
    pub fn new(field: Yee1d, drive: impl Into<Drive>, source_node: usize) -> Self {
        assert!(source_node < field.len(), "source node outside the grid");
        let sigma = vec![0.0; field.len()];
        Self {
            field,
            drive: drive.into(),
            source_node,
            sigma,
        }
    }

    /// Make nodes `[lo, hi)` an Ohmic conductor of conductivity `sigma`.
    pub fn with_conductor(mut self, lo: usize, hi: usize, sigma: f64) -> Self {
        assert!(lo < hi && hi <= self.field.len(), "conductor outside grid");
        for s in &mut self.sigma[lo..hi] {
            *s = sigma;
        }
        self
    }

    /// Advance one FDTD step: compute `J = σE`, inject the source, step.
    pub fn advance(&mut self) -> FieldRecord {
        let t = self.field.time();
        let j: Vec<f64> = self
            .field
            .ex
            .iter()
            .zip(&self.sigma)
            .map(|(e, s)| s * e)
            .collect();
        let src = self.drive.field(t) * self.field.dt;
        self.field.step(&j, Some((self.source_node, src)));
        FieldRecord {
            time: self.field.time(),
            energy: self.field.energy(),
        }
    }

    /// Field time (natural units).
    pub fn time(&self) -> f64 {
        self.field.time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CwDrive, GaussianPulse};

    #[test]
    fn cw_driven_yee_reaches_steady_oscillation() {
        let drive = CwDrive::new(0.1, 0.3).with_ramp(60.0);
        let mut sim = PulsedYee::new(Yee1d::new(300, 1.0, 0.5), drive, 50);
        let mut probe = Vec::new();
        for _ in 0..2000 {
            sim.advance();
            probe.push(sim.field.ex[120]);
        }
        let late_peak = probe[1200..].iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(late_peak > 0.01, "CW drive must sustain the field");
    }

    #[test]
    fn pulsed_yee_matches_hand_rolled_loop() {
        let pulse = GaussianPulse::new(0.2, 0.3, 40.0, 12.0);
        let mut reference = Yee1d::new(300, 1.0, 0.5);
        let mut driven = PulsedYee::new(Yee1d::new(300, 1.0, 0.5), pulse, 50);
        for _ in 0..400 {
            let t = reference.time();
            let j = vec![0.0; reference.len()];
            reference.step(&j, Some((50, pulse.field(t) * reference.dt)));
            driven.advance();
        }
        for (a, b) in driven.field.ex.iter().zip(&reference.ex) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "driven run must match bit-for-bit"
            );
        }
        assert_eq!(driven.time(), reference.time());
    }

    #[test]
    fn conductor_absorbs_energy() {
        let pulse = GaussianPulse::new(0.2, 0.3, 40.0, 12.0);
        let run = |sim: PulsedYee| {
            let mut sim = sim;
            let mut peak: f64 = 0.0;
            for _ in 0..600 {
                let r = sim.advance();
                peak = peak.max(r.energy);
            }
            (peak, sim.field.energy())
        };
        let (_, vac_end) = run(PulsedYee::new(Yee1d::new(200, 1.0, 0.5), pulse, 50));
        let (_, cond_end) =
            run(PulsedYee::new(Yee1d::new(200, 1.0, 0.5), pulse, 50).with_conductor(100, 140, 0.2));
        assert!(
            cond_end < vac_end || cond_end < 1e-6,
            "conductor must absorb: {cond_end} vs {vac_end}"
        );
    }

    #[test]
    #[should_panic(expected = "source node outside")]
    fn source_node_checked() {
        PulsedYee::new(
            Yee1d::new(100, 1.0, 0.5),
            GaussianPulse::new(0.1, 0.3, 10.0, 4.0),
            100,
        );
    }
}
