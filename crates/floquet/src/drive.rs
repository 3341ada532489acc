//! Drive shapes and Floquet bookkeeping.
//!
//! The drive sources themselves live in `mlmd_maxwell::source` (the
//! steppers embed a [`Drive`] by value, and `maxwell` cannot depend on
//! this crate); this module re-exports them as the Floquet vocabulary
//! and adds the period/harmonic helpers the spectral layer is built on.

pub use mlmd_maxwell::source::{ChirpedPulse, CwDrive, Drive, GaussianPulse, PulseTrain};

/// Drive period `T = 2π/ω₀`.
pub fn drive_period(omega0: f64) -> f64 {
    assert!(omega0 > 0.0, "drive frequency must be positive");
    2.0 * std::f64::consts::PI / omega0
}

/// Number of steps per drive period at step size `dt`, rounded to the
/// nearest whole step (at least 1) — the stroboscopic sampling cadence.
pub fn steps_per_period(omega0: f64, dt: f64) -> usize {
    assert!(dt > 0.0, "dt must be positive");
    (drive_period(omega0) / dt).round().max(1.0) as usize
}

/// The harmonic ladder `k·ω₀` for `k = 0..=n_harmonics` (DC first).
pub fn harmonic_omegas(omega0: f64, n_harmonics: usize) -> Vec<f64> {
    (0..=n_harmonics).map(|k| k as f64 * omega0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_and_steps() {
        let omega0 = 0.5;
        let t = drive_period(omega0);
        assert!((t - 4.0 * std::f64::consts::PI).abs() < 1e-12);
        assert_eq!(steps_per_period(omega0, t / 10.0), 10);
        // Sub-period steps clamp to one step per period.
        assert_eq!(steps_per_period(omega0, 10.0 * t), 1);
    }

    #[test]
    fn harmonic_ladder() {
        let w = harmonic_omegas(0.3, 3);
        assert_eq!(w.len(), 4);
        assert_eq!(w[0], 0.0);
        assert!((w[3] - 0.9).abs() < 1e-15);
    }

    #[test]
    fn pulse_train_edge_cases() {
        let base = GaussianPulse::new(0.4, 0.7, 30.0, 6.0);
        // Zero pulses: identically silent.
        let none = PulseTrain::new(base, 0, 25.0);
        for i in 0..200 {
            assert_eq!(none.field(i as f64), 0.0);
        }
        // One pulse: bit-for-bit the base pulse.
        let one = PulseTrain::new(base, 1, 25.0);
        for i in 0..400 {
            let t = i as f64 * 0.37;
            assert_eq!(one.field(t).to_bits(), base.field(t).to_bits());
        }
        // Overlapping delays superpose linearly: zero spacing stacks
        // `count` copies exactly.
        let stacked = PulseTrain::new(base, 3, 0.0);
        for i in 0..200 {
            let t = i as f64 * 0.7;
            assert!((stacked.field(t) - 3.0 * base.field(t)).abs() < 1e-15 * 3.0);
        }
        // Separated pulses: the train repeats the base shape at delays.
        let train = PulseTrain::new(base, 3, 200.0);
        assert!((train.field(base.t0 + 200.0) - base.field(base.t0)).abs() < 1e-12);
        assert!((train.field(base.t0 + 400.0) - base.field(base.t0)).abs() < 1e-12);
        assert!(train.end_time() > base.end_time() + 399.0);
    }

    #[test]
    fn drive_enum_round_trips_sources() {
        let d: Drive = CwDrive::new(1.0, 0.25).into();
        assert_eq!(d.carrier_omega(), 0.25);
        assert_eq!(d.end_time(), f64::INFINITY);
        let g: Drive = GaussianPulse::new(0.1, 0.5, 10.0, 2.0).into();
        assert!(g.as_gaussian().is_some());
        assert!(d.as_gaussian().is_none());
    }
}
