//! Drive shapes and Floquet bookkeeping.
//!
//! The drive sources themselves live in `mlmd_maxwell::source` (the
//! steppers embed a [`Drive`] by value, and `maxwell` cannot depend on
//! this crate); this module re-exports them as the Floquet vocabulary
//! and adds the period helpers the spectral layer is built on.

pub use mlmd_maxwell::source::{CwDrive, Drive, GaussianPulse};

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
    fn drive_enum_round_trips_sources() {
        let d: Drive = CwDrive::new(1.0, 0.25).into();
        assert_eq!(d.carrier_omega(), 0.25);
        assert_eq!(d.end_time(), f64::INFINITY);
        let g: Drive = GaussianPulse::new(0.1, 0.5, 10.0, 2.0).into();
        assert!(g.as_gaussian().is_some());
        assert!(d.as_gaussian().is_none());
    }
}
