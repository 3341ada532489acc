//! Laser drive sources: Gaussian pulses and CW drives.
//!
//! The paper's Fig. 3 workflow drives the skyrmion superlattice with a
//! femtosecond pulse; [`GaussianPulse`] is that drive, and the MESH
//! drivers hold one. The Floquet workload layer (`mlmd-floquet`)
//! additionally needs a periodic drive; the closed [`Drive`] enum carries
//! either shape through [`crate::driver::PulsedYee`] and the Floquet
//! sweep without making them generic. All quantities in atomic units (see
//! [`crate::units`]).
//!
//! The contract every source upholds: `field(t)` is deterministic and
//! pure — steppers may re-evaluate it freely without changing a
//! trajectory.

/// `E(t) = E₀ · exp(−(t−t₀)²/2σ²) · cos(ω(t−t₀) + φ)`
#[derive(Clone, Copy, Debug)]
pub struct GaussianPulse {
    /// Peak field amplitude (a.u.).
    pub e0: f64,
    /// Carrier angular frequency (a.u.).
    pub omega: f64,
    /// Pulse center (a.u. of time).
    pub t0: f64,
    /// Gaussian σ (a.u. of time).
    pub sigma: f64,
    /// Carrier-envelope phase.
    pub phase: f64,
}

impl GaussianPulse {
    /// Pulse from experimental-style parameters.
    pub fn new(e0: f64, omega: f64, t0: f64, sigma: f64) -> Self {
        Self {
            e0,
            omega,
            t0,
            sigma,
            phase: 0.0,
        }
    }

    /// Field value at time `t`.
    pub fn field(&self, t: f64) -> f64 {
        self.e0 * self.envelope(t) * ((self.omega * (t - self.t0)) + self.phase).cos()
    }

    /// Envelope only.
    pub fn envelope(&self, t: f64) -> f64 {
        let x = (t - self.t0) / self.sigma;
        (-0.5 * x * x).exp()
    }

    /// Fluence proxy `∫E² dt`, by composite midpoint quadrature over the
    /// window `[t₀ − 6σ, t₀ + 6σ]` with `n = ⌈12σ/dt⌉` panels of width
    /// `dt` (the last panel may overshoot the window, which only adds
    /// tail mass below the `e^{−18}` envelope floor).
    ///
    /// Accuracy: the midpoint rule is nominally second order, but on
    /// this integrand (smooth, with Gaussian-flat tails at both window
    /// ends) every Euler–Maclaurin boundary correction vanishes, so the
    /// error decays faster than any power of `dt` — machine precision
    /// once the carrier is resolved (`ω·dt ≲ 1`). The ±6σ truncation
    /// contributes a relative `~e^{−36}`, i.e. nothing at f64
    /// precision. The closed form for a Gaussian-envelope carrier is
    /// `F = (E₀²σ√π/2)·(1 + e^{−ω²σ²}·cos 2φ)` — see the
    /// `fluence_matches_closed_form` test.
    pub fn fluence(&self, dt: f64) -> f64 {
        debug_assert!(dt > 0.0, "fluence quadrature needs a positive dt, got {dt}");
        let t_start = self.t0 - 6.0 * self.sigma;
        let n = ((12.0 * self.sigma) / dt).ceil() as usize;
        (0..n)
            .map(|i| {
                let e = self.field(t_start + (i as f64 + 0.5) * dt);
                e * e * dt
            })
            .sum()
    }

    /// A time after which the pulse is negligible.
    pub fn end_time(&self) -> f64 {
        self.t0 + 6.0 * self.sigma
    }
}

/// Continuous-wave drive `E(t) = E₀ · r(t) · cos(ωt + φ)` with a smooth
/// half-cosine turn-on ramp `r(t)` over `[0, ramp_time]` (instant-on
/// when `ramp_time == 0`). The periodic steady state after the ramp is
/// what a Floquet analysis samples.
#[derive(Clone, Copy, Debug)]
pub struct CwDrive {
    /// Field amplitude (a.u.).
    pub e0: f64,
    /// Drive angular frequency (a.u.).
    pub omega: f64,
    /// Phase at `t = 0`.
    pub phase: f64,
    /// Turn-on ramp duration (a.u. of time); `0` = instant on.
    pub ramp_time: f64,
}

impl CwDrive {
    pub fn new(e0: f64, omega: f64) -> Self {
        Self {
            e0,
            omega,
            phase: 0.0,
            ramp_time: 0.0,
        }
    }

    /// Same drive with a half-cosine turn-on over `ramp_time`.
    pub fn with_ramp(mut self, ramp_time: f64) -> Self {
        assert!(ramp_time >= 0.0, "ramp_time must be non-negative");
        self.ramp_time = ramp_time;
        self
    }

    /// Turn-on envelope: 0 before `t = 0`, half-cosine up to
    /// `ramp_time`, 1 after.
    pub fn ramp(&self, t: f64) -> f64 {
        if t < 0.0 {
            0.0
        } else if t >= self.ramp_time {
            1.0
        } else {
            0.5 * (1.0 - (std::f64::consts::PI * t / self.ramp_time).cos())
        }
    }

    /// Drive period `T = 2π/ω`.
    pub fn period(&self) -> f64 {
        2.0 * std::f64::consts::PI / self.omega
    }

    /// Field value at time `t`.
    pub fn field(&self, t: f64) -> f64 {
        self.e0 * self.ramp(t) * (self.omega * t + self.phase).cos()
    }
}

/// Closed sum of the two drive shapes, `Copy` so steppers can embed it
/// by value exactly as they embed `GaussianPulse`. `Drive::Gaussian(p)`
/// evaluates `p.field(t)` verbatim, so threading `Drive` through a
/// stepper leaves every Gaussian-driven trajectory bit-identical.
#[derive(Clone, Copy, Debug)]
pub enum Drive {
    Gaussian(GaussianPulse),
    Cw(CwDrive),
}

impl Drive {
    /// Field value at time `t`.
    pub fn field(&self, t: f64) -> f64 {
        match self {
            Drive::Gaussian(p) => p.field(t),
            Drive::Cw(d) => d.field(t),
        }
    }

    /// A time after which the drive is negligible (`f64::INFINITY` for
    /// drives that never switch off, e.g. [`CwDrive`]).
    pub fn end_time(&self) -> f64 {
        match self {
            Drive::Gaussian(p) => p.end_time(),
            Drive::Cw(_) => f64::INFINITY,
        }
    }

    /// Nominal carrier angular frequency (a.u.) — the fundamental `ω₀` a
    /// Floquet analysis bins harmonics against.
    pub fn carrier_omega(&self) -> f64 {
        match self {
            Drive::Gaussian(p) => p.omega,
            Drive::Cw(d) => d.omega,
        }
    }

    /// The Gaussian pulse inside, if this is a plain Gaussian drive.
    pub fn as_gaussian(&self) -> Option<GaussianPulse> {
        match self {
            Drive::Gaussian(p) => Some(*p),
            _ => None,
        }
    }
}

impl From<GaussianPulse> for Drive {
    fn from(p: GaussianPulse) -> Self {
        Drive::Gaussian(p)
    }
}

impl From<CwDrive> for Drive {
    fn from(d: CwDrive) -> Self {
        Drive::Cw(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulse() -> GaussianPulse {
        GaussianPulse::new(0.01, 0.057, 200.0, 40.0)
    }

    #[test]
    fn peak_at_center() {
        let p = pulse();
        assert!((p.envelope(p.t0) - 1.0).abs() < 1e-15);
        assert!(p.field(p.t0).abs() <= p.e0 + 1e-15);
        assert!((p.field(p.t0) - p.e0).abs() < 1e-12, "cos(0)=1 at center");
    }

    #[test]
    fn decays_away_from_center() {
        let p = pulse();
        assert!(p.envelope(p.t0 + 3.0 * p.sigma) < 0.02);
        assert!(p.field(p.end_time()).abs() < 1e-7 * p.e0);
    }

    #[test]
    fn fluence_scales_quadratically() {
        let p1 = pulse();
        let mut p2 = pulse();
        p2.e0 *= 2.0;
        let f1 = p1.fluence(0.1);
        let f2 = p2.fluence(0.1);
        assert!((f2 / f1 - 4.0).abs() < 1e-10);
    }

    /// `∫E² dt = (E₀²σ√π/2)(1 + e^{−ω²σ²} cos 2φ)` for a
    /// Gaussian-envelope carrier (the cross term is the Gaussian Fourier
    /// transform at 2ω).
    fn closed_form_fluence(p: &GaussianPulse) -> f64 {
        let carrier = (-p.omega * p.omega * p.sigma * p.sigma).exp() * (2.0 * p.phase).cos();
        0.5 * p.e0 * p.e0 * p.sigma * std::f64::consts::PI.sqrt() * (1.0 + carrier)
    }

    #[test]
    fn fluence_matches_closed_form() {
        let mut p = GaussianPulse::new(0.3, 0.5, 120.0, 10.0);
        p.phase = 0.3;
        let exact = closed_form_fluence(&p);
        let num = p.fluence(0.01);
        assert!(
            ((num - exact) / exact).abs() < 1e-12,
            "midpoint fluence {num} vs closed form {exact}"
        );
        // A strongly non-resonant phase case: φ = π/2 flips the carrier
        // correction's sign.
        let mut q = GaussianPulse::new(1.0, 0.2, 0.0, 8.0);
        q.phase = std::f64::consts::FRAC_PI_2;
        let exact = closed_form_fluence(&q);
        assert!(((q.fluence(0.01) - exact) / exact).abs() < 1e-12);
    }

    #[test]
    fn fluence_quadrature_converges_spectrally() {
        // On the Gaussian-tailed integrand the midpoint rule's
        // Euler–Maclaurin boundary terms vanish: even a coarse grid
        // (16 panels per carrier period) sits at f64 precision.
        let p = GaussianPulse::new(0.3, 0.5, 120.0, 10.0);
        let exact = closed_form_fluence(&p);
        assert!(((p.fluence(0.4) - exact) / exact).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive dt")]
    #[cfg(debug_assertions)]
    fn fluence_rejects_non_positive_dt() {
        pulse().fluence(0.0);
    }

    #[test]
    fn cw_ramp_is_smooth_and_saturates() {
        let d = CwDrive::new(0.5, 0.3).with_ramp(50.0);
        assert_eq!(d.field(-1.0), 0.0, "silent before t = 0");
        assert!((d.ramp(25.0) - 0.5).abs() < 1e-12, "half way at mid-ramp");
        assert_eq!(d.ramp(50.0), 1.0);
        assert_eq!(d.ramp(1e6), 1.0);
        // After the ramp the drive is exactly periodic.
        let t = 400.0;
        let period = d.period();
        assert!((d.field(t) - d.field(t + period)).abs() < 1e-9);
        assert_eq!(Drive::from(d).end_time(), f64::INFINITY);
    }
}
