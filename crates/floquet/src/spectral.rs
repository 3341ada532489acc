//! Streaming Floquet spectral analysis on the engine's `Observer` seam.
//!
//! [`FloquetObserver`] projects a scalar probe of the run (a field node,
//! a polarization component, …) onto the drive's harmonic ladder
//! `k·ω₀` *while the run advances*: each step updates `n_harmonics + 1`
//! complex accumulators by one rotate-and-add, so the memory footprint
//! is O(harmonics), not O(steps) — no post-hoc trace storage, unlike
//! `TraceObserver` + FFT. The per-harmonic phasors advance by a
//! precomputed rotation (`e^{−i k ω₀ dt}` each step) rather than fresh
//! trig calls, keeping the per-step cost a handful of multiplies; the
//! accumulated phase drift over an `n`-step run is `O(n·ε)`, far inside
//! the `1e-10` agreement with an offline DFT that the property tests
//! pin.
//!
//! The observer also keeps a *stroboscopic sub-trace* — the probe
//! sampled once per drive period — which is the natural Floquet picture
//! of the dynamics (motion modulo the drive).

use mlmd_core::engine::{Observer, StepInfo, Stepper};
use mlmd_numerics::complex::c64;

/// Spectral window applied to the streaming projection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Window {
    /// No tapering: exact DFT bins of the raw samples.
    Rectangular,
    /// Periodic Hann taper `w_i = ½(1 − cos 2πi/n)` over the expected
    /// run length — suppresses leakage from incommensurate run lengths.
    Hann,
}

impl Window {
    /// Weight of sample `i` of an expected `n`-sample run.
    pub fn weight(self, i: usize, n: usize) -> f64 {
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => {
                if n == 0 {
                    1.0
                } else {
                    0.5 * (1.0 - (2.0 * std::f64::consts::PI * i as f64 / n as f64).cos())
                }
            }
        }
    }
}

/// One harmonic bin of a [`FloquetSpectrum`].
#[derive(Clone, Copy, Debug)]
pub struct HarmonicBin {
    /// Harmonic index `k` (0 = DC).
    pub harmonic: usize,
    /// Bin frequency `k·ω₀`.
    pub omega: f64,
    /// Windowed projection `⟨x(t) e^{−i k ω₀ t}⟩` (for a pure cosine
    /// `A·cos(kω₀t + φ)` this converges to `(A/2)·e^{iφ}`).
    pub amplitude: c64,
    /// `|amplitude|²` — the bin's spectral power.
    pub power: f64,
}

/// The result of a Floquet-observed run.
#[derive(Clone, Debug)]
pub struct FloquetSpectrum {
    /// Drive fundamental the harmonic ladder is built on.
    pub omega0: f64,
    /// Bins for `k = 0..=n_harmonics`, DC first.
    pub bins: Vec<HarmonicBin>,
    /// Probe sampled once per drive period (stroboscopic picture).
    pub stroboscopic: Vec<f64>,
    /// Number of steps the observer saw.
    pub samples: usize,
}

impl FloquetSpectrum {
    /// Power of harmonic `k` normalized over the AC bins (`k ≥ 1`);
    /// zero when the AC spectrum is empty.
    pub fn sideband_weight(&self, k: usize) -> f64 {
        let total: f64 = self.bins.iter().skip(1).map(|b| b.power).sum();
        if total == 0.0 {
            0.0
        } else {
            self.bins.get(k).map_or(0.0, |b| b.power / total)
        }
    }

    /// Total power across all bins, DC included.
    pub fn total_power(&self) -> f64 {
        self.bins.iter().map(|b| b.power).sum()
    }
}

/// The scalar probe a [`FloquetObserver`] projects: reads the stepper
/// (after the step) and its record, returns the sample.
pub type Probe<S> = Box<dyn Fn(&S, &<S as Stepper>::Record) -> f64 + Send>;

/// Streaming windowed DFT observer at the drive harmonics.
///
/// Generic over the stepper: the probe sees both the stepper (after the
/// step) and its record, so it can read state the record does not carry
/// (e.g. a single E-node of a `PulsedYee`). Construct with
/// [`FloquetObserver::new`], run it through the engine, then call
/// [`FloquetObserver::finish`].
pub struct FloquetObserver<S: Stepper> {
    probe: Probe<S>,
    omega0: f64,
    window: Window,
    expected_steps: usize,
    /// Windowed projection accumulators, `k = 0..=n_harmonics`.
    bins: Vec<c64>,
    /// Per-step phase advance `e^{−i k ω₀ dt}` per harmonic.
    rotators: Vec<c64>,
    /// Current phasor `e^{−i k ω₀ t_i}` per harmonic (t_i = (i+1)·dt).
    phases: Vec<c64>,
    /// Window phasor `e^{i 2π i / n}` and its per-step rotation — the
    /// Hann weight is `½(1 − Re wphase)`, so the taper costs one complex
    /// multiply per step instead of a `cos` call (the same recurrence
    /// trick as the harmonic phasors; drift is `O(n·ε)`, inside the
    /// offline-DFT agreement bound the property tests pin).
    wphase: c64,
    wrot: c64,
    weight_sum: f64,
    strobe_every: usize,
    stroboscopic: Vec<f64>,
    samples: usize,
}

impl<S: Stepper> FloquetObserver<S> {
    /// Observer binning `probe` at the harmonics `k·ω₀`,
    /// `k = 0..=n_harmonics`, for a run of `expected_steps` steps of
    /// size `dt` (the expected length fixes the window taper; a
    /// cancelled run simply stops early). Stroboscopic samples are
    /// taken every `round(2π/ω₀dt)` steps.
    pub fn new(
        probe: impl Fn(&S, &S::Record) -> f64 + Send + 'static,
        dt: f64,
        omega0: f64,
        n_harmonics: usize,
        expected_steps: usize,
    ) -> Self {
        assert!(dt > 0.0 && omega0 > 0.0, "dt and ω₀ must be positive");
        let rotators: Vec<c64> = (0..=n_harmonics)
            .map(|k| c64::cis(-(k as f64) * omega0 * dt))
            .collect();
        Self {
            probe: Box::new(probe),
            omega0,
            window: Window::Hann,
            expected_steps,
            bins: vec![c64::zero(); n_harmonics + 1],
            // First sample sits at t = dt, already one rotation in.
            phases: rotators.clone(),
            rotators,
            wphase: c64::cis(0.0),
            wrot: if expected_steps == 0 {
                c64::cis(0.0)
            } else {
                c64::cis(std::f64::consts::TAU / expected_steps as f64)
            },
            weight_sum: 0.0,
            strobe_every: crate::drive::steps_per_period(omega0, dt),
            stroboscopic: Vec::new(),
            samples: 0,
        }
    }

    /// Replace the default Hann window.
    pub fn with_window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }

    /// Number of steps between stroboscopic samples (one drive period).
    pub fn strobe_every(&self) -> usize {
        self.strobe_every
    }

    /// Fold the accumulators into the final [`FloquetSpectrum`].
    pub fn finish(self) -> FloquetSpectrum {
        let norm = if self.weight_sum > 0.0 {
            1.0 / self.weight_sum
        } else {
            0.0
        };
        let bins = self
            .bins
            .iter()
            .enumerate()
            .map(|(k, &acc)| {
                let amplitude = acc.scale(norm);
                HarmonicBin {
                    harmonic: k,
                    omega: k as f64 * self.omega0,
                    amplitude,
                    power: amplitude.norm_sqr(),
                }
            })
            .collect();
        FloquetSpectrum {
            omega0: self.omega0,
            bins,
            stroboscopic: self.stroboscopic,
            samples: self.samples,
        }
    }
}

impl<S: Stepper> Observer<S> for FloquetObserver<S> {
    fn observe(&mut self, info: StepInfo, stepper: &S, record: &S::Record) {
        let x = (self.probe)(stepper, record);
        let w = match self.window {
            Window::Rectangular => 1.0,
            // `weight(i, n)` via the streamed phasor (n == 0 degrades to
            // the rectangular convention, matching `Window::weight`).
            Window::Hann if self.expected_steps == 0 => 1.0,
            Window::Hann => 0.5 * (1.0 - self.wphase.re),
        };
        self.wphase *= self.wrot;
        self.weight_sum += w;
        let wx = w * x;
        for (bin, (phase, rot)) in self
            .bins
            .iter_mut()
            .zip(self.phases.iter_mut().zip(self.rotators.iter()))
        {
            *bin += phase.scale(wx);
            *phase *= *rot;
        }
        self.samples += 1;
        if (info.index + 1).is_multiple_of(self.strobe_every) {
            self.stroboscopic.push(x);
        }
    }
}

/// Offline oracle: the same windowed projection computed directly from
/// a stored trace with per-sample trig (`t_i = (i+1)·dt`, matching the
/// streaming convention). Used by the property tests to pin the
/// streaming recurrence; O(n·harmonics) and allocation-heavy — not the
/// production path.
pub fn offline_bins(
    trace: &[f64],
    dt: f64,
    omega0: f64,
    n_harmonics: usize,
    window: Window,
) -> Vec<c64> {
    let n = trace.len();
    let weight_sum: f64 = (0..n).map(|i| window.weight(i, n)).sum();
    let norm = if weight_sum > 0.0 {
        1.0 / weight_sum
    } else {
        0.0
    };
    (0..=n_harmonics)
        .map(|k| {
            let mut acc = c64::zero();
            for (i, &x) in trace.iter().enumerate() {
                let t = (i as f64 + 1.0) * dt;
                let w = window.weight(i, n);
                acc += c64::cis(-(k as f64) * omega0 * t).scale(w * x);
            }
            acc.scale(norm)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlmd_core::engine::Engine;

    /// A stepper emitting a known two-tone signal.
    struct Synth {
        i: usize,
        dt: f64,
        omega0: f64,
    }

    impl Stepper for Synth {
        type Record = f64;

        fn step(&mut self) -> f64 {
            self.i += 1;
            let t = self.i as f64 * self.dt;
            // Fundamental + a 30% third harmonic with a phase offset.
            (self.omega0 * t).cos() + 0.3 * (3.0 * self.omega0 * t + 0.7).cos()
        }

        fn time_fs(&self) -> f64 {
            self.i as f64 * self.dt
        }
    }

    fn run_synth(window: Window, steps: usize) -> FloquetSpectrum {
        let omega0 = 0.4;
        let dt = 0.3;
        let mut s = Synth { i: 0, dt, omega0 };
        let mut obs = FloquetObserver::new(|_s: &Synth, r: &f64| *r, dt, omega0, 5, steps)
            .with_window(window);
        Engine::run(&mut s, steps, &mut obs);
        obs.finish()
    }

    #[test]
    fn picks_out_harmonic_content() {
        // Many full periods so leakage is tiny even rectangular.
        let spec = run_synth(Window::Hann, 4000);
        // Amplitudes converge to A/2 per the one-sided convention.
        assert!((spec.bins[1].amplitude.abs() - 0.5).abs() < 0.01);
        assert!((spec.bins[3].amplitude.abs() - 0.15).abs() < 0.01);
        // Silent harmonics stay silent.
        assert!(spec.bins[2].amplitude.abs() < 0.01);
        assert!(spec.bins[4].amplitude.abs() < 0.01);
        // Sideband weights normalize over AC bins.
        let s1 = spec.sideband_weight(1);
        let s3 = spec.sideband_weight(3);
        assert!(s1 > 0.8 && s3 > 0.05 && s1 + s3 > 0.99);
    }

    #[test]
    fn stroboscopic_trace_samples_once_per_period() {
        let spec = run_synth(Window::Rectangular, 1000);
        let per = crate::drive::steps_per_period(0.4, 0.3);
        assert_eq!(spec.stroboscopic.len(), 1000 / per);
        assert_eq!(spec.samples, 1000);
        // Stroboscopic samples of a commensurate signal are near-constant
        // (the drive phase is frozen); allow rounding of T/dt.
        let spread = spec
            .stroboscopic
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        assert!(spread.1 - spread.0 < 0.8, "strobe spread {spread:?}");
    }

    #[test]
    fn streaming_matches_offline_dft() {
        // Deterministic spot-check of the proptest property.
        let omega0 = 0.4;
        let dt = 0.3;
        let steps = 700;
        let mut s = Synth { i: 0, dt, omega0 };
        let mut trace = Vec::new();
        let mut obs = FloquetObserver::new(|_s: &Synth, r: &f64| *r, dt, omega0, 4, steps);
        for i in 0..steps {
            let r = s.step();
            trace.push(r);
            obs.observe(
                StepInfo {
                    index: i,
                    is_last: i == steps - 1,
                },
                &s,
                &r,
            );
        }
        let offline = offline_bins(&trace, dt, omega0, 4, Window::Hann);
        let spec = obs.finish();
        for (bin, off) in spec.bins.iter().zip(offline) {
            assert!(
                (bin.amplitude - off).abs() < 1e-10,
                "harmonic {}: {:?} vs {:?}",
                bin.harmonic,
                bin.amplitude,
                off
            );
        }
    }

    #[test]
    fn empty_run_yields_silent_spectrum() {
        let obs = FloquetObserver::new(|_: &Synth, r: &f64| *r, 0.3, 0.4, 3, 100);
        let spec = obs.finish();
        assert_eq!(spec.samples, 0);
        assert_eq!(spec.total_power(), 0.0);
        assert_eq!(spec.sideband_weight(1), 0.0);
    }
}
