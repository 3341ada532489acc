//! 1-D Yee FDTD: `E_x(z, t)`, `H_y(z, t)` on a staggered grid.
//!
//! Natural units (c = ε₀ = μ₀ = 1). The update is the standard leapfrog
//!
//! ```text
//! H_y^{n+½}[i+½] = H_y^{n−½}[i+½] − (Δt/Δz)(E_x^n[i+1] − E_x^n[i])
//! E_x^{n+1}[i]   = E_x^n[i]       − (Δt/Δz)(H_y^{n+½}[i+½] − H_y^{n+½}[i−½]) − Δt·J_x[i]
//! ```
//!
//! with first-order Mur absorbing boundaries, so pulses exit the domain
//! instead of reflecting. Matter enters through the current term `J_x`
//! supplied by the DC domains (TDCDFT current, paper Sec. V.B.5).

/// 1-D FDTD state.
#[derive(Clone, Debug)]
pub struct Yee1d {
    /// Electric field at integer nodes.
    pub ex: Vec<f64>,
    /// Magnetic field at half-integer nodes (`hy[i]` lives at i+½).
    pub hy: Vec<f64>,
    pub dz: f64,
    pub dt: f64,
    /// Previous boundary values for the Mur ABC.
    mur_left: f64,
    mur_right: f64,
    time: f64,
}

impl Yee1d {
    /// `n` E-nodes with spacing `dz`; `dt` must satisfy the Courant limit
    /// `dt ≤ dz` (c = 1).
    pub fn new(n: usize, dz: f64, dt: f64) -> Self {
        assert!(n >= 8, "grid too small");
        assert!(dt <= dz, "Courant violation: dt={dt} > dz={dz}");
        Self {
            ex: vec![0.0; n],
            hy: vec![0.0; n - 1],
            dz,
            dt,
            mur_left: 0.0,
            mur_right: 0.0,
            time: 0.0,
        }
    }

    pub fn len(&self) -> usize {
        self.ex.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ex.is_empty()
    }

    pub fn time(&self) -> f64 {
        self.time
    }

    /// Advance one step with current density `j` sampled at E-nodes
    /// (`j.len() == n`, zeros for vacuum) and a soft source added at
    /// `source` = (node, field value).
    pub fn step(&mut self, j: &[f64], source: Option<(usize, f64)>) {
        let n = self.ex.len();
        assert_eq!(j.len(), n, "current array size mismatch");
        let c = self.dt / self.dz;
        // H update.
        for i in 0..n - 1 {
            self.hy[i] -= c * (self.ex[i + 1] - self.ex[i]);
        }
        // Save pre-update interior neighbours for Mur.
        let e1_old = self.ex[1];
        let en2_old = self.ex[n - 2];
        // E update (interior).
        for (i, &ji) in j.iter().enumerate().take(n - 1).skip(1) {
            self.ex[i] -= c * (self.hy[i] - self.hy[i - 1]) + self.dt * ji;
        }
        // First-order Mur ABCs: E₀ⁿ⁺¹ = E₁ⁿ + (cΔt−Δz)/(cΔt+Δz)(E₁ⁿ⁺¹ − E₀ⁿ).
        let k = (self.dt - self.dz) / (self.dt + self.dz);
        let e0_new = e1_old + k * (self.ex[1] - self.ex[0]);
        let en_new = en2_old + k * (self.ex[n - 2] - self.ex[n - 1]);
        self.ex[0] = e0_new;
        self.ex[n - 1] = en_new;
        self.mur_left = e1_old;
        self.mur_right = en2_old;
        // Soft source.
        if let Some((node, value)) = source {
            self.ex[node] += value;
        }
        self.time += self.dt;
    }

    /// Field energy `½∫(E² + H²) dz` (diagnostic).
    pub fn energy(&self) -> f64 {
        let e: f64 = self.ex.iter().map(|x| x * x).sum();
        let h: f64 = self.hy.iter().map(|x| x * x).sum();
        0.5 * (e + h) * self.dz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vacuum_step(sim: &mut Yee1d, source: Option<(usize, f64)>) {
        let j = vec![0.0; sim.len()];
        sim.step(&j, source);
    }

    /// Node index of the field maximum (pulse tracking).
    fn peak_node(sim: &Yee1d) -> usize {
        sim.ex
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    #[test]
    fn pulse_propagates_at_light_speed() {
        let n = 400;
        let mut sim = Yee1d::new(n, 1.0, 0.5);
        // Inject a short pulse near the left.
        for step in 0..40 {
            let t = step as f64 * sim.dt;
            let s = ((t - 10.0) / 4.0).powi(2);
            vacuum_step(&mut sim, Some((20, 0.5 * (-0.5 * s).exp())));
        }
        let p0 = peak_node(&sim);
        let steps = 300;
        for _ in 0..steps {
            vacuum_step(&mut sim, None);
        }
        let p1 = peak_node(&sim);
        let expected = steps as f64 * sim.dt / sim.dz; // c = 1
        let moved = (p1 - p0) as f64;
        assert!(
            (moved - expected).abs() <= 3.0,
            "pulse moved {moved} nodes, expected ≈ {expected}"
        );
    }

    #[test]
    fn mur_boundaries_absorb() {
        let n = 200;
        let mut sim = Yee1d::new(n, 1.0, 0.5);
        for step in 0..40 {
            let t = step as f64 * sim.dt;
            let s = ((t - 10.0) / 4.0).powi(2);
            vacuum_step(&mut sim, Some((100, 0.5 * (-0.5 * s).exp())));
        }
        let e_peak = sim.energy();
        // Run long enough for both wavefronts to exit.
        for _ in 0..1000 {
            vacuum_step(&mut sim, None);
        }
        let e_final = sim.energy();
        assert!(
            e_final < 0.02 * e_peak,
            "Mur ABC should absorb ≥98%: {e_final} of {e_peak}"
        );
    }

    #[test]
    fn energy_stable_before_boundaries() {
        let n = 600;
        let mut sim = Yee1d::new(n, 1.0, 0.5);
        for step in 0..40 {
            let t = step as f64 * sim.dt;
            let s = ((t - 10.0) / 4.0).powi(2);
            vacuum_step(&mut sim, Some((300, 0.5 * (-0.5 * s).exp())));
        }
        let e0 = sim.energy();
        for _ in 0..150 {
            vacuum_step(&mut sim, None); // wavefront still far from edges
        }
        let e1 = sim.energy();
        assert!(
            (e1 - e0).abs() / e0 < 0.05,
            "vacuum propagation should conserve energy: {e0} → {e1}"
        );
    }

    #[test]
    fn current_damps_field() {
        // A conducting region (J ∝ E) must absorb energy.
        let n = 200;
        let mut sim = Yee1d::new(n, 1.0, 0.5);
        for step in 0..40 {
            let t = step as f64 * sim.dt;
            let s = ((t - 10.0) / 4.0).powi(2);
            vacuum_step(&mut sim, Some((50, 0.5 * (-0.5 * s).exp())));
        }
        let e0 = sim.energy();
        for _ in 0..200 {
            let j: Vec<f64> = sim
                .ex
                .iter()
                .enumerate()
                .map(|(i, &e)| {
                    if (100..140).contains(&i) {
                        0.2 * e
                    } else {
                        0.0
                    }
                })
                .collect();
            sim.step(&j, None);
        }
        assert!(sim.energy() < 0.7 * e0, "conductor must absorb the pulse");
    }

    #[test]
    #[should_panic(expected = "Courant violation")]
    fn courant_checked() {
        Yee1d::new(100, 0.5, 1.0);
    }
}
