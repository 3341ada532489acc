//! Occupation numbers — the shadow-dynamics handshake payload.
//!
//! Paper Sec. V.A.3: shadow dynamics ships only the occupation numbers
//! `f_s^(α) ∈ \[0, 2\]` (and their changes) between LFD (GPU) and QXMD (CPU),
//! "negligible compared to the large memory footprint of KS wave
//! functions". This module owns that small-dynamic-range state: the f_s
//! vector, the reference ground-state occupations, and the per-domain
//! photo-excitation count `n_exc^(α)` that DC-MESH returns to XS-NNQMD
//! (Sec. V.A.8).

/// Occupations of `norb` spin-degenerate KS orbitals, each in \[0, 2\].
#[derive(Clone, Debug, PartialEq)]
pub struct Occupations {
    f: Vec<f64>,
    /// Ground-state reference used to define excitation counts.
    f0: Vec<f64>,
}

impl Occupations {
    /// From explicit values (reference = initial values).
    pub fn new(f: Vec<f64>) -> Self {
        assert_in_range(&f);
        let f0 = f.clone();
        Self { f, f0 }
    }

    /// Aufbau filling of `n_electrons` into `norb` orbitals (2 per level).
    pub fn aufbau(norb: usize, n_electrons: f64) -> Self {
        assert!(n_electrons <= 2.0 * norb as f64, "too many electrons");
        let mut f = vec![0.0; norb];
        let mut remaining = n_electrons;
        for x in f.iter_mut() {
            let take = remaining.min(2.0);
            *x = take;
            remaining -= take;
            if remaining <= 0.0 {
                break;
            }
        }
        Self::new(f)
    }

    /// All orbitals at the same occupation.
    pub fn uniform(norb: usize, value: f64) -> Self {
        Self::new(vec![value; norb])
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.f.len()
    }

    pub fn is_empty(&self) -> bool {
        self.f.is_empty()
    }

    #[inline]
    pub fn f(&self, s: usize) -> f64 {
        self.f[s]
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.f
    }

    /// Replace the occupations with `f`, keeping the ground-state
    /// reference — how a surface-hopping update is installed, so
    /// [`Self::n_exc`] / [`Self::delta_f`] keep measuring from t = 0.
    pub fn set(&mut self, f: &[f64]) {
        assert_eq!(f.len(), self.f.len());
        assert_in_range(f);
        self.f.copy_from_slice(f);
    }

    /// Total electron count Σf_s.
    pub fn total(&self) -> f64 {
        self.f.iter().sum()
    }

    /// Move `amount` of occupation from orbital `from` to orbital `to`,
    /// clamped so occupancies stay in \[0, 2\] and the total is conserved —
    /// the elementary surface-hopping update.
    pub fn transfer(&mut self, from: usize, to: usize, amount: f64) -> f64 {
        let amount = amount.min(self.f[from]).min(2.0 - self.f[to]).max(0.0);
        self.f[from] -= amount;
        self.f[to] += amount;
        amount
    }

    /// Photo-excitation count relative to the ground-state reference:
    /// `n_exc = ½ Σ_s |f_s − f_s⁰|` (each excited electron leaves a hole,
    /// hence the ½).
    pub fn n_exc(&self) -> f64 {
        0.5 * self
            .f
            .iter()
            .zip(&self.f0)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    }

    /// Change vector Δf since the reference — the literal bytes shipped
    /// across the CPU↔GPU link by shadow dynamics.
    pub fn delta_f(&self) -> Vec<f64> {
        self.f.iter().zip(&self.f0).map(|(a, b)| a - b).collect()
    }
}

fn assert_in_range(f: &[f64]) {
    assert!(
        f.iter().all(|&x| (0.0..=2.0).contains(&x)),
        "occupations must lie in [0, 2]"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aufbau_fills_lowest_first() {
        let occ = Occupations::aufbau(4, 5.0);
        assert_eq!(occ.as_slice(), &[2.0, 2.0, 1.0, 0.0]);
        assert_eq!(occ.total(), 5.0);
    }

    #[test]
    fn transfer_conserves_total() {
        let mut occ = Occupations::aufbau(3, 4.0); // [2,2,0]
        let moved = occ.transfer(1, 2, 0.7);
        assert_eq!(moved, 0.7);
        assert!((occ.total() - 4.0).abs() < 1e-15);
        assert!((occ.f(1) - 1.3).abs() < 1e-15);
        assert!((occ.f(2) - 0.7).abs() < 1e-15);
    }

    #[test]
    fn transfer_clamps_at_bounds() {
        let mut occ = Occupations::new(vec![0.3, 1.9]);
        // Can move at most 0.1 into the nearly-full orbital.
        let moved = occ.transfer(0, 1, 0.5);
        assert!((moved - 0.1).abs() < 1e-15);
        assert!((occ.f(1) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn n_exc_counts_electron_hole_pairs() {
        let mut occ = Occupations::aufbau(4, 4.0); // [2,2,0,0]
        occ.transfer(1, 2, 1.0);
        assert!((occ.n_exc() - 1.0).abs() < 1e-15);
        occ.transfer(0, 3, 0.5);
        assert!((occ.n_exc() - 1.5).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "occupations must lie in")]
    fn rejects_out_of_range() {
        Occupations::new(vec![2.5]);
    }
}
