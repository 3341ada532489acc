//! Summary statistics and least-squares fits.
//!
//! Used by the benchmark harness (scaling-exponent fits like the
//! `t_failure ∝ N^{-0.14}` law of paper Sec. A.6), by TEA dataset alignment
//! (affine least squares, Sec. A.7), and by tests that need robust
//! means/variances of simulation observables.

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Ordinary least squares `y ≈ slope·x + intercept`.
/// Returns `(slope, intercept, r²)`.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64, f64) {
    assert_eq!(x.len(), y.len());
    assert!(x.len() >= 2, "need at least two points to fit a line");
    let mx = mean(x);
    let my = mean(y);
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        sxx += (xi - mx) * (xi - mx);
        sxy += (xi - mx) * (yi - my);
        syy += (yi - my) * (yi - my);
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy > 0.0 {
        sxy * sxy / (sxx * syy)
    } else {
        1.0
    };
    (slope, intercept, r2)
}

/// Fit a power law `y = c·x^p` by linear regression in log–log space.
/// Returns `(exponent p, prefactor c, r²)`. All inputs must be positive.
pub fn power_law_fit(x: &[f64], y: &[f64]) -> (f64, f64, f64) {
    assert!(x.iter().all(|&v| v > 0.0), "power-law fit needs positive x");
    assert!(y.iter().all(|&v| v > 0.0), "power-law fit needs positive y");
    let lx: Vec<f64> = x.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = y.iter().map(|v| v.ln()).collect();
    let (slope, intercept, r2) = linear_fit(&lx, &ly);
    (slope, intercept.exp(), r2)
}

/// Affine alignment `y ≈ a·x + b` minimizing squared error — the Total
/// Energy Alignment (TEA) primitive of paper Sec. A.7 (MSA type 2): a
/// shift-and-scale transformation in metamodel space that maps one
/// dataset's energy scale onto another's.
pub fn affine_align(x: &[f64], y: &[f64]) -> (f64, f64) {
    let (a, b, _) = linear_fit(x, y);
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-14);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn exact_line_recovered() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 7.0).collect();
        let (s, b, r2) = linear_fit(&x, &y);
        assert!((s - 3.0).abs() < 1e-12);
        assert!((b + 7.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_law_recovered() {
        let x: Vec<f64> = (1..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.5 * v.powf(-0.29)).collect();
        let (p, c, r2) = power_law_fit(&x, &y);
        assert!((p + 0.29).abs() < 1e-10, "exponent {p}");
        assert!((c - 2.5).abs() < 1e-9, "prefactor {c}");
        assert!(r2 > 0.999999);
    }

    #[test]
    fn affine_alignment_maps_scales() {
        // Dataset B = 0.9·A − 13.2 (different xc functional offsets).
        let a: Vec<f64> = (0..50).map(|i| -120.0 + 0.37 * i as f64).collect();
        let b: Vec<f64> = a.iter().map(|e| 0.9 * e - 13.2).collect();
        let (scale, shift) = affine_align(&a, &b);
        assert!((scale - 0.9).abs() < 1e-12);
        assert!((shift + 13.2).abs() < 1e-9);
    }
}
