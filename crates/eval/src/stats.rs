//! Small statistics helpers: Kendall rank correlation (Exp 10), means,
//! standard deviations.

/// Kendall rank correlation coefficient (τ-b, tie-corrected) between two
/// equal-length score sequences.
///
/// Exp 10 correlates the "actual" human ranking of patterns with the
/// rankings induced by the candidate cognitive-load measures F1–F3.
/// Returns a value in [-1, 1]; 0 for degenerate inputs (all ties).
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sequences must align");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_a = 0i64;
    let mut ties_b = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i].total_cmp(&a[j]);
            let db = b[i].total_cmp(&b[j]);
            use std::cmp::Ordering::*;
            match (da, db) {
                (Equal, Equal) => {}
                (Equal, _) => ties_a += 1,
                (_, Equal) => ties_b += 1,
                (x, y) if x == y => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as i64;
    let denom = (((n0 - ties_a) as f64) * ((n0 - ties_b) as f64)).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    (concordant - discordant) as f64 / denom
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Maximum; 0 for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_agreement() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((kendall_tau(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_disagreement() {
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0];
        assert!((kendall_tau(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ties_are_corrected() {
        let a = [1.0, 1.0, 2.0];
        let b = [1.0, 2.0, 3.0];
        let tau = kendall_tau(&a, &b);
        assert!(tau > 0.0 && tau < 1.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(kendall_tau(&[1.0], &[2.0]), 0.0);
        assert_eq!(kendall_tau(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn partial_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 3.0, 2.0, 4.0]; // one swap: 5 concordant, 1 discordant
        assert!((kendall_tau(&a, &b) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn mean_and_max() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(max(&[1.0, 7.0, 3.0]), 7.0);
    }
}
