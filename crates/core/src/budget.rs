//! The pattern budget `b = (ηmin, ηmax, γ)` (Definition 3.1).
//!
//! `ηmin`/`ηmax` bound the size (in edges) of canned patterns, `γ` is the
//! number of patterns the GUI can display, and each pattern size `k ∈
//! [ηmin, ηmax]` may contribute at most `γ / (ηmax − ηmin + 1)` patterns —
//! the paper's uniform size distribution. Patterns smaller than 3 edges are
//! basic GUI widgets, not canned patterns, hence `ηmin > 2`.

// Eq. 2 scores feed a greedy argmax whose picks must not depend on
// float noise: compare with ranges or `total_cmp`, never `==`.
#![warn(clippy::float_cmp)]

use std::fmt;

/// Errors from constructing a [`PatternBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetError {
    /// `ηmin` must exceed 2 (Definition 3.1).
    MinTooSmall,
    /// `ηmax` must be ≥ `ηmin`.
    EmptySizeRange,
    /// `γ` must be positive.
    ZeroPatterns,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::MinTooSmall => write!(f, "ηmin must be greater than 2"),
            BudgetError::EmptySizeRange => write!(f, "ηmax must be at least ηmin"),
            BudgetError::ZeroPatterns => write!(f, "γ must be positive"),
        }
    }
}

impl std::error::Error for BudgetError {}

/// How the `γ` pattern slots distribute over sizes `[ηmin, ηmax]`.
///
/// The paper defaults to a uniform distribution (`γ / (ηmax − ηmin + 1)`
/// per size) and notes in the §5 remark that a custom distribution
/// `Ψ_dist` can be accommodated by changing `GetPatternSizeRange`.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum SizeDistribution {
    /// Uniform per-size cap `γ / (ηmax − ηmin + 1)`, at least 1.
    #[default]
    Uniform,
    /// Explicit per-size caps `(size, max patterns)`. Sizes not listed get
    /// no quota; listed sizes must fall within `[ηmin, ηmax]`.
    Custom(Vec<(usize, usize)>),
}

/// The pattern budget `b = (ηmin, ηmax, γ)` (optionally `(…, Ψ_dist)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternBudget {
    eta_min: usize,
    eta_max: usize,
    gamma: usize,
    distribution: SizeDistribution,
}

impl PatternBudget {
    /// Construct a budget, validating Definition 3.1's constraints.
    pub fn new(eta_min: usize, eta_max: usize, gamma: usize) -> Result<Self, BudgetError> {
        if eta_min <= 2 {
            return Err(BudgetError::MinTooSmall);
        }
        if eta_max < eta_min {
            return Err(BudgetError::EmptySizeRange);
        }
        if gamma == 0 {
            return Err(BudgetError::ZeroPatterns);
        }
        Ok(PatternBudget {
            eta_min,
            eta_max,
            gamma,
            distribution: SizeDistribution::Uniform,
        })
    }

    /// Construct a budget with a custom size distribution `Ψ_dist`
    /// (§5 remark). Every listed size must lie in `[ηmin, ηmax]`.
    pub fn with_distribution(
        eta_min: usize,
        eta_max: usize,
        gamma: usize,
        caps: Vec<(usize, usize)>,
    ) -> Result<Self, BudgetError> {
        let mut b = Self::new(eta_min, eta_max, gamma)?;
        if caps.iter().any(|&(s, _)| s < eta_min || s > eta_max) {
            return Err(BudgetError::EmptySizeRange);
        }
        b.distribution = SizeDistribution::Custom(caps);
        Ok(b)
    }

    /// The paper's default experimental budget: ηmin = 3, ηmax = 12,
    /// γ = 30 (§6.1).
    pub fn paper_default() -> Self {
        PatternBudget {
            eta_min: 3,
            eta_max: 12,
            gamma: 30,
            distribution: SizeDistribution::Uniform,
        }
    }

    /// Minimum pattern size in edges.
    pub fn eta_min(&self) -> usize {
        self.eta_min
    }

    /// Maximum pattern size in edges.
    pub fn eta_max(&self) -> usize {
        self.eta_max
    }

    /// Total number of patterns `γ`.
    pub fn gamma(&self) -> usize {
        self.gamma
    }

    /// The size distribution `Ψ_dist`.
    pub fn distribution(&self) -> &SizeDistribution {
        &self.distribution
    }

    /// Number of distinct pattern sizes.
    fn size_count(&self) -> usize {
        self.eta_max - self.eta_min + 1
    }

    /// Per-size cap for `size`: uniform `γ / (ηmax − ηmin + 1)` (at least
    /// 1), or the `Ψ_dist` entry under a custom distribution (0 when the
    /// size is unlisted).
    pub fn size_cap(&self, size: usize) -> usize {
        if size < self.eta_min || size > self.eta_max {
            return 0;
        }
        match &self.distribution {
            SizeDistribution::Uniform => (self.gamma / self.size_count()).max(1),
            SizeDistribution::Custom(caps) => caps
                .iter()
                .find(|&&(s, _)| s == size)
                .map(|&(_, c)| c)
                .unwrap_or(0),
        }
    }

    /// The uniform per-size cap (legacy helper; equals
    /// `size_cap(any in-range size)` under [`SizeDistribution::Uniform`]).
    pub fn per_size_cap(&self) -> usize {
        (self.gamma / self.size_count()).max(1)
    }

    /// Iterate the allowed sizes `ηmin..=ηmax`.
    pub fn sizes(&self) -> impl Iterator<Item = usize> {
        self.eta_min..=self.eta_max
    }

    /// Sizes that still have quota given `per_size_counts[size]` selections
    /// so far (Algorithm 4's `GetPatternSizeRange`, honoring `Ψ_dist`).
    pub fn open_sizes(&self, counts: &SizeCounts) -> Vec<usize> {
        self.sizes()
            .filter(|&s| counts.count(s) < self.size_cap(s))
            .collect()
    }
}

/// Tracks how many patterns of each size have been selected.
#[derive(Clone, Debug, Default)]
pub struct SizeCounts {
    counts: std::collections::BTreeMap<usize, usize>,
}

impl SizeCounts {
    /// Empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selections of size `s` so far.
    pub fn count(&self, s: usize) -> usize {
        self.counts.get(&s).copied().unwrap_or(0)
    }

    /// Record a selection of size `s`.
    pub fn record(&mut self, s: usize) {
        *self.counts.entry(s).or_insert(0) += 1;
    }

    /// Total selections.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert_eq!(PatternBudget::new(2, 8, 10), Err(BudgetError::MinTooSmall));
        assert_eq!(
            PatternBudget::new(5, 4, 10),
            Err(BudgetError::EmptySizeRange)
        );
        assert_eq!(PatternBudget::new(3, 8, 0), Err(BudgetError::ZeroPatterns));
        assert!(PatternBudget::new(3, 8, 12).is_ok());
    }

    #[test]
    fn paper_defaults() {
        let b = PatternBudget::paper_default();
        assert_eq!((b.eta_min(), b.eta_max(), b.gamma()), (3, 12, 30));
        assert_eq!(b.size_count(), 10);
        assert_eq!(b.per_size_cap(), 3);
    }

    #[test]
    fn per_size_cap_floors_at_one() {
        let b = PatternBudget::new(3, 12, 5).unwrap();
        assert_eq!(b.per_size_cap(), 1);
    }

    #[test]
    fn custom_distribution_controls_caps() {
        let b = PatternBudget::with_distribution(3, 6, 10, vec![(3, 7), (5, 3)]).unwrap();
        assert_eq!(b.size_cap(3), 7);
        assert_eq!(b.size_cap(4), 0); // unlisted
        assert_eq!(b.size_cap(5), 3);
        assert_eq!(b.size_cap(7), 0); // out of range
        let counts = SizeCounts::new();
        assert_eq!(b.open_sizes(&counts), vec![3, 5]);
    }

    #[test]
    fn custom_distribution_validates_range() {
        assert!(PatternBudget::with_distribution(3, 6, 10, vec![(7, 1)]).is_err());
        assert!(PatternBudget::with_distribution(3, 6, 10, vec![(2, 1)]).is_err());
    }

    #[test]
    fn uniform_size_cap_matches_legacy() {
        let b = PatternBudget::new(3, 12, 30).unwrap();
        for s in 3..=12 {
            assert_eq!(b.size_cap(s), b.per_size_cap());
        }
        assert_eq!(b.size_cap(2), 0);
        assert_eq!(b.size_cap(13), 0);
    }

    #[test]
    fn open_sizes_shrink_as_quota_fills() {
        let b = PatternBudget::new(3, 4, 2).unwrap(); // cap = 1 per size
        let mut counts = SizeCounts::new();
        assert_eq!(b.open_sizes(&counts), vec![3, 4]);
        counts.record(3);
        assert_eq!(b.open_sizes(&counts), vec![4]);
        counts.record(4);
        assert!(b.open_sizes(&counts).is_empty());
        assert_eq!(counts.total(), 2);
    }
}
