//! Experiment scale presets.
//!
//! The paper runs on 10K–1M-graph repositories and wall-clock budgets of
//! hours. The harness reproduces every figure at reduced scale: dataset
//! sizes are divided by a constant factor per experiment while keeping the
//! paper's *relative* axis spacing, so the qualitative shapes (who wins,
//! where crossovers fall) are preserved. EXPERIMENTS.md records the scale
//! used for each reported number.

/// How big to run an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minimal sizes for `--scale smoke` runs and unit tests (seconds).
    Smoke,
    /// Default harness scale (a few minutes for the full suite).
    Quick,
    /// Larger scale for better statistics (tens of minutes).
    Full,
}

impl Scale {
    /// Multiply a base (Quick) size by the scale factor.
    pub fn size(&self, quick: usize) -> usize {
        match self {
            Scale::Smoke => (quick / 10).max(6),
            Scale::Quick => quick,
            Scale::Full => quick * 4,
        }
    }

    /// Query-workload size for the scale.
    pub fn queries(&self, quick: usize) -> usize {
        match self {
            Scale::Smoke => (quick / 10).max(5),
            Scale::Quick => quick,
            Scale::Full => quick * 2,
        }
    }

    /// Random walks per (CSG, size) pair.
    pub fn walks(&self) -> usize {
        match self {
            Scale::Smoke => 10,
            Scale::Quick => 40,
            Scale::Full => 100,
        }
    }

    /// The CLI token naming this scale (inverse of [`parse`](Self::parse)).
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Parse from a CLI token.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_monotonically() {
        assert!(Scale::Smoke.size(100) < Scale::Quick.size(100));
        assert!(Scale::Quick.size(100) < Scale::Full.size(100));
        assert_eq!(Scale::Quick.size(100), 100);
    }

    #[test]
    fn smoke_has_floors() {
        assert_eq!(Scale::Smoke.size(10), 6);
        assert_eq!(Scale::Smoke.queries(10), 5);
    }

    #[test]
    fn parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("bogus"), None);
    }
}
