//! Pipeline-wide completeness reporting.
//!
//! Every NP-hard kernel in the pipeline (VF2 isomorphism, MCS/MCCS,
//! GED, miners) runs under a [`SearchBudget`](catapult_graph::SearchBudget)
//! and tags its result with a [`Completeness`]. This module aggregates
//! those tags per stage so callers can see *whether* a selection is exact
//! and, when it is not, *which stage* degraded and why — instead of
//! silently trusting truncated searches.

use catapult_graph::{Completeness, TallyCounts};

/// Per-stage completeness audit of one end-to-end pipeline run.
///
/// Each field counts kernel invocations in that stage by the
/// [`Completeness`] they reported. An all-exact report means every search
/// ran to completion and the output is byte-identical to an unbudgeted
/// run; any degraded count means the corresponding stage returned
/// best-so-far results (still valid patterns, possibly not optimal).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Frequent-subtree mining containment probes (support counts are
    /// lower bounds when degraded).
    pub mining: TallyCounts,
    /// Fine-clustering MCS/MCCS searches (degraded pairs fall back to
    /// label-vector similarity).
    pub clustering: TallyCounts,
    /// Selection-time kernels: candidate dedup VF2, ccov probes,
    /// query-log probes, and diversity GEDs.
    pub scoring: TallyCounts,
}

impl PipelineReport {
    /// A report with no kernel calls recorded yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total kernel invocations across all stages.
    pub fn total(&self) -> u64 {
        self.mining.total() + self.clustering.total() + self.scoring.total()
    }

    /// True when every kernel in every stage ran to completion.
    pub fn all_exact(&self) -> bool {
        self.mining.all_exact() && self.clustering.all_exact() && self.scoring.all_exact()
    }

    /// The worst completeness observed anywhere in the pipeline.
    pub fn worst(&self) -> Completeness {
        self.mining
            .worst()
            .worst(self.clustering.worst())
            .worst(self.scoring.worst())
    }

    /// Names of the stages that had at least one degraded kernel call, in
    /// pipeline order.
    pub fn degraded_stages(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (name, t) in self.stages() {
            if !t.all_exact() {
                out.push(name);
            }
        }
        out
    }

    /// Stage-wise sum of two reports (each stage merged with
    /// [`TallyCounts::merge`]).
    ///
    /// Explicitly **commutative and associative**: intermediate per-chunk
    /// or per-thread reports may be folded in *any* order — including the
    /// nondeterministic completion order of parallel workers — and the
    /// total is identical. Callers must never rely on the iteration order
    /// of the intermediate vectors they fold over; [`merge_all`] is the
    /// order-oblivious fold.
    ///
    /// [`merge_all`]: PipelineReport::merge_all
    pub fn merge(self, other: PipelineReport) -> PipelineReport {
        PipelineReport {
            mining: self.mining.merge(other.mining),
            clustering: self.clustering.merge(other.clustering),
            scoring: self.scoring.merge(other.scoring),
        }
    }

    /// Fold any number of partial reports into one. The result is
    /// independent of the order in which `parts` yields them.
    pub fn merge_all<I: IntoIterator<Item = PipelineReport>>(parts: I) -> PipelineReport {
        parts
            .into_iter()
            .fold(PipelineReport::new(), PipelineReport::merge)
    }

    /// `(stage name, counts)` pairs in pipeline order.
    pub fn stages(&self) -> [(&'static str, TallyCounts); 3] {
        [
            ("mining", self.mining),
            ("clustering", self.clustering),
            ("scoring", self.scoring),
        ]
    }

    /// Human-readable one-paragraph summary (used by the CLI).
    pub fn summary(&self) -> String {
        if self.all_exact() {
            format!(
                "all {} kernel searches exact (mining {}, clustering {}, scoring {})",
                self.total(),
                self.mining.total(),
                self.clustering.total(),
                self.scoring.total(),
            )
        } else {
            let mut lines = vec![format!(
                "{} of {} kernel searches degraded (worst: {})",
                self.total() - self.exact_total(),
                self.total(),
                self.worst().name(),
            )];
            for (name, t) in self.stages() {
                if !t.all_exact() {
                    lines.push(format!(
                        "  {name}: {}/{} degraded ({})",
                        t.degraded(),
                        t.total(),
                        t.worst().name(),
                    ));
                }
            }
            lines.join("\n")
        }
    }

    fn exact_total(&self) -> u64 {
        self.mining.exact + self.clustering.exact + self.scoring.exact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_graph::Tally;

    fn counts(exact: u64, exhausted: u64) -> TallyCounts {
        let t = Tally::new();
        for _ in 0..exact {
            t.record(Completeness::Exact);
        }
        for _ in 0..exhausted {
            t.record(Completeness::BudgetExhausted);
        }
        t.counts()
    }

    #[test]
    fn empty_report_is_exact() {
        let r = PipelineReport::new();
        assert!(r.all_exact());
        assert_eq!(r.total(), 0);
        assert_eq!(r.worst(), Completeness::Exact);
        assert!(r.degraded_stages().is_empty());
        assert!(r.summary().contains("exact"));
    }

    #[test]
    fn degraded_stage_is_named() {
        let r = PipelineReport {
            mining: counts(10, 0),
            clustering: counts(5, 2),
            scoring: counts(8, 0),
        };
        assert!(!r.all_exact());
        assert_eq!(r.degraded_stages(), vec!["clustering"]);
        assert_eq!(r.worst(), Completeness::BudgetExhausted);
        assert_eq!(r.total(), 25);
        let s = r.summary();
        assert!(s.contains("clustering"), "summary must name the stage: {s}");
        assert!(s.contains("budget-exhausted"), "summary must say why: {s}");
    }

    #[test]
    fn merge_is_commutative_and_associative_under_shuffled_orders() {
        // Partial reports as produced by per-thread accumulators. The
        // fold total must not depend on the iteration order of the
        // intermediate vector (worker completion order is arbitrary).
        let parts = [
            PipelineReport {
                mining: counts(3, 1),
                clustering: counts(0, 0),
                scoring: counts(2, 0),
            },
            PipelineReport {
                mining: counts(1, 0),
                clustering: counts(4, 2),
                scoring: counts(0, 1),
            },
            PipelineReport {
                mining: counts(0, 2),
                clustering: counts(1, 0),
                scoring: counts(5, 0),
            },
            PipelineReport {
                mining: counts(2, 0),
                clustering: counts(0, 1),
                scoring: counts(1, 3),
            },
        ];
        let reference = PipelineReport::merge_all(parts);
        // Every permutation of four parts (deterministically enumerated —
        // no RNG needed for 4! = 24 orders).
        let mut idx = [0usize, 1, 2, 3];
        let mut orders = Vec::new();
        permutations(&mut idx, 0, &mut orders);
        assert_eq!(orders.len(), 24);
        for order in orders {
            let shuffled = PipelineReport::merge_all(order.iter().map(|&i| parts[i]));
            assert_eq!(shuffled, reference, "order {order:?}");
        }
        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let left = parts[0].merge(parts[1]).merge(parts[2]);
        let right = parts[0].merge(parts[1].merge(parts[2]));
        assert_eq!(left, right);
        // Identity: the empty report is neutral on both sides.
        assert_eq!(PipelineReport::new().merge(parts[0]), parts[0]);
        assert_eq!(parts[0].merge(PipelineReport::new()), parts[0]);
    }

    fn permutations(idx: &mut [usize; 4], k: usize, out: &mut Vec<[usize; 4]>) {
        if k == idx.len() {
            out.push(*idx);
            return;
        }
        for i in k..idx.len() {
            idx.swap(k, i);
            permutations(idx, k + 1, out);
            idx.swap(k, i);
        }
    }

    #[test]
    fn worst_ranks_across_stages() {
        let r = PipelineReport {
            mining: counts(3, 0),
            clustering: counts(1, 2),
            scoring: counts(0, 0),
        };
        assert_eq!(r.worst(), Completeness::BudgetExhausted);
        assert_eq!(r.degraded_stages(), vec!["clustering"]);
    }
}
