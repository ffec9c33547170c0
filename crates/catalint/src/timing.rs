//! Per-rule wall-clock accounting behind `cargo xtask lint --timing`.
//!
//! The analyzer must never become the slow step of a lint gate, so the
//! driver can ask for a per-rule cost breakdown and CI asserts the full
//! run (taint included) stays under a budget. A disabled timer is a
//! no-op passthrough: the default path takes no clock reads at all, and
//! timings never enter the `--json` report (which must stay
//! byte-identical across runs and hosts).

use std::collections::BTreeMap;
use std::time::Duration;

/// Accumulates wall-clock time per rule name. Construct with
/// [`RuleTimer::new`]`(false)` for the free disabled mode.
#[derive(Debug)]
pub struct RuleTimer {
    on: bool,
    acc: BTreeMap<&'static str, Duration>,
}

impl RuleTimer {
    /// A timer that records (`on = true`) or passes through untouched.
    #[must_use]
    pub fn new(on: bool) -> RuleTimer {
        RuleTimer {
            on,
            acc: BTreeMap::new(),
        }
    }

    /// Run `work`, attributing its wall-clock cost to `rule`. Repeated
    /// calls for the same rule (one per file) accumulate.
    pub fn time<R>(&mut self, rule: &'static str, work: impl FnOnce() -> R) -> R {
        if !self.on {
            return work();
        }
        #[allow(clippy::disallowed_methods)] // analyzer self-timing; never feeds pipeline output
        let t0 = std::time::Instant::now();
        let r = work();
        *self.acc.entry(rule).or_insert(Duration::ZERO) += t0.elapsed();
        r
    }

    /// The accumulated `(rule, total)` table in rule-name order (empty
    /// when the timer was disabled).
    #[must_use]
    pub fn finish(self) -> Vec<(&'static str, Duration)> {
        self.acc.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_records_nothing() {
        let mut t = RuleTimer::new(false);
        assert_eq!(t.time("a-rule", || 7), 7);
        assert!(t.finish().is_empty());
    }

    #[test]
    fn enabled_timer_accumulates_per_rule() {
        let mut t = RuleTimer::new(true);
        assert_eq!(t.time("b-rule", || 1), 1);
        assert_eq!(t.time("a-rule", || 2), 2);
        assert_eq!(t.time("a-rule", || 3), 3);
        let table = t.finish();
        let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["a-rule", "b-rule"], "sorted by rule name");
    }
}
