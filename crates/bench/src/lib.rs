//! # catapult-bench
//!
//! The experiment harness reproducing every table and figure in the
//! paper's evaluation (§6 + Appendix C). Each `expNN` module regenerates
//! one artifact and returns a [`report::Report`] with the same rows/series
//! the paper plots; the `experiments` binary prints them.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`exp01`] | Fig. 7 — clustering strategies |
//! | [`exp02`] | Fig. 8 + 9 — sampling vs no sampling |
//! | [`exp03`] | §6.2 Exp 3 — commercial GUI comparison |
//! | [`exp04`] | Table 1 + Fig. 10 — (simulated) user study |
//! | [`exp05`] | Fig. 11 — coverage vs |P| |
//! | [`exp06`] | Fig. 12 — scalability |
//! | [`exp07`] | Fig. 13 — effect of |P| |
//! | [`exp08`] | Fig. 14 + 15 + 16 — pattern size bounds |
//! | [`exp09`] | Fig. 17 — frequent-subgraph baseline |
//! | [`exp10`] | Fig. 18 — cognitive-load measures |

// Lint policy: see [workspace.lints] in the root Cargo.toml.
#![warn(missing_docs, clippy::print_stderr)]
// The experiment harness builds fixed, known-valid configurations and
// synthetic stimuli; failing fast on a bad constant is the desired
// behavior, so panicking shortcuts are accepted crate-wide here. The
// no-panic policy targets the library crates (graph/mining/cluster/csg/
// core), which this crate only drives.
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::panic))]

pub mod ablation;
pub mod common;
pub mod exp01;
pub mod exp02;
pub mod exp03;
pub mod exp04;
pub mod exp05;
pub mod exp06;
pub mod exp07;
pub mod exp08;
pub mod exp09;
pub mod exp10;
pub mod report;
pub mod scale;

pub use report::Report;
pub use scale::Scale;

/// Run one experiment by id ("exp1".."exp10").
pub fn run_experiment(id: &str, scale: Scale) -> Option<Report> {
    Some(match id {
        "exp1" => exp01::run(scale),
        "exp2" => exp02::run(scale),
        "exp3" => exp03::run(scale),
        "exp4" => exp04::run(scale),
        "exp5" => exp05::run(scale),
        "exp6" => exp06::run(scale),
        "exp7" => exp07::run(scale),
        "exp8" => exp08::run(scale),
        "exp9" => exp09::run(scale),
        "exp10" => exp10::run(scale),
        "ablation1" => ablation::run_score_ablation(scale),
        "ablation2" => ablation::run_clustering_ablation(scale),
        "ablation3" => ablation::run_walks_ablation(scale),
        "ablation4" => ablation::run_querylog_ablation(scale),
        "ablation5" => ablation::run_seed_stability(scale),
        _ => return None,
    })
}

/// All experiment ids in paper order.
pub const ALL_EXPERIMENTS: [&str; 10] = [
    "exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7", "exp8", "exp9", "exp10",
];

/// Ablation study ids (extensions beyond the paper's figures).
pub const ALL_ABLATIONS: [&str; 5] = [
    "ablation1",
    "ablation2",
    "ablation3",
    "ablation4",
    "ablation5",
];
