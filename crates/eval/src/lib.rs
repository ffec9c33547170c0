//! # catapult-eval
//!
//! Evaluation machinery reproducing the paper's §6 measures:
//!
//! * [`steps`] — the visual query formulation step model (`step_total`,
//!   `step_P` via greedy MWIS over pattern embeddings, μ);
//! * [`mwis`] — greedy maximum weighted independent set [33];
//! * [`measures`] — scov/lcov of pattern sets, MP, μ variants, diversity
//!   and cognitive-load summaries;
//! * [`gui`] — the simulated PubChem / eMolecules pattern panels (Exp 3);
//! * [`userstudy`] — the simulated user study (Exp 4);
//! * [`cogload`] — the simulated Exp 10 ranking study with Kendall τ;
//! * [`session`] — an executable GUI-session model that replays
//!   formulations as canvas actions (validating the step accounting);
//! * [`basic`] — top-m basic patterns (labeled edges / 2-paths, §3.2
//!   remark);
//! * [`stats`] — Kendall τ and summary statistics.

#![warn(missing_docs, clippy::print_stderr)]
// Unit tests are allowed the ergonomic panicking shortcuts the library
// itself forbids; the policy targets production code paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod basic;
pub mod cogload;
pub mod gui;
pub mod measures;
pub mod mwis;
pub mod session;
pub mod stats;
pub mod steps;
pub mod userstudy;

pub use measures::WorkloadEvaluation;
pub use steps::{
    formulate, formulate_unlabeled, formulate_unlabeled_with, step_total, Formulation, RelabelModel,
};
