//! # catapult
//!
//! A from-scratch Rust reproduction of **CATAPULT** (SIGMOD 2019):
//! *Data-driven Selection of Canned Patterns for Efficient Visual Graph
//! Query Formulation* by Huang, Chua, Bhowmick, Choi, and Zhou.
//!
//! Given a repository of small labeled graphs (e.g. chemical compounds)
//! and a pattern budget `b = (ηmin, ηmax, γ)`, CATAPULT automatically
//! selects the set of *canned patterns* a visual graph query interface
//! should expose — maximizing subgraph and label coverage and pattern
//! diversity while minimizing cognitive load.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — labeled graphs, VF2, MCS/MCCS, GED, canonical forms;
//! * [`mining`] — frequent subtree / subgraph / edge mining;
//! * [`cluster`] — coarse + fine small-graph clustering and sampling;
//! * [`ckpt`] — crash-safe stage checkpoints and resumable execution;
//! * [`csg`] — cluster summary (closure) graphs;
//! * [`core`] — the pattern-selection pipeline (Algorithms 1 & 4);
//! * [`datasets`] — synthetic molecule repositories and query workloads;
//! * [`eval`] — the §6 step model and evaluation measures.
//!
//! ## Quickstart
//!
//! ```
//! use catapult::prelude::*;
//!
//! // A small synthetic molecule repository.
//! let db = catapult::datasets::generate(&catapult::datasets::aids_profile(), 30, 7);
//! let cfg = CatapultConfig {
//!     budget: PatternBudget::new(3, 6, 6).unwrap(),
//!     walks: 20,
//!     ..Default::default()
//! };
//! let result = run_catapult(&db.graphs, &cfg);
//! assert!(!result.patterns().is_empty());
//! ```

#![warn(clippy::print_stderr)]
// Unit tests are allowed the ergonomic panicking shortcuts the library
// itself forbids; the policy targets production code paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
pub mod cli;

pub use catapult_ckpt as ckpt;
pub use catapult_cluster as cluster;
pub use catapult_core as core;
pub use catapult_csg as csg;
pub use catapult_datasets as datasets;
pub use catapult_eval as eval;
pub use catapult_graph as graph;
pub use catapult_mining as mining;

/// One-stop imports for pipeline users.
pub mod prelude {
    pub use catapult_cluster::{ClusteringConfig, SamplingConfig, SimilarityKind, Strategy};
    pub use catapult_core::{
        run_catapult, CatapultConfig, CatapultResult, PatternBudget, SelectionConfig,
    };
    pub use catapult_eval::{formulate, formulate_unlabeled, step_total};
    pub use catapult_graph::{Graph, Label, LabelInterner, VertexId};
}
