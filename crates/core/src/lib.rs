//! # catapult-core
//!
//! The paper's primary contribution: data-driven canned pattern selection
//! (Algorithms 1 and 4 of SIGMOD'19 *CATAPULT: Data-driven Selection of
//! Canned Patterns for Efficient Visual Graph Query Formulation*).
//!
//! The entry point is [`catapult::run_catapult`]: given a database of
//! small labeled graphs and a pattern budget `b = (ηmin, ηmax, γ)`, it
//! clusters the database, summarizes each cluster into a closure graph,
//! and greedily selects `γ` canned patterns that maximize subgraph and
//! label coverage and diversity while minimizing cognitive load.
//!
//! ```
//! use catapult_core::prelude::*;
//! use catapult_graph::{Graph, Label, VertexId};
//!
//! // A toy repository of triangles.
//! let tri = Graph::from_parts(&[Label(0); 3], &[(0, 1), (1, 2), (0, 2)]);
//! let db = vec![tri.clone(), tri.clone(), tri];
//! let cfg = CatapultConfig {
//!     budget: PatternBudget::new(3, 3, 1).unwrap(),
//!     walks: 10,
//!     ..Default::default()
//! };
//! let result = run_catapult(&db, &cfg);
//! assert_eq!(result.patterns().len(), 1);
//! ```

#![warn(missing_docs, clippy::print_stderr)]
// Unit tests are allowed the ergonomic panicking shortcuts the library
// itself forbids; the policy targets production code paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod budget;
pub mod catapult;
pub mod ckpt_io;
pub mod fcp;
pub mod incremental;
pub mod querylog;
pub mod report;
pub mod score;
pub mod select;
pub mod walk;

pub use budget::{BudgetError, PatternBudget, SizeCounts, SizeDistribution};
pub use catapult::{run_catapult, run_catapult_resumable, CatapultConfig, CatapultResult};
pub use incremental::{IncrementalCatapult, IncrementalConfig, UpdateStats};
pub use querylog::QueryLog;
pub use report::PipelineReport;
pub use score::{EdgeLabelIndex, ScoreVariant};
pub use select::{find_canned_patterns, SelectedPattern, SelectionConfig, SelectionResult};

/// Convenience re-exports for typical pipeline users.
pub mod prelude {
    pub use crate::budget::PatternBudget;
    pub use crate::catapult::{run_catapult, CatapultConfig, CatapultResult};
    pub use crate::select::{SelectionConfig, SelectionResult};
    pub use catapult_cluster::{ClusteringConfig, SimilarityKind, Strategy};
}
