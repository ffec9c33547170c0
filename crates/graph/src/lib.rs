//! # catapult-graph
//!
//! Labeled-graph substrate for the CATAPULT reproduction (SIGMOD'19:
//! *Data-driven Selection of Canned Patterns for Efficient Visual Graph
//! Query Formulation*).
//!
//! Everything the paper's algorithms need from a graph library is
//! implemented here from scratch:
//!
//! * [`graph`] — labeled, undirected, simple graphs (`|G| = |E|`, §2);
//! * [`iso`] — VF2-style subgraph isomorphism [14];
//! * [`mcs`] — maximum (connected) common subgraph, McGregor [27];
//! * [`ged`] — graph edit distance: exact, lower bound (Def. 5.1),
//!   bipartite upper bound [32];
//! * [`edit`] — explicit edit scripts realizing GED mappings;
//! * [`canonical`] — canonical forms for labeled free trees (Fig. 5);
//! * [`layout`] / [`metrics`] — edge crossings & cognitive-load measures;
//! * [`random`] — random connected subgraphs and weighted sampling;
//! * [`fmt`] — a gSpan-style text format;
//! * [`budget`] — shared execution budgets ([`SearchBudget`]) and
//!   completeness tags ([`Completeness`]) for every NP-hard kernel.

// Lint policy: see [workspace.lints] in the root Cargo.toml.
#![warn(missing_docs, clippy::print_stderr)]
// Unit tests are allowed the ergonomic panicking shortcuts the library
// itself forbids; the policy targets production code paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod bitadj;
pub mod budget;
pub mod canonical;
pub mod components;
pub mod edit;
pub mod fmt;
pub mod ged;
pub mod graph;
pub mod invariants;
pub mod iso;
pub mod labels;
pub mod layout;
pub mod matching;
pub mod mcs;
pub mod metrics;
pub mod random;

pub use bitadj::BitAdjacency;
pub use budget::{Completeness, Deadline, SearchBudget, Tally, TallyCounts};
pub use graph::{CorruptionKind, Edge, EdgeId, Graph, GraphError, VertexId};
pub use invariants::InvariantViolation;
pub use labels::{EdgeLabel, Label, LabelInterner};
