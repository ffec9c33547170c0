//! # catapult-mining
//!
//! Mining substrates for the CATAPULT reproduction:
//!
//! * [`subtree`] — frequent subtree mining ([10], §4.1), the feature
//!   source for coarse clustering;
//! * [`facility`] — submodular facility-location selection of subtree
//!   features (§4.1 + Appendix B);
//! * [`subgraph`] — frequent subgraph mining, the Exp 9 baseline ("F");
//! * [`edges`] — labeled-edge statistics (`elw`, `lcov`, top-k edges);
//! * [`gindex`] — filter–verify subgraph search over the repository (the
//!   §1 query primitive the interface formulates for).

#![warn(missing_docs, clippy::print_stderr)]
// Unit tests are allowed the ergonomic panicking shortcuts the library
// itself forbids; the policy targets production code paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod edges;
pub mod facility;
pub mod gindex;
pub mod subgraph;
pub mod subtree;

pub use edges::EdgeLabelStats;
pub use gindex::{scan_search, GraphIndex};
pub use subgraph::{mine_frequent_subgraphs, FrequentSubgraph, SubgraphMinerConfig};
pub use subtree::{mine_frequent_subtrees, FrequentSubtree, SubtreeMinerConfig};
