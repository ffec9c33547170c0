//! # catapult-csg
//!
//! Cluster summary graphs for the CATAPULT reproduction (§2, §4.2, §5):
//!
//! * [`idset`] — compact member-id sets (the `{i1,…,in}` annotations of
//!   Fig. 4);
//! * [`mapping`] — greedy neighbor-biased graph mapping [19];
//! * [`summary`] — closure-graph construction and CSG compactness `ξ_t`;
//! * [`weights`] — cluster weights `cw`, edge-label weights `elw`, and the
//!   weighted CSGs that drive the §5 random walks.

#![warn(missing_docs, clippy::print_stderr)]
// Unit tests are allowed the ergonomic panicking shortcuts the library
// itself forbids; the policy targets production code paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod idset;
pub mod mapping;
pub mod summary;
pub mod weights;

pub use idset::IdSet;
pub use summary::{build_csgs, build_csgs_recorded, Csg};
pub use weights::{ClusterWeights, EdgeLabelWeights, WeightedCsg, WEIGHT_DAMPING};
