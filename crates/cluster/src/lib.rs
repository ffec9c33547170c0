//! # catapult-cluster
//!
//! The small-graph clustering phase of CATAPULT (§4.1, §4.3):
//!
//! * [`kmeans`] — k-means with k-means++ seeding over binary subtree
//!   feature vectors;
//! * [`coarse`] — Algorithm 2 (frequent-subtree features + facility
//!   location refinement + k-means);
//! * [`fine`] — Algorithm 3 (MCCS/MCS seed splitting of oversized
//!   clusters);
//! * [`sampling`] — eager (Toivonen/Hoeffding) and lazy (Cochran
//!   stratified) sampling for large repositories;
//! * [`pipeline`] — the five Exp-1 strategies (CC, mccsFC, mcsFC, mccsH,
//!   mcsH) behind one entry point, [`pipeline::cluster_graphs`];
//! * [`quality`] — misclassification distance (Lemma 4.2 / [29]).

#![warn(missing_docs, clippy::print_stderr)]
// Unit tests are allowed the ergonomic panicking shortcuts the library
// itself forbids; the policy targets production code paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod ckpt_io;
pub mod coarse;
pub mod fine;
pub mod invariants;
pub mod kmeans;
pub mod pipeline;
pub mod quality;
pub mod sampling;

pub use fine::{FineOutcome, SimilarityKind};
pub use pipeline::{
    cluster_graphs, cluster_graphs_resumable, Clustering, ClusteringConfig, SamplingConfig,
    Strategy,
};
