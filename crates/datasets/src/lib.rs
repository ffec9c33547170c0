//! # catapult-datasets
//!
//! Synthetic data-graph repositories and query workloads for the CATAPULT
//! reproduction.
//!
//! The paper's AIDS / PubChem / eMolecules compound files are not
//! redistributable; [`molecules`] generates seeded molecule-like labeled
//! graphs reproducing the structural regimes the algorithms exploit
//! (rings, chains, functional groups, skewed label distribution), and
//! [`queries`] draws the §6.1 random-connected-subgraph workloads plus the
//! Exp-9 frequent/infrequent mixes.

#![warn(missing_docs, clippy::print_stderr)]
// Unit tests are allowed the ergonomic panicking shortcuts the library
// itself forbids; the policy targets production code paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod molecules;
pub mod queries;

pub use molecules::{
    aids_profile, emol_profile, generate, pubchem_profile, MoleculeDb, MoleculeProfile,
};
pub use queries::{mixed_queries, random_queries, support_fraction};
