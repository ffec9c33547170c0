//@ file: crates/graph/src/helpers.rs
/// Panics directly.
pub fn pick(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// Reaches the panic one hop down (same module resolution).
pub fn mid(x: Option<u32>) -> u32 {
    pick(x)
}

//@ file: crates/graph/src/iso.rs
use crate::helpers::mid;

/// Kernel fn transitively reaching `.unwrap()` through a helper chain
/// the per-file kernel rule cannot see.
pub fn first_embedding(x: Option<u32>) -> u32 {
    mid(x)
}
