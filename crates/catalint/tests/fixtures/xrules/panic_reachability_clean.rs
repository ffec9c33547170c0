//@ file: crates/graph/src/helpers.rs
/// Total: no panic anywhere.
pub fn pick(x: Option<u32>) -> Option<u32> {
    x
}

pub fn mid(x: Option<u32>) -> Option<u32> {
    pick(x)
}

//@ file: crates/graph/src/iso.rs
use crate::helpers::mid;

/// Kernel fn whose helper chain degrades instead of panicking.
pub fn first_embedding(x: Option<u32>) -> Option<u32> {
    mid(x)
}
