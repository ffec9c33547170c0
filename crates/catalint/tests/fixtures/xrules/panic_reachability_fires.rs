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

/// Kernel fn panicking in its own body, after a string holding `//`
/// that a line-based pass would mistake for a comment start.
pub fn extend(x: Option<u32>) -> u32 {
    let s = "// not a comment";
    let v = x.unwrap();
    if v > 10 && s.is_empty() {
        panic!("boom");
    }
    v
}

// Outside any fn body, but still kernel code once expanded.
macro_rules! first_or_die {
    ($x:expr) => {
        $x.expect("non-empty")
    };
}
