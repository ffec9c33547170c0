//@ file: crates/graph/src/helpers.rs
/// Total: no panic anywhere.
pub fn pick(x: Option<u32>) -> Option<u32> {
    x
}

pub fn mid(x: Option<u32>) -> Option<u32> {
    pick(x)
}

/// Panics only on a value every binary validates at startup: sanctioned
/// at its source, so no kernel call chain through it fires.
pub fn pool_size(x: Option<u32>) -> u32 {
    match x {
        Some(n) => n,
        // xtask-allow: panic-reachability -- validated before any kernel runs
        None => panic!("unset"),
    }
}

//@ file: crates/graph/src/iso.rs
use crate::helpers::{mid, pool_size};

/// Kernel fn whose helper chain degrades instead of panicking.
pub fn first_embedding(x: Option<u32>) -> Option<u32> {
    mid(x)
}

/// Kernel fn reaching a panic sanctioned at its source.
pub fn fan_out(x: Option<u32>) -> u32 {
    pool_size(x)
}

// a comment mentioning x.unwrap() and panic!("no") must not fire
/* block comment: x.unwrap(); panic!("no");
   /* nested block comment: .unwrap() */ still inside */
/// Kernel fn whose panic lookalikes live only in strings and comments.
pub fn extend(x: Option<u32>) -> u32 {
    let msg = "call .unwrap() or panic!(now)";
    let raw = r#"panic!("in a raw string").unwrap()"#;
    let _ = (msg, raw);
    x.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let v = Some(1).unwrap();
        if v != 1 {
            panic!("tests may panic");
        }
    }
}
