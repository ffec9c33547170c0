//@ file: crates/core/src/tally.rs
use std::collections::HashMap;

fn leak_order(m: &HashMap<String, u32>) -> Vec<String> {
    let mut out = Vec::new();
    for k in m.keys() {
        out.push(k.clone());
    }
    out
}

fn leak_chain(scores: HashMap<u32, f64>) -> f64 {
    scores.values().fold(0.0, |acc, v| acc * 0.5 + v)
}
//@ file: crates/obs/src/seen.rs
use std::collections::HashSet;

pub fn first_seen(seen: &HashSet<u32>) -> Option<u32> {
    seen.iter().next().copied()
}
