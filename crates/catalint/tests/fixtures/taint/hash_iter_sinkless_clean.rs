//@ file: crates/core/src/tally.rs
//! Every hash iteration feeds an order-insensitive sink, an ordering
//! collect, or an immediate sort.
use std::collections::{BTreeMap, HashMap};

fn sorted_view(m: &HashMap<String, u32>) -> BTreeMap<String, u32> {
    m.iter().map(|(k, v)| (k.clone(), *v)).collect::<BTreeMap<_, _>>()
}

fn collect_then_sort(m: &HashMap<String, u32>) -> Vec<String> {
    let mut keys: Vec<String> = m.keys().cloned().collect();
    keys.sort();
    keys
}

fn membership(m: &HashMap<String, u32>) -> bool {
    m.keys().any(|k| k.is_empty())
}

fn size(m: &HashMap<String, u32>) -> usize {
    m.iter().count()
}

#[cfg(test)]
mod tests {
    fn in_test_code(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {
        m.keys().copied().collect()
    }
}
//@ file: tests/oracle.rs
use std::collections::HashMap;

pub fn outside_library_code(m: &HashMap<u32, u32>) -> Vec<u32> {
    m.keys().copied().collect()
}
