//@ file: src/locks.rs
use std::sync::Mutex;

pub static REGISTRY: Mutex<u32> = Mutex::new(0);
pub static JOURNAL: Mutex<u32> = Mutex::new(0);

/// Holds REGISTRY, then calls a helper that takes JOURNAL: orders
/// REGISTRY before JOURNAL.
pub fn flush() {
    let g = REGISTRY.lock();
    append();
    drop(g);
}

fn append() {
    let j = JOURNAL.lock();
    drop(j);
}

/// Holds JOURNAL, then calls a helper that takes REGISTRY: the opposite
/// order, visible only across function boundaries.
pub fn rotate() {
    let j = JOURNAL.lock();
    reindex();
    drop(j);
}

fn reindex() {
    let g = REGISTRY.lock();
    drop(g);
}

/// Re-entrant: holds REGISTRY and calls back into a path that acquires
/// REGISTRY again.
pub fn compact() {
    let g = REGISTRY.lock();
    reindex();
    drop(g);
}

/// Two different locks and no cycle: the acquisition order still needs
/// an audit.
pub fn transfer(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {
    let x = a.lock().unwrap_or_else(|e| e.into_inner());
    let y = b.lock().unwrap_or_else(|e| e.into_inner());
    *x + *y
}
//@ file: tests/ledger.rs
use std::sync::Mutex;

/// Test code is audited too.
fn settle(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {
    *a.lock().unwrap() + *b.lock().unwrap()
}
