//@ file: src/locks.rs
use std::sync::Mutex;

pub static REGISTRY: Mutex<u32> = Mutex::new(0);
pub static JOURNAL: Mutex<u32> = Mutex::new(0);

/// Same order everywhere: REGISTRY strictly before JOURNAL.
pub fn flush() {
    let g = REGISTRY.lock();
    append();
    drop(g);
}

fn append() {
    let j = JOURNAL.lock();
    drop(j);
}

/// Both locks inline, same global order, audited.
pub fn snapshot() {
    let g = REGISTRY.lock();
    // REGISTRY before JOURNAL, as everywhere. xtask-allow: lock-order-xfn
    let j = JOURNAL.lock();
    drop(j);
    drop(g);
}

/// Takes JOURNAL alone — no ordering edge at all.
pub fn tail() {
    let j = JOURNAL.lock();
    drop(j);
}

/// At most one lock per fn body; `.lock()` pairs appear only in
/// comments and strings. a.lock(); b.lock();
pub fn read_a(a: &Mutex<u32>) -> u32 {
    *a.lock().unwrap_or_else(|e| e.into_inner())
}

pub fn read_b(b: &Mutex<u32>) -> u32 {
    let s = "a.lock(); b.lock();";
    *b.lock().unwrap_or_else(|e| e.into_inner()) + s.len() as u32
}
