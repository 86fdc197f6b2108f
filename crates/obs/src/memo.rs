//! The one content-hash memo: a concurrent key → value map that computes
//! each key's value once and counts how every request was answered.
//!
//! Both caches of the workspace are this memo: the driver's fleet-wide
//! result cache (source, configuration and mode → outcome) and the
//! native tier's compile cache (emitted C → binary). Each entry is a
//! [`OnceLock`]: the first caller of a key computes its value, callers
//! that arrive while it computes wait for it, and later callers read
//! it. Keys are content, so an edit to the content is a new key — that
//! *is* the invalidation; entries are never evicted.
//!
//! A computation that panics leaves its key empty, and the next caller
//! of that key computes again. Callers that must not recompute turn
//! panics into values inside the computation (the driver does).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// 64-bit FNV-1a from the offset basis `h`.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Two independent 64-bit FNV-1a hashes of `bytes` (the standard and
/// an alternate offset basis): cheap, deterministic and dependency-free.
/// Keyed together with the content's length, a collision would need
/// both hashes to collide at once.
pub fn content_hash(bytes: &[u8]) -> (u64, u64) {
    (
        fnv1a(bytes, 0xcbf2_9ce4_8422_2325),
        fnv1a(bytes, 0x6c62_272e_07bb_0142),
    )
}

/// How one [`Memo::get_or_compute`] call was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The value was already computed.
    Hit,
    /// This call computed the value.
    Miss,
    /// Another call was computing the value; this one waited for it.
    Coalesced,
}

/// Memo traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Calls answered from a computed entry.
    pub hits: u64,
    /// Calls that computed, counted when the computation starts.
    pub misses: u64,
    /// Calls that arrived while the same key was being computed and
    /// waited for that value instead of computing it again.
    pub coalesced: u64,
    /// Keys stored, in-flight computations included.
    pub entries: usize,
}

impl MemoStats {
    /// hits / (hits + misses + coalesced), in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A key → value memo that computes each key once, however many threads
/// ask for it at the same time.
pub struct Memo<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> Default for Memo<K, V> {
    fn default() -> Self {
        Memo::new()
    }
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// An empty memo.
    pub fn new() -> Memo<K, V> {
        Memo {
            cells: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// The value for `key`, running `compute` only if no call has
    /// computed it yet and none is computing it now; callers that find
    /// it in flight wait for its value. Returns the value and how the
    /// call was answered.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, Role) {
        let cell = Arc::clone(
            self.cells
                .lock()
                .expect("memo lock poisoned")
                .entry(key)
                .or_default(),
        );
        if let Some(value) = cell.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (value.clone(), Role::Hit);
        }
        let mut role = Role::Coalesced;
        let value = cell.get_or_init(|| {
            role = Role::Miss;
            self.misses.fetch_add(1, Ordering::Relaxed);
            compute()
        });
        if role == Role::Coalesced {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        (value.clone(), role)
    }

    /// Current traffic counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            entries: self.cells.lock().expect("memo lock poisoned").len(),
        }
    }
}
