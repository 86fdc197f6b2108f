//! The one content-hash memo: a concurrent key → value map of bounded
//! size that computes each key's value once and counts how every
//! request was answered.
//!
//! Both caches of the workspace are this memo: the driver's fleet-wide
//! result cache (source, configuration and mode → outcome) and the
//! native tier's compile cache (emitted C → binary). Each entry is a
//! [`OnceLock`]: the first caller of a key computes its value, callers
//! that arrive while it computes wait for it, and later callers read
//! it. Keys are content, so an edit to the content is a new key — that
//! *is* the invalidation.
//!
//! A memo holds at most the number of entries its constructor is
//! given. An insert that would exceed that capacity first evicts the
//! oldest computed entries, in insertion order (FIFO: a hit does not
//! move an entry). An entry whose value is still being computed is
//! never evicted: it is skipped and kept, so the callers waiting on it
//! still share one computation, and the memo exceeds its capacity by at
//! most the computations in flight. Evicted values are dropped after
//! the memo's lock is released; a caller that already holds one keeps
//! it, and the next caller of an evicted key computes it again.
//!
//! A computation that panics removes its key, so an empty entry always
//! means a computation in flight, and the next caller of that key
//! computes again. Callers that must not recompute turn panics into
//! values inside the computation (the driver does).

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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
    /// Computed entries dropped to keep the memo within its capacity.
    pub evictions: u64,
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
/// ask for it at the same time, and holds at most a fixed number of
/// entries (see the module docs).
pub struct Memo<K, V> {
    capacity: usize,
    cells: Mutex<Cells<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

/// The entries, and the same keys in insertion order.
struct Cells<K, V> {
    map: HashMap<K, Arc<OnceLock<V>>>,
    order: VecDeque<K>,
}

impl<K: Hash + Eq, V> Cells<K, V> {
    /// Evicts the oldest computed entries until one more fits within
    /// `capacity`, stepping over entries still in flight, and returns
    /// the evicted cells for the caller to drop outside the lock.
    fn make_room(&mut self, capacity: usize) -> Vec<Arc<OnceLock<V>>> {
        let mut evicted = Vec::new();
        let mut i = 0;
        while self.map.len() >= capacity && i < self.order.len() {
            if self.map[&self.order[i]].get().is_some() {
                let key = self.order.remove(i).expect("index within the queue");
                evicted.extend(self.map.remove(&key));
            } else {
                i += 1;
            }
        }
        evicted
    }
}

/// Removes its key's entry when dropped, as long as the entry is still
/// `cell`; armed around a computation and forgotten once it returns,
/// so it fires only when the computation unwinds.
struct RemoveOnUnwind<'a, K: Hash + Eq, V> {
    memo: &'a Memo<K, V>,
    key: &'a K,
    cell: &'a Arc<OnceLock<V>>,
}

impl<K: Hash + Eq, V> Drop for RemoveOnUnwind<'_, K, V> {
    fn drop(&mut self) {
        // a poisoned lock is left alone: a panic here would abort
        let Ok(mut cells) = self.memo.cells.lock() else {
            return;
        };
        if cells
            .map
            .get(self.key)
            .is_some_and(|c| Arc::ptr_eq(c, self.cell))
        {
            cells.map.remove(self.key);
            if let Some(i) = cells.order.iter().position(|k| k == self.key) {
                cells.order.remove(i);
            }
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Memo<K, V> {
    /// An empty memo that holds at most `capacity` computed entries.
    pub fn new(capacity: usize) -> Memo<K, V> {
        Memo {
            capacity,
            cells: Mutex::new(Cells {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Cells<K, V>> {
        self.cells.lock().expect("memo lock poisoned")
    }

    /// The value for `key`, running `compute` only if no call has
    /// computed it yet and none is computing it now; callers that find
    /// it in flight wait for its value. Returns the value and how the
    /// call was answered. A new key may first evict the oldest computed
    /// entries (see the module docs).
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, Role) {
        let mut evicted = Vec::new();
        let cell = {
            let mut cells = self.lock();
            match cells.map.get(&key) {
                Some(cell) => Arc::clone(cell),
                None => {
                    evicted = cells.make_room(self.capacity);
                    let cell = Arc::new(OnceLock::new());
                    cells.map.insert(key.clone(), Arc::clone(&cell));
                    cells.order.push_back(key.clone());
                    cell
                }
            }
        };
        if !evicted.is_empty() {
            self.evictions
                .fetch_add(evicted.len() as u64, Ordering::Relaxed);
            drop(evicted);
        }
        if let Some(value) = cell.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (value.clone(), Role::Hit);
        }
        let mut role = Role::Coalesced;
        let value = cell.get_or_init(|| {
            role = Role::Miss;
            self.misses.fetch_add(1, Ordering::Relaxed);
            let armed = RemoveOnUnwind {
                memo: self,
                key: &key,
                cell: &cell,
            };
            let value = compute();
            std::mem::forget(armed);
            value
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
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.lock().map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn entries_stay_within_capacity_and_evictions_count_the_excess() {
        const CAP: usize = 8;
        let memo = Memo::new(CAP);
        for k in 0..10 * CAP {
            let (v, role) = memo.get_or_compute(k, || k * 2);
            assert_eq!((v, role), (k * 2, Role::Miss));
            assert!(memo.stats().entries <= CAP, "{:?}", memo.stats());
        }
        let stats = memo.stats();
        assert_eq!(stats.entries, CAP);
        assert_eq!(stats.evictions, (9 * CAP) as u64);
        // the newest keys are the ones kept
        for k in 9 * CAP..10 * CAP {
            assert_eq!(memo.get_or_compute(k, || unreachable!()).1, Role::Hit);
        }
    }

    #[test]
    fn an_evicted_key_is_a_miss_that_recomputes_and_hits_do_not_reorder() {
        let memo = Memo::new(2);
        let runs = AtomicU64::new(0);
        let get = |k: u32| {
            memo.get_or_compute(k, || {
                runs.fetch_add(1, Ordering::Relaxed);
                k + 100
            })
        };
        get(1);
        get(2);
        assert_eq!(get(1), (101, Role::Hit));
        // FIFO: the hit above does not save key 1 from being the oldest
        get(3);
        assert_eq!(memo.stats().evictions, 1);
        assert_eq!(get(2), (102, Role::Hit));
        assert_eq!(runs.load(Ordering::Relaxed), 3);
        assert_eq!(get(1), (101, Role::Miss));
        assert_eq!(runs.load(Ordering::Relaxed), 4);
        assert_eq!(memo.stats().evictions, 2);
    }

    /// Blocks the computation of key 0, inserts `capacity + 5` other keys
    /// behind it, then sends a second caller of key 0 and releases the
    /// computation once that caller is on its way. The second caller must
    /// never compute; returns how it was answered.
    fn second_caller_of_a_blocked_entry(capacity: usize) -> Role {
        let memo: Memo<usize, usize> = Memo::new(capacity);
        std::thread::scope(|s| {
            // made inside the scope, so a failed assertion drops `release`
            // and the blocked computation ends instead of hanging the join
            let (started_tx, started) = mpsc::channel();
            let (release, release_rx) = mpsc::channel::<()>();
            let (arriving_tx, arriving) = mpsc::channel();
            let memo = &memo;
            let first = s.spawn(move || {
                memo.get_or_compute(0, move || {
                    started_tx.send(()).expect("test thread alive");
                    release_rx.recv().expect("released");
                    7
                })
            });
            started.recv().expect("computation started");
            for k in 1..=capacity + 5 {
                memo.get_or_compute(k, || k);
            }
            let stats = memo.stats();
            // the in-flight entry counts towards the capacity but is kept
            assert_eq!(stats.entries, capacity, "{stats:?}");
            assert_eq!(stats.evictions, 6, "{stats:?}");
            let second = s.spawn(move || {
                arriving_tx.send(()).expect("test thread alive");
                memo.get_or_compute(0, || panic!("a second computation of key 0"))
            });
            arriving.recv().expect("second caller started");
            release.send(()).expect("computation waiting");
            assert_eq!(first.join().expect("first caller"), (7, Role::Miss));
            let (value, role) = second.join().expect("second caller never computes");
            assert_eq!(value, 7);
            role
        })
    }

    #[test]
    fn a_blocked_entry_survives_eviction_and_its_callers_coalesce() {
        // The second caller is released from its own thread just before
        // it looks the key up, so it can, rarely, find the value already
        // computed (a `Hit`); it never computes either way. Retry until
        // it is seen waiting.
        let coalesced = (0..50).any(|_| second_caller_of_a_blocked_entry(4) == Role::Coalesced);
        assert!(coalesced, "the second caller never waited for the first");
    }

    #[test]
    fn a_panicking_computation_leaves_no_entry() {
        let memo = Memo::new(2);
        let boom = std::panic::catch_unwind(|| memo.get_or_compute(1, || panic!("boom")));
        assert!(boom.is_err());
        assert_eq!(memo.stats().entries, 0);
        assert_eq!(memo.get_or_compute(1, || 11), (11, Role::Miss));
        // the key left the insertion order too: filling the memo evicts
        // the recomputed entry, not a stale copy of the key
        memo.get_or_compute(2, || 12);
        memo.get_or_compute(3, || 13);
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.evictions, stats.misses), (2, 1, 4));
        assert_eq!(memo.get_or_compute(1, || 21), (21, Role::Miss));
    }
}
