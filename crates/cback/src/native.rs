//! The native execution tier: a content-hash-keyed compile cache over
//! the instrumented C back end.
//!
//! Across a 42-configuration × 10-program matrix most cells optimize to
//! the *same* program text, so compiling per run would repeat the
//! dominant cost. [`NativeRunner`] keys compiled binaries by a
//! double-FNV content hash of the emitted C — the same "exact content ⇒
//! exact reuse" discipline as the driver's fleet-wide result cache — and
//! coalesces concurrent identical compiles: the first caller becomes the
//! owner and runs the compiler, later callers block on the entry's
//! condvar and share the owner's binary. Runtime
//! limits travel per *exec* (environment variables), not per binary, so
//! one cached binary serves every limit setting.
//!
//! [`global()`] is the process-wide instance every
//! `Engine::Native` run goes through; [`stats()`](NativeRunner::stats)
//! feeds the service's `/metrics` gauges and the `native_differential`
//! binary's round-2 hit-rate check.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use nascent_ir::Program;

use crate::runner::{self, CRunError, CRunResult};

/// 64-bit FNV-1a (the repo's standard content-hash primitive).
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Cache key: two independent hashes of the emitted C plus its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    h1: u64,
    h2: u64,
    len: usize,
}

impl Key {
    fn of(c_source: &str) -> Key {
        let bytes = c_source.as_bytes();
        Key {
            h1: fnv1a(bytes, 0xcbf2_9ce4_8422_2325),
            h2: fnv1a(bytes, 0x6c62_272e_07bb_0142),
            len: bytes.len(),
        }
    }
}

/// A finished compile: the binary path, or (compiler, stderr) of the
/// failure — clonable so every waiter sees the owner's verdict.
type Compiled = Result<PathBuf, (String, String)>;

/// One cache entry: empty while the owner compiles, then filled once.
struct Slot {
    done: Mutex<Option<Compiled>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fill(&self, value: Compiled) {
        *self.done.lock().expect("slot lock") = Some(value);
        self.cv.notify_all();
    }

    fn wait(&self) -> Compiled {
        let mut done = self.done.lock().expect("slot lock");
        while done.is_none() {
            done = self.cv.wait(done).expect("slot wait");
        }
        done.clone().expect("filled")
    }
}

/// Compile-cache traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NativeCacheStats {
    /// Runs that found their binary already compiled.
    pub hits: u64,
    /// Runs that became the owner and invoked the C compiler.
    pub compiles: u64,
    /// Runs that arrived while an identical compile was in flight and
    /// waited for its binary instead of recompiling.
    pub coalesced: u64,
    /// Distinct programs compiled (in-flight included).
    pub entries: usize,
}

impl NativeCacheStats {
    /// hits / (hits + compiles + coalesced), in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.compiles + self.coalesced;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Traffic since an earlier snapshot (for per-round hit rates).
    #[must_use]
    pub fn since(&self, earlier: &NativeCacheStats) -> NativeCacheStats {
        NativeCacheStats {
            hits: self.hits - earlier.hits,
            compiles: self.compiles - earlier.compiles,
            coalesced: self.coalesced - earlier.coalesced,
            entries: self.entries,
        }
    }
}

/// The content-hash-keyed compile cache + exec engine.
pub struct NativeRunner {
    dir: PathBuf,
    slots: Mutex<HashMap<Key, Arc<Slot>>>,
    hits: AtomicU64,
    compiles: AtomicU64,
    coalesced: AtomicU64,
    cleanup: bool,
}

static GLOBAL: OnceLock<NativeRunner> = OnceLock::new();
static INSTANCE_SEQ: AtomicU64 = AtomicU64::new(0);

/// The process-wide runner used by `Engine::Native`: every caller in
/// the process shares one cache, so each distinct optimized program
/// compiles exactly once per fleet.
pub fn global() -> &'static NativeRunner {
    GLOBAL.get_or_init(|| NativeRunner::with_cleanup(false))
}

/// Compile-cache counters of the [`global`] runner (service metrics,
/// bench snapshots).
pub fn global_stats() -> NativeCacheStats {
    global().stats()
}

impl Default for NativeRunner {
    fn default() -> Self {
        NativeRunner::new()
    }
}

impl NativeRunner {
    /// A fresh runner with its own scratch directory, removed on drop.
    pub fn new() -> NativeRunner {
        NativeRunner::with_cleanup(true)
    }

    fn with_cleanup(cleanup: bool) -> NativeRunner {
        let seq = INSTANCE_SEQ.fetch_add(1, Ordering::Relaxed);
        NativeRunner {
            dir: std::env::temp_dir().join(format!(
                "nascent-native-{}-{}",
                std::process::id(),
                seq
            )),
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            cleanup,
        }
    }

    /// Emits, compiles (once per distinct program), and runs `prog`
    /// under the given limits, which are passed to the binary via
    /// environment variables so they never fragment the cache key.
    ///
    /// # Errors
    ///
    /// See [`CRunError`]; a cached compile failure is replayed to every
    /// later caller without re-invoking the compiler.
    pub fn run(
        &self,
        prog: &Program,
        max_steps: u64,
        max_call_depth: u64,
    ) -> Result<CRunResult, CRunError> {
        self.run_repeat(prog, max_steps, max_call_depth, 1)
    }

    /// [`run`](Self::run) with the program executed `repeat` times
    /// inside one process, for spawn-free self-timing (`exec_ns` in the
    /// result covers all repeats). Counters accumulate across repeats;
    /// output is printed only on the final repeat, so the parsed output
    /// equals a single run's and the timed loop stays stdio-free.
    ///
    /// # Errors
    ///
    /// See [`CRunError`].
    pub fn run_repeat(
        &self,
        prog: &Program,
        max_steps: u64,
        max_call_depth: u64,
        repeat: u64,
    ) -> Result<CRunResult, CRunError> {
        let c_source = {
            let _sp = nascent_obs::trace::span("emit", "native");
            crate::emit_c(prog)
        };
        let bin = self.compiled(&c_source)?;
        let envs = [
            ("NASCENT_STEP_LIMIT", max_steps.to_string()),
            ("NASCENT_DEPTH_LIMIT", max_call_depth.to_string()),
            ("NASCENT_CBACK_REPEAT", repeat.to_string()),
        ];
        let mut sp = nascent_obs::trace::span("exec", "native");
        let r = runner::exec_binary(&bin, &envs, runner::run_timeout());
        if let Ok(res) = &r {
            sp.attr("exec_ns", res.exec_ns.unwrap_or(0));
        }
        r
    }

    /// The compiled binary for `c_source`: owner compiles, waiters
    /// block, completed entries are instant hits.
    fn compiled(&self, c_source: &str) -> Result<PathBuf, CRunError> {
        let key = Key::of(c_source);
        let (slot, owner) = {
            let mut slots = self.slots.lock().expect("cache lock");
            match slots.entry(key) {
                Entry::Occupied(e) => (Arc::clone(e.get()), false),
                Entry::Vacant(e) => {
                    let slot = Arc::new(Slot::new());
                    e.insert(Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        let mut sp = nascent_obs::trace::span("compile", "native");
        sp.attr("cached", i64::from(!owner));
        let compiled = if owner {
            self.compiles.fetch_add(1, Ordering::Relaxed);
            let result = self.compile_now(c_source, &key);
            slot.fill(result.clone());
            result
        } else {
            // completed entry => hit; in-flight entry => coalesced wait
            if slot.done.lock().expect("slot lock").is_some() {
                self.hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            slot.wait()
        };
        compiled.map_err(|(compiler, stderr)| CRunError::CompileFailed { compiler, stderr })
    }

    fn compile_now(&self, c_source: &str, key: &Key) -> Compiled {
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            return Err(("mkdir".to_string(), e.to_string()));
        }
        let name = format!("p{:016x}{:016x}", key.h1, key.h2);
        match runner::compile_c(c_source, &self.dir, &name) {
            Ok(bin) => Ok(bin),
            Err(CRunError::CompileFailed { compiler, stderr }) => Err((compiler, stderr)),
            Err(other) => Err((runner::cc_command(), other.to_string())),
        }
    }

    /// Current compile-cache counters.
    pub fn stats(&self) -> NativeCacheStats {
        NativeCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            entries: self.slots.lock().expect("cache lock").len(),
        }
    }
}

impl Drop for NativeRunner {
    fn drop(&mut self) {
        if self.cleanup {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}
