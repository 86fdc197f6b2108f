//! The native execution tier: a content-hash-keyed compile cache over
//! the instrumented C back end.
//!
//! Across a 42-configuration × 10-program matrix most cells optimize to
//! the *same* program text, so compiling per run would repeat the
//! dominant cost. [`NativeRunner`] keeps compiled binaries in a
//! [`Memo`] keyed by the [`content_hash`] of the emitted C and its
//! length — the same "exact content ⇒ exact reuse" memo as the driver's
//! fleet-wide result cache — so concurrent identical compiles coalesce:
//! the first caller runs the compiler, later callers wait for and share
//! its binary. Runtime
//! limits travel per *exec* (environment variables), not per binary, so
//! one cached binary serves every limit setting.
//!
//! [`global()`] is the process-wide instance every
//! `Engine::Native` run goes through; [`stats()`](NativeRunner::stats)
//! feeds the service's `/metrics` gauges and the `native_differential`
//! binary's round-2 hit-rate check.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use nascent_ir::Program;
use nascent_obs::memo::{content_hash, Memo, MemoStats, Role};

use crate::runner::{self, CRunError, CRunResult};

/// A finished compile: the binary path, or (compiler, stderr) of the
/// failure — clonable so every waiter sees the owner's verdict.
type Compiled = Result<PathBuf, (String, String)>;

/// Compile-cache traffic counters: the memo's counters, with its
/// misses named for what a miss does here.
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
        MemoStats {
            hits: self.hits,
            misses: self.compiles,
            coalesced: self.coalesced,
            entries: self.entries,
        }
        .hit_rate()
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
    binaries: Memo<((u64, u64), usize), Compiled>,
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
            binaries: Memo::new(),
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

    /// The compiled binary for `c_source`: the first caller compiles,
    /// concurrent callers wait, later callers are instant hits.
    fn compiled(&self, c_source: &str) -> Result<PathBuf, CRunError> {
        let hash = content_hash(c_source.as_bytes());
        let mut sp = nascent_obs::trace::span("compile", "native");
        let (compiled, role) = self
            .binaries
            .get_or_compute((hash, c_source.len()), || self.compile_now(c_source, hash));
        sp.attr("cached", i64::from(role != Role::Miss));
        compiled.map_err(|(compiler, stderr)| CRunError::CompileFailed { compiler, stderr })
    }

    fn compile_now(&self, c_source: &str, (h1, h2): (u64, u64)) -> Compiled {
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            return Err(("mkdir".to_string(), e.to_string()));
        }
        let name = format!("p{h1:016x}{h2:016x}");
        match runner::compile_c(c_source, &self.dir, &name) {
            Ok(bin) => Ok(bin),
            Err(CRunError::CompileFailed { compiler, stderr }) => Err((compiler, stderr)),
            Err(other) => Err((runner::cc_command(), other.to_string())),
        }
    }

    /// Current compile-cache counters.
    pub fn stats(&self) -> NativeCacheStats {
        let memo = self.binaries.stats();
        NativeCacheStats {
            hits: memo.hits,
            compiles: memo.misses,
            coalesced: memo.coalesced,
            entries: memo.entries,
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
