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
//! The cache holds at most [`CAPACITY`] binaries and evicts the oldest
//! first. A cached binary is an `Arc` handle whose drop deletes the
//! binary and its C source, so an evicted binary leaves the disk when
//! the last run holding it finishes, and a run that fetched it just
//! before its eviction still execs it.
//!
//! [`global()`] is the process-wide instance every
//! `Engine::Native` run goes through; [`stats()`](NativeRunner::stats)
//! feeds the service's `/metrics` gauges and the `native_differential`
//! binary's round-2 hit-rate check.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use nascent_ir::Program;
use nascent_obs::memo::{content_hash, Memo, MemoStats, Role};

use crate::runner::{self, CRunError, CRunResult};

/// Binaries a runner keeps before it deletes its oldest: above the 130
/// distinct programs the 420-cell matrix compiles, so a second round
/// over the matrix compiles nothing.
pub const CAPACITY: usize = 256;

/// A compiled binary and its C source on disk, both deleted when the
/// last handle drops.
#[derive(Debug)]
struct Binary {
    exe: PathBuf,
    source: PathBuf,
}

impl Drop for Binary {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.exe);
        let _ = std::fs::remove_file(&self.source);
    }
}

/// A finished compile: the binary, or (compiler, stderr) of the
/// failure — clonable so every waiter sees the owner's verdict.
type Compiled = Result<Arc<Binary>, (String, String)>;

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
    /// Binaries evicted to stay within [`CAPACITY`], each deleted from
    /// disk once no run holds it.
    pub evictions: u64,
    /// Compiles held, failed and in-flight ones included.
    pub entries: usize,
}

impl NativeCacheStats {
    /// hits / (hits + compiles + coalesced), in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        MemoStats {
            hits: self.hits,
            misses: self.compiles,
            coalesced: self.coalesced,
            evictions: self.evictions,
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
            evictions: self.evictions - earlier.evictions,
            entries: self.entries,
        }
    }
}

/// The content-hash-keyed compile cache + exec engine.
pub struct NativeRunner {
    dir: PathBuf,
    binaries: Memo<((u64, u64), usize), Compiled>,
    /// Compiles started, numbering their files: a program evicted and
    /// compiled again gets new files, which the old handle's drop
    /// leaves alone.
    files: AtomicU64,
    cleanup: bool,
}

static GLOBAL: OnceLock<NativeRunner> = OnceLock::new();
static INSTANCE_SEQ: AtomicU64 = AtomicU64::new(0);

/// The process-wide runner used by `Engine::Native`: every caller in
/// the process shares one cache, so each distinct optimized program
/// compiles exactly once per fleet.
pub fn global() -> &'static NativeRunner {
    GLOBAL.get_or_init(|| NativeRunner::with_capacity(false, CAPACITY))
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
        NativeRunner::with_capacity(true, CAPACITY)
    }

    fn with_capacity(cleanup: bool, capacity: usize) -> NativeRunner {
        let seq = INSTANCE_SEQ.fetch_add(1, Ordering::Relaxed);
        NativeRunner {
            dir: std::env::temp_dir().join(format!(
                "nascent-native-{}-{}",
                std::process::id(),
                seq
            )),
            binaries: Memo::new(capacity),
            files: AtomicU64::new(0),
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
        let r = runner::exec_binary(&bin.exe, &envs, runner::run_timeout());
        if let Ok(res) = &r {
            sp.attr("exec_ns", res.exec_ns.unwrap_or(0));
        }
        r
    }

    /// The compiled binary for `c_source`: the first caller compiles,
    /// concurrent callers wait, later callers are instant hits. The
    /// handle keeps the binary on disk, evicted or not.
    fn compiled(&self, c_source: &str) -> Result<Arc<Binary>, CRunError> {
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
        let n = self.files.fetch_add(1, Ordering::Relaxed);
        let name = format!("p{h1:016x}{h2:016x}-{n}");
        // owned before the compile, so a failed one leaves no file behind
        let binary = Binary {
            exe: self.dir.join(&name),
            source: self.dir.join(format!("{name}.c")),
        };
        match runner::compile_c(c_source, &self.dir, &name) {
            Ok(_) => Ok(Arc::new(binary)),
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
            evictions: memo.evictions,
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

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_ir::{Expr, FunctionBuilder, Stmt, Terminator};

    /// A program that prints `n`.
    fn prints(n: i64) -> Program {
        let mut b = FunctionBuilder::new("main");
        let entry = b.entry();
        b.push(entry, Stmt::Emit(Expr::int(n)));
        b.terminate(entry, Terminator::Return);
        Program::single(b.finish())
    }

    /// Binaries (files without an extension) and C sources in `dir`.
    fn files_in(dir: &std::path::Path) -> (usize, usize) {
        let names: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("runner directory exists")
            .map(|e| e.expect("directory entry").path())
            .collect();
        let sources = names.iter().filter(|p| p.extension().is_some()).count();
        (names.len() - sources, sources)
    }

    #[test]
    fn the_directory_holds_at_most_capacity_binaries_and_a_held_one_outlives_eviction() {
        if !crate::cc_available() {
            eprintln!("skipping: no C compiler for the native tier ($CC / cc)");
            return;
        }
        const CAP: usize = 2;
        let runner = NativeRunner::with_capacity(true, CAP);
        for n in 0..3 * CAP as i64 {
            let r = runner.run(&prints(n), 1_000, 16).expect("native run");
            assert_eq!(r.output, [('i', n as u64)]);
            let (binaries, sources) = files_in(&runner.dir);
            assert!(binaries <= CAP && sources <= CAP, "{binaries} binaries");
        }
        assert_eq!(runner.stats().evictions, 2 * CAP as u64);

        // a handle fetched before its eviction still runs its binary
        let held = runner
            .compiled(&crate::emit_c(&prints(100)))
            .expect("compiles");
        for n in 200..200 + CAP as i64 {
            runner.run(&prints(n), 1_000, 16).expect("native run");
        }
        assert_eq!(runner.stats().evictions, 3 * CAP as u64 + 1);
        assert_eq!(files_in(&runner.dir), (CAP + 1, CAP + 1));
        let envs = [("NASCENT_STEP_LIMIT", "1000".to_string())];
        let r = runner::exec_binary(&held.exe, &envs, runner::run_timeout()).expect("held binary");
        assert_eq!(r.output, [('i', 100)]);
        // compiled again after its eviction, the program gets files of
        // its own, which dropping the old handle leaves in place
        let again = runner
            .compiled(&crate::emit_c(&prints(100)))
            .expect("compiles");
        assert_ne!(again.exe, held.exe);
        let (exe, source) = (held.exe.clone(), held.source.clone());
        drop(held);
        assert!(!exe.exists() && !source.exists());
        assert!(again.exe.exists() && again.source.exists());
        assert_eq!(files_in(&runner.dir), (CAP, CAP));
    }
}
