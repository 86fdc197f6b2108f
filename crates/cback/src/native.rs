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
//! The tier leaves nothing on disk. A compile writes its C source and
//! its binary under `$TMPDIR` with a name no other compile uses, opens
//! the binary read-only and unlinks both files. A cached binary is an
//! `Arc<File>`, and runs exec it through `/proc/self/fd/<n>`, so the
//! tier needs Linux's `/proc`. The cache holds at most [`CAPACITY`]
//! binaries and evicts the oldest first; an evicted binary's inode is
//! freed when the last run holding it finishes, and a run that fetched
//! it just before its eviction still execs it.
//!
//! A run has two phases. [`NativeRunner::start`] emits the C, looks up
//! or compiles the binary and spawns it; [`NativeRun::finish`] reads the
//! child's output, reaps it and parses the protocol. Between the two the
//! caller is free: the driver optimizes while the naive binary runs.
//! [`run`](NativeRunner::run) is the two back to back. Dropping an
//! unfinished [`NativeRun`] kills and reaps its child.
//!
//! [`global()`] is the process-wide instance every
//! `Engine::Native` run goes through; [`stats()`](NativeRunner::stats)
//! feeds the service's `/metrics` gauges and the `native_differential`
//! binary's round-2 hit-rate check.

use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use nascent_ir::Program;
use nascent_obs::memo::{content_hash, Memo, MemoStats, Role};
use nascent_obs::trace::{span, Span};

use crate::runner::{self, CRunError, CRunResult, Running};

/// Binaries a runner keeps before it drops its oldest: above the 130
/// distinct programs the 420-cell matrix compiles, so a second round
/// over the matrix compiles nothing.
pub const CAPACITY: usize = 256;

/// A finished compile: the open, unlinked binary, or (compiler, stderr)
/// of the failure — clonable so every waiter sees the owner's verdict.
type Compiled = Result<Arc<File>, (String, String)>;

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
    /// Binaries evicted to stay within [`CAPACITY`], each closed once
    /// no run holds it.
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
    binaries: Memo<((u64, u64), usize), Compiled>,
    /// `nascent-native-<pid>-<runner>-`: the start of the name of every
    /// file this runner's compiles write.
    prefix: String,
    /// Compiles started, ending their file names.
    files: AtomicU64,
}

static GLOBAL: OnceLock<NativeRunner> = OnceLock::new();
static INSTANCE_SEQ: AtomicU64 = AtomicU64::new(0);

/// The process-wide runner used by `Engine::Native`: every caller in
/// the process shares one cache, so each distinct optimized program
/// compiles exactly once per fleet.
pub fn global() -> &'static NativeRunner {
    GLOBAL.get_or_init(NativeRunner::new)
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

/// A spawned native run, collected by [`finish`](NativeRun::finish).
/// Dropping it unfinished kills and reaps the child.
#[derive(Debug)]
pub struct NativeRun(Running);

impl NativeRun {
    /// Reads the child's output to EOF, reaps it and parses the
    /// protocol. A child still running at its deadline
    /// (`NASCENT_CBACK_TIMEOUT_MS`, counted from the spawn) is killed
    /// and reported as [`CRunError::Timeout`]; one that exited before
    /// it returns its result, however late this is called.
    ///
    /// # Errors
    ///
    /// See [`CRunError`].
    pub fn finish(self) -> Result<CRunResult, CRunError> {
        finish_exec(span("exec", "native"), self.0)
    }
}

/// The environment that sets a run's limits.
fn limits(max_steps: u64, max_call_depth: u64, repeat: u64) -> [(&'static str, String); 3] {
    [
        ("NASCENT_STEP_LIMIT", max_steps.to_string()),
        ("NASCENT_DEPTH_LIMIT", max_call_depth.to_string()),
        ("NASCENT_CBACK_REPEAT", repeat.to_string()),
    ]
}

/// Collects `run` under its `exec` span, which records the binary's own
/// time.
fn finish_exec(mut sp: Span, run: Running) -> Result<CRunResult, CRunError> {
    let r = run.finish();
    if let Ok(res) = &r {
        sp.attr("exec_ns", res.exec_ns.unwrap_or(0));
    }
    r
}

impl NativeRunner {
    /// A fresh runner with a cache of its own.
    pub fn new() -> NativeRunner {
        NativeRunner::with_capacity(CAPACITY)
    }

    fn with_capacity(capacity: usize) -> NativeRunner {
        let seq = INSTANCE_SEQ.fetch_add(1, Ordering::Relaxed);
        NativeRunner {
            binaries: Memo::new(capacity),
            prefix: format!("nascent-native-{}-{seq}-", std::process::id()),
            files: AtomicU64::new(0),
        }
    }

    /// Emits, compiles (once per distinct program), and runs `prog`
    /// under the given limits, which are passed to the binary via
    /// environment variables so they never fragment the cache key: a
    /// [`start`](Self::start) and its [`finish`](NativeRun::finish)
    /// back to back, under one `exec` span from spawn to exit.
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
        let binary = self.binary(prog)?;
        let envs = limits(max_steps, max_call_depth, repeat);
        let sp = span("exec", "native");
        let run = runner::spawn(&binary, &envs, runner::run_timeout())?;
        finish_exec(sp, run)
    }

    /// The first half of [`run`](Self::run): emits `prog`, looks up or
    /// compiles its binary and spawns it, returning as soon as the
    /// child runs.
    ///
    /// # Errors
    ///
    /// See [`CRunError`]: a compile or spawn failure is reported here,
    /// everything about the run itself by [`NativeRun::finish`].
    pub fn start(
        &self,
        prog: &Program,
        max_steps: u64,
        max_call_depth: u64,
    ) -> Result<NativeRun, CRunError> {
        let binary = self.binary(prog)?;
        let envs = limits(max_steps, max_call_depth, 1);
        let _sp = span("exec", "native");
        runner::spawn(&binary, &envs, runner::run_timeout()).map(NativeRun)
    }

    /// The compiled binary of `prog`.
    fn binary(&self, prog: &Program) -> Result<Arc<File>, CRunError> {
        let c_source = {
            let _sp = span("emit", "native");
            crate::emit_c(prog)
        };
        self.compiled(&c_source)
    }

    /// The compiled binary for `c_source`: the first caller compiles,
    /// concurrent callers wait, later callers are instant hits. The
    /// handle keeps the binary open, evicted or not.
    fn compiled(&self, c_source: &str) -> Result<Arc<File>, CRunError> {
        let hash = content_hash(c_source.as_bytes());
        let mut sp = span("compile", "native");
        let (compiled, role) = self
            .binaries
            .get_or_compute((hash, c_source.len()), || self.compile_now(c_source));
        sp.attr("cached", i64::from(role != Role::Miss));
        compiled.map_err(|(compiler, stderr)| CRunError::CompileFailed { compiler, stderr })
    }

    fn compile_now(&self, c_source: &str) -> Compiled {
        let n = self.files.fetch_add(1, Ordering::Relaxed);
        let exe = std::env::temp_dir().join(format!("{}{n}", self.prefix));
        match runner::compile(c_source, &exe) {
            Ok(binary) => Ok(Arc::new(binary)),
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

    /// Files in `$TMPDIR` that `runner`'s compiles wrote.
    fn files_of(runner: &NativeRunner) -> Vec<String> {
        std::fs::read_dir(std::env::temp_dir())
            .expect("temporary directory lists")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with(&runner.prefix))
            .collect()
    }

    /// What `binary` prints.
    fn output_of(binary: &File) -> Vec<(char, u64)> {
        let envs = [("NASCENT_STEP_LIMIT", "1000".to_string())];
        runner::spawn(binary, &envs, runner::run_timeout())
            .and_then(Running::finish)
            .expect("binary runs")
            .output
    }

    #[test]
    fn no_file_remains_and_an_evicted_binary_runs_while_held() {
        if !crate::cc_available() {
            eprintln!("skipping: no C compiler for the native tier ($CC / cc)");
            return;
        }
        const CAP: usize = 2;
        let runner = NativeRunner::with_capacity(CAP);
        for n in 0..3 * CAP as i64 {
            let r = runner.run(&prints(n), 1_000, 16).expect("native run");
            assert_eq!(r.output, [('i', n as u64)]);
            assert_eq!(files_of(&runner), Vec::<String>::new());
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
        assert_eq!(output_of(&held), [('i', 100)]);
        // compiled again after its eviction, the program runs from a
        // binary of its own
        let compiles = runner.stats().compiles;
        let again = runner
            .compiled(&crate::emit_c(&prints(100)))
            .expect("compiles");
        assert_eq!(runner.stats().compiles, compiles + 1);
        assert!(!Arc::ptr_eq(&held, &again));
        drop(held);
        assert_eq!(output_of(&again), [('i', 100)]);
        let r = runner.run(&prints(100), 1_000, 16).expect("native run");
        assert_eq!(r.output, [('i', 100)]);
        assert_eq!(files_of(&runner), Vec::<String>::new());
    }
}
