//! Instrumented interpreter for [`nascent_ir`] programs.
//!
//! The paper measures optimizations by *dynamic counts*: the number of
//! instructions and the number of range checks executed on the program's
//! standard input (Table 1), and the percentage of dynamic checks each
//! optimization removes (Tables 2 and 3). The authors obtained these counts
//! by translating Fortran to instrumented C; we interpret the IR directly
//! with an explicit cost model (see [`nascent_ir::Stmt::cost`]).
//!
//! Trap semantics follow §3 of the paper: a failing check stops execution
//! at that point. A *conditional* check (`Cond-check`) first evaluates its
//! guards and performs the check only if they all hold.
//!
//! Reaching an actual out-of-bounds array access is reported as
//! [`RunError::UndetectedViolation`]; a correct optimizer can never produce
//! one for a program whose naive version traps first.
//!
//! # Example
//!
//! ```
//! use nascent_interp::{run, Limits};
//!
//! let prog = nascent_frontend::compile(
//!     "program p\n integer a(1:5)\n integer i\n do i = 1, 5\n a(i) = i\n enddo\n print a(3)\nend\n",
//! ).unwrap();
//! let r = run(&prog, &Limits::default()).unwrap();
//! assert_eq!(r.output, vec![nascent_interp::Value::Int(3)]);
//! assert_eq!(r.dynamic_checks, 12); // 5 stores * 2 + 1 load * 2
//! assert!(r.trap.is_none());
//! ```

pub mod bytecode;
pub mod machine;
mod native;
pub mod vm;

pub use bytecode::{lower, CompiledProgram};
pub use machine::{run, run_traced, Limits, RunError, RunResult, TraceEvent, Trap, Value};
pub use vm::run_compiled;

/// Which execution engine to use for dynamic-count measurement.
///
/// All engines implement the same observable semantics (outputs, dynamic
/// instruction/check/guard counters, trap behavior); [`Engine::Vm`] lowers
/// the program to register bytecode once and dispatches a flat instruction
/// stream, which is substantially faster for the measurement harness.
/// [`Engine::Native`] goes all the way to machine code: the program is
/// translated to instrumented C (the paper's own §4 methodology),
/// compiled once per distinct program through `nascent-cback`'s
/// content-hash compile cache, and executed as a child process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The original tree-walking interpreter ([`machine::run`]).
    Tree,
    /// The register-bytecode VM ([`vm::run_compiled`] over [`bytecode::lower`]).
    #[default]
    Vm,
    /// The compiled-to-machine-code tier (a child process per run, over
    /// the `nascent-cback` compile cache). Requires a C compiler on the
    /// host (`$CC`, falling back to `cc`) and Linux's `/proc`.
    Native,
}

impl Engine {
    /// `tree` / `vm` / `native`, as used in flags, JSON, and metrics
    /// labels.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Tree => "tree",
            Engine::Vm => "vm",
            Engine::Native => "native",
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tree" => Ok(Engine::Tree),
            "vm" => Ok(Engine::Vm),
            "native" => Ok(Engine::Native),
            other => Err(format!(
                "unknown engine `{other}` (expected `tree`, `vm`, or `native`)"
            )),
        }
    }
}

/// A run begun by [`start_with_engine`] and collected by
/// [`wait`](StartedRun::wait). The tree and the VM run to completion
/// inside `start_with_engine`; a native run is a child process until
/// `wait` reads it, and dropping it unwaited kills and reaps the child.
#[derive(Debug)]
pub struct StartedRun(Started);

#[derive(Debug)]
enum Started {
    Finished(RunResult),
    Native(nascent_cback::native::NativeRun),
}

impl StartedRun {
    /// Whether [`wait`](Self::wait) still has a child process to collect.
    pub fn is_pending(&self) -> bool {
        matches!(self.0, Started::Native(_))
    }

    /// The run's result: at once for the tree and the VM, when the child
    /// exits (or its deadline kills it) for a native run.
    ///
    /// # Errors
    ///
    /// The run's [`RunError`], for a native run everything
    /// [`start_with_engine`] did not already report.
    pub fn wait(self) -> Result<RunResult, RunError> {
        match self.0 {
            Started::Finished(r) => Ok(r),
            Started::Native(child) => {
                let mut sp = nascent_obs::trace::span("interp", "engine");
                sp.attr("engine", Engine::Native.name());
                native::finish(child)
            }
        }
    }
}

/// Starts `prog` under the selected [`Engine`].
///
/// The tree runs [`run`]; the VM lowers the program with [`lower`] and
/// executes it with [`run_compiled`], both to completion before this
/// returns. [`Engine::Native`] returns as soon as the child process is
/// spawned, so the caller can work while the binary runs; its compiled
/// binary is cached process-wide by content hash, so re-runs just exec.
///
/// # Errors
///
/// The tree's and the VM's [`RunError`]; for a native run, a failure to
/// emit, compile or spawn (the run's own errors come from
/// [`StartedRun::wait`]).
pub fn start_with_engine(
    prog: &nascent_ir::Program,
    limits: &Limits,
    engine: Engine,
) -> Result<StartedRun, RunError> {
    let mut sp = nascent_obs::trace::span("interp", "engine");
    sp.attr("engine", engine.name());
    Ok(StartedRun(match engine {
        Engine::Tree => Started::Finished(run(prog, limits)?),
        Engine::Vm => Started::Finished(run_compiled(&lower(prog), limits)?),
        Engine::Native => Started::Native(native::start(prog, limits)?),
    }))
}

/// Runs `prog` under the selected [`Engine`]: [`start_with_engine`],
/// then [`StartedRun::wait`]. Callers that execute the same program
/// many times on the VM should lower once and call [`run_compiled`]
/// directly to amortize the lowering cost.
///
/// # Errors
///
/// The run's [`RunError`].
pub fn run_with_engine(
    prog: &nascent_ir::Program,
    limits: &Limits,
    engine: Engine,
) -> Result<RunResult, RunError> {
    start_with_engine(prog, limits, engine)?.wait()
}
