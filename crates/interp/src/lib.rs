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
pub mod native;
pub mod vm;

pub use bytecode::{lower, CompiledProgram};
pub use machine::{run, run_traced, Limits, RunError, RunResult, TraceEvent, Trap, Value};
pub use native::run_native;
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
    /// The compiled-to-machine-code tier ([`native::run_native`] over the
    /// `nascent-cback` compile cache). Requires a C compiler on the host
    /// (`$CC`, falling back to `cc`).
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

/// Run `prog` under the selected [`Engine`].
///
/// Equivalent to [`run`] for [`Engine::Tree`]; for [`Engine::Vm`] the program
/// is lowered with [`lower`] and executed with [`run_compiled`]. Callers that
/// execute the same program many times should lower once and call
/// [`run_compiled`] directly to amortize the lowering cost.
/// [`Engine::Native`] amortizes automatically: the compiled binary is
/// cached process-wide by content hash, so re-runs just exec.
pub fn run_with_engine(
    prog: &nascent_ir::Program,
    limits: &Limits,
    engine: Engine,
) -> Result<RunResult, RunError> {
    let mut sp = nascent_obs::trace::span("interp", "engine");
    sp.attr("engine", engine.name());
    match engine {
        Engine::Tree => run(prog, limits),
        Engine::Vm => run_compiled(&lower(prog), limits),
        Engine::Native => run_native(prog, limits),
    }
}
