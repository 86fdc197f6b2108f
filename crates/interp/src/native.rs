//! The native execution tier: run via `nascent-cback`'s compiled,
//! cached, instrumented-C binaries and convert the parsed protocol back
//! into the interpreter's [`RunResult`] / [`RunError`] types.
//!
//! The emitted protocol carries everything the interpreter reports —
//! counters (instructions, progress, checks, guard ops), outputs, the
//! full trap record (function, check string, instruction and progress
//! position), and structured runtime errors — so the conversion here is
//! field-for-field, and the three engines are bit-comparable.

use nascent_cback::native::NativeRun;
use nascent_cback::{CRunError, CRunResult, CRuntimeError};
use nascent_ir::Program;

use crate::machine::{Limits, RunError, RunResult, Trap, Value};

/// Starts `prog` on the native tier: emitted to instrumented C, compiled
/// through the process-wide content-hash compile cache
/// ([`nascent_cback::native::global`]), and spawned as a child process
/// with the limits passed in the environment.
pub(crate) fn start(prog: &Program, limits: &Limits) -> Result<NativeRun, RunError> {
    nascent_cback::native::global()
        .start(prog, limits.max_steps, limits.max_call_depth as u64)
        .map_err(run_error)
}

/// Collects a run [`start`] spawned.
pub(crate) fn finish(run: NativeRun) -> Result<RunResult, RunError> {
    run.finish().map(convert).map_err(run_error)
}

/// Program-semantics failures map onto the interpreter's own
/// [`RunError`] variants; infrastructure failures (no C compiler,
/// compile rejection, timeout, protocol corruption) surface as
/// [`RunError::NativeBackend`].
fn run_error(e: CRunError) -> RunError {
    match e {
        CRunError::Runtime(e) => match e {
            CRuntimeError::StepLimit => RunError::StepLimit,
            CRuntimeError::CallDepth => RunError::CallDepth,
            CRuntimeError::DivisionByZero { function } => RunError::DivisionByZero { function },
            CRuntimeError::OutOfBounds {
                function,
                array,
                dim,
                index,
                lo,
                hi,
            } => RunError::UndetectedViolation {
                function,
                array,
                dim,
                index,
                lo,
                hi,
            },
            CRuntimeError::BadBounds { function, array } => RunError::BadBounds { function, array },
        },
        other => RunError::NativeBackend(other.to_string()),
    }
}

fn convert(c: CRunResult) -> RunResult {
    RunResult {
        dynamic_instructions: c.dynamic_instructions,
        dynamic_progress: c.dynamic_progress,
        dynamic_checks: c.dynamic_checks,
        dynamic_guard_ops: c.dynamic_guard_ops,
        trap: c.trap.map(|t| Trap {
            function: t.function,
            check: t.check,
            at_instruction: t.at_instruction,
            at_progress: t.at_progress,
        }),
        output: c
            .output
            .into_iter()
            .map(|(kind, bits)| match kind {
                'i' => Value::Int(bits as i64),
                _ => Value::Real(f64::from_bits(bits)),
            })
            .collect(),
    }
}
