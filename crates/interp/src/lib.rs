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

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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
/// [`wait`](StartedRun::wait). The tree runs to completion inside
/// `start_with_engine`. A VM run waits in the helper pool's queue, or
/// runs inline on a host with one CPU. A native run is a child process
/// until `wait` reads it. Dropping a run unwaited cancels a queued VM
/// run and kills and reaps a native child.
#[derive(Debug)]
pub struct StartedRun(Started);

#[derive(Debug)]
enum Started {
    Finished(RunResult),
    Queued(QueuedRun),
    Native(nascent_cback::native::NativeRun),
}

impl StartedRun {
    /// Whether [`wait`](Self::wait) still has work to collect: a queued
    /// VM run or a native child process.
    pub fn is_pending(&self) -> bool {
        !matches!(self.0, Started::Finished(_))
    }

    /// The run's result: at once for the tree and an inline VM run; for
    /// a queued VM run, run here if no helper has started it (the run is
    /// taken back), else when the helper finishes it; for a native run,
    /// when the child exits (or its deadline kills it).
    ///
    /// # Errors
    ///
    /// The run's [`RunError`], for a native run everything
    /// [`start_with_engine`] did not already report.
    ///
    /// # Panics
    ///
    /// Resumes a panic of the run on a helper thread.
    pub fn wait(self) -> Result<RunResult, RunError> {
        match self.0 {
            Started::Finished(r) => Ok(r),
            Started::Queued(job) => {
                let _sp = engine_span(Engine::Vm);
                job.wait()
            }
            Started::Native(child) => {
                let _sp = engine_span(Engine::Native);
                native::finish(child)
            }
        }
    }
}

/// The `interp`/`engine` span around starting or collecting a run.
fn engine_span(engine: Engine) -> nascent_obs::trace::Span {
    let mut sp = nascent_obs::trace::span("interp", "engine");
    sp.attr("engine", engine.name());
    sp
}

/// Starts `prog` under the selected [`Engine`].
///
/// The tree runs [`run`] to completion before this returns. The VM
/// lowers the program with [`lower`] here and queues its run of
/// [`run_compiled`] for the process-wide helper pool: one thread per
/// CPU but one, started on first use. [`StartedRun::wait`] takes the
/// run back if no helper has started it. A host with one CPU has no
/// helper, and its VM runs inline. [`Engine::Native`] returns as soon as
/// the child process is spawned, so the caller can work while the
/// binary runs; its compiled binary is cached process-wide by content
/// hash, so re-runs just exec.
///
/// # Errors
///
/// The tree's [`RunError`], and an inline VM run's; for a native run, a
/// failure to emit, compile or spawn. The run's own errors come from
/// [`StartedRun::wait`].
pub fn start_with_engine(
    prog: &nascent_ir::Program,
    limits: &Limits,
    engine: Engine,
) -> Result<StartedRun, RunError> {
    start(prog, limits, engine, true)
}

/// Runs `prog` under the selected [`Engine`]: [`start_with_engine`],
/// then [`StartedRun::wait`], except that the VM always runs on the
/// calling thread, never through the helper pool (a run waited for at
/// once would only gain a wake-up). Callers that execute the same
/// program many times on the VM should lower once and call
/// [`run_compiled`] directly to amortize the lowering cost.
///
/// # Errors
///
/// The run's [`RunError`].
pub fn run_with_engine(
    prog: &nascent_ir::Program,
    limits: &Limits,
    engine: Engine,
) -> Result<RunResult, RunError> {
    start(prog, limits, engine, false)?.wait()
}

/// [`start_with_engine`]; a VM run goes to the helper pool only when
/// `queue` holds.
fn start(
    prog: &nascent_ir::Program,
    limits: &Limits,
    engine: Engine,
    queue: bool,
) -> Result<StartedRun, RunError> {
    let _sp = engine_span(engine);
    Ok(StartedRun(match engine {
        Engine::Tree => Started::Finished(run(prog, limits)?),
        Engine::Vm if queue => {
            let (compiled, limits) = (lower(prog), *limits);
            match QueuedRun::push(Box::new(move || run_compiled(&compiled, &limits))) {
                Ok(job) => Started::Queued(job),
                Err(work) => Started::Finished(work()?),
            }
        }
        Engine::Vm => Started::Finished(run_compiled(&lower(prog), limits)?),
        Engine::Native => Started::Native(native::start(prog, limits)?),
    }))
}

/// A run handed to the helper pool: it owns everything it reads.
type Work = Box<dyn FnOnce() -> Result<RunResult, RunError> + Send>;

/// Stack of a helper thread: room for a run to the call-depth limit in
/// an unoptimized build, where dispatch frames are large.
const HELPER_STACK: usize = 32 << 20;

/// The helper pool's queue, oldest first. It may still hold jobs that
/// were taken back or cancelled; a helper skips them.
static QUEUE: Mutex<VecDeque<Arc<Job>>> = Mutex::new(VecDeque::new());

/// Signalled when a job joins [`QUEUE`].
static QUEUED: Condvar = Condvar::new();

/// The number of helper threads, started by the first call: one per
/// CPU but one (`available_parallelism`), fewer if the host refuses a
/// thread, none on a host with one CPU.
fn helpers() -> usize {
    static HELPERS: OnceLock<usize> = OnceLock::new();
    *HELPERS.get_or_init(|| {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        (1..cpus)
            .filter(|i| {
                std::thread::Builder::new()
                    .name(format!("nascent-vm-{i}"))
                    .stack_size(HELPER_STACK)
                    .spawn(serve)
                    .is_ok()
            })
            .count()
    })
}

/// A helper thread: runs queued jobs, oldest first, for the life of the
/// process (nothing joins it). A panic in a job is caught and handed to
/// its waiter, so none ends the thread.
fn serve() {
    loop {
        let job = {
            let mut queue = lock(&QUEUE);
            loop {
                match queue.pop_front() {
                    Some(job) => break job,
                    None => queue = QUEUED.wait(queue).unwrap_or_else(PoisonError::into_inner),
                }
            }
        };
        if let Some(work) = job.take(JobState::Running) {
            let result = catch_unwind(AssertUnwindSafe(work));
            *lock(&job.state) = JobState::Done(result);
            job.done.notify_one();
        }
    }
}

/// Locks the queue or a job's state. Every update of either is one
/// `push_back`, `pop_front` or whole-value replacement, and no job runs
/// under the lock, so a poisoned lock still guards valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One job of the pool, shared by the queue and its waiter.
struct Job {
    state: Mutex<JobState>,
    /// Signalled when a helper stores the result.
    done: Condvar,
}

enum JobState {
    /// In the queue: a helper or the waiter may take it.
    Queued(Work),
    /// A helper is running it.
    Running,
    /// A helper finished it; a panic is kept as its payload.
    Done(std::thread::Result<Result<RunResult, RunError>>),
    /// Taken back by the waiter, collected, or cancelled.
    Gone,
}

impl Job {
    /// Takes the work of a job still queued, leaving `next` in its
    /// place; `None` if someone took it first.
    fn take(&self, next: JobState) -> Option<Work> {
        let mut state = lock(&self.state);
        if !matches!(*state, JobState::Queued(_)) {
            return None;
        }
        match std::mem::replace(&mut *state, next) {
            JobState::Queued(work) => Some(work),
            _ => unreachable!("checked above"),
        }
    }
}

/// A waiter's handle on a queued job. Dropping it unwaited cancels the
/// job if no helper has started it.
struct QueuedRun(Arc<Job>);

impl QueuedRun {
    /// Queues `work` for the helpers; gives it back when there are none.
    fn push(work: Work) -> Result<QueuedRun, Work> {
        if helpers() == 0 {
            return Err(work);
        }
        let job = Arc::new(Job {
            state: Mutex::new(JobState::Queued(work)),
            done: Condvar::new(),
        });
        lock(&QUEUE).push_back(Arc::clone(&job));
        QUEUED.notify_one();
        Ok(QueuedRun(job))
    }

    /// Runs the job here if no helper has started it, else waits for
    /// the helper's result and resumes its panic.
    fn wait(self) -> Result<RunResult, RunError> {
        if let Some(work) = self.0.take(JobState::Gone) {
            return work();
        }
        let mut state = lock(&self.0.state);
        while matches!(*state, JobState::Running) {
            state = self
                .0
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let done = std::mem::replace(&mut *state, JobState::Gone);
        drop(state);
        match done {
            JobState::Done(Ok(result)) => result,
            JobState::Done(Err(panic)) => resume_unwind(panic),
            _ => unreachable!("only the waiter collects a finished job"),
        }
    }
}

impl Drop for QueuedRun {
    fn drop(&mut self) {
        drop(self.0.take(JobState::Gone));
    }
}

impl std::fmt::Debug for QueuedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("QueuedRun")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    /// Serializes the tests that hold the helpers, so that each one
    /// knows what the queue holds.
    static HOLDING: Mutex<()> = Mutex::new(());

    /// Every helper running a job that waits at `gate` until released.
    struct Held {
        gate: Arc<Barrier>,
        jobs: Vec<QueuedRun>,
    }

    impl Held {
        /// Returns once every helper (if any) is running one of its
        /// jobs; the queue is then empty.
        fn all() -> Held {
            let gate = Arc::new(Barrier::new(helpers() + 1));
            let jobs = (0..helpers())
                .map(|_| {
                    let gate = Arc::clone(&gate);
                    push(move || {
                        gate.wait(); // running
                        gate.wait(); // released
                        Err(RunError::StepLimit)
                    })
                })
                .collect();
            gate.wait();
            Held { gate, jobs }
        }

        fn release(self) {
            self.gate.wait();
            for job in self.jobs {
                assert_eq!(job.wait(), Err(RunError::StepLimit));
            }
        }
    }

    fn push(work: impl FnOnce() -> Result<RunResult, RunError> + Send + 'static) -> QueuedRun {
        QueuedRun::push(Box::new(work)).unwrap_or_else(|_| panic!("no helper"))
    }

    fn queued() -> usize {
        lock(&QUEUE).len()
    }

    /// Waits until a helper has finished `job`.
    fn finished(job: &QueuedRun) {
        let mut state = lock(&job.0.state);
        while !matches!(*state, JobState::Done(_)) {
            state = job.0.done.wait(state).expect("no panic under the lock");
        }
    }

    fn small_suite() -> Vec<nascent_ir::Program> {
        nascent_suite::suite(nascent_suite::Scale::Small)
            .iter()
            .map(|b| nascent_frontend::compile(&b.source).expect("compiles"))
            .collect()
    }

    #[test]
    fn a_taken_back_run_and_a_helpers_run_equal_run_compiled() {
        let _serial = lock(&HOLDING);
        let limits = Limits::default();
        for prog in small_suite() {
            let expected = run_compiled(&lower(&prog), &limits);
            // every helper busy: `wait` takes the run back
            let held = Held::all();
            let started = start_with_engine(&prog, &limits, Engine::Vm).expect("starts");
            assert_eq!(started.is_pending(), helpers() > 0);
            assert_eq!(started.wait(), expected);
            held.release();
            // a free helper: it runs the job before `wait` is called
            let started = start_with_engine(&prog, &limits, Engine::Vm).expect("starts");
            if let Started::Queued(job) = &started.0 {
                finished(job);
            }
            assert_eq!(started.wait(), expected);
        }
    }

    #[test]
    fn a_panic_on_a_helper_resumes_on_the_waiting_thread() {
        if helpers() == 0 {
            return;
        }
        let _serial = lock(&HOLDING);
        let job = push(|| {
            let name = std::thread::current().name().map(str::to_owned);
            panic!("boom on {}", name.unwrap_or_default())
        });
        finished(&job);
        let payload = catch_unwind(AssertUnwindSafe(|| job.wait())).expect_err("resumed");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.starts_with("boom on nascent-vm-"), "{message}");
        // the helper keeps serving
        let next = push(|| Err(RunError::CallDepth));
        finished(&next);
        assert_eq!(next.wait(), Err(RunError::CallDepth));
    }

    #[test]
    fn a_dropped_queued_run_never_runs() {
        if helpers() == 0 {
            return;
        }
        let _serial = lock(&HOLDING);
        let held = Held::all();
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let job = push(move || {
            flag.store(true, Ordering::SeqCst);
            Err(RunError::StepLimit)
        });
        assert_eq!(queued(), 1);
        drop(job);
        // the work, and all it owns, is gone at once
        assert_eq!(Arc::strong_count(&ran), 1);
        held.release();
        // a later job runs on a helper, past the cancelled one
        let next = push(|| Err(RunError::CallDepth));
        finished(&next);
        assert_eq!(next.wait(), Err(RunError::CallDepth));
        assert!(!ran.load(Ordering::SeqCst));
    }

    #[test]
    fn the_vms_run_with_engine_never_queues() {
        let _serial = lock(&HOLDING);
        let prog = &small_suite()[0];
        let limits = Limits::default();
        let expected = run_compiled(&lower(prog), &limits);
        let held = Held::all();
        assert_eq!(queued(), 0);
        assert_eq!(run_with_engine(prog, &limits, Engine::Vm), expected);
        assert_eq!(queued(), 0);
        // while `start_with_engine` queues whenever there is a helper
        let started = start_with_engine(prog, &limits, Engine::Vm).expect("starts");
        assert_eq!(queued(), usize::from(helpers() > 0));
        assert_eq!(started.wait(), expected);
        held.release();
    }
}
