//! Compiles and runs generated C, parsing the instrumentation protocol.
//!
//! The compiler is `$CC` when set (falling back to `cc`). A compile
//! leaves no file behind: [`compile`] returns the binary as an open,
//! already unlinked file, and [`spawn`] execs it through
//! `/proc/self/fd/<n>`.
//!
//! A run is a child process whose stdout is one end of a Unix socket
//! pair. [`Running::finish`] reads the other end to EOF on the calling
//! thread, each read bounded by what is left of the run's deadline
//! (`NASCENT_CBACK_TIMEOUT_MS`, default 60 s, counted from the spawn),
//! then reaps the child: no reader thread and no polling. A child that
//! writes more than the socket buffer holds blocks until `finish`
//! reads it.

use std::fs::File;
use std::io::{ErrorKind, Read as _};
use std::os::fd::{AsRawFd as _, OwnedFd};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A trap parsed from a `T <ins> <prg> <fn> <check>` protocol line —
/// field-for-field what `nascent_interp::Trap` carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CTrap {
    /// Function in which the check fired.
    pub function: String,
    /// The check, rendered in the paper's `Check (...)` notation (the
    /// emitter bakes the interpreter's exact `Display` string into the
    /// binary, so the two tiers agree byte-for-byte).
    pub check: String,
    /// Dynamic instruction count (non-check) at the moment of the trap.
    pub at_instruction: u64,
    /// Non-check statements executed at the moment of the trap.
    pub at_progress: u64,
}

/// Result of an instrumented C run (mirrors
/// `nascent_interp::RunResult`).
#[derive(Debug, Clone, PartialEq)]
pub struct CRunResult {
    /// Dynamic non-check instructions.
    pub dynamic_instructions: u64,
    /// Non-check, non-trap statements executed (the jump-insensitive
    /// progress metric).
    pub dynamic_progress: u64,
    /// Dynamic checks performed.
    pub dynamic_checks: u64,
    /// Guard evaluations of conditional checks.
    pub dynamic_guard_ops: u64,
    /// The trap that ended the run, if any.
    pub trap: Option<CTrap>,
    /// Emitted values: integers as `("i", bits)` where bits is the value,
    /// reals as `("r", f64::to_bits)`.
    pub output: Vec<(char, u64)>,
    /// In-process wall time of the measured run(s) in nanoseconds, from
    /// the binary's own `R ns=...` line — excludes process spawn and
    /// compile. Absent when the run trapped (the trap path exits before
    /// the timing line).
    pub exec_ns: Option<u64>,
    /// How many times the program ran inside the process
    /// (`NASCENT_CBACK_REPEAT`; counters accumulate across repeats,
    /// output comes from the final repeat only, so anything but 1 is
    /// only useful for timing).
    pub repeat: u64,
}

/// A runtime error reported by the instrumented binary (`E` protocol
/// lines) — variant-for-variant what `nascent_interp::RunError` carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CRuntimeError {
    /// `E steps`: the step budget (`NASCENT_STEP_LIMIT`) was exhausted.
    StepLimit,
    /// `E depth`: call depth (`NASCENT_DEPTH_LIMIT`) exceeded.
    CallDepth,
    /// `E div <fn>`: integer division or remainder by zero.
    DivisionByZero { function: String },
    /// `E oob <fn> <array> <dim> <index> <lo> <hi>`: an access went
    /// outside the declared bounds without a check trapping first.
    OutOfBounds {
        function: String,
        array: String,
        dim: usize,
        index: i64,
        lo: i64,
        hi: i64,
    },
    /// `E bad <fn> <array>`: an array was declared with negative extent.
    BadBounds { function: String, array: String },
}

/// Failure to build or run the generated C.
#[derive(Debug)]
pub enum CRunError {
    /// I/O problem writing or invoking.
    Io(std::io::Error),
    /// The C compiler rejected the generated code; `compiler` names the
    /// binary that ran (`$CC` or `cc`) and `stderr` is its full output.
    CompileFailed { compiler: String, stderr: String },
    /// The binary ran longer than the configured timeout and was killed.
    Timeout { limit: Duration },
    /// The binary exited abnormally without reporting a runtime error.
    RunFailed { code: Option<i32>, stdout: String },
    /// The binary reported a runtime error (`E` line).
    Runtime(CRuntimeError),
    /// The protocol output could not be parsed.
    BadProtocol(String),
}

impl std::fmt::Display for CRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CRunError::Io(e) => write!(f, "io: {e}"),
            CRunError::CompileFailed { compiler, stderr } => {
                write!(f, "`{compiler}` failed: {stderr}")
            }
            CRunError::Timeout { limit } => {
                write!(f, "binary killed after {} ms timeout", limit.as_millis())
            }
            CRunError::RunFailed { code, .. } => write!(f, "binary failed with {code:?}"),
            CRunError::Runtime(e) => write!(f, "runtime error: {e:?}"),
            CRunError::BadProtocol(l) => write!(f, "bad protocol line: {l}"),
        }
    }
}

impl std::error::Error for CRunError {}

impl From<std::io::Error> for CRunError {
    fn from(e: std::io::Error) -> Self {
        CRunError::Io(e)
    }
}

/// The C compiler to invoke: `$CC` when set and non-empty, else `cc`.
pub(crate) fn cc_command() -> String {
    std::env::var("CC")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "cc".to_string())
}

/// Run timeout: `NASCENT_CBACK_TIMEOUT_MS` when set, else 60 s.
pub(crate) fn run_timeout() -> Duration {
    std::env::var("NASCENT_CBACK_TIMEOUT_MS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_secs(60))
}

/// A compile's two files, unlinked however the compile ends.
struct Unlink([PathBuf; 2]);

impl Drop for Unlink {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Writes `c_source` to `<exe>.c`, compiles it (with `-O2 -fwrapv`) to
/// `exe`, and returns the binary opened read-only. Both files are
/// unlinked before this returns, so the open file is the binary's only
/// reference: [`spawn`] execs it through `/proc/self/fd`, and closing
/// the last handle frees it.
pub(crate) fn compile(c_source: &str, exe: &Path) -> Result<File, CRunError> {
    let mut source = exe.as_os_str().to_owned();
    source.push(".c");
    let files = Unlink([exe.to_path_buf(), source.into()]);
    let [exe, source] = &files.0;
    std::fs::write(source, c_source)?;
    let compiler = cc_command();
    let cc = Command::new(&compiler)
        .arg("-O2")
        .arg("-fwrapv")
        .arg("-o")
        .arg(exe)
        .arg(source)
        .arg("-lm")
        .output()?;
    if !cc.status.success() {
        return Err(CRunError::CompileFailed {
            compiler,
            stderr: String::from_utf8_lossy(&cc.stderr).into_owned(),
        });
    }
    Ok(File::open(exe)?)
}

/// A spawned binary: the child, whose stdout is the other end of
/// `stdout`, and the deadline its run must end by. Dropping an
/// unfinished run kills and reaps the child.
#[derive(Debug)]
pub(crate) struct Running {
    child: Child,
    stdout: UnixStream,
    deadline: Instant,
    limit: Duration,
}

/// Spawns the compiled binary `exe` with the given extra environment.
/// Its run may last `limit` from the spawn.
pub(crate) fn spawn(
    exe: &File,
    envs: &[(&str, String)],
    limit: Duration,
) -> Result<Running, CRunError> {
    let (stdout, theirs) = UnixStream::pair()?;
    // the `Command` is a temporary: it drops, closing this process's copy
    // of the child's end, before the first read, so EOF means the child
    // closed its stdout
    let child = Command::new(format!("/proc/self/fd/{}", exe.as_raw_fd()))
        .envs(envs.iter().map(|(k, v)| (k, v)))
        .stdin(Stdio::null())
        .stdout(OwnedFd::from(theirs))
        .stderr(Stdio::null())
        .spawn()?;
    Ok(Running {
        child,
        stdout,
        deadline: Instant::now() + limit,
        limit,
    })
}

impl Running {
    /// Reads the child's output to EOF, reaps it and parses the protocol.
    /// A child still running at its deadline is killed and reported as
    /// [`CRunError::Timeout`]; one that exited before it is not, however
    /// late this is called.
    pub(crate) fn finish(mut self) -> Result<CRunResult, CRunError> {
        let mut out = Vec::new();
        let mut chunk = [0u8; 8192];
        loop {
            let left = self.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() && self.child.try_wait()?.is_none() {
                // dropping `self` kills and reaps the child
                return Err(CRunError::Timeout { limit: self.limit });
            }
            // past the deadline the child has exited, so every byte it
            // wrote is buffered and no read can block
            self.stdout
                .set_read_timeout((!left.is_zero()).then_some(left))?;
            match self.stdout.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e.into()),
            }
        }
        let status = self.child.wait()?;
        let stdout = String::from_utf8_lossy(&out).into_owned();
        match parse_protocol(&stdout) {
            // a reported runtime error wins over the generic nonzero-exit story
            Err(CRunError::Runtime(e)) => Err(CRunError::Runtime(e)),
            _ if !status.success() => Err(CRunError::RunFailed {
                code: status.code(),
                stdout,
            }),
            other => other,
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        // `try_wait` answers from its cache once the child is reaped
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn bad(line: &str) -> CRunError {
    CRunError::BadProtocol(line.into())
}

fn parse_protocol(stdout: &str) -> Result<CRunResult, CRunError> {
    let mut result = CRunResult {
        dynamic_instructions: 0,
        dynamic_progress: 0,
        dynamic_checks: 0,
        dynamic_guard_ops: 0,
        trap: None,
        output: Vec::new(),
        exec_ns: None,
        repeat: 1,
    };
    let mut saw_counters = false;
    for line in stdout.lines() {
        match line.split(' ').next() {
            Some("O") => {
                let mut parts = line.splitn(3, ' ');
                parts.next();
                let kind = parts.next().ok_or_else(|| bad(line))?;
                let val = parts.next().ok_or_else(|| bad(line))?;
                match kind {
                    "i" => {
                        let v: i64 = val.parse().map_err(|_| bad(line))?;
                        result.output.push(('i', v as u64));
                    }
                    "r" => {
                        let v: f64 = val.parse().map_err(|_| bad(line))?;
                        result.output.push(('r', v.to_bits()));
                    }
                    _ => return Err(bad(line)),
                }
            }
            Some("T") => {
                // T <ins> <prg> <fn> <check...>
                let mut parts = line.splitn(5, ' ');
                parts.next();
                let ins = parts.next().ok_or_else(|| bad(line))?;
                let prg = parts.next().ok_or_else(|| bad(line))?;
                let function = parts.next().ok_or_else(|| bad(line))?.to_string();
                let check = parts.next().unwrap_or("").to_string();
                result.trap = Some(CTrap {
                    function,
                    check,
                    at_instruction: ins.parse().map_err(|_| bad(line))?,
                    at_progress: prg.parse().map_err(|_| bad(line))?,
                });
            }
            Some("C") => {
                let rest = line[2..].trim();
                for field in rest.split_whitespace() {
                    let (key, val) = field.split_once('=').ok_or_else(|| bad(line))?;
                    let v: u64 = val.parse().map_err(|_| bad(line))?;
                    match key {
                        "ins" => result.dynamic_instructions = v,
                        "chk" => result.dynamic_checks = v,
                        "grd" => result.dynamic_guard_ops = v,
                        "prg" => result.dynamic_progress = v,
                        _ => return Err(bad(line)),
                    }
                }
                saw_counters = true;
            }
            Some("R") => {
                for field in line[2..].split_whitespace() {
                    let (key, val) = field.split_once('=').ok_or_else(|| bad(line))?;
                    let v: u64 = val.parse().map_err(|_| bad(line))?;
                    match key {
                        "ns" => result.exec_ns = Some(v),
                        "repeat" => result.repeat = v,
                        _ => return Err(bad(line)),
                    }
                }
            }
            Some("E") => {
                let parts: Vec<&str> = line.split(' ').collect();
                let err = match parts.get(1).copied() {
                    Some("steps") => CRuntimeError::StepLimit,
                    Some("depth") => CRuntimeError::CallDepth,
                    Some("div") => CRuntimeError::DivisionByZero {
                        function: parts.get(2).ok_or_else(|| bad(line))?.to_string(),
                    },
                    Some("oob") => {
                        if parts.len() != 8 {
                            return Err(bad(line));
                        }
                        CRuntimeError::OutOfBounds {
                            function: parts[2].to_string(),
                            array: parts[3].to_string(),
                            dim: parts[4].parse().map_err(|_| bad(line))?,
                            index: parts[5].parse().map_err(|_| bad(line))?,
                            lo: parts[6].parse().map_err(|_| bad(line))?,
                            hi: parts[7].parse().map_err(|_| bad(line))?,
                        }
                    }
                    Some("bad") => CRuntimeError::BadBounds {
                        function: parts.get(2).ok_or_else(|| bad(line))?.to_string(),
                        array: parts.get(3).ok_or_else(|| bad(line))?.to_string(),
                    },
                    _ => return Err(bad(line)),
                };
                return Err(CRunError::Runtime(err));
            }
            _ => return Err(bad(line)),
        }
    }
    if !saw_counters {
        return Err(CRunError::BadProtocol("missing counter line".into()));
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_ir::{Expr, FunctionBuilder, Program, Stmt, Terminator, Ty};

    /// `prog` compiled to an open binary, or `None` when the host has no
    /// C compiler.
    fn binary(prog: &Program, name: &str) -> Option<File> {
        if !crate::cc_available() {
            eprintln!("skipping: no C compiler for the native tier ($CC / cc)");
            return None;
        }
        let exe = std::env::temp_dir().join(format!(
            "nascent-native-{}-runner-{name}",
            std::process::id()
        ));
        Some(compile(&crate::emit_c(prog), &exe).expect("compiles"))
    }

    /// A program whose entry block jumps to itself.
    fn looping() -> Program {
        let mut b = FunctionBuilder::new("main");
        let entry = b.entry();
        b.jump(entry, entry);
        Program::single(b.finish())
    }

    /// A program that prints `1..=n`.
    fn counts_to(n: i64) -> Program {
        let mut b = FunctionBuilder::new("main");
        let i = b.var("i", Ty::Int);
        let entry = b.entry();
        let exit = b.counted_loop(entry, i, Expr::int(1), Expr::int(n), |b, body| {
            b.push(body, Stmt::Emit(Expr::var(i)));
            body
        });
        b.terminate(exit, Terminator::Return);
        Program::single(b.finish())
    }

    fn proc_entry(pid: u32) -> std::path::PathBuf {
        std::path::PathBuf::from(format!("/proc/{pid}"))
    }

    #[test]
    fn a_looping_binary_times_out_and_is_reaped() {
        let Some(exe) = binary(&looping(), "loop") else {
            return;
        };
        let limit = Duration::from_millis(50);
        let t0 = Instant::now();
        let run = spawn(&exe, &[], limit).expect("spawns");
        let pid = run.child.id();
        let r = run.finish();
        assert!(
            matches!(r, Err(CRunError::Timeout { limit: l }) if l == limit),
            "{r:?}"
        );
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        assert!(!proc_entry(pid).exists(), "child {pid} left behind");
    }

    #[test]
    fn a_run_collected_after_its_deadline_returns_what_its_exited_child_wrote() {
        let Some(exe) = binary(&counts_to(3), "late") else {
            return;
        };
        let limit = Duration::from_millis(200);
        let run = spawn(&exe, &[], limit).expect("spawns");
        // wait until the child is a zombie, then past its deadline
        let stat = proc_entry(run.child.id()).join("stat");
        let t0 = Instant::now();
        while !std::fs::read_to_string(&stat)
            .expect("unreaped child has a stat")
            .rsplit_once(") ")
            .is_some_and(|(_, rest)| rest.starts_with('Z'))
        {
            assert!(t0.elapsed() < Duration::from_secs(10), "child never exits");
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(limit);
        assert!(Instant::now() > run.deadline);
        let r = run.finish().expect("an exited child is no timeout");
        assert_eq!(r.output, [('i', 1), ('i', 2), ('i', 3)]);
    }

    #[test]
    fn dropping_an_unfinished_run_kills_and_reaps_its_child() {
        let Some(exe) = binary(&looping(), "drop") else {
            return;
        };
        let run = spawn(&exe, &[], Duration::from_secs(60)).expect("spawns");
        let pid = run.child.id();
        assert!(proc_entry(pid).exists());
        drop(run);
        assert!(!proc_entry(pid).exists(), "child {pid} left behind");
    }

    #[test]
    fn output_beyond_the_socket_buffer_waits_for_the_reader() {
        const N: i64 = 200_000;
        let Some(exe) = binary(&counts_to(N), "big") else {
            return;
        };
        let run = spawn(&exe, &[], Duration::from_secs(60)).expect("spawns");
        // the child fills the socket buffer and blocks until `finish` reads
        std::thread::sleep(Duration::from_millis(50));
        let r = run.finish().expect("runs");
        assert_eq!(r.output.len(), N as usize);
        assert_eq!(r.output.last(), Some(&('i', N as u64)));
    }

    #[test]
    fn protocol_parses() {
        let r = parse_protocol(
            "O i 42\nO r 1.5\nT 100 37 demo Check (i <= 5)\nC ins=100 chk=7 grd=2 prg=37\n",
        )
        .unwrap();
        assert_eq!(r.dynamic_instructions, 100);
        assert_eq!(r.dynamic_checks, 7);
        assert_eq!(r.dynamic_guard_ops, 2);
        assert_eq!(r.dynamic_progress, 37);
        let trap = r.trap.expect("trap parsed");
        assert_eq!(trap.function, "demo");
        assert_eq!(trap.check, "Check (i <= 5)");
        assert_eq!(trap.at_instruction, 100);
        assert_eq!(trap.at_progress, 37);
        assert_eq!(r.output.len(), 2);
        assert_eq!(r.output[0], ('i', 42));
        assert_eq!(r.output[1], ('r', 1.5f64.to_bits()));
        assert_eq!(r.exec_ns, None);
    }

    #[test]
    fn timing_line_parses() {
        let r = parse_protocol("R ns=12345 repeat=10\nC ins=1 chk=0 grd=0 prg=1\n").unwrap();
        assert_eq!(r.exec_ns, Some(12345));
        assert_eq!(r.repeat, 10);
    }

    #[test]
    fn runtime_errors_parse() {
        match parse_protocol("E div main\n") {
            Err(CRunError::Runtime(CRuntimeError::DivisionByZero { function })) => {
                assert_eq!(function, "main");
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_protocol("E oob main a 1 7 1 5\n") {
            Err(CRunError::Runtime(CRuntimeError::OutOfBounds {
                function,
                array,
                dim,
                index,
                lo,
                hi,
            })) => {
                assert_eq!((function.as_str(), array.as_str()), ("main", "a"));
                assert_eq!((dim, index, lo, hi), (1, 7, 1, 5));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_protocol("E steps\n"),
            Err(CRunError::Runtime(CRuntimeError::StepLimit))
        ));
        assert!(matches!(
            parse_protocol("E depth\n"),
            Err(CRunError::Runtime(CRuntimeError::CallDepth))
        ));
        assert!(matches!(
            parse_protocol("E bad main a\n"),
            Err(CRunError::Runtime(CRuntimeError::BadBounds { .. }))
        ));
    }

    #[test]
    fn missing_counters_is_error() {
        assert!(parse_protocol("O i 1\n").is_err());
        assert!(parse_protocol("garbage\n").is_err());
    }
}
