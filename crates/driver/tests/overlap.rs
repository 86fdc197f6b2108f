//! `compute` starts the naive run right after parsing and collects it
//! just before the validation: a native naive binary, and a VM run on a
//! helper thread, run while the optimizer and the optimized run work.
//! On a host with one CPU the VM has no helper and finishes inside the
//! first `naive-run` stage. A certified VM request whose naive run was
//! queued queues its optimized run too, before `certify`, and collects
//! it after. Errors keep their order, and stage times never count a
//! nanosecond twice.

use nascent_driver::{
    compute, evaluate, harness::harness_limits, Mode, PipelineError, Request, RunConfig,
};
use nascent_interp::{Engine, Limits};
use nascent_obs::trace::{validate_nesting, ScopedCollector, SpanRecord};

const LOOP: &str = "program p
 integer a(1:100)
 integer i, n
 n = 100
 do i = 1, n
  a(i) = 2 * i
 enddo
 print a(n)
end
";

const TRAPS: &str = "program p
 integer a(1:5)
 integer i
 do i = 1, 9
  a(i) = i
 enddo
 print a(1)
end
";

/// A loop whose naive run lasts milliseconds (200 000 iterations), far
/// longer than optimizing and certifying it take.
const LONG: &str = "program p
 integer a(1:1000)
 integer i, j
 do j = 1, 200
  do i = 1, 1000
   a(i) = a(i) + j
  enddo
 enddo
 print a(1000)
end
";

fn request(program: &str, engine: Engine) -> Request {
    Request {
        program: program.into(),
        config: RunConfig {
            engine,
            ..RunConfig::default()
        },
        mode: Mode::Certify,
    }
}

fn no_compiler() -> bool {
    let missing = !nascent_cback::cc_available();
    if missing {
        eprintln!("skipping: no C compiler for the native tier ($CC / cc)");
    }
    missing
}

/// The `stage` spans below the root `pipeline` span, in start order.
fn stages(spans: &[SpanRecord]) -> Vec<&SpanRecord> {
    let mut stages: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.cat == "stage" && s.name != "pipeline")
        .collect();
    stages.sort_by_key(|s| s.ts_ns);
    stages
}

fn names<'a>(stages: &[&'a SpanRecord]) -> Vec<&'a str> {
    stages.iter().map(|s| s.name).collect()
}

/// The summed duration of the stage spans called `name`.
fn total(stages: &[&SpanRecord], name: &str) -> u64 {
    stages
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns)
        .sum()
}

/// Whether the optimized run was queued: an `execute` stage comes
/// before `certify`.
fn queued(stages: &[&SpanRecord]) -> bool {
    names(stages).get(3) == Some(&"execute")
}

fn has_helper() -> bool {
    std::thread::available_parallelism().map_or(1, |n| n.get()) > 1
}

#[test]
fn a_traced_native_request_collects_its_naive_run_after_execute() {
    if no_compiler() {
        return;
    }
    let collector = ScopedCollector::begin();
    let out = compute(&request(LOOP, Engine::Native), &harness_limits()).expect("runs");
    let spans = collector.finish();
    validate_nesting(&spans).expect("spans nest");
    let stages = stages(&spans);
    assert_eq!(
        names(&stages),
        [
            "parse",
            "naive-run",
            "optimize",
            "certify",
            "execute",
            "naive-run"
        ]
    );
    // the naive-run stage is the caller's starting and collecting only
    assert_eq!(out.stages.naive_run_ns, total(&stages, "naive-run"));
    let root = spans.iter().find(|s| s.name == "pipeline").expect("root");
    assert!(out.stages.total_ns() <= root.dur_ns);
    // the binary is spawned in the first and collected in the second
    let execs_inside = |stage: &SpanRecord| {
        spans
            .iter()
            .filter(|s| {
                s.cat == "native"
                    && s.name == "exec"
                    && s.ts_ns >= stage.ts_ns
                    && s.ts_ns + s.dur_ns <= stage.ts_ns + stage.dur_ns
            })
            .count()
    };
    assert_eq!(execs_inside(stages[1]), 1);
    assert_eq!(execs_inside(stages[5]), 1);
    let vm = compute(&request(LOOP, Engine::Vm), &harness_limits()).expect("runs");
    assert_eq!(out.counters, vm.counters);
}

#[test]
fn a_vm_request_collects_its_naive_run_after_execute() {
    let collector = ScopedCollector::begin();
    let out = compute(&request(LOOP, Engine::Vm), &harness_limits()).expect("runs");
    let spans = collector.finish();
    validate_nesting(&spans).expect("spans nest");
    let stages = stages(&spans);
    let helper = has_helper();
    let mut expected = vec!["parse", "naive-run", "optimize"];
    if helper {
        // the optimized run is queued before `certify` too
        expected.push("execute");
    }
    expected.extend(["certify", "execute"]);
    if helper {
        expected.push("naive-run");
    }
    assert_eq!(names(&stages), expected);
    // the run stages are the caller's starting and collecting only
    assert_eq!(out.stages.naive_run_ns, total(&stages, "naive-run"));
    assert_eq!(out.stages.execute_ns, total(&stages, "execute"));
    let root = spans.iter().find(|s| s.name == "pipeline").expect("root");
    assert!(out.stages.total_ns() <= root.dur_ns);
    let tree = compute(&request(LOOP, Engine::Tree), &harness_limits()).expect("runs");
    assert_eq!(out.counters, tree.counters);
}

#[test]
fn a_queued_optimized_run_gives_the_bytes_of_evaluate() {
    let limits = harness_limits();
    // LOOP's naive run ends within microseconds, so a free helper can
    // run the optimized run beside `certify`; LONG's keeps its helper
    // busy through `certify`, so the optimized run waits for another
    // helper or the collection takes it back.
    for program in [LOOP, LONG] {
        let req = request(program, Engine::Vm);
        let prog = nascent_frontend::compile(program).expect("compiles");
        let naive = nascent_interp::run_with_engine(&prog, &limits, Engine::Vm).expect("runs");
        let expected = evaluate(prog, &naive, &req.config, req.mode, &limits)
            .expect("validates")
            .deterministic_json()
            .render();
        let collector = ScopedCollector::begin();
        let out = compute(&req, &limits).expect("runs");
        let spans = collector.finish();
        validate_nesting(&spans).expect("spans nest");
        let stages = stages(&spans);
        assert_eq!(queued(&stages), has_helper());
        assert_eq!(out.deterministic_json().render(), expected);
        assert_eq!(out.stages.execute_ns, total(&stages, "execute"));
        assert_eq!(out.stages.naive_run_ns, total(&stages, "naive-run"));
    }
}

#[test]
fn a_native_naive_run_over_the_step_limit_fails_as_on_the_vm() {
    if no_compiler() {
        return;
    }
    let limits = Limits {
        max_steps: 50,
        ..harness_limits()
    };
    let vm = compute(&request(LOOP, Engine::Vm), &limits).unwrap_err();
    let native = compute(&request(LOOP, Engine::Native), &limits).unwrap_err();
    assert_eq!(
        vm,
        PipelineError::Run("naive run: step limit exceeded".into())
    );
    assert_eq!(native, vm);
}

#[test]
fn a_trapping_native_request_still_validates() {
    if no_compiler() {
        return;
    }
    let native = compute(&request(TRAPS, Engine::Native), &harness_limits()).expect("validates");
    let vm = compute(&request(TRAPS, Engine::Vm), &harness_limits()).expect("validates");
    assert!(native.counters.trap.as_deref().unwrap().contains("TRAP"));
    assert_eq!(native.counters, vm.counters);
    assert!(native.certificate.as_ref().unwrap().ok());
}
