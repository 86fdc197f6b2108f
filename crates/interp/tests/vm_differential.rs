//! Differential test: the tree-walking interpreter and the
//! register-bytecode VM must agree *bit for bit* on everything the paper's
//! tables are built from — program output, `dynamic_checks`,
//! `dynamic_guard_ops`, the instruction/progress counters, and trap
//! behavior — across the whole 10-program suite × 7 schemes × {PRX, INX}
//! grid, plus handwritten programs that actually trap or error (the suite
//! itself is trap-free by construction).

use nascent_driver::harness::{harness_limits, prepare};
use nascent_frontend::compile;
use nascent_interp::{lower, run, run_compiled, Limits, RunError, RunResult};
use nascent_rangecheck::{optimize_program, CheckKind, Discharge, OptimizeOptions, Scheme};
use nascent_suite::{suite, Scale};

fn limits() -> Limits {
    harness_limits()
}

/// Runs `prog` on both engines and asserts identical results (or identical
/// errors), returning the tree-walker's result for further checks.
fn assert_engines_agree(
    label: &str,
    prog: &nascent_ir::Program,
    limits: &Limits,
) -> Option<RunResult> {
    let tree = run(prog, limits);
    let vm = run_compiled(&lower(prog), limits);
    match (tree, vm) {
        (Ok(t), Ok(v)) => {
            assert_eq!(t.output, v.output, "{label}: output differs");
            assert_eq!(
                t.dynamic_checks, v.dynamic_checks,
                "{label}: dynamic_checks differ"
            );
            assert_eq!(
                t.dynamic_guard_ops, v.dynamic_guard_ops,
                "{label}: dynamic_guard_ops differ"
            );
            assert_eq!(
                t.dynamic_instructions, v.dynamic_instructions,
                "{label}: dynamic_instructions differ"
            );
            assert_eq!(
                t.dynamic_progress, v.dynamic_progress,
                "{label}: dynamic_progress differs"
            );
            match (&t.trap, &v.trap) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.function, b.function, "{label}: trap function differs");
                    assert_eq!(a.check, b.check, "{label}: trap check differs");
                    assert_eq!(
                        a.at_instruction, b.at_instruction,
                        "{label}: trap at_instruction differs"
                    );
                    assert_eq!(
                        a.at_progress, b.at_progress,
                        "{label}: trap at_progress differs"
                    );
                }
                (a, b) => panic!("{label}: trap verdicts differ: tree={a:?} vm={b:?}"),
            }
            Some(t)
        }
        (Err(te), Err(ve)) => {
            assert_eq!(
                format!("{te:?}"),
                format!("{ve:?}"),
                "{label}: errors differ"
            );
            None
        }
        (t, v) => panic!("{label}: one engine errored: tree={t:?} vm={v:?}"),
    }
}

#[test]
fn suite_times_schemes_times_kinds_is_engine_invariant() {
    let limits = limits();
    for b in suite(Scale::Small) {
        // the driver harness's prepared baseline (compiled once, naive run
        // on the VM) is the same baseline every other consumer uses; the
        // dual-engine run must reproduce its counters exactly
        let pb = prepare(&b);
        let naive = pb.checked.clone();
        let baseline =
            assert_engines_agree(&format!("{} naive", b.name), &naive, &limits).expect("runs");
        assert!(baseline.trap.is_none(), "{} trapped", b.name);
        assert_eq!(
            baseline.dynamic_checks, pb.naive.dynamic_checks,
            "{}: differential baseline disagrees with the harness baseline",
            b.name
        );
        assert_eq!(baseline.output, pb.naive.output, "{}", b.name);
        for kind in [CheckKind::Prx, CheckKind::Inx] {
            for scheme in Scheme::EACH {
                let opts = OptimizeOptions::scheme(scheme).with_kind(kind);
                let mut prog = naive.clone();
                optimize_program(&mut prog, &opts);
                let label = format!("{} {} {:?}", b.name, scheme.name(), kind);
                let r = assert_engines_agree(&label, &prog, &limits).expect("runs");
                // optimizers only remove dynamic checks; both engines must
                // also agree with the naive output
                assert_eq!(r.output, baseline.output, "{label}: output changed");
                assert!(r.dynamic_checks <= baseline.dynamic_checks, "{label}");
            }
        }
    }
}

#[test]
fn discharge_tier_is_engine_invariant_and_behavior_preserving() {
    let limits = limits();
    for b in suite(Scale::Small) {
        let naive = compile(&b.source).expect("benchmark compiles");
        let baseline =
            assert_engines_agree(&format!("{} naive", b.name), &naive, &limits).expect("runs");
        for kind in [CheckKind::Prx, CheckKind::Inx] {
            for scheme in [Scheme::Ni, Scheme::Se, Scheme::Lls, Scheme::All] {
                let opts = OptimizeOptions::scheme(scheme)
                    .with_kind(kind)
                    .with_discharge(Discharge::On);
                let mut prog = naive.clone();
                optimize_program(&mut prog, &opts);
                let label = format!("{} {} {:?} discharge-on", b.name, scheme.name(), kind);
                let r = assert_engines_agree(&label, &prog, &limits).expect("runs");
                // deleting provably-true checks must not change behavior:
                // identical output, still trap-free, never more checks
                assert_eq!(r.output, baseline.output, "{label}: output changed");
                assert!(r.trap.is_none(), "{label}: discharge introduced a trap");
                assert!(r.dynamic_checks <= baseline.dynamic_checks, "{label}");
            }
        }
    }
}

#[test]
fn discharge_preserves_traps_on_both_engines() {
    // i ranges over 1..=10 against a(1:5): the value-range tier can
    // discharge the lower-bound check but must keep the violated upper
    // bound, and the trap must stay bit-identical across engines
    let src = "program p
 integer a(1:5)
 integer i
 do i = 1, 10
  a(i) = i
 enddo
end
";
    let limits = limits();
    let naive = compile(src).expect("compiles");
    let mut traps = Vec::new();
    for discharge in [Discharge::Off, Discharge::On] {
        let opts = OptimizeOptions::scheme(Scheme::Ni).with_discharge(discharge);
        let mut prog = naive.clone();
        optimize_program(&mut prog, &opts);
        let label = format!("trap {discharge:?}");
        let r = assert_engines_agree(&label, &prog, &limits).expect("trap, not error");
        let trap = r.trap.expect("program must still trap");
        assert!(r.output.is_empty(), "{label}: output before trap");
        traps.push(trap);
    }
    // same violated check, same amount of useful work done before it
    assert_eq!(traps[0].check, traps[1].check, "discharge changed the trap");
    assert_eq!(
        traps[0].at_progress, traps[1].at_progress,
        "discharge changed pre-trap progress"
    );
}

#[test]
fn trapping_programs_are_engine_invariant() {
    // out-of-bounds store caught by a check, mid-loop
    let srcs = [
        // trap in the middle of a counted loop
        "program p
 integer a(1:5)
 integer i
 do i = 1, 10
  a(i) = i
 enddo
end
",
        // trap on a load, after some successful output
        "program p
 integer a(1:3)
 integer i
 i = 1
 print a(i)
 i = 7
 print a(i)
end
",
        // trap inside a subroutine with an adjustable array
        "program p
 integer a(1:4)
 integer i
 do i = 1, 4
  a(i) = i
 enddo
 call s(a, 4)
end
subroutine s(x, n)
 integer n
 integer x(1:n)
 x(n + 1) = 0
end
",
    ];
    let limits = limits();
    for (i, src) in srcs.iter().enumerate() {
        let prog = compile(src).expect("compiles");
        let r = assert_engines_agree(&format!("trap program {i}"), &prog, &limits)
            .expect("trap, not error");
        assert!(r.trap.is_some(), "trap program {i} did not trap");
    }
}

#[test]
fn fast_path_traps_match_the_tree_walker() {
    // the VM rebuilds a fast check's trap text from its registers: a
    // two-term check against an adjustable extent (`Check2`) and
    // three-term checks with negative and non-unit coefficients
    // (`CheckN`) must print the tree-walker's text and trap at its point
    let srcs = [
        // `i <= n` against an adjustable extent, overrun at i = n + 1
        "program p
 integer a(1:8)
 call s(a, 5)
end
subroutine s(x, n)
 integer n
 integer x(1:n)
 integer i
 do i = 1, n + 1
  x(i) = i
 enddo
end
",
        // `i + j + k <= 10`, after some output
        "program p
 real r
 integer a(1:10)
 integer i, j, k
 r = 2.5
 j = 2
 k = 3
 do i = 1, 9
  print i
  a(i + j + k) = i
 enddo
end
",
        // `-2*i + 3*j - k <= -1`: the lower bound, negative first term,
        // at the first iteration
        "program p
 integer a(1:10)
 integer i, j, k
 j = 2
 k = 2
 do i = 1, 5
  a(2 * i - 3 * j + k) = i
 enddo
end
",
    ];
    let limits = limits();
    for (i, src) in srcs.iter().enumerate() {
        let prog = compile(src).expect("compiles");
        let tree = run(&prog, &limits).expect("traps, not errors");
        let vm = run_compiled(&lower(&prog), &limits).expect("traps, not errors");
        assert!(tree.trap.is_some(), "fast-path program {i} did not trap");
        assert_eq!(tree.trap, vm.trap, "fast-path program {i}");
        assert_eq!(tree, vm, "fast-path program {i}");
    }
}

#[test]
fn runtime_errors_are_engine_invariant() {
    let limits = limits();
    // division by zero, including one reached only at a specific iteration
    let srcs = [
        "program p\n integer i, j\n j = 0\n i = 1 / j\n print i\nend\n",
        "program p
 integer a(1:10)
 integer i, d
 do i = 1, 10
  d = 5 - i
  a(i) = 100 / d
 enddo
end
",
    ];
    for (i, src) in srcs.iter().enumerate() {
        let prog = compile(src).expect("compiles");
        assert!(
            assert_engines_agree(&format!("error program {i}"), &prog, &limits).is_none(),
            "error program {i} should error on both engines"
        );
    }
}

#[test]
fn step_limit_is_engine_invariant() {
    let src = "program p
 integer a(1:50)
 integer i, j, s
 s = 0
 do i = 1, 50
  do j = 1, 50
   a(j) = j
   s = s + a(j)
  enddo
 enddo
 print s
end
";
    let prog = compile(src).expect("compiles");
    // find the exact budget and probe around it: the limit must cut both
    // engines off at the same point with identical partial counters
    let full = run(&prog, &limits()).expect("runs");
    let budget = full.dynamic_instructions + full.dynamic_checks;
    for max_steps in [1, 7, budget / 2, budget - 1, budget, budget + 1] {
        let l = Limits {
            max_steps,
            max_call_depth: 128,
        };
        assert_engines_agree(&format!("step limit {max_steps}"), &prog, &l);
    }
}

#[test]
fn call_depth_limit_is_engine_invariant() {
    let src = "program p
 integer r
 call f(40, r)
 print r
end
subroutine f(n, out)
 integer n, out
 integer t
 if (n <= 1) then
  out = 1
 else
  call f(n - 1, t)
  out = t + 1
 endif
end
";
    let prog = compile(src).expect("compiles");
    for depth in [2, 8, 39, 40, 41, 64] {
        let l = Limits {
            max_steps: 2_000_000_000,
            max_call_depth: depth,
        };
        assert_engines_agree(&format!("call depth {depth}"), &prog, &l);
    }
}

#[test]
fn undetected_violation_is_engine_invariant() {
    // compile without checks, then index out of bounds: both engines must
    // report the same UndetectedViolation error
    let src = "program p
 integer a(1:5)
 integer i
 do i = 1, 6
  a(i) = i
 enddo
end
";
    let prog = nascent_frontend::compile_with(src, nascent_frontend::CheckInsertion::None).unwrap();
    let limits = limits();
    let tree = run(&prog, &limits);
    let vm = run_compiled(&lower(&prog), &limits);
    assert!(
        matches!(tree, Err(RunError::UndetectedViolation { .. })),
        "tree: {tree:?}"
    );
    assert_eq!(
        format!("{:?}", tree.err()),
        format!("{:?}", vm.err()),
        "unchecked violation differs"
    );
}
