//! Three-way differential: the tree-walking interpreter, the
//! register-bytecode VM, and the native tier (compiled instrumented C)
//! must agree *bit for bit* — counters, outputs (reals by bit pattern),
//! trap records, and error verdicts — on programs covering each language
//! feature, the suite, trap-seeded programs, discharge-on suite rows,
//! and limit probes.
//!
//! Every test gates on a working C compiler and skips (with a named
//! reason) when the host has none; the tree/VM half of the differential
//! is covered unconditionally by `vm_differential.rs`.

use nascent_cback::cc_available;
use nascent_driver::harness::{compare_engines, harness_limits};
use nascent_frontend::compile;
use nascent_interp::{Engine, Limits, RunResult};
use nascent_rangecheck::{optimize_program, CheckKind, Discharge, OptimizeOptions, Scheme};
use nascent_suite::{suite, Scale};

const THREE: [Engine; 3] = [Engine::Tree, Engine::Vm, Engine::Native];

fn skip() -> bool {
    if cc_available() {
        return false;
    }
    eprintln!("skipping: no C compiler for the native tier ($CC / cc)");
    true
}

fn three_way(label: &str, prog: &nascent_ir::Program, limits: &Limits) -> Option<RunResult> {
    compare_engines(label, prog, limits, &THREE).ok()
}

/// One program per language feature, each run naive and under the
/// listed schemes.
const FEATURE_PROGRAMS: [(&str, &str, &[Scheme]); 7] = [
    (
        "straight-line",
        "program p\n integer a(1:10)\n integer i\n i = 3\n a(i) = i * 2\n print a(3)\nend\n",
        &[],
    ),
    (
        "loops and reals",
        "program p
 integer n, i
 real x(1:40), s
 n = 40
 s = 0.0
 do i = 1, n
  x(i) = 1.0 * i / 3.0
 enddo
 do i = 1, n
  s = s + x(i) * x(i)
 enddo
 print s
end
",
        &[Scheme::Lls],
    ),
    (
        "trap after output",
        "program p
 integer a(1:5)
 integer i
 print 7
 do i = 1, 9
  a(i) = i
 enddo
end
",
        &[Scheme::Lls, Scheme::Se],
    ),
    (
        // zero-trip loop: the guard suppresses the hoisted check, and
        // the guard op is counted identically
        "guards",
        "program p
 integer a(1:10)
 integer i, n, k
 n = 0
 k = 99
 do i = 1, n
  a(k) = i
 enddo
 print 1
end
",
        &[Scheme::Lls],
    ),
    (
        "daxpy: subroutine with symbolic bounds",
        "subroutine daxpy(n, k, da, dx, dy)
 integer n, k, i
 real da
 real dx(1:n), dy(1:n)
 do i = k, n
  dy(i) = dy(i) + da * dx(i)
 enddo
end
program p
 integer n, j
 integer i
 real a(1:30), b(1:30)
 n = 30
 do i = 1, n
  a(i) = 1.0 * i
  b(i) = 0.5 * i
 enddo
 do j = 1, 6
  call daxpy(n, j, 0.25, a, b)
 enddo
 print b(1) + b(n)
end
",
        &[Scheme::All],
    ),
    (
        "intrinsics",
        "program p
 integer a(1:20)
 integer i, j
 do i = 1, 20
  j = mod(i * 7, 20) + 1
  a(j) = max(min(i, 15), 2)
 enddo
 print a(1) + a(20)
end
",
        &[Scheme::All],
    ),
    (
        "2-D arrays",
        "program p
 integer g(0:7, 3:9)
 integer i, j, s
 do i = 0, 7
  do j = 3, 9
   g(i, j) = i * 10 + j
  enddo
 enddo
 s = 0
 do i = 0, 7
  s = s + g(i, 3) + g(i, 9)
 enddo
 print s
end
",
        &[Scheme::Lls],
    ),
];

#[test]
fn feature_programs_and_the_suite_agree_across_three_engines() {
    if skip() {
        return;
    }
    let suite = suite(Scale::Small);
    let programs = FEATURE_PROGRAMS.iter().copied().chain(
        suite
            .iter()
            .map(|b| (b.name, b.source.as_str(), &[Scheme::Lls, Scheme::Ni][..])),
    );
    let limits = Limits::default();
    for (name, src, schemes) in programs {
        let naive = compile(src).expect("compiles");
        for scheme in std::iter::once(None).chain(schemes.iter().copied().map(Some)) {
            let mut prog = naive.clone();
            if let Some(s) = scheme {
                optimize_program(&mut prog, &OptimizeOptions::scheme(s));
            }
            compare_engines(&format!("{name} {scheme:?}"), &prog, &limits, &THREE)
                .unwrap_or_else(|e| panic!("{name} {scheme:?}: {e}"));
        }
    }
}

#[test]
fn trap_seeded_programs_agree_across_three_engines() {
    if skip() {
        return;
    }
    let srcs = [
        // trap in the middle of a counted loop
        "program p\n integer a(1:5)\n integer i\n do i = 1, 10\n  a(i) = i\n enddo\nend\n",
        // trap on a load, after some successful output
        "program p\n integer a(1:3)\n integer i\n i = 1\n print a(i)\n i = 7\n print a(i)\nend\n",
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
    let limits = harness_limits();
    for (i, src) in srcs.iter().enumerate() {
        let naive = compile(src).expect("compiles");
        for scheme in [None, Some(Scheme::Ni), Some(Scheme::Lls)] {
            let mut prog = naive.clone();
            if let Some(s) = scheme {
                optimize_program(&mut prog, &OptimizeOptions::scheme(s));
            }
            let label = format!("trap program {i} {scheme:?}");
            let r = three_way(&label, &prog, &limits).expect("trap, not error");
            assert!(r.trap.is_some(), "{label}: did not trap");
        }
    }
}

#[test]
fn discharge_on_suite_rows_agree_across_three_engines() {
    if skip() {
        return;
    }
    let limits = harness_limits();
    for b in suite(Scale::Small) {
        let naive = compile(&b.source).expect("benchmark compiles");
        let baseline =
            three_way(&format!("{} naive", b.name), &naive, &limits).expect("suite runs");
        assert!(baseline.trap.is_none(), "{} trapped", b.name);
        for kind in [CheckKind::Prx, CheckKind::Inx] {
            for scheme in [Scheme::Ni, Scheme::Lls] {
                let opts = OptimizeOptions::scheme(scheme)
                    .with_kind(kind)
                    .with_discharge(Discharge::On);
                let mut prog = naive.clone();
                optimize_program(&mut prog, &opts);
                let label = format!("{} {} {:?} discharge-on", b.name, scheme.name(), kind);
                let r = three_way(&label, &prog, &limits).expect("runs");
                assert_eq!(r.output, baseline.output, "{label}: output changed");
                assert!(r.trap.is_none(), "{label}: discharge introduced a trap");
            }
        }
    }
}

#[test]
fn runtime_errors_agree_across_three_engines() {
    if skip() {
        return;
    }
    let limits = harness_limits();
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
            three_way(&format!("error program {i}"), &prog, &limits).is_none(),
            "error program {i} should error on all engines"
        );
    }
}

#[test]
fn limits_agree_across_three_engines() {
    if skip() {
        return;
    }
    // step limit: probe around the exact budget; the limit is passed to
    // the native binary via the environment, so every probe reuses one
    // cached compile
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
    let full = three_way("step-limit full", &prog, &harness_limits()).expect("runs");
    let budget = full.dynamic_instructions + full.dynamic_checks;
    for max_steps in [1, 7, budget / 2, budget - 1, budget, budget + 1] {
        let l = Limits {
            max_steps,
            max_call_depth: 128,
        };
        let _ = compare_engines(&format!("step limit {max_steps}"), &prog, &l, &THREE);
    }

    // call depth: the limit is tested at callee entry on every engine
    let rec = "program p
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
    let prog = compile(rec).expect("compiles");
    for depth in [2, 8, 39, 40, 41, 64] {
        let l = Limits {
            max_steps: 2_000_000_000,
            max_call_depth: depth,
        };
        let _ = compare_engines(&format!("call depth {depth}"), &prog, &l, &THREE);
    }
}
