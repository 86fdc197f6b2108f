//! Interpreter invariants: determinism, counter consistency, and
//! trap-point stability.

use nascent_frontend::{compile, compile_with, CheckInsertion};
use nascent_interp::{run, Limits};
use proptest::prelude::*;

fn limits() -> Limits {
    Limits {
        max_steps: 2_000_000,
        max_call_depth: 32,
    }
}

#[test]
fn runs_are_deterministic() {
    let src = "program p
 integer a(1:50)
 integer i, s
 s = 0
 do i = 1, 50
  a(i) = mod(i * 17, 23)
  s = s + a(i)
 enddo
 print s
end
";
    let prog = compile(src).unwrap();
    let r1 = run(&prog, &limits()).unwrap();
    let r2 = run(&prog, &limits()).unwrap();
    assert_eq!(r1, r2);
}

#[test]
fn checked_and_unchecked_agree_on_everything_but_checks() {
    let src = "program p
 integer a(1:30)
 integer i
 do i = 1, 30
  a(i) = i * i
 enddo
 print a(30)
end
";
    let checked = run(&compile(src).unwrap(), &limits()).unwrap();
    let unchecked = run(&compile_with(src, CheckInsertion::None).unwrap(), &limits()).unwrap();
    assert_eq!(checked.output, unchecked.output);
    assert_eq!(checked.dynamic_instructions, unchecked.dynamic_instructions);
    assert_eq!(unchecked.dynamic_checks, 0);
    assert_eq!(checked.dynamic_checks, 62); // 30 stores * 2 + 1 load * 2
}

#[test]
fn dynamic_counts_scale_linearly_with_trip_count() {
    let counts: Vec<(u64, u64)> = [10, 20, 40]
        .iter()
        .map(|n| {
            let src = format!(
                "program p\n integer a(1:100)\n integer i\n do i = 1, {n}\n a(i) = i\n enddo\nend\n"
            );
            let r = run(&compile(&src).unwrap(), &limits()).unwrap();
            (r.dynamic_checks, r.dynamic_instructions)
        })
        .collect();
    assert_eq!(counts[0].0 * 2, counts[1].0);
    assert_eq!(counts[0].0 * 4, counts[2].0);
    assert!(counts[2].1 > counts[1].1 && counts[1].1 > counts[0].1);
}

#[test]
fn trap_point_is_stable_and_early_exits() {
    let src = "program p
 integer a(1:5)
 integer i
 do i = 1, 10
  a(i) = i
 enddo
 print a(1)
end
";
    let r1 = run(&compile(src).unwrap(), &limits()).unwrap();
    let r2 = run(&compile(src).unwrap(), &limits()).unwrap();
    let (t1, t2) = (r1.trap.unwrap(), r2.trap.unwrap());
    assert_eq!(t1, t2);
    assert!(r1.output.is_empty(), "nothing printed after the trap");
    // 5 good iterations * 2 checks + the failing 6th upper check
    assert_eq!(r1.dynamic_checks, 12);
}

proptest! {
    /// Random generated programs: re-running is bit-identical.
    #[test]
    fn generated_programs_are_deterministic(seed in 0u64..200) {
        let cfg = nascent_suite::GenConfig::default();
        let src = nascent_suite::random_program(seed, &cfg);
        let prog = compile(&src).unwrap();
        let a = run(&prog, &limits());
        let b = run(&prog, &limits());
        prop_assert_eq!(a, b);
    }

    /// The step limit is respected: instructions + checks never exceed it.
    #[test]
    fn step_limit_is_respected(seed in 0u64..100, cap in 500u64..5000) {
        let cfg = nascent_suite::GenConfig::default();
        let src = nascent_suite::random_program(seed, &cfg);
        let prog = compile(&src).unwrap();
        let l = Limits { max_steps: cap, max_call_depth: 8 };
        if let Ok(r) = run(&prog, &l) {
            prop_assert!(r.dynamic_instructions + r.dynamic_checks <= cap + 8);
        }
    }
}
