//! End-to-end certification tests: the verifier must accept every
//! optimization run the pipeline produces on the benchmark suite, and
//! must reject runs whose justifications — or whose value-range
//! invariants — have been tampered with.

use nascent_analysis::context::PassContext;
use nascent_analysis::vra::{analyze_with_forest, trip_facts, Env, Interval, Vra};
use nascent_frontend::compile;
use nascent_ir::{ArrayId, Function, Program, Stmt};
use nascent_obs::trace::{validate_nesting, AttrValue, ScopedCollector, SpanRecord};
use nascent_rangecheck::{
    inx, optimize_program_logged, CheckKind, Discharge, DischargeReason, Event, ImplicationMode,
    OptimizeOptions, Scheme,
};
use nascent_suite::{loops_then_overrun, random_program, scaling_program, test_suite, GenConfig};
use nascent_verify::invariant::{self, Proved};
use nascent_verify::{certify_program, Diagnostic};

/// One compile+optimize+certify round trip — the driver's glue, shared
/// with `nascentc verify` and the `nascentd` `/certify` endpoint.
fn certify_source(src: &str, opts: &OptimizeOptions) -> nascent_verify::Certificate {
    nascent_driver::certify_source(src, opts).expect("source compiles")
}

/// Every scheme × check kind × implication mode on the full ten-program
/// suite certifies with zero uncovered obligations.
#[test]
fn certifier_accepts_all_schemes_on_the_suite() {
    let suite = test_suite();
    for scheme in Scheme::EACH {
        for kind in [CheckKind::Prx, CheckKind::Inx] {
            for implications in [
                ImplicationMode::All,
                ImplicationMode::CrossFamilyOnly,
                ImplicationMode::None,
            ] {
                let opts = OptimizeOptions::scheme(scheme)
                    .with_kind(kind)
                    .with_implications(implications);
                for bench in &suite {
                    let cert = certify_source(&bench.source, &opts);
                    assert!(
                        cert.ok(),
                        "{} under {}/{:?}/{:?} rejected:\n{}",
                        bench.name,
                        scheme.name(),
                        kind,
                        implications,
                        cert.diagnostics
                            .iter()
                            .map(|d| d.to_string())
                            .collect::<Vec<_>>()
                            .join("\n")
                    );
                    assert!(
                        cert.obligations > 0,
                        "{} produced no obligations",
                        bench.name
                    );
                }
            }
        }
    }
}

/// The MCM baseline also certifies: its articulation-block hoists are a
/// restriction of the preheader hoist the verifier replays.
#[test]
fn certifier_accepts_mcm_baseline_on_the_suite() {
    let opts = OptimizeOptions::scheme(Scheme::Mcm);
    for bench in &test_suite() {
        let cert = certify_source(&bench.source, &opts);
        assert!(
            cert.ok(),
            "{} under MCM rejected:\n{}",
            bench.name,
            cert.diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Subscripts the range analysis cannot discharge: `n` and `k` are
/// degree-2 products (opaque to intervals), and the two-variable form
/// `n + k` defeats the symbolic-bound chase, so the only way to certify
/// the check elimination is through the justification log.
const OPAQUE_REDUNDANT: &str = "program p
 integer a(1:100)
 integer m, n, k
 m = 7
 n = m * m
 k = m * m
 a(n + k + 1) = 1
 a(n + k) = 0
end
";

/// Deleting a check without logging the decision is caught, and the
/// diagnostic names the lost check and its site.
#[test]
fn rejects_unjustified_check_deletion() {
    let opts = OptimizeOptions::scheme(Scheme::Ni).with_implications(ImplicationMode::None);
    let naive = compile(OPAQUE_REDUNDANT).unwrap();
    let mut opt = naive.clone();
    let (_, logs) = optimize_program_logged(&mut opt, &opts);
    assert!(certify_program(&naive, &opt, &logs, &opts).ok());

    // hand-delete the first unconditional check anywhere in the program
    let mut deleted = None;
    'outer: for f in &mut opt.functions {
        for b in &mut f.blocks {
            for (i, s) in b.stmts.iter().enumerate() {
                if let Stmt::Check(c) = s {
                    if c.is_unconditional() {
                        deleted = Some(c.cond.clone());
                        b.stmts.remove(i);
                        break 'outer;
                    }
                }
            }
        }
    }
    let deleted = deleted.expect("program has a check to delete");

    let cert = certify_program(&naive, &opt, &logs, &opts);
    assert!(!cert.ok(), "unjustified deletion must be rejected");
    let d = &cert.diagnostics[0];
    assert_eq!(
        d.check,
        deleted.to_string(),
        "diagnostic names the lost check"
    );
    assert!(
        d.reason.contains("not covered"),
        "diagnostic explains the failure: {d}"
    );
}

/// Tampering with an `Eliminated` event's witness — claiming the check
/// was implied by one that does not imply it — is caught.
#[test]
fn rejects_tampered_elimination_witness() {
    let opts = OptimizeOptions::scheme(Scheme::Ni).with_implications(ImplicationMode::All);
    let naive = compile(OPAQUE_REDUNDANT).unwrap();
    let mut opt = naive.clone();
    let (_, mut logs) = optimize_program_logged(&mut opt, &opts);
    assert!(certify_program(&naive, &opt, &logs, &opts).ok());

    // weaken one witness until it no longer implies the deleted check
    let mut tampered = None;
    'outer: for log in &mut logs {
        for e in &mut log.events {
            if let Event::Eliminated { check, because, .. } = e {
                *because = because.with_bound(because.bound().saturating_add(1000));
                tampered = Some(check.clone());
                break 'outer;
            }
        }
    }
    let tampered = tampered.expect("run eliminated at least one check");

    let cert = certify_program(&naive, &opt, &logs, &opts);
    assert!(!cert.ok(), "tampered witness must be rejected");
    let d = cert
        .diagnostics
        .iter()
        .find(|d| d.check == tampered.to_string())
        .expect("diagnostic names the check whose justification was tampered");
    assert!(
        d.reason.contains("does not imply") || d.reason.contains("not available"),
        "diagnostic explains the failed implication: {d}"
    );
}

/// Relocating an `Eliminated` event to the wrong block leaves the real
/// deletion site uncovered.
#[test]
fn rejects_relocated_elimination_event() {
    let opts = OptimizeOptions::scheme(Scheme::Ni).with_implications(ImplicationMode::All);
    let naive = compile(OPAQUE_REDUNDANT).unwrap();
    let mut opt = naive.clone();
    let (_, mut logs) = optimize_program_logged(&mut opt, &opts);

    let mut moved = false;
    'outer: for log in &mut logs {
        for e in &mut log.events {
            if let Event::Eliminated { block, .. } = e {
                *block = nascent_ir::BlockId(block.index() as u32 + 1_000);
                moved = true;
                break 'outer;
            }
        }
    }
    assert!(moved, "run eliminated at least one check");

    let cert = certify_program(&naive, &opt, &logs, &opts);
    assert!(
        !cert.ok(),
        "relocated event must leave the deletion uncovered"
    );
}

/// A provable range violation: the hoisted upper-bound check folds to an
/// unconditional trap in the preheader. The early trap certifies (the
/// folded check is itself a justified hoist) and the deleted in-loop
/// check is vacuously covered by the dominating trap.
#[test]
fn certifier_accepts_folded_false_hoist_trap() {
    let src = "program bad
 integer a(1:5)
 integer i
 do i = 1, 9
  a(i) = i
 enddo
end
";
    for scheme in Scheme::EACH {
        let opts = OptimizeOptions::scheme(scheme);
        let cert = certify_source(src, &opts);
        assert!(
            cert.ok(),
            "trapping program under {} rejected:\n{}",
            scheme.name(),
            cert.diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// With the discharge tier on, every scheme × kind × implication mode on
/// the full suite still certifies — zero uncovered obligations and zero
/// rejected discharge events — and the tier actually fires somewhere.
#[test]
fn certifier_accepts_discharge_on_across_the_matrix() {
    let suite = test_suite();
    let mut total_events = 0;
    for scheme in Scheme::EACH {
        for kind in [CheckKind::Prx, CheckKind::Inx] {
            for implications in [
                ImplicationMode::All,
                ImplicationMode::CrossFamilyOnly,
                ImplicationMode::None,
            ] {
                let opts = OptimizeOptions::scheme(scheme)
                    .with_kind(kind)
                    .with_implications(implications)
                    .with_discharge(Discharge::On);
                for bench in &suite {
                    let cert = certify_source(&bench.source, &opts);
                    assert!(
                        cert.ok(),
                        "{} under {}/{:?}/{:?} + discharge rejected:\n{}",
                        bench.name,
                        scheme.name(),
                        kind,
                        implications,
                        cert.diagnostics
                            .iter()
                            .map(|d| d.to_string())
                            .collect::<Vec<_>>()
                            .join("\n")
                    );
                    assert_eq!(cert.discharge_rejected, 0, "{}", bench.name);
                    total_events += cert.discharge_events;
                }
            }
        }
    }
    assert!(
        total_events > 0,
        "discharge tier never fired across the whole matrix"
    );
}

/// Every check deleted by the discharge pass on this program is provable
/// from the loop trip count alone.
const FULLY_DISCHARGEABLE: &str = "program p
 integer a(1:10)
 integer i
 do i = 1, 10
  a(i) = i
 enddo
end
";

/// Tampering with a `Discharged` event's check expression — claiming a
/// different check was discharged — is rejected with a diagnostic naming
/// the forged check.
#[test]
fn rejects_tampered_discharge_event() {
    let opts = OptimizeOptions::scheme(Scheme::Ni).with_discharge(Discharge::On);
    let naive = compile(FULLY_DISCHARGEABLE).unwrap();
    let mut opt = naive.clone();
    let (stats, mut logs) = optimize_program_logged(&mut opt, &opts);
    assert!(stats.discharged > 0, "program must exercise the tier");
    assert!(certify_program(&naive, &opt, &logs, &opts).ok());

    let mut tampered = None;
    'outer: for log in &mut logs {
        for e in &mut log.events {
            if let Event::Discharged { check, .. } = e {
                *check = check.with_bound(check.bound().saturating_add(1_000));
                tampered = Some(check.clone());
                break 'outer;
            }
        }
    }
    let tampered = tampered.expect("run discharged at least one check");

    let cert = certify_program(&naive, &opt, &logs, &opts);
    assert!(!cert.ok(), "tampered discharge event must be rejected");
    assert!(cert.discharge_rejected > 0);
    let d = cert
        .diagnostics
        .iter()
        .find(|d| d.check == tampered.to_string())
        .expect("diagnostic names the forged check");
    assert!(
        d.reason.contains("not re-proved"),
        "diagnostic explains the failed re-proof: {d}"
    );
}

/// Relocating a `Discharged` event outside the reference function is
/// rejected by name instead of being silently ignored.
#[test]
fn rejects_relocated_discharge_event() {
    let opts = OptimizeOptions::scheme(Scheme::Ni).with_discharge(Discharge::On);
    let naive = compile(FULLY_DISCHARGEABLE).unwrap();
    let mut opt = naive.clone();
    let (_, mut logs) = optimize_program_logged(&mut opt, &opts);

    let mut moved = false;
    'outer: for log in &mut logs {
        for e in &mut log.events {
            if let Event::Discharged { block, .. } = e {
                *block = nascent_ir::BlockId(block.index() as u32 + 1_000);
                moved = true;
                break 'outer;
            }
        }
    }
    assert!(moved, "run discharged at least one check");

    let cert = certify_program(&naive, &opt, &logs, &opts);
    assert!(!cert.ok(), "relocated discharge event must be rejected");
    assert!(cert.discharge_rejected > 0);
    assert!(
        cert.diagnostics
            .iter()
            .any(|d| d.reason.contains("outside the reference function")),
        "diagnostic names the bogus block"
    );
}

/// A `Discharged` event in a run whose options had the tier off is
/// itself a forgery: the optimizer could not have made that decision.
#[test]
fn rejects_discharge_event_when_tier_off() {
    let opts_on = OptimizeOptions::scheme(Scheme::Ni).with_discharge(Discharge::On);
    let naive = compile(FULLY_DISCHARGEABLE).unwrap();
    let mut opt = naive.clone();
    let (_, logs) = optimize_program_logged(&mut opt, &opts_on);
    assert!(logs.iter().any(|l| !l.events.is_empty()));

    // certify the same artifacts under discharge-off options
    let opts_off = OptimizeOptions::scheme(Scheme::Ni);
    let cert = certify_program(&naive, &opt, &logs, &opts_off);
    assert!(!cert.ok(), "discharge events under an off tier are forged");
    assert!(
        cert.diagnostics
            .iter()
            .any(|d| d.reason.contains("discharge tier is off")),
        "diagnostic explains the mode mismatch"
    );
}

/// Loops whose bound `n` is a product the value-range analysis cannot
/// bound, so only the justification log can certify their hoists.
const OPAQUE_LOOPS: &str = "program p
 integer a(1:100), b(1:100)
 integer i, j, m, n
 m = 7
 n = m * m
 do i = 1, n
  a(i) = i
 enddo
 do j = 1, n
  b(j) = j
 enddo
end
";

/// A `HoistCovered` event naming another loop's preheader is rejected:
/// the deleted check is not in that loop's body.
#[test]
fn rejects_hoist_cover_naming_the_wrong_preheader() {
    let opts = OptimizeOptions::scheme(Scheme::Lls);
    let naive = compile(OPAQUE_LOOPS).unwrap();
    let mut opt = naive.clone();
    let (_, mut logs) = optimize_program_logged(&mut opt, &opts);
    assert!(certify_program(&naive, &opt, &logs, &opts).ok());

    let events = &mut logs[0].events;
    let preheaders: Vec<nascent_ir::BlockId> = events
        .iter()
        .filter_map(|e| match e {
            Event::Hoisted { preheader, .. } => Some(*preheader),
            _ => None,
        })
        .collect();
    let (check, other) = events
        .iter_mut()
        .find_map(|e| match e {
            Event::HoistCovered {
                check,
                preheader,
                by,
                ..
            } if by.constant_verdict().is_none() => {
                let other = *preheaders.iter().find(|p| *p != preheader)?;
                *preheader = other;
                Some((check.clone(), other))
            }
            _ => None,
        })
        .expect("both loops hoist a non-constant check");

    let cert = certify_program(&naive, &opt, &logs, &opts);
    assert!(
        !cert.ok(),
        "hoist cover under the wrong preheader certified"
    );
    let d = cert
        .diagnostics
        .iter()
        .find(|d| d.check == check.to_string())
        .expect("diagnostic names the check whose cover was tampered");
    assert!(
        d.reason.contains("not in the loop body"),
        "diagnostic explains why b{} cannot cover it: {d}",
        other.index()
    );
}

/// A `Rehoisted` event naming the wrong source block is rejected in both
/// directions: the inner preheader's check is gone with no event
/// accounting for it, and the outer preheader's check replays from a
/// block that is not in the loop body.
#[test]
fn rejects_rehoist_from_the_wrong_block() {
    let src = "program p
 integer a(1:100, 1:100)
 integer i, j, m, n
 m = 7
 n = m * m
 do i = 1, n
  do j = 1, n
   a(i, j) = i + j
  enddo
 enddo
end
";
    let opts = OptimizeOptions::scheme(Scheme::Lls);
    let naive = compile(src).unwrap();
    let mut opt = naive.clone();
    let (_, mut logs) = optimize_program_logged(&mut opt, &opts);
    assert!(certify_program(&naive, &opt, &logs, &opts).ok());

    let (inner, wrong) = logs[0]
        .events
        .iter_mut()
        .find_map(|e| match e {
            Event::Rehoisted {
                preheader,
                from_block,
                cond,
                ..
            } if cond.constant_verdict().is_none() => {
                let inner = *from_block;
                *from_block = *preheader;
                Some((inner, *preheader))
            }
            _ => None,
        })
        .expect("the outer loop re-hoists the inner loop's checks");

    let cert = certify_program(&naive, &opt, &logs, &opts);
    assert!(!cert.ok(), "re-hoist from the wrong block certified");
    let reasons: Vec<&str> = cert.diagnostics.iter().map(|d| d.reason.as_str()).collect();
    let missing = format!("not found in preheader b{}", inner.index());
    assert!(
        reasons.iter().any(|r| r.contains(&missing)),
        "direction A names the emptied inner preheader: {reasons:?}"
    );
    let replay = format!(
        "re-hoist from b{0}: b{0} is not a hoistable body block",
        wrong.index()
    );
    assert!(
        reasons.iter().any(|r| r.contains(&replay)),
        "direction B names the wrong source block: {reasons:?}"
    );
}

/// Optimizes `naive` under `opts` and certifies the result under a trace
/// collector, returning the spans.
fn traced_certify(naive: &Program, opts: &OptimizeOptions) -> Vec<SpanRecord> {
    let mut opt = naive.clone();
    let (_, logs) = optimize_program_logged(&mut opt, opts);
    let collector = ScopedCollector::begin();
    let cert = certify_program(naive, &opt, &logs, opts);
    let spans = collector.finish();
    assert!(cert.ok(), "{cert}");
    validate_nesting(&spans).expect("certifier spans nest");
    spans
}

/// The `vra-opt` spans of a trace, each checked to lie inside a
/// `direction-b` span: the optimized function's value-range facts are
/// built only when direction B first needs one.
fn vra_opt_spans(spans: &[SpanRecord]) -> usize {
    let found: Vec<_> = spans.iter().filter(|s| s.name == "vra-opt").collect();
    for s in &found {
        assert!(
            spans.iter().any(|d| d.name == "direction-b"
                && d.depth + 1 == s.depth
                && d.ts_ns <= s.ts_ns
                && s.ts_ns + s.dur_ns <= d.ts_ns + d.dur_ns),
            "`vra-opt` is a child of `direction-b`"
        );
    }
    found.len()
}

/// A traced certification opens one span per certifier phase and
/// function, each a direct child of the `certify` span, except
/// `vra-opt`: at most once per function, inside `direction-b`.
#[test]
fn certify_traces_each_phase_once_per_function() {
    let src = "program p
 integer a(1:10)
 integer i
 do i = 1, 10
  a(i) = i
 enddo
 call fill(a)
end
subroutine fill(m)
 integer m(1:10)
 integer i
 do i = 1, 10
  m(i) = i * 2
 enddo
end
";
    let naive = compile(src).unwrap();
    let spans = traced_certify(&naive, &OptimizeOptions::scheme(Scheme::Lls));

    let root = spans
        .iter()
        .find(|s| s.name == "certify" && s.cat == "verify")
        .expect("a certify span");
    for phase in [
        "universe",
        "antic",
        "avail",
        "vra-ref",
        "align",
        "direction-a",
        "direction-b",
        "direction-c",
    ] {
        let found: Vec<_> = spans
            .iter()
            .filter(|s| s.name == phase && s.cat == "verify")
            .collect();
        assert_eq!(
            found.len(),
            naive.functions.len(),
            "`{phase}` once per function"
        );
        for s in found {
            assert_eq!(s.depth, root.depth + 1, "`{phase}` is a child of `certify`");
            assert!(
                s.ts_ns >= root.ts_ns && s.ts_ns + s.dur_ns <= root.ts_ns + root.dur_ns,
                "`{phase}` lies inside `certify`"
            );
        }
    }
    assert!(vra_opt_spans(&spans) <= naive.functions.len());
}

/// Under INX the certifier copies the reference and rewrites its checks
/// inside one `inx-reference` span, a child of `certify`; under PRX it
/// borrows the reference and opens none.
#[test]
fn certify_traces_the_inx_reference_copy_once() {
    let naive = compile(
        "program p
 integer a(1:10)
 integer i
 do i = 1, 10
  a(i) = i
 enddo
end
",
    )
    .unwrap();
    for (kind, expected) in [(CheckKind::Inx, 1), (CheckKind::Prx, 0)] {
        let spans = traced_certify(
            &naive,
            &OptimizeOptions::scheme(Scheme::Lls).with_kind(kind),
        );
        let root = spans
            .iter()
            .find(|s| s.name == "certify" && s.cat == "verify")
            .expect("a certify span");
        let found: Vec<_> = spans.iter().filter(|s| s.name == "inx-reference").collect();
        assert_eq!(found.len(), expected, "{kind:?}");
        for s in found {
            assert_eq!(s.cat, "verify");
            assert_eq!(s.depth, root.depth + 1, "a child of `certify`");
            assert!(
                s.ts_ns >= root.ts_ns && s.ts_ns + s.dur_ns <= root.ts_ns + root.dur_ns,
                "`inx-reference` lies inside `certify`"
            );
        }
    }
}

/// An unconditional `TRAP` needs the optimized function's value-range
/// facts (is it unreachable?), so a run with a folded-false hoist opens
/// `vra-opt` exactly once, inside `direction-b`.
#[test]
fn certify_builds_optimized_value_ranges_for_a_trap() {
    let naive = compile(
        "program bad
 integer a(1:5)
 integer i
 do i = 1, 9
  a(i) = i
 enddo
end
",
    )
    .unwrap();
    let spans = traced_certify(&naive, &OptimizeOptions::scheme(Scheme::Lls));
    assert_eq!(vra_opt_spans(&spans), 1);
}

/// The declarations and initialization of `x1` to `x{len}`, and a loop
/// copying `x1 = x2, …, x{len} = i` each iteration for `i` from 1 to `m`.
/// Each iteration widens one more variable of the chain at the loop head,
/// so the value-range fixpoint makes about `3 × len` block visits per
/// phase before it settles the loop. The callers' chains are long enough
/// to run it into its iteration cap, after which every state is top.
fn copy_chain(len: usize) -> (String, String) {
    let xs: Vec<String> = (1..=len).map(|k| format!("x{k}")).collect();
    let mut init = format!(" integer {}\n", xs.join(", "));
    let mut chain = String::from(" do i = 1, m\n");
    for x in &xs {
        init.push_str(&format!(" {x} = 0\n"));
    }
    for w in xs.windows(2) {
        chain.push_str(&format!("  {} = {}\n", w[0], w[1]));
    }
    chain.push_str(&format!("  x{len} = i\n enddo\n"));
    (init, chain)
}

/// [`copy_chain`], then the overrunning loop of [`loops_then_overrun`],
/// which the capped fixpoint never reaches.
fn copy_chain_then_overrun() -> String {
    let (init, chain) = copy_chain(150);
    format!(
        "program capped\n integer a(1:40)\n integer i, m, n\n{init} m = 40\n n = 2\n{chain} \
         do i = 1, m\n  a(i + n - 1) = i\n enddo\nend\n"
    )
}

/// A forged `Discharged` event for the check that catches the overrun
/// must be rejected: the checked value ranges prove every check of the
/// 32 loops before it, but not one that fails on the last iteration.
#[test]
fn rejects_forged_discharge_of_the_overrun_check() {
    let opts = OptimizeOptions::scheme(Scheme::Ni).with_discharge(Discharge::On);
    let naive = compile(&loops_then_overrun(32)).unwrap();
    let trap = nascent_interp::run(&naive, &nascent_interp::Limits::default())
        .expect("naive run")
        .trap
        .expect("the naive program traps");
    let mut opt = naive.clone();
    let (_, mut logs) = optimize_program_logged(&mut opt, &opts);

    // delete the failing check and log it as discharged, unless the
    // optimizer already did so itself
    let f = &naive.functions[0];
    let (block, bad) = f
        .block_ids()
        .find_map(|b| {
            f.block(b).stmts.iter().find_map(|s| match s {
                Stmt::Check(c) if c.to_string() == trap.check => Some((b, c.cond.clone())),
                _ => None,
            })
        })
        .expect("the trapping check is in the program");
    let discharged = logs[0]
        .events
        .iter()
        .any(|e| matches!(e, Event::Discharged { check, .. } if *check == bad));
    if !discharged {
        opt.functions[0]
            .block_mut(block)
            .stmts
            .retain(|s| !matches!(s, Stmt::Check(c) if c.cond == bad));
        logs[0].push(Event::Discharged {
            block,
            check: bad.clone(),
            reason: DischargeReason::Unreachable,
        });
    }

    let cert = certify_program(&naive, &opt, &logs, &opts);
    assert!(
        !cert.ok(),
        "a forged discharge of a failing check certified"
    );
    assert!(
        cert.diagnostics
            .iter()
            .any(|d| d.check == bad.to_string() && d.reason.contains("not re-proved")),
        "diagnostic names the forged discharge: {:?}",
        cert.diagnostics
    );
}

/// Under ALL, LLS hoists each loop's lower check as the constant-true
/// `0 <= 1`; SE then places one unconditional copy at the entry,
/// elimination deletes the preheader copies citing it, and fold deletes
/// the entry copy, so no witness is left in the final code. A hoisted
/// condition that can never fail needs no preheader check. (A
/// [`copy_chain`] after the loops runs the value-range fixpoint into its
/// iteration cap, so it cannot cover the in-loop checks instead: no loop
/// bound keeps it from proving them, since the trip-count fact from the
/// constant initial value does.)
#[test]
fn accepts_constant_true_hoisted_conditions() {
    // the shape of a small `scaling_program`, then the chain
    let (init, chain) = copy_chain(200);
    let mut src = format!("program hoisted\n integer a(40)\n integer i, m\n{init} m = 20\n");
    for li in 0..2 {
        src.push_str(" do i = 1, m\n");
        for ai in 1..=4 {
            src.push_str(&format!("  a(i + {ai}) = i + {li}\n"));
        }
        src.push_str(" enddo\n");
    }
    src.push_str(&chain);
    src.push_str(" print a(1)\nend\n");
    for kind in [CheckKind::Prx, CheckKind::Inx] {
        let cert = certify_source(&src, &OptimizeOptions::scheme(Scheme::All).with_kind(kind));
        assert!(
            cert.ok(),
            "ALL/{kind:?} rejected:\n{}",
            cert.diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// The counts of the scaling programs' certificates under NI and LLS
/// with INX checks. At k = 8 and k = 32 the value-range fixpoint
/// converges and proves all 2k² + 2 reference checks. A change to the
/// value-range states or the check universe that flips a verdict changes
/// these counts.
#[test]
fn scaling_certificates_keep_their_counts() {
    // (k, scheme, obligations, vra_discharged, discharged_by_log)
    let expected = [
        (8, Scheme::Ni, 202, 130, 57),
        (8, Scheme::Lls, 138, 130, 137),
        (32, Scheme::Ni, 3106, 2050, 993),
        (32, Scheme::Lls, 2082, 2050, 2081),
    ];
    for (k, scheme, obligations, vra_discharged, by_log) in expected {
        let opts = OptimizeOptions::scheme(scheme).with_kind(CheckKind::Inx);
        let cert = certify_source(&scaling_program(k), &opts);
        assert!(cert.ok(), "k={k} {}: {cert}", scheme.name());
        assert_eq!(
            (
                cert.obligations,
                cert.vra_discharged,
                cert.discharged_by_log
            ),
            (obligations, vra_discharged, by_log),
            "k={k} {}",
            scheme.name()
        );
    }
}

fn int_attr(s: &SpanRecord, key: &str) -> i64 {
    match s.attrs.iter().find(|(k, _)| *k == key) {
        Some((_, AttrValue::Int(v))) => *v,
        other => panic!("`{}` has no integer `{key}`: {other:?}", s.name),
    }
}

/// The value-range spans report the fixpoint's block visits and whether
/// it ran into the iteration cap: the fixpoint converges on the scaling
/// programs at k = 8 and k = 32, and is capped on a long copy chain. The
/// certifier's `vra-ref` span and the analysis `vra` span agree, and
/// `vra-opt` carries the same attributes.
#[test]
fn vra_spans_report_visits_and_the_iteration_cap() {
    let opts = OptimizeOptions::scheme(Scheme::Ni).with_kind(CheckKind::Inx);
    for (name, src, capped) in [
        ("k=8", scaling_program(8), 0),
        ("k=32", scaling_program(32), 0),
        ("copy chain", copy_chain_then_overrun(), 1),
    ] {
        let naive = compile(&src).unwrap();
        let spans = traced_certify(&naive, &opts);
        let vra_ref = spans.iter().find(|s| s.name == "vra-ref").unwrap();
        assert_eq!(int_attr(vra_ref, "capped"), capped, "{name}");
        let visits = int_attr(vra_ref, "visits");
        assert!(visits > 0, "{name}");

        let mut reference = naive.functions[0].clone();
        inx::rewrite_checks(&mut reference);
        let collector = ScopedCollector::begin();
        PassContext::new().vra(&reference);
        let spans = collector.finish();
        let vra = spans
            .iter()
            .find(|s| s.name == "vra" && s.cat == "analysis")
            .unwrap();
        assert_eq!(int_attr(vra, "capped"), capped, "{name}");
        assert_eq!(int_attr(vra, "visits"), visits, "{name}");
    }

    let trapping = compile(
        "program bad\n integer a(1:5)\n integer i\n do i = 1, 9\n  a(i) = i\n enddo\nend\n",
    )
    .unwrap();
    let spans = traced_certify(&trapping, &OptimizeOptions::scheme(Scheme::Lls));
    let vra_opt = spans.iter().find(|s| s.name == "vra-opt").unwrap();
    assert_eq!(int_attr(vra_opt, "capped"), 0);
    assert!(int_attr(vra_opt, "visits") > 0);
}

/// Runs the value-range analysis on `f`, asserts that it converged
/// without the iteration cap, and checks its result.
fn check_vra(f: &Function) -> Result<Proved, Diagnostic> {
    let forest = PassContext::new().loop_forest(f);
    let vra = analyze_with_forest(f, &forest);
    assert!(!vra.capped, "the analysis of `{}` is capped", f.name);
    invariant::check(f, &vra, &trip_facts(&forest))
}

/// Asserts that the analysis converges and the checker accepts its
/// result on every reference and optimized function of `naive` under
/// `opts` (the reference with the shared INX rewrite, as the certifier
/// sees it).
fn assert_checker_accepts(name: &str, naive: &Program, opts: &OptimizeOptions) {
    let mut opt = naive.clone();
    optimize_program_logged(&mut opt, opts);
    let mut reference = naive.clone();
    if opts.kind == CheckKind::Inx {
        for f in &mut reference.functions {
            inx::rewrite_checks(f);
        }
    }
    for f in reference.functions.iter().chain(&opt.functions) {
        if let Err(d) = check_vra(f) {
            panic!(
                "{name} under {opts:?}: invariant of `{}` rejected: {d}",
                f.name
            );
        }
    }
}

/// The checker accepts every value-range result the analysis produces,
/// none of them capped: on the suite under every scheme × kind ×
/// implication mode × discharge tier, and on generated programs.
#[test]
fn checker_accepts_every_analysis_result() {
    for bench in &test_suite() {
        let naive = compile(&bench.source).unwrap();
        for scheme in Scheme::EACH {
            for kind in [CheckKind::Prx, CheckKind::Inx] {
                for implications in [
                    ImplicationMode::All,
                    ImplicationMode::CrossFamilyOnly,
                    ImplicationMode::None,
                ] {
                    for discharge in [Discharge::Off, Discharge::On] {
                        let opts = OptimizeOptions::scheme(scheme)
                            .with_kind(kind)
                            .with_implications(implications)
                            .with_discharge(discharge);
                        assert_checker_accepts(bench.name, &naive, &opts);
                    }
                }
            }
        }
    }
    for seed in 0..40 {
        let naive = compile(&random_program(seed, &GenConfig::default())).unwrap();
        for scheme in [Scheme::Ni, Scheme::Lls, Scheme::All] {
            let opts = OptimizeOptions::scheme(scheme).with_discharge(Discharge::On);
            assert_checker_accepts(&format!("seed {seed}"), &naive, &opts);
        }
    }
}

/// A loop filling a private map array, then a loop reading it.
const MAP_PROGRAM: &str = "program p
 integer map(1:10)
 integer a(1:10)
 integer i, j, t
 do i = 1, 10
  map(i) = i - 1
 enddo
 do j = 1, 10
  t = map(j)
  a(t + 1) = j
 enddo
end
";

/// The checker rejects invariants that are not inductive, naming the
/// entry block, the edge or the array at fault.
#[test]
fn checker_rejects_perturbed_invariants_by_name() {
    let f = compile(MAP_PROGRAM).unwrap().main_function().clone();
    let forest = PassContext::new().loop_forest(&f);
    let vra = analyze_with_forest(&f, &forest);
    let trips = trip_facts(&forest);
    assert!(invariant::check(&f, &vra, &trips).is_ok());
    let reject = |perturb: &dyn Fn(&mut Vra)| {
        let mut v = vra.clone();
        perturb(&mut v);
        invariant::check(&f, &v, &trips).expect_err("perturbed invariant accepted")
    };
    // the first loop fills `map`: its body entry and induction variable
    let first = forest
        .loops
        .iter()
        .min_by_key(|l| l.header.index())
        .expect("a loop");
    let body = first.body_entry.expect("a body entry").index();
    let i = first.iv.as_ref().expect("an induction variable").var;
    let into_body = format!("-> b{body} does not entail the entry state of b{body}");
    let at_most = |hi| Interval {
        lo: None,
        hi: Some(hi),
    };

    // a reachable block made unreachable
    assert!(!vra.entry[body].bottom);
    let d = reject(&|v| v.entry[body] = Env::unreachable());
    assert!(d.reason.contains(&into_body), "{d}");

    // an interval tightened below what the loop-entry edge delivers
    assert_eq!(vra.entry[body].interval(i).hi, Some(10));
    let d = reject(&|v| v.entry[body].assume_interval(i, at_most(5)));
    assert!(d.reason.contains(&into_body), "{d}");

    // a load summary that excludes a stored value (map(10) = 9)
    let map = (0..f.arrays.len())
        .map(|a| ArrayId(a as u32))
        .find(|a| f.arrays[a.index()].name == "map")
        .unwrap();
    let summary = Interval {
        lo: Some(0),
        hi: Some(9),
    };
    assert_eq!(vra.load_ranges.get(&map), Some(&summary));
    let narrowed = Interval {
        hi: Some(5),
        ..summary
    };
    let d = reject(&|v| _ = v.load_ranges.insert(map, narrowed));
    assert!(
        d.reason
            .contains("store into `map` leaves its load summary"),
        "{d}"
    );
    let no_zero = Interval {
        lo: Some(1),
        ..summary
    };
    let d = reject(&|v| _ = v.load_ranges.insert(map, no_zero));
    assert!(d.reason.contains("`map` excludes its initial 0"), "{d}");

    // a non-top entry state
    let d = reject(&|v| v.entry[f.entry.index()].assume_interval(i, at_most(0)));
    assert_eq!(d.block, f.entry);
    assert!(d.reason.contains("is not top"), "{d}");
}

/// Before the iteration-cap backstop was fixed, a capped fixpoint set the
/// blocks it had reached to top and left the rest `unreachable`, which
/// proves every check in them; on [`copy_chain_then_overrun`] that
/// includes the overrunning last loop, which the fixpoint never reaches.
/// The checker rejects those states at the edge into the first such
/// block, and accepts what the analysis returns today (every state top:
/// the cap was hit).
#[test]
fn checker_rejects_the_old_visited_only_backstop() {
    let f = compile(&copy_chain_then_overrun())
        .unwrap()
        .main_function()
        .clone();
    let forest = PassContext::new().loop_forest(&f);
    let trips = trip_facts(&forest);
    let vra = analyze_with_forest(&f, &forest);
    assert!(vra.entry.iter().all(|e| *e == Env::top()), "the cap is hit");
    assert!(invariant::check(&f, &vra, &trips).is_ok());

    let last = forest
        .loops
        .iter()
        .max_by_key(|l| l.header.index())
        .expect("a loop");
    let mut old = vra;
    for b in &last.blocks {
        old.entry[b.index()] = Env::unreachable();
    }
    let d = invariant::check(&f, &old, &trips).expect_err("old backstop states accepted");
    assert!(
        d.reason
            .contains(&format!("-> b{} does not entail", last.header.index())),
        "{d}"
    );
}

/// The value-range analysis statically discharges checks on a meaningful
/// fraction of the suite (constant bounds, loop trip counts).
#[test]
fn vra_discharges_checks_on_several_suite_programs() {
    let opts = OptimizeOptions::scheme(Scheme::Ni);
    let mut programs_with_discharge = 0;
    for bench in &test_suite() {
        let cert = certify_source(&bench.source, &opts);
        assert!(cert.ok());
        if cert.vra_discharged > 0 {
            programs_with_discharge += 1;
        }
    }
    assert!(
        programs_with_discharge >= 3,
        "VRA discharged checks on only {programs_with_discharge} of 10 programs"
    );
}
