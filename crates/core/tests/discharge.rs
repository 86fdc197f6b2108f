//! Integration tests for the static-discharge tier.
//!
//! The tier deletes checks the optimizer-side value-range analysis
//! proves always-true, before any placement scheme runs. These tests pin
//! its externally visible contract: the suite has provable checks, the
//! discharge-hostile generator has none, the friendly generator is fully
//! provable, and the tier is inert when switched off.

use nascent_interp::{run, Limits};
use nascent_rangecheck::{optimize_program, Discharge, OptimizeOptions, Scheme};
use nascent_suite::{discharge_friendly, discharge_hostile, loops_then_overrun, suite, Scale};

fn compile(src: &str) -> nascent_ir::Program {
    nascent_frontend::compile(src).expect("test program compiles")
}

#[test]
fn suite_programs_discharge_checks_under_every_scheme() {
    for scheme in Scheme::EACH {
        let mut programs_with_discharges = 0;
        for b in suite(Scale::Small) {
            let mut prog = compile(&b.source);
            let stats = optimize_program(
                &mut prog,
                &OptimizeOptions::scheme(scheme).with_discharge(Discharge::On),
            );
            if stats.discharged > 0 {
                programs_with_discharges += 1;
            }
        }
        assert!(
            programs_with_discharges > 0,
            "scheme {scheme:?}: no suite program discharged any check"
        );
    }
}

#[test]
fn discharge_off_deletes_nothing() {
    for b in suite(Scale::Small) {
        let mut on = compile(&b.source);
        let mut off = compile(&b.source);
        let off_stats = optimize_program(
            &mut off,
            &OptimizeOptions::scheme(Scheme::Lls).with_discharge(Discharge::Off),
        );
        assert_eq!(
            off_stats.discharged, 0,
            "{}: Off must not discharge",
            b.name
        );
        // On really is a distinct tier: at least one suite program ends
        // up with fewer static checks than the Off run.
        let on_stats = optimize_program(
            &mut on,
            &OptimizeOptions::scheme(Scheme::Lls).with_discharge(Discharge::On),
        );
        assert!(
            on_stats.discharged <= on_stats.static_before,
            "{}: discharged more checks than exist",
            b.name
        );
    }
}

#[test]
fn hostile_generator_discharges_exactly_zero() {
    for seed in 0..25 {
        let mut prog = compile(&discharge_hostile(seed));
        let stats = optimize_program(
            &mut prog,
            &OptimizeOptions::scheme(Scheme::Lls).with_discharge(Discharge::On),
        );
        assert!(
            stats.static_before > 0,
            "hostile seed {seed}: generator produced no checks at all"
        );
        assert_eq!(
            stats.discharged, 0,
            "hostile seed {seed}: value-range tier proved a product-subscript check"
        );
    }
}

#[test]
fn friendly_generator_discharges_every_check() {
    for seed in 0..25 {
        let mut prog = compile(&discharge_friendly(seed));
        let stats = optimize_program(
            &mut prog,
            &OptimizeOptions::scheme(Scheme::Ni).with_discharge(Discharge::On),
        );
        assert!(
            stats.static_before > 0,
            "friendly seed {seed}: generator produced no checks at all"
        );
        assert_eq!(
            stats.discharged, stats.static_before,
            "friendly seed {seed}: some in-bounds check was not proved"
        );
    }
}

/// However many loops come before it, the value-range fixpoint settles
/// each loop in turn: the tier deletes every in-bounds check, keeps the
/// one that catches the overrun in the last loop, and the optimized run
/// traps no later than the naive one.
#[test]
fn every_in_bounds_check_is_discharged_before_an_overrun() {
    for loops in [28, 29, 32, 64, 128, 256] {
        let naive = compile(&loops_then_overrun(loops));
        let expected = run(&naive, &Limits::default())
            .expect("naive run")
            .trap
            .expect("the naive program traps");
        let mut opt = naive.clone();
        let stats = optimize_program(
            &mut opt,
            &OptimizeOptions::scheme(Scheme::Ni).with_discharge(Discharge::On),
        );
        assert_eq!(stats.discharged, stats.static_before - 1, "{loops} loops");
        let kept = nascent_ir::pretty::checks_to_strings(opt.main_function());
        assert_eq!(kept.len(), 1, "{loops} loops: {kept:?}");
        assert_eq!(kept[0].1, expected.check, "{loops} loops");
        let got = run(&opt, &Limits::default())
            .expect("the optimized run detects the overrun")
            .trap
            .expect("the optimized program traps");
        assert!(got.at_progress <= expected.at_progress, "{loops} loops");
    }
}
