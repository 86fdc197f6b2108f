//! Two runs with one seed give identical deterministic numbers; another
//! seed changes the inputs but not their size. Runs use a prefix of each
//! plan so the test stays small; `cargo test --release` keeps it quick.

use perfbench::plan::{plan, Workload, SCALING_KS};
use perfbench::run::{run, Options, Report};

/// Deterministic numbers of an untraced and a traced run.
const DETERMINISTIC: [&str; 6] = [
    "checks_eliminated_pct",
    "guard_ops_pct",
    "core.dataflow_iterations",
    "verify.obligations",
    "cback.compiles",
    "driver.cache_reuse",
];

fn runs(workload: Workload, seed: u64) -> (Report, Report) {
    let opts = |trace| Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        items: Some(8),
    };
    let untraced = run(&opts(false)).expect("untraced run");
    let traced = run(&opts(true)).expect("traced run");
    for r in [&untraced, &traced] {
        assert!(
            r.correct && r.failed == 0,
            "{}: {:?}",
            workload.name(),
            r.notes
        );
    }
    (untraced, traced)
}

fn numbers(reports: &(Report, Report)) -> Vec<(&'static str, f64)> {
    DETERMINISTIC
        .iter()
        .map(|name| {
            let v = reports.0.get(name).or_else(|| reports.1.get(name));
            (*name, v.unwrap_or_else(|| panic!("no metric {name}")))
        })
        .collect()
}

#[test]
fn same_seed_same_numbers_other_seed_same_sizes() {
    // the native tier's scratch files stay under the build directory
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-determinism");
    std::fs::create_dir_all(&tmp).expect("scratch dir");
    std::env::set_var("TMPDIR", &tmp);

    for w in Workload::ALL {
        if w == Workload::NativeExec && !nascent_cback::cc_available() {
            eprintln!("native-exec skipped: no C compiler");
            continue;
        }
        let a = numbers(&runs(w, 7));
        let b = numbers(&runs(w, 7));
        assert_eq!(a, b, "{}: same seed, different numbers", w.name());
        if w == Workload::NativeExec {
            assert!(a.iter().any(|(n, v)| *n == "cback.compiles" && *v > 0.0));
        }
        if w == Workload::ServiceMix {
            // each distinct request is sent twice per pass
            assert!(a
                .iter()
                .any(|(n, v)| *n == "driver.cache_reuse" && *v == 8.0));
        }

        let (p, q) = (plan(w, 7), plan(w, 8));
        assert_eq!(p.order.len(), q.order.len(), "{}: request count", w.name());
        assert_eq!(
            p.sources.len(),
            q.sources.len(),
            "{}: program count",
            w.name()
        );
        assert_eq!(p.ks, q.ks, "{}: k values", w.name());
        let changed = p.sources != q.sources || p.order != q.order;
        assert!(changed, "{}: another seed left the inputs alone", w.name());
    }
    let ks = plan(Workload::ScalingCertify, 7).ks;
    assert!(SCALING_KS.iter().all(|k| ks.contains(k)));
    let _ = std::fs::remove_dir_all(&tmp);
}
