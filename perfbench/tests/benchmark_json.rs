//! `BENCHMARK.json` and `perfbench/workloads.json` name exactly the
//! workloads and metrics the benchmark reports, with the same units.

use nascent_driver::json::{parse, Json};
use perfbench::layers::LAYERS;
use perfbench::plan::Workload;
use perfbench::run::{run, Options};

fn read(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn list<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    match v.get(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("`{key}` is not a list"),
    }
}

fn field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no `{key}`"))
}

fn names_and_units(v: &Json, key: &str) -> Vec<(String, String)> {
    let mut out: Vec<_> = list(v, key)
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect();
    out.sort();
    out
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let bench = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let workloads: Vec<&str> = list(&bench, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);

    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let report = run(&Options {
            workload: Workload::ServiceMix,
            seed: 1,
            seconds: 0.0,
            trace,
            items: Some(8),
        })
        .expect("run");
        let mut reported: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        reported.sort();
        assert_eq!(names_and_units(&bench, key), reported, "{key}");
    }
}

#[test]
fn workloads_json_records_every_workload_and_layer() {
    let design = read(concat!(env!("CARGO_MANIFEST_DIR"), "/workloads.json"));
    let recorded: Vec<&str> = list(&design, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(recorded, expected);
    for w in list(&design, "workloads") {
        for key in ["why", "input", "client_model"] {
            field(w, key);
        }
        assert!(w.get("clients").and_then(Json::as_i64).is_some());
        let shares = w.get("layer_share_pct").expect("layer shares");
        for layer in LAYERS {
            assert!(
                shares.get(layer).and_then(Json::as_f64).is_some(),
                "{layer}"
            );
        }
    }
    let layers: Vec<&str> = list(&design, "layers")
        .iter()
        .map(|l| field(l, "layer"))
        .collect();
    assert_eq!(layers[..LAYERS.len()], LAYERS);
    assert_eq!(layers[LAYERS.len()..], ["obs"]);
}
