//! The benchmark's self-test. A short run of each workload must print
//! every metric `BENCHMARK.json` names, with its unit; repeat its
//! deterministic counters across runs of one seed, traced or not; and
//! count an injected wrong output as a failed operation.
//!
//! The workloads are full-size, so run it optimised:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{run, Config, MetricDef, Outcome, Workload, END_TO_END, PER_LAYER};
use serde::Value;

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
}

fn text(v: &Value) -> String {
    v.as_str().expect("a string").to_owned()
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&json).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of each entry of a `BENCHMARK.json` metric list.
fn listed(manifest: &Value, list: &str) -> Vec<(String, String)> {
    field(manifest, list)
        .as_seq()
        .expect("a list")
        .iter()
        .map(|m| (text(field(m, "name")), text(field(m, "unit"))))
        .collect()
}

fn catalogue(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_owned(), d.unit.to_owned()))
        .collect()
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let manifest = benchmark_json();
    assert_eq!(listed(&manifest, "end_to_end"), catalogue(END_TO_END));
    assert_eq!(listed(&manifest, "per_layer"), catalogue(PER_LAYER));
    let workloads: Vec<String> = field(&manifest, "workloads")
        .as_seq()
        .expect("a list")
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

fn short(workload: Workload, trace: bool, inject_fault: bool) -> Outcome {
    run(&Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        inject_fault,
    })
}

/// The result line parses and lists exactly `defs`, with their units.
fn assert_prints(outcome: &Outcome, defs: &[MetricDef]) {
    let line: Value = serde_json::from_str(&outcome.result_json()).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_map()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let printed: Vec<(String, String)> = field(&line, "metrics")
        .as_map()
        .expect("an object")
        .iter()
        .map(|(name, m)| {
            assert!(field(m, "value").as_num().is_some(), "{name} has no number");
            (name.clone(), text(field(m, "unit")))
        })
        .collect();
    assert_eq!(printed, catalogue(defs));
}

/// Checks one workload; returns its untraced outcome.
fn check(workload: Workload) -> Outcome {
    let plain = short(workload, false, false);
    assert!(plain.correct(), "{:?}", plain.failures);
    assert_prints(&plain, END_TO_END);
    for (name, value) in &plain.metrics {
        assert!(*value > 0.0, "end-to-end {name} reads {value}");
    }

    let traced = short(workload, true, false);
    assert!(traced.correct(), "{:?}", traced.failures);
    assert_prints(&traced, PER_LAYER);

    assert!(!plain.counters.is_empty());
    for (name, value) in &plain.counters {
        let again = traced.counters.get(name).copied();
        assert_eq!(
            again.map(f64::to_bits),
            Some(value.to_bits()),
            "{name}: {value} untraced, {again:?} in the traced run"
        );
    }
    assert!(traced.counters.contains_key("trace.events_per_host_s"));

    let faulty = short(workload, false, true);
    assert!(
        !faulty.correct() && faulty.failed >= 1,
        "injected fault went unnoticed"
    );
    assert!(faulty.failed < faulty.attempted);
    plain
}

#[test]
fn fleet() {
    let plain = check(Workload::Fleet);
    assert!(
        plain.counters["cluster.migrations"] > 0.0,
        "the controller moves VMs"
    );
}

#[test]
fn hosts() {
    check(Workload::Hosts);
}

#[test]
fn serve() {
    check(Workload::Serve);
}
