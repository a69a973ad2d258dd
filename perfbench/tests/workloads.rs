//! Reduced-size runs of every workload: each prints every named metric
//! with its unit, the traced run reports every layer, and a planted wrong
//! expectation makes the correctness checks fail.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::{run, RunConfig, EXTRA_WORKLOADS, WORKLOADS};
use std::path::PathBuf;

fn config(trace: bool, plant_defect: bool) -> RunConfig {
    RunConfig {
        seed: 7,
        seconds: 0.0,
        trace,
        plant_defect,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests"),
        reduced: true,
    }
}

fn assert_prints(catalogue: &[(&str, &str)], summary: &str) {
    for (name, unit) in catalogue {
        let entry = format!("\"{name}\":{{\"value\":");
        let at = summary
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} missing from {summary}"));
        let rest = &summary[at..];
        let end = rest.find('}').expect("metric object closes");
        assert!(
            rest[..end].ends_with(&format!("\"unit\":\"{unit}\"")),
            "{name} lacks unit {unit}: {}",
            &rest[..end]
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for name in WORKLOADS.iter().chain(EXTRA_WORKLOADS) {
        let outcome = run(name, &config(false, false)).expect("known workload");
        let report = &outcome.report;
        assert!(report.correct(), "{name}: {:?}", report.ledger.messages());
        assert_eq!(report.ledger.failed(), 0);
        assert!(report.ledger.attempted() > 0);
        assert_eq!(report.metric("ok_op_ratio"), Some(1.0));
        for m in &report.metrics {
            assert!(m.value.is_finite() && m.value >= 0.0, "{name}: {m:?}");
        }
        assert_prints(END_TO_END, &report.summary().to_string());
        assert!(
            outcome.tracer.spans().is_empty(),
            "untraced runs record no spans"
        );
    }
}

#[test]
fn traced_runs_report_every_layer() {
    for name in WORKLOADS.iter().chain(EXTRA_WORKLOADS) {
        let outcome = run(name, &config(true, false)).expect("known workload");
        let report = &outcome.report;
        assert!(report.correct(), "{name}: {:?}", report.ledger.messages());
        assert_prints(PER_LAYER, &report.summary().to_string());
        let layers = outcome.tracer.self_time_by_layer();
        for layer in ["stream", "ascs", "estimator", "hyper"] {
            assert!(
                layers.get(layer).is_some_and(|&s| s > 0.0),
                "{name}: no {layer} self time"
            );
        }
        if *name == "serve-durable" {
            for layer in ["serve", "durability"] {
                assert!(
                    layers.get(layer).is_some_and(|&s| s > 0.0),
                    "no {layer} self time"
                );
            }
        }
        assert!(report.metric("stream.busy_s").unwrap() > 0.0);
        assert!(report.metric("ascs.busy_s").unwrap() > 0.0);
    }
}

#[test]
fn a_planted_wrong_expectation_fails_the_run() {
    for name in WORKLOADS.iter().chain(EXTRA_WORKLOADS) {
        let outcome = run(name, &config(false, true)).expect("known workload");
        let report = &outcome.report;
        assert!(
            !report.correct(),
            "{name}: the planted defect went unnoticed"
        );
        assert!(report.ledger.failed() > 0);
        assert!(report.metric("ok_op_ratio").unwrap() < 1.0);
    }
}

#[test]
fn benchmark_json_names_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let compact: String = text.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            compact.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
            "BENCHMARK.json lacks {name} [{unit}]"
        );
    }
    for name in WORKLOADS {
        assert!(
            compact.contains(&format!("\"name\":\"{name}\"")),
            "workload {name}"
        );
    }
    for name in EXTRA_WORKLOADS {
        assert!(
            !compact.contains(&format!("\"name\":\"{name}\"")),
            "ungated {name}"
        );
    }
}
