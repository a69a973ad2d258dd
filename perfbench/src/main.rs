//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <dense-sim|sparse-url|serve-durable> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <report.json>]
//!           [--scratch <dir>] [--reduced]
//! ```
//!
//! The last line of standard output is the summary
//! `{"correct", "attempted", "failed", "metrics"}`; the full report (run
//! description, sample counts behind every percentile, failures) goes to
//! `--out`, and the traced run's spans next to it. The exit code is 0 only
//! when every operation and correctness check succeeded.

use perfbench::json::Json;
use perfbench::{run, RunConfig, EXTRA_WORKLOADS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--out <path>] [--scratch <dir>] [--reduced]",
        [WORKLOADS, EXTRA_WORKLOADS].concat().join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out: Option<PathBuf> = None;
    let mut scratch = PathBuf::from(".perfbench-tmp");
    let mut reduced = false;
    while let Some(flag) = args.next() {
        if flag == "--reduced" {
            reduced = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--out" => out = Some(PathBuf::from(value)),
            "--scratch" => scratch = PathBuf::from(value),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let rc = RunConfig {
        seed,
        seconds,
        trace,
        plant_defect: false,
        scratch,
        reduced,
    };
    let Some(outcome) = run(&workload, &rc) else {
        return usage(&format!("unknown workload {workload}"));
    };
    let report = &outcome.report;

    let out = out.unwrap_or_else(|| {
        PathBuf::from(".perfbench-out").join(format!(
            "{workload}-seed{seed}-trace{}.json",
            u8::from(trace)
        ))
    });
    let mut full = Json::obj();
    full.set("summary", report.summary())
        .set("detail", report.detail.clone())
        .set("failures", report.ledger.messages().to_vec());
    let spans_path = out.with_extension("spans.json");
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, format!("{full}\n")))
        .and_then(|()| {
            if trace {
                std::fs::write(&spans_path, format!("{}\n", outcome.tracer.to_json()))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", out.display());
    }

    for m in &report.metrics {
        eprintln!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "{workload}: {} operations, {} failed; report {}",
        report.ledger.attempted(),
        report.ledger.failed(),
        out.display()
    );
    println!("{}", report.summary());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
