//! Operation accounting and the run report.
//!
//! Every ingest, publish, read, cold start and correctness check is one
//! attempted operation; a typed error, a timeout or a failed check is a
//! failed one. The report's last line is the summary the harness reads.

use crate::json::Json;

/// Attempted and failed operations, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Ledger {
    /// Records an operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Records an operation that failed.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < 16 {
            let what = what.into();
            eprintln!("perfbench: FAILED: {what}");
            self.messages.push(what);
        }
    }

    /// Records a correctness check: `Err` counts as a failure.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.ok(),
            Err(why) => self.fail(format!("{what}: {why}")),
        }
    }

    /// Records an operation from its result.
    pub fn record<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.ok();
                Some(v)
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Successful over attempted operations.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// The first recorded failure messages.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `us`, `ns`, `1/s`, `count`, `ratio`, `MiB`, ...).
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// The operation ledger.
    pub ledger: Ledger,
    /// The reported metrics (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Run description and sample counts behind every figure.
    pub detail: Json,
}

impl Report {
    /// Whether every operation and check succeeded and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.ledger.failed() == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line summary: `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let mut v = Json::obj();
            v.set("value", m.value).set("unit", m.unit);
            metrics.set(m.name, v);
        }
        let mut o = Json::obj();
        o.set("correct", self.correct())
            .set("attempted", self.ledger.attempted())
            .set("failed", self.ledger.failed())
            .set("metrics", metrics);
        o
    }
}
