//! The metric catalogue: every name the benchmark reports, with its unit,
//! in the order the summary line lists them. `BENCHMARK.json` names the
//! same metrics; a test keeps the two in step.

use crate::ledger::{Ledger, Metric};
use crate::stats::Dist;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_samples_per_s", "1/s"),
    ("ack_p50_us", "us"),
    ("ack_p90_us", "us"),
    ("publish_p50_ms", "ms"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("recovery_s", "s"),
    ("topk_f1", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("disk_bytes_per_sample", "B"),
    ("ok_op_ratio", "ratio"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload does
/// not drive reports `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("stream.busy_s", "s"),
    ("stream.share", "ratio"),
    ("stream.updates_per_sample", "count"),
    ("ascs.busy_s", "s"),
    ("ascs.share", "ratio"),
    ("ascs.updates_per_s", "1/s"),
    ("ascs.insert_ratio", "ratio"),
    ("estimator.self_s", "s"),
    ("estimator.residual_s", "s"),
    ("estimator.top_pairs_us", "us"),
    ("estimator.point_estimate_ns", "ns"),
    ("hyper.solve_ms", "ms"),
    ("serve.self_s", "s"),
    ("serve.try_ingest_us", "us"),
    ("serve.overload_ratio", "ratio"),
    ("serve.generator_late_ms", "ms"),
    ("serve.publish_busy_ms", "ms"),
    ("serve.snapshot_current_ns", "ns"),
    ("serve.read_lag_samples", "count"),
    ("durability.self_s", "s"),
    ("durability.wal_syncs_per_sample", "ratio"),
    ("durability.checkpoint_ack_ms", "ms"),
    ("durability.checkpoint_generations", "count"),
    ("durability.recover_report_ms", "ms"),
    ("durability.replayed_records", "count"),
    ("durability.launch_overhead_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// The end-to-end measurements of one run, in their natural units
/// (seconds for every duration).
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Construction until the first sample is accepted, one per set-up.
    pub setup: Dist,
    /// Samples per second, one per measured pass.
    pub ingest_rate: Dist,
    /// Due time to acceptance, one per ingested sample.
    pub ack: Dist,
    /// Publication of the read view, one per publish.
    pub publish: Dist,
    /// One read (view + top 100 + 256 point estimates), one per read.
    pub read: Dist,
    /// Persisted state to an answering instance, one per recovery.
    pub recovery: Dist,
    /// F1 of the reported ranking against the planted signal.
    pub topk_f1: f64,
    /// Persisted bytes per ingested sample.
    pub disk_bytes_per_sample: f64,
}

impl EndToEnd {
    /// The metrics in [`END_TO_END`] order.
    pub fn metrics(&self, ledger: &Ledger) -> Vec<Metric> {
        let values = [
            self.setup.median(),
            self.ingest_rate.median(),
            self.ack.pct(0.50) * 1e6,
            self.ack.pct(0.90) * 1e6,
            self.publish.pct(0.50) * 1e3,
            self.read.pct(0.50) * 1e6,
            self.read.pct(0.90) * 1e6,
            self.recovery.median(),
            self.topk_f1,
            crate::sys::peak_rss_mb().unwrap_or(f64::NAN),
            self.disk_bytes_per_sample,
            ledger.ok_ratio(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }
}

/// Per-layer values keyed by metric name; missing names report `0`.
pub fn per_layer(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == *name),
            "per-layer metric {name} is not in the catalogue"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}
