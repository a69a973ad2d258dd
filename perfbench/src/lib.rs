//! End-to-end and per-layer benchmark of the ASCS workspace.
//!
//! Three workloads drive the public functions of the `stream`, `ascs`,
//! `hyper`, `estimator`, `serve` and `durability` layers of `ascs_core`
//! from one generator thread, check every output, and report the metrics
//! of [`metrics::END_TO_END`] (tracing off) or [`metrics::PER_LAYER`]
//! (the separate traced run). See `README.md` next to this crate.

pub mod batch;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod pipeline;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;

use json::Json;
use ledger::{Ledger, Metric, Report};
use std::path::PathBuf;
use trace::Tracer;

/// The workloads `BENCHMARK.json` gates on, by name.
pub const WORKLOADS: &[&str] = &["dense-sim", "serve-durable"];

/// Workloads that run on request but are not gated: `sparse-url`'s
/// speed is set by whether its 50 MB working set stays in the host's
/// shared last-level cache, which on a shared VM flips between runs of
/// the same code (see `README.md`).
pub const EXTRA_WORKLOADS: &[&str] = &["sparse-url"];

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Time budget of the measured phase, in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Plant a wrong expectation in the correctness checks (they must
    /// then fail); used by the benchmark's own tests.
    pub plant_defect: bool,
    /// Parent of the temporary durable data directories.
    pub scratch: PathBuf,
    /// Run the reduced-size variant of the workload.
    pub reduced: bool,
}

/// The report plus the spans recorded on the way.
pub struct Outcome {
    /// What the run measured and checked.
    pub report: Report,
    /// The span recorder (empty when tracing was off).
    pub tracer: Tracer,
}

impl Outcome {
    /// A run that could not start: every metric unmeasured, not correct.
    pub fn failed(ledger: Ledger, tracer: Tracer) -> Self {
        let catalogue = if tracer.enabled() {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        };
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: f64::NAN,
                unit,
            })
            .collect();
        Self {
            report: Report {
                ledger,
                metrics,
                detail: Json::obj(),
            },
            tracer,
        }
    }
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, rc: &RunConfig) -> Option<Outcome> {
    let batch = |spec: batch::BatchSpec| {
        let spec = if rc.reduced { spec.reduced() } else { spec };
        batch::run(&spec, rc)
    };
    Some(match name {
        "dense-sim" => batch(batch::BatchSpec::dense_sim()),
        "sparse-url" => batch(batch::BatchSpec::sparse_url()),
        "serve-durable" => {
            let spec = serve::ServeSpec::serve_durable();
            let spec = if rc.reduced { spec.reduced() } else { spec };
            serve::run(&spec, rc)
        }
        _ => return None,
    })
}

/// SplitMix64 step, used to derive seeds and probe keys.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What every report records about the run and its machine.
pub fn base_detail(
    workload: &str,
    rc: &RunConfig,
    config: &ascs_core::AscsConfig,
    samples: usize,
) -> Json {
    let mut o = Json::obj();
    o.set("workload", workload)
        .set("seed", rc.seed)
        .set("seconds", rc.seconds)
        .set("trace", rc.trace)
        .set("reduced", rc.reduced)
        .set(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .set("available_parallelism", sys::available_parallelism())
        .set("samples_per_stream", samples)
        .set("dim", config.dim)
        .set("pairs", config.num_pairs())
        .set("sketch_rows", config.geometry.rows)
        .set("sketch_range", config.geometry.range)
        .set("top_k_capacity", config.top_k_capacity);
    o
}
