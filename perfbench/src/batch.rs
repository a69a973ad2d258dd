//! `dense-sim` and `sparse-url`: closed-loop batch ingest through
//! `CovarianceEstimator` on its default hashed path, then a read phase.
//!
//! A run generates one stream of `samples` samples from the seed, then
//! repeats passes over it — a fresh estimator per pass — until the time
//! budget is spent. Every pass is checked against the first (the
//! estimator is deterministic), every read and resume is checked, and the
//! layer-at-a-time replay of the stream must end bit-identical to the
//! estimator.

use crate::ledger::{Ledger, Report};
use crate::metrics::{per_layer, EndToEnd};
use crate::pipeline::{self, LayerTimes};
use crate::stats::{median, Dist};
use crate::trace::Tracer;
use crate::{base_detail, splitmix64, Outcome, RunConfig};
use ascs_core::{AscsConfig, CovarianceEstimator, HyperParameters, Sample, SketchGeometry};
use ascs_datasets::{SimulatedDataset, SimulationSpec, TrillionScaleDataset, TrillionSpec};
use ascs_eval::metrics::f1_at_k;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Activation rate of the url-like co-occurring groups. `url_like` uses
/// 0.02; at 400 samples that leaves a group about eight co-observations,
/// too few for the planted pairs to outrank the popular background pairs,
/// and F1 then swings with the seed. At 0.1 the planted signal is
/// recoverable and F1 is steady across seeds; the expected non-zeros per
/// sample stay at the spec's target.
pub const URL_GROUP_ACTIVATION: f64 = 0.1;

/// Pairs ranked by one read.
pub const READ_TOP: usize = 100;
/// Point estimates per read.
pub const READ_POINTS: usize = 256;

/// Where a batch workload's samples come from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// `SimulatedDataset` with the paper's Section 6.2 defaults at `dim`.
    Simulation {
        /// Features `d`.
        dim: u64,
    },
    /// `TrillionScaleDataset::url_like` at `dim`.
    UrlLike {
        /// Features `d`.
        dim: u64,
    },
}

/// Shape of a batch workload.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// Workload name.
    pub name: &'static str,
    /// Sample generator.
    pub source: Source,
    /// Samples per stream (`T`; it sets the gate schedule).
    pub samples: usize,
    /// Sketch rows `K`.
    pub rows: usize,
    /// Sketch range `R`.
    pub range: usize,
    /// Top-k tracker capacity.
    pub top_k: usize,
    /// A publish (full ranked report) every this many samples.
    pub publish_every: usize,
    /// Reads after each pass.
    pub reads_per_pass: usize,
    /// Constructions timed for `setup_s` in each pass (spread over the
    /// run, so the median spans the host's slow and fast phases).
    pub setup_per_pass: usize,
    /// `resume` calls timed per pass for `recovery_s`.
    pub resumes_per_pass: usize,
    /// Measured passes even when the time budget is spent.
    pub min_passes: usize,
}

impl BatchSpec {
    /// `dense-sim`: d = 256 simulation, 32,640 pair updates per sample.
    pub fn dense_sim() -> Self {
        Self {
            name: "dense-sim",
            source: Source::Simulation { dim: 256 },
            samples: 300,
            rows: 5,
            range: 1 << 12,
            top_k: 1000,
            publish_every: 8,
            reads_per_pass: 400,
            setup_per_pass: 100,
            resumes_per_pass: 20,
            min_passes: 3,
        }
    }

    /// `sparse-url`: url-like surrogate at d = 10⁶ into a 5 × 2¹⁸ sketch.
    pub fn sparse_url() -> Self {
        Self {
            name: "sparse-url",
            source: Source::UrlLike { dim: 1_000_000 },
            samples: 400,
            rows: 5,
            range: 1 << 18,
            top_k: 1000,
            publish_every: 8,
            reads_per_pass: 400,
            setup_per_pass: 2,
            resumes_per_pass: 3,
            min_passes: 3,
        }
    }

    /// A reduced-size variant for the benchmark's own tests.
    pub fn reduced(mut self) -> Self {
        self.source = match self.source {
            Source::Simulation { .. } => Source::Simulation { dim: 32 },
            Source::UrlLike { .. } => Source::UrlLike { dim: 20_000 },
        };
        self.samples = 60;
        self.range = 1 << 10;
        self.top_k = 100;
        self.reads_per_pass = 20;
        self.setup_per_pass = 2;
        self.resumes_per_pass = 2;
        self.min_passes = 1;
        self
    }
}

/// One generated stream with its ground truth.
pub struct Input {
    /// Estimator configuration (hash seed derived from the run seed).
    pub config: AscsConfig,
    /// The stream.
    pub samples: Vec<Sample>,
    /// Planted signal pair keys.
    pub signal: HashSet<u64>,
    /// Keys whose point estimates the correctness checks compare.
    pub keys: Vec<u64>,
}

/// Probe keys for the correctness checks: up to half planted signal, the
/// rest spread over the pair universe by the seed.
pub fn probe_keys(signal: &HashSet<u64>, pairs: u64, seed: u64, n: usize) -> Vec<u64> {
    let mut sig: Vec<u64> = signal.iter().copied().collect();
    sig.sort_unstable();
    let mut keys: Vec<u64> = sig.into_iter().take(n / 2).collect();
    let mut state = seed ^ 0x6B65_7973;
    while keys.len() < n {
        state = splitmix64(state);
        keys.push(state % pairs);
    }
    keys
}

impl Input {
    /// Generates the stream of `spec` from `seed`.
    pub fn generate(spec: &BatchSpec, seed: u64) -> Self {
        let geometry = SketchGeometry::new(spec.rows, spec.range);
        let t = spec.samples as u64;
        let (config, samples, signal) = match spec.source {
            Source::Simulation { dim } => {
                let data = SimulatedDataset::new(SimulationSpec {
                    dim,
                    seed,
                    ..SimulationSpec::paper_default()
                });
                let mut config = AscsConfig::recommended(dim, t, geometry);
                config.alpha = data.realised_alpha();
                config.signal_strength = data.spec().rho_min;
                let samples = (0..t).map(|i| data.sample_at(i)).collect();
                (config, samples, data.signal_keys())
            }
            Source::UrlLike { dim } => {
                let data = TrillionScaleDataset::new(TrillionSpec {
                    group_activation: URL_GROUP_ACTIVATION,
                    ..TrillionSpec::url_like(dim, seed)
                });
                let signal = data.signal_keys();
                let mut config = AscsConfig::recommended(dim, t, geometry);
                config.alpha = (signal.len() as f64 / data.num_pairs() as f64).max(1e-9);
                let samples = (0..t).map(|i| data.sample_at(i)).collect();
                (config, samples, signal)
            }
        };
        let config = AscsConfig {
            seed: splitmix64(seed),
            top_k_capacity: spec.top_k,
            ..config
        };
        let signal: HashSet<u64> = signal.into_iter().collect();
        let keys = probe_keys(&signal, config.num_pairs(), seed, 4096);
        Self {
            config,
            samples,
            signal,
            keys,
        }
    }

    /// Keys whose estimates the bit-identity check compares: the whole
    /// universe when it is small, else the probe keys.
    pub fn compare_keys(&self) -> Vec<u64> {
        let p = self.config.num_pairs();
        if p <= 1 << 20 {
            (0..p).collect()
        } else {
            self.keys.clone()
        }
    }
}

/// The point-query keys of successive reads: a seeded stream that never
/// repeats within a run, so a read's cost does not depend on which of its
/// keys an earlier read left in cache.
pub struct ReadKeys {
    state: u64,
    pairs: u64,
}

impl ReadKeys {
    /// The key stream of run seed `seed` over `pairs` pair keys.
    pub fn new(seed: u64, pairs: u64) -> Self {
        Self {
            state: splitmix64(seed ^ 0x7265_6164),
            pairs,
        }
    }

    /// The [`READ_POINTS`] keys of the next read.
    pub fn next_read(&mut self) -> impl Iterator<Item = u64> + '_ {
        (0..READ_POINTS).map(|_| {
            self.state = splitmix64(self.state);
            self.state % self.pairs
        })
    }
}

/// F1 at `k = |signal|` of a ranking against the planted signal.
pub fn topk_f1(ranking: &[u64], signal: &HashSet<u64>) -> f64 {
    f1_at_k(ranking, signal, signal.len().min(ranking.len()))
}

/// The top list (keys and estimate bits) plus the estimate bits of the
/// first [`READ_POINTS`] probe keys: equal fingerprints mean equal answers.
fn fingerprint(est: &CovarianceEstimator, keys: &[u64]) -> Vec<u64> {
    let cap = est.config().top_k_capacity;
    let mut out: Vec<u64> = est
        .top_pairs(cap)
        .iter()
        .flat_map(|p| [p.key, p.estimate.to_bits()])
        .collect();
    out.extend(
        keys.iter()
            .take(READ_POINTS)
            .map(|&k| est.estimate_key(k).to_bits()),
    );
    out
}

/// One closed-loop pass over the stream with a fresh estimator. Returns
/// the estimator and the ingest time (publishes excluded), recording acks
/// and publishes into `e2e` when given.
fn ingest_pass(
    spec: &BatchSpec,
    input: &Input,
    ledger: &mut Ledger,
    mut e2e: Option<&mut EndToEnd>,
) -> (CovarianceEstimator, f64) {
    let mut est =
        CovarianceEstimator::new_or_fallback(input.config, ascs_core::SketchBackend::Ascs).0;
    let cap = input.config.top_k_capacity;
    let mut publish_s = 0.0;
    let start = Instant::now();
    for (i, sample) in input.samples.iter().enumerate() {
        let t0 = Instant::now();
        let accepted = est.try_process_sample(sample);
        let ack = t0.elapsed().as_secs_f64();
        ledger.record("process_sample", accepted);
        let publish = if (i + 1).is_multiple_of(spec.publish_every) {
            let p0 = Instant::now();
            black_box(est.top_pairs(cap));
            let p = p0.elapsed().as_secs_f64();
            publish_s += p;
            ledger.ok();
            Some(p)
        } else {
            None
        };
        if let Some(e2e) = e2e.as_deref_mut() {
            e2e.ack.push(ack);
            if let Some(p) = publish {
                e2e.publish.push(p);
            }
        }
    }
    black_box(est.top_pairs(1));
    let ingest_s = start.elapsed().as_secs_f64() - publish_s;
    (est, ingest_s)
}

/// The read phase: each read ranks the top [`READ_TOP`] pairs and answers
/// [`READ_POINTS`] point estimates.
fn read_phase(
    est: &CovarianceEstimator,
    read_keys: &mut ReadKeys,
    reads: usize,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    mut dist: Option<&mut Dist>,
) {
    for r in 0..reads {
        tracer.set_request(r as u64);
        let root = tracer.begin("estimator.read");
        let t0 = Instant::now();
        let top = tracer.span("estimator.top_pairs", || est.top_pairs(READ_TOP));
        let open = tracer.begin("estimator.estimate_key");
        let mut acc = 0.0;
        for key in read_keys.next_read() {
            acc += est.estimate_key(key);
        }
        tracer.end(open);
        let d = t0.elapsed().as_secs_f64();
        tracer.end(root);
        if let Some(dist) = dist.as_deref_mut() {
            dist.push(d);
        }
        ledger.check(
            "read",
            if top.is_empty() || !acc.is_finite() {
                Err(format!("{} pairs ranked, point sum {acc}", top.len()))
            } else {
                Ok(())
            },
        );
    }
}

/// Times `reps` constructions (Algorithm 3 included), each until the
/// first sample is accepted.
fn setup(input: &Input, reps: usize, ledger: &mut Ledger, tracer: &mut Tracer, dist: &mut Dist) {
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut est = pipeline::construct(&input.config, tracer);
        let open = tracer.begin("estimator.process_sample");
        let accepted = est.try_process_sample(&input.samples[0]);
        tracer.end(open);
        dist.push(t0.elapsed().as_secs_f64());
        ledger.record("first sample", accepted);
    }
}

/// Runs a batch workload.
pub fn run(spec: &BatchSpec, rc: &RunConfig) -> Outcome {
    let input = Input::generate(spec, rc.seed);
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new(rc.trace);
    let mut e2e = EndToEnd::default();
    let t = input.samples.len() as f64;

    // Warm-up pass: fills caches, fixes the reference answers and F1.
    let (warm, _) = ingest_pass(spec, &input, &mut ledger, None);
    let mut read_keys = ReadKeys::new(rc.seed, input.config.num_pairs());
    read_phase(
        &warm,
        &mut read_keys,
        spec.reads_per_pass,
        &mut ledger,
        &mut Tracer::new(false),
        None,
    );
    let reference = fingerprint(&warm, &input.keys);
    let ranking: Vec<u64> = warm.top_pairs(spec.top_k).iter().map(|p| p.key).collect();
    e2e.topk_f1 = topk_f1(&ranking, &input.signal);
    let hyper = *warm
        .hyperparameters()
        .expect("the ASCS backend has hyperparameters");
    let (inserted, skipped) = warm.update_counts();
    drop(warm);

    let compare_keys = input.compare_keys();
    let mut layer_passes: Vec<(f64, LayerTimes)> = Vec::new();
    let mut checkpoint_bytes = 0usize;
    let start = Instant::now();
    let mut passes = 0usize;
    let mut last = None;
    while passes < spec.min_passes || start.elapsed().as_secs_f64() < rc.seconds {
        passes += 1;
        setup(
            &input,
            spec.setup_per_pass,
            &mut ledger,
            &mut tracer,
            &mut e2e.setup,
        );
        let (est, ingest_s) = ingest_pass(spec, &input, &mut ledger, Some(&mut e2e));
        e2e.ingest_rate.push(t / ingest_s);
        ledger.check(
            "pass answers match the first pass",
            if fingerprint(&est, &input.keys) == reference {
                Ok(())
            } else {
                Err(format!("pass {passes} diverged"))
            },
        );
        if rc.trace {
            let times = check_layers(
                &input,
                &hyper,
                &est,
                &compare_keys,
                rc,
                &mut ledger,
                &mut tracer,
            );
            layer_passes.push((ingest_s, times));
        }
        read_phase(
            &est,
            &mut read_keys,
            spec.reads_per_pass,
            &mut ledger,
            &mut tracer,
            Some(&mut e2e.read),
        );

        // Recovery: the estimator's checkpoint resumed into an instance
        // that answers exactly as the original.
        let mut bytes = Vec::new();
        if ledger
            .record("checkpoint", est.checkpoint(&mut bytes))
            .is_some()
        {
            checkpoint_bytes = bytes.len();
            for _ in 0..spec.resumes_per_pass {
                let t0 = Instant::now();
                let resumed = CovarianceEstimator::resume(&mut bytes.as_slice());
                let d = t0.elapsed().as_secs_f64();
                if let Some(resumed) = ledger.record("resume", resumed) {
                    e2e.recovery.push(d);
                    ledger.check(
                        "resumed estimator answers as the original",
                        if fingerprint(&resumed, &input.keys) == reference {
                            Ok(())
                        } else {
                            Err("answers differ after resume".into())
                        },
                    );
                }
            }
        }
        last = Some(est);
    }
    let measured_s = start.elapsed().as_secs_f64();
    e2e.disk_bytes_per_sample = checkpoint_bytes as f64 / t;

    // Untraced runs still check the layer decomposition, once, untimed.
    if let (false, Some(est)) = (rc.trace, last) {
        check_layers(
            &input,
            &hyper,
            &est,
            &compare_keys,
            rc,
            &mut ledger,
            &mut tracer,
        );
    }

    let mut detail = base_detail(spec.name, rc, &input.config, input.samples.len());
    detail
        .set("passes", passes)
        .set("measured_s", measured_s)
        .set("signal_pairs", input.signal.len())
        .set("hyper_t0", hyper.t0)
        .set("hyper_theta", hyper.theta)
        .set("gate_inserted", inserted)
        .set("gate_skipped", skipped)
        .set("checkpoint_bytes", checkpoint_bytes)
        .set("setup_s", e2e.setup.summary())
        .set("ingest_samples_per_s", e2e.ingest_rate.summary())
        .set("ack_s", e2e.ack.summary())
        .set("publish_s", e2e.publish.summary())
        .set("read_s", e2e.read.summary())
        .set("recovery_s", e2e.recovery.summary());

    let metrics = if rc.trace {
        let mut v = BTreeMap::new();
        layer_values(&mut v, &layer_passes, inserted, skipped, t);
        let names = tracer.self_time_by_name();
        v.insert(
            "estimator.top_pairs_us",
            median(&tracer.durations("estimator.top_pairs")) * 1e6,
        );
        v.insert(
            "estimator.point_estimate_ns",
            median(&tracer.durations("estimator.estimate_key")) / READ_POINTS as f64 * 1e9,
        );
        v.insert(
            "hyper.solve_ms",
            median(&tracer.durations("hyper.solve")) * 1e3,
        );
        v.insert("trace.spans", tracer.spans().len() as f64);
        detail.set("self_time_by_layer", layer_json(&tracer)).set(
            "self_time_by_name",
            crate::json::Json::Obj(
                names
                    .iter()
                    .map(|(k, v)| (k.to_string(), (*v).into()))
                    .collect(),
            ),
        );
        per_layer(&v)
    } else {
        e2e.metrics(&ledger)
    };
    Outcome {
        report: Report {
            ledger,
            metrics,
            detail,
        },
        tracer,
    }
}

/// Fills the stream / ascs / estimator / trace metrics from the
/// (untraced estimator time, traced layer times) of each pass.
pub fn layer_values(
    v: &mut BTreeMap<&'static str, f64>,
    passes: &[(f64, LayerTimes)],
    inserted: u64,
    skipped: u64,
    samples: f64,
) {
    let med =
        |f: &dyn Fn(&(f64, LayerTimes)) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let offered = (inserted + skipped).max(1) as f64;
    v.insert("stream.busy_s", med(&|(_, l)| l.stream_s));
    v.insert("stream.share", med(&|(_, l)| l.stream_s / l.wall_s));
    v.insert(
        "stream.updates_per_sample",
        med(&|(_, l)| l.updates as f64 / samples),
    );
    v.insert("ascs.busy_s", med(&|(_, l)| l.ascs_s));
    v.insert("ascs.share", med(&|(_, l)| l.ascs_s / l.wall_s));
    v.insert(
        "ascs.updates_per_s",
        med(&|(_, l)| l.updates as f64 / l.ascs_s),
    );
    v.insert("ascs.insert_ratio", inserted as f64 / offered);
    v.insert(
        "estimator.self_s",
        med(&|(_, l)| l.wall_s - l.stream_s - l.ascs_s),
    );
    v.insert(
        "estimator.residual_s",
        med(&|(e, l)| e - l.stream_s - l.ascs_s),
    );
    v.insert("trace.overhead_s", med(&|(e, l)| l.wall_s - e));
}

/// Self time per layer as a JSON object (seconds).
pub fn layer_json(tracer: &Tracer) -> crate::json::Json {
    crate::json::Json::Obj(
        tracer
            .self_time_by_layer()
            .iter()
            .map(|(k, v)| (k.to_string(), (*v).into()))
            .collect(),
    )
}

/// Replays the stream one layer at a time (spans on when tracing) and
/// checks the result bit for bit against `est`. A planted defect adds one
/// exploration-phase update to the replayed sketch first.
pub fn check_layers(
    input: &Input,
    hyper: &HyperParameters,
    est: &CovarianceEstimator,
    keys: &[u64],
    rc: &RunConfig,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> LayerTimes {
    let (mut sketch, times) = pipeline::run_layers(&input.config, hyper, &input.samples, tracer);
    if rc.plant_defect {
        let gate = sketch.sample_gate(1);
        sketch.offer_gated(0, 1.0, gate);
    }
    ledger.check(
        "layers bit-identical to the estimator",
        pipeline::compare(est, &sketch, keys),
    );
    times
}
