//! `serve-durable`: a durable `ServingEstimator` driven as an open loop.
//!
//! Samples are sent at a fixed rate from one generator thread, which also
//! publishes a snapshot every `publish_every` samples and interleaves
//! reads. After each pass the instance is crashed (`simulate_crash`) and
//! cold-started several times, each time from a byte-identical copy of
//! the crashed directory. Every published snapshot is checked bit for bit
//! against a sequential `ReplayOracle` replay at its epoch, and every cold
//! start must reach the crashed epoch with a bit-identical merged table.

use crate::batch::{
    check_layers, layer_json, layer_values, probe_keys, topk_f1, Input, ReadKeys, READ_TOP,
};
use crate::ledger::{Ledger, Report};
use crate::metrics::{per_layer, EndToEnd};
use crate::pipeline;
use crate::stats::{median, Dist};
use crate::sys::{self, TempDir};
use crate::trace::Tracer;
use crate::{base_detail, splitmix64, Outcome, RunConfig};
use ascs_core::codec::{DurableFile, DurableFs};
use ascs_core::serve::Snapshot;
use ascs_core::{
    AscsConfig, CovarianceEstimator, DurabilityOptions, HyperParameters, IngestError, NoFaults,
    ServeOptions, ServingEstimator, SketchBackend, SketchGeometry,
};
use ascs_datasets::{SurrogateDataset, SurrogateSpec};
use ascs_testkit::ReplayOracle;
use std::collections::{BTreeMap, HashSet};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of the durable serving workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Features `d` of the rcv1 surrogate.
    pub dim: u64,
    /// Samples per stream (`T`).
    pub samples: usize,
    /// Sketch rows `K`.
    pub rows: usize,
    /// Sketch range `R`.
    pub range: usize,
    /// Top-k tracker capacity.
    pub top_k: usize,
    /// Open-loop send rate, samples per second.
    pub rate: f64,
    /// A `refresh_snapshot` every this many samples.
    pub publish_every: usize,
    /// A read every this many samples.
    pub read_every: usize,
    /// Durable checkpoint cadence (`DurabilityOptions::checkpoint_every`).
    pub checkpoint_every: u64,
    /// Cold starts per pass.
    pub cold_starts: usize,
    /// Launches timed for `setup_s` in each pass.
    pub setup_per_pass: usize,
    /// Samples sent by the untimed warm-up instance.
    pub warmup_samples: usize,
    /// Measured passes even when the time budget is spent.
    pub min_passes: usize,
}

impl ServeSpec {
    /// `serve-durable`: rcv1 surrogate at d = 1000, 1000 samples/s.
    pub fn serve_durable() -> Self {
        Self {
            name: "serve-durable",
            dim: 1000,
            // Three cadence checkpoints, then a 1000-record WAL tail for
            // every cold start to replay.
            samples: 3 * 1024 + 1000,
            rows: 5,
            range: 1 << 14,
            top_k: 1000,
            rate: 1000.0,
            publish_every: 64,
            read_every: 4,
            checkpoint_every: DurabilityOptions::new("").checkpoint_every,
            cold_starts: 3,
            setup_per_pass: 3,
            warmup_samples: 256,
            min_passes: 2,
        }
    }

    /// A reduced-size variant for the benchmark's own tests.
    pub fn reduced(mut self) -> Self {
        self.dim = 60;
        self.samples = 300;
        self.range = 1 << 10;
        self.top_k = 100;
        self.rate = 5000.0;
        self.publish_every = 32;
        self.read_every = 4;
        self.checkpoint_every = 128;
        self.cold_starts = 2;
        self.setup_per_pass = 2;
        self.warmup_samples = 32;
        self.min_passes = 1;
        self
    }
}

/// The rcv1 surrogate stream of `spec` from `seed`.
fn generate(spec: &ServeSpec, seed: u64) -> Input {
    let data = SurrogateDataset::new(SurrogateSpec {
        seed,
        ..SurrogateSpec::rcv1().scaled(spec.dim, spec.samples as u64)
    });
    let geometry = SketchGeometry::new(spec.rows, spec.range);
    let mut config = AscsConfig::recommended(spec.dim, spec.samples as u64, geometry);
    config.alpha = data.spec().alpha;
    config.signal_strength = data.spec().rho_range.0;
    config.seed = splitmix64(seed);
    config.top_k_capacity = spec.top_k;
    let signal: HashSet<u64> = data.signal_keys().into_iter().collect();
    let keys = probe_keys(&signal, config.num_pairs(), seed, 4096);
    Input {
        config,
        samples: data.all_samples(),
        signal,
        keys,
    }
}

/// The durability layer's filesystem with the cost model of a tmpfs.
/// Written bytes are kept in memory and reach the data directory when the
/// file is closed — before any rename, and when a crashed instance drops
/// its files — so every reader of the directory (recovery, the cold-start
/// copies) sees exactly what a tmpfs would hold after the process died.
/// `fsync` does nothing, as on a tmpfs; the store still calls and counts
/// every sync. On a shared VM disk the per-record write and fsync would
/// measure the host's journal and disk, not this program.
pub struct TmpfsSyncFs;

struct TmpfsFile {
    path: std::path::PathBuf,
    bytes: Vec<u8>,
}

impl Write for TmpfsFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl DurableFile for TmpfsFile {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for TmpfsFile {
    fn drop(&mut self) {
        // A failed write leaves a short file, which recovery treats as a
        // torn tail and the cold-start checks then report.
        let _ = std::fs::write(&self.path, &self.bytes);
    }
}

impl DurableFs for TmpfsSyncFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn DurableFile>> {
        std::fs::File::create(path)?;
        Ok(Box::new(TmpfsFile {
            path: path.to_path_buf(),
            bytes: Vec::new(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }
}

/// `ServingEstimator::launch_durable` with default `ServeOptions`-style
/// options, the spec's checkpoint cadence, default `DurabilityOptions`
/// otherwise (fsync on every record), over [`TmpfsSyncFs`].
fn launch(
    config: &AscsConfig,
    hyper: HyperParameters,
    opts: ServeOptions,
    spec: &ServeSpec,
    dir: &Path,
) -> Result<ServingEstimator, ascs_core::DurabilityError> {
    ServingEstimator::launch_durable_with_faults(
        *config,
        Some(hyper),
        opts,
        DurabilityOptions {
            checkpoint_every: spec.checkpoint_every,
            ..DurabilityOptions::new(dir)
        },
        Arc::new(NoFaults),
        Arc::new(TmpfsSyncFs),
    )
}

/// Spins (yielding to runnable threads) until `due`. The generator never
/// sleeps: a sleeping vCPU must be woken by the host, and on a shared VM
/// that wake-up latency swings with the neighbours' load.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Bit-identity of a served snapshot with the sequential replay at the
/// same epoch: epoch, merged table, gate counters and top list.
/// `expected_table` lets a test plant a wrong expectation.
pub fn check_snapshot(
    snapshot: &Snapshot,
    oracle: &ReplayOracle,
    expected_table: Option<&[f64]>,
) -> Result<(), String> {
    if snapshot.epoch() != oracle.samples() {
        return Err(format!(
            "epoch {} vs replay {}",
            snapshot.epoch(),
            oracle.samples()
        ));
    }
    let truth = oracle.merged_sketch();
    let expected = expected_table.unwrap_or(truth.table());
    let served = snapshot.sketch().table();
    if served.len() != expected.len()
        || served
            .iter()
            .zip(expected)
            .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err(format!(
            "merged table differs at epoch {}",
            snapshot.epoch()
        ));
    }
    if snapshot.update_counts() != oracle.update_counts() {
        return Err(format!(
            "gate counters differ at epoch {}",
            snapshot.epoch()
        ));
    }
    let top: Vec<(u64, u64)> = snapshot
        .top_pairs(usize::MAX)
        .iter()
        .map(|p| (p.key, p.estimate.to_bits()))
        .collect();
    let want: Vec<(u64, u64)> = oracle
        .top_pairs()
        .iter()
        .map(|&(k, v)| (k, v.to_bits()))
        .collect();
    if top != want {
        return Err(format!("top list differs at epoch {}", snapshot.epoch()));
    }
    Ok(())
}

/// The table a check expects, with one bit flipped when the run plants a
/// defect.
fn expected_table(oracle: &ReplayOracle, plant: bool) -> Option<Vec<f64>> {
    plant.then(|| {
        let mut table = oracle.merged_sketch().table().to_vec();
        table[0] = f64::from_bits(table[0].to_bits() ^ 1);
        table
    })
}

/// Per-pass observations that only the traced run reports.
#[derive(Default)]
struct Layers {
    try_ingest: Dist,
    checkpoint_ack: Dist,
    late: Dist,
    publish_busy: Dist,
    lag: Dist,
    overloads: u64,
    sent: u64,
    wal_syncs_per_sample: Dist,
    generations: Dist,
    report_ms: Dist,
    replayed: Dist,
    launch_overhead_ms: Dist,
}

struct ServeRun<'a> {
    spec: &'a ServeSpec,
    input: &'a Input,
    hyper: HyperParameters,
    opts: ServeOptions,
    ledger: Ledger,
    tracer: Tracer,
    e2e: EndToEnd,
    layers: Layers,
    read_keys: ReadKeys,
    plant: bool,
}

impl ServeRun<'_> {
    fn launch(&mut self, dir: &Path) -> Option<ServingEstimator> {
        let launched = launch(&self.input.config, self.hyper, self.opts, self.spec, dir);
        self.ledger.record("launch_durable", launched)
    }

    /// Times `setup_per_pass` set-ups: the Algorithm 3 solve and a launch
    /// on an empty directory, until the first sample is acknowledged.
    fn setup(&mut self, tmp: &TempDir, pass: usize) {
        for r in 0..self.spec.setup_per_pass {
            let dir = tmp.child(&format!("setup-{pass}-{r}"));
            let t0 = Instant::now();
            let root = self.tracer.begin("serve.setup");
            let config = &self.input.config;
            let hyper = self.tracer.span("hyper.solve", || pipeline::solve(config));
            let open = self.tracer.begin("durability.launch_durable");
            let launched = launch(config, hyper, self.opts, self.spec, &dir);
            self.tracer.end(open);
            if let Some(mut serving) = self.ledger.record("launch_durable", launched) {
                let first = self.tracer.span("serve.try_ingest", || {
                    serving.try_ingest(&self.input.samples[0])
                });
                self.tracer.end(root);
                self.e2e.setup.push(t0.elapsed().as_secs_f64());
                self.ledger.record("first ingest", first);
                serving.shutdown();
            } else {
                self.tracer.end(root);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Sends samples `0..n` on the open-loop schedule. Returns every
    /// published snapshot and the generator's ingest busy time.
    fn open_loop(
        &mut self,
        serving: &mut ServingEstimator,
        n: usize,
        record: bool,
    ) -> (Vec<Arc<Snapshot>>, f64) {
        let reader = serving.snapshot_reader();
        let period = Duration::from_secs_f64(1.0 / self.spec.rate);
        let mut snapshots = Vec::new();
        let mut busy = 0.0;
        let start = Instant::now();
        for (i, sample) in self.input.samples[..n].iter().enumerate() {
            let t = i as u64 + 1;
            let due = start + period * i as u32;
            wait_until(due);
            let sent = Instant::now();
            let cadence = t.is_multiple_of(self.spec.checkpoint_every);
            self.tracer.set_request(t);
            let open = self.tracer.begin(if cadence {
                "durability.checkpoint_ack"
            } else {
                "serve.try_ingest"
            });
            let result = match serving.try_ingest(sample) {
                Err(IngestError::Overloaded { .. }) => {
                    if record {
                        self.layers.overloads += 1;
                    }
                    serving.ingest_blocking(sample)
                }
                other => other,
            };
            self.tracer.end(open);
            let done = Instant::now();
            self.ledger.record("ingest", result);
            let service = (done - sent).as_secs_f64();
            busy += service;
            if record {
                self.e2e.ack.push((done - due).as_secs_f64());
                self.layers.late.push((sent - due).as_secs_f64());
                self.layers.sent += 1;
                if cadence {
                    self.layers.checkpoint_ack.push(service);
                } else {
                    self.layers.try_ingest.push(service);
                }
            }
            if t.is_multiple_of(self.spec.publish_every as u64) {
                let p0 = Instant::now();
                let open = self.tracer.begin("serve.refresh_snapshot");
                let published = serving.refresh_snapshot();
                self.tracer.end(open);
                let p = p0.elapsed().as_secs_f64();
                if let Some(snapshot) = self.ledger.record("publish", published) {
                    if record {
                        self.e2e.publish.push(p);
                    }
                    snapshots.push(snapshot);
                }
                if self.tracer.enabled() {
                    // A publish with no backlog: barrier + merge + top-k.
                    let open = self.tracer.begin("serve.publish_busy");
                    let again = serving.refresh_snapshot();
                    let d = self.tracer.end(open);
                    if self.ledger.record("publish", again).is_some() && record {
                        self.layers.publish_busy.push(d);
                    }
                }
            }
            if t.is_multiple_of(self.spec.read_every as u64) {
                // Reads go half a period after the send, between acks.
                wait_until(due + period / 2);
                let r0 = Instant::now();
                let open = self.tracer.begin("serve.read");
                let view = self.tracer.span("serve.current", || reader.current());
                let top = view.snapshot.top_pairs(READ_TOP);
                let mut acc = 0.0;
                for key in self.read_keys.next_read() {
                    acc += view.snapshot.estimate(key);
                }
                self.tracer.end(open);
                let d = r0.elapsed().as_secs_f64();
                if record {
                    self.e2e.read.push(d);
                    self.layers.lag.push(view.lag as f64);
                }
                self.ledger.check(
                    "read",
                    if acc.is_finite() && top.iter().all(|p| p.estimate.is_finite()) {
                        Ok(())
                    } else {
                        Err("non-finite answer".into())
                    },
                );
            }
        }
        (snapshots, busy)
    }

    /// One measured pass in `dir`: open loop, crash, replay check, cold
    /// starts. Returns the ranking of the last snapshot.
    fn pass(&mut self, tmp: &TempDir, index: usize) -> Vec<u64> {
        let n = self.input.samples.len();
        let dir = tmp.child(&format!("pass-{index}"));
        let Some(mut serving) = self.launch(&dir) else {
            return Vec::new();
        };
        let (snapshots, busy) = self.open_loop(&mut serving, n, true);
        self.e2e.ingest_rate.push(n as f64 / busy);
        let health = serving.health().durability;
        self.ledger.check(
            "every ack durable",
            if !health.durability_lost {
                Ok(())
            } else {
                Err(format!(
                    "durable epoch {} of {n}",
                    health.last_durable_epoch
                ))
            },
        );
        self.layers
            .wal_syncs_per_sample
            .push(health.wal_syncs as f64 / n as f64);
        self.layers
            .generations
            .push(health.checkpoint_generations as f64);
        serving.simulate_crash();
        let crashed = match sys::read_tree(&dir) {
            Ok(tree) => tree,
            Err(e) => {
                self.ledger
                    .fail(format!("reading the crashed directory: {e}"));
                return Vec::new();
            }
        };
        let bytes: usize = crashed.values().map(Vec::len).sum();
        self.e2e.disk_bytes_per_sample = bytes as f64 / n as f64;

        // Every published snapshot against the sequential replay.
        let mut oracle = ReplayOracle::new(&self.input.config, Some(&self.hyper), self.opts.shards);
        let mut pending = snapshots.iter().peekable();
        for sample in &self.input.samples {
            oracle.ingest(sample);
            while let Some(snapshot) = pending.next_if(|s| s.epoch() == oracle.samples()) {
                let expected = expected_table(&oracle, self.plant);
                self.ledger.check(
                    "snapshot matches replay",
                    check_snapshot(snapshot, &oracle, expected.as_deref()),
                );
            }
        }
        if pending.next().is_some() {
            self.ledger.fail("a published snapshot has no replay epoch");
        }
        let ranking = snapshots
            .last()
            .map(|s| s.top_pairs(self.spec.top_k).iter().map(|p| p.key).collect())
            .unwrap_or_default();

        // Cold starts, each from a byte-identical copy of the crashed dir.
        for c in 0..self.spec.cold_starts {
            let copy = tmp.child(&format!("pass-{index}-cold-{c}"));
            let copied = sys::write_tree(&copy, &crashed).and_then(|()| sys::read_tree(&copy));
            self.ledger.check(
                "byte-identical copy",
                match copied {
                    Ok(tree) if tree == crashed => Ok(()),
                    Ok(_) => Err("copy differs".into()),
                    Err(e) => Err(e.to_string()),
                },
            );
            let t0 = Instant::now();
            let open = self.tracer.begin("durability.launch_durable");
            let launched = self.launch(&copy);
            self.tracer.end(open);
            let d = t0.elapsed().as_secs_f64();
            if let Some(recovered) = launched {
                self.e2e.recovery.push(d);
                if let Some(report) = recovered.recovery_report() {
                    let report_s = report.duration.as_secs_f64();
                    self.layers.report_ms.push(report_s * 1e3);
                    self.layers.launch_overhead_ms.push((d - report_s) * 1e3);
                    self.layers
                        .replayed
                        .push(report.wal_records_replayed as f64);
                }
                let expected = expected_table(&oracle, self.plant);
                let view = recovered.snapshot_reader().current();
                self.ledger.check(
                    "cold start matches replay",
                    check_snapshot(&view.snapshot, &oracle, expected.as_deref()),
                );
                recovered.shutdown();
            }
            let _ = std::fs::remove_dir_all(&copy);
        }
        let _ = std::fs::remove_dir_all(&dir);
        ranking
    }
}

/// Runs the durable serving workload. Data directories live under
/// `rc.scratch` and are removed before returning.
pub fn run(spec: &ServeSpec, rc: &RunConfig) -> Outcome {
    let input = generate(spec, rc.seed);
    let tracer = Tracer::new(rc.trace);
    let mut ledger = Ledger::default();
    let tmp = match TempDir::new_in(&rc.scratch, "serve-durable") {
        Ok(tmp) => tmp,
        Err(e) => {
            ledger.fail(format!(
                "creating the data directory under {}: {e}",
                rc.scratch.display()
            ));
            return Outcome::failed(ledger, tracer);
        }
    };
    let fs_type = sys::fs_type(tmp.path());
    let opts = ServeOptions::default();

    let hyper = pipeline::solve(&input.config);
    let mut d = ServeRun {
        spec,
        input: &input,
        hyper,
        opts,
        ledger,
        tracer,
        e2e: EndToEnd::default(),
        layers: Layers::default(),
        read_keys: ReadKeys::new(rc.seed, input.config.num_pairs()),
        plant: rc.plant_defect,
    };

    // Warm-up instance: untimed, unrecorded.
    let warm_dir = tmp.child("warm-up");
    if let Some(mut serving) = d.launch(&warm_dir) {
        d.open_loop(
            &mut serving,
            spec.warmup_samples.min(input.samples.len()),
            false,
        );
        serving.shutdown();
    }
    let _ = std::fs::remove_dir_all(&warm_dir);

    let start = Instant::now();
    let mut passes = 0;
    let mut ranking = Vec::new();
    while passes < spec.min_passes || start.elapsed().as_secs_f64() < rc.seconds {
        d.setup(&tmp, passes);
        ranking = d.pass(&tmp, passes);
        passes += 1;
    }
    let measured_s = start.elapsed().as_secs_f64();
    d.e2e.topk_f1 = topk_f1(&ranking, &input.signal);

    let ServeRun {
        mut ledger,
        mut tracer,
        e2e,
        layers,
        ..
    } = d;

    // The stream and ascs layers on this workload's stream, one at a time,
    // against the fused estimator (the serving workers run the same gate
    // and kernel on their shards).
    let mut est =
        CovarianceEstimator::with_hyperparameters(input.config, SketchBackend::Ascs, Some(hyper));
    let t0 = Instant::now();
    for s in &input.samples {
        est.process_sample(s);
    }
    let est_s = t0.elapsed().as_secs_f64();
    let times = check_layers(
        &input,
        &hyper,
        &est,
        &input.keys,
        rc,
        &mut ledger,
        &mut tracer,
    );

    let mut detail = base_detail(spec.name, rc, &input.config, input.samples.len());
    detail
        .set("data_dir_fs", fs_type)
        .set("shards", opts.shards)
        .set("rate_per_s", spec.rate)
        .set("passes", passes)
        .set("measured_s", measured_s)
        .set("signal_pairs", input.signal.len())
        .set("hyper_t0", hyper.t0)
        .set("hyper_theta", hyper.theta)
        .set("setup_s", e2e.setup.summary())
        .set("ingest_samples_per_s", e2e.ingest_rate.summary())
        .set("ack_s", e2e.ack.summary())
        .set("publish_s", e2e.publish.summary())
        .set("read_s", e2e.read.summary())
        .set("recovery_s", e2e.recovery.summary())
        .set("generator_late_s", layers.late.summary())
        .set("overload_rejections", layers.overloads);

    let metrics = if rc.trace {
        let mut v = BTreeMap::new();
        let (inserted, skipped) = est.update_counts();
        layer_values(
            &mut v,
            &[(est_s, times)],
            inserted,
            skipped,
            input.samples.len() as f64,
        );
        let by_layer = tracer.self_time_by_layer();
        let per_pass =
            |layer: &str| by_layer.get(layer).copied().unwrap_or(0.0) / passes.max(1) as f64;
        v.insert("serve.self_s", per_pass("serve"));
        v.insert("durability.self_s", per_pass("durability"));
        v.insert("serve.try_ingest_us", layers.try_ingest.median() * 1e6);
        v.insert(
            "serve.overload_ratio",
            layers.overloads as f64 / layers.sent.max(1) as f64,
        );
        v.insert("serve.generator_late_ms", layers.late.pct(0.99) * 1e3);
        v.insert("serve.publish_busy_ms", layers.publish_busy.median() * 1e3);
        v.insert(
            "serve.snapshot_current_ns",
            median(&tracer.durations("serve.current")) * 1e9,
        );
        v.insert("serve.read_lag_samples", layers.lag.mean());
        v.insert(
            "durability.wal_syncs_per_sample",
            layers.wal_syncs_per_sample.median(),
        );
        v.insert(
            "durability.checkpoint_ack_ms",
            layers.checkpoint_ack.median() * 1e3,
        );
        v.insert(
            "durability.checkpoint_generations",
            layers.generations.median(),
        );
        v.insert("durability.recover_report_ms", layers.report_ms.median());
        v.insert("durability.replayed_records", layers.replayed.median());
        v.insert(
            "durability.launch_overhead_ms",
            layers.launch_overhead_ms.median(),
        );
        v.insert(
            "hyper.solve_ms",
            median(&tracer.durations("hyper.solve")) * 1e3,
        );
        v.insert("trace.spans", tracer.spans().len() as f64);
        detail
            .set("self_time_by_layer", layer_json(&tracer))
            .set("publish_busy_s", layers.publish_busy.summary())
            .set("checkpoint_ack_s", layers.checkpoint_ack.summary())
            .set("try_ingest_s", layers.try_ingest.summary());
        per_layer(&v)
    } else {
        e2e.metrics(&ledger)
    };
    drop(tmp);
    Outcome {
        report: Report {
            ledger,
            metrics,
            detail,
        },
        tracer,
    }
}
