//! The estimator's sample path driven one layer at a time.
//!
//! `CovarianceEstimator::process_sample` fuses two layers: the `stream`
//! layer expands a sample into pair updates while updating per-feature
//! statistics, and the `ascs` layer gates each update and applies it to
//! the count sketch. Here the same public calls run separately —
//! `StreamContext::ingest` into a buffer, then `AscsSketch::sample_gate`
//! and `offer_gated` over the buffer — so each layer can be timed on its
//! own. The decomposed sketch must end bit-identical to the estimator's;
//! [`compare`] is that check.

use crate::trace::Tracer;
use ascs_core::{
    AscsConfig, AscsSketch, CovarianceEstimator, HyperParameterSolver, HyperParameters, PairUpdate,
    Sample, SketchBackend, StreamContext, TheoryBounds,
};
use std::time::Instant;

/// Algorithm 3 exactly as `CovarianceEstimator::new_or_fallback` runs it:
/// the Theorem 1/2 solve with the 10 %-exploration fallback.
pub fn solve(config: &AscsConfig) -> HyperParameters {
    let bounds = TheoryBounds::new(
        config.num_pairs(),
        config.geometry.range,
        config.geometry.rows,
        config.alpha,
        config.sigma,
        config.signal_strength,
        config.total_samples,
    );
    HyperParameterSolver::new(bounds)
        .solve_or_fallback(config.tau0, config.delta, config.delta_star, 0.1)
        .0
}

/// Builds the estimator as `new_or_fallback` does, with the solve and the
/// construction in separate spans (`hyper.solve`, `estimator.construct`).
pub fn construct(config: &AscsConfig, tracer: &mut Tracer) -> CovarianceEstimator {
    if !tracer.enabled() {
        return CovarianceEstimator::new_or_fallback(*config, SketchBackend::Ascs).0;
    }
    let open = tracer.begin("estimator.construct");
    let hyper = tracer.span("hyper.solve", || solve(config));
    let est = CovarianceEstimator::with_hyperparameters(*config, SketchBackend::Ascs, Some(hyper));
    tracer.end(open);
    est
}

/// What one layer-at-a-time pass measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Wall time of the whole decomposed pass.
    pub wall_s: f64,
    /// Self time in `StreamContext::ingest` (spans; `0` untraced).
    pub stream_s: f64,
    /// Self time in `sample_gate` + `offer_gated` (spans; `0` untraced).
    pub ascs_s: f64,
    /// Pair updates the stream layer emitted.
    pub updates: u64,
}

/// Runs `samples` through the stream and ascs layers one at a time, using
/// the estimator's own configuration and hyperparameters. Returns the
/// resulting sketch and the per-layer times.
pub fn run_layers(
    config: &AscsConfig,
    hyper: &HyperParameters,
    samples: &[Sample],
    tracer: &mut Tracer,
) -> (AscsSketch, LayerTimes) {
    let mut ctx = StreamContext::new(config.dim, config.update_mode, config.estimand);
    let mut sketch = AscsSketch::new(
        config.geometry,
        hyper,
        config.total_samples,
        config.top_k_capacity,
        config.seed,
    );
    let mut buf: Vec<PairUpdate> = Vec::new();
    let mut times = LayerTimes::default();
    let start = Instant::now();
    for (i, sample) in samples.iter().enumerate() {
        let t = i as u64 + 1;
        tracer.set_request(t);
        let root = tracer.begin("estimator.sample");
        buf.clear();
        let open = tracer.begin("stream.ingest");
        times.updates += ctx.ingest(sample, |u| buf.push(u));
        times.stream_s += tracer.end(open);
        let open = tracer.begin("ascs.offer");
        let gate = sketch.sample_gate(t);
        for u in &buf {
            sketch.offer_gated(u.key, u.value, gate);
        }
        times.ascs_s += tracer.end(open);
        tracer.end(root);
    }
    times.wall_s = start.elapsed().as_secs_f64();
    (sketch, times)
}

/// Bit-identity of a layer-at-a-time sketch with the fused estimator:
/// the full top list (keys and estimate bits), the gate counters, and the
/// point estimate of every key in `keys` and in either top list.
pub fn compare(est: &CovarianceEstimator, sketch: &AscsSketch, keys: &[u64]) -> Result<(), String> {
    let cap = est.config().top_k_capacity;
    let fused: Vec<(u64, u64)> = est
        .top_pairs(cap)
        .iter()
        .map(|p| (p.key, p.estimate.to_bits()))
        .collect();
    let layered: Vec<(u64, u64)> = sketch
        .top_pairs_limit(cap)
        .iter()
        .map(|&(k, v)| (k, v.to_bits()))
        .collect();
    if fused != layered {
        let at = fused.iter().zip(&layered).position(|(a, b)| a != b);
        return Err(format!(
            "top lists differ (lengths {} vs {}, first difference at {at:?})",
            fused.len(),
            layered.len()
        ));
    }
    let counts = (sketch.inserted_updates(), sketch.skipped_updates());
    if est.update_counts() != counts {
        return Err(format!(
            "gate counters differ: estimator {:?}, layers {counts:?}",
            est.update_counts()
        ));
    }
    let top_keys = fused.iter().map(|&(k, _)| k);
    for key in keys.iter().copied().chain(top_keys) {
        let (a, b) = (est.estimate_key(key), sketch.estimate(key));
        if a.to_bits() != b.to_bits() {
            return Err(format!("estimate of key {key} differs: {a:e} vs {b:e}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascs_core::SketchGeometry;

    fn tiny() -> (AscsConfig, Vec<Sample>) {
        let config = AscsConfig::recommended(12, 40, SketchGeometry::new(3, 64));
        let samples = (0..40u64)
            .map(|t| {
                Sample::dense(
                    (0..12u64)
                        .map(|f| ((t * 7 + f * 3) % 5) as f64 - 2.0)
                        .collect(),
                )
            })
            .collect();
        (config, samples)
    }

    #[test]
    fn layers_match_the_fused_estimator_and_a_planted_defect_is_caught() {
        let (config, samples) = tiny();
        let mut est = construct(&config, &mut Tracer::new(false));
        for s in &samples {
            est.process_sample(s);
        }
        let hyper = *est.hyperparameters().expect("gated backend");
        let mut tracer = Tracer::new(true);
        let (mut sketch, times) = run_layers(&config, &hyper, &samples, &mut tracer);
        let keys: Vec<u64> = (0..config.num_pairs()).collect();
        assert_eq!(compare(&est, &sketch, &keys), Ok(()));
        assert!(times.stream_s > 0.0 && times.ascs_s > 0.0);
        assert_eq!(tracer.spans().len(), 3 * samples.len());
        // One extra update is a planted divergence the check must see.
        let gate = sketch.sample_gate(1);
        sketch.offer_gated(0, 1.0, gate);
        assert!(compare(&est, &sketch, &keys).is_err());
    }
}
