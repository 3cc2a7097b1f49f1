//! `certify_sweep`: offline QC evaluation — the hardening gate. 150
//! decision contexts harvested from a rollout of a smoke-trained Shallow
//! model, each certified against {P1, P2, P3, P4i, P4ii} by adaptive
//! refinement to depth 10 on the work-stealing pool. absint and
//! `core::pool` alone: no simulator, no learner, no fleet runtime in the
//! timed region. The verifier works differently here from `fleet_sync`:
//! deep refinement of few contexts, not five fixed components of many.

use std::time::Instant;

use canopy_absint::{BoxState, IbpBatchScratch, PreparedMlp};
use canopy_core::models::{train_model, training_envs, ModelKind, TrainBudget};
use canopy_core::property::{Property, PropertyParams};
use canopy_core::verifier::{StepContext, Verifier};
use canopy_core::{CcEnv, NoiseConfig, StateLayout};
use canopy_nn::Mlp;

use crate::harness::{median, percentile, time, Digest, Rep, Tally, Tracer};
use crate::workload::{instrument_health, Layers, Params, Workload};

const MAX_DEPTH: usize = 10;
/// The certified model is one fixed training run, a property of the
/// workload: refinement depth and IBP cost follow the weights, and over ten
/// seed-trained models leaves per second spread by 75 %. The seed drives
/// the observation noise of the rollout the contexts are harvested from.
const MODEL_SEED: u64 = 1;
/// Relative observation noise of the harvest rollout.
const HARVEST_NOISE: f64 = 0.1;
/// Boxes per (context, property) region in the raw-kernel probe.
const PROBE_SPLITS: usize = 16;

pub struct CertifySweep {
    actor: Mlp,
    layout: StateLayout,
    properties: Vec<Property>,
    contexts: Vec<StepContext>,
    threads: usize,
}

impl CertifySweep {
    /// One sweep at `threads` workers. With a tracer, every
    /// `certify_adaptive` call gets a span; the calls' durations, in
    /// microseconds, are returned beside the rep.
    fn sweep(&self, threads: usize, mut tracer: Option<&mut Tracer>) -> (Rep, Vec<f64>) {
        let verifier = Verifier::new(1).with_threads(threads);
        let mut digest = Digest::default();
        let mut leaves = 0u64;
        let mut finite = true;
        let mut call_us = Vec::new();
        let rep_span = tracer.as_deref_mut().map(|t| {
            t.next_rep();
            t.begin("rep")
        });
        let t0 = Instant::now();
        for ctx in &self.contexts {
            for property in &self.properties {
                let id = tracer
                    .as_deref_mut()
                    .map(|t| t.begin("core.certify_adaptive"));
                let cert =
                    verifier.certify_adaptive(&self.actor, property, self.layout, ctx, MAX_DEPTH);
                if let (Some(id), Some(t)) = (id, tracer.as_deref_mut()) {
                    call_us.push(t.end(id) * 1e6);
                }
                leaves += cert.components.len() as u64;
                finite &= cert.feedback.is_finite();
                digest.push_f64(cert.feedback);
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        if let (Some(id), Some(t)) = (rep_span, tracer) {
            t.end(id);
        }
        digest.push(leaves);
        let rep = Rep {
            wall_s,
            ops: leaves,
            digest,
            ok: finite && leaves >= self.calls(),
        };
        (rep, call_us)
    }

    fn calls(&self) -> u64 {
        (self.contexts.len() * self.properties.len()) as u64
    }

    /// Seconds per box of the batched IBP kernel alone, on this sweep's
    /// own input regions cut into `PROBE_SPLITS` slices each.
    fn kernel_s_per_box(&self) -> f64 {
        let boxes: Vec<BoxState> = self
            .contexts
            .iter()
            .flat_map(|ctx| {
                self.properties.iter().flat_map(|p| {
                    p.input_region(&ctx.state, self.layout)
                        .split_dim(p.split_axis(self.layout), PROBE_SPLITS)
                })
            })
            .collect();
        let prepared = PreparedMlp::new(&self.actor);
        let mut scratch = IbpBatchScratch::new();
        let (_, s) = time(|| {
            std::hint::black_box(prepared.propagate_boxes_dim(boxes.iter(), 0, &mut scratch))
        });
        s / boxes.len() as f64
    }
}

impl Workload for CertifySweep {
    fn setup(params: &Params) -> Self {
        let model = train_model(ModelKind::Shallow, MODEL_SEED, TrainBudget::smoke()).model;
        let layout = StateLayout::new(model.k);
        let env_config = training_envs(ModelKind::Shallow.buffer_bdp(), 1)
            .remove(0)
            .with_noise(NoiseConfig {
                mu: HARVEST_NOISE,
                seed: params.seed,
            });
        let mut env = CcEnv::new(env_config);
        let wanted = if params.smoke { 8 } else { 150 };
        let mut contexts = Vec::with_capacity(wanted);
        while contexts.len() < wanted {
            contexts.push(env.step_context());
            let action = model.actor.forward(&env.state())[0];
            if env.step(action).done {
                env.reset();
            }
        }
        let p = PropertyParams::default();
        CertifySweep {
            actor: model.actor,
            layout,
            properties: vec![
                Property::p1(&p),
                Property::p2(&p),
                Property::p3(&p),
                Property::p4i(&p),
                Property::p4ii(&p),
            ],
            contexts,
            threads: params.threads,
        }
    }

    fn rep(&self) -> Rep {
        self.sweep(self.threads, None).0
    }

    /// The leaf set must not depend on the worker count.
    fn invariance_reps(&self) -> Vec<Rep> {
        vec![self.sweep(1, None).0]
    }

    fn traced(
        &self,
        seconds: f64,
        reference: &Rep,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Tally {
        let mut tally = Tally::default();
        let (mut real_s, mut one_s, mut pool_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut call_us = Vec::new();
        let mut kernel = Vec::new();
        let mut divergence = 0.0;
        let started = Instant::now();
        // Untraced, one worker and the full pool, interleaved in one loop.
        while started.elapsed().as_secs_f64() < seconds || pool_s.len() < 2 {
            let rep = self.rep();
            tally.count(&rep, reference);
            real_s.push(rep.wall_s);

            let (one, _) = self.sweep(1, Some(tracer));
            tally.count(&one, reference);
            one_s.push(one.wall_s);

            let (pooled, us) = self.sweep(self.threads, Some(tracer));
            call_us.extend(us);
            if pooled.digest != reference.digest || !pooled.ok {
                divergence = 1.0;
            }
            pool_s.push(pooled.wall_s);
            kernel.push(self.kernel_s_per_box());
        }
        let leaves = reference.ops as f64;
        let calls = self.calls() as f64;
        layers.insert("core.certify_adaptive_us_p50", median(&call_us));
        layers.insert("core.certify_adaptive_us_p95", percentile(&call_us, 0.95));
        layers.insert("core.leaves", leaves);
        layers.insert("core.leaves_per_call_mean", leaves / calls);
        layers.insert("core.pool_speedup_2t", median(&one_s) / median(&pool_s));
        // Refinement bisects, so every box that is not a leaf has exactly
        // two children: boxes = 2·leaves − calls.
        layers.insert("absint.boxes", 2.0 * leaves - calls);
        layers.insert("absint.ibp_ns_per_box", median(&kernel) * 1e9);
        instrument_health(layers, &pool_s, median(&real_s), divergence, tracer);
        tally
    }
}
