//! Compiled certification plans: the decision-independent part of a
//! fixed-partition certificate, built once per (policy, verifier,
//! property set).
//!
//! A runtime certificate (§4.4) is extracted before every decision, but
//! almost none of it depends on the decision: the policy is fixed between
//! promotions, and P1–P4 abstract their variables of interest to constant
//! ranges. A [`CertPlan`] holds what is left over once that is factored
//! out — each property's [`Stage`] (box templates and the dimensions that
//! stay concrete) and, when every precondition is state-independent, the
//! first layer's deviation image `D·|W₁|ᵀ` (the fused layer kernel then
//! skips its deviation stream there) — so that running it **stages** each
//! (context × property × component) row straight into the batched-IBP
//! matrices, **encloses** them (`Verifier::enclose`), takes each action
//! interval's window factor `2^(2·clamp(a))` once per row, and **judges**
//! it per flow into Eq. 5–7 (the `judge_factor` of a
//! [`Postcondition`](crate::property::Postcondition)).
//!
//! This is the **only** fixed-partition certification path:
//! [`Verifier::certify_all_many`] compiles a plan, runs it and drops it;
//! [`DriverPool`](crate::driver::DriverPool) keeps one for its one
//! policy. Every bound is the same fused ascending-`k` reduction whichever
//! way the rows are batched or chunked, so both agree bit for bit.

use std::ops::Range;

use canopy_absint::{IbpBatchScratch, Interval, PreparedMlp};
use canopy_nn::{pool, Matrix, Mlp};

use crate::obs::StateLayout;
use crate::orca::cwnd_factor;
use crate::property::{Property, Stage};
use crate::qc::{Certificate, ComponentResult};
use crate::verifier::{AbstractDomain, StepContext, Verifier, CERT_CHUNK, PARALLEL_MIN_WORK};

/// See the module docs.
#[derive(Debug)]
pub struct CertPlan {
    verifier: Verifier,
    properties: Vec<Property>,
    /// Parallel to `properties`.
    stages: Vec<Stage>,
    /// When no property rewrites its deviations: those of every
    /// (property, component) template, row by row, and their first-layer
    /// image `D · |W₁|ᵀ`.
    dev_image: Option<(Matrix, Matrix)>,
    /// Per staged row of the last run: (input slice, the action
    /// interval's [`cwnd_factor`]).
    rows: Vec<(Interval, Interval)>,
}

impl CertPlan {
    /// Compiles the plan for certifying `properties` on the network `net`
    /// was prepared from.
    pub fn compile(
        verifier: Verifier,
        net: &PreparedMlp,
        properties: &[Property],
        layout: StateLayout,
    ) -> CertPlan {
        let n = verifier.n_components;
        let stages: Vec<Stage> = properties
            .iter()
            .map(|property| property.stage(layout, n))
            .collect();
        let templates: Option<Vec<_>> = stages.iter().map(Stage::templates).collect();
        let dev_image = templates
            .filter(|t| verifier.domain == AbstractDomain::Box && !t.is_empty())
            .map(|templates| {
                let mut devs = Matrix::zeros(properties.len() * n, layout.dim());
                for (row, part) in templates.into_iter().flatten().enumerate() {
                    devs.set_row(row, &part.dev);
                }
                let image = net.first_dev_image(&devs);
                (devs, image)
            });
        CertPlan {
            verifier,
            properties: properties.to_vec(),
            stages,
            dev_image,
            rows: Vec::new(),
        }
    }

    /// Re-targets the plan at `net` — the same architecture with new
    /// weights — by recomputing the one weight-dependent part, the
    /// first-layer deviation image.
    pub(crate) fn rebind(&mut self, net: &PreparedMlp) {
        if let Some((devs, image)) = &mut self.dev_image {
            *image = net.first_dev_image(devs);
        }
    }

    /// The verifier configuration this plan was compiled for.
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    /// The properties this plan certifies, in order.
    pub fn properties(&self) -> &[Property] {
        &self.properties
    }

    fn rows_per_context(&self) -> usize {
        self.properties.len() * self.verifier.n_components
    }

    /// Certifies `contexts` decision points at once: stages every
    /// (context × property × component) box from the templates plus
    /// `state_at(context)`, and propagates them through `net` (`actor` is
    /// the network it was prepared from). Large runs fan out over
    /// `workers`, which grows to one scratch per thread and is reused
    /// across runs; results are identical at every thread count. Read the
    /// outcome with [`aggregate`](Self::aggregate) or
    /// `certificates`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is empty or a state does not match the layout.
    pub fn run<'a>(
        &mut self,
        net: &PreparedMlp,
        actor: &Mlp,
        contexts: usize,
        state_at: impl Fn(usize) -> &'a [f64] + Sync,
        workers: &mut Vec<IbpBatchScratch>,
    ) {
        let total = contexts * self.rows_per_context();
        // A single chunk would run on the calling thread anyway, so only a
        // run big enough to fan out asks how many workers there are.
        let fans_out = total > CERT_CHUNK && total * actor.param_count() >= PARALLEL_MIN_WORK;
        let threads = if fans_out {
            pool::resolve_threads(self.verifier.threads)
        } else {
            1
        };
        let mut rows = std::mem::take(&mut self.rows);
        rows.clear();
        if threads > 1 {
            if workers.len() < threads {
                workers.resize_with(threads, IbpBatchScratch::new);
            }
            let chunks: Vec<Range<usize>> = (0..total)
                .step_by(CERT_CHUNK)
                .map(|start| start..(start + CERT_CHUNK).min(total))
                .collect();
            let outs = pool::parallel_map_with(&mut workers[..threads], &chunks, |s, range| {
                let mut out = Vec::with_capacity(range.len());
                self.propagate(net, actor, range.clone(), &state_at, s, &mut out);
                out
            });
            rows.extend(outs.into_iter().flatten());
        } else {
            self.propagate(net, actor, 0..total, &state_at, &mut workers[0], &mut rows);
        }
        self.rows = rows;
    }

    /// Stages and propagates the global rows `range`, appending one
    /// (input slice, action [`cwnd_factor`]) pair per row to `out` — the
    /// factor's two `exp2` once per row, however many flows share it.
    fn propagate<'a>(
        &self,
        net: &PreparedMlp,
        actor: &Mlp,
        range: Range<usize>,
        state_at: &(impl Fn(usize) -> &'a [f64] + Sync),
        scratch: &mut IbpBatchScratch,
        out: &mut Vec<(Interval, Interval)>,
    ) {
        let n = self.verifier.n_components;
        let per_context = self.rows_per_context();
        let base = out.len();
        let (in_c, in_d) = scratch.stage(range.len(), net.input_dim());
        for (r, row) in range.clone().enumerate() {
            let state = state_at(row / per_context);
            let stage = &self.stages[row % per_context / n];
            let slice = stage.write_center_dev(state, row % n, in_c.row_mut(r), in_d.row_mut(r));
            out.push((slice, slice));
        }
        let image = self.dev_image.as_ref();
        let image = image.map(|(_, image)| (image, range.start % per_context));
        self.verifier
            .enclose(net, actor, scratch, image, |r, action| {
                out[base + r].1 = cwnd_factor(action)
            });
    }

    /// Component verdicts of property `p` at context `j` of the last run.
    fn components<'p>(
        &'p self,
        j: usize,
        p: usize,
        ctx: &'p StepContext,
        action: &impl Fn() -> f64,
    ) -> impl Iterator<Item = ComponentResult> + 'p {
        let n = self.verifier.n_components;
        let post = self.properties[p].post;
        let reference = post.reference_cwnd(ctx, action);
        let base = j * self.rows_per_context() + p * n;
        self.rows[base..base + n]
            .iter()
            .map(move |&(slice, factor)| post.judge_factor(slice, factor, ctx, reference))
    }

    /// The Eq. (7) aggregate at context `j` of the last run — bitwise the
    /// aggregate of `certificates`, without building
    /// them. `action` computes the actor's concrete output at `ctx.state`
    /// (only a robustness postcondition, which compares against the
    /// unperturbed output, calls it).
    pub fn aggregate(&self, j: usize, ctx: &StepContext, action: impl Fn() -> f64) -> f64 {
        if self.properties.is_empty() {
            return 0.0;
        }
        let n = self.verifier.n_components as f64;
        (0..self.properties.len())
            .map(|p| {
                self.components(j, p, ctx, &action)
                    .map(|c| c.feedback)
                    .sum::<f64>()
                    / n
            })
            .sum::<f64>()
            / self.properties.len() as f64
    }

    /// The full certificates at context `j` of the last run, one per
    /// property.
    pub(crate) fn certificates(
        &self,
        j: usize,
        ctx: &StepContext,
        action: impl Fn() -> f64,
    ) -> Vec<Certificate> {
        (0..self.properties.len())
            .map(|p| {
                let components = self.components(j, p, ctx, &action).collect();
                Certificate::from_components(&self.properties[p].name, components)
            })
            .collect()
    }
}
