//! Compiled certification plans: the decision-independent part of a
//! fixed-partition certificate, built once per (policy, verifier,
//! property set).
//!
//! A runtime certificate (§4.4) is extracted before every decision, but
//! almost none of it depends on the decision: the policy is fixed between
//! promotions, and P1–P4 abstract their variables of interest to constant
//! ranges. A [`CertPlan`] holds what is left over once that is factored
//! out — per (property, component) **box templates** (centre/deviation of
//! the abstracted dimensions, the dimensions that stay concrete, the
//! partition slices) and, when every precondition is state-independent,
//! the first layer's deviation image `D·|W₁|ᵀ` (the fused layer kernel then
//! skips its deviation stream there) — so that running it writes each
//! (context × property × component) row straight into the batched-IBP
//! staging matrices, propagates, and folds Eq. 5–7.
//!
//! This is the **only** fixed-partition certification path:
//! [`Verifier::certify_all_many`] compiles a plan, runs it and drops it;
//! [`DriverPool`](crate::driver::DriverPool) keeps one per interned
//! policy. Every bound is the same fused ascending-`k` reduction whichever
//! way the rows are batched or chunked, so both agree bit for bit.

use std::ops::Range;

use canopy_absint::{
    axis_slices, propagate_mlp_zonotope, BoxState, IbpBatchScratch, Interval, PreparedMlp,
};
use canopy_nn::{Matrix, Mlp};

use crate::obs::StateLayout;
use crate::orca::f_cwnd;
use crate::pool;
use crate::property::{Postcondition, Property};
use crate::qc::{Certificate, ComponentResult};
use crate::verifier::{
    component_result, AbstractDomain, StepContext, Verifier, CERT_CHUNK, PARALLEL_MIN_WORK,
};

/// How one property's rows are staged.
#[derive(Debug)]
struct Staging {
    /// The partition axis.
    axis: usize,
    /// The dimensions that take the live state's value; `None` when the
    /// whole region is rebuilt from the live state (P5's noise box, or a
    /// partition axis the precondition leaves concrete).
    concrete: Option<Vec<usize>>,
}

/// See the module docs.
#[derive(Debug)]
pub struct CertPlan {
    verifier: Verifier,
    layout: StateLayout,
    properties: Vec<Property>,
    /// Parallel to `properties`.
    staging: Vec<Staging>,
    /// One row per (property, component): the box around an all-zero
    /// state, i.e. the abstracted dimensions' ranges with zeros elsewhere.
    template_c: Matrix,
    template_d: Matrix,
    /// `template_d · |W₁|ᵀ`, when no property rewrites its deviations.
    dev_image: Option<Matrix>,
    /// Per staged row of the last run: (input slice, action interval).
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
        let dim = layout.dim();
        let mut template_c = Matrix::zeros(properties.len() * n, dim);
        let mut template_d = template_c.clone();
        let zeros = vec![0.0; dim];
        let staging: Vec<Staging> = properties
            .iter()
            .enumerate()
            .map(|(p, property)| {
                let axis = property.split_axis(layout);
                let parts = property.input_region(&zeros, layout).split_dim(axis, n);
                for (k, part) in parts.iter().enumerate() {
                    template_c.set_row(p * n + k, &part.center);
                    template_d.set_row(p * n + k, &part.dev);
                }
                let concrete = property
                    .abstracted_dims(layout)
                    .filter(|fixed| fixed.contains(&axis))
                    .map(|fixed| (0..dim).filter(|i| !fixed.contains(i)).collect());
                Staging { axis, concrete }
            })
            .collect();
        let dev_image = (verifier.domain == AbstractDomain::Box
            && !staging.is_empty()
            && staging.iter().all(|s| s.concrete.is_some()))
        .then(|| net.first_dev_image(&template_d));
        CertPlan {
            verifier,
            layout,
            properties: properties.to_vec(),
            staging,
            template_c,
            template_d,
            dev_image,
            rows: Vec::new(),
        }
    }

    /// Re-targets the plan at `net` — the same architecture with new
    /// weights — by recomputing the one weight-dependent part, the
    /// first-layer deviation image.
    pub fn rebind(&mut self, net: &PreparedMlp) {
        if self.dev_image.is_some() {
            self.dev_image = Some(net.first_dev_image(&self.template_d));
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

    /// Whether folding needs the actor's concrete action (a robustness
    /// postcondition compares against the unperturbed output).
    pub fn needs_action(&self) -> bool {
        self.properties
            .iter()
            .any(|p| matches!(p.post, Postcondition::BoundedChange { .. }))
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
    /// [`certificates`](Self::certificates).
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
        let threads = pool::resolve_threads(self.verifier.threads);
        let mut rows = std::mem::take(&mut self.rows);
        rows.clear();
        // A single chunk would run on the calling thread anyway.
        if threads > 1 && total > CERT_CHUNK && total * actor.param_count() >= PARALLEL_MIN_WORK {
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
    /// (input slice, action interval) pair per row to `out`.
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
        let dim = self.layout.dim();
        let base = out.len();
        let (in_c, in_d) = scratch.stage(range.len(), dim);
        for (r, row) in range.clone().enumerate() {
            let state = state_at(row / per_context);
            assert_eq!(state.len(), dim, "state does not match layout");
            let template = row % per_context;
            let (c, d) = (in_c.row_mut(r), in_d.row_mut(r));
            let (property, staging) = (&self.properties[template / n], &self.staging[template / n]);
            let axis = staging.axis;
            match &staging.concrete {
                Some(concrete) => {
                    c.copy_from_slice(self.template_c.row(template));
                    d.copy_from_slice(self.template_d.row(template));
                    for &i in concrete {
                        c[i] = Interval::point(state[i]).center();
                    }
                }
                None => {
                    let region = property.input_region(state, self.layout);
                    let slice = axis_slices(region.dim_interval(axis), n)
                        .nth(row % n)
                        .expect("component index below n");
                    c.copy_from_slice(&region.center);
                    d.copy_from_slice(&region.dev);
                    c[axis] = slice.center();
                    d[axis] = slice.deviation();
                }
            }
            let slice = Interval::centered(c[axis], d[axis]);
            out.push((slice, slice));
        }
        match self.verifier.domain {
            AbstractDomain::Box => {
                let image = self
                    .dev_image
                    .as_ref()
                    .map(|image| (image, range.start % per_context));
                let (c, d) = net.propagate_staged(scratch, image);
                for (r, slot) in out[base..].iter_mut().enumerate() {
                    slot.1 = Interval::centered(c.get(r, 0), d.get(r, 0));
                }
            }
            AbstractDomain::Zonotope => {
                for (r, slot) in out[base..].iter_mut().enumerate() {
                    let part = BoxState {
                        center: in_c.row(r).to_vec(),
                        dev: in_d.row(r).to_vec(),
                    };
                    slot.1 = propagate_mlp_zonotope(actor, &part)[0];
                }
            }
        }
    }

    /// Component verdicts of property `p` at context `j` of the last run.
    fn components<'p>(
        &'p self,
        j: usize,
        p: usize,
        ctx: &'p StepContext,
        action: f64,
    ) -> impl Iterator<Item = ComponentResult> + 'p {
        let n = self.verifier.n_components;
        let property = &self.properties[p];
        let (post, allowed) = (property.post, property.allowed_output());
        // Robustness compares against the *unperturbed* concrete output.
        let concrete_cwnd = match post {
            Postcondition::BoundedChange { .. } => f_cwnd(action, ctx.cwnd_tcp),
            _ => 0.0,
        };
        let base = j * self.rows_per_context() + p * n;
        self.rows[base..base + n].iter().map(move |&(slice, act)| {
            component_result(post, slice, ctx, allowed, concrete_cwnd, act)
        })
    }

    /// The Eq. (7) aggregate at context `j` of the last run — bitwise the
    /// aggregate of [`certificates`](Self::certificates), without building
    /// them. `action` is the actor's concrete output at `ctx.state` (only
    /// read when [`needs_action`](Self::needs_action)).
    pub fn aggregate(&self, j: usize, ctx: &StepContext, action: f64) -> f64 {
        if self.properties.is_empty() {
            return 0.0;
        }
        let n = self.verifier.n_components as f64;
        (0..self.properties.len())
            .map(|p| {
                self.components(j, p, ctx, action)
                    .map(|c| c.feedback)
                    .sum::<f64>()
                    / n
            })
            .sum::<f64>()
            / self.properties.len() as f64
    }

    /// The full certificates at context `j` of the last run, one per
    /// property.
    pub fn certificates(&self, j: usize, ctx: &StepContext, action: f64) -> Vec<Certificate> {
        (0..self.properties.len())
            .map(|p| {
                let components = self.components(j, p, ctx, action).collect();
                Certificate::from_components(&self.properties[p].name, components)
            })
            .collect()
    }
}
