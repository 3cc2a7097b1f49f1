//! The compiled certification plan against an independent oracle.
//!
//! `Verifier::certify_all`/`certify_all_many` and the pooled dispatch all
//! run one `CertPlan`, so they cannot check each other. The oracle here is
//! the pre-plan per-call path rebuilt from public primitives only —
//! `Property::input_region` → `BoxState::split_dim` → one
//! `PreparedMlp::propagate_boxes_dim` over a fresh scratch → Eq. 5–7 by
//! hand — and the plan must reproduce it **bit for bit**: every component
//! bound, every certificate, every aggregate, whether the plan is compiled
//! per call or kept and rerun, at one thread and two.

use canopy_absint::{IbpBatchScratch, Interval, PreparedMlp};
use canopy_core::orca::{f_cwnd, f_cwnd_abstract};
use canopy_core::plan::CertPlan;
use canopy_core::property::{Postcondition, PropertyParams};
use canopy_core::qc::{aggregate_feedback, Certificate, ComponentResult};
use canopy_core::{Property, StateLayout, StepContext, Verifier};
use canopy_nn::{Activation, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The per-call certification as it was before plans existed.
fn oracle(
    n_components: usize,
    actor: &Mlp,
    properties: &[Property],
    layout: StateLayout,
    ctx: &StepContext,
) -> (Vec<Certificate>, f64) {
    let prepared = PreparedMlp::new(actor);
    let certs: Vec<Certificate> = properties
        .iter()
        .map(|property| {
            let axis = property.split_axis(layout);
            let parts = property
                .input_region(&ctx.state, layout)
                .split_dim(axis, n_components);
            let actions = prepared.propagate_boxes_dim(&parts, 0, &mut IbpBatchScratch::new());
            let allowed = property.allowed_output();
            let components = parts
                .iter()
                .zip(actions)
                .map(|(part, action)| {
                    let cwnd = f_cwnd_abstract(action, ctx.cwnd_tcp);
                    let output = match property.post {
                        Postcondition::NoDecrease | Postcondition::NoIncrease => {
                            cwnd.sub(Interval::point(ctx.cwnd_prev))
                        }
                        Postcondition::BoundedChange { .. } => {
                            let concrete = f_cwnd(actor.forward(&ctx.state)[0], ctx.cwnd_tcp);
                            cwnd.sub(Interval::point(concrete))
                                .scale(1.0 / concrete.max(f64::MIN_POSITIVE))
                        }
                    };
                    ComponentResult {
                        input_slice: part.dim_interval(axis),
                        output,
                        satisfied: output.is_subset_of(allowed),
                        feedback: output.fraction_within(allowed),
                    }
                })
                .collect();
            Certificate::from_components(&property.name, components)
        })
        .collect();
    let agg = aggregate_feedback(&certs);
    (certs, agg)
}

fn cert_bits(cert: &Certificate) -> (String, bool, u64, Vec<[u64; 6]>) {
    let components = cert
        .components
        .iter()
        .map(|c| {
            [
                c.input_slice.lo.to_bits(),
                c.input_slice.hi.to_bits(),
                c.output.lo.to_bits(),
                c.output.hi.to_bits(),
                c.feedback.to_bits(),
                c.satisfied as u64,
            ]
        })
        .collect();
    (
        cert.property.clone(),
        cert.proven,
        cert.feedback.to_bits(),
        components,
    )
}

/// A random actor over widths that hit every GEMM tail (none a multiple
/// of 4), with mixed activations and a dead hidden unit.
fn random_actor(rng: &mut StdRng, dim: usize) -> Mlp {
    const WIDTHS: [usize; 5] = [1, 3, 5, 13, 19];
    const ACTIVATIONS: [Activation; 3] = [Activation::Relu, Activation::Tanh, Activation::Identity];
    let hidden: Vec<usize> = (0..rng.random_range(1..3usize))
        .map(|_| WIDTHS[rng.random_range(0..WIDTHS.len())])
        .collect();
    let widths: Vec<usize> = [dim].into_iter().chain(hidden).chain([1]).collect();
    let mut actor = Mlp::new(rng, &widths, Activation::Tanh);
    for layer in actor.layers_mut() {
        layer.activation = ACTIVATIONS[rng.random_range(0..3usize)];
    }
    let first = &mut actor.layers_mut()[0];
    first.weights.row_mut(0).fill(0.0);
    actor
}

fn random_ctx(rng: &mut StdRng, dim: usize) -> StepContext {
    StepContext {
        state: (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect(),
        cwnd_tcp: rng.random_range(2.0..400.0),
        cwnd_prev: rng.random_range(2.0..400.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn plan_is_bitwise_the_per_call_oracle(
        seed in 0u64..10_000,
        k in 1usize..11,
        n_components in 1usize..8,
        // Which of P1, P2, P3, P4i, P4ii, P5 to certify (P5 rebuilds its
        // region per context and disables the deviation image).
        mask in 1usize..64,
        batch_pick in 0usize..6,
        threads in 1usize..3,
    ) {
        let layout = StateLayout::new(k);
        let mut rng = StdRng::seed_from_u64(seed);
        let actor = random_actor(&mut rng, layout.dim());
        let p = PropertyParams::default();
        let all = [
            Property::p1(&p), Property::p2(&p), Property::p3(&p),
            Property::p4i(&p), Property::p4ii(&p), Property::p5(&p),
        ];
        let properties: Vec<Property> = all
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, property)| property)
            .collect();
        let batch = [1, 2, 31, 32, 33, 256][batch_pick];
        let ctxs: Vec<StepContext> = (0..batch).map(|_| random_ctx(&mut rng, layout.dim())).collect();
        let want: Vec<(Vec<Certificate>, f64)> = ctxs
            .iter()
            .map(|ctx| oracle(n_components, &actor, &properties, layout, ctx))
            .collect();

        // Compile, run, drop: the public per-call path.
        let verifier = Verifier::new(n_components).with_threads(threads);
        let got = verifier.certify_all_many(&actor, &properties, layout, &ctxs);
        prop_assert_eq!(got.len(), want.len());
        for ((got_certs, got_agg), (want_certs, want_agg)) in got.iter().zip(&want) {
            prop_assert_eq!(got_agg.to_bits(), want_agg.to_bits());
            let got_bits: Vec<_> = got_certs.iter().map(cert_bits).collect();
            let want_bits: Vec<_> = want_certs.iter().map(cert_bits).collect();
            prop_assert_eq!(got_bits, want_bits);
        }

        // A resident plan rerun on shrinking then growing batches, the way
        // the pool keeps it: scratch reuse must not leak between runs.
        let net = PreparedMlp::new(&actor);
        let mut plan = CertPlan::compile(verifier, &net, &properties, layout);
        let mut workers = vec![IbpBatchScratch::new()];
        for range in [0..batch, batch / 2..batch, 0..batch] {
            let slice = &ctxs[range.clone()];
            plan.run(&net, &actor, slice.len(), |j| &slice[j].state, &mut workers);
            for (j, ctx) in slice.iter().enumerate() {
                let action = actor.forward(&ctx.state)[0];
                let agg = plan.aggregate(j, ctx, || action);
                prop_assert_eq!(agg.to_bits(), want[range.start + j].1.to_bits());
            }
        }
    }
}
