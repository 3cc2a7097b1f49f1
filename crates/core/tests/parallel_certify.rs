//! Property-based equivalence: parallel certification must return exactly
//! the same certificates as single-threaded certification — same
//! verdicts, same bound widths (bitwise), same feedback — for random
//! actors and thread counts, and adaptive certification must reproduce,
//! bit for bit, the heap-box branch-and-bound it replaced (rebuilt here
//! from public primitives as the oracle). Thread counts are pinned per
//! verifier with `Verifier::with_threads`, not the `CANOPY_THREADS`
//! environment variable, so the suite is safe under the multi-threaded
//! test harness.

use canopy_absint::{propagate_mlp_zonotope, BoxState, IbpBatchScratch, Interval, PreparedMlp};
use canopy_core::obs::{ACTION_IDX, DELAY_IDX};
use canopy_core::orca::{f_cwnd, f_cwnd_abstract};
use canopy_core::property::PropertyParams;
use canopy_core::verifier::AbstractDomain;
use canopy_core::{
    Certificate, ComponentResult, Postcondition, Property, StateLayout, StepContext, Verifier,
};
use canopy_nn::{Activation, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn layout() -> StateLayout {
    StateLayout::new(3)
}

fn random_actor(seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(&mut rng, &[layout().dim(), 24, 24, 1], Activation::Tanh)
}

fn ctx(delay: f64) -> StepContext {
    let mut state = vec![0.1; layout().dim()];
    state[layout().idx(0, DELAY_IDX)] = delay;
    StepContext {
        state,
        cwnd_tcp: 100.0,
        cwnd_prev: 100.0,
    }
}

fn assert_certs_equal(a: &Certificate, b: &Certificate) {
    assert_eq!(a.proven, b.proven);
    assert_eq!(a.feedback.to_bits(), b.feedback.to_bits());
    assert_eq!(a.components.len(), b.components.len());
    for (ca, cb) in a.components.iter().zip(&b.components) {
        assert_eq!(ca.satisfied, cb.satisfied);
        assert_eq!(ca.input_slice.lo.to_bits(), cb.input_slice.lo.to_bits());
        assert_eq!(ca.input_slice.hi.to_bits(), cb.input_slice.hi.to_bits());
        assert_eq!(ca.output.lo.to_bits(), cb.output.lo.to_bits());
        assert_eq!(ca.output.hi.to_bits(), cb.output.hi.to_bits());
        assert_eq!(ca.feedback.to_bits(), cb.feedback.to_bits());
    }
}

/// `certify_adaptive` as it was before the dyadic frontier: a LIFO of
/// heap boxes split with `BoxState::split_dim`, propagated 32 at a time
/// with `propagate_boxes_dim`, probed with `Mlp::forward`.
fn adaptive_oracle(
    domain: AbstractDomain,
    actor: &Mlp,
    property: &Property,
    ctx: &StepContext,
    max_depth: usize,
) -> Certificate {
    let region = property.input_region(&ctx.state, layout());
    let axis = property.split_axis(layout());
    let allowed = property.allowed_output();
    let concrete_cwnd = match property.post {
        Postcondition::BoundedChange { .. } => f_cwnd(actor.forward(&ctx.state)[0], ctx.cwnd_tcp),
        _ => 0.0,
    };
    let total_width = region.dim_interval(axis).width();
    let prepared = PreparedMlp::new(actor);
    let mut leaves: Vec<(ComponentResult, f64)> = Vec::new();
    let mut open = vec![(region, 0usize)];
    while !open.is_empty() {
        let chunk: Vec<(BoxState, usize)> = open.split_off(open.len() - open.len().min(32));
        let parts = chunk.iter().map(|(part, _)| part);
        let actions: Vec<Interval> = match domain {
            AbstractDomain::Box => {
                prepared.propagate_boxes_dim(parts, 0, &mut IbpBatchScratch::new())
            }
            AbstractDomain::Zonotope => parts
                .map(|part| propagate_mlp_zonotope(actor, part)[0])
                .collect(),
        };
        for ((part, depth), action) in chunk.iter().zip(actions) {
            let cwnd = f_cwnd_abstract(action, ctx.cwnd_tcp);
            let output = match property.post {
                Postcondition::NoDecrease | Postcondition::NoIncrease => {
                    cwnd.sub(Interval::point(ctx.cwnd_prev))
                }
                Postcondition::BoundedChange { .. } => cwnd
                    .sub(Interval::point(concrete_cwnd))
                    .scale(1.0 / concrete_cwnd.max(f64::MIN_POSITIVE)),
            };
            let slice = part.dim_interval(axis);
            let result = ComponentResult {
                input_slice: slice,
                output,
                satisfied: output.is_subset_of(allowed),
                feedback: output.fraction_within(allowed),
            };
            let weight = if total_width > 0.0 {
                slice.width() / total_width
            } else {
                1.0
            };
            let probe = f_cwnd(actor.forward(&part.center)[0], ctx.cwnd_tcp);
            let violated = match property.post {
                Postcondition::NoDecrease => probe - ctx.cwnd_prev < 0.0,
                Postcondition::NoIncrease => probe - ctx.cwnd_prev > 0.0,
                Postcondition::BoundedChange { eps } => {
                    (probe - concrete_cwnd).abs() / concrete_cwnd.max(f64::MIN_POSITIVE) > eps
                }
            };
            if result.satisfied || *depth >= max_depth || slice.width() <= 0.0 || violated {
                leaves.push((result, weight));
            } else {
                open.extend(part.split_dim(axis, 2).into_iter().map(|h| (h, depth + 1)));
            }
        }
    }
    leaves.sort_by(|a, b| {
        let (a, b) = (a.0.input_slice, b.0.input_slice);
        a.lo.total_cmp(&b.lo).then(a.hi.total_cmp(&b.hi))
    });
    Certificate {
        property: property.name.clone(),
        feedback: leaves
            .iter()
            .map(|(c, w)| c.feedback * w)
            .sum::<f64>()
            .clamp(0.0, 1.0),
        proven: leaves.iter().all(|(c, _)| c.satisfied),
        components: leaves.into_iter().map(|(c, _)| c).collect(),
    }
}

/// An actor that reads only the partition axis `x` and the most recent
/// past action `a`: `tanh(slope·x + gain·a + offset + relu(cancel·x + 1) −
/// relu(cancel·x + 1))`. The cancelling pair is concretely zero but costs
/// the box domain `2·cancel` of deviation per unit of axis deviation.
fn axis_actor(slope: f64, gain: f64, offset: f64, cancel: f64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(0);
    let mut net = Mlp::new(&mut rng, &[layout().dim(), 4, 1], Activation::Tanh);
    for layer in net.layers_mut() {
        layer.weights.fill_zero();
        layer.bias.fill(0.0);
    }
    let (x, a) = (layout().idx(0, DELAY_IDX), layout().idx(0, ACTION_IDX));
    let [hidden, out] = net.layers_mut() else {
        panic!("two layers");
    };
    // Units 0/1 carry ±(slope·x + gain·a) through the ReLU; 2/3 cancel.
    for (unit, sign) in [(0, 1.0), (1, -1.0)] {
        *hidden.weights.get_mut(unit, x) = sign * slope;
        *hidden.weights.get_mut(unit, a) = sign * gain;
        *out.weights.get_mut(0, unit) = sign;
    }
    for (unit, sign) in [(2, 1.0), (3, -1.0)] {
        *hidden.weights.get_mut(unit, x) = cancel;
        hidden.bias[unit] = 1.0;
        *out.weights.get_mut(0, unit) = sign;
    }
    out.bias[0] = offset;
    net
}

fn p1() -> Property {
    Property::p1(&PropertyParams {
        q_min_delay: 0.5,
        ..PropertyParams::default()
    })
}

/// Runs one call at 1, 2 and 4 workers, checks all three against the
/// oracle, and returns the certificate.
fn certify_at_every_width(actor: &Mlp, property: &Property, max_depth: usize) -> Certificate {
    let c = ctx(0.2);
    let oracle = adaptive_oracle(AbstractDomain::Box, actor, property, &c, max_depth);
    for threads in [1usize, 2, 4] {
        let cert = Verifier::new(1).with_threads(threads).certify_adaptive(
            actor,
            property,
            layout(),
            &c,
            max_depth,
        );
        assert_certs_equal(&oracle, &cert);
    }
    oracle
}

/// Past action ∈ [−1, 0] is abstracted by P1 and never refined, so an
/// actor that follows it alone (`tanh(−a − ¼)`, both signs) stays
/// undecided on every slice of the axis while its centre (a = −½, an
/// increase) never violates: every box splits, in twelve equal groups.
#[test]
fn a_fully_splitting_call_is_identical_at_every_width() {
    let actor = axis_actor(0.0, -1.0, -0.25, 0.0);
    let cert = certify_at_every_width(&actor, &p1(), 10);
    assert_eq!(cert.components.len(), 1 << 10);
    assert!(cert.components.iter().all(|c| !c.satisfied));
}

/// The cancelling pair makes a box provable only once its centre is 400.5
/// deviations from the axis origin, so from depth 8 down just the 200
/// boxes nearest the origin stay open: the frontier is wide at the fork,
/// then all but the lowest groups finish at once while a sliver of the
/// axis refines to the floor.
#[test]
fn a_lopsided_call_is_identical_at_every_width() {
    let actor = axis_actor(1.0, 0.0, 0.0, 199.75);
    let max_depth = 14;
    let cert = certify_at_every_width(&actor, &p1(), max_depth);
    let width = |c: &ComponentResult| c.input_slice.width();
    let open: Vec<&ComponentResult> = cert.components.iter().filter(|c| !c.satisfied).collect();
    assert_eq!(open.len(), 200, "the undecided sliver, at the depth floor");
    let floor = 0.5 / (1u64 << max_depth) as f64;
    assert!(open
        .iter()
        .all(|c| width(c) == floor && c.input_slice.hi <= 200.0 * floor));
    // Everything else was proven on the way down, the widest at depth 8.
    let widest = cert.components.iter().map(width).fold(0.0, f64::max);
    assert_eq!(widest, 0.5 / 256.0);
    assert_eq!(cert.components.len(), 56 + 200 * (max_depth - 7));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Adaptive branch-and-bound: 1 thread vs 2 and 4 threads give the
    /// same leaves, verdicts, bound widths, and feedback.
    #[test]
    fn adaptive_certification_is_thread_count_invariant(
        net_seed in 0u64..300,
        delay in 0.05f64..0.95,
        max_depth in 4usize..9,
        prop_idx in 0usize..2,
    ) {
        let actor = random_actor(net_seed);
        let params = PropertyParams { q_min_delay: 0.5, ..PropertyParams::default() };
        let props = Property::shallow_set(&params);
        let property = &props[prop_idx % props.len()];
        let c = ctx(delay);
        let sequential = Verifier::new(1)
            .with_threads(1)
            .certify_adaptive(&actor, property, layout(), &c, max_depth);
        for threads in [2usize, 4] {
            let parallel = Verifier::new(1)
                .with_threads(threads)
                .certify_adaptive(&actor, property, layout(), &c, max_depth);
            assert_certs_equal(&sequential, &parallel);
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The dyadic-frontier engine against the heap-box oracle, bit for
    /// bit, on either domain and at every worker count. `cwnd_prev` is
    /// the actor's own window somewhere on the axis, so the verdict flips
    /// inside the region and refinement has something to find.
    #[test]
    fn adaptive_certification_is_bitwise_the_heap_box_oracle(
        seed in 0u64..10_000,
        relu in 0usize..2,
        prop_idx in 0usize..6,
        max_depth in 0usize..12,
        threads in 1usize..5,
        zonotope in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let output = if relu == 1 { Activation::Relu } else { Activation::Tanh };
        let actor = Mlp::new(&mut rng, &[layout().dim(), 13, 19, 1], output);
        let p = PropertyParams::default();
        let property = [
            Property::p1(&p), Property::p2(&p), Property::p3(&p),
            Property::p4i(&p), Property::p4ii(&p), Property::p5(&p),
        ][prop_idx].clone();
        let mut c = StepContext {
            state: (0..layout().dim()).map(|_| rng.random_range(0.0..1.0)).collect(),
            cwnd_tcp: rng.random_range(2.0..400.0),
            cwnd_prev: 0.0,
        };
        let region = property.input_region(&c.state, layout());
        let axis = property.split_axis(layout());
        let mut pivot = region.center.clone();
        pivot[axis] += region.dev[axis] * rng.random_range(-1.0..1.0);
        c.cwnd_prev = f_cwnd(actor.forward(&pivot)[0], c.cwnd_tcp);
        let domain = if zonotope == 1 { AbstractDomain::Zonotope } else { AbstractDomain::Box };
        let oracle = adaptive_oracle(domain, &actor, &property, &c, max_depth);
        let cert = Verifier::with_domain(1, domain)
            .with_threads(threads)
            .certify_adaptive(&actor, &property, layout(), &c, max_depth);
        assert_certs_equal(&oracle, &cert);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fixed-partition certify / certify_all: the fan-out path returns
    /// exactly what the sequential path returns, including the Eq. (7)
    /// aggregate.
    #[test]
    fn certify_all_is_thread_count_invariant(
        net_seed in 0u64..300,
        delay in 0.05f64..0.95,
        n_components in 1usize..60,
    ) {
        let actor = random_actor(net_seed);
        let params = PropertyParams { q_min_delay: 0.4, ..PropertyParams::default() };
        let props = Property::shallow_set(&params);
        let c = ctx(delay);
        let (seq_certs, seq_agg) = Verifier::new(n_components)
            .with_threads(1)
            .certify_all(&actor, &props, layout(), &c);
        let (par_certs, par_agg) = Verifier::new(n_components)
            .with_threads(4)
            .certify_all(&actor, &props, layout(), &c);
        prop_assert_eq!(seq_agg, par_agg);
        prop_assert_eq!(seq_certs.len(), par_certs.len());
        for (a, b) in seq_certs.iter().zip(&par_certs) {
            assert_certs_equal(a, b);
        }
        // And single-property certify agrees with its certify_all row.
        let single = Verifier::new(n_components)
            .with_threads(4)
            .certify(&actor, &props[0], layout(), &c);
        assert_certs_equal(&seq_certs[0], &single);
    }
}
