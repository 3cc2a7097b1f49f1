//! Property-based soundness tests: the whole point of a quantitative
//! certificate is that a proof is a proof. These tests hammer the
//! verifier with random networks and states and check that certified
//! components never lie.

use canopy_repro::absint::Interval;
use canopy_repro::core::obs::StateLayout;
use canopy_repro::core::orca::{f_cwnd, f_cwnd_abstract};
use canopy_repro::core::property::{Postcondition, Property, PropertyParams};
use canopy_repro::core::verifier::{StepContext, Verifier};
use canopy_repro::nn::{Activation, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn layout() -> StateLayout {
    StateLayout::new(3)
}

fn random_net(seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(&mut rng, &[layout().dim(), 16, 16, 1], Activation::Tanh)
}

/// A random network whose output mostly follows a random bias: the input
/// swings it by a few tenths, so over a wide region IBP decides the sign
/// of Δcwnd on some components and not on others. (On a plain
/// [`random_net`] it decides none, and a soundness test has nothing to
/// sample.)
fn decided_net(seed: u64) -> Mlp {
    let mut net = random_net(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdec1ded);
    let out = net.layers_mut().last_mut().expect("has an output layer");
    out.weights
        .as_mut_slice()
        .iter_mut()
        .for_each(|w| *w *= 0.1);
    out.bias[0] = rng.random_range(-1.0..1.0);
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// QC feedback is always a valid fraction.
    #[test]
    fn feedback_in_unit_interval(seed in 0u64..500, cwnd_tcp in 4.0f64..500.0) {
        let net = random_net(seed);
        let params = PropertyParams::default();
        let ctx = StepContext {
            state: vec![0.2; layout().dim()],
            cwnd_tcp,
            cwnd_prev: cwnd_tcp * 0.9,
        };
        for property in [
            Property::p1(&params),
            Property::p2(&params),
            Property::p3(&params),
            Property::p4i(&params),
            Property::p4ii(&params),
            Property::p5(&params),
        ] {
            let cert = Verifier::new(5).certify(&net, &property, layout(), &ctx);
            prop_assert!((0.0..=1.0).contains(&cert.feedback), "{}", cert.feedback);
            for c in &cert.components {
                prop_assert!((0.0..=1.0).contains(&c.feedback));
            }
        }
    }

    /// Soundness: for every *certified* component of every direction
    /// property — the fixed partition's and the adaptive refinement's
    /// satisfied leaves alike — every concrete state sampled inside that
    /// component moves the window the way the property demands. A single
    /// counterexample would make the "proof" worthless.
    #[test]
    fn certified_components_never_lie(seed in 0u64..200, sample_seed in 0u64..1000) {
        let net = decided_net(seed);
        let params = PropertyParams {
            // Wide preconditions so certificates are non-trivial.
            q_min_delay: 0.5,
            q_delay: 0.8,
            p_delay: 0.5,
            ..PropertyParams::default()
        };
        let mut rng = StdRng::seed_from_u64(sample_seed);
        // The oracle, by hand: each property with the sign its Δcwnd must have.
        for (property, sign) in [
            (Property::p1(&params), 1.0),
            (Property::p2(&params), -1.0),
            (Property::p3(&params), 1.0),
            (Property::p4i(&params), -1.0),
            (Property::p4ii(&params), 1.0),
        ] {
            let ctx = StepContext {
                state: vec![0.3; layout().dim()],
                cwnd_tcp: 100.0,
                // Puts the Δcwnd = 0 threshold at a = −0.25·sign, so holding
                // the window is on the allowed side.
                cwnd_prev: 100.0 * (2.0f64).powf(-0.5 * sign),
            };
            let region = property.input_region(&ctx.state, layout()).to_intervals();
            let axis = property.split_axis(layout());
            let fixed = Verifier::new(5).certify(&net, &property, layout(), &ctx);
            let adaptive = Verifier::new(1).certify_adaptive(&net, &property, layout(), &ctx, 4);
            for (engine, cert) in [("fixed", &fixed), ("adaptive", &adaptive)] {
                for (k, comp) in cert.components.iter().enumerate() {
                    if !comp.satisfied {
                        continue;
                    }
                    // Sample concrete states within this component: the
                    // region with the split axis restricted to its slice.
                    for _ in 0..20 {
                        let mut x = vec![0.0; layout().dim()];
                        for (i, iv) in region.iter().enumerate() {
                            let (lo, hi) = if i == axis {
                                (comp.input_slice.lo, comp.input_slice.hi)
                            } else {
                                (iv.lo, iv.hi)
                            };
                            x[i] = if hi > lo { rng.random_range(lo..=hi) } else { lo };
                        }
                        let delta = f_cwnd(net.forward(&x)[0], ctx.cwnd_tcp) - ctx.cwnd_prev;
                        prop_assert!(
                            sign * delta >= -1e-9,
                            "{} {engine} component {k} certified but concrete Δcwnd = {delta}",
                            property.name
                        );
                    }
                }
            }
        }
    }

    /// The abstract f_cwnd always contains the concrete one.
    #[test]
    fn f_cwnd_abstraction_sound(
        a_lo in -1.0f64..1.0,
        width in 0.0f64..0.5,
        cwnd_tcp in 2.0f64..1000.0,
    ) {
        let a_hi = (a_lo + width).min(1.0);
        let out = f_cwnd_abstract(Interval::new(a_lo, a_hi), cwnd_tcp);
        for i in 0..=10 {
            let a = a_lo + (a_hi - a_lo) * i as f64 / 10.0;
            prop_assert!(out.contains(f_cwnd(a, cwnd_tcp)));
        }
    }

    /// P5's certified components never lie either: within a certified
    /// noise slice, the relative output change stays within ε.
    #[test]
    fn robustness_proofs_hold_concretely(seed in 0u64..100) {
        let net = random_net(seed);
        let params = PropertyParams::default();
        let property = Property::p5(&params);
        let mut state = vec![0.2; layout().dim()];
        // Give the delay dims distinctive values so the noise box is real.
        for idx in layout().feature_indices(canopy_repro::core::obs::DELAY_IDX) {
            state[idx] = 0.5;
        }
        let ctx = StepContext {
            state: state.clone(),
            cwnd_tcp: 100.0,
            cwnd_prev: 100.0,
        };
        let cert = Verifier::new(5).certify(&net, &property, layout(), &ctx);
        let base_cwnd = f_cwnd(net.forward(&state)[0], ctx.cwnd_tcp);
        let region = property.input_region(&state, layout());
        let axis = property.split_axis(layout());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
        for comp in cert.components.iter().filter(|c| c.satisfied) {
            for _ in 0..10 {
                let mut x = vec![0.0; layout().dim()];
                for (i, iv) in region.to_intervals().iter().enumerate() {
                    let (lo, hi) = if i == axis {
                        (comp.input_slice.lo, comp.input_slice.hi)
                    } else {
                        (iv.lo, iv.hi)
                    };
                    x[i] = if hi > lo { rng.random_range(lo..=hi) } else { lo };
                }
                let cwnd = f_cwnd(net.forward(&x)[0], ctx.cwnd_tcp);
                let change = (cwnd - base_cwnd).abs() / base_cwnd;
                if let Postcondition::BoundedChange { eps } = property.post {
                    prop_assert!(
                        change <= eps + 1e-9,
                        "certified robustness violated: change {change}"
                    );
                }
            }
        }
    }
}
