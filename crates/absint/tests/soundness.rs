//! Property-based soundness tests for the abstract interpreter: for random
//! networks, random boxes, and random points inside them, the concrete
//! output always lies inside the propagated abstract output.

use canopy_absint::diff_ibp::forward_bounds;
use canopy_absint::{propagate_mlp, BoxState, IbpBatchScratch, Interval, PreparedMlp};
use canopy_nn::{Activation, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_net(seed: u64, act: Activation) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(&mut rng, &[4, 12, 12, 2], act)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// IBP soundness over random tanh networks.
    #[test]
    fn ibp_sound_tanh(
        net_seed in 0u64..1000,
        point_seed in 0u64..1000,
        c0 in -1.0f64..1.0, w0 in 0.0f64..0.8,
        c1 in -1.0f64..1.0, w1 in 0.0f64..0.8,
    ) {
        let net = random_net(net_seed, Activation::Tanh);
        let input = BoxState::from_intervals(&[
            Interval::centered(c0, w0),
            Interval::centered(c1, w1),
            Interval::point(0.25),
            Interval::new(-0.1, 0.1),
        ]);
        let out = propagate_mlp(&net, &input);
        let out_ivs = out.to_intervals();
        let mut rng = StdRng::seed_from_u64(point_seed);
        for _ in 0..32 {
            let x: Vec<f64> = input
                .to_intervals()
                .iter()
                .map(|iv| if iv.width() > 0.0 { rng.random_range(iv.lo..=iv.hi) } else { iv.lo })
                .collect();
            let y = net.forward(&x);
            for (yi, iv) in y.iter().zip(&out_ivs) {
                prop_assert!(iv.contains(*yi), "{yi} outside {iv:?}");
            }
        }
    }

    /// IBP soundness over random ReLU networks (identity output).
    #[test]
    fn ibp_sound_relu(net_seed in 0u64..1000, point_seed in 0u64..1000) {
        let net = random_net(net_seed, Activation::Identity);
        let input = BoxState::from_intervals(&[
            Interval::new(-0.5, 0.5),
            Interval::new(0.0, 1.0),
            Interval::point(-0.3),
            Interval::new(-1.0, -0.5),
        ]);
        let out = propagate_mlp(&net, &input);
        let out_ivs = out.to_intervals();
        let mut rng = StdRng::seed_from_u64(point_seed);
        for _ in 0..32 {
            let x: Vec<f64> = input
                .to_intervals()
                .iter()
                .map(|iv| if iv.width() > 0.0 { rng.random_range(iv.lo..=iv.hi) } else { iv.lo })
                .collect();
            let y = net.forward(&x);
            for (yi, iv) in y.iter().zip(&out_ivs) {
                prop_assert!(iv.contains(*yi));
            }
        }
    }

    /// Batched-IBP soundness with the widening floor at `WIDEN_FLOOR`:
    /// every sampled concrete output lies in `[c − d, c + d]`, on plain
    /// networks and on the shapes where the floor is all that separates the
    /// bound from the value — a layer scaled to `1e-150` or `1e+150`,
    /// rows whose terms cancel exactly, and a fully dead ReLU layer.
    #[test]
    fn batched_ibp_sound_at_every_scale(
        net_seed in 0u64..1000,
        point_seed in 0u64..1000,
        shape in 0usize..5,
        out_act in 0usize..2,
    ) {
        let out_act = [Activation::Tanh, Activation::Identity][out_act];
        let mut net = random_net(net_seed, out_act);
        match shape {
            1 | 2 => {
                let scale = if shape == 1 { 1e-150 } else { 1e150 };
                let layer = &mut net.layers_mut()[net_seed as usize % 3];
                layer.weights.as_mut_slice().iter_mut().for_each(|w| *w *= scale);
            }
            // Inputs 2 and 3 get opposite weights and (below) equal values.
            3 => {
                let layer = &mut net.layers_mut()[0];
                for r in 0..layer.fan_out() {
                    *layer.weights.get_mut(r, 3) = -layer.weights.get(r, 2);
                }
            }
            4 => net.layers_mut()[net_seed as usize % 2].bias.fill(-1e3),
            _ => {}
        }
        let mut rng = StdRng::seed_from_u64(point_seed);
        let boxes: Vec<BoxState> = (0..4)
            .map(|_| {
                let mut center: Vec<f64> = (0..4).map(|_| rng.random_range(-1.0..1.0)).collect();
                let mut dev: Vec<f64> = (0..4)
                    .map(|_| if rng.random_range(0..3) == 0 { 0.0 } else { rng.random_range(0.0..0.5) })
                    .collect();
                if shape == 3 {
                    (center[3], dev[2], dev[3]) = (center[2], 0.0, 0.0);
                }
                BoxState::new(center, dev)
            })
            .collect();
        let prepared = PreparedMlp::new(&net);
        let mut scratch = IbpBatchScratch::new();
        let (in_c, in_d) = scratch.stage(boxes.len(), 4);
        for (r, b) in boxes.iter().enumerate() {
            in_c.set_row(r, &b.center);
            in_d.set_row(r, &b.dev);
        }
        let (c, d) = prepared.propagate_staged(&mut scratch, None);
        for (r, b) in boxes.iter().enumerate() {
            for _ in 0..16 {
                let x: Vec<f64> = b
                    .to_intervals()
                    .iter()
                    .map(|iv| if iv.width() > 0.0 { rng.random_range(iv.lo..=iv.hi) } else { iv.lo })
                    .collect();
                for (k, y) in net.forward(&x).into_iter().enumerate() {
                    let (ck, dk) = (c.get(r, k), d.get(r, k));
                    prop_assert!(
                        ck - dk <= y && y <= ck + dk,
                        "shape {shape}: {y:e} outside {ck:e} ± {dk:e}"
                    );
                }
            }
        }
    }

    /// The differentiable (training) bounds agree with the sound bounds up
    /// to the latter's rounding slack and are themselves valid bounds.
    #[test]
    fn diff_bounds_agree_with_sound(net_seed in 0u64..500) {
        let net = random_net(net_seed, Activation::Tanh);
        let lo = [-0.2, 0.0, 0.25, -0.1];
        let hi = [0.2, 1.0, 0.25, 0.1];
        let trace = forward_bounds(&net, &lo, &hi);
        let boxed = BoxState::from_intervals(&[
            Interval::new(lo[0], hi[0]),
            Interval::new(lo[1], hi[1]),
            Interval::new(lo[2], hi[2]),
            Interval::new(lo[3], hi[3]),
        ]);
        let sound = propagate_mlp(&net, &boxed);
        for k in 0..2 {
            let s = sound.dim_interval(k);
            prop_assert!((trace.out_lo()[k] - s.lo).abs() < 1e-9);
            prop_assert!((trace.out_hi()[k] - s.hi).abs() < 1e-9);
        }
    }

    /// Interval arithmetic is closed under containment: if x ∈ a and
    /// y ∈ b then x∘y ∈ a∘b for all implemented operators.
    #[test]
    fn interval_ops_contain(
        a_lo in -10.0f64..10.0, a_w in 0.0f64..5.0,
        b_lo in -10.0f64..10.0, b_w in 0.0f64..5.0,
        ta in 0.0f64..1.0, tb in 0.0f64..1.0,
    ) {
        let a = Interval::new(a_lo, a_lo + a_w);
        let b = Interval::new(b_lo, b_lo + b_w);
        let x = a.lo + ta * a.width();
        let y = b.lo + tb * b.width();
        prop_assert!(a.add(b).contains(x + y));
        prop_assert!(a.sub(b).contains(x - y));
        prop_assert!(a.mul(b).contains(x * y));
        prop_assert!(a.neg().contains(-x));
        prop_assert!(a.abs().contains(x.abs()));
        prop_assert!(a.relu().contains(x.max(0.0)));
        prop_assert!(a.tanh().contains(x.tanh()));
        if a.hi < 3.0 {
            prop_assert!(a.exp2().contains(x.exp2()));
        }
        if !b.contains(0.0) {
            prop_assert!(b.div(b).is_some());
            prop_assert!(a.div(b).unwrap().contains(x / y));
        }
        prop_assert!(a.scale(2.5).contains(x * 2.5));
        prop_assert!(a.scale(-1.5).contains(x * -1.5));
    }

    /// Splitting a box covers it exactly: every sampled point of the
    /// original box belongs to at least one component.
    #[test]
    fn split_covers(
        lo in -5.0f64..5.0,
        w in 0.01f64..10.0,
        n in 1usize..12,
        t in 0.0f64..1.0,
    ) {
        let b = BoxState::from_intervals(&[Interval::new(lo, lo + w), Interval::point(1.0)]);
        let parts = b.split_dim(0, n);
        let x = [lo + t * w, 1.0];
        prop_assert!(parts.iter().any(|p| p.contains(&x)),
            "{x:?} not covered by any of {n} parts");
    }
}
