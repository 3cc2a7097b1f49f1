//! Bitwise equivalence of the batched differentiable-IBP engine
//! ([`canopy_absint::DiffIbp`], one box or many) against the per-sample
//! scalar loops it replaced, kept verbatim in [`oracle`].

use canopy_absint::{BoundGrads, DiffIbp};
use canopy_nn::{Activation, Mlp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pre-engine implementation, moved here unchanged.
#[allow(dead_code)]
mod oracle {
    use canopy_nn::{Activation, Mlp};

    /// Cached per-layer bounds from [`forward_bounds`], consumed by
    /// [`backward_bounds`].
    #[derive(Clone, Debug)]
    pub struct BoundsTrace {
        input_lo: Vec<f64>,
        input_hi: Vec<f64>,
        /// Pre-activation bounds per layer.
        pre_lo: Vec<Vec<f64>>,
        pre_hi: Vec<Vec<f64>>,
        /// Post-activation bounds per layer.
        post_lo: Vec<Vec<f64>>,
        post_hi: Vec<Vec<f64>>,
    }

    impl BoundsTrace {
        /// The output lower bounds.
        pub fn out_lo(&self) -> &[f64] {
            self.post_lo.last().expect("at least one layer")
        }

        /// The output upper bounds.
        pub fn out_hi(&self) -> &[f64] {
            self.post_hi.last().expect("at least one layer")
        }

        /// The final layer's **pre-activation** lower bounds.
        ///
        /// Hinge losses for certified training are best expressed here: a
        /// saturated output tanh has a vanishing derivative, so a loss on the
        /// post-activation bound cannot pull a saturated policy back, while
        /// the pre-activation bound always carries gradient.
        pub fn pre_out_lo(&self) -> &[f64] {
            self.pre_lo.last().expect("at least one layer")
        }

        /// The final layer's pre-activation upper bounds.
        pub fn pre_out_hi(&self) -> &[f64] {
            self.pre_hi.last().expect("at least one layer")
        }
    }

    /// Propagates an input box `[lo, hi]` through the network, returning the
    /// output bounds and the trace needed for the backward pass.
    ///
    /// For an affine layer, `lo' = W⁺·lo + W⁻·hi + b` and
    /// `hi' = W⁺·hi + W⁻·lo + b` (`W⁺`/`W⁻` the positive/negative parts);
    /// monotone activations map bounds to bounds.
    ///
    /// # Panics
    ///
    /// Panics if `lo`/`hi` lengths mismatch the network input, or any
    /// `lo[i] > hi[i]`.
    pub fn forward_bounds(net: &Mlp, lo: &[f64], hi: &[f64]) -> BoundsTrace {
        assert_eq!(lo.len(), net.input_dim(), "lower-bound shape mismatch");
        assert_eq!(hi.len(), net.input_dim(), "upper-bound shape mismatch");
        assert!(
            lo.iter().zip(hi).all(|(l, h)| l <= h),
            "inverted input bounds"
        );
        let mut cur_lo = lo.to_vec();
        let mut cur_hi = hi.to_vec();
        let mut pre_lo = Vec::with_capacity(net.layers().len());
        let mut pre_hi = Vec::with_capacity(net.layers().len());
        let mut post_lo = Vec::with_capacity(net.layers().len());
        let mut post_hi = Vec::with_capacity(net.layers().len());
        for layer in net.layers() {
            let out = layer.fan_out();
            let mut zl = vec![0.0; out];
            let mut zh = vec![0.0; out];
            for r in 0..out {
                let row = layer.weights.row(r);
                let mut l = layer.bias[r];
                let mut h = layer.bias[r];
                for (j, &w) in row.iter().enumerate() {
                    if w >= 0.0 {
                        l += w * cur_lo[j];
                        h += w * cur_hi[j];
                    } else {
                        l += w * cur_hi[j];
                        h += w * cur_lo[j];
                    }
                }
                zl[r] = l;
                zh[r] = h;
            }
            let al: Vec<f64> = zl.iter().map(|&z| layer.activation.apply(z)).collect();
            let ah: Vec<f64> = zh.iter().map(|&z| layer.activation.apply(z)).collect();
            pre_lo.push(zl);
            pre_hi.push(zh);
            post_lo.push(al.clone());
            post_hi.push(ah.clone());
            cur_lo = al;
            cur_hi = ah;
        }
        BoundsTrace {
            input_lo: lo.to_vec(),
            input_hi: hi.to_vec(),
            pre_lo,
            pre_hi,
            post_lo,
            post_hi,
        }
    }

    fn act_derivative(act: Activation, pre: f64, post: f64) -> f64 {
        match act {
            Activation::Relu => {
                if pre > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - post * post,
            Activation::Identity => 1.0,
        }
    }

    /// Backpropagates a loss gradient on the output bounds into the network's
    /// gradient accumulators (adding on top of whatever is there, so the
    /// certified loss composes with a policy-gradient update), and returns the
    /// gradients with respect to the input bounds.
    ///
    /// # Panics
    ///
    /// Panics if gradient shapes mismatch the network output.
    pub fn backward_bounds(
        net: &mut Mlp,
        trace: &BoundsTrace,
        grad_out_lo: &[f64],
        grad_out_hi: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        backward_impl(net, trace, grad_out_lo, grad_out_hi, false)
    }

    /// Like [`backward_bounds`], but the gradients are with respect to the
    /// final layer's **pre-activation** bounds (see
    /// [`BoundsTrace::pre_out_lo`]), skipping the output activation's
    /// derivative — the entry point certified training uses to stay clear of
    /// tanh saturation.
    pub fn backward_bounds_pre(
        net: &mut Mlp,
        trace: &BoundsTrace,
        grad_pre_lo: &[f64],
        grad_pre_hi: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        backward_impl(net, trace, grad_pre_lo, grad_pre_hi, true)
    }

    fn backward_impl(
        net: &mut Mlp,
        trace: &BoundsTrace,
        grad_out_lo: &[f64],
        grad_out_hi: &[f64],
        from_pre_activation: bool,
    ) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(grad_out_lo.len(), net.output_dim(), "grad shape mismatch");
        assert_eq!(grad_out_hi.len(), net.output_dim(), "grad shape mismatch");
        let mut g_lo = grad_out_lo.to_vec();
        let mut g_hi = grad_out_hi.to_vec();
        let n_layers = net.layers().len();
        for i in (0..n_layers).rev() {
            let layer = &mut net.layers_mut()[i];
            layer.ensure_grads();
            // Through the activation (skipped at the top when the caller's
            // gradient is already with respect to the pre-activation).
            if !(from_pre_activation && i == n_layers - 1) {
                for r in 0..g_lo.len() {
                    g_lo[r] *=
                        act_derivative(layer.activation, trace.pre_lo[i][r], trace.post_lo[i][r]);
                    g_hi[r] *=
                        act_derivative(layer.activation, trace.pre_hi[i][r], trace.post_hi[i][r]);
                }
            }
            let (in_lo, in_hi): (&[f64], &[f64]) = if i == 0 {
                (&trace.input_lo, &trace.input_hi)
            } else {
                (&trace.post_lo[i - 1], &trace.post_hi[i - 1])
            };
            let fan_in = layer.fan_in();
            let mut next_g_lo = vec![0.0; fan_in];
            let mut next_g_hi = vec![0.0; fan_in];
            for r in 0..layer.fan_out() {
                let gl = g_lo[r];
                let gh = g_hi[r];
                layer.grad_bias[r] += gl + gh;
                for j in 0..fan_in {
                    let w = layer.weights.get(r, j);
                    // lo' uses (w⁺·lo + w⁻·hi); hi' uses (w⁺·hi + w⁻·lo).
                    if w >= 0.0 {
                        *layer.grad_weights.get_mut(r, j) += gl * in_lo[j] + gh * in_hi[j];
                        next_g_lo[j] += gl * w;
                        next_g_hi[j] += gh * w;
                    } else {
                        *layer.grad_weights.get_mut(r, j) += gl * in_hi[j] + gh * in_lo[j];
                        next_g_hi[j] += gl * w;
                        next_g_lo[j] += gh * w;
                    }
                }
            }
            g_lo = next_g_lo;
            g_hi = next_g_hi;
        }
        (g_lo, g_hi)
    }
}

const ACTIVATIONS: [Activation; 3] = [Activation::Relu, Activation::Tanh, Activation::Identity];
const WIDTHS: [usize; 5] = [1, 3, 5, 13, 32];

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A network over the width/activation grid with a dead unit (large
/// negative bias, so a ReLU there never fires), a `-0.0` weight, and a
/// non-zero "policy gradient" already sitting in the accumulators.
fn fixture(case: usize) -> Mlp {
    let mut rng = StdRng::seed_from_u64(case as u64);
    let pick = |rng: &mut StdRng| WIDTHS[rng.random_range(0..WIDTHS.len())];
    let widths = [pick(&mut rng), pick(&mut rng), pick(&mut rng), 1 + case % 3];
    let mut net = Mlp::new(&mut rng, &widths, ACTIVATIONS[case % 3]);
    for (i, layer) in net.layers_mut().iter_mut().enumerate() {
        if i < 2 {
            layer.activation = ACTIVATIONS[(case / 3 + i) % 3];
        }
        for b in &mut layer.bias {
            *b = rng.random_range(-0.3..0.3);
        }
        layer.ensure_grads();
        for g in layer.grad_weights.as_mut_slice() {
            *g = rng.random_range(-1.0..1.0);
        }
        for g in &mut layer.grad_bias {
            *g = rng.random_range(-1.0..1.0);
        }
    }
    net.layers_mut()[0].bias[0] = -100.0;
    *net.layers_mut()[1].weights.get_mut(0, 0) = -0.0;
    net
}

/// A random box; about a third of the dimensions are points.
fn random_box(rng: &mut StdRng, dim: usize) -> (Vec<f64>, Vec<f64>) {
    let lo: Vec<f64> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
    let hi = lo
        .iter()
        .map(|&l| match rng.random_range(0..3) {
            0 => l,
            _ => l + rng.random_range(0.0..0.5),
        })
        .collect();
    (lo, hi)
}

fn random_grads(rng: &mut StdRng, dim: usize) -> (Vec<f64>, Vec<f64>) {
    let g = |rng: &mut StdRng| (0..dim).map(|_| rng.random_range(-2.0..2.0)).collect();
    (g(rng), g(rng))
}

/// An engine bound to `net` with the one box `[lo, hi]` staged and
/// propagated.
fn one_box(net: &Mlp, lo: &[f64], hi: &[f64]) -> DiffIbp {
    let mut engine = DiffIbp::default();
    engine.bind(net);
    let (in_lo, in_hi) = engine.stage(1);
    in_lo.set_row(0, lo);
    in_hi.set_row(0, hi);
    engine.forward();
    engine
}

/// A fresh engine per box against the oracle: every bound, the input-bound
/// gradients and the accumulated weight gradients.
#[test]
fn one_row_calls_match_the_old_loops() {
    let mut grads = BoundGrads::default();
    for case in 0..90 {
        let mut rng = StdRng::seed_from_u64(1000 + case as u64);
        let net = fixture(case);
        let (lo, hi) = random_box(&mut rng, net.input_dim());
        let got = one_box(&net, &lo, &hi);
        let want = oracle::forward_bounds(&net, &lo, &hi);
        let ((pre_lo, pre_hi), (out_lo, out_hi)) = (got.pre_out_bounds(0), got.out_bounds(0));
        assert_eq!(bits(pre_lo), bits(want.pre_out_lo()), "case {case}");
        assert_eq!(bits(pre_hi), bits(want.pre_out_hi()), "case {case}");
        assert_eq!(bits(out_lo), bits(want.out_lo()), "case {case}");
        assert_eq!(bits(out_hi), bits(want.out_hi()), "case {case}");

        let (g_lo, g_hi) = random_grads(&mut rng, net.output_dim());
        for pre in [false, true] {
            let (mut a, mut b) = (net.clone(), net.clone());
            got.backward_row(&mut a, 0, &g_lo, &g_hi, pre, &mut grads);
            let want_in = if pre {
                oracle::backward_bounds_pre(&mut b, &want, &g_lo, &g_hi)
            } else {
                oracle::backward_bounds(&mut b, &want, &g_lo, &g_hi)
            };
            assert_eq!(bits(&grads.lo), bits(&want_in.0), "case {case} pre {pre}");
            assert_eq!(bits(&grads.hi), bits(&want_in.1), "case {case} pre {pre}");
            assert_eq!(bits(&a.grads_flat()), bits(&b.grads_flat()), "case {case}");
        }
    }
}

/// Which rows of a batch back-propagate.
#[derive(Clone, Copy, Debug)]
enum Hinges {
    AllInactive,
    AllActive,
    Random,
}

/// A staged batch against a per-sample oracle loop over the same rows:
/// the bounds of every row, and the gradients accumulated — on top of the
/// fixture's non-zero policy gradient — by the active rows in order.
#[test]
fn batched_rows_match_a_per_sample_loop() {
    let mut engine = DiffIbp::default();
    let mut grads = BoundGrads::default();
    for (case, &rows) in [1usize, 2, 63, 64, 65, 128]
        .iter()
        .cycle()
        .take(54)
        .enumerate()
    {
        for hinges in [Hinges::AllInactive, Hinges::AllActive, Hinges::Random] {
            let mut rng = StdRng::seed_from_u64(2000 + case as u64);
            let net = fixture(case);
            let boxes: Vec<_> = (0..rows)
                .map(|_| random_box(&mut rng, net.input_dim()))
                .collect();
            let (mut a, mut b) = (net.clone(), net.clone());

            // One resident engine across cases: rebinding must leave no
            // state of the previous network or batch behind.
            engine.bind(&a);
            let (in_lo, in_hi) = engine.stage(rows);
            for (r, (lo, hi)) in boxes.iter().enumerate() {
                in_lo.set_row(r, lo);
                in_hi.set_row(r, hi);
            }
            engine.forward();

            for (r, (lo, hi)) in boxes.iter().enumerate() {
                let want = oracle::forward_bounds(&b, lo, hi);
                let (pre_lo, pre_hi) = engine.pre_out_bounds(r);
                let (out_lo, out_hi) = engine.out_bounds(r);
                assert_eq!(bits(pre_lo), bits(want.pre_out_lo()), "case {case} row {r}");
                assert_eq!(bits(pre_hi), bits(want.pre_out_hi()), "case {case} row {r}");
                assert_eq!(bits(out_lo), bits(want.out_lo()), "case {case} row {r}");
                assert_eq!(bits(out_hi), bits(want.out_hi()), "case {case} row {r}");

                let active = match hinges {
                    Hinges::AllInactive => false,
                    Hinges::AllActive => true,
                    Hinges::Random => rng.random_range(0..2) == 0,
                };
                if !active {
                    continue;
                }
                let (g_lo, g_hi) = random_grads(&mut rng, net.output_dim());
                let pre = r % 2 == 0;
                engine.backward_row(&mut a, r, &g_lo, &g_hi, pre, &mut grads);
                let want_in = if pre {
                    oracle::backward_bounds_pre(&mut b, &want, &g_lo, &g_hi)
                } else {
                    oracle::backward_bounds(&mut b, &want, &g_lo, &g_hi)
                };
                assert_eq!(bits(&grads.lo), bits(&want_in.0), "case {case} row {r}");
                assert_eq!(bits(&grads.hi), bits(&want_in.1), "case {case} row {r}");
            }
            assert_eq!(
                bits(&a.grads_flat()),
                bits(&b.grads_flat()),
                "case {case} rows {rows} {hinges:?}"
            );
            if matches!(hinges, Hinges::AllInactive) {
                let mut untouched = net.clone();
                assert_eq!(bits(&a.grads_flat()), bits(&untouched.grads_flat()));
            }
        }
    }
}

#[test]
#[should_panic(expected = "inverted input bounds")]
fn one_row_call_rejects_inverted_bounds() {
    let net = fixture(0);
    let lo = vec![0.5; net.input_dim()];
    let hi = vec![0.0; net.input_dim()];
    one_box(&net, &lo, &hi);
}

#[test]
#[should_panic(expected = "inverted input bounds")]
fn batch_rejects_one_inverted_row() {
    let net = fixture(0);
    let mut engine = DiffIbp::default();
    engine.bind(&net);
    let (in_lo, in_hi) = engine.stage(3);
    in_lo.as_mut_slice().fill(0.0);
    in_hi.as_mut_slice().fill(0.0);
    in_lo.row_mut(2)[0] = 1.0;
    engine.forward();
}

/// Staging sizes every row to the bound network's input width, so a
/// short box is refused as it is written.
#[test]
#[should_panic(expected = "row length mismatch")]
fn rejects_short_lower_bounds() {
    let net = fixture(0);
    one_box(&net, &[], &vec![0.0; net.input_dim()]);
}

#[test]
#[should_panic(expected = "row length mismatch")]
fn rejects_short_upper_bounds() {
    let net = fixture(0);
    one_box(&net, &vec![0.0; net.input_dim()], &[]);
}

#[test]
#[should_panic(expected = "grad shape mismatch")]
fn rejects_misshapen_output_gradients() {
    let mut net = fixture(0);
    let x = vec![0.0; net.input_dim()];
    let engine = one_box(&net, &x, &x);
    engine.backward_row(&mut net, 0, &[], &[], false, &mut BoundGrads::default());
}
