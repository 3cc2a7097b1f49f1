//! Interval bound propagation (IBP) through `canopy-nn` networks.
//!
//! Each dense layer is lifted exactly as in Section 3.2 of the paper:
//! for `f(x) = M·x + b`, the abstract transformer is
//! `f#(b_c, b_e) = (M·b_c + b, |M|·b_e)`, followed by the activation's
//! abstract transformer. Floating-point rounding is absorbed into the
//! deviation using the standard dot-product error bound
//! `|fl(Σaᵢ) − Σaᵢ| ≤ γ_n·Σ|aᵢ|`, so the resulting box soundly contains
//! every concretely reachable output.

use canopy_nn::{Activation, Dense, Mlp};

use crate::boxdom::BoxState;
use crate::interval::Interval;

/// Upper bound on the relative rounding error of summing `n` products,
/// with a 2× safety factor over the textbook `γ_n = n·u/(1−n·u)`. The
/// bound holds for *any* summation order, which is what lets the batched
/// GEMM propagation in [`batch_ibp`](crate::batch_ibp) reuse it.
pub(crate) fn gamma(n: usize) -> f64 {
    2.0 * (n as f64 + 2.0) * f64::EPSILON
}

/// The additive floor of every *branchless* outward widening
/// `x·(1 + kε) + WIDEN_FLOOR` of a non-negative `x` (the batched IBP
/// deviations, fresh zonotope generators): `2⁻⁴⁹⁸ ≈ 1.2e-150`.
///
/// Soundness, written once: for every finite `x ≥ 0` the result is at
/// least `x.next_up()` — the relative bump alone covers one ULP of a
/// normal `x`, the floor covers zero and the subnormals — and anything
/// wider than a sound enclosure is sound, as is overflow to `+inf`.
///
/// Why not `f64::MIN_POSITIVE`: a dead ReLU unit's deviation floors at this
/// constant and then meets the next layer's `|w|`, `γ` and `4ε` factors. A
/// floor at the bottom of the normal range makes every such product
/// *subnormal*, and each subnormal operand costs a ~100-cycle microcode
/// assist inside the GEMM inner loops. From `2⁻⁴⁹⁸` the products stay
/// normal for any `|w| ≳ 1e-150`, while the floor is still 130 orders of
/// magnitude below any bound a certificate compares. (Flushing subnormals
/// through MXCSR instead would round *inward* and break the enclosure.)
pub(crate) const WIDEN_FLOOR: f64 = f64::from_bits((1023_u64 - 498) << 52);

/// Applies one dense layer's abstract transformer to a box.
///
/// # Panics
///
/// Panics if the box dimensionality does not match the layer's fan-in.
pub(crate) fn propagate_dense(layer: &Dense, input: &BoxState) -> BoxState {
    assert_eq!(input.dim(), layer.fan_in(), "abstract state shape mismatch");
    // `dim()` only measures `center`; the fields are public, so a
    // mismatched `dev` must stay a loud panic — the zip below would
    // otherwise truncate silently and emit unsoundly tight bounds.
    assert_eq!(
        input.dev.len(),
        input.center.len(),
        "abstract state dev/center mismatch"
    );
    let n = layer.fan_in();
    let out = layer.fan_out();
    let g = gamma(n);
    let mut center = Vec::with_capacity(out);
    let mut dev = Vec::with_capacity(out);
    for r in 0..out {
        let row = layer.weights.row(r);
        let mut c = layer.bias[r];
        let mut d = 0.0;
        let mut abs_acc = layer.bias[r].abs();
        for ((&w, &ci), &di) in row.iter().zip(&input.center).zip(&input.dev) {
            c += w * ci;
            d += w.abs() * di;
            abs_acc += (w * ci).abs() + w.abs() * di;
        }
        // Absorb rounding of both accumulations into the deviation.
        let err = g * abs_acc;
        center.push(c);
        dev.push((d + err).next_up());
    }
    let affine = BoxState::new(center, dev);
    apply_activation(layer.activation, &affine)
}

/// Applies an activation's abstract transformer dimension-wise.
pub(crate) fn apply_activation(activation: Activation, input: &BoxState) -> BoxState {
    match activation {
        Activation::Identity => input.clone(),
        Activation::Relu => transform_intervals(input, Interval::relu),
        Activation::Tanh => transform_intervals(input, Interval::tanh),
    }
}

/// Maps each dimension's interval through `f` and re-centres, widening the
/// deviation by one ULP to cover the re-centring arithmetic.
fn transform_intervals(input: &BoxState, f: impl Fn(Interval) -> Interval) -> BoxState {
    let mut center = Vec::with_capacity(input.dim());
    let mut dev = Vec::with_capacity(input.dim());
    for i in 0..input.dim() {
        let out = f(input.dim_interval(i));
        center.push(out.center());
        // The centre/deviation of `out` are computed in floating point;
        // widen so the represented interval still covers `out` exactly.
        let d = out.deviation();
        let slack = (out.lo.abs().max(out.hi.abs())) * 4.0 * f64::EPSILON;
        dev.push((d + slack).next_up());
    }
    BoxState::new(center, dev)
}

/// Propagates a box through an entire MLP, returning the output box.
///
/// This scalar pass is the **reference enclosure**: nothing on a
/// certification path calls it (they run [`PreparedMlp`](crate::PreparedMlp)'s
/// batched kernel), and `tests/soundness.rs` and
/// `tests/enclosure_differential.rs` hold the batched and zonotope
/// enclosures against it.
///
/// # Panics
///
/// Panics if the box dimensionality does not match the network input.
pub fn propagate_mlp(net: &Mlp, input: &BoxState) -> BoxState {
    let mut state = input.clone();
    for layer in net.layers() {
        state = propagate_dense(layer, &state);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopy_nn::{relu, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn net(seed: u64, widths: &[usize]) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(&mut rng, widths, Activation::Tanh)
    }

    #[test]
    fn point_box_matches_concrete_forward() {
        let net = net(0, &[4, 16, 16, 1]);
        let x = [0.3, -0.1, 0.8, 0.05];
        let y = net.forward(&x);
        let out = propagate_mlp(&net, &BoxState::point(&x));
        let iv = out.dim_interval(0);
        assert!(iv.contains(y[0]), "{iv:?} must contain {}", y[0]);
        assert!(iv.width() < 1e-9, "point propagation is near-exact");
    }

    /// The soundness property: for random inputs inside the box, the
    /// concrete output lies inside the propagated box.
    #[test]
    fn sound_over_random_samples() {
        let net = net(1, &[3, 24, 24, 2]);
        let mut rng = StdRng::seed_from_u64(99);
        let input = BoxState::from_intervals(&[
            Interval::new(-0.2, 0.4),
            Interval::new(0.0, 1.0),
            Interval::point(0.5),
        ]);
        let out = propagate_mlp(&net, &input);
        let out_ivs = out.to_intervals();
        for _ in 0..500 {
            let x: Vec<f64> = input
                .to_intervals()
                .iter()
                .map(|iv| {
                    if iv.width() == 0.0 {
                        iv.lo
                    } else {
                        rng.random_range(iv.lo..=iv.hi)
                    }
                })
                .collect();
            let y = net.forward(&x);
            for (yi, iv) in y.iter().zip(&out_ivs) {
                assert!(iv.contains(*yi), "output {yi} outside {iv:?}");
            }
        }
    }

    #[test]
    fn monotone_in_input_box() {
        // A smaller input box yields a (weakly) smaller output box.
        let net = net(2, &[2, 16, 1]);
        let big = BoxState::from_intervals(&[Interval::new(-1.0, 1.0), Interval::new(0.0, 2.0)]);
        let small = BoxState::from_intervals(&[Interval::new(-0.1, 0.1), Interval::new(0.9, 1.1)]);
        let out_big = propagate_mlp(&net, &big).dim_interval(0);
        let out_small = propagate_mlp(&net, &small).dim_interval(0);
        assert!(
            out_small.width() <= out_big.width() + 1e-12,
            "{out_small:?} vs {out_big:?}"
        );
    }

    #[test]
    fn paper_relu_transformer_equivalence() {
        // The paper's ReLU# formula —
        //   ((ReLU(c+e)+ReLU(c−e))/2, (ReLU(c+e)−ReLU(c−e))/2)
        // — equals the interval form [ReLU(lo), ReLU(hi)] used here.
        for (c, e) in [(1.0f64, 0.5f64), (-1.0, 0.5), (0.2, 0.7), (0.0, 0.0)] {
            let hi = c + e;
            let lo = c - e;
            let paper = ((relu(hi) + relu(lo)) / 2.0, (relu(hi) - relu(lo)) / 2.0);
            let iv = Interval::new(lo, hi).relu();
            assert!((iv.center() - paper.0).abs() < 1e-12);
            assert!((iv.deviation() - paper.1).abs() < 1e-12);
        }
    }

    #[test]
    fn hand_computed_affine_layer() {
        // W = [[1, -2]], b = [0.5]: interval x ∈ [0,1]×[0,1]
        // → c = 1·0.5 − 2·0.5 + 0.5 = 0, d = 1·0.5 + 2·0.5 = 1.5.
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(&mut rng, 2, 1, Activation::Identity);
        layer.weights = Matrix::from_rows(&[&[1.0, -2.0]]);
        layer.bias = vec![0.5];
        let input = BoxState::from_intervals(&[Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)]);
        let out = propagate_dense(&layer, &input);
        assert!((out.center[0] - 0.0).abs() < 1e-12);
        assert!((out.dev[0] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn deeper_nets_widen_not_narrow() {
        // IBP over-approximates: a 2-layer bound is at least as wide as the
        // tightest possible output range. Check containment of sampled hull.
        let net = net(5, &[2, 32, 32, 1]);
        let input = BoxState::from_intervals(&[Interval::new(-0.5, 0.5), Interval::new(-0.5, 0.5)]);
        let out = propagate_mlp(&net, &input).dim_interval(0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut sampled_lo = f64::INFINITY;
        let mut sampled_hi = f64::NEG_INFINITY;
        for _ in 0..2000 {
            let x = [rng.random_range(-0.5..=0.5), rng.random_range(-0.5..=0.5)];
            let y = net.forward(&x)[0];
            sampled_lo = sampled_lo.min(y);
            sampled_hi = sampled_hi.max(y);
        }
        assert!(out.lo <= sampled_lo && out.hi >= sampled_hi);
    }
}
