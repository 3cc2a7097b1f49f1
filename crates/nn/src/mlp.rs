//! Multilayer perceptrons with reverse-mode gradients.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::layer::{Activation, Dense};

/// A feed-forward network: a stack of [`Dense`] layers.
///
/// # Examples
///
/// ```
/// use canopy_nn::{Activation, Mlp};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// // A 3-input, two hidden ReLU layers of 16, tanh-bounded scalar output.
/// let net = Mlp::new(&mut rng, &[3, 16, 16, 1], Activation::Tanh);
/// let y = net.forward(&[0.1, -0.2, 0.3]);
/// assert_eq!(y.len(), 1);
/// assert!(y[0] > -1.0 && y[0] < 1.0);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Cached pre- and post-activation values from a forward pass, consumed by
/// [`Mlp::backward`].
#[derive(Clone, Debug)]
pub struct ForwardTrace {
    /// The network input.
    pub input: Vec<f64>,
    /// Pre-activation values per layer.
    pub pre: Vec<Vec<f64>>,
    /// Post-activation values per layer (the last is the network output).
    pub post: Vec<Vec<f64>>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths. Hidden layers use ReLU;
    /// the final layer uses `output_activation`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new<R: Rng>(rng: &mut R, widths: &[usize], output_activation: Activation) -> Mlp {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let mut layers = Vec::with_capacity(widths.len() - 1);
        for i in 0..widths.len() - 1 {
            let act = if i + 2 == widths.len() {
                output_activation
            } else {
                Activation::Relu
            };
            layers.push(Dense::new(rng, widths[i], widths[i + 1], act));
        }
        Mlp { layers }
    }

    /// The layer stack (read-only; the abstract interpreter walks this).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable layer access (used by tests to pin weights).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, Dense::fan_in)
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, Dense::fan_out)
    }

    /// Checks that the layers chain: at least one layer, each weight
    /// matrix holding `rows × cols` values, each bias one per output unit,
    /// and each fan-in the previous layer's fan-out. Every pass over the
    /// network assumes this. [`new`](Self::new) builds only networks that
    /// pass; one read from JSON or edited through
    /// [`layers_mut`](Self::layers_mut) is checked before it is served.
    pub fn check_shapes(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err("the network has no layers".into());
        }
        let mut width = self.input_dim();
        for (i, layer) in self.layers.iter().enumerate() {
            let w = &layer.weights;
            if w.rows().checked_mul(w.cols()) != Some(w.as_slice().len()) {
                let (len, rows, cols) = (w.as_slice().len(), w.rows(), w.cols());
                return Err(format!("layer {i}: {len} weights for {rows} × {cols}"));
            }
            if layer.bias.len() != layer.fan_out() {
                let (len, out) = (layer.bias.len(), layer.fan_out());
                return Err(format!("layer {i}: {len} biases for {out} outputs"));
            }
            if layer.fan_in() != width {
                let fan_in = layer.fan_in();
                return Err(format!(
                    "layer {i}: fan-in {fan_in} after a layer of {width}"
                ));
            }
            width = layer.fan_out();
        }
        Ok(())
    }

    /// Forward pass without caching.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the input dimensionality.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut h = x.to_vec();
        for layer in &self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Forward pass that records the activations needed for [`backward`](Self::backward).
    pub fn forward_trace(&self, x: &[f64]) -> (Vec<f64>, ForwardTrace) {
        let mut pre = Vec::with_capacity(self.layers.len());
        let mut post: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            // The trace owns each activation vector; reading the previous
            // layer's output straight out of `post` avoids the per-layer
            // copy a separate running buffer would need.
            let h: &[f64] = if i == 0 { x } else { &post[i - 1] };
            let z = layer.affine(h);
            let y: Vec<f64> = z.iter().map(|&zi| layer.activation.apply(zi)).collect();
            pre.push(z);
            post.push(y);
        }
        // Never empty: `new` builds at least one layer, `layers_mut` cannot
        // remove one, and a network read from JSON is served only after
        // `check_shapes`.
        (
            post.last().expect("network has at least one layer").clone(),
            ForwardTrace {
                input: x.to_vec(),
                pre,
                post,
            },
        )
    }

    /// Forward pass over the logical concatenation `[a ‖ b]` without
    /// materializing it — the allocation-free replacement for
    /// `forward(&concat(a, b))` used by critics that score state–action
    /// pairs. Bitwise identical to the concatenated call.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() + b.len()` does not match the input
    /// dimensionality.
    pub fn forward_concat(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        // As in `forward_trace`: a served network has a layer.
        let first = self.layers.first().expect("network has at least one layer");
        let mut h: Vec<f64> = first
            .affine2(a, b)
            .into_iter()
            .map(|z| first.activation.apply(z))
            .collect();
        for layer in &self.layers[1..] {
            h = layer.forward(&h);
        }
        h
    }

    /// Reverse-mode pass: accumulates parameter gradients for the loss whose
    /// gradient with respect to the network output is `grad_output`, and
    /// returns the gradient with respect to the network input.
    ///
    /// Gradients accumulate across calls (mini-batching); call
    /// [`zero_grads`](Self::zero_grads) between optimizer steps.
    pub fn backward(&mut self, trace: &ForwardTrace, grad_output: &[f64]) -> Vec<f64> {
        assert_eq!(grad_output.len(), self.output_dim(), "bad grad shape");
        let mut grad = grad_output.to_vec();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            layer.ensure_grads();
            // Through the activation.
            let pre = &trace.pre[i];
            let post = &trace.post[i];
            for ((g, &z), &y) in grad.iter_mut().zip(pre).zip(post) {
                *g *= layer.activation.derivative(z, y);
            }
            // Parameter gradients.
            let layer_input: &[f64] = if i == 0 {
                &trace.input
            } else {
                &trace.post[i - 1]
            };
            layer.grad_weights.add_outer(&grad, layer_input);
            for (gb, g) in layer.grad_bias.iter_mut().zip(&grad) {
                *gb += g;
            }
            // Through the affine map.
            grad = layer.weights.t_matvec(&grad);
        }
        grad
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Copies all parameters into a flat vector (canonical order: per layer,
    /// weights row-major then bias).
    pub fn params_flat(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            out.extend_from_slice(layer.weights.as_slice());
            out.extend_from_slice(&layer.bias);
        }
        out
    }

    /// Copies all gradients into a flat vector (same order as
    /// [`params_flat`](Self::params_flat)).
    pub fn grads_flat(&mut self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &mut self.layers {
            layer.ensure_grads();
            out.extend_from_slice(layer.grad_weights.as_slice());
            out.extend_from_slice(&layer.grad_bias);
        }
        out
    }

    /// Overwrites parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` does not equal [`param_count`](Self::param_count).
    pub fn set_params_flat(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.param_count(), "param length mismatch");
        let mut offset = 0;
        for layer in &mut self.layers {
            let w = layer.weights.as_mut_slice();
            w.copy_from_slice(&params[offset..offset + w.len()]);
            offset += w.len();
            let b = layer.bias.len();
            layer.bias.copy_from_slice(&params[offset..offset + b]);
            offset += b;
        }
    }

    /// Polyak soft update: `self ← (1−τ)·self + τ·other`, used for TD3
    /// target networks.
    ///
    /// # Panics
    ///
    /// Panics if the two networks have different shapes.
    pub fn soft_update_from(&mut self, other: &Mlp, tau: f64) {
        assert_eq!(self.param_count(), other.param_count(), "shape mismatch");
        // In place, walking the canonical parameter order — the same
        // arithmetic as the flatten/interpolate/restore round trip,
        // without the three full-parameter copies.
        for (ours, theirs) in self.layers.iter_mut().zip(&other.layers) {
            for (o, t) in ours
                .weights
                .as_mut_slice()
                .iter_mut()
                .zip(theirs.weights.as_slice())
            {
                *o = (1.0 - tau) * *o + tau * t;
            }
            for (o, t) in ours.bias.iter_mut().zip(&theirs.bias) {
                *o = (1.0 - tau) * *o + tau * t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_net(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(&mut rng, &[3, 8, 8, 2], Activation::Tanh)
    }

    #[test]
    fn forward_shapes() {
        let net = toy_net(0);
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.forward(&[0.1, 0.2, 0.3]).len(), 2);
        assert_eq!(net.param_count(), 3 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn forward_trace_matches_forward() {
        let net = toy_net(1);
        let x = [0.5, -0.25, 0.125];
        let (y, trace) = net.forward_trace(&x);
        assert_eq!(y, net.forward(&x));
        assert_eq!(trace.post.last().unwrap(), &y);
    }

    #[test]
    fn forward_concat_matches_forward() {
        let net = toy_net(8);
        let a = [0.5];
        let b = [-0.25, 0.125];
        let cat = [0.5, -0.25, 0.125];
        assert_eq!(net.forward_concat(&a, &b), net.forward(&cat));
        // Degenerate splits work too.
        assert_eq!(net.forward_concat(&cat, &[]), net.forward(&cat));
        assert_eq!(net.forward_concat(&[], &cat), net.forward(&cat));
    }

    /// The load-bearing test of the whole crate: analytic gradients must
    /// match central finite differences for every parameter.
    #[test]
    fn gradients_match_finite_differences() {
        let mut net = toy_net(2);
        let x = [0.3, -0.7, 0.9];
        let target = [0.2, -0.4];
        // Loss: L = 0.5 * Σ (y - target)^2 → dL/dy = y - target.
        let loss = |net: &Mlp| {
            let y = net.forward(&x);
            0.5 * y
                .iter()
                .zip(&target)
                .map(|(yi, ti)| (yi - ti) * (yi - ti))
                .sum::<f64>()
        };
        net.zero_grads();
        let (y, trace) = net.forward_trace(&x);
        let grad_out: Vec<f64> = y.iter().zip(&target).map(|(yi, ti)| yi - ti).collect();
        net.backward(&trace, &grad_out);
        let analytic = net.grads_flat();

        let params = net.params_flat();
        let eps = 1e-6;
        let mut max_err: f64 = 0.0;
        for i in 0..params.len() {
            let mut p_plus = params.clone();
            p_plus[i] += eps;
            let mut p_minus = params.clone();
            p_minus[i] -= eps;
            let mut probe = net.clone();
            probe.set_params_flat(&p_plus);
            let l_plus = loss(&probe);
            probe.set_params_flat(&p_minus);
            let l_minus = loss(&probe);
            let numeric = (l_plus - l_minus) / (2.0 * eps);
            max_err = max_err.max((numeric - analytic[i]).abs());
        }
        assert!(max_err < 1e-6, "max gradient error {max_err}");
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut net = toy_net(3);
        let x = [0.1, 0.2, -0.3];
        let (y, trace) = net.forward_trace(&x);
        let grad_out = vec![1.0, 0.0]; // d(y0)/dx
        net.zero_grads();
        let grad_in = net.backward(&trace, &grad_out);
        let eps = 1e-6;
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let numeric = (net.forward(&xp)[0] - net.forward(&xm)[0]) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 1e-6,
                "input grad {i}: {numeric} vs {}",
                grad_in[i]
            );
        }
        let _ = y;
    }

    #[test]
    fn gradients_accumulate_across_samples() {
        let mut net = toy_net(4);
        net.zero_grads();
        let (y1, t1) = net.forward_trace(&[0.1, 0.1, 0.1]);
        net.backward(&t1, &vec![1.0; y1.len()]);
        let g1 = net.grads_flat();
        let (y2, t2) = net.forward_trace(&[0.2, -0.1, 0.4]);
        net.backward(&t2, &vec![1.0; y2.len()]);
        let g2 = net.grads_flat();
        // Second backward added on top of the first.
        let diff: f64 = g1.iter().zip(&g2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 0.0);
        net.zero_grads();
        assert!(net.grads_flat().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn soft_update_interpolates() {
        let a = toy_net(5);
        let b = toy_net(6);
        let mut target = a.clone();
        target.soft_update_from(&b, 0.25);
        let pa = a.params_flat();
        let pb = b.params_flat();
        let pt = target.params_flat();
        for ((x, y), z) in pa.iter().zip(&pb).zip(&pt) {
            assert!((z - (0.75 * x + 0.25 * y)).abs() < 1e-12);
        }
    }

    #[test]
    fn json_round_trip_preserves_behaviour() {
        let net = toy_net(7);
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(back.check_shapes(), Ok(()));
        let x = [0.4, 0.5, -0.6];
        assert_eq!(net.forward(&x), back.forward(&x));
    }

    #[test]
    fn check_shapes_refuses_layers_that_do_not_chain() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut short_bias = toy_net(10);
        short_bias.layers_mut()[0].bias.pop();
        let mut wrong_fan_in = toy_net(10);
        wrong_fan_in.layers_mut()[1] = Dense::new(&mut rng, 5, 8, Activation::Relu);
        let mut torn_weights = toy_net(10);
        torn_weights.layers_mut()[2].weights =
            serde_json::from_str(r#"{"rows":2,"cols":8,"data":[0.5]}"#).unwrap();
        let layerless: Mlp = serde_json::from_str(r#"{"layers":[]}"#).unwrap();
        for (net, why) in [
            (short_bias, "layer 0: 7 biases for 8 outputs"),
            (wrong_fan_in, "layer 1: fan-in 5 after a layer of 8"),
            (torn_weights, "layer 2: 1 weights for 2 × 8"),
            (layerless, "the network has no layers"),
        ] {
            assert_eq!(net.check_shapes(), Err(why.to_string()));
        }
        assert_eq!(toy_net(10).check_shapes(), Ok(()));
    }

    #[test]
    fn deterministic_construction() {
        let a = toy_net(9);
        let b = toy_net(9);
        assert_eq!(a.params_flat(), b.params_flat());
    }
}
