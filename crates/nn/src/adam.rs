//! The Adam optimizer (Kingma & Ba, 2015).

use serde::{Deserialize, Serialize};

use crate::mlp::Mlp;

/// Adam with bias-corrected first and second moment estimates.
///
/// One optimizer instance is bound to one network's flat parameter layout;
/// see [`Adam::step`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates an optimizer for `param_count` parameters with the standard
    /// β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(param_count: usize, lr: f64) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; param_count],
            v: vec![0.0; param_count],
        }
    }

    /// Applies one descent step to `net` using its accumulated gradients
    /// scaled by `grad_scale` (e.g. `1.0 / batch_size`), then zeroes them.
    ///
    /// # Panics
    ///
    /// Panics if the network's parameter count differs from the one this
    /// optimizer was created with.
    pub fn step(&mut self, net: &mut Mlp, grad_scale: f64) {
        assert_eq!(
            net.param_count(),
            self.m.len(),
            "optimizer bound to a different network shape"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        // Walk the layers in the canonical flat order (per layer: weights
        // row-major, then bias) directly, instead of round-tripping
        // through `params_flat`/`set_params_flat`: the update itself is
        // identical, without three full-parameter copies per step.
        let mut offset = 0;
        for layer in net.layers_mut() {
            layer.ensure_grads();
            offset = self.update_slice(
                layer.weights.as_mut_slice(),
                layer.grad_weights.as_slice(),
                offset,
                grad_scale,
                bc1,
                bc2,
            );
            let (bias, grad_bias) = (&mut layer.bias, &layer.grad_bias);
            offset = self.update_slice(bias, grad_bias, offset, grad_scale, bc1, bc2);
        }
        debug_assert_eq!(offset, self.m.len());
        net.zero_grads();
    }

    /// Applies the Adam update to one contiguous parameter slice whose
    /// moments start at `offset`; returns the offset past the slice.
    fn update_slice(
        &mut self,
        params: &mut [f64],
        grads: &[f64],
        offset: usize,
        grad_scale: f64,
        bc1: f64,
        bc2: f64,
    ) -> usize {
        let m = &mut self.m[offset..offset + params.len()];
        let v = &mut self.v[offset..offset + params.len()];
        for (((p, &g0), mi), vi) in params.iter_mut().zip(grads).zip(m).zip(v) {
            let g = g0 * grad_scale;
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
            let m_hat = *mi / bc1;
            let v_hat = *vi / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
        offset + params.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Adam must fit a small regression problem: y = 2x₀ − x₁ + 0.5.
    #[test]
    fn fits_linear_regression() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Mlp::new(&mut rng, &[2, 16, 1], Activation::Identity);
        let mut opt = Adam::new(net.param_count(), 1e-2);
        let data: Vec<([f64; 2], f64)> = (0..64)
            .map(|i| {
                let x0 = (i % 8) as f64 / 8.0 - 0.5;
                let x1 = (i / 8) as f64 / 8.0 - 0.5;
                ([x0, x1], 2.0 * x0 - x1 + 0.5)
            })
            .collect();
        let mse = |net: &Mlp| -> f64 {
            data.iter()
                .map(|(x, t)| {
                    let y = net.forward(x)[0];
                    (y - t) * (y - t)
                })
                .sum::<f64>()
                / data.len() as f64
        };
        let before = mse(&net);
        for _ in 0..300 {
            for (x, t) in &data {
                let (y, trace) = net.forward_trace(x);
                net.backward(&trace, &[y[0] - t]);
            }
            opt.step(&mut net, 1.0 / data.len() as f64);
        }
        let after = mse(&net);
        assert!(
            after < 1e-3 && after < before / 100.0,
            "MSE before {before}, after {after}"
        );
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Mlp::new(&mut rng, &[2, 4, 1], Activation::Identity);
        let mut opt = Adam::new(net.param_count(), 1e-3);
        let (y, trace) = net.forward_trace(&[1.0, -1.0]);
        net.backward(&trace, &vec![1.0; y.len()]);
        opt.step(&mut net, 1.0);
        assert!(net.grads_flat().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn zero_gradient_is_fixed_point_direction() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Mlp::new(&mut rng, &[2, 4, 1], Activation::Identity);
        let before = net.params_flat();
        let mut opt = Adam::new(net.param_count(), 1e-2);
        net.zero_grads();
        opt.step(&mut net, 1.0);
        let after = net.params_flat();
        // With zero gradients the update is exactly zero.
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "different network shape")]
    fn rejects_mismatched_network() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Mlp::new(&mut rng, &[2, 4, 1], Activation::Identity);
        let mut opt = Adam::new(3, 1e-3);
        opt.step(&mut net, 1.0);
    }
}
