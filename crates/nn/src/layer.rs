//! Dense (fully connected) layers and activations.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::init::{he_uniform, xavier_uniform};
use crate::tensor::Matrix;

/// `max(x, 0)` as one answer on every build: `+0.0` for `±0.0` and NaN,
/// `x` above zero. The scalar `x.max(0.0)` leaves the sign of a `-0.0`
/// input to the optimiser (`-0.0` unoptimised, `+0.0` at `-O`); this is
/// bitwise the `-O` answer for every input, so outputs do not depend on
/// the build profile. Every scalar ReLU and ReLU transformer uses it.
#[inline]
pub fn relu(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Element-wise activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(x, 0)`.
    Relu,
    /// Hyperbolic tangent; Orca's actor output uses this to bound the
    /// action in `[-1, 1]`.
    Tanh,
    /// The identity (no activation), used for critic outputs.
    Identity,
}

impl Activation {
    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => relu(x),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// The derivative with respect to the **pre-activation** input, given
    /// both the pre-activation `x` and post-activation `y = apply(x)`.
    #[inline]
    pub fn derivative(self, x: f64, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }
}

/// A dense layer `y = act(W·x + b)` with accumulated gradients.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix, `out × in`.
    pub weights: Matrix,
    /// Bias vector, length `out`.
    pub bias: Vec<f64>,
    /// Activation applied after the affine map.
    pub activation: Activation,
    /// Accumulated weight gradients (same shape as `weights`).
    #[serde(skip, default = "Matrix::empty_grad")]
    pub grad_weights: Matrix,
    /// Accumulated bias gradients.
    #[serde(skip)]
    pub grad_bias: Vec<f64>,
}

impl Matrix {
    /// An empty gradient placeholder used when deserializing snapshots
    /// (gradients are transient and resized on first use).
    pub(crate) fn empty_grad() -> Matrix {
        Matrix::zeros(0, 0)
    }
}

impl Dense {
    /// A new layer with activation-appropriate initialization (He for ReLU,
    /// Xavier otherwise) and zero bias.
    pub fn new<R: Rng>(
        rng: &mut R,
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
    ) -> Dense {
        let mut weights = Matrix::zeros(fan_out, fan_in);
        for w in weights.as_mut_slice() {
            *w = match activation {
                Activation::Relu => he_uniform(rng, fan_in),
                _ => xavier_uniform(rng, fan_in, fan_out),
            };
        }
        Dense {
            weights,
            bias: vec![0.0; fan_out],
            activation,
            grad_weights: Matrix::zeros(fan_out, fan_in),
            grad_bias: vec![0.0; fan_out],
        }
    }

    /// Input dimensionality.
    pub fn fan_in(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimensionality.
    pub fn fan_out(&self) -> usize {
        self.weights.rows()
    }

    /// The affine part `W·x + b` (pre-activation).
    pub fn affine(&self, x: &[f64]) -> Vec<f64> {
        let mut z = self.weights.matvec(x);
        for (zi, bi) in z.iter_mut().zip(&self.bias) {
            *zi += bi;
        }
        z
    }

    /// Full forward pass.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.affine(x)
            .into_iter()
            .map(|z| self.activation.apply(z))
            .collect()
    }

    /// The affine part over a logically concatenated input `[a ‖ b]`,
    /// without materializing the concatenation. Each output is the same
    /// sequential dot product as `affine(&concat(a, b))`, so the result is
    /// bitwise identical.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() + b.len()` does not match the fan-in.
    pub(crate) fn affine2(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        assert_eq!(a.len() + b.len(), self.fan_in(), "affine2 shape mismatch");
        let mut z = Vec::with_capacity(self.fan_out());
        for r in 0..self.fan_out() {
            let row = self.weights.row(r);
            let mut acc = 0.0;
            for (w, xi) in row[..a.len()].iter().zip(a) {
                acc = w.mul_add(*xi, acc);
            }
            for (w, xi) in row[a.len()..].iter().zip(b) {
                acc = w.mul_add(*xi, acc);
            }
            z.push(acc + self.bias[r]);
        }
        z
    }

    /// Ensures gradient buffers match the parameter shapes (needed after
    /// deserializing a snapshot, where gradients are skipped).
    pub fn ensure_grads(&mut self) {
        if self.grad_weights.rows() != self.weights.rows()
            || self.grad_weights.cols() != self.weights.cols()
        {
            self.grad_weights = Matrix::zeros(self.weights.rows(), self.weights.cols());
        }
        if self.grad_bias.len() != self.bias.len() {
            self.grad_bias = vec![0.0; self.bias.len()];
        }
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.ensure_grads();
        self.grad_weights.fill_zero();
        self.grad_bias.fill(0.0);
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The helper is the `-O` `max(x, 0)` on the inputs where the two
    /// profiles could differ: both zeros, NaN and both infinities.
    #[test]
    fn relu_is_one_answer_on_every_profile() {
        let cases = [
            (0.0, 0.0),
            (-0.0, 0.0),
            (f64::NAN, 0.0),
            (f64::INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, 0.0),
            (-2.5, 0.0),
            (2.5, 2.5),
            (f64::MIN_POSITIVE, f64::MIN_POSITIVE),
        ];
        for (x, want) in cases {
            let x = std::hint::black_box(x);
            assert_eq!(relu(x).to_bits(), f64::to_bits(want), "relu({x:?})");
            assert_eq!(Activation::Relu.apply(x).to_bits(), f64::to_bits(want));
        }
    }

    #[test]
    fn activations() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-12);
        assert!(Activation::Tanh.apply(100.0) <= 1.0);
        assert_eq!(Activation::Identity.apply(-7.5), -7.5);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in [Activation::Relu, Activation::Tanh, Activation::Identity] {
            for &x in &[-1.5, -0.2, 0.3, 2.0] {
                let y = act.apply(x);
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative(x, y);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn forward_affine_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(&mut rng, 2, 2, Activation::Identity);
        layer.weights = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        layer.bias = vec![0.5, -0.5];
        assert_eq!(layer.forward(&[1.0, 1.0]), vec![3.5, 6.5]);
    }

    #[test]
    fn relu_layer_clamps() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(&mut rng, 1, 2, Activation::Relu);
        layer.weights = Matrix::from_rows(&[&[1.0], &[-1.0]]);
        layer.bias = vec![0.0, 0.0];
        assert_eq!(layer.forward(&[2.0]), vec![2.0, 0.0]);
    }

    #[test]
    fn affine2_matches_concatenated_affine() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Dense::new(&mut rng, 5, 3, Activation::Tanh);
        let a = [0.3, -0.2];
        let b = [0.7, 0.1, -0.5];
        let cat: Vec<f64> = a.iter().chain(&b).copied().collect();
        assert_eq!(layer.affine2(&a, &b), layer.affine(&cat));
    }

    #[test]
    fn serde_round_trip_restores_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Dense::new(&mut rng, 4, 3, Activation::Tanh);
        let json = serde_json::to_string(&layer).unwrap();
        let mut back: Dense = serde_json::from_str(&json).unwrap();
        assert_eq!(back.weights, layer.weights);
        assert_eq!(back.bias, layer.bias);
        back.ensure_grads();
        assert_eq!(back.grad_weights.rows(), 3);
        assert_eq!(back.grad_bias.len(), 3);
    }
}
