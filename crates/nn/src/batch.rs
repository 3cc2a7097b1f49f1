//! Whole-batch forward/backward passes over reusable scratch buffers.
//!
//! The per-sample paths in [`Mlp`] allocate a handful of `Vec`s per call,
//! which dominates the cost of training-step hot loops. The batched API
//! here runs one cache-blocked GEMM per layer over an `N × D` [`Batch`]
//! and keeps every intermediate in a caller-owned [`BatchScratch`], so a
//! steady-state training step performs **zero** heap allocation.
//!
//! Equivalence guarantee: for the same inputs, every batched result —
//! outputs, parameter gradients, and input gradients — is **bitwise
//! identical** to running the per-sample `forward_trace`/`backward` loop
//! over the batch rows in order. The GEMM kernels in
//! [`Matrix`] visit the reduction index in ascending order
//! per output element to preserve this; the equivalence proptests in
//! `tests/batch_equivalence.rs` pin it down.

use crate::mlp::Mlp;
use crate::tensor::Matrix;

/// A batch of `N` samples as an `N × D` row-major matrix (one sample per
/// row).
pub type Batch = Matrix;

/// Caller-owned scratch for batched passes: per-layer pre-/post-activation
/// matrices (the batched forward trace) plus the two ping-pong gradient
/// buffers used by [`Mlp::backward_batch`].
///
/// Buffers grow on first use and are reused afterwards; reusing one
/// scratch across steps of equal batch size allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    /// Pre-activation values per layer (`N × width`).
    pre: Vec<Matrix>,
    /// Post-activation values per layer (the last is the network output).
    post: Vec<Matrix>,
    /// Per-layer transposed weights (`in × out`), refreshed each forward
    /// pass; the transpose cost is `O(params)`, negligible next to the
    /// `O(N · params)` GEMM it accelerates.
    wt: Vec<Matrix>,
    /// The gradient being propagated backwards.
    grad: Matrix,
    /// Ping-pong partner of `grad`.
    grad_next: Matrix,
    /// Transposed copy of `grad` used by the weight-gradient kernel.
    grad_t: Matrix,
}

impl BatchScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    /// The network output recorded by the last
    /// [`Mlp::forward_trace_batch`] call ([`Mlp::forward_batch`] records
    /// no trace).
    ///
    /// # Panics
    ///
    /// Panics if no traced forward pass has been run through this
    /// scratch.
    pub fn output(&self) -> &Matrix {
        self.post.last().expect("no forward pass recorded")
    }

    fn ensure_layers(&mut self, n: usize) {
        while self.pre.len() < n {
            self.pre.push(Matrix::zeros(0, 0));
            self.post.push(Matrix::zeros(0, 0));
            self.wt.push(Matrix::zeros(0, 0));
        }
        self.pre.truncate(n);
        self.post.truncate(n);
        self.wt.truncate(n);
    }
}

impl Mlp {
    /// Whole-batch forward pass; returns the `N × output_dim` outputs,
    /// which live in `scratch`. Unlike
    /// [`forward_trace_batch`](Self::forward_trace_batch) this records no
    /// trace — the activations ping-pong through two buffers — so it is
    /// the cheaper choice for inference-only passes (target networks,
    /// batched probes).
    ///
    /// Row `n` of the result is bitwise identical to
    /// `self.forward(x.row(n))`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` does not match the input dimensionality.
    pub fn forward_batch<'s>(&self, x: &Batch, scratch: &'s mut BatchScratch) -> &'s Matrix {
        assert_eq!(x.cols(), self.input_dim(), "bad batch width");
        let layers = self.layers();
        scratch.ensure_layers(layers.len());
        // This pass records no trace; drop any stale one so a subsequent
        // `backward_batch` fails its trace assertion instead of silently
        // consuming activations from an earlier, unrelated forward pass.
        scratch.pre.clear();
        scratch.post.clear();
        for (i, layer) in layers.iter().enumerate() {
            layer.weights.transpose_into(&mut scratch.wt[i]);
            {
                let input: &Matrix = if i == 0 { x } else { &scratch.grad };
                input.matmul_bias_into(&scratch.wt[i], &layer.bias, &mut scratch.grad_next);
            }
            let z = scratch.grad_next.as_mut_slice();
            match layer.activation {
                crate::layer::Activation::Identity => {}
                crate::layer::Activation::Relu => {
                    for zi in z.iter_mut() {
                        *zi = zi.max(0.0);
                    }
                }
                crate::layer::Activation::Tanh => {
                    for zi in z.iter_mut() {
                        *zi = zi.tanh();
                    }
                }
            }
            std::mem::swap(&mut scratch.grad, &mut scratch.grad_next);
        }
        &scratch.grad
    }

    /// Whole-batch forward pass that records the per-layer activations
    /// needed by [`backward_batch`](Self::backward_batch) in `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` does not match the input dimensionality.
    pub fn forward_trace_batch<'s>(&self, x: &Batch, scratch: &'s mut BatchScratch) -> &'s Matrix {
        assert_eq!(x.cols(), self.input_dim(), "bad batch width");
        let layers = self.layers();
        scratch.ensure_layers(layers.len());
        for (i, layer) in layers.iter().enumerate() {
            // Pre-transposed weights make the affine map a plain GEMM with
            // vectorizable inner loops; the reduction order per element is
            // unchanged, so rows still match `affine` bit for bit.
            layer.weights.transpose_into(&mut scratch.wt[i]);
            {
                let input: &Matrix = if i == 0 { x } else { &scratch.post[i - 1] };
                input.matmul_bias_into(&scratch.wt[i], &layer.bias, &mut scratch.pre[i]);
            }
            let (pre, post) = (&scratch.pre, &mut scratch.post);
            layer.activate_batch_into(&pre[i], &mut post[i]);
        }
        scratch.post.last().expect("network has at least one layer")
    }

    /// Whole-batch reverse-mode pass. `scratch` must hold the trace from a
    /// [`forward_trace_batch`](Self::forward_trace_batch) call on this
    /// network with the same `input`; `grad_output` is `N × output_dim`.
    ///
    /// Accumulates parameter gradients (summed over the batch, in sample
    /// order — bitwise identical to `N` per-sample
    /// [`backward`](Self::backward) calls) and returns the `N × input_dim`
    /// gradient with respect to the inputs.
    ///
    /// # Panics
    ///
    /// Panics if the scratch trace or gradient shapes do not match.
    pub fn backward_batch<'s>(
        &mut self,
        input: &Batch,
        scratch: &'s mut BatchScratch,
        grad_output: &Matrix,
    ) -> &'s Matrix {
        self.backward_batch_impl(input, scratch, grad_output, true);
        &scratch.grad
    }

    /// Like [`backward_batch`](Self::backward_batch) but skips computing
    /// the gradient with respect to the inputs — the first layer's
    /// backward GEMM — for callers that only need parameter gradients
    /// (e.g. a critic's TD-error step). Parameter gradients are bitwise
    /// identical to the full pass.
    ///
    /// # Panics
    ///
    /// Panics if the scratch trace or gradient shapes do not match.
    pub fn backward_batch_params_only(
        &mut self,
        input: &Batch,
        scratch: &mut BatchScratch,
        grad_output: &Matrix,
    ) {
        self.backward_batch_impl(input, scratch, grad_output, false);
    }

    fn backward_batch_impl(
        &mut self,
        input: &Batch,
        scratch: &mut BatchScratch,
        grad_output: &Matrix,
        propagate_input: bool,
    ) {
        assert_eq!(grad_output.cols(), self.output_dim(), "bad grad shape");
        assert_eq!(grad_output.rows(), input.rows(), "bad grad batch size");
        let layers = self.layers_mut();
        assert_eq!(
            scratch.pre.len(),
            layers.len(),
            "scratch holds no forward trace for this network"
        );
        scratch.grad.copy_from(grad_output);
        for (i, layer) in layers.iter_mut().enumerate().rev() {
            layer.ensure_grads();
            // Through the activation — dispatch hoisted out of the loop;
            // each arm multiplies by exactly what
            // `Activation::derivative` returns, preserving the bitwise
            // contract (including `g · 0.0` sign semantics for ReLU).
            match layer.activation {
                crate::layer::Activation::Identity => {}
                crate::layer::Activation::Relu => {
                    for (g, &z) in scratch
                        .grad
                        .as_mut_slice()
                        .iter_mut()
                        .zip(scratch.pre[i].as_slice())
                    {
                        *g *= if z > 0.0 { 1.0 } else { 0.0 };
                    }
                }
                crate::layer::Activation::Tanh => {
                    for (g, &y) in scratch
                        .grad
                        .as_mut_slice()
                        .iter_mut()
                        .zip(scratch.post[i].as_slice())
                    {
                        *g *= 1.0 - y * y;
                    }
                }
            }
            // Parameter gradients (sample-ascending accumulation). The
            // gradient is transposed first so the weight-gradient kernel
            // reads it along contiguous rows.
            let layer_input: &Matrix = if i == 0 { input } else { &scratch.post[i - 1] };
            scratch.grad.transpose_into(&mut scratch.grad_t);
            layer
                .grad_weights
                .add_tn_matmul_pret(&scratch.grad_t, layer_input);
            for n in 0..scratch.grad.rows() {
                for (gb, g) in layer.grad_bias.iter_mut().zip(scratch.grad.row(n)) {
                    *gb += g;
                }
            }
            // Through the affine map (skippable at the input layer when
            // the caller has no use for input gradients).
            if i == 0 && !propagate_input {
                break;
            }
            scratch
                .grad
                .matmul_into(&layer.weights, &mut scratch.grad_next);
            std::mem::swap(&mut scratch.grad, &mut scratch.grad_next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_net(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(&mut rng, &[3, 8, 8, 2], Activation::Tanh)
    }

    fn random_batch(rng: &mut StdRng, n: usize, d: usize) -> Batch {
        let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(-1.0..1.0)).collect();
        Batch::from_vec(n, d, data)
    }

    #[test]
    fn forward_batch_matches_per_sample_bitwise() {
        let net = toy_net(0);
        let mut rng = StdRng::seed_from_u64(1);
        let x = random_batch(&mut rng, 7, 3);
        let mut scratch = BatchScratch::new();
        let y = net.forward_batch(&x, &mut scratch);
        for r in 0..x.rows() {
            assert_eq!(y.row(r), net.forward(x.row(r)).as_slice(), "row {r}");
        }
    }

    #[test]
    fn backward_batch_matches_per_sample_bitwise() {
        let mut batched = toy_net(2);
        let mut scalar = batched.clone();
        let mut rng = StdRng::seed_from_u64(3);
        let x = random_batch(&mut rng, 5, 3);
        let g = random_batch(&mut rng, 5, 2);

        batched.zero_grads();
        let mut scratch = BatchScratch::new();
        batched.forward_trace_batch(&x, &mut scratch);
        let grad_in = batched.backward_batch(&x, &mut scratch, &g);
        let grad_in = grad_in.clone();

        scalar.zero_grads();
        let mut scalar_grad_in = Vec::new();
        for r in 0..x.rows() {
            let (_, trace) = scalar.forward_trace(x.row(r));
            scalar_grad_in.push(scalar.backward(&trace, g.row(r)));
        }

        assert_eq!(batched.grads_flat(), scalar.grads_flat());
        for (r, scalar_row) in scalar_grad_in.iter().enumerate() {
            assert_eq!(grad_in.row(r), scalar_row.as_slice(), "row {r}");
        }
    }

    #[test]
    fn scratch_reuse_handles_shape_changes() {
        let net_a = toy_net(4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut scratch = BatchScratch::new();
        // Different batch sizes through the same scratch.
        for n in [1usize, 9, 4] {
            let x = random_batch(&mut rng, n, 3);
            let y = net_a.forward_batch(&x, &mut scratch);
            assert_eq!((y.rows(), y.cols()), (n, 2));
        }
        // A network with a different depth re-sizes the layer buffers.
        let mut rng2 = StdRng::seed_from_u64(6);
        let net_b = Mlp::new(&mut rng2, &[3, 4, 4, 4, 1], Activation::Identity);
        let x = random_batch(&mut rng, 2, 3);
        let y = net_b.forward_trace_batch(&x, &mut scratch);
        assert_eq!((y.rows(), y.cols()), (2, 1));
        assert_eq!(scratch.output().rows(), 2);
    }

    #[test]
    #[should_panic(expected = "no forward trace")]
    fn backward_without_trace_panics() {
        let mut net = toy_net(7);
        let mut scratch = BatchScratch::new();
        let x = Batch::zeros(2, 3);
        let g = Matrix::zeros(2, 2);
        net.backward_batch(&x, &mut scratch, &g);
    }
}
