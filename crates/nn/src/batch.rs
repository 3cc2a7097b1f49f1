//! Whole-batch forward/backward passes over reusable scratch buffers.
//!
//! The per-sample paths in [`Mlp`] allocate a handful of `Vec`s per call,
//! which dominates the cost of training-step hot loops. The batched API
//! here takes an `N × D` [`Batch`] (one sample per row) and keeps every
//! intermediate in a caller-owned [`BatchScratch`], so a steady-state
//! training step performs **zero** heap allocation.
//!
//! Inside the scratch the batch is **feature-major**: one unit per row, one
//! sample per column. A dense layer is then `Z = W·X + b` with `W` read as
//! stored (`out × in`) — each weight is broadcast over a contiguous row of
//! samples — and its input gradient is `Wᵀ·G` read the same way, so no pass
//! transposes a weight or a gradient, and a 1-wide head is one vectorized
//! row. A forward pass transposes its input in and its output out; the
//! weight-gradient kernel reads each layer input through a sample-major
//! copy padded to whole blocks of inputs.
//!
//! Equivalence guarantee: for the same inputs, every batched result —
//! outputs, parameter gradients, and input gradients — is **bitwise
//! identical** to running the per-sample `forward_trace`/`backward` loop
//! over the batch rows in order. An output is the bias plus the
//! ascending-`k` fused `mul_add` chain, a weight gradient its existing value
//! plus the ascending-sample fused chain, an input gradient the
//! ascending-unit fused chain, a bias gradient plain ascending adds; the
//! equivalence proptests in `tests/batch_equivalence.rs` pin it down.

use std::ops::Range;

use crate::layer::{relu, Activation};
use crate::mlp::Mlp;
use crate::tensor::Matrix;

/// A batch of `N` samples as an `N × D` row-major matrix (one sample per
/// row).
pub type Batch = Matrix;

/// Caller-owned scratch for batched passes: the feature-major input and
/// per-layer activations (the forward trace), the gradient being propagated,
/// and the sample-major buffer results are handed back in.
///
/// Buffers grow on first use and are reused afterwards; reusing one
/// scratch across steps of equal batch size allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    /// The input batch, feature-major (`D × N`).
    input: Matrix,
    /// Post-activation values per layer, feature-major (`width × N`). ReLU's
    /// derivative reads these too: `max(z, 0) > 0` exactly when `z > 0`.
    post: Vec<Matrix>,
    /// The gradient being propagated backwards, feature-major.
    grad: Matrix,
    /// Ping-pong partner of `grad`.
    grad_next: Matrix,
    /// A layer input, sample-major, zero-padded to whole weight-gradient
    /// blocks.
    lanes: Matrix,
    /// A weight gradient padded like `lanes`, for fan-ins that need it.
    padded_grad: Matrix,
    /// The sample-major result handed back: the network output after a
    /// forward pass, the input gradient after a backward pass.
    result: Matrix,
}

impl BatchScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }
}

impl Mlp {
    /// Whole-batch forward pass; returns the `N × output_dim` outputs,
    /// which live in `scratch`. The same pass as
    /// [`forward_trace_batch`](Self::forward_trace_batch), under the name
    /// inference-only callers (target networks, batched probes) use.
    ///
    /// Row `n` of the result is bitwise identical to
    /// `self.forward(x.row(n))`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` does not match the input dimensionality.
    pub fn forward_batch<'s>(&self, x: &Batch, scratch: &'s mut BatchScratch) -> &'s Matrix {
        self.forward_trace_batch(x, scratch)
    }

    /// Whole-batch forward pass that records the per-layer activations
    /// needed by [`backward_batch_cols`](Self::backward_batch_cols) in
    /// `scratch`; returns the `N × output_dim` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` does not match the input dimensionality.
    pub fn forward_trace_batch<'s>(&self, x: &Batch, scratch: &'s mut BatchScratch) -> &'s Matrix {
        assert_eq!(x.cols(), self.input_dim(), "bad batch width");
        let layers = self.layers();
        let BatchScratch {
            input,
            post,
            result,
            ..
        } = scratch;
        x.transpose_into(input);
        post.resize_with(layers.len(), Matrix::default);
        for (i, layer) in layers.iter().enumerate() {
            let (done, rest) = post.split_at_mut(i);
            let x = done.last().unwrap_or(&*input);
            let z = &mut rest[0];
            feature_major_gemm(&layer.weights, Orient::Forward, 0..layer.fan_out(), x, z);
            bias_activate(z, &layer.bias, layer.activation);
        }
        // One trace entry per layer, and a served network has a layer (see
        // `Mlp::check_shapes`).
        post.last()
            .expect("network has at least one layer")
            .transpose_into(result);
        result
    }

    /// [`backward_batch_cols`](Self::backward_batch_cols) with no input
    /// columns: skips the first layer's backward GEMM, for callers that
    /// only need parameter gradients (e.g. a critic's TD-error step).
    /// Parameter gradients are bitwise identical to the full pass.
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
        self.backward_batch_cols(input, scratch, grad_output, 0..0);
    }

    /// Whole-batch reverse-mode pass. `scratch` must hold the trace from a
    /// [`forward_trace_batch`](Self::forward_trace_batch) call on this
    /// network with the same `input`; `grad_output` is `N × output_dim`.
    ///
    /// Accumulates parameter gradients (summed over the batch, in sample
    /// order — bitwise identical to `N` per-sample
    /// [`backward`](Self::backward) calls) and returns the gradient with
    /// respect to the input features `cols` (`0..input_dim` for all of
    /// them, the action coordinates of a critic's `[s ‖ a]` input for a
    /// policy step): `N × cols.len()`, column `j` being input feature
    /// `cols.start + j`.
    ///
    /// # Panics
    ///
    /// Panics if `cols` leaves the input range or the scratch trace or
    /// gradient shapes do not match.
    pub fn backward_batch_cols<'s>(
        &mut self,
        input: &Batch,
        scratch: &'s mut BatchScratch,
        grad_output: &Matrix,
        cols: Range<usize>,
    ) -> &'s Matrix {
        assert!(
            cols.start <= cols.end && cols.end <= self.input_dim(),
            "input columns out of range"
        );
        assert_eq!(grad_output.cols(), self.output_dim(), "bad grad shape");
        assert_eq!(grad_output.rows(), input.rows(), "bad grad batch size");
        let layers = self.layers_mut();
        let BatchScratch {
            input: trace_input,
            post,
            grad,
            grad_next,
            lanes,
            padded_grad,
            result,
        } = scratch;
        assert_eq!(
            post.len(),
            layers.len(),
            "scratch holds no forward trace for this network"
        );
        assert_eq!(
            (trace_input.rows(), trace_input.cols()),
            (input.cols(), input.rows()),
            "scratch trace is of a different batch"
        );
        grad_output.transpose_into(grad);
        for (i, layer) in layers.iter_mut().enumerate().rev() {
            layer.ensure_grads();
            // Through the activation: each arm multiplies by exactly what
            // `Activation::derivative` returns, `g · 0.0` included.
            let ys = post[i].as_slice();
            match layer.activation {
                Activation::Identity => {}
                Activation::Relu => {
                    for (g, &y) in grad.as_mut_slice().iter_mut().zip(ys) {
                        *g *= if y > 0.0 { 1.0 } else { 0.0 };
                    }
                }
                Activation::Tanh => {
                    for (g, &y) in grad.as_mut_slice().iter_mut().zip(ys) {
                        *g *= 1.0 - y * y;
                    }
                }
            }
            let layer_input = if i == 0 { &*trace_input } else { &post[i - 1] };
            weight_grads(
                &mut layer.grad_weights,
                grad,
                layer_input,
                lanes,
                padded_grad,
            );
            bias_grads(&mut layer.grad_bias, grad);
            // Through the affine map: every hidden layer, then only the
            // requested input features.
            let units = if i == 0 {
                cols.clone()
            } else {
                0..layer.fan_in()
            };
            feature_major_gemm(&layer.weights, Orient::Transposed, units, grad, grad_next);
            std::mem::swap(grad, grad_next);
        }
        grad.transpose_into(result);
        result
    }
}

/// How [`feature_major_gemm`] reads the stored `out × in` weights.
#[derive(Clone, Copy)]
enum Orient {
    /// `W`: a forward pass, reducing over the inputs.
    Forward,
    /// `Wᵀ`: an input gradient, reducing over the outputs.
    Transposed,
}

/// Rows of a feature-major product: `out` becomes `rows.len() × N` with
/// `out[i − rows.start][n] = Σ_j a(i, j) · x[j][n]` (ascending `j`, one
/// fused step each), where `a` is `w` or `wᵀ` read in place and `x` is
/// feature-major.
///
/// Register blocking: four rows share each load of a 16-sample slice of
/// `x`, sixteen 4-lane chains; fewer than four rows (a network head) run
/// one row across 64 samples, again sixteen chains.
fn feature_major_gemm(
    w: &Matrix,
    orient: Orient,
    rows: Range<usize>,
    x: &Matrix,
    out: &mut Matrix,
) {
    let strides = match orient {
        Orient::Forward => (w.cols(), 1),
        Orient::Transposed => (1, w.cols()),
    };
    out.reshape(rows.len(), x.cols());
    if rows.len() >= 4 {
        gemm_rows::<4, 16>(w.as_slice(), strides, rows, x, out);
    } else {
        gemm_rows::<1, 64>(w.as_slice(), strides, rows, x, out);
    }
}

/// [`feature_major_gemm`] in `R`-row groups (a short last group repeats its
/// last row), each swept by `NB`-, then 4-, then 1-sample blocks.
#[inline(always)]
fn gemm_rows<const R: usize, const NB: usize>(
    w: &[f64],
    strides: (usize, usize),
    rows: Range<usize>,
    x: &Matrix,
    out: &mut Matrix,
) {
    let n = x.cols();
    for r0 in rows.clone().step_by(R) {
        let group: [usize; R] = std::array::from_fn(|r| (r0 + r).min(rows.end - 1));
        let mut c = 0;
        while c < n {
            c += match n - c {
                left if left >= NB => gemm_block::<R, NB>(w, strides, group, rows.start, x, c, out),
                4.. => gemm_block::<R, 4>(w, strides, group, rows.start, x, c, out),
                _ => gemm_block::<R, 1>(w, strides, group, rows.start, x, c, out),
            };
        }
    }
}

/// Samples `c..c + NB` of the rows `group` (absolute; stored at
/// `row − lo`); returns `NB`. The accumulators stay in registers across the
/// whole reduction.
#[inline(always)]
fn gemm_block<const R: usize, const NB: usize>(
    w: &[f64],
    (rs, cs): (usize, usize),
    group: [usize; R],
    lo: usize,
    x: &Matrix,
    c: usize,
    out: &mut Matrix,
) -> usize {
    let n = x.cols();
    let xs = x.as_slice();
    let mut acc = [[0.0f64; NB]; R];
    for j in 0..x.rows() {
        let x_blk = &xs[j * n + c..j * n + c + NB];
        for (acc_row, &i) in acc.iter_mut().zip(&group) {
            let wv = w[i * rs + j * cs];
            for (s, &xv) in acc_row.iter_mut().zip(x_blk) {
                *s = wv.mul_add(xv, *s);
            }
        }
    }
    for (acc_row, &i) in acc.iter().zip(&group) {
        out.row_mut(i - lo)[c..c + NB].copy_from_slice(acc_row);
    }
    NB
}

/// `z ← act(z + bias[i])` over row `i` of feature-major pre-activations — the
/// per-sample `affine` + `apply` bits. A pass of its own: a libm call inside
/// the block kernel stops the compiler from vectorizing the reduction.
fn bias_activate(z: &mut Matrix, bias: &[f64], act: Activation) {
    let n = z.cols().max(1);
    for (row, &b) in z.as_mut_slice().chunks_exact_mut(n).zip(bias) {
        match act {
            Activation::Identity => row.iter_mut().for_each(|v| *v += b),
            Activation::Relu => row.iter_mut().for_each(|v| *v = relu(*v + b)),
            Activation::Tanh => row.iter_mut().for_each(|v| *v = (*v + b).tanh()),
        }
    }
}

/// `dw[o][k] += Σ_n g[o][n] · x[k][n]` (ascending `n`, one fused step each)
/// for feature-major `g` (`out × N`) and `x` (`in × N`). `x` is copied
/// sample-major into `lanes`, padded to whole blocks of `KB` inputs, and
/// each block keeps `R × KB` sums — sixteen 4-lane chains from eight rows,
/// eight chains along a narrower head's single row — in registers; a fan-in
/// the blocks do not divide accumulates in `padded` and is copied back.
fn weight_grads(dw: &mut Matrix, g: &Matrix, x: &Matrix, lanes: &mut Matrix, padded: &mut Matrix) {
    if dw.rows() >= 4 {
        weight_grads_in::<8, 8>(dw, g, x, lanes, padded);
    } else {
        weight_grads_in::<1, 32>(dw, g, x, lanes, padded);
    }
}

fn weight_grads_in<const R: usize, const KB: usize>(
    dw: &mut Matrix,
    g: &Matrix,
    x: &Matrix,
    lanes: &mut Matrix,
    padded: &mut Matrix,
) {
    let (outs, ins) = (dw.rows(), dw.cols());
    let pad = ins.next_multiple_of(KB);
    x.transpose_padded_into(pad, lanes);
    let blocks = |dw: &mut Matrix| {
        for o0 in (0..outs).step_by(R) {
            for k0 in (0..pad).step_by(KB) {
                weight_grad_block::<R, KB>(dw, g, lanes, o0, k0);
            }
        }
    };
    if pad == ins {
        blocks(dw);
        return;
    }
    padded.reshape(outs, pad);
    for (p, d) in padded
        .as_mut_slice()
        .chunks_exact_mut(pad)
        .zip(dw.as_slice().chunks_exact(ins))
    {
        p[..ins].copy_from_slice(d);
    }
    blocks(padded);
    for (d, p) in dw
        .as_mut_slice()
        .chunks_exact_mut(ins)
        .zip(padded.as_slice().chunks_exact(pad))
    {
        d.copy_from_slice(&p[..ins]);
    }
}

/// Inputs `k0..k0 + KB` of rows `o0..o0 + R` (a short last group repeats
/// its last row).
#[inline(always)]
fn weight_grad_block<const R: usize, const KB: usize>(
    dw: &mut Matrix,
    g: &Matrix,
    lanes: &Matrix,
    o0: usize,
    k0: usize,
) {
    let group: [usize; R] = std::array::from_fn(|r| (o0 + r).min(dw.rows() - 1));
    let mut acc = [[0.0f64; KB]; R];
    for (acc_row, &o) in acc.iter_mut().zip(&group) {
        acc_row.copy_from_slice(&dw.row(o)[k0..k0 + KB]);
    }
    let g_rows = group.map(|o| g.row(o));
    for (n, x_row) in lanes.as_slice().chunks_exact(lanes.cols()).enumerate() {
        let x_blk = &x_row[k0..k0 + KB];
        for (acc_row, g_row) in acc.iter_mut().zip(&g_rows) {
            let gv = g_row[n];
            for (s, &xv) in acc_row.iter_mut().zip(x_blk) {
                *s = gv.mul_add(xv, *s);
            }
        }
    }
    for (acc_row, &o) in acc.iter().zip(&group) {
        dw.row_mut(o)[k0..k0 + KB].copy_from_slice(acc_row);
    }
}

/// `gb[o] += g[o][n]` for every sample in ascending order, eight rows side
/// by side (a short last group repeats its last row). The rows are zipped
/// under one loop bound, so the eight scalar chains interleave without a
/// bounds check per element.
fn bias_grads(gb: &mut [f64], g: &Matrix) {
    for o0 in (0..gb.len()).step_by(8) {
        let group: [usize; 8] = std::array::from_fn(|r| (o0 + r).min(gb.len() - 1));
        let mut acc = group.map(|o| gb[o]);
        let [r0, r1, r2, r3, r4, r5, r6, r7] = group.map(|o| g.row(o));
        let rows = r0
            .iter()
            .zip(r1)
            .zip(r2)
            .zip(r3)
            .zip(r4)
            .zip(r5)
            .zip(r6)
            .zip(r7);
        for (((((((&a, &b), &c), &d), &e), &f), &h), &i) in rows {
            for (s, v) in acc.iter_mut().zip([a, b, c, d, e, f, h, i]) {
                *s += v;
            }
        }
        for (&o, &s) in group.iter().zip(&acc) {
            gb[o] = s;
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
        let grad_in = batched.backward_batch_cols(&x, &mut scratch, &g, 0..3);
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
    fn input_columns_match_the_full_pass() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = Mlp::new(&mut rng, &[6, 9, 5, 1], Activation::Identity);
        let x = random_batch(&mut rng, 11, 6);
        let g = random_batch(&mut rng, 11, 1);
        let mut scratch = BatchScratch::new();
        net.forward_trace_batch(&x, &mut scratch);
        let full = net.backward_batch_cols(&x, &mut scratch, &g, 0..6).clone();
        for cols in [0..0, 2..3, 4..6, 0..6] {
            net.forward_trace_batch(&x, &mut scratch);
            let part = net.backward_batch_cols(&x, &mut scratch, &g, cols.clone());
            assert_eq!((part.rows(), part.cols()), (11, cols.len()));
            for r in 0..11 {
                assert_eq!(part.row(r), &full.row(r)[cols.clone()], "{cols:?} row {r}");
            }
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
    }

    #[test]
    #[should_panic(expected = "no forward trace")]
    fn backward_without_trace_panics() {
        let mut net = toy_net(7);
        let mut scratch = BatchScratch::new();
        let x = Batch::zeros(2, 3);
        let g = Matrix::zeros(2, 2);
        net.backward_batch_cols(&x, &mut scratch, &g, 0..3);
    }
}
