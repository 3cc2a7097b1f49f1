//! Batched interval bound propagation: many boxes through one network,
//! one fused pass over the weights per layer.
//!
//! The scalar [`propagate_mlp`](crate::ibp::propagate_mlp) walks one box
//! at a time with per-layer allocations and latency-bound dot products, but
//! certification pushes *thousands* of boxes through the *same fixed network*
//! (the partition components of a quantitative certificate, the open boxes of
//! branch-and-bound refinement). [`PreparedMlp`] transposes the weights once,
//! and [`propagate_staged`](PreparedMlp::propagate_staged) then propagates
//! `N` boxes per layer as three products —
//!
//! * `C' = C · Wᵀ + b` (centres),
//! * `D' = D · |W|ᵀ` (deviations),
//! * `A = (|C| + D) · |W|ᵀ + |b|` (the `Σ|wᵢ·cᵢ| + |wᵢ|·dᵢ` magnitude
//!   accumulator feeding the `γ_n` rounding bound — exact because
//!   `|w·c| = |w|·|c|` in IEEE arithmetic) —
//!
//! computed in one pass over `Wᵀ`: per row and 32-column block the three
//! accumulator blocks stay in registers, and each ascending `k` loads
//! `w[k][j..]` once, takes `|w|` in register and issues three fused
//! multiply-adds. 3 × 32 `f64` are 24 of the 32 vector registers AVX-512VL
//! gives 256-bit code, leaving room for `w`, `|w|` and the three broadcast
//! inputs, so nothing spills (a 70→64→64→1 actor is 25 920 FMAs per box,
//! 21 440 when a plan supplies the first layer's deviations, against a peak
//! of 8 per cycle). The scalar path's outward-rounded activation
//! transformers follow; all intermediates live in a caller-owned scratch.
//!
//! Soundness is inherited: the `γ_n` error bound holds for any summation
//! order. Every element is still its own ascending-`k` chain of fused
//! steps, so blocking changes no bit; bounds may differ from the scalar
//! path in the last few ULPs (differently-rounded enclosures of the same
//! set), which is why the certification layer uses one path consistently.

use canopy_nn::{Activation, Matrix, Mlp};

use crate::boxdom::BoxState;
use crate::ibp::{gamma, WIDEN_FLOOR};
use crate::interval::Interval;

/// Branchless outward widening of a non-negative deviation: at least one
/// ULP up (like `next_up`) but vectorizable — a relative bump of 4ε plus
/// [`WIDEN_FLOOR`], which carries the soundness argument and the reason the
/// floor sits far above the subnormal range.
#[inline(always)]
fn widen(x: f64) -> f64 {
    x * (1.0 + 4.0 * f64::EPSILON) + WIDEN_FLOOR
}

/// One dense layer pre-arranged for batched propagation.
#[derive(Clone, Debug)]
struct PreparedLayer {
    /// Transposed weights, `in × out`.
    wt: Matrix,
    /// Bias, length `out`.
    bias: Vec<f64>,
    /// The layer activation.
    activation: Activation,
    /// `γ` rounding coefficient for this layer's fan-in.
    gamma: f64,
}

/// A network pre-arranged (transposed weights) for repeated batched IBP and
/// for the concrete batched forward pass. Build once per policy, reuse
/// across every box and every decision; the preparation cost is `O(params)`.
#[derive(Clone, Debug)]
pub struct PreparedMlp {
    layers: Vec<PreparedLayer>,
    input_dim: usize,
    output_dim: usize,
}

/// Caller-owned intermediates for [`PreparedMlp::propagate_staged`]:
/// the input staging matrices, ping-pong centre/deviation matrices and
/// the magnitude accumulator.
#[derive(Clone, Debug, Default)]
pub struct IbpBatchScratch {
    c: Matrix,
    d: Matrix,
    c_next: Matrix,
    d_next: Matrix,
    abs_acc: Matrix,
    in_c: Matrix,
    in_d: Matrix,
}

impl IbpBatchScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> IbpBatchScratch {
        IbpBatchScratch::default()
    }

    /// Sizes the input staging matrices to `n × dim` and hands them out
    /// (centres, deviations) for the caller to fill row by row; contents
    /// are unspecified until written.
    pub fn stage(&mut self, n: usize, dim: usize) -> (&mut Matrix, &mut Matrix) {
        self.in_c.reshape(n, dim);
        self.in_d.reshape(n, dim);
        (&mut self.in_c, &mut self.in_d)
    }

    /// The staged input matrices (centres, deviations) as last written.
    pub fn staged(&self) -> (&Matrix, &Matrix) {
        (&self.in_c, &self.in_d)
    }

    /// Every resident buffer, for tests that audit what a propagation
    /// leaves behind (`tests/no_subnormals.rs`).
    #[doc(hidden)]
    pub fn buffers(&self) -> [&Matrix; 7] {
        [
            &self.c,
            &self.d,
            &self.c_next,
            &self.d_next,
            &self.abs_acc,
            &self.in_c,
            &self.in_d,
        ]
    }
}

/// Column-block width of the fused layer kernel (see the module docs), and
/// the rows a single-column tail runs side by side so that its latency-bound
/// scalar chains overlap (a 64→1 layer: 105 → 79 ns per box; 8 read no better).
const FUSED_JB: usize = 32;
const FUSED_TAIL_ROWS: usize = 4;

/// One layer as one pass over the transposed weights: for `ins = [c, d, wt]`
/// (`rows × k`, `rows × k`, `k × n`) sizes `out` to `rows × n` and writes
/// `[c·wt, d·|wt|, (|c| + d)·|wt|]`. `CM` selects the centre and magnitude
/// streams (without it `c` is ignored and only `out[1]` is touched), `DEV`
/// the deviation stream (without it `out[1]` is sized, not written). Every
/// element is the ascending-`k` fused chain [`Matrix::matmul_into`] runs.
fn fused_layer<const CM: bool, const DEV: bool>(ins: [&Matrix; 3], mut out: [&mut Matrix; 3]) {
    let (rows, n) = (ins[1].rows(), ins[2].cols());
    assert_eq!(ins[1].cols(), ins[2].rows(), "layer shape mismatch");
    let sized = if CM { &mut out[..] } else { &mut out[1..2] };
    sized.iter_mut().for_each(|stream| stream.reshape(rows, n));
    let mut j = 0;
    while j < n {
        j += match n - j {
            FUSED_JB.. => fused_columns::<1, FUSED_JB, CM, DEV>(ins, &mut out, j),
            8.. => fused_columns::<1, 8, CM, DEV>(ins, &mut out, j),
            _ => fused_columns::<FUSED_TAIL_ROWS, 1, CM, DEV>(ins, &mut out, j),
        };
    }
}

/// Columns `j..j + JB` of [`fused_layer`], `R` rows at a time (a short last
/// group repeats its last row); returns `JB`. The accumulators stay in
/// registers across the reduction; each `k` loads `w` once and takes `|w|`.
#[inline(always)]
fn fused_columns<const R: usize, const JB: usize, const CM: bool, const DEV: bool>(
    [c, d, wt]: [&Matrix; 3],
    out: &mut [&mut Matrix; 3],
    j: usize,
) -> usize {
    for r in (0..d.rows()).step_by(R) {
        let row = |i: usize| (r + i).min(d.rows() - 1);
        let ins: [_; R] = std::array::from_fn(|i| (c.row(row(i)), d.row(row(i))));
        let mut acc = [[[0.0f64; JB]; R]; 3];
        for (k, w_row) in wt.as_slice().chunks_exact(wt.cols()).enumerate() {
            for i in 0..R {
                let (cv, dv) = (ins[i].0[k], ins[i].1[k]);
                let mag = cv.abs() + dv;
                for (jj, &w) in w_row[j..j + JB].iter().enumerate() {
                    if CM {
                        acc[0][i][jj] = cv.mul_add(w, acc[0][i][jj]);
                        acc[2][i][jj] = mag.mul_add(w.abs(), acc[2][i][jj]);
                    }
                    if DEV {
                        acc[1][i][jj] = dv.mul_add(w.abs(), acc[1][i][jj]);
                    }
                }
            }
        }
        for ((stream, acc), runs) in out.iter_mut().zip(&acc).zip([CM, DEV, CM]) {
            for (i, acc_row) in acc.iter().enumerate().filter(|_| runs) {
                stream.row_mut(row(i))[j..j + JB].copy_from_slice(acc_row);
            }
        }
    }
    JB
}

impl PreparedMlp {
    /// Prepares `net` for batched propagation.
    pub fn new(net: &Mlp) -> PreparedMlp {
        let layers = net
            .layers()
            .iter()
            .map(|layer| {
                let mut wt = Matrix::zeros(0, 0);
                layer.weights.transpose_into(&mut wt);
                PreparedLayer {
                    wt,
                    bias: layer.bias.clone(),
                    activation: layer.activation,
                    gamma: gamma(layer.fan_in()),
                }
            })
            .collect();
        PreparedMlp {
            layers,
            input_dim: net.input_dim(),
            output_dim: net.output_dim(),
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// The concrete forward pass over the rows staged in `scratch`'s
    /// centre matrix (see [`IbpBatchScratch::stage`]); the outputs live in
    /// `scratch`. Every element is the same ascending-`k` fused reduction
    /// plus bias as [`Mlp::forward`], so row `n` is bitwise identical to
    /// `net.forward(row n)` — with no per-call transpose.
    ///
    /// # Panics
    ///
    /// Panics if the staged width disagrees with the network.
    pub fn forward_staged<'s>(&self, scratch: &'s mut IbpBatchScratch) -> &'s Matrix {
        let IbpBatchScratch {
            in_c, c, c_next, ..
        } = scratch;
        assert_eq!(in_c.cols(), self.input_dim, "bad batch width");
        for (i, layer) in self.layers.iter().enumerate() {
            let input: &Matrix = if i == 0 { in_c } else { c };
            input.matmul_bias_into(&layer.wt, &layer.bias, c_next);
            for z in c_next.as_mut_slice() {
                *z = layer.activation.apply(*z);
            }
            std::mem::swap(c, c_next);
        }
        c
    }

    /// The first layer's deviation image `D · |W₁|ᵀ` of a fixed block of
    /// deviation rows. Each element is the same fused reduction
    /// [`propagate_staged`](Self::propagate_staged) would run, so feeding
    /// the image back in place of the GEMM leaves every bound bit unchanged.
    pub fn first_dev_image(&self, devs: &Matrix) -> Matrix {
        let mut out = [(); 3].map(|()| Matrix::zeros(0, 0));
        fused_layer::<false, true>([devs, devs, &self.layers[0].wt], out.each_mut());
        let [_, image, _] = out;
        image
    }

    /// Propagates the `N` boxes staged in `scratch` (row `i` of the
    /// centre/deviation staging matrices is box `i`) through the network.
    /// Returns the output `(centers, devs)` matrices, which live in
    /// `scratch`.
    ///
    /// `dev_image`, when given, is `(image, offset)` from
    /// [`first_dev_image`](Self::first_dev_image): staged row `r` must carry
    /// the deviations of the image's source row `(offset + r) % rows`, and
    /// the first layer then copies the image instead of recomputing it.
    ///
    /// # Panics
    ///
    /// Panics if the staged width disagrees with the network.
    pub fn propagate_staged<'s>(
        &self,
        scratch: &'s mut IbpBatchScratch,
        dev_image: Option<(&Matrix, usize)>,
    ) -> (&'s Matrix, &'s Matrix) {
        let IbpBatchScratch {
            c,
            d,
            c_next,
            d_next,
            abs_acc,
            in_c,
            in_d,
        } = scratch;
        assert_eq!(in_c.cols(), self.input_dim, "bad box dimensionality");
        let n = in_c.rows();
        for (i, layer) in self.layers.iter().enumerate() {
            let (cur_c, cur_d): (&Matrix, &Matrix) = if i == 0 { (in_c, in_d) } else { (c, d) };
            let out = [&mut *c_next, &mut *d_next, &mut *abs_acc];
            match dev_image {
                Some((image, offset)) if i == 0 => {
                    fused_layer::<true, false>([cur_c, cur_d, &layer.wt], out);
                    for r in 0..n {
                        d_next.set_row(r, image.row((offset + r) % image.rows()));
                    }
                }
                _ => fused_layer::<true, true>([cur_c, cur_d, &layer.wt], out),
            }

            // Elementwise epilogue: bias, rounding slack, activation
            // transformer — the same *mathematical* enclosure as the
            // scalar `propagate_dense`, with the outward widening done by
            // the branchless [`widen`] (≥ one ULP, vectorizable) instead
            // of `next_up`, so the per-element loop stays SIMD-friendly.
            // The activation dispatch is hoisted out of the loop.
            for r in 0..n {
                let abs_row = abs_acc.row(r);
                let it = c_next
                    .row_mut(r)
                    .iter_mut()
                    .zip(d_next.row_mut(r))
                    .zip(abs_row)
                    .zip(&layer.bias);
                match layer.activation {
                    Activation::Identity => {
                        for (((c_slot, d_slot), abs_v), b) in it {
                            *c_slot += b;
                            let err = layer.gamma * (abs_v + b.abs());
                            *d_slot = widen(*d_slot + err);
                        }
                    }
                    Activation::Relu => {
                        for (((c_slot, d_slot), abs_v), b) in it {
                            let c = *c_slot + b;
                            let err = layer.gamma * (abs_v + b.abs());
                            let d = widen(*d_slot + err);
                            // ReLU is exact on interval endpoints.
                            let lo = (c - d).max(0.0);
                            let hi = (c + d).max(0.0);
                            let slack = lo.abs().max(hi.abs()) * 4.0 * f64::EPSILON;
                            *c_slot = lo / 2.0 + hi / 2.0;
                            *d_slot = widen((hi - lo) / 2.0 + slack);
                        }
                    }
                    Activation::Tanh => {
                        for (((c_slot, d_slot), abs_v), b) in it {
                            let c = *c_slot + b;
                            let err = layer.gamma * (abs_v + b.abs());
                            let d = widen(*d_slot + err);
                            let out = Interval::centered(c, d).tanh();
                            let slack = out.lo.abs().max(out.hi.abs()) * 4.0 * f64::EPSILON;
                            *c_slot = out.center();
                            *d_slot = widen(out.deviation() + slack);
                        }
                    }
                }
            }
            std::mem::swap(c, c_next);
            std::mem::swap(d, d_next);
        }
        (c, d)
    }

    /// Convenience wrapper: propagates a sequence of [`BoxState`]s and
    /// returns the output interval of dimension `out_dim` for each — the
    /// shape certification needs (the action interval per component). The
    /// input matrices are staged in `scratch`, so steady-state reuse
    /// allocates only the returned `Vec`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn propagate_boxes_dim<'a, I>(
        &self,
        parts: I,
        out_dim: usize,
        scratch: &mut IbpBatchScratch,
    ) -> Vec<Interval>
    where
        I: IntoIterator<Item = &'a BoxState>,
        I::IntoIter: ExactSizeIterator,
    {
        assert!(out_dim < self.output_dim, "output dimension out of range");
        let parts = parts.into_iter();
        let n = parts.len();
        let (in_c, in_d) = scratch.stage(n, self.input_dim);
        for (r, part) in parts.enumerate() {
            in_c.set_row(r, &part.center);
            in_d.set_row(r, &part.dev);
        }
        let (c, d) = self.propagate_staged(scratch, None);
        (0..n)
            .map(|r| Interval::centered(c.get(r, out_dim), d.get(r, out_dim)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ibp::propagate_mlp;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn net(seed: u64, widths: &[usize]) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(&mut rng, widths, Activation::Tanh)
    }

    fn random_box(rng: &mut StdRng, dim: usize) -> BoxState {
        let center: Vec<f64> = (0..dim).map(|_| rng.random_range(-0.8..0.8)).collect();
        let dev: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..0.4)).collect();
        BoxState::new(center, dev)
    }

    /// Soundness: concrete outputs of points inside each box stay inside
    /// the batched bound.
    #[test]
    fn batch_propagation_is_sound() {
        let network = net(3, &[4, 24, 24, 2]);
        let prepared = PreparedMlp::new(&network);
        let mut scratch = IbpBatchScratch::new();
        let mut rng = StdRng::seed_from_u64(11);
        let parts: Vec<BoxState> = (0..16).map(|_| random_box(&mut rng, 4)).collect();
        let outs = prepared.propagate_boxes_dim(&parts, 0, &mut scratch);
        for (part, out) in parts.iter().zip(&outs) {
            for _ in 0..64 {
                let x: Vec<f64> = part
                    .to_intervals()
                    .iter()
                    .map(|iv| {
                        if iv.width() > 0.0 {
                            rng.random_range(iv.lo..=iv.hi)
                        } else {
                            iv.lo
                        }
                    })
                    .collect();
                let y = network.forward(&x)[0];
                assert!(out.contains(y), "{y} outside {out:?}");
            }
        }
    }

    /// The batched bound coincides with the scalar bound up to a few ULPs
    /// of reordering slack — same enclosure, different rounding.
    #[test]
    fn batch_propagation_tracks_scalar_path() {
        let network = net(7, &[3, 16, 16, 1]);
        let prepared = PreparedMlp::new(&network);
        let mut scratch = IbpBatchScratch::new();
        let mut rng = StdRng::seed_from_u64(13);
        let parts: Vec<BoxState> = (0..24).map(|_| random_box(&mut rng, 3)).collect();
        let batch = prepared.propagate_boxes_dim(&parts, 0, &mut scratch);
        for (part, b) in parts.iter().zip(&batch) {
            let s = propagate_mlp(&network, part).dim_interval(0);
            let tol = 1e-10 * (1.0 + s.width());
            assert!((b.lo - s.lo).abs() <= tol, "lo {} vs {}", b.lo, s.lo);
            assert!((b.hi - s.hi).abs() <= tol, "hi {} vs {}", b.hi, s.hi);
        }
    }

    /// Point boxes propagate to near-exact outputs, like the scalar path.
    #[test]
    fn point_boxes_are_near_exact() {
        let network = net(9, &[4, 16, 1]);
        let prepared = PreparedMlp::new(&network);
        let mut scratch = IbpBatchScratch::new();
        let x = [0.3, -0.1, 0.8, 0.05];
        let outs = prepared.propagate_boxes_dim(&[BoxState::point(&x)], 0, &mut scratch);
        let y = network.forward(&x)[0];
        assert!(outs[0].contains(y));
        assert!(outs[0].width() < 1e-9);
    }

    /// Scratch reuse across differing batch sizes stays clean.
    #[test]
    fn scratch_reuse_is_clean() {
        let network = net(5, &[3, 12, 1]);
        let prepared = PreparedMlp::new(&network);
        let mut scratch = IbpBatchScratch::new();
        let mut rng = StdRng::seed_from_u64(2);
        let big: Vec<BoxState> = (0..10).map(|_| random_box(&mut rng, 3)).collect();
        let first = prepared.propagate_boxes_dim(&big, 0, &mut scratch);
        let again = prepared.propagate_boxes_dim(&big[..3], 0, &mut scratch);
        for (a, b) in big[..3].iter().zip(&again) {
            let solo = prepared.propagate_boxes_dim(std::slice::from_ref(a), 0, &mut scratch);
            assert_eq!(solo[0].lo, b.lo);
            assert_eq!(solo[0].hi, b.hi);
        }
        assert_eq!(first.len(), 10);
    }

    /// The transposed weights serve the concrete forward pass bit for bit,
    /// and a precomputed first-layer deviation image (at any row offset)
    /// leaves every bound bit unchanged — on widths that exercise every
    /// GEMM tail and with all three activations.
    #[test]
    fn forward_and_dev_image_are_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut network = net(21, &[7, 13, 9, 3]);
        network.layers_mut()[0].activation = Activation::Relu;
        network.layers_mut()[1].activation = Activation::Identity;
        let prepared = PreparedMlp::new(&network);
        let mut scratch = IbpBatchScratch::new();
        // Five boxes whose deviations repeat with period 3.
        let fixed: Vec<BoxState> = (0..3).map(|_| random_box(&mut rng, 7)).collect();
        let parts: Vec<BoxState> = (0..5)
            .map(|r| {
                BoxState::new(
                    random_box(&mut rng, 7).center,
                    fixed[(r + 2) % 3].dev.clone(),
                )
            })
            .collect();

        let (in_c, _) = scratch.stage(parts.len(), 7);
        for (r, part) in parts.iter().enumerate() {
            in_c.set_row(r, &part.center);
        }
        let out = prepared.forward_staged(&mut scratch);
        for (r, part) in parts.iter().enumerate() {
            let want: Vec<u64> = network
                .forward(&part.center)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let got: Vec<u64> = out.row(r).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want);
        }

        let plain = prepared.propagate_boxes_dim(&parts, 1, &mut scratch);
        let rows: Vec<&[f64]> = fixed.iter().map(|b| b.dev.as_slice()).collect();
        let image = prepared.first_dev_image(&Matrix::from_rows(&rows));
        let (in_c, in_d) = scratch.stage(parts.len(), 7);
        for (r, part) in parts.iter().enumerate() {
            in_c.set_row(r, &part.center);
            in_d.set_row(r, &part.dev);
        }
        let (c, d) = prepared.propagate_staged(&mut scratch, Some((&image, 2)));
        for (r, want) in plain.iter().enumerate() {
            let got = Interval::centered(c.get(r, 1), d.get(r, 1));
            assert_eq!(
                (got.lo.to_bits(), got.hi.to_bits()),
                (want.lo.to_bits(), want.hi.to_bits())
            );
        }
    }
}
