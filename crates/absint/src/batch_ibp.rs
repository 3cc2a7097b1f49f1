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
//! computed in one pass over `Wᵀ`, bias, rounding slack, outward widening
//! and the activation transformer applied to the accumulators before they
//! are stored: one pass per layer, and each output element stored once.
//! The kernel is written once over `F64x8`, eight `f64` lanes
//! (`lanes.rs`): one 512-bit register on an AVX-512 build, a plain
//! `[f64; 8]` elsewhere. [`PreparedMlp`] keeps `Wᵀ` in 8-column panels of
//! 64-byte-aligned rows, so a lane load never splits a cache line (a
//! `Vec<f64>` row-major `Wᵀ` split nearly every one). Per two rows and
//! 32-column block the three accumulator streams stay in registers, 2 × 4
//! lane vectors each; each ascending `k` loads `w[k][j..]` once as four
//! vectors, takes `|w|` in register and issues three fused multiply-adds
//! per vector and row against inputs broadcast from memory — 24 FMAs per
//! 4 `abs`. The magnitude input `|c| + d` is itself a layer output, formed
//! in the previous layer's epilogue (and once for the staged rows), so the
//! 24 accumulators, 6 broadcasts, `w` and the `abs` mask are the 32 zmm
//! registers and nothing spills; the first layer, whose deviations a plan
//! supplies, runs two streams. On the array path a block is one vector
//! wide (`BOUNDS_V`). A one-stream pass — the concrete forward pass
//! ([`forward_staged`](PreparedMlp::forward_staged)) and the deviation
//! image — runs eight vectors per row. Columns past the last full block of
//! eight (the 64→1 output layer) run with eight rows in the lanes, fed by
//! an in-register 8 × 8 transpose of the inputs. Only `tanh` is scalar in the epilogue; the ReLU and identity
//! transformers are lane operations that give the scalar transformers'
//! bits. All intermediates live in a caller-owned scratch, one set of
//! buffers per layer.
//!
//! What that buys, for the fleet actor (70→64→64→1 with ReLU hidden
//! layers and a `tanh` output: 25 920 FMAs per box, 21 440 when a plan
//! supplies the first layer's deviations) at 10 boxes per call, best
//! decile of 2 001 calls on a two-vCPU AVX-512 Xeon at a nominal 2.1 GHz,
//! against its 512-bit ceiling of 16 f64 FMAs per cycle (33.6 per ns; a
//! register-only FMA loop reaches 37–39 per ns): the two-pass kernel this
//! replaces ran 1.13–1.14 µs per box (1.04 with the plan's first layer),
//! 68 % (61 %) of that ceiling; this one runs 0.94–0.96 µs (0.84–0.86),
//! 80–82 % (74–76 %). Achieved/peak is FMAs per box ÷ (ns per box × 2.1 ×
//! 16); the rest is the transposed 64→1 tail, the scalar `tanh` and
//! per-call set-up. The forward pass on the same kernel runs 0.81–0.93 µs
//! per row at one row (the GEMM it replaces: 0.94–1.19), and 0.26–0.42 µs
//! per row at 10, 32 and 128 rows (0.64–0.97).
//!
//! Soundness is inherited: the `γ_n` error bound holds for any summation
//! order. Every element is still its own ascending-`k` chain of fused
//! steps, so blocking changes no bit; bounds may differ from the scalar
//! path in the last few ULPs (differently-rounded enclosures of the same
//! set), which is why the certification layer uses one path consistently.

use canopy_nn::{Activation, Dense, Matrix, Mlp};

use crate::boxdom::BoxState;
use crate::ibp::{gamma, WIDEN_FLOOR};
use crate::interval::Interval;
use crate::lanes::F64x8;

/// Branchless outward widening of a non-negative deviation: at least one
/// ULP up (like `next_up`) but vectorizable — a relative bump of 4ε plus
/// [`WIDEN_FLOOR`], which carries the soundness argument and the reason the
/// floor sits far above the subnormal range.
#[inline(always)]
fn widen(x: f64) -> f64 {
    x * WIDEN_FACTOR + WIDEN_FLOOR
}

/// [`widen`]'s relative bump.
const WIDEN_FACTOR: f64 = 1.0 + 4.0 * f64::EPSILON;

/// Rows of eight `f64`s, each at a 64-byte boundary — one cache line, one
/// lane load — in an ordinary `Vec<f64>` that starts with up to seven
/// spare elements: an over-aligned allocation would fragment the heap of a
/// caller that prepares a network every training step.
#[derive(Debug)]
struct LineRows {
    buf: Vec<f64>,
    start: usize,
}

impl LineRows {
    /// `n` rows, written by `fill`.
    fn new(n: usize, fill: impl FnOnce(&mut [[f64; 8]])) -> LineRows {
        let mut buf = vec![0.0; 8 * n + 7];
        // `buf` is never resized, so this offset stays true.
        let start = (64 - buf.as_ptr() as usize % 64) % 64 / 8;
        fill(buf[start..start + 8 * n].as_chunks_mut::<8>().0);
        LineRows { buf, start }
    }

    fn rows(&self) -> &[[f64; 8]] {
        let n = (self.buf.len() - 7) / 8;
        self.buf[self.start..self.start + 8 * n].as_chunks::<8>().0
    }
}

impl Clone for LineRows {
    /// Re-aligned in the copy's own allocation.
    fn clone(&self) -> LineRows {
        let rows = self.rows();
        LineRows::new(rows.len(), |dst| dst.copy_from_slice(rows))
    }
}

/// One dense layer pre-arranged for batched propagation.
#[derive(Clone, Debug)]
struct PreparedLayer {
    /// The weights transposed (`in × out`) in 8-column panels: panel `p`
    /// holds columns `8p..8p + 8`, one row per input, so that a pass over
    /// a column block reads each of its panels front to back and no lane
    /// load splits a cache line.
    panels: LineRows,
    /// The last `out % 8` columns, one after another, one weight per input.
    tail: Vec<f64>,
    /// Fan-in and fan-out.
    depth: usize,
    width: usize,
    /// Bias, length `out`.
    bias: Vec<f64>,
    /// The layer activation.
    activation: Activation,
    /// `γ` rounding coefficient for this layer's fan-in.
    gamma: f64,
}

impl PreparedLayer {
    /// Transposes and packs `layer`.
    fn new(layer: &Dense) -> PreparedLayer {
        let (depth, width) = (layer.fan_in(), layer.fan_out());
        let full = width / 8 * 8;
        // Row `j` of `weights` is output column `j` of the transpose.
        let w = &layer.weights;
        let panels = LineRows::new(full / 8 * depth, |rows| {
            for (p, panel) in rows.chunks_exact_mut(depth).enumerate() {
                let columns: [&[f64]; 8] = std::array::from_fn(|l| w.row(8 * p + l));
                for (k, dst) in panel.iter_mut().enumerate() {
                    *dst = std::array::from_fn(|l| columns[l][k]);
                }
            }
        });
        PreparedLayer {
            panels,
            tail: (full..width).flat_map(|j| w.row(j)).copied().collect(),
            depth,
            width,
            bias: layer.bias.clone(),
            activation: layer.activation,
            gamma: gamma(layer.fan_in()),
        }
    }

    /// The panel of columns `j..j + 8`, `j` a multiple of 8 below
    /// `width / 8 * 8`.
    fn panel(&self, j: usize) -> &[[f64; 8]] {
        &self.panels.rows()[j / 8 * self.depth..(j / 8 + 1) * self.depth]
    }

    /// Column `j`, at or past `width / 8 * 8`.
    fn tail_column(&self, j: usize) -> &[f64] {
        let start = (j - self.width / 8 * 8) * self.depth;
        &self.tail[start..start + self.depth]
    }
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

/// Caller-owned intermediates for [`PreparedMlp::propagate_staged`] and
/// [`PreparedMlp::forward_staged`]: the input staging matrices and each
/// layer's outputs. A layer keeps its own buffers, so a batch of a
/// repeated size reshapes nothing and refills nothing.
#[derive(Clone, Debug, Default)]
pub struct IbpBatchScratch {
    in_c: Matrix,
    in_d: Matrix,
    /// `|c| + d` of the staged rows.
    in_m: Matrix,
    /// Per layer: centres, deviations and the next layer's `|c| + d`.
    bounds: Vec<[Matrix; 3]>,
    /// Per layer: the forward pass's outputs.
    forward: Vec<Matrix>,
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
    pub fn buffers(&self) -> Vec<&Matrix> {
        let staged = [&self.in_c, &self.in_d, &self.in_m];
        let layers = self.bounds.iter().flatten().chain(&self.forward);
        staged.into_iter().chain(layers).collect()
    }
}

/// Lane vectors per column block of a bounds pass (centres, magnitudes
/// and, without a first-layer deviation image, deviations) and of a
/// one-stream pass (the forward pass, the deviation image), and the rows
/// one block pass carries (see the module docs). Where an [`F64x8`] is one
/// 512-bit register: two rows of four vectors (32 columns), 24 accumulators
/// of the 32 registers, or of eight vectors (64 columns) and one stream.
/// Where it is a `[f64; 8]`: two rows of one vector, whose six
/// accumulators (twelve 256-bit halves) plus `w` and `|w|` fill AVX2's
/// sixteen registers (four vectors a row spill there), or of two vectors
/// and one stream.
const BOUNDS_V: usize = if F64x8::IN_REGISTER { 4 } else { 1 };
const SINGLE_V: usize = if F64x8::IN_REGISTER { 8 } else { 2 };
const FUSED_ROWS: usize = 2;

/// One layer as one pass over its transposed weights. For `ins = [c, d,
/// m]` (each `rows × k`, `m = |c| + d`) it runs the accumulator streams `C`
/// (`c·wt`), `D` (`d·|wt|`) and `M` (`m·|wt|`), and stores, sized
/// `rows × n`:
///
/// * with `M`, the bounds epilogue — bias, `γ·(A + |b|)`, [`widen`], the
///   activation transformer — as centres `out[0]` and deviations `out[1]`,
///   and the next layer's `|c| + d` in `out[2]`; without `D` the deviation
///   accumulator of row `r` is row `(offset + r) % rows` of
///   `image = (image, offset)`;
/// * with `C` alone, the concrete forward pass `act(c·wt + b)` in `out[0]`;
/// * with `D` alone, the raw deviation accumulator in `out[1]`.
///
/// Every accumulator is one ascending-`k` chain of fused `mul_add`s, as
/// in a naive triple-loop GEMM, and the epilogue is the scalar one lane by
/// lane.
fn fused_layer<const V: usize, const C: bool, const D: bool, const M: bool>(
    ins: [&Matrix; 3],
    layer: &PreparedLayer,
    image: Option<(&Matrix, usize)>,
    mut out: [&mut Matrix; 3],
) {
    debug_assert_eq!(!D && M, image.is_some(), "a deviation image replaces D");
    let input = if C { ins[0] } else { ins[1] };
    let (rows, n) = (input.rows(), layer.width);
    assert_eq!(input.cols(), layer.depth, "layer shape mismatch");
    if C {
        out[0].reshape(rows, n);
    }
    if D || M {
        out[1].reshape(rows, n);
    }
    if M {
        out[2].reshape(rows, n);
    }
    let mut j = 0;
    while j < n {
        // An `if` chain, not a `match`: the two block widths coincide on
        // the array path's bounds passes.
        j += if n - j >= 8 * V {
            fused_block::<V, C, D, M>(ins, layer, image, &mut out, j)
        } else if n - j >= 8 {
            fused_block::<1, C, D, M>(ins, layer, image, &mut out, j)
        } else {
            fused_tail::<C, D, M>(ins, layer, image, &mut out, j)
        };
    }
}

/// Columns `j..j + 8V` of [`fused_layer`], [`FUSED_ROWS`] rows at a time
/// and a last odd row alone; returns `8V`.
#[inline(always)]
fn fused_block<const V: usize, const C: bool, const D: bool, const M: bool>(
    ins: [&Matrix; 3],
    layer: &PreparedLayer,
    image: Option<(&Matrix, usize)>,
    out: &mut [&mut Matrix; 3],
    j: usize,
) -> usize {
    let rows = if C { ins[0].rows() } else { ins[1].rows() };
    let mut r = 0;
    while r < rows {
        r += if rows - r >= FUSED_ROWS {
            fused_columns::<FUSED_ROWS, V, C, D, M>(ins, layer, image, out, r, j)
        } else {
            fused_columns::<1, V, C, D, M>(ins, layer, image, out, r, j)
        };
    }
    8 * V
}

/// Rows `r..r + R`, columns `j..j + 8V` of [`fused_layer`], as `V` lane
/// vectors per stream and row; returns `R`. The accumulators stay in
/// registers across the reduction — each `k` loads the block's `w` once
/// and takes `|w|` in register — and the epilogue runs on them there, so
/// each output element is stored once.
#[inline(always)]
fn fused_columns<const R: usize, const V: usize, const C: bool, const D: bool, const M: bool>(
    [c, d, m]: [&Matrix; 3],
    layer: &PreparedLayer,
    image: Option<(&Matrix, usize)>,
    [c_out, d_out, m_out]: &mut [&mut Matrix; 3],
    r: usize,
    j: usize,
) -> usize {
    let ins: [_; R] = std::array::from_fn(|i| (c.row(r + i), d.row(r + i), m.row(r + i)));
    let panels: [_; V] = std::array::from_fn(|v| layer.panel(j + 8 * v));
    let mut acc = [[[F64x8::splat(0.0); V]; R]; 3];
    for k in 0..layer.depth {
        for (v, panel) in panels.iter().enumerate() {
            let w = F64x8::load(&panel[k]);
            let w_abs = w.abs();
            for (i, &(c_row, d_row, m_row)) in ins.iter().enumerate() {
                if C {
                    acc[0][i][v] = F64x8::splat(c_row[k]).mul_add(w, acc[0][i][v]);
                }
                if M {
                    acc[2][i][v] = F64x8::splat(m_row[k]).mul_add(w_abs, acc[2][i][v]);
                }
                if D {
                    acc[1][i][v] = F64x8::splat(d_row[k]).mul_add(w_abs, acc[1][i][v]);
                }
            }
        }
    }
    let cols = j..j + 8 * V;
    let (bias, _) = layer.bias[cols.clone()].as_chunks::<8>();
    // Moved out, not borrowed: a borrow of `acc` would keep it in memory
    // through the reduction, stored back on every `k`.
    let [acc_c, acc_d, acc_m] = acc;
    let rows = acc_c.iter().zip(&acc_d).zip(&acc_m);
    for (row, ((acc_c, acc_d), acc_m)) in (r..).zip(rows) {
        if !C {
            let (dst, _) = d_out.row_mut(row)[cols.clone()].as_chunks_mut::<8>();
            acc_d
                .iter()
                .zip(dst)
                .for_each(|(lanes, dst)| lanes.store(dst));
            continue;
        }
        let (c_dst, _) = c_out.row_mut(row)[cols.clone()].as_chunks_mut::<8>();
        if !M {
            for ((z, b), dst) in acc_c.iter().zip(bias).zip(c_dst.iter_mut()) {
                forward_lanes(layer.activation, *z, F64x8::load(b)).store(dst);
            }
            if layer.activation == Activation::Tanh {
                let z = c_dst.as_flattened_mut();
                z.iter_mut().for_each(|z| *z = layer.activation.apply(*z));
            }
            continue;
        }
        let image_row = image.map(|(image, offset)| {
            let src = &image.row((offset + row) % image.rows())[cols.clone()];
            src.as_chunks::<8>().0
        });
        let (d_dst, _) = d_out.row_mut(row)[cols.clone()].as_chunks_mut::<8>();
        let (m_dst, _) = m_out.row_mut(row)[cols.clone()].as_chunks_mut::<8>();
        let lanes = acc_c.iter().zip(acc_d).zip(acc_m).zip(bias);
        let dsts = c_dst.iter_mut().zip(d_dst.iter_mut()).zip(m_dst.iter_mut());
        for (v, ((((centre, dev), mag), b), ((c_dst, d_dst), m_dst))) in lanes.zip(dsts).enumerate()
        {
            let dev = image_row.map_or(*dev, |src| F64x8::load(&src[v]));
            let (centre, dev) = bounds_lanes(layer, F64x8::load(b), *centre, dev, *mag);
            centre.store(c_dst);
            dev.store(d_dst);
            centre.abs().add(dev).store(m_dst);
        }
        if layer.activation == Activation::Tanh {
            let c = c_dst.as_flattened_mut().iter_mut();
            let bounds = c
                .zip(d_dst.as_flattened_mut())
                .zip(m_dst.as_flattened_mut());
            bounds.for_each(|((c, d), m)| {
                tanh_bounds(c, d);
                *m = c.abs() + *d;
            });
        }
    }
    R
}

/// Tail column `j` of [`fused_layer`] (fewer than 8 columns are left),
/// with eight rows in the lanes of one vector per stream (a short last
/// group repeats its last row and stores only the rows it has); each lane
/// is still its own ascending-`k` chain. The inputs come eight `k` at a
/// time through an in-register transpose, the last `depth % 8` lane by
/// lane. Returns 1.
#[inline(always)]
fn fused_tail<const C: bool, const D: bool, const M: bool>(
    [c, d, _]: [&Matrix; 3],
    layer: &PreparedLayer,
    image: Option<(&Matrix, usize)>,
    [c_out, d_out, m_out]: &mut [&mut Matrix; 3],
    j: usize,
) -> usize {
    let (weights, depth) = (layer.tail_column(j), layer.depth);
    let rows = if C { c.rows() } else { d.rows() };
    let step = |acc: &mut [F64x8; 3], k: usize, cv: F64x8, dv: F64x8| {
        let w = F64x8::splat(weights[k]);
        let w_abs = w.abs();
        if C {
            acc[0] = cv.mul_add(w, acc[0]);
        }
        if M {
            acc[2] = cv.abs().add(dv).mul_add(w_abs, acc[2]);
        }
        if D {
            acc[1] = dv.mul_add(w_abs, acc[1]);
        }
    };
    for r in (0..rows).step_by(8) {
        let row = |l: usize| (r + l).min(rows - 1);
        let c_rows: [&[f64]; 8] = std::array::from_fn(|l| &c.row(row(l))[..depth]);
        let d_rows: [&[f64]; 8] = std::array::from_fn(|l| &d.row(row(l))[..depth]);
        let c_blocks: [_; 8] = std::array::from_fn(|l| c_rows[l].as_chunks::<8>().0);
        let d_blocks: [_; 8] = std::array::from_fn(|l| d_rows[l].as_chunks::<8>().0);
        let mut acc = [F64x8::splat(0.0); 3];
        for b in 0..depth / 8 {
            let cs = F64x8::transpose(std::array::from_fn(|l| F64x8::load(&c_blocks[l][b])));
            let ds = F64x8::transpose(std::array::from_fn(|l| F64x8::load(&d_blocks[l][b])));
            for (t, (cv, dv)) in cs.into_iter().zip(ds).enumerate() {
                step(&mut acc, 8 * b + t, cv, dv);
            }
        }
        for k in depth / 8 * 8..depth {
            let cv = F64x8::load(&std::array::from_fn(|l| c_rows[l][k]));
            let dv = F64x8::load(&std::array::from_fn(|l| d_rows[l][k]));
            step(&mut acc, k, cv, dv);
        }
        let b = F64x8::splat(layer.bias[j]);
        let (mut centres, mut devs) = ([0.0; 8], [0.0; 8]);
        if !C {
            acc[1].store(&mut devs);
        } else if !M {
            forward_lanes(layer.activation, acc[0], b).store(&mut centres);
        } else {
            let dev = match image {
                Some((image, offset)) => F64x8::load(&std::array::from_fn(|l| {
                    image.get((offset + row(l)) % image.rows(), j)
                })),
                None => acc[1],
            };
            let (centre, dev) = bounds_lanes(layer, b, acc[0], dev, acc[2]);
            centre.store(&mut centres);
            dev.store(&mut devs);
        }
        for (l, (mut centre, mut dev)) in centres.into_iter().zip(devs).enumerate() {
            if l >= rows - r {
                break;
            }
            if C && layer.activation == Activation::Tanh {
                if M {
                    tanh_bounds(&mut centre, &mut dev);
                } else {
                    centre = layer.activation.apply(centre);
                }
            }
            if C {
                c_out.row_mut(r + l)[j] = centre;
            }
            if D || M {
                d_out.row_mut(r + l)[j] = dev;
            }
            if M {
                m_out.row_mut(r + l)[j] = centre.abs() + dev;
            }
        }
    }
    1
}

/// The forward epilogue on eight elements: `z + b`, then the activation —
/// but `tanh`, which the caller applies per element.
#[inline(always)]
fn forward_lanes(activation: Activation, z: F64x8, b: F64x8) -> F64x8 {
    let z = z.add(b);
    match activation {
        Activation::Relu => z.max(F64x8::splat(0.0)),
        Activation::Identity | Activation::Tanh => z,
    }
}

/// The bounds epilogue on eight elements of a layer's centre, deviation
/// and magnitude accumulators, with bias lanes `b`: the centre `c + b`
/// and the deviation `widen(d + γ·(m + |b|))` — the same enclosure as the
/// scalar `propagate_dense`, widened outward by the branchless [`widen`]
/// instead of `next_up` — then the ReLU transformer, which is exact on
/// interval endpoints. A `tanh` layer's transformer is the caller's
/// ([`tanh_bounds`], per element).
#[inline(always)]
fn bounds_lanes(layer: &PreparedLayer, b: F64x8, c: F64x8, d: F64x8, m: F64x8) -> (F64x8, F64x8) {
    let splat = F64x8::splat;
    let widen = |x: F64x8| x.mul(splat(WIDEN_FACTOR)).add(splat(WIDEN_FLOOR));
    let centre = c.add(b);
    let err = splat(layer.gamma).mul(m.add(b.abs()));
    let dev = widen(d.add(err));
    match layer.activation {
        Activation::Identity | Activation::Tanh => (centre, dev),
        Activation::Relu => {
            let lo = centre.sub(dev).max(splat(0.0));
            let hi = centre.add(dev).max(splat(0.0));
            // `x · 4 · ε` as the scalar transformers write it: two
            // roundings. Halving is `· 0.5`, the same exact operation.
            let slack = lo
                .abs()
                .max(hi.abs())
                .mul(splat(4.0))
                .mul(splat(f64::EPSILON));
            let half = splat(0.5);
            let centre = lo.mul(half).add(hi.mul(half));
            (centre, widen(hi.sub(lo).mul(half).add(slack)))
        }
    }
}

/// The `tanh` transformer on one element's pre-activation bounds, in place.
fn tanh_bounds(c: &mut f64, d: &mut f64) {
    let out = Interval::centered(*c, *d).tanh();
    let slack = out.lo.abs().max(out.hi.abs()) * 4.0 * f64::EPSILON;
    *c = out.center();
    *d = widen(out.deviation() + slack);
}

impl PreparedMlp {
    /// Prepares `net` for batched propagation.
    pub fn new(net: &Mlp) -> PreparedMlp {
        let layers = net.layers().iter().map(PreparedLayer::new).collect();
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
    /// `scratch`. It runs the centre stream of the bounds kernel alone:
    /// every element is the same ascending-`k` fused reduction from `+0.0`
    /// plus bias as [`Mlp::forward`], so row `n` is bitwise identical to
    /// `net.forward(row n)` — with no per-call transpose.
    ///
    /// # Panics
    ///
    /// Panics if the staged width disagrees with the network.
    pub fn forward_staged<'s>(&self, scratch: &'s mut IbpBatchScratch) -> &'s Matrix {
        let IbpBatchScratch { in_c, forward, .. } = scratch;
        assert_eq!(in_c.cols(), self.input_dim, "bad batch width");
        forward.resize_with(self.layers.len(), Matrix::default);
        // The pass writes no deviations and no magnitudes.
        let mut unused = [Matrix::default(), Matrix::default()];
        let mut input: &Matrix = in_c;
        for (layer, out) in self.layers.iter().zip(forward) {
            let [d, m] = unused.each_mut();
            fused_layer::<SINGLE_V, true, false, false>([input; 3], layer, None, [out, d, m]);
            input = out;
        }
        input
    }

    /// The first layer's deviation image `D · |W₁|ᵀ` of a fixed block of
    /// deviation rows. Each element is the same fused reduction
    /// [`propagate_staged`](Self::propagate_staged) would run, so feeding
    /// the image back in place of the GEMM leaves every bound bit unchanged.
    pub fn first_dev_image(&self, devs: &Matrix) -> Matrix {
        let mut out = [(); 3].map(|()| Matrix::zeros(0, 0));
        let first = &self.layers[0];
        fused_layer::<SINGLE_V, false, true, false>([devs; 3], first, None, out.each_mut());
        let [_, image, _] = out;
        image
    }

    /// Propagates the `N` boxes staged in `scratch` (row `i` of the
    /// centre/deviation staging matrices is box `i`) through the network,
    /// one fused pass per layer. Returns the output `(centers, devs)`
    /// matrices, which live in `scratch`.
    ///
    /// `dev_image`, when given, is `(image, offset)` from
    /// [`first_dev_image`](Self::first_dev_image): staged row `r` must carry
    /// the deviations of the image's source row `(offset + r) % rows`, and
    /// the first layer then reads the image instead of recomputing it.
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
            in_c,
            in_d,
            in_m,
            bounds,
            ..
        } = scratch;
        assert_eq!(in_c.cols(), self.input_dim, "bad box dimensionality");
        bounds.resize_with(self.layers.len(), Default::default);
        in_m.reshape(in_c.rows(), in_c.cols());
        let staged = in_c.as_slice().iter().zip(in_d.as_slice());
        for (m, (c, d)) in in_m.as_mut_slice().iter_mut().zip(staged) {
            *m = c.abs() + d;
        }
        let mut ins: [&Matrix; 3] = [in_c, in_d, in_m];
        for (i, (layer, out)) in self.layers.iter().zip(bounds).enumerate() {
            match dev_image.filter(|_| i == 0) {
                Some(image) => fused_layer::<BOUNDS_V, true, false, true>(
                    ins,
                    layer,
                    Some(image),
                    out.each_mut(),
                ),
                None => fused_layer::<BOUNDS_V, true, true, true>(ins, layer, None, out.each_mut()),
            }
            let [c, d, m] = &*out;
            ins = [c, d, m];
        }
        (ins[0], ins[1])
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
