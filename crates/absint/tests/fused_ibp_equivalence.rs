//! Bitwise oracle for the batched-IBP layer kernel.
//!
//! `PreparedMlp::propagate_staged` runs each layer as one fused pass over
//! `Wᵀ`. This suite rebuilds the layer it replaced — three naive
//! ascending-`k` `mul_add` GEMMs on `Wᵀ`, an explicit `|W|ᵀ` and an
//! explicit `|C| + D`, then the epilogue formulas — and requires `to_bits`
//! equality of every output centre and deviation: all three activations,
//! widths that end in every column tail (32-wide blocks, 8-wide blocks,
//! single columns), row counts on both sides of the row pairs and of the
//! tail columns' eight-row lane groups (8, 9, 16, 17: a full group and a
//! one-row spill), weights and centres that include `-0.0`, zeros and
//! subnormals, with and without a first-layer deviation image at every row
//! offset.
//!
//! Mutation-checked by hand: accumulating the magnitude stream in two
//! steps per `k` — `fma(|c|, |w|, ·)` then `fma(d, |w|, ·)` — instead of
//! one `fma(|c| + d, |w|, ·)` fails this suite (it rounds twice where the
//! oracle rounds once; only the ULP-wide [`DEV_SCALES`] entry can see it),
//! and so does taking `|w|` out of either stream. On the lane kernel
//! (`F64x8`) each of these fails it too: an unfused `mul` then `add` in the
//! wide `mul_add` or in the array one, an `abs` that returns its input, the
//! magnitude stream reading `w` for `|w|`, and a two-row pass that reads
//! its first row twice.

use canopy_absint::{IbpBatchScratch, Interval, PreparedMlp};
use canopy_nn::{Activation, Matrix, Mlp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{edge_net, edgy, ACTIVATIONS};

/// The last shape's 107-wide layer runs three 32-column blocks, one 8-column
/// block and a three-column tail in one layer.
const SHAPES: [&[usize]; 4] = [
    &[7, 13, 9, 3],
    &[70, 64, 64, 1],
    &[33, 41, 40, 2],
    &[70, 107, 64, 1],
];
const ROW_COUNTS: [usize; 9] = [1, 5, 8, 9, 10, 16, 17, 32, 33];
/// Largest input deviation: ordinary boxes, and boxes a few ULPs wide — there
/// `D·|W|ᵀ` is below the `γ`-scaled magnitude accumulator, so the output
/// deviation shows the accumulator's own last bits.
const DEV_SCALES: [f64; 2] = [0.4, 1e-15];

/// `canopy_absint::ibp::WIDEN_FLOOR` and the two formulas built on it,
/// restated: they are the contract under test.
const WIDEN_FLOOR: f64 = f64::from_bits((1023_u64 - 498) << 52);

fn widen(x: f64) -> f64 {
    x * (1.0 + 4.0 * f64::EPSILON) + WIDEN_FLOOR
}

fn gamma(n: usize) -> f64 {
    2.0 * (n as f64 + 2.0) * f64::EPSILON
}

/// `a · b` as a triple loop: each element one fused `mul_add` chain over
/// `k` in ascending order, from `0.0`.
fn naive_gemm(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc = a.get(i, k).mul_add(b.get(k, j), acc);
            }
            *out.get_mut(i, j) = acc;
        }
    }
    out
}

/// The pre-fusion layer stack: per layer `C·Wᵀ`, `D·|W|ᵀ` and
/// `(|C| + D)·|W|ᵀ` as three separate GEMMs, then the epilogue.
fn three_gemm_oracle(net: &Mlp, in_c: &Matrix, in_d: &Matrix) -> (Matrix, Matrix) {
    let (mut c, mut d) = (in_c.clone(), in_d.clone());
    let mut wt = Matrix::zeros(0, 0);
    for layer in net.layers() {
        layer.weights.transpose_into(&mut wt);
        let mut w_abs_t = wt.clone();
        for w in w_abs_t.as_mut_slice() {
            *w = w.abs();
        }
        let mut mag_in = c.clone();
        for (a, &dv) in mag_in.as_mut_slice().iter_mut().zip(d.as_slice()) {
            *a = a.abs() + dv;
        }
        let mut c_next = naive_gemm(&c, &wt);
        let mut d_next = naive_gemm(&d, &w_abs_t);
        let acc = naive_gemm(&mag_in, &w_abs_t);
        let g = gamma(layer.fan_in());
        for r in 0..c.rows() {
            for (j, &b) in layer.bias.iter().enumerate() {
                let centre = c_next.get(r, j) + b;
                let dev = widen(d_next.get(r, j) + g * (acc.get(r, j) + b.abs()));
                let (centre, dev) = match layer.activation {
                    Activation::Identity => (centre, dev),
                    Activation::Relu => {
                        let lo = (centre - dev).max(0.0);
                        let hi = (centre + dev).max(0.0);
                        let slack = lo.abs().max(hi.abs()) * 4.0 * f64::EPSILON;
                        (lo / 2.0 + hi / 2.0, widen((hi - lo) / 2.0 + slack))
                    }
                    Activation::Tanh => {
                        let out = Interval::centered(centre, dev).tanh();
                        let slack = out.lo.abs().max(out.hi.abs()) * 4.0 * f64::EPSILON;
                        (out.center(), widen(out.deviation() + slack))
                    }
                };
                *c_next.get_mut(r, j) = centre;
                *d_next.get_mut(r, j) = dev;
            }
        }
        (c, d) = (c_next, d_next);
    }
    (c, d)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn fused_layer_matches_the_three_gemm_layer_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(2105);
    let mut scratch = IbpBatchScratch::new();
    for (s, widths) in SHAPES.iter().enumerate() {
        // Every activation sits on every layer position once.
        for shift in 0..ACTIVATIONS.len() {
            let net = edge_net(&mut rng, widths, |_, l| ACTIVATIONS[(l + shift) % 3], None);
            let prepared = PreparedMlp::new(&net);
            let dim = widths[0];
            for (rows, dev_scale) in ROW_COUNTS
                .into_iter()
                .flat_map(|rows| DEV_SCALES.map(|scale| (rows, scale)))
            {
                // Deviations repeat with period 3, so a three-row image
                // covers the batch at offsets 0, 1 and 2.
                let mut devs = Matrix::zeros(3, dim);
                for d in devs.as_mut_slice() {
                    let v = rng.random_range(0.0..dev_scale);
                    *d = edgy(&mut rng, v).abs();
                }
                let image = prepared.first_dev_image(&devs);
                for offset in 0..3 {
                    let mut in_c = Matrix::zeros(rows, dim);
                    let mut in_d = Matrix::zeros(rows, dim);
                    for r in 0..rows {
                        for c in in_c.row_mut(r) {
                            let v = rng.random_range(-1.0..1.0);
                            *c = edgy(&mut rng, v);
                        }
                        in_d.set_row(r, devs.row((offset + r) % 3));
                    }
                    let (want_c, want_d) = three_gemm_oracle(&net, &in_c, &in_d);
                    for with_image in [false, true] {
                        let (stage_c, stage_d) = scratch.stage(rows, dim);
                        stage_c.copy_from(&in_c);
                        stage_d.copy_from(&in_d);
                        let (c, d) = prepared
                            .propagate_staged(&mut scratch, with_image.then_some((&image, offset)));
                        let case = format!(
                            "shape {s} shift {shift} rows {rows} devs {dev_scale:e} offset {offset} image {with_image}"
                        );
                        assert_eq!(bits(c), bits(&want_c), "{case}: centres");
                        assert_eq!(bits(d), bits(&want_d), "{case}: deviations");
                    }
                }
            }
        }
    }
}
