//! Differential enclosure harness: one set of concrete points, every
//! enclosure the crate offers.
//!
//! For random networks × random boxes × sampled concrete points,
//! `Mlp::forward(x)` must lie inside the scalar `propagate_mlp` box, the
//! batched `propagate_staged` bound — without a first-layer deviation
//! image and with one at every row offset — and the zonotope cover. The
//! widths straddle every column tail of the batched kernel (32-wide
//! blocks, 8-wide blocks, single columns), the activations are mixed per
//! layer, and the weight pool holds what a trained actor never shows but
//! the kernel must still enclose: `-0.0`, exact zeros, subnormals, and a
//! whole layer scaled to `1e-150` or `1e+150`.
//!
//! Sampled points are *exact* members of their box: each coordinate is
//! drawn from `[(c − d).next_up(), (c + d).next_down()]` (or is `c` when
//! that range is empty), so no rounding of the sample itself can excuse an
//! escape. A third of the cases use boxes a few ULPs wide along a few
//! dimensions, where the bound is mostly rounding slack; mutation-checked
//! by hand: with the batched epilogue's `γ` term, `widen` and the ReLU
//! slack removed the harness fails there, and it fails everywhere once the
//! deviation stream multiplies by `w` instead of `|w|`.

use canopy_absint::{
    propagate_mlp, propagate_mlp_zonotope, BoxState, IbpBatchScratch, Interval, PreparedMlp,
};
use canopy_nn::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{edge_net, ACTIVATIONS};

const SHAPES: [&[usize]; 3] = [&[7, 13, 9, 3], &[70, 64, 64, 1], &[33, 32, 1]];
const POINTS_PER_BOX: usize = 64;

/// One coordinate of a point inside `[c − d, c + d]`: an endpoint of the
/// exactly-contained float range half the time, uniform otherwise.
fn sample_inside(rng: &mut StdRng, c: f64, d: f64) -> f64 {
    let (lo, hi) = ((c - d).next_up(), (c + d).next_down());
    if lo > hi {
        return c;
    }
    match rng.random_range(0..4) {
        0 => lo,
        1 => hi,
        _ if lo < hi => rng.random_range(lo..=hi),
        _ => lo,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn concrete_points_lie_inside_every_enclosure(
        seed in 0u64..u64::MAX,
        shape in 0usize..3,
        scale in 0usize..3,
        rows in 1usize..7,
        period in 1usize..4,
        // (largest deviation, one entry in `sparsity` is non-zero): wide
        // boxes, narrow ones, and boxes a few ULPs wide along a few
        // dimensions, whose bound is mostly rounding slack.
        devs_kind in [(0.5, 1usize), (1e-9, 2), (4.0 * f64::EPSILON, 16)],
    ) {
        let widths = SHAPES[shape];
        let dim = widths[0];
        let mut rng = StdRng::seed_from_u64(seed);
        // One whole layer at `1e-150` or `1e+150` for `scale` 1 and 2.
        let scaled = [None, Some(1e-150), Some(1e150)][scale]
            .map(|factor| (rng.random_range(0..widths.len() - 1), factor));
        let random_activation = |rng: &mut StdRng, _| ACTIVATIONS[rng.random_range(0..ACTIVATIONS.len())];
        let net = edge_net(&mut rng, widths, random_activation, scaled);
        let prepared = PreparedMlp::new(&net);
        let mut scratch = IbpBatchScratch::new();

        // `period` fixed deviation rows — the block a plan's deviation
        // image is built from — and `rows` random centres.
        let (dev_scale, sparsity) = devs_kind;
        let mut devs = Matrix::zeros(period, dim);
        for d in devs.as_mut_slice() {
            if rng.random_range(0..sparsity) == 0 {
                *d = rng.random_range(0.0..dev_scale);
            }
        }
        let image = prepared.first_dev_image(&devs);
        let centres: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect())
            .collect();

        for offset in 0..period {
            // Staged row `r` carries deviation row `(offset + r) % period`.
            let boxes: Vec<BoxState> = centres
                .iter()
                .enumerate()
                .map(|(r, c)| BoxState::new(c.clone(), devs.row((offset + r) % period).to_vec()))
                .collect();
            let mut batched = Vec::new();
            for with_image in [false, true] {
                let (in_c, in_d) = scratch.stage(rows, dim);
                for (r, b) in boxes.iter().enumerate() {
                    in_c.set_row(r, &b.center);
                    in_d.set_row(r, &b.dev);
                }
                let (c, d) =
                    prepared.propagate_staged(&mut scratch, with_image.then_some((&image, offset)));
                batched.push((c.clone(), d.clone()));
            }
            for (r, b) in boxes.iter().enumerate() {
                let scalar = propagate_mlp(&net, b);
                // The zonotope costs O(generators · width²) per layer: on
                // the wide shapes it takes the first offset's boxes only.
                let zonotope =
                    (offset == 0 || shape == 0).then(|| propagate_mlp_zonotope(&net, b));
                for _ in 0..POINTS_PER_BOX {
                    let x: Vec<f64> = b
                        .center
                        .iter()
                        .zip(&b.dev)
                        .map(|(&c, &d)| sample_inside(&mut rng, c, d))
                        .collect();
                    for (k, y) in net.forward(&x).into_iter().enumerate() {
                        let check = |what: &str, enclosure: Interval| {
                            prop_assert!(
                                enclosure.contains(y),
                                "seed {seed} shape {shape} scale {scale} devs {dev_scale:e} offset {offset} row {r} \
                                 out {k} {what}: {y:e} outside [{:e}, {:e}]",
                                enclosure.lo,
                                enclosure.hi
                            );
                        };
                        check("scalar", scalar.dim_interval(k));
                        for ((c, d), what) in batched.iter().zip(["batched", "batched+image"]) {
                            check(what, Interval::centered(c.get(r, k), d.get(r, k)));
                        }
                        if let Some(zonotope) = &zonotope {
                            check("zonotope", zonotope[k]);
                        }
                    }
                }
            }
        }
    }
}
