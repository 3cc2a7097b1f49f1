//! The zonotope abstract domain.
//!
//! A zonotope represents the set `{ c + G·ε : ε ∈ [−1, 1]^K }` — a centre
//! plus a linear combination of generator vectors. Unlike boxes, zonotopes
//! track *correlations* between dimensions, so affine layers lose no
//! precision at all; only the activation transformers introduce
//! over-approximation (one fresh generator per crossing unit, following the
//! standard sound linear relaxations of Singh et al. / AI²).
//!
//! Canopy trains and proves with the box domain (the paper's choice, §3.2);
//! this domain exists for the precision ablation — how much of the
//! certificate's looseness is the domain's fault rather than the model's —
//! exposed through [`crate::zonotope::propagate_mlp_zonotope`] and the
//! `figures ablation_domains` harness.

use canopy_nn::{Activation, Dense, Mlp};
use serde::{Deserialize, Serialize};

use crate::boxdom::BoxState;
use crate::ibp::WIDEN_FLOOR;
use crate::interval::Interval;

/// Relative slack added to every fresh error generator to absorb
/// floating-point rounding (mirrors the box domain's outward rounding).
const ROUND_SLACK: f64 = 64.0 * f64::EPSILON;

/// A zonotope `{ c + Σ_k g_k ε_k : ε_k ∈ [−1, 1] }` over `m` dimensions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Zonotope {
    /// Centre, length `m`.
    pub center: Vec<f64>,
    /// Generators, each of length `m`.
    pub generators: Vec<Vec<f64>>,
}

impl Zonotope {
    /// Lifts a box: one axis-aligned generator per non-degenerate
    /// dimension.
    pub(crate) fn from_box(b: &BoxState) -> Zonotope {
        let m = b.dim();
        let mut generators = Vec::new();
        for (i, &d) in b.dev.iter().enumerate() {
            if d > 0.0 {
                let mut g = vec![0.0; m];
                g[i] = d;
                generators.push(g);
            }
        }
        Zonotope {
            center: b.center.clone(),
            generators,
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.center.len()
    }

    /// The tightest per-dimension interval cover:
    /// `[c_i − Σ|g_ki|, c_i + Σ|g_ki|]`.
    pub fn to_intervals(&self) -> Vec<Interval> {
        (0..self.dim()).map(|i| self.dim_interval(i)).collect()
    }

    /// The outward-rounded interval cover of a single dimension. An
    /// overflowed centre or generator (a NaN bound) covers everything on
    /// its side, as in [`Interval::centered`].
    pub fn dim_interval(&self, i: usize) -> Interval {
        let radius: f64 = self.generators.iter().map(|g| g[i].abs()).sum();
        let cover = Interval::centered(self.center[i], radius);
        Interval::new(cover.lo.next_down(), cover.hi.next_up())
    }

    /// The exact affine image `W·Z + b` (no precision loss — the key
    /// advantage over boxes).
    pub fn affine(&self, layer: &Dense) -> Zonotope {
        let out = layer.fan_out();
        let mut center = vec![0.0; out];
        for (r, slot) in center.iter_mut().enumerate() {
            let row = layer.weights.row(r);
            let mut acc = layer.bias[r];
            for (w, c) in row.iter().zip(&self.center) {
                acc += w * c;
            }
            *slot = acc;
        }
        let mut generators = Vec::with_capacity(self.generators.len() + 1);
        // Rounding slack for the centre/generator matmuls, as one fresh
        // axis-aligned error generator per output dim folded into a single
        // generator vector (diagonal): conservative and cheap.
        let mut round_err = vec![0.0; out];
        for (r, err) in round_err.iter_mut().enumerate() {
            let row = layer.weights.row(r);
            let mut abs_acc = layer.bias[r].abs();
            for (w, c) in row.iter().zip(&self.center) {
                abs_acc += (w * c).abs();
            }
            for g in &self.generators {
                for (w, gi) in row.iter().zip(g) {
                    abs_acc += (w * gi).abs();
                }
            }
            *err = abs_acc * (layer.fan_in() as f64 + 2.0) * 2.0 * f64::EPSILON;
        }
        for g in &self.generators {
            let mut out_g = vec![0.0; out];
            for (r, og) in out_g.iter_mut().enumerate() {
                let row = layer.weights.row(r);
                let mut acc = 0.0;
                for (w, gi) in row.iter().zip(g) {
                    acc += w * gi;
                }
                *og = acc;
            }
            generators.push(out_g);
        }
        let mut z = Zonotope { center, generators };
        // One diagonal slack generator per output dimension would be m
        // generators; collapse them into per-dimension additions instead.
        for (i, err) in round_err.into_iter().enumerate() {
            if err > 0.0 {
                let mut g = vec![0.0; z.dim()];
                g[i] = err;
                z.generators.push(g);
            }
        }
        z
    }

    /// Sound element-wise activation transformer.
    ///
    /// Each dimension is replaced by the linear relaxation
    /// `λ·x + μ ± δ`; `δ` becomes a fresh generator. Stable units
    /// (ReLU fully active/inactive) stay exact.
    pub fn activation(&self, act: Activation) -> Zonotope {
        if act == Activation::Identity {
            return self.clone();
        }
        let m = self.dim();
        let bounds = self.to_intervals();
        let mut center = self.center.clone();
        let mut generators = self.generators.clone();
        let mut fresh: Vec<(usize, f64)> = Vec::new();
        for i in 0..m {
            let (l, u) = (bounds[i].lo, bounds[i].hi);
            let (lambda, mu, delta) = match act {
                Activation::Relu => relu_relaxation(l, u),
                Activation::Tanh => tanh_relaxation(l, u),
                Activation::Identity => unreachable!("handled above"),
            };
            center[i] = lambda * center[i] + mu;
            for g in &mut generators {
                g[i] *= lambda;
            }
            if delta > 0.0 {
                fresh.push((i, delta * (1.0 + ROUND_SLACK) + WIDEN_FLOOR));
            }
        }
        for (i, d) in fresh {
            let mut g = vec![0.0; m];
            g[i] = d;
            generators.push(g);
        }
        Zonotope { center, generators }
    }

    /// Reduces the generator count to at most `max_generators` by folding
    /// the smallest generators into axis-aligned (box) generators. Sound:
    /// the result contains the original zonotope.
    pub(crate) fn reduce_order(&mut self, max_generators: usize) {
        if self.generators.len() <= max_generators {
            return;
        }
        // Keep the largest generators (by 1-norm); box the rest.
        let mut idx: Vec<usize> = (0..self.generators.len()).collect();
        idx.sort_by(|&a, &b| {
            let na: f64 = self.generators[a].iter().map(|x| x.abs()).sum();
            let nb: f64 = self.generators[b].iter().map(|x| x.abs()).sum();
            nb.total_cmp(&na)
        });
        let keep_count = max_generators.saturating_sub(self.dim()).max(1);
        let (keep, fold) = idx.split_at(keep_count.min(idx.len()));
        let mut box_radius = vec![0.0; self.dim()];
        for &k in fold {
            for (r, g) in box_radius.iter_mut().zip(&self.generators[k]) {
                *r += g.abs();
            }
        }
        let mut new_gens: Vec<Vec<f64>> =
            keep.iter().map(|&k| self.generators[k].clone()).collect();
        for (i, &r) in box_radius.iter().enumerate() {
            // A NaN radius (an overflowed generator) is kept, so the cover
            // stays unbounded instead of losing the generator.
            if r != 0.0 {
                let mut g = vec![0.0; self.dim()];
                // Inflate against floating-point reassociation so the
                // reduced zonotope strictly contains the original.
                g[i] = (r * (1.0 + ROUND_SLACK)).next_up();
                new_gens.push(g);
            }
        }
        self.generators = new_gens;
    }
}

/// Sound linear relaxation of ReLU on `[l, u]`: returns `(λ, μ, δ)` with
/// `relu(x) ∈ λ·x + μ ± δ` for all `x ∈ [l, u]`.
fn relu_relaxation(l: f64, u: f64) -> (f64, f64, f64) {
    if l >= 0.0 {
        (1.0, 0.0, 0.0)
    } else if u <= 0.0 {
        (0.0, 0.0, 0.0)
    } else {
        let lambda = u / (u - l);
        let mu = -lambda * l / 2.0;
        (lambda, mu, mu)
    }
}

/// Sound linear relaxation of tanh on `[l, u]` (Singh et al.): slope is
/// the smaller endpoint derivative; offset and error split the residual.
fn tanh_relaxation(l: f64, u: f64) -> (f64, f64, f64) {
    if l == u {
        return (0.0, l.tanh(), 0.0);
    }
    let (tl, tu) = (l.tanh(), u.tanh());
    let lambda = (1.0 - tl * tl).min(1.0 - tu * tu);
    let mu = (tu + tl - lambda * (u + l)) / 2.0;
    let delta = (tu - tl - lambda * (u - l)) / 2.0;
    (lambda, mu, delta.max(0.0))
}

/// Propagates a box through the network using zonotope semantics and
/// returns the per-dimension interval cover of the output.
pub fn propagate_mlp_zonotope(net: &Mlp, input: &BoxState) -> Vec<Interval> {
    let mut z = Zonotope::from_box(input);
    for layer in net.layers() {
        z = z.affine(layer).activation(layer.activation);
        // Keep the representation compact on deep nets; 8× the input
        // dimensionality retains the dominant correlations.
        z.reduce_order(8 * input.dim().max(8));
    }
    z.to_intervals()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn box_round_trip() {
        let b = BoxState::from_intervals(&[
            Interval::new(-1.0, 3.0),
            Interval::point(2.0),
            Interval::new(0.0, 0.5),
        ]);
        let z = Zonotope::from_box(&b);
        assert_eq!(z.generators.len(), 2); // point dims need no generator
        let ivs = z.to_intervals();
        assert!((ivs[0].lo - -1.0).abs() < 1e-12 && (ivs[0].hi - 3.0).abs() < 1e-12);
        assert!(ivs[1].width() < 1e-12);
    }

    #[test]
    fn relu_relaxation_sound() {
        for (l, u) in [(-2.0, 3.0), (-1.0, 0.5), (-0.1, 0.1)] {
            let (lambda, mu, delta) = relu_relaxation(l, u);
            for i in 0..=50 {
                let x = l + (u - l) * i as f64 / 50.0;
                let y = x.max(0.0);
                let approx = lambda * x + mu;
                assert!(
                    (y - approx).abs() <= delta + 1e-12,
                    "relu({x}) = {y} outside {approx} ± {delta}"
                );
            }
        }
    }

    #[test]
    fn tanh_relaxation_sound() {
        for (l, u) in [(-2.0, 1.0), (0.2, 2.5), (-0.5, -0.1), (-3.0, 3.0)] {
            let (lambda, mu, delta) = tanh_relaxation(l, u);
            for i in 0..=50 {
                let x = l + (u - l) * i as f64 / 50.0;
                let y = x.tanh();
                let approx = lambda * x + mu;
                assert!(
                    (y - approx).abs() <= delta + 1e-9,
                    "tanh({x}) = {y} outside {approx} ± {delta} on [{l},{u}]"
                );
            }
        }
    }

    #[test]
    fn affine_is_exact() {
        // For a pure affine network, zonotope bounds are exact (up to
        // rounding slack) while box bounds over-approximate rotations.
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Mlp::new(&mut rng, &[2, 2, 2], Activation::Identity);
        // A rotation-ish pair of layers that cancels: y = R⁻¹ R x = x.
        // (Hidden layers default to ReLU; force a purely affine net.)
        net.layers_mut()[0].activation = Activation::Identity;
        net.layers_mut()[0].weights = canopy_nn::Matrix::from_rows(&[&[0.6, -0.8], &[0.8, 0.6]]);
        net.layers_mut()[0].bias = vec![0.0, 0.0];
        net.layers_mut()[1].weights = canopy_nn::Matrix::from_rows(&[&[0.6, 0.8], &[-0.8, 0.6]]);
        net.layers_mut()[1].bias = vec![0.0, 0.0];
        let input = BoxState::from_intervals(&[Interval::new(-1.0, 1.0), Interval::new(-1.0, 1.0)]);
        let zono = propagate_mlp_zonotope(&net, &input);
        let boxed = crate::ibp::propagate_mlp(&net, &input).to_intervals();
        // Zonotope recovers the identity: [−1, 1] per dim.
        assert!((zono[0].lo - -1.0).abs() < 1e-9 && (zono[0].hi - 1.0).abs() < 1e-9);
        // Boxes blow up under rotation (width 2.8 instead of 2.0).
        assert!(boxed[0].width() > zono[0].width() + 0.5);
    }

    #[test]
    fn sound_on_random_tanh_nets() {
        let mut rng = StdRng::seed_from_u64(3);
        for seed in 0..10u64 {
            let mut nrng = StdRng::seed_from_u64(seed);
            let net = Mlp::new(&mut nrng, &[3, 12, 12, 1], Activation::Tanh);
            let input = BoxState::from_intervals(&[
                Interval::new(-0.4, 0.4),
                Interval::new(0.0, 1.0),
                Interval::point(0.3),
            ]);
            let out = propagate_mlp_zonotope(&net, &input)[0];
            for _ in 0..100 {
                let x: Vec<f64> = input
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
                let y = net.forward(&x)[0];
                assert!(out.contains(y), "{y} outside {out:?} (net {seed})");
            }
        }
    }

    #[test]
    fn tighter_than_boxes_on_deep_nets() {
        // Averaged over random nets, zonotope output widths must not
        // exceed box widths (and are typically much smaller).
        let mut total_box = 0.0;
        let mut total_zono = 0.0;
        for seed in 0..10u64 {
            let mut nrng = StdRng::seed_from_u64(seed);
            let net = Mlp::new(&mut nrng, &[3, 16, 16, 1], Activation::Tanh);
            let input = BoxState::from_intervals(&[
                Interval::new(-0.3, 0.3),
                Interval::new(-0.3, 0.3),
                Interval::new(-0.3, 0.3),
            ]);
            total_box += crate::ibp::propagate_mlp(&net, &input)
                .dim_interval(0)
                .width();
            total_zono += propagate_mlp_zonotope(&net, &input)[0].width();
        }
        assert!(
            total_zono < total_box,
            "zonotope {total_zono} vs box {total_box}"
        );
    }

    #[test]
    fn order_reduction_is_sound() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut z = Zonotope {
            center: vec![0.0, 0.0],
            generators: (0..40)
                .map(|_| vec![rng.random_range(-0.1..0.1), rng.random_range(-0.1..0.1)])
                .collect(),
        };
        let before = z.to_intervals();
        z.reduce_order(8);
        assert!(z.generators.len() <= 8 + 2);
        let after = z.to_intervals();
        for (b, a) in before.iter().zip(&after) {
            assert!(b.is_subset_of(*a), "{b:?} not within {a:?}");
        }
    }

    #[test]
    fn degenerate_input_is_pointlike() {
        let mut nrng = StdRng::seed_from_u64(1);
        let net = Mlp::new(&mut nrng, &[2, 8, 1], Activation::Tanh);
        let x = [0.4, -0.2];
        let input = BoxState::point(&x);
        let out = propagate_mlp_zonotope(&net, &input)[0];
        let y = net.forward(&x)[0];
        assert!(out.contains(y));
        assert!(out.width() < 1e-9, "{out:?}");
    }
}
