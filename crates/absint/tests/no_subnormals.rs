//! Regression guard for the subnormal stall: batched IBP must never feed a
//! subnormal operand to its fused layer pass.
//!
//! A dead ReLU unit leaves a zero centre and a deviation equal to the
//! widening floor, which the next layer multiplies by `|w|`. With the floor
//! at `f64::MIN_POSITIVE` every such product was subnormal and each one
//! cost a microcode assist; from `WIDEN_FLOOR` they stay normal. The
//! products live only in registers, so this test recomputes them — every
//! value a propagation leaves behind, times the weights the next layer
//! applies to it, and the running sums — and requires each to be `0.0` or
//! normal. It fails with the old floor.

use canopy_absint::{IbpBatchScratch, PreparedMlp};
use canopy_nn::{Activation, Matrix, Mlp};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WIDTHS: [usize; 4] = [21, 32, 32, 1];
const ROWS: usize = 6;

fn assert_clean(what: &str, x: f64) {
    assert!(
        x == 0.0 || x.is_normal(),
        "{what}: {x:e} is subnormal or non-finite"
    );
}

/// ReLU hidden layers, tanh output, He/Xavier weights, zero biases.
fn fresh_net(seed: u64) -> Mlp {
    Mlp::new(&mut StdRng::seed_from_u64(seed), &WIDTHS, Activation::Tanh)
}

/// The first `depth` layers of `net` as a network of their own.
fn prefix(net: &Mlp, depth: usize) -> Mlp {
    let mut cut = Mlp::new(
        &mut StdRng::seed_from_u64(0),
        &WIDTHS[..=depth],
        Activation::Tanh,
    );
    cut.layers_mut().clone_from_slice(&net.layers()[..depth]);
    cut
}

/// Stages `ROWS` boxes with features in `[0, 0.05]` — small enough that a
/// bias of −1 kills a ReLU unit whatever its weights. `abstracted` widens
/// every third dimension to a range (period-2 deviations, so a two-row
/// deviation image covers the batch); otherwise the boxes are points.
fn stage(scratch: &mut IbpBatchScratch, abstracted: bool) -> Matrix {
    let mut devs = Matrix::zeros(2, WIDTHS[0]);
    if abstracted {
        for r in 0..2 {
            for (i, d) in devs.row_mut(r).iter_mut().enumerate() {
                *d = if i % 3 == 0 {
                    0.01 * (r + 1) as f64
                } else {
                    0.0
                };
            }
        }
    }
    let (in_c, in_d) = scratch.stage(ROWS, WIDTHS[0]);
    for r in 0..ROWS {
        for (i, c) in in_c.row_mut(r).iter_mut().enumerate() {
            *c = 0.017 + 0.004 * ((r + i) % 5) as f64;
        }
        in_d.set_row(r, devs.row(r % 2));
    }
    devs
}

/// Every operand and partial sum of the two stalled streams (`D·|W|ᵀ` and
/// `(|C|+D)·|W|ᵀ`) and of the centre stream, for layer inputs `(c, d)`.
fn audit_next_layer(label: &str, c: &Matrix, d: &Matrix, layer: &canopy_nn::Dense) {
    for row in 0..c.rows() {
        for unit in 0..layer.fan_out() {
            let (mut centre, mut dev, mut mag) = (0.0f64, 0.0f64, 0.0f64);
            for (j, &w) in layer.weights.row(unit).iter().enumerate() {
                let (cj, dj) = (c.get(row, j), d.get(row, j));
                for (what, term) in [
                    ("c·w", cj * w),
                    ("d·|w|", dj * w.abs()),
                    ("(|c|+d)·|w|", (cj.abs() + dj) * w.abs()),
                ] {
                    assert_clean(
                        &format!("{label} row {row} unit {unit} in {j} {what}"),
                        term,
                    );
                }
                centre = cj.mul_add(w, centre);
                dev = dj.mul_add(w.abs(), dev);
                mag = (cj.abs() + dj).mul_add(w.abs(), mag);
                for (what, sum) in [("Σc·w", centre), ("Σd·|w|", dev), ("Σ(|c|+d)·|w|", mag)]
                {
                    assert_clean(&format!("{label} row {row} unit {unit} in {j} {what}"), sum);
                }
            }
        }
    }
}

fn audit(label: &str, net: &Mlp, dead_units: &[usize]) {
    for abstracted in [false, true] {
        for with_image in [false, true] {
            // A deviation image only exists for a fixed block of deviations.
            if with_image && !abstracted {
                continue;
            }
            for depth in 1..WIDTHS.len() {
                let label =
                    format!("{label} abstracted={abstracted} image={with_image} depth={depth}");
                let cut = prefix(net, depth);
                let prepared = PreparedMlp::new(&cut);
                let mut scratch = IbpBatchScratch::new();
                let devs = stage(&mut scratch, abstracted);
                let image = prepared.first_dev_image(&devs);
                let (c, d) =
                    prepared.propagate_staged(&mut scratch, with_image.then_some((&image, 0)));
                let (c, d) = (c.clone(), d.clone());
                if depth == 1 {
                    for &unit in dead_units {
                        for row in 0..ROWS {
                            assert_eq!(c.get(row, unit), 0.0, "{label}: unit {unit} must be dead");
                        }
                    }
                }
                let resident = scratch.buffers();
                for (b, buffer) in resident.iter().enumerate() {
                    for &x in buffer.as_slice() {
                        assert_clean(&format!("{label} buffer {b}"), x);
                    }
                }
                if let Some(next) = net.layers().get(depth) {
                    audit_next_layer(&label, &c, &d, next);
                }
            }
        }
    }
}

#[test]
fn leading_run_of_dead_units() {
    let mut net = fresh_net(3);
    net.layers_mut()[0].bias[..7].fill(-1.0);
    audit("leading dead run", &net, &[0, 1, 2, 3, 4, 5, 6]);
}

#[test]
fn fully_dead_hidden_layer() {
    let mut net = fresh_net(5);
    net.layers_mut()[0].bias.fill(-1.0);
    audit("dead layer", &net, &(0..WIDTHS[1]).collect::<Vec<_>>());
}

#[test]
fn fresh_zero_bias_net() {
    audit("fresh", &fresh_net(7), &[]);
}
