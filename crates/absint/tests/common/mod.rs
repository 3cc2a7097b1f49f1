//! Shared by the batched-IBP kernel suites: networks whose parameters
//! include what a trained actor never shows but the kernel must still
//! handle — `-0.0`, exact zeros and subnormals — now that it takes `|w|`
//! in the loop.

use canopy_nn::{Activation, Mlp};
use rand::rngs::StdRng;
use rand::Rng;

pub const ACTIVATIONS: [Activation; 3] = [Activation::Relu, Activation::Tanh, Activation::Identity];

/// The values a parameter or an input is occasionally replaced by.
pub const EDGE_POOL: [f64; 8] = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308, -2.2e-308,
];

/// Either an [`EDGE_POOL`] value (one draw in eight) or `v`.
pub fn edgy(rng: &mut StdRng, v: f64) -> f64 {
    if rng.random_range(0..8) == 0 {
        EDGE_POOL[rng.random_range(0..EDGE_POOL.len())]
    } else {
        v
    }
}

/// A network over `widths` with `activation(rng, layer)` on each layer,
/// small random biases, one parameter in eight swapped for an
/// [`EDGE_POOL`] value, and — for `scaled = (layer, factor)` — that layer's
/// remaining parameters multiplied by `factor`.
pub fn edge_net(
    rng: &mut StdRng,
    widths: &[usize],
    mut activation: impl FnMut(&mut StdRng, usize) -> Activation,
    scaled: Option<(usize, f64)>,
) -> Mlp {
    let mut net = Mlp::new(rng, widths, Activation::Identity);
    for (l, layer) in net.layers_mut().iter_mut().enumerate() {
        layer.activation = activation(rng, l);
        for b in layer.bias.iter_mut() {
            *b = rng.random_range(-0.3..0.3);
        }
        let factor = scaled.filter(|s| s.0 == l).map_or(1.0, |s| s.1);
        for v in layer
            .weights
            .as_mut_slice()
            .iter_mut()
            .chain(layer.bias.iter_mut())
        {
            *v = edgy(rng, *v * factor);
        }
    }
    net
}
