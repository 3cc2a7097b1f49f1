//! Property-based equivalence: the batched GEMM paths must reproduce the
//! per-sample paths **bitwise** — outputs, parameter gradients, and input
//! gradients — for random networks, batch sizes, and inputs. This is the
//! contract that lets `canopy_rl` swap its per-transition training loop
//! for whole-batch passes without changing a single result.
//!
//! The layer widths are inputs (1-wide heads, layers narrower and wider
//! than every kernel block, batches past 64), and the Shallow model's exact
//! actor and critic shapes at the trainer's batch of 64 are pinned.

use canopy_nn::{Activation, Batch, BatchScratch, Matrix, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random network; odd seeds also draw nonzero biases (`Mlp::new` starts
/// them at zero, which a bias-dropping kernel would pass).
fn random_net(seed: u64, widths: &[usize], act: Activation) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Mlp::new(&mut rng, widths, act);
    if seed % 2 == 1 {
        for layer in net.layers_mut() {
            for b in &mut layer.bias {
                *b = rng.random_range(-0.5..0.5);
            }
        }
    }
    net
}

fn random_batch(seed: u64, n: usize, d: usize) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(-2.0..2.0)).collect();
    Batch::from_vec(n, d, data)
}

/// `forward_batch` and `forward_trace_batch` row `n` equal `forward(row n)`.
fn check_forward(net: &Mlp, x: &Batch) {
    let mut scratch = BatchScratch::new();
    let y = net.forward_batch(x, &mut scratch).clone();
    let y_trace = net.forward_trace_batch(x, &mut scratch);
    assert_eq!(&y, y_trace);
    for r in 0..x.rows() {
        assert_eq!(y.row(r), net.forward(x.row(r)).as_slice(), "row {r}");
    }
}

/// Two accumulating `forward_trace_batch` + `backward_batch` passes (the
/// second adds onto the first's gradients) equal the per-sample
/// `forward_trace` + `backward` loop, input gradients included, and
/// `backward_batch_params_only` accumulates the same parameter gradients.
fn check_backward(net: &Mlp, x: &Batch, grads: [&Matrix; 2]) {
    let mut batched = net.clone();
    let mut params_only = net.clone();
    let mut scalar = net.clone();
    batched.zero_grads();
    params_only.zero_grads();
    scalar.zero_grads();
    let mut scratch = BatchScratch::new();
    for g in grads {
        batched.forward_trace_batch(x, &mut scratch);
        let grad_in = batched.backward_batch(x, &mut scratch, g).clone();
        params_only.forward_trace_batch(x, &mut scratch);
        params_only.backward_batch_params_only(x, &mut scratch, g);
        for r in 0..x.rows() {
            let (_, trace) = scalar.forward_trace(x.row(r));
            let gi = scalar.backward(&trace, g.row(r));
            assert_eq!(grad_in.row(r), gi.as_slice(), "input grad row {r}");
        }
    }
    let want = scalar.grads_flat();
    assert_eq!(batched.grads_flat(), want);
    assert_eq!(params_only.grads_flat(), want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Forward passes bit for bit, over two hidden layers of 1..=40 units,
    /// 1..=3 outputs under a tanh or identity head, and batches of 1..=80.
    #[test]
    fn forward_batch_equals_per_sample(
        net_seed in 0u64..500,
        x_seed in 0u64..500,
        n in 1usize..=80,
        input in 1usize..=40,
        h1 in 1usize..=40,
        h2 in 1usize..=40,
        out in 1usize..=3,
        head in [Activation::Tanh, Activation::Identity],
    ) {
        let net = random_net(net_seed, &[input, h1, h2, out], head);
        check_forward(&net, &random_batch(x_seed, n, input));
    }

    /// `backward_batch` and `backward_batch_params_only` accumulate exactly
    /// the gradients of the per-sample `forward_trace` + `backward` loop,
    /// and `backward_batch` returns the same per-row input gradients.
    #[test]
    fn backward_batch_equals_per_sample(
        net_seed in 0u64..500,
        x_seed in 0u64..500,
        g_seed in 0u64..500,
        n in 1usize..=80,
        input in 1usize..=40,
        h1 in 1usize..=40,
        h2 in 1usize..=40,
        out in 1usize..=3,
        head in [Activation::Tanh, Activation::Identity],
    ) {
        let net = random_net(net_seed, &[input, h1, h2, out], head);
        let x = random_batch(x_seed, n, input);
        let g1 = random_batch(g_seed, n, out);
        let g2 = random_batch(g_seed.wrapping_add(1), n, out);
        check_backward(&net, &x, [&g1, &g2]);
    }

    /// The blocked GEMM equals a naive triple loop bitwise for shapes
    /// around the tile boundary.
    #[test]
    fn blocked_gemm_equals_naive(
        a_seed in 0u64..500,
        b_seed in 0u64..500,
        m in 1usize..80,
        k in 1usize..80,
        n in 1usize..40,
    ) {
        let a = random_batch(a_seed, m, k);
        let b = random_batch(b_seed, k, n);
        let fast = a.matmul(&b);
        let mut slow = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc = a.get(i, kk).mul_add(b.get(kk, j), acc);
                }
                *slow.get_mut(i, j) = acc;
            }
        }
        prop_assert_eq!(fast, slow);
    }

    /// Scratch buffers can be reused across differing batch sizes without
    /// contaminating results.
    #[test]
    fn scratch_reuse_is_clean(
        net_seed in 0u64..200,
        x_seed in 0u64..200,
        n1 in 1usize..16,
        n2 in 1usize..16,
    ) {
        let net = random_net(net_seed, &[3, 12, 2], Activation::Tanh);
        let mut scratch = BatchScratch::new();
        let x1 = random_batch(x_seed, n1, 3);
        net.forward_batch(&x1, &mut scratch);
        let x2 = random_batch(x_seed.wrapping_add(1), n2, 3);
        let y2 = net.forward_batch(&x2, &mut scratch);
        for r in 0..n2 {
            prop_assert_eq!(y2.row(r), net.forward(x2.row(r)).as_slice());
        }
    }
}

/// The Shallow model's actor (21→32→32→1, tanh) and critic (22→32→32→1,
/// identity) at the trainer's batch of 64: every pass the TD3 update runs.
#[test]
fn shallow_actor_and_critic_shapes() {
    for (seed, widths, head) in [
        (1, [21, 32, 32, 1], Activation::Tanh),
        (3, [22, 32, 32, 1], Activation::Identity),
        (4, [22, 32, 32, 1], Activation::Identity),
    ] {
        let net = random_net(seed, &widths, head);
        let x = random_batch(seed + 10, 64, widths[0]);
        check_forward(&net, &x);
        let g1 = random_batch(seed + 20, 64, 1);
        let g2 = random_batch(seed + 30, 64, 1);
        check_backward(&net, &x, [&g1, &g2]);
    }
}
