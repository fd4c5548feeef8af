//! Network-level runtime-width invariance for the gradient hot path
//! (per-layer packed weight slots, fused threaded im2col, pool-parallel
//! dense GEMMs): losses, activations and gradients must be **bitwise
//! identical** whatever the width of the runtime the workspace runs on,
//! and on a warm workspace given new parameters in the same buffer, on
//! the paper's own workload shapes — scaled-down MLP and CNN stacks plus
//! the real Table III CNN.
//!
//! The reference is a fresh `Workspace` on an injected `Runtime::new(1)`
//! (every split runs inline on the caller); an injected 4-thread runtime
//! exercises the parallel code paths regardless of the host's core count.
//! What the kernels compute is pinned elsewhere (`conv_ref`, `gradcheck`,
//! the tensor crate's differential suites against `gemm_naive_slices`).

use lsgd_nn::Network;
use lsgd_runtime::Runtime;
use lsgd_tensor::{Matrix, SmallRng64};

fn rand_batch(n: usize, dim: usize, classes: usize, seed: u64) -> (Matrix, Vec<u8>) {
    let mut rng = SmallRng64::new(seed);
    let x = Matrix::from_fn(n, dim, |_, _| rng.next_f32() - 0.5);
    let y = (0..n).map(|_| rng.next_below(classes) as u8).collect();
    (x, y)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `loss_grad` through one fresh workspace on a `threads`-wide
/// runtime, once per parameter version in `thetas`. Every version is
/// written into the same buffer (the copy-on-read worker pattern: same
/// pointer, new contents), so a layer that reused panels packed from an
/// earlier version would show. Returns `(losses, gradients)`.
fn run_on(
    net: &Network,
    thetas: &[&[f32]],
    x: &Matrix,
    y: &[u8],
    threads: usize,
) -> (Vec<f32>, Vec<Vec<f32>>) {
    let mut ws = net.workspace(x.rows());
    ws.set_runtime(Runtime::new(threads).into());
    let mut losses = Vec::new();
    let mut grads = Vec::new();
    let mut params = vec![0.0f32; net.param_len()];
    for theta in thetas {
        params.copy_from_slice(theta);
        let mut grad = vec![0.0f32; net.param_len()];
        losses.push(net.loss_grad(&params, x, y, &mut grad, &mut ws));
        grads.push(grad);
    }
    (losses, grads)
}

/// Two steps at θ₁ then θ₂ through one workspace, on `Runtime::new(1)`
/// and on a 4-thread runtime, must each equal a *cold* serial workspace
/// given that version first.
fn assert_modes_agree(net: &Network, batch: usize, seed: u64) {
    let theta1 = net.init_params(seed);
    let theta2 = net.init_params(seed + 100);
    let (x, y) = rand_batch(batch, net.in_dim(), net.n_classes(), seed + 1);
    let cold = [&theta1, &theta2].map(|theta| run_on(net, &[theta], &x, &y, 1));
    for threads in [1, 4] {
        let warm = run_on(net, &[&theta1, &theta2], &x, &y, threads);
        for (step, cold) in cold.iter().enumerate() {
            assert_eq!(
                warm.0[step].to_bits(),
                cold.0[0].to_bits(),
                "loss diverged on {threads} threads, step {step}"
            );
            assert_eq!(
                bits(&warm.1[step]),
                bits(&cold.1[0]),
                "gradient diverged on {threads} threads, step {step}"
            );
        }
    }
}

#[test]
fn mlp_gradients_bitwise_identical_across_modes() {
    // Shrunk Table II shape class: stacked Dense+ReLU. Batch 24 is big
    // enough that dX rides the packed (and prepacked) kernel.
    let net = lsgd_nn::tiny_mlp(50, 32, 7);
    assert_modes_agree(&net, 24, 3);
}

#[test]
fn cnn_gradients_bitwise_identical_across_modes() {
    use lsgd_nn::activation::Relu;
    use lsgd_nn::conv::Conv2d;
    use lsgd_nn::dense::Dense;
    use lsgd_nn::pool::MaxPool2d;
    use lsgd_nn::Layer;
    // Shrunk Table III shape class: conv → relu → pool → conv → relu →
    // dense, with ow < NR so fused panel rows straddle output rows.
    let c1 = Conv2d::new(1, 12, 12, 4, 3); // -> 4x10x10
    let p1 = MaxPool2d::new(4, 10, 10, 2); // -> 4x5x5
    let c2 = Conv2d::new(4, 5, 5, 8, 3); // -> 8x3x3
    let c1o = c1.out_dim();
    let c2o = c2.out_dim();
    let net = Network::new(vec![
        Box::new(c1),
        Box::new(Relu::new(c1o)),
        Box::new(p1),
        Box::new(c2),
        Box::new(Relu::new(c2o)),
        Box::new(Dense::new(c2o, 5)),
    ]);
    assert_modes_agree(&net, 16, 7);
}

#[test]
fn tiny_output_conv_gradients_bitwise_identical_across_modes() {
    use lsgd_nn::conv::Conv2d;
    use lsgd_nn::dense::Dense;
    use lsgd_nn::Layer;
    // out_h*out_w = 2*3 = 6 < 8: the dcols product sits in the small-m
    // regime, where the layer skips the prepacked filters and streams
    // them through the naive kernel.
    let c = Conv2d::new(1, 4, 5, 3, 3);
    let co = c.out_dim();
    let net = Network::new(vec![Box::new(c), Box::new(Dense::new(co, 4))]);
    assert_modes_agree(&net, 9, 13);
}

#[test]
fn paper_cnn_gradients_bitwise_identical_across_modes() {
    // The real Table III CNN (d = 27,354) at a minibatch large enough
    // that both conv layers split their sample loops on 4 threads, in the
    // backward pass too.
    let net = lsgd_nn::cnn_mnist();
    assert_modes_agree(&net, 24, 11);
}

#[test]
fn threaded_forward_matches_serial_lowering() {
    // Forward-only check at a batch large enough to trigger the conv
    // fan-out threshold on the paper CNN.
    let net = lsgd_nn::cnn_mnist();
    let theta = net.init_params(5);
    let (x, _) = rand_batch(32, net.in_dim(), net.n_classes(), 6);

    let mut ws_serial = net.workspace(32);
    ws_serial.set_runtime(Runtime::new(1).into());
    let serial = net.forward(&theta, &x, &mut ws_serial).clone();

    let mut ws_par = net.workspace(32);
    ws_par.set_runtime(Runtime::new(4).into());
    let par = net.forward(&theta, &x, &mut ws_par).clone();
    assert_eq!(
        bits(serial.as_slice()),
        bits(par.as_slice()),
        "threaded fused lowering diverged from the serial sample loop"
    );
}
