//! Network-level runtime-width invariance for the gradient hot path
//! (prepacked weight panels, fused threaded im2col, pool-parallel dense
//! GEMMs): losses, activations and gradients must be **bitwise
//! identical** whatever the width of the runtime the workspace runs on,
//! and on a warm panel cache, on the paper's own workload shapes —
//! scaled-down MLP and CNN stacks plus the real Table III CNN.
//!
//! The reference is a fresh `Workspace` on an injected `Runtime::new(1)`
//! (every split runs inline on the caller); an injected 4-thread runtime
//! exercises the parallel code paths regardless of the host's core count.
//! What the kernels compute is pinned elsewhere (`conv_ref`, `gradcheck`,
//! the tensor crate's differential suites against `gemm_naive`).

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

/// Runs `loss_grad` twice through one fresh workspace on a `threads`-wide
/// runtime (the second step covers the warm panel cache) and returns
/// `(losses, gradients)`.
fn run_on(
    net: &Network,
    theta: &[f32],
    x: &Matrix,
    y: &[u8],
    threads: usize,
) -> (Vec<f32>, Vec<Vec<f32>>) {
    let mut ws = net.workspace(x.rows());
    ws.set_runtime(Runtime::new(threads).into());
    let mut losses = Vec::new();
    let mut grads = Vec::new();
    let mut theta2 = theta.to_vec();
    for step in 0..2 {
        if step == 1 {
            // A second parameter version through the SAME workspace: the
            // panel cache must notice (epoch bump) even though the buffer
            // pointer is unchanged — the stable-local-copy worker pattern.
            for v in &mut theta2 {
                *v *= 1.25;
            }
        }
        let mut grad = vec![0.0f32; net.param_len()];
        losses.push(net.loss_grad(&theta2, x, y, &mut grad, &mut ws));
        grads.push(grad);
    }
    (losses, grads)
}

/// Both steps on a 4-thread runtime must equal the same steps on
/// `Runtime::new(1)`; the warm step (step 1, second parameter version) is
/// additionally compared against a *cold* workspace given that version
/// first, so a stale panel would show.
fn assert_modes_agree(net: &Network, batch: usize, seed: u64) {
    let theta = net.init_params(seed);
    let (x, y) = rand_batch(batch, net.in_dim(), net.n_classes(), seed + 1);
    let reference = run_on(net, &theta, &x, &y, 1);
    let wide = run_on(net, &theta, &x, &y, 4);
    for step in 0..2 {
        assert_eq!(
            reference.0[step].to_bits(),
            wide.0[step].to_bits(),
            "loss diverged on 4 threads, step {step}"
        );
        assert_eq!(
            bits(&reference.1[step]),
            bits(&wide.1[step]),
            "gradient diverged on 4 threads, step {step}"
        );
    }
    let theta2: Vec<f32> = theta.iter().map(|v| v * 1.25).collect();
    let cold = run_on(net, &theta2, &x, &y, 1);
    assert_eq!(reference.0[1].to_bits(), cold.0[0].to_bits(), "warm-step loss");
    assert_eq!(bits(&reference.1[1]), bits(&cold.1[0]), "warm-step gradient");
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

#[test]
fn panel_cache_packs_once_per_step() {
    let net = lsgd_nn::tiny_mlp(40, 24, 5);
    let theta = net.init_params(1);
    let (x, y) = rand_batch(16, 40, 5, 2);
    let mut ws = net.workspace(16);
    let mut grad = vec![0.0f32; net.param_len()];
    net.loss_grad(&theta, &x, &y, &mut grad, &mut ws);
    let (hits1, misses1) = ws.step_ctx().panels.stats();
    net.loss_grad(&theta, &x, &y, &mut grad, &mut ws);
    let (hits2, misses2) = ws.step_ctx().panels.stats();
    // tiny_mlp: 2 dense layers × 2 cached orientations = 4 packs/step.
    assert_eq!(misses1, 4, "first step packs each operand once");
    assert_eq!(misses2, 8, "second step repacks (new epoch), not more");
    assert_eq!(hits2, hits1, "within-step reuse identical across steps");
}
