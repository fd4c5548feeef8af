//! Edge-case and shape-robustness tests for the network substrate.

use lsgd_nn::activation::Relu;
use lsgd_nn::conv::Conv2d;
use lsgd_nn::dense::Dense;
use lsgd_nn::layer::Layer;
use lsgd_nn::network::Network;
use lsgd_nn::pool::MaxPool2d;
use lsgd_tensor::{Matrix, SmallRng64};

fn rand_batch(n: usize, dim: usize, classes: usize, seed: u64) -> (Matrix, Vec<u8>) {
    let mut rng = SmallRng64::new(seed);
    let x = Matrix::from_fn(n, dim, |_, _| rng.next_f32() - 0.5);
    let y = (0..n).map(|_| rng.next_below(classes) as u8).collect();
    (x, y)
}

#[test]
fn batch_of_one_works_everywhere() {
    let net = lsgd_nn::cnn_mnist();
    let theta = net.init_params(1);
    let mut ws = net.workspace(1);
    let (x, y) = rand_batch(1, 784, 10, 2);
    let mut grad = vec![0.0f32; net.param_len()];
    let loss = net.loss_grad(&theta, &x, &y, &mut grad, &mut ws);
    assert!(loss.is_finite());
    assert!(grad.iter().any(|&g| g != 0.0));
}

#[test]
fn single_layer_network() {
    let net = Network::new(vec![Box::new(Dense::new(4, 3))]);
    let theta = net.init_params(0);
    let mut ws = net.workspace(2);
    let (x, y) = rand_batch(2, 4, 3, 3);
    let mut grad = vec![0.0f32; net.param_len()];
    let loss = net.loss_grad(&theta, &x, &y, &mut grad, &mut ws);
    assert!(loss.is_finite());
}

#[test]
fn conv_only_network_gradcheck() {
    // Conv straight into the softmax loss (no dense head).
    let c = Conv2d::new(1, 5, 5, 3, 3); // -> 3x3x3 = 27 outputs
    let c_out = c.out_dim();
    let net = Network::new(vec![
        Box::new(c),
        Box::new(Dense::new(c_out, 3)),
    ]);
    let mut theta = net.init_params(4);
    theta.iter_mut().for_each(|v| *v *= 40.0);
    let (x, y) = rand_batch(3, 25, 3, 5);
    lsgd_nn::gradcheck::check_network_gradient(&net, &theta, &x, &y, 100, 1e-2)
        .assert_ok(3e-2, 0.2);
}

#[test]
fn pool_window_three() {
    let p = MaxPool2d::new(1, 9, 9, 3);
    assert_eq!((p.out_h(), p.out_w()), (3, 3));
    let x = Matrix::from_fn(1, 81, |_, c| (c % 81) as f32);
    let mut y = Matrix::zeros(1, 9);
    let mut cache = lsgd_nn::LayerCache::default();
    p.forward(&[], &x, &mut y, &mut cache, lsgd_runtime::global());
    // Window max of row-major ramp = bottom-right corner of each window.
    assert_eq!(y.get(0, 0), (2 * 9 + 2) as f32);
    assert_eq!(y.get(0, 8), (8 * 9 + 8) as f32);
}

#[test]
fn non_square_conv_input() {
    let c = Conv2d::new(2, 7, 4, 3, 2); // 7x4 input, 2x2 kernel -> 6x3
    assert_eq!(c.out_h(), 6);
    assert_eq!(c.out_w(), 3);
    assert_eq!(c.out_dim(), 3 * 18);
    let net = Network::new(vec![
        Box::new(c),
        Box::new(Dense::new(54, 2)),
    ]);
    let mut theta = net.init_params(6);
    theta.iter_mut().for_each(|v| *v *= 40.0);
    let (x, y) = rand_batch(2, 56, 2, 7);
    lsgd_nn::gradcheck::check_network_gradient(&net, &theta, &x, &y, 80, 1e-2)
        .assert_ok(3e-2, 0.2);
}

#[test]
fn zero_input_produces_uniform_logits() {
    let net = lsgd_nn::mlp_mnist();
    let theta = net.init_params(0);
    let mut ws = net.workspace(4);
    let x = Matrix::zeros(4, 784);
    let logits = net.forward(&theta, &x, &mut ws);
    // Zero input through biased-only dense layers: all rows identical.
    for r in 1..4 {
        assert_eq!(logits.row(0), logits.row(r));
    }
}

#[test]
#[should_panic]
fn wrong_theta_length_panics() {
    let net = lsgd_nn::tiny_mlp(4, 8, 3);
    let mut ws = net.workspace(1);
    let x = Matrix::zeros(1, 4);
    net.forward(&[0.0; 7], &x, &mut ws);
}

#[test]
#[should_panic]
fn wrong_input_width_panics() {
    let net = lsgd_nn::tiny_mlp(4, 8, 3);
    let theta = net.init_params(0);
    let mut ws = net.workspace(1);
    let x = Matrix::zeros(1, 5);
    net.forward(&theta, &x, &mut ws);
}

#[test]
#[should_panic]
fn batch_exceeding_workspace_panics() {
    let net = lsgd_nn::tiny_mlp(4, 8, 3);
    let theta = net.init_params(0);
    let mut ws = net.workspace(2);
    let x = Matrix::zeros(3, 4);
    net.forward(&theta, &x, &mut ws);
}

#[test]
fn relu_layer_between_pools_is_idempotent_on_nonnegatives() {
    // ReLU after max-pool of ReLU'd values must be the identity — the
    // reason Table III's "Pool ReLU" rows collapse (see architectures.rs).
    let relu = Relu::new(4);
    let x = Matrix::from_vec(1, 4, vec![0.0, 1.0, 2.0, 3.0]);
    let mut y = Matrix::zeros(1, 4);
    relu.forward(&[], &x, &mut y, &mut lsgd_nn::LayerCache::default(), lsgd_runtime::global());
    assert_eq!(x.as_slice(), y.as_slice());
}

#[test]
fn gradients_flow_through_entire_cnn() {
    // Every layer's parameter slice must receive a non-zero gradient for
    // a generic batch (no dead layers / disconnected backprop).
    let net = lsgd_nn::cnn_mnist();
    let mut theta = net.init_params(8);
    theta.iter_mut().for_each(|v| *v *= 20.0);
    let mut ws = net.workspace(4);
    let mut rng = SmallRng64::new(9);
    let x = Matrix::from_fn(4, 784, |_, _| rng.next_f32());
    let y = [0u8, 1, 2, 3];
    let mut grad = vec![0.0f32; net.param_len()];
    net.loss_grad(&theta, &x, &y, &mut grad, &mut ws);
    for i in 0..net.n_layers() {
        let slice = net.layer_params(i, &grad);
        if !slice.is_empty() {
            assert!(
                slice.iter().any(|&g| g != 0.0),
                "layer {i} received an all-zero gradient"
            );
        }
    }
}

#[test]
fn workspace_activation_accessor_matches_forward() {
    let net = lsgd_nn::tiny_mlp(4, 6, 2);
    let theta = net.init_params(1);
    let mut ws = net.workspace(2);
    let x = Matrix::from_fn(2, 4, |r, c| (r + c) as f32 * 0.1);
    let logits = net.forward(&theta, &x, &mut ws).clone();
    assert_eq!(ws.activation(0).as_slice(), x.as_slice());
    assert_eq!(
        ws.activation(net.n_layers()).as_slice(),
        logits.as_slice()
    );
}
