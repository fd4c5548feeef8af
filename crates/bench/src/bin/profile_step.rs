//! Per-layer timing decomposition of one NN gradient step — the
//! diagnostic behind the sgd_step benchmark's optimisation work. A thin
//! consumer of `lsgd_trace` labeled spans: every (layer, direction) rep
//! opens a span, and the report is the drained trace's per-label
//! p50/p95/p99 table — the same machinery the trainer's phase stats use,
//! so there is exactly one timing path to trust.
//!
//! ```text
//! cargo run --release -p lsgd_bench --features trace --bin profile_step
//! ```

use lsgd_metrics::table::Table;
use lsgd_nn::{Layer, LayerCache, Network};
use lsgd_tensor::{Matrix, SmallRng64};

fn time_network(name: &str, net: &Network, batch: usize) {
    let theta = net.init_params(1);
    let mut rng = SmallRng64::new(2);
    let x = Matrix::from_fn(batch, net.in_dim(), |_, _| rng.next_f32() - 0.5);
    let y: Vec<u8> = (0..batch)
        .map(|_| rng.next_below(net.n_classes()) as u8)
        .collect();
    let mut ws = net.workspace(batch);
    let mut grad = vec![0.0f32; net.param_len()];
    // Warm up.
    for _ in 0..5 {
        net.loss_grad(&theta, &x, &y, &mut grad, &mut ws);
    }
    let label = lsgd_trace::label(&format!("{name} batch={batch} loss_grad"));
    for _ in 0..50 {
        let _span = lsgd_trace::span_labeled(label);
        net.loss_grad(&theta, &x, &y, &mut grad, &mut ws);
    }
}

/// Times one layer's forward and backward in isolation, one labeled span
/// per rep.
fn time_layer(l: &dyn Layer, batch: usize) {
    let mut rng = SmallRng64::new(3);
    let mut params = vec![0.0f32; l.param_len()];
    for v in &mut params {
        *v = rng.next_f32() - 0.5;
    }
    let x = Matrix::from_fn(batch, l.in_dim(), |_, _| rng.next_f32() - 0.5);
    let dy = Matrix::from_fn(batch, l.out_dim(), |_, _| rng.next_f32() - 0.5);
    let mut yv = Matrix::zeros(batch, l.out_dim());
    let mut dx = Matrix::zeros(batch, l.in_dim());
    let mut dp = vec![0.0f32; l.param_len()];
    let mut cache = LayerCache::default();
    let rt = lsgd_runtime::global();
    for _ in 0..5 {
        l.forward(&params, &x, &mut yv, &mut cache, rt);
        l.backward(&params, &x, &yv, &dy, &mut cache, rt, &mut dp, &mut dx);
    }
    let fwd = lsgd_trace::label(&format!("{} fwd", l.describe()));
    let bwd = lsgd_trace::label(&format!("{} bwd", l.describe()));
    let reps = 100;
    for _ in 0..reps {
        let _span = lsgd_trace::span_labeled(fwd);
        l.forward(&params, &x, &mut yv, &mut cache, rt);
    }
    for _ in 0..reps {
        let _span = lsgd_trace::span_labeled(bwd);
        l.backward(&params, &x, &yv, &dy, &mut cache, rt, &mut dp, &mut dx);
    }
}

fn main() {
    if !lsgd_trace::COMPILED {
        eprintln!(
            "profile_step needs the trace probes compiled in; rerun with\n  \
             cargo run --release -p lsgd_bench --features trace --bin profile_step"
        );
        std::process::exit(2);
    }
    lsgd_trace::enable();
    let batch = 64;
    println!("== per-layer (batch {batch}) ==");
    use lsgd_nn::activation::Relu;
    use lsgd_nn::conv::Conv2d;
    use lsgd_nn::dense::Dense;
    use lsgd_nn::pool::MaxPool2d;
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(1, 28, 28, 4, 3)),
        Box::new(Relu::new(4 * 26 * 26)),
        Box::new(MaxPool2d::new(4, 26, 26, 2)),
        Box::new(Conv2d::new(4, 13, 13, 8, 3)),
        Box::new(MaxPool2d::new(8, 11, 11, 2)),
        Box::new(Dense::new(200, 128)),
        Box::new(Dense::new(128, 10)),
    ];
    let mut collector = lsgd_trace::Collector::new();
    for l in &layers {
        time_layer(l.as_ref(), batch);
        collector.sample(); // keep the ring from wrapping between layers
    }
    time_network("cnn", &lsgd_nn::cnn_mnist(), 64);
    collector.sample();
    time_network("mlp", &lsgd_nn::mlp_mnist(), 128);

    let dump = collector.finish();
    let mut t = Table::new(vec!["site", "reps", "p50 µs", "p95 µs", "p99 µs"]);
    let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
    for (name, h) in dump.label_stats() {
        t.row(vec![
            name,
            h.count().to_string(),
            us(h.quantile(0.50)),
            us(h.quantile(0.95)),
            us(h.quantile(0.99)),
        ]);
    }
    print!("{}", t.render());
    if let Some(path) = lsgd_trace::chrome_path() {
        match lsgd_trace::chrome::append_run(&path, "profile_step", &dump) {
            Ok(_) => println!("chrome trace appended to {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}
