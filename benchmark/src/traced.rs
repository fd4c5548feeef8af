//! The traced half: a benchmark-owned step loop (the skeleton of
//! `crates/bench/benches/sgd_step.rs::Shared::step`, which is also what
//! each `trainer.rs` worker loop does between its bookkeeping) with a
//! span around every call into a layer's public functions. Spans inside
//! the program are a later issue; these time it from outside.

use crate::report::{Checks, Metrics};
use crate::spec::{self, Workload, ALGOS};
use crate::stats::{median, tail, Value};
use lsgd_core::baseline::{HogwildParams, LockedParams};
use lsgd_core::mem::MemoryGauge;
use lsgd_core::pool::BufferPool;
use lsgd_core::prelude::*;
use lsgd_core::shard::effective_shards;
use lsgd_core::{LeashedShared, ShardedShared};
use lsgd_tensor::SmallRng64;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Step,
    Read,
    Grad,
    Publish,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Step => "step",
            Kind::Read => "read",
            Kind::Grad => "grad",
            Kind::Publish => "publish",
        }
    }
}

/// A step span's `parent`.
const ROOT: u32 = u32::MAX;

/// One span of one worker. The worker id is the buffer it sits in.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// Index of the step span that caused it, in the same buffer.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A worker's preallocated span buffer; with `ON = false` every call
/// compiles to nothing, which is the outer-timer-only loop.
struct Recorder<const ON: bool> {
    origin: Instant,
    spans: Vec<Span>,
}

impl<const ON: bool> Recorder<ON> {
    fn new(origin: Instant, steps: usize) -> Self {
        Recorder {
            origin,
            spans: Vec::with_capacity(if ON { 4 * steps } else { 0 }),
        }
    }

    #[inline]
    fn begin(&mut self, kind: Kind, parent: u32) -> u32 {
        if !ON {
            return 0;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            kind,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    fn end(&mut self, span: u32) {
        if ON {
            self.spans[span as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }
}

/// One parameter store per lineup entry, built the way `train` builds it.
#[allow(clippy::large_enum_variant)] // one instance per loop
enum Store {
    Locked(LockedParams),
    Hogwild(HogwildParams),
    Leashed(LeashedShared),
    Sharded(ShardedShared),
}

impl Store {
    fn build(tag: &str, theta0: &[f32]) -> Store {
        let gauge = Arc::new(MemoryGauge::new());
        match tag {
            "seq" | "async" => Store::Locked(LockedParams::new(theta0.to_vec(), gauge)),
            "hog" => Store::Hogwild(HogwildParams::new(theta0, gauge)),
            "lsh" => Store::Leashed(LeashedShared::new(
                theta0,
                BufferPool::new_with_recycling(theta0.len(), gauge, true),
            )),
            "shard" => Store::Sharded(ShardedShared::new(
                theta0,
                effective_shards(0, theta0.len(), spec::THREADS),
                gauge,
                true,
            )),
            other => unreachable!("unknown algorithm tag {other}"),
        }
    }

    fn snapshot_into(&self, dst: &mut [f32]) {
        match self {
            Store::Locked(p) => {
                p.read_into(dst);
            }
            Store::Hogwild(p) => {
                p.read_into(dst);
            }
            Store::Leashed(s) => {
                s.snapshot_into(dst);
            }
            Store::Sharded(s) => {
                s.snapshot_into(dst);
            }
        }
    }
}

/// What one worker owns across its steps.
struct Worker<P: Problem> {
    local: Vec<f32>,
    grad: Vec<f32>,
    pairs: Vec<(u32, f32)>,
    scratch: P::Scratch,
    rng: SmallRng64,
    snapshot_retries: u64,
}

impl<P: Problem> Worker<P> {
    fn new(problem: &P, seed: u64, id: usize) -> Self {
        let dim = problem.dim();
        Worker {
            local: vec![0.0; dim],
            grad: vec![0.0; dim],
            pairs: Vec::new(),
            scratch: problem.scratch(),
            // `trainer.rs::run_worker`'s stream, so the seq loop can be
            // checked against a reference on the same stream.
            rng: worker_rng(seed, id),
            snapshot_retries: 0,
        }
    }
}

fn worker_rng(seed: u64, id: usize) -> SmallRng64 {
    SmallRng64::new(seed ^ 0x5bd1e995u64.wrapping_mul(id as u64 + 1))
}

/// The trainer's bound on the sharded snapshot's validate loop.
const SNAPSHOT_RETRIES: u32 = 32;

/// The step of the two stores that are read by copying and written in
/// place (`LockedParams`, `HogwildParams`).
fn copy_step<P: Problem, const ON: bool>(
    problem: &P,
    w: &mut Worker<P>,
    rec: &mut Recorder<ON>,
    step: u32,
    read_into: impl FnOnce(&mut [f32]),
    update: impl FnOnce(&[f32]),
) {
    let s = rec.begin(Kind::Read, step);
    read_into(&mut w.local);
    rec.end(s);
    let s = rec.begin(Kind::Grad, step);
    problem.grad(&w.local, &mut w.grad, &mut w.scratch, &mut w.rng);
    rec.end(s);
    let s = rec.begin(Kind::Publish, step);
    update(&w.grad);
    rec.end(s);
}

/// read θ → gradient → publish, each wrapped in a span under the step's.
fn step<P: Problem, const ON: bool>(
    store: &Store,
    problem: &P,
    eta: f32,
    w: &mut Worker<P>,
    rec: &mut Recorder<ON>,
) {
    let step = rec.begin(Kind::Step, ROOT);
    match store {
        Store::Locked(p) => copy_step(
            problem,
            w,
            rec,
            step,
            |dst| {
                p.read_into(dst);
            },
            |grad| {
                p.update(grad, eta);
            },
        ),
        Store::Hogwild(p) => copy_step(
            problem,
            w,
            rec,
            step,
            |dst| {
                p.read_into(dst);
            },
            |grad| {
                p.update(grad, eta);
            },
        ),
        Store::Leashed(shared) => {
            let s = rec.begin(Kind::Read, step);
            let guard = shared.latest();
            rec.end(s);
            let s = rec.begin(Kind::Grad, step);
            // Zero-copy read (paper P3): straight from the published buffer.
            problem.grad(guard.theta(), &mut w.grad, &mut w.scratch, &mut w.rng);
            rec.end(s);
            drop(guard);
            let s = rec.begin(Kind::Publish, step);
            shared.publish_update(&w.grad, eta, None, |_| {});
            rec.end(s);
        }
        Store::Sharded(shared) => {
            let s = rec.begin(Kind::Read, step);
            {
                let snap = shared.snapshot(SnapshotMode::Fast, SNAPSHOT_RETRIES);
                w.snapshot_retries += u64::from(snap.retries());
                snap.gather_into(&mut w.local);
            }
            rec.end(s);
            let s = rec.begin(Kind::Grad, step);
            let sparse = problem
                .grad_sparse(&w.local, &mut w.pairs, &mut w.scratch, &mut w.rng)
                .is_some();
            if !sparse {
                problem.grad(&w.local, &mut w.grad, &mut w.scratch, &mut w.rng);
            }
            rec.end(s);
            let s = rec.begin(Kind::Publish, step);
            if sparse {
                shared.publish_sparse(&w.pairs, eta, spec::SHARD_PERSISTENCE, None, |_| {});
            } else {
                shared.publish_dense(&w.grad, eta, spec::SHARD_PERSISTENCE, None, |_| {});
            }
            rec.end(s);
        }
    }
    rec.end(step);
}

/// One loop's raw outcome.
struct LoopRun {
    /// Σ over workers of the outer timer around their loop, in seconds.
    busy_s: f64,
    total_steps: usize,
    /// One buffer per worker (empty with `ON = false`).
    spans: Vec<Vec<Span>>,
    snapshot_retries: u64,
    /// θ after the last step.
    theta: Vec<f32>,
}

impl LoopRun {
    fn mean_step_us(&self) -> f64 {
        self.busy_s * 1e6 / self.total_steps as f64
    }
}

/// Runs `steps` steps on each of the tag's workers, as tasks of the global
/// runtime's scope (how `train` runs its workers), from a fresh store.
fn run_loop<P: Problem, const ON: bool>(
    problem: &P,
    tag: &str,
    theta0: &[f32],
    eta: f32,
    seed: u64,
    steps: usize,
) -> LoopRun {
    let store = Store::build(tag, theta0);
    let m = spec::workers(tag);
    let origin = Instant::now();
    let mut slots: Vec<(Worker<P>, Recorder<ON>, f64)> = (0..m)
        .map(|id| {
            (
                Worker::new(problem, seed, id),
                Recorder::new(origin, steps),
                0.0,
            )
        })
        .collect();
    lsgd_runtime::global().scope(|scope| {
        for slot in slots.iter_mut() {
            let store = &store;
            scope.spawn(move || {
                let (worker, rec, busy_s) = slot;
                let start = Instant::now();
                for _ in 0..steps {
                    step(store, problem, eta, worker, rec);
                }
                *busy_s = start.elapsed().as_secs_f64();
            });
        }
    });
    let mut theta = vec![0.0; theta0.len()];
    store.snapshot_into(&mut theta);
    LoopRun {
        busy_s: slots.iter().map(|s| s.2).sum(),
        total_steps: m * steps,
        snapshot_retries: slots.iter().map(|s| s.0.snapshot_retries).sum(),
        spans: slots.into_iter().map(|s| s.1.spans).collect(),
        theta,
    }
}

/// Plain single-threaded SGD over `Problem::grad` + `sgd_step` on worker
/// 0's stream: what the seq loop must end bit-identical to.
fn reference_sgd<P: Problem>(
    problem: &P,
    theta0: &[f32],
    eta: f32,
    seed: u64,
    steps: usize,
) -> Vec<f32> {
    let mut theta = theta0.to_vec();
    let mut grad = vec![0.0; theta.len()];
    let mut scratch = problem.scratch();
    let mut rng = worker_rng(seed, 0);
    for _ in 0..steps {
        problem.grad(&theta, &mut grad, &mut scratch, &mut rng);
        lsgd_tensor::ops::sgd_step(&mut theta, &grad, eta);
    }
    theta
}

/// Per-step durations of one loop, by span kind, in microseconds.
#[derive(Debug, Default, PartialEq)]
pub struct StepTimes {
    pub step: Vec<f64>,
    pub read: Vec<f64>,
    pub grad: Vec<f64>,
    pub publish: Vec<f64>,
    /// Step self time: its duration minus what its child spans cover.
    pub unattributed: Vec<f64>,
}

/// Folds the span buffers into per-step durations through the parent
/// links: a child adds to its kind's list and takes its duration off the
/// parent step's self time.
pub fn step_times(buffers: &[Vec<Span>]) -> StepTimes {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut out = StepTimes::default();
    // Step self times, kept in whole nanoseconds until every child is off.
    let mut self_ns = Vec::new();
    for spans in buffers {
        // Index in `self_ns` of each step span of this buffer.
        let mut slot = vec![usize::MAX; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            let ns = s.end_ns - s.start_ns;
            match s.kind {
                Kind::Step => {
                    slot[i] = self_ns.len();
                    self_ns.push(ns);
                    out.step.push(us(ns));
                    continue;
                }
                Kind::Read => out.read.push(us(ns)),
                Kind::Grad => out.grad.push(us(ns)),
                Kind::Publish => out.publish.push(us(ns)),
            }
            self_ns[slot[s.parent as usize]] -= ns;
        }
    }
    out.unattributed = self_ns.into_iter().map(us).collect();
    out
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Every algorithm's span buffers, one per worker, in lineup order.
pub type LineupSpans = Vec<Vec<Vec<Span>>>;

/// The spans as a Chrome-trace document (a JSON array of events).
pub fn chrome_trace(spans: &LineupSpans) -> String {
    let mut events = Vec::new();
    for (a, (tag, buffers)) in ALGOS.iter().zip(spans).enumerate() {
        chrome_events(&mut events, a + 1, tag, buffers);
    }
    format!("[\n{}\n]\n", events.join(",\n"))
}

/// Chrome-trace events of one algorithm's loop: one `pid` per algorithm,
/// one `tid` lane per worker, at most [`SPAN_FILE_STEPS`] steps per lane so
/// a sparse run's 400k spans stay loadable.
fn chrome_events(out: &mut Vec<String>, pid: usize, tag: &str, buffers: &[Vec<Span>]) {
    out.push(format!(
        r#"{{"ph":"M","pid":{pid},"tid":0,"name":"process_name","args":{{"name":"{tag}"}}}}"#
    ));
    for (tid, spans) in buffers.iter().enumerate() {
        out.push(format!(
            r#"{{"ph":"M","pid":{pid},"tid":{tid},"name":"thread_name","args":{{"name":"worker-{tid}"}}}}"#
        ));
        for (i, s) in spans.iter().take(4 * SPAN_FILE_STEPS).enumerate() {
            let mut ev = format!(
                r#"{{"ph":"X","pid":{pid},"tid":{tid},"name":"{}","ts":{:.3},"dur":{:.3},"args":{{"id":{i}"#,
                s.kind.name(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns).max(1) as f64 / 1e3,
            );
            if s.parent != ROOT {
                let _ = write!(ev, r#","parent":{}"#, s.parent);
            }
            ev.push_str("}}");
            out.push(ev);
        }
    }
}

/// Steps per lane written to the span file.
const SPAN_FILE_STEPS: usize = 5_000;

/// Section B of the per-layer metrics. For every lineup entry: the loop
/// with only the outer timer, then the loop with spans, each from a fresh
/// store at θ₀. `m` already holds section A, whose untraced
/// `trainer.iter_mean_us.<a>` the scaffold metric is taken against.
/// Returns the spans.
pub fn run<P: Problem>(
    problem: &P,
    wl: &Workload,
    steps: usize,
    seed: u64,
    m: &mut Metrics,
    checks: &mut Checks,
) -> LineupSpans {
    let theta0 = problem.init_theta(seed);
    let mut all_spans = Vec::with_capacity(ALGOS.len());
    for tag in &ALGOS {
        let plain = run_loop::<P, false>(problem, tag, &theta0, wl.eta, seed, steps);
        let spanned = run_loop::<P, true>(problem, tag, &theta0, wl.eta, seed, steps);
        let t = step_times(&spanned.spans);
        let n = t.step.len();

        let mut failures = Vec::new();
        if n != spanned.total_steps
            || t.read.len() != n
            || t.grad.len() != n
            || t.publish.len() != n
        {
            failures.push(format!("{n} step spans for {} steps", spanned.total_steps));
        }
        if !spanned
            .theta
            .iter()
            .chain(&plain.theta)
            .all(|v| v.is_finite())
        {
            failures.push("non-finite theta".to_string());
        }
        if *tag == "seq" && spanned.theta != reference_sgd(problem, &theta0, wl.eta, seed, steps) {
            failures.push(
                "the seq loop is not bit-identical to plain SGD on the same stream".to_string(),
            );
        }
        checks.attempt(&format!("traced {tag}"), failures);

        let sum_step: f64 = t.step.iter().sum();
        let share = |xs: &[f64]| Value::mean_of(xs.iter().sum::<f64>() / sum_step, n);
        m.insert(format!("step.p50_us.{tag}"), median(&t.step));
        m.insert(format!("step.tail_us.{tag}"), tail(&t.step));
        m.insert(
            format!("step.unattributed_us.{tag}"),
            Value::mean_of(mean(&t.unattributed), n),
        );
        m.insert(format!("read.p50_us.{tag}"), median(&t.read));
        m.insert(format!("read.busy_share.{tag}"), share(&t.read));
        m.insert(format!("grad.p50_us.{tag}"), median(&t.grad));
        m.insert(format!("publish.p50_us.{tag}"), median(&t.publish));
        m.insert(format!("publish.tail_us.{tag}"), tail(&t.publish));
        m.insert(format!("publish.busy_share.{tag}"), share(&t.publish));
        m.insert(
            format!("trace.overhead_share.{tag}"),
            Value::mean_of(spanned.mean_step_us() / plain.mean_step_us() - 1.0, n),
        );
        if let Some(iter_us) = m
            .get(&format!("trainer.iter_mean_us.{tag}"))
            .map(|v| v.value)
        {
            // What `train`'s heartbeat, stats and stop poll cost per step,
            // seen from outside: its iteration minus the bare loop's.
            m.insert(
                format!("trainer.scaffold_us.{tag}"),
                Value::mean_of(iter_us - plain.mean_step_us(), plain.total_steps),
            );
        }
        if *tag == "shard" {
            m.insert(
                "shard.snapshot_retries_per_read".into(),
                Value::mean_of(spanned.snapshot_retries as f64 / n as f64, n),
            );
        }

        let grad_share = share(&t.grad).value;
        match wl.name {
            "cnn" => checks.separates(
                grad_share >= 0.9,
                format!("grad busy share of {tag} on cnn >= 0.9 ({grad_share:.3})"),
            ),
            "sparse" => checks.separates(
                grad_share <= 0.6,
                format!("grad busy share of {tag} on sparse <= 0.6 ({grad_share:.3})"),
            ),
            "sparse_wide" if *tag == "shard" => {
                let read = share(&t.read).value;
                checks.separates(
                    read >= 0.5,
                    format!("read.busy_share.shard on sparse_wide >= 0.5 ({read:.3})"),
                );
            }
            _ => {}
        }
        all_spans.push(spanned.spans);
    }
    if let Some(dirty) = m.get("shard.dirty_mean").map(|v| v.value) {
        let shards = effective_shards(0, problem.dim(), spec::THREADS) as f64;
        match wl.name {
            "mlp" => checks.separates(
                dirty == shards,
                format!("shard.dirty_mean on mlp equals the shard count {shards} ({dirty:.2})"),
            ),
            "sparse" => checks.separates(
                dirty < shards / 4.0,
                format!(
                    "shard.dirty_mean on sparse below a quarter of {shards} shards ({dirty:.2})"
                ),
            ),
            _ => {}
        }
    }
    all_spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn children_and_self_time_add_up_to_the_step_per_step() {
        // Two workers; worker 0 has two steps, with gaps between children.
        let w0 = vec![
            span(Kind::Step, ROOT, 0, 10_000),
            span(Kind::Read, 0, 500, 1_500),
            span(Kind::Grad, 0, 2_000, 7_000),
            span(Kind::Publish, 0, 7_500, 9_500),
            span(Kind::Step, ROOT, 10_000, 14_000),
            span(Kind::Read, 4, 10_000, 11_000),
            span(Kind::Grad, 4, 11_000, 12_000),
            span(Kind::Publish, 4, 12_000, 14_000),
        ];
        let w1 = vec![
            span(Kind::Step, ROOT, 100, 3_100),
            span(Kind::Read, 0, 200, 300),
            span(Kind::Grad, 0, 400, 2_400),
            span(Kind::Publish, 0, 2_500, 3_000),
        ];
        let t = step_times(&[w0, w1]);
        assert_eq!(t.step, [10.0, 4.0, 3.0]);
        assert_eq!(t.unattributed, [2.0, 0.0, 0.4]);
        for i in 0..t.step.len() {
            let sum = t.read[i] + t.grad[i] + t.publish[i] + t.unattributed[i];
            assert!(
                (sum - t.step[i]).abs() < 1e-9,
                "step {i}: {sum} vs {}",
                t.step[i]
            );
        }
    }

    #[test]
    fn recorder_links_children_to_their_step_and_off_records_nothing() {
        let mut on = Recorder::<true>::new(Instant::now(), 2);
        let step = on.begin(Kind::Step, ROOT);
        let read = on.begin(Kind::Read, step);
        on.end(read);
        on.end(step);
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[1].parent, step);
        assert!(on.spans[0].end_ns >= on.spans[1].end_ns);
        let mut off = Recorder::<false>::new(Instant::now(), 2);
        let s = off.begin(Kind::Step, ROOT);
        off.end(s);
        assert!(off.spans.is_empty() && off.spans.capacity() == 0);
    }

    #[test]
    fn span_file_is_a_valid_chrome_trace() {
        let spans = vec![
            span(Kind::Step, ROOT, 0, 900),
            span(Kind::Read, 0, 10, 10), // zero-length: still a positive dur
            span(Kind::Grad, 0, 20, 500),
            span(Kind::Publish, 0, 510, 890),
        ];
        let doc = chrome_trace(&vec![vec![spans.clone(), spans]]);
        let summary = lsgd_trace::chrome::validate_str(&doc).expect("valid trace");
        assert_eq!(summary.span_lanes.len(), 2);
        assert_eq!(summary.min_spans_per_lane(), 4);
    }
}
