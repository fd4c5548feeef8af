#![warn(missing_docs)]
//! # lsgd-trace — zero-cost-when-disabled observability for Leashed-SGD
//!
//! The paper's central claims are about *dynamics* — CAS retries,
//! publication aborts, staleness — so this crate gives every layer of
//! the stack cheap probes and a collector that turns them into
//! per-phase latency histograms, protocol counter deltas, and a
//! Chrome-trace-event JSON file loadable in Perfetto (`chrome://tracing`
//! works too).
//!
//! ## Cost model
//!
//! * **Feature off** (default): every probe ([`count`], [`span`], …) is
//!   an `#[inline(always)]` empty function on zero-sized types. The
//!   overhead-guard test asserts [`COMPILED`] is `false` and the guard
//!   types are ZSTs; callers pay nothing, not even a branch.
//! * **Feature on, gate off**: one Relaxed load of a process-global
//!   latch per probe ([`enabled`] returns `false` until `LSGD_TRACE=1`,
//!   `LSGD_TRACE_JSON=<path>`, or [`enable`] flips it).
//! * **Gate on**: the hot path touches only the calling thread's own
//!   cache-line-padded cell — counters are single-writer plain
//!   load+store (no RMW, no cross-thread traffic), spans push into a
//!   fixed-capacity per-worker SPSC ring that drops (and counts)
//!   overflow instead of blocking. A [`Collector`] aggregates at
//!   monitor cadence from the other side.
//!
//! The ring and counter cells are built on the `lsgd_check` shims, so
//! the producer→collector handoff is model-checked like every other
//! protocol in the tree (`tests/model_trace.rs`), including a mutation
//! sentinel that weakens the ring's Release publish. Inside model
//! executions [`enabled`] reports `false` so instrumented production
//! code adds no schedule points to unrelated model tests.

pub mod chrome;
pub mod counters;
pub mod ring;

pub use counters::{Counter, CounterCell};
pub use ring::{EventRing, SpanRecord};

use lsgd_metrics::table::Table;
use lsgd_metrics::LogHistogram;

/// Whether the `enabled` cargo feature was compiled in. When `false`,
/// every probe in this crate is a no-op regardless of environment.
pub const COMPILED: bool = cfg!(feature = "enabled");

/// Number of fixed step-loop phases (the reserved label ids `0..PHASES`).
pub const PHASES: usize = 5;

/// The fixed phases of one training step, in pipeline order. Their
/// discriminants double as reserved span-label ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Phase {
    /// Acquiring a (consistent) read view of the parameters.
    SnapshotRead = 0,
    /// Computing the mini-batch gradient.
    GradCompute = 1,
    /// Packing weight panels for the GEMM kernels.
    Pack = 2,
    /// Publishing the update (CAS swing / lock / in-place write).
    Publish = 3,
    /// Monitor-thread loss evaluation.
    MonitorEval = 4,
}

impl Phase {
    /// All phases, in discriminant order.
    pub const ALL: [Phase; PHASES] = [
        Phase::SnapshotRead,
        Phase::GradCompute,
        Phase::Pack,
        Phase::Publish,
        Phase::MonitorEval,
    ];

    /// Stable name used in reports and trace lanes.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SnapshotRead => "snapshot-read",
            Phase::GradCompute => "grad-compute",
            Phase::Pack => "pack",
            Phase::Publish => "publish",
            Phase::MonitorEval => "monitor-eval",
        }
    }
}

/// An interned span label returned by [`label`]. Phases come
/// pre-interned; intern custom labels once, outside hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(pub(crate) u32);

/// Per-phase latency histograms (nanoseconds). Empty (zero allocation)
/// for untraced runs; populated by [`Collector::finish`].
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    hists: Vec<LogHistogram>,
}

impl PhaseStats {
    /// An empty, non-collecting instance (what untraced runs carry).
    pub fn empty() -> Self {
        PhaseStats { hists: Vec::new() }
    }

    /// An instance with one histogram per [`Phase`], ready to record.
    pub fn collecting() -> Self {
        PhaseStats { hists: vec![LogHistogram::new(); PHASES] }
    }

    /// True when no phase data was collected.
    pub fn is_empty(&self) -> bool {
        self.hists.is_empty() || self.hists.iter().all(|h| h.count() == 0)
    }

    /// Records one span duration for `phase` (no-op when empty).
    pub fn record(&mut self, phase: Phase, dur_ns: u64) {
        if let Some(h) = self.hists.get_mut(phase as usize) {
            h.record(dur_ns);
        }
    }

    /// The histogram for `phase`, if collecting.
    pub fn get(&self, phase: Phase) -> Option<&LogHistogram> {
        self.hists.get(phase as usize)
    }

    /// Merges another instance into this one (adopting it wholesale if
    /// this one is empty).
    pub fn merge(&mut self, other: &PhaseStats) {
        if other.hists.is_empty() {
            return;
        }
        if self.hists.is_empty() {
            self.hists = other.hists.clone();
            return;
        }
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// Renders a per-phase count/p50/p95/p99/max table (µs), via
    /// `lsgd_metrics::table`. Empty string when nothing was collected.
    pub fn table(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let mut t = Table::new(vec!["phase", "count", "p50(us)", "p95(us)", "p99(us)", "max(us)"]);
        for p in Phase::ALL {
            let h = &self.hists[p as usize];
            if h.count() == 0 {
                continue;
            }
            let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
            t.row(vec![
                p.name().to_string(),
                h.count().to_string(),
                us(h.quantile(0.50)),
                us(h.quantile(0.95)),
                us(h.quantile(0.99)),
                us(h.max()),
            ]);
        }
        t.render()
    }
}

/// One drained span event, tagged with the worker lane it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Trace slot (lane) of the producing thread.
    pub worker: u32,
    /// Interned label id.
    pub label: u32,
    /// Span start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// Everything one traced run produced: per-phase histograms, per-run
/// counter deltas, raw span events, and the label table.
#[derive(Debug, Clone, Default)]
pub struct TraceDump {
    /// Per-phase latency histograms (empty for untraced runs).
    pub phases: PhaseStats,
    /// `(counter name, per-run delta)` for every [`Counter`], in
    /// declaration order. Empty for untraced runs.
    pub counters: Vec<(&'static str, u64)>,
    /// All span events drained during the run.
    pub events: Vec<SpanEvent>,
    /// Label id → name (phases first, then interned labels).
    pub labels: Vec<String>,
    /// Span events discarded because a worker's ring was full.
    pub dropped: u64,
    /// Number of distinct worker lanes that produced data.
    pub workers: u32,
}

impl TraceDump {
    /// Per-run delta for one counter (0 for untraced runs).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters
            .get(c as usize)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// True when this dump carries no data (untraced run).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.counters.iter().all(|&(_, v)| v == 0)
    }

    /// Per-label duration histograms for *custom* labels (ids beyond the
    /// fixed phases), e.g. the per-layer spans of `profile_step`.
    pub fn label_stats(&self) -> Vec<(String, LogHistogram)> {
        let mut out: Vec<(String, LogHistogram)> = Vec::new();
        for e in &self.events {
            let id = e.label as usize;
            if id < PHASES {
                continue;
            }
            let name = self
                .labels
                .get(id)
                .cloned()
                .unwrap_or_else(|| format!("label-{id}"));
            match out.iter_mut().find(|(n, _)| *n == name) {
                Some((_, h)) => h.record(e.dur_ns),
                None => {
                    let mut h = LogHistogram::new();
                    h.record(e.dur_ns);
                    out.push((name, h));
                }
            }
        }
        out
    }

    /// Renders the full text report: phase table plus nonzero counters.
    pub fn report(&self) -> String {
        let mut s = String::new();
        if self.is_empty() {
            s.push_str("trace: no data (tracing disabled or nothing recorded)\n");
            return s;
        }
        let phases = self.phases.table();
        if !phases.is_empty() {
            s.push_str(&phases);
        }
        let nonzero: Vec<_> = self.counters.iter().filter(|&&(_, v)| v != 0).collect();
        if !nonzero.is_empty() {
            let mut t = Table::new(vec!["counter", "count"]);
            for &&(name, v) in &nonzero {
                t.row(vec![name.to_string(), v.to_string()]);
            }
            s.push_str(&t.render());
        }
        s.push_str(&format!(
            "workers: {}   dropped span events: {}\n",
            self.workers, self.dropped
        ));
        s
    }
}

// ---------------------------------------------------------------------------
// Enabled implementation: gate, registry, epoch clock, label interning.
// These deliberately use **std** atomics/locks, not the lsgd_check shims:
// instrumented production code must not create model-checker schedule
// points when it runs inside unrelated model tests (`enabled()` is
// forced false under `model_active()` for the same reason). Only the
// data-plane structures (ring, counter cells) are built on the shims,
// and those are model-checked directly in tests/model_trace.rs.
// ---------------------------------------------------------------------------

#[cfg(feature = "enabled")]
mod imp {
    use super::counters::CounterCell;
    use super::ring::EventRing;
    use super::Phase;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    /// Maximum number of distinct threads that can hold trace slots.
    /// Later threads fall off the end and record nothing.
    pub(crate) const MAX_WORKERS: usize = 64;
    /// Per-worker span ring capacity (power of two). At monitor-cadence
    /// draining this comfortably covers thousands of steps per second.
    const RING_CAP: usize = 4096;

    /// One thread's probes, padded so neighbouring cells never share a
    /// cache line (the whole point of per-worker cells).
    #[repr(align(128))]
    pub(crate) struct WorkerCell {
        pub(crate) counters: CounterCell,
        pub(crate) ring: EventRing,
    }

    pub(crate) struct Registry {
        pub(crate) cells: Vec<WorkerCell>,
        pub(crate) next: AtomicUsize,
        pub(crate) labels: Mutex<Vec<String>>,
    }

    /// Runtime gate: 0 = undetermined, 1 = off, 2 = on.
    static STATE: AtomicU8 = AtomicU8::new(0);
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    static EPOCH: OnceLock<Instant> = OnceLock::new();

    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }

    pub(crate) fn enabled() -> bool {
        // Never record from inside a model execution: the std atomics
        // here are invisible to the checker, and probes must not perturb
        // the schedules of the protocol under test.
        if lsgd_check::model_active() {
            return false;
        }
        // ORDERING: Relaxed — the gate is a monotone latch consulted for
        // an on/off decision only; it orders nothing else, and a stale
        // read merely delays the first recorded event by one probe.
        match STATE.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => init_state(),
        }
    }

    #[cold]
    fn init_state() -> bool {
        let on = lsgd_check::env::flag("LSGD_TRACE")
            || lsgd_check::env::var("LSGD_TRACE_JSON").is_some();
        // ORDERING: Relaxed — see `enabled`: a latch, racing initializers
        // compute the same value.
        STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
        on
    }

    pub(crate) fn enable() {
        // ORDERING: Relaxed — see `enabled`.
        STATE.store(2, Ordering::Relaxed);
    }

    /// Nanoseconds since the first probe of the process.
    pub(crate) fn now_ns() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    fn registry() -> &'static Registry {
        REGISTRY.get_or_init(|| Registry {
            cells: (0..MAX_WORKERS)
                .map(|_| WorkerCell {
                    counters: CounterCell::new(),
                    ring: EventRing::new(RING_CAP),
                })
                .collect(),
            next: AtomicUsize::new(0),
            labels: Mutex::new(Phase::ALL.iter().map(|p| p.name().to_string()).collect()),
        })
    }

    /// The registry if any probe has fired yet. The collector uses this
    /// (never `registry()`) so merely constructing a [`super::Collector`]
    /// doesn't allocate the cells.
    pub(crate) fn registry_opt() -> Option<&'static Registry> {
        REGISTRY.get()
    }

    /// This thread's cell, assigning a slot on first use. `None` once
    /// [`MAX_WORKERS`] slots are taken or during thread teardown.
    pub(crate) fn my_cell() -> Option<&'static WorkerCell> {
        let slot = SLOT
            .try_with(|s| {
                let v = s.get();
                if v != usize::MAX {
                    return v;
                }
                // ORDERING: Relaxed — unique-ticket allocation; only
                // atomicity of fetch_add matters, not ordering.
                let v = registry().next.fetch_add(1, Ordering::Relaxed);
                s.set(v);
                v
            })
            .ok()?;
        registry().cells.get(slot)
    }

    /// Number of slots handed out so far (clamped to capacity).
    pub(crate) fn worker_count() -> u32 {
        registry_opt()
            // ORDERING: Relaxed — reporting-only read of the ticket
            // counter.
            .map(|r| r.next.load(Ordering::Relaxed).min(MAX_WORKERS) as u32)
            .unwrap_or(0)
    }

    pub(crate) fn intern(name: &str) -> u32 {
        let reg = registry();
        let mut labels = reg.labels.lock().expect("trace label registry poisoned");
        if let Some(i) = labels.iter().position(|l| l == name) {
            return i as u32;
        }
        labels.push(name.to_string());
        (labels.len() - 1) as u32
    }

    pub(crate) fn label_table() -> Vec<String> {
        registry_opt()
            .map(|r| r.labels.lock().expect("trace label registry poisoned").clone())
            .unwrap_or_else(|| Phase::ALL.iter().map(|p| p.name().to_string()).collect())
    }

    /// Collector-side totals across all cells (monotone, process-global).
    pub(crate) fn counter_totals() -> [u64; super::Counter::COUNT] {
        let mut totals = [0u64; super::Counter::COUNT];
        if let Some(reg) = registry_opt() {
            for cell in &reg.cells {
                let snap = cell.counters.snapshot();
                for (t, v) in totals.iter_mut().zip(snap) {
                    *t += v;
                }
            }
        }
        totals
    }

    /// Total span events dropped across all rings (monotone).
    pub(crate) fn dropped_total() -> u64 {
        registry_opt()
            .map(|r| r.cells.iter().map(|c| c.ring.dropped()).sum())
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Public probe API — identical signatures under both cfgs.
// ---------------------------------------------------------------------------

/// True when tracing is both compiled in and turned on at runtime
/// (`LSGD_TRACE=1`, `LSGD_TRACE_JSON=<path>`, or [`enable`]). Always
/// `false` inside model-checker executions.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "enabled")]
    {
        imp::enabled()
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Turns the runtime gate on programmatically (no-op when not compiled).
#[inline(always)]
pub fn enable() {
    #[cfg(feature = "enabled")]
    imp::enable();
}

/// The Chrome-trace output path, if `LSGD_TRACE_JSON` is set (and the
/// feature is compiled in).
pub fn chrome_path() -> Option<String> {
    #[cfg(feature = "enabled")]
    {
        lsgd_check::env::var("LSGD_TRACE_JSON")
    }
    #[cfg(not(feature = "enabled"))]
    {
        None
    }
}

/// Bumps `c` by one on the calling thread's cell.
#[inline(always)]
pub fn count(c: Counter) {
    count_n(c, 1);
}

/// Bumps `c` by `n` on the calling thread's cell.
#[inline(always)]
pub fn count_n(c: Counter, n: u64) {
    #[cfg(feature = "enabled")]
    {
        if imp::enabled() {
            if let Some(cell) = imp::my_cell() {
                cell.counters.add(c, n);
            }
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (c, n);
    }
}

/// Interns a custom span label. Cheap but not free (a mutex) — intern
/// once outside hot loops and reuse the [`Label`].
pub fn label(name: &str) -> Label {
    #[cfg(feature = "enabled")]
    {
        Label(imp::intern(name))
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        Label(0)
    }
}

/// RAII span: records `[construction, drop)` into the calling thread's
/// event ring. A zero-sized no-op when the feature is off.
#[cfg(feature = "enabled")]
#[must_use = "a span measures until dropped; binding it to _ ends it immediately"]
pub struct SpanGuard {
    label: u32,
    start_ns: u64,
    armed: bool,
}

#[cfg(feature = "enabled")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            if let Some(cell) = imp::my_cell() {
                cell.ring.push(SpanRecord {
                    label: self.label,
                    start_ns: self.start_ns,
                    dur_ns: imp::now_ns().saturating_sub(self.start_ns),
                });
            }
        }
    }
}

/// RAII span: records `[construction, drop)` into the calling thread's
/// event ring. A zero-sized no-op when the feature is off.
#[cfg(not(feature = "enabled"))]
#[must_use = "a span measures until dropped; binding it to _ ends it immediately"]
pub struct SpanGuard {
    _priv: (),
}

#[cfg(feature = "enabled")]
#[inline]
fn span_for(label: u32) -> SpanGuard {
    if imp::enabled() {
        SpanGuard { label, start_ns: imp::now_ns(), armed: true }
    } else {
        SpanGuard { label: 0, start_ns: 0, armed: false }
    }
}

#[cfg(not(feature = "enabled"))]
#[inline(always)]
fn span_for(_label: u32) -> SpanGuard {
    SpanGuard { _priv: () }
}

/// Opens a span for a fixed step-loop phase.
#[inline(always)]
pub fn span(phase: Phase) -> SpanGuard {
    span_for(phase as u32)
}

/// Opens a span for a custom interned label (see [`label`]).
#[inline(always)]
pub fn span_labeled(l: Label) -> SpanGuard {
    span_for(l.0)
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// Drains worker rings and computes per-run counter deltas. Create one
/// per run *before* the workers start, call [`Collector::sample`] at
/// monitor cadence (cheap; prevents ring overflow on long runs), and
/// [`Collector::finish`] after the workers join. A ZST no-op when the
/// feature is off.
#[cfg(feature = "enabled")]
pub struct Collector {
    counter_base: [u64; Counter::COUNT],
    dropped_base: u64,
    events: Vec<SpanEvent>,
}

#[cfg(feature = "enabled")]
impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(feature = "enabled")]
impl Collector {
    /// Snapshots current counter totals as the per-run baseline. Does
    /// not allocate the trace registry.
    pub fn new() -> Self {
        Collector {
            counter_base: imp::counter_totals(),
            dropped_base: imp::dropped_total(),
            events: Vec::new(),
        }
    }

    /// Drains every worker ring into the collector's event buffer.
    pub fn sample(&mut self) {
        let Some(reg) = imp::registry_opt() else { return };
        let mut buf = Vec::new();
        for (w, cell) in reg.cells.iter().enumerate() {
            buf.clear();
            cell.ring.drain(&mut buf);
            for r in &buf {
                self.events.push(SpanEvent {
                    worker: w as u32,
                    label: r.label,
                    start_ns: r.start_ns,
                    dur_ns: r.dur_ns,
                });
            }
        }
    }

    /// Final drain + aggregation into a [`TraceDump`].
    pub fn finish(mut self) -> TraceDump {
        self.sample();
        let totals = imp::counter_totals();
        let counters: Vec<_> = Counter::ALL
            .iter()
            .map(|&c| {
                (
                    c.name(),
                    totals[c as usize].saturating_sub(self.counter_base[c as usize]),
                )
            })
            .collect();
        let mut phases = PhaseStats::collecting();
        for e in &self.events {
            if (e.label as usize) < PHASES {
                phases.record(Phase::ALL[e.label as usize], e.dur_ns);
            }
        }
        if phases.is_empty() {
            phases = PhaseStats::empty();
        }
        TraceDump {
            phases,
            counters,
            events: self.events,
            labels: imp::label_table(),
            dropped: imp::dropped_total().saturating_sub(self.dropped_base),
            workers: imp::worker_count(),
        }
    }
}

/// Drains worker rings and computes per-run counter deltas (no-op: the
/// feature is off, so there is nothing to collect).
#[cfg(not(feature = "enabled"))]
#[derive(Default)]
pub struct Collector;

#[cfg(not(feature = "enabled"))]
impl Collector {
    /// No-op constructor.
    #[inline(always)]
    pub fn new() -> Self {
        Collector
    }

    /// No-op sample.
    #[inline(always)]
    pub fn sample(&mut self) {}

    /// Returns an empty [`TraceDump`].
    #[inline(always)]
    pub fn finish(self) -> TraceDump {
        TraceDump::default()
    }
}

#[cfg(all(test, not(lsgd_model)))]
mod tests {
    use super::*;

    #[test]
    fn phase_ids_are_reserved_label_prefix() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
        assert_eq!(Phase::ALL.len(), PHASES);
    }

    #[test]
    fn phase_stats_table_and_merge() {
        let mut a = PhaseStats::collecting();
        for i in 0..100 {
            a.record(Phase::GradCompute, 1_000 + i);
            a.record(Phase::Publish, 50_000);
        }
        let mut b = PhaseStats::collecting();
        b.record(Phase::GradCompute, 2_000);
        a.merge(&b);
        assert_eq!(a.get(Phase::GradCompute).unwrap().count(), 101);
        let t = a.table();
        assert!(t.contains("grad-compute"));
        assert!(t.contains("publish"));
        assert!(!t.contains("pack"), "empty phases are omitted: {t}");

        let mut empty = PhaseStats::empty();
        empty.merge(&a);
        assert_eq!(empty.get(Phase::Publish).unwrap().count(), 100);
        assert!(PhaseStats::empty().table().is_empty());
    }

    #[test]
    fn dump_report_and_label_stats() {
        let dump = TraceDump {
            phases: PhaseStats::empty(),
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name(), if c == Counter::PublishRetry { 7 } else { 0 }))
                .collect(),
            events: vec![
                SpanEvent { worker: 0, label: PHASES as u32, start_ns: 0, dur_ns: 10 },
                SpanEvent { worker: 1, label: PHASES as u32, start_ns: 5, dur_ns: 30 },
            ],
            labels: {
                let mut l: Vec<String> = Phase::ALL.iter().map(|p| p.name().to_string()).collect();
                l.push("layer0.fwd".to_string());
                l
            },
            dropped: 0,
            workers: 2,
        };
        assert_eq!(dump.counter(Counter::PublishRetry), 7);
        assert_eq!(dump.counter(Counter::PublishAbort), 0);
        let stats = dump.label_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].0, "layer0.fwd");
        assert_eq!(stats[0].1.count(), 2);
        let r = dump.report();
        assert!(r.contains("publish.cas_retry"));
        assert!(!r.contains("publish.abort"), "zero counters omitted: {r}");
    }

    #[test]
    fn empty_dump_reports_no_data() {
        let dump = TraceDump::default();
        assert!(dump.is_empty());
        assert!(dump.report().contains("no data"));
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_probes_are_inert() {
        #[allow(clippy::assertions_on_constants)] // the constant IS the claim under test
        {
            assert!(!COMPILED);
        }
        assert!(!enabled());
        count(Counter::Park);
        let g = span(Phase::GradCompute);
        drop(g);
        let l = label("anything");
        let g = span_labeled(l);
        drop(g);
        let mut c = Collector::new();
        c.sample();
        assert!(c.finish().is_empty());
    }
}
