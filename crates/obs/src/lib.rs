//! Engine-wide observability: a lock-free metrics registry plus lightweight
//! tracing spans.
//!
//! Every subsystem (buffer pool, disk manager, WAL, version stores, query
//! executor) either owns [`Counter`] / [`Histogram`] handles registered
//! here, or is polled through a *gauge* — a closure over counters the
//! subsystem already maintains internally. The hot path therefore never
//! takes a lock: counters are relaxed atomics and histograms are fixed
//! arrays of atomic buckets. The registry lock is touched only on
//! registration and on [`Registry::snapshot`].
//!
//! Spans are scope guards that report `(name, elapsed)` to a pluggable
//! [`SpanSink`] when dropped. With no sink installed (the default) a span
//! is a single relaxed atomic load — cheap enough to leave enabled on
//! every commit, checkpoint, and molecule materialization (the measured
//! cost is recorded in DESIGN.md §8).
//!
//! The crate is deliberately dependency-free so it can sit below every
//! other crate in the workspace.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing counter. Cloning shares the underlying cell,
/// so a subsystem can keep a handle while the registry keeps another.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a detached counter (register it with
    /// [`Registry::register_counter`] to include it in snapshots).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`]. Bucket `i` counts values whose
/// bit length is `i` (i.e. `v` in `[2^(i-1), 2^i)`), with bucket 0 for
/// zero and the last bucket absorbing everything wider.
const HISTOGRAM_BUCKETS: usize = 32;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket power-of-two histogram for latencies and sizes.
/// Recording is three relaxed atomic adds; no allocation, no locks.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Creates a detached histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Index of the bucket that `v` falls into.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    fn sample(&self, name: &str, label: &str) -> HistogramSample {
        let mut buckets = Vec::new();
        for (i, b) in self.0.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                // Upper bound (inclusive) of bucket i: values of bit length
                // i, i.e. <= 2^i - 1; the last bucket is unbounded.
                let le = if i >= HISTOGRAM_BUCKETS - 1 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                buckets.push((le, n));
            }
        }
        HistogramSample {
            name: name.to_string(),
            label: label.to_string(),
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Receives completed span timings. Implementations must be cheap and
/// lock-light; they run inline on the instrumented thread.
pub trait SpanSink: Send + Sync {
    /// Called once per completed span.
    fn record(&self, name: &'static str, nanos: u64);
}

/// A completed span as captured by [`RingRecorder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name, e.g. `"txn.commit"`.
    pub name: &'static str,
    /// Elapsed wall time in nanoseconds.
    pub nanos: u64,
}

/// A bounded ring-buffer [`SpanSink`] for tests and benches. Keeps the
/// most recent `capacity` spans; older ones are dropped.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    inner: Mutex<VecDeque<SpanRecord>>,
}

impl RingRecorder {
    /// Creates a recorder holding at most `capacity` spans.
    pub fn new(capacity: usize) -> RingRecorder {
        RingRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Drains and returns the recorded spans, oldest first.
    pub fn take(&self) -> Vec<SpanRecord> {
        self.inner
            .lock()
            .expect("ring poisoned")
            .drain(..)
            .collect()
    }

    /// Number of spans currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("ring poisoned").len()
    }

    /// Whether no spans are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SpanSink for RingRecorder {
    fn record(&self, name: &'static str, nanos: u64) {
        let mut q = self.inner.lock().expect("ring poisoned");
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(SpanRecord { name, nanos });
    }
}

/// A scope guard that reports its lifetime to the registry's span sink on
/// drop. When no sink is installed the guard holds no timestamp and drop
/// is a no-op.
#[must_use = "a span measures the scope it is alive in"]
pub struct Span<'a> {
    registry: &'a Registry,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let nanos = t0.elapsed().as_nanos() as u64;
            if let Some(sink) = self.registry.sink.read().expect("sink poisoned").clone() {
                sink.record(self.name, nanos);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum Instrument {
    Counter(Counter),
    Histogram(Histogram),
    Gauge(Box<dyn Fn() -> u64 + Send + Sync>),
}

struct Entry {
    name: String,
    label: String,
    instrument: Instrument,
}

/// The per-database metrics registry. Instruments are identified by
/// `(name, label)`; registering the same pair more than once is allowed
/// and the values are summed at snapshot time (used for the per-type
/// version stores, which all register under their store kind's label).
#[derive(Default)]
pub struct Registry {
    entries: RwLock<Vec<Entry>>,
    sink: RwLock<Option<Arc<dyn SpanSink>>>,
    spans_on: AtomicBool,
}

impl Registry {
    /// Creates an empty registry with no span sink (spans are no-ops).
    pub fn new() -> Registry {
        Registry::default()
    }

    fn push(&self, name: &str, label: &str, instrument: Instrument) {
        self.entries
            .write()
            .expect("registry poisoned")
            .push(Entry {
                name: name.to_string(),
                label: label.to_string(),
                instrument,
            });
    }

    /// Creates and registers a counter.
    pub fn counter(&self, name: &str, label: &str) -> Counter {
        let c = Counter::new();
        self.register_counter(name, label, &c);
        c
    }

    /// Registers an existing counter handle (the registry shares the cell).
    pub fn register_counter(&self, name: &str, label: &str, counter: &Counter) {
        self.push(name, label, Instrument::Counter(counter.clone()));
    }

    /// Creates and registers a histogram.
    pub fn histogram(&self, name: &str, label: &str) -> Histogram {
        let h = Histogram::new();
        self.register_histogram(name, label, &h);
        h
    }

    /// Registers an existing histogram handle.
    pub fn register_histogram(&self, name: &str, label: &str, histogram: &Histogram) {
        self.push(name, label, Instrument::Histogram(histogram.clone()));
    }

    /// Registers a polled gauge: `f` is called at snapshot time and should
    /// read counters the owning subsystem maintains anyway. This is how
    /// pre-existing atomics (buffer-pool stats, disk I/O counts) are
    /// exported without touching their hot paths.
    pub fn register_gauge(
        &self,
        name: &str,
        label: &str,
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.push(name, label, Instrument::Gauge(Box::new(f)));
    }

    /// Installs (or with `None` removes) the span sink.
    pub fn set_span_sink(&self, sink: Option<Arc<dyn SpanSink>>) {
        self.spans_on.store(sink.is_some(), Ordering::Release);
        *self.sink.write().expect("sink poisoned") = sink;
    }

    /// Opens a span. With no sink installed this is one relaxed load and
    /// the returned guard does nothing on drop.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let start = if self.spans_on.load(Ordering::Relaxed) {
            Some(Instant::now())
        } else {
            None
        };
        Span {
            registry: self,
            name,
            start,
        }
    }

    /// Takes a consistent-enough snapshot of every registered instrument.
    /// Individual counters are read atomically; the set as a whole is not
    /// a transaction (concurrent writers may land between reads), which is
    /// the standard contract for metrics snapshots.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.read().expect("registry poisoned");
        let mut counters: Vec<CounterSample> = Vec::new();
        let mut histograms: Vec<HistogramSample> = Vec::new();
        for e in entries.iter() {
            match &e.instrument {
                Instrument::Counter(c) => {
                    merge_counter(&mut counters, &e.name, &e.label, c.get());
                }
                Instrument::Gauge(f) => {
                    merge_counter(&mut counters, &e.name, &e.label, f());
                }
                Instrument::Histogram(h) => {
                    histograms.push(h.sample(&e.name, &e.label));
                }
            }
        }
        counters.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        histograms.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

fn merge_counter(out: &mut Vec<CounterSample>, name: &str, label: &str, value: u64) {
    if let Some(s) = out.iter_mut().find(|s| s.name == name && s.label == label) {
        s.value += value;
    } else {
        out.push(CounterSample {
            name: name.to_string(),
            label: label.to_string(),
            value,
        });
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// One counter (or gauge) value at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name, e.g. `"pool.misses"`.
    pub name: String,
    /// Label, e.g. a store kind; empty when unlabeled.
    pub label: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One histogram at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Label; empty when unlabeled.
    pub label: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSample {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`0.0 ..= 1.0`) as the inclusive upper bound
    /// of the bucket containing that rank, or 0 when empty. Bucket
    /// resolution: exact for values `< 16`, a power-of-two overestimate
    /// beyond (the same resolution the buckets store).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(le, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return le;
            }
        }
        self.buckets.last().map(|&(le, _)| le).unwrap_or(0)
    }
}

/// A typed snapshot of the whole registry, plus a text exposition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All counters and gauges, sorted by `(name, label)`, duplicates
    /// summed.
    pub counters: Vec<CounterSample>,
    /// All histograms, sorted by `(name, label)`.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Value of `name` summed over all labels (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// Value of `(name, label)` (0 when absent).
    pub fn counter_labeled(&self, name: &str, label: &str) -> u64 {
        self.counters
            .iter()
            .filter(|s| s.name == name && s.label == label)
            .map(|s| s.value)
            .sum()
    }

    /// The histogram registered as `name` (first label wins), if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The histogram registered as `(name, label)`, if any. Per-scenario
    /// instruments (e.g. the soak driver's latency histograms) register
    /// one histogram per label under a shared name and read back through
    /// this accessor.
    pub fn histogram_labeled(&self, name: &str, label: &str) -> Option<&HistogramSample> {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.label == label)
    }

    /// Counter-wise difference `self - earlier` (saturating), dropping
    /// histograms. Used to attribute cost to a bounded piece of work by
    /// snapshotting before and after it.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|s| CounterSample {
                name: s.name.clone(),
                label: s.label.clone(),
                value: s
                    .value
                    .saturating_sub(earlier.counter_labeled(&s.name, &s.label)),
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms: Vec::new(),
        }
    }

    /// Plain-text exposition: one `name{label} value` line per counter,
    /// then per-histogram summaries with their non-empty buckets.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for s in &self.counters {
            if s.label.is_empty() {
                let _ = writeln!(out, "{} {}", s.name, s.value);
            } else {
                let _ = writeln!(out, "{}{{{}}} {}", s.name, s.label, s.value);
            }
        }
        for h in &self.histograms {
            let label = if h.label.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", h.label)
            };
            let _ = writeln!(
                out,
                "{}{} count={} sum={} mean={:.1}",
                h.name,
                label,
                h.count,
                h.sum,
                h.mean()
            );
            for (le, n) in &h.buckets {
                if *le == u64::MAX {
                    let _ = writeln!(out, "  le=+inf {n}");
                } else {
                    let _ = writeln!(out, "  le={le} {n}");
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let r = Registry::new();
        let c = r.counter("x.ops", "");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.snapshot().counter("x.ops"), 5);
    }

    #[test]
    fn duplicate_registrations_sum() {
        let r = Registry::new();
        let a = r.counter("store.walks", "chain");
        let b = r.counter("store.walks", "chain");
        let c = r.counter("store.walks", "delta");
        a.add(2);
        b.add(3);
        c.add(7);
        let snap = r.snapshot();
        assert_eq!(snap.counter_labeled("store.walks", "chain"), 5);
        assert_eq!(snap.counter_labeled("store.walks", "delta"), 7);
        assert_eq!(snap.counter("store.walks"), 12);
        // One merged sample per (name, label).
        assert_eq!(
            snap.counters
                .iter()
                .filter(|s| s.name == "store.walks")
                .count(),
            2
        );
    }

    #[test]
    fn gauges_poll_at_snapshot_time() {
        let r = Registry::new();
        let cell = Arc::new(AtomicU64::new(0));
        let peek = Arc::clone(&cell);
        r.register_gauge("pool.hits", "", move || peek.load(Ordering::Relaxed));
        assert_eq!(r.snapshot().counter("pool.hits"), 0);
        cell.store(42, Ordering::Relaxed);
        assert_eq!(r.snapshot().counter("pool.hits"), 42);
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);

        let r = Registry::new();
        let h = r.histogram("wal.group", "");
        for v in [0u64, 1, 1, 3, 900] {
            h.record(v);
        }
        let snap = r.snapshot();
        let s = snap.histogram("wal.group").expect("histogram");
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 905);
        assert_eq!(s.buckets.iter().map(|(_, n)| n).sum::<u64>(), 5);
        assert!((s.mean() - 181.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_percentile() {
        let r = Registry::new();
        let h = r.histogram("wal.group_size", "");
        // 10 observations: 1 ×6, 4 ×3, 900 ×1.
        for v in [1u64, 1, 1, 1, 1, 1, 4, 4, 4, 900] {
            h.record(v);
        }
        let snap = r.snapshot();
        let s = snap.histogram("wal.group_size").expect("histogram");
        assert_eq!(s.percentile(0.0), 1); // min rank clamps to 1
        assert_eq!(s.percentile(0.5), 1); // rank 5 of 10
        assert_eq!(s.percentile(0.9), 7); // rank 9: bucket [4, 7]
        assert!(s.percentile(1.0) >= 900); // top bucket upper bound
        let empty = HistogramSample {
            name: String::new(),
            label: String::new(),
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        };
        assert_eq!(empty.percentile(0.5), 0);
    }

    /// Direct percentile battery over hand-built samples: empty input,
    /// a single bucket, boundary buckets (zero and the unbounded last
    /// bucket), and exact rank arithmetic at bucket edges.
    #[test]
    fn percentile_battery() {
        let sample = |buckets: Vec<(u64, u64)>| {
            let count = buckets.iter().map(|&(_, n)| n).sum();
            HistogramSample {
                name: String::new(),
                label: String::new(),
                count,
                sum: 0,
                buckets,
            }
        };

        // Empty sample: every percentile is 0, including the clamped edges.
        let empty = sample(vec![]);
        for p in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(empty.percentile(p), 0, "empty at p={p}");
        }

        // Single bucket: every percentile is that bucket's upper bound.
        let single = sample(vec![(7, 5)]);
        for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(single.percentile(p), 7, "single bucket at p={p}");
        }

        // Boundary bucket 0 (the zero bucket, le = 0) must be reachable.
        let zeros = sample(vec![(0, 3), (1, 1)]);
        assert_eq!(zeros.percentile(0.0), 0); // rank clamps to 1
        assert_eq!(zeros.percentile(0.75), 0); // rank 3: last zero
        assert_eq!(zeros.percentile(0.76), 1); // rank 4: first one

        // Exact rank arithmetic at a bucket edge: 4 + 4 observations.
        let edge = sample(vec![(3, 4), (15, 4)]);
        assert_eq!(edge.percentile(0.5), 3); // rank 4 = last of bucket 1
        assert_eq!(edge.percentile(0.500001), 15); // rank 5 = first of bucket 2
        assert_eq!(edge.percentile(1.0), 15);

        // The unbounded last bucket reports u64::MAX.
        let top = sample(vec![(1, 1), (u64::MAX, 1)]);
        assert_eq!(top.percentile(1.0), u64::MAX);

        // Out-of-range p clamps rather than panics.
        assert_eq!(edge.percentile(-3.0), 3);
        assert_eq!(edge.percentile(42.0), 15);

        // Through a live histogram: identical values land in one bucket and
        // every percentile reports that bucket's (inclusive) upper bound.
        let r = Registry::new();
        let h = r.histogram("soak.lat", "oltp");
        for _ in 0..100 {
            h.record(12);
        }
        let snap = r.snapshot();
        let s = snap.histogram_labeled("soak.lat", "oltp").expect("sample");
        assert_eq!(s.count, 100);
        assert_eq!(s.percentile(0.5), 15); // bucket [8, 15]
        assert_eq!(s.percentile(0.99), 15);
        assert!(snap.histogram_labeled("soak.lat", "bom").is_none());
    }

    #[test]
    fn delta_subtracts() {
        let r = Registry::new();
        let c = r.counter("disk.reads", "");
        c.add(10);
        let before = r.snapshot();
        c.add(7);
        let after = r.snapshot();
        assert_eq!(after.delta(&before).counter("disk.reads"), 7);
    }

    #[test]
    fn spans_are_noops_without_sink() {
        let r = Registry::new();
        {
            let _s = r.span("noop");
        }
        let ring = Arc::new(RingRecorder::new(8));
        r.set_span_sink(Some(Arc::clone(&ring) as Arc<dyn SpanSink>));
        {
            let _s = r.span("timed");
        }
        r.set_span_sink(None);
        {
            let _s = r.span("off-again");
        }
        let spans = ring.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "timed");
    }

    #[test]
    fn ring_recorder_bounds() {
        let ring = RingRecorder::new(2);
        ring.record("a", 1);
        ring.record("b", 2);
        ring.record("c", 3);
        let spans = ring.take();
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["b", "c"]
        );
        assert!(ring.is_empty());
    }

    #[test]
    fn render_text_exposition() {
        let r = Registry::new();
        r.counter("a.ops", "").add(3);
        r.counter("b.ops", "chain").add(9);
        r.histogram("c.size", "").record(5);
        let text = r.snapshot().render_text();
        assert!(text.contains("a.ops 3"));
        assert!(text.contains("b.ops{chain} 9"));
        assert!(text.contains("c.size count=1 sum=5"));
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let r = Arc::new(Registry::new());
        let c = r.counter("t.ops", "");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(r.snapshot().counter("t.ops"), 40_000);
    }
}
