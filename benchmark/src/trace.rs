//! In-memory spans recorded by the benchmark around its calls into each
//! layer, plus a sink that harvests the engine's own spans with a
//! timestamp. Everything is kept in memory and written to `trace.json`
//! when the run ends.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tcom_core::SpanSink;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation this span belongs to (`u64::MAX`: none — an engine
    /// background span).
    pub op: u64,
}

/// Handle returned by [`Tracer::begin`]; `NONE` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

const NONE: u32 = u32::MAX;

pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.t0
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NONE);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        SpanId(id)
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans[id.0 as usize].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans must nest");
    }

    /// Appends the engine spans a [`Harvest`] collected as parentless
    /// spans outside any operation.
    pub fn adopt(&mut self, harvest: &Harvest) {
        let t0 = self.t0;
        for (name, end, nanos) in harvest.take() {
            let end_ns = end.saturating_duration_since(t0).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: end_ns.saturating_sub(nanos),
                end_ns,
                parent: None,
                op: u64::MAX,
            });
        }
    }

    /// Per name of the benchmark's own spans: `(count, total self time
    /// ns)`, where a span's self time is its duration minus the part its
    /// children cover. Harvested engine spans are not part of the tree.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            if s.op == u64::MAX {
                continue;
            }
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(kids);
        }
        out
    }

    /// Durations (ns) of the benchmark's own spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op != u64::MAX)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// `(start_ns, end_ns)` of the harvested engine spans named `name`.
    pub fn engine_spans(&self, name: &str) -> Vec<(u64, u64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op == u64::MAX)
            .map(|s| (s.start_ns, s.end_ns))
            .collect()
    }

    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "parent": s.parent.map(u64::from),
                        "op": (s.op != u64::MAX).then_some(s.op)
                    })
                })
                .collect(),
        )
    }
}

/// A [`SpanSink`] that keeps the engine's completed spans with the instant
/// they ended, so background work (`db.checkpoint`, `db.compact`) can be
/// laid over the operations it delayed. `RingRecorder` keeps no time.
#[derive(Default)]
pub struct Harvest(Mutex<Vec<(&'static str, Instant, u64)>>);

impl Harvest {
    pub fn install(db: &tcom_core::Database) -> Arc<Harvest> {
        let h = Arc::new(Harvest::default());
        db.obs().set_span_sink(Some(h.clone()));
        h
    }

    fn take(&self) -> Vec<(&'static str, Instant, u64)> {
        std::mem::take(&mut *self.0.lock().expect("harvest poisoned"))
    }
}

impl SpanSink for Harvest {
    fn record(&self, name: &'static str, nanos: u64) {
        self.0
            .lock()
            .expect("harvest poisoned")
            .push((name, Instant::now(), nanos));
    }
}
