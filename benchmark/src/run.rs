//! The closed loop every workload runs in, and the end-to-end summary of
//! what it measured.
//!
//! One client issues one operation at a time and waits for the reply, so
//! the only load parameter is the operation sequence. Latency is the time
//! the caller waited inside the call; generating the operation and checking
//! its answer happen between calls and are the benchmark's own time.

use crate::trace::Tracer;
use crate::util::{percentile, quartiles, Res};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What one invocation was asked to do.
#[derive(Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory all data directories are created under.
    pub dir: PathBuf,
    /// Sub-second windows and a single set-up: the `cargo test` smoke.
    pub smoke: bool,
}

impl Config {
    /// How many times set-up is repeated (the median is reported). The
    /// traced run reports no set-up time, so it sets up once.
    pub fn setups(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            3
        }
    }

    /// A data size: `full` normally, `smoke` under `--smoke` (where the
    /// sizing guards are skipped — a debug-build test cannot afford them).
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Untimed operations issued before the window opens, so caches fill
    /// and lazy planner statistics are computed.
    pub fn warmup_ops(&self, per_second: u64) -> u64 {
        whole_cycles(self.seconds * per_second as f64 / 10.0)
    }

    /// The fixed operation count of a traced run: a function of `--seconds`
    /// only, so counts repeat exactly from run to run.
    pub fn traced_ops(&self, per_second: u64) -> u64 {
        whole_cycles(self.seconds * per_second as f64)
    }
}

/// `ops` rounded up to whole schedule cycles of every workload (cold-history
/// issues each drawn operation to three stores), so the next pass starts on
/// a cycle boundary.
fn whole_cycles(ops: f64) -> u64 {
    let cycle = 3 * crate::rng::SCHEDULE_CYCLE as u64;
    (ops as u64).div_ceil(cycle).max(1) * cycle
}

/// Sets the workload's data up `cfg.setups()` times, discarding every result
/// but the last through `discard`, and returns the last with the seconds
/// each set-up took.
pub fn repeat_setup<T>(
    cfg: &Config,
    mut setup: impl FnMut(usize) -> Res<T>,
    mut discard: impl FnMut(T),
) -> Res<(T, Vec<f64>)> {
    let mut seconds = Vec::new();
    let mut last = None;
    for round in 0..cfg.setups() {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let t0 = Instant::now();
        last = Some(setup(round)?);
        seconds.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), seconds))
}

/// The result of one operation.
pub struct Step {
    /// Index into the workload's class names.
    pub class: u8,
    /// Time the caller waited, in nanoseconds.
    pub ns: u64,
    /// Whether the answer passed the workload's check.
    pub ok: bool,
}

pub enum Limit {
    Seconds(f64),
    Ops(u64),
}

/// The samples of one measured window, in issue order.
pub struct Window {
    pub samples: Vec<(u8, u64)>,
    pub failed: u64,
    pub wall: Duration,
    /// Offset of each sample's end from the tracer origin (traced runs
    /// only; used to lay engine background spans over operations).
    pub ends_ns: Vec<u64>,
}

/// Issues `step(i, tracer)` until the limit is reached.
pub fn drive(
    limit: Limit,
    tracer: &mut Tracer,
    mut step: impl FnMut(u64, &mut Tracer) -> Res<Step>,
) -> Res<Window> {
    let mut w = Window {
        samples: Vec::new(),
        failed: 0,
        wall: Duration::ZERO,
        ends_ns: Vec::new(),
    };
    let t0 = Instant::now();
    let mut i = 0u64;
    loop {
        match limit {
            Limit::Ops(n) if i >= n => break,
            Limit::Seconds(s) if t0.elapsed().as_secs_f64() >= s => break,
            _ => {}
        }
        tracer.set_op(i);
        let s = step(i, tracer)?;
        if tracer.on() {
            w.ends_ns.push(tracer.origin().elapsed().as_nanos() as u64);
        }
        w.failed += u64::from(!s.ok);
        w.samples.push((s.class, s.ns));
        i += 1;
    }
    w.wall = t0.elapsed();
    Ok(w)
}

/// End-to-end figures of a window.
pub struct Summary {
    pub n: u64,
    /// Slices the window was cut into (see [`summarize`]).
    pub slices: usize,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    /// Whole-window figures, printed but not end-to-end metrics.
    pub p99_us: f64,
    pub mean_us: f64,
    /// Share of the wall time spent outside operations (generating and
    /// checking).
    pub client_share: f64,
    /// `(class, count, median µs)`.
    pub classes: Vec<(String, u64, f64)>,
}

/// Each slice must leave at least ten samples beyond its p95.
const MIN_SLICE: usize = 200;
const MAX_SLICES: usize = 20;

/// Cuts the window into up to twenty consecutive slices of equal operation
/// count, takes throughput, p50 and p95 inside each, and reports the
/// quartile of the slices on the fast side (third for throughput, first
/// for latency). The sandbox this runs in slows down by a third or more for
/// about ten seconds every minute or so; interference only ever makes a
/// slice slower, so the fast quartile stays put as long as under three
/// quarters of the window is disturbed, where a median gives way at half.
/// What the engine itself does periodically — checkpoints, compaction —
/// recurs in every slice and stays inside each slice's percentiles.
///
/// A slice is a whole number of `cycle`s — the length after which the
/// workload's class schedule repeats — so every slice holds the same mix.
pub fn summarize(w: &Window, class_names: &[&str], cycle: usize) -> Summary {
    let n = w.samples.len();
    let mut len = cycle * MIN_SLICE.div_ceil(cycle);
    while n / len > MAX_SLICES {
        len += cycle;
    }
    let slices = (n / len).max(1);
    let (mut thr, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    for s in 0..slices {
        // A window shorter than one slice is taken whole.
        let chunk = &w.samples[s * len..((s + 1) * len).min(n)];
        let mut lat: Vec<u64> = chunk.iter().map(|&(_, ns)| ns).collect();
        let busy: u64 = lat.iter().sum();
        lat.sort_unstable();
        thr.push(lat.len() as f64 / (busy.max(1) as f64 / 1e9));
        p50.push(percentile(&lat, 50.0) as f64 / 1e3);
        p95.push(percentile(&lat, 95.0) as f64 / 1e3);
    }
    let mut all: Vec<u64> = w.samples.iter().map(|&(_, ns)| ns).collect();
    let busy: u64 = all.iter().sum();
    all.sort_unstable();
    let classes = class_names
        .iter()
        .enumerate()
        .map(|(c, name)| {
            let mut lat: Vec<u64> = w
                .samples
                .iter()
                .filter(|&&(k, _)| k as usize == c)
                .map(|&(_, ns)| ns)
                .collect();
            lat.sort_unstable();
            (
                name.to_string(),
                lat.len() as u64,
                percentile(&lat, 50.0) as f64 / 1e3,
            )
        })
        .collect();
    Summary {
        n: n as u64,
        slices,
        ops_per_s: quartiles(&thr).map_or(thr[0], |(_, q3)| q3),
        p50_us: quartiles(&p50).map_or(p50[0], |(q1, _)| q1),
        p95_us: quartiles(&p95).map_or(p95[0], |(q1, _)| q1),
        p99_us: percentile(&all, 99.0) as f64 / 1e3,
        mean_us: busy as f64 / n.max(1) as f64 / 1e3,
        client_share: 1.0 - busy as f64 / w.wall.as_nanos().max(1) as f64,
        classes,
    }
}

/// A named figure with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The five end-to-end metrics in catalogue order.
pub fn end_to_end(s: &Summary, space_amp: f64, setup_s: &[f64]) -> Vec<Metric> {
    vec![
        metric("ops_per_s", s.ops_per_s, "1/s"),
        metric("p50_us", s.p50_us, "us"),
        metric("p95_us", s.p95_us, "us"),
        metric("space_amp", space_amp, "ratio"),
        metric("setup_s", crate::util::median(setup_s), "s"),
    ]
}

/// Report lines for a window summary.
pub fn describe(s: &Summary) -> Vec<String> {
    let mut lines = vec![format!(
        "window: {} ops in {} slices; p99 {:.1} us, mean {:.1} us (whole window); client share {:.1}%",
        s.n,
        s.slices,
        s.p99_us,
        s.mean_us,
        100.0 * s.client_share
    )];
    for (name, n, p50) in &s.classes {
        lines.push(format!("  class {name:<12} n={n:<8} p50 {p50:.1} us"));
    }
    lines
}

/// Everything a workload hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `--trace 0`: the end-to-end metrics; `--trace 1`: the per-layer
    /// metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (class medians, layer table, ...).
    pub report: Vec<String>,
    /// Sizing facts for the result file: pool frames, pages, ratios, threads.
    pub sizing: serde_json::Value,
    /// The spans of a traced run.
    pub trace: Option<serde_json::Value>,
}
