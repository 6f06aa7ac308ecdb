//! The per-layer metric catalogue. Every traced run reports every name
//! (zero where the workload does not use the layer), so result files of
//! different workloads line up.

use crate::run::{metric, Metric, Summary};
use crate::trace::Tracer;
use crate::util::median;
use std::collections::BTreeMap;
use tcom_core::MetricsSnapshot;

/// `(name, unit)` in report order. `BENCHMARK.json` lists the same names.
pub const LAYERS: &[(&str, &str)] = &[
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("query.exec_us", "us"),
    ("query.rows_examined_per_row", "ratio"),
    ("core.read_us", "us"),
    ("version.chain.op_us", "us"),
    ("version.delta.op_us", "us"),
    ("version.split.op_us", "us"),
    ("version.chain.pages_per_op", "count"),
    ("version.delta.pages_per_op", "count"),
    ("version.split.pages_per_op", "count"),
    ("store.chain_steps_per_op", "count"),
    ("store.delta_reconstructions_per_op", "count"),
    ("segment.admit_ratio", "ratio"),
    ("segment.comp_ratio", "ratio"),
    ("pool.hit_ratio", "ratio"),
    ("pool.evictions_per_op", "count"),
    ("disk.reads_per_op", "count"),
    ("disk.bytes_read_per_op", "bytes"),
    ("txn.stage_us", "us"),
    ("txn.commit_us", "us"),
    ("txn.stripe_waits", "count"),
    ("txn.wait_die_retries", "count"),
    ("wal.fsyncs_per_commit", "count"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.append_sync_us", "us"),
    ("core.checkpoint.busy_ms", "ms"),
    ("core.compact.busy_ms", "ms"),
    ("commit.stall_us", "us"),
    ("wire.overhead_us", "us"),
    ("kernel.frame.codec_us", "us"),
    ("server.stmt_us", "us"),
    ("client.share", "ratio"),
    ("trace_overhead", "ratio"),
    ("layer_residual", "ratio"),
];

/// Values a workload measured, keyed by catalogue name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "{name} not in catalogue"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Median duration in µs of the tracer's spans named any of `spans`.
    pub fn set_span_median(&mut self, name: &'static str, tracer: &Tracer, spans: &[&str]) {
        let us: Vec<f64> = spans
            .iter()
            .flat_map(|span| tracer.durations(span))
            .map(|ns| ns as f64 / 1e3)
            .collect();
        self.set(name, median(&us));
    }

    /// Total time in µs of the tracer's spans named `span`, per `per`.
    pub fn set_span_mean(&mut self, name: &'static str, tracer: &Tracer, span: &str, per: u64) {
        let ns: u64 = tracer.durations(span).iter().sum();
        self.set(name, ns as f64 / 1e3 / per.max(1) as f64);
    }

    /// Pool and disk figures from the metrics deltas of the databases the
    /// window used (summed), over `ops` operations.
    pub fn set_storage(&mut self, deltas: &[MetricsSnapshot], ops: u64) {
        let ops = ops.max(1) as f64;
        let sum = |name: &str| deltas.iter().map(|d| d.counter(name)).sum::<u64>() as f64;
        let fetches = sum("pool.fetches");
        self.set(
            "pool.hit_ratio",
            if fetches > 0.0 {
                sum("pool.hits") / fetches
            } else {
                1.0
            },
        );
        self.set("pool.evictions_per_op", sum("pool.evictions") / ops);
        self.set("disk.reads_per_op", sum("disk.reads") / ops);
        self.set("disk.bytes_read_per_op", sum("disk.bytes_read") / ops);
    }

    /// Segment figures: the share of fence probes admitted during the window
    /// (`deltas`), and the compression ratio of the segments that exist
    /// `now`.
    pub fn set_segments(&mut self, deltas: &[MetricsSnapshot], now: &MetricsSnapshot) {
        let sum = |name: &str| deltas.iter().map(|d| d.counter(name)).sum::<u64>() as f64;
        let (reads, skips) = (sum("segment.reads"), sum("segment.skips"));
        self.set("segment.admit_ratio", reads / (reads + skips).max(1.0));
        self.set(
            "segment.comp_ratio",
            now.counter("segment.comp_bytes") as f64
                / now.counter("segment.raw_bytes").max(1) as f64,
        );
    }

    /// The full catalogue in order, zero where nothing was set.
    pub fn into_metrics(self) -> Vec<Metric> {
        LAYERS
            .iter()
            .map(|&(name, unit)| metric(name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

impl Layers {
    /// What every traced run reports about its two passes: the benchmark's
    /// own share, the tracing overhead, and the layer table with its
    /// residual (appended to `report`).
    pub fn set_passes(
        &mut self,
        report: &mut Vec<String>,
        tracer: &Tracer,
        ops: u64,
        plain: &Summary,
        traced: &Summary,
    ) {
        self.set("client.share", traced.client_share);
        self.set("trace_overhead", 1.0 - traced.ops_per_s / plain.ops_per_s);
        let (table, residual) = layer_table(tracer, ops, plain.mean_us);
        self.set("layer_residual", residual);
        report.extend(table);
    }
}

/// The layer table of a traced window: each of the benchmark's span names
/// with its mean self time per operation and share, closed by the residual
/// against the untraced mean latency of the same operation sequence.
fn layer_table(tracer: &Tracer, ops: u64, untraced_mean_us: f64) -> (Vec<String>, f64) {
    let ops = ops.max(1) as f64;
    let selfs = tracer.self_times();
    // Shadow spans repeat work outside the operation; they are layer
    // metrics, not part of the operation's time.
    let in_op = |name: &str| !name.starts_with("shadow.");
    let total_us: f64 = selfs
        .iter()
        .filter(|(n, _)| in_op(n))
        .map(|(_, &(_, ns))| ns as f64 / 1e3)
        .sum::<f64>()
        / ops;
    let mut lines = vec![format!(
        "  {:<28} {:>10} {:>12} {:>7}",
        "layer (span self time)", "spans/op", "us/op", "share"
    )];
    for (name, &(count, ns)) in &selfs {
        if !in_op(name) {
            continue;
        }
        let us = ns as f64 / 1e3 / ops;
        lines.push(format!(
            "  {:<28} {:>10.2} {:>12.2} {:>6.1}%",
            name,
            count as f64 / ops,
            us,
            100.0 * us / total_us.max(1e-9)
        ));
    }
    let residual = (untraced_mean_us - total_us) / untraced_mean_us.max(1e-9);
    lines.push(format!(
        "  {:<28} {:>10} {:>12.2}",
        "sum of self times", "", total_us
    ));
    lines.push(format!(
        "  {:<28} {:>10} {:>12.2}   residual {:+.1}% of untraced",
        "untraced mean latency",
        "",
        untraced_mean_us,
        100.0 * residual
    ));
    for (name, &(count, ns)) in selfs.iter().filter(|(n, _)| !in_op(n)) {
        lines.push(format!(
            "  {:<28} {:>10.2} {:>12.2}   (repeated outside the operation)",
            name,
            count as f64 / ops,
            ns as f64 / 1e3 / ops
        ));
    }
    (lines, residual)
}

/// Report line with the query layer's own share of the operation time:
/// parse + plan + execute, less the core reads behind the statements (as
/// measured by repeating them outside the operation).
pub fn query_own_share(tracer: &Tracer) -> String {
    let selfs = tracer.self_times();
    let ns = |name: &str| selfs.get(name).map_or(0, |&(_, ns)| ns) as f64;
    let in_op: f64 = selfs
        .iter()
        .filter(|(n, _)| !n.starts_with("shadow."))
        .map(|(_, &(_, ns))| ns as f64)
        .sum();
    let query = ns("query.parse") + ns("query.plan") + ns("query.exec");
    let own = (query - ns("shadow.core.read")).max(0.0);
    format!(
        "  query layer's own share (parse + plan + exec - core.read): {:.1}% of operation time; \
         core reads {:.1}%",
        100.0 * own / in_op.max(1.0),
        100.0 * (in_op - own) / in_op.max(1.0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` must list exactly the catalogue, with its units, and
    /// name every workload the binary knows.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let pairs = |key: &str, a: &str, b: &str| -> Vec<(String, String)> {
            let Value::Array(items) = &spec[key] else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|m| match (&m[a], &m[b]) {
                    (Value::String(x), Value::String(y)) => (x.clone(), y.clone()),
                    _ => panic!("{key}: {a}/{b} missing"),
                })
                .collect()
        };
        let listed = pairs("per_layer", "name", "unit");
        let ours: Vec<(String, String)> = LAYERS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours);
        let workloads: Vec<String> = pairs("workloads", "name", "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
