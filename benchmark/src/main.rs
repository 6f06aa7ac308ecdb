//! tcom's benchmark. One invocation runs one workload:
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--dir <data root>] [--out <run-set.json>] [--smoke]
//! benchmark compare <A.json> <B.json> [--spec BENCHMARK.json]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `benchmark/README.md`.

mod cold_history;
mod commit;
mod compare;
mod host;
mod hot_query;
mod layers;
mod rng;
mod run;
mod tql;
mod trace;
mod university;
mod util;

use run::{Config, Outcome};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use util::Res;

pub const WORKLOADS: [&str; 4] = [
    "hot-query.embedded",
    "hot-query.wire",
    "cold-history.embedded",
    "commit.embedded",
];

fn run_workload(name: &str, cfg: &Config) -> Res<Outcome> {
    match name {
        "hot-query.embedded" => hot_query::run(cfg, false),
        "hot-query.wire" => hot_query::run(cfg, true),
        "cold-history.embedded" => cold_history::run(cfg),
        "commit.embedded" => commit::run(cfg),
        other => Err(format!("unknown workload '{other}' (one of {WORKLOADS:?})").into()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        // Inside the checkout the benchmark is run from.
        dir: PathBuf::from(".bench_data"),
        out: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => a.workload = value.to_string(),
            "--seed" => a.seed = value.parse()?,
            "--seconds" => a.seconds = value.parse()?,
            "--trace" => a.trace = value == "1",
            "--dir" => a.dir = PathBuf::from(value),
            "--out" => a.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument '{other}'").into()),
        }
    }
    if a.smoke {
        a.seconds = a.seconds.min(0.5);
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn metrics_json(o: &Outcome) -> Value {
    Value::Object(
        o.metrics
            .iter()
            .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
            .collect(),
    )
}

/// Appends this run to the run set at `path` (a JSON array).
fn append_run(path: &Path, record: Value) -> Res<()> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str(&text)? {
            Value::Array(runs) => runs,
            _ => return Err(format!("{} is not a run set", path.display()).into()),
        },
        Err(_) => Vec::new(),
    };
    runs.push(record);
    std::fs::write(
        path,
        serde_json::to_string_pretty(&Value::Array(runs))? + "\n",
    )?;
    Ok(())
}

fn run(a: &Args) -> Res<()> {
    std::fs::create_dir_all(&a.dir)?;
    // Every data directory of this run lives under one root that is
    // removed on the way out, whatever happened.
    let root = a.dir.join(format!("run-{}", std::process::id()));
    let cfg = Config {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        dir: root.clone(),
        smoke: a.smoke,
    };
    std::fs::create_dir_all(&root)?;
    // Before the workload pins itself to one CPU.
    let host = host::fingerprint(&a.dir);
    let outcome = run_workload(&a.workload, &cfg);
    let _ = std::fs::remove_dir_all(&root);
    let mut o = outcome?;

    println!(
        "workload {} seed {} seconds {} trace {}",
        a.workload, a.seed, a.seconds, a.trace as u8
    );
    println!("host: {host}");
    for line in &o.report {
        println!("{line}");
    }
    for m in &o.metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "attempted {} failed {} failed_ratio {:.6}",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    if let Some(trace) = o.trace.take() {
        let path = a.dir.join(format!("trace-{}.json", a.workload));
        std::fs::write(&path, serde_json::to_string(&trace)?)?;
        println!("spans written to {}", path.display());
    }
    let correct = o.failed == 0 && o.attempted > 0;
    let metrics = metrics_json(&o);
    if let Some(out) = &a.out {
        append_run(
            out,
            json!({
                "workload": a.workload,
                "seed": a.seed,
                "seconds": a.seconds,
                "trace": a.trace as u8,
                "host": host,
                "sizing": o.sizing,
                "correct": correct,
                "attempted": o.attempted,
                "failed": o.failed,
                "metrics": metrics
            }),
        )?;
    }
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": o.attempted,
            "failed": o.failed,
            "metrics": metrics
        })
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("compare") {
        compare_cmd(&argv[1..])
    } else {
        // A wrong answer is reported in the result line, not by the exit
        // code; only a run that could not be carried out exits non-zero.
        parse_args(&argv).and_then(|a| run(&a)).map(|()| true)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn compare_cmd(argv: &[String]) -> Res<bool> {
    let mut files = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec = PathBuf::from(it.next().ok_or("--spec needs a value")?);
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("usage: benchmark compare A.json B.json [--spec BENCHMARK.json]".into());
    };
    compare::compare(a, b, &spec)
}

#[cfg(test)]
mod smoke {
    use super::*;

    /// Every workload, untraced and traced, at smoke scale with all
    /// correctness checks on.
    #[test]
    fn every_workload_runs_clean() {
        let dir = std::env::temp_dir().join(format!("tcom-benchmark-smoke-{}", std::process::id()));
        for workload in WORKLOADS {
            for trace in [false, true] {
                let cfg = Config {
                    seed: 7,
                    seconds: 0.3,
                    trace,
                    dir: dir.join(format!("{workload}-{}", trace as u8)),
                    smoke: true,
                };
                std::fs::create_dir_all(&cfg.dir).expect("data root");
                let o = run_workload(workload, &cfg)
                    .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
                assert!(o.attempted > 0, "{workload}: nothing attempted");
                assert_eq!(o.failed, 0, "{workload} trace={trace}: failed operations");
                let expected = if trace { layers::LAYERS.len() } else { 5 };
                assert_eq!(o.metrics.len(), expected, "{workload}: metric set");
                assert_eq!(o.trace.is_some(), trace);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
