//! `benchmark compare A.json B.json`: judges run set B against run set A,
//! one row per (end-to-end metric, workload), with the bounds of
//! `BENCHMARK.json`.

use crate::util::{median, spread, Res};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

struct Spec {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn load(path: &Path) -> Res<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?)
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        _ => &[],
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(*n),
        _ => None,
    }
}

fn text(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        _ => String::new(),
    }
}

/// `workload -> metric -> values` over the untraced runs of a run set.
fn collect(set: &Value) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in items(set) {
        if number(&run["trace"]) != Some(0.0) {
            continue;
        }
        let by_metric = out.entry(text(&run["workload"])).or_default();
        if let Value::Object(metrics) = &run["metrics"] {
            for (name, m) in metrics {
                if let Some(v) = number(&m["value"]) {
                    by_metric.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    out
}

/// Prints the comparison; `Ok(true)` when no row is a regression.
pub fn compare(a: &Path, b: &Path, spec: &Path) -> Res<bool> {
    let spec_json = load(spec)?;
    let specs: Vec<Spec> = items(&spec_json["end_to_end"])
        .iter()
        .map(|m| Spec {
            name: text(&m["name"]),
            higher_is_better: m["better"] == "higher",
            bound: number(&m["bound"]).unwrap_or(0.0),
        })
        .collect();
    if specs.is_empty() {
        return Err(format!("{}: no end_to_end metrics", spec.display()).into());
    }
    let (sa, sb) = (collect(&load(a)?), collect(&load(b)?));
    println!(
        "{:<22} {:<10} {:>12} {:>12} {:>8} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound", "A spread", "B spread"
    );
    let mut clean = true;
    for (workload, metrics_a) in &sa {
        let Some(metrics_b) = sb.get(workload) else {
            println!("{workload:<22} missing from B");
            clean = false;
            continue;
        };
        for spec in &specs {
            let (Some(va), Some(vb)) = (metrics_a.get(&spec.name), metrics_b.get(&spec.name))
            else {
                println!("{workload:<22} {:<10} missing", spec.name);
                clean = false;
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            // Positive = B is worse than A, as a share of A.
            let worse = if spec.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let fmt_spread =
                |s: Option<f64>| s.map_or("n/a".into(), |s| format!("{:.1}%", 100.0 * s));
            let (spa, spb) = (spread(va), spread(vb));
            let noisy = [spa, spb].iter().flatten().any(|&s| s > spec.bound);
            let verdict = if noisy {
                // The same-commit spread exceeds the bound: the row can
                // neither pass nor fail.
                "unresolved"
            } else if worse > spec.bound {
                clean = false;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{workload:<22} {:<10} {ma:>12.3} {mb:>12.3} {:>7.1}% {:>6.0}% {:>9} {:>9}  {verdict}",
                spec.name,
                100.0 * worse,
                100.0 * spec.bound,
                fmt_spread(spa),
                fmt_spread(spb),
            );
        }
    }
    Ok(clean)
}
