//! `--compare A.json B.json`: hold B against A, metric by metric.

use crate::report::{Better, MetricDef, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::path::Path;

/// What the comparison says about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Moved by no more than the bound.
    WithinBound,
    /// Worsened by more than the bound.
    Worse,
    /// A run's own slice spread exceeds the bound: the pair cannot
    /// resolve a change of that size.
    Unresolved,
    /// A per-layer metric: shown, never judged.
    Reported,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Reported => "reported",
        }
    }
}

/// By what share of `a` did `b` get worse (negative: better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judge one end-to-end metric.
pub fn judge(def: &MetricDef, a: f64, b: f64, spread: f64) -> Verdict {
    let w = worsening(def, a, b);
    if spread > def.bound {
        Verdict::Unresolved
    } else if w > def.bound {
        Verdict::Worse
    } else if w < -def.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn runs(doc: &Value) -> &[Value] {
    match doc.get("runs") {
        Some(Value::Seq(runs)) => runs,
        _ => &[],
    }
}

fn key(run: &Value) -> (String, bool) {
    (
        run.get("workload")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
        run.get("traced") == Some(&Value::Bool(true)),
    )
}

fn metric(run: &Value, name: &str, field: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get(field)?.as_f64()
}

/// Print one row per workload × metric. `Ok(false)` when any
/// end-to-end metric got worse by more than its bound.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let (doc_a, doc_b) = (load(a)?, load(b)?);
    println!(
        "{:<18} {:<38} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    let mut ok = true;
    for run_a in runs(&doc_a) {
        let Some(run_b) = runs(&doc_b).iter().find(|r| key(r) == key(run_a)) else {
            continue;
        };
        let (workload, traced) = key(run_a);
        let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        for def in defs {
            let (Some(va), Some(vb)) = (
                metric(run_a, def.name, "value"),
                metric(run_b, def.name, "value"),
            ) else {
                continue;
            };
            let spread = [run_a, run_b]
                .iter()
                .filter_map(|run| metric(run, def.name, "slice_iqr_share"))
                .fold(0.0, f64::max);
            let verdict = if traced {
                Verdict::Reported
            } else {
                judge(def, va, vb, spread)
            };
            ok &= verdict != Verdict::Worse;
            println!(
                "{workload:<18} {:<38} {va:>14.4} {vb:>14.4} {:>+8.2}%  {}",
                def.name,
                (vb - va) / va * 100.0,
                verdict.word()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let rate = def("ops_per_s");
        assert_eq!(judge(rate, 100.0, 70.0, 0.0), Verdict::Worse);
        assert_eq!(judge(rate, 100.0, 130.0, 0.0), Verdict::Better);
        assert_eq!(judge(rate, 100.0, 95.0, 0.0), Verdict::WithinBound);
        let setup = def("setup_s");
        assert_eq!(judge(setup, 1.0, 1.3, 0.0), Verdict::Worse);
        assert_eq!(judge(setup, 1.0, 0.7, 0.0), Verdict::Better);
    }

    #[test]
    fn a_noisy_run_resolves_nothing() {
        let rate = def("ops_per_s");
        assert_eq!(judge(rate, 100.0, 50.0, 0.3), Verdict::Unresolved);
    }
}
