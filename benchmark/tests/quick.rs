//! One `--quick` pass of every workload, untraced and traced, through
//! `benchmark/run.sh` — the command `BENCHMARK.json` names — checking
//! that each run is correct and prints exactly the metrics
//! `BENCHMARK.json` promises for its mode. The workloads the harness
//! knows but `BENCHMARK.json` does not list run the same way.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("BENCHMARK.json: {key} is not a list: {other:?}"),
    }
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
}

/// Workloads of the harness that `BENCHMARK.json` does not list.
const UNLISTED: [&str; 3] = ["decide-lockstep", "reload-under-load", "crawl-survey"];

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn quick_pass_emits_every_promised_metric() {
    let doc = benchmark_json();
    let command: Vec<&str> = entries(&doc, "command")
        .iter()
        .map(|c| c.as_str().expect("command parts are strings"))
        .collect();
    for (mode, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let promised: Vec<(&str, &str)> = entries(&doc, key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        for (name, _) in &promised {
            assert!(well_formed(name), "{name:?} is not [A-Za-z0-9_.-]+");
        }
        let listed = entries(&doc, "workloads").iter().map(|w| field(w, "name"));
        for workload in listed.chain(UNLISTED) {
            assert!(well_formed(workload));
            let out = Command::new(command[0])
                .args(&command[1..])
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--quick",
                    "--trace",
                    mode,
                ])
                .current_dir(repo_root())
                .output()
                .expect("run.sh starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {mode} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = serde_json::parse_value(last).expect("the last line is JSON");
            let Value::Map(keys) = &result else {
                panic!("the result is an object");
            };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}: {last}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
            let Some(Value::Map(metrics)) = result.get("metrics") else {
                panic!("metrics is an object");
            };
            let emitted: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(name, m)| (name.as_str(), field(m, "unit")))
                .collect();
            assert_eq!(emitted, promised, "{workload} --trace {mode}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} has no finite value"
                );
            }
            if mode == "1" {
                let spans = repo_root().join(format!("benchmark/out/trace-{workload}.json"));
                assert!(spans.is_file(), "{} was not written", spans.display());
            }
        }
    }
}
