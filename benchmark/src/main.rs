//! The repo's benchmark: six workloads against the release `abpd` and
//! `abpd-proxy` binaries (and the in-harness site survey), every
//! answer checked against an in-process oracle, every cost attributed
//! to a layer in a separate traced run. See `benchmark/README.md`.
//!
//! ```text
//! abp-benchmark --bin-dir DIR [--workload NAME] [--seed N] [--seconds S]
//!               [--trace 0|1 | --traced] [--quick] [--out PATH]
//! abp-benchmark --compare A.json B.json
//! ```
//!
//! With `--workload`, the last line of standard output is one JSON
//! object with exactly the keys `correct`, `attempted`, `failed` and
//! `metrics`. Without it, all six workloads run in turn.

mod compare;
mod drive;
mod ladder;
mod layers;
mod report;
mod run;
mod stats;
mod survey;
mod topology;
mod trace;
mod workloads;

use report::RunReport;
use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

/// Default workload seed.
const DEFAULT_SEED: u64 = 7;
/// Default `--seconds` (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 36.0;
/// `--quick`: smoke-test budget.
const QUICK_SECONDS: f64 = 1.0;

struct Args {
    bin_dir: Option<PathBuf>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: abp-benchmark --bin-dir DIR [--workload NAME] [--seed N] [--seconds S] \
         [--trace 0|1 | --traced] [--quick] [--out PATH]\n       \
         abp-benchmark --compare A.json B.json\nworkloads: {}",
        workloads::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        bin_dir: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--bin-dir" => args.bin_dir = Some(PathBuf::from(value())),
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.traced = value() == "1",
            "--traced" => args.traced = true,
            "--quick" => args.seconds = QUICK_SECONDS,
            "--out" => args.out = Some(PathBuf::from(value())),
            "--compare" => args.compare = Some((PathBuf::from(value()), PathBuf::from(value()))),
            _ => usage(),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        usage();
    }
    args
}

/// First line of a command's output, or "unknown".
fn probe(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host as every result file records it.
fn fingerprint(host: &topology::Host, seed: u64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::Map(vec![
        ("nproc".to_string(), Value::U64(host.nproc as u64)),
        ("cpu_model".to_string(), Value::Str(cpu_model)),
        ("kernel".to_string(), Value::Str(probe("uname", &["-r"]))),
        ("pinned".to_string(), Value::Bool(host.pinned())),
        (
            "core".to_string(),
            host.core.map_or(Value::Null, |c| Value::U64(c as u64)),
        ),
        (
            "git_commit".to_string(),
            Value::Str(probe("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".to_string(), Value::U64(seed)),
    ])
}

fn write_result(path: &std::path::Path, host: &Value, runs: &[RunReport]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let doc = Value::Map(vec![
        ("host".to_string(), host.clone()),
        (
            "runs".to_string(),
            Value::Seq(runs.iter().map(RunReport::to_json).collect()),
        ),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(std::io::Error::other)?;
    std::fs::write(path, text + "\n")
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some((a, b)) = &args.compare {
        return match compare::compare_files(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("abp-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(bin_dir) = args.bin_dir.clone() else {
        usage()
    };
    for bin in ["abpd", "abpd-proxy"] {
        if !bin_dir.join(bin).is_file() {
            eprintln!(
                "abp-benchmark: {} not found; build the root workspace in release first \
                 (benchmark/run.sh does)",
                bin_dir.join(bin).display()
            );
            return ExitCode::from(2);
        }
    }
    let selected: Vec<&workloads::Workload> = match &args.workload {
        Some(name) => match workloads::by_name(name) {
            Some(w) => vec![w],
            None => usage(),
        },
        None => workloads::WORKLOADS.iter().collect(),
    };

    let out_dir = PathBuf::from("benchmark/out");
    let host = topology::Host::detect_and_pin();
    let host_json = fingerprint(&host, args.seed);
    let ctx = run::Context {
        launcher: topology::Launcher { bin_dir, host },
        out_dir: out_dir.clone(),
        seed: args.seed,
        seconds: args.seconds,
    };

    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in &selected {
        match run::run(&ctx, workload, args.traced) {
            Ok(report) => {
                report.print_table();
                all_correct &= report.correct();
                runs.push(report);
            }
            Err(e) => {
                // No result line: the driver must not read a number
                // from a run that lost its daemons.
                eprintln!("abp-benchmark: {}: {e}", workload.name);
                return ExitCode::from(1);
            }
        }
    }

    let default_out = out_dir.join(format!(
        "result-{}-{}.json",
        args.workload.as_deref().unwrap_or("all"),
        if args.traced { "traced" } else { "untraced" }
    ));
    let out_path = args.out.unwrap_or(default_out);
    if let Err(e) = write_result(&out_path, &host_json, &runs) {
        eprintln!("abp-benchmark: cannot write {}: {e}", out_path.display());
        return ExitCode::from(1);
    }
    println!("result file: {}", out_path.display());

    // Last line: the contract object for a single workload, a summary
    // over all of them otherwise.
    match runs.as_slice() {
        [one] if args.workload.is_some() => println!("{}", one.contract_line()),
        _ => println!(
            "{{\"correct\": {all_correct}, \"attempted\": {}, \"failed\": {}, \"workloads\": {}}}",
            runs.iter().map(|r| r.attempted).sum::<u64>(),
            runs.iter().map(|r| r.failed).sum::<u64>(),
            runs.len()
        ),
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
