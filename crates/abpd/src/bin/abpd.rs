//! The abpd server binary.
//!
//! ```text
//! abpd [--addr HOST:PORT] [--shards N] [--cache-capacity N]
//!      [--max-line-bytes N] [--seed N] [--deadline-ms N]
//!      [--watch FILE] [--watch-interval-ms N] [--state-dir DIR]
//! ```
//!
//! Serves ad-blocking decisions for the generated corpus (EasyList +
//! Acceptable Ads whitelist) until a client sends the `Shutdown` verb.
//! An argument that is none of the nine flags above is reported on
//! stderr (`abpd: ignoring unknown flag NAME`) and otherwise ignored,
//! so a command line written for an older build still boots.
//!
//! `--shards` is the number of evaluation shards, each an epoll reactor
//! thread behind its own `SO_REUSEPORT` listener with its own slice of
//! the `--cache-capacity` decision cache; every batch is evaluated on
//! the thread that read it. The reactors are Linux-only: elsewhere the
//! daemon exits reporting an `Unsupported` error. A `--addr` port that
//! another process already listens on fails the start (`AddrInUse`).
//!
//! `--deadline-ms` bounds per-batch evaluation time (a batch that runs
//! past it fails with a `DeadlineExceeded` error instead of answering
//! late). `--watch FILE` polls a whitelist file and pushes changed
//! content through the `ReloadDelta` verb — a copy/insert patch against
//! the last body the server acknowledged, orders of magnitude smaller
//! on the wire than re-shipping the list. If the server reports a base mismatch (it
//! restarted, or another supervisor reloaded it) the watcher falls
//! back to one full `Reload` and is back in delta lockstep from the
//! next change on. A malformed revision is rejected server-side either
//! way and the old engine keeps serving. The `ABPD_FAULTS` environment
//! variable arms deterministic fault injection for chaos runs (see
//! `abpd::faults`).
//!
//! `--state-dir DIR` makes the serving state durable: the daemon
//! persists an atomic, checksummed snapshot of its list bodies after
//! boot and after every acked `Reload`/`ReloadDelta` (including
//! `--watch` applies), and on startup boots straight from that
//! snapshot — skipping corpus generation and the full-body reship —
//! falling back to seed lists on any snapshot defect (missing, torn,
//! truncated, bit-flipped, stale format version). The recovered
//! whitelist body doubles as `--watch`'s delta base, so watch mode
//! ships deltas from the first post-restart change instead of a full
//! reload.

use abpd::protocol::{ReloadDeltaList, ReloadList};
use abpd::{Client, FaultConfig, ReloadDeltaOutcome, Server, ServerConfig};
use std::net::SocketAddr;
use std::time::Duration;

/// Every flag `abpd` takes; each is followed by one value.
const FLAGS: [&str; 9] = [
    "--addr",
    "--shards",
    "--cache-capacity",
    "--max-line-bytes",
    "--seed",
    "--deadline-ms",
    "--watch",
    "--watch-interval-ms",
    "--state-dir",
];

/// Say which `--flag` arguments will have no effect. Never fatal:
/// launchers written for older builds pass flags that are gone, and
/// the flags left are looked up by name, so a stray argument is inert.
fn report_unknown_flags(args: &[String]) {
    let mut i = 0;
    while i < args.len() {
        if FLAGS.contains(&args[i].as_str()) {
            i += 2; // the flag and its value
            continue;
        }
        if args[i].starts_with("--") {
            eprintln!("abpd: ignoring unknown flag {}", args[i]);
        }
        i += 1;
    }
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let v = args.get(i + 1).unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    });
    match v.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("bad value for {flag}: {v}");
            std::process::exit(2);
        }
    }
}

/// Poll `path` every `interval`; when its content changes, ship a
/// `ReloadDelta` patch computed against `acked` — the last whitelist
/// body the server acknowledged serving (the boot body at first).
/// A base mismatch means the server's body is not what we last shipped
/// (it restarted, or someone else reloaded it): fall back to one full
/// `Reload` (paired with the unchanged EasyList text) to resync.
/// Server-side validation rejects garbage either way, so a
/// half-written file cannot take down serving. Each push uses a fresh
/// short-lived connection: `Shutdown` drains open connections, so a
/// persistent watch client would wedge it.
fn watch_loop(
    addr: SocketAddr,
    path: String,
    interval: Duration,
    easylist: String,
    mut acked: String,
) {
    let mut last: Option<String> = None;
    loop {
        std::thread::sleep(interval);
        let content = match std::fs::read_to_string(&path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("abpd: watch: cannot read {path}: {e}");
                continue;
            }
        };
        if last.as_deref() == Some(content.as_str()) {
            continue;
        }
        let mut client = match Client::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("abpd: watch: cannot connect to {addr}: {e}");
                continue;
            }
        };
        let update = [ReloadDeltaList {
            source: abp::ListSource::AcceptableAds,
            delta: abpdelta::encode(&acked, &content),
        }];
        match client.reload_delta(&update) {
            Ok(ReloadDeltaOutcome::Applied(report)) => {
                eprintln!(
                    "abpd: watch: delta-reloaded {path} -> generation {} ({} filters, \
                     {} bytes inserted of {})",
                    report.generation,
                    report.filters,
                    update[0].delta.insert_bytes(),
                    content.len()
                );
                acked = content.clone();
                last = Some(content);
            }
            Ok(ReloadDeltaOutcome::BaseMismatch(m)) => {
                eprintln!(
                    "abpd: watch: server serves a different base (checksum {:016x}, \
                     generation {}); falling back to a full reload",
                    m.serving_check, m.generation
                );
                let lists = [
                    ReloadList {
                        source: abp::ListSource::EasyList,
                        content: easylist.clone(),
                    },
                    ReloadList {
                        source: abp::ListSource::AcceptableAds,
                        content: content.clone(),
                    },
                ];
                match client.reload(&lists) {
                    Ok(report) => {
                        eprintln!(
                            "abpd: watch: reloaded {path} -> generation {} ({} filters)",
                            report.generation, report.filters
                        );
                        acked = content.clone();
                        last = Some(content);
                    }
                    Err(e) if client.is_broken() => {
                        eprintln!("abpd: watch: reload transport error: {e}");
                    }
                    Err(e) => {
                        eprintln!("abpd: watch: reload rejected, keeping old engine: {e}");
                        last = Some(content);
                    }
                }
            }
            Err(e) if client.is_broken() => {
                // Transport trouble: retry the same revision next tick.
                eprintln!("abpd: watch: reload transport error: {e}");
            }
            Err(e) => {
                // Rejected revision: remember it so a bad file is
                // reported once, not every tick.
                eprintln!("abpd: watch: reload rejected, keeping old engine: {e}");
                last = Some(content);
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: abpd [--addr HOST:PORT] [--shards N] [--cache-capacity N] \
             [--max-line-bytes N] [--seed N] [--deadline-ms N] \
             [--watch FILE] [--watch-interval-ms N] [--state-dir DIR]"
        );
        return;
    }
    report_unknown_flags(&args);

    let mut config = ServerConfig::default();
    config.addr = parse_flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:4815".to_string());
    if let Some(n) = parse_flag(&args, "--shards") {
        config.service.shards = n;
    }
    if let Some(n) = parse_flag(&args, "--cache-capacity") {
        config.service.cache_capacity = n;
    }
    if let Some(n) = parse_flag(&args, "--max-line-bytes") {
        config.max_line_bytes = n;
    }
    if let Some(ms) = parse_flag::<u64>(&args, "--deadline-ms") {
        config.service.deadline = Some(Duration::from_millis(ms.max(1)));
    }
    if let Some(faults) = FaultConfig::from_env() {
        eprintln!("abpd: FAULT INJECTION ARMED: {faults:?}");
        config.service.faults = Some(faults);
    }
    let seed: u64 = parse_flag(&args, "--seed").unwrap_or(2015);
    let watch: Option<String> = parse_flag(&args, "--watch");
    let watch_interval: u64 = parse_flag(&args, "--watch-interval-ms").unwrap_or(2000);
    let state_dir: Option<String> = parse_flag(&args, "--state-dir");

    // The recovery ladder: a verified snapshot boots the exact serving
    // state; any snapshot defect falls back to freshly generated seed
    // lists — stated loudly, never served silently.
    let mut recovered: Option<abpd::PersistedState> = None;
    if let Some(dir) = &state_dir {
        config.service.state_dir = Some(std::path::PathBuf::from(dir));
        match abpd::state::recover(dir) {
            Ok(state) => {
                eprintln!(
                    "abpd: recovered snapshot from {dir}: generation {}, \
                     checksum {:016x}, {} lists",
                    state.generation,
                    state.list_checksum,
                    state.lists.len()
                );
                recovered = Some(state);
            }
            Err(abpd::SnapshotError::Missing) => {
                eprintln!("abpd: no snapshot in {dir}; starting from seed lists");
            }
            Err(e) => {
                eprintln!("abpd: snapshot in {dir} unusable ({e}); falling back to seed lists");
            }
        }
    }

    // Keep the list bodies server-side so `ReloadDelta` has a base to
    // patch and `Health` reports the serving checksum.
    let seed_boot = |seed: u64| {
        eprintln!("abpd: generating corpus (seed {seed})...");
        let corpus = corpus::Corpus::generate(seed);
        let easylist = corpus.easylist.to_text();
        let whitelist = corpus.whitelist.to_text();
        let lists = vec![
            ReloadList {
                source: abp::ListSource::EasyList,
                content: easylist.clone(),
            },
            ReloadList {
                source: abp::ListSource::AcceptableAds,
                content: whitelist.clone(),
            },
        ];
        (lists, easylist, whitelist)
    };
    let snapshot_boot = recovered.map(|state| {
        let body_of = |src: abp::ListSource| {
            state
                .lists
                .iter()
                .find(|l| l.source == src)
                .map(|l| l.content.clone())
                .unwrap_or_default()
        };
        let easylist = body_of(abp::ListSource::EasyList);
        let whitelist = body_of(abp::ListSource::AcceptableAds);
        (state.lists, easylist, whitelist)
    });
    let mut from_snapshot = snapshot_boot.is_some();
    let (mut lists, mut easylist, mut whitelist) = snapshot_boot.unwrap_or_else(|| seed_boot(seed));
    let server = loop {
        match Server::start_with_lists(lists, &config) {
            Ok(s) => break s,
            Err(e) if from_snapshot => {
                // The snapshot verified but its lists no longer
                // compile (e.g. written by a build with different
                // validation); last rung of the ladder.
                eprintln!(
                    "abpd: cannot serve the recovered snapshot ({e}); falling back to seed lists"
                );
                from_snapshot = false;
                (lists, easylist, whitelist) = seed_boot(seed);
            }
            Err(e) => {
                eprintln!("abpd: cannot bind {}: {e}", config.addr);
                std::process::exit(1);
            }
        }
    };
    eprintln!(
        "abpd: listening on {} ({} filters, {} shards)",
        server.local_addr(),
        server.filter_count(),
        server.shard_count()
    );
    if let Some(path) = watch {
        let addr = server.local_addr();
        let interval = Duration::from_millis(watch_interval.max(1));
        eprintln!("abpd: watching {path} every {}ms", interval.as_millis());
        let spawned = std::thread::Builder::new()
            .name("abpd-watch".to_string())
            .spawn(move || watch_loop(addr, path, interval, easylist, whitelist));
        if let Err(e) = spawned {
            eprintln!("abpd: cannot start the watch thread: {e}");
            std::process::exit(1);
        }
    }
    server.join();
    eprintln!("abpd: drained, bye");
}
