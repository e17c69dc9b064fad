//! The abpd fleet router binary.
//!
//! ```text
//! abpd-proxy --backends HOST:PORT,HOST:PORT,... [--addr HOST:PORT]
//!            [--probe-interval-ms N] [--reply-timeout-ms N]
//!            [--max-line-bytes N]
//! ```
//!
//! Binds a router speaking the abpd NDJSON wire protocol in front of
//! the given shards and serves until a client sends the `Shutdown`
//! verb (which also shuts the shards down). Decisions route by
//! consistent hash; `Reload`/`ReloadDelta` fan out to every shard with
//! a post-swap convergence check; `Health`/`Stats` aggregate the
//! fleet. Client connections are served by `abpd`'s epoll reactors, one
//! per available core (at most 8), so the router is Linux-only like the
//! daemon: elsewhere it exits with `Unsupported` at start.

use abpd_proxy::{Proxy, ProxyConfig};
use std::time::Duration;

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: abpd-proxy --backends HOST:PORT,... [--addr HOST:PORT] \
             [--probe-interval-ms N] [--reply-timeout-ms N] \
             [--max-line-bytes N]"
        );
        return;
    }

    let mut config = ProxyConfig {
        addr: parse_flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:4816".to_string()),
        ..ProxyConfig::default()
    };
    let backends: String = parse_flag(&args, "--backends").unwrap_or_else(|| {
        eprintln!("abpd-proxy: --backends is required (comma-separated HOST:PORT list)");
        std::process::exit(2);
    });
    config.backends = backends
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if let Some(ms) = parse_flag::<u64>(&args, "--probe-interval-ms") {
        config.probe_interval = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = parse_flag::<u64>(&args, "--reply-timeout-ms") {
        config.reply_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(n) = parse_flag(&args, "--max-line-bytes") {
        config.max_line_bytes = n;
    }

    let proxy = Proxy::start(&config).unwrap_or_else(|e| {
        eprintln!("abpd-proxy: cannot start on {}: {e}", config.addr);
        std::process::exit(1);
    });
    let healthy = proxy.backend_report().iter().filter(|b| b.healthy).count();
    eprintln!(
        "abpd-proxy: listening on {} ({} shards, {} healthy at start)",
        proxy.local_addr(),
        config.backends.len(),
        healthy
    );
    proxy.join();
    eprintln!("abpd-proxy: stopped, bye");
}
