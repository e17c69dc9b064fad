//! A shard's resident memory stays what it serves across reloads. The
//! paper's whitelist changed 988 times in 3.5 years, so a serving shard
//! recompiles its engine again and again; each compile frees its
//! transient heap (the parsed lists, the index maps) and each reload
//! retires a whole engine generation. Those pages must go back to the
//! OS, not pile up as freed-but-resident heap.
//!
//! The drill boots a one-shard server on the corpus lists and sends 20
//! `Reload` lines, alternating two whitelist bodies, through a served
//! connection: the daemon's own reload path, compiled on the reactor
//! thread that read the line. VmRSS after the last ack may exceed VmRSS
//! after boot by at most [`GROWTH_BUDGET_KIB`]. The test is a binary of
//! its own, so the VmRSS it reads is its own; both lines are written
//! before boot, so the client side adds nothing to it.

use abp::ListSource;
use abpd::protocol::ReloadList;
use abpd::{Server, ServerConfig, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Reloads sent after boot.
const RELOADS: usize = 20;
/// What the reloads may add to the process's resident set: heap
/// fragmentation, not an engine per reload. The connection's input
/// buffer gives a reload line's capacity back once the line is
/// answered; the drill reads +1.8–2.5 MB (+3.0 MB while the buffer
/// kept it) on a 2-vCPU x86-64 Linux VM.
const GROWTH_BUDGET_KIB: u64 = 4 * 1024;

/// This process's resident set, in KiB.
fn vm_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("a VmRSS line")
}

#[test]
fn a_shard_does_not_grow_with_reloads() {
    // As `abpd`'s `main` does first: pin the allocator's trim threshold.
    abpd::poll::trim_heap();
    let (easylist, whitelist) = {
        let corpus = corpus::Corpus::generate(2015);
        (corpus.easylist.to_text(), corpus.whitelist.to_text())
    };
    let lists = |whitelist: &str| {
        vec![
            ReloadList {
                source: ListSource::EasyList,
                content: easylist.clone(),
            },
            ReloadList {
                source: ListSource::AcceptableAds,
                content: whitelist.to_string(),
            },
        ]
    };
    // Even reloads serve the head whitelist again, odd ones the head
    // plus one exception: every reload compiles a different engine from
    // the one serving.
    let amended = format!("{whitelist}@@||reload-drill.example^$script\n");
    let lines = [&whitelist, &amended].map(|body| {
        let mut line = Vec::new();
        abpd::wire::write_reload(&lists(body), &mut line);
        line.push(b'\n');
        line
    });
    let config = ServerConfig {
        // A line carries both bodies.
        max_line_bytes: 4 << 20,
        service: ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start_with_lists(lists(&whitelist), &config).expect("start a shard");
    let filters = server.filter_count();
    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    let mut replies = BufReader::new(sock.try_clone().expect("clone the socket"));
    let mut reply = String::with_capacity(256);
    let booted = vm_rss_kib();

    for n in 1..=RELOADS {
        sock.write_all(&lines[n % 2]).expect("send a Reload line");
        reply.clear();
        replies.read_line(&mut reply).expect("read the ack");
        let ack = format!(
            "{{\"Reloaded\":{{\"generation\":{n},\"filters\":{}}}}}\n",
            filters + n % 2
        );
        assert_eq!(reply, ack, "reload {n}");
    }
    let reloaded = vm_rss_kib();
    println!(
        "reload_rss: VmRSS {booted} KiB after boot, {reloaded} KiB after {RELOADS} reloads \
         ({:+} KiB)",
        reloaded as i64 - booted as i64
    );
    assert!(
        reloaded <= booted + GROWTH_BUDGET_KIB,
        "{RELOADS} reloads grew VmRSS from {booted} to {reloaded} KiB \
         (budget +{GROWTH_BUDGET_KIB} KiB)"
    );

    sock.write_all(b"\"Shutdown\"\n").expect("send Shutdown");
    drop((sock, replies));
    server.join();
}
