//! The connection-scale drill on the real `abpd` binary: a decision
//! service holds many mostly idle browser connections while a few are
//! busy. With `--shards 1` the daemon must hold 2,000 open connections
//! — half of them sitting on an unterminated line — on the threads it
//! booted with, answer the busy ones exactly as the engine does, and
//! give every held line exactly one reply once it is finished.
//!
//! The drill (`support/drill.rs`) shrinks to fit a host whose
//! open-file limit is below what 2,000 connections need on both ends.
//! It prints the daemon's resident growth per connection and asserts
//! nothing about it.

#[path = "support/drill.rs"]
mod drill;

use abpd::Client;
use drill::{Drill, Spawned, HELD_BYTES};

#[test]
fn idle_connections_cost_no_thread_and_every_held_line_is_answered_once() {
    let daemon = Spawned::start(
        env!("CARGO_BIN_EXE_abpd"),
        "abpd",
        &["--addr", "127.0.0.1:0", "--shards", "1"],
    );
    // What the daemon serves by default: the seed-2015 corpus lists.
    let engine = abpd::corpus_engine(2015);
    let mut drill = Drill::new();
    let (connections, idle) = (drill.connections, drill.idle);

    let threads_before = daemon.status("Threads:");
    let rss_before = daemon.status("VmRSS:");
    drill.open(&daemon.addr);
    drill.run_active(&daemon.addr, &engine);

    // The connections were accepted (one reactor accepts in queue
    // order, and the active ones came after them) and cost no thread.
    assert!(
        daemon.open_fds() >= idle,
        "{} fds for {idle} connections",
        daemon.open_fds()
    );
    assert_eq!(
        daemon.status("Threads:"),
        threads_before,
        "{idle} idle connections changed the daemon's thread count"
    );
    let rss_after = daemon.status("VmRSS:");
    println!(
        "connection_scale: {connections} connections ({idle} idle, {} holding {HELD_BYTES} B); \
         threads {threads_before}; RSS {rss_before} -> {rss_after} KiB, {:.0} B per connection",
        drill.held(),
        (rss_after.saturating_sub(rss_before) * 1024) as f64 / connections as f64
    );

    drill.finish_held(&engine);
    let mut client = Client::connect(&*daemon.addr).expect("connect");
    assert_eq!(client.stats().expect("stats").requests, drill.decided());

    // `Shutdown` drains open connections: close them first.
    drill.close();
    client.shutdown_server().expect("shutdown");
    assert!(daemon.exited_cleanly());
}
