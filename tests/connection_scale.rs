//! The connection-scale drill on the real `abpd` binary: a decision
//! service holds many mostly idle browser connections while a few are
//! busy. With `--shards 1` the daemon must hold 2,000 open connections
//! — half of them sitting on an unterminated line — on the threads it
//! booted with, answer the busy ones exactly as the engine does, and
//! give every held line exactly one reply once it is finished.
//!
//! The drill (`support/drill.rs`) shrinks to fit a host whose
//! open-file limit is below what 2,000 connections need on both ends.
//! The daemon's resident growth may come to at most
//! `MAX_BYTES_PER_CONNECTION` (1,024 B) per connection, counted after
//! the active traffic has been decided once, so that it counts
//! connections and not the first touch of the decision cache's pages.

#[path = "support/drill.rs"]
mod drill;

use abpd::Client;
use drill::{bytes_per_connection, Drill, Spawned, HELD_BYTES, MAX_BYTES_PER_CONNECTION};

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
    // The cache's index and log are allocated untouched at boot: decide
    // the active traffic once before the first reading, so that the
    // second pass hits and the growth below is the connections'.
    drill.run_active(&daemon.addr, &engine);

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
    let per_connection = bytes_per_connection(rss_before, rss_after, connections);
    println!(
        "connection_scale: {connections} connections ({idle} idle, {} holding {HELD_BYTES} B); \
         threads {threads_before}; RSS {rss_before} -> {rss_after} KiB, {per_connection} B per \
         connection",
        drill.held()
    );
    assert!(
        per_connection <= MAX_BYTES_PER_CONNECTION,
        "{per_connection} B of RSS per connection (at most {MAX_BYTES_PER_CONNECTION})"
    );

    drill.finish_held(&engine);
    let mut client = Client::connect(&*daemon.addr).expect("connect");
    assert_eq!(client.stats().expect("stats").requests, drill.decided());

    // `Shutdown` drains open connections: close them first.
    drill.close();
    client.shutdown_server().expect("shutdown");
    assert!(daemon.exited_cleanly());
}
