//! The connection-scale drill through the fleet router: the real
//! `abpd-proxy` binary in front of two in-process shards. The proxy
//! must hold 2,000 client connections — half of them sitting on an
//! unterminated line — on the threads it booted with and about one
//! descriptor each, answer the busy ones exactly as the engine does,
//! give every held line exactly one reply once it is finished, and
//! reach each shard over at most one connection per proxy reactor,
//! however many clients it routes for.
//!
//! The drill (`support/drill.rs`) shrinks to fit a host whose
//! open-file limit is below what 2,000 connections need on both ends.
//! The proxy's resident growth may come to at most
//! `MAX_BYTES_PER_CONNECTION` (1,024 B) per connection.

#[path = "support/drill.rs"]
mod drill;

use abpd::{Client, Server, ServerConfig, ServiceConfig};
use drill::{bytes_per_connection, open_fds, Drill, Spawned, HELD_BYTES, MAX_BYTES_PER_CONNECTION};

/// Shards behind the proxy.
const SHARDS: usize = 2;

#[test]
fn idle_fleet_connections_cost_no_thread_and_reach_each_shard_once_per_reactor() {
    let corpus = corpus::Corpus::generate(2015);
    let engine = abp::Engine::from_lists([&corpus.easylist, &corpus.whitelist]);
    let config = ServerConfig {
        service: ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let shards: Vec<Server> = (0..SHARDS)
        .map(|_| {
            let engine = abp::Engine::from_lists([&corpus.easylist, &corpus.whitelist]);
            Server::start(engine, &config).expect("start a shard")
        })
        .collect();
    let backends: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let proxy = Spawned::start(
        env!("CARGO_BIN_EXE_abpd-proxy"),
        "abpd-proxy",
        &["--addr", "127.0.0.1:0", "--backends", &backends.join(",")],
    );
    // The proxy runs this process's reactor count: it inherits the
    // same CPU affinity.
    let reactors = abpd::reactor::default_reactors();
    // Per shard: one connection per reactor, plus one probe in flight.
    let per_shard = reactors + 1;

    let mut drill = Drill::new();
    let (connections, idle) = (drill.connections, drill.idle);
    let threads_before = proxy.status("Threads:");
    let fds_before = proxy.open_fds();
    let rss_before = proxy.status("VmRSS:");
    let own_before = open_fds("self");

    drill.open(&proxy.addr);
    drill.run_active(&proxy.addr, &engine);

    assert_eq!(
        proxy.status("Threads:"),
        threads_before,
        "{idle} idle connections changed the proxy's thread count"
    );
    let fds_after = proxy.open_fds();
    assert!(
        fds_after >= fds_before + idle,
        "{fds_after} fds for {idle} connections"
    );
    // The proxy's end of a shard connection is an `abpd::Client`, which
    // holds its socket twice: the stream and its reader's clone.
    assert!(
        fds_after <= fds_before + connections + SHARDS * 2 * per_shard,
        "{connections} connections took the proxy from {fds_before} to {fds_after} fds"
    );
    let rss_after = proxy.status("VmRSS:");
    let per_connection = bytes_per_connection(rss_before, rss_after, connections);
    println!(
        "fleet_connection_scale: {connections} connections ({idle} idle, {} holding \
         {HELD_BYTES} B), {reactors} reactors; threads {threads_before}; fds {fds_before} -> \
         {fds_after}; RSS {rss_before} -> {rss_after} KiB, {per_connection} B per connection",
        drill.held()
    );
    assert!(
        per_connection <= MAX_BYTES_PER_CONNECTION,
        "{per_connection} B of RSS per connection (at most {MAX_BYTES_PER_CONNECTION})"
    );

    drill.finish_held(&engine);
    // This process holds the idle connections' client ends and the
    // shards' ends of the proxy's connections: one per reactor each,
    // not one per routed client.
    let own_after = open_fds("self");
    assert!(
        own_after <= own_before + idle + SHARDS * per_shard,
        "the shards' side grew by {} fds for {} routed held lines",
        own_after.saturating_sub(own_before + idle),
        drill.held()
    );

    let mut client = Client::connect(&*proxy.addr).expect("connect");
    assert_eq!(client.stats().expect("stats").requests, drill.decided());

    // `Shutdown` through the proxy stops the shards too; it drains
    // open connections, so close them first.
    drill.close();
    client.shutdown_server().expect("shutdown");
    drop(client);
    assert!(proxy.exited_cleanly());
    for shard in shards {
        shard.join();
    }
}
