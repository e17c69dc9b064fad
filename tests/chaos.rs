//! Fault-injection and resilience gates: the server under chaos must
//! answer every request, survive evaluation panics, drain on shutdown,
//! hot-reload filter revisions without serving stale decisions, and
//! the client must time out instead of hanging on a dead server.
//!
//! All fault schedules are seeded and deterministic (see
//! `abpd::faults`), so these tests cannot flake on the fault draw —
//! only rates and totals are asserted, never exact fault positions.

#[path = "support/resend.rs"]
mod resend;

use abpd::protocol::{ReloadList, ServerMessage};
use abpd::{
    Client, DecisionRequest, FaultConfig, HealthState, Server, ServerConfig, ServiceConfig,
};

use abp::{Decision, Engine, FilterList, ListSource, Request, ResourceType};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_engine() -> Engine {
    let bl = FilterList::parse(
        ListSource::EasyList,
        "||doubleclick.net^\n||adzerk.net^$third-party\n/banner/ads/*\n",
    );
    let wl = FilterList::parse(
        ListSource::AcceptableAds,
        "@@||adzerk.net/reddit/$subdocument,domain=reddit.com\n",
    );
    Engine::from_lists([&bl, &wl])
}

fn dr(url: &str, doc: &str, rt: ResourceType) -> DecisionRequest {
    DecisionRequest {
        url: url.into(),
        document: doc.into(),
        resource_type: rt,
        sitekey: None,
        tenant: None,
    }
}

fn requests(n: usize) -> Vec<DecisionRequest> {
    (0..n)
        .map(|i| {
            dr(
                &format!("http://host{}.doubleclick.net/u{}.js", i % 97, i % 389),
                &format!("site{}.example", i % 31),
                ResourceType::Script,
            )
        })
        .collect()
}

/// The headline chaos gate: 1% evaluation panics, 1% 10ms stalls, torn
/// writes and disconnects on the reply path — and still every request
/// is answered (a decision, or the `Error` its line drew on its last
/// send; `support/resend.rs` resends), every decision
/// matches a direct engine evaluation, and the server reports healthy
/// afterwards. The panics are real `panic!`s raised inside the one
/// evaluation route and caught by its `catch_unwind` — the only
/// supervision there is — on a reactor thread: the line answers
/// `Error`, the thread and the shard's cache keep serving, and
/// `Health.shard_restarts` counts it. The write faults hit the
/// reactors' corked flushes.
#[test]
fn chaos_run_answers_every_request_event() {
    let config = ServerConfig {
        service: ServiceConfig {
            shards: 4,
            cache_capacity: 4096,
            faults: Some(FaultConfig {
                eval_panic_per_million: 10_000, // 1%
                eval_delay_per_million: 10_000, // 1%
                eval_delay_ms: 10,
                torn_write_per_million: 500,
                disconnect_per_million: 500,
                seed: 20_150_815,
                ..FaultConfig::default()
            }),
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(test_engine(), &config).expect("bind server");
    let engine = test_engine();
    let reqs = requests(20_000);

    // 32-request batch lines, eight per write, so the reply-path faults
    // draw on corked multi-reply flushes.
    let (answers, resends) = resend::decide_resending(server.local_addr(), &reqs, 32, 8);

    assert_eq!(answers.len(), reqs.len(), "every request needs an answer");
    let mut ok = 0usize;
    for (req, answer) in reqs.iter().zip(&answers) {
        match answer {
            Some(Ok(resp)) => {
                let direct = engine.match_request(
                    &Request::new(&req.url, &req.document, req.resource_type).unwrap(),
                );
                assert_eq!(resp.outcome, direct, "mismatched reply for {}", req.url);
                ok += 1;
            }
            Some(Err(_)) => {}
            None => panic!("every request needs an answer: {} got no reply", req.url),
        }
    }
    assert!(
        ok as f64 >= reqs.len() as f64 * 0.95,
        "availability too low: {ok}/{}",
        reqs.len()
    );
    assert!(resends > 0, "the fault schedule must actually have fired");

    // A caught panic costs one line, never a thread: the server is
    // healthy the moment the run ends, with the panics on record.
    let mut probe = Client::connect(server.local_addr()).expect("connect probe");
    let h = probe.health().expect("health");
    assert_eq!(h.state, HealthState::Ok, "{h:?}");
    assert_eq!(h.shard_restarts.len(), 4, "one counter per shard: {h:?}");
    assert!(
        h.shard_restarts.iter().sum::<u64>() > 0,
        "1% panics over 20k evaluations must be caught and counted"
    );
    // The same shards, the same caches, after the panics: with the
    // schedule still armed, clean draws answer what the engine answers
    // and repeats hit entries made before and between the panics.
    let (again, _) = resend::decide_resending(server.local_addr(), &reqs[..2_000], 32, 8);
    for (req, answer) in reqs.iter().zip(&again) {
        let resp = answer.as_ref().expect("the shards keep serving");
        if let Ok(resp) = resp {
            let direct = engine
                .match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap());
            assert_eq!(resp.outcome, direct, "post-panic reply for {}", req.url);
        }
    }
    // Close the probe before shutdown — the drain waits for every open
    // connection.
    drop(probe);
    server.shutdown();
}

/// Satellite: `Shutdown` sent behind a burst of pipelined
/// `DecideBatch` lines must drain and answer every queued item — in
/// order — before the acknowledgement and socket close.
#[test]
fn shutdown_mid_batch_drains_every_queued_item_event() {
    let server = Server::start(
        test_engine(),
        &ServerConfig {
            service: ServiceConfig {
                shards: 2,
                cache_capacity: 256,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind server");

    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // Cork 5 batches of 20 plus the Shutdown verb into one burst, so
    // the server sees the shutdown while batches are still queued.
    let reqs = requests(100);
    let mut burst = Vec::new();
    for chunk in reqs.chunks(20) {
        abpd::wire::write_decide_batch(chunk, &mut burst);
        burst.push(b'\n');
    }
    burst.extend_from_slice(b"\"Shutdown\"\n");
    writer.write_all(&burst).expect("write burst");

    let engine = test_engine();
    let mut line = String::new();
    for (i, chunk) in reqs.chunks(20).enumerate() {
        line.clear();
        reader.read_line(&mut line).expect("read batch reply");
        let msg = abpd::wire::parse_server_message(line.trim_end()).expect("parse reply");
        let abpd::protocol::ServerMessage::Batch(resps) = msg else {
            panic!("batch {i} answered with {msg:?}");
        };
        assert_eq!(resps.len(), chunk.len(), "batch {i} short-changed");
        for (req, resp) in chunk.iter().zip(&resps) {
            let direct = engine
                .match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap());
            assert_eq!(resp.outcome, direct, "batch {i} wrong for {}", req.url);
        }
    }
    line.clear();
    reader.read_line(&mut line).expect("read ack");
    assert!(line.contains("ShuttingDown"), "got: {line}");
    line.clear();
    let n = reader.read_line(&mut line).expect("read eof");
    assert_eq!(n, 0, "socket must close after the ack, got: {line}");
    server.join();
}

/// The hot-reload gate: dozens of synthetic whitelist revisions (from
/// the corpus history generator) flow through the `Reload` verb while
/// pipelined load hammers the server — no request fails, no connection
/// drops, and a parity-toggled probe proves no pre-reload decision is
/// ever served from cache. A malformed revision is rejected and rolls
/// back to the serving engine. The parity probe also proves each
/// shard's cache notices the generation bump: it would serve a stale
/// cached decision otherwise.
#[test]
fn reload_under_load_swaps_cleanly_and_rolls_back_event() {
    let corpus = corpus::Corpus::generate(7);
    let store = corpus::build_history(7, &corpus.final_whitelist);
    assert!(store.len() > 50, "history generator too short");

    let server = Server::start(
        test_engine(),
        &ServerConfig {
            max_line_bytes: 8 * 1024 * 1024,
            service: ServiceConfig {
                shards: 2,
                cache_capacity: 4096,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();

    // Background load: pipelined decisions that must never fail while
    // reloads swap generations under them.
    let stop = Arc::new(AtomicBool::new(false));
    let loaders: Vec<_> = (0..2)
        .map(|t| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect loader");
                let reqs = requests(200);
                let mut body = Vec::new();
                let mut rounds = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    // Eight `Decide` lines per write, then their replies.
                    let mut answered = 0;
                    for window in reqs.chunks(8) {
                        body.clear();
                        for req in window {
                            body.push(b'\n');
                            abpd::wire::write_decide(req, &mut body);
                        }
                        client
                            .send_raw(&body[1..])
                            .unwrap_or_else(|e| panic!("loader {t} failed: {e}"));
                        for _ in window {
                            let reply = client
                                .read_reply_raw()
                                .unwrap_or_else(|e| panic!("loader {t} failed: {e}"));
                            let reply = std::str::from_utf8(reply).expect("UTF-8 reply");
                            match abpd::wire::parse_server_message(reply) {
                                Ok(ServerMessage::Decision(_)) => answered += 1,
                                other => panic!("loader {t} failed: {other:?}"),
                            }
                        }
                    }
                    assert_eq!(answered, reqs.len());
                    rounds += 1;
                }
                rounds
            })
        })
        .collect();

    // Drive >50 revisions spread across the history through Reload.
    // The easylist half carries a parity toggle for a fixed probe URL,
    // so a stale cache entry from generation N-1 is detectable at N.
    let mut ctl = Client::connect(addr).expect("connect control");
    let probe = dr(
        "http://ads.adserver.example/unit.js",
        "news.example",
        ResourceType::Script,
    );
    let step = (store.len() / 55).max(1);
    let revisions: Vec<_> = store.iter().step_by(step).take(55).collect();
    assert!(revisions.len() >= 50, "need at least 50 revisions");
    for (i, rev) in revisions.iter().enumerate() {
        let toggle = if i % 2 == 0 {
            "||adserver.example^\n"
        } else {
            "||adserver.example^\n@@||adserver.example^$script\n"
        };
        let report = ctl
            .reload(&[
                ReloadList {
                    source: ListSource::EasyList,
                    content: toggle.to_string(),
                },
                ReloadList {
                    source: ListSource::AcceptableAds,
                    content: rev.content.clone(),
                },
            ])
            .unwrap_or_else(|e| panic!("reload of revision {} failed: {e}", rev.id));
        assert_eq!(report.generation, (i + 1) as u64);
        let want = if i % 2 == 0 {
            Decision::Block
        } else {
            Decision::AllowedByException
        };
        // Ask twice: the second answer comes from the decision cache
        // and must carry the post-reload generation, not a stale one.
        for round in 0..2 {
            let resp = ctl.decide(&probe).expect("probe");
            assert_eq!(
                resp.outcome.decision, want,
                "stale decision after reload {i} (round {round})"
            );
        }
    }

    // A garbage revision must be rejected with the old engine intact.
    let generation = ctl.health().expect("health").generation;
    let err = ctl
        .reload(&[ReloadList {
            source: ListSource::AcceptableAds,
            content: "<html>\n<body>not a filter list</body>\n</html>\n".to_string(),
        }])
        .expect_err("garbage must not reload");
    assert!(err.to_string().contains("reload rejected"), "{err}");
    let h = ctl.health().expect("health");
    assert_eq!(h.generation, generation, "failed reload must not swap");
    assert_eq!(h.state, HealthState::Ok);
    assert_eq!(h.reloads, revisions.len() as u64);

    stop.store(true, Ordering::Relaxed);
    for loader in loaders {
        let rounds = loader.join().expect("loader must not fail");
        assert!(rounds > 0, "load must have run during the reload storm");
    }
    drop(ctl);
    server.shutdown();
}

const STATE_WL_V1: &str = "@@||adzerk.net/reddit/$subdocument,domain=reddit.com\n";
const STATE_WL_V2: &str = "@@||adzerk.net/reddit/$subdocument,domain=reddit.com\n\
                           @@||doubleclick.net^$script,domain=ok.example\n";

fn state_lists(wl: &str) -> Vec<ReloadList> {
    vec![
        ReloadList {
            source: ListSource::EasyList,
            content: "||doubleclick.net^\n||adzerk.net^$third-party\n/banner/ads/*\n".to_string(),
        },
        ReloadList {
            source: ListSource::AcceptableAds,
            content: wl.to_string(),
        },
    ]
}

fn state_config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        service: ServiceConfig {
            shards: 2,
            cache_capacity: 256,
            state_dir: Some(dir.to_path_buf()),
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// The durability gate: kill a serving daemon abruptly (socket-slam,
/// no drain, no shutdown) after a hot reload, then bring it back from
/// its on-disk snapshot. The respawn must serve the *reloaded* state —
/// checksum-equal and decision-identical to the pre-kill server — not
/// the seed lists it originally booted with.
#[test]
fn killed_server_recovers_reloaded_state_from_snapshot() {
    let dir = std::env::temp_dir().join(format!("abpd-chaos-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = state_config(&dir);
    let server = Server::start_with_lists(state_lists(STATE_WL_V1), &config).expect("start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let probe = dr(
        "http://ad.doubleclick.net/x.js",
        "ok.example",
        ResourceType::Script,
    );
    assert_eq!(
        client.decide(&probe).expect("probe v1").outcome.decision,
        Decision::Block
    );
    client
        .reload(&state_lists(STATE_WL_V2))
        .expect("reload to v2");
    assert_eq!(
        client.decide(&probe).expect("probe v2").outcome.decision,
        Decision::AllowedByException
    );
    let reqs = requests(500);
    let before: Vec<_> = reqs
        .iter()
        .map(|r| client.decide(r).expect("decide pre-kill").outcome)
        .collect();

    // Abrupt death: no drain, the acked reload must already be on disk.
    drop(client);
    server.kill();

    let recovered = abpd::state::recover(&dir).expect("snapshot must recover after a kill");
    assert_eq!(
        recovered.list_checksum,
        abpd::serving_checksum(&state_lists(STATE_WL_V2)),
        "snapshot must hold the acked v2 state, not the boot state"
    );
    let respawn = Server::start_with_lists(recovered.lists, &config).expect("respawn");
    let mut client = Client::connect(respawn.local_addr()).expect("reconnect");
    assert_eq!(
        client
            .decide(&probe)
            .expect("probe respawn")
            .outcome
            .decision,
        Decision::AllowedByException,
        "the reloaded exception must survive the crash"
    );
    let after: Vec<_> = reqs
        .iter()
        .map(|r| client.decide(r).expect("decide post-recovery").outcome)
        .collect();
    assert_eq!(before, after, "recovered decisions diverge from pre-kill");
    assert_eq!(
        client.health().expect("health").list_checksum,
        abpd::serving_checksum(&state_lists(STATE_WL_V2))
    );
    drop(client);
    respawn.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted snapshot must be *detected* (typed error, never a panic
/// or a silently-wrong engine) and the documented fallback — booting
/// from seed lists — must serve; the boot immediately reseals a good
/// snapshot over the corrupt file.
#[test]
fn corrupt_snapshot_is_rejected_and_seed_boot_reseals() {
    let dir = std::env::temp_dir().join(format!("abpd-chaos-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = state_config(&dir);
    let server = Server::start_with_lists(state_lists(STATE_WL_V1), &config).expect("start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .reload(&state_lists(STATE_WL_V2))
        .expect("reload to v2");
    drop(client);
    server.kill();

    // One flipped bit anywhere breaks the end-to-end checksum.
    let path = dir.join("serving.snap");
    let mut bytes = std::fs::read(&path).expect("snapshot exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("corrupt snapshot");
    match abpd::state::recover(&dir).expect_err("corruption must be detected") {
        abpd::SnapshotError::ChecksumMismatch { .. } | abpd::SnapshotError::Corrupt(_) => {}
        other => panic!("wrong error for a flipped bit: {other}"),
    }

    // The daemon's recovery ladder lands on seed lists and keeps
    // serving; its boot snapshot replaces the corrupt file.
    let fallback = Server::start_with_lists(state_lists(STATE_WL_V1), &config).expect("seed boot");
    let mut client = Client::connect(fallback.local_addr()).expect("connect fallback");
    let probe = dr(
        "http://ad.doubleclick.net/x.js",
        "ok.example",
        ResourceType::Script,
    );
    assert_eq!(
        client.decide(&probe).expect("seed decide").outcome.decision,
        Decision::Block,
        "seed fallback must serve seed decisions"
    );
    let resealed = abpd::state::recover(&dir).expect("boot persist reseals the snapshot");
    assert_eq!(
        resealed.list_checksum,
        abpd::serving_checksum(&state_lists(STATE_WL_V1))
    );
    drop(client);
    fallback.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: a dead server must produce a typed timeout, not a hang.
/// The listener accepts and then never replies; the client's reply
/// timeout fires, the connection is marked broken, and later calls
/// fail fast instead of re-using the wedged socket.
#[test]
fn client_times_out_on_silent_server() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind silent listener");
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        // Accept and hold the socket open without ever writing.
        let conn = listener.accept().map(|(s, _)| s);
        std::thread::sleep(Duration::from_secs(2));
        drop(conn);
    });

    let mut client = Client::connect(addr).expect("connect");
    client
        .reply_timeout(Some(Duration::from_millis(100)))
        .expect("set timeout");
    let started = Instant::now();
    let err = client
        .decide(&dr(
            "http://x.example/a.js",
            "x.example",
            ResourceType::Script,
        ))
        .expect_err("silent server must time out");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "timeout took {:?}",
        started.elapsed()
    );
    assert!(client.is_broken(), "timeout must poison the connection");
    let err = client
        .decide(&dr(
            "http://x.example/a.js",
            "x.example",
            ResourceType::Script,
        ))
        .expect_err("broken connection must fail fast");
    assert_eq!(err.kind(), std::io::ErrorKind::NotConnected, "{err}");
    hold.join().unwrap();
}
