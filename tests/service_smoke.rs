//! End-to-end smoke test: a real abpd server over localhost TCP,
//! driven through the client library with synthesized browsing
//! traffic, checked against direct engine evaluation. Every scenario
//! runs once, on the event-driven reactors (the `_event` in the test
//! names), the daemon's one socket front.

use abp::{Engine, FilterList, ListSource, Request, ResourceType};
use abpd::{Client, DecisionRequest, Server, ServerConfig, ServiceConfig};

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

fn start_server() -> Server {
    let config = ServerConfig {
        service: ServiceConfig {
            shards: 2,
            cache_capacity: 1024,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    Server::start(test_engine(), &config).expect("bind server")
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

#[test]
fn single_decisions_over_tcp_event() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");

    let engine = test_engine();
    let cases = [
        dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        ),
        dr(
            "http://static.adzerk.net/reddit/ads.html",
            "www.reddit.com",
            ResourceType::Subdocument,
        ),
        dr(
            "http://example.com/logo.png",
            "example.com",
            ResourceType::Image,
        ),
    ];
    for case in &cases {
        let resp = client.decide(case).expect("decide");
        let direct = engine
            .match_request(&Request::new(&case.url, &case.document, case.resource_type).unwrap());
        assert_eq!(resp.outcome, direct);
        assert!(!resp.cached);
    }
    // Replays hit the cache with identical outcomes: same connection,
    // same shard, so the replay must hit.
    for case in &cases {
        let resp = client.decide(case).expect("decide again");
        assert!(resp.cached);
    }
    drop(client);
    server.shutdown();
}

#[test]
fn batches_preserve_order_and_feed_stats_event() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let batch: Vec<DecisionRequest> = (0..40)
        .map(|i| {
            dr(
                &format!("http://host{i}.doubleclick.net/unit{i}.js"),
                "news.example",
                ResourceType::Script,
            )
        })
        .collect();
    let resps = client.decide_batch(&batch).expect("batch");
    assert_eq!(resps.len(), batch.len());
    let engine = test_engine();
    for (req, resp) in batch.iter().zip(&resps) {
        let direct = engine
            .match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap());
        assert_eq!(resp.outcome, direct, "order preserved for {}", req.url);
    }

    let resps2 = client.decide_batch(&batch).expect("batch again");
    assert!(resps2.iter().all(|r| r.cached));

    // One row per shard behind either front.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 2 * batch.len() as u64);
    assert_eq!(stats.cache_hits, batch.len() as u64);
    assert_eq!(stats.blocks, 2 * batch.len() as u64);
    assert_eq!(stats.shards.len(), 2);
    assert_eq!(
        stats.requests,
        stats.shards.iter().map(|s| s.requests).sum::<u64>()
    );
    drop(client);
    server.shutdown();
}

#[test]
fn malformed_lines_get_error_replies_event() {
    use std::io::{BufRead, BufReader, Write};

    let server = start_server();
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    writeln!(writer, "this is not json").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("Error"), "got: {line}");

    // The connection survives the error.
    writeln!(writer, "\"Ping\"").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("Pong"), "got: {line}");
    drop((reader, writer));
    server.shutdown();
}

#[test]
fn oversized_lines_get_bounded_error_and_resync_event() {
    use std::io::{BufRead, BufReader, Write};

    let config = ServerConfig {
        max_line_bytes: 256,
        service: ServiceConfig {
            shards: 1,
            cache_capacity: 64,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(test_engine(), &config).expect("bind server");
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let huge = "x".repeat(5000);
    writeln!(writer, "{huge}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("Error"), "got: {line}");
    assert!(line.contains("5000"), "error names the byte count: {line}");

    // The stream resynchronized at the newline; the connection lives.
    writeln!(writer, "\"Ping\"").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("Pong"), "got: {line}");
    drop((reader, writer));
    server.shutdown();
}

#[test]
fn shutdown_verb_stops_the_server_event() {
    let server = start_server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    client
        .decide(&dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        ))
        .expect("decide");
    client.shutdown_server().expect("shutdown verb");
    drop(client);
    server.join(); // returns only because the verb stopped the acceptor

    // New connections are refused (or at least never answered).
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.ping().is_err(), "server should be gone"),
    }
}

#[test]
fn synthesized_traffic_round_trips_event() {
    let server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let reqs: Vec<DecisionRequest> = websim::traffic::TrafficGen::new(2015)
        .samples()
        .take(300)
        .map(|s| abpd::request_of_sample(&s))
        .collect();
    let engine = test_engine();
    for chunk in reqs.chunks(50) {
        let resps = client.decide_batch(chunk).expect("traffic batch");
        for (req, resp) in chunk.iter().zip(&resps) {
            let direct = engine
                .match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap());
            assert_eq!(resp.outcome, direct);
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, reqs.len() as u64);
    drop(client);
    server.shutdown();
}

/// One dispatch for every line: the same scripted bytes — all eight
/// verbs, a batch on either side of the old 512-element pool threshold,
/// and every way a line can be wrong — get a reply per non-blank line,
/// in order, each the right one.
#[test]
fn scripted_stream_gets_the_right_reply_for_every_line() {
    use abpd::protocol::{ReloadDeltaList, ReloadList, ServerMessage};
    use std::io::{Read, Write};

    let batch = |n: usize, salt: &str| -> Vec<DecisionRequest> {
        (0..n)
            .map(|i| {
                dr(
                    &format!("http://host{}.doubleclick.net/{salt}{i}.js", i % 13),
                    "news.example",
                    ResourceType::Script,
                )
            })
            .collect()
    };
    let line = |write: &dyn Fn(&mut Vec<u8>)| {
        let mut out = Vec::new();
        write(&mut out);
        out.push(b'\n');
        out
    };
    let b600 = batch(600, "a");
    let b2000 = batch(2000, "b");
    let probe = dr(
        "http://ad.doubleclick.net/x.js",
        "example.com",
        ResourceType::Script,
    );
    let wl_v1 = "@@||adzerk.net/reddit/$subdocument,domain=reddit.com\n";
    let wl_v2 =
        "@@||adzerk.net/reddit/$subdocument,domain=reddit.com\n@@||ad.doubleclick.net/x.js\n";
    let reload = [
        ReloadList {
            source: ListSource::EasyList,
            content: "||doubleclick.net^\n||adzerk.net^$third-party\n".to_string(),
        },
        ReloadList {
            source: ListSource::AcceptableAds,
            content: wl_v1.to_string(),
        },
    ];
    let delta = [ReloadDeltaList {
        source: ListSource::AcceptableAds,
        delta: abpdelta::encode(wl_v1, wl_v2),
    }];

    let script: Vec<Vec<u8>> = vec![
        b"\"Ping\"\n".to_vec(),
        line(&|out| abpd::wire::write_decide(&probe, out)),
        line(&|out| abpd::wire::write_decide_batch(&b600, out)),
        line(&|out| abpd::wire::write_decide_batch(&b2000, out)),
        line(&|out| abpd::wire::write_decide_batch(&b600, out)), // all hits
        b"this is not json\n".to_vec(),
        b"\xff\xfe\"Ping\"\n".to_vec(), // not UTF-8
        b"\"Ping\"\r\n".to_vec(),
        b"\n  \r\n".to_vec(), // blank lines: no reply owed
        line(&|out| out.extend(std::iter::repeat_n(b'x', 300_000))), // over the limit
        b"\"Pi".to_vec(),     // one line ...
        b"ng\"\n".to_vec(),   // ... in two writes
        line(&|out| {
            let bad = dr("not a url", "example.com", ResourceType::Image);
            abpd::wire::write_decide(&bad, out)
        }),
        // A delta before any body is held: a base mismatch.
        line(&|out| abpd::wire::write_reload_delta(&delta, out)),
        line(&|out| abpd::wire::write_reload(&reload, out)),
        line(&|out| abpd::wire::write_reload_delta(&delta, out)),
        line(&|out| abpd::wire::write_decide(&probe, out)), // re-decided, now allowed
        b"\"Stats\"\n".to_vec(),
        b"\"Health\"\n".to_vec(),
        b"\"Shutdown\"\n".to_vec(),
    ];

    let config = ServerConfig {
        max_line_bytes: 256 * 1024,
        service: ServiceConfig {
            shards: 1,
            cache_capacity: 8192,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::start(test_engine(), &config).expect("bind server");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut received = String::new();
    std::thread::scope(|scope| {
        // Write from a second thread: the big batches' replies fill the
        // socket long before the script is through.
        let mut writer = stream.try_clone().unwrap();
        let script = &script;
        scope.spawn(move || {
            for chunk in script {
                writer.write_all(chunk).expect("write script");
                // Chunk boundaries are deliberate (one splits a line):
                // give the server time to see them as separate reads.
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        stream.read_to_string(&mut received).expect("read replies");
    });
    server.join(); // the script ends in `Shutdown`

    // A reply per non-blank line, in order, the batches answered with
    // decisions whatever their size.
    let replies: Vec<&str> = received.lines().collect();
    let batch_reply = |line: &str, reqs: &[DecisionRequest], cached: bool| {
        let engine = test_engine();
        let Ok(ServerMessage::Batch(resps)) = abpd::wire::parse_server_message(line) else {
            panic!("not a Batch: {}", &line[..line.len().min(160)]);
        };
        assert_eq!(resps.len(), reqs.len());
        for (req, resp) in reqs.iter().zip(&resps) {
            let direct = engine
                .match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap());
            assert_eq!(resp.outcome, direct);
            assert_eq!(resp.cached, cached, "{}", req.url);
        }
    };
    assert_eq!(replies.len(), 18, "{replies:#?}");
    assert_eq!(replies[0], "\"Pong\"");
    assert!(replies[1].contains("\"Block\""), "{}", replies[1]);
    batch_reply(replies[2], &b600, false);
    batch_reply(replies[3], &b2000, false);
    batch_reply(replies[4], &b600, true);
    assert!(replies[5].starts_with("{\"Error\":\"unparseable message"));
    assert!(replies[6].contains("not UTF-8"), "{}", replies[6]);
    assert_eq!(replies[7], "\"Pong\"");
    assert!(
        replies[8].contains("300000 bytes exceeds"),
        "{}",
        replies[8]
    );
    assert_eq!(replies[9], "\"Pong\"");
    assert!(replies[10].contains("bad url"), "{}", replies[10]);
    assert!(replies[11].starts_with("{\"ReloadBaseMismatch\""));
    assert!(replies[12].starts_with("{\"Reloaded\":{\"generation\":1,"));
    assert!(replies[13].starts_with("{\"Reloaded\":{\"generation\":2,"));
    assert!(replies[14].contains("\"AllowedByException\""));
    assert!(replies[14].contains("\"cached\":false"), "{}", replies[14]);
    assert!(replies[15].starts_with("{\"Stats\":{\"requests\":3202,"));
    assert!(replies[16].starts_with("{\"Health\":{\"state\":\"ok\""));
    assert!(received.ends_with("\"ShuttingDown\"\n"));
}

/// The slow-loris shape on the live server: a `DecideBatch` line
/// that arrives in a thousand segments is framed once its newline does
/// and answered byte for byte like the same line sent in one write
/// (the reactor resumes its newline search where the last segment
/// ended; how the line was cut up shows nowhere).
#[test]
fn a_line_in_a_thousand_writes_is_answered_like_one_write_event() {
    use abpd::protocol::ServerMessage;
    use std::io::{BufRead, BufReader, Write};

    let server = start_server();
    let mut writer = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    writer.set_nodelay(true).unwrap(); // every write its own segment
    writer
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());

    let reqs: Vec<DecisionRequest> = (0..256)
        .map(|i| {
            dr(
                &format!("http://host{}.doubleclick.net/banner/ads/{i}.js", i % 7),
                "news.example",
                ResourceType::Script,
            )
        })
        .collect();
    let mut line = Vec::new();
    abpd::wire::write_decide_batch(&reqs, &mut line);
    line.push(b'\n');
    let mut ask = |writes: usize| {
        for i in 0..writes {
            let piece = i * line.len() / writes..(i + 1) * line.len() / writes;
            writer.write_all(&line[piece]).expect("write piece");
        }
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        reply
    };
    let cold = ask(1);
    let whole = ask(1);
    let dribbled = ask(1000);
    assert!(dribbled == whole, "segmentation changed the answer");
    assert_ne!(cold, whole, "the second pass should have been cache hits");

    let Ok(ServerMessage::Batch(resps)) = abpd::wire::parse_server_message(dribbled.trim_end())
    else {
        panic!("not a Batch: {}", &dribbled[..dribbled.len().min(160)]);
    };
    let engine = test_engine();
    assert_eq!(resps.len(), reqs.len());
    for (req, resp) in reqs.iter().zip(&resps) {
        let direct = engine
            .match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap());
        assert_eq!(resp.outcome, direct);
        assert!(resp.cached, "{}", req.url);
    }
    drop((reader, writer));
    server.shutdown();
}
