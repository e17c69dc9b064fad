//! Fleet integration: a real router in front of real shards over
//! localhost TCP. Covers router-vs-direct-engine equivalence, delta
//! reloads converging across the fleet, stale-delta base mismatch with
//! the full-reload fallback, abrupt shard death with hedging plus
//! respawn via [`Proxy::update_backend`], and the splice data path:
//! replies that are byte for byte what the shards encoded.

use abp::{Decision, Engine, FilterList, ListSource, Request, ResourceType};
use abpd::protocol::{ReloadDeltaList, ReloadList};
use abpd::{
    wire, Client, DecisionRequest, DecisionResponse, ReloadDeltaOutcome, Server, ServerConfig,
    ServiceConfig,
};
use abpd_proxy::{Proxy, ProxyConfig};
use std::time::Duration;

const EASYLIST: &str = "||doubleclick.net^\n||adzerk.net^$third-party\n/banner/ads/*\n";
const WHITELIST_V1: &str = "@@||adzerk.net/reddit/$subdocument,domain=reddit.com\n";
const WHITELIST_V2: &str = "@@||adzerk.net/reddit/$subdocument,domain=reddit.com\n\
                            @@||doubleclick.net^$script,domain=ok.example\n";

fn lists(wl: &str) -> Vec<ReloadList> {
    vec![
        ReloadList {
            source: ListSource::EasyList,
            content: EASYLIST.to_string(),
        },
        ReloadList {
            source: ListSource::AcceptableAds,
            content: wl.to_string(),
        },
    ]
}

fn shard_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_line_bytes: 1024 * 1024,
        service: ServiceConfig {
            shards: 2,
            cache_capacity: 256,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// N shards serving `wl` plus a router in front of them. Shards sit in
/// `Option`s so tests can take one out and kill it.
fn start_fleet(n: usize, wl: &str) -> (Vec<Option<Server>>, Proxy) {
    start_fleet_cfg(n, wl, |_| {})
}

/// Like [`start_fleet`], but lets the test turn the router's knobs
/// (breaker threshold, hedge budget, probe cadence) before it starts.
fn start_fleet_cfg(
    n: usize,
    wl: &str,
    tweak: impl Fn(&mut ProxyConfig),
) -> (Vec<Option<Server>>, Proxy) {
    let shards: Vec<Option<Server>> = (0..n)
        .map(|_| Some(Server::start_with_lists(lists(wl), &shard_config()).expect("start shard")))
        .collect();
    let mut config = ProxyConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: shards
            .iter()
            .map(|s| s.as_ref().unwrap().local_addr().to_string())
            .collect(),
        probe_interval: Duration::from_millis(50),
        reply_timeout: Duration::from_secs(5),
        ..ProxyConfig::default()
    };
    tweak(&mut config);
    let proxy = Proxy::start(&config).expect("start proxy");
    (shards, proxy)
}

/// Poll `cond` for up to five seconds; panic with `what` on timeout.
fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    for _ in 0..200 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("timed out waiting for {what}");
}

/// `Shutdown` through the router fans out to every shard; joining
/// everything proves nothing wedges on teardown.
fn shutdown_fleet(mut shards: Vec<Option<Server>>, proxy: Proxy, mut client: Client) {
    client.shutdown_server().expect("shutdown fleet");
    drop(client);
    proxy.join();
    for s in shards.iter_mut() {
        if let Some(s) = s.take() {
            s.join();
        }
    }
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

/// A spread of requests whose routing keys land on every slot of a
/// small ring with overwhelming probability.
fn sample_requests() -> Vec<DecisionRequest> {
    let hosts = [
        "ad.doubleclick.net",
        "static.adzerk.net",
        "cdn.example.com",
        "img.example.org",
    ];
    let docs = [
        "example.com",
        "www.reddit.com",
        "news.example",
        "ok.example",
    ];
    let paths = [
        "x.js",
        "reddit/ads.html",
        "banner/ads/a.gif",
        "logo.png",
        "frame.html",
    ];
    let types = [
        ResourceType::Script,
        ResourceType::Subdocument,
        ResourceType::Image,
        ResourceType::Other,
    ];
    let mut reqs = Vec::new();
    for (i, h) in hosts.iter().enumerate() {
        for d in docs {
            for (j, p) in paths.iter().enumerate() {
                reqs.push(dr(
                    &format!("http://{h}/{p}"),
                    d,
                    types[(i + j) % types.len()],
                ));
            }
        }
    }
    reqs
}

/// The in-process oracle: the engine every shard of a `WHITELIST_V1`
/// fleet compiles.
fn engine_v1() -> Engine {
    Engine::from_lists([
        &FilterList::parse(ListSource::EasyList, EASYLIST),
        &FilterList::parse(ListSource::AcceptableAds, WHITELIST_V1),
    ])
}

#[test]
fn router_matches_direct_engine() {
    let (shards, proxy) = start_fleet(3, WHITELIST_V1);
    let mut client = Client::connect(proxy.local_addr()).expect("connect");
    client.ping().expect("ping");

    let engine = engine_v1();
    let reqs = sample_requests();

    // Singles route one key at a time.
    for req in &reqs {
        let resp = client.decide(req).expect("decide");
        let direct = engine
            .match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap());
        assert_eq!(resp.outcome, direct, "router diverges for {}", req.url);
    }

    // One batch scatters across shards and must merge back in order.
    let batch = client.decide_batch(&reqs).expect("batch");
    assert_eq!(batch.len(), reqs.len());
    for (req, resp) in reqs.iter().zip(&batch) {
        let direct = engine
            .match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap());
        assert_eq!(resp.outcome, direct, "batch diverges for {}", req.url);
    }

    // The ring spread the keys: every shard answered something.
    for (slot, b) in proxy.backend_report().iter().enumerate() {
        assert!(b.forwarded > 0, "shard {slot} answered nothing");
    }
    shutdown_fleet(shards, proxy, client);
}

#[test]
fn delta_reload_converges_and_flips_decisions() {
    let (shards, proxy) = start_fleet(3, WHITELIST_V1);
    let mut client = Client::connect(proxy.local_addr()).expect("connect");

    let probe = dr(
        "http://ad.doubleclick.net/x.js",
        "ok.example",
        ResourceType::Script,
    );
    assert_eq!(
        client.decide(&probe).expect("decide").outcome.decision,
        Decision::Block,
        "v1 must block the probe"
    );

    // Ship v1 -> v2 as a delta; the router fans it out to every shard.
    let update = [ReloadDeltaList {
        source: ListSource::AcceptableAds,
        delta: abpdelta::encode(WHITELIST_V1, WHITELIST_V2),
    }];
    match client.reload_delta(&update).expect("delta reload") {
        ReloadDeltaOutcome::Applied(report) => assert!(report.generation >= 1),
        ReloadDeltaOutcome::BaseMismatch(m) => panic!("unexpected base mismatch: {m:?}"),
    }

    // Aggregated health only reports a nonzero checksum when every
    // shard serves the same bodies — i.e. the fleet converged.
    let expected = abpd::serving_checksum(&lists(WHITELIST_V2));
    let health = client.health().expect("health");
    assert_ne!(expected, 0);
    assert_eq!(
        health.list_checksum, expected,
        "fleet diverged after delta reload"
    );

    // And the patched exception is live on whichever shard answers.
    assert_eq!(
        client
            .decide(&probe)
            .expect("decide after reload")
            .outcome
            .decision,
        Decision::AllowedByException,
        "v2 exception must be serving"
    );
    shutdown_fleet(shards, proxy, client);
}

#[test]
fn stale_delta_reports_base_mismatch_and_full_reload_resyncs() {
    let (shards, proxy) = start_fleet(2, WHITELIST_V2);
    let mut client = Client::connect(proxy.local_addr()).expect("connect");

    // Encoded against v1, but the fleet serves v2: must be refused
    // whole with the serving checksum, never half-applied.
    let stale = [ReloadDeltaList {
        source: ListSource::AcceptableAds,
        delta: abpdelta::encode(WHITELIST_V1, "@@||example.org^\n"),
    }];
    match client.reload_delta(&stale).expect("delta reload") {
        ReloadDeltaOutcome::BaseMismatch(m) => {
            assert_eq!(m.source, ListSource::AcceptableAds);
            assert_eq!(m.serving_check, abpdelta::strong_checksum(WHITELIST_V2));
        }
        ReloadDeltaOutcome::Applied(r) => panic!("stale delta applied: {r:?}"),
    }

    // Fleet state is untouched by the refused delta...
    let health = client.health().expect("health");
    assert_eq!(
        health.list_checksum,
        abpd::serving_checksum(&lists(WHITELIST_V2))
    );

    // ...and the documented fallback — one full reload — resyncs.
    client
        .reload(&lists(WHITELIST_V1))
        .expect("fallback reload");
    let health = client.health().expect("health");
    assert_eq!(
        health.list_checksum,
        abpd::serving_checksum(&lists(WHITELIST_V1))
    );
    shutdown_fleet(shards, proxy, client);
}

#[test]
fn killed_shard_hedges_and_respawned_shard_rejoins() {
    let (mut shards, proxy) = start_fleet(3, WHITELIST_V1);
    let mut client = Client::connect(proxy.local_addr()).expect("connect");
    let reqs = sample_requests();
    for req in &reqs {
        client.decide(req).expect("decide with full fleet");
    }

    // Abrupt death: the shard's sockets die mid-conversation, exactly
    // like a killed process. Every request must still be answered —
    // the router hedges slot 1's keys to their walk successors.
    shards[1].take().unwrap().kill();
    for req in &reqs {
        client.decide(req).expect("decide with a dead shard");
    }
    let report = proxy.backend_report();
    assert!(!report[1].healthy, "dead shard still marked healthy");
    assert!(
        report[1].hedged_away > 0,
        "no request was hedged off the dead shard"
    );

    // Respawn on a fresh port; the slot keeps its keyspace, so after
    // `update_backend` the ring sends its old keys straight back.
    let replacement =
        Server::start_with_lists(lists(WHITELIST_V1), &shard_config()).expect("respawn shard");
    let new_addr = replacement.local_addr().to_string();
    shards[1] = Some(replacement);
    proxy.update_backend(1, new_addr);
    let report = proxy.backend_report();
    assert!(report[1].healthy, "respawned shard not probed healthy");

    let before = report[1].forwarded;
    for req in &reqs {
        client.decide(req).expect("decide after respawn");
    }
    let report = proxy.backend_report();
    assert!(
        report[1].forwarded > before,
        "respawned shard gets no traffic"
    );

    // The respawn rejoined at the same serving state: aggregated
    // health converges on the common checksum again.
    let health = client.health().expect("health");
    assert_eq!(
        health.list_checksum,
        abpd::serving_checksum(&lists(WHITELIST_V1))
    );
    shutdown_fleet(shards, proxy, client);
}

#[test]
fn batch_survives_each_shard_killed() {
    let engine = engine_v1();
    let reqs = sample_requests();
    for victim in 0..3 {
        // With live connections to the victim (a shard dying
        // mid-conversation) and without (one already gone).
        for warm in [true, false] {
            let (mut shards, proxy) = start_fleet_cfg(3, WHITELIST_V1, |c| {
                // The batch itself must discover the death: no prober
                // to route around it first, no breaker to open.
                c.probe_interval = Duration::from_secs(3600);
                c.breaker_failure_threshold = 1_000_000;
            });
            let mut client = Client::connect(proxy.local_addr()).expect("connect");
            if warm {
                client.decide_batch(&reqs).expect("batch with full fleet");
            }
            shards[victim].take().unwrap().kill();

            // No retrying client: the first batch after the kill has
            // to come back whole, each sub-batch's answers under its
            // own requests.
            let batch = client
                .decide_batch(&reqs)
                .unwrap_or_else(|e| panic!("victim {victim}, warm {warm}: {e}"));
            assert_eq!(batch.len(), reqs.len());
            for (req, resp) in reqs.iter().zip(&batch) {
                let direct = engine.match_request(
                    &Request::new(&req.url, &req.document, req.resource_type).unwrap(),
                );
                assert_eq!(
                    resp.outcome, direct,
                    "victim {victim}, warm {warm}: wrong answer under {}",
                    req.url
                );
            }
            let report = proxy.backend_report();
            assert!(
                report[victim].hedged_away > 0,
                "victim {victim}, warm {warm}: nothing was hedged"
            );
            assert!(!report[victim].healthy);

            drop(client);
            proxy.shutdown();
            for shard in shards.iter_mut().filter_map(Option::take) {
                let mut direct = Client::connect(shard.local_addr()).expect("connect survivor");
                direct.shutdown_server().expect("shutdown survivor");
                drop(direct);
                shard.join();
            }
        }
    }
}

#[test]
fn spliced_replies_are_the_shards_bytes() {
    let (shards, proxy) = start_fleet(3, WHITELIST_V1);
    let engine = engine_v1();
    let mut client = Client::connect(proxy.local_addr()).expect("connect");

    // Nothing here is laid out the way `write_decide_batch` would:
    // escaped slashes, fields in any order, explicit nulls, a sitekey,
    // tenant masks, fields no parser knows, loose whitespace.
    let elements = [
        r#"{"url":"http:\/\/ad.doubleclick.net\/x.js","document":"example.com","resource_type":"Script"}"#,
        r#"{ "resource_type" : "Subdocument", "sitekey" : "KEY", "document":"www.reddit.com","url":"http://static.adzerk.net/reddit/ads.html" }"#,
        r#"{"tenant":1,"url":"http://static.adzerk.net/reddit/ads.html","document":"www.reddit.com","resource_type":"Subdocument","sitekey":null}"#,
        r#"{"url":"http://static.adzerk.net/reddit/ads.html","future":{"a":["]},{",1e3]},"document":"www.reddit.com","resource_type":"Subdocument","tenant":3}"#,
        r#"{"url":"http://cdn.example.com/banner/ads/\u0061.gif","document":"news.example","resource_type":"Image","tenant":null}"#,
        r#"{"url":"http://img.example.org/logo.png","document":"ok.example","resource_type":"Other"}"#,
    ];
    // What a shard encodes for each: the direct engine outcome of the
    // element as the shards' own parser reads it, never cached (every
    // key is new to the fleet).
    let expected: Vec<DecisionResponse> = elements
        .iter()
        .map(|element| {
            let line = format!("{{\"Decide\":{element}}}");
            let req = match wire::parse_client_message(&line).expect("valid element") {
                wire::ClientMessageRef::Decide(r) => r.to_owned_request(),
                other => panic!("not a Decide: {other:?}"),
            };
            let mut request = Request::new(&req.url, &req.document, req.resource_type).unwrap();
            if let Some(k) = req.sitekey {
                request = request.with_sitekey(k);
            }
            DecisionResponse {
                outcome: engine.match_request_masked(&request, req.tenant.unwrap_or(u64::MAX)),
                cached: false,
            }
        })
        .collect();
    assert_eq!(expected[0].outcome.decision, Decision::Block);
    assert_ne!(
        expected[2].outcome, expected[3].outcome,
        "masks must matter"
    );

    let batch_line = format!("  {{\"DecideBatch\" :[{} ]}}", elements.join(" ,\t"));
    client.send_raw(batch_line.as_bytes()).expect("send batch");
    let mut want = Vec::new();
    wire::write_batch_reply(&expected, &mut want);
    assert_eq!(
        String::from_utf8_lossy(client.read_reply_raw().expect("batch reply")),
        String::from_utf8_lossy(&want)
    );

    // A single `Decide` goes out and comes back verbatim too; its key
    // was just decided, so the owning shard answers from its cache.
    let single_line = format!("{{\"Decide\":{}}}", elements[3]);
    client
        .send_raw(single_line.as_bytes())
        .expect("send single");
    want.clear();
    wire::write_decision_reply(
        &DecisionResponse {
            cached: true,
            ..expected[3].clone()
        },
        &mut want,
    );
    assert_eq!(
        String::from_utf8_lossy(client.read_reply_raw().expect("single reply")),
        String::from_utf8_lossy(&want)
    );

    // An empty batch scatters to nobody and merges to an empty reply.
    client
        .send_raw(b"{\"DecideBatch\":[]}")
        .expect("send empty");
    assert_eq!(
        client.read_reply_raw().expect("empty reply"),
        b"{\"Batch\":[]}"
    );

    let forwarded: u64 = proxy.backend_report().iter().map(|b| b.forwarded).sum();
    assert_eq!(forwarded, elements.len() as u64 + 1);
    shutdown_fleet(shards, proxy, client);
}

#[test]
fn misbehaving_shard_replies_become_bounded_typed_errors() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    // A shard that probes healthy but answers every decision line
    // with something other than the decisions asked for.
    let mut huge_stats = Vec::new();
    wire::write_stats_reply(
        &abpd::StatsReport {
            shards: vec![Default::default(); 5_000],
            ..Default::default()
        },
        &mut huge_stats,
    );
    let wrong: Arc<Vec<Vec<u8>>> = Arc::new(vec![
        b"{\"Batch\":[]}".to_vec(),
        huge_stats,
        format!("{{\"{}\":1}}", "k".repeat(100_000)).into_bytes(),
        b"{\"Decision\":{\"cached\":false}}".to_vec(),
    ]);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicUsize::new(0));
    let serve = |stream: TcpStream, wrong: &[Vec<u8>], served: &AtomicUsize| {
        let mut writer = stream.try_clone().expect("clone");
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { return };
            let mut out = Vec::new();
            if line == "\"Health\"" {
                wire::write_health_reply(
                    &abpd::HealthReport {
                        state: abpd::HealthState::Ok,
                        generation: 0,
                        reloads: 0,
                        shard_restarts: Vec::new(),
                        shed: 0,
                        deadline_timeouts: 0,
                        list_checksum: 0,
                        distinct_tenants: 0,
                    },
                    &mut out,
                );
            } else {
                let nth = served.fetch_add(1, Ordering::SeqCst);
                out.extend_from_slice(&wrong[nth % wrong.len()]);
            }
            out.push(b'\n');
            if writer.write_all(&out).is_err() {
                return;
            }
        }
    };
    let acceptor = {
        let (stop, served, wrong) = (stop.clone(), served.clone(), wrong.clone());
        std::thread::spawn(move || {
            let mut conns = Vec::new();
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let (served, wrong) = (served.clone(), wrong.clone());
                let stream = stream.expect("accept");
                conns.push(std::thread::spawn(move || serve(stream, &wrong, &served)));
            }
            for c in conns {
                c.join().expect("fake shard connection");
            }
        })
    };

    let proxy = Proxy::start(&ProxyConfig {
        backends: vec![addr.to_string()],
        reply_timeout: Duration::from_secs(5),
        ..ProxyConfig::default()
    })
    .expect("start proxy");
    let mut client = Client::connect(proxy.local_addr()).expect("connect");
    let reqs = &sample_requests()[..4];
    for _ in 0..wrong.len() {
        let e = client
            .decide_batch(reqs)
            .expect_err("a reply that is not the batch");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        assert!(!abpd::client::is_overloaded(&e));
        assert!(
            e.to_string().len() <= 256,
            "unbounded: {} bytes",
            e.to_string().len()
        );
        // The error is an answer, not a tear: the connection is still
        // in step, and so is the proxy's to the shard.
        client.ping().expect("ping after a rejected batch");
    }
    let e = client.decide(&reqs[0]).expect_err("a Batch for a Decide");
    assert!(
        e.to_string().contains("expected a Single reply of 1"),
        "{e}"
    );
    assert_eq!(served.load(Ordering::SeqCst), wrong.len() + 1);
    assert_eq!(proxy.backend_report()[0].forwarded, 0);

    drop(client);
    proxy.shutdown();
    stop.store(true, Ordering::SeqCst);
    drop(TcpStream::connect(addr));
    acceptor.join().expect("fake shard");
}

#[test]
fn breaker_opens_on_dead_shard_and_recloses_on_recovery() {
    let (mut shards, proxy) = start_fleet(3, WHITELIST_V1);
    let mut client = Client::connect(proxy.local_addr()).expect("connect");
    let reqs = sample_requests();

    // The 50ms prober hammers the dead socket; five consecutive
    // failures trip the default breaker with zero client traffic.
    // Poll the transition *counter*, not the `breaker_open` flag —
    // the flag legitimately flickers false during half-open trials.
    shards[1].take().unwrap().kill();
    wait_until(
        || proxy.backend_report()[1].breaker_opens >= 1,
        "the dead shard's breaker to open",
    );

    // An open breaker is routed around for free: every request is
    // still answered, and none of them had to fail first.
    for req in &reqs {
        client.decide(req).expect("decide with breaker open");
    }
    let report = proxy.backend_report();
    assert!(!report[1].healthy, "dead shard still marked healthy");
    assert!(report[1].breaker_opens >= 1);

    // Respawn on a fresh port. `update_backend` probes synchronously,
    // and a single successful exchange fully recloses the breaker —
    // no cooldown to wait out.
    let replacement =
        Server::start_with_lists(lists(WHITELIST_V1), &shard_config()).expect("respawn shard");
    let new_addr = replacement.local_addr().to_string();
    shards[1] = Some(replacement);
    proxy.update_backend(1, new_addr);
    let report = proxy.backend_report();
    assert!(report[1].healthy, "respawned shard not probed healthy");
    assert!(
        !report[1].breaker_open,
        "breaker still open after a successful probe"
    );

    let before = report[1].forwarded;
    for req in &reqs {
        client.decide(req).expect("decide after breaker reclosed");
    }
    assert!(
        proxy.backend_report()[1].forwarded > before,
        "reclosed slot gets no traffic"
    );
    shutdown_fleet(shards, proxy, client);
}

#[test]
fn exhausted_hedge_budget_sheds_load_as_typed_overload() {
    let (mut shards, proxy) = start_fleet_cfg(2, WHITELIST_V1, |c| {
        // Freeze every adaptive layer: the prober never notices the
        // death, the breaker never opens, and the hedge budget is dry
        // from the start. Each failure must then surface as a typed
        // overload instead of fueling a retry storm.
        c.probe_interval = Duration::from_secs(3600);
        c.breaker_failure_threshold = 1_000_000;
        c.hedge_budget_per_sec = 0.0;
        c.hedge_budget_burst = 0.0;
    });
    let mut client = Client::connect(proxy.local_addr()).expect("connect");
    client.ping().expect("ping");

    shards[1].take().unwrap().kill();
    let (mut served, mut shed) = (0usize, 0usize);
    for req in &sample_requests() {
        match client.decide(req) {
            Ok(_) => served += 1,
            Err(e) => {
                assert!(
                    abpd::client::is_overloaded(&e),
                    "budget denial must be a typed overload, got: {e}"
                );
                shed += 1;
            }
        }
    }
    assert!(served > 0, "the live shard's keys must still be served");
    assert!(shed > 0, "the dead shard's keys must be shed");
    assert!(
        proxy.hedge_denied() > 0,
        "denied hedges must be accounted for"
    );

    // Shard 1 is gone and never respawned, so tear down by hand:
    // stop the router, then shut the survivor down directly.
    drop(client);
    proxy.shutdown();
    let mut direct =
        Client::connect(shards[0].as_ref().unwrap().local_addr()).expect("connect survivor");
    direct.shutdown_server().expect("shutdown survivor");
    drop(direct);
    shards[0].take().unwrap().join();
}

#[test]
fn stale_respawn_rejoins_via_delta_catch_up() {
    let (mut shards, proxy) = start_fleet(3, WHITELIST_V1);
    let mut client = Client::connect(proxy.local_addr()).expect("connect");

    // Teach the router the serving bodies: an idempotent full reload
    // of the state the fleet already serves.
    client.reload(&lists(WHITELIST_V1)).expect("prime reload");

    // Kill shard 1 and wait for the prober to notice so the next
    // reload legitimately skips it.
    shards[1].take().unwrap().kill();
    wait_until(
        || !proxy.backend_report()[1].healthy,
        "the prober to mark the dead shard",
    );

    // The fleet moves to v2 without the dead shard.
    client.reload(&lists(WHITELIST_V2)).expect("reload v2");

    // The respawn comes back serving *stale* v1 — exactly what a
    // snapshot-recovered shard looks like after missing a reload. The
    // synchronous probe in `update_backend` must spot the checksum
    // drift and catch it up with a delta, not a full-body reload.
    let replacement =
        Server::start_with_lists(lists(WHITELIST_V1), &shard_config()).expect("respawn shard");
    let new_addr = replacement.local_addr().to_string();
    shards[1] = Some(replacement);
    proxy.update_backend(1, new_addr);

    let v2 = abpd::serving_checksum(&lists(WHITELIST_V2));
    let report = proxy.backend_report();
    assert!(report[1].healthy, "respawned shard not probed healthy");
    assert!(
        report[1].rejoin_delta_bytes > 0,
        "catch-up must ship a delta"
    );
    assert_eq!(
        report[1].rejoin_full_bytes, 0,
        "catch-up fell back to a full reload although v1 is retained"
    );
    assert_eq!(
        report[1].last_checksum, v2,
        "shard did not land on the fleet's serving state"
    );

    // The shard really serves v2 now — ask it directly, not via the
    // router, so a hedge can't mask a stale answer.
    let mut direct =
        Client::connect(shards[1].as_ref().unwrap().local_addr()).expect("connect respawn");
    assert_eq!(
        direct
            .decide(&dr(
                "http://ad.doubleclick.net/x.js",
                "ok.example",
                ResourceType::Script,
            ))
            .expect("direct decide")
            .outcome
            .decision,
        Decision::AllowedByException,
        "respawned shard still serves stale v1"
    );
    drop(direct);

    // And aggregated health converges on v2 across the whole fleet.
    let health = client.health().expect("health");
    assert_eq!(health.list_checksum, v2, "fleet did not converge on v2");
    shutdown_fleet(shards, proxy, client);
}
