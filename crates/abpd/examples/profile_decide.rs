//! Rough per-stage cost breakdown for one decision, used to guide
//! optimization: run with `cargo run --release -p abpd --example
//! profile_decide`.
//!
//! The request set is the first 65,536 *distinct* requests of the
//! browsing stream on the corpus lists — what a cache miss sees, and
//! what `benchmark/`'s `abp.request_new_ns` / `abp.match_ns` rows time
//! — so the engine-layer split of a miss (`Request::new` into
//! `Url::parse` and `same_party`, then `match_request` into its
//! candidate stage and evaluation, and `match_request_masked` under
//! `serve-cold`'s tenant masks) can be re-read without the harness,
//! beside the hiding path for the same first parties
//! (`hiding_for_domain` from a warm plan memo, then
//! `hiding_for_domain_masked` under those masks, with the memo's fill
//! and evictions) and the page gate on their documents
//! (`document_allowlist` on `http://{first party}/`). The served miss
//! is timed as `serve-cold` runs it: the first 262,144 distinct
//! requests, each with its tenant mask, cycling through one shard with
//! the default 65,536-entry cache, so that every decision misses and
//! evicts — first the cache insert alone, then `decide_batch_local`
//! whole. Its first 16,384 are the shape of `serve-hot`'s hot set: the
//! codec stages run over those in the workloads' 256-element framing
//! (`benchmark/`'s four `wire.*_ns` rows, then the proxy's two reads of
//! the same lines, and the reply decode once more on lines in a layout
//! no writer produces, which the field walker reads instead of the
//! canonical readers), and a hit pass splits what `benchmark/` can only
//! show as `service.decide_hit_ns` into digest, cache read (verify and
//! copy the cached reply bytes), clock and metrics, then times
//! `decide_batch_local` with its reply line framed: the daemon's whole
//! share of a hit between request parse and socket. Engine and hot-set
//! figures alike are ns per item, fastest of [`ROUNDS`] passes; the
//! steady-state miss rows are the median of [`MISS_PASSES`] passes over
//! the cold set, after one untimed pass has filled the cache.

use abpd::cache::{request_key_hash, LocalDecisionCache};
use abpd::metrics::ReactorMetrics;
use abpd::wire;
use abpd::{DecisionRequest, DecisionResponse, ServiceConfig};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Requests per line, as the batched workloads frame them.
const BATCH: usize = 256;
/// Distinct requests in `serve-hot`'s working set.
const HOT: usize = 16_384;
/// Passes per hot-set stage; the fastest is reported.
const ROUNDS: usize = 25;
/// Users in the tenant population `serve-cold` stamps its requests
/// from: request `i` carries user `i`'s mask.
const TENANT_USERS: u64 = 1_000_000;
/// The shard cache's capacity (the daemon's default), and `serve-cold`'s
/// set cycling through it: four times as many distinct requests.
const CAPACITY: usize = 65_536;
const COLD: usize = 4 * CAPACITY;
/// Timed passes over the cold set per steady-state miss row.
const MISS_PASSES: usize = 8;

/// ns per item of the fastest of [`ROUNDS`] runs of `pass`, which
/// handles `items` items per run.
fn best_of(items: usize, mut pass: impl FnMut()) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / items as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// ns per item, the median of [`MISS_PASSES`] runs of `pass` over
/// `items` items each.
fn median_of(items: usize, mut pass: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = (0..MISS_PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    (ns[MISS_PASSES / 2 - 1] + ns[MISS_PASSES / 2]) / 2.0
}

/// [`best_of`] a pass over the [`HOT`] set: ns per decision.
fn best_ns(pass: impl FnMut()) -> f64 {
    best_of(HOT, pass)
}

/// `s` parsed as the type of `_like`: `abpd` does not depend on `urlkit`
/// and reaches `urlkit::Url` (whose `FromStr` is `Url::parse`) only as
/// the type of `abp::Request::url`.
fn parse_like<T: std::str::FromStr>(_like: &T, s: &str) -> Option<T> {
    s.parse().ok()
}

/// `items` as the lines `write` makes of them, [`BATCH`] to a line.
fn lines_of<T>(items: &[T], write: fn(&[T], &mut Vec<u8>)) -> Vec<String> {
    items
        .chunks(BATCH)
        .map(|chunk| {
            let mut line = Vec::new();
            write(chunk, &mut line);
            String::from_utf8(line).unwrap()
        })
        .collect()
}

/// `line` re-rendered with a space after every `:` outside strings: the
/// same message in a layout no writer of `abpd::wire` produces, so its
/// decode takes the field walker throughout.
fn spaced_after_colons(line: &str) -> String {
    let mut out = String::with_capacity(line.len() + line.len() / 8);
    let (mut in_string, mut escaped) = (false, false);
    for c in line.chars() {
        out.push(c);
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
        } else if c == '"' {
            in_string = true;
        } else if c == ':' {
            out.push(' ');
        }
    }
    out
}

/// [`best_ns`] of writing those lines into one reused buffer.
fn encode_ns<T>(items: &[T], write: fn(&[T], &mut Vec<u8>)) -> f64 {
    let mut line = Vec::new();
    best_ns(|| {
        for chunk in items.chunks(BATCH) {
            line.clear();
            write(chunk, &mut line);
            black_box(&line);
        }
    })
}

fn main() {
    let n = 65_536usize;
    let mut seen = HashSet::with_capacity(COLD);
    let population = websim::traffic::TenantPopulation::new(2015, TENANT_USERS);
    let cold: Vec<DecisionRequest> = websim::traffic::TrafficGen::new(2015)
        .samples()
        .map(|s| abpd::request_of_sample(&s))
        .filter(|r| seen.insert((r.url.clone(), r.document.clone(), r.resource_type)))
        .take(COLD)
        .enumerate()
        .map(|(i, r)| DecisionRequest {
            tenant: Some(population.mask_for(i as u64)),
            ..r
        })
        .collect();
    drop(seen);
    let reqs: Vec<DecisionRequest> = cold[..n]
        .iter()
        .map(|r| DecisionRequest {
            tenant: None,
            ..r.clone()
        })
        .collect();

    let engine = abpd::corpus_engine(2015);
    let shape = engine.tail_stats();
    println!(
        "filters: {} ({} behind the first-party gate under {} domains, largest bucket {}; \
         {} tokens in the token table, largest bucket {})",
        engine.request_filter_count(),
        shape.restricted_filters,
        shape.restricted_domains,
        shape.restricted_bucket_max,
        shape.token_count,
        shape.token_bucket_max
    );

    // Miss path, engine layers, ns/request best of ROUNDS over all `n`
    // (warm: a round reuses what the one before it freed): Request::new,
    // then its two halves, then each request matched once.
    let new_request =
        |r: &DecisionRequest| abp::Request::new(&r.url, &r.document, r.resource_type).unwrap();
    let mut built: Vec<abp::Request> = reqs.iter().map(new_request).collect();
    // Not `best_of`: the previous round's requests are dropped untimed.
    let request_new = (0..ROUNDS)
        .map(|_| {
            built.clear();
            let t = Instant::now();
            built.extend(reqs.iter().map(new_request));
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .fold(f64::INFINITY, f64::min);
    let url_type = &built[0].url;
    let url_parse = best_of(n, || {
        for r in &reqs {
            black_box(parse_like(url_type, black_box(&r.url)));
        }
    });
    let same_party = best_of(n, || {
        for r in &built {
            black_box(abp::request::same_party(
                black_box(r.url.host()),
                &r.first_party,
            ));
        }
    });
    let matched = best_of(n, || {
        for r in &built {
            black_box(engine.match_request(black_box(r)));
        }
    });
    // The candidate stage alone: `candidate_count` runs it and reads two
    // lengths. Evaluation is the rest of `match_request`.
    let candidates = best_of(n, || {
        for r in &built {
            black_box(engine.candidate_count(black_box(r)));
        }
    });
    let masks: Vec<u64> = cold[..n].iter().map(|r| r.tenant.unwrap()).collect();
    let masked = best_of(n, || {
        for (r, &tenant) in built.iter().zip(&masks) {
            black_box(engine.match_request_masked(black_box(r), tenant));
        }
    });
    // Element hiding for the same first parties, warm: one untimed pass
    // memoizes their plans, then each pass serves them from the memo —
    // first the union view, then under serve-cold's tenant masks.
    let first_parties: Vec<&str> = reqs.iter().map(|r| r.document.as_str()).collect();
    let hide = |masked: bool| {
        for (fp, &tenant) in first_parties.iter().zip(&masks) {
            black_box(match masked {
                false => engine.hiding_for_domain(black_box(fp)),
                true => engine.hiding_for_domain_masked(black_box(fp), tenant),
            });
        }
    };
    hide(false);
    let hiding = best_of(n, || hide(false));
    hide(true);
    let hiding_masked = best_of(n, || hide(true));
    let memo = engine.tail_stats();
    // The page gate on each request's first party as a document.
    let docs: Vec<abp::Request> = first_parties
        .iter()
        .map(|fp| abp::Request::document(&format!("http://{fp}/")).unwrap())
        .collect();
    let doc_gate = best_of(n, || {
        for d in &docs {
            black_box(engine.document_allowlist(black_box(d)));
        }
    });
    let outcomes: Vec<abp::RequestOutcome> =
        built.iter().map(|r| engine.match_request(r)).collect();
    let activations: usize = outcomes.iter().map(|o| o.activations.len()).sum();
    let (block, allow) = built.iter().fold((0, 0), |(b, a), r| {
        let (cb, ca) = engine.candidate_count(r);
        (b + cb, a + ca)
    });
    let per_req = |x: usize| x as f64 / n as f64;
    println!("miss set ({n} requests, ns/request, best of {ROUNDS}):");
    println!("  Request::new         {request_new:6.1}");
    println!("    Url::parse         {url_parse:6.1}");
    println!("    same_party         {same_party:6.1}");
    println!(
        "  match_request        {matched:6.1}   ({:.2} + {:.2} candidates, {:.2} activations/req)",
        per_req(block),
        per_req(allow),
        per_req(activations)
    );
    println!("    candidate stage    {candidates:6.1}   (Engine::candidate_count)");
    println!(
        "    evaluation         {:6.1}   (match_request minus the candidate stage)",
        matched - candidates
    );
    println!("  match_request_masked {masked:6.1}   (serve-cold's tenant masks)");
    println!("  hiding_for_domain    {hiding:6.1}   (the first parties, warm plan memo)");
    println!(
        "    ..._masked         {hiding_masked:6.1}   (serve-cold's tenant masks; the memo holds {} of \
         {} plans, {} evicted)",
        memo.hiding_plans, memo.hiding_plan_cap, memo.hiding_plan_evictions
    );
    println!(
        "  document_allowlist   {doc_gate:6.1}   (the first parties as http://{{fp}}/, ns/doc)"
    );

    // Miss path at steady state, as `serve-cold` runs it: the cold set
    // cycling through a full 65,536-entry cache, every decision a miss
    // that evicts. First the cache's write path alone, on the outcomes
    // the engine gives the cold set, encoded as a miss encodes them.
    let cold_digests: Vec<u64> = cold
        .iter()
        .map(|r| {
            request_key_hash(
                &r.url,
                &r.document,
                r.resource_type,
                None,
                r.tenant.unwrap(),
            )
        })
        .collect();
    let mut encoded = Vec::new();
    let cold_outcomes: Vec<(abp::Decision, std::ops::Range<usize>)> = cold
        .iter()
        .map(|r| {
            let req = new_request(r);
            let got = engine.match_request_masked(&req, r.tenant.unwrap());
            let mut element = Vec::new();
            let span = wire::push_decision(&mut element, &got, false);
            let start = encoded.len();
            encoded.extend_from_slice(&element[span]);
            (got.decision, start..encoded.len())
        })
        .collect();
    let mut cold_cache = LocalDecisionCache::new(CAPACITY);
    let mut insert_cold = || {
        for ((r, &h), (decision, outcome)) in cold.iter().zip(&cold_digests).zip(&cold_outcomes) {
            cold_cache.insert(
                h,
                0,
                &r.url,
                &r.document,
                r.resource_type,
                None,
                r.tenant.unwrap(),
                *decision,
                &encoded[outcome.clone()],
            );
        }
    };
    insert_cold();
    let insert = median_of(COLD, insert_cold);
    drop((cold_cache, encoded, cold_outcomes));
    // Then the served evaluation route whole, in process (no TCP): one
    // shard's `LocalEval`, as a reactor holds it.
    let svc = abpd::Service::start(abpd::corpus_engine(2015), &ServiceConfig::default());
    let mut local = svc.local_eval(0, CAPACITY, 0, Arc::new(ReactorMetrics::default()));
    let mut scratch = svc.scratch();
    let cold_refs: Vec<_> = cold.iter().map(DecisionRequest::as_request_ref).collect();
    let mut decide_cold = || {
        for chunk in cold_refs.chunks(BATCH) {
            svc.decide_batch_local(chunk, &mut scratch, &mut local)
                .unwrap();
        }
    };
    decide_cold();
    let service_miss = median_of(COLD, decide_cold);
    assert!(scratch.responses().iter().all(|r| !r.cached));
    drop(cold_refs);
    println!(
        "steady miss ({COLD} distinct requests cycling through a {CAPACITY}-entry cache, \
         ns/request, median of {MISS_PASSES}):"
    );
    println!("  cache insert (evicting) {insert:6.1}");
    println!("  service miss            {service_miss:6.1}   (decide_batch_local, every decision a miss)");

    // Everything below is the hit path on the hot set.
    let hot = &reqs[..HOT];
    let replies: Vec<DecisionResponse> = outcomes[..HOT]
        .iter()
        .map(|o| DecisionResponse {
            outcome: o.clone(),
            cached: true,
        })
        .collect();
    println!("hot set ({HOT} requests, lines of {BATCH}, ns/decision, best of {ROUNDS}):");

    // The four codec rungs, in the order a decision crosses them.
    let encode_request = encode_ns(hot, wire::write_decide_batch);
    let request_lines = lines_of(hot, wire::write_decide_batch);
    let parse_request = best_ns(|| {
        for l in &request_lines {
            black_box(wire::parse_client_message(l).unwrap());
        }
    });
    // What the proxy reads of the same lines: request spans, and the
    // decisions' places in a reply, found without building them.
    let mut spans = Vec::new();
    let parse_request_spans = best_ns(|| {
        for l in &request_lines {
            black_box(wire::parse_client_message_spans(l, &mut spans).unwrap());
        }
    });
    let encode_reply = encode_ns(&replies, wire::write_batch_reply);
    let reply_lines = lines_of(&replies, wire::write_batch_reply);
    let parse_reply = best_ns(|| {
        for l in &reply_lines {
            black_box(wire::parse_server_message(l).unwrap());
        }
    });
    let split_reply = best_ns(|| {
        for l in &reply_lines {
            black_box(wire::split_decisions(l, &mut spans).unwrap());
        }
    });
    let foreign_lines: Vec<String> = reply_lines.iter().map(|l| spaced_after_colons(l)).collect();
    for (foreign, canonical) in foreign_lines.iter().zip(&reply_lines) {
        assert_eq!(
            wire::parse_server_message(foreign),
            wire::parse_server_message(canonical)
        );
    }
    let parse_foreign_reply = best_ns(|| {
        for l in &foreign_lines {
            black_box(wire::parse_server_message(l).unwrap());
        }
    });
    let bytes = |lines: &[String]| lines.iter().map(String::len).sum::<usize>() as f64 / HOT as f64;
    println!(
        "  write_decide_batch   {encode_request:6.1}   ({:.1} B/decision)",
        bytes(&request_lines)
    );
    println!("  parse_client_message {parse_request:6.1}");
    println!("    ..._spans          {parse_request_spans:6.1}   (the proxy's request read)");
    println!(
        "  write_batch_reply    {encode_reply:6.1}   ({:.1} B/decision)",
        bytes(&reply_lines)
    );
    println!("  parse_server_message {parse_reply:6.1}");
    println!("    foreign layout     {parse_foreign_reply:6.1}   (`: ` after every key: the field walker)");
    println!("  split_decisions      {split_reply:6.1}   (the proxy's reply read)");

    // The hit pass: what `decide_batch_local` does per cached decision,
    // one piece at a time, then as it runs them together.
    let digest_of = |r: &DecisionRequest| {
        request_key_hash(
            &r.url,
            &r.document,
            r.resource_type,
            r.sitekey.as_deref(),
            u64::MAX,
        )
    };
    let digest = best_ns(|| {
        for r in hot {
            black_box(digest_of(black_box(r)));
        }
    });
    let digests: Vec<u64> = hot.iter().map(digest_of).collect();
    let mut cache = LocalDecisionCache::new(n);
    for ((r, &h), outcome) in hot.iter().zip(&digests).zip(&outcomes) {
        let mut element = Vec::new();
        let encoded = wire::push_decision(&mut element, outcome, true);
        cache.insert(
            h,
            0,
            &r.url,
            &r.document,
            r.resource_type,
            r.sitekey.as_deref(),
            u64::MAX,
            outcome.decision,
            &element[encoded],
        );
    }
    // Verify, then copy the cached bytes into a line's run of
    // decision objects, as a hit does.
    let mut elements = Vec::new();
    let cache_get = best_ns(|| {
        for (i, (r, &h)) in hot.iter().zip(&digests).enumerate() {
            if i % BATCH == 0 {
                elements.clear();
            }
            let (_, outcome) = cache
                .get(
                    h,
                    0,
                    &r.url,
                    &r.document,
                    r.resource_type,
                    r.sitekey.as_deref(),
                    u64::MAX,
                )
                .expect("the hot set is cached");
            wire::push_decision_raw(&mut elements, outcome, true);
        }
        black_box(&elements);
    });
    let clock = best_ns(|| {
        for _ in 0..HOT {
            black_box(Instant::now());
        }
    });
    let metrics = ReactorMetrics::default();
    let counters = best_ns(|| {
        for _ in 0..HOT {
            metrics.shard.latency.record_us(black_box(0));
            metrics.shard.record_tenant(black_box(u64::MAX), true);
        }
    });
    // A fresh shard, warmed with one pass over the hot set.
    let mut local = svc.local_eval(0, CAPACITY, 0, Arc::new(ReactorMetrics::default()));
    let refs: Vec<_> = hot.iter().map(DecisionRequest::as_request_ref).collect();
    for chunk in refs.chunks(BATCH) {
        svc.decide_batch_local(chunk, &mut scratch, &mut local)
            .unwrap();
    }
    let mut line = Vec::new();
    let whole = best_ns(|| {
        for chunk in refs.chunks(BATCH) {
            svc.decide_batch_local(chunk, &mut scratch, &mut local)
                .unwrap();
            line.clear();
            wire::splice_batch_reply([scratch.elements()], &mut line);
            black_box(&line);
        }
    });
    assert!(scratch.responses().iter().all(|r| r.cached));
    println!("  request_key_hash     {digest:6.1}");
    println!("  cache get            {cache_get:6.1}   (verify + copy)");
    println!("  Instant::now         {clock:6.1}   (per read)");
    println!("  latency+tenant count {counters:6.1}");
    println!(
        "  decide_batch_local   {whole:6.1}   (all of the above, in place, reply line framed)"
    );
}
