//! Rough per-stage cost breakdown for one decision, used to guide
//! optimization: run with `cargo run --release -p abpd --example
//! profile_decide`.
//!
//! The request set is the first 65,536 *distinct* requests of the
//! browsing stream on the corpus lists — what a cache miss sees, and
//! what `benchmark/`'s `abp.request_new_ns` / `abp.match_ns` rows time —
//! so the engine-layer split of a miss can be re-read without the
//! harness.

use abpd::{DecisionRequest, ServiceConfig};
use std::collections::HashSet;
use std::time::Instant;

fn main() {
    let n = 65_536usize;
    let mut seen = HashSet::with_capacity(n);
    let reqs: Vec<DecisionRequest> = websim::traffic::TrafficGen::new(2015)
        .samples()
        .map(|s| abpd::request_of_sample(&s))
        .filter(|r| seen.insert((r.url.clone(), r.document.clone(), r.resource_type)))
        .take(n)
        .collect();

    let engine = abpd::corpus_engine(2015);
    let shape = engine.tail_stats();
    println!(
        "filters: {} ({} behind the first-party gate under {} domains, largest bucket {})",
        engine.request_filter_count(),
        shape.restricted_filters,
        shape.restricted_domains,
        shape.restricted_bucket_max
    );

    // Stage 1: JSON serialize requests (client side).
    let t = Instant::now();
    let lines: Vec<String> = reqs
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    println!("serialize req: {:?}/req", t.elapsed() / n as u32);

    // Stage 2: JSON parse requests (server side).
    let t = Instant::now();
    let parsed: Vec<DecisionRequest> = lines
        .iter()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    println!("parse req:     {:?}/req", t.elapsed() / n as u32);

    // Stage 3: Request::new (url parse + party computation).
    let t = Instant::now();
    let built: Vec<abp::Request> = parsed
        .iter()
        .map(|r| abp::Request::new(&r.url, &r.document, r.resource_type).unwrap())
        .collect();
    println!("Request::new:  {:?}/req", t.elapsed() / n as u32);

    // Stage 4: engine evaluation, each request matched once.
    let t = Instant::now();
    let outcomes = engine.match_many(&built);
    println!("match:         {:?}/req", t.elapsed() / n as u32);
    let activations: usize = outcomes.iter().map(|o| o.activations.len()).sum();
    println!(
        "               {:.2} activations/req",
        activations as f64 / n as f64
    );

    // Stage 5: serialize responses.
    let t = Instant::now();
    let resp_lines: Vec<String> = outcomes
        .iter()
        .map(|o| serde_json::to_string(o).unwrap())
        .collect();
    println!("serialize out: {:?}/req", t.elapsed() / n as u32);

    // Stage 6: parse responses (client side).
    let t = Instant::now();
    for l in &resp_lines {
        let _: abp::RequestOutcome = serde_json::from_str(l).unwrap();
    }
    println!("parse out:     {:?}/req", t.elapsed() / n as u32);

    // Stage 7: the served evaluation route, in process (no TCP): one
    // shard's `LocalEval`, as a reactor holds it, cache misses only.
    let svc = abpd::Service::start(abpd::corpus_engine(2015), &ServiceConfig::default());
    let mut local = svc.local_eval(
        0,
        n,
        0,
        std::sync::Arc::new(abpd::metrics::ReactorMetrics::default()),
    );
    let mut scratch = svc.scratch();
    let t = Instant::now();
    for chunk in reqs.chunks(64) {
        let refs: Vec<_> = chunk.iter().map(DecisionRequest::as_request_ref).collect();
        svc.decide_batch_local(&refs, &mut scratch, &mut local)
            .unwrap();
    }
    println!("service path:  {:?}/req", t.elapsed() / n as u32);
}
