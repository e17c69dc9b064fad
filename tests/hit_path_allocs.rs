//! A warm cache hit allocates nothing. `Service::decide_batch_local` on
//! a batch whose every request is already cached — outcomes carrying
//! activations, sitekeys and tenant masks included — makes no heap
//! allocation on the calling thread: the digest reads borrowed fields,
//! and a hit reads the entry's filter ids back into the shard's reused
//! scratch and renders the answer from them into the reply elements
//! the reused `BatchScratch` already has room for. This binary's global
//! allocator (`support/counting.rs`) does the counting.

use abp::{Decision, Engine, FilterList, ListSource, ResourceType};
use abpd::metrics::ReactorMetrics;
use abpd::{DecisionRequest, Service, ServiceConfig};
use std::sync::Arc;

#[path = "support/counting.rs"]
mod counting;
use counting::allocations;

#[test]
fn a_warm_all_hit_batch_allocates_nothing() {
    let easylist = FilterList::parse(ListSource::EasyList, "||ads.example^\n");
    let whitelist = FilterList::parse(ListSource::AcceptableAds, "@@||ads.example/ok/$script\n");
    let config = ServiceConfig {
        shards: 1,
        ..ServiceConfig::default()
    };
    let svc = Service::start(Engine::from_lists([&easylist, &whitelist]), &config);
    let mut local = svc.local_eval(0, 1024, 0, Arc::new(ReactorMetrics::default()));
    let mut scratch = svc.scratch();
    let reqs: Vec<DecisionRequest> = (0..256)
        .map(|i| DecisionRequest {
            url: match i % 2 {
                0 => format!("http://ads.example/{i}.js"),
                _ => format!("http://ads.example/ok/{i}.js"),
            },
            document: "news.example".to_string(),
            resource_type: ResourceType::Script,
            sitekey: (i % 3 == 0).then(|| "SITEKEY".to_string()),
            tenant: (i % 4 != 0).then_some(0b11),
        })
        .collect();
    let refs: Vec<_> = reqs.iter().map(DecisionRequest::as_request_ref).collect();

    // The first pass misses and fills the cache; the second is all hits
    // and leaves the scratch sized for them.
    for _ in 0..2 {
        svc.decide_batch_local(&refs, &mut scratch, &mut local)
            .unwrap();
    }
    let allocs = allocations(|| {
        svc.decide_batch_local(&refs, &mut scratch, &mut local)
            .unwrap();
    });
    assert_eq!(allocs, 0, "a warm all-hit batch of 256 allocated");

    // What was measured is what the test claims: 256 hits, each one
    // carrying activations, of both kinds of decision.
    let resps = scratch.responses();
    assert_eq!(resps.len(), 256);
    assert!(resps
        .iter()
        .all(|r| r.cached && !r.outcome.activations.is_empty()));
    for decision in [Decision::Block, Decision::AllowedByException] {
        assert!(resps.iter().any(|r| r.outcome.decision == decision));
    }
}
