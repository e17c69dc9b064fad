//! A steady-state cache miss allocates nothing. Once a shard's cache is
//! full and its buffers have grown, `Service::decide_batch_local` on an
//! all-miss batch — tenant masks, sitekeys, outcomes carrying
//! activations — makes no heap allocation on the calling thread: the
//! shard refills one `Request`, the engine writes matched filter ids
//! into reused scratch, the reply is encoded from those ids, and the
//! cache appends the entry to its preallocated log. This
//! binary's global allocator (`support/counting.rs`) does the counting.
//!
//! Debug builds of `abp` cross-check every candidate list against a
//! reference walk that allocates, so there the served miss is held to
//! exactly the engine's own count; the zero is asserted where the
//! checks are compiled out, as the daemon is built (`scripts/ci.sh`
//! runs this test in release).

use abp::{Decision, Engine, FilterList, ListSource, MatchKind, Request, ResourceType};
use abpd::metrics::ReactorMetrics;
use abpd::{DecisionRequest, Service, ServiceConfig};
use std::sync::Arc;

#[path = "support/counting.rs"]
mod counting;
use counting::allocations;

/// Distinct requests in the cycle, [`BATCH`] to a batch.
const COLD: usize = 1_024;
const BATCH: usize = 256;
/// Shard cache capacity: the cycle is many times what it holds.
const CAPACITY: usize = 64;

fn engine() -> Engine {
    let easylist = FilterList::parse(
        ListSource::EasyList,
        "||ads.example^\n||ads.example/track/$donottrack\n",
    );
    let whitelist = FilterList::parse(
        ListSource::AcceptableAds,
        "@@||ads.example/ok/$script\n@@||ads.example/key/$sitekey=SITEKEY\n",
    );
    Engine::from_lists([&easylist, &whitelist])
}

fn requests() -> Vec<DecisionRequest> {
    (0..COLD)
        .map(|i| DecisionRequest {
            url: match i % 4 {
                0 => format!("http://ads.example/{i}.js"),
                1 => format!("http://ads.example/ok/{i}.js"),
                2 => format!("http://Ads.Example/key/{i}.js?q=1#f"),
                _ => format!("http://ads.example/track/{i}.gif"),
            },
            document: ["news.example", " Blog.Example\u{a0}"][i % 2].to_string(),
            resource_type: ResourceType::Script,
            // Always present, not always the listed key: the shard's
            // request reuses one sitekey buffer. (One that follows a
            // request without a sitekey allocates it anew.)
            sitekey: Some(["SITEKEY", "UNLISTED-KEY"][usize::from(i % 3 == 1)].to_string()),
            tenant: [None, Some(0b11), Some(u64::MAX), Some(0b01)][i % 4],
        })
        .collect()
}

#[test]
fn a_steady_all_miss_batch_allocates_nothing() {
    let config = ServiceConfig {
        shards: 1,
        ..ServiceConfig::default()
    };
    let svc = Service::start(engine(), &config);
    let mut local = svc.local_eval(0, CAPACITY, 0, Arc::new(ReactorMetrics::default()));
    let mut scratch = svc.scratch();
    let reqs = requests();
    let refs: Vec<_> = reqs.iter().map(DecisionRequest::as_request_ref).collect();
    let mut cycle = || {
        for batch in refs.chunks(BATCH) {
            svc.decide_batch_local(batch, &mut scratch, &mut local)
                .unwrap();
        }
    };

    // Two cycles fill the cache, wrap its log and grow every buffer;
    // the third is what a full shard does forever.
    cycle();
    cycle();
    let served = allocations(cycle);

    // The engine's own share of the same misses: matched filter ids
    // into one reused vector.
    let engine = engine();
    let built: Vec<(Request, u64)> = reqs
        .iter()
        .map(|r| {
            let request = Request::new(&r.url, &r.document, r.resource_type).unwrap();
            let request = match &r.sitekey {
                Some(k) => request.with_sitekey(k),
                None => request,
            };
            (request, r.tenant.unwrap_or(u64::MAX))
        })
        .collect();
    let mut matched: Vec<(u32, MatchKind)> = Vec::new();
    let mut evaluate = || {
        for (request, tenant) in &built {
            engine.match_request_ids(request, *tenant, &mut matched);
        }
    };
    evaluate();
    let evaluated = allocations(evaluate);

    assert_eq!(
        served, evaluated,
        "a steady all-miss cycle of {COLD} allocated beyond the engine's evaluation"
    );
    if !cfg!(debug_assertions) {
        assert_eq!(served, 0, "a steady all-miss cycle of {COLD} allocated");
    }

    // What was measured is what the test claims: the last batch all
    // misses, each carrying activations, of both decisions and every
    // request-match kind.
    let resps = scratch.responses();
    assert_eq!(resps.len(), BATCH);
    assert!(resps
        .iter()
        .all(|r| !r.cached && !r.outcome.activations.is_empty()));
    for decision in [Decision::Block, Decision::AllowedByException] {
        assert!(resps.iter().any(|r| r.outcome.decision == decision));
    }
    for kind in [
        MatchKind::BlockRequest,
        MatchKind::AllowRequest,
        MatchKind::SitekeyAllow,
    ] {
        assert!(resps
            .iter()
            .any(|r| r.outcome.activations.iter().any(|a| a.kind == kind)));
    }
    assert!(local.cache_len() > 0 && local.cache_len() < COLD / 4);
}
