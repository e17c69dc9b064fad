//! # abpd — the ad-decision daemon
//!
//! The paper measures ad-blocking decisions page by page; this crate
//! turns the same [`abp::Engine`] into a standalone network service so
//! decision throughput can be measured (and scaled) independently of
//! the crawler. Clients speak newline-delimited JSON over TCP (see
//! [`protocol`]). A connection belongs to one of N evaluation shards;
//! every batch it sends is evaluated on the thread that read it
//! ([`service::Service::decide_batch_local`], the only route) and
//! outcomes are memoized in that shard's LRU cache ([`cache`]). The
//! socket front is one epoll reactor thread per shard, feeding one verb
//! dispatch ([`server`]); it is Linux-only, and elsewhere
//! [`Server::start`] fails with `Unsupported`. A decision for
//! a fixed engine is a pure function of `(url, document, resource
//! type, sitekey, tenant)`, so cached responses are byte-identical to
//! fresh engine evaluations — property-tested in this crate's test
//! suite.
//!
//! One binary ships with the library: `abpd`, which serves decisions
//! for the generated corpus (EasyList + Acceptable Ads whitelist).
//! The fleet router (`abpd-proxy`) lives in the `abpd-proxy` crate; the
//! harness that drives and measures both is `benchmark/`.

// `deny` rather than `forbid`: the epoll shim in [`poll`] is the one
// module allowed to opt back in for its FFI declarations.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod faults;
pub mod metrics;
pub mod poll;
pub mod protocol;
pub(crate) mod reactor;
pub mod server;
pub mod service;
pub mod state;
pub mod wire;

pub use client::{Client, ReloadDeltaOutcome, RetryClient, RetryPolicy};
pub use faults::FaultConfig;
pub use protocol::{DecisionRequest, DecisionResponse, HealthReport, HealthState, StatsReport};
pub use server::{Server, ServerConfig};
pub use service::{serving_checksum, ReloadDeltaError, Service, ServiceConfig, ServiceError};
pub use state::{PersistedState, SnapshotError, StateStore};

use websim::ecosystem::LoadKind;
use websim::traffic::TrafficSample;

/// The resource type a browser would infer for a page load.
pub fn resource_type_of(load: LoadKind) -> abp::ResourceType {
    match load {
        LoadKind::Script => abp::ResourceType::Script,
        LoadKind::Image => abp::ResourceType::Image,
        LoadKind::Iframe => abp::ResourceType::Subdocument,
        LoadKind::Stylesheet => abp::ResourceType::Stylesheet,
    }
}

/// Convert a synthesized traffic sample into a wire request.
pub fn request_of_sample(s: &TrafficSample) -> DecisionRequest {
    DecisionRequest {
        url: s.url.clone(),
        document: s.first_party.clone(),
        resource_type: resource_type_of(s.load),
        sitekey: None,
        tenant: None,
    }
}

/// The default serving engine: the generated EasyList plus the
/// Acceptable Ads whitelist for `seed`.
pub fn corpus_engine(seed: u64) -> abp::Engine {
    let c = corpus::Corpus::generate(seed);
    abp::Engine::from_lists([&c.easylist, &c.whitelist])
}

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod tests {
    use abp::{MatchKind, Request, ResourceType};
    use std::collections::HashSet;

    /// The candidate stage on the corpus lists, where its cost lives:
    /// the 25 anchorless `@@$sitekey=…` filters (4 keys, §4) are no
    /// one's candidates but a keyed request's. 27.6 candidates per
    /// request while they sat on the always-scan tail.
    #[test]
    fn corpus_candidates_are_few_and_a_sitekey_adds_only_its_own_filters() {
        let corpus = corpus::Corpus::generate(7);
        let engine = abp::Engine::from_lists([&corpus.easylist, &corpus.whitelist]);

        const N: usize = 4096;
        let mut seen = HashSet::with_capacity(N);
        let reqs: Vec<Request> = websim::traffic::TrafficGen::new(7)
            .samples()
            .map(|s| crate::request_of_sample(&s))
            .filter(|r| seen.insert((r.url.clone(), r.document.clone(), r.resource_type)))
            .take(N)
            .map(|r| Request::new(&r.url, &r.document, r.resource_type).unwrap())
            .collect();
        let total: usize = reqs
            .iter()
            .map(|r| {
                let (block, allow) = engine.candidate_count(r);
                block + allow
            })
            .sum();
        let mean = total as f64 / N as f64;
        assert!(mean <= 3.0, "{mean:.2} candidates per request");

        // Each key's filters, in list order.
        let mut by_key: Vec<(String, Vec<&str>)> = Vec::new();
        for f in corpus.whitelist.filters() {
            for key in f.as_request().map_or(&[][..], |rf| &rf.options.sitekeys) {
                match by_key.iter_mut().find(|(k, _)| k == key) {
                    Some((_, raws)) => raws.push(&f.raw),
                    None => by_key.push((key.clone(), vec![&f.raw])),
                }
            }
        }
        assert_eq!(by_key.len(), 4);
        assert_eq!(by_key.iter().map(|(_, r)| r.len()).sum::<usize>(), 25);

        let sitekey_gates = |doc: &Request| -> Vec<String> {
            let status = engine.document_allowlist(doc);
            status
                .document_allow
                .iter()
                .filter(|a| a.kind == MatchKind::SitekeyAllow)
                .map(|a| a.filter.to_string())
                .collect()
        };
        let doc = Request::document("http://reddit.cm/").unwrap();
        assert!(sitekey_gates(&doc).is_empty());
        let probe = Request::new(
            "http://reddit.cm/ads/x.js",
            "reddit.cm",
            ResourceType::Script,
        )
        .unwrap();
        let (block, allow) = engine.candidate_count(&probe);
        for (key, raws) in &by_key {
            assert_eq!(sitekey_gates(&doc.clone().with_sitekey(key)), *raws);
            assert_eq!(
                engine.candidate_count(&probe.clone().with_sitekey(key)),
                (block, allow + raws.len()),
                "key {key}"
            );
        }
    }
}
