//! # abpd — the ad-decision daemon
//!
//! The paper measures ad-blocking decisions page by page; this crate
//! turns the same [`abp::Engine`] into a standalone network service so
//! decision throughput can be measured (and scaled) independently of
//! the crawler. Clients speak newline-delimited JSON over TCP (see
//! [`protocol`]). A connection belongs to one of N evaluation shards;
//! every batch it sends is evaluated on the thread that read it
//! ([`service::Service::decide_batch_local`], the only route) and
//! outcomes are memoized in that shard's decision cache ([`cache`]). The
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
    use abp::engine::DocumentStatus;
    use abp::{Activation, Engine, FilterAction, MatchKind, Request, ResourceType};
    use std::collections::HashSet;

    /// The first-party gate's shape on the serving corpus, as
    /// `profile_decide`'s header line prints it: 3,257 restricted
    /// filters under 3,544 include domains, at most 3 under one, beside
    /// 13,299 token-table keys. The host index files the gate under
    /// exactly these domains and buckets.
    #[test]
    fn corpus_gate_shape_is_pinned() {
        let st = crate::corpus_engine(2015).tail_stats();
        assert_eq!(
            (
                st.restricted_filters,
                st.restricted_domains,
                st.restricted_bucket_max,
                st.token_count
            ),
            (3257, 3544, 3, 13_299)
        );
    }

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

    /// The page gate on the corpus lists, where the paper's crawl asks
    /// it: `document_allowlist_masked` against a linear walk over
    /// EasyList then the whitelist in list order (allow filters with
    /// `document` or `elemhide` that match the document, type aside,
    /// and whose list bit the tenant holds), under the union, each list
    /// alone and no list. Documents: the first 1,024 distinct first
    /// parties of the browsing stream as `http://{fp}/` and its first
    /// 1,024 distinct request URLs loaded as pages, then the first 128
    /// of each kind again under each of the whitelist's 4 sitekeys:
    /// 3,072 in all (~3 s in debug).
    #[test]
    fn corpus_document_gate_equals_the_linear_walk() {
        let corpus = corpus::Corpus::generate(2015);
        let lists = [&corpus.easylist, &corpus.whitelist];
        let engine = Engine::from_lists(lists);

        // The gate filters in list order, with their list's bit; and
        // the whitelist's sitekeys.
        let mut gates = Vec::new();
        let mut keys: Vec<&str> = Vec::new();
        for (slot, list) in lists.iter().enumerate() {
            for f in list.filters() {
                let Some(rf) = f.as_request() else { continue };
                if rf.action == FilterAction::Allow && (rf.options.document || rf.options.elemhide)
                {
                    gates.push((Engine::list_bit(slot), list.source, f, rf));
                }
                for key in &rf.options.sitekeys {
                    if slot == 1 && !keys.contains(&key.as_str()) {
                        keys.push(key);
                    }
                }
            }
        }
        assert_eq!(keys.len(), 4);
        // No corpus gate names a `domain=` include, so the first-party
        // gate's share of the candidate stage is the `abp` differential
        // arms' to check.
        let restricted = gates.iter().filter(|g| g.3.is_restricted()).count();
        assert_eq!((gates.len(), restricted), (1094, 0));
        // The walk itself, once per document: a tenant's status keeps
        // the matches whose list bit it holds, in the same order.
        let reference = |doc: &Request, matches: &[usize], tenant: u64| {
            let mut status = DocumentStatus::default();
            for &(bit, source, f, rf) in matches.iter().map(|&g| &gates[g]) {
                if bit & tenant == 0 {
                    continue;
                }
                let activation = |kind| Activation {
                    filter: f.raw.as_str().into(),
                    source,
                    kind,
                    subject: doc.url.as_str().into(),
                    donottrack: rf.options.donottrack,
                };
                if rf.options.document {
                    status.document_allow.push(activation(if rf.is_sitekey() {
                        MatchKind::SitekeyAllow
                    } else {
                        MatchKind::DocumentAllow
                    }));
                }
                if rf.options.elemhide {
                    status
                        .elemhide_allow
                        .push(activation(MatchKind::ElemhideAllow));
                }
            }
            status
        };

        const PER_KIND: usize = 1024;
        const KEYED: usize = 128;
        let (mut sites, mut pages) = (Vec::new(), Vec::new());
        let mut seen = HashSet::new();
        for s in websim::traffic::TrafficGen::new(2015).samples() {
            if sites.len() == PER_KIND && pages.len() == PER_KIND {
                break;
            }
            let site = format!("http://{}/", s.first_party);
            if sites.len() < PER_KIND && seen.insert(site.clone()) {
                sites.push(site);
            }
            if pages.len() < PER_KIND && seen.insert(s.url.clone()) {
                pages.push(s.url);
            }
        }
        let docs: Vec<Request> = sites
            .iter()
            .chain(&pages)
            .map(|u| Request::document(u).unwrap())
            .collect();
        let keyed = docs[..KEYED]
            .iter()
            .chain(&docs[PER_KIND..PER_KIND + KEYED])
            .flat_map(|d| keys.iter().map(|&k| d.clone().with_sitekey(k)));
        let docs: Vec<Request> = docs.iter().cloned().chain(keyed).collect();
        assert_eq!(docs.len(), 3072);

        let mut gated = [0usize; 4];
        for doc in &docs {
            let matches: Vec<usize> = (0..gates.len())
                .filter(|&g| gates[g].3.matches_ignoring_type(doc))
                .collect();
            for (i, tenant) in [u64::MAX, 0b01, 0b10, 0].into_iter().enumerate() {
                let want = reference(doc, &matches, tenant);
                assert_eq!(
                    engine.document_allowlist_masked(doc, tenant),
                    want,
                    "tenant {tenant:#b} on {doc:?}"
                );
                gated[i] += usize::from(want != DocumentStatus::default());
            }
        }
        // EasyList has no gate these documents reach; the whitelist's
        // reach a stated share of them.
        assert_eq!(gated, [1069, 0, 1069, 0]);
    }
}
