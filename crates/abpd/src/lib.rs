//! # abpd — the ad-decision daemon
//!
//! The paper measures ad-blocking decisions page by page; this crate
//! turns the same [`abp::Engine`] into a standalone network service so
//! decision throughput can be measured (and scaled) independently of
//! the crawler. Clients speak newline-delimited JSON over TCP (see
//! [`protocol`]). A connection belongs to one of N evaluation shards;
//! every batch it sends is evaluated on the thread that read it
//! ([`service::Service::decide_batch_local`], the only route) and
//! outcomes are memoized in that shard's LRU cache ([`cache`]). Two
//! socket fronts — epoll reactors and thread-per-connection, chosen by
//! [`ServerMode`] — feed one verb dispatch ([`server`]). A decision for
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
pub use server::{Server, ServerConfig, ServerMode};
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
