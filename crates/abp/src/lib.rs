//! # abp — a from-scratch Adblock Plus filter engine
//!
//! This crate implements the complete filter language described in
//! Appendix A of *Measuring the Impact and Perception of Acceptable
//! Advertisements* (IMC 2015), mirroring the Adblock Plus semantics the
//! paper measures:
//!
//! * **Request filters** — blocking (`||adzerk.net^$third-party`) and
//!   exception (`@@||adzerk.net/reddit/$subdocument,document,domain=reddit.com`)
//!   filters with the full option set: resource types, `third-party`,
//!   `domain=`, `sitekey=`, `match-case`, `collapse`, `donottrack`,
//!   `document`, `elemhide`, negations, and the deprecated options kept
//!   for backwards compatibility.
//! * **Element-hiding filters** — `reddit.com##.promotedlink` — and
//!   element-hide exceptions — `reddit.com#@##ad_main`.
//! * **Sitekey filters** — `@@$sitekey=MFww...,document` — which gate on a
//!   cryptographically verified public key presented by the page (the
//!   verification itself lives in the `sitekey` crate; this crate matches
//!   on the verified key string).
//!
//! The [`engine::Engine`] combines any number of [`list::FilterList`]s
//! (e.g. an EasyList-style blacklist and the Acceptable Ads whitelist),
//! indexes request filters by their rarest token — the same trick
//! Adblock Plus and adblock-rust use — and answers:
//!
//! * [`engine::Engine::match_request`] — *all* blocking/exception filters
//!   matching a request plus the final block/allow decision (the paper's
//!   instrumentation records every activation, not just the decision);
//! * [`engine::Engine::document_allowlist`] — `$document`/`$elemhide`/
//!   sitekey page-level gates;
//! * [`engine::Engine::hiding_for_domain`] — the element-hiding selectors
//!   in force on a first-party domain after exceptions are applied.
//!
//! Parsing is lenient and total: any line parses to a
//! [`parser::ParsedLine`], with malformed filters preserved (the paper's
//! §8 hygiene analysis counts malformed, truncated filters — we must be
//! able to represent them rather than reject them).

// `deny`, not `forbid`: the SSE2 lane in `scan` is the crate's single
// module-scoped `#[allow(unsafe_code)]` island (same discipline as
// `abpd::poll`); everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod anchors;
pub mod engine;
pub mod filter;
pub mod intern;
pub mod list;
pub mod options;
pub mod parser;
pub mod pattern;
pub mod request;
pub mod scan;

pub use activation::{Activation, MatchKind};
pub use engine::{Decision, Engine, RequestOutcome, TailStats};
pub use filter::{ElementFilter, Filter, FilterAction, FilterBody, RequestFilter};
pub use intern::IStr;
pub use list::{FilterList, ListMetadata, ListSource};
pub use options::{DomainConstraint, FilterOptions, ResourceType};
pub use parser::{parse_filter, parse_line, ParseOutcome, ParsedLine};
pub use request::Request;

#[cfg(test)]
mod proptests;
