//! # urlkit — URL parsing and domain utilities
//!
//! A small, dependency-free URL substrate for the `acceptable-ads`
//! workspace. It provides:
//!
//! * [`Url`] — a parsed absolute URL (scheme, host, port, path, query,
//!   fragment) with the lenient semantics browsers and Adblock Plus apply
//!   to request URLs;
//! * [`domain`] — registrable-domain ("effective second-level domain")
//!   computation over an embedded public-suffix subset, plus subdomain
//!   tests used by filter `domain=` options and the `||` anchor;
//! * [`separator`] — the Adblock Plus `^` separator-character class
//!   ("anything but a letter, a digit, or one of `_ - . %`").
//!
//! Everything here is deterministic and panic-free on untrusted input:
//! parsing returns [`ParseError`] instead of panicking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domain;
pub mod parse;
pub mod separator;

pub use domain::{
    effective_second_level_domain, is_same_or_subdomain_of, registrable_domain,
    registrable_domain_str,
};
pub use parse::{ParseError, Url};
pub use separator::is_separator;

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference;
