//! The request context a filter is evaluated against.

use crate::options::ResourceType;
use serde::{Deserialize, Serialize};
use urlkit::{ParseError, Url};

/// A web request as seen by the blocker: the URL being fetched, the
/// first-party page domain, the resource type inferred from the
/// initiating element, and (when present) a cryptographically verified
/// sitekey presented by the document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// The parsed request URL.
    pub url: Url,
    /// Pre-lowercased URL string for case-insensitive pattern matching.
    pub url_lower: String,
    /// The first-party (page) hostname the request originates from.
    pub first_party: String,
    /// The resource type of the load.
    pub resource_type: ResourceType,
    /// Whether the request is third-party: the request host does not share
    /// the first party's registrable domain.
    pub third_party: bool,
    /// The base64-DER public key of a sitekey signature the document
    /// presented *and the browser verified*. Verification is the
    /// `sitekey` crate's job; the engine trusts this field.
    pub verified_sitekey: Option<String>,
}

impl Request {
    /// Build a request, computing third-party-ness from the registrable
    /// domains of the request host and the first party (ABP's rule: a
    /// request is first-party when both hosts share a registrable domain).
    /// Like the URL (see [`Url::parse`]), the first party is trimmed of
    /// Unicode `White_Space` as [`str::trim`] does, then ASCII-lowercased.
    pub fn new(
        url: &str,
        first_party: &str,
        resource_type: ResourceType,
    ) -> Result<Self, ParseError> {
        let url = Url::parse(url)?;
        let first_party = first_party.trim().to_ascii_lowercase();
        let third_party = !same_party(url.host(), &first_party);
        Ok(Request {
            url_lower: url.as_str().to_ascii_lowercase(),
            url,
            first_party,
            resource_type,
            third_party,
            verified_sitekey: None,
        })
    }

    /// Attach a verified sitekey (builder style).
    pub fn with_sitekey(mut self, key: impl Into<String>) -> Self {
        self.verified_sitekey = Some(key.into());
        self
    }

    /// A document (top-level page) request for `url`: first party is the
    /// URL's own host and the resource type is [`ResourceType::Document`].
    pub fn document(url: &str) -> Result<Self, ParseError> {
        let parsed = Url::parse(url)?;
        let host = parsed.host().to_string();
        Request::new(url, &host, ResourceType::Document)
    }
}

/// Whether two hosts belong to the same party (shared registrable domain,
/// falling back to exact host equality for hosts without one: bare public
/// suffixes and IP literals).
pub fn same_party(host_a: &str, host_b: &str) -> bool {
    // Equal hosts (45% of the corpus traffic: a page loading from its
    // own host) reduce to equal registrable domains, or to none on both
    // sides, so either way they are one party: skip the reduction.
    if host_a.eq_ignore_ascii_case(host_b) {
        return true;
    }
    match (
        urlkit::registrable_domain_str(host_a),
        urlkit::registrable_domain_str(host_b),
    ) {
        (Some(a), Some(b)) => a.eq_ignore_ascii_case(b),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn third_party_detection() {
        let r = Request::new(
            "http://static.adzerk.net/reddit/ads.html",
            "www.reddit.com",
            ResourceType::Subdocument,
        )
        .unwrap();
        assert!(r.third_party);

        let r = Request::new(
            "http://www.reddit.com/static/logo.png",
            "reddit.com",
            ResourceType::Image,
        )
        .unwrap();
        assert!(!r.third_party);
    }

    #[test]
    fn same_registrable_domain_is_first_party() {
        // Subdomains of the same registrable domain are first-party.
        let r = Request::new(
            "http://cdn.images.example.com/x.png",
            "www.example.com",
            ResourceType::Image,
        )
        .unwrap();
        assert!(!r.third_party);
    }

    #[test]
    fn document_request_is_first_party() {
        let r = Request::document("https://www.toyota.com/").unwrap();
        assert_eq!(r.resource_type, ResourceType::Document);
        assert_eq!(r.first_party, "www.toyota.com");
        assert!(!r.third_party);
    }

    #[test]
    fn first_party_is_lowercased() {
        let r = Request::new("http://a.com/x", "  WWW.Reddit.COM ", ResourceType::Image).unwrap();
        assert_eq!(r.first_party, "www.reddit.com");
        let r = Request::new(
            "\u{a0}http://a.com/x\u{2003}",
            "\u{2003}WWW.Reddit.COM\u{a0}",
            ResourceType::Image,
        )
        .unwrap();
        assert_eq!(
            (r.url.as_str(), r.first_party.as_str()),
            ("http://a.com/x", "www.reddit.com")
        );
    }

    #[test]
    fn url_lower_matches_url() {
        let r = Request::new("http://a.com/ADS/Banner.GIF", "a.com", ResourceType::Image).unwrap();
        assert_eq!(r.url_lower, "http://a.com/ads/banner.gif");
        assert_eq!(r.url.as_str(), "http://a.com/ADS/Banner.GIF");
    }

    #[test]
    fn bare_suffix_hosts_compare_exactly() {
        assert!(same_party("com", "com"));
        assert!(!same_party("com", "net"));
    }

    #[test]
    fn same_party_ignores_case_and_trailing_dots() {
        assert!(same_party("CDN.Example.CO.UK", "www.example.co.uk."));
        assert!(!same_party("example.co.uk", "other.co.uk"));
    }

    #[test]
    fn ip_hosts_are_one_party_only_with_themselves() {
        assert!(same_party("192.168.1.1", "192.168.1.1"));
        assert!(!same_party("192.168.1.1", "10.0.1.1"));
        assert!(same_party("[::1]", "[::1]"));
        assert!(!same_party("[::1]", "[::2]"));

        let r = |url: &str, first: &str| Request::new(url, first, ResourceType::Image).unwrap();
        assert!(!r("http://192.168.1.1/logo.png", "192.168.1.1").third_party);
        assert!(r("http://10.0.1.1/pixel.gif", "192.168.1.1").third_party);
        assert!(!r("http://[::1]:8080/x.png", "[::1]").third_party);
        assert!(r("http://[::2]:8080/x.png", "[::1]").third_party);
    }
}
