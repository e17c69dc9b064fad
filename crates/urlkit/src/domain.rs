//! Domain-name utilities: subdomain tests and registrable-domain
//! ("effective second-level domain") computation.
//!
//! The paper reduces the whitelist's 3,544 fully qualified domains to
//! 1,990 *effective second-level domains* ("google.com is the effective
//! second-level domain of maps.google.com", Table 2). This module
//! implements that reduction over an embedded subset of the public-suffix
//! list covering every suffix that occurs in the synthetic corpus plus
//! the common multi-label suffixes seen in the real whitelist
//! (`co.uk`, `com.au`, `co.jp`, ...).

/// Second-level labels that, under the given country-code TLD, form a
/// multi-label public suffix (`co` under `uk`: registrations happen one
/// level deeper, at `google.co.uk`).
///
/// Any final label (e.g. `com`, `net`, `de`, `cm`, `io`) is always treated
/// as a public suffix; this table adds the two-label suffixes. Every one
/// of them sits under a two-letter TLD, so the lookup is a switch on two
/// bytes and a scan of at most six labels.
pub(crate) fn second_level_suffix_labels(tld: &str) -> &'static [&'static str] {
    let &[a, b] = tld.as_bytes() else {
        return &[];
    };
    match &[a.to_ascii_lowercase(), b.to_ascii_lowercase()] {
        b"uk" => &["co", "org", "ac", "gov", "me", "net"],
        b"au" => &["com", "net", "org", "edu", "gov"],
        b"jp" => &["co", "ne", "or", "ac", "go"],
        b"in" => &["co", "net", "org", "firm"],
        b"cn" => &["com", "net", "org", "gov"],
        b"br" => &["com", "net", "org"],
        b"nz" => &["co", "net", "org"],
        b"tw" | b"mx" => &["com", "org"],
        b"za" => &["co", "org"],
        b"kr" => &["co", "or"],
        b"il" => &["co"],
        b"ar" | b"tr" | b"sg" | b"hk" | b"my" | b"ph" | b"ua" | b"pl" | b"ru" | b"vn" | b"eg"
        | b"sa" => &["com"],
        _ => &[],
    }
}

/// Returns `true` when `host` equals `domain` or is a DNS subdomain of it.
///
/// This is the matching rule Adblock Plus applies for the `domain=` filter
/// option and the `||` host anchor: `cars.about.com` is a subdomain of
/// `about.com`, but `notabout.com` is not.
///
/// ```
/// use urlkit::is_same_or_subdomain_of;
/// assert!(is_same_or_subdomain_of("cars.about.com", "about.com"));
/// assert!(is_same_or_subdomain_of("about.com", "about.com"));
/// assert!(!is_same_or_subdomain_of("notabout.com", "about.com"));
/// ```
pub fn is_same_or_subdomain_of(host: &str, domain: &str) -> bool {
    if domain.is_empty() || host.len() < domain.len() {
        return false;
    }
    if !host.ends_with_ignore_case(domain) {
        return false;
    }
    host.len() == domain.len() || host.as_bytes()[host.len() - domain.len() - 1] == b'.'
}

trait EndsWithIgnoreCase {
    fn ends_with_ignore_case(&self, suffix: &str) -> bool;
}

impl EndsWithIgnoreCase for str {
    fn ends_with_ignore_case(&self, suffix: &str) -> bool {
        self.len() >= suffix.len() && self[self.len() - suffix.len()..].eq_ignore_ascii_case(suffix)
    }
}

/// Returns the registrable domain of `host` — the public suffix plus one
/// label — as a suffix slice of `host` (case preserved, nothing
/// allocated), or `None` when the host has no label above its public
/// suffix, has an empty label, or is an IP literal: a dotted-quad IPv4
/// address, or a bracketed IPv6 address (`Url::parse` keeps the
/// brackets). Leading and trailing dots are ignored.
///
/// ```
/// use urlkit::registrable_domain_str;
/// assert_eq!(registrable_domain_str("Maps.Google.com"), Some("Google.com"));
/// assert_eq!(registrable_domain_str("www.google.co.uk."), Some("google.co.uk"));
/// assert_eq!(registrable_domain_str("co.uk"), None);
/// assert_eq!(registrable_domain_str("192.168.1.1"), None);
/// ```
pub fn registrable_domain_str(host: &str) -> Option<&str> {
    let b = host.as_bytes();
    let start = b.iter().position(|&c| c != b'.')?;
    let end = b.iter().rposition(|&c| c != b'.')? + 1;
    let host = &host[start..end];
    let b = host.as_bytes();
    if b[0] == b'['
        || (b[b.len() - 1].is_ascii_digit() && host.parse::<std::net::Ipv4Addr>().is_ok())
    {
        return None;
    }
    // One backward pass: reject an empty label anywhere, and keep the
    // last three dots — TLD, second-level label, and the label above a
    // two-label suffix.
    let mut dots = [None; 3];
    let mut seen = 0;
    for i in (0..b.len()).rev() {
        if b[i] == b'.' {
            // Trailing dots are trimmed, so `i + 1` is in bounds.
            if b[i + 1] == b'.' {
                return None;
            }
            if let Some(slot) = dots.get_mut(seen) {
                *slot = Some(i);
            }
            seen += 1;
        }
    }
    let [tld_dot, sld_dot, third_dot] = dots;
    let tld_dot = tld_dot?;
    let sld_start = sld_dot.map_or(0, |d| d + 1);
    let (sld, tld) = (&host[sld_start..tld_dot], &host[tld_dot + 1..]);
    let two_label_suffix = second_level_suffix_labels(tld)
        .iter()
        .any(|l| l.eq_ignore_ascii_case(sld));
    if !two_label_suffix {
        return Some(&host[sld_start..]);
    }
    // A bare two-label suffix (`co.uk`) has nothing registered above it.
    sld_dot?;
    Some(&host[third_dot.map_or(0, |d| d + 1)..])
}

/// The owned, lowercased form of [`registrable_domain_str`].
///
/// ```
/// use urlkit::registrable_domain;
/// assert_eq!(registrable_domain("maps.google.com"), Some("google.com".to_string()));
/// assert_eq!(registrable_domain("www.google.co.uk"), Some("google.co.uk".to_string()));
/// assert_eq!(registrable_domain("com"), None);
/// ```
pub fn registrable_domain(host: &str) -> Option<String> {
    registrable_domain_str(host).map(str::to_ascii_lowercase)
}

/// Alias matching the paper's terminology: the *effective second-level
/// domain* of a fully qualified domain (Table 2's reduction).
pub fn effective_second_level_domain(host: &str) -> Option<String> {
    registrable_domain(host)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subdomain_basic() {
        assert!(is_same_or_subdomain_of("www.reddit.com", "reddit.com"));
        assert!(is_same_or_subdomain_of("a.b.c.reddit.com", "reddit.com"));
        assert!(is_same_or_subdomain_of("reddit.com", "reddit.com"));
    }

    #[test]
    fn subdomain_rejects_suffix_collision() {
        // The classic pitfall: "evilreddit.com" ends with "reddit.com" as a
        // string but is not a subdomain.
        assert!(!is_same_or_subdomain_of("evilreddit.com", "reddit.com"));
        assert!(!is_same_or_subdomain_of(
            "reddit.com.evil.net",
            "reddit.com"
        ));
    }

    #[test]
    fn subdomain_is_case_insensitive() {
        assert!(is_same_or_subdomain_of("WWW.Reddit.COM", "reddit.com"));
        assert!(is_same_or_subdomain_of("www.reddit.com", "Reddit.Com"));
    }

    #[test]
    fn subdomain_empty_domain_is_false() {
        assert!(!is_same_or_subdomain_of("reddit.com", ""));
    }

    /// The owned form, after checking that the borrowed form is the same
    /// domain as a suffix slice of the input.
    fn e2ld(host: &str) -> Option<String> {
        let owned = registrable_domain(host);
        let borrowed = registrable_domain_str(host);
        assert_eq!(borrowed.map(str::to_ascii_lowercase), owned, "{host:?}");
        if let Some(b) = borrowed {
            assert!(host.trim_matches('.').ends_with(b), "{b:?} of {host:?}");
        }
        owned
    }

    #[test]
    fn e2ld_single_label_suffix() {
        assert_eq!(e2ld("google.com"), Some("google.com".into()));
        assert_eq!(e2ld("maps.google.com"), Some("google.com".into()));
        assert_eq!(e2ld("cars.about.com"), Some("about.com".into()));
    }

    #[test]
    fn e2ld_multi_label_suffix() {
        assert_eq!(e2ld("google.co.uk"), Some("google.co.uk".into()));
        assert_eq!(e2ld("www.google.co.uk"), Some("google.co.uk".into()));
        assert_eq!(e2ld("kayak.com.au"), Some("kayak.com.au".into()));
        // `com` is a second-level suffix label under `au`, not under `uk`.
        assert_eq!(e2ld("shop.kayak.com.uk"), Some("com.uk".into()));
    }

    #[test]
    fn e2ld_of_bare_suffix_is_none() {
        assert_eq!(e2ld("com"), None);
        assert_eq!(e2ld("co.uk"), None);
        assert_eq!(e2ld("CO.UK"), None);
        assert_eq!(e2ld(""), None);
        assert_eq!(e2ld("."), None);
    }

    #[test]
    fn e2ld_handles_parked_typo_tlds() {
        // reddit.cm — the parked typo domain from §4.2.3.
        assert_eq!(e2ld("reddit.cm"), Some("reddit.cm".into()));
        assert_eq!(e2ld("www.reddit.cm"), Some("reddit.cm".into()));
    }

    #[test]
    fn e2ld_lowercases_owned_and_borrows_verbatim() {
        assert_eq!(e2ld("Maps.Google.COM"), Some("google.com".into()));
        assert_eq!(
            registrable_domain_str("Maps.Google.COM"),
            Some("Google.COM")
        );
        assert_eq!(e2ld("WWW.Google.Co.UK"), Some("google.co.uk".into()));
    }

    #[test]
    fn e2ld_ignores_trailing_and_leading_dots() {
        assert_eq!(e2ld("www.example.com."), Some("example.com".into()));
        assert_eq!(e2ld(".example.com"), Some("example.com".into()));
        assert_eq!(e2ld("www.google.co.uk."), Some("google.co.uk".into()));
    }

    #[test]
    fn e2ld_rejects_empty_labels() {
        assert_eq!(e2ld("a..com"), None);
        assert_eq!(e2ld("a..b.example.com"), None);
    }

    #[test]
    fn ip_hosts_have_no_registrable_domain() {
        // Both used to reduce to "1.1": two unrelated hosts, one party.
        assert_eq!(e2ld("192.168.1.1"), None);
        assert_eq!(e2ld("10.0.1.1"), None);
        assert_eq!(e2ld("[::1]"), None);
        assert_eq!(e2ld("[::ffff:10.0.1.1]"), None);
        // Not dotted quads: ordinary names that happen to hold digits.
        assert_eq!(e2ld("1.2.3.4.5"), Some("4.5".into()));
        assert_eq!(e2ld("999.1.1.1"), Some("1.1".into()));
        assert_eq!(e2ld("cdn1.example.com"), Some("example.com".into()));
    }

    #[test]
    fn paper_table2_reduction_example() {
        // Table 2: "google.com is the effective second-level domain of
        // maps.google.com".
        assert_eq!(
            effective_second_level_domain("maps.google.com"),
            Some("google.com".into())
        );
    }
}
