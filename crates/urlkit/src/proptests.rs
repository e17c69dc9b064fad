//! Property-based tests for URL parsing and domain reduction invariants.

use crate::{is_same_or_subdomain_of, reference, registrable_domain, registrable_domain_str, Url};
use proptest::prelude::*;

/// Strategy producing syntactically plausible hostnames (1–5 labels).
fn host_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z][a-z0-9-]{0,8}", 1..5).prop_map(|labels| labels.join("."))
}

proptest! {
    /// Parsing then re-displaying a URL built from clean components is
    /// lossless up to scheme/host lowercasing.
    #[test]
    fn parse_roundtrip(host in host_strategy(), path in "(/[a-zA-Z0-9._~-]{0,10}){0,4}") {
        let input = format!("http://{host}{path}");
        let u = Url::parse(&input).unwrap();
        prop_assert_eq!(u.as_str(), input.as_str());
        prop_assert_eq!(u.host(), host.as_str());
        prop_assert_eq!(u.path(), path.as_str());
    }

    /// `without_fragment` never contains a `#`.
    #[test]
    fn without_fragment_has_no_hash(host in host_strategy(), tail in "[a-zA-Z0-9/#?=._-]{0,30}") {
        if let Ok(u) = Url::parse(&format!("http://{host}/{tail}")) {
            prop_assert!(!u.without_fragment().contains('#'));
        }
    }

    /// A host is always a subdomain of itself, and prefixing a label
    /// preserves subdomain-ness.
    #[test]
    fn subdomain_reflexive_and_extendable(host in host_strategy(), label in "[a-z]{1,6}") {
        prop_assert!(is_same_or_subdomain_of(&host, &host));
        let sub = format!("{label}.{host}");
        prop_assert!(is_same_or_subdomain_of(&sub, &host));
    }

    /// The registrable domain is idempotent: reducing a reduction is a
    /// fixed point.
    #[test]
    fn registrable_domain_idempotent(host in host_strategy()) {
        if let Some(r) = registrable_domain(&host) {
            prop_assert_eq!(registrable_domain(&r), Some(r.clone()));
            // And the host is a subdomain of its registrable domain.
            prop_assert!(is_same_or_subdomain_of(&host, &r));
        }
    }

    /// The borrowed form is a suffix slice of the input naming the same
    /// domain as the owned form, whatever the input's case.
    #[test]
    fn registrable_domain_str_agrees_with_owned(host in host_strategy(), upper in any::<bool>()) {
        let host = if upper { host.to_ascii_uppercase() } else { host };
        let borrowed = registrable_domain_str(&host);
        prop_assert_eq!(borrowed.map(str::to_ascii_lowercase), registrable_domain(&host));
        if let Some(b) = borrowed {
            prop_assert!(host.ends_with(b));
        }
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = Url::parse(&input);
    }

    /// The byte-level parser agrees with the char-pattern reference on
    /// arbitrary input (which rarely holds a `://`, so mostly the error
    /// paths).
    #[test]
    fn parse_matches_reference_on_arbitrary_input(input in ".{0,200}") {
        assert_same_parse(&input);
    }

    /// ... and on URL-shaped input, where every split point is in play.
    #[test]
    fn parse_matches_reference_on_url_shapes(url in url_shape()) {
        assert_same_parse(&url);
    }

    /// Reparsing into one reused `Url` equals a fresh parse at every
    /// step of a sequence, and an input that fails leaves the URL as
    /// the last good one.
    #[test]
    fn reparse_equals_parse(inputs in proptest::collection::vec(url_shape(), 1..8)) {
        let mut reused = Url::parse("http://seed.example/").unwrap();
        for input in &inputs {
            let before = reused.clone();
            match (reused.reparse(input), Url::parse(input)) {
                (Ok(()), Ok(fresh)) => prop_assert_eq!(&reused, &fresh, "{:?}", input),
                (Err(got), Err(want)) => {
                    prop_assert_eq!(got, want, "{:?}", input);
                    prop_assert_eq!(&reused, &before, "{:?}", input);
                }
                (got, want) => prop_assert!(false, "{:?}: {:?} vs {:?}", input, got, want),
            }
        }
    }

    /// The byte-level registrable domain agrees with the reference on
    /// hosts with empty labels, outer dots, digits and mixed case.
    #[test]
    fn registrable_domain_str_matches_reference(host in messy_host()) {
        prop_assert_eq!(
            registrable_domain_str(&host),
            reference::registrable_domain_str(&host),
            "{:?}", host
        );
    }
}

/// `Url::parse(input)` equals the reference parse: the same `ParseError`,
/// or a `Url` equal field for field and through every accessor.
fn assert_same_parse(input: &str) {
    let got = Url::parse(input);
    let want = reference::parse(input);
    assert_eq!(got, want, "{input:?}");
    if let (Ok(g), Ok(w)) = (got, want) {
        assert_eq!(g.as_str(), w.as_str());
        assert_eq!(g.scheme(), w.scheme());
        assert_eq!(g.host(), w.host());
        assert_eq!(g.port(), w.port());
        assert_eq!(g.path(), w.path());
        assert_eq!(g.query(), w.query());
        assert_eq!(g.fragment(), w.fragment());
        assert_eq!(g.without_fragment(), w.without_fragment());
        assert_eq!(
            registrable_domain_str(g.host()),
            reference::registrable_domain_str(w.host())
        );
    }
}

/// Whitespace that may surround a URL: none, ASCII, and Unicode
/// `White_Space` that `str::trim` also strips.
const SPACES: [&str; 6] = ["", "", " ", "\t\n", "\u{a0}", "\u{2003}\u{3000}"];

/// Hosts of every shape the parser and the domain reduction split on:
/// mixed-case labels (some empty: `..` and outer dots), dotted quads,
/// bracketed IPv6 with and without its bracket closed, and hosts with
/// a space or a non-ASCII byte inside.
fn messy_host() -> impl Strategy<Value = String> {
    (
        any::<u8>(),
        proptest::collection::vec("[a-zA-Z0-9-]{0,5}", 1..5),
        prop::sample::select(&[
            "192.168.0.1",
            "10.0.1.1",
            "999.1.1.1",
            "1.2.3.4.5",
            "[::1]",
            "[2001:DB8::1]",
            "[::1",
            "[::1]x",
            "exa mple.com",
            "b\u{e9}b\u{e9}.Co.UK",
            ".www.Google.co.uk.",
            "co.uk",
            "a..com",
            "",
        ]),
    )
        .prop_map(|(pick, labels, special)| {
            if pick % 3 == 0 {
                special.to_string()
            } else {
                labels.join(".")
            }
        })
}

/// URL-shaped strings: scheme (mixed case, invalid, missing), userinfo
/// with `@`, every port spelling `u16::from_str` treats specially (`:`,
/// `:080`, `:+80`, `:99999`), IPv6 with and without a port, `?` and `#`
/// in both orders, and Unicode spaces around the whole.
fn url_shape() -> impl Strategy<Value = String> {
    (
        (
            prop::sample::select(&SPACES),
            prop::sample::select(&[
                "http", "HTTPS", "hTtP", "Ftp", "h2+x.y-z", "1http", "", "ht tp", "x:y",
            ]),
            prop::sample::select(&["://", "://", "://", ":/", "//", ":///"]),
        ),
        (
            prop::sample::select(&["", "", "", "user@", "u:p@", "a@b@", "@", "u@[x", "a b@"]),
            messy_host(),
            prop::sample::select(&[
                "", "", "", ":", ":80", ":080", ":+80", ":-80", ":99999", ":65535", ":65536",
                ":8a", ":8 0", ":8080", "]:1",
            ]),
        ),
        (
            prop::sample::select(&[
                "",
                "/",
                "/a/B.js",
                "/p?x=1#f",
                "/p#f?x=1",
                "?q=A",
                "#Frag",
                "/a?b?c#d#e",
                "/..//x:y@z",
                "/caf\u{e9}?q=\u{2003}",
            ]),
            prop::sample::select(&SPACES),
        ),
    )
        .prop_map(|((lead, scheme, sep), (user, host, port), (tail, trail))| {
            format!("{lead}{scheme}{sep}{user}{host}{port}{tail}{trail}")
        })
}
