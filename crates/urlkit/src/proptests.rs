//! Property-based tests for URL parsing and domain reduction invariants.

use crate::{is_same_or_subdomain_of, registrable_domain, registrable_domain_str, Url};
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
}
