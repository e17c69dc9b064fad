//! Property-based tests for the filter language and engine invariants.

use crate::engine::{Decision, Engine};
use crate::list::{FilterList, ListSource};
use crate::options::ResourceType;
use crate::parser::{parse_filter, parse_line};
use crate::pattern::Pattern;
use crate::request::Request;
use proptest::prelude::*;

fn host() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z]{2,8}", 2..4).prop_map(|ls| ls.join("."))
}

/// Hosts for the party test: a shared site's subdomains, a multi-label
/// suffix, bare suffixes, IPs, and a name with an empty label.
fn party_host() -> impl Strategy<Value = String> {
    prop::sample::select(&[
        "a.example.com",
        "www.Example.com",
        "example.com.",
        "cdn.other.net",
        "shop.example.co.uk",
        "news.example.co.uk",
        "co.uk",
        "com",
        "192.168.1.1",
        "10.0.1.1",
        "[::1]",
        "a..example.com",
        "",
    ])
    .prop_map(str::to_string)
}

proptest! {
    /// Parsing never panics on arbitrary lines.
    #[test]
    fn parse_line_total(line in ".{0,300}") {
        let _ = parse_line(&line);
    }

    /// Every parsed filter preserves its raw text exactly.
    #[test]
    fn raw_preserved(line in "[!-~]{1,80}") {
        if let Ok(f) = parse_filter(&line) {
            prop_assert_eq!(f.raw, line.trim().to_string());
        }
    }

    /// A `||host^` filter matches requests to that host and all its
    /// subdomains, and never matches unrelated hosts.
    #[test]
    fn host_anchor_soundness(h in host(), sub in "[a-z]{2,6}", other in host()) {
        let f = parse_filter(&format!("||{h}^")).unwrap();
        let rf = f.as_request().unwrap();

        let direct = Request::new(&format!("http://{h}/x.png"), "firstparty.example", ResourceType::Image).unwrap();
        prop_assert!(rf.matches(&direct));

        let subdomain = Request::new(&format!("http://{sub}.{h}/x.png"), "firstparty.example", ResourceType::Image).unwrap();
        prop_assert!(rf.matches(&subdomain));

        if !other.ends_with(&h) && !h.ends_with(&other) && other != h {
            let unrelated = Request::new(&format!("http://{other}/x.png"), "firstparty.example", ResourceType::Image).unwrap();
            prop_assert!(!rf.matches(&unrelated), "{} matched ||{}^", other, h);
        }
    }

    /// Pattern matching is invariant under URL case when `match-case` is
    /// off.
    #[test]
    fn case_insensitive_matching(pat in "[a-z/.]{3,12}", url_path in "[a-zA-Z0-9/._-]{0,30}") {
        let p = Pattern::compile(&pat, false);
        let url = format!("http://example.com/{url_path}");
        prop_assert_eq!(p.matches(&url), p.matches(&url.to_ascii_uppercase().to_ascii_lowercase()));
        prop_assert_eq!(p.matches(&url), p.matches(&url.to_ascii_uppercase()));
    }

    /// Engine invariant: exceptions always override blocks — if both
    /// sides match, the decision is AllowedByException; a Block decision
    /// implies no exception matched.
    #[test]
    fn exceptions_override_blocks(h in host(), ty in prop::sample::select(&ResourceType::ALL[..])) {
        let text = format!("||{h}^\n");
        let wl_text = format!("@@||{h}^\n");
        let bl = FilterList::parse(ListSource::EasyList, &text);
        let wl = FilterList::parse(ListSource::AcceptableAds, &wl_text);
        let e = Engine::from_lists([&bl, &wl]);
        let r = Request::new(&format!("https://{h}/ad.js"), "elsewhere.example", ty).unwrap();
        let out = e.match_request(&r);
        if ty == ResourceType::Document {
            // Default masks exclude `document`; neither side matches.
            prop_assert_eq!(out.decision, Decision::NoMatch);
        } else {
            prop_assert_eq!(out.decision, Decision::AllowedByException);
        }
    }

    /// Engine equivalence: the token index never loses a match relative
    /// to brute-force evaluation of every filter.
    #[test]
    fn index_complete(hosts in proptest::collection::vec(host(), 1..20), probe in 0usize..20) {
        let mut text = String::new();
        for h in &hosts {
            text.push_str(&format!("||{h}^\n"));
        }
        let list = FilterList::parse(ListSource::EasyList, &text);
        let e = Engine::from_lists([&list]);
        let target = &hosts[probe % hosts.len()];
        let r = Request::new(&format!("http://{target}/x"), "firstparty.example", ResourceType::Image).unwrap();
        let out = e.match_request(&r);
        prop_assert_eq!(out.decision, Decision::Block);
        // Brute force count of matching filters must equal activations.
        let brute = list
            .filters()
            .filter(|f| f.as_request().map(|rf| rf.matches(&r)).unwrap_or(false))
            .count();
        prop_assert_eq!(out.activations.len(), brute);
    }

    /// List round-trip: parse → to_text → parse preserves filter count.
    #[test]
    fn list_roundtrip(lines in proptest::collection::vec("[!-~]{0,60}", 0..30)) {
        let text = lines.join("\n");
        let list = FilterList::parse(ListSource::Custom, &text);
        let list2 = FilterList::parse(ListSource::Custom, &list.to_text());
        prop_assert_eq!(list.filter_count(), list2.filter_count());
    }

    /// The SWAR/SIMD substring kernel agrees with a naive byte-level
    /// reference on arbitrary byte strings — empty needles, non-ASCII
    /// bytes, every length relation — and a needle sliced straight out
    /// of the haystack (boundary positions included) is always found at
    /// or before its source offset.
    #[test]
    fn scan_find_matches_reference(
        hay in proptest::collection::vec(any::<u8>(), 0..96),
        needle in proptest::collection::vec(any::<u8>(), 0..9),
        pick in 0usize..4096,
    ) {
        fn naive(h: &[u8], n: &[u8]) -> Option<usize> {
            if n.is_empty() {
                return Some(0);
            }
            if n.len() > h.len() {
                return None;
            }
            (0..=h.len() - n.len()).find(|&i| &h[i..i + n.len()] == n)
        }
        prop_assert_eq!(crate::scan::find(&hay, &needle), naive(&hay, &needle));
        if !hay.is_empty() {
            let start = pick % hay.len();
            let len = (hay.len() - start).min(needle.len().max(1));
            let sub: Vec<u8> = hay[start..start + len].to_vec();
            let got = crate::scan::find(&hay, &sub);
            prop_assert_eq!(got, naive(&hay, &sub));
            prop_assert!(got.is_some_and(|p| p <= start));
        }
    }

    /// `same_party`'s equal-host shortcut changes no answer: it is
    /// still "equal registrable domains, or equal hosts where either has
    /// none", for names, bare suffixes, IPs and empty labels in any case.
    #[test]
    fn same_party_is_its_definition(
        a in party_host(),
        b in party_host(),
        copy in any::<bool>(),
        upper in any::<bool>(),
    ) {
        let b = if copy { a.clone() } else { b };
        let b = if upper { b.to_ascii_uppercase() } else { b };
        let want = match (urlkit::registrable_domain_str(&a), urlkit::registrable_domain_str(&b)) {
            (Some(x), Some(y)) => x.eq_ignore_ascii_case(y),
            _ => a.eq_ignore_ascii_case(&b),
        };
        prop_assert_eq!(crate::request::same_party(&a, &b), want, "{} vs {}", a, b);
    }

    /// One request refilled through a random sequence equals a fresh
    /// `Request::new` (sitekey attached) at every step, field for field:
    /// unparseable URLs (which leave it as it was), Unicode whitespace
    /// around URL and first party, mixed case, and sitekeys coming and
    /// going.
    #[test]
    fn refill_equals_new(
        steps in proptest::collection::vec(
            ((
                prop::sample::select(&[
                    "http://Ads.Example.com/a/B.js?x=1#f",
                    "\u{a0}https://cdn.example.co.uk:8443/p\u{2003}",
                    "http://[::1]:8080/pixel.gif",
                    "HTTP://u:p@Tracker.NET",
                    "not a url",
                    "http:///no-host",
                    "http://a.com:99999/",
                    "",
                ][..]),
                party_host(),
                prop::sample::select(&["", " ", "\u{2003}", "\t\u{a0}"][..]),
            ), (
                prop::sample::select(&ResourceType::ALL[..]),
                prop::sample::select(&[None, Some(""), Some("MFwwDQYJKEY"), Some("k2")][..]),
            )),
            1..12,
        ),
    ) {
        let mut reused = Request::new("http://seed.example/", "seed.example", ResourceType::Other)
            .unwrap()
            .with_sitekey("SEED");
        for ((url, party, pad), (ty, sitekey)) in steps {
            let party = format!("{pad}{party}{pad}");
            let before = reused.clone();
            let fresh = Request::new(url, &party, ty)
                .map(|r| match sitekey {
                    Some(k) => r.with_sitekey(k),
                    None => r,
                });
            match (reused.refill(url, &party, ty, sitekey), fresh) {
                (Ok(()), Ok(fresh)) => prop_assert_eq!(&reused, &fresh, "{:?}", url),
                (Err(got), Err(want)) => {
                    prop_assert_eq!(got, want, "{:?}", url);
                    prop_assert_eq!(&reused, &before, "{:?}", url);
                }
                (got, want) => prop_assert!(false, "{:?}: {:?} vs {:?}", url, got, want),
            }
        }
    }

    /// On valid UTF-8 the byte-level kernel is exactly `str::find` —
    /// the property the pattern matcher's dropped boundary bookkeeping
    /// rests on.
    #[test]
    fn scan_find_matches_str_find(hay in ".{0,60}", needle in ".{0,6}") {
        prop_assert_eq!(
            crate::scan::find(hay.as_bytes(), needle.as_bytes()),
            hay.find(&needle)
        );
    }
}

#[cfg(test)]
mod pattern_metamorphic {
    use super::*;
    use crate::pattern::Pattern;

    fn url_strategy() -> impl Strategy<Value = String> {
        (host(), "[a-z0-9/._-]{0,24}").prop_map(|(h, p)| format!("http://{h}/{p}"))
    }

    proptest! {
        /// Any literal substring of a URL, used as a pattern, matches it.
        #[test]
        fn substring_always_matches(url in url_strategy(), start in 0usize..10, len in 1usize..12) {
            let start = start.min(url.len() - 1);
            let end = (start + len).min(url.len());
            let needle = &url[start..end];
            // Skip slices containing pattern metacharacters.
            prop_assume!(!needle.contains(['*', '^', '|', '$']));
            prop_assume!(!needle.is_empty());
            let p = Pattern::compile(needle, false);
            prop_assert!(p.matches(&url), "{needle:?} should match {url:?}");
        }

        /// Inserting `*` between two halves of a matching literal keeps it
        /// matching (wildcards only weaken a pattern).
        #[test]
        fn wildcard_insertion_weakens(url in url_strategy(), cut in 2usize..10) {
            let tail_start = url.len().saturating_sub(8);
            let needle = &url[tail_start..];
            prop_assume!(!needle.contains(['*', '^', '|', '$']) && needle.len() >= 4);
            let cut = cut.min(needle.len() - 1).max(1);
            let weakened = format!("{}*{}", &needle[..cut], &needle[cut..]);
            let p = Pattern::compile(&weakened, false);
            prop_assert!(p.matches(&url), "{weakened:?} should match {url:?}");
        }

        /// A pattern equal to the whole URL with both `|` anchors matches
        /// exactly that URL and not the URL with a suffix.
        #[test]
        fn full_anchored_pattern_is_exact(url in url_strategy()) {
            prop_assume!(!url.contains(['*', '^', '$']));
            let p = Pattern::compile(&format!("|{url}|"), false);
            prop_assert!(p.matches(&url));
            let suffixed = format!("{url}x");
            let prefixed = format!("x{url}");
            prop_assert!(!p.matches(&suffixed));
            prop_assert!(!p.matches(&prefixed));
        }

        /// `||host^` is equivalent to matching the URL's host label
        /// boundary: it matches iff host equals or is a suffix-label of
        /// the URL's host.
        #[test]
        fn host_anchor_equivalence(h in host(), url in url_strategy()) {
            let p = Pattern::compile(&format!("||{h}^"), false);
            let parsed = urlkit::Url::parse(&url).unwrap();
            let expected = urlkit::is_same_or_subdomain_of(parsed.host(), &h);
            prop_assert_eq!(p.matches(&url), expected, "||{}^ vs {}", h, url);
        }

        /// Compilation is total and matching never panics for arbitrary
        /// pattern/URL pairs.
        #[test]
        fn compile_and_match_total(pat in ".{0,60}", url in ".{0,120}") {
            let p = Pattern::compile(&pat, false);
            let _ = p.matches(&url);
            let _ = p.tokens();
        }

        /// Every extracted token is a *whole* URL token — a maximal
        /// `[a-z0-9%]` run of the lowercased URL — of any URL the
        /// pattern matches: the property the token table relies on when
        /// it looks URL tokens up by equality. A token that fails it
        /// files its filter where no request can find it.
        ///
        /// Patterns take each anchor (`|`, `||`, none), an optional end
        /// anchor and `match-case`, over a body of words, digits, `%XX`
        /// escapes, upper case, non-ASCII literals, `.` `-` `_` `/`,
        /// `^` and `*`. The URL is the body instantiated (`*` as a
        /// random fill that may itself be tokenish, `^` as a separator)
        /// inside random tokenish or separator context.
        #[test]
        fn tokens_sound_for_index(
            anchor in prop::sample::select(&["", "|", "||"]),
            body in prop::collection::vec(prop::sample::select(&PATTERN_PIECES), 1..8),
            end_anchor in any::<bool>(),
            match_case in any::<bool>(),
            h in host(),
            context in ("[a-z0-9%._/-]{0,4}", "[a-zA-Z0-9%._/?=-]{0,4}"),
            fill in "[a-zA-Z0-9%._/-]{0,5}",
            sep in prop::sample::select(&["/", "?", "&", "=", ":"]),
            upper in any::<bool>(),
        ) {
            let body: String = body.concat();
            let (prefix, suffix) = context;
            let suffix = if end_anchor { "" } else { suffix.as_str() };
            let instantiated: String = body
                .chars()
                .map(|c| match c {
                    '*' => fill.clone(),
                    '^' => sep.to_string(),
                    c => c.to_string(),
                })
                .collect();
            let (pattern_head, url_head) = match anchor {
                "|" => (format!("|http://{h}/"), format!("http://{h}/")),
                "||" => (format!("||{h}"), format!("http://sub.{h}")),
                _ => (String::new(), format!("http://{h}/{prefix}")),
            };
            let end = if end_anchor { "|" } else { "" };
            let p = Pattern::compile(&format!("{pattern_head}{body}{end}"), match_case);
            let url = format!("{url_head}{instantiated}{suffix}");
            let url = if upper && !match_case { url.to_ascii_uppercase() } else { url };
            prop_assert!(p.matches(&url), "{:?} should match {url:?}", p.raw);
            let lower = url.to_ascii_lowercase();
            let url_tokens: Vec<&str> = lower
                .split(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '%'))
                .collect();
            for token in p.tokens() {
                prop_assert!(
                    url_tokens.contains(&token.as_str()),
                    "token {token:?} of {:?} is not a whole token of matching url {url:?}",
                    p.raw
                );
            }
        }
    }

    /// Pieces of the patterns `tokens_sound_for_index` draws: token
    /// words, digits, `%XX`, upper case, non-ASCII, token boundaries and
    /// the two metacharacters.
    const PATTERN_PIECES: [&str; 20] = [
        "ads", "banner", "x1", "com", "7", "42", "%2F", "%3a", "AdS", "é", "中", ".", "-", "_",
        "/", "?", "^", "^", "*", "*",
    ];
}

#[cfg(test)]
mod elem_props {
    use super::*;

    proptest! {
        /// An element rule restricted to a domain applies on that domain
        /// and its subdomains only.
        #[test]
        fn element_domain_scope(h in host(), sub in "[a-z]{2,5}", other in host()) {
            let f = parse_filter(&format!("{h}##.ad")).unwrap();
            let ef = f.as_element().unwrap();
            prop_assert!(ef.applies_on(&h));
            let subhost = format!("{sub}.{h}");
            prop_assert!(ef.applies_on(&subhost));
            if other != h && !other.ends_with(&format!(".{h}")) {
                prop_assert!(!ef.applies_on(&other));
            }
        }
    }
}

/// The host index against the linear definition it replaces: a host
/// matches a registered domain iff `urlkit::is_same_or_subdomain_of`
/// says so, and hosts sharing a plan key are alike to every element
/// rule.
#[cfg(test)]
mod host_index_props {
    use super::*;
    use crate::anchors::{HostIndex, HostIndexBuilder};
    use crate::options::DomainConstraint;
    use proptest::TestRng;

    /// Labels registered domains and hosts are glued from: a few shared
    /// ones so that they overlap, case variants, an empty label, and the
    /// pieces of IP literals.
    const LABELS: [&str; 13] = [
        "a",
        "b",
        "ab",
        "ads",
        "com",
        "Com",
        "",
        "x-y",
        "1",
        "10",
        "0",
        "[::1]",
        "[2001:db8::1]",
    ];

    /// One to `max_labels - 1` labels joined by dots.
    fn name(rng: &mut TestRng, max_labels: usize) -> String {
        let labels: Vec<&str> = (0..rng.usize_in(1, max_labels))
            .map(|_| LABELS[rng.below(LABELS.len() as u64) as usize])
            .collect();
        labels.join(".")
    }

    /// A registered-domain set: glued names, and some IP literals.
    fn domains(rng: &mut TestRng) -> Vec<String> {
        (0..rng.usize_in(0, 24))
            .map(|_| match rng.below(8) {
                0 => ["10.0.0.1", "0.0.1", "[::1]", "[2001:db8::1]"][rng.below(4) as usize].into(),
                _ => name(rng, 4),
            })
            .collect()
    }

    /// A host: a glued name; one with a leading or a trailing dot; an
    /// IPv4 or bracketed IPv6 literal; a subdomain of a registered
    /// domain; or one longer than any key. Half of them get uppercase.
    fn host(rng: &mut TestRng, domains: &[String]) -> String {
        let registered = |rng: &mut TestRng| match domains.len() {
            0 => name(rng, 3),
            n => domains[rng.below(n as u64) as usize].clone(),
        };
        let host = match rng.below(7) {
            0 => name(rng, 6),
            1 => format!(".{}", name(rng, 4)),
            2 => format!("{}.", name(rng, 4)),
            3 => ["10.0.0.1", "192.168.0.10", "[::1]", "[2001:db8::1]", "1.10"]
                [rng.below(5) as usize]
                .into(),
            4 => registered(rng),
            5 => format!("{}.{}", name(rng, 3), registered(rng)),
            _ => format!("{}.{}", "long-label".repeat(12), registered(rng)),
        };
        match rng.below(2) {
            0 => host.to_ascii_uppercase(),
            _ => host,
        }
    }

    /// What the index files for `host`: gate ids and scope ids, sorted.
    fn index_hits(index: &HostIndex, host: &str) -> (Vec<u32>, Vec<u32>) {
        let entry = index.find(&host.to_ascii_lowercase());
        let mut gate: Vec<u32> = index
            .chain(entry)
            .flat_map(|e| index.gate_ids(e).to_vec())
            .collect();
        let mut scope: Vec<u32> = index
            .chain(entry)
            .flat_map(|e| index.scope_ids(e).to_vec())
            .collect();
        gate.sort_unstable();
        scope.sort_unstable();
        (gate, scope)
    }

    proptest! {
        /// Gate and scope hits equal the linear walk over every
        /// registered domain, and hosts with one plan key see every
        /// element rule's `applies_on` alike.
        #[test]
        fn host_index_equals_the_linear_suffix_walk(seed in any::<u64>()) {
            let mut rng = TestRng::deterministic(&format!("host_index_{seed}"));
            let domains = domains(&mut rng);
            // Request filters file under includes; element rules under
            // includes and, as plan keys only, excludes.
            let mut gate: Vec<(&str, u32)> = Vec::new();
            let mut rules: Vec<(DomainConstraint, u64)> = Vec::new();
            let mut b = HostIndexBuilder::default();
            let pick = |rng: &mut TestRng| domains[rng.below(domains.len() as u64) as usize].as_str();
            for id in 0..rng.usize_in(0, 12) as u32 {
                if domains.is_empty() {
                    break;
                }
                for _ in 0..rng.usize_in(1, 3) {
                    let d = pick(&mut rng);
                    gate.push((d, id));
                    b.gate(d, id);
                }
            }
            for id in 0..rng.usize_in(0, 12) as u32 {
                let lists = 1 << rng.below(4);
                let mut rule = DomainConstraint::any();
                if !domains.is_empty() {
                    for _ in 0..rng.usize_in(0, 3) {
                        rule.include.push(pick(&mut rng).to_string());
                    }
                    for _ in 0..rng.usize_in(0, 3) {
                        rule.exclude.push(pick(&mut rng).to_string());
                    }
                }
                for d in &rule.include {
                    b.scope(d, id, lists);
                }
                for d in &rule.exclude {
                    b.exclude(d, lists);
                }
                rules.push((rule, lists));
            }
            let index = b.build();

            let mut by_key: std::collections::HashMap<u32, (String, Vec<bool>)> =
                std::collections::HashMap::new();
            for _ in 0..64 {
                let host = host(&mut rng, &domains);
                let mut want_gate: Vec<u32> = (gate.iter())
                    .filter(|(d, _)| urlkit::is_same_or_subdomain_of(&host, d))
                    .map(|&(_, id)| id)
                    .collect();
                want_gate.sort_unstable();
                let mut want_scope: Vec<u32> = Vec::new();
                for (id, (rule, _)) in rules.iter().enumerate() {
                    for d in &rule.include {
                        if urlkit::is_same_or_subdomain_of(&host, d) {
                            want_scope.push(id as u32);
                        }
                    }
                }
                want_scope.sort_unstable();
                prop_assert_eq!(index_hits(&index, &host), (want_gate, want_scope), "{:?} over {:?}", host, domains);

                let entry = index.find(&host.to_ascii_lowercase());
                let key = index.plan_key(entry);
                let applies: Vec<bool> = rules.iter().map(|(r, _)| r.allows(&host)).collect();
                // The lists of every scoped rule that applies are among
                // the key's.
                for (rule, lists) in &rules {
                    if rule.is_restricted() && rule.allows(&host) {
                        prop_assert_eq!(lists & !index.lists(key), 0);
                    }
                }
                prop_assert_eq!(index.lists(entry), index.lists(key));
                let (first, seen) = by_key.entry(key).or_insert_with(|| (host.clone(), applies.clone()));
                prop_assert_eq!(&applies, seen, "{:?} and {:?} share plan key {}", host, first, key);
            }
        }
    }
}

/// Differential test: the compiled engine (CSR token index, stamped
/// dedup, domain-bucketed element rules, document gates through the
/// request candidate stage) must agree with a brute-force reference
/// matcher that linearly evaluates every filter, on randomly generated
/// lists × requests.
///
/// The vendored `proptest!` macro runs `proptest::cases()` (default 64)
/// cases, so this suite drives its own deterministic loop to guarantee
/// the 1000+ cases the acceptance bar requires.
#[cfg(test)]
mod differential {
    use super::*;
    use crate::activation::{Activation, MatchKind};
    use crate::engine::{DocumentStatus, RequestOutcome};
    use crate::filter::FilterAction;
    use proptest::TestRng;

    const CASES: usize = 1200;

    /// Hosts drawn from a small pool so filters and requests collide
    /// often enough to exercise every decision path.
    fn pool_host(rng: &mut TestRng) -> String {
        const NAMES: [&str; 8] = [
            "adnet", "track", "cdn", "stats", "media", "pix", "srv", "beacon",
        ];
        const TLDS: [&str; 3] = ["example", "test", "invalid"];
        let name = NAMES[rng.usize_in(0, NAMES.len())];
        let n = rng.below(6);
        let tld = TLDS[rng.usize_in(0, TLDS.len())];
        if rng.below(3) == 0 {
            format!("sub{}.{name}{n}.{tld}", rng.below(3))
        } else {
            format!("{name}{n}.{tld}")
        }
    }

    fn pool_path(rng: &mut TestRng) -> String {
        const SEGS: [&str; 6] = ["ads", "banner", "img", "js", "pixel", "x"];
        let mut p = String::new();
        for _ in 0..rng.usize_in(1, 4) {
            p.push('/');
            p.push_str(SEGS[rng.usize_in(0, SEGS.len())]);
            if rng.below(3) == 0 {
                p.push_str(&rng.below(10).to_string());
            }
        }
        p
    }

    /// Sitekeys drawn from a pool of three, so filters and requests
    /// share keys often (verified keys compare exactly: case matters).
    const SITEKEYS: [&str; 3] = ["MFwwKEYa", "MFwwKEYb", "MFwwKeYa"];

    fn pool_sitekey(rng: &mut TestRng) -> &'static str {
        SITEKEYS[rng.usize_in(0, SITEKEYS.len())]
    }

    /// A verified key for a request: one from the pool, one no filter
    /// names, or none.
    fn request_sitekey(rng: &mut TestRng) -> Option<&'static str> {
        match rng.below(4) {
            0 => None,
            1 => Some("MFwwUNKNOWN"),
            _ => Some(pool_sitekey(rng)),
        }
    }

    fn with_sitekey(req: Request, key: Option<&str>) -> Request {
        match key {
            Some(k) => req.with_sitekey(k),
            None => req,
        }
    }

    /// One random filter line: blocking or exception request filters of
    /// varied shapes (host-anchored, substring, wildcard, anchored,
    /// option-laden, `$document`/`$elemhide` gates, sitekey filters) or
    /// element rules.
    fn filter_line(rng: &mut TestRng) -> String {
        let host = pool_host(rng);
        let path = pool_path(rng);
        let exception = rng.below(3) == 0;
        let prefix = if exception { "@@" } else { "" };
        let mut line = match rng.below(10) {
            0 => format!("{prefix}||{host}^"),
            1 => format!("{prefix}||{host}{path}"),
            2 => format!("{prefix}{path}/"),
            3 => format!("{prefix}|http://{host}/"),
            4 => format!("{prefix}{}*{}", &path[..2.min(path.len())], path),
            5 => format!("{prefix}||{host}^$third-party"),
            6 => {
                // Element rule (possibly an exception, possibly scoped).
                let sep = if rng.below(4) == 0 { "#@#" } else { "##" };
                let scope = match rng.below(5) {
                    0 => String::new(),
                    1 => host.clone(),
                    // Conditional generic: applies everywhere except on
                    // the excluded domain (exercises exclude-domain
                    // resolution in the per-node hiding plans).
                    2 => format!("~{host}"),
                    3 => format!("{host},~{}", pool_host(rng)),
                    _ => format!("{host},{}", pool_host(rng)),
                };
                return format!("{scope}{sep}.ad-{}", rng.below(5));
            }
            7 => {
                // Anchor-extraction-hostile shapes: nothing (or almost
                // nothing) for a literal prefilter to key on — all
                // wildcards, separator-only, 1-byte literals — plus
                // pipes embedded mid-pattern (literal bytes there, not
                // anchors) and mixed-case literals that only anchor
                // after case folding.
                let mixed: String = host
                    .chars()
                    .enumerate()
                    .map(|(i, c)| {
                        if i % 2 == 0 {
                            c.to_ascii_uppercase()
                        } else {
                            c
                        }
                    })
                    .collect();
                match rng.below(6) {
                    0 => format!("{prefix}*"),
                    1 => format!("{prefix}*^*"),
                    2 => format!("{prefix}*{}*{}*", rng.below(10), rng.below(10)),
                    3 => format!("{prefix}*{}||{}*", &host[..1], rng.below(10)),
                    4 => format!("{prefix}*{}|", path.to_ascii_uppercase()),
                    _ => format!("{prefix}||{mixed}^"),
                }
            }
            8 => {
                // Sitekey filters: anchorless (the index's business, on
                // both sides), multi-key, and anchored (the automaton's).
                let (k1, k2) = (pool_sitekey(rng), pool_sitekey(rng));
                match rng.below(4) {
                    0 => format!("@@$sitekey={k1},document"),
                    1 => format!("@@$sitekey={k1}|{k2}"),
                    2 => format!("@@||{host}^$sitekey={k1}"),
                    _ => format!("$sitekey={k1}"),
                }
            }
            _ => format!("{prefix}||{host}{path}$script,image"),
        };
        // Sprinkle extra options onto request filters.
        if rng.below(4) == 0 {
            let opt = match rng.below(4) {
                0 => format!("domain={}", pool_host(rng)),
                1 => format!("domain=~{}", pool_host(rng)),
                2 => "donottrack".to_string(),
                _ => "match-case".to_string(),
            };
            line.push(if line.contains('$') { ',' } else { '$' });
            line.push_str(&opt);
        }
        if exception && rng.below(4) == 0 {
            let opt = if rng.below(2) == 0 {
                "document"
            } else {
                "elemhide"
            };
            line.push(if line.contains('$') { ',' } else { '$' });
            line.push_str(opt);
        }
        line
    }

    fn random_request(rng: &mut TestRng) -> Request {
        let host = pool_host(rng);
        let path = pool_path(rng);
        let first = if rng.below(2) == 0 {
            pool_host(rng)
        } else {
            host.clone()
        };
        let ty = ResourceType::ALL[rng.usize_in(0, ResourceType::ALL.len())];
        let req = Request::new(&format!("http://{host}{path}"), &first, ty).unwrap();
        with_sitekey(req, request_sitekey(rng))
    }

    /// A top-level document request for a pool host, keyed like
    /// [`random_request`]: the site's root, or a page on it with a path
    /// and sometimes a query, so gates found by a URL token or a tail
    /// anchor past the host are exercised too.
    fn random_document(rng: &mut TestRng) -> Request {
        let host = pool_host(rng);
        let url = match rng.below(3) {
            0 => format!("http://{host}/"),
            1 => format!("http://{host}{}", pool_path(rng)),
            _ => format!("http://{host}{}?{}", pool_path(rng), &pool_path(rng)[1..]),
        };
        let doc = Request::document(&url).unwrap();
        with_sitekey(doc, request_sitekey(rng))
    }

    /// Brute-force reference: linearly evaluate every request filter in
    /// list order — blocking side first, then exceptions — mirroring the
    /// engine's documented activation semantics with no index at all.
    fn reference_match(lists: &[&FilterList], req: &Request) -> RequestOutcome {
        let mut activations = Vec::new();
        let mut any_block = false;
        let mut any_allow = false;
        for pass in [FilterAction::Block, FilterAction::Allow] {
            for list in lists {
                for f in list.filters() {
                    let Some(rf) = f.as_request() else { continue };
                    if rf.action != pass || !rf.matches(req) {
                        continue;
                    }
                    let kind = match pass {
                        FilterAction::Block => {
                            any_block = true;
                            MatchKind::BlockRequest
                        }
                        FilterAction::Allow => {
                            any_allow = true;
                            if rf.is_sitekey() {
                                MatchKind::SitekeyAllow
                            } else {
                                MatchKind::AllowRequest
                            }
                        }
                    };
                    activations.push(Activation {
                        filter: f.raw.as_str().into(),
                        source: list.source,
                        kind,
                        subject: req.url.as_str().into(),
                        donottrack: rf.options.donottrack,
                    });
                }
            }
        }
        let decision = if any_allow {
            Decision::AllowedByException
        } else if any_block {
            Decision::Block
        } else {
            Decision::NoMatch
        };
        RequestOutcome {
            decision,
            activations,
        }
    }

    /// Brute-force `$document`/`$elemhide` gate evaluation over every
    /// filter, with no candidate stage.
    fn reference_document(lists: &[&FilterList], doc: &Request) -> DocumentStatus {
        let mut status = DocumentStatus::default();
        for list in lists {
            for f in list.filters() {
                let Some(rf) = f.as_request() else { continue };
                if rf.action != FilterAction::Allow
                    || !(rf.options.document || rf.options.elemhide)
                    || !rf.matches_ignoring_type(doc)
                {
                    continue;
                }
                let kind = if rf.is_sitekey() {
                    MatchKind::SitekeyAllow
                } else {
                    MatchKind::DocumentAllow
                };
                if rf.options.document {
                    status.document_allow.push(Activation {
                        filter: f.raw.as_str().into(),
                        source: list.source,
                        kind,
                        subject: doc.url.as_str().into(),
                        donottrack: rf.options.donottrack,
                    });
                }
                if rf.options.elemhide {
                    status.elemhide_allow.push(Activation {
                        filter: f.raw.as_str().into(),
                        source: list.source,
                        kind: MatchKind::ElemhideAllow,
                        subject: doc.url.as_str().into(),
                        donottrack: rf.options.donottrack,
                    });
                }
            }
        }
        status
    }

    /// Brute-force element hiding: two linear passes over every element
    /// rule (exceptions collecting cancelled selectors, then hides).
    fn reference_hiding(lists: &[&FilterList], first_party: &str) -> (Vec<String>, Vec<String>) {
        let mut excepted: Vec<String> = Vec::new();
        let mut active: Vec<String> = Vec::new();
        for list in lists {
            for f in list.filters() {
                let Some(ef) = f.as_element() else { continue };
                if ef.action == FilterAction::Allow && ef.applies_on(first_party) {
                    excepted.push(ef.selector.clone());
                }
            }
        }
        for list in lists {
            for f in list.filters() {
                let Some(ef) = f.as_element() else { continue };
                if ef.action == FilterAction::Block
                    && ef.applies_on(first_party)
                    && !excepted.contains(&ef.selector)
                {
                    active.push(ef.selector.clone());
                }
            }
        }
        (active, excepted)
    }

    #[test]
    fn compiled_engine_matches_brute_force_reference() {
        let mut rng = TestRng::deterministic("engine_differential_v1");
        for case in 0..CASES {
            let n_black = rng.usize_in(0, 40);
            let n_white = rng.usize_in(0, 15);
            let bl_text: String = (0..n_black).map(|_| filter_line(&mut rng) + "\n").collect();
            let wl_text: String = (0..n_white).map(|_| filter_line(&mut rng) + "\n").collect();
            let bl = FilterList::parse(ListSource::EasyList, &bl_text);
            let wl = FilterList::parse(ListSource::AcceptableAds, &wl_text);
            let lists = [&bl, &wl];
            let engine = Engine::from_lists(lists);

            for _ in 0..4 {
                let req = random_request(&mut rng);
                let got = engine.match_request(&req);
                let want = reference_match(&lists, &req);
                assert_eq!(
                    got.decision,
                    want.decision,
                    "case {case}: decision diverged for {} on lists:\n{bl_text}{wl_text}",
                    req.url.as_str()
                );
                // Exact ordered equality: the engine canonicalizes
                // candidates to filter-id (list insertion) order, so
                // its activation sequence must replay the linear
                // reference byte for byte, not merely as a multiset.
                assert_eq!(
                    got.activations,
                    want.activations,
                    "case {case}: activation sequence diverged for {}",
                    req.url.as_str()
                );
                // Ordering guarantee: all blocking activations precede
                // all exception activations.
                let first_exception = got
                    .activations
                    .iter()
                    .position(|a| a.kind.is_exception())
                    .unwrap_or(got.activations.len());
                assert!(
                    got.activations[first_exception..]
                        .iter()
                        .all(|a| a.kind.is_exception()),
                    "case {case}: exception activation ordered before a block"
                );
            }

            // Document gates agree with the full-scan reference, in
            // order.
            let doc = random_document(&mut rng);
            assert_eq!(
                engine.document_allowlist(&doc),
                reference_document(&lists, &doc),
                "case {case}: document gates diverged on {:?} on lists:\n{bl_text}{wl_text}",
                doc
            );

            // Element hiding agrees with the two-pass linear reference.
            let fp = pool_host(&mut rng);
            let got_h = engine.hiding_for_domain(&fp);
            let (want_active, want_excepted) = reference_hiding(&lists, &fp);
            let mut got_active: Vec<String> =
                got_h.active.iter().map(|(s, _)| s.to_string()).collect();
            let mut want_active_sorted = want_active.clone();
            got_active.sort();
            want_active_sorted.sort();
            want_active_sorted.dedup();
            got_active.dedup();
            assert_eq!(
                got_active, want_active_sorted,
                "case {case}: hiding selectors diverged on {fp}"
            );
            for (sel, _) in got_h.exceptions.iter() {
                assert!(
                    want_excepted.iter().any(|s| sel == s),
                    "case {case}: unexpected exception selector {sel} on {fp}"
                );
            }
            // The borrowed variant agrees with the owning one.
            let refs = engine.hiding_refs_for_domain(&fp);
            let mut ref_active: Vec<String> = refs
                .iter()
                .filter(|(_, _, a)| *a == FilterAction::Block)
                .map(|(_, s, _)| s.to_string())
                .collect();
            ref_active.sort();
            ref_active.dedup();
            assert_eq!(
                ref_active, got_active,
                "case {case}: hiding_refs_for_domain diverged on {fp}"
            );
        }
    }

    /// Multi-tenant differential arm: the union-compiled engine
    /// answering through a subscription mask must be byte-identical to
    /// an engine independently compiled from exactly the tenant's
    /// subscribed lists, in the same order — decisions, the full
    /// activation sequence, document gates, hiding outcomes, and the
    /// serialized JSON. Every random engine is probed under the empty
    /// mask, the all-lists mask, and random masks in between; 1,200
    /// (engine, mask) pairs total.
    #[test]
    fn masked_union_engine_matches_independently_compiled_subsets() {
        use crate::engine::RequestOutcome;

        const SOURCES: [ListSource; 5] = [
            ListSource::EasyList,
            ListSource::AcceptableAds,
            ListSource::Custom,
            ListSource::Custom,
            ListSource::Custom,
        ];
        let mut rng = TestRng::deterministic("engine_tenant_differential_v1");
        let mut pairs = 0usize;
        while pairs < CASES {
            let n_lists = rng.usize_in(2, SOURCES.len() + 1);
            let lists: Vec<FilterList> = (0..n_lists)
                .map(|i| {
                    let text: String = (0..rng.usize_in(0, 15))
                        .map(|_| filter_line(&mut rng) + "\n")
                        .collect();
                    FilterList::parse(SOURCES[i], &text)
                })
                .collect();
            let refs: Vec<&FilterList> = lists.iter().collect();
            let union = Engine::from_lists(refs.iter().copied());
            let full_mask = (1u64 << n_lists) - 1;

            // Empty and all-lists masks always; random masks after.
            let mut masks = vec![0u64, full_mask];
            for _ in 0..4 {
                masks.push(rng.usize_in(0, (full_mask + 1) as usize) as u64);
            }
            masks.dedup();

            for mask in masks {
                let subset_lists: Vec<&FilterList> = refs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & Engine::list_bit(*i) != 0)
                    .map(|(_, l)| *l)
                    .collect();
                let subset = Engine::from_lists(subset_lists.iter().copied());

                for _ in 0..3 {
                    let req = &random_request(&mut rng);
                    let got = union.match_request_masked(req, mask);
                    let want = subset.match_request(req);
                    assert_eq!(
                        got,
                        want,
                        "pair {pairs}: mask {mask:#b} diverged from the subset compile for {}",
                        req.url.as_str()
                    );
                    assert_eq!(
                        got,
                        reference_match(&subset_lists, req),
                        "pair {pairs}: mask {mask:#b} left the linear reference for {req:?}"
                    );
                    // Byte-identical on the wire, not merely Eq.
                    assert_eq!(
                        serde_json::to_string(&got).unwrap(),
                        serde_json::to_string(&want).unwrap(),
                        "pair {pairs}: serialized outcome diverged under mask {mask:#b}"
                    );
                    let json = serde_json::to_string(&got).unwrap();
                    let back: RequestOutcome = serde_json::from_str(&json).unwrap();
                    assert_eq!(back, got, "pair {pairs}: outcome did not round-trip");
                }

                // Page-level gates under the mask equal the subset's
                // and the linear reference over the tenant's lists.
                let doc = random_document(&mut rng);
                let got_doc = union.document_allowlist_masked(&doc, mask);
                assert_eq!(
                    got_doc,
                    subset.document_allowlist(&doc),
                    "pair {pairs}: document gates diverged under mask {mask:#b} on {doc:?}"
                );
                assert_eq!(
                    got_doc,
                    reference_document(&subset_lists, &doc),
                    "pair {pairs}: document gates left the reference under mask {mask:#b} on {doc:?}"
                );

                // Hiding under the mask equals the subset's, exactly.
                let fp = pool_host(&mut rng);
                let got_h = union.hiding_for_domain_masked(&fp, mask);
                let want_h = subset.hiding_for_domain(&fp);
                assert_eq!(
                    got_h.active, want_h.active,
                    "pair {pairs}: hiding selectors diverged on {fp} under mask {mask:#b}"
                );
                assert_eq!(
                    got_h.exceptions, want_h.exceptions,
                    "pair {pairs}: hiding exceptions diverged on {fp} under mask {mask:#b}"
                );

                pairs += 1;
            }
        }
    }

    /// First parties for the restricted arm: a site, two of its
    /// subdomains, a sibling site, a multi-label-suffix site, and a
    /// host with no dots.
    const GATE_SITES: [&str; 7] = [
        "a.example",
        "www.a.example",
        "shop.a.example",
        "b.test",
        "news.b.test",
        "c.co.uk",
        "intranet",
    ];

    fn mixed_case(s: &str, rng: &mut TestRng) -> String {
        s.chars()
            .map(|c| {
                if rng.below(3) == 0 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect()
    }

    /// A restricted request filter: one of three shared patterns, so
    /// that many filters differ only in `domain=`, whose list holds one
    /// to four entries — includes and `~`-excludes, in any case, often
    /// two includes that both match one first party.
    fn restricted_line(rng: &mut TestRng) -> String {
        const PATTERNS: [&str; 3] = ["||g.adnet0.example/pagead/", "/banner/", "||track1.test^"];
        let prefix = if rng.below(2) == 0 { "@@" } else { "" };
        let pattern = PATTERNS[rng.usize_in(0, PATTERNS.len())];
        let types = ["", "image,", "script,~image,", "third-party,"][rng.usize_in(0, 4)];
        let mut domains = vec![GATE_SITES[rng.usize_in(0, GATE_SITES.len())].to_string()];
        for _ in 0..rng.usize_in(0, 4) {
            let site = GATE_SITES[rng.usize_in(0, GATE_SITES.len())];
            let negate = if rng.below(3) == 0 { "~" } else { "" };
            domains.push(format!("{negate}{site}"));
        }
        // The include need not come first.
        let first = rng.usize_in(0, domains.len());
        domains.swap(0, first);
        let list = mixed_case(&domains.join("|"), rng);
        // Some carry a sitekey too: restricted sitekey filters stay
        // behind the first-party gate, whatever key a request presents.
        let key = match rng.below(6) {
            0 => format!(",sitekey={}", pool_sitekey(rng)),
            1 => format!(",document,sitekey={}", pool_sitekey(rng)),
            _ => String::new(),
        };
        format!("{prefix}{pattern}${types}domain={list}{key}")
    }

    /// A request aimed at the shared patterns from one of the gate
    /// sites (sometimes a deeper subdomain, sometimes in mixed case) or
    /// from a first party no filter names.
    fn restricted_request(rng: &mut TestRng) -> Request {
        const URLS: [&str; 4] = [
            "http://g.adnet0.example/pagead/viewthrough/1.gif",
            "http://cdn.media2.test/banner/top.js",
            "http://track1.test/banner/p.gif",
            "http://news.b.test/story.html",
        ];
        let site = GATE_SITES[rng.usize_in(0, GATE_SITES.len())];
        let first = match rng.below(4) {
            0 => format!("m.{site}"),
            1 => pool_host(rng),
            _ => site.to_string(),
        };
        let ty = [
            ResourceType::Image,
            ResourceType::Script,
            ResourceType::Subdocument,
        ][rng.usize_in(0, 3)];
        let url = URLS[rng.usize_in(0, URLS.len())];
        let mut req = Request::new(url, &mixed_case(&first, rng), ty).unwrap();
        if rng.below(4) == 0 {
            // `Request::new` folds the first party; a caller filling the
            // public field (or deserializing one) may not have.
            req.first_party = mixed_case(&req.first_party, rng);
        }
        with_sitekey(req, request_sitekey(rng))
    }

    /// Restricted-filter arm: what the first-party gate must get right.
    /// Lists dominated by same-pattern filters that differ only in
    /// `domain=`, on both sides, salted with the general generator's
    /// lines; each request is checked against the linear reference over
    /// all lists, then under random tenant masks against the reference
    /// over exactly the tenant's lists — decisions, activation order,
    /// serialized JSON. Debug builds also run the engine's candidate
    /// assertions on every one of these requests.
    #[test]
    fn restricted_filters_match_reference_unmasked_and_masked() {
        let mut rng = TestRng::deterministic("engine_restricted_differential_v1");
        for case in 0..CASES {
            let n_lists = rng.usize_in(1, 5);
            let lists: Vec<FilterList> = (0..n_lists)
                .map(|i| {
                    let text: String = (0..rng.usize_in(1, 25))
                        .map(|_| {
                            let line = if rng.below(5) == 0 {
                                filter_line(&mut rng)
                            } else {
                                restricted_line(&mut rng)
                            };
                            line + "\n"
                        })
                        .collect();
                    let source = [ListSource::EasyList, ListSource::AcceptableAds][i % 2];
                    FilterList::parse(source, &text)
                })
                .collect();
            let refs: Vec<&FilterList> = lists.iter().collect();
            let engine = Engine::from_lists(refs.iter().copied());
            let full_mask = (1u64 << n_lists) - 1;

            for _ in 0..4 {
                let req = restricted_request(&mut rng);
                let context = || {
                    let text: String = lists.iter().map(FilterList::to_text).collect();
                    format!(
                        "case {case}: {} from {:?} on lists:\n{text}",
                        req.url.as_str(),
                        req.first_party
                    )
                };
                let got = engine.match_request(&req);
                let want = reference_match(&refs, &req);
                assert_eq!(got, want, "{}", context());
                assert_eq!(
                    serde_json::to_string(&got).unwrap(),
                    serde_json::to_string(&want).unwrap(),
                    "{}",
                    context()
                );

                for _ in 0..2 {
                    let mask = rng.below(full_mask + 1);
                    let subset: Vec<&FilterList> = refs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & Engine::list_bit(*i) != 0)
                        .map(|(_, l)| *l)
                        .collect();
                    let got = engine.match_request_masked(&req, mask);
                    let want = reference_match(&subset, &req);
                    assert_eq!(got, want, "mask {mask:#b}, {}", context());
                    assert_eq!(
                        serde_json::to_string(&got).unwrap(),
                        serde_json::to_string(&want).unwrap(),
                        "mask {mask:#b}, {}",
                        context()
                    );
                }
            }

            // Page gates on a gate site's own document (its root or a
            // page the shared patterns match), keyed or not, and on a
            // random document.
            let site = GATE_SITES[rng.usize_in(0, GATE_SITES.len())];
            let page = ["/", "/banner/top.html", "/pagead/x?banner=1"][rng.usize_in(0, 3)];
            let doc = Request::document(&format!("http://{site}{page}")).unwrap();
            let doc = with_sitekey(doc, request_sitekey(&mut rng));
            for doc in [doc, random_document(&mut rng)] {
                assert_eq!(
                    engine.document_allowlist(&doc),
                    reference_document(&refs, &doc),
                    "case {case}: document gates diverged on {doc:?}"
                );
            }
        }
    }

    /// What glues list tokens into a URL path: token boundaries,
    /// non-ASCII, and `%`, a digit or nothing, which merge neighbouring
    /// words into one URL token that merely contains a filter token.
    const GLUE: [&str; 12] = ["/", ".", "-", "_", "?", "=", "&", "é", "%", "7", "", "/x/"];

    proptest! {
        /// The candidate stage hands evaluation exactly the reference's
        /// candidates — the reference walk over the builders' token
        /// maps, the untokenized filters whose trigger and literals
        /// occur, and the gate's restricted filters — on URLs glued from
        /// the lists' own tokens and anchors. The debug assertion checks
        /// the token half on every request of the differential arms;
        /// this holds both halves under the optimizer too.
        #[test]
        fn candidates_equal_the_reference_walk(
            seed in any::<u64>(),
            glue in prop::collection::vec((any::<usize>(), prop::sample::select(&GLUE)), 1..10),
            upper in any::<bool>(),
        ) {
            let mut rng = TestRng::deterministic(&format!("token_table_{seed}"));
            let lists: Vec<FilterList> = [ListSource::EasyList, ListSource::AcceptableAds]
                .into_iter()
                .map(|source| {
                    let text: String = (0..rng.usize_in(1, 30))
                        .map(|_| filter_line(&mut rng) + "\n")
                        .collect();
                    FilterList::parse(source, &text)
                })
                .collect();
            let engine = Engine::from_lists(&lists);
            let request_filters = || {
                lists
                    .iter()
                    .flat_map(FilterList::filters)
                    .filter_map(|f| f.as_request())
            };

            // The reference's literal test equals the engine's lanes
            // only while no two tail literals share one.
            let mut tail_literals = std::collections::HashSet::new();
            let tail = request_filters()
                .filter(|rf| !rf.is_restricted() && rf.pattern.tokens().is_empty());
            for rf in tail {
                for e in &rf.pattern.elements {
                    if let crate::pattern::Element::Literal(lit) = e {
                        tail_literals.insert(lit.to_ascii_lowercase());
                    }
                }
            }
            prop_assume!(tail_literals.len() < 128);

            let mut words: Vec<String> = request_filters()
                .flat_map(|rf| rf.pattern.tokens().into_iter().chain(rf.pattern.anchor()))
                .collect();
            words.push("ads".to_string());
            let mut path = String::new();
            for (pick, sep) in &glue {
                path.push_str(&words[pick % words.len()]);
                path.push_str(sep);
            }
            let host = pool_host(&mut rng);
            let url = format!("http://{host}/{path}");
            let url = if upper { url.to_ascii_uppercase() } else { url };
            let first = if rng.below(2) == 0 { pool_host(&mut rng) } else { host };
            let req = Request::new(&url, &first, ResourceType::Image).unwrap();
            let req = with_sitekey(req, request_sitekey(&mut rng));
            prop_assert_eq!(
                engine.candidate_ids(&req),
                engine.reference_candidates(&req),
                "{} from {} on lists:\n{}{}",
                url,
                first,
                lists[0].to_text(),
                lists[1].to_text()
            );
        }
    }

    /// Outcomes round-trip through JSON byte-identically to the
    /// reference representation (interning must be invisible on the
    /// wire — the abpd decision cache depends on this).
    #[test]
    fn outcomes_serialize_byte_identically_to_reference() {
        let mut rng = TestRng::deterministic("engine_differential_serde_v1");
        for _ in 0..200 {
            let bl_text: String = (0..rng.usize_in(1, 20))
                .map(|_| filter_line(&mut rng) + "\n")
                .collect();
            let bl = FilterList::parse(ListSource::EasyList, &bl_text);
            let lists = [&bl];
            let engine = Engine::from_lists(lists);
            let req = random_request(&mut rng);
            let got = engine.match_request(&req);
            let want = reference_match(&lists, &req);
            assert_eq!(
                serde_json::to_string(&got).unwrap(),
                serde_json::to_string(&want).unwrap()
            );
            // And the outcome round-trips losslessly.
            let json = serde_json::to_string(&got).unwrap();
            let back: RequestOutcome = serde_json::from_str(&json).unwrap();
            assert_eq!(back, got);
        }
    }
}
