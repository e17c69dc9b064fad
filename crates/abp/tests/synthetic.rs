//! Synthetic filter lists and request traffic at service scale (10k
//! filters × 10k requests), each list built to stress one engine
//! mechanism, and the drills that hold the prefilter, hiding-plan and
//! single-compile guarantees on them as counter assertions.

use abp::{Engine, FilterList, ListSource, Request, ResourceType};
use sitekey::rng::SplitMix64;
use websim::traffic::TenantPopulation;

/// Neither adversarial list has a filter whose literals all occur in
/// the synthetic traffic, so the required-literal prefilter must
/// reject every tail candidate it checks: one that reaches
/// `Pattern::matches` is the always-scan tail coming back.
#[test]
fn prefilter_rejects_every_hostile_tail_candidate() {
    let reqs = requests(2_000);
    for (anchored, hostile) in [(375, 25), (0, 200)] {
        let engine = Engine::from_lists([&adversarial_untokenized_list(anchored, hostile)]);
        for r in &reqs {
            engine.match_request(r);
        }
        let st = engine.tail_stats();
        assert!(
            st.prefilter_checked > 0,
            "({anchored}, {hostile}): no tail candidate reached the prefilter"
        );
        assert_eq!(
            st.prefilter_rejected, st.prefilter_checked,
            "({anchored}, {hostile}): a tail candidate got past the prefilter"
        );
    }
}

/// Near-miss hosts match no element-rule domain and share the
/// root's plan key, so the hostile query mix must be served from
/// memoized plans, not rebuilt.
#[test]
fn hiding_plans_serve_the_hostile_query_mix() {
    let (bl, wl) = hiding_hostile_lists();
    let engine = Engine::from_lists([&bl, &wl]);
    for d in hiding_hostile_domains(1_000) {
        engine.hiding_for_domain(&d);
    }
    let st = engine.tail_stats();
    assert_eq!(st.hiding_queries, 1_000);
    assert!(
        st.hiding_plan_hits * 10 >= st.hiding_queries * 9,
        "hiding plans hit only {} of {} queries",
        st.hiding_plan_hits,
        st.hiding_queries
    );
}

/// One compiled engine serves a whole subscription population: the
/// only per-tenant state is the mask the caller holds.
#[test]
fn tenant_population_is_served_by_one_compile() {
    let (bl, wl) = lists_10k();
    let engine = Engine::from_lists([&bl, &wl]);
    let reqs = requests(10_000);
    let masks: Vec<u64> = TenantPopulation::new(2015, 10_000).masks().collect();
    for (r, &mask) in reqs.iter().zip(&masks) {
        engine.match_request_masked(r, mask);
    }
    assert_eq!(engine.compile_count(), 1);
}

/// Deterministic 10k-filter list pair: host-anchored blocks, path
/// filters, restricted filters, exceptions, `$document`/`$elemhide`
/// page gates, plus generic and domain-scoped element rules.
fn lists_10k() -> (FilterList, FilterList) {
    let mut bl = String::new();
    let mut wl = String::new();
    for i in 0..7_000 {
        match i % 4 {
            0 => bl.push_str(&format!("||adnet{i}.example^$third-party\n")),
            1 => bl.push_str(&format!("||track{i}.example^\n")),
            2 => bl.push_str(&format!("/banner{i}/ads/\n")),
            _ => bl.push_str(&format!("||cdn{i}.example/pixel^$image,script\n")),
        }
    }
    // Untokenized tail: literal runs adjacent to wildcards are excluded
    // from the token index, so these land in the untokenized bucket and
    // are scanned against every request (EasyList's wildcard long tail).
    // The needles are rare, so they exercise the scan without matching.
    for i in 0..50 {
        bl.push_str(&format!("*zq{i}x*\n"));
    }
    // Element rules: generic and per-domain.
    for i in 0..2_000 {
        if i % 3 == 0 {
            bl.push_str(&format!("##.ad-slot-{i}\n"));
        } else {
            bl.push_str(&format!("site{}.example###ad-frame-{i}\n", i % 500));
        }
    }
    // Whitelist: exceptions, some restricted, some page gates.
    for i in 0..900 {
        match i % 3 {
            0 => wl.push_str(&format!("@@||adnet{i}.example/acceptable/$third-party\n")),
            1 => wl.push_str(&format!(
                "@@||track{i}.example^$domain=news{i}.example|blog{i}.example\n"
            )),
            _ => wl.push_str(&format!("@@||cdn{i}.example/pixel^$image\n")),
        }
    }
    for i in 0..100 {
        wl.push_str(&format!("@@||pub{i}.example^$document\n"));
        wl.push_str(&format!("@@||forum{i}.example^$elemhide\n"));
    }
    for i in 0..150 {
        wl.push_str(&format!("site{}.example#@##ad-frame-{}\n", i, i * 3 + 1));
    }
    (
        FilterList::parse(ListSource::EasyList, &bl),
        FilterList::parse(ListSource::AcceptableAds, &wl),
    )
}

/// An adversarial untokenized corpus: `anchored` wildcard-bracketed
/// filters whose literal fragments never occur in the synthetic URLs
/// (prunable by a literal prefilter, but scanned in full by a bucket
/// index because they carry no index token), plus `hostile` filters
/// whose literals are all ≤1 byte — no prefilter can extract an anchor
/// from them, so they model the irreducible always-scan tail.
///
/// EasyList's real wildcard long tail is overwhelmingly of the first
/// kind, so the ratio defaults callers pass should keep `hostile` small.
fn adversarial_untokenized_list(anchored: usize, hostile: usize) -> FilterList {
    let mut text = String::new();
    for i in 0..anchored {
        match i % 3 {
            // Classic wildcard-bracketed needle: only literal is the
            // needle, flanked by wildcards on both sides.
            0 => text.push_str(&format!("*zq{i}x*\n")),
            // Needle with wildcard on one side and an unanchored open
            // end on the other (both runs touch a boundary: no token).
            1 => text.push_str(&format!("vq{i}w*yj{i}\n")),
            // Mixed-case needle under `match-case`: the anchor must be
            // matched case-folded against the lowercased URL.
            _ => text.push_str(&format!("*Zq{i}X*$match-case\n")),
        }
    }
    for i in 0..hostile {
        match i % 3 {
            // All literals are single bytes separated by wildcards.
            0 => text.push_str("*q*7*z*\n"),
            // Single-byte literal between separators.
            1 => text.push_str("*q^j*\n"),
            // Single-byte literals under match-case (`Q`/`Z` never
            // appear in the lowercase synthetic URLs).
            _ => text.push_str(&format!("*Q*{}*Z*$match-case\n", i % 10)),
        }
    }
    FilterList::parse(ListSource::EasyList, &text)
}

/// A hiding-hostile corpus: the element-hiding worst case rather than
/// the volume case. Every generic rule carries `~domain` excludes (so
/// no all-generic fast path applies and each query must test every
/// rule), the scoped rules sit on deep suffixes with per-subdomain
/// exception chains (cancellation links walked per query), and the
/// query population below ([`hiding_hostile_domains`]) is dominated by
/// near-miss hosts that probe the host index without ever matching.
fn hiding_hostile_lists() -> (FilterList, FilterList) {
    let mut bl = String::new();
    let mut wl = String::new();
    // Conditional generic hides: each excluded on two opt-out hosts.
    for i in 0..600 {
        bl.push_str(&format!(
            "~opt{}.hostile.example,~opt{}.hostile.example##.hh-ad-{i}\n",
            i % 40,
            (i + 7) % 40
        ));
    }
    // Scoped hides on deep suffixes, each selector re-allowed on four
    // subdomains of its scope (deep exception chains).
    for i in 0..400 {
        bl.push_str(&format!("s{}.hostile.example###hh-frame-{i}\n", i % 120));
        for j in 0..4 {
            wl.push_str(&format!(
                "x{j}.s{}.hostile.example#@##hh-frame-{i}\n",
                i % 120
            ));
        }
    }
    (
        FilterList::parse(ListSource::EasyList, &bl),
        FilterList::parse(ListSource::AcceptableAds, &wl),
    )
}

/// First-party domains for the hiding-hostile arm: scoped hosts, the
/// exception subdomains themselves, opt-out hosts carrying the generic
/// excludes, and a large population of near-miss suffixes that share
/// the `hostile.example` tail but match no scope.
fn hiding_hostile_domains(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match i % 4 {
            0 => format!("s{}.hostile.example", i % 120),
            1 => format!("x{}.s{}.hostile.example", i % 4, i % 120),
            2 => format!("miss{}.hostile.example", i % 777),
            _ => format!("opt{}.hostile.example", i % 40),
        })
        .collect()
}

/// `n` deterministic requests: ~10% hit ad hosts in [`lists_10k`], the
/// rest benign URLs with varied token vocabularies (the realistic
/// mostly-miss traffic shape).
fn requests(n: usize) -> Vec<Request> {
    let mut rng = SplitMix64::new(0x5eed_2015);
    let types = [
        ResourceType::Image,
        ResourceType::Script,
        ResourceType::Stylesheet,
        ResourceType::Subdocument,
        ResourceType::XmlHttpRequest,
    ];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let ty = types[(rng.next_u64() % types.len() as u64) as usize];
        let first = format!("news{}.example", rng.below(1_000));
        let url = match i % 10 {
            0 => format!("http://adnet{}.example/unit{}.js", rng.below(7_000), i),
            1 => format!(
                "http://cdn{}.example/pixel/p{}.gif",
                rng.below(7_000),
                rng.below(64)
            ),
            2 => format!(
                "http://site{}.example/banner{}/ads/x.png",
                i % 500,
                i % 7_000
            ),
            _ => format!(
                "http://host{}.example/assets/v{}/widget{}.min.js?cache={}",
                rng.below(5_000),
                rng.below(9),
                rng.below(40_000),
                rng.next_u64() & 0xffff
            ),
        };
        out.push(Request::new(&url, &first, ty).expect("synthetic url parses"));
    }
    out
}
