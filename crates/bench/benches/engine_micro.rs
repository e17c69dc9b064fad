//! Micro-benchmarks of the substrate: filter parsing, engine
//! construction, request matching, element hiding, URL parsing, and the
//! crypto primitives behind sitekeys.

use abp::{Engine, FilterList, ListSource, Request, ResourceType};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sitekey::bigint::BigUint;
use sitekey::rng::SplitMix64;
use sitekey::rsa::RsaKeyPair;
use std::hint::black_box;

fn engine_fixture() -> Engine {
    let c = bench::corpus();
    Engine::from_lists([&c.easylist, &c.whitelist])
}

fn bench_parsing(c: &mut Criterion) {
    let easylist_text = corpus::generate_easylist(bench::SEED);
    c.bench_function("parse_easylist_19k_lines", |b| {
        b.iter(|| FilterList::parse(ListSource::EasyList, black_box(&easylist_text)))
    });
    c.bench_function("parse_single_filter", |b| {
        b.iter(|| {
            abp::parse_filter(black_box(
                "@@||adzerk.net/reddit/$subdocument,document,domain=reddit.com",
            ))
        })
    });
}

fn bench_engine(c: &mut Criterion) {
    let corpus_ref = bench::corpus();
    c.bench_function("engine_build_25k_filters", |b| {
        b.iter(|| Engine::from_lists([&corpus_ref.easylist, &corpus_ref.whitelist]))
    });

    let engine = engine_fixture();
    let hit = Request::new(
        "http://stats.g.doubleclick.net/dc.js",
        "example.com",
        ResourceType::Script,
    )
    .unwrap();
    let miss = Request::new(
        "http://benign-cdn.example/app/main.css",
        "example.com",
        ResourceType::Stylesheet,
    )
    .unwrap();
    c.bench_function("match_request_hit", |b| {
        b.iter(|| engine.match_request(black_box(&hit)))
    });
    c.bench_function("match_request_miss", |b| {
        b.iter(|| engine.match_request(black_box(&miss)))
    });
    c.bench_function("document_allowlist", |b| {
        let doc = Request::document("http://www.ask.com/").unwrap();
        b.iter(|| engine.document_allowlist(black_box(&doc)))
    });
    c.bench_function("hiding_refs_for_domain", |b| {
        b.iter(|| engine.hiding_refs_for_domain(black_box("www.reddit.com")))
    });
}

/// Matching throughput at service scale: a 10k-filter engine driven by
/// 100k mixed URLs, exercising the CSR token buckets and the
/// untokenized tail, plus the page-level gates and element hiding at
/// realistic rule counts, then the hostile corpora whose counter
/// guarantees `bench::synthetic`'s tests assert.
fn bench_matching_throughput(c: &mut Criterion) {
    let (bl, wl) = bench::synthetic::lists_10k();
    let engine = Engine::from_lists([&bl, &wl]);
    let reqs = bench::synthetic::requests(100_000);

    let mut group = c.benchmark_group("throughput_10k");
    group.sample_size(10);
    // Tokenized path: most requests resolve via CSR bucket probes.
    group.bench_function("match_many_100k_urls", |b| {
        b.iter(|| engine.match_many(black_box(&reqs)))
    });
    // Untokenized worst case: every filter is a candidate for every URL.
    let unt_engine = Engine::from_lists([&bench::synthetic::untokenized_list(300)]);
    let unt_reqs = &reqs[..10_000];
    group.bench_function("match_many_untokenized_300x10k", |b| {
        b.iter(|| unt_engine.match_many(black_box(unt_reqs)))
    });
    // Page-level gates over the prebuilt $document/$elemhide id list.
    let docs = bench::synthetic::document_requests(10_000);
    group.bench_function("document_gate_10k_docs", |b| {
        b.iter(|| {
            for d in &docs {
                black_box(engine.document_allowlist(black_box(d)));
            }
        })
    });
    // Element hiding with 2,150 rules: generic + domain-bucketed.
    let domains = bench::synthetic::hiding_domains(2_000);
    group.bench_function("hiding_for_domain_2k_domains", |b| {
        b.iter(|| {
            for d in &domains {
                black_box(engine.hiding_for_domain(black_box(d)));
            }
        })
    });
    group.bench_function("hiding_refs_2k_domains", |b| {
        b.iter(|| {
            for d in &domains {
                black_box(engine.hiding_refs_for_domain(black_box(d)));
            }
        })
    });
    // Adversarial wildcard tail: 375 filters whose anchors never occur
    // in the traffic plus 25 anchorless ones, then the all-anchorless
    // floor the required-literal prefilter exists for.
    for (name, anchored, hostile) in [
        ("match_many_adversarial_375+25x10k", 375, 25),
        ("match_many_anchor_hostile_200x10k", 0, 200),
    ] {
        let list = bench::synthetic::adversarial_untokenized_list(anchored, hostile);
        let adv_engine = Engine::from_lists([&list]);
        group.bench_function(name, |b| {
            b.iter(|| adv_engine.match_many(black_box(unt_reqs)))
        });
    }
    // Hiding worst case: conditional generics, deep exception chains,
    // near-miss suffix traffic; plans are memoized, so this is warm.
    let (hbl, hwl) = bench::synthetic::hiding_hostile_lists();
    let hostile_hide_engine = Engine::from_lists([&hbl, &hwl]);
    let hostile_domains = bench::synthetic::hiding_hostile_domains(2_000);
    group.bench_function("hiding_hostile_2k_domains", |b| {
        b.iter(|| {
            for d in &hostile_domains {
                black_box(hostile_hide_engine.hiding_for_domain(black_box(d)));
            }
        })
    });
    group.finish();
}

fn bench_url_and_dom(c: &mut Criterion) {
    c.bench_function("url_parse", |b| {
        b.iter(|| {
            urlkit::Url::parse(black_box(
                "http://static.adzerk.net/reddit/ads.html?sr=-reddit.com,loggedout&bust2#x",
            ))
        })
    });
    let web = bench::web();
    let resp = web.get(&websim::HttpRequest::browser("http://reddit.com/"));
    c.bench_function("html_parse_landing_page", |b| {
        b.iter(|| cssdom::parse_html(black_box(&resp.body)))
    });
    let dom = cssdom::parse_html(&resp.body);
    let selector = cssdom::parse_selector("#ad_main, .banner-ad, iframe[src*=\"adzerk\"]").unwrap();
    c.bench_function("selector_query_all", |b| {
        b.iter(|| cssdom::query_all(black_box(&dom), black_box(&selector)))
    });
}

fn bench_crypto(c: &mut Criterion) {
    c.bench_function("sha1_1kib", |b| {
        let data = vec![0xA5u8; 1024];
        b.iter(|| sitekey::sha1::sha1(black_box(&data)))
    });
    c.bench_function("rsa_keygen_128", |b| {
        let mut seed = 0u64;
        b.iter_batched(
            || {
                seed += 1;
                SplitMix64::new(seed)
            },
            |mut rng| RsaKeyPair::generate(128, &mut rng),
            BatchSize::SmallInput,
        )
    });
    let kp = RsaKeyPair::generate(128, &mut SplitMix64::new(1));
    let msg = b"/index\0host.example\0UA";
    let sig = kp.sign(msg);
    c.bench_function("rsa_sign_128", |b| b.iter(|| kp.sign(black_box(msg))));
    c.bench_function("rsa_verify_128", |b| {
        b.iter(|| kp.public.verify(black_box(msg), black_box(&sig)))
    });
    c.bench_function("modexp_512bit", |b| {
        let base = BigUint::random_bits(512, &mut SplitMix64::new(2));
        let exp = BigUint::random_bits(512, &mut SplitMix64::new(3));
        let mut modulus = BigUint::random_bits(512, &mut SplitMix64::new(4));
        if modulus.is_even() {
            modulus = modulus.add(&BigUint::one());
        }
        b.iter(|| base.mod_pow(black_box(&exp), black_box(&modulus)))
    });
}

fn bench_crawl(c: &mut Criterion) {
    let web = bench::web();
    let cps = bench::corpus();
    let engines = vec![
        crawler::NamedEngine::new("both", Engine::from_lists([&cps.easylist, &cps.whitelist])),
        crawler::NamedEngine::new("only", Engine::from_lists([&cps.easylist])),
    ];
    let ranks: Vec<u32> = (1..=100).collect();
    let mut group = c.benchmark_group("crawl");
    group.sample_size(10);
    group.bench_function("visit_100_sites_2_engines", |b| {
        b.iter(|| crawler::crawl_ranks(web, black_box(&engines), black_box(&ranks), 8))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parsing,
    bench_engine,
    bench_matching_throughput,
    bench_url_and_dom,
    bench_crypto,
    bench_crawl
);
criterion_main!(benches);
