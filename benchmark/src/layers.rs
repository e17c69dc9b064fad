//! The adapter: the only file of the benchmark that calls into the
//! repo's libraries.
//!
//! Everything the harness needs from `abp`, `abpd`, `abpdelta`,
//! `corpus`, `websim`, `crawler` and `acceptable-ads` goes through the
//! functions and re-exports below, so the API surface a later
//! simplification PR has to keep is this one short list (also printed
//! in `benchmark/README.md`). Variants ROADMAP plans to delete (the
//! blocking server, the worker-pool route) are reached only through
//! daemon command-line flags in `topology.rs`, never through a type
//! such as `ServerMode`.
//!
//! The wrappers are deliberately thin — one library call each — so a
//! span recorded around a wrapper times the library call and nothing
//! else.

use std::net::SocketAddr;
use std::sync::Arc;

pub use abp::{Decision, Engine, FilterList, Request, RequestOutcome};
pub use abpd::protocol::{ReloadDeltaList, ReloadList, ServerMessage};
pub use abpd::service::{BatchScratch, LocalEval};
pub use abpd::wire::{ClientMessageRef, DecisionRequestRef};
pub use abpd::{DecisionRequest, DecisionResponse, HealthReport, Service, StatsReport};
pub use acceptable_ads::survey_exp::SiteSurveyReport;
pub use corpus::Corpus;
pub use websim::Web;

/// Seed of the serving corpus. Program data, not workload seed: the
/// daemons are started with `--seed 2015` and the oracle compiles the
/// same lists.
pub const CORPUS_SEED: u64 = 2015;

/// `abpd`'s default decision-cache capacity (`--cache-capacity` is
/// left alone); the hot and cold request sets are sized against it.
pub const CACHE_CAPACITY: usize = 65_536;

/// `abpd`'s default `--inline-batch-max`: batches up to this size are
/// evaluated on the reactor thread.
const INLINE_BATCH_MAX: usize = 512;

// ---------------------------------------------------------------- corpus

/// `corpus`: generate the EasyList + Acceptable Ads corpus.
pub fn corpus_generate() -> Corpus {
    corpus::Corpus::generate(CORPUS_SEED)
}

/// The list bodies a freshly booted `abpd --seed 2015` serves.
pub fn serving_lists(corpus: &Corpus) -> Vec<ReloadList> {
    lists_with_whitelist(corpus.easylist.to_text(), corpus.whitelist.to_text())
}

/// Serving bodies with another whitelist revision swapped in.
pub fn lists_with_whitelist(easylist: String, whitelist: String) -> Vec<ReloadList> {
    vec![
        ReloadList {
            source: abp::ListSource::EasyList,
            content: easylist,
        },
        ReloadList {
            source: abp::ListSource::AcceptableAds,
            content: whitelist,
        },
    ]
}

/// `corpus`: the whitelist bodies of revisions `988 - last ..= 988` of
/// the generated 989-revision history (`last + 1` bodies: the base
/// plus `last` successors).
pub fn whitelist_revisions(corpus: &Corpus, last: usize) -> Vec<String> {
    let store = corpus::build_history(CORPUS_SEED, &corpus.final_whitelist);
    let n = store.len();
    store
        .iter()
        .skip(n - (last + 1))
        .map(|r| r.content.clone())
        .collect()
}

// ------------------------------------------------------------------- abp

/// `abp`: parse both serving bodies.
pub fn parse_lists(lists: &[ReloadList]) -> Vec<FilterList> {
    lists
        .iter()
        .map(|l| FilterList::parse(l.source, &l.content))
        .collect()
}

/// `abp`: compile parsed lists into one engine.
pub fn compile(lists: &[FilterList]) -> Engine {
    Engine::from_lists(lists)
}

/// `abp`: build the engine-side request (URL parse, lowercase copy,
/// third-party test). Workload requests are generated valid.
pub fn request_new(req: &DecisionRequest) -> Request {
    let r = Request::new(&req.url, &req.document, req.resource_type)
        .expect("generated requests carry parseable URLs");
    match &req.sitekey {
        Some(k) => r.with_sitekey(k.as_str()),
        None => r,
    }
}

/// `abp`: unmasked match (the union of every loaded list).
pub fn match_request(engine: &Engine, req: &Request) -> RequestOutcome {
    engine.match_request(req)
}

/// `abp`: match under one tenant's subscription mask.
pub fn match_request_masked(engine: &Engine, req: &Request, tenant: u64) -> RequestOutcome {
    engine.match_request_masked(req, tenant)
}

/// `abp`: the page-level `$document` / `$elemhide` gates for a host.
/// Returns whether the whole page is allowlisted.
pub fn document_gate(engine: &Engine, host: &str) -> bool {
    match Request::document(&format!("http://{host}/")) {
        Ok(doc) => engine.document_allowlist(&doc).whole_page_allowed(),
        Err(_) => false,
    }
}

/// `abp`: element-hiding selectors in force on a host. Returns how
/// many there are.
pub fn hiding_for_domain(engine: &Engine, host: &str) -> usize {
    engine.hiding_for_domain(host).active.len()
}

/// What the oracle expects the service to answer for a wire request:
/// masked where the request carries a tenant.
pub fn oracle_outcome(engine: &Engine, req: &DecisionRequest) -> RequestOutcome {
    let r = request_new(req);
    match req.tenant {
        Some(t) => engine.match_request_masked(&r, t),
        None => engine.match_request(&r),
    }
}

// ------------------------------------------------------------ abpd::wire

/// `abpd::wire`: encode one `DecideBatch` line body.
pub fn encode_batch(reqs: &[DecisionRequest], out: &mut Vec<u8>) {
    abpd::wire::write_decide_batch(reqs, out);
}

/// `abpd::wire`: encode one `Decide` line body.
pub fn encode_decide(req: &DecisionRequest, out: &mut Vec<u8>) {
    abpd::wire::write_decide(req, out);
}

/// `abpd::wire`: what the server does with a request line.
pub fn parse_request(line: &str) -> Result<ClientMessageRef<'_>, String> {
    abpd::wire::parse_client_message(line)
}

/// `abpd::wire`: encode one `Batch` reply line body.
pub fn encode_batch_reply(resps: &[DecisionResponse], out: &mut Vec<u8>) {
    abpd::wire::write_batch_reply(resps, out);
}

/// `abpd::wire`: encode one `Decision` reply line body.
pub fn encode_decision_reply(resp: &DecisionResponse, out: &mut Vec<u8>) {
    abpd::wire::write_decision_reply(resp, out);
}

/// `abpd::wire`: what the client does with a reply line.
pub fn parse_reply(line: &str) -> Result<ServerMessage, String> {
    abpd::wire::parse_server_message(line)
}

// ---------------------------------------------------------- abpd::client

/// `abpd::client`: one connection to a daemon or the proxy.
pub struct Conn(abpd::Client);

impl Conn {
    /// Connect and wait for the first `Pong`: the readiness probe.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let mut c = abpd::Client::connect(addr)?;
        c.ping()?;
        Ok(Conn(c))
    }

    /// Send one pre-encoded line body.
    pub fn send_line(&mut self, body: &[u8]) -> std::io::Result<()> {
        self.0.send_raw(body)
    }

    /// Read one reply line body.
    pub fn read_line(&mut self) -> std::io::Result<&[u8]> {
        self.0.read_reply_raw()
    }

    /// The `Stats` verb.
    pub fn stats(&mut self) -> std::io::Result<StatsReport> {
        self.0.stats()
    }

    /// The `Health` verb.
    pub fn health(&mut self) -> std::io::Result<HealthReport> {
        self.0.health()
    }

    /// The `ReloadDelta` verb; `Ok(false)` is a base mismatch.
    pub fn reload_delta(&mut self, deltas: &[ReloadDeltaList]) -> std::io::Result<bool> {
        Ok(matches!(
            self.0.reload_delta(deltas)?,
            abpd::ReloadDeltaOutcome::Applied(_)
        ))
    }

    /// The `Shutdown` verb (the proxy forwards it to its shards).
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.0.shutdown_server()
    }
}

// ----------------------------------------------- abpd::service + cache

/// `abpd::service`: an in-process service wired the way one event-mode
/// reactor wires it (`--shards 1 --io-threads 1`): the reactor-local
/// cache at full capacity and inline evaluation.
pub struct InProcess {
    service: Service,
    local: LocalEval,
    scratch: BatchScratch,
}

impl InProcess {
    /// `Service::start_with_lists`: validate, parse and compile.
    pub fn start(lists: Vec<ReloadList>) -> InProcess {
        let config = abpd::ServiceConfig {
            shards: 1,
            ..abpd::ServiceConfig::default()
        };
        let service = Service::start_with_lists(lists, &config)
            .expect("the generated corpus lists pass reload validation");
        let local = service.local_eval(
            0,
            CACHE_CAPACITY,
            INLINE_BATCH_MAX,
            Arc::new(abpd::metrics::ReactorMetrics::default()),
        );
        let scratch = service.scratch();
        InProcess {
            service,
            local,
            scratch,
        }
    }

    /// `Service::decide_batch_local`: the event server's hot path.
    pub fn decide(&mut self, reqs: &[DecisionRequestRef<'_>]) -> &[DecisionResponse] {
        self.service
            .decide_batch_local(reqs, &mut self.scratch, &mut self.local)
            .expect("generated requests are well-formed");
        self.scratch.responses()
    }

    /// `Service::reload`: parse, compile, swap, invalidate.
    pub fn reload(&self, lists: &[ReloadList]) {
        self.service
            .reload(lists)
            .expect("history revisions pass reload validation");
    }
}

/// `abpd::service`: the checksum `Health.list_checksum` reports for a
/// set of serving bodies.
pub fn serving_checksum(lists: &[ReloadList]) -> u64 {
    abpd::serving_checksum(lists)
}

// -------------------------------------------------------------- abpdelta

/// `abpdelta`: encode the patch from one whitelist body to the next.
pub fn delta_encode(old: &str, new: &str) -> ReloadDeltaList {
    ReloadDeltaList {
        source: abp::ListSource::AcceptableAds,
        delta: abpdelta::encode(old, new),
    }
}

/// `abpdelta`: apply a patch. Returns the patched body.
pub fn delta_apply(old: &str, delta: &ReloadDeltaList) -> String {
    abpdelta::apply(old, &delta.delta).expect("a delta applies to the base it was encoded against")
}

/// Bytes a delta puts on the wire as a `ReloadDelta` line.
pub fn delta_wire_bytes(delta: &ReloadDeltaList) -> usize {
    let mut out = Vec::new();
    abpd::wire::write_reload_delta(std::slice::from_ref(delta), &mut out);
    out.len()
}

// ---------------------------------------------------------------- websim

/// `websim::traffic`: the browsing request stream for a workload seed,
/// converted to wire requests.
pub fn traffic(seed: u64) -> impl Iterator<Item = DecisionRequest> {
    websim::traffic::TrafficGen::new(seed)
        .samples()
        .map(|s| abpd::request_of_sample(&s))
}

/// `websim::traffic`: user `i`'s subscription mask in a population of
/// `size` users.
pub fn tenant_masks(seed: u64, size: u64) -> impl Fn(u64) -> u64 {
    let pop = websim::traffic::TenantPopulation::new(seed, size);
    move |user| pop.mask_for(user)
}

/// `websim`: the default-scale simulated Web the crawler visits.
pub fn web_build() -> Web {
    Web::build(websim::WebConfig::default())
}

// ------------------------------------------------------ crawler + survey

/// Top-ranked sites one survey visits: a tenth of the paper's 5,000,
/// so that a measured window holds a dozen whole surveys and the
/// steadiest of them can be told from the disturbed ones.
pub const SURVEY_TOP_N: u32 = 500;
/// Sample size per lower stratum (the paper: 1,000).
pub const SURVEY_STRATUM: usize = 100;

/// `acceptable_ads::survey_exp`: the §5 site survey, single-threaded.
/// `seed` draws the stratum samples.
pub fn site_survey(web: &Web, corpus: &Corpus, seed: u64) -> SiteSurveyReport {
    let config = acceptable_ads::survey_exp::SiteSurveyConfig {
        top_n: SURVEY_TOP_N,
        stratum_sample: SURVEY_STRATUM,
        threads: 1,
        seed,
    };
    acceptable_ads::survey_exp::run_site_survey(web, &corpus.easylist, &corpus.whitelist, &config)
}

/// Pages in a survey report.
pub fn survey_pages(report: &SiteSurveyReport) -> usize {
    report.top_sites.len() + report.strata.iter().map(|(_, s)| s.len()).sum::<usize>()
}

/// Whether two surveys recorded the same thing for every site.
pub fn surveys_equal(a: &SiteSurveyReport, b: &SiteSurveyReport) -> bool {
    a.top_sites == b.top_sites && a.strata == b.strata
}

/// One surveyed site as the crawl oracle sees it: activations of each
/// list under the two paper configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteCounts {
    /// Whitelist activations with both lists enabled.
    pub whitelist_total: u32,
    /// EasyList activations with both lists enabled.
    pub easylist_total_with: u32,
    /// Activations with EasyList alone.
    pub easylist_only_total: u32,
}

/// The survey's counts for the top-group site at `rank` (1-based).
pub fn survey_counts(report: &SiteSurveyReport, rank: u32) -> SiteCounts {
    let s = &report.top_sites[rank as usize - 1];
    SiteCounts {
        whitelist_total: s.whitelist_total,
        easylist_total_with: s.easylist_total_with,
        easylist_only_total: s.easylist_only_total,
    }
}

/// `crawler`: the reference the survey is checked against. The survey
/// evaluates its configurations as tenant masks over one compile; the
/// reference compiles each configuration's lists on their own.
pub struct CrawlOracle {
    engines: Vec<crawler::parallel::NamedEngine>,
}

impl CrawlOracle {
    /// Compile "both lists" and "EasyList only" separately.
    pub fn new(corpus: &Corpus) -> CrawlOracle {
        use acceptable_ads::survey_exp::{CONFIG_BOTH, CONFIG_EASYLIST_ONLY};
        use crawler::parallel::NamedEngine;
        CrawlOracle {
            engines: vec![
                NamedEngine::new(
                    CONFIG_BOTH,
                    Engine::from_lists([&corpus.easylist, &corpus.whitelist]),
                ),
                NamedEngine::new(CONFIG_EASYLIST_ONLY, Engine::from_lists([&corpus.easylist])),
            ],
        }
    }

    /// `crawler::parallel::crawl_ranks` over `ranks`: the expected
    /// counts per site and the requests the crawler classified per
    /// page under one configuration.
    pub fn crawl(&self, web: &Web, ranks: &[u32]) -> (Vec<SiteCounts>, u64) {
        let visits = crawler::parallel::crawl_ranks(web, &self.engines, ranks, 1);
        let mut requests = 0u64;
        let counts = visits
            .iter()
            .map(|v| {
                let both = &v.records[0];
                let only = &v.records[1];
                requests += u64::from(both.blocked_requests + both.allowed_requests);
                SiteCounts {
                    whitelist_total: both.whitelist_activations().count() as u32,
                    easylist_total_with: both.blocking_activations().count() as u32,
                    easylist_only_total: only.activations.len() as u32,
                }
            })
            .collect();
        (counts, requests)
    }
}
