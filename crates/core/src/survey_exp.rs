//! §5 — the instrumented site survey: Figs 6, 7, 8 and Table 4.
//!
//! Methodology mirrors the paper: visit the landing page of (i) the top
//! N sites and (ii) 1,000-site random samples of the 5K–50K, 50K–100K
//! and 100K–1M strata; record every filter activation under both engine
//! configurations ("whitelist + EasyList" and "EasyList only").

use abp::{Engine, ListSource};
use crawler::parallel::{crawl_ranks, NamedEngine};
use crawler::visit::SiteVisit;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use websim::alexa::{sample_stratum, Stratum};
use websim::Web;

/// Configuration label: both lists enabled (the ABP default).
pub const CONFIG_BOTH: &str = "whitelist+easylist";
/// Configuration label: EasyList only (whitelist disabled).
pub const CONFIG_EASYLIST_ONLY: &str = "easylist-only";
/// Configuration label: no blocker installed at all.
pub const CONFIG_NO_BLOCKER: &str = "no-blocker";
/// Configuration label: whitelist exceptions without any block list.
pub const CONFIG_EXCEPTIONS_ONLY: &str = "exceptions-only";

/// Tenant mask per survey configuration over the shared compiled
/// engine (EasyList = bit 0, whitelist = bit 1).
pub const SURVEY_TENANTS: [(&str, u64); 4] = [
    (CONFIG_NO_BLOCKER, 0),
    (CONFIG_EASYLIST_ONLY, 0b01),
    (CONFIG_BOTH, 0b11),
    (CONFIG_EXCEPTIONS_ONLY, 0b10),
];

/// Survey parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteSurveyConfig {
    /// Top-ranked sites to visit (paper: 5,000).
    pub top_n: u32,
    /// Random sample size per lower stratum (paper: 1,000).
    pub stratum_sample: usize,
    /// Crawl worker threads.
    pub threads: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for SiteSurveyConfig {
    fn default() -> Self {
        SiteSurveyConfig {
            top_n: 5_000,
            stratum_sample: 1_000,
            // Every available core, capped: the crawl stops scaling
            // past ~16 workers on the synthetic web.
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8)
                .min(16),
            seed: 2015,
        }
    }
}

/// Per-site aggregate record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteRecord {
    /// Domain visited.
    pub domain: String,
    /// Alexa rank.
    pub rank: u32,
    /// Whether the domain is explicitly named in a whitelist filter
    /// (Fig 6's bold labels).
    pub explicit: bool,
    /// Total whitelist-filter activations (both lists enabled).
    pub whitelist_total: u32,
    /// Distinct whitelist filters activated.
    pub whitelist_distinct: u32,
    /// Blocking (EasyList) activations with both lists enabled.
    pub easylist_total_with: u32,
    /// Activations with EasyList alone.
    pub easylist_only_total: u32,
    /// Distinct activated filters `(text, source)` with both lists on.
    pub filters: Vec<(String, ListSource)>,
    /// Distinct whitelist filters that activated *needlessly* on this
    /// site (no blocking filter underneath — §5's gstatic observation).
    pub needless_filters: Vec<String>,
}

impl SiteRecord {
    /// Whether any filter activated in either configuration.
    pub fn any_activation(&self) -> bool {
        self.whitelist_total + self.easylist_total_with + self.easylist_only_total > 0
    }
}

fn record_from_visit(visit: &SiteVisit, explicit: bool) -> SiteRecord {
    let both = visit.record(CONFIG_BOTH).expect("both config present");
    let only = visit
        .record(CONFIG_EASYLIST_ONLY)
        .expect("easylist-only config present");

    let mut filters: BTreeSet<(String, ListSource)> = BTreeSet::new();
    for a in &both.activations {
        filters.insert((a.filter.to_string(), a.source));
    }
    let whitelist_total = both.whitelist_activations().count() as u32;
    let whitelist_distinct = filters
        .iter()
        .filter(|(_, s)| *s == ListSource::AcceptableAds)
        .count() as u32;
    let mut needless_filters: Vec<String> = crawler::blockable::needless_whitelist_filters(both)
        .into_iter()
        .map(|a| a.filter.to_string())
        .collect();
    needless_filters.sort_unstable();
    needless_filters.dedup();

    SiteRecord {
        domain: visit.domain.clone(),
        rank: visit.rank,
        explicit,
        whitelist_total,
        whitelist_distinct,
        easylist_total_with: both.blocking_activations().count() as u32,
        easylist_only_total: only.activations.len() as u32,
        filters: filters.into_iter().collect(),
        needless_filters,
    }
}

/// The survey's output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteSurveyReport {
    /// Per-site records for the top-N group (rank order).
    pub top_sites: Vec<SiteRecord>,
    /// Per-stratum sampled records (the three lower groups), in
    /// stratum order.
    pub strata: Vec<(String, Vec<SiteRecord>)>,
    /// Configuration used.
    pub config: SiteSurveyConfig,
    /// Engine compilations the survey paid for its four configurations
    /// ([`abp::Engine::compile_count`] of the shared engine: 1).
    #[serde(default)]
    pub engine_compiles: u64,
}

impl SiteSurveyReport {
    /// Sites in the top group with at least one activation (paper:
    /// 3,956 of 5,000).
    pub fn sites_with_any_activation(&self) -> usize {
        self.top_sites.iter().filter(|s| s.any_activation()).count()
    }

    /// Sites in the top group activating ≥1 whitelist filter (paper:
    /// 2,934 — 59%).
    pub fn sites_with_whitelist_activation(&self) -> usize {
        self.top_sites
            .iter()
            .filter(|s| s.whitelist_total > 0)
            .count()
    }

    /// Fig 7's ECDF inputs: (total, distinct) whitelist matches per site
    /// with ≥1 whitelist match, ascending.
    pub fn ecdf_points(&self) -> (Vec<u32>, Vec<u32>) {
        let mut totals = Vec::new();
        let mut distincts = Vec::new();
        for s in &self.top_sites {
            if s.whitelist_total > 0 {
                totals.push(s.whitelist_total);
                distincts.push(s.whitelist_distinct);
            }
        }
        totals.sort_unstable();
        distincts.sort_unstable();
        (totals, distincts)
    }

    /// Mean distinct whitelist filters per matching site (paper: 2.6).
    pub fn mean_distinct_whitelist(&self) -> f64 {
        let (_, d) = self.ecdf_points();
        if d.is_empty() {
            return 0.0;
        }
        d.iter().map(|x| *x as f64).sum::<f64>() / d.len() as f64
    }

    /// The site with the most whitelist activations (paper:
    /// toyota.com, 83 total / 8 distinct).
    pub fn heaviest_site(&self) -> Option<&SiteRecord> {
        self.top_sites.iter().max_by_key(|s| s.whitelist_total)
    }

    /// Table 4: the `n` most common whitelist filters by the number of
    /// distinct top-group domains activating them.
    pub fn top_whitelist_filters(&self, n: usize) -> Vec<(String, usize)> {
        let mut by_filter: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.top_sites {
            for (f, source) in &s.filters {
                if *source == ListSource::AcceptableAds {
                    *by_filter.entry(f).or_default() += 1;
                }
            }
        }
        let mut v: Vec<(String, usize)> = by_filter
            .into_iter()
            .map(|(f, c)| (f.to_string(), c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Needless-activation census (§5): for each whitelist filter, the
    /// number of top-group sites where it activated at all and where it
    /// activated with no blocking filter underneath. The paper's gstatic
    /// observation predicts filters whose needless share is ~100%.
    pub fn needless_rates(&self) -> Vec<(String, usize, usize)> {
        let mut activated: BTreeMap<&str, usize> = BTreeMap::new();
        let mut needless: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.top_sites {
            for (f, source) in &s.filters {
                if *source == ListSource::AcceptableAds {
                    *activated.entry(f).or_default() += 1;
                }
            }
            for f in &s.needless_filters {
                *needless.entry(f).or_default() += 1;
            }
        }
        let mut out: Vec<(String, usize, usize)> = activated
            .into_iter()
            .map(|(f, a)| (f.to_string(), a, needless.get(f).copied().unwrap_or(0)))
            .collect();
        out.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        out
    }

    /// Fig 6: the first `n` ranked sites with ≥1 activation.
    pub fn figure6_rows(&self, n: usize) -> Vec<&SiteRecord> {
        self.top_sites
            .iter()
            .filter(|s| s.any_activation())
            .take(n)
            .collect()
    }

    /// Fig 8: for each group (top group + strata), how many of its sites
    /// activate each of the given filters.
    pub fn figure8_matrix(&self, filters: &[String]) -> Vec<(String, Vec<usize>)> {
        let groups: Vec<(&str, &Vec<SiteRecord>)> = std::iter::once(("Top 5K", &self.top_sites))
            .chain(self.strata.iter().map(|(k, v)| (k.as_str(), v)))
            .collect();
        groups
            .into_iter()
            .map(|(label, sites)| {
                let counts = filters
                    .iter()
                    .map(|f| {
                        sites
                            .iter()
                            .filter(|s| s.filters.iter().any(|(t, _)| t == f))
                            .count()
                    })
                    .collect();
                (label.to_string(), counts)
            })
            .collect()
    }
}

/// Run the full site survey.
pub fn run_site_survey(
    web: &Web,
    easylist: &abp::FilterList,
    whitelist: &abp::FilterList,
    config: &SiteSurveyConfig,
) -> SiteSurveyReport {
    // One compiled core for all four paper configurations: EasyList
    // claims bit 0, the whitelist bit 1, and each configuration is a
    // tenant mask over the shared engine instead of its own compile.
    let union = std::sync::Arc::new(Engine::from_lists([easylist, whitelist]));
    let selectors = std::sync::Arc::new(crawler::selcache::SelectorCache::build(&union));
    let engines: Vec<NamedEngine> = SURVEY_TENANTS
        .iter()
        .map(|&(name, tenant)| NamedEngine::shared(name, &union, &selectors, tenant))
        .collect();

    let top_ranks: Vec<u32> = (1..=config.top_n).collect();
    let top_visits = crawl_ranks(web, &engines, &top_ranks, config.threads);
    let top_sites: Vec<SiteRecord> = top_visits
        .iter()
        .map(|v| record_from_visit(v, web.directory.by_rank(v.rank).is_some()))
        .collect();

    let mut strata = Vec::new();
    for stratum in [
        Stratum::From5kTo50k,
        Stratum::From50kTo100k,
        Stratum::From100kTo1M,
    ] {
        let ranks = sample_stratum(stratum, config.stratum_sample, config.seed);
        let visits = crawl_ranks(web, &engines, &ranks, config.threads);
        let records = visits
            .iter()
            .map(|v| record_from_visit(v, web.directory.by_rank(v.rank).is_some()))
            .collect();
        strata.push((stratum.label().to_string(), records));
    }

    SiteSurveyReport {
        top_sites,
        strata,
        config: config.clone(),
        engine_compiles: union.compile_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use std::sync::OnceLock;

    /// A reduced survey (top 600, 150/stratum) — same machinery, smaller
    /// population, so rate assertions use bands.
    fn report() -> &'static SiteSurveyReport {
        static CACHE: OnceLock<SiteSurveyReport> = OnceLock::new();
        CACHE.get_or_init(|| {
            let c = testutil::corpus();
            let cfg = SiteSurveyConfig {
                top_n: 600,
                stratum_sample: 150,
                threads: 8,
                seed: testutil::SEED,
            };
            run_site_survey(testutil::web(), &c.easylist, &c.whitelist, &cfg)
        })
    }

    #[test]
    fn activation_rates_in_paper_band() {
        let r = report();
        let n = r.top_sites.len() as f64;
        let any = r.sites_with_any_activation() as f64 / n;
        let wl = r.sites_with_whitelist_activation() as f64 / n;
        // Paper: 79% any, 59% whitelist (top 5K). The top-600 cut is
        // denser in publishers, so allow generous bands.
        assert!((0.60..=0.95).contains(&any), "any-rate {any}");
        assert!((0.40..=0.85).contains(&wl), "whitelist-rate {wl}");
        assert!(wl <= any);
    }

    #[test]
    fn four_configs_ride_one_compiled_engine() {
        // The report build compiles exactly one engine for its four
        // configurations; the masked views behave like the paper's
        // separate installs.
        let c = testutil::corpus();
        let cfg = SiteSurveyConfig {
            top_n: 40,
            stratum_sample: 5,
            threads: 4,
            seed: testutil::SEED,
        };
        let union = std::sync::Arc::new(Engine::from_lists([&c.easylist, &c.whitelist]));
        let selectors = std::sync::Arc::new(crawler::selcache::SelectorCache::build(&union));
        let engines: Vec<NamedEngine> = SURVEY_TENANTS
            .iter()
            .map(|&(name, tenant)| NamedEngine::shared(name, &union, &selectors, tenant))
            .collect();
        let ranks: Vec<u32> = (1..=cfg.top_n).collect();
        let visits = crawl_ranks(testutil::web(), &engines, &ranks, cfg.threads);
        assert_eq!(
            union.compile_count(),
            1,
            "four survey configs must cost one compile"
        );
        for v in &visits {
            let none = v.record(CONFIG_NO_BLOCKER).unwrap();
            assert!(
                none.activations.is_empty(),
                "{}: no blocker, no filters",
                v.domain
            );
            assert_eq!(none.blocked_requests, 0);
            assert_eq!(none.hidden_elements, 0);
            let exc = v.record(CONFIG_EXCEPTIONS_ONLY).unwrap();
            assert_eq!(
                exc.blocked_requests, 0,
                "{}: exceptions never block",
                v.domain
            );
            assert!(
                exc.activations.iter().all(|a| a.kind.is_exception()),
                "{}: exceptions-only activations are all exception kinds",
                v.domain
            );
        }
    }

    #[test]
    fn table4_leaders_match_paper_order() {
        let r = report();
        let top = r.top_whitelist_filters(20);
        assert!(!top.is_empty());
        let texts: Vec<&str> = top.iter().map(|(f, _)| f.as_str()).collect();
        // The three Table 4 leaders must be the three most common.
        assert!(texts[0].contains("stats.g.doubleclick.net"), "{texts:?}");
        assert!(
            texts[1].contains("googleadservices.com") || texts[1].contains("gstatic.com"),
            "{texts:?}"
        );
        // gstatic appears in the top 4.
        assert!(
            texts[..4].iter().any(|t| t.contains("gstatic.com")),
            "{texts:?}"
        );
    }

    #[test]
    fn ecdf_and_mean_distinct() {
        let r = report();
        let (totals, distincts) = r.ecdf_points();
        assert_eq!(totals.len(), distincts.len());
        assert!(!totals.is_empty());
        // Totals dominate distincts pointwise after sorting.
        assert!(totals.last() >= distincts.last());
        let mean = r.mean_distinct_whitelist();
        // Paper: 2.6 distinct filters per site on average.
        assert!((1.5..=4.5).contains(&mean), "mean distinct {mean}");
    }

    #[test]
    fn figure6_rows_shape() {
        let r = report();
        let rows = r.figure6_rows(50);
        assert_eq!(rows.len(), 50);
        // Some of the paper's bold (explicit) domains are in the top 50
        // rows.
        assert!(rows.iter().any(|s| s.explicit));
        // And some activating sites are NOT explicitly whitelisted
        // (the paper counts 12 such in its figure).
        assert!(rows.iter().any(|s| !s.explicit && s.whitelist_total > 0));
    }

    #[test]
    fn figure8_decay_and_conversion_outlier() {
        let r = report();
        let filters: Vec<String> = r
            .top_whitelist_filters(10)
            .into_iter()
            .map(|(f, _)| f)
            .collect();
        let matrix = r.figure8_matrix(&filters);
        assert_eq!(matrix.len(), 4); // top group + 3 strata
                                     // The doubleclick leader decays down the strata (rates, since
                                     // group sizes differ).
        let dc_idx = filters
            .iter()
            .position(|f| f.contains("stats.g.doubleclick"))
            .expect("doubleclick in top filters");
        let top_rate = matrix[0].1[dc_idx] as f64 / r.top_sites.len() as f64;
        let tail_rate = matrix
            .iter()
            .find(|(l, _)| l == "100K-1M")
            .map(|(_, c)| c[dc_idx] as f64 / r.config.stratum_sample as f64)
            .unwrap();
        assert!(
            top_rate > tail_rate,
            "doubleclick should decay: {top_rate} vs {tail_rate}"
        );
    }

    #[test]
    fn affiliate_conversion_peaks_in_tail() {
        // Fig 8's outlier: the affiliate conversion pixel is most common
        // in the 100K–1M group.
        let r = report();
        let f = vec!["@@||pixel.affiliateconv.com^$image,third-party".to_string()];
        let matrix = r.figure8_matrix(&f);
        let top_rate = matrix[0].1[0] as f64 / r.top_sites.len() as f64;
        let tail_rate = matrix
            .iter()
            .find(|(l, _)| l == "100K-1M")
            .map(|(_, c)| c[0] as f64 / r.config.stratum_sample as f64)
            .unwrap();
        assert!(
            tail_rate > top_rate,
            "affiliate pixel should peak in the tail: {top_rate} vs {tail_rate}"
        );
    }

    #[test]
    fn gstatic_needless_but_doubleclick_covered() {
        // §5: "whitelist filters activate needlessly … EasyList does not
        // currently contain any filters that would block the observed
        // gstatic.com requests." doubleclick, by contrast, is genuinely
        // blocked and only shown because the exception overrides.
        let r = report();
        let rates = r.needless_rates();
        let gstatic = rates
            .iter()
            .find(|(f, ..)| f.contains("gstatic"))
            .expect("gstatic filter activated");
        assert_eq!(gstatic.1, gstatic.2, "gstatic activations are all needless");
        assert!(gstatic.2 > 0);
        let dc = rates
            .iter()
            .find(|(f, ..)| f.contains("stats.g.doubleclick"))
            .expect("doubleclick filter activated");
        assert_eq!(dc.2, 0, "doubleclick exceptions always cover a real block");
    }

    #[test]
    fn toyota_is_heaviest_when_in_range() {
        // toyota.com sits at rank 1,288 — outside the top-600 test cut —
        // so run a tiny focused crawl over a range including it.
        let c = testutil::corpus();
        let cfg = SiteSurveyConfig {
            top_n: 1_300,
            stratum_sample: 10,
            threads: 8,
            seed: testutil::SEED,
        };
        let r = run_site_survey(testutil::web(), &c.easylist, &c.whitelist, &cfg);
        let heavy = r.heaviest_site().unwrap();
        assert_eq!(heavy.domain, "toyota.com");
        assert_eq!(heavy.whitelist_total, 83);
        assert_eq!(heavy.whitelist_distinct, 8);
    }
}
