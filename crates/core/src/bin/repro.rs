//! `repro` — run every experiment of the reproduction and emit both a
//! human-readable report and JSON artifacts.
//!
//! ```text
//! cargo run --release -p acceptable-ads --bin repro -- \
//!     [--full] [--out DIR] [--threads N] [--timings]
//! ```
//!
//! `--full` runs the site survey at paper scale (top 5,000 + 3×1,000);
//! the default is a 1,500 + 3×300 cut. `--out DIR` writes one JSON file
//! per experiment into `DIR`. Crawl parallelism defaults to the
//! machine's available cores (capped at 16); `--threads N` overrides
//! it. `--timings` prints per-experiment wall-clock to stderr as each
//! finishes, then the total and how many engine compiles the survey's
//! configurations cost.

use acceptable_ads::exploit::{run_exploit, ExploitConfig};
use acceptable_ads::history::mine_history;
use acceptable_ads::hygiene::audit;
use acceptable_ads::parked::scan_table3;
use acceptable_ads::partitions::partition_table;
use acceptable_ads::perception::run_perception_survey;
use acceptable_ads::report::{pct, render_comparisons, to_json, Comparison};
use acceptable_ads::scope::classify_whitelist;
use acceptable_ads::survey_exp::{run_site_survey, SiteSurveyConfig};
use acceptable_ads::undocumented::detect_undocumented;
use std::path::PathBuf;

const SEED: u64 = 2015;

/// Crawl parallelism when `--threads` is absent: every available core,
/// capped at 16 (the synthetic web stops scaling past that, and the cap
/// keeps shared CI boxes polite).
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8)
        .min(16)
}

/// Wall-clock laps per experiment, printed live under `--timings`.
struct Timings {
    enabled: bool,
    last: std::time::Instant,
}

impl Timings {
    fn new(enabled: bool) -> Timings {
        Timings {
            enabled,
            last: std::time::Instant::now(),
        }
    }

    /// Close the lap that started at the previous call (or construction).
    fn lap(&mut self, name: &str) {
        let now = std::time::Instant::now();
        if self.enabled {
            let secs = now.duration_since(self.last).as_secs_f64();
            eprintln!("[timing] {name}: {secs:.3}s");
        }
        self.last = now;
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let timings_enabled = args.iter().any(|a| a == "--timings");
    let threads: usize = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse().expect("--threads takes a positive integer"))
        .filter(|&n| n > 0)
        .unwrap_or_else(default_threads);
    let out_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let write = |name: &str, json: String| {
        if let Some(dir) = &out_dir {
            let path = dir.join(name);
            std::fs::write(&path, json).expect("write artifact");
            eprintln!("wrote {}", path.display());
        }
    };

    let run_started = std::time::Instant::now();
    let mut timings = Timings::new(timings_enabled);

    eprintln!("generating corpus, world, history (seed {SEED}, {threads} threads) ...");
    let corpus = corpus::Corpus::generate(SEED);
    let web = websim::Web::build(websim::WebConfig {
        seed: SEED,
        scale: websim::Scale::Default,
    });
    let store = corpus::history::build_history(SEED, &corpus.final_whitelist);
    timings.lap("generate_corpus_world_history");

    // ---- Fig 4 / Table 2 ---------------------------------------------------
    let scope = classify_whitelist(&corpus.whitelist);
    let table2 = partition_table(&scope, &web);
    println!(
        "{}",
        render_comparisons(
            "Fig 4: whitelist scope",
            &[
                Comparison::new("distinct filters", "5,936", scope.total_distinct),
                Comparison::new("unrestricted", "156", scope.unrestricted()),
                Comparison::new(
                    "sitekey filters / keys",
                    "25 / 4",
                    format!("{} / {}", scope.sitekey_filters, scope.distinct_sitekeys)
                ),
                Comparison::new("explicit FQDNs", "3,544", scope.explicit_fqdns.len()),
                Comparison::new("explicit e2LDs", "1,990", scope.explicit_e2lds().len()),
            ]
        )
    );
    let t2_rows: Vec<Comparison> = table2
        .rows
        .iter()
        .zip(["1,990", "1,286", "316", "167", "112", "33"])
        .map(|(r, p)| Comparison::new(&r.label, p, r.count))
        .collect();
    println!(
        "{}",
        render_comparisons("Table 2: Alexa partitions", &t2_rows)
    );
    write("table2.json", to_json(&table2));
    timings.lap("whitelist_scope_partitions");

    // ---- Fig 3 / Table 1 ------------------------------------------------------
    let history = mine_history(&store);
    let totals = history.totals();
    println!(
        "{}",
        render_comparisons(
            "Table 1 / Fig 3: history",
            &[
                Comparison::new("revisions", "989", totals.revisions),
                Comparison::new("filters added", "8,808", totals.filters_added),
                Comparison::new("filters removed", "2,872", totals.filters_removed),
                Comparison::new("filters at head", "5,936", history.head_filters()),
                Comparison::new(
                    "largest jump (rev, +filters)",
                    "(200, 1,262)",
                    format!("{:?}", history.largest_jumps(1))
                ),
                Comparison::new(
                    "mean days/update",
                    "1.5",
                    format!("{:.2}", history.mean_interval_days)
                ),
                Comparison::new(
                    "mean filters/update",
                    "11.4",
                    format!("{:.1}", history.mean_filters_changed_per_revision)
                ),
            ]
        )
    );
    write("table1.json", to_json(&history.yearly));
    write("figure3.json", to_json(&history.growth));
    timings.lap("history_mining");

    // ---- Table 3 -----------------------------------------------------------------
    let table3 = scan_table3(&web);
    let t3_rows: Vec<Comparison> = table3
        .rows
        .iter()
        .map(|r| Comparison::new(&r.service, r.paper, r.extrapolated))
        .collect();
    println!(
        "{}",
        render_comparisons("Table 3: parked domains (extrapolated)", &t3_rows)
    );
    write("table3.json", to_json(&table3));
    timings.lap("parked_domains");

    // ---- §5 site survey --------------------------------------------------------
    let cfg = SiteSurveyConfig {
        top_n: if full { 5_000 } else { 1_500 },
        stratum_sample: if full { 1_000 } else { 300 },
        threads,
        seed: SEED,
    };
    eprintln!(
        "crawling top {} + 3x{} (use --full for paper scale) ...",
        cfg.top_n, cfg.stratum_sample
    );
    let survey = run_site_survey(&web, &corpus.easylist, &corpus.whitelist, &cfg);
    let survey_compiles = survey.engine_compiles;
    let n = survey.top_sites.len();
    let heavy = survey.heaviest_site().expect("non-empty survey");
    println!(
        "{}",
        render_comparisons(
            "Section 5: site survey",
            &[
                Comparison::new(
                    "sites with any activation",
                    "79.1%",
                    pct(survey.sites_with_any_activation(), n)
                ),
                Comparison::new(
                    "sites with whitelist activation",
                    "58.7%",
                    pct(survey.sites_with_whitelist_activation(), n)
                ),
                Comparison::new(
                    "mean distinct whitelist filters",
                    "2.6",
                    format!("{:.2}", survey.mean_distinct_whitelist())
                ),
                Comparison::new(
                    "heaviest site",
                    "toyota.com 83/8",
                    format!(
                        "{} {}/{}",
                        heavy.domain, heavy.whitelist_total, heavy.whitelist_distinct
                    )
                ),
            ]
        )
    );
    let table4 = survey.top_whitelist_filters(20);
    println!("Table 4 (top whitelist filters):");
    for (i, (f, c)) in table4.iter().enumerate() {
        println!(
            "{:>2}. {c:>5}  {}",
            i + 1,
            f.chars().take(58).collect::<String>()
        );
    }
    println!();
    write("table4.json", to_json(&table4));
    write(
        "figure7.json",
        to_json(&{
            let (totals, distincts) = survey.ecdf_points();
            serde_json::json!({ "totals": totals, "distincts": distincts })
        }),
    );
    timings.lap("site_survey");

    // ---- Fig 5 ---------------------------------------------------------------------
    let exploit = run_exploit(&ExploitConfig::default(), &corpus.easylist);
    println!(
        "{}",
        render_comparisons(
            "Fig 5: sitekey exploit",
            &[
                Comparison::new(
                    "blocked without sitekey",
                    "all",
                    format!(
                        "{}/{}",
                        exploit.blocked_without_sitekey, exploit.page_requests
                    )
                ),
                Comparison::new(
                    "blocked with forged sitekey",
                    "none",
                    format!("{}/{}", exploit.blocked_with_sitekey, exploit.page_requests)
                ),
                Comparison::new(
                    "512-bit NFS estimate (8 desktops)",
                    "~1 week",
                    sitekey::nfs_model::humanize_seconds(exploit.nfs_predicted_seconds_512)
                ),
            ]
        )
    );
    write("figure5.json", to_json(&exploit));
    timings.lap("sitekey_exploit");

    // ---- Fig 9 ----------------------------------------------------------------------
    let perception = run_perception_survey(&survey::sim::SurveyConfig::default());
    let p_rows: Vec<Comparison> = perception
        .headlines
        .iter()
        .map(|h| {
            Comparison::new(
                &h.label,
                format!("{:.0}%", h.paper_rate * 100.0),
                format!("{:.0}%", h.measured_rate * 100.0),
            )
        })
        .collect();
    println!(
        "{}",
        render_comparisons("Fig 9: perception headlines", &p_rows)
    );
    write("figure9.json", to_json(&perception.figure_9d));
    timings.lap("perception_survey");

    // ---- extensions: behavioral impact over time + privacy conflict ------
    let revisions = acceptable_ads::impact::sample_revisions(&store, 8);
    let sample: Vec<u32> = (1..=if full { 500 } else { 200 }).collect();
    let timeline = acceptable_ads::impact::impact_timeline(
        &web,
        &corpus.easylist,
        &store,
        &revisions,
        &sample,
        threads,
    );
    let points: Vec<(String, f64)> = timeline
        .iter()
        .map(|p| {
            (
                format!(
                    "rev {:>4} ({})",
                    p.rev,
                    revstore::date::ymd_from_unix(p.timestamp)
                ),
                p.sites_affected as f64,
            )
        })
        .collect();
    println!(
        "{}",
        acceptable_ads::report::ascii_series(
            &format!(
                "Extension: sites (of {}) showing whitelisted content, over history",
                sample.len()
            ),
            &points,
            48
        )
    );
    write("impact_timeline.json", to_json(&timeline));
    timings.lap("impact_timeline");

    let easyprivacy =
        abp::FilterList::parse(abp::ListSource::Custom, &corpus::generate_easyprivacy(SEED));
    let conflict = acceptable_ads::privacy::run_privacy_conflict(
        &web,
        &corpus.easylist,
        &easyprivacy,
        &corpus.whitelist,
        if full { 2_000 } else { 500 },
        threads,
    );
    println!(
        "{}",
        render_comparisons(
            "Extension: Acceptable Ads vs tracking protection",
            &[
                Comparison::new("sites crawled", "-", conflict.sites),
                Comparison::new(
                    "sites where tracking protection fired",
                    "-",
                    conflict.sites_with_tracking_blocked
                ),
                Comparison::new(
                    "sites where the whitelist unblocked tracking",
                    "-",
                    conflict.sites_with_tracking_unblocked
                ),
                Comparison::new(
                    "tracker requests unblocked",
                    "-",
                    conflict.tracking_requests_unblocked
                ),
            ]
        )
    );
    write("privacy_conflict.json", to_json(&conflict));
    timings.lap("privacy_conflict");

    // ---- §7 / §8 -----------------------------------------------------------------------
    let undocumented = detect_undocumented(&store);
    let hygiene = audit(&corpus.whitelist);
    println!(
        "{}",
        render_comparisons(
            "Sections 7-8: provenance & hygiene",
            &[
                Comparison::new("A-groups ever", "61", undocumented.a_groups_ever.len()),
                Comparison::new("A-groups removed", "5", undocumented.a_groups_removed.len()),
                Comparison::new(
                    "unrestricted in A-groups",
                    "1 (A59)",
                    undocumented.unrestricted_in_a_groups.len()
                ),
                Comparison::new("duplicate filters", "35", hygiene.duplicate_lines),
                Comparison::new(
                    "malformed (4,095-char) filters",
                    "8",
                    hygiene.truncated_at_4095
                ),
            ]
        )
    );
    write("section7.json", to_json(&undocumented));
    write("section8.json", to_json(&hygiene));
    timings.lap("provenance_hygiene");

    if timings_enabled {
        eprintln!(
            "[timing] total: {:.3}s",
            run_started.elapsed().as_secs_f64()
        );
        // The §5 survey serves its paper configurations as tenant masks
        // over one shared compiled engine instead of one compile each.
        eprintln!(
            "[timing] survey_engine_compiles: {survey_compiles} (for {} configurations)",
            acceptable_ads::survey_exp::SURVEY_TENANTS.len()
        );
    }

    eprintln!("done.");
}
