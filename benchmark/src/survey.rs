//! `crawl-survey`: the paper's section-5 site survey, in-process.

use crate::layers::{self, CrawlOracle};
use crate::report::RunReport;
use crate::run::{secs, Context, Program};
use crate::topology::{cpu_ns_with_reaped, rss_kib};
use crate::trace::SurveyTrace;
use std::time::Instant;

/// Every `CRAWL_CHECK_STRIDE`-th top site is re-crawled by the oracle.
const CRAWL_CHECK_STRIDE: usize = 4;
/// The untraced run sets up afresh before the first repetition and
/// then before every `SETUP_EVERY`-th, so that the set-ups, like the
/// repetitions, are spread over the whole run.
const SETUP_EVERY: usize = 4;

/// One repetition of the survey.
struct SurveyRep {
    pages: usize,
    secs: f64,
    cpu_ns: u64,
}

/// What a series of survey repetitions measured.
struct SurveyRun {
    reps: Vec<SurveyRep>,
    /// Requests the crawler classified per page, from the oracle crawl.
    requests_per_page: f64,
    /// Harness RSS, sampled after every repetition, MiB.
    peak_rss_mb: f64,
}

impl SurveyRun {
    fn rates(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.pages as f64 / r.secs).collect()
    }

    /// The fastest eighth of the repetitions: the host's slow spells
    /// last for several repetitions and return every few dozen, and
    /// they only ever slow a repetition down (README, "Steadiness").
    fn kept(&self) -> Vec<&SurveyRep> {
        let mut order: Vec<&SurveyRep> = self.reps.iter().collect();
        order.sort_by(|a, b| (a.secs / a.pages as f64).total_cmp(&(b.secs / b.pages as f64)));
        order.truncate(order.len().div_ceil(8));
        order
    }

    fn pages_per_s(&self) -> f64 {
        let kept = self.kept();
        kept.iter().map(|r| r.pages).sum::<usize>() as f64
            / kept.iter().map(|r| r.secs).sum::<f64>()
    }

    fn cpu_us_per_page(&self) -> f64 {
        let kept = self.kept();
        kept.iter().map(|r| r.cpu_ns).sum::<u64>() as f64
            / 1e3
            / kept.iter().map(|r| r.pages).sum::<usize>() as f64
    }
}

/// Repeat the survey until `budget` seconds have passed (at least
/// once), checking every report against the crawl oracle and against
/// the first repetition. `before_rep(k)` runs before repetition `k`,
/// inside the budget and outside every repetition's timing.
fn survey_reps(
    ctx: &Context,
    program: &Program,
    web: &layers::Web,
    budget: f64,
    report: &mut RunReport,
    before_rep: &mut dyn FnMut(usize),
) -> SurveyRun {
    report.param("survey_top_n", layers::SURVEY_TOP_N);
    report.param("survey_stratum_sample", layers::SURVEY_STRATUM);
    report.param("threads", 1);

    let oracle = CrawlOracle::new(&program.corpus);
    let ranks: Vec<u32> = (1..=layers::SURVEY_TOP_N)
        .step_by(CRAWL_CHECK_STRIDE)
        .collect();
    let (expected, requests) = oracle.crawl(web, &ranks);

    let me = std::process::id();
    let clk_tck = ctx.launcher.host.clk_tck;
    let started = Instant::now();
    let mut run = SurveyRun {
        reps: Vec::new(),
        requests_per_page: requests as f64 / ranks.len() as f64,
        peak_rss_mb: 0.0,
    };
    let mut first: Option<layers::SiteSurveyReport> = None;
    while run.reps.is_empty() || secs(started.elapsed()) < budget {
        before_rep(run.reps.len());
        // The crawler works on a scoped thread that is gone by the
        // time the survey returns.
        let cpu_before = cpu_ns_with_reaped(me, clk_tck);
        let t = Instant::now();
        let survey = layers::site_survey(web, &program.corpus, ctx.seed);
        let took = secs(t.elapsed());
        let cpu_ns = cpu_ns_with_reaped(me, clk_tck) - cpu_before;
        run.peak_rss_mb = run.peak_rss_mb.max(rss_kib(me) as f64 / 1024.0);
        let pages = layers::survey_pages(&survey);
        report.attempted += pages as u64;
        let wrong = ranks
            .iter()
            .zip(&expected)
            .filter(|(rank, want)| layers::survey_counts(&survey, **rank) != **want)
            .count();
        report.failed += wrong as u64;
        match &first {
            // Same seed, same sites: every repetition must record the
            // same thing.
            Some(first) if !layers::surveys_equal(first, &survey) => {
                report.failed += pages as u64;
            }
            Some(_) => {}
            None => first = Some(survey),
        }
        run.reps.push(SurveyRep {
            pages,
            secs: took,
            cpu_ns,
        });
    }
    report.param("repetitions", run.reps.len());
    report.gate(
        "the survey agrees with per-configuration compiles",
        report.failed == 0,
        format!("{} sites checked per repetition", ranks.len()),
    );
    run
}

/// The untraced run.
pub fn run_survey(ctx: &Context, report: &mut RunReport) {
    let prep = Instant::now();
    let program = Program::build();
    let prep_s = secs(prep.elapsed());

    // Set-up: what a survey needs before its first page.
    let set_up = || {
        let t = Instant::now();
        let corpus = layers::corpus_generate();
        let web = layers::web_build();
        std::hint::black_box(layers::compile(&layers::parse_lists(
            &layers::serving_lists(&corpus),
        )));
        (web, secs(t.elapsed()))
    };
    let (web, first) = set_up();
    let mut setups = vec![first];

    let run = survey_reps(ctx, &program, &web, ctx.seconds, report, &mut |rep| {
        if rep > 0 && rep % SETUP_EVERY == 0 {
            setups.push(set_up().1);
        }
    });
    report.put_estimate("ops_per_s", "1/s", run.pages_per_s(), &run.rates());
    report.put("peak_rss_mb", "MB", run.peak_rss_mb);
    let fastest_setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
    report.put_estimate("setup_s", "s", fastest_setup, &setups);
    report.put("cpu_us_per_op", "us", run.cpu_us_per_page());
    report.put("harness.prep_s", "s", prep_s);
}

/// One survey, for the crawler rows of a served workload's traced run.
pub fn survey_once(
    ctx: &Context,
    program: &Program,
    web: &layers::Web,
    report: &mut RunReport,
) -> SurveyTrace {
    let run = survey_reps(ctx, program, web, 0.0, report, &mut |_| {});
    SurveyTrace {
        page_us: 1e6 / run.pages_per_s(),
        requests_per_page: run.requests_per_page,
    }
}

/// The survey part of `crawl-survey`'s traced run.
pub fn trace_survey(ctx: &Context, report: &mut RunReport) -> SurveyTrace {
    let program = Program::build();
    let web = layers::web_build();
    let run = survey_reps(ctx, &program, &web, 0.4 * ctx.seconds, report, &mut |_| {});
    report.put_estimate("survey.pages_per_s", "1/s", run.pages_per_s(), &run.rates());
    SurveyTrace {
        page_us: 1e6 / run.pages_per_s(),
        requests_per_page: run.requests_per_page,
    }
}
