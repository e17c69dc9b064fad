//! Running one served workload: set-up, the measured windows, the
//! checks. The traced run's probes are in `trace.rs`, the in-harness
//! survey in `survey.rs`.

use crate::drive::{Admin, AdminLog, Driver, ReloadPlan, Window, RELOAD_PERIOD};
use crate::layers::{self, Conn, Engine, ReloadList};
use crate::report::RunReport;
use crate::stats;
use crate::topology::{cpu_ns, rss_kib, Launcher, Shape, Topology, Variant};
use crate::workloads::{Framing, Served, Stream, StreamKind, Workload, BATCH, REFERENCE};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slices one round of an untraced served run measures.
pub const ROUND_SLICES: usize = 20;
/// Rounds an untraced served run makes however small its budget.
const MIN_ROUNDS: usize = 3;
/// Slices per `--seconds`: a traced window's slice is a hundredth of
/// `--seconds`, an untraced round's too but never more than
/// [`LONGEST_SLICE`].
pub const SLICES: usize = 100;
/// An untraced slice: short enough that two seconds of round hold
/// twenty of them, long enough for hundreds of reply lines.
const LONGEST_SLICE: Duration = Duration::from_millis(100);
/// Whitelist revisions the reload walk spans (the history's tail).
pub const RELOAD_REVISIONS: usize = 40;
/// Decisions checked against the final revision's engine after the
/// last reload ack.
const POST_RELOAD_CHECKS: usize = 8 * BATCH;
/// Decisions a natural replay is warmed with.
const NATURAL_WARM_UP: usize = 512 * BATCH;

/// What every workload of one invocation shares.
pub struct Context {
    /// How to start daemons.
    pub launcher: Launcher,
    /// Where span files and state directories go.
    pub out_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// `--seconds`: what an untraced run may spend on its rounds
    /// (set-up, window, shutdown), and a hundred traced slices.
    pub seconds: f64,
}

/// Harness-side program data: the corpus the daemons generate too, and
/// the oracle engine compiled from it.
pub struct Program {
    /// The generated corpus.
    pub corpus: layers::Corpus,
    /// The bodies a freshly booted daemon serves: EasyList, whitelist.
    pub lists: Vec<ReloadList>,
    /// The oracle: the same lists, compiled in-process.
    pub oracle: Engine,
}

impl Program {
    /// Generate and compile.
    pub fn build() -> Program {
        let corpus = layers::corpus_generate();
        let lists = layers::serving_lists(&corpus);
        let oracle = layers::compile(&layers::parse_lists(&lists));
        Program {
            corpus,
            lists,
            oracle,
        }
    }
}

/// A duration in seconds.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run one workload and report.
pub fn run(ctx: &Context, workload: &Workload, traced: bool) -> std::io::Result<RunReport> {
    let mut report = RunReport {
        workload: workload.name.to_string(),
        seed: ctx.seed,
        seconds: ctx.seconds,
        traced,
        ..RunReport::default()
    };
    report.param("what", workload.what);
    report.param("loop", "closed: one load thread, one connection");
    report.param("pinned", ctx.launcher.host.pinned());
    report.param("in_benchmark_json", workload.gated);
    match (workload.served, traced) {
        (Some(served), false) => run_served(ctx, served, &mut report)?,
        (Some(served), true) => {
            crate::trace::trace_served(ctx, workload, served, None, &mut report)?
        }
        (None, false) => crate::survey::run_survey(ctx, &mut report),
        (None, true) => {
            // No served path of its own: the served probes run on the
            // reference replay.
            let survey = crate::survey::trace_survey(ctx, &mut report);
            crate::trace::trace_served(ctx, workload, REFERENCE, Some(survey), &mut report)?;
        }
    }
    Ok(report)
}

// ------------------------------------------------------- served workloads

/// CPU nanoseconds the three parties have used at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct Cpu {
    client: u64,
    shards: u64,
    proxy: u64,
}

impl Cpu {
    fn read(ctx: &Context, topology: &Topology) -> Cpu {
        let clk_tck = ctx.launcher.host.clk_tck;
        Cpu {
            client: cpu_ns(std::process::id(), clk_tck),
            shards: topology.shard_cpu_ns(clk_tck),
            proxy: topology.proxy_cpu_ns(clk_tck),
        }
    }
}

/// One measured window plus what was sampled around it.
pub struct Measured {
    /// What the load saw.
    pub window: Window,
    /// The metrics are taken over the fastest quarter of the window's
    /// *units*, a unit being this many consecutive slices.
    /// Interference from the host only ever slows a slice down, so the
    /// fastest ones are those that measure the program (README,
    /// "Steadiness"). A steady workload's unit is one slice.
    /// `reload-under-load`'s is one reload period: every unit then
    /// holds exactly one reload, and the reload is never filtered out
    /// as if it were interference.
    slices_per_unit: usize,
    /// CPU used so far at the window's opening and at every slice edge.
    cpu_edges: Vec<Cpu>,
    /// Summed daemon RSS at every slice edge, MiB.
    pub rss_mb: Vec<f64>,
    /// Proxy RSS at the last edge, MiB.
    pub proxy_rss_mb: f64,
    /// Cache hits ÷ requests over the window, all shards.
    pub hit_share: f64,
    /// Each shard's share of the window's decisions.
    pub shard_shares: Vec<f64>,
    /// Shard 0's server-side evaluation latency (cumulative histogram).
    pub eval_p50_us: f64,
    /// Likewise, 99th percentile.
    pub eval_p99_us: f64,
    /// Batches shard 0 shed during the window (`Health` delta).
    pub shed: u64,
    /// Reloads shard 0 acked during the window (`Health` delta).
    pub reloads: u64,
    /// The admin connection's log, when reloads ran.
    pub admin: Option<AdminLog>,
}

impl Measured {
    /// Indices of the slices the estimator keeps.
    fn kept(&self) -> Vec<usize> {
        let slices = &self.window.slices;
        let per_unit = self.slices_per_unit.clamp(1, slices.len());
        let decisions = |unit: usize| -> u64 { slices[unit * per_unit..][..per_unit].iter().sum() };
        let mut units: Vec<usize> = (0..slices.len() / per_unit).collect();
        units.sort_by_key(|&unit| std::cmp::Reverse(decisions(unit)));
        units.truncate(units.len().div_ceil(4));
        units
            .iter()
            .flat_map(|&unit| unit * per_unit..(unit + 1) * per_unit)
            .collect()
    }

    fn kept_decisions(&self) -> f64 {
        self.kept()
            .iter()
            .map(|&i| self.window.slices[i])
            .sum::<u64>()
            .max(1) as f64
    }

    pub fn ops_per_s(&self) -> f64 {
        self.kept_decisions() / (self.kept().len() as f64 * self.window.slice_secs)
    }

    /// CPU microseconds per decision of one party over the kept slices.
    fn cpu_us(&self, party: impl Fn(&Cpu) -> u64) -> f64 {
        let ns: u64 = self
            .kept()
            .iter()
            .map(|&i| party(&self.cpu_edges[i + 1]) - party(&self.cpu_edges[i]))
            .sum();
        ns as f64 / 1e3 / self.kept_decisions()
    }

    /// The harness's share.
    pub fn client_cpu_us(&self) -> f64 {
        self.cpu_us(|c| c.client)
    }

    /// The `abpd` processes' share.
    pub fn shards_cpu_us(&self) -> f64 {
        self.cpu_us(|c| c.shards)
    }

    /// The proxy's share.
    pub fn proxy_cpu_us(&self) -> f64 {
        self.cpu_us(|c| c.proxy)
    }

    /// Everybody's.
    pub fn total_cpu_us(&self) -> f64 {
        self.cpu_us(|c| c.client + c.shards + c.proxy)
    }

    /// A quantile of send → reply over the lines answered in the kept
    /// slices, µs.
    pub fn rtt_us(&self, q: f64) -> f64 {
        let kept = self.kept();
        let slice_us = self.window.slice_secs * 1e6;
        let mut rtts: Vec<u32> = self
            .window
            .rtts_ns
            .iter()
            .zip(&self.window.answered_us)
            .filter(|(_, at)| kept.contains(&((f64::from(**at) / slice_us) as usize)))
            .map(|(rtt, _)| *rtt)
            .collect();
        f64::from(stats::quantile_u32(&mut rtts, q)) / 1e3
    }
}

/// Everything a served run needs that does not depend on the topology.
pub struct Prepared {
    /// Corpus, serving bodies, oracle.
    pub program: Program,
    /// The workload's request set.
    pub stream: Stream,
    /// The reload walk, for workloads (and traced runs) that need it.
    pub plan: Option<Arc<ReloadPlan>>,
    /// How long all of this took: harness-only time, not `setup_s`.
    pub prep_s: f64,
}

/// Build what a served run needs before it starts a daemon.
pub fn prepare(ctx: &Context, served: Served, with_plan: bool) -> Prepared {
    let started = Instant::now();
    let program = Program::build();
    let stream = Stream::generate(
        served.stream,
        ctx.seed,
        &program.oracle,
        served.framing.verify_stride(),
    );
    let plan = with_plan.then(|| {
        Arc::new(ReloadPlan::new(
            &program.lists[1].content,
            layers::whitelist_revisions(&program.corpus, RELOAD_REVISIONS),
        ))
    });
    Prepared {
        program,
        stream,
        plan,
        prep_s: secs(started.elapsed()),
    }
}

/// Decisions that put the daemon's cache into the workload's regime.
pub fn warm_up_decisions(kind: StreamKind) -> usize {
    match kind {
        // One pass: every later decision is a hit.
        StreamKind::Hot => crate::workloads::HOT_DISTINCT,
        // Fill the cache and keep going: every later decision evicts.
        StreamKind::Cold => layers::CACHE_CAPACITY + crate::workloads::HOT_DISTINCT,
        StreamKind::Natural => NATURAL_WARM_UP,
    }
}

/// A fresh directory under `out/` for one daemon's `--state-dir`.
pub fn state_dir(ctx: &Context, tag: &str) -> std::io::Result<PathBuf> {
    let dir = ctx
        .out_dir
        .join(format!("state-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Spawn → ready → (base reload) → warm-up, for `served`'s topology,
/// request set and framing. The returned duration is what `setup_s`
/// reports.
pub fn set_up<'a>(
    ctx: &Context,
    served: Served,
    variant: Variant,
    prepared: &'a Prepared,
    state: Option<&std::path::Path>,
) -> std::io::Result<(Topology, Driver<'a>, Duration)> {
    let started = Instant::now();
    let topology = ctx.launcher.launch(served.shape, variant, state)?;
    let mut driver = Driver::connect(topology.entry, &prepared.stream, served.framing)?;
    if served.reloads {
        // The daemon boots on the head whitelist; walk it to the base
        // of the reload plan before anything is cached.
        let plan = prepared
            .plan
            .as_ref()
            .expect("reload workloads carry a plan");
        if !driver
            .conn()
            .reload_delta(std::slice::from_ref(&plan.to_base))?
        {
            return Err(std::io::Error::other("base reload refused"));
        }
        driver.verify = false;
    }
    driver.warm_up(warm_up_decisions(served.stream))?;
    Ok((topology, driver, started.elapsed()))
}

/// Run one window of `slices` slices against a warmed topology.
pub fn measure(
    ctx: &Context,
    topology: &Topology,
    driver: &mut Driver<'_>,
    slice: Duration,
    slices: usize,
    plan: Option<&Arc<ReloadPlan>>,
) -> std::io::Result<Measured> {
    let mut side: Vec<Conn> = topology
        .shards
        .iter()
        .map(|d| Conn::connect(d.addr))
        .collect::<std::io::Result<_>>()?;
    let stats_before: Vec<_> = side
        .iter_mut()
        .map(Conn::stats)
        .collect::<std::io::Result<_>>()?;
    let health_before = side[0].health()?;
    let admin = match plan {
        Some(plan) => Some(Admin::start(topology.entry, plan.clone())?),
        None => None,
    };

    let slices_per_unit = match plan {
        Some(_) => (RELOAD_PERIOD.as_secs_f64() / slice.as_secs_f64()).round() as usize,
        None => 1,
    };
    let mut cpu_edges = Vec::with_capacity(slices + 1);
    cpu_edges.push(Cpu::read(ctx, topology));
    let mut rss_mb = Vec::with_capacity(slices);
    let mut proxy_rss_mb = 0.0;
    let window = driver.window(slice, slices, &mut |edge| {
        cpu_edges.push(Cpu::read(ctx, topology));
        rss_mb.push(topology.rss_mb());
        if edge == slices {
            proxy_rss_mb = topology
                .proxy
                .as_ref()
                .map_or(0.0, |p| rss_kib(p.pid()) as f64 / 1024.0);
        }
    })?;
    let admin = admin.map(Admin::finish);

    let stats_after: Vec<_> = side
        .iter_mut()
        .map(Conn::stats)
        .collect::<std::io::Result<_>>()?;
    let health_after = side[0].health()?;
    let requests: Vec<u64> = stats_after
        .iter()
        .zip(&stats_before)
        .map(|(a, b)| a.requests - b.requests)
        .collect();
    let hits: u64 = stats_after
        .iter()
        .zip(&stats_before)
        .map(|(a, b)| a.cache_hits - b.cache_hits)
        .sum();
    let total: u64 = requests.iter().sum();
    Ok(Measured {
        slices_per_unit,
        cpu_edges,
        rss_mb,
        proxy_rss_mb,
        hit_share: hits as f64 / total.max(1) as f64,
        shard_shares: requests
            .iter()
            .map(|&r| r as f64 / total.max(1) as f64)
            .collect(),
        eval_p50_us: stats_after[0].p50_us as f64,
        eval_p99_us: stats_after[0].p99_us as f64,
        shed: health_after.shed - health_before.shed,
        reloads: health_after.reloads - health_before.reloads,
        admin,
        window,
    })
}

/// Hit-share and shard-balance gates, asserted from `Stats` deltas of
/// every window.
pub fn validity_gates(served: Served, windows: &[Measured], report: &mut RunReport) {
    let hit_shares: Vec<f64> = windows.iter().map(|m| m.hit_share).collect();
    let lowest = hit_shares.iter().copied().fold(f64::INFINITY, f64::min);
    let highest = hit_shares.iter().copied().fold(0.0, f64::max);
    match served.stream {
        StreamKind::Hot => report.gate(
            "abpd.cache_hit_share >= 0.999",
            lowest >= 0.999,
            format!("{lowest:.6}"),
        ),
        StreamKind::Cold => report.gate(
            "abpd.cache_hit_share <= 0.001",
            highest <= 0.001,
            format!("{highest:.6}"),
        ),
        StreamKind::Natural => {}
    }
    if served.shape == Shape::Fleet {
        let least = windows
            .iter()
            .flat_map(|m| m.shard_shares.iter().copied())
            .fold(f64::INFINITY, f64::min);
        report.gate(
            "every fleet shard answers >= 25% of decisions",
            least >= 0.25,
            format!("least share {least:.4}"),
        );
    }
}

/// What the check after a round of reloads found.
pub struct ReloadCheck {
    /// `Health.list_checksum == serving_checksum(final lists)`.
    pub checksum_ok: bool,
    /// Decisions sampled.
    pub checked: u64,
    /// Of those, how many disagreed with the final revision's engine.
    pub wrong: u64,
}

/// After the last ack: the daemon must serve exactly the revision the
/// walk ended on, by checksum and by sampled decisions against an
/// engine compiled from that revision.
pub fn check_after_reloads(
    topology: &Topology,
    prepared: &Prepared,
    log: &AdminLog,
) -> std::io::Result<ReloadCheck> {
    let plan = prepared
        .plan
        .as_ref()
        .expect("reload workloads carry a plan");
    let final_lists = layers::lists_with_whitelist(
        prepared.program.lists[0].content.clone(),
        plan.revisions[log.position].clone(),
    );
    let health = Conn::connect(topology.entry)?.health()?;
    let engine = layers::compile(&layers::parse_lists(&final_lists));
    let step = prepared.stream.len() / POST_RELOAD_CHECKS;
    let sample = Stream::from_requests(
        prepared
            .stream
            .requests
            .iter()
            .step_by(step)
            .take(POST_RELOAD_CHECKS)
            .cloned()
            .collect(),
        &engine,
        1,
    );
    let mut checker = Driver::connect(topology.entry, &sample, Framing::BATCHED)?;
    checker.warm_up(sample.len())?;
    Ok(ReloadCheck {
        checksum_ok: health.list_checksum == layers::serving_checksum(&final_lists),
        checked: checker.attempted,
        wrong: checker.failed,
    })
}

fn run_served(ctx: &Context, served: Served, report: &mut RunReport) -> std::io::Result<()> {
    let prepared = prepare(ctx, served, served.reloads);
    report.param("batch", served.framing.batch);
    report.param("depth", served.framing.depth);
    report.param("clients", 1);
    report.param("requests_per_cycle", prepared.stream.len());
    report.param("verify_stride", served.framing.verify_stride());

    // Round after round of set-up → twenty slices → shutdown, each with
    // fresh daemons, for as long as another round fits into `--seconds`:
    // the rounds are spread over the whole run, so that a slow spell of
    // the host covers some of them, not all.
    let slice = LONGEST_SLICE.min(Duration::from_secs_f64(ctx.seconds / SLICES as f64));
    let budget = Duration::from_secs_f64(ctx.seconds);
    let started = Instant::now();
    let mut round_took = Duration::ZERO;
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let mut reload_checks = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed() + round_took <= budget {
        let round_started = Instant::now();
        let state = match served.reloads {
            true => Some(state_dir(ctx, &format!("round{}", rounds.len()))?),
            false => None,
        };
        let (topology, mut driver, took) =
            set_up(ctx, served, Variant::Event, &prepared, state.as_deref())?;
        setups.push(secs(took));
        let m = measure(
            ctx,
            &topology,
            &mut driver,
            slice,
            ROUND_SLICES,
            prepared.plan.as_ref(),
        )?;
        report.attempted += driver.attempted;
        report.failed += driver.failed + m.admin.as_ref().map_or(0, |log| log.failed);
        drop(driver);
        if let Some(log) = &m.admin {
            reload_checks.push(check_after_reloads(&topology, &prepared, log)?);
        }
        topology.shutdown();
        if let Some(dir) = state {
            let _ = std::fs::remove_dir_all(dir);
        }
        rounds.push(m);
        round_took = round_started.elapsed();
    }
    report.param("rounds", rounds.len());
    report.param("slice_ms", secs(slice) * 1e3);

    // The fastest round speaks for the run. What the host does to a
    // round — a busy neighbour, a slow disk under the snapshot's fsync —
    // only ever slows it down, and it does so for seconds at a time
    // (README, "Steadiness").
    let per_round = |f: &dyn Fn(&Measured) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let ops = per_round(&Measured::ops_per_s);
    let fastest = (0..rounds.len())
        .max_by(|&a, &b| ops[a].total_cmp(&ops[b]))
        .expect("at least one round");
    let best = &rounds[fastest];
    report.param("fastest_round", fastest);
    report.put_estimate("ops_per_s", "1/s", ops[fastest], &ops);
    let cpu = per_round(&Measured::total_cpu_us);
    report.put_estimate("cpu_us_per_op", "us", cpu[fastest], &cpu);
    let rtt_p50 = per_round(&|m| m.rtt_us(0.5));
    if served.reloads {
        // The caller this workload is about is the admin connection.
        let acks_ms = |m: &Measured| -> Vec<f64> {
            let log = m.admin.as_ref().expect("reload rounds keep an admin log");
            log.acks.iter().map(|(_, took)| secs(*took) * 1e3).collect()
        };
        let ack_p50 = per_round(&|m| stats::median(&acks_ms(m)) * 1e3);
        report.put_estimate("reply_p50_us", "us", ack_p50[fastest], &ack_p50);
        let all_acks: Vec<f64> = rounds.iter().flat_map(acks_ms).collect();
        report.put("reload.acks", "count", all_acks.len() as f64);
        report.put(
            "reload.ack_max_ms",
            "ms",
            all_acks.iter().copied().fold(0.0, f64::max),
        );
        let dips = per_round(&|m| dip_share(&m.window, m.admin.as_ref().expect("admin log")));
        report.put_estimate("reload.dip_share", "ratio", dips[fastest], &dips);
        report.put_estimate("batch_rtt_p50_us", "us", rtt_p50[fastest], &rtt_p50);
        // One reload per 400 ms on the clock is 2.5 a second.
        let measured = secs(slice) * (ROUND_SLICES * rounds.len()) as f64;
        let need = (2.0 * measured) as usize;
        report.gate(
            &format!(">= {need} reloads acked"),
            all_acks.len() >= need,
            format!("{}", all_acks.len()),
        );
        report.attempted += reload_checks.iter().map(|c| c.checked).sum::<u64>();
        let wrong: u64 = reload_checks.iter().map(|c| c.wrong).sum();
        report.failed += wrong;
        report.gate(
            "Health.list_checksum == serving_checksum(final lists)",
            reload_checks.iter().all(|c| c.checksum_ok),
            format!("{} rounds", reload_checks.len()),
        );
        report.gate(
            "decisions after the last ack match the final revision",
            wrong == 0,
            format!("{wrong} wrong"),
        );
    } else {
        report.put_estimate("reply_p50_us", "us", rtt_p50[fastest], &rtt_p50);
    }
    report.put(
        "peak_rss_mb",
        "MB",
        rounds
            .iter()
            .flat_map(|m| m.rss_mb.iter().copied())
            .fold(0.0, f64::max),
    );
    // Like the rounds: the host only ever slows a set-up down.
    let fastest_setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
    report.put_estimate("setup_s", "s", fastest_setup, &setups);

    report.put("reply_p99_us", "us", best.rtt_us(0.99));
    report.put("reply_samples", "count", best.window.rtts_ns.len() as f64);
    report.put("client.cpu_us_per_decision", "us", best.client_cpu_us());
    report.put("abpd.cpu_us_per_decision", "us", best.shards_cpu_us());
    if served.shape == Shape::Fleet {
        report.put("proxy.cpu_us_per_decision", "us", best.proxy_cpu_us());
    }
    report.put("abpd.cache_hit_share", "ratio", best.hit_share);
    report.put("harness.prep_s", "s", prepared.prep_s);
    validity_gates(served, &rounds, report);
    Ok(())
}

/// Decision rate while a reload was in flight ÷ the rate while none
/// was: how deep serving dips when the write side takes the core.
pub fn dip_share(window: &Window, log: &AdminLog) -> f64 {
    let opened = window.opened;
    let end_us = window.slice_secs * window.slices.len() as f64 * 1e6;
    // [sent, acked] of every reload, µs after the window opened,
    // clipped to the window.
    let busy: Vec<(f64, f64)> = log
        .acks
        .iter()
        .map(|(acked, took)| {
            let acked = secs(acked.saturating_duration_since(opened)) * 1e6;
            ((acked - secs(*took) * 1e6).max(0.0), acked.min(end_us))
        })
        .filter(|(from, to)| from < to)
        .collect();
    let busy_us: f64 = busy.iter().map(|(from, to)| to - from).sum();
    let lines_busy = window
        .answered_us
        .iter()
        .filter(|&&at| {
            busy.iter()
                .any(|(from, to)| (*from..=*to).contains(&f64::from(at)))
        })
        .count();
    let lines_idle = window.answered_us.len() - lines_busy;
    if busy_us <= 0.0 || busy_us >= end_us || lines_idle == 0 {
        return 1.0;
    }
    (lines_busy as f64 / busy_us) / (lines_idle as f64 / (end_us - busy_us))
}
