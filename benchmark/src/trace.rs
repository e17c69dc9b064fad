//! The traced run: the probes that attribute a workload's cost to
//! layers. End-to-end metrics never come from here.

use crate::drive::Driver;
use crate::ladder::{self, Rung, Tracer};
use crate::layers::{self, InProcess};
use crate::report::RunReport;
use crate::run::{
    check_after_reloads, dip_share, measure, prepare, secs, set_up, state_dir, validity_gates,
    warm_up_decisions, Context, Measured, Prepared, RELOAD_REVISIONS, SLICES,
};
use crate::stats;
use crate::topology::{Shape, Variant};
use crate::workloads::{Framing, Served, Workload, BATCH};
use std::time::{Duration, Instant};

/// Slices (each a hundredth of `--seconds`) the traced run gives the
/// workload's own topology, each probe, and the single-line probe.
const TRACED_SLICES: usize = 40;
const PROBE_SLICES: usize = 15;
const LINE_PROBE_SLICES: usize = 10;
/// Decisions per ladder pass in a batched workload.
const LADDER_DECISIONS: usize = 256 * BATCH;
/// Lines per ladder pass with single-line framing.
const LADDER_LINES: usize = 16_384;
/// Chunks a ladder pass alternates between traced and untraced.
const LADDER_CHUNKS: usize = 8;
/// Repetitions of the millisecond-scale build steps (median reported).
const BUILD_REPS: usize = 5;

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t.elapsed()) * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// The crawler's rows, from one survey or several.
pub struct SurveyTrace {
    /// Wall per surveyed page, µs.
    pub page_us: f64,
    /// Requests the crawler classifies per page.
    pub requests_per_page: f64,
}

/// The traced run of a served workload: the workload over the wire
/// (shorter window, `/proc` and `Stats` sampled at its edges), the
/// other topology, the two variant daemons, a single-line probe, the
/// in-memory ladder, and the millisecond-scale build steps.
///
/// `crawl-survey` has no served path; its traced run hands in the
/// survey's numbers and runs these probes on the reference replay.
pub fn trace_served(
    ctx: &Context,
    workload: &Workload,
    served: Served,
    survey: Option<SurveyTrace>,
    report: &mut RunReport,
) -> std::io::Result<()> {
    let prepared = prepare(ctx, served, true);
    report.param("batch", served.framing.batch);
    report.param("depth", served.framing.depth);
    report.param("requests_per_cycle", prepared.stream.len());

    let wire = wire_probes(ctx, served, &prepared, report)?;
    variant_probes(ctx, served, &prepared, report)?;
    let (ladder, mut svc) = ladder_rungs(served, &prepared, report);
    std::fs::create_dir_all(&ctx.out_dir)?;
    ladder::write_spans(
        &ctx.out_dir.join(format!("trace-{}.json", workload.name)),
        &ladder.tracer,
    )?;
    let web = build_steps(&prepared, &mut svc, report);
    // The crawler, unless the survey itself just ran.
    let survey =
        survey.unwrap_or_else(|| crate::survey::survey_once(ctx, &prepared.program, &web, report));
    report.put("crawler.page_us", "us", survey.page_us);
    report.put(
        "crawler.requests_per_page",
        "count",
        survey.requests_per_page,
    );

    report.put(
        "socket.us_per_line",
        "us",
        wire.line_rtt_p50_us - ladder.line_rungs_us,
    );
    // Library rungs ÷ CPU the direct topology burned per decision: what
    // is left is the kernel's socket work, the reactor and the harness.
    report.put(
        "budget.attributed_share",
        "ratio",
        ladder.served_rungs_us / wire.direct_cpu_us,
    );
    report.put("harness.prep_s", "s", prepared.prep_s);
    Ok(())
}

/// What the derived rows need from the wire probes.
struct WireProbes {
    /// Median round trip of a single `Decide` line to the direct daemon.
    line_rtt_p50_us: f64,
    /// CPU per decision of harness + daemon on the direct topology.
    direct_cpu_us: f64,
}

/// The workload's replay on its own topology (the longer window), on
/// the other one, and as single lines against the direct daemon.
fn wire_probes(
    ctx: &Context,
    served: Served,
    prepared: &Prepared,
    report: &mut RunReport,
) -> std::io::Result<WireProbes> {
    let plan = prepared.plan.as_ref().expect("traced runs carry a plan");
    let slice = Duration::from_secs_f64(ctx.seconds / SLICES as f64);
    let mut direct: Option<Measured> = None;
    let mut fleet: Option<Measured> = None;
    let mut line_rtt_p50_us = 0.0;
    let shapes = match served.shape {
        Shape::Direct => [Shape::Direct, Shape::Fleet],
        Shape::Fleet => [Shape::Fleet, Shape::Direct],
    };
    for shape in shapes {
        let own = shape == served.shape;
        // Reloads run on both topologies (the proxy fans them out), so
        // the hop is a difference between like and like. Only the
        // workload's own daemon persists them.
        let reloads = served.reloads;
        let state = match own && reloads {
            true => Some(state_dir(ctx, "trace")?),
            false => None,
        };
        let (topology, mut driver, _) = set_up(
            ctx,
            Served { shape, ..served },
            Variant::Event,
            prepared,
            state.as_deref(),
        )?;
        let slices = if own { TRACED_SLICES } else { PROBE_SLICES };
        let m = measure(
            ctx,
            &topology,
            &mut driver,
            slice,
            slices,
            reloads.then_some(plan),
        )?;
        if own {
            validity_gates(served, std::slice::from_ref(&m), report);
        }
        report.attempted += driver.attempted;
        report.failed += driver.failed + m.admin.as_ref().map_or(0, |log| log.failed);
        drop(driver);
        if shape == Shape::Direct {
            report.put("abpd.boot_ms", "ms", secs(topology.shards[0].boot) * 1e3);
            if let (true, Some(log)) = (reloads, &m.admin) {
                let check = check_after_reloads(&topology, prepared, log)?;
                report.attempted += check.checked;
                report.failed += check.wrong;
                report.gate(
                    "after the last ack the daemon serves the final revision",
                    check.checksum_ok && check.wrong == 0,
                    format!("{} of {} wrong", check.wrong, check.checked),
                );
            }
            // Single `Decide` lines against the same warmed daemon.
            let mut lines = Driver::connect(topology.entry, &prepared.stream, Framing::LOCKSTEP)?;
            lines.verify = !reloads;
            let mut rtts = lines.window(slice, LINE_PROBE_SLICES, &mut |_| {})?.rtts_ns;
            line_rtt_p50_us = f64::from(stats::quantile_u32(&mut rtts, 0.5)) / 1e3;
            report.attempted += lines.attempted;
            report.failed += lines.failed;
            direct = Some(m);
        } else {
            fleet = Some(m);
        }
        topology.shutdown();
        if let Some(dir) = state {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let direct = direct.expect("the direct topology ran");
    let fleet = fleet.expect("the fleet topology ran");
    let own = if served.shape == Shape::Direct {
        &direct
    } else {
        &fleet
    };

    report.put("abpd.cpu_us_per_decision", "us", own.shards_cpu_us());
    report.put(
        "abpd.rss_mb",
        "MB",
        own.rss_mb.iter().copied().fold(0.0, f64::max) - own.proxy_rss_mb,
    );
    report.put("abpd.cache_hit_share", "ratio", own.hit_share);
    report.put("abpd.eval_p50_us", "us", own.eval_p50_us);
    report.put("abpd.eval_p99_us", "us", own.eval_p99_us);
    report.put("abpd.shed", "count", own.shed as f64);
    report.put("abpd.reloads", "count", own.reloads as f64);
    report.put("proxy.cpu_us_per_decision", "us", fleet.proxy_cpu_us());
    report.put("proxy.rss_mb", "MB", fleet.proxy_rss_mb);
    report.put(
        "proxy.hop_us_per_decision",
        "us",
        1e6 / fleet.ops_per_s() - 1e6 / direct.ops_per_s(),
    );
    report.put(
        "proxy.shard_share_max",
        "ratio",
        fleet.shard_shares.iter().copied().fold(0.0, f64::max),
    );
    report.put("client.cpu_us_per_decision", "us", own.client_cpu_us());
    report.put("client.rtt_p50_us", "us", own.rtt_us(0.5));
    report.put("client.rtt_p99_us", "us", own.rtt_us(0.99));
    report.put("client.line_rtt_p50_us", "us", line_rtt_p50_us);
    // Outside the contract rows: what the issue reads off next to them.
    report.put_estimate(
        "traced.ops_per_s",
        "1/s",
        own.ops_per_s(),
        &own.window.slice_rates(),
    );
    report.put("direct.ops_per_s", "1/s", direct.ops_per_s());
    report.put("fleet.ops_per_s", "1/s", fleet.ops_per_s());
    if let Some(log) = &own.admin {
        let acks: Vec<f64> = log.acks.iter().map(|(_, d)| secs(*d) * 1e3).collect();
        report.put("reload.acks", "count", acks.len() as f64);
        report.put("reload.ack_p50_ms", "ms", stats::median(&acks));
        report.put(
            "reload.ack_max_ms",
            "ms",
            acks.iter().copied().fold(0.0, f64::max),
        );
        report.put("reload.dip_share", "ratio", dip_share(&own.window, log));
    }
    Ok(WireProbes {
        line_rtt_p50_us,
        direct_cpu_us: direct.client_cpu_us() + direct.shards_cpu_us(),
    })
}

/// The workload's replay against the duplicate serving paths, chosen by
/// flag only. The blocking daemon leaves a snapshot behind; the pool
/// daemon boots from it, which is the snapshot-boot measurement.
fn variant_probes(
    ctx: &Context,
    served: Served,
    prepared: &Prepared,
    report: &mut RunReport,
) -> std::io::Result<()> {
    let slice = Duration::from_secs_f64(ctx.seconds / SLICES as f64);
    let snapshot_dir = state_dir(ctx, "variants")?;
    for (variant, name) in [(Variant::Blocking, "blocking"), (Variant::Pool, "pool")] {
        let (topology, mut driver, _) = set_up(
            ctx,
            Served {
                shape: Shape::Direct,
                reloads: false,
                ..served
            },
            variant,
            prepared,
            Some(&snapshot_dir),
        )?;
        if variant == Variant::Pool {
            report.put(
                "abpd.boot_snapshot_ms",
                "ms",
                secs(topology.shards[0].boot) * 1e3,
            );
        }
        let m = measure(ctx, &topology, &mut driver, slice, PROBE_SLICES, None)?;
        report.attempted += driver.attempted;
        report.failed += driver.failed;
        drop(driver);
        topology.shutdown();
        report.put(
            &format!("variant.{name}.decisions_per_s"),
            "1/s",
            m.ops_per_s(),
        );
        report.put(
            &format!("variant.{name}.cpu_us_per_decision"),
            "us",
            m.total_cpu_us(),
        );
    }
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    Ok(())
}

/// What the derived rows need from the ladder.
struct Ladder {
    /// The spans of the regime and engine-only passes.
    tracer: Tracer,
    /// Σ served rungs per decision in the workload's framing, µs.
    served_rungs_us: f64,
    /// Σ served rungs per line with single-line framing, µs.
    line_rungs_us: f64,
}

const SERVED_RUNGS: [Rung; 5] = [
    Rung::EncodeRequest,
    Rung::ParseRequest,
    Rung::Decide,
    Rung::EncodeReply,
    Rung::ParseReply,
];

fn per_decision(tracer: &Tracer, rung: Rung, pass: &ladder::Pass) -> f64 {
    tracer.total_ns(rung) as f64 / pass.decisions as f64
}

/// The request set through the in-memory rungs. Hands back the
/// in-process service, warmed, for the reload timing.
fn ladder_rungs(
    served: Served,
    prepared: &Prepared,
    report: &mut RunReport,
) -> (Ladder, InProcess) {
    let stream = &prepared.stream;
    let framing = served.framing;
    let lines_per_pass = match framing.batch {
        1 => LADDER_LINES,
        batch => LADDER_DECISIONS / batch,
    };
    let mut tracer = Tracer::new(1 << 20, true);
    let mut svc = InProcess::start(prepared.program.lists.clone());
    // Into the workload's cache regime first, untraced.
    let mut quiet = Tracer::new(0, false);
    let warm_lines = warm_up_decisions(served.stream) / framing.batch;
    let (_, mut cursor) = ladder::served_pass(stream, framing, 0, warm_lines, &mut svc, &mut quiet);
    // Alternate chunks of lines without spans and with them: both see
    // the same cache regime, and the difference is what tracing costs.
    let chunk = lines_per_pass / LADDER_CHUNKS;
    let (mut untraced, mut regime) = (ladder::Pass::default(), ladder::Pass::default());
    for _ in 0..LADDER_CHUNKS {
        for (sink, total) in [(&mut quiet, &mut untraced), (&mut tracer, &mut regime)] {
            let (pass, next) = ladder::served_pass(stream, framing, cursor, chunk, &mut svc, sink);
            *total += pass;
            cursor = next;
        }
    }

    // Hits: the lines just decided are all resident (a pass is smaller
    // than the cache).
    let resident = lines_per_pass
        .min(layers::CACHE_CAPACITY / 2 / framing.batch)
        .min(stream.len() / framing.batch);
    let back = (cursor + stream.len() - resident * framing.batch) % stream.len();
    let mut hit_tracer = Tracer::new(resident * 8, true);
    let (hit, _) = ladder::served_pass(stream, framing, back, resident, &mut svc, &mut hit_tracer);
    // Misses: first touch on an empty cache.
    let mut fresh = InProcess::start(prepared.program.lists.clone());
    let mut miss_tracer = Tracer::new(resident * 8, true);
    let first_touch = stream.distinct_prefix(resident * framing.batch, &prepared.program.oracle);
    let (miss, _) = ladder::served_pass(
        &first_touch,
        framing,
        0,
        resident,
        &mut fresh,
        &mut miss_tracer,
    );
    // Single-line framing in the same regime, for the socket residual.
    let mut line_tracer = Tracer::new(LADDER_LINES * 8, true);
    let (line_pass, _) = ladder::served_pass(
        stream,
        Framing::LOCKSTEP,
        cursor,
        LADDER_LINES / 4,
        &mut svc,
        &mut line_tracer,
    );

    let engine = ladder::engine_pass(
        stream,
        &prepared.program.oracle,
        LADDER_DECISIONS,
        BATCH,
        &mut tracer,
    );

    let passes = [&regime, &untraced, &hit, &miss, &line_pass];
    let wrong: u64 = passes.iter().map(|p| p.wrong).sum();
    report.attempted += passes.iter().map(|p| p.decisions).sum::<u64>();
    report.failed += wrong;
    report.gate(
        "the in-memory ladder agrees with the oracle",
        wrong == 0,
        format!("{wrong} wrong"),
    );
    report.gate(
        "hit and miss passes hit and miss",
        hit.hits == hit.decisions && miss.hits == 0,
        format!(
            "{}/{} hits, {}/{} hits",
            hit.hits, hit.decisions, miss.hits, miss.decisions
        ),
    );

    let engine_ns = |rung: Rung| tracer.total_ns(rung) as f64 / engine.requests as f64;
    report.put("abp.request_new_ns", "ns", engine_ns(Rung::RequestNew));
    report.put("abp.match_ns", "ns", engine_ns(Rung::Match));
    report.put("abp.match_masked_ns", "ns", engine_ns(Rung::MatchMasked));
    report.put("abp.doc_gate_ns", "ns", engine_ns(Rung::DocGate));
    report.put("abp.hiding_ns", "ns", engine_ns(Rung::Hiding));
    report.put(
        "abp.blocked_share",
        "ratio",
        engine.blocked as f64 / engine.requests as f64,
    );
    let regime_ns = |rung: Rung| per_decision(&tracer, rung, &regime);
    report.put(
        "wire.encode_request_ns",
        "ns",
        regime_ns(Rung::EncodeRequest),
    );
    report.put("wire.parse_request_ns", "ns", regime_ns(Rung::ParseRequest));
    report.put("wire.encode_reply_ns", "ns", regime_ns(Rung::EncodeReply));
    report.put("wire.parse_reply_ns", "ns", regime_ns(Rung::ParseReply));
    report.put(
        "wire.request_bytes",
        "bytes",
        regime.request_bytes as f64 / regime.decisions as f64,
    );
    report.put(
        "wire.reply_bytes",
        "bytes",
        regime.reply_bytes as f64 / regime.decisions as f64,
    );
    report.put("service.decide_ns", "ns", regime_ns(Rung::Decide));
    report.put(
        "service.decide_hit_ns",
        "ns",
        per_decision(&hit_tracer, Rung::Decide, &hit),
    );
    report.put(
        "service.decide_miss_ns",
        "ns",
        per_decision(&miss_tracer, Rung::Decide, &miss),
    );
    report.put(
        "trace.overhead_share",
        "ratio",
        (regime.wall_ns as f64 / regime.decisions as f64)
            / (untraced.wall_ns as f64 / untraced.decisions as f64)
            - 1.0,
    );
    report.put(
        "ladder.glue_ns",
        "ns",
        tracer.glue_ns() as f64 / (regime.decisions + engine.requests) as f64,
    );
    let sum_us = |tracer: &Tracer, pass: &ladder::Pass| {
        SERVED_RUNGS
            .iter()
            .map(|r| per_decision(tracer, *r, pass))
            .sum::<f64>()
            / 1e3
    };
    let ladder = Ladder {
        served_rungs_us: sum_us(&tracer, &regime),
        line_rungs_us: sum_us(&line_tracer, &line_pass),
        tracer,
    };
    (ladder, svc)
}

/// The millisecond-scale steps, each the median of a few repetitions.
/// Hands back the `Web` it built, for the crawler.
fn build_steps(prepared: &Prepared, svc: &mut InProcess, report: &mut RunReport) -> layers::Web {
    let plan = prepared.plan.as_ref().expect("traced runs carry a plan");
    let lists = &prepared.program.lists;
    let parsed = layers::parse_lists(lists);
    let parse_list_ms = median_ms(BUILD_REPS, || {
        std::hint::black_box(layers::parse_lists(lists));
    });
    report.put("abp.parse_list_ms", "ms", parse_list_ms);
    let compile_ms = median_ms(BUILD_REPS, || {
        std::hint::black_box(layers::compile(&parsed));
    });
    report.put("abp.compile_ms", "ms", compile_ms);
    let generate_ms = median_ms(BUILD_REPS, || {
        std::hint::black_box(layers::corpus_generate());
    });
    report.put("corpus.generate_ms", "ms", generate_ms);
    let mut web = None;
    let build_ms = median_ms(BUILD_REPS, || web = Some(layers::web_build()));
    report.put("websim.build_ms", "ms", build_ms);

    let mut step = 0;
    let reload_ms = median_ms(BUILD_REPS, || {
        step += 1;
        svc.reload(&layers::lists_with_whitelist(
            lists[0].content.clone(),
            plan.revisions[step].clone(),
        ));
    });
    report.put("service.reload_ms", "ms", reload_ms);
    let mut pair = 0;
    let encode_ms = median_ms(RELOAD_REVISIONS, || {
        std::hint::black_box(layers::delta_encode(
            &plan.revisions[pair],
            &plan.revisions[pair + 1],
        ));
        pair += 1;
    });
    report.put("abpdelta.encode_ms", "ms", encode_ms);
    pair = 0;
    let apply_ms = median_ms(RELOAD_REVISIONS, || {
        std::hint::black_box(layers::delta_apply(
            &plan.revisions[pair],
            &plan.forward[pair],
        ));
        pair += 1;
    });
    report.put("abpdelta.apply_ms", "ms", apply_ms);
    let delta_bytes: usize = plan.forward.iter().map(layers::delta_wire_bytes).sum();
    let body_bytes: usize = plan.revisions[1..].iter().map(String::len).sum();
    report.put(
        "abpdelta.bytes_share",
        "ratio",
        delta_bytes as f64 / body_bytes as f64,
    );
    web.expect("built at least once")
}
