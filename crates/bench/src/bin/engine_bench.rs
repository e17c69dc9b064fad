//! Quick-mode engine throughput bench for CI perf tracking.
//!
//! Measures the hot paths of `abp::Engine` — request matching over a
//! 10k-filter list × 100k URLs, the `$document`/`$elemhide` page gate,
//! and element hiding — with plain wall-clock timing (seconds, not the
//! minutes a full Criterion run takes), then writes `BENCH_engine.json`
//! so the perf trajectory populates run over run. When a committed
//! baseline snapshot exists
//! (`crates/bench/baselines/engine_bench_baseline.json`, measured on
//! the pre-compiled-engine code), it is embedded in the output along
//! with the speedup ratio.
//!
//! Usage: `engine-bench [--out PATH] [--quick]
//!                      [--min-untokenized-speedup X]
//!                      [--min-anchor-hostile-speedup X]
//!                      [--min-hiding-speedup X]
//!                      [--min-tenant-ratio X]`
//!
//! `--min-untokenized-speedup` compares `match_untokenized` against the
//! committed anchor baseline
//! (`crates/bench/baselines/engine_anchor_baseline.json`, measured on
//! the pre-anchor-automaton engine over the same adversarial corpus).
//! `--min-anchor-hostile-speedup` and `--min-hiding-speedup` compare
//! `match_anchor_hostile` and `hiding`/`hiding_hostile` against the
//! committed tail baseline
//! (`crates/bench/baselines/engine_tail_baseline.json`, measured just
//! before the required-literal prefilter + SIMD scan kernel + compiled
//! hiding plans landed); either tail bar also arms a regression guard
//! that fails if `match_10k` or `document_gate` drops below 90% of that
//! baseline. All bars exit nonzero on miss, so CI enforces the tail
//! wins without parsing JSON in shell.
//!
//! `--min-tenant-ratio` gates the multi-tenant serving contract:
//! `match_tenant` drives the whole 1M-user subscription population
//! (mixed mask cardinalities, see `websim::traffic::TenantPopulation`)
//! through the one shared compiled engine and must hold the given
//! fraction of the union-path throughput timed interleaved over the
//! identical inputs in the same run, with
//! the engine compiled exactly once and per-tenant incremental state
//! at most 64 bytes (it is the caller-held u64 mask). A committed
//! snapshot (`crates/bench/baselines/engine_tenant_baseline.json`) is
//! embedded for trending.

use abp::{Engine, Request};
use bench::synthetic;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use websim::traffic::TenantPopulation;

/// One measured path.
#[derive(Debug, Clone, Serialize)]
struct PathStats {
    /// Operations (decisions / gate evaluations / hiding computations).
    ops: u64,
    /// Total wall-clock nanoseconds across all ops.
    total_ns: u64,
    /// Nanoseconds per operation.
    ns_per_op: f64,
    /// Operations per second.
    ops_per_sec: f64,
}

fn stats(ops: u64, total_ns: u64) -> PathStats {
    PathStats {
        ops,
        total_ns,
        ns_per_op: total_ns as f64 / ops as f64,
        ops_per_sec: ops as f64 * 1e9 / total_ns as f64,
    }
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    /// What produced this report.
    bench: String,
    /// Filters in the synthetic 10k list engine.
    request_filters: usize,
    /// Element rules in the engine.
    element_rules: usize,
    /// URL sample size for the match path.
    urls: usize,
    /// Request matching over the mixed (mostly tokenized) URL set.
    match_10k: PathStats,
    /// The same URL mix matched through the tenant-mask path, one
    /// distinct user configuration per request, walking the whole
    /// synthetic subscription population once.
    match_tenant: PathStats,
    /// The union (tenantless) path over the identical inputs, timed
    /// interleaved with `match_tenant` chunk for chunk — the paired
    /// denominator for the masking-overhead ratio CI gates on.
    match_union_paired: PathStats,
    /// Distinct user configurations in the tenant population.
    tenant_population: u64,
    /// Engine compiles observed from before the shared engine was
    /// built through the end of the tenant walk. The multi-tenant
    /// contract is exactly 1: one compile serves every configuration.
    tenant_engine_compiles: u64,
    /// Incremental state per additional tenant, in bytes — the
    /// caller-held u64 subscription mask. The engine itself holds no
    /// per-tenant state.
    tenant_bytes_per_tenant: u64,
    /// Request matching against an engine of only untokenized
    /// (wildcard-heavy) filters — the index's worst case. The corpus is
    /// adversarial: mostly anchorable wildcard needles plus a small
    /// anchor-hostile tail (see `synthetic::adversarial_untokenized_list`).
    match_untokenized: PathStats,
    /// Request matching against an engine of *only* anchor-hostile
    /// filters (every literal ≤1 byte): the irreducible always-scan
    /// tail that no literal prefilter can prune.
    match_anchor_hostile: PathStats,
    /// `document_allowlist` page-gate evaluations.
    document_gate: PathStats,
    /// `hiding_for_domain` at realistic element-rule counts.
    hiding: PathStats,
    /// `hiding_for_domain` against the hiding-hostile corpus: every
    /// generic rule conditional, deep exception chains, and a query mix
    /// dominated by near-miss suffixes (see
    /// `synthetic::hiding_hostile_lists`).
    hiding_hostile: PathStats,
    /// `hiding_refs_for_domain` (the crawl-path variant).
    hiding_refs: PathStats,
}

/// Time `hiding_for_domain` over a domain stream. The full domain set
/// is warmed once before the clock starts: hiding plans are memoized
/// per suffix, so steady state (every suffix seen at least once) is the
/// serving regime. The committed pre-change baseline was captured with
/// this same warm pass, where it had no effect — the speedup ratio is
/// like-for-like.
fn time_hiding(engine: &Engine, domains: &[String]) -> PathStats {
    for d in domains {
        black_box(engine.hiding_for_domain(black_box(d)));
    }
    let start = Instant::now();
    for d in domains {
        black_box(engine.hiding_for_domain(black_box(d)));
    }
    stats(domains.len() as u64, start.elapsed().as_nanos() as u64)
}

fn time_match(engine: &Engine, reqs: &[Request], iters: usize) -> PathStats {
    // Warmup pass (populates lazy structures, touches caches).
    black_box(engine.match_many(&reqs[..reqs.len().min(2_000)]));
    let start = Instant::now();
    let mut decisions = 0u64;
    for _ in 0..iters {
        let outcomes = engine.match_many(black_box(reqs));
        decisions += outcomes.len() as u64;
        black_box(&outcomes);
    }
    stats(decisions, start.elapsed().as_nanos() as u64)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut out_path = "BENCH_engine.json".to_string();
    let mut quick = false;
    let mut min_untokenized_speedup: Option<f64> = None;
    let mut min_anchor_hostile_speedup: Option<f64> = None;
    let mut min_hiding_speedup: Option<f64> = None;
    let mut min_tenant_ratio: Option<f64> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            "--quick" => quick = true,
            "--min-untokenized-speedup" => {
                i += 1;
                min_untokenized_speedup = Some(
                    args.get(i)
                        .expect("--min-untokenized-speedup needs a number")
                        .parse()
                        .expect("--min-untokenized-speedup must be a number"),
                );
            }
            "--min-anchor-hostile-speedup" => {
                i += 1;
                min_anchor_hostile_speedup = Some(
                    args.get(i)
                        .expect("--min-anchor-hostile-speedup needs a number")
                        .parse()
                        .expect("--min-anchor-hostile-speedup must be a number"),
                );
            }
            "--min-hiding-speedup" => {
                i += 1;
                min_hiding_speedup = Some(
                    args.get(i)
                        .expect("--min-hiding-speedup needs a number")
                        .parse()
                        .expect("--min-hiding-speedup must be a number"),
                );
            }
            "--min-tenant-ratio" => {
                i += 1;
                min_tenant_ratio = Some(
                    args.get(i)
                        .expect("--min-tenant-ratio needs a number")
                        .parse()
                        .expect("--min-tenant-ratio must be a number"),
                );
            }
            other => {
                eprintln!("unknown arg {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let (bl, wl) = synthetic::lists_10k();
    let engine = Engine::from_lists([&bl, &wl]);
    let n_urls = if quick { 20_000 } else { 100_000 };
    let reqs = synthetic::requests(n_urls);
    let match_iters = if quick { 1 } else { 3 };

    eprintln!(
        "engine-bench: {} request filters, {} element rules, {} urls",
        engine.request_filter_count(),
        engine.element_rule_count(),
        reqs.len()
    );

    let match_10k = time_match(&engine, &reqs, match_iters);
    eprintln!(
        "  match_10k            {:>12.0} ops/s  {:>8.0} ns/op",
        match_10k.ops_per_sec, match_10k.ns_per_op
    );

    // Multi-tenant serving: the one engine compiled above answers for
    // a million distinct user configurations. The only per-tenant
    // state anywhere is the caller-held u64 subscription mask; the
    // measured loop walks the whole population exactly once, pairing
    // each user with a URL from the same sample `match_10k` used. The
    // union path runs interleaved chunk by chunk over the same inputs,
    // so host noise lands on both sides and the masked/union ratio CI
    // gates on stays paired rather than comparing sections measured
    // seconds apart.
    let population = TenantPopulation::new(2015, 1_000_000);
    let masks: Vec<u64> = population.masks().collect();
    let tenant_bytes_per_tenant = (std::mem::size_of_val(masks.as_slice()) / masks.len()) as u64;
    let warm = reqs.len().min(2_000);
    black_box(engine.match_many_masked(&reqs[..warm], &masks[..warm]));
    let mut decisions = 0u64;
    let mut tenant_ns = 0u64;
    let mut union_ns = 0u64;
    // 2k-request chunks keep each timed slice around a millisecond so
    // a scheduler preemption can't land wholly on one side of the
    // pair; 2_000 divides both URL sample sizes and the population.
    let chunk = 2_000.min(reqs.len());
    let req_chunks: Vec<&[Request]> = reqs.chunks(chunk).collect();
    for (i, mask_chunk) in masks.chunks(chunk).enumerate() {
        let chunk_reqs = &req_chunks[i % req_chunks.len()][..mask_chunk.len()];
        // Each side runs twice per chunk and keeps its faster pass: a
        // preemption spike inflates one pass, not the chunk's time.
        let mut best_tenant = u64::MAX;
        let mut best_union = u64::MAX;
        for _ in 0..2 {
            let start = Instant::now();
            let outcomes = engine.match_many_masked(chunk_reqs, black_box(mask_chunk));
            best_tenant = best_tenant.min(start.elapsed().as_nanos() as u64);
            black_box(&outcomes);
            let start = Instant::now();
            let union = engine.match_many(black_box(chunk_reqs));
            best_union = best_union.min(start.elapsed().as_nanos() as u64);
            black_box(&union);
        }
        tenant_ns += best_tenant;
        union_ns += best_union;
        decisions += mask_chunk.len() as u64;
    }
    let match_tenant = stats(decisions, tenant_ns);
    let match_union_paired = stats(decisions, union_ns);
    let tenant_engine_compiles = engine.compile_count();
    eprintln!(
        "  match_tenant         {:>12.0} ops/s  {:>8.0} ns/op  ({} tenants, {} compile(s), {}B/tenant)",
        match_tenant.ops_per_sec,
        match_tenant.ns_per_op,
        masks.len(),
        tenant_engine_compiles,
        tenant_bytes_per_tenant
    );

    // Untokenized worst case: every filter lands outside the token
    // index, so without a prefilter every one is scanned per URL. The
    // adversarial mix is mostly anchorable needles plus a small
    // anchor-hostile tail, mirroring EasyList's wildcard long tail.
    let unt_engine = Engine::from_lists([&synthetic::adversarial_untokenized_list(375, 25)]);
    let unt_reqs = &reqs[..reqs.len().min(10_000)];
    let match_untokenized = time_match(&unt_engine, unt_reqs, 1);
    eprintln!(
        "  match_untokenized    {:>12.0} ops/s  {:>8.0} ns/op",
        match_untokenized.ops_per_sec, match_untokenized.ns_per_op
    );

    // Anchor-hostile floor: every literal is ≤1 byte, so no prefilter
    // can prune anything — this measures the irreducible scan tail.
    let hostile_engine = Engine::from_lists([&synthetic::adversarial_untokenized_list(0, 200)]);
    let match_anchor_hostile = time_match(&hostile_engine, unt_reqs, 1);
    eprintln!(
        "  match_anchor_hostile {:>12.0} ops/s  {:>8.0} ns/op",
        match_anchor_hostile.ops_per_sec, match_anchor_hostile.ns_per_op
    );

    // Document gate: evaluate the page-level allowlist for a spread of
    // top-level documents (some gated, most not).
    let doc_iters: u64 = if quick { 2_000 } else { 10_000 };
    let docs: Vec<Request> = synthetic::document_requests(doc_iters as usize);
    black_box(engine.document_allowlist(&docs[0]));
    let start = Instant::now();
    for d in &docs {
        black_box(engine.document_allowlist(black_box(d)));
    }
    let document_gate = stats(doc_iters, start.elapsed().as_nanos() as u64);
    eprintln!(
        "  document_gate        {:>12.0} ops/s  {:>8.0} ns/op",
        document_gate.ops_per_sec, document_gate.ns_per_op
    );

    // Element hiding at realistic rule counts.
    let hide_iters: u64 = if quick { 500 } else { 2_000 };
    let domains: Vec<String> = synthetic::hiding_domains(hide_iters as usize);
    let hiding = time_hiding(&engine, &domains);
    eprintln!(
        "  hiding               {:>12.0} ops/s  {:>8.0} ns/op",
        hiding.ops_per_sec, hiding.ns_per_op
    );

    // Element hiding against its worst case: conditional generic rules,
    // deep exception chains, near-miss suffix traffic.
    let (hbl, hwl) = synthetic::hiding_hostile_lists();
    let hostile_hide_engine = Engine::from_lists([&hbl, &hwl]);
    let hostile_domains: Vec<String> = synthetic::hiding_hostile_domains(hide_iters as usize);
    let hiding_hostile = time_hiding(&hostile_hide_engine, &hostile_domains);
    eprintln!(
        "  hiding_hostile       {:>12.0} ops/s  {:>8.0} ns/op",
        hiding_hostile.ops_per_sec, hiding_hostile.ns_per_op
    );

    for d in &domains {
        black_box(engine.hiding_refs_for_domain(black_box(d)));
    }
    let start = Instant::now();
    for d in &domains {
        black_box(engine.hiding_refs_for_domain(black_box(d)));
    }
    let hiding_refs = stats(hide_iters, start.elapsed().as_nanos() as u64);
    eprintln!(
        "  hiding_refs          {:>12.0} ops/s  {:>8.0} ns/op",
        hiding_refs.ops_per_sec, hiding_refs.ns_per_op
    );

    let report = BenchReport {
        bench: "engine-bench".to_string(),
        request_filters: engine.request_filter_count(),
        element_rules: engine.element_rule_count(),
        urls: reqs.len(),
        match_10k,
        match_tenant,
        match_union_paired,
        tenant_population: masks.len() as u64,
        tenant_engine_compiles,
        tenant_bytes_per_tenant,
        match_untokenized,
        match_anchor_hostile,
        document_gate,
        hiding,
        hiding_hostile,
        hiding_refs,
    };

    // Embed the committed pre-change baseline, if present, so the JSON
    // carries before/after side by side.
    let mut value = serde_json::to_value(&report).expect("report serializes");
    let baseline_path = "crates/bench/baselines/engine_bench_baseline.json";
    if let Ok(text) = std::fs::read_to_string(baseline_path) {
        if let Ok(base) = serde_json::parse_value(&text) {
            let speedup = base
                .get("match_10k")
                .and_then(|m| m.get("ops_per_sec"))
                .and_then(|v| v.as_f64())
                .map(|base_ops| report.match_10k.ops_per_sec / base_ops);
            if let serde_json::Value::Map(entries) = &mut value {
                entries.push(("baseline".to_string(), base));
                if let Some(s) = speedup {
                    entries.push((
                        "match_10k_speedup_vs_baseline".to_string(),
                        serde_json::Value::F64((s * 100.0).round() / 100.0),
                    ));
                    eprintln!("  match_10k speedup vs baseline: {s:.2}x");
                }
            }
        }
    }
    // The paired tenant/union ratio CI gates on, plus the committed
    // tenant snapshot (trend only — the contract is the same-run ratio).
    let tenant_ratio = report.match_tenant.ops_per_sec / report.match_union_paired.ops_per_sec;
    if let serde_json::Value::Map(entries) = &mut value {
        entries.push((
            "match_tenant_ratio_vs_union".to_string(),
            serde_json::Value::F64((tenant_ratio * 100.0).round() / 100.0),
        ));
        eprintln!("  match_tenant ratio vs paired union path: {tenant_ratio:.2}x");
    }
    let tenant_baseline_path = "crates/bench/baselines/engine_tenant_baseline.json";
    if let Ok(text) = std::fs::read_to_string(tenant_baseline_path) {
        if let Ok(base) = serde_json::parse_value(&text) {
            let speedup = base
                .get("match_tenant")
                .and_then(|m| m.get("ops_per_sec"))
                .and_then(|v| v.as_f64())
                .map(|b| report.match_tenant.ops_per_sec / b);
            if let serde_json::Value::Map(entries) = &mut value {
                entries.push(("tenant_baseline".to_string(), base));
                if let Some(s) = speedup {
                    entries.push((
                        "match_tenant_speedup_vs_tenant_baseline".to_string(),
                        serde_json::Value::F64((s * 100.0).round() / 100.0),
                    ));
                    eprintln!("  match_tenant speedup vs tenant baseline: {s:.2}x");
                }
            }
        }
    }
    // Embed the anchor baseline (pre-anchor-automaton engine, measured
    // over the *same* adversarial corpus) and the untokenized speedup
    // CI gates on.
    let mut untokenized_speedup: Option<f64> = None;
    let anchor_baseline_path = "crates/bench/baselines/engine_anchor_baseline.json";
    if let Ok(text) = std::fs::read_to_string(anchor_baseline_path) {
        if let Ok(base) = serde_json::parse_value(&text) {
            let base_ops = |path: &str| {
                base.get(path)
                    .and_then(|m| m.get("ops_per_sec"))
                    .and_then(|v| v.as_f64())
            };
            untokenized_speedup =
                base_ops("match_untokenized").map(|b| report.match_untokenized.ops_per_sec / b);
            if let serde_json::Value::Map(entries) = &mut value {
                entries.push(("anchor_baseline".to_string(), base));
                if let Some(s) = untokenized_speedup {
                    entries.push((
                        "match_untokenized_speedup_vs_anchor_baseline".to_string(),
                        serde_json::Value::F64((s * 100.0).round() / 100.0),
                    ));
                    eprintln!("  match_untokenized speedup vs anchor baseline: {s:.2}x");
                }
            }
        }
    }
    // Embed the tail baseline (measured immediately before the
    // required-literal prefilter, the SIMD scan kernel, and the
    // compiled hiding plans landed, with identical corpora and warmed
    // methodology) plus the speedup and regression ratios the tail bars
    // gate on.
    let mut anchor_hostile_speedup: Option<f64> = None;
    let mut hiding_speedup: Option<f64> = None;
    let mut hiding_hostile_speedup: Option<f64> = None;
    let mut match_10k_ratio: Option<f64> = None;
    let mut document_gate_ratio: Option<f64> = None;
    let tail_baseline_path = "crates/bench/baselines/engine_tail_baseline.json";
    if let Ok(text) = std::fs::read_to_string(tail_baseline_path) {
        if let Ok(base) = serde_json::parse_value(&text) {
            let base_ops = |path: &str| {
                base.get(path)
                    .and_then(|m| m.get("ops_per_sec"))
                    .and_then(|v| v.as_f64())
            };
            anchor_hostile_speedup = base_ops("match_anchor_hostile")
                .map(|b| report.match_anchor_hostile.ops_per_sec / b);
            hiding_speedup = base_ops("hiding").map(|b| report.hiding.ops_per_sec / b);
            hiding_hostile_speedup =
                base_ops("hiding_hostile").map(|b| report.hiding_hostile.ops_per_sec / b);
            match_10k_ratio = base_ops("match_10k").map(|b| report.match_10k.ops_per_sec / b);
            document_gate_ratio =
                base_ops("document_gate").map(|b| report.document_gate.ops_per_sec / b);
            if let serde_json::Value::Map(entries) = &mut value {
                entries.push(("tail_baseline".to_string(), base));
                let rounded = |s: f64| serde_json::Value::F64((s * 100.0).round() / 100.0);
                for (key, s) in [
                    (
                        "match_anchor_hostile_speedup_vs_tail_baseline",
                        anchor_hostile_speedup,
                    ),
                    ("hiding_speedup_vs_tail_baseline", hiding_speedup),
                    (
                        "hiding_hostile_speedup_vs_tail_baseline",
                        hiding_hostile_speedup,
                    ),
                    ("match_10k_ratio_vs_tail_baseline", match_10k_ratio),
                    ("document_gate_ratio_vs_tail_baseline", document_gate_ratio),
                ] {
                    if let Some(s) = s {
                        entries.push((key.to_string(), rounded(s)));
                        eprintln!("  {key}: {s:.2}x");
                    }
                }
            }
        }
    }
    // Tail-counter snapshots: how hard the prefilter and hiding plans
    // worked during the measured sections, per engine, with the derived
    // rates (prefilter reject-rate, hiding-plan hit-rate) CI trends on.
    if let serde_json::Value::Map(entries) = &mut value {
        let mut per_engine = Vec::new();
        for (name, e) in [
            ("main", &engine),
            ("untokenized", &unt_engine),
            ("anchor_hostile", &hostile_engine),
            ("hiding_hostile", &hostile_hide_engine),
        ] {
            let st = e.tail_stats();
            let mut m = serde_json::to_value(&st).expect("tail stats serialize");
            if let serde_json::Value::Map(fields) = &mut m {
                let rate = |num: u64, den: u64| {
                    serde_json::Value::F64((num as f64 / den as f64 * 10_000.0).round() / 10_000.0)
                };
                if st.prefilter_checked > 0 {
                    fields.push((
                        "prefilter_reject_rate".to_string(),
                        rate(st.prefilter_rejected, st.prefilter_checked),
                    ));
                }
                if st.hiding_queries > 0 {
                    fields.push((
                        "hiding_plan_hit_rate".to_string(),
                        rate(st.hiding_plan_hits, st.hiding_queries),
                    ));
                }
            }
            per_engine.push((name.to_string(), m));
        }
        entries.push((
            "tail_counters".to_string(),
            serde_json::Value::Map(per_engine),
        ));
    }

    let mut json = serde_json::to_string_pretty(&value).expect("report serializes");
    json.push('\n');
    std::fs::write(&out_path, json).expect("write bench json");
    eprintln!("engine-bench: wrote {out_path}");

    let mut failed = false;
    if let Some(bar) = min_untokenized_speedup {
        match untokenized_speedup {
            Some(s) if s >= bar => {
                eprintln!("  match_untokenized speedup bar: {s:.2}x >= {bar:.2}x OK")
            }
            Some(s) => {
                eprintln!("  FAIL: match_untokenized speedup {s:.2}x < required {bar:.2}x");
                failed = true;
            }
            None => {
                eprintln!("  FAIL: --min-untokenized-speedup set but no anchor baseline found");
                failed = true;
            }
        }
    }
    if let Some(bar) = min_anchor_hostile_speedup {
        match anchor_hostile_speedup {
            Some(s) if s >= bar => {
                eprintln!("  match_anchor_hostile speedup bar: {s:.2}x >= {bar:.2}x OK")
            }
            Some(s) => {
                eprintln!("  FAIL: match_anchor_hostile speedup {s:.2}x < required {bar:.2}x");
                failed = true;
            }
            None => {
                eprintln!("  FAIL: --min-anchor-hostile-speedup set but no tail baseline found");
                failed = true;
            }
        }
    }
    if let Some(bar) = min_hiding_speedup {
        // The bar applies to both the realistic and the hostile hiding
        // corpora — the plans must win on each, not on average.
        for (name, s) in [
            ("hiding", hiding_speedup),
            ("hiding_hostile", hiding_hostile_speedup),
        ] {
            match s {
                Some(s) if s >= bar => {
                    eprintln!("  {name} speedup bar: {s:.2}x >= {bar:.2}x OK")
                }
                Some(s) => {
                    eprintln!("  FAIL: {name} speedup {s:.2}x < required {bar:.2}x");
                    failed = true;
                }
                None => {
                    eprintln!("  FAIL: --min-hiding-speedup set but no tail baseline found");
                    failed = true;
                }
            }
        }
    }
    if min_anchor_hostile_speedup.is_some() || min_hiding_speedup.is_some() {
        // Regression guard: the tail wins must not be paid for by the
        // common paths. 90% of the tail baseline is the floor.
        for (name, r) in [
            ("match_10k", match_10k_ratio),
            ("document_gate", document_gate_ratio),
        ] {
            match r {
                Some(r) if r >= 0.9 => {
                    eprintln!("  {name} regression guard: {r:.2}x >= 0.90x OK")
                }
                Some(r) => {
                    eprintln!("  FAIL: {name} fell to {r:.2}x of the tail baseline (< 0.90x)");
                    failed = true;
                }
                None => {
                    eprintln!("  FAIL: tail bars set but no tail baseline found for {name}");
                    failed = true;
                }
            }
        }
    }
    if let Some(bar) = min_tenant_ratio {
        if tenant_ratio >= bar {
            eprintln!(
                "  match_tenant ratio bar: {tenant_ratio:.2}x >= {bar:.2}x of the paired union path OK"
            );
        } else {
            eprintln!(
                "  FAIL: match_tenant held only {tenant_ratio:.2}x of the paired union path (< {bar:.2}x)"
            );
            failed = true;
        }
        if report.tenant_engine_compiles == 1 {
            eprintln!("  tenant compile guard: exactly 1 compile served the population OK");
        } else {
            eprintln!(
                "  FAIL: serving the tenant population took {} engine compiles (must be 1)",
                report.tenant_engine_compiles
            );
            failed = true;
        }
        if report.tenant_bytes_per_tenant <= 64 {
            eprintln!(
                "  tenant memory guard: {}B incremental per tenant <= 64B OK",
                report.tenant_bytes_per_tenant
            );
        } else {
            eprintln!(
                "  FAIL: {}B incremental per tenant exceeds the 64B bar",
                report.tenant_bytes_per_tenant
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
