//! What a run reports, and the metric tables `BENCHMARK.json` mirrors.

use serde_json::Value;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric the benchmark promises to print.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which it may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// End-to-end metrics: what a caller of the system sees. Every
/// workload reports every one; an *op* is a decision on the served
/// workloads and a surveyed page on `crawl-survey`. On one saturated
/// core CPU per op and the reply time of a pipelined line are
/// `ops_per_s` read backwards, so they are printed next to it and
/// split by process in the traced run, not gated a second time.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Per-layer metrics of the traced run, grouped by the module they
/// time. No bounds: they explain a change, they do not gate it.
pub const PER_LAYER: [MetricDef; 48] = [
    layer("abp.parse_list_ms", "ms", Lower),
    layer("abp.compile_ms", "ms", Lower),
    layer("abp.request_new_ns", "ns", Lower),
    layer("abp.match_ns", "ns", Lower),
    layer("abp.match_masked_ns", "ns", Lower),
    layer("abp.doc_gate_ns", "ns", Lower),
    layer("abp.hiding_ns", "ns", Lower),
    layer("abp.blocked_share", "ratio", Lower),
    layer("wire.encode_request_ns", "ns", Lower),
    layer("wire.parse_request_ns", "ns", Lower),
    layer("wire.encode_reply_ns", "ns", Lower),
    layer("wire.parse_reply_ns", "ns", Lower),
    layer("wire.request_bytes", "bytes", Lower),
    layer("wire.reply_bytes", "bytes", Lower),
    layer("service.decide_ns", "ns", Lower),
    layer("service.decide_hit_ns", "ns", Lower),
    layer("service.decide_miss_ns", "ns", Lower),
    layer("service.reload_ms", "ms", Lower),
    layer("abpd.boot_ms", "ms", Lower),
    layer("abpd.boot_snapshot_ms", "ms", Lower),
    layer("abpd.cpu_us_per_decision", "us", Lower),
    layer("abpd.rss_mb", "MB", Lower),
    layer("abpd.cache_hit_share", "ratio", Higher),
    layer("abpd.shed", "count", Lower),
    layer("abpd.reloads", "count", Higher),
    layer("proxy.cpu_us_per_decision", "us", Lower),
    layer("proxy.rss_mb", "MB", Lower),
    layer("proxy.hop_us_per_decision", "us", Lower),
    layer("proxy.shard_share_max", "ratio", Lower),
    layer("client.cpu_us_per_decision", "us", Lower),
    layer("client.rtt_p50_us", "us", Lower),
    layer("client.rtt_p99_us", "us", Lower),
    layer("client.line_rtt_p50_us", "us", Lower),
    layer("socket.us_per_line", "us", Lower),
    layer("abpdelta.encode_ms", "ms", Lower),
    layer("abpdelta.apply_ms", "ms", Lower),
    layer("abpdelta.bytes_share", "ratio", Lower),
    layer("corpus.generate_ms", "ms", Lower),
    layer("websim.build_ms", "ms", Lower),
    layer("crawler.page_us", "us", Lower),
    layer("crawler.requests_per_page", "count", Lower),
    layer("variant.blocking.decisions_per_s", "1/s", Higher),
    layer("variant.blocking.cpu_us_per_decision", "us", Lower),
    layer("variant.pool.decisions_per_s", "1/s", Higher),
    layer("variant.pool.cpu_us_per_decision", "us", Lower),
    layer("budget.attributed_share", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
    layer("harness.prep_s", "s", Lower),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// The per-round (or per-repetition) values the estimate was taken
    /// from, where there are any.
    pub slices: Vec<f64>,
}

impl Metric {
    /// Run-internal spread: the interquartile range of `slices` as a
    /// share of their median.
    pub fn slice_iqr_share(&self) -> Option<f64> {
        (self.slices.len() >= 2).then(|| crate::stats::iqr_share(&self.slices))
    }
}

/// A validity condition asserted at run time.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What must hold.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed value.
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured window in seconds.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations lost, refused or answered wrongly.
    pub failed: u64,
    /// Validity gates.
    pub gates: Vec<Gate>,
    /// Metrics, contract ones and extras alike.
    pub metrics: Vec<Metric>,
    /// Run parameters worth stating next to the numbers.
    pub params: Vec<(String, String)>,
}

impl RunReport {
    /// Record a metric.
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            slices: Vec::new(),
        });
    }

    /// Record an estimate together with the per-slice (or
    /// per-repetition) values it was taken from and their spread.
    pub fn put_estimate(&mut self, name: &str, unit: &'static str, value: f64, slices: &[f64]) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            slices: slices.to_vec(),
        });
    }

    /// Record a validity gate.
    pub fn gate(&mut self, name: &str, ok: bool, detail: String) {
        self.gates.push(Gate {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Record a run parameter.
    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.params.push((key.to_string(), value.to_string()));
    }

    /// A metric's value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Correct: something was attempted, nothing failed, every gate
    /// held and every number is a number.
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self.gates.iter().all(|g| g.ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The metrics the contract names for this run's mode.
    pub fn contract_defs(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The one-line JSON object the driver reads: exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`. A metric that was
    /// not measured goes out as `null`, which the driver refuses: a run
    /// that could not measure must not pass.
    pub fn contract_line(&self) -> String {
        let defs = self.contract_defs();
        let metrics = defs
            .iter()
            .map(|def| {
                let entry = Value::Map(vec![
                    (
                        "value".to_string(),
                        Value::F64(self.value(def.name).unwrap_or(f64::NAN)),
                    ),
                    ("unit".to_string(), Value::Str(def.unit.to_string())),
                ]);
                (def.name.to_string(), entry)
            })
            .collect();
        let complete = defs.iter().all(|d| self.value(d.name).is_some());
        let line = Value::Map(vec![
            (
                "correct".to_string(),
                Value::Bool(self.correct() && complete),
            ),
            ("attempted".to_string(), Value::U64(self.attempted.max(1))),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a tree of numbers and strings serializes")
    }

    /// The full record for the result file.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut entry = vec![
                    ("value".to_string(), Value::F64(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ];
                if let Some(s) = m.slice_iqr_share() {
                    entry.push(("slice_iqr_share".to_string(), Value::F64(s)));
                    entry.push((
                        "slices".to_string(),
                        Value::Seq(m.slices.iter().map(|v| Value::F64(*v)).collect()),
                    ));
                }
                (m.name.clone(), Value::Map(entry))
            })
            .collect();
        let gates = self
            .gates
            .iter()
            .map(|g| {
                Value::Map(vec![
                    ("name".to_string(), Value::Str(g.name.clone())),
                    ("ok".to_string(), Value::Bool(g.ok)),
                    ("detail".to_string(), Value::Str(g.detail.clone())),
                ])
            })
            .collect();
        let params = self
            .params
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        Value::Map(vec![
            ("workload".to_string(), Value::Str(self.workload.clone())),
            ("seed".to_string(), Value::U64(self.seed)),
            ("seconds".to_string(), Value::F64(self.seconds)),
            ("traced".to_string(), Value::Bool(self.traced)),
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            (
                "failed_share".to_string(),
                Value::F64(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("params".to_string(), Value::Map(params)),
            ("gates".to_string(), Value::Seq(gates)),
            ("metrics".to_string(), Value::Map(metrics)),
        ])
    }

    /// Print every metric by name and unit, then the gates.
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {} s, {}) ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { "traced" } else { "untraced" }
        );
        for (k, v) in &self.params {
            println!("   {k}: {v}");
        }
        let contract = self.contract_defs();
        for m in &self.metrics {
            let mark = if contract.iter().any(|d| d.name == m.name) {
                '*'
            } else {
                ' '
            };
            let spread = m
                .slice_iqr_share()
                .map(|s| format!("  (slice IQR {:.2}%)", s * 100.0))
                .unwrap_or_default();
            println!(
                " {mark} {:<40} {:>16.4} {}{spread}",
                m.name, m.value, m.unit
            );
        }
        println!(
            "   attempted {}  failed {}  failed_share {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for g in &self.gates {
            println!(
                "   gate {:<44} {}  ({})",
                g.name,
                if g.ok { "ok" } else { "FAILED" },
                g.detail
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let doc = serde_json::parse_value(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Value::Seq(listed)) = doc.get(key) else {
                panic!("{key} is a list");
            };
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                let text = |k: &str| entry.get(k).and_then(Value::as_str);
                assert_eq!(text("name"), Some(def.name));
                assert_eq!(text("unit"), Some(def.unit), "{}", def.name);
                assert_eq!(text("better"), Some(def.better.word()), "{}", def.name);
                if key == "end_to_end" {
                    let bound = entry.get("bound").and_then(Value::as_f64);
                    assert_eq!(bound, Some(def.bound), "{}", def.name);
                }
            }
        }
        let Some(Value::Seq(listed)) = doc.get("workloads") else {
            panic!("workloads is a list");
        };
        let names: Vec<&str> = listed
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| w.name)
            .collect();
        assert_eq!(names, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn contract_line_has_exactly_the_promised_keys() {
        let mut r = RunReport {
            workload: "serve-hot".into(),
            attempted: 10,
            ..RunReport::default()
        };
        for def in &END_TO_END {
            r.put(def.name, def.unit, 1.5);
        }
        r.put("extra.metric", "us", 2.0);
        let line = r.contract_line();
        let v = serde_json::parse_value(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(10));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let Some(Value::Map(metrics)) = v.get("metrics") else {
            panic!("metrics is an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn a_failed_gate_or_decision_is_not_correct() {
        let mut r = RunReport {
            attempted: 10,
            ..RunReport::default()
        };
        assert!(r.correct());
        r.gate("hit share", false, "0.5".into());
        assert!(!r.correct());
        r.gates.clear();
        r.failed = 1;
        assert!(!r.correct());
    }
}
