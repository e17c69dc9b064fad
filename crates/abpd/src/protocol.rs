//! The abpd wire protocol.
//!
//! Newline-delimited JSON over TCP: each line the client writes is one
//! [`ClientMessage`]; the server answers every line with exactly one
//! [`ServerMessage`] line, in order. Enum messages are externally
//! tagged, so a single decision request looks like:
//!
//! ```json
//! {"Decide":{"url":"http://ad.doubleclick.net/x.js","document":"example.com","resource_type":"Script"}}
//! ```
//!
//! and a batch is `{"DecideBatch":[...]}` answered by `{"Batch":[...]}`.
//! Dataless verbs are bare JSON strings: the line `"Stats"` requests
//! statistics, `"Ping"` probes liveness, `"Shutdown"` drains the server.

use abp::{ListSource, RequestOutcome, ResourceType};
use serde::{Deserialize, Serialize};

/// One decision to make: should this load be blocked?
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionRequest {
    /// Absolute URL being fetched.
    pub url: String,
    /// The first-party (document) hostname the fetch happens under.
    pub document: String,
    /// Resource type inferred from the initiating element.
    pub resource_type: ResourceType,
    /// Verified sitekey presented by the document, if any.
    #[serde(default)]
    pub sitekey: Option<String>,
    /// Subscription-set bitmask identifying the requesting tenant's
    /// filter-list configuration. Absent (or `null`) means the union
    /// of every loaded list: the legacy single-config view.
    #[serde(default)]
    pub tenant: Option<u64>,
}

/// The server's verdict for one [`DecisionRequest`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionResponse {
    /// The engine outcome: decision plus every filter activation.
    pub outcome: RequestOutcome,
    /// Whether this verdict came from the decision cache.
    pub cached: bool,
}

/// Counters for one shard of the service.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Decisions routed to this shard.
    pub requests: u64,
    /// Decisions answered from this shard's cache.
    pub cache_hits: u64,
    /// Decisions that blocked the request.
    pub blocks: u64,
    /// Decisions allowed by an exception filter.
    pub exceptions: u64,
    /// Median decision latency in microseconds.
    pub p50_us: u64,
    /// 99th-percentile decision latency in microseconds.
    pub p99_us: u64,
}

/// Service-wide statistics: totals plus the per-shard breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Total decisions served.
    pub requests: u64,
    /// Decisions answered from cache.
    pub cache_hits: u64,
    /// Blocked decisions.
    pub blocks: u64,
    /// Exception-allowed decisions.
    pub exceptions: u64,
    /// Median decision latency in microseconds, across all shards.
    pub p50_us: u64,
    /// 99th-percentile decision latency in microseconds.
    pub p99_us: u64,
    /// Per-shard breakdown, indexed by shard id.
    pub shards: Vec<ShardStats>,
    /// Estimated distinct tenant subscription masks served (linear
    /// counting over a 1024-bit sketch; exact for small populations).
    /// Appended after the original fields so pre-tenant readers keep
    /// parsing the prefix they know.
    #[serde(default)]
    pub distinct_tenants: u64,
    /// Decisions bucketed by the tenant mask's subscription count:
    /// 0–1 lists, 2, 3–4, 5–8, 9+ (the union view lands in the top
    /// bucket). Dividing `tenant_cache_hits_by_lists` by this gives
    /// the hit rate per configuration size.
    #[serde(default)]
    pub tenant_requests_by_lists: Vec<u64>,
    /// Cache hits in the same cardinality buckets.
    #[serde(default)]
    pub tenant_cache_hits_by_lists: Vec<u64>,
}

/// One filter list shipped in a `Reload`: the subscription it stands
/// for plus its full textual content.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReloadList {
    /// Which subscription slot this text fills.
    pub source: ListSource,
    /// The list text, in the usual filter-list format.
    pub content: String,
}

/// One filter list shipped incrementally in a `ReloadDelta`: the
/// subscription slot plus a delta program encoded against the body
/// the server is currently serving for that slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReloadDeltaList {
    /// Which subscription slot this delta updates.
    pub source: ListSource,
    /// Copy/insert program against the serving body, carrying the
    /// base and target checksums that gate application.
    pub delta: abpdelta::Delta,
}

/// A `ReloadDelta` was refused because the server's serving body for
/// `source` is not the base the delta was encoded against. The sender
/// should fall back to a full `Reload`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReloadMismatch {
    /// The slot whose base did not match.
    pub source: ListSource,
    /// Strong checksum of the body the server is actually serving for
    /// that slot (0 when the server holds no body for it).
    pub serving_check: u64,
    /// The engine generation still serving (the reload did not apply).
    pub generation: u64,
}

/// Acknowledges a successful `Reload`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReloadReport {
    /// The engine generation now serving (monotonically increasing;
    /// startup is generation 0).
    pub generation: u64,
    /// Request filters compiled into the new engine.
    pub filters: u64,
}

/// Overall service health, reported by the `Health` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Serving.
    Ok,
    /// Part of the service is down. A single daemon never reports it
    /// (it has no worker to lose); the fleet router does, for a fleet
    /// with a shard it cannot reach.
    Degraded,
    /// Shutdown has begun; the server is draining connections.
    Draining,
}

impl HealthState {
    /// The lowercase wire name (`ok`/`degraded`/`draining`).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Draining => "draining",
        }
    }

    /// Parse the lowercase wire name.
    pub fn from_name(name: &str) -> Option<HealthState> {
        Some(match name {
            "ok" => HealthState::Ok,
            "degraded" => HealthState::Degraded,
            "draining" => HealthState::Draining,
            _ => return None,
        })
    }
}

// The wire names are lowercase (ops convention), not the variant
// names, so the serde impls are written out rather than derived.
impl Serialize for HealthState {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.name().to_string())
    }
}

impl Deserialize for HealthState {
    fn from_content(c: &serde::Content) -> Result<Self, serde::Error> {
        let s = c
            .as_str()
            .ok_or_else(|| serde::Error::custom("HealthState: expected a string"))?;
        HealthState::from_name(s)
            .ok_or_else(|| serde::Error::custom(format!("unknown health state {s:?}")))
    }
}

/// The `Health` verb's reply: liveness plus resilience counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Overall state: `ok`, `degraded`, or `draining`.
    pub state: HealthState,
    /// The engine generation currently serving.
    pub generation: u64,
    /// Successful reloads since startup.
    pub reloads: u64,
    /// Evaluation panics caught per shard since startup (index =
    /// shard id). Nothing restarts: the count is what a supervisor
    /// would have had to.
    pub shard_restarts: Vec<u64>,
    /// Batches refused with `Overloaded`. A daemon evaluates on the
    /// thread that read the line and has no queue to refuse from, so
    /// it reports 0; the field stays for readers that expect it.
    pub shed: u64,
    /// Batches failed because their evaluation deadline passed.
    pub deadline_timeouts: u64,
    /// Strong checksum ([`abpdelta::strong_checksum`]) of the serving
    /// filter list bodies, canonically ordered — comparable across
    /// processes, unlike `generation`. A fleet router uses this to
    /// verify cross-shard convergence after a reload. 0 when the
    /// server was started from a pre-compiled engine and has no
    /// bodies to checksum.
    pub list_checksum: u64,
    /// Estimated distinct tenant subscription masks served (the same
    /// sketch `Stats` reports). Trailing append: pre-tenant readers
    /// keep parsing the prefix they know.
    #[serde(default)]
    pub distinct_tenants: u64,
}

/// Every message a client can send.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClientMessage {
    /// Evaluate one request.
    Decide(DecisionRequest),
    /// Evaluate a batch in order; answered by one `Batch` message.
    DecideBatch(Vec<DecisionRequest>),
    /// Fetch service statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Replace the serving filter lists: compile a new engine
    /// generation and atomically swap it in. Answered by `Reloaded`
    /// on success or `Error` (with a bounded report) on rejection —
    /// the previous engine keeps serving in that case.
    Reload(Vec<ReloadList>),
    /// Incrementally update the serving filter lists: apply each delta
    /// to the corresponding serving body, then compile and swap like
    /// `Reload`. Slots not mentioned keep their current body. Answered
    /// by `Reloaded` on success, `ReloadBaseMismatch` when a delta's
    /// base checksum does not match the serving body (the sender
    /// should fall back to a full `Reload`), or `Error` on rejection.
    ReloadDelta(Vec<ReloadDeltaList>),
    /// Fetch service health (state, generation, restart counters).
    Health,
    /// Ask the server to stop accepting connections and drain.
    Shutdown,
}

/// Every message the server can answer with.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerMessage {
    /// Verdict for a `Decide`.
    Decision(DecisionResponse),
    /// Verdicts for a `DecideBatch`, in request order.
    Batch(Vec<DecisionResponse>),
    /// Statistics for a `Stats`.
    Stats(StatsReport),
    /// Answer to `Ping`.
    Pong,
    /// Acknowledges a successful `Reload`.
    Reloaded(ReloadReport),
    /// Refuses a `ReloadDelta` whose base does not match the serving
    /// body; carries the serving checksum so the sender can resync.
    ReloadBaseMismatch(ReloadMismatch),
    /// Health for a `Health`.
    Health(HealthReport),
    /// The work was shed before evaluation; retry with backoff. Sent
    /// by the fleet router when its hedge budget runs dry, never by a
    /// daemon.
    Overloaded,
    /// Acknowledges `Shutdown`; the server drains and exits.
    ShuttingDown,
    /// The request line could not be parsed or evaluated.
    Error(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp::Decision;

    #[test]
    fn wire_shapes_round_trip() {
        let msgs = [
            ClientMessage::Decide(DecisionRequest {
                url: "http://ads.example/unit.js".into(),
                document: "news.example".into(),
                resource_type: ResourceType::Script,
                sitekey: None,
                tenant: None,
            }),
            ClientMessage::DecideBatch(vec![]),
            ClientMessage::Stats,
            ClientMessage::Ping,
            ClientMessage::Shutdown,
        ];
        for m in &msgs {
            let line = serde_json::to_string(m).unwrap();
            assert!(!line.contains('\n'), "one message per line: {line}");
            let back: ClientMessage = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, m);
        }
    }

    #[test]
    fn missing_sitekey_defaults_to_none() {
        let req: DecisionRequest = serde_json::from_str(
            r#"{"url":"http://a.example/x.png","document":"a.example","resource_type":"Image"}"#,
        )
        .unwrap();
        assert_eq!(req.sitekey, None);
        assert_eq!(req.resource_type, ResourceType::Image);
    }

    #[test]
    fn verbs_are_bare_strings() {
        assert_eq!(
            serde_json::to_string(&ClientMessage::Stats).unwrap(),
            "\"Stats\""
        );
        assert_eq!(
            serde_json::to_string(&ClientMessage::Ping).unwrap(),
            "\"Ping\""
        );
        assert_eq!(
            serde_json::to_string(&ServerMessage::Pong).unwrap(),
            "\"Pong\""
        );
    }

    #[test]
    fn health_states_use_lowercase_wire_names() {
        for (state, wire) in [
            (HealthState::Ok, "\"ok\""),
            (HealthState::Degraded, "\"degraded\""),
            (HealthState::Draining, "\"draining\""),
        ] {
            assert_eq!(serde_json::to_string(&state).unwrap(), wire);
            let back: HealthState = serde_json::from_str(wire).unwrap();
            assert_eq!(back, state);
        }
        assert!(serde_json::from_str::<HealthState>("\"Ok\"").is_err());
    }

    #[test]
    fn resilience_verbs_round_trip() {
        let msgs = [
            ClientMessage::Reload(vec![ReloadList {
                source: ListSource::AcceptableAds,
                content: "@@||ads.example^\n! comment\n".to_string(),
            }]),
            ClientMessage::ReloadDelta(vec![ReloadDeltaList {
                source: ListSource::AcceptableAds,
                delta: abpdelta::encode("@@||old.example^\n", "@@||new.example^\n"),
            }]),
            ClientMessage::Health,
        ];
        for m in &msgs {
            let line = serde_json::to_string(m).unwrap();
            let back: ClientMessage = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, m);
        }
        let replies = [
            ServerMessage::Reloaded(ReloadReport {
                generation: 3,
                filters: 412,
            }),
            ServerMessage::ReloadBaseMismatch(ReloadMismatch {
                source: ListSource::AcceptableAds,
                serving_check: 0x1234_5678_9abc_def0,
                generation: 3,
            }),
            ServerMessage::Health(HealthReport {
                state: HealthState::Degraded,
                generation: 2,
                reloads: 2,
                shard_restarts: vec![0, 3, 1],
                shed: 17,
                deadline_timeouts: 4,
                list_checksum: 0xfeed_beef_cafe_f00d,
                distinct_tenants: 12,
            }),
            ServerMessage::Overloaded,
        ];
        for m in &replies {
            let line = serde_json::to_string(m).unwrap();
            assert!(!line.contains('\n'));
            let back: ServerMessage = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, m);
        }
        // Overloaded is a dataless verb: a bare string on the wire.
        assert_eq!(
            serde_json::to_string(&ServerMessage::Overloaded).unwrap(),
            "\"Overloaded\""
        );
    }

    #[test]
    fn response_round_trips() {
        let resp = ServerMessage::Decision(DecisionResponse {
            outcome: RequestOutcome {
                decision: Decision::Block,
                activations: vec![],
            },
            cached: true,
        });
        let line = serde_json::to_string(&resp).unwrap();
        let back: ServerMessage = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);
    }
}
