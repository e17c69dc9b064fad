//! Property tests: the decision cache is invisible, the hand-rolled
//! wire codec is indistinguishable from serde, and pipelining never
//! changes answers.
//!
//! For any request, the service's response — whether the engine just
//! computed it or the shard's decision cache replayed it — must serialize
//! byte-identically to a direct `Engine::match_request` evaluation,
//! activation lists included; [`one_route`] holds that across batch
//! sizes, tenant masks and reloads. The [`wire_equivalence`] module
//! holds the codec properties; [`pipelining`] drives a real TCP server
//! at random depths against the lockstep client.

use crate::protocol::DecisionRequest;
use crate::service::{LocalEval, Service, ServiceConfig};
use abp::{Engine, FilterList, ListSource, Request, ResourceType};
use proptest::prelude::*;

/// A deliberately gnarly list pair: generic blocks, domain-scoped
/// exceptions, sitekey gates, donottrack, and element rules.
const EASYLIST: &str = "\
||adnet0.example^$third-party
||adnet1.example^
||adnet2.example^$script,image
/banner/ads/*
||tracker.example^$donottrack
##.ButtonAd
";
const WHITELIST: &str = "\
@@||adnet0.example/acceptable/$domain=news.example
@@||adnet1.example^$script,domain=blog.example|news.example
@@$sitekey=MFwwDQYJTESTKEY,document
@@||tracker.example/optout/$donottrack
";

fn engine_of(easylist: &str, whitelist: &str) -> Engine {
    let easylist = FilterList::parse(ListSource::EasyList, easylist);
    let whitelist = FilterList::parse(ListSource::AcceptableAds, whitelist);
    Engine::from_lists([&easylist, &whitelist])
}

fn test_engine() -> Engine {
    engine_of(EASYLIST, WHITELIST)
}

fn direct_outcome(engine: &Engine, dr: &DecisionRequest) -> abp::RequestOutcome {
    let mut req = Request::new(&dr.url, &dr.document, dr.resource_type).unwrap();
    if let Some(k) = &dr.sitekey {
        req = req.with_sitekey(k.clone());
    }
    engine.match_request(&req)
}

/// A service on the test engine plus one shard of it holding
/// `cache_capacity` entries.
fn service(cache_capacity: usize) -> (Service, LocalEval) {
    let svc = Service::start(test_engine(), &ServiceConfig::default());
    let local = svc.test_eval(cache_capacity);
    (svc, local)
}

proptest! {
    /// Fresh and cached responses are byte-identical to the engine.
    #[test]
    fn cached_response_identical_to_direct_evaluation(
        host in prop::sample::select(&[
            "adnet0.example",
            "adnet1.example",
            "adnet2.example",
            "cdn.adnet0.example",
            "tracker.example",
            "benign.example",
        ][..]),
        path in "[a-z0-9]{1,8}(/[a-z0-9]{1,8}){0,2}",
        acceptable in any::<bool>(),
        document in prop::sample::select(&[
            "news.example",
            "blog.example",
            "other.example",
            "adnet0.example",
        ][..]),
        resource_type in prop::sample::select(&ResourceType::ALL[..]),
        sitekey in prop::sample::select(&[
            None,
            Some("MFwwDQYJTESTKEY"),
            Some("WRONGKEY"),
        ][..]),
    ) {
        let (svc, mut local) = service(4096);
        let engine = test_engine();
        let infix = if acceptable { "acceptable/" } else { "" };
        let dr = DecisionRequest {
            url: format!("http://{host}/{infix}{path}"),
            document: document.to_string(),
            resource_type,
            sitekey: sitekey.map(str::to_string),
            tenant: None,
        };
        let direct = direct_outcome(&engine, &dr);
        let direct_bytes = serde_json::to_string(&direct).unwrap();

        let fresh = svc.decide(&dr, &mut local).unwrap();
        prop_assert!(!fresh.cached);
        prop_assert_eq!(serde_json::to_string(&fresh.outcome).unwrap(), direct_bytes.clone());

        let replay = svc.decide(&dr, &mut local).unwrap();
        prop_assert!(replay.cached, "second evaluation must hit the cache");
        prop_assert_eq!(serde_json::to_string(&replay.outcome).unwrap(), direct_bytes);
    }

    /// Equivalence survives eviction churn: with a cache far smaller
    /// than the working set, every response (hit or miss) still equals
    /// the direct evaluation.
    #[test]
    fn tiny_cache_never_changes_answers(
        hosts in proptest::collection::vec("[a-p]", 24..=48),
        resource_type in prop::sample::select(&ResourceType::ALL[..]),
    ) {
        let (svc, mut local) = service(6);
        let engine = test_engine();
        for h in &hosts {
            let dr = DecisionRequest {
                url: format!("http://adnet{}.example/unit.js", (h.as_bytes()[0] - b'a') % 3),
                document: format!("{h}.example"),
                resource_type,
                sitekey: None,
                tenant: None,
            };
            let resp = svc.decide(&dr, &mut local).unwrap();
            let direct = direct_outcome(&engine, &dr);
            prop_assert_eq!(
                serde_json::to_string(&resp.outcome).unwrap(),
                serde_json::to_string(&direct).unwrap()
            );
        }
    }
}

/// One route ≡ the engine. Whatever the batch size — there used to be
/// a second route past 512 elements — whatever the tenant mask, and
/// whichever lists a reload just swapped in, `decide_batch_local`
/// answers what `Engine::match_request_masked` answers on the serving
/// lists, replays a repeated batch from the shard's cache byte for
/// byte through the server's dispatch — as one `DecideBatch` line and
/// as one `Decide` line per request, under every tenant mask — and
/// never replays anything across a reload.
mod one_route {
    use super::*;
    use crate::protocol::{DecisionResponse, ReloadList};
    use crate::wire;
    use std::collections::HashSet;

    /// The list pairs a case alternates between: the gnarly pair, and
    /// one where most of its blocks are allowed and vice versa.
    const LISTS: [[&str; 2]; 2] = [
        [EASYLIST, WHITELIST],
        [
            "||adnet0.example^\n||benign.example^$script\n||tracker.example^\n",
            "@@||adnet0.example^$image\n@@||adnet2.example^\n@@||tracker.example^$donottrack\n",
        ],
    ];

    fn reload_lists(which: usize) -> Vec<ReloadList> {
        [ListSource::EasyList, ListSource::AcceptableAds]
            .into_iter()
            .zip(LISTS[which])
            .map(|(source, content)| ReloadList {
                source,
                content: content.to_string(),
            })
            .collect()
    }

    const HOSTS: [&str; 6] = [
        "adnet0.example",
        "adnet1.example",
        "adnet2.example",
        "cdn.adnet0.example",
        "tracker.example",
        "benign.example",
    ];
    const DOCUMENTS: [&str; 4] = [
        "news.example",
        "blog.example",
        "other.example",
        "adnet0.example",
    ];
    const SITEKEYS: [Option<&str>; 3] = [None, Some("MFwwDQYJTESTKEY"), Some("WRONGKEY")];
    const TENANTS: [Option<u64>; 6] = [
        None,
        Some(0),
        Some(0b01),
        Some(0b10),
        Some(0b11),
        Some(u64::MAX),
    ];

    proptest! {
        #[test]
        fn every_batch_size_matches_the_serving_engine(
            sizes in proptest::collection::vec(1usize..=2000, 1..=4),
            reload_before in proptest::collection::vec(any::<bool>(), 4),
            seed in any::<u64>(),
        ) {
            let mut rng = seed;
            let mut below = |n: usize| {
                rng = crate::faults::splitmix64(rng);
                (rng % n as u64) as usize
            };
            let engines = [engine_of(LISTS[0][0], LISTS[0][1]), engine_of(LISTS[1][0], LISTS[1][1])];
            let mut serving = 0;
            let svc = Service::start_with_lists(reload_lists(serving), &ServiceConfig::default())
                .unwrap();
            // Roomy enough that nothing is evicted: "cached" then means
            // exactly "seen since the last reload".
            let mut local = svc.test_eval(16_384);
            let mut scratch = svc.scratch();
            let mut seen = HashSet::new();

            for (size, reload) in sizes.into_iter().zip(reload_before) {
                if reload {
                    serving = 1 - serving;
                    svc.reload(&reload_lists(serving)).unwrap();
                    seen.clear();
                }
                let mut reqs: Vec<DecisionRequest> = Vec::with_capacity(size);
                for i in 0..size {
                    // Every fourth request or so repeats an earlier one
                    // of its batch.
                    if i > 0 && below(4) == 0 {
                        reqs.push(reqs[below(i)].clone());
                        continue;
                    }
                    let infix = ["", "acceptable/", "optout/", "banner/ads/"][below(4)];
                    reqs.push(DecisionRequest {
                        url: format!("http://{}/{infix}u{}", HOSTS[below(6)], below(50)),
                        document: DOCUMENTS[below(4)].to_string(),
                        resource_type: ResourceType::ALL[below(ResourceType::ALL.len())],
                        sitekey: SITEKEYS[below(3)].map(str::to_string),
                        tenant: match below(7) {
                            6 => Some(seed.rotate_left(i as u32)),
                            known => TENANTS[known],
                        },
                    });
                }
                let refs: Vec<_> = reqs.iter().map(DecisionRequest::as_request_ref).collect();
                let direct: Vec<abp::RequestOutcome> = reqs
                    .iter()
                    .map(|dr| {
                        let mut req = Request::new(&dr.url, &dr.document, dr.resource_type).unwrap();
                        if let Some(k) = &dr.sitekey {
                            req = req.with_sitekey(k.clone());
                        }
                        engines[serving].match_request_masked(&req, dr.tenant.unwrap_or(u64::MAX))
                    })
                    .collect();

                svc.decide_batch_local(&refs, &mut scratch, &mut local).unwrap();
                prop_assert_eq!(scratch.responses().len(), size);
                for ((dr, want), got) in reqs.iter().zip(&direct).zip(scratch.responses()) {
                    prop_assert_eq!(&got.outcome, want, "{:?} on lists {}", dr, serving);
                    // A hit must have been computed by the serving
                    // generation, in this shard, since the last reload.
                    let key = (
                        dr.url.clone(),
                        dr.document.clone(),
                        dr.resource_type,
                        dr.sitekey.clone(),
                        dr.tenant.unwrap_or(u64::MAX),
                    );
                    prop_assert_eq!(got.cached, !seen.insert(key), "{:?}", dr);
                }

                // The same batch again, as the server answers it: all
                // hits, spliced from the cache, and the reply line is the
                // one the engine's own outcomes encode to — as one
                // `DecideBatch` line and as a `Decide` line each.
                let all_hits: Vec<DecisionResponse> = direct
                    .into_iter()
                    .map(|outcome| DecisionResponse { outcome, cached: true })
                    .collect();
                let mut answer = |write: &dyn Fn(&mut Vec<u8>)| {
                    let mut line = Vec::new();
                    write(&mut line);
                    let mut reply = Vec::new();
                    crate::server::answer_line(&svc, &line, &mut scratch, &mut local, &mut reply);
                    reply
                };
                let replayed = answer(&|out| wire::write_decide_batch(&reqs, out));
                let mut expected = Vec::new();
                wire::write_batch_reply(&all_hits, &mut expected);
                expected.push(b'\n');
                prop_assert_eq!(replayed, expected);
                for (dr, hit) in reqs.iter().zip(&all_hits) {
                    let replayed = answer(&|out| wire::write_decide(dr, out));
                    let mut expected = Vec::new();
                    wire::write_decision_reply(hit, &mut expected);
                    expected.push(b'\n');
                    prop_assert_eq!(replayed, expected, "{:?}", dr);
                }
            }
        }
    }
}

/// The streaming serializer and hand-rolled wire writers must be
/// byte-identical to the serde path, and the borrowed parsers must
/// accept everything serde emits.
mod wire_equivalence {
    use super::*;
    use crate::protocol::{
        ClientMessage, DecisionResponse, HealthReport, HealthState, ReloadDeltaList, ReloadList,
        ReloadMismatch, ReloadReport, ServerMessage, ShardStats, StatsReport,
    };
    use crate::wire;
    use abp::{Activation, Decision, ListSource, MatchKind, RequestOutcome};

    /// Reconstruct an owned [`ClientMessage`] from the borrowed parse.
    fn to_owned_client(parsed: wire::ClientMessageRef<'_>) -> ClientMessage {
        match parsed {
            wire::ClientMessageRef::Decide(r) => ClientMessage::Decide(r.to_owned_request()),
            wire::ClientMessageRef::DecideBatch(rs) => ClientMessage::DecideBatch(
                rs.iter()
                    .map(wire::DecisionRequestRef::to_owned_request)
                    .collect(),
            ),
            wire::ClientMessageRef::Stats => ClientMessage::Stats,
            wire::ClientMessageRef::Ping => ClientMessage::Ping,
            wire::ClientMessageRef::Reload(ls) => ClientMessage::Reload(ls),
            wire::ClientMessageRef::ReloadDelta(ds) => ClientMessage::ReloadDelta(ds),
            wire::ClientMessageRef::Health => ClientMessage::Health,
            wire::ClientMessageRef::Shutdown => ClientMessage::Shutdown,
        }
    }

    /// Layout choices for a hand-rendered line, drawn from a seed.
    struct Layout(u64);

    impl Layout {
        fn below(&mut self, n: usize) -> usize {
            self.0 = crate::faults::splitmix64(self.0);
            (self.0 % n as u64) as usize
        }

        /// Inter-token whitespace (`\r` included: only `\n` ends a line).
        fn ws(&mut self, out: &mut String) {
            out.push_str(["", "", " ", "\t", " \r "][self.below(5)]);
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i + 1));
            }
        }

        /// `s` as a JSON string that decodes to `s` but is escaped the
        /// way a foreign encoder might: `\/`, `\uXXXX` (surrogate
        /// pairs included) and either case of hex digit, at random.
        fn json_string(&mut self, s: &str) -> String {
            let mut out = String::from("\"");
            for ch in s.chars() {
                let must = ch == '"' || ch == '\\' || (ch as u32) < 0x20;
                match (must, self.below(8)) {
                    (false, 0) | (true, 0..=3) => {
                        for unit in ch.encode_utf16(&mut [0; 2]) {
                            if self.below(2) == 0 {
                                out.push_str(&format!("\\u{unit:04x}"));
                            } else {
                                out.push_str(&format!("\\u{unit:04X}"));
                            }
                        }
                    }
                    (false, 1) if ch == '/' => out.push_str("\\/"),
                    (false, _) => out.push(ch),
                    (true, _) => match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        _ => out.push_str(&format!("\\u{:04x}", ch as u32)),
                    },
                }
            }
            out.push('"');
            out
        }

        /// One request object: fields in any order, absent options as
        /// `null` or left out, up to two fields no parser knows.
        fn request_object(&mut self, r: &DecisionRequest, out: &mut String) {
            let mut fields: Vec<(&str, String)> = vec![
                ("url", self.json_string(&r.url)),
                ("document", self.json_string(&r.document)),
                (
                    "resource_type",
                    serde_json::to_string(&r.resource_type).unwrap(),
                ),
            ];
            match &r.sitekey {
                Some(k) => fields.push(("sitekey", self.json_string(k))),
                None if self.below(2) == 0 => fields.push(("sitekey", "null".to_string())),
                None => {}
            }
            match r.tenant {
                Some(t) => fields.push(("tenant", t.to_string())),
                None if self.below(2) == 0 => fields.push(("tenant", "null".to_string())),
                None => {}
            }
            let fields = fields
                .into_iter()
                .map(|(key, value)| (format!("\"{key}\""), value))
                .collect();
            self.object(fields, out);
        }

        /// An object of `fields` (keys and values already rendered) and
        /// up to two fields no parser knows, in any order, with
        /// whitespace around every token.
        fn object(&mut self, mut fields: Vec<(String, String)>, out: &mut String) {
            const UNKNOWN: [&str; 6] = [
                r#"{"a":[1,2,{"b":null}],"c":"]},{\""}"#,
                r#""quote \" brace } bracket ] comma ,""#,
                "-1.5e3",
                "true",
                "[]",
                "[[ ],{ }]",
            ];
            for name in ["future", "x"].iter().take(self.below(3)) {
                fields.push((
                    format!("\"{name}\""),
                    UNKNOWN[self.below(UNKNOWN.len())].to_string(),
                ));
            }
            self.shuffle(&mut fields);
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                self.ws(out);
                out.push_str(key);
                self.ws(out);
                out.push(':');
                self.ws(out);
                out.push_str(value);
                self.ws(out);
            }
            out.push('}');
        }

        /// A unit variant's name as [`Layout::json_string`] renders it.
        fn variant_name<T: serde::Serialize>(&mut self, v: &T) -> String {
            let name = serde_json::to_string(v).unwrap();
            self.json_string(name.trim_matches('"'))
        }

        /// `(key, value)` with the key rendered by
        /// [`Layout::json_string`].
        fn field(&mut self, key: &str, value: String) -> (String, String) {
            (self.json_string(key), value)
        }

        /// One decision object as a foreign encoder might write it: the
        /// fields of it, its outcome and every activation in any order,
        /// keys, enum names and strings escaped at random, `donottrack`
        /// left out when false (at random), unknown fields added.
        fn decision_object(&mut self, r: &DecisionResponse, out: &mut String) {
            let mut activations = String::from("[");
            for (i, a) in r.outcome.activations.iter().enumerate() {
                if i > 0 {
                    activations.push(',');
                }
                self.ws(&mut activations);
                let filter = self.json_string(&a.filter);
                let source = self.variant_name(&a.source);
                let kind = self.variant_name(&a.kind);
                let subject = self.json_string(&a.subject);
                let mut fields = vec![
                    self.field("filter", filter),
                    self.field("source", source),
                    self.field("kind", kind),
                    self.field("subject", subject),
                ];
                if a.donottrack || self.below(2) == 0 {
                    fields.push(self.field("donottrack", a.donottrack.to_string()));
                }
                self.object(fields, &mut activations);
                self.ws(&mut activations);
            }
            activations.push(']');
            let decision = self.variant_name(&r.outcome.decision);
            let fields = vec![
                self.field("decision", decision),
                self.field("activations", activations),
            ];
            let mut outcome = String::new();
            self.object(fields, &mut outcome);
            let fields = vec![
                self.field("outcome", outcome),
                self.field("cached", r.cached.to_string()),
            ];
            self.object(fields, out);
        }

        /// A `Decision` line of `resps[0]`, or a `Batch` line of all of
        /// `resps`, in foreign layouts throughout.
        fn reply_line(&mut self, resps: &[DecisionResponse], single: bool) -> String {
            let mut line = String::new();
            self.ws(&mut line);
            line.push('{');
            self.ws(&mut line);
            line.push_str(if single { "\"Decision\"" } else { "\"Batch\"" });
            self.ws(&mut line);
            line.push(':');
            self.ws(&mut line);
            if single {
                self.decision_object(&resps[0], &mut line);
            } else {
                line.push('[');
                for (i, r) in resps.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    self.ws(&mut line);
                    self.decision_object(r, &mut line);
                    self.ws(&mut line);
                }
                line.push(']');
            }
            self.ws(&mut line);
            line.push('}');
            self.ws(&mut line);
            line
        }

        /// A `DecideBatch` line of those objects.
        fn decide_batch_line(&mut self, reqs: &[DecisionRequest]) -> String {
            let mut line = String::new();
            self.ws(&mut line);
            line.push('{');
            self.ws(&mut line);
            line.push_str("\"DecideBatch\"");
            self.ws(&mut line);
            line.push(':');
            self.ws(&mut line);
            line.push('[');
            for (i, r) in reqs.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                self.ws(&mut line);
                self.request_object(r, &mut line);
                self.ws(&mut line);
            }
            line.push(']');
            self.ws(&mut line);
            line.push('}');
            self.ws(&mut line);
            line
        }

        /// Damage `line`: cut it short, drop a character, or drop in
        /// one that JSON structure hangs on.
        fn mutate(&mut self, line: &str) -> String {
            const HOSTILE: [char; 10] = ['"', '\\', '{', '}', '[', ']', ',', ':', 'u', ' '];
            let mut chars: Vec<char> = line.chars().collect();
            for _ in 0..=self.below(3) {
                let at = self.below(chars.len() + 1);
                match self.below(3) {
                    0 => chars.truncate(at),
                    1 if at < chars.len() => drop(chars.remove(at)),
                    _ => chars.insert(at, HOSTILE[self.below(HOSTILE.len())]),
                }
            }
            chars.into_iter().collect()
        }

        /// Damage `line` below the character level: insert a byte,
        /// delete one, or flip a bit, at random offsets. What is no
        /// longer UTF-8 comes back as U+FFFD, as a lossy reader would
        /// hand it on.
        fn mutate_bytes(&mut self, line: &str) -> String {
            let mut bytes = line.as_bytes().to_vec();
            for _ in 0..=self.below(3) {
                let at = self.below(bytes.len() + 1);
                match self.below(3) {
                    0 => bytes.insert(at, self.below(256) as u8),
                    _ if at == bytes.len() => {}
                    1 => drop(bytes.remove(at)),
                    _ => bytes[at] ^= 1 << self.below(8),
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
    }

    /// What the two message parsers must hold to on *any* input: they
    /// return, and whatever they accept is a value of the protocol —
    /// serde writes it, and they read that back to the same value.
    fn assert_parsers_return_protocol_values(line: &str) {
        let mut spans = Vec::new();
        let with_spans = wire::parse_client_message_spans(line, &mut spans);
        assert_eq!(with_spans, wire::parse_client_message(line), "{line:?}");
        if let Ok(parsed) = with_spans {
            let msg = to_owned_client(parsed);
            let again = serde_json::to_string(&msg).unwrap();
            let reparsed = wire::parse_client_message(&again).map(to_owned_client);
            assert_eq!(reparsed, Ok(msg), "{line:?}");
        }
        if let Ok(msg) = wire::parse_server_message(line) {
            let again = serde_json::to_string(&msg).unwrap();
            assert_eq!(wire::parse_server_message(&again), Ok(msg), "{line:?}");
        }
    }

    fn batch_of(parsed: wire::ClientMessageRef<'_>) -> Vec<DecisionRequest> {
        match parsed {
            wire::ClientMessageRef::DecideBatch(rs) => rs
                .iter()
                .map(wire::DecisionRequestRef::to_owned_request)
                .collect(),
            other => panic!("not a DecideBatch: {other:?}"),
        }
    }

    /// What the two span finders must hold to on *any* input: they
    /// return, and every span they report is one whole element — in
    /// order, between the separators, and a complete message when
    /// framed alone.
    fn assert_spans_are_whole_elements(line: &str) {
        let mut spans = Vec::new();
        if let Ok(parsed) = wire::parse_client_message_spans(line, &mut spans) {
            if let wire::ClientMessageRef::DecideBatch(reqs) = &parsed {
                assert_eq!(spans.len(), reqs.len());
                assert_separated(line, &spans);
                for (span, req) in spans.iter().zip(reqs) {
                    let alone = format!("{{\"Decide\":{}}}", &line[span.clone()]);
                    assert_eq!(
                        wire::parse_client_message(&alone),
                        Ok(wire::ClientMessageRef::Decide(req.clone())),
                        "span {span:?} of {line:?}"
                    );
                }
            } else {
                assert!(spans.is_empty());
            }
        }
        if wire::split_decisions(line, &mut spans).is_ok() {
            assert_separated(line, &spans);
            for span in &spans {
                let alone = format!("{{\"Decision\":{}}}", &line[span.clone()]);
                let mut again = Vec::new();
                assert_eq!(
                    wire::split_decisions(&alone, &mut again),
                    Ok(wire::DecisionShape::Single),
                    "span {span:?} of {line:?}"
                );
                assert_eq!((again.len(), &again[0]), (1, &(12..alone.len() - 1)));
            }
            if let Ok(typed) = wire::parse_server_message(line) {
                match typed {
                    ServerMessage::Decision(_) => assert_eq!(spans.len(), 1),
                    ServerMessage::Batch(b) => assert_eq!(spans.len(), b.len()),
                    other => panic!("split a {other:?}"),
                }
            }
        } else {
            assert!(
                !matches!(
                    wire::parse_server_message(line),
                    Ok(ServerMessage::Decision(_) | ServerMessage::Batch(_))
                ),
                "declined a reply the typed parser takes: {line:?}"
            );
        }
    }

    /// Spans are objects, in order, with exactly one comma (and
    /// whitespace) between neighbours.
    fn assert_separated(line: &str, spans: &[std::ops::Range<usize>]) {
        for span in spans {
            let raw = &line[span.clone()];
            assert!(raw.starts_with('{') && raw.ends_with('}'), "{raw:?}");
        }
        for pair in spans.windows(2) {
            assert_eq!(line[pair[0].end..pair[1].start].trim(), ",", "{line:?}");
        }
    }

    fn arbitrary_requests(
        urls: &[String],
        document: &str,
        resource_type: ResourceType,
        sitekey: Option<&str>,
        tenant: Option<u64>,
    ) -> Vec<DecisionRequest> {
        urls.iter()
            .enumerate()
            .map(|(i, u)| DecisionRequest {
                url: u.clone(),
                document: document.to_string(),
                resource_type,
                // Vary the options along the batch.
                sitekey: sitekey.filter(|_| i % 2 == 0).map(str::to_string),
                tenant: tenant.filter(|_| i % 3 != 1),
            })
            .collect()
    }

    fn arbitrary_responses(texts: &[String], cached: bool) -> Vec<DecisionResponse> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| DecisionResponse {
                outcome: RequestOutcome {
                    decision: [
                        Decision::NoMatch,
                        Decision::Block,
                        Decision::AllowedByException,
                    ][i % 3],
                    activations: (0..i % 3)
                        .map(|j| Activation {
                            filter: t.as_str().into(),
                            source: ListSource::AcceptableAds,
                            kind: MatchKind::AllowRequest,
                            subject: texts[(i + j) % texts.len()].as_str().into(),
                            donottrack: j == 1,
                        })
                        .collect(),
                },
                cached: cached ^ (i % 2 == 0),
            })
            .collect()
    }

    proptest! {
        /// Splice ≡ re-code, request side: however a valid
        /// `DecideBatch` line is laid out, the spans are its elements,
        /// and any sub-batch spliced from them parses to exactly those
        /// elements of the parsed original.
        #[test]
        fn spliced_sub_batches_parse_like_the_partition(
            urls in proptest::collection::vec(".{0,24}", 0..7),
            document in ".{0,16}",
            resource_type in prop::sample::select(&ResourceType::ALL[..]),
            sitekey in prop::sample::select(&[
                None,
                Some("MFwwDQYJTESTKEY"),
                Some("key with \"quotes\", \\slashes\\ and /"),
                Some(""),
            ][..]),
            tenant in prop::sample::select(&[None, Some(0u64), Some(0b1011), Some(u64::MAX)][..]),
            seed in any::<u64>(),
        ) {
            let reqs = arbitrary_requests(&urls, &document, resource_type, sitekey, tenant);
            let mut layout = Layout(seed);
            let line = layout.decide_batch_line(&reqs);
            let mut spans = Vec::new();
            let parsed = wire::parse_client_message_spans(&line, &mut spans).unwrap();
            prop_assert_eq!(&parsed, &wire::parse_client_message(&line).unwrap());
            prop_assert_eq!(batch_of(parsed), reqs.clone());
            prop_assert_eq!(spans.len(), reqs.len());

            let slots = 1 + layout.below(4);
            let owner: Vec<usize> = reqs.iter().map(|_| layout.below(slots)).collect();
            for slot in 0..slots {
                let members: Vec<usize> = (0..reqs.len()).filter(|&i| owner[i] == slot).collect();
                let mut sub = Vec::new();
                wire::splice_decide_batch(
                    members.iter().map(|&i| line[spans[i].clone()].as_bytes()),
                    &mut sub,
                );
                let sub = String::from_utf8(sub).unwrap();
                let expected: Vec<DecisionRequest> =
                    members.iter().map(|&i| reqs[i].clone()).collect();
                prop_assert_eq!(batch_of(wire::parse_client_message(&sub).unwrap()), expected);
            }
        }

        /// Splice ≡ re-code, reply side: splitting a `Batch` line into
        /// raw decisions and re-joining them in any order gives the
        /// bytes `write_batch_reply` gives for the typed parse in that
        /// order.
        #[test]
        fn batch_replies_split_and_rejoin_byte_identically(
            texts in proptest::collection::vec(".{0,20}", 1..7),
            cached in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let resps = arbitrary_responses(&texts, cached);
            let mut line = Vec::new();
            wire::write_batch_reply(&resps, &mut line);
            let line = String::from_utf8(line).unwrap();
            let typed = match wire::parse_server_message(&line).unwrap() {
                ServerMessage::Batch(b) => b,
                other => panic!("not a Batch: {other:?}"),
            };
            let mut spans = Vec::new();
            prop_assert_eq!(
                wire::split_decisions(&line, &mut spans),
                Ok(wire::DecisionShape::Batch)
            );
            prop_assert_eq!(spans.len(), typed.len());
            let first = line[spans[0].clone()].to_string();

            let mut order: Vec<usize> = (0..typed.len()).collect();
            Layout(seed).shuffle(&mut order);
            let mut joined = Vec::new();
            wire::splice_batch_reply(
                order.iter().map(|&i| line[spans[i].clone()].as_bytes()),
                &mut joined,
            );
            let permuted: Vec<DecisionResponse> = order.iter().map(|&i| typed[i].clone()).collect();
            let mut recoded = Vec::new();
            wire::write_batch_reply(&permuted, &mut recoded);
            prop_assert_eq!(joined, recoded);

            // A lone `Decision` line is its one decision.
            let mut single = Vec::new();
            wire::write_decision_reply(&resps[0], &mut single);
            let single = String::from_utf8(single).unwrap();
            prop_assert_eq!(
                wire::split_decisions(&single, &mut spans),
                Ok(wire::DecisionShape::Single)
            );
            prop_assert_eq!(&single[spans[0].clone()], first);
        }

        /// Neither span finder panics, and neither reports a span that
        /// is not one whole element — on arbitrary text and on valid
        /// lines cut short or salted with quotes, backslashes and
        /// brackets.
        #[test]
        fn span_finders_never_panic_or_straddle(
            junk in ".{0,48}",
            urls in proptest::collection::vec(".{0,12}", 1..4),
            seed in any::<u64>(),
        ) {
            assert_spans_are_whole_elements(&junk);
            let mut layout = Layout(seed);
            let reqs = arbitrary_requests(&urls, "doc.example", ResourceType::Script, Some("K\\"), Some(5));
            let request_line = layout.decide_batch_line(&reqs);
            let mut reply_line = Vec::new();
            wire::write_batch_reply(&arbitrary_responses(&urls, false), &mut reply_line);
            let reply_line = String::from_utf8(reply_line).unwrap();
            for valid in [&request_line, &reply_line] {
                assert_spans_are_whole_elements(valid);
                for _ in 0..8 {
                    assert_spans_are_whole_elements(&layout.mutate(valid));
                }
            }
        }

        /// The same, one level up: neither message parser panics, and
        /// what either accepts is a protocol value — on arbitrary bytes
        /// read lossily, and on valid lines of every hot shape with
        /// bytes inserted, deleted and bit-flipped.
        #[test]
        fn message_parsers_never_panic_on_arbitrary_bytes(
            junk in proptest::collection::vec(any::<u8>(), 0..64),
            urls in proptest::collection::vec(".{0,12}", 1..4),
            error_text in ".{0,24}",
            seed in any::<u64>(),
        ) {
            assert_parsers_return_protocol_values(&String::from_utf8_lossy(&junk));
            let mut layout = Layout(seed);
            let reqs = arbitrary_requests(&urls, "doc.example", ResourceType::Image, Some("K\"\n"), Some(9));
            let resps = arbitrary_responses(&urls, true);
            let written = |write: &dyn Fn(&mut Vec<u8>)| {
                let mut line = Vec::new();
                write(&mut line);
                String::from_utf8(line).unwrap()
            };
            let valid = [
                layout.decide_batch_line(&reqs),
                written(&|out| wire::write_decide(&reqs[0], out)),
                written(&|out| wire::write_batch_reply(&resps, out)),
                written(&|out| wire::write_decision_reply(&resps[resps.len() - 1], out)),
                written(&|out| wire::write_error(&error_text, out)),
                written(&|out| wire::write_stats_reply(&StatsReport::default(), out)),
            ];
            for line in &valid {
                assert_parsers_return_protocol_values(line);
                for _ in 0..8 {
                    assert_parsers_return_protocol_values(&layout.mutate_bytes(line));
                    assert_parsers_return_protocol_values(&layout.mutate(line));
                }
            }
        }
    }

    /// [`arbitrary_responses`] with the activations' list sources and
    /// match kinds drawn from every variant.
    fn varied_responses(
        texts: &[String],
        cached: bool,
        layout: &mut Layout,
    ) -> Vec<DecisionResponse> {
        const SOURCES: [ListSource; 3] = [
            ListSource::EasyList,
            ListSource::AcceptableAds,
            ListSource::Custom,
        ];
        const KINDS: [MatchKind; 7] = [
            MatchKind::BlockRequest,
            MatchKind::AllowRequest,
            MatchKind::HideElement,
            MatchKind::AllowElement,
            MatchKind::DocumentAllow,
            MatchKind::ElemhideAllow,
            MatchKind::SitekeyAllow,
        ];
        let mut resps = arbitrary_responses(texts, cached);
        for a in resps.iter_mut().flat_map(|r| &mut r.outcome.activations) {
            a.source = SOURCES[layout.below(SOURCES.len())];
            a.kind = KINDS[layout.below(KINDS.len())];
        }
        resps
    }

    /// The message readers equal the field walker alone on `line`:
    /// same value or same error, same spans.
    fn assert_canonical_readers_agree_with_the_walker(line: &str) {
        let (mut spans, mut walked_spans) = (Vec::new(), Vec::new());
        assert_eq!(
            wire::parse_client_message_spans(line, &mut spans),
            wire::walked::parse_client_message_spans(line, &mut walked_spans),
            "{line:?}"
        );
        assert_eq!(spans, walked_spans, "{line:?}");
        assert_eq!(
            wire::parse_server_message(line),
            wire::walked::parse_server_message(line),
            "{line:?}"
        );
        assert_eq!(
            wire::split_decisions(line, &mut spans),
            wire::walked::split_decisions(line, &mut walked_spans),
            "{line:?}"
        );
        assert_eq!(spans, walked_spans, "{line:?}");
    }

    proptest! {
        /// Replies in foreign layouts — fields shuffled, whitespace
        /// between tokens, escaped keys, enum names and strings,
        /// `donottrack` left out, unknown fields — take the field
        /// walker, and read as serde reads them; `split_decisions`
        /// finds each decision, and each span alone re-parses to its
        /// response.
        #[test]
        fn foreign_reply_layouts_parse_like_serde(
            texts in proptest::collection::vec(".{0,20}", 1..7),
            cached in any::<bool>(),
            single in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut layout = Layout(seed);
            let resps = varied_responses(&texts, cached, &mut layout);
            let line = layout.reply_line(&resps, single);
            let expected = if single {
                ServerMessage::Decision(resps[0].clone())
            } else {
                ServerMessage::Batch(resps.clone())
            };
            let by_serde: ServerMessage = serde_json::from_str(&line).unwrap();
            prop_assert_eq!(&by_serde, &expected, "{:?}", line);
            prop_assert_eq!(wire::parse_server_message(&line), Ok(by_serde));

            let mut spans = Vec::new();
            let shape = wire::split_decisions(&line, &mut spans);
            let (shape_expected, count) = if single {
                (wire::DecisionShape::Single, 1)
            } else {
                (wire::DecisionShape::Batch, resps.len())
            };
            prop_assert_eq!(shape, Ok(shape_expected));
            prop_assert_eq!(spans.len(), count);
            for (span, resp) in spans.iter().zip(&resps) {
                let alone = format!("{{\"Decision\":{}}}", &line[span.clone()]);
                prop_assert_eq!(
                    wire::parse_server_message(&alone),
                    Ok(ServerMessage::Decision(resp.clone()))
                );
            }
        }

        /// Canonical reader ≡ field walker: on the writers' own lines,
        /// on foreign layouts of the same messages, and on both damaged
        /// at the character and the byte level, every message reader
        /// returns what the field walker alone returns — the same value,
        /// or the same error — and the span finders the same spans.
        #[test]
        fn canonical_readers_agree_with_the_walker(
            urls in proptest::collection::vec(".{0,16}", 1..5),
            sitekey in prop::sample::select(&[None, Some("MFwwDQYJTESTKEY"), Some("k\"\\/\n")][..]),
            tenant in prop::sample::select(&[None, Some(0u64), Some(u64::MAX)][..]),
            resource_type in prop::sample::select(&ResourceType::ALL[..]),
            cached in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut layout = Layout(seed);
            let reqs = arbitrary_requests(&urls, "doc.example", resource_type, sitekey, tenant);
            let resps = varied_responses(&urls, cached, &mut layout);
            let written = |write: &dyn Fn(&mut Vec<u8>)| {
                let mut line = Vec::new();
                write(&mut line);
                String::from_utf8(line).unwrap()
            };
            let lines = [
                written(&|out| wire::write_decide_batch(&reqs, out)),
                written(&|out| wire::write_decide(&reqs[0], out)),
                written(&|out| wire::write_batch_reply(&resps, out)),
                written(&|out| wire::write_decision_reply(&resps[0], out)),
                layout.decide_batch_line(&reqs),
                layout.reply_line(&resps, false),
            ];
            for line in &lines {
                assert_canonical_readers_agree_with_the_walker(line);
                for _ in 0..8 {
                    assert_canonical_readers_agree_with_the_walker(&layout.mutate(line));
                    assert_canonical_readers_agree_with_the_walker(&layout.mutate_bytes(line));
                }
            }
        }
    }

    proptest! {
        /// Client messages: `write_decide`/`write_decide_batch` bytes
        /// equal `serde_json::to_string` equal `serde_json::to_vec`,
        /// and `parse_client_message` round-trips the value — for
        /// arbitrary field content including quotes, backslashes,
        /// control characters, and non-ASCII.
        #[test]
        fn client_messages_byte_identical_and_round_trip(
            urls in proptest::collection::vec(".{0,24}", 0..4),
            document in ".{0,16}",
            resource_type in prop::sample::select(&ResourceType::ALL[..]),
            sitekey in prop::sample::select(&[
                None,
                Some("MFwwDQYJTESTKEY"),
                Some("key with \"quotes\" and \\slashes\\"),
                Some("\tkey\nwith controls\u{7f}"),
                Some(""),
            ][..]),
            tenant in prop::sample::select(&[
                None,
                Some(0u64),
                Some(1),
                Some(0b1011),
                Some(u64::MAX),
            ][..]),
            single in any::<bool>(),
        ) {
            let reqs: Vec<DecisionRequest> = urls
                .iter()
                .map(|u| DecisionRequest {
                    url: u.clone(),
                    document: document.clone(),
                    resource_type,
                    sitekey: sitekey.map(str::to_string),
                    tenant,
                })
                .collect();
            let msg = match (single, reqs.first()) {
                (true, Some(r)) => ClientMessage::Decide(r.clone()),
                _ => ClientMessage::DecideBatch(reqs.clone()),
            };

            let serde_line = serde_json::to_string(&msg).unwrap();
            let vec_line = String::from_utf8(serde_json::to_vec(&msg).unwrap()).unwrap();
            prop_assert_eq!(&serde_line, &vec_line, "to_vec must match to_string");

            let mut hand = Vec::new();
            match &msg {
                ClientMessage::Decide(r) => wire::write_decide(r, &mut hand),
                ClientMessage::DecideBatch(rs) => wire::write_decide_batch(rs, &mut hand),
                _ => unreachable!(),
            }
            prop_assert_eq!(
                std::str::from_utf8(&hand).unwrap(),
                &serde_line,
                "hand-rolled writer must match serde"
            );

            let parsed = wire::parse_client_message(&serde_line).unwrap();
            prop_assert_eq!(to_owned_client(parsed), msg, "borrowed parse must round-trip");

            // The resilience verbs carry the same arbitrary strings as
            // list content; writers must still match serde byte for
            // byte and parses must round-trip.
            let extra = vec![
                ClientMessage::Reload(
                    urls.iter()
                        .enumerate()
                        .map(|(i, u)| ReloadList {
                            source: if i % 2 == 0 {
                                ListSource::EasyList
                            } else {
                                ListSource::AcceptableAds
                            },
                            content: u.clone(),
                        })
                        .collect(),
                ),
                ClientMessage::ReloadDelta(
                    urls.iter()
                        .enumerate()
                        .map(|(i, u)| ReloadDeltaList {
                            source: if i % 2 == 0 {
                                ListSource::AcceptableAds
                            } else {
                                ListSource::Custom
                            },
                            delta: abpdelta::encode(&document, u),
                        })
                        .collect(),
                ),
                ClientMessage::Health,
            ];
            for msg in extra {
                let serde_line = serde_json::to_string(&msg).unwrap();
                let vec_line = String::from_utf8(serde_json::to_vec(&msg).unwrap()).unwrap();
                prop_assert_eq!(&serde_line, &vec_line, "to_vec must match to_string");
                let mut hand = Vec::new();
                match &msg {
                    ClientMessage::Reload(ls) => wire::write_reload(ls, &mut hand),
                    ClientMessage::ReloadDelta(ds) => wire::write_reload_delta(ds, &mut hand),
                    ClientMessage::Health => wire::write_health_request(&mut hand),
                    _ => unreachable!(),
                }
                prop_assert_eq!(
                    std::str::from_utf8(&hand).unwrap(),
                    &serde_line,
                    "hand-rolled writer must match serde"
                );
                let parsed = wire::parse_client_message(&serde_line).unwrap();
                prop_assert_eq!(to_owned_client(parsed), msg, "borrowed parse must round-trip");
            }
        }

        /// Server messages: every reply writer is byte-identical to
        /// serde and `parse_server_message` round-trips it.
        #[test]
        fn server_messages_byte_identical_and_round_trip(
            filter in ".{0,20}",
            subject in ".{0,20}",
            source in prop::sample::select(&[
                ListSource::EasyList,
                ListSource::AcceptableAds,
                ListSource::Custom,
            ][..]),
            kind in prop::sample::select(&[
                MatchKind::BlockRequest,
                MatchKind::AllowRequest,
                MatchKind::HideElement,
                MatchKind::AllowElement,
                MatchKind::DocumentAllow,
                MatchKind::ElemhideAllow,
                MatchKind::SitekeyAllow,
            ][..]),
            decision in prop::sample::select(&[
                Decision::NoMatch,
                Decision::Block,
                Decision::AllowedByException,
            ][..]),
            donottrack in any::<bool>(),
            cached in any::<bool>(),
            activations in 0usize..3,
            batch_len in 0usize..3,
            counters in proptest::array::uniform5(0u64..1_000_000),
            error_text in ".{0,32}",
            health_state in prop::sample::select(&[
                HealthState::Ok,
                HealthState::Degraded,
                HealthState::Draining,
            ][..]),
        ) {
            let resp = DecisionResponse {
                outcome: RequestOutcome {
                    decision,
                    activations: (0..activations)
                        .map(|_| Activation {
                            filter: filter.as_str().into(),
                            source,
                            kind,
                            subject: subject.as_str().into(),
                            donottrack,
                        })
                        .collect(),
                },
                cached,
            };
            let stats = StatsReport {
                requests: counters[0],
                cache_hits: counters[1],
                blocks: counters[2],
                exceptions: counters[3],
                p50_us: counters[4],
                p99_us: counters[0],
                shards: vec![
                    ShardStats {
                        requests: counters[1],
                        cache_hits: counters[2],
                        blocks: counters[3],
                        exceptions: counters[4],
                        p50_us: counters[0],
                        p99_us: counters[1],
                    };
                    batch_len
                ],
                distinct_tenants: counters[2],
                tenant_requests_by_lists: counters[..batch_len.min(5)].to_vec(),
                tenant_cache_hits_by_lists: counters[..5 - batch_len.min(5)].to_vec(),
            };
            let cases: Vec<ServerMessage> = vec![
                ServerMessage::Decision(resp.clone()),
                ServerMessage::Batch(vec![resp; batch_len]),
                ServerMessage::Stats(stats),
                ServerMessage::Pong,
                ServerMessage::Reloaded(ReloadReport {
                    generation: counters[0],
                    filters: counters[1],
                }),
                ServerMessage::Health(HealthReport {
                    state: health_state,
                    generation: counters[2],
                    reloads: counters[3],
                    shard_restarts: counters[..batch_len.min(5)].to_vec(),
                    shed: counters[4],
                    deadline_timeouts: counters[0],
                    list_checksum: counters[1],
                    distinct_tenants: counters[2],
                }),
                ServerMessage::ReloadBaseMismatch(ReloadMismatch {
                    source,
                    serving_check: counters[2],
                    generation: counters[3],
                }),
                ServerMessage::Overloaded,
                ServerMessage::ShuttingDown,
                ServerMessage::Error(error_text),
            ];
            for msg in cases {
                let serde_line = serde_json::to_string(&msg).unwrap();
                let vec_line = String::from_utf8(serde_json::to_vec(&msg).unwrap()).unwrap();
                prop_assert_eq!(&serde_line, &vec_line, "to_vec must match to_string");

                let mut hand = Vec::new();
                match &msg {
                    ServerMessage::Decision(r) => wire::write_decision_reply(r, &mut hand),
                    ServerMessage::Batch(rs) => wire::write_batch_reply(rs, &mut hand),
                    ServerMessage::Stats(s) => wire::write_stats_reply(s, &mut hand),
                    ServerMessage::Pong => wire::write_pong(&mut hand),
                    ServerMessage::Reloaded(r) => wire::write_reloaded(r, &mut hand),
                    ServerMessage::ReloadBaseMismatch(m) => {
                        wire::write_reload_base_mismatch(m, &mut hand)
                    }
                    ServerMessage::Health(h) => wire::write_health_reply(h, &mut hand),
                    ServerMessage::Overloaded => wire::write_overloaded(&mut hand),
                    ServerMessage::ShuttingDown => wire::write_shutting_down(&mut hand),
                    ServerMessage::Error(e) => wire::write_error(e, &mut hand),
                }
                prop_assert_eq!(
                    std::str::from_utf8(&hand).unwrap(),
                    &serde_line,
                    "hand-rolled writer must match serde"
                );

                let parsed = wire::parse_server_message(&serde_line).unwrap();
                prop_assert_eq!(parsed, msg, "parse must round-trip");
            }
        }
    }
}

/// The word-wide scan kernel under the codec ≡ the byte loop it
/// replaced. The zero-byte trick can flag a byte wrongly only above a
/// true hit, so the danger is an offset reported *before* the first
/// special byte or a special byte stepped over; neither may happen for
/// any content, length or word alignment.
mod scan_kernel {
    use super::*;
    use crate::wire::first_special;

    fn naive(hay: &[u8]) -> usize {
        hay.iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(hay.len())
    }

    /// Bytes one bit or one borrow away from a special one, and the
    /// high-bit twins of the special ones: what a wrong mask would flag.
    const NEAR_MISSES: [u8; 12] = [
        0x20, 0x21, 0x23, 0x5b, 0x5d, 0x7f, 0x80, 0xff, 0xa2, 0xdc, 0x9f, 0x60,
    ];

    #[test]
    fn every_length_offset_and_position_up_to_five_words() {
        let filler = |i: usize| NEAR_MISSES[i % NEAR_MISSES.len()];
        for len in 0..=40usize {
            for offset in 0..8usize {
                // What precedes the slice is all special: none of it
                // may leak in.
                let mut buf = vec![b'"'; offset];
                buf.extend((0..len).map(|i| filler(i + offset)));
                assert_eq!(
                    first_special(&buf[offset..]),
                    len,
                    "{len} plain at {offset}"
                );
                for at in 0..len {
                    for special in [b'"', b'\\', 0x00, 0x1f, b'\n'] {
                        let was = std::mem::replace(&mut buf[offset + at], special);
                        assert_eq!(
                            first_special(&buf[offset..]),
                            at,
                            "{special:#04x} at {at} of {len}, offset {offset}"
                        );
                        // With every later byte special too (borrows
                        // and all), the first is still the answer.
                        let tail = buf[offset + at + 1..].to_vec();
                        buf[offset + at + 1..].fill(0x00);
                        assert_eq!(first_special(&buf[offset..]), at);
                        buf[offset + at + 1..].copy_from_slice(&tail);
                        buf[offset + at] = was;
                    }
                    for plain in [0x7f, 0x80, 0xff] {
                        let was = std::mem::replace(&mut buf[offset + at], plain);
                        assert_eq!(
                            first_special(&buf[offset..]),
                            len,
                            "{plain:#04x} at {at} of {len}, offset {offset}"
                        );
                        buf[offset + at] = was;
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn first_special_is_the_naive_position(
            raw in proptest::collection::vec(any::<u8>(), 0..200),
            keep_one_in in 1u64..48,
            offset in 0usize..8,
            seed in any::<u64>(),
        ) {
            // Uniform bytes put a special one in nearly every word:
            // thin them out (to their high-bit twins) so that clean
            // runs of every length up to the whole string occur.
            let mut rng = seed;
            let bytes: Vec<u8> = raw
                .iter()
                .map(|&b| {
                    rng = crate::faults::splitmix64(rng);
                    if naive(&[b]) == 0 && rng % keep_one_in != 0 { b | 0x80 } else { b }
                })
                .collect();
            let hay = &bytes[offset.min(bytes.len())..];
            prop_assert_eq!(first_special(hay), naive(hay));
        }
    }
}

/// Pipelining is a throughput knob, never a semantics knob: at any
/// depth and batch size, the responses equal the lockstep client's
/// and the direct engine evaluation.
mod pipelining {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use crate::Client;

    proptest! {
        #[test]
        fn pipelined_matches_lockstep_at_any_depth(
            hosts in proptest::collection::vec("[a-d]", 4..=16),
            resource_type in prop::sample::select(&ResourceType::ALL[..]),
            depth in 1usize..20,
            batch in 1usize..10,
            use_batches in any::<bool>(),
        ) {
            let server = Server::start(
                test_engine(),
                &ServerConfig {
                    service: ServiceConfig {
                        shards: 2,
                        cache_capacity: 64,
                        ..ServiceConfig::default()
                    },
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let engine = test_engine();
            let reqs: Vec<DecisionRequest> = hosts
                .iter()
                .enumerate()
                .map(|(i, h)| DecisionRequest {
                    url: format!(
                        "http://adnet{}.example/u{}.js",
                        (h.as_bytes()[0] - b'a') % 3,
                        i % 5
                    ),
                    document: format!("{h}.example"),
                    resource_type,
                    sitekey: None,
                    tenant: None,
                })
                .collect();

            let mut lockstep = Client::connect(server.local_addr()).unwrap();
            let expected: Vec<_> = reqs
                .iter()
                .map(|r| lockstep.decide(r).unwrap())
                .collect();

            let mut piped = Client::connect(server.local_addr()).unwrap();
            let got = if use_batches {
                piped.decide_batch_pipelined(&reqs, batch, depth).unwrap()
            } else {
                piped.decide_pipelined(&reqs, depth).unwrap()
            };

            prop_assert_eq!(got.len(), expected.len());
            for ((req, e), g) in reqs.iter().zip(&expected).zip(&got) {
                // Outcomes (not `cached` flags — cache state differs
                // between the two passes) must agree with each other
                // and with the engine.
                prop_assert_eq!(&e.outcome, &g.outcome, "order broken for {}", req.url);
                let direct = direct_outcome(&engine, req);
                prop_assert_eq!(&g.outcome, &direct);
            }
            drop((lockstep, piped));
            server.shutdown();
        }
    }
}

/// Hot reload is atomic: after `reload` returns, no request — fresh or
/// replayed from cache — may observe a pre-reload decision. The cache
/// is generation-stamped, so this property holds even for keys that
/// were warmed (possibly repeatedly) before the swap.
mod reload {
    use super::*;
    use crate::protocol::ReloadList;
    use abp::Decision;

    proptest! {
        #[test]
        fn no_stale_decisions_after_flip(
            hosts in proptest::collection::vec("[a-d]", 4..=12),
            warm_rounds in 1usize..3,
        ) {
            let (svc, mut local) = service(4096);
            let reqs: Vec<DecisionRequest> = hosts
                .iter()
                .enumerate()
                .map(|(i, h)| DecisionRequest {
                    url: format!("http://adnet1.example/u{i}.js"),
                    document: format!("{h}.example"),
                    resource_type: ResourceType::Script,
                    sitekey: None,
                    tenant: None,
                })
                .collect();
            // Warm the cache with blocked decisions under the seed
            // engine (no document here matches the whitelist's
            // domain gate).
            for _ in 0..warm_rounds {
                for r in &reqs {
                    let warm = svc.decide(r, &mut local).unwrap();
                    prop_assert_eq!(warm.outcome.decision, Decision::Block);
                }
            }
            let report = svc
                .reload(&[
                    ReloadList {
                        source: ListSource::EasyList,
                        content: "||adnet1.example^\n".into(),
                    },
                    ReloadList {
                        source: ListSource::AcceptableAds,
                        content: "@@||adnet1.example^\n".into(),
                    },
                ])
                .unwrap();
            prop_assert_eq!(report.generation, 1);
            // Block flipped to allow: every post-reload answer must
            // reflect the new lists, warmed cache keys included.
            for r in &reqs {
                let resp = svc.decide(r, &mut local).unwrap();
                prop_assert_eq!(
                    resp.outcome.decision,
                    Decision::AllowedByException,
                    "stale pre-reload decision served"
                );
            }
        }
    }
}
