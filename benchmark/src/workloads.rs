//! The six workloads and the request sets they replay.
//!
//! The request sets are a pure function of the workload seed; the
//! daemons only ever see the generated requests.

use crate::layers::{self, DecisionRequest, Engine, RequestOutcome};
use crate::topology::Shape;
use std::collections::HashSet;

/// Requests per `DecideBatch` line in the batched workloads.
pub const BATCH: usize = 256;
/// Batch lines kept in flight in the batched workloads.
pub const DEPTH: usize = 8;
/// Every `VERIFY_STRIDE`-th decision of a batched workload is held
/// against the oracle (every decision in `decide-lockstep`): checking
/// all of them would make the client the bottleneck.
pub const VERIFY_STRIDE: usize = 16;

/// Distinct requests in the hot set: a quarter of the cache.
pub const HOT_DISTINCT: usize = layers::CACHE_CAPACITY / 4;
/// Distinct requests in the cold set: four times the cache.
pub const COLD_DISTINCT: usize = layers::CACHE_CAPACITY * 4;
/// Length of the natural replay (a whole number of batches near 400k).
pub const NATURAL_LEN: usize = 1_563 * BATCH;
/// Users in the tenant population the cold set is stamped from.
pub const TENANT_USERS: u64 = 1_000_000;

/// Which request set a workload cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// The first `HOT_DISTINCT` distinct browsing requests.
    Hot,
    /// The first `COLD_DISTINCT` distinct requests, each stamped with a
    /// tenant mask.
    Cold,
    /// The browsing stream as generated, repeats included.
    Natural,
}

/// How decisions are framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framing {
    /// Requests per line; 1 sends single `Decide` lines.
    pub batch: usize,
    /// Lines in flight.
    pub depth: usize,
}

impl Framing {
    /// `DecideBatch` 256 × depth 8.
    pub const BATCHED: Framing = Framing {
        batch: BATCH,
        depth: DEPTH,
    };
    /// One `Decide` line at a time.
    pub const LOCKSTEP: Framing = Framing { batch: 1, depth: 1 };

    /// Decisions between oracle checks.
    pub fn verify_stride(self) -> usize {
        if self.batch == 1 {
            1
        } else {
            VERIFY_STRIDE
        }
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What runs, in one line.
    pub what: &'static str,
    /// `None` for the in-harness `crawl-survey`.
    pub served: Option<Served>,
    /// Whether `BENCHMARK.json` lists it, so that the driver holds its
    /// end-to-end metrics against their bounds. The others run the
    /// same way by name; what they are about also shows as per-layer
    /// rows of every traced run (README, "Workloads").
    pub gated: bool,
}

/// A workload that drives daemons over loopback.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Processes in the path.
    pub shape: Shape,
    /// Request set.
    pub stream: StreamKind,
    /// Wire framing.
    pub framing: Framing,
    /// Whether an admin connection ships whitelist revisions meanwhile.
    pub reloads: bool,
}

/// The request set of the served probes of `crawl-survey`'s traced run
/// (it has no served path of its own; see README).
pub const REFERENCE: Served = Served {
    shape: Shape::Direct,
    stream: StreamKind::Natural,
    framing: Framing::BATCHED,
    reloads: false,
};

/// Every workload, in the order a full pass runs them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "serve-hot",
        what: "abpd, 16,384 distinct requests cycled, DecideBatch 256 x depth 8: every decision a cache hit",
        served: Some(Served {
            shape: Shape::Direct,
            stream: StreamKind::Hot,
            framing: Framing::BATCHED,
            reloads: false,
        }),
        gated: true,
    },
    Workload {
        name: "serve-cold",
        what: "abpd, 262,144 distinct tenant-masked requests cycled, 256 x 8: every decision a miss and an eviction",
        served: Some(Served {
            shape: Shape::Direct,
            stream: StreamKind::Cold,
            framing: Framing::BATCHED,
            reloads: false,
        }),
        gated: true,
    },
    Workload {
        name: "decide-lockstep",
        what: "abpd, the hot set as single Decide lines, depth 1: per-line cost unamortised",
        served: Some(Served {
            shape: Shape::Direct,
            stream: StreamKind::Hot,
            framing: Framing::LOCKSTEP,
            reloads: false,
        }),
        gated: false,
    },
    Workload {
        name: "fleet-replay",
        what: "abpd-proxy in front of 2 abpd shards on one core, natural browsing replay, 256 x 8",
        served: Some(Served {
            shape: Shape::Fleet,
            stream: StreamKind::Natural,
            framing: Framing::BATCHED,
            reloads: false,
        }),
        gated: true,
    },
    Workload {
        name: "reload-under-load",
        what: "abpd --state-dir, natural replay 256 x 8 while an admin connection ships whitelist revisions as ReloadDelta",
        served: Some(Served {
            shape: Shape::Direct,
            stream: StreamKind::Natural,
            framing: Framing::BATCHED,
            reloads: true,
        }),
        gated: false,
    },
    Workload {
        name: "crawl-survey",
        what: "in-harness section-5 site survey (top 500 + 3 x 100 sites, a tenth of paper scale) repeated, one thread",
        served: None,
        gated: false,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A request set plus what the oracle expects at the checked positions.
pub struct Stream {
    /// The requests, replayed cyclically in this order.
    pub requests: Vec<DecisionRequest>,
    /// Oracle outcomes for positions `0, stride, 2·stride, …`.
    expected: Vec<RequestOutcome>,
    stride: usize,
}

impl Stream {
    /// Generate the request set for `kind` from the workload seed and
    /// precompute the oracle's answers at every `stride`-th position.
    pub fn generate(kind: StreamKind, seed: u64, oracle: &Engine, stride: usize) -> Stream {
        let requests = match kind {
            StreamKind::Hot => distinct_requests(seed, HOT_DISTINCT),
            StreamKind::Cold => {
                let mask_for = layers::tenant_masks(seed, TENANT_USERS);
                let mut reqs = distinct_requests(seed, COLD_DISTINCT);
                for (i, r) in reqs.iter_mut().enumerate() {
                    r.tenant = Some(mask_for(i as u64));
                }
                reqs
            }
            StreamKind::Natural => layers::traffic(seed).take(NATURAL_LEN).collect(),
        };
        Stream::from_requests(requests, oracle, stride)
    }

    /// Wrap a request list, precomputing the oracle's answers at every
    /// `stride`-th position.
    pub fn from_requests(requests: Vec<DecisionRequest>, oracle: &Engine, stride: usize) -> Stream {
        let expected = requests
            .iter()
            .step_by(stride)
            .map(|r| layers::oracle_outcome(oracle, r))
            .collect();
        Stream {
            requests,
            expected,
            stride,
        }
    }

    /// The first `n` distinct requests of this stream, in order: a
    /// replay of them on an empty cache misses every time.
    pub fn distinct_prefix(&self, n: usize, oracle: &Engine) -> Stream {
        let mut seen = HashSet::with_capacity(n);
        let requests = self
            .requests
            .iter()
            .filter(|r| seen.insert(key_of(r)))
            .take(n)
            .cloned()
            .collect();
        Stream::from_requests(requests, oracle, self.stride)
    }

    /// Number of requests in one cycle.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// The oracle's answer at `index`, if that position is checked.
    pub fn expected(&self, index: usize) -> Option<&RequestOutcome> {
        index
            .is_multiple_of(self.stride)
            .then(|| &self.expected[index / self.stride])
    }
}

/// What makes two requests the same decision (the cache's key).
fn key_of(r: &DecisionRequest) -> (String, String, u8, Option<u64>) {
    (
        r.url.clone(),
        r.document.clone(),
        r.resource_type as u8,
        r.tenant,
    )
}

/// The first `n` distinct `(url, document, type)` requests of the
/// browsing stream, in order of first appearance.
fn distinct_requests(seed: u64, n: usize) -> Vec<DecisionRequest> {
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    for req in layers::traffic(seed) {
        if seen.insert(key_of(&req)) {
            out.push(req);
            if out.len() == n {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distinct_keys(reqs: &[DecisionRequest]) -> usize {
        reqs.iter().map(key_of).collect::<HashSet<_>>().len()
    }

    fn oracle() -> Engine {
        let corpus = layers::corpus_generate();
        layers::compile(&layers::parse_lists(&layers::serving_lists(&corpus)))
    }

    #[test]
    fn hot_set_has_exactly_a_quarter_cache_of_distinct_requests() {
        let engine = oracle();
        let s = Stream::generate(StreamKind::Hot, 7, &engine, 1);
        assert_eq!(s.len(), 16_384);
        assert_eq!(distinct_keys(&s.requests), 16_384);
        assert!(s.requests.iter().all(|r| r.tenant.is_none()));
        assert_eq!(s.len() % BATCH, 0);
    }

    #[test]
    fn cold_set_has_exactly_four_caches_of_distinct_masked_requests() {
        let engine = oracle();
        let s = Stream::generate(StreamKind::Cold, 7, &engine, VERIFY_STRIDE);
        assert_eq!(s.len(), 262_144);
        assert_eq!(distinct_keys(&s.requests), 262_144);
        assert!(s.requests.iter().all(|r| r.tenant.is_some()));
        let masks: HashSet<u64> = s.requests.iter().filter_map(|r| r.tenant).collect();
        assert!(masks.len() > 50, "heterogeneous tenants: {}", masks.len());
        assert_eq!(s.len() % BATCH, 0);
    }

    #[test]
    fn streams_are_a_function_of_the_seed() {
        let engine = oracle();
        let a = Stream::generate(StreamKind::Hot, 7, &engine, 1);
        let b = Stream::generate(StreamKind::Hot, 7, &engine, 1);
        let c = Stream::generate(StreamKind::Hot, 8, &engine, 1);
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.requests, c.requests);
        let n = Stream::generate(StreamKind::Natural, 7, &engine, VERIFY_STRIDE);
        assert_eq!(n.len(), NATURAL_LEN);
        assert!(
            distinct_keys(&n.requests) < n.len(),
            "natural replay repeats"
        );
    }

    #[test]
    fn oracle_answers_only_at_checked_positions() {
        let engine = oracle();
        let s = Stream::generate(StreamKind::Hot, 7, &engine, VERIFY_STRIDE);
        assert!(s.expected(0).is_some());
        assert!(s.expected(1).is_none());
        assert_eq!(
            s.expected(32),
            Some(&layers::oracle_outcome(&engine, &s.requests[32]))
        );
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let names: HashSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), WORKLOADS.len());
        assert!(by_name("serve-cold").is_some());
        assert!(by_name("nope").is_none());
    }
}
