//! The decision service: a hot-swappable engine snapshot, evaluated on
//! the calling thread through a shard-owned [`LocalEval`].
//!
//! There is one evaluation route, [`Service::decide_batch_local`], for
//! every batch size. A *shard* is one [`LocalEval`]: an unsynchronised
//! decision cache plus that shard's metrics, owned outright by one
//! reactor thread. Nothing is queued and no thread is handed work, so
//! there is nothing to shed: a batch is bounded by the server's
//! `max_line_bytes`, and a cache-hit decision allocates nothing
//! (`tests/hit_path_allocs.rs` holds it to that): the digest is
//! computed from borrowed fields, the cache memoizes each answer as the
//! wire bytes of its outcome, and a hit copies those bytes into the
//! reply elements the caller's [`BatchScratch`] keeps. A miss refills
//! the shard's one [`Request`], has the engine write the matched filter
//! ids into the shard's scratch ([`Engine::match_request_ids`]), encodes
//! the reply from those ids into the scratch, and appends a copy of that
//! slice to the cache's log — no `RequestOutcome` is built on either
//! path, and a steady-state miss allocates nothing either
//! (`tests/miss_path_allocs.rs`).
//!
//! `Stats` counts answered batches only: a batch that fails leaves
//! every counter — requests, hits, blocks, exceptions, the latency
//! histogram and the tenant buckets — as it found it.
//!
//! # Resilience
//!
//! The engine lives in an [`EngineSnapshot`] behind an `RwLock<Arc<_>>`
//! slot: a batch takes one `Arc` clone, so [`Service::reload`] can
//! compile a replacement off to the side and swap it in atomically.
//! Each snapshot carries a monotonically increasing *generation*; cache
//! entries are stamped with the generation that produced them and a
//! lookup only hits on an exact match, so a decision made under an old
//! engine can never be served after a reload (each shard also clears
//! its cache when it first sees the new generation — the stamp is what
//! correctness rests on).
//!
//! An evaluation that panics — for real, or injected via
//! [`crate::faults`] — is caught on the spot: the batch fails with
//! [`ServiceError::WorkerLost`], the shard's `eval_panics` counter
//! (reported as `Health.shard_restarts`) moves, and the same thread
//! and the same cache serve the next line. A configured deadline fails
//! a batch whose evaluation ran past it with
//! [`ServiceError::DeadlineExceeded`].

use crate::cache::{request_key_hash, LocalDecisionCache};
use crate::faults::{EvalFault, FaultConfig, FaultPlan, StateFault, STATE_SLOT};
use crate::metrics::{self, ReactorMetrics};
use crate::protocol::{
    DecisionResponse, HealthReport, HealthState, ReloadDeltaList, ReloadList, ReloadReport,
    ServerMessage, StatsReport,
};
use crate::wire::{self, DecisionRequestRef};
use abp::{Decision, Engine, FilterList, ListSource, MatchKind, Request, ResourceType};
use parking_lot::{Mutex, RwLock};
use std::cell::OnceCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most shards a service will run: one reactor thread each.
const MAX_SHARDS: usize = 64;

/// Tuning knobs for [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Evaluation shards, one reactor thread each. Defaults to
    /// available parallelism, capped at 8.
    pub shards: usize,
    /// Total decision-cache entries, split evenly across the shards:
    /// each shard's cache is sized for its share (see
    /// [`LocalDecisionCache::new`]), not held to an exact count.
    pub cache_capacity: usize,
    /// Per-batch evaluation deadline. A batch whose evaluation runs
    /// past it fails with [`ServiceError::DeadlineExceeded`] instead of
    /// answering late. `None` never fails a batch for time.
    pub deadline: Option<Duration>,
    /// Fault injection plan (chaos tests only; `None` in production).
    pub faults: Option<FaultConfig>,
    /// Directory for the crash-safe serving snapshot. When set, the
    /// service persists its list bodies + generation + checksum after
    /// boot and after every acked reload (see [`crate::state`]), so a
    /// restart can recover the exact serving state without a full
    /// body reship. `None` disables persistence.
    pub state_dir: Option<std::path::PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let parallelism = std::thread::available_parallelism().map_or(4, |n| n.get());
        ServiceConfig {
            shards: parallelism.clamp(1, 8),
            cache_capacity: 65_536,
            deadline: None,
            faults: None,
            state_dir: None,
        }
    }
}

/// Why a batch could not be decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// A request in the batch was malformed; nothing was answered.
    BadRequest(String),
    /// The evaluation deadline passed before every miss was answered.
    DeadlineExceeded,
    /// An evaluation panicked mid-batch; the batch is failed rather
    /// than served with fabricated `NoMatch` slots.
    WorkerLost(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BadRequest(msg) | ServiceError::WorkerLost(msg) => write!(f, "{msg}"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One immutable compiled engine plus its generation stamp. Swapped
/// wholesale by [`Service::reload`]; never mutated in place.
struct EngineSnapshot {
    generation: u64,
    engine: Arc<Engine>,
    filter_count: usize,
    /// The list bodies this engine was compiled from — the bases that
    /// [`Service::reload_delta`] patches. Empty when the service was
    /// started from a pre-compiled engine ([`Service::start`]), in
    /// which case every delta reports a base mismatch and the sender
    /// falls back to a full `Reload`.
    lists: Arc<Vec<ReloadList>>,
    /// [`serving_checksum`] of `lists` (0 when `lists` is empty).
    list_checksum: u64,
}

/// Strong checksum over a set of serving list bodies, canonically
/// ordered by [`ListSource`] so two shards that loaded the same bodies
/// — in any order — report the same value. Returns 0 for an empty set
/// (a service started from a pre-compiled engine has no bodies).
pub fn serving_checksum(lists: &[ReloadList]) -> u64 {
    if lists.is_empty() {
        return 0;
    }
    let mut h = abpdelta::StrongHasher::new();
    for source in [
        ListSource::EasyList,
        ListSource::AcceptableAds,
        ListSource::Custom,
    ] {
        for l in lists.iter().filter(|l| l.source == source) {
            // Tag + length prefix: no concatenation ambiguity between
            // slots or between adjacent bodies of the same slot.
            h.update(&[source as u8 + 1]);
            h.update(&(l.content.len() as u64).to_le_bytes());
            h.update(l.content.as_bytes());
        }
    }
    h.finish()
}

/// Why a [`Service::reload_delta`] was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadDeltaError {
    /// The serving body for `source` is not the base the delta was
    /// encoded against (or the service holds no body for that slot).
    /// The sender should fall back to a full `Reload`.
    BaseMismatch {
        /// The slot whose base did not match.
        source: ListSource,
        /// Strong checksum of the body actually serving for that slot
        /// (0 when the service holds none).
        serving_check: u64,
        /// The engine generation still serving.
        generation: u64,
    },
    /// The delta was corrupt or the patched list failed reload
    /// validation; the previous engine keeps serving.
    Rejected(String),
}

impl fmt::Display for ReloadDeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReloadDeltaError::BaseMismatch {
                source,
                serving_check,
                generation,
            } => write!(
                f,
                "delta base mismatch for {source:?}: serving checksum {serving_check:#018x} at generation {generation}"
            ),
            ReloadDeltaError::Rejected(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ReloadDeltaError {}

/// Reusable reply buffer for [`Service::decide_batch_local`]: the
/// batch's answers as encoded decision objects, comma-joined in request
/// order — what a `Batch` reply carries between its brackets, so the
/// server frames it ([`wire::splice_batch_reply`]) without decoding
/// anything. Create one per reactor (or loop) via [`Service::scratch`]
/// and reuse it: after the first few batches, the hit path stops
/// allocating entirely.
#[derive(Default)]
pub struct BatchScratch {
    elements: Vec<u8>,
    /// Per answered decision, held back until the whole batch is
    /// answered: its latency (µs), its tenant mask and whether it hit.
    samples: Vec<(u64, u64, bool)>,
    /// [`BatchScratch::responses`], decoded on first call.
    decoded: OnceCell<Vec<DecisionResponse>>,
}

impl BatchScratch {
    /// The last batch's decision objects, encoded and comma-joined.
    pub fn elements(&self) -> &[u8] {
        &self.elements
    }

    /// The last batch's responses, in request order, decoded from
    /// [`BatchScratch::elements`] by the client's own reader
    /// ([`wire::parse_server_message`]) on first call — exactly what a
    /// client reads. For tests and in-process measurement; the server
    /// sends the bytes.
    pub fn responses(&self) -> &[DecisionResponse] {
        self.decoded.get_or_init(|| {
            let mut line = Vec::new();
            wire::splice_batch_reply([&self.elements[..]], &mut line);
            let line = std::str::from_utf8(&line).expect("the wire writers write UTF-8");
            match wire::parse_server_message(line) {
                Ok(ServerMessage::Batch(resps)) => resps,
                other => panic!("reply elements that do not read back as a `Batch`: {other:?}"),
            }
        })
    }
}

/// One shard's evaluation state for [`Service::decide_batch_local`]: an
/// unsynchronized decision cache, the shard's padded metrics, and the
/// fault-plan slot it draws from. A reactor thread owns one. Nothing
/// in here is shared until `Stats`/`Health` reads the metrics.
pub struct LocalEval {
    cache: LocalDecisionCache,
    /// What a miss reuses instead of allocating: the request it refills
    /// and the ids of the filters the engine found matching.
    request: Request,
    matched: Vec<(u32, MatchKind)>,
    /// Engine generation the local cache's entries belong to; a newer
    /// snapshot generation clears the cache lazily on first use.
    generation_seen: u64,
    metrics: Arc<ReactorMetrics>,
    slot: usize,
}

impl LocalEval {
    /// Entries currently memoized in the local cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

/// Validate filter list payloads and compile them into an engine —
/// the shared front half of [`Service::start_with_lists`] and both
/// reload paths.
fn compile_lists(lists: &[ReloadList]) -> Result<Engine, String> {
    let mut parsed = Vec::with_capacity(lists.len());
    for list in lists {
        let fl = FilterList::parse(list.source, &list.content);
        // The filter grammar is nearly total — almost any line
        // parses as a blocking pattern — so garbage payloads (an
        // HTML error page, a truncated download) mostly "parse".
        // Real request patterns never contain embedded whitespace
        // (only element-hiding selectors do), so whitespace-bearing
        // request filters count as malformed alongside lines the
        // parser itself rejected.
        let mut bad: Vec<&str> = fl.invalid_lines().collect();
        let invalid = bad.len();
        bad.extend(
            fl.filters()
                .filter(|f| f.as_request().is_some() && f.raw.contains(char::is_whitespace))
                .map(|f| f.raw.as_str()),
        );
        let candidates = fl.filter_count() + invalid;
        // Real lists carry a tail of unsupported syntax; reject
        // only when malformed lines dominate (past 10%), which
        // means the payload is not a filter list at all.
        if !bad.is_empty() && bad.len() * 10 > candidates {
            let mut msg = format!(
                "reload rejected: {:?} has {} malformed of {} candidate lines (>10%); samples:",
                list.source,
                bad.len(),
                candidates
            );
            for line in bad.iter().take(8) {
                msg.push_str("\n  ");
                msg.push_str(line);
            }
            return Err(msg);
        }
        parsed.push(fl);
    }
    Ok(Engine::from_lists(parsed.iter()))
}

/// The running decision service (no networking; see
/// [`crate::server::Server`] for the TCP front).
pub struct Service {
    snapshot: RwLock<Arc<EngineSnapshot>>,
    shards: usize,
    cache_capacity: usize,
    deadline: Option<Duration>,
    /// The metrics of every [`LocalEval`] handed out, in creation
    /// order: what `Stats` and `Health` fold.
    evals: Mutex<Vec<Arc<ReactorMetrics>>>,
    /// Batches failed because their evaluation deadline passed.
    deadline_timeouts: AtomicU64,
    /// Successful reloads since startup.
    reloads: AtomicU64,
    /// Serializes `reload`/`reload_delta`: a delta is applied against
    /// the serving bodies, so two concurrent reloads must not
    /// interleave between reading the bases and swapping the snapshot.
    reload_lock: Mutex<()>,
    /// Set once shutdown begins; `Health` reports `draining`.
    draining: AtomicBool,
    faults: Option<FaultPlan>,
    /// Crash-safe snapshot store (`None` when persistence is off or
    /// the state dir could not be opened).
    state: Option<crate::state::StateStore>,
    /// Snapshot saves that failed (disk full, injected io error).
    /// Persistence is best effort: a failed save never fails the
    /// reload that triggered it, it is just counted here.
    snapshot_failures: AtomicU64,
}

impl Service {
    /// Serve a pre-compiled engine. The service holds no list bodies in
    /// this mode, so [`Service::reload_delta`] reports a base mismatch
    /// until a full [`Service::reload`] establishes them; use
    /// [`Service::start_with_lists`] when the list text is available.
    pub fn start(engine: Engine, config: &ServiceConfig) -> Service {
        Service::start_inner(engine, Vec::new(), config)
    }

    /// Start the service from filter list text: validate and compile
    /// the lists like [`Service::reload`] does, and retain the bodies
    /// so `ReloadDelta` works from generation 0.
    pub fn start_with_lists(
        lists: Vec<ReloadList>,
        config: &ServiceConfig,
    ) -> Result<Service, String> {
        let engine = compile_lists(&lists)?;
        Ok(Service::start_inner(engine, lists, config))
    }

    fn start_inner(engine: Engine, lists: Vec<ReloadList>, config: &ServiceConfig) -> Service {
        let filter_count = engine.request_filter_count();
        let list_checksum = serving_checksum(&lists);
        let service = Service {
            snapshot: RwLock::new(Arc::new(EngineSnapshot {
                generation: 0,
                engine: Arc::new(engine),
                filter_count,
                lists: Arc::new(lists),
                list_checksum,
            })),
            shards: config.shards.clamp(1, MAX_SHARDS),
            cache_capacity: config.cache_capacity,
            deadline: config.deadline,
            evals: Mutex::new(Vec::new()),
            deadline_timeouts: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            reload_lock: Mutex::new(()),
            draining: AtomicBool::new(false),
            faults: config.faults.clone().map(FaultPlan::new),
            state: config.state_dir.as_ref().and_then(|dir| {
                match crate::state::StateStore::open(dir) {
                    Ok(store) => Some(store),
                    Err(e) => {
                        eprintln!(
                            "abpd: cannot open state dir {}: {e}; persistence disabled",
                            dir.display()
                        );
                        None
                    }
                }
            }),
            snapshot_failures: AtomicU64::new(0),
        };
        // Persist the boot state immediately: a shard that crashes
        // before its first reload must still recover to the lists it
        // was serving, not to nothing.
        service.persist_snapshot(StateFault::None);
        service
    }

    /// Persist the serving snapshot, best effort. `fault` is the chaos
    /// hook for the save itself; pass [`StateFault::None`] on the boot
    /// path — a deterministic crash schedule restarts its draw counter
    /// on respawn, so a boot-time crash draw would loop the daemon
    /// forever instead of proving anything.
    fn persist_snapshot(&self, fault: StateFault) {
        let Some(store) = &self.state else { return };
        let snap = self.snapshot.read().clone();
        if snap.lists.is_empty() {
            return; // no bodies to recover to; nothing worth writing
        }
        let state = crate::state::PersistedState {
            generation: snap.generation,
            list_checksum: snap.list_checksum,
            lists: snap.lists.as_ref().clone(),
        };
        if let Err(e) = store.save(&state, fault) {
            self.snapshot_failures.fetch_add(1, Ordering::Relaxed);
            eprintln!("abpd: snapshot persist failed (serving unaffected): {e}");
        }
    }

    /// Evaluation shard count (the configured value, held to 1..=64).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Request filters loaded in the serving engine generation.
    pub fn filter_count(&self) -> usize {
        self.snapshot.read().filter_count
    }

    /// The engine generation currently serving (0 at startup, bumped
    /// by every successful [`Service::reload`]).
    pub fn generation(&self) -> u64 {
        self.snapshot.read().generation
    }

    /// Fresh reusable response buffer.
    pub fn scratch(&self) -> BatchScratch {
        BatchScratch::default()
    }

    /// One shard's evaluation state: a cache for `cache_capacity` entries,
    /// fault draws from `slot`, counters in `metrics`. The service
    /// keeps a handle to `metrics` and folds it into every later
    /// `Stats`/`Health`. The third argument is unused: it was the
    /// batch size past which the removed worker pool took over, and
    /// stays only because the frozen `benchmark/` adapter passes it.
    pub fn local_eval(
        &self,
        slot: usize,
        cache_capacity: usize,
        _unused: usize,
        metrics: Arc<ReactorMetrics>,
    ) -> LocalEval {
        self.evals.lock().push(metrics.clone());
        LocalEval {
            cache: LocalDecisionCache::new(cache_capacity),
            request: Request::new("http://localhost/", "", ResourceType::Other)
                .expect("a valid placeholder URL"),
            matched: Vec::new(),
            generation_seen: self.generation(),
            metrics,
            slot,
        }
    }

    /// The service's own shards, as the reactors want them: one
    /// [`LocalEval`] per configured shard, the cache capacity split
    /// evenly, shard `i` drawing faults from slot `i`.
    pub fn shard_evals(&self) -> Vec<LocalEval> {
        let capacity = (self.cache_capacity / self.shards).max(1);
        (0..self.shards)
            .map(|i| self.local_eval(i, capacity, 0, Arc::default()))
            .collect()
    }

    /// Evaluate a batch of borrowed requests on the calling thread into
    /// `scratch` — its encoded reply elements, in request order — the
    /// only evaluation route. The cache lookup, the engine evaluation
    /// and the metrics increments all touch state owned by `local`, so
    /// shards contend on nothing.
    ///
    /// Any malformed request fails the whole batch with
    /// [`ServiceError::BadRequest`] (the protocol answers one message
    /// per line, so partial answers have nowhere to go), an evaluation
    /// that finishes past the configured deadline with
    /// [`ServiceError::DeadlineExceeded`], and an evaluation panic —
    /// injected or real, caught without losing the thread or the cache
    /// — with [`ServiceError::WorkerLost`] (counted in
    /// [`ReactorMetrics::eval_panics`], which `Health` reports as
    /// `shard_restarts`). A failed batch moves none of the decision
    /// counters.
    pub fn decide_batch_local(
        &self,
        reqs: &[DecisionRequestRef<'_>],
        scratch: &mut BatchScratch,
        local: &mut LocalEval,
    ) -> Result<(), ServiceError> {
        scratch.elements.clear();
        scratch.samples.clear();
        scratch.decoded.take();
        // The clock is read once per decision: each is timed from the
        // end of the one before it (the first from here), digest and
        // all.
        let mut last = Instant::now();
        let deadline = self.deadline.map(|d| last + d);
        // One snapshot per batch: a reload mid-batch keeps the whole
        // batch on the engine it started with.
        let snap = self.snapshot.read().clone();
        if snap.generation != local.generation_seen {
            // Stale entries are already fenced by the stamp; clearing
            // stops them squatting on the index's ways.
            local.cache.clear();
            local.generation_seen = snap.generation;
        }
        let slot = local.slot;
        let (mut hits, mut blocks, mut exceptions) = (0u64, 0u64, 0u64);
        for (index, dr) in reqs.iter().enumerate() {
            let sitekey = dr.sitekey.as_deref();
            // Wire requests without a tenant resolve to the union mask
            // (every subscription bit): the legacy single-config view.
            let tenant = dr.tenant.unwrap_or(u64::MAX);
            let key_hash =
                request_key_hash(&dr.url, &dr.document, dr.resource_type, sitekey, tenant);
            let (decision, cached) = match local.cache.get(
                key_hash,
                snap.generation,
                &dr.url,
                &dr.document,
                dr.resource_type,
                sitekey,
                tenant,
            ) {
                Some((decision, outcome)) => {
                    wire::push_decision_raw(&mut scratch.elements, outcome, true);
                    hits += 1;
                    (decision, true)
                }
                None => {
                    // Only misses pay for URL validation: a request
                    // that fails to parse can never have been inserted,
                    // so the hit path above is already covered by it.
                    local
                        .request
                        .refill(&dr.url, &dr.document, dr.resource_type, sitekey)
                        .map_err(|e| {
                            ServiceError::BadRequest(format!(
                                "request {index}: bad url {:?}: {e:?}",
                                dr.url
                            ))
                        })?;
                    let request = &local.request;
                    // The closure touches nothing of `local` but the
                    // matched ids it refills: whatever unwinds out of it
                    // leaves cache and counters whole.
                    let matched = &mut local.matched;
                    let evaled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if let Some(plan) = &self.faults {
                            match plan.eval_fault(slot) {
                                EvalFault::Panic => panic!("injected eval panic (shard {slot})"),
                                EvalFault::Delay(d) => std::thread::sleep(d),
                                EvalFault::None => {}
                            }
                        }
                        snap.engine.match_request_ids(request, tenant, matched)
                    }));
                    let Ok(decision) = evaled else {
                        local.metrics.eval_panics.fetch_add(1, Ordering::Relaxed);
                        return Err(ServiceError::WorkerLost(format!(
                            "evaluation panicked (shard {slot})"
                        )));
                    };
                    let outcome = wire::push_decision_ids(
                        &mut scratch.elements,
                        &snap.engine,
                        decision,
                        &local.matched,
                        request.url.as_str(),
                        false,
                    );
                    local.cache.insert(
                        key_hash,
                        snap.generation,
                        &dr.url,
                        &dr.document,
                        dr.resource_type,
                        sitekey,
                        tenant,
                        decision,
                        &scratch.elements[outcome],
                    );
                    (decision, false)
                }
            };
            let now = Instant::now();
            // Nothing can pre-empt an evaluation on its own thread, so
            // the deadline is held after each one: a stalled batch fails
            // here instead of answering late.
            if !cached && deadline.is_some_and(|dl| now >= dl) {
                self.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::DeadlineExceeded);
            }
            scratch
                .samples
                .push(((now - last).as_micros() as u64, tenant, cached));
            last = now;
            match decision {
                Decision::Block => blocks += 1,
                Decision::AllowedByException => exceptions += 1,
                Decision::NoMatch => {}
            }
        }
        // Answered: only now does any of it count.
        let m = &local.metrics.shard;
        for &(us, tenant, cached) in &scratch.samples {
            m.latency.record_us(us);
            m.record_tenant(tenant, cached);
        }
        m.requests.fetch_add(reqs.len() as u64, Ordering::Relaxed);
        m.cache_hits.fetch_add(hits, Ordering::Relaxed);
        m.blocks.fetch_add(blocks, Ordering::Relaxed);
        m.exceptions.fetch_add(exceptions, Ordering::Relaxed);
        Ok(())
    }

    /// Compile the given lists into a new engine generation and swap it
    /// in atomically. On success every subsequent batch — and every
    /// cache lookup — uses the new generation. On rejection (a list
    /// whose malformed-line share exceeds 10%) the previous engine
    /// keeps serving untouched and the error carries a bounded sample
    /// of the offending lines.
    pub fn reload(&self, lists: &[ReloadList]) -> Result<ReloadReport, String> {
        let _guard = self.reload_lock.lock();
        self.reload_locked(lists.to_vec())
    }

    /// Apply delta updates to the serving list bodies, then compile and
    /// swap like [`Service::reload`]. Slots not mentioned keep their
    /// current body. A delta whose base checksum does not match the
    /// serving body — or that names a slot the service holds no body
    /// for — fails with [`ReloadDeltaError::BaseMismatch`] before
    /// anything is compiled; the sender falls back to a full `Reload`.
    pub fn reload_delta(
        &self,
        deltas: &[ReloadDeltaList],
    ) -> Result<ReloadReport, ReloadDeltaError> {
        if deltas.is_empty() {
            return Err(ReloadDeltaError::Rejected(
                "ReloadDelta needs at least one delta".to_string(),
            ));
        }
        let _guard = self.reload_lock.lock();
        let snap = self.snapshot.read().clone();
        let mut merged: Vec<ReloadList> = snap.lists.as_ref().clone();
        for d in deltas {
            let Some(slot) = merged.iter_mut().find(|l| l.source == d.source) else {
                return Err(ReloadDeltaError::BaseMismatch {
                    source: d.source,
                    serving_check: 0,
                    generation: snap.generation,
                });
            };
            match abpdelta::apply(&slot.content, &d.delta) {
                Ok(body) => slot.content = body,
                Err(abpdelta::DeltaError::BaseMismatch { actual, .. }) => {
                    return Err(ReloadDeltaError::BaseMismatch {
                        source: d.source,
                        serving_check: actual,
                        generation: snap.generation,
                    });
                }
                Err(e) => {
                    return Err(ReloadDeltaError::Rejected(format!(
                        "delta for {:?} rejected: {e}",
                        d.source
                    )));
                }
            }
        }
        self.reload_locked(merged)
            .map_err(ReloadDeltaError::Rejected)
    }

    /// The compile-and-swap tail of both reload paths; the caller holds
    /// `reload_lock`.
    fn reload_locked(&self, lists: Vec<ReloadList>) -> Result<ReloadReport, String> {
        if lists.is_empty() {
            return Err("Reload needs at least one list".to_string());
        }
        let engine = compile_lists(&lists)?;
        let filter_count = engine.request_filter_count();
        let list_checksum = serving_checksum(&lists);
        let generation;
        {
            let mut slot = self.snapshot.write();
            generation = slot.generation + 1;
            *slot = Arc::new(EngineSnapshot {
                generation,
                engine: Arc::new(engine),
                filter_count,
                lists: Arc::new(lists),
                list_checksum,
            });
        }
        self.reloads.fetch_add(1, Ordering::Relaxed);
        // Persist *after* the swap, *before* the ack is sent: if the
        // process dies mid-save, the caller never saw a success, so
        // recovering to the previous snapshot is consistent with what
        // the fleet believes this shard acked.
        let fault = self
            .faults
            .as_ref()
            .map_or(StateFault::None, |p| p.state_fault(STATE_SLOT));
        self.persist_snapshot(fault);
        Ok(ReloadReport {
            generation,
            filters: filter_count as u64,
        })
    }

    /// The list bodies the serving engine was compiled from (empty for
    /// a service started from a pre-compiled engine).
    pub fn serving_lists(&self) -> Arc<Vec<ReloadList>> {
        self.snapshot.read().lists.clone()
    }

    /// [`serving_checksum`] of the serving list bodies (0 when none).
    pub fn list_checksum(&self) -> u64 {
        self.snapshot.read().list_checksum
    }

    /// Snapshot saves that failed since startup (persistence is best
    /// effort; failures are counted, not propagated).
    pub fn snapshot_failures(&self) -> u64 {
        self.snapshot_failures.load(Ordering::Relaxed)
    }

    /// Snapshot service health: liveness state plus resilience
    /// counters. `shard_restarts` carries each shard's caught
    /// evaluation panics — nothing is respawned, the count is what a
    /// supervisor would have restarted. `draining` means shutdown has
    /// begun; with no worker to lose, `degraded` is never reported, and
    /// with no queue to shed from, `shed` stays 0 on the wire.
    pub fn health(&self) -> HealthReport {
        let state = if self.draining.load(Ordering::SeqCst) {
            HealthState::Draining
        } else {
            HealthState::Ok
        };
        let evals = self.evals.lock();
        HealthReport {
            state,
            generation: self.generation(),
            reloads: self.reloads.load(Ordering::Relaxed),
            shard_restarts: evals
                .iter()
                .map(|r| r.eval_panics.load(Ordering::Relaxed))
                .collect(),
            shed: 0,
            deadline_timeouts: self.deadline_timeouts.load(Ordering::Relaxed),
            list_checksum: self.list_checksum(),
            distinct_tenants: metrics::distinct_tenants(&evals),
        }
    }

    /// Mark the service as draining (reported by `Health`); decisions
    /// keep flowing so pipelined work can be answered.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Snapshot service statistics: one entry per shard, totals over
    /// all of them. Folded here, at report time, so the hot path never
    /// touches a line another shard writes.
    pub fn stats(&self) -> StatsReport {
        metrics::report(&self.evals.lock())
    }
}

/// Owned-request conveniences for this crate's tests; serving code
/// holds a [`BatchScratch`] and borrows its requests off the wire.
#[cfg(test)]
impl Service {
    pub(crate) fn decide(
        &self,
        req: &crate::protocol::DecisionRequest,
        local: &mut LocalEval,
    ) -> Result<DecisionResponse, ServiceError> {
        let mut out = self.decide_batch(std::slice::from_ref(req), local)?;
        Ok(out.pop().expect("one response per request"))
    }

    pub(crate) fn decide_batch(
        &self,
        reqs: &[crate::protocol::DecisionRequest],
        local: &mut LocalEval,
    ) -> Result<Vec<DecisionResponse>, ServiceError> {
        let refs: Vec<DecisionRequestRef<'_>> = reqs
            .iter()
            .map(crate::protocol::DecisionRequest::as_request_ref)
            .collect();
        let mut scratch = self.scratch();
        self.decide_batch_local(&refs, &mut scratch, local)?;
        Ok(scratch.responses().to_vec())
    }

    /// A fresh shard for a test to evaluate on.
    pub(crate) fn test_eval(&self, cache_capacity: usize) -> LocalEval {
        self.local_eval(0, cache_capacity, 0, Arc::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::DecisionRequest;
    use abp::{FilterList, ListSource, ResourceType};

    fn test_engine() -> Engine {
        let bl = FilterList::parse(
            ListSource::EasyList,
            "||doubleclick.net^\n||adzerk.net^$third-party\n",
        );
        let wl = FilterList::parse(
            ListSource::AcceptableAds,
            "@@||adzerk.net/reddit/$subdocument,domain=reddit.com\n",
        );
        Engine::from_lists([&bl, &wl])
    }

    fn config() -> ServiceConfig {
        ServiceConfig {
            shards: 3,
            cache_capacity: 300,
            ..ServiceConfig::default()
        }
    }

    /// A service plus one shard of it to evaluate on.
    fn service() -> (Service, LocalEval) {
        started(Service::start(test_engine(), &config()))
    }

    fn started(svc: Service) -> (Service, LocalEval) {
        let local = svc.test_eval(100);
        (svc, local)
    }

    fn dr(url: &str, doc: &str, rt: ResourceType) -> DecisionRequest {
        DecisionRequest {
            url: url.into(),
            document: doc.into(),
            resource_type: rt,
            sitekey: None,
            tenant: None,
        }
    }

    #[test]
    fn decisions_match_direct_engine_evaluation() {
        let (svc, mut local) = service();
        let engine = test_engine();
        let reqs = vec![
            dr(
                "http://ad.doubleclick.net/x.js",
                "example.com",
                ResourceType::Script,
            ),
            dr(
                "http://static.adzerk.net/reddit/a.html",
                "www.reddit.com",
                ResourceType::Subdocument,
            ),
            dr(
                "http://example.com/style.css",
                "example.com",
                ResourceType::Stylesheet,
            ),
            // Activations name the normalized URL, not the wire's.
            dr(
                " HTTP://Ad.DoubleClick.NET/Y.js\u{a0}",
                " Example.COM ",
                ResourceType::Script,
            ),
        ];
        let got = svc.decide_batch(&reqs, &mut local).unwrap();
        for (dr, resp) in reqs.iter().zip(&got) {
            let direct = engine
                .match_request(&Request::new(&dr.url, &dr.document, dr.resource_type).unwrap());
            assert_eq!(resp.outcome, direct);
            assert!(!resp.cached, "first sight is never cached");
        }
        // Second pass: everything cached, same outcomes.
        let again = svc.decide_batch(&reqs, &mut local).unwrap();
        for (first, second) in got.iter().zip(&again) {
            assert_eq!(first.outcome, second.outcome);
            assert!(second.cached);
        }
    }

    #[test]
    fn tenant_masked_decisions_stay_isolated() {
        let (svc, mut local) = service();
        // EasyList blocks adzerk everywhere; the AA exception (bit 1)
        // un-blocks the reddit frame. Same request, three tenants.
        let base = dr(
            "http://static.adzerk.net/reddit/a.html",
            "www.reddit.com",
            ResourceType::Subdocument,
        );
        let with = |tenant| DecisionRequest {
            tenant: Some(tenant),
            ..base.clone()
        };
        let reqs = vec![with(0b01), with(0b11), with(0)];
        let got = svc.decide_batch(&reqs, &mut local).unwrap();
        assert_eq!(got[0].outcome.decision, abp::Decision::Block);
        assert_eq!(got[1].outcome.decision, abp::Decision::AllowedByException);
        assert_eq!(got[2].outcome.decision, abp::Decision::NoMatch);
        // First sight: nothing can be served from another tenant's
        // cache entry, even though url/document/type are identical.
        for resp in &got {
            assert!(!resp.cached, "cross-tenant cache hit");
        }
        // Each tenant re-hits its own entry with its own verdict.
        let again = svc.decide_batch(&reqs, &mut local).unwrap();
        for (first, second) in got.iter().zip(&again) {
            assert_eq!(first.outcome, second.outcome);
            assert!(second.cached);
        }
        // The tenantless request is the union view: same verdict as
        // the all-bits mask but a distinct cache identity.
        let union = svc.decide(&base, &mut local).unwrap();
        assert_eq!(union.outcome.decision, abp::Decision::AllowedByException);

        // Population counters: four distinct masks were served (0b01,
        // 0b11, 0, and the tenantless union), bucketed by list count.
        let stats = svc.stats();
        assert_eq!(stats.distinct_tenants, 4);
        assert_eq!(svc.health().distinct_tenants, 4);
        // 0b01 and 0 land in bucket 0 (≤1 list), 0b11 in bucket 1
        // (2 lists), the union view in the top bucket — twice each
        // for the replayed batch, once for the union decide.
        assert_eq!(stats.tenant_requests_by_lists, vec![4, 2, 0, 0, 1]);
        // Only the second batch hit the cache.
        assert_eq!(stats.tenant_cache_hits_by_lists, vec![2, 1, 0, 0, 0]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_calls() {
        let (svc, mut local) = service();
        let mut scratch = svc.scratch();
        let reqs = vec![
            dr(
                "http://ad.doubleclick.net/x.js",
                "example.com",
                ResourceType::Script,
            ),
            dr(
                "http://example.com/style.css",
                "example.com",
                ResourceType::Stylesheet,
            ),
        ];
        let refs: Vec<_> = reqs.iter().map(DecisionRequest::as_request_ref).collect();
        let mut previous: Option<Vec<DecisionResponse>> = None;
        for round in 0..5 {
            svc.decide_batch_local(&refs, &mut scratch, &mut local)
                .unwrap();
            assert_eq!(scratch.responses().len(), reqs.len());
            if let Some(prev) = &previous {
                for (p, n) in prev.iter().zip(scratch.responses()) {
                    assert_eq!(p.outcome, n.outcome, "round {round}");
                    assert!(n.cached, "round {round} should be fully cached");
                }
            }
            previous = Some(scratch.responses().to_vec());
        }
    }

    #[test]
    fn scratch_recovers_after_bad_url() {
        let (svc, mut local) = service();
        let mut scratch = svc.scratch();
        let good = dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        );
        let bad = dr("not a url", "example.com", ResourceType::Image);
        let refs = vec![good.as_request_ref(), bad.as_request_ref()];
        let err = svc
            .decide_batch_local(&refs, &mut scratch, &mut local)
            .unwrap_err();
        assert!(matches!(err, ServiceError::BadRequest(_)), "{err}");
        // The same scratch keeps working afterwards.
        let refs = vec![good.as_request_ref()];
        svc.decide_batch_local(&refs, &mut scratch, &mut local)
            .unwrap();
        assert_eq!(scratch.responses().len(), 1);
        assert_eq!(scratch.responses()[0].outcome.decision, Decision::Block);
    }

    #[test]
    fn ipv6_literal_url_is_decided_not_rejected() {
        // One unparseable URL fails its whole batch, so a bracketed
        // IPv6 host must parse, with or without a port. IP hosts have
        // no registrable domain: the party test is exact-host.
        let list = FilterList::parse(ListSource::EasyList, "/ad.js$third-party\n");
        let (svc, mut local) = started(Service::start(Engine::from_lists([&list]), &config()));
        let got = svc
            .decide_batch(
                &[
                    dr("http://[::1]/ad.js", "[::1]", ResourceType::Script),
                    dr("http://[::1]:8080/ad.js", "[::1]", ResourceType::Script),
                    dr("http://[::1]/ad.js", "[::2]", ResourceType::Script),
                ],
                &mut local,
            )
            .unwrap();
        assert_eq!(got[0].outcome.decision, Decision::NoMatch);
        assert_eq!(got[1].outcome.decision, Decision::NoMatch);
        assert_eq!(got[2].outcome.decision, Decision::Block);
    }

    #[test]
    fn bad_url_fails_batch() {
        let (svc, mut local) = service();
        let err = svc
            .decide(
                &dr("not a url", "example.com", ResourceType::Image),
                &mut local,
            )
            .unwrap_err();
        assert!(err.to_string().contains("bad url"), "{err}");
    }

    #[test]
    fn stats_count_decisions() {
        let (svc, mut local) = service();
        let block = dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        );
        svc.decide(&block, &mut local).unwrap();
        svc.decide(&block, &mut local).unwrap(); // cached
        let s = svc.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.blocks, 2);
        assert_eq!(s.exceptions, 0);
        assert_eq!(local.cache_len(), 1);
    }

    /// Only answered batches count, in every counter alike: a batch
    /// failed by a bad URL, a caught panic or the deadline — after some
    /// of its decisions were made — leaves `Stats` agreeing with itself.
    #[test]
    fn stats_count_answered_batches_only() {
        let mut cfg = config();
        cfg.deadline = Some(Duration::from_millis(10));
        cfg.faults = Some(FaultConfig {
            eval_panic_per_million: 200_000,
            eval_delay_per_million: 200_000,
            eval_delay_ms: 20,
            seed: 11,
            ..FaultConfig::default()
        });
        let (svc, mut local) = started(Service::start(test_engine(), &cfg));
        let (mut answered, mut bad, mut lost, mut late) = (0u64, 0u32, 0u32, 0u32);
        for i in 0..40 {
            let mut batch = vec![
                DecisionRequest {
                    tenant: Some(i % 4),
                    ..dr(
                        "http://ad.doubleclick.net/warm.js",
                        "example.com",
                        ResourceType::Script,
                    )
                },
                dr(
                    &format!("http://h{i}.doubleclick.net/a.js"),
                    "example.com",
                    ResourceType::Script,
                ),
            ];
            if i % 3 == 0 {
                batch.push(dr("not a url", "example.com", ResourceType::Image));
            }
            match svc.decide_batch(&batch, &mut local) {
                Ok(got) => answered += got.len() as u64,
                Err(ServiceError::BadRequest(_)) => bad += 1,
                Err(ServiceError::WorkerLost(_)) => lost += 1,
                Err(ServiceError::DeadlineExceeded) => late += 1,
            }
        }
        assert!(answered > 0 && bad > 0 && lost > 0 && late > 0);
        let s = svc.stats();
        assert_eq!(s.requests, answered);
        assert_eq!(s.tenant_requests_by_lists.iter().sum::<u64>(), s.requests);
        assert_eq!(
            s.tenant_cache_hits_by_lists.iter().sum::<u64>(),
            s.cache_hits
        );
        assert_eq!(local.metrics.shard.latency.samples(), s.requests);
    }

    /// One clock read per decision still means one latency sample per
    /// decision, hits and misses alike, each timed from the end of the
    /// one before it.
    #[test]
    fn latency_histogram_takes_one_sample_per_decision() {
        let (svc, mut local) = service();
        let batch: Vec<DecisionRequest> = (0..40)
            .map(|i| {
                dr(
                    &format!("http://ad.doubleclick.net/{}.js", i % 25),
                    "example.com",
                    ResourceType::Script,
                )
            })
            .collect();
        svc.decide_batch(&batch, &mut local).unwrap();
        svc.decide_batch(&batch[..7], &mut local).unwrap();
        assert_eq!(svc.stats().cache_hits, 15 + 7);
        assert_eq!(local.metrics.shard.latency.samples(), 47);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (svc, mut local) = service();
        assert!(svc.decide_batch(&[], &mut local).unwrap().is_empty());
    }

    #[test]
    fn sitekey_distinguishes_cache_entries() {
        let (svc, mut local) = service();
        let plain = dr(
            "http://example.com/style.css",
            "example.com",
            ResourceType::Stylesheet,
        );
        let mut keyed = plain.clone();
        keyed.sitekey = Some("SITEKEY".into());
        let a = svc.decide(&plain, &mut local).unwrap();
        let b = svc.decide(&keyed, &mut local).unwrap();
        assert!(!a.cached && !b.cached, "distinct keys never collide");
        assert!(svc.decide(&keyed, &mut local).unwrap().cached);
    }

    #[test]
    fn concurrent_callers_agree() {
        // One service, four threads, each on a shard of its own — the
        // way four reactors share it.
        let svc = Service::start(test_engine(), &config());
        let engine = test_engine();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (svc, engine) = (&svc, &engine);
                scope.spawn(move || {
                    let mut local = svc.local_eval(t, 100, 0, Arc::default());
                    for i in 0..50 {
                        let req = dr(
                            &format!("http://host{}.doubleclick.net/u{}.js", i % 7, i),
                            &format!("site{t}.example"),
                            ResourceType::Script,
                        );
                        let resp = svc.decide(&req, &mut local).unwrap();
                        let direct = engine.match_request(
                            &Request::new(&req.url, &req.document, req.resource_type).unwrap(),
                        );
                        assert_eq!(resp.outcome, direct);
                    }
                });
            }
        });
        let stats = svc.stats();
        assert_eq!(stats.shards.len(), 4, "every shard handed out reports");
        assert_eq!(stats.requests, 200);
        assert!(stats.shards.iter().all(|s| s.requests == 50));
    }

    #[test]
    fn reload_swaps_decisions_and_bumps_generation() {
        let (svc, mut local) = service();
        let req = dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        );
        let before = svc.decide(&req, &mut local).unwrap();
        assert_eq!(before.outcome.decision, Decision::Block);
        assert_eq!(svc.generation(), 0);

        // New generation allowlists the exact URL that just blocked.
        let report = svc
            .reload(&[
                ReloadList {
                    source: ListSource::EasyList,
                    content: "||doubleclick.net^\n".to_string(),
                },
                ReloadList {
                    source: ListSource::AcceptableAds,
                    content: "@@||ad.doubleclick.net/x.js\n".to_string(),
                },
            ])
            .unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(svc.generation(), 1);
        assert_eq!(svc.filter_count(), report.filters as usize);

        let resp = svc.decide(&req, &mut local).unwrap();
        assert_eq!(resp.outcome.decision, Decision::AllowedByException);
        assert!(!resp.cached, "pre-reload cache entry must not serve");
        let h = svc.health();
        assert_eq!(h.state, HealthState::Ok);
        assert_eq!(h.reloads, 1);
        assert_eq!(h.generation, 1);
    }

    #[test]
    fn reload_delta_patches_the_serving_body() {
        let easylist = "||doubleclick.net^\n".to_string();
        let wl_v1 = "@@||old.adzerk.net^$document\n".to_string();
        let wl_v2 = "@@||ad.doubleclick.net/x.js\n@@||old.adzerk.net^$document\n".to_string();
        let svc = Service::start_with_lists(
            vec![
                ReloadList {
                    source: ListSource::EasyList,
                    content: easylist.clone(),
                },
                ReloadList {
                    source: ListSource::AcceptableAds,
                    content: wl_v1.clone(),
                },
            ],
            &config(),
        )
        .unwrap();
        let (svc, mut local) = started(svc);
        let req = dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        );
        let v1 = svc.decide(&req, &mut local).unwrap();
        assert_eq!(v1.outcome.decision, Decision::Block);
        let check_v1 = svc.list_checksum();
        assert_ne!(check_v1, 0, "started from lists, so a body checksum");

        let report = svc
            .reload_delta(&[ReloadDeltaList {
                source: ListSource::AcceptableAds,
                delta: abpdelta::encode(&wl_v1, &wl_v2),
            }])
            .unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(
            svc.decide(&req, &mut local).unwrap().outcome.decision,
            Decision::AllowedByException,
            "delta-applied whitelist must serve"
        );
        assert_eq!(
            svc.list_checksum(),
            serving_checksum(&[
                ReloadList {
                    source: ListSource::EasyList,
                    content: easylist.clone(),
                },
                ReloadList {
                    source: ListSource::AcceptableAds,
                    content: wl_v2.clone(),
                },
            ]),
            "checksum reflects the patched bodies"
        );
        assert_eq!(svc.health().list_checksum, svc.list_checksum());

        // A delta against a stale base is refused with the serving
        // checksum, and nothing swaps.
        let err = svc
            .reload_delta(&[ReloadDeltaList {
                source: ListSource::AcceptableAds,
                delta: abpdelta::encode(&wl_v1, "@@||other.example^\n"),
            }])
            .unwrap_err();
        match err {
            ReloadDeltaError::BaseMismatch {
                source,
                serving_check,
                generation,
            } => {
                assert_eq!(source, ListSource::AcceptableAds);
                assert_eq!(serving_check, abpdelta::strong_checksum(&wl_v2));
                assert_eq!(generation, 1);
            }
            other => panic!("expected BaseMismatch, got {other:?}"),
        }
        assert_eq!(svc.generation(), 1);

        // A service started from a pre-compiled engine has no bodies:
        // every delta is a base mismatch with serving_check 0.
        let (bare, _) = service();
        assert_eq!(bare.list_checksum(), 0);
        let err = bare
            .reload_delta(&[ReloadDeltaList {
                source: ListSource::EasyList,
                delta: abpdelta::encode("", "||ads.example^\n"),
            }])
            .unwrap_err();
        assert!(
            matches!(
                err,
                ReloadDeltaError::BaseMismatch {
                    serving_check: 0,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn malformed_reload_rolls_back() {
        let (svc, mut local) = service();
        let req = dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        );
        let before = svc.decide(&req, &mut local).unwrap();
        assert_eq!(before.outcome.decision, Decision::Block);

        // Mostly-garbage payload: every line is invalid syntax.
        let err = svc
            .reload(&[ReloadList {
                source: ListSource::EasyList,
                content: "<html>\n<body>not a list</body>\n</html>\n".to_string(),
            }])
            .unwrap_err();
        assert!(err.contains("reload rejected"), "{err}");
        assert_eq!(svc.generation(), 0, "failed reload must not swap");
        assert_eq!(svc.health().reloads, 0);
        // The old engine keeps serving.
        let after = svc.decide(&req, &mut local).unwrap();
        assert_eq!(after.outcome.decision, Decision::Block);
    }

    #[test]
    fn worker_panic_is_survived_and_reported() {
        let mut cfg = config();
        // The schedule is deterministic per slot: at 30% some draws
        // panic and some do not, whatever order the tests run in.
        cfg.faults = Some(FaultConfig {
            eval_panic_per_million: 300_000,
            seed: 7,
            ..FaultConfig::default()
        });
        let (svc, mut local) = started(Service::start(test_engine(), &cfg));
        let mut lost = 0u32;
        let mut ok = 0u32;
        for i in 0..60 {
            let req = dr(
                &format!("http://h{i}.doubleclick.net/a.js"),
                "example.com",
                ResourceType::Script,
            );
            match svc.decide(&req, &mut local) {
                Ok(resp) => {
                    assert_eq!(resp.outcome.decision, Decision::Block);
                    ok += 1;
                }
                Err(ServiceError::WorkerLost(_)) => lost += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(lost > 0, "panic rate of 30% must lose some batches");
        assert!(ok > 0, "the shard must keep serving between panics");
        let h = svc.health();
        assert_eq!(h.state, HealthState::Ok);
        assert_eq!(h.shard_restarts, vec![u64::from(lost)]);
        // Failed batches are not counted as served.
        assert_eq!(svc.stats().requests, u64::from(ok));
    }

    /// A caught panic unwinds out of the guarded closure only: the
    /// shard's cache and counters are exactly what they were, so the
    /// very next batch is served from them — a hit and a fresh miss.
    #[test]
    fn shard_serves_hits_and_misses_right_after_a_caught_panic() {
        let warm = dr(
            "http://ad.doubleclick.net/warm.js",
            "example.com",
            ResourceType::Script,
        );
        let fresh = dr(
            "http://static.adzerk.net/reddit/a.html",
            "www.reddit.com",
            ResourceType::Subdocument,
        );
        let doomed = dr(
            "http://ad.doubleclick.net/doomed.js",
            "example.com",
            ResourceType::Script,
        );
        // Find a seed whose draws on slot 0 go pass, panic, pass.
        let faults = (0..)
            .map(|seed| FaultConfig {
                eval_panic_per_million: 500_000,
                seed,
                ..FaultConfig::default()
            })
            .find(|cfg| {
                let plan = FaultPlan::new(cfg.clone());
                [(); 3].map(|()| plan.eval_fault(0))
                    == [EvalFault::None, EvalFault::Panic, EvalFault::None]
            })
            .unwrap();
        let mut cfg = config();
        cfg.faults = Some(faults);
        let (svc, mut local) = started(Service::start(test_engine(), &cfg));

        assert!(!svc.decide(&warm, &mut local).unwrap().cached);
        // A batch of [hit, miss]: the miss draws the panic, the whole
        // line fails, and the hit ahead of it is not half-answered.
        let err = svc
            .decide_batch(&[warm.clone(), doomed.clone()], &mut local)
            .unwrap_err();
        assert!(matches!(err, ServiceError::WorkerLost(_)), "{err}");
        assert_eq!(svc.health().shard_restarts, vec![1]);
        assert_eq!(local.cache_len(), 1, "the panicked miss left no entry");

        // The very next batch, on the same shard: [hit, fresh miss].
        let engine = test_engine();
        let got = svc
            .decide_batch(&[warm.clone(), fresh.clone()], &mut local)
            .unwrap();
        assert!(got[0].cached, "the pre-panic entry still hits");
        assert_eq!(got[0].outcome.decision, Decision::Block);
        assert!(!got[1].cached);
        let direct = engine.match_request(
            &Request::new(&fresh.url, &fresh.document, fresh.resource_type).unwrap(),
        );
        assert_eq!(got[1].outcome, direct);
        assert_eq!(got[1].outcome.decision, Decision::AllowedByException);
    }

    #[test]
    fn deadline_fails_stalled_batches() {
        let mut cfg = config();
        cfg.deadline = Some(Duration::from_millis(20));
        cfg.faults = Some(FaultConfig {
            eval_delay_per_million: 1_000_000, // every evaluation stalls
            eval_delay_ms: 200,
            ..FaultConfig::default()
        });
        let (svc, mut local) = started(Service::start(test_engine(), &cfg));
        let req = dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        );
        // A single stalled evaluation is already a late reply.
        let err = svc.decide(&req, &mut local).unwrap_err();
        assert_eq!(err, ServiceError::DeadlineExceeded);
        assert_eq!(svc.health().deadline_timeouts, 1);
        // What the stalled evaluation computed was kept: the retry is a
        // cache hit, and a hit never stalls.
        assert!(svc.decide(&req, &mut local).unwrap().cached);
    }

    #[test]
    fn reloads_persist_a_recoverable_snapshot() {
        let dir = std::env::temp_dir().join(format!("abpd-svc-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lists = vec![
            ReloadList {
                source: ListSource::EasyList,
                content: "||doubleclick.net^\n".to_string(),
            },
            ReloadList {
                source: ListSource::AcceptableAds,
                content: "@@||adzerk.net/reddit/$subdocument\n".to_string(),
            },
        ];
        let mut cfg = config();
        cfg.state_dir = Some(dir.clone());
        let (svc, mut local) = started(Service::start_with_lists(lists.clone(), &cfg).unwrap());

        // Boot persists generation 0 with the boot bodies.
        let store = crate::state::StateStore::open(&dir).unwrap();
        let boot = store.load().expect("boot snapshot must exist");
        assert_eq!(boot.generation, 0);
        assert_eq!(boot.lists, lists);
        assert_eq!(boot.list_checksum, serving_checksum(&lists));

        // Every acked reload replaces the snapshot.
        let mut next = lists.clone();
        next[1].content.push_str("@@||extra.example^$script\n");
        svc.reload(&next).expect("reload");
        let after = store.load().expect("post-reload snapshot");
        assert_eq!(after.generation, 1);
        assert_eq!(after.lists, next);
        assert_eq!(after.list_checksum, svc.list_checksum());
        assert_eq!(svc.snapshot_failures(), 0);

        // A second service recovering from the snapshot serves
        // byte-identical decisions (double-probe parity).
        let mut cfg2 = config();
        cfg2.state_dir = None;
        let recovered = store.load().unwrap();
        let (svc2, mut local2) =
            started(Service::start_with_lists(recovered.lists, &cfg2).unwrap());
        assert_eq!(svc2.list_checksum(), svc.list_checksum());
        for req in [
            dr(
                "http://x.doubleclick.net/u.js",
                "a.example",
                ResourceType::Script,
            ),
            dr(
                "http://cdn.extra.example/u.js",
                "a.example",
                ResourceType::Script,
            ),
        ] {
            let a = svc.decide(&req, &mut local).unwrap();
            let b = svc2.decide(&req, &mut local2).unwrap();
            assert_eq!(a.outcome, b.outcome, "recovery parity for {}", req.url);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
