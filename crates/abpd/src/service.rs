//! The decision service: a sharded worker pool around a hot-swappable
//! engine snapshot, fronted by the sharded LRU cache and watched by a
//! supervisor thread.
//!
//! A request's cache digest hashes to a shard; that index selects both
//! the cache shard *and* the worker that evaluates misses, so each
//! shard's state is touched by one worker plus whichever connection
//! handler is looking up. Handlers answer hits directly; misses travel
//! over a bounded crossbeam channel (the queue depth is the
//! backpressure valve — and past the configured watermark, batches are
//! shed with [`ServiceError::Overloaded`] instead of queued).
//!
//! The hot entry point is [`Service::decide_batch_into`], which takes
//! borrowed requests ([`DecisionRequestRef`]) and a caller-owned
//! [`BatchScratch`]. A cache-hit decision through it allocates nothing:
//! the digest is computed from borrowed fields, the response slot and
//! every per-shard staging vector live in the scratch, and the reply
//! channel for miss fan-out is created once per scratch, not per batch.
//!
//! # Resilience
//!
//! The engine lives in an [`EngineSnapshot`] behind an `RwLock<Arc<_>>`
//! slot: workers take one `Arc` clone per job, so [`Service::reload`]
//! can compile a replacement off the worker threads and swap it in
//! atomically. Each snapshot carries a monotonically increasing
//! *generation*; cache entries are stamped with the generation that
//! produced them and a lookup only hits on an exact match, so a
//! decision made under an old engine can never be served after a
//! reload (the reload also clears the cache outright — the stamp is
//! defense in depth against entries inserted by in-flight jobs).
//!
//! Worker threads are supervised: a panic (real or injected via
//! [`crate::faults`]) trips a sentinel that notifies the supervisor,
//! which respawns the shard after a backoff that escalates only on
//! crash-loops (consecutive deaths with no completed job in between) —
//! an isolated panic restarts in [`ServiceConfig::restart_backoff`],
//! a worker that dies on arrival backs off exponentially up to
//! [`ServiceConfig::restart_backoff_cap`]. The in-flight batch whose
//! worker died gets [`ServiceError::WorkerLost`] instead of a hang.

use crate::cache::{request_key_hash, DecisionCache, LocalDecisionCache, StoredKey};
use crate::faults::{EvalFault, FaultConfig, FaultPlan, StateFault, STATE_SLOT};
use crate::metrics::{Metrics, ReactorMetrics, ShardMetrics};
use crate::protocol::{
    DecisionRequest, DecisionResponse, HealthReport, HealthState, ReloadDeltaList, ReloadList,
    ReloadReport, StatsReport,
};
use crate::wire::DecisionRequestRef;
use abp::{Decision, Engine, FilterList, ListSource, Request, RequestOutcome};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::{Mutex, RwLock};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker (and cache) shards. Defaults to available parallelism,
    /// capped at 8.
    pub shards: usize,
    /// Bounded per-shard queue depth.
    pub queue_depth: usize,
    /// Total decision-cache entries across all shards.
    pub cache_capacity: usize,
    /// Per-batch evaluation deadline. When the deadline passes before
    /// every miss is evaluated, the batch fails with
    /// [`ServiceError::DeadlineExceeded`] instead of waiting out a
    /// stalled worker. `None` waits indefinitely.
    pub deadline: Option<Duration>,
    /// Fraction of `queue_depth` at which batches are shed: when any
    /// target shard's queue is at or past `queue_depth *
    /// shed_watermark`, the batch is refused with
    /// [`ServiceError::Overloaded`] before anything is enqueued.
    pub shed_watermark: f64,
    /// Restart delay for the first crash-loop respawn (a worker that
    /// died without completing a single job since its last spawn);
    /// doubles per consecutive no-progress death. Isolated panics
    /// restart immediately.
    pub restart_backoff: Duration,
    /// Upper bound on the escalating crash-loop delay.
    pub restart_backoff_cap: Duration,
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
            queue_depth: 1024,
            cache_capacity: 65_536,
            deadline: None,
            shed_watermark: 0.9,
            restart_backoff: Duration::from_millis(10),
            restart_backoff_cap: Duration::from_secs(1),
            faults: None,
            state_dir: None,
        }
    }
}

/// Why a batch could not be decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// A request in the batch was malformed; nothing was evaluated.
    BadRequest(String),
    /// Shed before evaluation: a target shard's queue is past the
    /// watermark. Nothing was enqueued; retry with backoff.
    Overloaded,
    /// The evaluation deadline passed before every miss was answered.
    DeadlineExceeded,
    /// A shard worker died mid-batch; unanswered slots were discarded
    /// rather than served as fabricated `NoMatch`.
    WorkerLost(String),
    /// The service has shut down.
    ShuttingDown,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BadRequest(msg) => write!(f, "{msg}"),
            ServiceError::Overloaded => write!(f, "overloaded: shard queue past watermark"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::WorkerLost(msg) => write!(f, "{msg}"),
            ServiceError::ShuttingDown => write!(f, "service is shut down"),
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

/// One cache miss staged for shard evaluation.
struct MissItem {
    index: usize,
    request: Request,
    key_hash: u64,
    key: StoredKey,
    tenant: u64,
}

/// A worker's answer: the shard id (so the scratch returns the vectors
/// to the right pool slot), the drained items vector (recycled), the
/// outcomes by batch index, and whether any item was skipped because
/// the batch deadline had already passed.
struct Reply {
    shard: usize,
    items: Vec<MissItem>,
    out: Vec<(usize, RequestOutcome)>,
    timed_out: bool,
}

/// A chunk of engine evaluations queued to one shard worker. Chunking
/// per (batch, shard) instead of per request keeps channel traffic —
/// and the futex wakeups under it — constant per batch.
struct Job {
    items: Vec<MissItem>,
    out: Vec<(usize, RequestOutcome)>,
    shard: usize,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: Sender<Reply>,
}

/// Guarantees the batch assembler hears back even if the worker panics
/// mid-job: on unwind, send an empty reply so the item-count check in
/// [`Service::decide_batch_into`] fails the batch instead of hanging.
struct ReplyOnPanic {
    reply: Option<(Sender<Reply>, usize)>,
}

impl Drop for ReplyOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Some((tx, shard)) = self.reply.take() {
                let _ = tx.send(Reply {
                    shard,
                    items: Vec::new(),
                    out: Vec::new(),
                    timed_out: false,
                });
            }
        }
    }
}

/// Reusable per-caller state for [`Service::decide_batch_into`]: the
/// response buffer, per-shard miss staging, and the miss reply channel.
/// Create one per connection (or loop) via [`Service::scratch`] and
/// reuse it — after the first few batches, the hit path stops
/// allocating entirely.
pub struct BatchScratch {
    responses: Vec<DecisionResponse>,
    shard_of: Vec<usize>,
    misses: Vec<Vec<MissItem>>,
    outs: Vec<Vec<(usize, RequestOutcome)>>,
    reply_tx: Sender<Reply>,
    reply_rx: Receiver<Reply>,
}

impl BatchScratch {
    fn new(shards: usize) -> BatchScratch {
        // Capacity = shard count, so workers never block replying.
        let (reply_tx, reply_rx) = bounded::<Reply>(shards);
        BatchScratch {
            responses: Vec::new(),
            shard_of: Vec::new(),
            misses: (0..shards).map(|_| Vec::new()).collect(),
            outs: (0..shards).map(|_| Vec::new()).collect(),
            reply_tx,
            reply_rx,
        }
    }

    /// The last batch's responses, in request order.
    pub fn responses(&self) -> &[DecisionResponse] {
        &self.responses
    }

    /// Drop any state that could leak across batches after a
    /// mid-dispatch failure: in-flight replies for the failed batch
    /// must not be mistaken for the next batch's answers.
    fn reset_after_error(&mut self, shards: usize) {
        let (reply_tx, reply_rx) = bounded::<Reply>(shards);
        self.reply_tx = reply_tx;
        self.reply_rx = reply_rx;
        for m in &mut self.misses {
            m.clear();
        }
    }
}

/// Reactor-owned evaluation state for [`Service::decide_batch_local`]:
/// an unsynchronized decision cache, the reactor's padded metrics, and
/// the fault-plan slot this thread draws from. One per reactor thread;
/// nothing in here is shared until `Stats`/`Health` merges the metrics
/// on demand.
pub struct LocalEval {
    cache: LocalDecisionCache,
    /// Engine generation the local cache's entries belong to; a newer
    /// snapshot generation clears the cache lazily on first use.
    generation_seen: u64,
    metrics: Arc<ReactorMetrics>,
    slot: usize,
    /// Batches larger than this escalate to the sharded worker pool
    /// (shed/deadline/supervision semantics) instead of monopolizing
    /// the reactor thread.
    inline_max: usize,
}

impl LocalEval {
    /// Entries currently memoized in the local cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

/// An alloc-free placeholder filled into every response slot before
/// dispatch (cloning an empty activation list allocates nothing).
fn placeholder_response() -> DecisionResponse {
    DecisionResponse {
        outcome: RequestOutcome {
            decision: Decision::NoMatch,
            activations: Vec::new(),
        },
        cached: false,
    }
}

/// What a worker reports to the supervisor when it exits, cleanly or
/// not.
struct WorkerEvent {
    shard: usize,
    panicked: bool,
}

/// State shared by handlers, workers, and the supervisor.
struct ServiceShared {
    snapshot: RwLock<Arc<EngineSnapshot>>,
    cache: DecisionCache,
    metrics: Metrics,
    /// Restarts per shard since startup (reported via `Health`).
    restarts: Vec<AtomicU64>,
    /// Jobs completed per shard — the supervisor's crash-loop
    /// detector: a worker that died without moving this counter gets
    /// an escalated backoff.
    jobs_done: Vec<AtomicU64>,
    /// Shards currently dead and awaiting respawn.
    down: AtomicUsize,
    /// Successful reloads since startup.
    reloads: AtomicU64,
    /// Serializes `reload`/`reload_delta`: a delta is applied against
    /// the serving bodies, so two concurrent reloads must not
    /// interleave between reading the bases and swapping the snapshot.
    reload_lock: Mutex<()>,
    /// Set once shutdown begins; `Health` reports `draining`.
    draining: std::sync::atomic::AtomicBool,
    faults: Option<FaultPlan>,
    /// Crash-safe snapshot store (`None` when persistence is off or
    /// the state dir could not be opened).
    state: Option<crate::state::StateStore>,
    /// Snapshot saves that failed (disk full, injected io error).
    /// Persistence is best effort: a failed save never fails the
    /// reload that triggered it, it is just counted here.
    snapshot_failures: AtomicU64,
}

impl ServiceShared {
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
}

/// Notifies the supervisor when the worker thread exits, flagging
/// whether it unwound from a panic.
struct WorkerSentinel {
    shard: usize,
    shared: Arc<ServiceShared>,
    notify: Sender<WorkerEvent>,
}

impl Drop for WorkerSentinel {
    fn drop(&mut self) {
        let panicked = std::thread::panicking();
        if panicked {
            self.shared.down.fetch_add(1, Ordering::SeqCst);
        }
        let _ = self.notify.send(WorkerEvent {
            shard: self.shard,
            panicked,
        });
    }
}

fn spawn_worker(
    shard: usize,
    rx: Receiver<Job>,
    shared: Arc<ServiceShared>,
    notify: Sender<WorkerEvent>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("abpd-shard-{shard}"))
        .spawn(move || {
            let _sentinel = WorkerSentinel {
                shard,
                shared: shared.clone(),
                notify,
            };
            while let Ok(mut job) = rx.recv() {
                let mut guard = ReplyOnPanic {
                    reply: Some((job.reply.clone(), job.shard)),
                };
                // One snapshot per job: a reload mid-job keeps this
                // chunk on the engine it started with, and its cache
                // inserts carry that engine's generation.
                let snap = shared.snapshot.read().clone();
                // Queue wait is shared by the whole chunk; each item
                // then adds its own eval time, so recorded latency is
                // what a caller saw for *that* decision, not the batch
                // average.
                let wait_us = job.enqueued.elapsed().as_micros() as u64;
                let latency = &shared.metrics.shard(job.shard).latency;
                let mut timed_out = false;
                for item in job.items.drain(..) {
                    if let Some(deadline) = job.deadline {
                        if Instant::now() >= deadline {
                            timed_out = true;
                            continue;
                        }
                    }
                    if let Some(plan) = &shared.faults {
                        match plan.eval_fault(job.shard) {
                            EvalFault::Panic => {
                                panic!("injected eval panic (shard {})", job.shard)
                            }
                            EvalFault::Delay(d) => std::thread::sleep(d),
                            EvalFault::None => {}
                        }
                    }
                    let eval_start = Instant::now();
                    let outcome = snap.engine.match_request_masked(&item.request, item.tenant);
                    shared.cache.insert(
                        job.shard,
                        item.key_hash,
                        item.key,
                        snap.generation,
                        outcome.clone(),
                    );
                    latency.record_us(wait_us + eval_start.elapsed().as_micros() as u64);
                    job.out.push((item.index, outcome));
                }
                guard.reply = None; // disarm: the chunk completed
                shared.jobs_done[job.shard].fetch_add(1, Ordering::Relaxed);
                // Receiver may have given up (client gone); a dead
                // reply channel is not an error.
                let _ = job.reply.send(Reply {
                    shard: job.shard,
                    items: job.items,
                    out: job.out,
                    timed_out,
                });
            }
        })
        .expect("spawn shard worker")
}

/// The supervisor: respawns panicked workers (with crash-loop backoff)
/// and joins everything once the job channels disconnect at shutdown.
#[allow(clippy::too_many_arguments)]
fn spawn_supervisor(
    receivers: Vec<Receiver<Job>>,
    shared: Arc<ServiceShared>,
    notify_tx: Sender<WorkerEvent>,
    notify_rx: Receiver<WorkerEvent>,
    mut handles: Vec<Option<JoinHandle<()>>>,
    base_backoff: Duration,
    backoff_cap: Duration,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("abpd-supervisor".to_string())
        .spawn(move || {
            let shards = receivers.len();
            let mut live = shards;
            let mut last_seen = vec![0u64; shards];
            let mut streak = vec![0u32; shards];
            while live > 0 {
                // Cannot disconnect: this thread holds `notify_tx`.
                let Ok(ev) = notify_rx.recv() else { break };
                if !ev.panicked {
                    // Clean exit: the shard's job channel disconnected
                    // (shutdown) and the worker drained it first.
                    live -= 1;
                    continue;
                }
                let done = shared.jobs_done[ev.shard].load(Ordering::Relaxed);
                if done == last_seen[ev.shard] {
                    // No job completed since the last spawn of this
                    // shard: a crash-loop, not an isolated panic.
                    streak[ev.shard] = (streak[ev.shard] + 1).min(16);
                } else {
                    streak[ev.shard] = 0;
                }
                last_seen[ev.shard] = done;
                if streak[ev.shard] > 0 {
                    let exp = streak[ev.shard].min(10) - 1;
                    std::thread::sleep((base_backoff * 2u32.pow(exp)).min(backoff_cap));
                }
                let h = spawn_worker(
                    ev.shard,
                    receivers[ev.shard].clone(),
                    shared.clone(),
                    notify_tx.clone(),
                );
                if let Some(old) = handles[ev.shard].replace(h) {
                    let _ = old.join(); // already dead; reclaim it
                }
                shared.restarts[ev.shard].fetch_add(1, Ordering::Relaxed);
                shared.down.fetch_sub(1, Ordering::SeqCst);
            }
            for h in handles.into_iter().flatten() {
                let _ = h.join();
            }
        })
        .expect("spawn supervisor")
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
    shared: Arc<ServiceShared>,
    senders: Vec<Sender<Job>>,
    supervisor: Option<JoinHandle<()>>,
    shed_limit: usize,
    deadline: Option<Duration>,
}

impl Service {
    /// Spawn the worker pool and its supervisor around a pre-compiled
    /// engine. The service holds no list bodies in this mode, so
    /// [`Service::reload_delta`] reports a base mismatch until a full
    /// [`Service::reload`] establishes them; use
    /// [`Service::start_with_lists`] when the list text is available.
    pub fn start(engine: Engine, config: &ServiceConfig) -> Service {
        Service::start_inner(engine, Vec::new(), config)
    }

    /// Spawn the service from filter list text: validate and compile
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
        let shards = config.shards.max(1);
        let filter_count = engine.request_filter_count();
        let list_checksum = serving_checksum(&lists);
        let shared = Arc::new(ServiceShared {
            snapshot: RwLock::new(Arc::new(EngineSnapshot {
                generation: 0,
                engine: Arc::new(engine),
                filter_count,
                lists: Arc::new(lists),
                list_checksum,
            })),
            cache: DecisionCache::new(shards, config.cache_capacity),
            metrics: Metrics::new(shards),
            restarts: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            jobs_done: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            down: AtomicUsize::new(0),
            reloads: AtomicU64::new(0),
            reload_lock: Mutex::new(()),
            draining: std::sync::atomic::AtomicBool::new(false),
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
        });
        // Persist the boot state immediately: a shard that crashes
        // before its first reload must still recover to the lists it
        // was serving, not to nothing.
        shared.persist_snapshot(StateFault::None);

        let queue_depth = config.queue_depth.max(1);
        let (notify_tx, notify_rx) = bounded::<WorkerEvent>(shards * 4);
        let mut senders = Vec::with_capacity(shards);
        let mut receivers = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = bounded::<Job>(queue_depth);
            senders.push(tx);
            handles.push(Some(spawn_worker(
                shard,
                rx.clone(),
                shared.clone(),
                notify_tx.clone(),
            )));
            receivers.push(rx);
        }
        let supervisor = spawn_supervisor(
            receivers,
            shared.clone(),
            notify_tx,
            notify_rx,
            handles,
            config.restart_backoff,
            config.restart_backoff_cap,
        );

        let shed_limit =
            ((queue_depth as f64 * config.shed_watermark).ceil() as usize).clamp(1, queue_depth);
        Service {
            shared,
            senders,
            supervisor: Some(supervisor),
            shed_limit,
            deadline: config.deadline,
        }
    }

    /// Worker shard count.
    pub fn shard_count(&self) -> usize {
        self.senders.len()
    }

    /// Request filters loaded in the serving engine generation.
    pub fn filter_count(&self) -> usize {
        self.shared.snapshot.read().filter_count
    }

    /// The engine generation currently serving (0 at startup, bumped
    /// by every successful [`Service::reload`]).
    pub fn generation(&self) -> u64 {
        self.shared.snapshot.read().generation
    }

    /// Fresh reusable scratch sized for this service's shard count.
    pub fn scratch(&self) -> BatchScratch {
        BatchScratch::new(self.senders.len())
    }

    /// Evaluate one request (convenience wrapper; allocates a scratch).
    pub fn decide(&self, req: &DecisionRequest) -> Result<DecisionResponse, ServiceError> {
        let mut out = self.decide_batch(std::slice::from_ref(req))?;
        Ok(out.pop().expect("one response per request"))
    }

    /// Evaluate a batch of owned requests (convenience wrapper;
    /// allocates a scratch — hot callers should hold a [`BatchScratch`]
    /// and use [`Service::decide_batch_into`]).
    pub fn decide_batch(
        &self,
        reqs: &[DecisionRequest],
    ) -> Result<Vec<DecisionResponse>, ServiceError> {
        let refs: Vec<DecisionRequestRef<'_>> =
            reqs.iter().map(DecisionRequest::as_request_ref).collect();
        let mut scratch = self.scratch();
        self.decide_batch_into(&refs, &mut scratch)?;
        Ok(std::mem::take(&mut scratch.responses))
    }

    /// Evaluate a batch of borrowed requests into `scratch.responses`
    /// (request order).
    ///
    /// Cache hits are answered inline without allocating; misses are
    /// fanned out to the shard workers and reassembled by index. Any
    /// malformed request fails the whole batch (the protocol answers
    /// one message per line, so partial answers have nowhere to go).
    /// Batches are refused with [`ServiceError::Overloaded`] when a
    /// target shard's queue is past the watermark, and fail with
    /// [`ServiceError::DeadlineExceeded`] when the configured deadline
    /// passes before every miss is evaluated.
    pub fn decide_batch_into(
        &self,
        reqs: &[DecisionRequestRef<'_>],
        scratch: &mut BatchScratch,
    ) -> Result<(), ServiceError> {
        let shards = self.senders.len();
        assert_eq!(
            scratch.misses.len(),
            shards,
            "scratch built for a different service"
        );
        scratch.responses.clear();
        scratch.responses.resize(reqs.len(), placeholder_response());
        scratch.shard_of.clear();

        let deadline = self.deadline.map(|d| Instant::now() + d);
        let generation = self.shared.snapshot.read().generation;
        let mut dispatched = 0usize;
        for (index, dr) in reqs.iter().enumerate() {
            let sitekey = dr.sitekey.as_deref();
            // Wire requests without a tenant resolve to the union mask
            // (every subscription bit): the legacy single-config view.
            let tenant = dr.tenant.unwrap_or(u64::MAX);
            let key_hash =
                request_key_hash(&dr.url, &dr.document, dr.resource_type, sitekey, tenant);
            let shard = self.shared.cache.shard_of(key_hash);
            scratch.shard_of.push(shard);
            let lookup_start = Instant::now();
            if let Some(outcome) = self.shared.cache.get(
                shard,
                key_hash,
                generation,
                &dr.url,
                &dr.document,
                dr.resource_type,
                sitekey,
                tenant,
            ) {
                let m = self.shared.metrics.shard(shard);
                m.cache_hits.fetch_add(1, Ordering::Relaxed);
                m.latency
                    .record_us(lookup_start.elapsed().as_micros() as u64);
                scratch.responses[index] = DecisionResponse {
                    outcome,
                    cached: true,
                };
            } else {
                // Only misses pay for URL validation: a request that
                // fails to parse can never have been inserted, so the
                // hit path above is already covered by it.
                let request =
                    Request::new(&dr.url, &dr.document, dr.resource_type).map_err(|e| {
                        for m in &mut scratch.misses {
                            m.clear();
                        }
                        ServiceError::BadRequest(format!(
                            "request {index}: bad url {:?}: {e:?}",
                            dr.url
                        ))
                    })?;
                let request = match sitekey {
                    Some(k) => request.with_sitekey(k),
                    None => request,
                };
                let key = StoredKey::new(&dr.url, &dr.document, dr.resource_type, sitekey, tenant);
                scratch.misses[shard].push(MissItem {
                    index,
                    request,
                    key_hash,
                    key,
                    tenant,
                });
                dispatched += 1;
            }
        }

        // Shed before enqueuing anything: if any target shard is past
        // the watermark, refuse the whole batch now. Checking up front
        // keeps the failure clean — no job is half-dispatched and no
        // stale reply can leak into the next batch.
        if dispatched > 0 {
            for shard in 0..shards {
                if !scratch.misses[shard].is_empty() && self.senders[shard].len() >= self.shed_limit
                {
                    self.shared.metrics.sheds.fetch_add(1, Ordering::Relaxed);
                    for m in &mut scratch.misses {
                        m.clear();
                    }
                    return Err(ServiceError::Overloaded);
                }
            }
        }

        let mut jobs = 0usize;
        for shard in 0..shards {
            if scratch.misses[shard].is_empty() {
                continue;
            }
            let items = std::mem::take(&mut scratch.misses[shard]);
            let mut out = std::mem::take(&mut scratch.outs[shard]);
            out.clear();
            let job = Job {
                items,
                out,
                shard,
                enqueued: Instant::now(),
                deadline,
                reply: scratch.reply_tx.clone(),
            };
            match self.senders[shard].try_send(job) {
                Ok(()) => jobs += 1,
                Err(TrySendError::Full(_)) => {
                    // The queue filled between the watermark check and
                    // here; earlier shards may already hold jobs, so
                    // reset the reply channel to orphan them.
                    self.shared.metrics.sheds.fetch_add(1, Ordering::Relaxed);
                    scratch.reset_after_error(shards);
                    return Err(ServiceError::Overloaded);
                }
                Err(TrySendError::Disconnected(_)) => {
                    scratch.reset_after_error(shards);
                    return Err(ServiceError::ShuttingDown);
                }
            }
        }

        let mut answered = 0usize;
        let mut timed_out = false;
        for _ in 0..jobs {
            let reply = match deadline {
                None => match scratch.reply_rx.recv() {
                    Ok(r) => r,
                    Err(_) => {
                        scratch.reset_after_error(shards);
                        return Err(ServiceError::WorkerLost(
                            "shard worker died mid-batch".to_string(),
                        ));
                    }
                },
                Some(dl) => {
                    let remaining = dl.saturating_duration_since(Instant::now());
                    match scratch.reply_rx.recv_timeout(remaining) {
                        Ok(r) => r,
                        Err(RecvTimeoutError::Timeout) => {
                            self.shared
                                .metrics
                                .deadline_timeouts
                                .fetch_add(1, Ordering::Relaxed);
                            scratch.reset_after_error(shards);
                            return Err(ServiceError::DeadlineExceeded);
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            scratch.reset_after_error(shards);
                            return Err(ServiceError::WorkerLost(
                                "shard worker died mid-batch".to_string(),
                            ));
                        }
                    }
                }
            };
            answered += reply.out.len();
            timed_out |= reply.timed_out;
            for &(index, ref outcome) in &reply.out {
                scratch.responses[index] = DecisionResponse {
                    outcome: outcome.clone(),
                    cached: false,
                };
            }
            // Return the drained vectors to their pool slots.
            scratch.misses[reply.shard] = reply.items;
            scratch.outs[reply.shard] = reply.out;
        }
        if answered != dispatched {
            scratch.reset_after_error(shards);
            if timed_out {
                // A worker skipped items whose deadline had already
                // passed while they sat in the queue.
                self.shared
                    .metrics
                    .deadline_timeouts
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::DeadlineExceeded);
            }
            // A worker panicked mid-chunk (its Drop guard sent a short
            // reply). Unanswered slots still hold the placeholder, so
            // fail the batch rather than serve fabricated NoMatch.
            return Err(ServiceError::WorkerLost(format!(
                "shard worker died mid-batch ({answered}/{dispatched} evaluations completed)"
            )));
        }

        // Account per-shard counters; latency was already recorded at
        // the point each decision was actually made (hit lookups above,
        // miss evaluations in the workers).
        for ((resp, &shard), dr) in scratch.responses.iter().zip(&scratch.shard_of).zip(reqs) {
            let m = self.shared.metrics.shard(shard);
            m.requests.fetch_add(1, Ordering::Relaxed);
            m.record_tenant(dr.tenant.unwrap_or(u64::MAX), resp.cached);
            match resp.outcome.decision {
                Decision::Block => {
                    m.blocks.fetch_add(1, Ordering::Relaxed);
                }
                Decision::AllowedByException => {
                    m.exceptions.fetch_add(1, Ordering::Relaxed);
                }
                Decision::NoMatch => {}
            }
        }
        Ok(())
    }

    /// Reactor-local evaluation state drawing faults from `slot`, with
    /// its own `cache_capacity`-entry cache and `inline_max` escalation
    /// threshold. The caller supplies (and keeps a handle to) the
    /// [`ReactorMetrics`] so it can merge them into `Stats`/`Health`.
    pub fn local_eval(
        &self,
        slot: usize,
        cache_capacity: usize,
        inline_max: usize,
        metrics: Arc<ReactorMetrics>,
    ) -> LocalEval {
        LocalEval {
            cache: LocalDecisionCache::new(cache_capacity),
            generation_seen: self.generation(),
            metrics,
            slot,
            inline_max: inline_max.max(1),
        }
    }

    /// Evaluate a batch on the calling thread — the event-driven
    /// server's hot path. No cross-thread handoff: the cache lookup,
    /// the engine evaluation, and the metrics increments all touch
    /// reactor-owned state (`local`), so the steady state contends on
    /// nothing. Batches larger than the inline threshold escalate to
    /// [`Service::decide_batch_into`] and keep the worker pool's
    /// shed/deadline/supervision semantics.
    ///
    /// Error semantics mirror the pool path: malformed requests fail
    /// the batch with [`ServiceError::BadRequest`], a passed deadline
    /// with [`ServiceError::DeadlineExceeded`], and an evaluation panic
    /// — injected or real, caught without killing the reactor thread —
    /// with [`ServiceError::WorkerLost`] (counted in
    /// [`ReactorMetrics::eval_panics`], which `Health` appends to
    /// `shard_restarts`).
    pub fn decide_batch_local(
        &self,
        reqs: &[DecisionRequestRef<'_>],
        scratch: &mut BatchScratch,
        local: &mut LocalEval,
    ) -> Result<(), ServiceError> {
        if reqs.len() > local.inline_max {
            return self.decide_batch_into(reqs, scratch);
        }
        scratch.responses.clear();
        scratch.responses.resize(reqs.len(), placeholder_response());
        let deadline = self.deadline.map(|d| Instant::now() + d);
        // One snapshot per batch: a reload mid-batch keeps the whole
        // batch on the engine it started with.
        let snap = self.shared.snapshot.read().clone();
        if snap.generation != local.generation_seen {
            // Stale entries are already fenced by the stamp; clearing
            // stops them squatting on LRU capacity.
            local.cache.clear();
            local.generation_seen = snap.generation;
        }
        let (mut hits, mut blocks, mut exceptions) = (0u64, 0u64, 0u64);
        for (index, dr) in reqs.iter().enumerate() {
            let sitekey = dr.sitekey.as_deref();
            // Wire requests without a tenant resolve to the union mask
            // (every subscription bit): the legacy single-config view.
            let tenant = dr.tenant.unwrap_or(u64::MAX);
            let key_hash =
                request_key_hash(&dr.url, &dr.document, dr.resource_type, sitekey, tenant);
            let start = Instant::now();
            let (outcome, cached) = match local.cache.get(
                key_hash,
                snap.generation,
                &dr.url,
                &dr.document,
                dr.resource_type,
                sitekey,
                tenant,
            ) {
                Some(hit) => {
                    hits += 1;
                    (hit, true)
                }
                None => {
                    if let Some(dl) = deadline {
                        if Instant::now() >= dl {
                            self.shared
                                .metrics
                                .deadline_timeouts
                                .fetch_add(1, Ordering::Relaxed);
                            return Err(ServiceError::DeadlineExceeded);
                        }
                    }
                    let request =
                        Request::new(&dr.url, &dr.document, dr.resource_type).map_err(|e| {
                            ServiceError::BadRequest(format!(
                                "request {index}: bad url {:?}: {e:?}",
                                dr.url
                            ))
                        })?;
                    let request = match sitekey {
                        Some(k) => request.with_sitekey(k),
                        None => request,
                    };
                    if let Some(plan) = &self.shared.faults {
                        match plan.eval_fault(local.slot) {
                            EvalFault::Panic => {
                                // The pool analogue kills a worker and
                                // answers WorkerLost; inline the panic
                                // is accounted and the same error
                                // returned without losing the thread.
                                local.metrics.eval_panics.fetch_add(1, Ordering::Relaxed);
                                return Err(ServiceError::WorkerLost(format!(
                                    "inline eval panicked (reactor slot {})",
                                    local.slot
                                )));
                            }
                            EvalFault::Delay(d) => std::thread::sleep(d),
                            EvalFault::None => {}
                        }
                    }
                    let evaled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        snap.engine.match_request_masked(&request, tenant)
                    }));
                    let Ok(got) = evaled else {
                        local.metrics.eval_panics.fetch_add(1, Ordering::Relaxed);
                        return Err(ServiceError::WorkerLost("inline eval panicked".to_string()));
                    };
                    local.cache.insert(
                        key_hash,
                        StoredKey::new(&dr.url, &dr.document, dr.resource_type, sitekey, tenant),
                        snap.generation,
                        got.clone(),
                    );
                    (got, false)
                }
            };
            local
                .metrics
                .shard
                .latency
                .record_us(start.elapsed().as_micros() as u64);
            match outcome.decision {
                Decision::Block => blocks += 1,
                Decision::AllowedByException => exceptions += 1,
                Decision::NoMatch => {}
            }
            local.metrics.shard.record_tenant(tenant, cached);
            scratch.responses[index] = DecisionResponse { outcome, cached };
        }
        let m = &local.metrics.shard;
        m.requests.fetch_add(reqs.len() as u64, Ordering::Relaxed);
        m.cache_hits.fetch_add(hits, Ordering::Relaxed);
        m.blocks.fetch_add(blocks, Ordering::Relaxed);
        m.exceptions.fetch_add(exceptions, Ordering::Relaxed);
        Ok(())
    }

    /// Compile the given lists into a new engine generation and swap it
    /// in atomically. On success every subsequent decision — and every
    /// cache lookup — uses the new generation; the decision cache is
    /// cleared as well. On rejection (a list whose malformed-line share
    /// exceeds 10%) the previous engine keeps serving untouched and the
    /// error carries a bounded sample of the offending lines.
    pub fn reload(&self, lists: &[ReloadList]) -> Result<ReloadReport, String> {
        let _guard = self.shared.reload_lock.lock();
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
        let _guard = self.shared.reload_lock.lock();
        let snap = self.shared.snapshot.read().clone();
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
            let mut slot = self.shared.snapshot.write();
            generation = slot.generation + 1;
            *slot = Arc::new(EngineSnapshot {
                generation,
                engine: Arc::new(engine),
                filter_count,
                lists: Arc::new(lists),
                list_checksum,
            });
        }
        // The stamp alone already fences old entries; clearing returns
        // their memory and keeps the cache from filling with dead keys.
        self.shared.cache.clear();
        self.shared.reloads.fetch_add(1, Ordering::Relaxed);
        // Persist *after* the swap, *before* the ack is sent: if the
        // process dies mid-save, the caller never saw a success, so
        // recovering to the previous snapshot is consistent with what
        // the fleet believes this shard acked.
        let fault = self
            .shared
            .faults
            .as_ref()
            .map_or(StateFault::None, |p| p.state_fault(STATE_SLOT));
        self.shared.persist_snapshot(fault);
        Ok(ReloadReport {
            generation,
            filters: filter_count as u64,
        })
    }

    /// The list bodies the serving engine was compiled from (empty for
    /// a service started from a pre-compiled engine).
    pub fn serving_lists(&self) -> Arc<Vec<ReloadList>> {
        self.shared.snapshot.read().lists.clone()
    }

    /// [`serving_checksum`] of the serving list bodies (0 when none).
    pub fn list_checksum(&self) -> u64 {
        self.shared.snapshot.read().list_checksum
    }

    /// Snapshot saves that failed since startup (persistence is best
    /// effort; failures are counted, not propagated).
    pub fn snapshot_failures(&self) -> u64 {
        self.shared.snapshot_failures.load(Ordering::Relaxed)
    }

    /// Snapshot service health: liveness state plus resilience
    /// counters. `degraded` means at least one shard worker is dead and
    /// awaiting respawn; `draining` means shutdown has begun.
    pub fn health(&self) -> HealthReport {
        let state = if self.shared.draining.load(Ordering::SeqCst) {
            HealthState::Draining
        } else if self.shared.down.load(Ordering::SeqCst) > 0 {
            HealthState::Degraded
        } else {
            HealthState::Ok
        };
        HealthReport {
            state,
            generation: self.generation(),
            reloads: self.shared.reloads.load(Ordering::Relaxed),
            shard_restarts: self
                .shared
                .restarts
                .iter()
                .map(|r| r.load(Ordering::Relaxed))
                .collect(),
            shed: self.shared.metrics.sheds.load(Ordering::Relaxed),
            deadline_timeouts: self
                .shared
                .metrics
                .deadline_timeouts
                .load(Ordering::Relaxed),
            list_checksum: self.list_checksum(),
            distinct_tenants: self.shared.metrics.distinct_tenants_with(&[]),
        }
    }

    /// Mark the service as draining (reported by `Health`); decisions
    /// keep flowing so queued work can be answered.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Snapshot service statistics.
    pub fn stats(&self) -> StatsReport {
        self.shared.metrics.report()
    }

    /// Statistics merged with per-reactor counters: worker shards
    /// first, then one entry per reactor, totals over all of them.
    /// The wire shape stays the frozen [`StatsReport`]; only the shard
    /// list grows.
    pub fn stats_with(&self, reactors: &[Arc<ReactorMetrics>]) -> StatsReport {
        let extra: Vec<&ShardMetrics> = reactors.iter().map(|r| &r.shard.0).collect();
        self.shared.metrics.report_with_extra(&extra)
    }

    /// Health merged with per-reactor counters: each reactor's caught
    /// inline-panic count is appended to `shard_restarts` after the
    /// worker shards — the event-mode equivalent of a supervised
    /// respawn, reported through the same field so dashboards need no
    /// new wire shape.
    pub fn health_with(&self, reactors: &[Arc<ReactorMetrics>]) -> HealthReport {
        let mut report = self.health();
        report.shard_restarts.extend(
            reactors
                .iter()
                .map(|r| r.eval_panics.load(Ordering::Relaxed)),
        );
        let extra: Vec<&ShardMetrics> = reactors.iter().map(|r| &r.shard.0).collect();
        report.distinct_tenants = self.shared.metrics.distinct_tenants_with(&extra);
        report
    }

    /// Entries currently memoized.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Drain queues, join the workers, and stop the supervisor.
    pub fn shutdown(mut self) {
        self.begin_drain();
        self.senders.clear(); // disconnects channels; workers drain then exit
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.senders.clear();
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp::{FilterList, ListSource, ResourceType};
    use std::sync::atomic::AtomicBool;

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
            queue_depth: 16,
            cache_capacity: 300,
            ..ServiceConfig::default()
        }
    }

    fn service() -> Service {
        Service::start(test_engine(), &config())
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
        let svc = service();
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
        ];
        let got = svc.decide_batch(&reqs).unwrap();
        for (dr, resp) in reqs.iter().zip(&got) {
            let direct = engine
                .match_request(&Request::new(&dr.url, &dr.document, dr.resource_type).unwrap());
            assert_eq!(resp.outcome, direct);
            assert!(!resp.cached, "first sight is never cached");
        }
        // Second pass: everything cached, same outcomes.
        let again = svc.decide_batch(&reqs).unwrap();
        for (first, second) in got.iter().zip(&again) {
            assert_eq!(first.outcome, second.outcome);
            assert!(second.cached);
        }
        svc.shutdown();
    }

    #[test]
    fn tenant_masked_decisions_stay_isolated() {
        let svc = service();
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
        let got = svc.decide_batch(&reqs).unwrap();
        assert_eq!(got[0].outcome.decision, abp::Decision::Block);
        assert_eq!(got[1].outcome.decision, abp::Decision::AllowedByException);
        assert_eq!(got[2].outcome.decision, abp::Decision::NoMatch);
        // First sight: nothing can be served from another tenant's
        // cache entry, even though url/document/type are identical.
        for resp in &got {
            assert!(!resp.cached, "cross-tenant cache hit");
        }
        // Each tenant re-hits its own entry with its own verdict.
        let again = svc.decide_batch(&reqs).unwrap();
        for (first, second) in got.iter().zip(&again) {
            assert_eq!(first.outcome, second.outcome);
            assert!(second.cached);
        }
        // The tenantless request is the union view: same verdict as
        // the all-bits mask but a distinct cache identity.
        let union = svc.decide(&base).unwrap();
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
        svc.shutdown();
    }

    #[test]
    fn scratch_reuse_matches_fresh_calls() {
        let svc = service();
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
            svc.decide_batch_into(&refs, &mut scratch).unwrap();
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
        let svc = service();
        let mut scratch = svc.scratch();
        let good = dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        );
        let bad = dr("not a url", "example.com", ResourceType::Image);
        let refs = vec![good.as_request_ref(), bad.as_request_ref()];
        let err = svc.decide_batch_into(&refs, &mut scratch).unwrap_err();
        assert!(matches!(err, ServiceError::BadRequest(_)), "{err}");
        // The same scratch keeps working afterwards.
        let refs = vec![good.as_request_ref()];
        svc.decide_batch_into(&refs, &mut scratch).unwrap();
        assert_eq!(scratch.responses().len(), 1);
        assert_eq!(scratch.responses()[0].outcome.decision, Decision::Block);
    }

    #[test]
    fn ipv6_literal_url_is_decided_not_rejected() {
        // One unparseable URL fails its whole batch, so a bracketed
        // IPv6 host must parse, with or without a port. IP hosts have
        // no registrable domain: the party test is exact-host.
        let list = FilterList::parse(ListSource::EasyList, "/ad.js$third-party\n");
        let svc = Service::start(Engine::from_lists([&list]), &config());
        let got = svc
            .decide_batch(&[
                dr("http://[::1]/ad.js", "[::1]", ResourceType::Script),
                dr("http://[::1]:8080/ad.js", "[::1]", ResourceType::Script),
                dr("http://[::1]/ad.js", "[::2]", ResourceType::Script),
            ])
            .unwrap();
        assert_eq!(got[0].outcome.decision, Decision::NoMatch);
        assert_eq!(got[1].outcome.decision, Decision::NoMatch);
        assert_eq!(got[2].outcome.decision, Decision::Block);
        svc.shutdown();
    }

    #[test]
    fn bad_url_fails_batch() {
        let svc = service();
        let err = svc
            .decide(&dr("not a url", "example.com", ResourceType::Image))
            .unwrap_err();
        assert!(err.to_string().contains("bad url"), "{err}");
    }

    #[test]
    fn stats_count_decisions() {
        let svc = service();
        let block = dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        );
        svc.decide(&block).unwrap();
        svc.decide(&block).unwrap(); // cached
        let s = svc.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.blocks, 2);
        assert_eq!(s.exceptions, 0);
        assert_eq!(svc.cache_len(), 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let svc = service();
        assert!(svc.decide_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn sitekey_distinguishes_cache_entries() {
        let svc = service();
        let plain = dr(
            "http://example.com/style.css",
            "example.com",
            ResourceType::Stylesheet,
        );
        let mut keyed = plain.clone();
        keyed.sitekey = Some("SITEKEY".into());
        let a = svc.decide(&plain).unwrap();
        let b = svc.decide(&keyed).unwrap();
        assert!(!a.cached && !b.cached, "distinct keys never collide");
        assert!(svc.decide(&keyed).unwrap().cached);
    }

    #[test]
    fn concurrent_callers_agree() {
        let svc = Arc::new(service());
        let engine = Arc::new(test_engine());
        let mut handles = Vec::new();
        for t in 0..4 {
            let svc = svc.clone();
            let engine = engine.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let req = dr(
                        &format!("http://host{}.doubleclick.net/u{}.js", i % 7, i),
                        &format!("site{t}.example"),
                        ResourceType::Script,
                    );
                    let resp = svc.decide(&req).unwrap();
                    let direct = engine.match_request(
                        &Request::new(&req.url, &req.document, req.resource_type).unwrap(),
                    );
                    assert_eq!(resp.outcome, direct);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn reload_swaps_decisions_and_bumps_generation() {
        let svc = service();
        let req = dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        );
        assert_eq!(svc.decide(&req).unwrap().outcome.decision, Decision::Block);
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

        let resp = svc.decide(&req).unwrap();
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
        let req = dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        );
        assert_eq!(svc.decide(&req).unwrap().outcome.decision, Decision::Block);
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
            svc.decide(&req).unwrap().outcome.decision,
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
        let bare = service();
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
        svc.shutdown();
    }

    #[test]
    fn malformed_reload_rolls_back() {
        let svc = service();
        let req = dr(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        );
        assert_eq!(svc.decide(&req).unwrap().outcome.decision, Decision::Block);

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
        assert_eq!(svc.decide(&req).unwrap().outcome.decision, Decision::Block);
    }

    #[test]
    fn worker_panic_is_survived_and_reported() {
        let mut cfg = config();
        cfg.shards = 1;
        // Every evaluation panics at first; the schedule is
        // deterministic, so drawing past the panic rate is just a
        // matter of retrying.
        cfg.faults = Some(FaultConfig {
            eval_panic_per_million: 300_000, // 30%
            seed: 7,
            ..FaultConfig::default()
        });
        cfg.restart_backoff = Duration::from_millis(1);
        let svc = Service::start(test_engine(), &cfg);
        let mut lost = 0u32;
        let mut ok = 0u32;
        for i in 0..60 {
            let req = dr(
                &format!("http://h{i}.doubleclick.net/a.js"),
                "example.com",
                ResourceType::Script,
            );
            match svc.decide(&req) {
                Ok(resp) => {
                    assert_eq!(resp.outcome.decision, Decision::Block);
                    ok += 1;
                }
                Err(ServiceError::WorkerLost(_)) => lost = lost.saturating_add(1),
                Err(other) => panic!("unexpected error: {other}"),
            }
            // Give the supervisor a beat to respawn before retrying.
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(lost > 0, "panic rate of 30% must lose some batches");
        assert!(ok > 0, "restarts must bring the shard back");
        let h = svc.health();
        assert!(h.shard_restarts[0] > 0, "restarts must be counted");
        svc.shutdown();
    }

    #[test]
    fn deadline_fails_stalled_batches() {
        let mut cfg = config();
        cfg.shards = 1;
        cfg.deadline = Some(Duration::from_millis(20));
        cfg.faults = Some(FaultConfig {
            eval_delay_per_million: 1_000_000, // every evaluation stalls
            eval_delay_ms: 200,
            ..FaultConfig::default()
        });
        let svc = Service::start(test_engine(), &cfg);
        let err = svc
            .decide(&dr(
                "http://ad.doubleclick.net/x.js",
                "example.com",
                ResourceType::Script,
            ))
            .unwrap_err();
        assert_eq!(err, ServiceError::DeadlineExceeded);
        assert!(svc.health().deadline_timeouts >= 1);
        svc.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let mut cfg = config();
        cfg.shards = 1;
        cfg.queue_depth = 2;
        cfg.shed_watermark = 0.5; // shed when 1 job is already queued
        cfg.faults = Some(FaultConfig {
            eval_delay_per_million: 1_000_000,
            eval_delay_ms: 50,
            ..FaultConfig::default()
        });
        let svc = Arc::new(Service::start(test_engine(), &cfg));
        // Keep the single shard saturated from background threads (they
        // spin until told to stop, so the queue slot stays contended),
        // then observe a shed from the foreground.
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..4 {
            let svc = svc.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let _ = svc.decide(&dr(
                        &format!("http://h{t}x{i}.doubleclick.net/a.js"),
                        "example.com",
                        ResourceType::Script,
                    ));
                    i += 1;
                }
            }));
        }
        let mut shed = false;
        for i in 0..50 {
            match svc.decide(&dr(
                &format!("http://fg{i}.doubleclick.net/a.js"),
                "example.com",
                ResourceType::Script,
            )) {
                Err(ServiceError::Overloaded) => {
                    shed = true;
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert!(shed, "a saturated queue must shed");
        assert!(svc.health().shed >= 1);
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
        let svc = Service::start_with_lists(lists.clone(), &cfg).unwrap();

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
        let svc2 = Service::start_with_lists(recovered.lists, &cfg2).unwrap();
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
            let a = svc.decide(&req).unwrap();
            let b = svc2.decide(&req).unwrap();
            assert_eq!(a.outcome, b.outcome, "recovery parity for {}", req.url);
        }
        svc.shutdown();
        svc2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
