//! # abpd-proxy — a consistent-hash router for an abpd fleet
//!
//! One abpd process serves one core count's worth of decisions; the
//! paper's crawl workloads want more. This crate puts a router in
//! front of N abpd shards, speaking the *same* NDJSON wire protocol on
//! both sides, so every existing client ([`abpd::Client`],
//! [`abpd::RetryClient`], the `benchmark/` harness) works against a
//! fleet unchanged.
//!
//! Routing is a consistent-hash ring ([`ring`]) keyed by the same
//! fields as the decision cache (url, document, resource type,
//! sitekey), so each shard's decision cache only ever sees its own slice of
//! the keyspace — fleet cache capacity adds up instead of duplicating.
//! A shard that fails its periodic `Health` probe is routed around; a
//! request that hits a dead, shedding, or timed-out shard is *hedged*
//! to the next distinct shard on its ring walk.
//!
//! The router evaluates nothing, so it decodes nothing it does not
//! hash: a request line is parsed once for its routing keys and for
//! where each batch element sits, and from there on decisions are
//! *spliced* — request bytes copied as sent into per-shard sub-batch
//! lines, reply bytes copied as the shards encoded them into the
//! client's reply (`abpd::wire`'s span finders; DESIGN.md §8).
//!
//! `Reload` and `ReloadDelta` lines fan out to every *healthy* shard
//! and the reply reports fleet convergence: the proxy re-probes each
//! shard's serving checksum after the swap and answers `Error` if the
//! fleet diverged (a client then falls back to a full `Reload`). A
//! shard that was down during a reload rejoins via the prober: when a
//! probe finds a healthy shard serving a stale checksum, the proxy
//! ships it a per-list [`abpdelta`] delta from its retained body
//! history (or a full `Reload` when the stale base is unknown).
//!
//! Two overload guards protect the fleet itself: a per-backend
//! *circuit breaker* (consecutive transport failures open it; an open
//! slot is skipped outright; after a cooldown a single half-open trial
//! request decides whether it recloses) and a token-bucket *hedge
//! budget* that caps failure-triggered retries fleet-wide, so a
//! flapping shard cannot amplify load onto its neighbours.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ring;

use abpd::protocol::{
    HealthReport, HealthState, ReloadDeltaList, ReloadList, ReloadMismatch, ReloadReport,
    ServerMessage, StatsReport,
};
use abpd::wire::{self, ClientMessageRef, DecisionRequestRef, DecisionShape, LineRead};
use abpd::{serving_checksum, Client};
use ring::HashRing;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Address to bind; port 0 picks a free port.
    pub addr: String,
    /// Backend shard addresses (`host:port`), one per ring slot.
    pub backends: Vec<String>,
    /// Ring points per shard; more points, smoother key split.
    pub vnodes: usize,
    /// How often the prober re-checks each shard's health.
    pub probe_interval: Duration,
    /// Reply timeout for forwarded requests; a shard that exceeds it
    /// is marked unhealthy and the request is hedged.
    pub reply_timeout: Duration,
    /// Longest accepted line in either direction. Reload lines carry
    /// whole list bodies, so this defaults to 16 MiB.
    pub max_line_bytes: usize,
    /// Consecutive transport failures that open a slot's circuit
    /// breaker. An open slot is skipped by routing and fan-out until
    /// its cooldown elapses.
    pub breaker_failure_threshold: u32,
    /// How long an opened breaker rejects work before allowing one
    /// half-open trial request.
    pub breaker_open: Duration,
    /// Token-bucket refill rate for failure-triggered hedge/retry
    /// attempts, in decisions per second. Routing around a
    /// breaker-open slot is free; only extra attempts after an actual
    /// failure draw from the budget.
    pub hedge_budget_per_sec: f64,
    /// Token-bucket burst capacity for hedge/retry attempts.
    pub hedge_budget_burst: f64,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            vnodes: 64,
            probe_interval: Duration::from_millis(500),
            reply_timeout: Duration::from_secs(10),
            max_line_bytes: 16 * 1024 * 1024,
            breaker_failure_threshold: 5,
            breaker_open: Duration::from_millis(500),
            hedge_budget_per_sec: 500.0,
            hedge_budget_burst: 1000.0,
        }
    }
}

/// One shard slot's live state. The slot (ring position) is fixed; the
/// address behind it may change when a shard respawns — `epoch` bumps
/// on every address change so cached connections know to reconnect.
struct BackendState {
    addr: parking_lot::RwLock<String>,
    epoch: AtomicU64,
    healthy: AtomicBool,
    /// Requests this slot answered (decisions, not lines).
    forwarded: AtomicU64,
    /// Requests hedged *away* from this slot after it failed.
    hedged_away: AtomicU64,
    /// Serving checksum seen by the last successful probe.
    last_checksum: AtomicU64,
    /// Transport failures since the last success; feeds the breaker.
    consecutive_failures: AtomicU32,
    /// Breaker state: 0 = closed. Non-zero = open until this many
    /// milliseconds after the proxy started; once that instant passes
    /// the breaker is *half-open* until a trial request settles it.
    open_until_ms: AtomicU64,
    /// Half-open gate: at most one in-flight trial request at a time.
    half_open_trial: AtomicBool,
    /// Times the breaker transitioned closed -> open.
    breaker_opens: AtomicU64,
    /// Bytes shipped to this slot as rejoin catch-up deltas.
    rejoin_delta_bytes: AtomicU64,
    /// Bytes shipped to this slot as rejoin full-body reloads.
    rejoin_full_bytes: AtomicU64,
}

/// A point-in-time snapshot of one shard slot, for reporting.
#[derive(Debug, Clone)]
pub struct BackendReport {
    /// Current address behind the slot.
    pub addr: String,
    /// Did the last probe (or forward) succeed?
    pub healthy: bool,
    /// Decisions this slot answered.
    pub forwarded: u64,
    /// Decisions hedged away from this slot after a failure.
    pub hedged_away: u64,
    /// Serving checksum at the last successful probe.
    pub last_checksum: u64,
    /// Is the slot's circuit breaker currently rejecting work?
    pub breaker_open: bool,
    /// Times the breaker transitioned closed -> open.
    pub breaker_opens: u64,
    /// Bytes shipped to this slot as rejoin catch-up deltas.
    pub rejoin_delta_bytes: u64,
    /// Bytes shipped to this slot as rejoin full-body reloads.
    pub rejoin_full_bytes: u64,
}

/// How many superseded fleet states the proxy remembers for delta
/// catch-up. A shard serving any of the last N converged checksums
/// rejoins on a delta; anything older falls back to a full reload.
const RETAINED_HISTORY: usize = 16;

/// The list bodies the fleet currently serves, plus a bounded history
/// of superseded states keyed by serving checksum. Populated by
/// converged fan-out reloads; consulted by the prober's rejoin path.
struct RetainedBodies {
    current: Option<(u64, Arc<Vec<ReloadList>>)>,
    history: VecDeque<(u64, Arc<Vec<ReloadList>>)>,
}

impl RetainedBodies {
    /// The bodies behind `checksum`, current or historical.
    fn lookup(&self, checksum: u64) -> Option<Arc<Vec<ReloadList>>> {
        if let Some((c, l)) = &self.current {
            if *c == checksum {
                return Some(l.clone());
            }
        }
        self.history
            .iter()
            .find(|(c, _)| *c == checksum)
            .map(|(_, l)| l.clone())
    }

    /// Make `(checksum, lists)` the current state, demoting the old
    /// current into the bounded history.
    fn advance(&mut self, checksum: u64, lists: Arc<Vec<ReloadList>>) {
        if let Some((old_ck, old)) = self.current.take() {
            if old_ck != checksum {
                self.history.retain(|(c, _)| *c != old_ck);
                self.history.push_back((old_ck, old));
                while self.history.len() > RETAINED_HISTORY {
                    self.history.pop_front();
                }
            }
        }
        self.current = Some((checksum, lists));
    }

    /// The fleet converged on `checksum` but the proxy could not
    /// derive the bodies behind it: demote the now-stale current entry
    /// into history so the prober never "catches a shard up" to a
    /// state the fleet has already left (a rollback, not a rejoin).
    fn invalidate_if_stale(&mut self, checksum: u64) {
        let stale = self.current.as_ref().is_some_and(|(ck, _)| *ck != checksum);
        if stale {
            let (old_ck, old) = self.current.take().expect("just checked");
            self.history.retain(|(c, _)| *c != old_ck);
            self.history.push_back((old_ck, old));
            while self.history.len() > RETAINED_HISTORY {
                self.history.pop_front();
            }
        }
    }
}

/// The hedge/retry token bucket. One bucket for the whole fleet:
/// overload is a fleet-level phenomenon, so the guard against retry
/// amplification is fleet-level too.
struct HedgeBucket {
    tokens: f64,
    last: Instant,
}

struct Shared {
    backends: Vec<BackendState>,
    ring: HashRing,
    running: AtomicBool,
    open_connections: AtomicUsize,
    reply_timeout: Duration,
    max_line_bytes: usize,
    /// Reference instant for breaker deadlines (`open_until_ms`).
    started: Instant,
    breaker_threshold: u32,
    breaker_open: Duration,
    hedge: parking_lot::Mutex<HedgeBucket>,
    hedge_rate: f64,
    hedge_burst: f64,
    /// Hedge/retry attempts denied because the budget ran dry.
    hedge_denied: AtomicU64,
    retained: parking_lot::Mutex<RetainedBodies>,
}

impl Shared {
    fn healthy(&self, slot: usize) -> bool {
        self.backends[slot].healthy.load(Ordering::SeqCst)
    }

    fn mark(&self, slot: usize, healthy: bool) {
        self.backends[slot].healthy.store(healthy, Ordering::SeqCst);
    }

    fn addr_of(&self, slot: usize) -> (String, u64) {
        let b = &self.backends[slot];
        // Read the epoch first: if an update lands between the two
        // reads we cache the *new* address under the *old* epoch and
        // simply reconnect one time more than strictly needed.
        let epoch = b.epoch.load(Ordering::SeqCst);
        (b.addr.read().clone(), epoch)
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Side-effect-free: is `slot`'s breaker currently rejecting work?
    /// (Half-open counts as *not* rejecting; the CAS in
    /// [`Shared::breaker_allows`] limits trials to one at a time.)
    fn breaker_open_now(&self, slot: usize) -> bool {
        let open_until = self.backends[slot].open_until_ms.load(Ordering::SeqCst);
        open_until != 0 && self.now_ms() < open_until
    }

    /// Routing gate for one attempt: closed lets everything through,
    /// open rejects, half-open admits exactly one trial request (the
    /// CAS winner) whose outcome recloses or reopens the breaker.
    fn breaker_allows(&self, slot: usize) -> bool {
        let b = &self.backends[slot];
        let open_until = b.open_until_ms.load(Ordering::SeqCst);
        if open_until == 0 {
            return true;
        }
        if self.now_ms() < open_until {
            return false;
        }
        b.half_open_trial
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// A transport failure against `slot`: count it, and open (or
    /// re-open, after a failed half-open trial) the breaker once the
    /// consecutive-failure threshold is crossed.
    fn record_failure(&self, slot: usize) {
        let b = &self.backends[slot];
        let failures = b.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        let open_until = b.open_until_ms.load(Ordering::SeqCst);
        let now = self.now_ms();
        let was_open = open_until != 0;
        let half_open = was_open && now >= open_until;
        if failures >= self.breaker_threshold || half_open {
            // `open_until_ms` of 0 means closed, so floor the deadline
            // at 1ms past start.
            let deadline = (now + self.breaker_open.as_millis() as u64).max(1);
            b.open_until_ms.store(deadline, Ordering::SeqCst);
            b.half_open_trial.store(false, Ordering::SeqCst);
            if !was_open {
                b.breaker_opens.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Any successful exchange with `slot` (forward, probe, or typed
    /// reply): the transport works, so the breaker closes.
    fn record_success(&self, slot: usize) {
        let b = &self.backends[slot];
        b.consecutive_failures.store(0, Ordering::SeqCst);
        b.open_until_ms.store(0, Ordering::SeqCst);
        b.half_open_trial.store(false, Ordering::SeqCst);
    }

    /// Release a half-open trial slot without settling the breaker
    /// (the trial ended in `Overloaded`: transport fine, shard busy).
    fn release_trial(&self, slot: usize) {
        self.backends[slot]
            .half_open_trial
            .store(false, Ordering::SeqCst);
    }

    /// Draw `n` decisions' worth of hedge budget. Returns false (and
    /// counts the denial) when the bucket runs dry — the caller sheds
    /// instead of retrying.
    fn take_hedge(&self, n: u64) -> bool {
        let want = n as f64;
        let mut b = self.hedge.lock();
        let now = Instant::now();
        let dt = now.duration_since(b.last).as_secs_f64();
        b.last = now;
        b.tokens = (b.tokens + dt * self.hedge_rate).min(self.hedge_burst);
        if b.tokens >= want {
            b.tokens -= want;
            true
        } else {
            self.hedge_denied.fetch_add(n, Ordering::Relaxed);
            false
        }
    }
}

/// A running router; stop it with [`Proxy::shutdown`] or the
/// `Shutdown` wire verb (which also shuts the shards down).
pub struct Proxy {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl Proxy {
    /// Bind the router and probe every shard once so routing works
    /// immediately. Shards that are down at start are simply unhealthy
    /// until the prober sees them answer.
    pub fn start(config: &ProxyConfig) -> std::io::Result<Proxy> {
        if config.backends.is_empty() {
            return Err(std::io::Error::other("at least one backend is required"));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let backends: Vec<BackendState> = config
            .backends
            .iter()
            .map(|addr| BackendState {
                addr: parking_lot::RwLock::new(addr.clone()),
                epoch: AtomicU64::new(0),
                healthy: AtomicBool::new(false),
                forwarded: AtomicU64::new(0),
                hedged_away: AtomicU64::new(0),
                last_checksum: AtomicU64::new(0),
                consecutive_failures: AtomicU32::new(0),
                open_until_ms: AtomicU64::new(0),
                half_open_trial: AtomicBool::new(false),
                breaker_opens: AtomicU64::new(0),
                rejoin_delta_bytes: AtomicU64::new(0),
                rejoin_full_bytes: AtomicU64::new(0),
            })
            .collect();
        let shared = Arc::new(Shared {
            ring: HashRing::new(backends.len(), config.vnodes),
            backends,
            running: AtomicBool::new(true),
            open_connections: AtomicUsize::new(0),
            reply_timeout: config.reply_timeout,
            max_line_bytes: config.max_line_bytes.max(64),
            started: Instant::now(),
            breaker_threshold: config.breaker_failure_threshold.max(1),
            breaker_open: config.breaker_open.max(Duration::from_millis(1)),
            hedge: parking_lot::Mutex::new(HedgeBucket {
                tokens: config.hedge_budget_burst.max(0.0),
                last: Instant::now(),
            }),
            hedge_rate: config.hedge_budget_per_sec.max(0.0),
            hedge_burst: config.hedge_budget_burst.max(0.0),
            hedge_denied: AtomicU64::new(0),
            retained: parking_lot::Mutex::new(RetainedBodies {
                current: None,
                history: VecDeque::new(),
            }),
        });

        for slot in 0..shared.backends.len() {
            probe_slot(&shared, slot);
        }

        let prober = {
            let shared = shared.clone();
            let interval = config.probe_interval.max(Duration::from_millis(10));
            std::thread::Builder::new()
                .name("abpd-proxy-probe".to_string())
                .spawn(move || {
                    // Per-backend due times with deterministic +/-25%
                    // jitter: a fleet restart must not phase-lock N
                    // probers into hitting every shard on the same
                    // tick, and two proxies in front of the same fleet
                    // drift apart instead of probing in lockstep.
                    let n = shared.backends.len();
                    let mut round: u64 = 0;
                    let start = Instant::now();
                    let mut due: Vec<Instant> = (0..n)
                        .map(|slot| start + jittered_interval(interval, slot as u64, 0))
                        .collect();
                    while shared.running.load(Ordering::SeqCst) {
                        let now = Instant::now();
                        let mut next = now + interval;
                        for slot in 0..n {
                            if now >= due[slot] {
                                probe_slot(&shared, slot);
                                round = round.wrapping_add(1);
                                due[slot] = now + jittered_interval(interval, slot as u64, round);
                            }
                            next = next.min(due[slot]);
                        }
                        // Sleep to the earliest due probe, capped so
                        // shutdown is noticed promptly.
                        let nap = next
                            .saturating_duration_since(Instant::now())
                            .min(Duration::from_millis(50))
                            .max(Duration::from_millis(1));
                        std::thread::sleep(nap);
                    }
                })?
        };

        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("abpd-proxy-accept".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if !shared.running.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let _ = stream.set_nodelay(true);
                        let shared = shared.clone();
                        shared.open_connections.fetch_add(1, Ordering::SeqCst);
                        let _ = std::thread::Builder::new()
                            .name("abpd-proxy-conn".to_string())
                            .spawn(move || {
                                let _open = ConnGuard(&shared);
                                handle_connection(stream, &shared, local_addr);
                            });
                    }
                    while shared.open_connections.load(Ordering::SeqCst) > 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })?
        };

        Ok(Proxy {
            local_addr,
            shared,
            acceptor: Some(acceptor),
            prober: Some(prober),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point slot `slot` at a respawned shard on `addr` and probe it
    /// immediately. The slot keeps its ring position, so the keyspace
    /// it owned comes straight back to it.
    pub fn update_backend(&self, slot: usize, addr: impl Into<String>) {
        let b = &self.shared.backends[slot];
        *b.addr.write() = addr.into();
        b.epoch.fetch_add(1, Ordering::SeqCst);
        // A swapped-in backend is in an unknown serving state; drop to
        // unhealthy first so the probe takes the rejoin path and
        // catches it up if it lags the fleet.
        self.shared.mark(slot, false);
        probe_slot(&self.shared, slot);
    }

    /// Per-slot forwarding and health counters.
    pub fn backend_report(&self) -> Vec<BackendReport> {
        self.shared
            .backends
            .iter()
            .enumerate()
            .map(|(slot, b)| BackendReport {
                addr: b.addr.read().clone(),
                healthy: b.healthy.load(Ordering::SeqCst),
                forwarded: b.forwarded.load(Ordering::SeqCst),
                hedged_away: b.hedged_away.load(Ordering::SeqCst),
                last_checksum: b.last_checksum.load(Ordering::SeqCst),
                breaker_open: self.shared.breaker_open_now(slot),
                breaker_opens: b.breaker_opens.load(Ordering::SeqCst),
                rejoin_delta_bytes: b.rejoin_delta_bytes.load(Ordering::SeqCst),
                rejoin_full_bytes: b.rejoin_full_bytes.load(Ordering::SeqCst),
            })
            .collect()
    }

    /// Hedge/retry attempts denied by the token-bucket budget since
    /// the proxy started.
    pub fn hedge_denied(&self) -> u64 {
        self.shared.hedge_denied.load(Ordering::SeqCst)
    }

    /// Stop accepting, wait for open client connections, stop probing.
    /// Shards keep running — they belong to whoever started them.
    pub fn shutdown(mut self) {
        trigger_stop(&self.shared, self.local_addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(p) = self.prober.take() {
            let _ = p.join();
        }
    }

    /// Block until the router stops (via the `Shutdown` verb).
    pub fn join(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(p) = self.prober.take() {
            let _ = p.join();
        }
    }
}

struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.open_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

fn trigger_stop(shared: &Shared, addr: SocketAddr) {
    if shared.running.swap(false, Ordering::SeqCst) {
        let _ = TcpStream::connect(addr);
    }
}

/// The probe interval for `slot` on probe round `round`: the base
/// interval scaled into [0.75, 1.25) by a hash of (slot, round).
/// Deterministic, so probe schedules are reproducible under test, yet
/// never synchronized across slots or across rounds.
fn jittered_interval(interval: Duration, slot: u64, round: u64) -> Duration {
    let h = ring::fnv1a_u64(
        ring::FNV_BASIS,
        slot ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    let frac = (h % 1_000) as f64 / 1_000.0;
    interval.mul_f64(0.75 + 0.5 * frac)
}

/// One short-lived probe: connect, fetch `Health`, record the serving
/// checksum. Shards drain open connections on shutdown, so the probe
/// never keeps a connection alive between ticks. Probes bypass the
/// breaker gate (they *are* the recovery detector) but feed its
/// counters: a probe success closes the breaker, a probe failure
/// counts toward opening it. A healthy shard found serving a stale
/// checksum is caught up from the proxy's retained bodies.
fn probe_slot(shared: &Shared, slot: usize) {
    let (addr, _) = shared.addr_of(slot);
    let probed = (|| -> std::io::Result<u64> {
        let mut c = Client::connect(&*addr)?;
        c.reply_timeout(Some(shared.reply_timeout))?;
        let h = c.health()?;
        Ok(h.list_checksum)
    })();
    match probed {
        Ok(checksum) => {
            shared.backends[slot]
                .last_checksum
                .store(checksum, Ordering::SeqCst);
            shared.record_success(slot);
            let was_healthy = shared.backends[slot].healthy.swap(true, Ordering::SeqCst);
            // Catch up only on the rejoin edge — a shard coming back
            // from failure (or a freshly swapped address, which
            // `update_backend` marks unhealthy first). A steady-state
            // healthy shard whose checksum drifts is usually *ahead*
            // of the retained bodies mid-fan-out, and "catching it
            // up" would roll it backward.
            if !was_healthy {
                catch_up(shared, slot, &addr, checksum);
            }
        }
        Err(_) => {
            shared.record_failure(slot);
            shared.mark(slot, false);
        }
    }
}

/// A healthy shard whose serving checksum lags the fleet's converged
/// state is a rejoiner (it restarted from an on-disk snapshot, or was
/// down during a reload). Ship it the smallest update that lands it on
/// the current bodies: per-list deltas when its stale base is in the
/// retained history, a full `Reload` otherwise (including on a
/// `ReloadBaseMismatch` answer, which means our history entry does not
/// match what the shard actually serves).
fn catch_up(shared: &Shared, slot: usize, addr: &str, seen: u64) {
    let (current_checksum, current_lists, base) = {
        let retained = shared.retained.lock();
        let Some((ck, lists)) = retained.current.clone() else {
            // The proxy has not yet seen a converged reload, so it has
            // no bodies to offer; it cannot tell stale from fresh.
            return;
        };
        if ck == seen {
            return;
        }
        (ck, lists, retained.lookup(seen))
    };

    // First attempt: per-list deltas against the shard's stale base.
    let mut line = Vec::new();
    let mut used_delta = false;
    if let Some(base) = base {
        let mut deltas: Vec<ReloadDeltaList> = Vec::new();
        for l in current_lists.iter() {
            let base_body = base
                .iter()
                .find(|b| b.source == l.source)
                .map(|b| b.content.as_str())
                .unwrap_or("");
            if base_body != l.content {
                deltas.push(ReloadDeltaList {
                    source: l.source,
                    delta: abpdelta::encode(base_body, &l.content),
                });
            }
        }
        // No per-list delta but checksums differ (e.g. a list was
        // dropped entirely): fall through to the full reload.
        if !deltas.is_empty() {
            wire::write_reload_delta(&deltas, &mut line);
            used_delta = true;
        }
    }
    if !used_delta {
        wire::write_reload(&current_lists, &mut line);
    }

    let ship = |line: &[u8]| -> std::io::Result<bool> {
        let mut c = Client::connect(addr)?;
        c.reply_timeout(Some(shared.reply_timeout))?;
        c.max_reply_bytes(shared.max_line_bytes);
        c.send_raw(line)?;
        match c.read_reply_raw().and_then(parse_reply_line)? {
            ServerMessage::Reloaded(_) => Ok(true),
            ServerMessage::ReloadBaseMismatch(_) => Ok(false),
            other => Err(std::io::Error::other(format!(
                "unexpected catch-up reply: {other:?}"
            ))),
        }
    };

    let mut applied = match ship(&line) {
        Ok(applied) => {
            if applied && used_delta {
                shared.backends[slot]
                    .rejoin_delta_bytes
                    .fetch_add(line.len() as u64, Ordering::SeqCst);
            }
            applied
        }
        Err(_) => {
            // Transport trouble mid-catch-up; the next probe retries.
            shared.record_failure(slot);
            shared.mark(slot, false);
            return;
        }
    };
    if !applied && used_delta {
        // The shard's actual base diverged from our history entry:
        // resynchronize with the full bodies (always applies).
        line.clear();
        wire::write_reload(&current_lists, &mut line);
        used_delta = false;
        applied = match ship(&line) {
            Ok(applied) => applied,
            Err(_) => {
                shared.record_failure(slot);
                shared.mark(slot, false);
                return;
            }
        };
    }
    if applied {
        if !used_delta {
            shared.backends[slot]
                .rejoin_full_bytes
                .fetch_add(line.len() as u64, Ordering::SeqCst);
        }
        shared.backends[slot]
            .last_checksum
            .store(current_checksum, Ordering::SeqCst);
    }
}

/// Lazily-opened, epoch-checked connections from one proxy connection
/// thread to the shards it has talked to.
struct BackendConns {
    conns: Vec<Option<(u64, Client)>>,
}

impl BackendConns {
    fn new(n: usize) -> BackendConns {
        BackendConns {
            conns: (0..n).map(|_| None).collect(),
        }
    }

    /// A usable connection to `slot`, reconnecting if the cached one is
    /// broken or predates an address change.
    fn get(&mut self, shared: &Shared, slot: usize) -> std::io::Result<&mut Client> {
        let (addr, epoch) = shared.addr_of(slot);
        let stale = match &self.conns[slot] {
            Some((e, c)) => *e != epoch || c.is_broken(),
            None => true,
        };
        if stale {
            self.conns[slot] = None;
            let mut c = Client::connect(&*addr)?;
            c.reply_timeout(Some(shared.reply_timeout))?;
            c.max_reply_bytes(shared.max_line_bytes);
            self.conns[slot] = Some((epoch, c));
        }
        self.cached(slot)
    }

    /// The connection to `slot` as it is. Replies are read through
    /// this: one only arrives where its request went, so a reconnect
    /// would wait for nothing.
    fn cached(&mut self, slot: usize) -> std::io::Result<&mut Client> {
        match &mut self.conns[slot] {
            Some((_, c)) => Ok(c),
            None => Err(std::io::ErrorKind::NotConnected.into()),
        }
    }

    fn drop_slot(&mut self, slot: usize) {
        self.conns[slot] = None;
    }
}

/// How one attempt against one shard ended.
#[derive(Default)]
enum Forward {
    /// The line went out; or the shard answered it with the decisions
    /// asked for.
    #[default]
    Ok,
    /// The shard shed the work; hedge without marking it dead.
    Overloaded,
    /// The shard *answered*, but not with those decisions: a typed
    /// error (deterministic, so hedging would just repeat it) or a
    /// reply of the wrong shape. Relay the description.
    Rejected(String),
    /// Transport trouble (dead shard, timeout, torn reply): the slot is
    /// marked unhealthy; hedge.
    Transport,
}

/// A shard's reply line, copied out of its connection so the
/// connection can carry a hedge meanwhile, and where each decision
/// sits in it.
#[derive(Default)]
struct Reply {
    line: Vec<u8>,
    decisions: Vec<std::ops::Range<usize>>,
}

/// One slot's share of the batch being routed.
#[derive(Default)]
struct Group {
    /// Indices into the client's batch, ascending; empty when the
    /// slot owns none of it.
    members: Vec<usize>,
    /// The sub-batch line: the members' bytes as the client sent them.
    /// Hedging sends the same line to another slot.
    body: Vec<u8>,
    reply: Reply,
    state: Forward,
}

/// A connection thread's splice buffers, reused line after line.
#[derive(Default)]
struct Splice {
    /// Where each element of the client's batch sits in its line.
    spans: Vec<std::ops::Range<usize>>,
    /// Per batch element: its owning slot and its position in that
    /// slot's group, which is where its decision sits in the reply.
    place: Vec<(usize, usize)>,
    /// One per slot.
    groups: Vec<Group>,
    /// The reply to a single `Decide`.
    single: Reply,
}

/// Longest description of a misbehaving shard reply the proxy puts in
/// an `Error` of its own.
const MAX_REPLY_ERROR_BYTES: usize = 200;

fn bounded(mut msg: String) -> String {
    msg.truncate(msg.floor_char_boundary(MAX_REPLY_ERROR_BYTES));
    msg
}

/// Ship one line (no newline) to `slot` as it is: `Ok`, or `Transport`
/// with the dead connection counted against the slot.
fn send(conns: &mut BackendConns, shared: &Shared, slot: usize, line: &[u8]) -> Forward {
    let sent = conns.get(shared, slot).and_then(|c| c.send_raw(line));
    if sent.is_ok() {
        return Forward::Ok;
    }
    shared.record_failure(slot);
    shared.mark(slot, false);
    Forward::Transport
}

/// Read `slot`'s answer to the line last sent to it into `reply` and
/// settle the slot's breaker by it. `Ok` means `count` decisions in
/// `shape`, located but not decoded, and credited to the slot as
/// `forwarded`; every other reply goes through the typed parser to
/// find out what it is.
fn gather(
    conns: &mut BackendConns,
    shared: &Shared,
    slot: usize,
    shape: DecisionShape,
    count: usize,
    reply: &mut Reply,
) -> Forward {
    match conns.cached(slot).and_then(|c| c.read_reply_raw()) {
        Ok(line) => {
            reply.line.clear();
            reply.line.extend_from_slice(line);
        }
        Err(_) => {
            // Every failed read leaves the connection out of step.
            conns.drop_slot(slot);
            shared.record_failure(slot);
            shared.mark(slot, false);
            return Forward::Transport;
        }
    }
    let outcome = match std::str::from_utf8(&reply.line) {
        Err(e) => Forward::Rejected(format!("reply is not UTF-8: {e}")),
        Ok(text) => match wire::split_decisions(text, &mut reply.decisions) {
            Ok(got) if got == shape && reply.decisions.len() == count => Forward::Ok,
            Ok(got) => Forward::Rejected(format!(
                "expected a {shape:?} reply of {count}, got a {got:?} of {}",
                reply.decisions.len()
            )),
            Err(_) => match wire::parse_server_message(text) {
                Ok(ServerMessage::Overloaded) => Forward::Overloaded,
                Ok(ServerMessage::Error(e)) => Forward::Rejected(e),
                Ok(other) => Forward::Rejected(bounded(format!("unexpected reply: {other:?}"))),
                Err(e) => Forward::Rejected(bounded(e)),
            },
        },
    };
    if !matches!(outcome, Forward::Overloaded) {
        // Any typed answer proves the transport works; a shed one
        // settles the breaker neither way.
        shared.record_success(slot);
    }
    if matches!(outcome, Forward::Ok) {
        let forwarded = &shared.backends[slot].forwarded;
        forwarded.fetch_add(count as u64, Ordering::Relaxed);
    }
    outcome
}

/// [`send`], then [`gather`].
fn exchange(
    conns: &mut BackendConns,
    shared: &Shared,
    slot: usize,
    line: &[u8],
    shape: DecisionShape,
    count: usize,
    reply: &mut Reply,
) -> Forward {
    match send(conns, shared, slot, line) {
        Forward::Ok => gather(conns, shared, slot, shape, count, reply),
        failed => failed,
    }
}

fn key_of(req: &DecisionRequestRef<'_>) -> u64 {
    ring::route_key(
        &req.url,
        &req.document,
        req.resource_type,
        req.sitekey.as_deref(),
        req.tenant.unwrap_or(u64::MAX),
    )
}

/// Drive one `Decide` line down its ring walk, as the client sent it:
/// the owner first, then each healthy successor, relaying the first
/// `Decision` line as the shard sent it. Every failover bumps the
/// failed slot's `hedged_away`. Breaker-open slots are skipped without
/// cost; attempts *after* a failed attempt draw from the fleet hedge
/// budget, and when the bucket runs dry the request is shed instead of
/// retried.
fn route_one(
    conns: &mut BackendConns,
    shared: &Shared,
    req: &DecisionRequestRef<'_>,
    line: &[u8],
    reply: &mut Reply,
    out: &mut Vec<u8>,
) {
    let walk = shared.ring.walk(key_of(req));
    let mut attempted = false;
    for (nth, &slot) in walk.iter().enumerate() {
        // The owner is tried even when marked unhealthy (the probe may
        // lag a respawn); later slots must be healthy to be worth a
        // hop. The breaker gates every attempt, owner included — that
        // is the point: a slot failing hard stops eating connections.
        if nth > 0 && !shared.healthy(slot) {
            continue;
        }
        if !shared.breaker_allows(slot) {
            continue;
        }
        if attempted && !shared.take_hedge(1) {
            break;
        }
        attempted = true;
        match exchange(conns, shared, slot, line, DecisionShape::Single, 1, reply) {
            Forward::Ok => return out.extend_from_slice(&reply.line),
            Forward::Rejected(e) => return wire::write_error(&e, out),
            Forward::Overloaded => {
                // Busy, not broken: release any half-open trial claim
                // without settling the breaker either way.
                shared.release_trial(slot);
            }
            Forward::Transport => {}
        }
        shared.backends[slot]
            .hedged_away
            .fetch_add(1, Ordering::Relaxed);
    }
    if attempted {
        // Every candidate shed, died mid-request, or the hedge budget
        // ran dry; `Overloaded` tells retrying clients to back off and
        // come again.
        wire::write_overloaded(out);
    } else {
        wire::write_error("no healthy shard for this request", out);
    }
}

/// Route one `DecideBatch` line by splicing: scatter each owning
/// slot's elements, as the client sent them, in one sub-batch line;
/// gather *every* reply; hedge the sub-batches that failed by sending
/// the same lines elsewhere; merge by copying each decision, as its
/// shard sent it, back into request order.
fn route_batch(
    conns: &mut BackendConns,
    shared: &Shared,
    reqs: &[DecisionRequestRef<'_>],
    line: &[u8],
    splice: &mut Splice,
    out: &mut Vec<u8>,
) {
    let (spans, place, groups) = (&splice.spans, &mut splice.place, &mut splice.groups);
    // Group the elements by owning slot. Breaker-open slots are routed
    // around for free — their keys go to walk successors.
    place.clear();
    for g in groups.iter_mut() {
        g.members.clear();
    }
    for (i, r) in reqs.iter().enumerate() {
        match shared.ring.route(key_of(r), |s| {
            shared.healthy(s) && !shared.breaker_open_now(s)
        }) {
            Some(slot) => {
                place.push((slot, groups[slot].members.len()));
                groups[slot].members.push(i);
            }
            None => {
                // No healthy shard at all: shed the whole batch so
                // retrying clients back off instead of erroring out.
                wire::write_overloaded(out);
                return;
            }
        }
    }
    let routed = |g: &Group| !g.members.is_empty();

    // Scatter: ship every sub-batch before reading any reply, so the
    // shards evaluate in parallel.
    for (slot, g) in groups.iter_mut().enumerate().filter(|(_, g)| routed(g)) {
        g.body.clear();
        wire::splice_decide_batch(
            g.members.iter().map(|&i| &line[spans[i].clone()]),
            &mut g.body,
        );
        g.state = send(conns, shared, slot, &g.body);
    }

    // Gather every scattered reply before hedging anything: a hedge
    // goes out on these same connections, and a reply still unread on
    // one would be taken for the hedge's answer.
    for (slot, g) in groups.iter_mut().enumerate().filter(|(_, g)| routed(g)) {
        if matches!(g.state, Forward::Ok) {
            let n = g.members.len();
            g.state = gather(conns, shared, slot, DecisionShape::Batch, n, &mut g.reply);
        }
    }

    // Hedge each failed sub-batch whole, down the walk of its first
    // request. Any healthy shard answers any request the same way —
    // only cache locality is at stake — so one successor serves the
    // whole group. Each attempt is a failure-triggered retry and draws
    // the sub-batch's size from the fleet hedge budget.
    for (slot, g) in groups.iter_mut().enumerate().filter(|(_, g)| routed(g)) {
        if !matches!(g.state, Forward::Overloaded | Forward::Transport) {
            continue;
        }
        let n = g.members.len();
        shared.backends[slot]
            .hedged_away
            .fetch_add(n as u64, Ordering::Relaxed);
        for &alt in &shared.ring.walk(key_of(&reqs[g.members[0]])) {
            if alt == slot || !shared.healthy(alt) || shared.breaker_open_now(alt) {
                continue;
            }
            if !shared.take_hedge(n as u64) {
                break;
            }
            let (body, reply) = (&g.body, &mut g.reply);
            g.state = exchange(conns, shared, alt, body, DecisionShape::Batch, n, reply);
            if matches!(g.state, Forward::Ok | Forward::Rejected(_)) {
                break;
            }
        }
    }

    // Merge: a rejection is relayed, a sub-batch nobody answered sheds
    // the batch, and otherwise every decision is copied into place.
    let mut lost = false;
    for g in groups.iter().filter(|g| routed(g)) {
        match &g.state {
            Forward::Ok => {}
            Forward::Rejected(e) => {
                wire::write_error(e, out);
                return;
            }
            Forward::Overloaded | Forward::Transport => lost = true,
        }
    }
    if lost {
        wire::write_overloaded(out);
        return;
    }
    wire::splice_batch_reply(
        place.iter().map(|&(slot, nth)| {
            let reply = &groups[slot].reply;
            &reply.line[reply.decisions[nth].clone()]
        }),
        out,
    );
}

/// The post-reload fleet bodies implied by one client reload line,
/// derived proxy-side without asking any shard: a full `Reload`
/// carries them outright; a `ReloadDelta` applies against the
/// retained current bodies. `None` when the proxy cannot derive them
/// (no retained base yet, or the delta does not apply to it) — the
/// fan-out then invalidates the stale retained state instead.
fn reload_target(shared: &Shared, msg: ClientMessageRef<'_>) -> Option<Arc<Vec<ReloadList>>> {
    match msg {
        ClientMessageRef::Reload(lists) => Some(Arc::new(lists)),
        ClientMessageRef::ReloadDelta(deltas) => {
            let current = shared.retained.lock().current.clone()?.1;
            let mut next: Vec<ReloadList> = current.as_ref().clone();
            for d in deltas {
                match next.iter_mut().find(|l| l.source == d.source) {
                    Some(l) => l.content = abpdelta::apply(&l.content, &d.delta).ok()?,
                    None => next.push(ReloadList {
                        // A delta for a list we hold no body for only
                        // applies if its base is the empty string —
                        // exactly what the shards will conclude too.
                        source: d.source,
                        content: abpdelta::apply("", &d.delta).ok()?,
                    }),
                }
            }
            Some(Arc::new(next))
        }
        _ => None,
    }
}

fn parse_reply_line(line: &[u8]) -> std::io::Result<ServerMessage> {
    let text = std::str::from_utf8(line)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    wire::parse_server_message(text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Outcome of fanning one raw reload line out to every shard.
enum FanoutOutcome {
    Converged(ReloadReport),
    Mismatch(ReloadMismatch),
    Failed(String),
}

/// Ship the client's raw `Reload`/`ReloadDelta` line to every
/// *healthy* shard (scatter first, gather after, so the engine
/// compiles overlap), then verify the reached shards converged to one
/// serving checksum. Down or breaker-open shards are skipped rather
/// than failing the fleet reload — they rejoin through the prober's
/// [`catch_up`] path once they answer probes again.
///
/// `target` carries the proxy's own copy of the post-reload bodies
/// (when it could derive them from the client line); on convergence it
/// becomes the retained current state that powers rejoin deltas.
fn fanout_reload(
    conns: &mut BackendConns,
    shared: &Shared,
    raw_line: &[u8],
    target: Option<Arc<Vec<ReloadList>>>,
) -> FanoutOutcome {
    let nslots = shared.backends.len();
    let mut sent: Vec<bool> = vec![false; nslots];
    let mut tried: Vec<bool> = vec![false; nslots];
    for slot in 0..nslots {
        if !shared.healthy(slot) || shared.breaker_open_now(slot) {
            continue;
        }
        tried[slot] = true;
        sent[slot] = matches!(send(conns, shared, slot, raw_line), Forward::Ok);
    }
    if !tried.iter().any(|&t| t) {
        return FanoutOutcome::Failed("no healthy shard to fan the reload out to".to_string());
    }
    let mut report: Option<ReloadReport> = None;
    let mut mismatch: Option<ReloadMismatch> = None;
    let mut failure: Option<String> = None;
    for slot in 0..nslots {
        if !tried[slot] {
            continue;
        }
        if !sent[slot] {
            failure.get_or_insert_with(|| format!("shard {slot} unreachable during reload"));
            continue;
        }
        let res = conns
            .cached(slot)
            .and_then(|c| c.read_reply_raw().and_then(parse_reply_line));
        if conns.cached(slot).map_or(true, |c| c.is_broken()) {
            conns.drop_slot(slot);
            shared.record_failure(slot);
            shared.mark(slot, false);
        }
        match res {
            Ok(ServerMessage::Reloaded(r)) => {
                shared.record_success(slot);
                report = Some(match report.take() {
                    // Report the fleet floor: the *lowest* generation
                    // any shard is serving.
                    Some(prev) if prev.generation <= r.generation => prev,
                    _ => r,
                });
            }
            Ok(ServerMessage::ReloadBaseMismatch(m)) => {
                shared.record_success(slot);
                mismatch.get_or_insert(m);
            }
            Ok(ServerMessage::Error(e)) => {
                failure.get_or_insert_with(|| format!("shard {slot} rejected reload: {e}"));
            }
            Ok(other) => {
                failure.get_or_insert_with(|| {
                    format!("shard {slot} answered unexpectedly: {other:?}")
                });
            }
            Err(e) => {
                failure.get_or_insert_with(|| format!("shard {slot} failed during reload: {e}"));
            }
        }
    }
    if let Some(m) = mismatch {
        // At least one shard is serving a different base; the caller
        // must fall back to a full `Reload` (which resynchronizes any
        // shard that *did* apply the delta — reloads are idempotent).
        return FanoutOutcome::Mismatch(m);
    }
    if let Some(e) = failure {
        return FanoutOutcome::Failed(e);
    }
    // Every reached shard applied: verify they converged to one
    // checksum.
    let mut checksum: Option<u64> = None;
    for slot in 0..nslots {
        if !tried[slot] {
            continue;
        }
        let probed = conns
            .get(shared, slot)
            .and_then(|c| c.health())
            .map(|h| h.list_checksum);
        match probed {
            Ok(c) => {
                shared.backends[slot]
                    .last_checksum
                    .store(c, Ordering::SeqCst);
                match checksum {
                    None => checksum = Some(c),
                    Some(prev) if prev == c => {}
                    Some(prev) => {
                        return FanoutOutcome::Failed(format!(
                            "fleet diverged after reload: shard {slot} serves checksum {c:#x}, \
                             earlier shards serve {prev:#x}"
                        ));
                    }
                }
            }
            Err(e) => {
                shared.mark(slot, false);
                return FanoutOutcome::Failed(format!(
                    "shard {slot} unreachable during convergence check: {e}"
                ));
            }
        }
    }
    // The fan-out converged: retain the bodies behind the new serving
    // checksum so shards that were skipped (or die later) can rejoin
    // on a delta. The checksum cross-check guards against a proxy-side
    // delta-apply bug ever poisoning the retained state; when the
    // bodies could not be derived at all, the stale current entry is
    // demoted so the prober cannot roll rejoining shards back to it.
    if let Some(c) = checksum {
        let mut retained = shared.retained.lock();
        match target {
            Some(lists) if serving_checksum(&lists) == c => retained.advance(c, lists),
            _ => retained.invalidate_if_stale(c),
        }
    }
    FanoutOutcome::Converged(report.expect("at least one shard reloaded"))
}

/// Aggregate fleet health: worst state wins, generation and reloads
/// report the fleet floor, counters sum, and `list_checksum` is the
/// common serving checksum — or 0 when the fleet disagrees, which is
/// exactly the "not converged" signal operators watch for.
fn aggregate_health(conns: &mut BackendConns, shared: &Shared) -> HealthReport {
    let mut agg = HealthReport {
        state: HealthState::Ok,
        generation: u64::MAX,
        reloads: u64::MAX,
        shard_restarts: Vec::new(),
        shed: 0,
        deadline_timeouts: 0,
        list_checksum: 0,
        distinct_tenants: 0,
    };
    let mut checksum: Option<u64> = None;
    let mut diverged = false;
    let mut reached = 0usize;
    for slot in 0..shared.backends.len() {
        match conns.get(shared, slot).and_then(|c| c.health()) {
            Ok(h) => {
                reached += 1;
                agg.state = worst_state(agg.state, h.state);
                agg.generation = agg.generation.min(h.generation);
                agg.reloads = agg.reloads.min(h.reloads);
                agg.shard_restarts.extend(h.shard_restarts);
                agg.shed += h.shed;
                agg.deadline_timeouts += h.deadline_timeouts;
                // The ring routes a tenant's different URLs to many
                // shards, so the per-shard mask sets overlap heavily;
                // the largest one is the honest fleet lower bound.
                agg.distinct_tenants = agg.distinct_tenants.max(h.distinct_tenants);
                match checksum {
                    None => checksum = Some(h.list_checksum),
                    Some(prev) if prev == h.list_checksum => {}
                    Some(_) => diverged = true,
                }
            }
            Err(_) => {
                shared.mark(slot, false);
                agg.state = worst_state(agg.state, HealthState::Degraded);
            }
        }
    }
    if reached == 0 {
        agg.generation = 0;
        agg.reloads = 0;
    }
    agg.list_checksum = match (checksum, diverged) {
        (Some(c), false) => c,
        _ => 0,
    };
    agg
}

fn worst_state(a: HealthState, b: HealthState) -> HealthState {
    fn rank(s: HealthState) -> u8 {
        match s {
            HealthState::Ok => 0,
            HealthState::Degraded => 1,
            HealthState::Draining => 2,
        }
    }
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

/// Sum fleet statistics; latency percentiles report the slowest shard
/// (the tail a fleet client actually experiences).
fn aggregate_stats(conns: &mut BackendConns, shared: &Shared) -> StatsReport {
    let mut agg = StatsReport {
        requests: 0,
        cache_hits: 0,
        blocks: 0,
        exceptions: 0,
        p50_us: 0,
        p99_us: 0,
        shards: Vec::new(),
        distinct_tenants: 0,
        tenant_requests_by_lists: Vec::new(),
        tenant_cache_hits_by_lists: Vec::new(),
    };
    for slot in 0..shared.backends.len() {
        if let Ok(s) = conns.get(shared, slot).and_then(|c| c.stats()) {
            agg.requests += s.requests;
            agg.cache_hits += s.cache_hits;
            agg.blocks += s.blocks;
            agg.exceptions += s.exceptions;
            agg.p50_us = agg.p50_us.max(s.p50_us);
            agg.p99_us = agg.p99_us.max(s.p99_us);
            agg.shards.extend(s.shards);
            // Mask sets overlap across backends (same tenant, many
            // URLs); the largest is the honest fleet lower bound. The
            // cardinality-bucket counters are disjoint and sum.
            agg.distinct_tenants = agg.distinct_tenants.max(s.distinct_tenants);
            sum_into(
                &mut agg.tenant_requests_by_lists,
                &s.tenant_requests_by_lists,
            );
            sum_into(
                &mut agg.tenant_cache_hits_by_lists,
                &s.tenant_cache_hits_by_lists,
            );
        }
    }
    agg
}

/// Element-wise sum, growing `acc` to the longer length.
fn sum_into(acc: &mut Vec<u64>, add: &[u64]) {
    if acc.len() < add.len() {
        acc.resize(add.len(), 0);
    }
    for (a, v) in acc.iter_mut().zip(add) {
        *a += v;
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared, addr: SocketAddr) {
    // Sized for a 256-decision request line (~34 KB) in one read.
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::with_capacity(64 * 1024, read_half);
    let mut writer = stream;
    let mut line = Vec::new();
    let mut out: Vec<u8> = Vec::with_capacity(4096);
    let mut conns = BackendConns::new(shared.backends.len());
    let mut splice = Splice::default();
    splice
        .groups
        .resize_with(shared.backends.len(), Group::default);

    loop {
        out.clear();
        match wire::read_line_limited(&mut reader, &mut line, shared.max_line_bytes) {
            Err(_) | Ok(LineRead::Eof) | Ok(LineRead::EofMidLine) => return,
            Ok(LineRead::TooLong(n)) => {
                wire::write_error(
                    &format!(
                        "request line too long: {n} bytes exceeds the {} byte limit",
                        shared.max_line_bytes
                    ),
                    &mut out,
                );
            }
            Ok(LineRead::Line) => match std::str::from_utf8(&line) {
                Err(_) => {
                    wire::write_error("unparseable message: request line is not UTF-8", &mut out);
                }
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => match wire::parse_client_message_spans(text, &mut splice.spans) {
                    Err(e) => wire::write_error(&format!("unparseable message: {e}"), &mut out),
                    Ok(ClientMessageRef::Ping) => wire::write_pong(&mut out),
                    Ok(ClientMessageRef::Stats) => {
                        wire::write_stats_reply(&aggregate_stats(&mut conns, shared), &mut out)
                    }
                    Ok(ClientMessageRef::Health) => {
                        wire::write_health_reply(&aggregate_health(&mut conns, shared), &mut out)
                    }
                    Ok(ClientMessageRef::Decide(req)) => route_one(
                        &mut conns,
                        shared,
                        &req,
                        &line,
                        &mut splice.single,
                        &mut out,
                    ),
                    Ok(ClientMessageRef::DecideBatch(reqs)) => {
                        route_batch(&mut conns, shared, &reqs, &line, &mut splice, &mut out)
                    }
                    Ok(msg @ (ClientMessageRef::Reload(_) | ClientMessageRef::ReloadDelta(_))) => {
                        // Forward the client's bytes verbatim — reload
                        // lines carry whole list bodies and re-encoding
                        // them would double the copy. The proxy also
                        // derives the resulting bodies for itself, so a
                        // converged fan-out can retain them for rejoins.
                        let target = reload_target(shared, msg);
                        match fanout_reload(&mut conns, shared, &line, target) {
                            FanoutOutcome::Converged(r) => wire::write_reloaded(&r, &mut out),
                            FanoutOutcome::Mismatch(m) => {
                                wire::write_reload_base_mismatch(&m, &mut out)
                            }
                            FanoutOutcome::Failed(e) => wire::write_error(&e, &mut out),
                        }
                    }
                    Ok(ClientMessageRef::Shutdown) => {
                        // Take the fleet down with the router: each
                        // shard gets the verb over this thread's cached
                        // connection (or a fresh one).
                        for slot in 0..shared.backends.len() {
                            let _ = conns.get(shared, slot).and_then(|c| c.shutdown_server());
                        }
                        wire::write_shutting_down(&mut out);
                        out.push(b'\n');
                        let _ = writer.write_all(&out);
                        trigger_stop(shared, addr);
                        return;
                    }
                },
            },
        }
        out.push(b'\n');
        if writer.write_all(&out).is_err() {
            return;
        }
    }
}
