//! The closed-loop load: one thread, one connection, every caller
//! waits for its replies.

use crate::layers::{self, Conn, ReloadDeltaList, ServerMessage};
use crate::workloads::{Framing, Stream};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one measured window saw.
#[derive(Debug)]
pub struct Window {
    /// Length of one slice in seconds.
    pub slice_secs: f64,
    /// Decisions answered in each slice.
    pub slices: Vec<u64>,
    /// Send → reply of every line answered inside the window, ns.
    pub rtts_ns: Vec<u32>,
    /// When each of those lines was answered, µs after the window
    /// opened (same order as `rtts_ns`).
    pub answered_us: Vec<u32>,
    /// When the window opened (slice edges count from here).
    pub opened: Instant,
}

impl Window {
    /// Decisions per second in each slice.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|&n| n as f64 / self.slice_secs)
            .collect()
    }
}

/// When a pump stops sending.
enum Limit {
    /// After this many decisions (warm-up).
    Decisions(usize),
    /// After `slices` slices of `slice` each (a measured window).
    Time { slice: Duration, slices: usize },
}

/// One connection replaying a request set in order, cyclically, with
/// the workload's framing. Decisions are checked against the oracle as
/// they come back; `attempted` and `failed` accumulate over the
/// driver's life.
pub struct Driver<'a> {
    conn: Conn,
    stream: &'a Stream,
    framing: Framing,
    /// Whether outcomes are compared (off while the lists are being
    /// reloaded underneath: the serving generation is then unknown).
    pub verify: bool,
    cursor: usize,
    inflight: VecDeque<(usize, Instant)>,
    wbuf: Vec<u8>,
    /// Decisions sent and accounted for.
    pub attempted: u64,
    /// Decisions lost to transport, refused, or answered wrongly.
    pub failed: u64,
}

impl<'a> Driver<'a> {
    /// Connect to `addr`; the first ping is the readiness probe.
    pub fn connect(
        addr: SocketAddr,
        stream: &'a Stream,
        framing: Framing,
    ) -> std::io::Result<Self> {
        assert_eq!(
            stream.len() % framing.batch,
            0,
            "request sets are whole numbers of batches"
        );
        Ok(Driver {
            conn: Conn::connect(addr)?,
            stream,
            framing,
            verify: true,
            cursor: 0,
            inflight: VecDeque::with_capacity(framing.depth),
            wbuf: Vec::with_capacity(64 * 1024),
            attempted: 0,
            failed: 0,
        })
    }

    /// The underlying connection, for `Stats`/`Health` between windows.
    pub fn conn(&mut self) -> &mut Conn {
        &mut self.conn
    }

    /// Replay `decisions` requests without timing them.
    pub fn warm_up(&mut self, decisions: usize) -> std::io::Result<()> {
        self.pump(Limit::Decisions(decisions), &mut |_| {})
            .map(|_| ())
    }

    /// Replay for `slices` slices of `slice` each. `on_edge(k)` runs
    /// when the `k`-th slice ends (1-based), between two replies.
    pub fn window(
        &mut self,
        slice: Duration,
        slices: usize,
        on_edge: &mut dyn FnMut(usize),
    ) -> std::io::Result<Window> {
        self.pump(Limit::Time { slice, slices }, on_edge)
    }

    fn send_next(&mut self) -> std::io::Result<()> {
        let at = self.cursor;
        let reqs = &self.stream.requests[at..at + self.framing.batch];
        self.wbuf.clear();
        if self.framing.batch == 1 {
            layers::encode_decide(&reqs[0], &mut self.wbuf);
        } else {
            layers::encode_batch(reqs, &mut self.wbuf);
        }
        self.conn.send_line(&self.wbuf)?;
        self.inflight.push_back((at, Instant::now()));
        self.cursor = (at + self.framing.batch) % self.stream.len();
        Ok(())
    }

    /// Read the reply to the oldest line in flight; returns when it was
    /// sent and when it was answered.
    fn read_next(&mut self) -> std::io::Result<(Instant, Instant)> {
        let (at, sent) = self.inflight.pop_front().expect("a line is in flight");
        let batch = self.framing.batch;
        self.attempted += batch as u64;
        let line = self.conn.read_line().inspect_err(|_| {
            self.failed += batch as u64;
        })?;
        let answered = Instant::now();
        let reply = std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(layers::parse_reply);
        let wrong = match reply {
            Ok(ServerMessage::Batch(resps)) if resps.len() == batch => resps
                .iter()
                .enumerate()
                .filter(|(j, r)| self.mismatch(at + j, &r.outcome))
                .count(),
            Ok(ServerMessage::Decision(resp)) if batch == 1 => {
                usize::from(self.mismatch(at, &resp.outcome))
            }
            // `Error`, `Overloaded`, a short batch, garbage: the whole
            // line is lost to the caller.
            _ => batch,
        };
        self.failed += wrong as u64;
        Ok((sent, answered))
    }

    fn mismatch(&self, index: usize, got: &layers::RequestOutcome) -> bool {
        self.verify && self.stream.expected(index).is_some_and(|want| want != got)
    }

    fn pump(&mut self, limit: Limit, on_edge: &mut dyn FnMut(usize)) -> std::io::Result<Window> {
        let opened = Instant::now();
        let (slice, slices) = match limit {
            Limit::Time { slice, slices } => (slice, slices),
            Limit::Decisions(_) => (Duration::MAX, 0),
        };
        let mut window = Window {
            slice_secs: slice.as_secs_f64(),
            slices: vec![0; slices],
            rtts_ns: Vec::new(),
            answered_us: Vec::new(),
            opened,
        };
        let mut sent_decisions = 0usize;
        let mut edges = 0usize;
        loop {
            while self.inflight.len() < self.framing.depth
                && match limit {
                    Limit::Decisions(n) => sent_decisions < n,
                    Limit::Time { .. } => edges < slices,
                }
            {
                self.send_next()?;
                sent_decisions += self.framing.batch;
            }
            if self.inflight.is_empty() {
                break;
            }
            let (sent, answered) = self.read_next()?;
            if slices == 0 {
                continue;
            }
            while edges < slices && answered - opened >= slice * (edges as u32 + 1) {
                edges += 1;
                on_edge(edges);
            }
            if edges < slices {
                window.slices[edges] += self.framing.batch as u64;
                let ns = (answered - sent).as_nanos();
                window.rtts_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                window
                    .answered_us
                    .push((answered - opened).as_micros() as u32);
            }
        }
        Ok(window)
    }
}

/// The admin connection ships one `ReloadDelta` per period, on the
/// clock: revisions arrive when their publisher pushes them, not when
/// the daemon is ready for the next one. (A reload that outlasts the
/// period delays the next one; at ~60 ms per reload none does.)
pub const RELOAD_PERIOD: Duration = Duration::from_millis(400);

/// The whitelist revisions the admin connection walks: forward through
/// the history's tail, then back, one revision per reload, for as long
/// as the window lasts.
pub struct ReloadPlan {
    /// Patches the whitelist a daemon boots on into `revisions[0]`.
    pub to_base: ReloadDeltaList,
    /// Whitelist bodies: `revisions[0]` is the base the walk starts at.
    pub revisions: Vec<String>,
    /// `forward[i]` patches `revisions[i]` into `revisions[i + 1]`.
    pub forward: Vec<ReloadDeltaList>,
    /// `backward[i]` patches `revisions[i + 1]` into `revisions[i]`.
    pub backward: Vec<ReloadDeltaList>,
}

impl ReloadPlan {
    /// Encode every step of the walk, starting from the whitelist body
    /// a freshly booted daemon serves.
    pub fn new(serving: &str, revisions: Vec<String>) -> ReloadPlan {
        let forward = revisions
            .windows(2)
            .map(|w| layers::delta_encode(&w[0], &w[1]))
            .collect();
        let backward = revisions
            .windows(2)
            .map(|w| layers::delta_encode(&w[1], &w[0]))
            .collect();
        ReloadPlan {
            to_base: layers::delta_encode(serving, &revisions[0]),
            revisions,
            forward,
            backward,
        }
    }
}

/// What the admin connection did.
#[derive(Debug, Default)]
pub struct AdminLog {
    /// When each `Reloaded` ack arrived and how long after its send.
    pub acks: Vec<(Instant, Duration)>,
    /// Reloads refused or lost.
    pub failed: u64,
    /// Index into the plan's revisions the daemon serves at the end.
    pub position: usize,
}

/// The admin connection: a second thread of the harness shipping one
/// `ReloadDelta` per [`RELOAD_PERIOD`] until told to stop.
pub struct Admin {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<AdminLog>,
}

impl Admin {
    /// Start shipping. The daemon must be serving `plan.revisions[0]`.
    pub fn start(addr: SocketAddr, plan: Arc<ReloadPlan>) -> std::io::Result<Admin> {
        let mut conn = Conn::connect(addr)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut log = AdminLog::default();
            let mut forward = true;
            let started = Instant::now();
            let mut shipped = 0u32;
            while !stopping.load(Ordering::SeqCst) {
                if log.position == plan.forward.len() {
                    forward = false;
                } else if log.position == 0 {
                    forward = true;
                }
                let delta = if forward {
                    &plan.forward[log.position]
                } else {
                    &plan.backward[log.position - 1]
                };
                let sent = Instant::now();
                match conn.reload_delta(std::slice::from_ref(delta)) {
                    Ok(true) => {
                        log.acks.push((Instant::now(), sent.elapsed()));
                        log.position = if forward {
                            log.position + 1
                        } else {
                            log.position - 1
                        };
                    }
                    _ => {
                        log.failed += 1;
                        break;
                    }
                }
                shipped += 1;
                let wake = started + RELOAD_PERIOD * shipped;
                while Instant::now() < wake && !stopping.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            log
        });
        Ok(Admin { stop, thread })
    }

    /// Stop after the reload in flight and collect the log.
    pub fn finish(self) -> AdminLog {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().unwrap_or_else(|_| AdminLog {
            failed: 1,
            ..AdminLog::default()
        })
    }
}
