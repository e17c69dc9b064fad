//! The connection-scale drill on the real `abpd` binary: a decision
//! service holds many mostly idle browser connections while a few are
//! busy. With `--shards 1` the daemon must hold 2,000 open connections
//! — half of them sitting on an unterminated line — on the threads it
//! booted with, answer the busy ones exactly as the engine does, and
//! give every held line exactly one reply once it is finished.
//!
//! The drill shrinks to fit a host whose open-file limit is below what
//! 2,000 connections need on both ends. It prints the daemon's resident
//! growth per connection and asserts nothing about it.

use abp::{Engine, Request};
use abpd::protocol::ServerMessage;
use abpd::{Client, DecisionRequest};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Stdio};

/// Connections the drill opens, the active ones included.
const CONNECTIONS: usize = 2_000;
/// Connections that send decisions while the rest are open.
const ACTIVE: usize = 10;
/// Lockstep `Decide`s per active connection.
const DECISIONS_PER_ACTIVE: usize = 300;
/// Bytes of its line a held connection sends before the rest.
const HELD_BYTES: usize = 200;
/// Descriptors kept free below the soft limit for everything that is
/// not a drill connection, in this process and in the daemon.
const FD_HEADROOM: usize = 64;

/// A running `abpd --shards 1`, killed if a failed assertion leaves it
/// behind.
struct Daemon {
    child: Child,
    addr: String,
    _stderr: BufReader<ChildStderr>,
}

impl Daemon {
    fn spawn() -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_abpd"))
            .args(["--addr", "127.0.0.1:0", "--shards", "1"])
            .env_remove("ABPD_FAULTS")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn abpd");
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut log = String::new();
        let addr = loop {
            let start = log.len();
            let n = stderr.read_line(&mut log).expect("read abpd stderr");
            assert!(n > 0, "abpd exited before listening:\n{log}");
            if let Some(rest) = log[start..].strip_prefix("abpd: listening on ") {
                break rest.split_whitespace().next().expect("address").to_string();
            }
        };
        Daemon {
            child,
            addr,
            _stderr: stderr,
        }
    }

    /// A `/proc/<pid>/status` field's leading number (`Threads:`,
    /// `VmRSS:` in KiB).
    fn status(&self, field: &str) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read /proc/<pid>/status");
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .unwrap_or_else(|| panic!("no {field} in /proc/<pid>/status"))
    }

    fn open_fds(&self) -> usize {
        std::fs::read_dir(format!("/proc/{}/fd", self.child.id()))
            .expect("read /proc/<pid>/fd")
            .count()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `RLIMIT_NOFILE` soft limit, which the daemon inherits.
fn fd_soft_limit() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("read /proc/self/limits");
    let line = limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .expect("a Max open files row");
    match line.split_whitespace().nth(3).expect("a soft limit") {
        "unlimited" => usize::MAX,
        n => n.parse().expect("a numeric soft limit"),
    }
}

fn engine_decides(engine: &Engine, req: &DecisionRequest) -> abp::RequestOutcome {
    engine.match_request(&Request::new(&req.url, &req.document, req.resource_type).unwrap())
}

#[test]
fn idle_connections_cost_no_thread_and_every_held_line_is_answered_once() {
    let connections = CONNECTIONS.min(fd_soft_limit().saturating_sub(FD_HEADROOM));
    assert!(
        connections > 2 * ACTIVE,
        "open-file limit too low for any drill"
    );
    let idle = connections - ACTIVE;

    let daemon = Daemon::spawn();
    // What the daemon serves by default: the seed-2015 corpus lists.
    let engine = abpd::corpus_engine(2015);
    let traffic: Vec<DecisionRequest> = websim::traffic::TrafficGen::new(2015)
        .samples()
        .take(ACTIVE * DECISIONS_PER_ACTIVE + idle)
        .map(|s| abpd::request_of_sample(&s))
        .collect();
    let (active_reqs, idle_reqs) = traffic.split_at(ACTIVE * DECISIONS_PER_ACTIVE);

    let threads_before = daemon.status("Threads:");
    let rss_before = daemon.status("VmRSS:");

    // Every other idle connection holds the first HELD_BYTES of a
    // `Decide` line (leading spaces, then the start of the object); the
    // rest send nothing.
    let mut held_lines = Vec::new();
    let mut conns = Vec::with_capacity(idle);
    for (i, req) in idle_reqs.iter().enumerate() {
        let sock = TcpStream::connect(&*daemon.addr).expect("open an idle connection");
        sock.set_nodelay(true).unwrap();
        if i % 2 == 1 {
            let mut line = vec![b' '; HELD_BYTES - 20];
            abpd::wire::write_decide(req, &mut line);
            line.push(b'\n');
            (&sock).write_all(&line[..HELD_BYTES]).unwrap();
            held_lines.push((i, line));
        }
        conns.push(sock);
    }

    // Lockstep decisions on the active connections, each checked
    // against the engine in this process.
    std::thread::scope(|scope| {
        for reqs in active_reqs.chunks(DECISIONS_PER_ACTIVE) {
            let (addr, engine) = (&daemon.addr, &engine);
            scope.spawn(move || {
                let mut client = Client::connect(&**addr).expect("connect an active client");
                for req in reqs {
                    let resp = client.decide(req).expect("decide");
                    assert_eq!(resp.outcome, engine_decides(engine, req), "{}", req.url);
                }
            });
        }
    });

    // The connections were accepted (one reactor accepts in queue
    // order, and the active ones came after them) and cost no thread.
    assert!(
        daemon.open_fds() >= idle,
        "{} fds for {idle} connections",
        daemon.open_fds()
    );
    assert_eq!(
        daemon.status("Threads:"),
        threads_before,
        "{idle} idle connections changed the daemon's thread count"
    );
    let rss_after = daemon.status("VmRSS:");
    println!(
        "connection_scale: {connections} connections ({idle} idle, {} holding {HELD_BYTES} B); \
         threads {threads_before}; RSS {rss_before} -> {rss_after} KiB, {:.0} B per connection",
        held_lines.len(),
        (rss_after.saturating_sub(rss_before) * 1024) as f64 / connections as f64
    );

    // Every held line is finished, and gets exactly one reply: the
    // engine's decision.
    for (i, line) in &held_lines {
        (&conns[*i]).write_all(&line[HELD_BYTES..]).unwrap();
    }
    for (i, _) in &held_lines {
        let sock = &conns[*i];
        sock.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(sock);
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .expect("read the held line's reply");
        assert!(reader.buffer().is_empty(), "more than one reply: {reply}");
        let Ok(ServerMessage::Decision(resp)) = abpd::wire::parse_server_message(reply.trim_end())
        else {
            panic!("connection {i}: not a Decision: {reply}");
        };
        assert_eq!(resp.outcome, engine_decides(&engine, &idle_reqs[*i]));
        sock.set_nonblocking(true).unwrap();
        match (&*sock).read(&mut [0u8; 1]) {
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            other => panic!("connection {i}: after its one reply: {other:?}"),
        }
    }

    let mut client = Client::connect(&*daemon.addr).expect("connect");
    let decided = active_reqs.len() + held_lines.len();
    assert_eq!(client.stats().expect("stats").requests, decided as u64);

    // `Shutdown` drains open connections: close them first.
    drop(conns);
    client.shutdown_server().expect("shutdown");
    let mut daemon = daemon;
    assert!(daemon.child.wait().expect("wait for abpd").success());
}
