//! Processes: pinning, spawning the release daemons, `/proc` sampling.
//!
//! The harness and every daemon of a workload are pinned to one and
//! the same core (`taskset`). A closed loop on one core never has two
//! parties running at once, so nothing depends on how the host
//! schedules two virtual CPUs against each other — measured on the
//! 2-vCPU sandbox, that choice alone cut the run-to-run spread of
//! `decide-lockstep` from 23% to 3% and of `serve-hot` from 13% to 2.5%
//! (see README). A rate therefore reads as *per core, load generator
//! included*, and `cpu_us_per_op` splits it by process.

use crate::layers::Conn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a daemon may take to print its `listening on` line.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a daemon may take to exit after `Shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(15);

/// The machine as the benchmark uses it.
#[derive(Debug, Clone)]
pub struct Host {
    /// The one core the harness and every daemon are pinned to
    /// (`None`: unpinned).
    pub core: Option<usize>,
    /// CPUs this process may run on.
    pub nproc: usize,
    /// Kernel clock ticks per second (`/proc/<pid>/stat` unit).
    pub clk_tck: f64,
}

impl Host {
    /// Whether the pinning rule is in force.
    pub fn pinned(&self) -> bool {
        self.core.is_some()
    }

    /// Inspect the host and pin the calling (main) thread — threads
    /// spawned later inherit it — to the first CPU this process may
    /// run on: everything else on the machine then drifts to the idle
    /// ones. Without `taskset`, run unpinned.
    pub fn detect_and_pin() -> Host {
        let allowed = allowed_cpus();
        let clk_tck = Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .unwrap_or(100.0);
        let core = allowed.first().copied().filter(|core| {
            Command::new("taskset")
                .args(["-cp", &core.to_string(), &std::process::id().to_string()])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .is_ok_and(|s| s.success())
        });
        Host {
            core,
            nproc: allowed.len().max(1),
            clk_tck,
        }
    }
}

/// CPUs in `Cpus_allowed_list` of `/proc/self/status` (e.g. `0-1,4`).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// CPU time a process has used, in nanoseconds: the scheduler's
/// per-thread run time (`/proc/<pid>/task/*/schedstat`) summed over
/// its living threads, or — where the kernel does not keep it — utime +
/// stime at clock-tick resolution. 0 once the process is gone.
pub fn cpu_ns(pid: u32, clk_tck: f64) -> u64 {
    let run_time = |entry: std::fs::DirEntry| -> Option<u64> {
        let stat = std::fs::read_to_string(entry.path().join("schedstat")).ok()?;
        stat.split_ascii_whitespace().next()?.parse().ok()
    };
    let precise: u64 = std::fs::read_dir(format!("/proc/{pid}/task"))
        .map(|tasks| tasks.flatten().filter_map(run_time).sum())
        .unwrap_or(0);
    if precise > 0 {
        precise
    } else {
        cpu_ns_with_reaped(pid, clk_tck)
    }
}

/// CPU time of a process at clock-tick resolution, threads that have
/// already exited included — for work done on short-lived threads,
/// which [`cpu_ns`] cannot see.
pub fn cpu_ns_with_reaped(pid: u32, clk_tck: f64) -> u64 {
    (cpu_ticks(pid) as f64 / clk_tck * 1e9) as u64
}

/// utime + stime of a process in clock ticks (all threads, living and
/// reaped). 0 once the process is gone.
fn cpu_ticks(pid: u32) -> u64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0;
    };
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    utime + stime
}

/// Resident set size of a process in KiB (`VmRSS`).
pub fn rss_kib(pid: u32) -> u64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// One spawned daemon. Killed on drop if still running.
pub struct Daemon {
    child: Child,
    stderr: Option<std::thread::JoinHandle<()>>,
    /// Address from its `listening on` line.
    pub addr: SocketAddr,
    /// Spawn → `listening on`.
    pub boot: Duration,
}

impl Daemon {
    /// Spawn `bin args…` on the host's benchmark core and wait for its
    /// `<name>: listening on ADDR` line on stderr.
    fn spawn(host: &Host, bin: &Path, args: &[String]) -> std::io::Result<Daemon> {
        let mut cmd = match host.core {
            Some(core) => {
                let mut c = Command::new("taskset");
                c.args(["-c", &core.to_string()]).arg(bin);
                c
            }
            None => Command::new(bin),
        };
        let started = Instant::now();
        let mut child = cmd
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let pipe = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        // The reader outlives the boot line: a daemon that logs (every
        // reload does) must never block on a full pipe.
        let stderr = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                if let Some(at) = line.find("listening on ") {
                    let addr = line[at + "listening on ".len()..]
                        .split_ascii_whitespace()
                        .next()
                        .and_then(|a| a.parse::<SocketAddr>().ok());
                    let _ = tx.send((addr, Instant::now()));
                }
            }
        });
        let mut daemon = Daemon {
            child,
            stderr: Some(stderr),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            boot: Duration::ZERO,
        };
        match rx.recv_timeout(BOOT_TIMEOUT) {
            Ok((Some(addr), at)) => {
                daemon.addr = addr;
                daemon.boot = at - started;
                Ok(daemon)
            }
            _ => Err(std::io::Error::other(format!(
                "{} did not report a listening address",
                bin.display()
            ))),
        }
    }

    /// Process id (the daemon itself: `taskset` execs it).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait for the process to exit by itself; kill it after a grace
    /// period.
    fn wait(&mut self) {
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}

/// Which processes stand between the harness and the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One `abpd`.
    Direct,
    /// `abpd-proxy` in front of two `abpd` shards.
    Fleet,
}

/// Which of `abpd`'s duplicate serving paths a daemon runs. The
/// workloads use `Event`; the others exist for the variant probes and
/// are selected by flag only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// `--server-mode event`, inline evaluation: the measured path.
    Event,
    /// `--server-mode blocking`: thread per connection.
    Blocking,
    /// `--inline-batch-max 1`: every batch escalates to the worker pool.
    Pool,
}

/// Where the release binaries are and how to run them.
pub struct Launcher {
    /// Directory holding `abpd` and `abpd-proxy`.
    pub bin_dir: PathBuf,
    /// Pinning and clock.
    pub host: Host,
}

impl Launcher {
    fn abpd_args(variant: Variant, state_dir: Option<&Path>) -> Vec<String> {
        // Fixed, not host-derived. `abpd` takes the first occurrence of
        // a flag, so a variant replaces the flag instead of appending.
        let mode = if variant == Variant::Blocking {
            "blocking"
        } else {
            "event"
        };
        let mut args: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--seed",
            "2015",
            "--server-mode",
            mode,
            "--io-threads",
            "1",
            "--shards",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if variant == Variant::Pool {
            args.extend(["--inline-batch-max".to_string(), "1".to_string()]);
        }
        if let Some(dir) = state_dir {
            args.extend(["--state-dir".to_string(), dir.display().to_string()]);
        }
        args
    }

    /// Spawn every process of a shape and connect to its entry point.
    /// Returns once the entry answers `Ping`.
    pub fn launch(
        &self,
        shape: Shape,
        variant: Variant,
        state_dir: Option<&Path>,
    ) -> std::io::Result<Topology> {
        let abpd = self.bin_dir.join("abpd");
        let shard_count = if shape == Shape::Fleet { 2 } else { 1 };
        let mut shards = Vec::new();
        for _ in 0..shard_count {
            shards.push(Daemon::spawn(
                &self.host,
                &abpd,
                &Launcher::abpd_args(variant, state_dir),
            )?);
        }
        let proxy = match shape {
            Shape::Direct => None,
            Shape::Fleet => {
                let backends: Vec<String> = shards.iter().map(|d| d.addr.to_string()).collect();
                Some(Daemon::spawn(
                    &self.host,
                    &self.bin_dir.join("abpd-proxy"),
                    &[
                        "--addr".to_string(),
                        "127.0.0.1:0".to_string(),
                        "--backends".to_string(),
                        backends.join(","),
                    ],
                )?)
            }
        };
        let entry = proxy.as_ref().map_or(shards[0].addr, |p| p.addr);
        // Readiness: the entry point answers a ping.
        Conn::connect(entry)?;
        Ok(Topology {
            shards,
            proxy,
            entry,
        })
    }
}

/// The running processes of one workload.
pub struct Topology {
    /// The `abpd` processes.
    pub shards: Vec<Daemon>,
    /// The router, in a fleet.
    pub proxy: Option<Daemon>,
    /// Where the load connects.
    pub entry: SocketAddr,
}

impl Topology {
    /// Every daemon, shards first.
    pub fn daemons(&self) -> impl Iterator<Item = &Daemon> {
        self.shards.iter().chain(self.proxy.iter())
    }

    /// Summed CPU nanoseconds of the `abpd` processes.
    pub fn shard_cpu_ns(&self, clk_tck: f64) -> u64 {
        self.shards.iter().map(|d| cpu_ns(d.pid(), clk_tck)).sum()
    }

    /// CPU nanoseconds of the proxy (0 without one).
    pub fn proxy_cpu_ns(&self, clk_tck: f64) -> u64 {
        self.proxy.as_ref().map_or(0, |p| cpu_ns(p.pid(), clk_tck))
    }

    /// Summed resident set of every daemon, MiB.
    pub fn rss_mb(&self) -> f64 {
        self.daemons().map(|d| rss_kib(d.pid())).sum::<u64>() as f64 / 1024.0
    }

    /// Send `Shutdown` to the entry (the proxy forwards it to its
    /// shards) and wait until every process has ended.
    pub fn shutdown(mut self) {
        if let Ok(mut conn) = Conn::connect(self.entry) {
            let _ = conn.shutdown();
        }
        for d in self.proxy.iter_mut().chain(self.shards.iter_mut()) {
            d.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("2,4-6"), vec![2, 4, 5, 6]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(rss_kib(pid) > 0);
        let before = cpu_ns(pid, 100.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_ns(pid, 100.0) > before, "CPU time advances");
    }

    #[test]
    fn variants_replace_the_mode_flag() {
        let event = Launcher::abpd_args(Variant::Event, None);
        assert_eq!(event.iter().filter(|a| *a == "--server-mode").count(), 1);
        assert!(event.contains(&"event".to_string()));
        let blocking = Launcher::abpd_args(Variant::Blocking, None);
        assert!(blocking.contains(&"blocking".to_string()));
        assert!(!blocking.contains(&"event".to_string()));
        let pool = Launcher::abpd_args(Variant::Pool, None);
        assert!(pool
            .windows(2)
            .any(|w| w[0] == "--inline-batch-max" && w[1] == "1"));
    }
}
