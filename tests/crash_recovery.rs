//! The durability contract on the real `abpd` binary: a process that
//! dies inside a snapshot write must come back serving the state it
//! last acknowledged, and a cleanly reloaded state must survive a
//! restart. The in-process halves (`Server::kill`, corrupt snapshots)
//! live in `tests/chaos.rs`; only a child process can be aborted
//! mid-write.

use abp::{Decision, ListSource, ResourceType};
use abpd::protocol::ReloadList;
use abpd::{Client, DecisionRequest, DecisionResponse};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};

/// A running `abpd` child. The stderr pipe stays open for the child's
/// whole life (its exit message must have somewhere to go), and a
/// failed assertion never leaves the process behind.
struct Daemon {
    child: Child,
    addr: String,
    _stderr: BufReader<ChildStderr>,
}

impl Daemon {
    /// Start `abpd` on a free port over `state_dir` and block until it
    /// reports the address it bound.
    fn spawn(state_dir: &Path, faults: Option<&str>) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_abpd"));
        cmd.args(["--addr", "127.0.0.1:0", "--state-dir"])
            .arg(state_dir)
            .env_remove("ABPD_FAULTS")
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(faults) = faults {
            cmd.env("ABPD_FAULTS", faults);
        }
        let mut child = cmd.spawn().expect("spawn abpd");
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

    fn client(&self) -> Client {
        Client::connect(&*self.addr).expect("connect to abpd")
    }

    /// What the daemon serves right now: the probe's reply and the
    /// serving-list checksum.
    fn observe(&self) -> (DecisionResponse, u64) {
        let mut client = self.client();
        let probe = DecisionRequest {
            url: "http://crash-test.example/unit.js".into(),
            document: "news.example".into(),
            resource_type: ResourceType::Script,
            sitekey: None,
            tenant: None,
        };
        let reply = client.decide(&probe).expect("decide");
        (reply, client.health().expect("health").list_checksum)
    }

    fn wait(mut self) -> ExitStatus {
        self.child.wait().expect("wait for abpd")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The reload both legs ship: one list that blocks the probe.
fn reload_lists() -> [ReloadList; 1] {
    [ReloadList {
        source: ListSource::Custom,
        content: "||crash-test.example^\n".to_string(),
    }]
}

#[test]
fn abort_mid_snapshot_keeps_the_acked_state_and_clean_reload_survives_restart() {
    let dir = std::env::temp_dir().join(format!("abpd-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Every snapshot save after the boot one aborts the process inside
    // the write, like a power cut.
    let armed = Daemon::spawn(&dir, Some("crash=1000000,seed=7"));
    let (reply0, checksum0) = armed.observe();
    assert_eq!(reply0.outcome.decision, Decision::NoMatch);
    assert!(
        armed.client().reload(&reload_lists()).is_err(),
        "the armed reload must die with the process, not be acknowledged"
    );
    assert!(!armed.wait().success(), "abpd must have aborted");

    // The half-written file never replaced the live snapshot.
    let on_disk = abpd::state::recover(&dir).expect("the previous snapshot survives a torn write");
    assert_eq!(on_disk.list_checksum, checksum0);
    let recovered = Daemon::spawn(&dir, None);
    assert_eq!(recovered.observe(), (reply0.clone(), checksum0));

    // A clean reload is acknowledged only once it is on disk: it must
    // come back after a restart, not the seed lists.
    recovered
        .client()
        .reload(&reload_lists())
        .expect("clean reload");
    let (reply1, checksum1) = recovered.observe();
    assert_eq!(reply1.outcome.decision, Decision::Block);
    assert_ne!(checksum1, checksum0);
    recovered.client().shutdown_server().expect("shutdown");
    assert!(recovered.wait().success());

    let rebooted = Daemon::spawn(&dir, None);
    assert_eq!(rebooted.observe(), (reply1, checksum1));
    rebooted.client().shutdown_server().expect("shutdown");
    assert!(rebooted.wait().success());
    let _ = std::fs::remove_dir_all(&dir);
}
