//! Deterministic fault injection for chaos testing.
//!
//! Production binaries run with faults disabled (a `None` check on the
//! hot path); tests and the chaos CI stage arm them programmatically
//! via [`FaultConfig`] or through the `ABPD_FAULTS` environment
//! variable, e.g.:
//!
//! ```text
//! ABPD_FAULTS="panic=10000,delay=10000,delay_ms=10,torn=500,disconnect=500,seed=42"
//! ```
//!
//! Rates are **per million** draws (so `panic=10000` is 1%). Each
//! injection site draws from a [`FaultPlan`]: a per-slot atomic
//! counter hashed through splitmix64 with the configured seed and the
//! slot id, making a fault schedule reproducible for a given seed,
//! slot, and draw order while still looking random. Slots exist so
//! concurrent drawers (evaluation shards, reactor and connection
//! write paths) each bump their own cache-line-padded counter instead
//! of contending on one shared line; [`FaultPlan::draws`] merges them
//! on demand. The modeled fault kinds:
//!
//! * **eval panics** — an evaluation panics (exercises the
//!   `catch_unwind` guard and the batch `Error` path);
//! * **eval delays** — an evaluation stalls for `delay_ms`
//!   (exercises deadlines);
//! * **torn writes** — the server writes half a reply burst and drops
//!   the connection (exercises client truncated-line handling);
//! * **disconnects** — the server drops the connection before writing
//!   (exercises client retry/reconnect);
//! * **snapshot io errors** (`io_error=`) — persisting the serving
//!   state fails like a full disk (exercises the reload path's
//!   best-effort durability accounting);
//! * **torn snapshots** (`torn_snapshot=`) — a half-written snapshot
//!   is renamed into place (exercises recovery's corruption
//!   detection);
//! * **crashes** (`crash=`) — the process aborts mid-snapshot-write,
//!   `kill -9` style (exercises the atomic-rename protocol end to
//!   end). Only meaningful for standalone daemons: the abort takes the
//!   whole process, so in-process test harnesses never arm it.

use crate::metrics::CacheAligned;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Fault rates (per million) and the plan seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Probability (per million evaluations) of a panic.
    pub eval_panic_per_million: u32,
    /// Probability (per million evaluations) of a stall.
    pub eval_delay_per_million: u32,
    /// How long an injected stall lasts.
    pub eval_delay_ms: u64,
    /// Probability (per million reply flushes) of a torn write: half
    /// the burst is written, then the connection dies mid-line.
    pub torn_write_per_million: u32,
    /// Probability (per million reply flushes) of dropping the
    /// connection without writing anything.
    pub disconnect_per_million: u32,
    /// Probability (per million snapshot saves) of the write failing
    /// like a full disk: the previous snapshot survives untouched.
    pub snapshot_io_error_per_million: u32,
    /// Probability (per million snapshot saves) of a torn write that
    /// still renames into place — recovery must detect it.
    pub torn_snapshot_per_million: u32,
    /// Probability (per million snapshot saves) of aborting the whole
    /// process mid-write (`kill -9` style). Standalone daemons only.
    pub crash_per_million: u32,
    /// Seed for the deterministic draw sequence.
    pub seed: u64,
}

impl FaultConfig {
    /// Whether every rate is zero (the plan would never fire).
    pub fn is_noop(&self) -> bool {
        self.eval_panic_per_million == 0
            && self.eval_delay_per_million == 0
            && self.torn_write_per_million == 0
            && self.disconnect_per_million == 0
            && self.snapshot_io_error_per_million == 0
            && self.torn_snapshot_per_million == 0
            && self.crash_per_million == 0
    }

    /// Parse a `key=value,key=value` spec (the `ABPD_FAULTS` format).
    /// Keys: `panic`, `delay`, `delay_ms`, `torn`, `disconnect`,
    /// `io_error`, `torn_snapshot`, `crash`, `seed`. Unknown keys are
    /// an error so typos don't silently disable a fault.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig {
            eval_delay_ms: 10,
            ..FaultConfig::default()
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec {part:?} is not key=value"))?;
            let parse_u32 = || {
                value
                    .parse::<u32>()
                    .map_err(|e| format!("bad value for {key}: {value:?} ({e})"))
            };
            match key.trim() {
                "panic" => cfg.eval_panic_per_million = parse_u32()?,
                "delay" => cfg.eval_delay_per_million = parse_u32()?,
                "torn" => cfg.torn_write_per_million = parse_u32()?,
                "disconnect" => cfg.disconnect_per_million = parse_u32()?,
                "io_error" => cfg.snapshot_io_error_per_million = parse_u32()?,
                "torn_snapshot" => cfg.torn_snapshot_per_million = parse_u32()?,
                "crash" => cfg.crash_per_million = parse_u32()?,
                "delay_ms" => {
                    cfg.eval_delay_ms = value
                        .parse::<u64>()
                        .map_err(|e| format!("bad value for delay_ms: {value:?} ({e})"))?;
                }
                "seed" => {
                    cfg.seed = value
                        .parse::<u64>()
                        .map_err(|e| format!("bad value for seed: {value:?} ({e})"))?;
                }
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        Ok(cfg)
    }

    /// Read the `ABPD_FAULTS` environment variable, if set. A malformed
    /// spec aborts loudly — silently running *without* the faults you
    /// asked for would make a chaos run meaningless.
    pub fn from_env() -> Option<FaultConfig> {
        let spec = std::env::var("ABPD_FAULTS").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match FaultConfig::parse(&spec) {
            Ok(cfg) if cfg.is_noop() => None,
            Ok(cfg) => Some(cfg),
            Err(e) => {
                eprintln!("abpd: bad ABPD_FAULTS: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// What an evaluation-site draw decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalFault {
    /// Proceed normally.
    None,
    /// Panic inside the evaluation.
    Panic,
    /// Sleep before evaluating.
    Delay(Duration),
}

/// What a write-site draw decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Proceed normally.
    None,
    /// Write a prefix of the burst, then drop the connection.
    Torn,
    /// Drop the connection without writing.
    Disconnect,
}

/// What a snapshot-save draw decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateFault {
    /// Proceed normally.
    None,
    /// Fail the write like a full disk; nothing is renamed.
    IoError,
    /// Rename a half-written snapshot into place (a lying disk).
    Torn,
    /// Abort the process mid-write (`kill -9` style).
    Crash,
}

/// The dedicated fault-plan slot for snapshot saves. Persistence is
/// serialized under the reload lock, so one slot suffices — and
/// keeping it fixed makes crash schedules reproducible independent of
/// how many shards drew eval faults first.
pub const STATE_SLOT: usize = 63;

const PER_MILLION: u64 = 1_000_000;

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Independent draw-counter slots. Drawers pick a stable slot (shard
/// or reactor index) and only ever contend
/// with other drawers folded onto the same slot modulo this count.
const SLOTS: usize = 64;

/// A live fault schedule: the config plus per-slot draw counters, each
/// on its own cache line.
pub struct FaultPlan {
    cfg: FaultConfig,
    counters: Vec<CacheAligned<AtomicU64>>,
}

impl FaultPlan {
    /// Arm a plan.
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            cfg,
            counters: (0..SLOTS)
                .map(|_| CacheAligned(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// The configuration this plan draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Total draws across every slot — the merged view of the padded
    /// per-slot counters, for chaos-run accounting and tests.
    pub fn draws(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    fn draw(&self, slot: usize) -> u64 {
        let slot = slot % SLOTS;
        let n = self.counters[slot].fetch_add(1, Ordering::Relaxed);
        let mixed = self.cfg.seed
            ^ (slot as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D);
        splitmix64(mixed) % PER_MILLION
    }

    /// Draw for one engine evaluation on `slot`.
    pub fn eval_fault(&self, slot: usize) -> EvalFault {
        let panic = u64::from(self.cfg.eval_panic_per_million);
        let delay = u64::from(self.cfg.eval_delay_per_million);
        if panic == 0 && delay == 0 {
            return EvalFault::None;
        }
        let roll = self.draw(slot);
        if roll < panic {
            EvalFault::Panic
        } else if roll < panic + delay {
            EvalFault::Delay(Duration::from_millis(self.cfg.eval_delay_ms))
        } else {
            EvalFault::None
        }
    }

    /// Draw for one snapshot save on `slot` (use [`STATE_SLOT`]).
    pub fn state_fault(&self, slot: usize) -> StateFault {
        let crash = u64::from(self.cfg.crash_per_million);
        let io = u64::from(self.cfg.snapshot_io_error_per_million);
        let torn = u64::from(self.cfg.torn_snapshot_per_million);
        if crash == 0 && io == 0 && torn == 0 {
            return StateFault::None;
        }
        let roll = self.draw(slot);
        if roll < crash {
            StateFault::Crash
        } else if roll < crash + io {
            StateFault::IoError
        } else if roll < crash + io + torn {
            StateFault::Torn
        } else {
            StateFault::None
        }
    }

    /// Draw for one reply-burst write on `slot`.
    pub fn write_fault(&self, slot: usize) -> WriteFault {
        let torn = u64::from(self.cfg.torn_write_per_million);
        let disconnect = u64::from(self.cfg.disconnect_per_million);
        if torn == 0 && disconnect == 0 {
            return WriteFault::None;
        }
        let roll = self.draw(slot);
        if roll < torn {
            WriteFault::Torn
        } else if roll < torn + disconnect {
            WriteFault::Disconnect
        } else {
            WriteFault::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_rejects_typos() {
        let cfg = FaultConfig::parse("panic=10000,delay=5000,delay_ms=7,torn=2,seed=9").unwrap();
        assert_eq!(cfg.eval_panic_per_million, 10_000);
        assert_eq!(cfg.eval_delay_per_million, 5_000);
        assert_eq!(cfg.eval_delay_ms, 7);
        assert_eq!(cfg.torn_write_per_million, 2);
        assert_eq!(cfg.disconnect_per_million, 0);
        assert_eq!(cfg.seed, 9);
        assert!(!cfg.is_noop());

        assert!(FaultConfig::parse("panik=1").is_err());
        assert!(FaultConfig::parse("panic").is_err());
        assert!(FaultConfig::parse("panic=lots").is_err());
        assert!(FaultConfig::parse("").unwrap().is_noop());

        // The snapshot arms parse and arm the plan on their own.
        let cfg = FaultConfig::parse("io_error=5,torn_snapshot=6,crash=7").unwrap();
        assert_eq!(cfg.snapshot_io_error_per_million, 5);
        assert_eq!(cfg.torn_snapshot_per_million, 6);
        assert_eq!(cfg.crash_per_million, 7);
        assert!(!cfg.is_noop());
        assert!(!FaultConfig::parse("crash=1000000").unwrap().is_noop());
    }

    #[test]
    fn state_fault_rates_are_roughly_honored() {
        let plan = FaultPlan::new(FaultConfig {
            snapshot_io_error_per_million: 100_000, // 10%
            torn_snapshot_per_million: 100_000,     // 10%
            ..FaultConfig::default()
        });
        let (mut io, mut torn, mut crashes) = (0u32, 0u32, 0u32);
        for _ in 0..10_000 {
            match plan.state_fault(STATE_SLOT) {
                StateFault::IoError => io += 1,
                StateFault::Torn => torn += 1,
                StateFault::Crash => crashes += 1,
                StateFault::None => {}
            }
        }
        assert!((500..2000).contains(&io), "io errors: {io}");
        assert!((500..2000).contains(&torn), "torn snapshots: {torn}");
        assert_eq!(crashes, 0, "crash rate is zero, nothing may abort");
    }

    #[test]
    fn zero_state_rates_skip_the_draw() {
        // A plan armed only with eval faults must not burn draws (and
        // shift schedules) on the snapshot path.
        let plan = FaultPlan::new(FaultConfig {
            eval_panic_per_million: 10_000,
            ..FaultConfig::default()
        });
        for _ in 0..100 {
            assert_eq!(plan.state_fault(STATE_SLOT), StateFault::None);
        }
        assert_eq!(plan.draws(), 0);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan::new(FaultConfig {
            eval_panic_per_million: 100_000, // 10%
            eval_delay_per_million: 100_000, // 10%
            eval_delay_ms: 3,
            ..FaultConfig::default()
        });
        let (mut panics, mut delays) = (0u32, 0u32);
        for _ in 0..10_000 {
            match plan.eval_fault(0) {
                EvalFault::Panic => panics += 1,
                EvalFault::Delay(d) => {
                    assert_eq!(d, Duration::from_millis(3));
                    delays += 1;
                }
                EvalFault::None => {}
            }
        }
        // 10% ± generous slack; the sequence is deterministic so this
        // can't flake.
        assert!((500..2000).contains(&panics), "panics: {panics}");
        assert!((500..2000).contains(&delays), "delays: {delays}");
    }

    #[test]
    fn zero_rates_never_fire_and_skip_the_draw() {
        let plan = FaultPlan::new(FaultConfig::default());
        for slot in 0..100 {
            assert_eq!(plan.eval_fault(slot), EvalFault::None);
            assert_eq!(plan.write_fault(slot), WriteFault::None);
        }
        assert_eq!(plan.draws(), 0);
    }

    #[test]
    fn same_seed_same_schedule_per_slot() {
        let cfg = FaultConfig {
            eval_panic_per_million: 50_000,
            eval_delay_per_million: 50_000,
            eval_delay_ms: 1,
            ..FaultConfig::default()
        };
        let a = FaultPlan::new(cfg.clone());
        let b = FaultPlan::new(cfg);
        for slot in [0usize, 1, 7, 63] {
            for _ in 0..250 {
                assert_eq!(a.eval_fault(slot), b.eval_fault(slot));
            }
        }
        assert_eq!(a.draws(), 4 * 250);
        // Slots interleave without disturbing each other's schedules:
        // draws on slot 1 must not shift slot 0's sequence.
        let c = FaultPlan::new(a.config().clone());
        let d = FaultPlan::new(a.config().clone());
        let solo: Vec<EvalFault> = (0..100).map(|_| c.eval_fault(0)).collect();
        let interleaved: Vec<EvalFault> = (0..100)
            .map(|_| {
                let _ = d.eval_fault(1);
                d.eval_fault(0)
            })
            .collect();
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn slots_get_distinct_schedules() {
        let plan = FaultPlan::new(FaultConfig {
            eval_panic_per_million: 500_000,
            ..FaultConfig::default()
        });
        let s0: Vec<EvalFault> = (0..64).map(|_| plan.eval_fault(0)).collect();
        let s1: Vec<EvalFault> = (0..64).map(|_| plan.eval_fault(1)).collect();
        assert_ne!(s0, s1, "slot schedules should not be identical");
    }
}
