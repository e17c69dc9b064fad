//! Per-shard service metrics: lock-free counters plus a fixed-bucket
//! latency histogram good enough for p50/p99 reporting.

use crate::protocol::{ShardStats, StatsReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pads and aligns its contents to a 64-byte cache line so adjacent
/// slots in a `Vec` never start on a shared line; without this, shard
/// 0's trailing counters and shard 1's `requests` land on one line and
/// every increment from different cores ping-pongs it. `Deref` keeps
/// call sites unchanged.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CacheAligned<T>(pub T);

impl<T> std::ops::Deref for CacheAligned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CacheAligned<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Histogram bucket layout (microseconds): 1µs resolution below 100µs,
/// 100µs resolution to 10ms, 1ms resolution to 100ms, one overflow
/// bucket. Fixed boundaries keep recording a single atomic increment.
const FINE: u64 = 100; // [0, 100µs) in 1µs buckets
const MID_STEP: u64 = 100; // [100µs, 10ms) in 100µs buckets
const MID_TOP: u64 = 10_000;
const COARSE_STEP: u64 = 1_000; // [10ms, 100ms) in 1ms buckets
const COARSE_TOP: u64 = 100_000;
const BUCKETS: usize =
    (FINE + (MID_TOP - FINE) / MID_STEP + (COARSE_TOP - MID_TOP) / COARSE_STEP) as usize + 1;

fn bucket_of(us: u64) -> usize {
    if us < FINE {
        us as usize
    } else if us < MID_TOP {
        (FINE + (us - FINE) / MID_STEP) as usize
    } else if us < COARSE_TOP {
        (FINE + (MID_TOP - FINE) / MID_STEP + (us - MID_TOP) / COARSE_STEP) as usize
    } else {
        BUCKETS - 1
    }
}

/// Inclusive upper bound (µs) of a bucket, used when reporting quantiles.
fn bucket_upper(idx: usize) -> u64 {
    let idx = idx as u64;
    let mid_buckets = (MID_TOP - FINE) / MID_STEP;
    if idx < FINE {
        idx + 1
    } else if idx < FINE + mid_buckets {
        FINE + (idx - FINE + 1) * MID_STEP
    } else if (idx as usize) < BUCKETS - 1 {
        MID_TOP + (idx - FINE - mid_buckets + 1) * COARSE_STEP
    } else {
        COARSE_TOP
    }
}

/// Latency histogram over fixed bucket boundaries.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Histogram {
    /// Record one observation in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Approximate quantile `q` in [0, 1]: the upper bound of the
    /// bucket where the cumulative count crosses `q`. Zero when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut cum = 0;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper(i);
            }
        }
        COARSE_TOP
    }

    /// Observations recorded so far.
    #[cfg(test)]
    pub(crate) fn samples(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Fold another histogram's counts into an owned copy of this one.
    pub(crate) fn merged(&self, other: &Histogram) -> Histogram {
        let out = Histogram::default();
        for (i, b) in out.buckets.iter().enumerate() {
            b.store(
                self.buckets[i].load(Ordering::Relaxed) + other.buckets[i].load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        }
        out
    }
}

/// Tenant-population accounting buckets, by subscription-mask
/// cardinality (`popcount`): 0–1 lists, 2 lists, 3–4, 5–8, 9+. The
/// legacy union view (`u64::MAX`, all 64 bits) lands in the top
/// bucket, so a single-config deployment reports everything there.
pub const TENANT_CARD_BUCKETS: usize = 5;

/// Words in the distinct-mask linear-counting bitmap (1024 bits).
const TENANT_BITMAP_WORDS: usize = 16;
const TENANT_BITMAP_BITS: u64 = (TENANT_BITMAP_WORDS as u64) * 64;

/// Which cardinality bucket a subscription mask falls in.
fn tenant_card_bucket(mask: u64) -> usize {
    match mask.count_ones() {
        0 | 1 => 0,
        2 => 1,
        3 | 4 => 2,
        5..=8 => 3,
        _ => 4,
    }
}

/// SplitMix64 finalizer: spreads correlated masks (neighbouring bit
/// patterns) uniformly over the bitmap.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Linear-counting estimate of distinct values from an m-bit bitmap:
/// `m * ln(m / zeros)`, saturating at `m` when every bit is set.
fn linear_count(bitmap: &[u64; TENANT_BITMAP_WORDS]) -> u64 {
    let zeros: u64 = bitmap.iter().map(|w| w.count_zeros() as u64).sum();
    if zeros == 0 {
        return TENANT_BITMAP_BITS;
    }
    let m = TENANT_BITMAP_BITS as f64;
    (m * (m / zeros as f64).ln()).round() as u64
}

/// One shard's counters.
#[derive(Default)]
pub struct ShardMetrics {
    /// Decisions routed to this shard (hits and misses).
    pub requests: AtomicU64,
    /// Decisions answered from cache.
    pub cache_hits: AtomicU64,
    /// Decisions that blocked the request.
    pub blocks: AtomicU64,
    /// Decisions allowed by an exception.
    pub exceptions: AtomicU64,
    /// Decision latency.
    pub latency: Histogram,
    /// Linear-counting bitmap of subscription masks seen by this shard.
    tenant_seen: [AtomicU64; TENANT_BITMAP_WORDS],
    /// Decisions per mask-cardinality bucket.
    tenant_requests: [AtomicU64; TENANT_CARD_BUCKETS],
    /// Cache hits per mask-cardinality bucket.
    tenant_hits: [AtomicU64; TENANT_CARD_BUCKETS],
}

impl ShardMetrics {
    /// Account one decision against its tenant's subscription mask.
    pub fn record_tenant(&self, mask: u64, cached: bool) {
        let bucket = tenant_card_bucket(mask);
        self.tenant_requests[bucket].fetch_add(1, Ordering::Relaxed);
        if cached {
            self.tenant_hits[bucket].fetch_add(1, Ordering::Relaxed);
        }
        let bit = mix64(mask) % TENANT_BITMAP_BITS;
        let word = &self.tenant_seen[(bit / 64) as usize];
        let m = 1u64 << (bit % 64);
        // Check before the RMW: the steady state (mask already seen)
        // stays a plain load on a shard-owned line.
        if word.load(Ordering::Relaxed) & m == 0 {
            word.fetch_or(m, Ordering::Relaxed);
        }
    }

    /// OR this shard's mask bitmap and add its bucket counters into
    /// the accumulators (report-time merge).
    fn fold_tenants(
        &self,
        bitmap: &mut [u64; TENANT_BITMAP_WORDS],
        requests: &mut [u64; TENANT_CARD_BUCKETS],
        hits: &mut [u64; TENANT_CARD_BUCKETS],
    ) {
        for (acc, w) in bitmap.iter_mut().zip(&self.tenant_seen) {
            *acc |= w.load(Ordering::Relaxed);
        }
        for (acc, c) in requests.iter_mut().zip(&self.tenant_requests) {
            *acc += c.load(Ordering::Relaxed);
        }
        for (acc, c) in hits.iter_mut().zip(&self.tenant_hits) {
            *acc += c.load(Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> ShardStats {
        ShardStats {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            blocks: self.blocks.load(Ordering::Relaxed),
            exceptions: self.exceptions.load(Ordering::Relaxed),
            p50_us: self.latency.quantile_us(0.50),
            p99_us: self.latency.quantile_us(0.99),
        }
    }
}

/// Fold the tenant accounting of `shards` and estimate the distinct
/// subscription masks served across all of them.
fn tenant_totals(
    shards: &[Arc<ReactorMetrics>],
) -> (u64, [u64; TENANT_CARD_BUCKETS], [u64; TENANT_CARD_BUCKETS]) {
    let mut bitmap = [0u64; TENANT_BITMAP_WORDS];
    let mut requests = [0u64; TENANT_CARD_BUCKETS];
    let mut hits = [0u64; TENANT_CARD_BUCKETS];
    for s in shards {
        s.shard.fold_tenants(&mut bitmap, &mut requests, &mut hits);
    }
    (linear_count(&bitmap), requests, hits)
}

/// Snapshot `shards` into a wire-format report: one entry each, in
/// order, and totals over all of them. The merge happens here, at
/// report time, precisely so the hot path never has to touch a shared
/// line: every shard writes its own padded counters and only a `Stats`
/// request pays for summing them.
///
/// `StatsReport` is a frozen wire shape (byte-identity is
/// property-tested); the resilience counters travel in `Health`.
pub fn report(shards: &[Arc<ReactorMetrics>]) -> StatsReport {
    let rows: Vec<ShardStats> = shards.iter().map(|s| s.shard.snapshot()).collect();
    let merged = shards
        .iter()
        .fold(Histogram::default(), |acc, s| acc.merged(&s.shard.latency));
    let (distinct_tenants, tenant_requests, tenant_hits) = tenant_totals(shards);
    StatsReport {
        requests: rows.iter().map(|s| s.requests).sum(),
        cache_hits: rows.iter().map(|s| s.cache_hits).sum(),
        blocks: rows.iter().map(|s| s.blocks).sum(),
        exceptions: rows.iter().map(|s| s.exceptions).sum(),
        p50_us: merged.quantile_us(0.50),
        p99_us: merged.quantile_us(0.99),
        shards: rows,
        distinct_tenants,
        tenant_requests_by_lists: tenant_requests.to_vec(),
        tenant_cache_hits_by_lists: tenant_hits.to_vec(),
    }
}

/// Linear-counting estimate of distinct subscription masks served
/// across `shards`.
pub fn distinct_tenants(shards: &[Arc<ReactorMetrics>]) -> u64 {
    tenant_totals(shards).0
}

/// One shard's counters — a reactor thread's — folded into
/// `Stats`/`Health` replies on demand. The decision counters live in a
/// padded [`ShardMetrics`] that only the shard's reactor increments; `eval_panics` counts evaluations that panicked (injected
/// or real) and were caught without losing the thread, reported as
/// `HealthReport::shard_restarts`.
#[derive(Default)]
pub struct ReactorMetrics {
    /// Decision counters for work evaluated on this shard.
    pub shard: CacheAligned<ShardMetrics>,
    /// Caught evaluation panics (survived, nothing respawned).
    pub eval_panics: AtomicU64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_total() {
        let mut prev = 0;
        for i in 0..BUCKETS {
            let ub = bucket_upper(i);
            assert!(ub > prev || i == BUCKETS - 1, "bucket {i}: {ub} vs {prev}");
            prev = prev.max(ub);
        }
        // Every plausible latency lands in a valid bucket.
        for us in [0, 1, 99, 100, 101, 9_999, 10_000, 99_999, 100_000, u64::MAX] {
            assert!(bucket_of(us) < BUCKETS);
        }
        // Boundary checks: values map to a bucket whose upper bound
        // is above them (or the overflow bucket).
        for us in [0, 5, 99, 150, 9_950, 12_345, 99_000] {
            assert!(bucket_upper(bucket_of(us)) > us, "us={us}");
        }
    }

    #[test]
    fn quantiles_track_observations() {
        let h = Histogram::default();
        for _ in 0..98 {
            h.record_us(10); // p50 lands here
        }
        for _ in 0..2 {
            h.record_us(50_000); // tail
        }
        assert_eq!(h.quantile_us(0.5), 11); // bucket [10,11)
        assert!(h.quantile_us(0.99) >= 50_000);
        assert_eq!(Histogram::default().quantile_us(0.5), 0);
    }

    fn shards(n: usize) -> Vec<Arc<ReactorMetrics>> {
        (0..n).map(|_| Arc::default()).collect()
    }

    #[test]
    fn report_sums_shards() {
        let m = shards(2);
        m[0].shard.requests.fetch_add(10, Ordering::Relaxed);
        m[1].shard.requests.fetch_add(5, Ordering::Relaxed);
        m[0].shard.blocks.fetch_add(3, Ordering::Relaxed);
        m[1].shard.cache_hits.fetch_add(2, Ordering::Relaxed);
        m[0].shard.latency.record_us(7);
        m[1].shard.latency.record_us(400);
        let r = report(&m);
        assert_eq!(r.requests, 15);
        assert_eq!(r.blocks, 3);
        assert_eq!(r.cache_hits, 2);
        assert_eq!(r.shards.len(), 2);
        assert!(r.p99_us >= 400);
    }

    #[test]
    fn tenant_counters_bucket_and_estimate() {
        let mut m = shards(2);
        // Three distinct masks across two shards: a 1-list user, a
        // 2-list user (hit + miss), and the legacy union view.
        m[0].shard.record_tenant(0b01, false);
        m[0].shard.record_tenant(0b11, false);
        m[1].shard.record_tenant(0b11, true);
        m[1].shard.record_tenant(u64::MAX, true);
        let r = report(&m);
        assert_eq!(r.tenant_requests_by_lists, vec![1, 2, 0, 0, 1]);
        assert_eq!(r.tenant_cache_hits_by_lists, vec![0, 1, 0, 0, 1]);
        // Small cardinalities are exact under linear counting.
        assert_eq!(r.distinct_tenants, 3);
        assert_eq!(distinct_tenants(&m), 3);
        // A further shard's masks fold in like the others'.
        m.extend(shards(1));
        m[2].shard.record_tenant(0b10, true);
        assert_eq!(distinct_tenants(&m), 4);
        assert_eq!(report(&m).tenant_cache_hits_by_lists, vec![1, 1, 0, 0, 1]);
        // Untouched metrics report zero distinct tenants.
        assert_eq!(report(&shards(1)).distinct_tenants, 0);
    }

    #[test]
    fn tenant_estimate_tracks_large_populations() {
        let m = shards(1);
        for mask in 0..400u64 {
            m[0].shard.record_tenant(mask | 1, false);
        }
        let est = report(&m).distinct_tenants;
        // ~200 distinct masks (odd-bit collapse halves the range);
        // linear counting over 1024 bits stays within ~15%.
        let truth = (0..400u64)
            .map(|m| m | 1)
            .collect::<std::collections::HashSet<_>>()
            .len();
        let truth = truth as f64;
        assert!(
            (est as f64) > truth * 0.85 && (est as f64) < truth * 1.15,
            "estimate {est} vs true {truth}"
        );
    }

    #[test]
    fn shard_slots_are_cache_line_isolated() {
        assert_eq!(std::mem::align_of::<CacheAligned<ShardMetrics>>(), 64);
        assert_eq!(std::mem::size_of::<CacheAligned<ShardMetrics>>() % 64, 0);
        // Each shard's block is allocated on its own and is itself
        // line-aligned, so its counters start a line wherever the
        // allocator puts it — never on a neighbour's.
        assert_eq!(std::mem::align_of::<ReactorMetrics>(), 64);
        let m = shards(2);
        let a = &m[0].shard as *const _ as usize;
        let b = &m[1].shard as *const _ as usize;
        assert_eq!((a % 64, b % 64), (0, 0));
        assert!(a.abs_diff(b) >= 64, "shards {a:#x}/{b:#x} share a line");
    }

    #[test]
    fn extra_shards_merge_into_totals_and_tail() {
        let m = shards(2);
        m[0].shard.requests.fetch_add(10, Ordering::Relaxed);
        m[0].shard.latency.record_us(5);
        m[1].shard.requests.fetch_add(7, Ordering::Relaxed);
        m[1].shard.blocks.fetch_add(2, Ordering::Relaxed);
        m[1].shard.latency.record_us(50_000);
        let r = report(&m);
        assert_eq!(r.requests, 17);
        assert_eq!(r.blocks, 2);
        assert_eq!(r.shards.len(), 2);
        assert_eq!(r.shards[1].requests, 7);
        assert!(r.p99_us >= 50_000, "every tail must merge: {}", r.p99_us);
        // A report over fewer shards sees only those.
        assert_eq!(report(&m[..1]).requests, 10);
    }
}
