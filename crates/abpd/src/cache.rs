//! The decision cache: an append-only log under a set-associative index.
//!
//! A decision is a pure function of `(url, document domain, resource
//! type, sitekey, tenant)` for a fixed engine, so outcomes can be
//! memoized. The tenant — the requester's subscription bitmask — is a
//! first-class key field: two tenants with different masks can get
//! different decisions for byte-identical requests, so a cached
//! decision must never cross a tenant boundary. There is one cache
//! type, [`LocalDecisionCache`], and it takes no lock: each evaluation
//! shard owns one (see [`crate::service::LocalEval`]), and whoever
//! holds the shard holds its cache.
//!
//! What is memoized is the decision and an opaque **payload** of the
//! caller's: the service stores its activations as `(filter id,
//! MatchKind)` records ([`crate::wire::write_payload`]), about 60 bytes
//! of key and payload on natural traffic, and a hit renders the reply
//! from those ids through the same writer as the miss
//! ([`crate::wire::push_decision_ids`]) — no `RequestOutcome` is
//! cloned, dropped or re-encoded. The cache neither reads nor checks a
//! payload; the service's reader does.
//!
//! A request is reduced to a 64-bit digest of its borrowed fields
//! ([`request_key_hash`]) by std's keyed hasher under one per-process
//! `RandomState` — no `String` clones on the read path, and a keyed PRF
//! rather than a seed prefixed to an unkeyed hash, so a hostile client
//! cannot craft colliding requests offline. The digest picks a bucket
//! of the **index** (64 bytes: eight ways, each a 32-bit tag and a
//! 32-bit log position), so a lookup touches one random cache line
//! before the entry itself. Entries live in one preallocated byte ring,
//! the **log**, appended at its head as `header ‖ url ‖ document ‖
//! sitekey ‖ payload`; the header holds the digest, generation, tenant,
//! key lengths, sitekey bit, type and decision. Eviction is free: a way
//! whose entry lies more than the ring's length behind the head has
//! been overwritten and is dead. A bucket keeps its ways in order of
//! use (a hit or an insert moves its way to the front, within the one
//! line), and an insert takes a way holding its tag, else a dead way,
//! else the bucket's least recently used, so a bucket holding more keys
//! than ways gives up one not used for longest, never one just read. A
//! hit on an entry in the older half of the ring copies it to the head,
//! so entries in use outlive the lap (LRU-grade hit rates, no list
//! upkeep).
//!
//! Because 64 bits can still collide, and a way's position can point at
//! an overwritten or aliased entry, nothing in the log is trusted: a
//! hit verifies digest, generation, tenant, type, every length and
//! every key byte, with every offset bounds-checked, so garbage reads
//! as a miss, never a wrong answer and never a panic. A steady-state
//! miss allocates nothing: the ring and the index are sized once.

use abp::{Decision, ResourceType};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// The process's digest keys: one `RandomState`, drawn on first use
/// and shared by every thread, so equal requests digest equally
/// wherever they are evaluated and nobody outside the process can
/// precompute a collision.
fn digest_keys() -> &'static RandomState {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new)
}

/// The 64-bit memoization digest of a request, computed from borrowed
/// fields — no clones, no intermediate key struct.
///
/// Fields are fed to std's keyed hasher (SipHash under the process's
/// `digest_keys`) separated by `0xFF` (a byte that never appears in
/// UTF-8 text) so `("ab", "c")` and `("a", "bc")` digest differently,
/// and the sitekey is prefixed with a present/absent discriminator so
/// `None` differs from `Some("")`. The tenant subscription mask is
/// mixed in as a fixed 8-byte field, so tenants with different masks
/// digest apart by construction. The fixed-width middle of the frame
/// goes in as one write. Stable within a process, deliberately not
/// across processes.
pub fn request_key_hash(
    url: &str,
    document: &str,
    resource_type: ResourceType,
    sitekey: Option<&str>,
    tenant: u64,
) -> u64 {
    let mut h = digest_keys().build_hasher();
    h.write(url.as_bytes());
    h.write(&[0xFF]);
    h.write(document.as_bytes());
    let mut fixed = [0xFF; 13];
    fixed[1] = resource_type as u8;
    fixed[3..11].copy_from_slice(&tenant.to_le_bytes());
    fixed[12] = u8::from(sitekey.is_some());
    h.write(&fixed);
    h.write(sitekey.unwrap_or("").as_bytes());
    h.finish()
}

/// Log bytes per entry of capacity: a capacity of N is an N × 320-byte
/// log. When entries held the encoded reply, key and reply averaged 227
/// bytes over the natural browsing stream's distinct requests, plus the
/// header; with the service's filter-id payloads an entry averages ~106
/// bytes, so N is worth about 3 N such decisions.
pub const BYTES_PER_ENTRY: usize = 320;
/// The largest log: positions are 32-bit and wrap, so a live distance
/// (at most the log's length) plus a clear's jump must stay below 2^32.
const MAX_LOG: usize = 1 << 30;
/// Ways per index bucket: eight `tag << 32 | position` words, one line.
const WAYS: usize = 8;
/// An entry's header bytes: `digest ‖ generation ‖ tenant ‖ url,
/// document, sitekey and outcome lengths (u32 each) ‖ sitekey bit ‖
/// type ‖ decision`.
pub const HEADER: usize = 43;

/// A request's key fields in the order an entry stores them: url,
/// document, sitekey (empty when there is none).
fn key_fields<'a>(url: &'a str, document: &'a str, sitekey: Option<&'a str>) -> [&'a [u8]; 3] {
    [
        url.as_bytes(),
        document.as_bytes(),
        sitekey.unwrap_or("").as_bytes(),
    ]
}

/// The `u64` at `at` in `bytes` (which the caller has bounds-checked).
fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("an 8-byte slice"))
}

/// The `u32` at `at` in `bytes`, widened.
fn len_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("a 4-byte slice")) as usize
}

/// One shard's decision cache: the log and its index, verified against
/// the stored key on every hit. Unsynchronised — the shard's holder is
/// the only one that ever touches it, so a lookup is a plain method
/// call on owned state and the steady-state wire path never takes a
/// lock for it.
///
/// Entries are stamped with the engine **generation** that computed
/// them. A lookup passes the current generation and an entry from any
/// other generation reads as a miss, so a hot-reloaded engine can
/// never serve a decision made by its predecessor. (The owner also
/// [`clear`](LocalDecisionCache::clear)s the cache when it observes a
/// new generation so dead entries don't squat on capacity, but
/// correctness never depends on that sweep.)
pub struct LocalDecisionCache {
    log: Box<[u8]>,
    /// The buckets' ways, `tag << 32 | position`, from `index[skip]` on:
    /// `skip` puts every bucket on a 64-byte line of its own.
    index: Box<[u64]>,
    skip: usize,
    buckets: u64,
    /// Where the next entry goes, as a wrapping 32-bit log position,
    /// and as an offset into `log`.
    head: u32,
    head_at: usize,
}

impl LocalDecisionCache {
    /// A cache for about `capacity` entries: a log of `capacity` ×
    /// [`BYTES_PER_ENTRY`] bytes under `capacity` / 2 buckets of eight
    /// ways, `capacity` held between 16 (so an entry of four times
    /// `BYTES_PER_ENTRY` is still memoized) and what a 1 GiB log holds.
    /// Both are zeroed allocations, so memory the cache never writes is
    /// never touched.
    pub fn new(capacity: usize) -> LocalDecisionCache {
        let capacity = capacity.clamp(16, MAX_LOG / BYTES_PER_ENTRY);
        let buckets = capacity.div_ceil(2);
        let index = vec![0u64; (buckets + 1) * WAYS].into_boxed_slice();
        let skip = index.as_ptr().align_offset(64).min(WAYS);
        let mut cache = LocalDecisionCache {
            log: vec![0; capacity * BYTES_PER_ENTRY].into_boxed_slice(),
            index,
            skip,
            buckets: buckets as u64,
            head: 0,
            head_at: 0,
        };
        cache.clear();
        cache
    }

    /// Where in `index` the bucket of a digest starts, picked by its
    /// low half, and its tag, the high half.
    fn bucket(&self, key_hash: u64) -> (usize, u32) {
        let b = (((key_hash & 0xFFFF_FFFF) * self.buckets) >> 32) as usize;
        (self.skip + b * WAYS, (key_hash >> 32) as u32)
    }

    /// How far behind the head a way's entry starts, if it is intact.
    fn live(&self, way: u64) -> Option<usize> {
        let behind = self.head.wrapping_sub(way as u32) as usize;
        (1..=self.log.len()).contains(&behind).then_some(behind)
    }

    /// The log offset of the entry `behind` bytes behind the head.
    fn offset(&self, behind: usize) -> usize {
        match self.head_at.checked_sub(behind) {
            Some(at) => at,
            None => self.head_at + self.log.len() - behind,
        }
    }

    /// Claim `len` contiguous log bytes at the head, skipping to the
    /// start when they would straddle the end: their position and offset.
    fn append(&mut self, len: usize) -> (u32, usize) {
        if self.head_at + len > self.log.len() {
            self.head = self
                .head
                .wrapping_add((self.log.len() - self.head_at) as u32);
            self.head_at = 0;
        }
        let at = (self.head, self.head_at);
        self.head = self.head.wrapping_add(len as u32);
        self.head_at += len;
        at
    }

    /// Look up a decision by digest and hand back its decision and
    /// payload. The borrowed request fields — tenant mask
    /// included — are checked against the stored key, every length and
    /// every byte, so a digest collision reads as a miss, never a wrong
    /// answer (and never another tenant's answer) — and the entry's
    /// generation must equal `generation`, so a decision made by a
    /// pre-reload engine reads as a miss too. A hit in the older half of
    /// the log is first copied to the head.
    #[allow(clippy::too_many_arguments)]
    pub fn get(
        &mut self,
        key_hash: u64,
        generation: u64,
        url: &str,
        document: &str,
        resource_type: ResourceType,
        sitekey: Option<&str>,
        tenant: u64,
    ) -> Option<(Decision, &[u8])> {
        let (bucket, tag) = self.bucket(key_hash);
        let ways = &self.index[bucket..bucket + WAYS];
        let way = bucket + ways.iter().position(|&w| (w >> 32) as u32 == tag)?;
        let mut word = self.index[way];
        let behind = self.live(word)?;
        let mut at = self.offset(behind);
        let e = self.log.get(at..at + HEADER)?;
        let key = key_fields(url, document, sitekey);
        let lens = [24, 28, 32].map(|i| len_at(e, i));
        if u64_at(e, 0) != key_hash
            || u64_at(e, 8) != generation
            || u64_at(e, 16) != tenant
            || lens != key.map(<[u8]>::len)
            || e[40] != u8::from(sitekey.is_some())
            || e[41] != resource_type as u8
        {
            return None;
        }
        let decision = match e[42] {
            0 => Decision::NoMatch,
            1 => Decision::Block,
            2 => Decision::AllowedByException,
            _ => return None,
        };
        let outcome_len = len_at(e, 36);
        let len = HEADER + lens.iter().sum::<usize>() + outcome_len;
        let mut rest = self
            .log
            .get(at + HEADER..at + len)
            .filter(|_| len <= behind)?;
        for field in key {
            let (stored, after) = rest.split_at(field.len());
            if stored != field {
                return None;
            }
            rest = after;
        }
        if behind > self.log.len() / 2 {
            let (position, to) = self.append(len);
            self.log.copy_within(at..at + len, to);
            word = u64::from(tag) << 32 | u64::from(position);
            at = to;
        }
        self.use_first(bucket, way, word);
        Some((decision, &self.log[at + len - outcome_len..at + len]))
    }

    /// Memoize a decision and its payload under its digest,
    /// stamped with the engine generation that computed it. An entry
    /// longer than a quarter of the log is not memoized.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        key_hash: u64,
        generation: u64,
        url: &str,
        document: &str,
        resource_type: ResourceType,
        sitekey: Option<&str>,
        tenant: u64,
        decision: Decision,
        outcome: &[u8],
    ) {
        let key = key_fields(url, document, sitekey);
        let len = HEADER + key.iter().map(|f| f.len()).sum::<usize>() + outcome.len();
        if len > self.log.len() / 4 {
            return;
        }
        let (position, at) = self.append(len);
        let e = &mut self.log[at..at + len];
        e[..8].copy_from_slice(&key_hash.to_le_bytes());
        e[8..16].copy_from_slice(&generation.to_le_bytes());
        e[16..24].copy_from_slice(&tenant.to_le_bytes());
        for (i, field) in [key[0], key[1], key[2], outcome].iter().enumerate() {
            e[24 + 4 * i..28 + 4 * i].copy_from_slice(&(field.len() as u32).to_le_bytes());
        }
        e[40..HEADER].copy_from_slice(&[
            u8::from(sitekey.is_some()),
            resource_type as u8,
            decision as u8,
        ]);
        let mut to = HEADER;
        for field in [key[0], key[1], key[2], outcome] {
            e[to..to + field.len()].copy_from_slice(field);
            to += field.len();
        }
        // A way holding this tag, else a dead way, else the bucket's
        // least recently used.
        let (bucket, tag) = self.bucket(key_hash);
        let ways = &self.index[bucket..bucket + WAYS];
        let way = ways
            .iter()
            .position(|&w| (w >> 32) as u32 == tag)
            .or_else(|| ways.iter().position(|&w| self.live(w).is_none()))
            .unwrap_or(WAYS - 1);
        self.use_first(
            bucket,
            bucket + way,
            u64::from(tag) << 32 | u64::from(position),
        );
    }

    /// Put `word` in the bucket's first way, shifting the ways ahead of
    /// `way` (which it replaces) back by one: a bucket keeps its ways in
    /// order of use, so its last is its least recently used.
    fn use_first(&mut self, bucket: usize, way: usize, word: u64) {
        self.index[bucket..=way].rotate_right(1);
        self.index[bucket] = word;
    }

    /// Drop every entry (on generation change, so superseded decisions
    /// don't squat on capacity). Nothing is written: the head jumps more
    /// than a log's length, so every way is dead.
    pub fn clear(&mut self) {
        self.head = self.head.wrapping_add(self.log.len() as u32 + 1);
    }

    /// Entries currently cached: the live ways (a scan of the index).
    pub fn len(&self) -> usize {
        let ways = &self.index[self.skip..self.skip + self.buckets as usize * WAYS];
        ways.iter().filter(|&&w| self.live(w).is_some()).count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecisionRequest;

    /// The union tenant (every subscription bit set): what legacy
    /// clients without a `tenant` field resolve to.
    const ALL: u64 = u64::MAX;

    #[test]
    fn key_hash_separates_fields() {
        let rt = ResourceType::Script;
        // Field-boundary shifts must not collide.
        assert_ne!(
            request_key_hash("ab", "c", rt, None, ALL),
            request_key_hash("a", "bc", rt, None, ALL)
        );
        // None vs Some("") must not collide.
        assert_ne!(
            request_key_hash("u", "d", rt, None, ALL),
            request_key_hash("u", "d", rt, Some(""), ALL)
        );
        // Resource type participates.
        assert_ne!(
            request_key_hash("u", "d", ResourceType::Script, None, ALL),
            request_key_hash("u", "d", ResourceType::Image, None, ALL)
        );
        // The tenant mask participates: distinct configs digest apart.
        assert_ne!(
            request_key_hash("u", "d", rt, None, 0b01),
            request_key_hash("u", "d", rt, None, 0b11)
        );
        // Deterministic.
        assert_eq!(
            request_key_hash("u", "d", rt, Some("k"), ALL),
            request_key_hash("u", "d", rt, Some("k"), ALL)
        );
    }

    /// `request_key_hash` is a free function any shard may call, so the
    /// keys are the process's, not the caller's: two threads digest
    /// equal fields equally (a key per call or per thread would turn
    /// every lookup into a miss).
    #[test]
    fn digest_keys_are_per_process_not_per_thread() {
        let digest =
            || request_key_hash("http://u.example/a", "d", ResourceType::Image, Some("k"), 5);
        let here = digest();
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(digest);
            let b = s.spawn(digest);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!((a, b), (here, here));
    }

    /// The `serve-cold` generator shape — the first 262,144 distinct
    /// requests of the browsing stream, each stamped with a mask from
    /// the tenant population — digests without a single collision. The
    /// index files an entry under its digest: a colliding pair would
    /// take each other's way forever and read as a permanent miss.
    #[test]
    fn cold_set_digests_are_all_distinct() {
        use std::collections::HashSet;
        const COLD: usize = 262_144;
        let masks = websim::traffic::TenantPopulation::new(7, 1_000_000);
        let mut seen = HashSet::with_capacity(COLD);
        let mut digests = HashSet::with_capacity(COLD);
        for sample in websim::traffic::TrafficGen::new(7).samples() {
            let r = crate::request_of_sample(&sample);
            if !seen.insert((r.url.clone(), r.document.clone(), r.resource_type)) {
                continue;
            }
            let tenant = masks.mask_for(seen.len() as u64 - 1);
            digests.insert(request_key_hash(
                &r.url,
                &r.document,
                r.resource_type,
                None,
                tenant,
            ));
            if seen.len() == COLD {
                break;
            }
        }
        assert_eq!(seen.len(), COLD);
        assert_eq!(digests.len(), COLD, "two cold-set requests share a digest");
    }

    /// A cached `Block`'s payload: any bytes will do (the cache does not
    /// read them), so the reply bytes an older format stored.
    const BLOCK: &[u8] = br#"{"decision":"Block","activations":[]}"#;
    const HIT: Option<(Decision, &[u8])> = Some((Decision::Block, BLOCK));
    /// The one digest every key below is filed under, as if they all
    /// collided: whether a lookup hits is the verify's call alone.
    const H: u64 = 0x5eed;

    type Key<'a> = (&'a str, &'a str, Option<&'a str>, u64);

    /// A cache holding `key` (a `Script` request) as a generation-0
    /// `Block` under [`H`].
    fn holding((url, document, sitekey, tenant): Key<'_>) -> LocalDecisionCache {
        let mut cache = LocalDecisionCache::new(8);
        let rt = ResourceType::Script;
        cache.insert(
            H,
            0,
            url,
            document,
            rt,
            sitekey,
            tenant,
            Decision::Block,
            BLOCK,
        );
        cache
    }

    fn probe<'c>(
        cache: &'c mut LocalDecisionCache,
        (url, document, sitekey, tenant): Key<'_>,
    ) -> Option<(Decision, &'c [u8])> {
        cache.get(H, 0, url, document, ResourceType::Script, sitekey, tenant)
    }

    #[test]
    fn stored_key_verifies_fields() {
        let key = ("u", "d", Some("sk"), ALL);
        let mut cache = holding(key);
        assert_eq!(probe(&mut cache, key), HIT);
        for other in [
            ("x", "d", Some("sk"), ALL),
            ("u", "x", Some("sk"), ALL),
            ("u", "d", Some("sx"), ALL),
            ("u", "d", None, ALL),
            ("u", "d", Some("sk"), 0b1),
        ] {
            assert_eq!(probe(&mut cache, other), None, "{other:?}");
        }
        assert_eq!(
            cache.get(H, 0, "u", "d", ResourceType::Image, Some("sk"), ALL),
            None
        );
    }

    /// The key is one run of bytes, `url ‖ document ‖ sitekey`, with
    /// the answer right behind it: keys whose bytes run together the
    /// same way must still miss each other, by their lengths.
    #[test]
    fn boundary_shifts_under_one_digest_read_as_miss() {
        for (stored, shifted) in [
            (("ab", "c", None, ALL), ("a", "bc", None, ALL)),
            (("a", "bc", None, ALL), ("ab", "c", None, ALL)),
            // url/document against document/sitekey, all "abck".
            (("ab", "c", Some("k"), ALL), ("a", "bc", Some("k"), ALL)),
            (("ab", "c", Some("k"), ALL), ("ab", "ck", Some(""), ALL)),
            (("ab", "ck", Some(""), ALL), ("ab", "c", Some("k"), ALL)),
            (("ab", "c", Some("k"), ALL), ("abc", "", Some("k"), ALL)),
            (("u", "d", None, ALL), ("u", "d", Some(""), ALL)),
            (("u", "d", Some(""), ALL), ("u", "d", None, ALL)),
            // A sitekey that would run on into the stored answer.
            (("u", "d", Some("k"), ALL), ("u", "d", Some("k{"), ALL)),
        ] {
            let mut cache = holding(stored);
            assert_eq!(
                probe(&mut cache, shifted),
                None,
                "{stored:?} vs {shifted:?}"
            );
            assert_eq!(probe(&mut cache, stored), HIT, "{stored:?}");
        }
    }

    #[test]
    fn colliding_digest_reads_as_miss() {
        let mut cache = holding(("u", "d", None, ALL));
        // Same digest, different request fields: must miss, not lie.
        assert_eq!(probe(&mut cache, ("other", "d", None, ALL)), None);
        assert_eq!(probe(&mut cache, ("u", "d", None, ALL)), HIT);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cross_tenant_digest_collision_reads_as_miss() {
        // The poisoning scenario the tenant-aware key exists to kill:
        // tenant A's decision is cached, and tenant B's lookup arrives
        // with the *same 64-bit digest* (every key here is filed under
        // `H` — a genuine collision is just this, minus the
        // astronomically unlikely hash step). B must miss on the
        // full-key verify; a cached decision can never cross configs.
        let tenant_a = 0b01u64; // EasyList only
        let tenant_b = 0b11u64; // EasyList + Acceptable Ads
        let mut cache = holding(("u", "d", None, tenant_a));
        // Identical request fields, identical digest, different tenant:
        // must read as a miss, not as tenant A's Block.
        assert_eq!(probe(&mut cache, ("u", "d", None, tenant_b)), None);
        assert_eq!(probe(&mut cache, ("u", "d", None, tenant_a)), HIT);
    }

    #[test]
    fn stale_generation_reads_as_miss() {
        let mut cache = LocalDecisionCache::new(8);
        let rt = ResourceType::Script;
        cache.insert(H, 1, "u", "d", rt, None, ALL, Decision::Block, BLOCK);
        // Wrong generation: a decision from engine generation 1 must
        // never answer a generation-2 lookup.
        assert_eq!(cache.get(H, 2, "u", "d", rt, None, ALL), None);
        assert_eq!(cache.get(H, 1, "u", "d", rt, None, ALL), HIT);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get(H, 1, "u", "d", rt, None, ALL), None);
    }

    // The log and its index. Below, `LocalDecisionCache::new(16)`, the
    // smallest, is a 5,120-byte log under eight buckets, and a `put`
    // entry is `PUT` (83) bytes, so 61 fit. `key(i)` is a digest with
    // tag `i` in bucket `i % 8`: consecutive keys take the buckets in
    // turn and never overflow one before the log wraps.

    /// A `put` entry's length: header, `u0`, `d` and `BLOCK`.
    const PUT: usize = HEADER + 2 + 1 + BLOCK.len();

    fn key(i: u64) -> u64 {
        (i << 32) | ((i % 8) << 29)
    }

    fn put(cache: &mut LocalDecisionCache, i: u64, outcome: &[u8]) {
        let rt = ResourceType::Script;
        let url = format!("u{}", i % 10);
        cache.insert(
            key(i),
            0,
            &url,
            "d",
            rt,
            None,
            ALL,
            Decision::Block,
            outcome,
        );
    }

    fn has(cache: &mut LocalDecisionCache, i: u64) -> bool {
        let url = format!("u{}", i % 10);
        let got = cache.get(key(i), 0, &url, "d", ResourceType::Script, None, ALL);
        got.is_some()
    }

    #[test]
    fn eviction_is_oldest_first() {
        let mut cache = LocalDecisionCache::new(16);
        assert_eq!(cache.log.len(), 16 * BYTES_PER_ENTRY);
        for i in 0..160 {
            put(&mut cache, i, BLOCK);
        }
        // Oldest first, so a hit's promotion only ever overwrites keys
        // already read.
        let hits: Vec<bool> = (0..160).map(|i| has(&mut cache, i)).collect();
        let first = hits.iter().position(|&h| h).unwrap();
        assert!(hits[first..].iter().all(|&h| h), "{hits:?}");
        assert_eq!(160 - first, 5_120 / PUT, "{hits:?}");
    }

    #[test]
    fn overwrite_promotes_without_evicting() {
        let mut cache = LocalDecisionCache::new(16);
        put(&mut cache, 0, BLOCK);
        put(&mut cache, 2, BLOCK);
        let other = br#"{"decision":"Block","activations":[{}]}"#;
        put(&mut cache, 0, other);
        assert_eq!(cache.len(), 2, "the same key keeps its one way");
        let url = "u0";
        let got = cache.get(key(0), 0, url, "d", ResourceType::Script, None, ALL);
        assert_eq!(got, Some((Decision::Block, &other[..])));
        assert!(has(&mut cache, 2));
    }

    #[test]
    fn get_miss_does_not_disturb_order() {
        let mut cache = LocalDecisionCache::new(16);
        put(&mut cache, 0, BLOCK);
        put(&mut cache, 1, BLOCK);
        let (head, index) = (cache.head, cache.index.clone());
        assert!(!has(&mut cache, 3));
        assert_eq!((cache.head, &cache.index), (head, &index));
        assert!(has(&mut cache, 0) && has(&mut cache, 1));
    }

    /// A hit in the older half of the log is copied to the head, so it
    /// outlives the lap that overwrites where it was; one in the younger
    /// half stays where it is.
    #[test]
    fn hits_in_the_older_half_move_to_the_head() {
        let fill = |cache: &mut LocalDecisionCache, from: u64, n: u64| {
            for i in from..from + n {
                put(cache, i, BLOCK);
            }
        };
        for touched in [false, true] {
            let mut cache = LocalDecisionCache::new(16);
            fill(&mut cache, 0, 16);
            let head = cache.head;
            assert!(has(&mut cache, 0), "young: a hit");
            assert_eq!(cache.head, head, "young: not moved");
            fill(&mut cache, 16, 20);
            if touched {
                let head = cache.head;
                assert!(has(&mut cache, 0));
                assert_eq!(
                    cache.head,
                    head.wrapping_add(PUT as u32),
                    "old: copied to the head"
                );
            }
            fill(&mut cache, 36, 32);
            assert_eq!(has(&mut cache, 0), touched);
        }
    }

    /// Nine keys in one bucket: the ninth takes the oldest way by use —
    /// the oldest insert, unless a hit has used it since.
    #[test]
    fn a_full_bucket_gives_up_its_oldest_way() {
        let rt = ResourceType::Script;
        let same_bucket = |i: u64| (i + 1) << 32;
        let url = |i: u64| format!("u{i}");
        for hit_first in [false, true] {
            let mut cache = LocalDecisionCache::new(1_024);
            let insert = |cache: &mut LocalDecisionCache, i: u64| {
                let url = url(i);
                cache.insert(
                    same_bucket(i),
                    0,
                    &url,
                    "d",
                    rt,
                    None,
                    ALL,
                    Decision::Block,
                    BLOCK,
                );
            };
            let has = |cache: &mut LocalDecisionCache, i: u64| {
                let url = url(i);
                let got = cache.get(same_bucket(i), 0, &url, "d", rt, None, ALL);
                got.is_some()
            };
            for i in 0..8 {
                insert(&mut cache, i);
            }
            if hit_first {
                assert!(has(&mut cache, 0));
            }
            insert(&mut cache, 8);
            let evicted = u64::from(hit_first);
            for i in 0..9 {
                assert_eq!(
                    has(&mut cache, i),
                    i != evicted,
                    "key {i}, hit first {hit_first}"
                );
            }
        }
    }

    #[test]
    fn entries_over_a_quarter_of_the_log_are_not_memoized() {
        let mut cache = LocalDecisionCache::new(16);
        put(&mut cache, 0, BLOCK);
        let head = cache.head;
        let big = vec![b' '; 5_120 / 4 - HEADER - 3 + 1];
        put(&mut cache, 1, &big);
        assert_eq!(cache.head, head, "nothing appended");
        assert!(!has(&mut cache, 1));
        assert!(has(&mut cache, 0));
        put(&mut cache, 1, &big[1..]);
        assert!(has(&mut cache, 1), "a quarter exactly is memoized");
        // The smallest cache, whatever the capacity asked for, still
        // keeps an entry of four times `BYTES_PER_ENTRY`.
        let mut tiny = LocalDecisionCache::new(1);
        assert_eq!(tiny.log.len(), cache.log.len());
        put(&mut tiny, 0, &big[..4 * BYTES_PER_ENTRY - HEADER - 3]);
        assert!(has(&mut tiny, 0));
    }

    /// An entry that would run past the log's end starts at offset 0;
    /// the bytes it skipped hold only a lap-old entry, now dead.
    #[test]
    fn an_entry_that_would_straddle_the_end_starts_over_at_the_beginning() {
        let mut cache = LocalDecisionCache::new(16);
        for i in 0..61 {
            put(&mut cache, i, BLOCK);
        }
        assert_eq!(cache.head_at, 61 * PUT);
        put(&mut cache, 61, BLOCK);
        assert_eq!(cache.head_at, PUT, "padded to the start");
        assert!(has(&mut cache, 61));
        assert!(!has(&mut cache, 0), "overwritten");
        assert!((2..61).all(|i| has(&mut cache, i)));
        // The entry `key(1)` held, beyond the first `PUT` bytes, is intact,
        // but the padding took the head a lap past it.
        assert_eq!(cache.len(), 60);
    }

    /// Ways whose positions point into the middle of an entry, at
    /// another key's entry, past the head, or into random bytes — and
    /// headers whose lengths run past the log — all read as misses.
    #[test]
    fn garbage_reads_as_a_miss_never_a_panic() {
        let mut cache = LocalDecisionCache::new(16);
        put(&mut cache, 0, BLOCK);
        put(&mut cache, 1, BLOCK);
        let (bucket, tag) = cache.bucket(key(0));
        let way = (bucket..bucket + WAYS)
            .find(|&w| (cache.index[w] >> 32) as u32 == tag)
            .expect("key 0 has a way");
        let at = |pos: u32| u64::from(tag) << 32 | u64::from(pos);
        let start = cache.index[way] as u32;
        let past_head = cache.head.wrapping_add(7);
        for pos in [
            start + 10,
            start + PUT as u32,
            start + 1,
            cache.head,
            past_head,
            0,
        ] {
            cache.index[way] = at(pos);
            assert!(!has(&mut cache, 0), "position {pos}");
        }
        cache.index[way] = at(start);
        assert!(has(&mut cache, 0));
        // A header whose outcome length runs past the log, or by one
        // byte past the head (key 1's entry follows key 0's).
        let behind = cache.head.wrapping_sub(start) as usize;
        let outcome_len = 36 + cache.offset(behind);
        let one_past_head = (behind - (HEADER + 3) + 1) as u32;
        for len in [u32::MAX, 5_121, one_past_head] {
            cache.log[outcome_len..outcome_len + 4].copy_from_slice(&len.to_le_bytes());
            assert!(!has(&mut cache, 0), "outcome length {len}");
        }
        // Random log bytes under random ways, every way carrying the
        // probe's tag: misses, and the cache still works after.
        let mut rng = 0x5eedu64;
        for _ in 0..2_000 {
            rng = crate::faults::splitmix64(rng);
            let i = (rng % cache.log.len() as u64) as usize;
            cache.log[i] = rng as u8;
            let w = cache.skip + (rng >> 8) as usize % (cache.buckets as usize * WAYS);
            cache.index[w] = at((rng >> 32) as u32 % 5_600);
            assert!(!has(&mut cache, 0));
        }
        put(&mut cache, 0, BLOCK);
        assert!(has(&mut cache, 0));
    }

    /// A capacity from the command line past what a 1 GiB log holds is
    /// held to that: the index stays in step with the log, and a bucket
    /// pick cannot overflow.
    #[test]
    fn a_capacity_past_the_log_limit_is_held_to_it() {
        let mut cache = LocalDecisionCache::new(usize::MAX);
        let capacity = MAX_LOG / BYTES_PER_ENTRY;
        assert_eq!(cache.log.len(), capacity * BYTES_PER_ENTRY);
        assert_eq!(cache.buckets as usize, capacity.div_ceil(2));
        put(&mut cache, u64::from(u32::MAX), BLOCK);
        assert!(has(&mut cache, u64::from(u32::MAX)));
    }

    /// A generation change clears in O(1): nothing is written, every
    /// way is dead, and the cache fills again from there.
    #[test]
    fn clear_on_a_generation_change_kills_every_way() {
        let mut cache = LocalDecisionCache::new(16);
        for i in 0..10 {
            put(&mut cache, i, BLOCK);
        }
        assert_eq!(cache.len(), 10);
        let (log, index) = (cache.log.clone(), cache.index.clone());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((&cache.log, &cache.index), (&log, &index));
        assert!((0..10).all(|i| !has(&mut cache, i)));
        for i in 0..3 {
            put(&mut cache, i, BLOCK);
        }
        assert!((0..3).all(|i| has(&mut cache, i)));
        assert_eq!(cache.len(), 3);
    }

    /// An exact LRU over keys, by entry count: the reference policy.
    struct Lru {
        cap: usize,
        stamp: u64,
        last_use: std::collections::HashMap<u64, u64>,
        by_age: std::collections::BTreeMap<u64, u64>,
    }

    impl Lru {
        /// Whether `key` was cached; it is the most recent entry after.
        fn touch(&mut self, key: u64) -> bool {
            self.stamp += 1;
            let hit = match self.last_use.insert(key, self.stamp) {
                Some(old) => self.by_age.remove(&old).is_some(),
                None => false,
            };
            self.by_age.insert(self.stamp, key);
            if self.by_age.len() > self.cap {
                let (_, oldest) = self.by_age.pop_first().expect("over capacity");
                self.last_use.remove(&oldest);
            }
            hit
        }
    }

    /// What a replayed request memoizes on a miss: its decision and
    /// payload.
    type Entry = (Decision, Vec<u8>);

    /// The natural stream's length: 1,563 batches of 256.
    const NATURAL_LEN: usize = 1_563 * 256;

    /// The natural browsing stream (the `fleet-replay` workload's 400,128
    /// requests, seed 7), spatially sampled to fit a debug test run: only
    /// the requests whose key falls in one `sample`th of a fixed hash
    /// space, each with that key (spatial sampling, as SHARDS does for
    /// miss-ratio curves: a key's reuse distance among the sampled keys
    /// is its full distance over the sampling rate, so a cache of
    /// capacity / `sample` sees the stream as a full one does). Beside
    /// it, each distinct key's entry, made once by `make`.
    fn sampled_natural_stream(
        sample: u64,
        mut make: impl FnMut(&DecisionRequest) -> Entry,
    ) -> (
        Vec<(u64, DecisionRequest)>,
        std::collections::HashMap<u64, Entry>,
    ) {
        use std::hash::{DefaultHasher, Hash};
        let mut sampled = Vec::new();
        let mut entries = std::collections::HashMap::new();
        for s in websim::traffic::TrafficGen::new(7)
            .samples()
            .take(NATURAL_LEN)
        {
            let r = crate::request_of_sample(&s);
            let mut h = DefaultHasher::new();
            (&r.url, &r.document, r.resource_type as u8).hash(&mut h);
            let id = h.finish();
            if id.is_multiple_of(sample) {
                entries.entry(id).or_insert_with(|| make(&r));
                sampled.push((id, r));
            }
        }
        (sampled, entries)
    }

    /// Look `r` up in `cache`, memoizing `entry` on a miss: whether it hit.
    fn replay(cache: &mut LocalDecisionCache, r: &DecisionRequest, entry: &Entry) -> bool {
        let (url, doc, rt) = (&r.url, &r.document, r.resource_type);
        let digest = request_key_hash(url, doc, rt, None, ALL);
        let hit = cache.get(digest, 0, url, doc, rt, None, ALL).is_some();
        if !hit {
            let (decision, payload) = entry;
            cache.insert(digest, 0, url, doc, rt, None, ALL, *decision, payload);
        }
        hit
    }

    /// The promotion policy on real traffic: the natural stream, sampled
    /// 1 in 8, replayed twice through an exact LRU and through the cache,
    /// at the default capacity and at a half and an eighth of it. The
    /// second pass's hit share must agree within 0.03: lazy promotion
    /// keeps LRU-grade hit rates. The payloads are the encoded replies
    /// (`{"decision":…,"activations":[…]}`), about 171 bytes on this
    /// stream, so an entry is as long as one holding its reply and the
    /// log holds about as many entries as the LRU does; the service's
    /// own payloads, a few filter ids, are what
    /// [`service_payloads_hold_the_natural_stream`] replays.
    #[test]
    fn natural_traffic_hit_share_is_within_0_03_of_lru() {
        const SAMPLE: u64 = 8;
        let engine = crate::corpus_engine(7);
        let (sampled, entries) = sampled_natural_stream(SAMPLE, |r| {
            let req = abp::Request::new(&r.url, &r.document, r.resource_type).unwrap();
            let got = engine.match_request(&req);
            let mut element = Vec::new();
            let span = crate::wire::push_decision(&mut element, &got, false);
            (got.decision, element[span].to_vec())
        });
        for capacity in [65_536, 32_768, 8_192] {
            let cap = capacity / SAMPLE as usize;
            let mut lru = Lru {
                cap,
                stamp: 0,
                last_use: Default::default(),
                by_age: Default::default(),
            };
            let mut cache = LocalDecisionCache::new(cap);
            let (mut lru_hits, mut hits) = (0, 0);
            for pass in 0..2 {
                for (id, r) in &sampled {
                    let lru_hit = lru.touch(*id);
                    let hit = replay(&mut cache, r, &entries[id]);
                    if pass == 1 {
                        lru_hits += usize::from(lru_hit);
                        hits += usize::from(hit);
                    }
                }
            }
            let share = |n: usize| n as f64 / sampled.len() as f64;
            let (lru_share, share) = (share(lru_hits), share(hits));
            eprintln!(
                "capacity {capacity}: {} of {NATURAL_LEN} requests sampled, LRU {lru_share:.3}, cache {share:.3}",
                sampled.len(),
            );
            assert!(
                (share - lru_share).abs() <= 0.03,
                "capacity {capacity}: cache {share:.3} vs LRU {lru_share:.3}"
            );
        }
    }

    /// Second-pass hit shares of the natural stream, sampled 1 in
    /// `sample` (as in [`natural_traffic_hit_share_is_within_0_03_of_lru`],
    /// on the lists `fleet-replay`'s daemons serve) with the payloads the
    /// service memoizes: one shard at the default capacity, and the key
    /// space split in two halves, each through a default-capacity shard
    /// of its own (`fleet-replay`'s two daemons).
    fn natural_hit_shares_with_service_payloads(sample: u64) -> (f64, f64) {
        const CAPACITY: usize = 65_536;
        let engine = crate::corpus_engine(2015);
        let (mut matched, mut entry_bytes) = (Vec::new(), 0);
        let (sampled, entries) = sampled_natural_stream(sample, |r| {
            let req = abp::Request::new(&r.url, &r.document, r.resource_type).unwrap();
            let decision = engine.match_request_ids(&req, ALL, &mut matched);
            let mut payload = Vec::new();
            assert!(crate::wire::write_payload(
                &matched,
                req.url.as_str(),
                &r.url,
                &mut payload
            ));
            entry_bytes += HEADER + r.url.len() + r.document.len() + payload.len();
            (decision, payload)
        });
        let cap = CAPACITY / sample as usize;
        let mut one = LocalDecisionCache::new(cap);
        let mut halves = [LocalDecisionCache::new(cap), LocalDecisionCache::new(cap)];
        let (mut one_hits, mut halves_hits) = (0, 0);
        for pass in 0..2 {
            for (id, r) in &sampled {
                let half = &mut halves[(id / sample % 2) as usize];
                for (cache, hits) in [(&mut one, &mut one_hits), (half, &mut halves_hits)] {
                    let hit = replay(cache, r, &entries[id]);
                    if pass == 1 {
                        *hits += usize::from(hit);
                    }
                }
            }
        }
        let share = |n: usize| n as f64 / sampled.len() as f64;
        eprintln!(
            "1 in {sample}: {} of {NATURAL_LEN} requests, {} distinct, entries {:.1} B; \
             one shard {:.3}, two halves {:.3}",
            sampled.len(),
            entries.len(),
            entry_bytes as f64 / entries.len() as f64,
            share(one_hits),
            share(halves_hits)
        );
        (share(one_hits), share(halves_hits))
    }

    /// A log entry keeps filter ids, not the reply's JSON, so the default
    /// log holds the natural stream's working set: a shard sees ≥ 0.90 of
    /// the second pass as hits, and each of two shards holding half the
    /// key space ≥ 0.98. (Entries holding encoded replies read 0.562 and
    /// 0.701.)
    #[test]
    fn service_payloads_hold_the_natural_stream() {
        let (one, halves) = natural_hit_shares_with_service_payloads(8);
        assert!(one >= 0.90, "one shard: {one:.3}");
        assert!(halves >= 0.98, "two halves: {halves:.3}");
    }

    /// [`service_payloads_hold_the_natural_stream`] on every request of
    /// the stream; `scripts/ci.sh` runs it in release.
    #[test]
    #[ignore = "unsampled; run in release: cargo test --release -p abpd --lib -- --ignored"]
    fn service_payloads_hold_the_natural_stream_unsampled() {
        let (one, halves) = natural_hit_shares_with_service_payloads(1);
        assert!(one >= 0.90, "one shard: {one:.3}");
        assert!(halves >= 0.98, "two halves: {halves:.3}");
    }
}
