//! The LRU decision cache.
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
//! What is memoized is the answer **as wire bytes**: the outcome
//! encoded once, on the miss, exactly as [`crate::wire`] writes it
//! (`{"decision":…,"activations":[…]}`), so a hit is a verify and a
//! copy — no `RequestOutcome` is cloned, dropped or re-encoded.
//!
//! Lookups are allocation-free: a request is reduced to a 64-bit
//! digest of its borrowed fields ([`request_key_hash`]) by std's keyed
//! hasher under one per-process `RandomState` — no `String` clones on
//! the read path, eight bytes a round, and a keyed PRF rather than a
//! seed prefixed to an unkeyed hash, so a hostile client cannot craft
//! colliding requests offline. Because 64 bits can still collide, each
//! entry keeps the full key in the same single allocation as its
//! answer — `url ‖ document ‖ sitekey ‖ encoded outcome`, with the
//! three key lengths beside it — and a hit verifies generation, tenant,
//! type, every length and every byte before the answer is trusted; a
//! colliding digest is just a miss.

use abp::{Decision, ResourceType};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::sync::OnceLock;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, the same function `abp::engine` uses for token hashing:
/// the LRU's index hasher over the precomputed 8-byte request digests
/// (which are already keyed, so the index needs no second key).
#[derive(Debug, Clone, Default)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        if self.0 == 0 {
            FNV_OFFSET
        } else {
            self.0
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// `BuildHasher` plugging [`FnvHasher`] into `HashMap`.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

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

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A classic doubly-linked-list LRU: `get` promotes to most-recent,
/// `insert` evicts the least-recent entry once at capacity. O(1) for
/// both, no allocation after the slab fills. The index hasher is
/// pluggable; the decision cache uses FNV over its precomputed u64
/// digests instead of the default SipHash.
pub struct LruCache<K: Eq + Hash + Clone, V, S: std::hash::BuildHasher + Default = RandomState> {
    map: HashMap<K, usize, S>,
    slots: Vec<Slot<K, V>>,
    head: usize,
    tail: usize,
    cap: usize,
}

impl<K: Eq + Hash + Clone, V, S: std::hash::BuildHasher + Default> LruCache<K, V, S> {
    /// A cache holding at most `cap` entries (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        LruCache {
            map: HashMap::with_capacity_and_hasher(cap, S::default()),
            slots: Vec::with_capacity(cap),
            head: NIL,
            tail: NIL,
            cap,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    /// Look up a key, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(&self.slots[i].value)
    }

    /// Insert (or overwrite) a key as most-recently-used. Returns the
    /// evicted least-recently-used entry when the insert overflowed
    /// capacity.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return None;
        }
        if self.map.len() < self.cap {
            let i = self.slots.len();
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, i);
            self.push_front(i);
            return None;
        }
        // Full: recycle the LRU slot in place.
        let i = self.tail;
        self.unlink(i);
        let evicted_key = std::mem::replace(&mut self.slots[i].key, key.clone());
        let evicted_value = std::mem::replace(&mut self.slots[i].value, value);
        self.map.remove(&evicted_key);
        self.map.insert(key, i);
        self.push_front(i);
        Some((evicted_key, evicted_value))
    }

    /// The least-recently-used key (next eviction victim), if any.
    pub fn lru_key(&self) -> Option<&K> {
        match self.tail {
            NIL => None,
            t => Some(&self.slots[t].key),
        }
    }
}

/// A request's key fields in the order an entry stores them: url,
/// document, sitekey (empty when there is none).
fn key_fields<'a>(url: &'a str, document: &'a str, sitekey: Option<&'a str>) -> [&'a [u8]; 3] {
    [
        url.as_bytes(),
        document.as_bytes(),
        sitekey.unwrap_or("").as_bytes(),
    ]
}

/// One cached decision in one exact-capacity allocation, `url ‖
/// document ‖ sitekey ‖ encoded outcome`, beside what is not bytes: the
/// engine generation that produced it, the rest of the key, the
/// decision, and the three key lengths that split `bytes`.
struct Entry {
    bytes: Box<[u8]>,
    generation: u64,
    /// The requester's subscription bitmask. Verified on every hit:
    /// even a full 64-bit digest collision between two tenants reads
    /// as a miss, so a decision can never leak across configurations.
    tenant: u64,
    key_lens: [u32; 3],
    /// Tells `None` from `Some("")`, which have the same bytes.
    has_sitekey: bool,
    resource_type: ResourceType,
    decision: Decision,
}

/// One shard's decision cache: an LRU indexed by the precomputed
/// request digest and verified against the stored key on every hit.
/// Unsynchronised — the shard's holder is the only one that ever
/// touches it, so a lookup is a plain method call on owned state and
/// the steady-state wire path never takes a lock for it.
///
/// Entries are stamped with the engine **generation** that computed
/// them. A lookup passes the current generation and an entry from any
/// other generation reads as a miss, so a hot-reloaded engine can
/// never serve a decision made by its predecessor. (The owner also
/// [`clear`](LocalDecisionCache::clear)s the cache when it observes a
/// new generation so dead entries don't squat on capacity, but
/// correctness never depends on that sweep.)
pub struct LocalDecisionCache {
    lru: LruCache<u64, Entry, FnvBuildHasher>,
    cap: usize,
}

impl LocalDecisionCache {
    /// A cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> LocalDecisionCache {
        let cap = capacity.max(1);
        LocalDecisionCache {
            lru: LruCache::new(cap),
            cap,
        }
    }

    /// Look up a decision by digest, promoting it on a hit, and hand
    /// back its decision and encoded outcome. The borrowed request
    /// fields — tenant mask included — are checked against the stored
    /// key, every length and every byte, so a digest collision reads as
    /// a miss, never a wrong answer (and never another tenant's answer)
    /// — and the entry's generation must equal `generation`, so a
    /// decision made by a pre-reload engine reads as a miss too.
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
        let e = self.lru.get(&key_hash)?;
        let key = key_fields(url, document, sitekey);
        if e.generation != generation
            || e.tenant != tenant
            || e.resource_type != resource_type
            || e.has_sitekey != sitekey.is_some()
            || e.key_lens.map(|n| n as usize) != key.map(<[u8]>::len)
        {
            return None;
        }
        let mut rest = &e.bytes[..];
        for field in key {
            let (stored, after) = rest.split_at(field.len());
            if stored != field {
                return None;
            }
            rest = after;
        }
        Some((e.decision, rest))
    }

    /// Memoize a decision and its encoded outcome under its digest,
    /// stamped with the engine generation that computed it. A key field
    /// longer than 4 GiB is not memoized.
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
        if key.iter().any(|field| u32::try_from(field.len()).is_err()) {
            return;
        }
        self.lru.insert(
            key_hash,
            Entry {
                bytes: [key[0], key[1], key[2], outcome]
                    .concat()
                    .into_boxed_slice(),
                generation,
                tenant,
                key_lens: key.map(|field| field.len() as u32),
                has_sitekey: sitekey.is_some(),
                resource_type,
                decision,
            },
        );
    }

    /// Drop every entry (on generation change, so superseded decisions
    /// don't squat on LRU capacity).
    pub fn clear(&mut self) {
        self.lru = LruCache::new(self.cap);
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_follows_lru_order() {
        let mut c: LruCache<&str, u32> = LruCache::new(3);
        assert_eq!(c.insert("a", 1), None);
        assert_eq!(c.insert("b", 2), None);
        assert_eq!(c.insert("c", 3), None);
        assert_eq!(c.lru_key(), Some(&"a"));

        // Touch "a": "b" becomes the eviction victim.
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.lru_key(), Some(&"b"));
        assert_eq!(c.insert("d", 4), Some(("b", 2)));

        // Order now (MRU→LRU): d, a, c.
        assert_eq!(c.insert("e", 5), Some(("c", 3)));
        assert_eq!(c.insert("f", 6), Some(("a", 1)));
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&"d"), Some(&4));
        assert_eq!(c.get(&"e"), Some(&5));
        assert_eq!(c.get(&"f"), Some(&6));
    }

    #[test]
    fn overwrite_promotes_without_evicting() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None); // overwrite, no eviction
        assert_eq!(c.lru_key(), Some(&2));
        assert_eq!(c.insert(3, 30), Some((2, 20)));
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn capacity_one_always_replaces() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        assert_eq!(c.insert(1, 1), None);
        assert_eq!(c.insert(2, 2), Some((1, 1)));
        assert_eq!(c.insert(3, 3), Some((2, 2)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&3), Some(&3));
        assert_eq!(c.get(&2), None);
    }

    #[test]
    fn get_miss_does_not_disturb_order() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.get(&9), None);
        assert_eq!(c.lru_key(), Some(&1));
    }

    #[test]
    fn fnv_hasher_works_as_map_index() {
        let mut c: LruCache<u64, u32, FnvBuildHasher> = LruCache::new(8);
        for i in 0..20u64 {
            c.insert(i.wrapping_mul(0x9e37_79b9), i as u32);
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.get(&(19u64.wrapping_mul(0x9e37_79b9))), Some(&19));
    }

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
    /// LRU is keyed by digest: a colliding pair would evict each other
    /// forever and read as a permanent miss.
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

    /// A cached `Block`'s encoded outcome, as `wire` writes it.
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
}
