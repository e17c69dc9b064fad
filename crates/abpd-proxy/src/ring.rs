//! Consistent-hash ring over logical shard slots.
//!
//! Ring points are derived from the *slot index*, not the backend
//! address, so a shard that respawns on a new port keeps exactly the
//! keyspace it had before — nothing remaps. Each slot owns `vnodes`
//! points; with 64+ vnodes per slot, a 3-shard ring splits the key
//! space within a few percent of even.
//!
//! Routing is a clockwise walk from the key's position: the first
//! point whose slot passes the caller's `healthy` filter wins. Because
//! the walk order is deterministic per key, the second distinct slot
//! on the walk is the natural *hedge* target — the same shard every
//! time, so its cache warms for the keys it backs up.

/// FNV-1a over one u64, mixed byte by byte. Shared with the prober's
/// deterministic probe-interval jitter.
pub(crate) fn fnv1a_u64(seed: u64, v: u64) -> u64 {
    let mut h = seed;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// A fixed ring over `slots` logical shards.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point hash, slot)` sorted by hash.
    points: Vec<(u64, usize)>,
    slots: usize,
}

impl HashRing {
    /// Build a ring with `vnodes` points per slot (floored at 1).
    pub fn new(slots: usize, vnodes: usize) -> HashRing {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(slots * vnodes);
        for slot in 0..slots {
            for v in 0..vnodes {
                let h = fnv1a_u64(fnv1a_u64(FNV_BASIS, slot as u64), v as u64);
                points.push((h, slot));
            }
        }
        points.sort_unstable();
        HashRing { points, slots }
    }

    /// Every point's slot, clockwise from `key`'s position.
    fn clockwise(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let (before, after) = self
            .points
            .split_at(self.points.partition_point(|&(h, _)| h < key));
        after.iter().chain(before).map(|&(_, slot)| slot)
    }

    /// Every slot in walk order for `key`: the owner first, then each
    /// distinct successor. `walk(key)[1]` is the hedge target.
    pub fn walk(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.slots);
        for slot in self.clockwise(key) {
            if !order.contains(&slot) {
                order.push(slot);
                if order.len() == self.slots {
                    break;
                }
            }
        }
        order
    }

    /// The first slot on `key`'s walk that passes `healthy`; allocates
    /// nothing.
    pub fn route(&self, key: u64, healthy: impl Fn(usize) -> bool) -> Option<usize> {
        self.clockwise(key).find(|&slot| healthy(slot))
    }
}

/// The deterministic routing key for one decision request: FNV-1a over
/// the fields that make a decision a pure function (url, document,
/// resource type, sitekey, tenant mask), with separators so field
/// boundaries can't alias. Stable across processes — unlike the
/// server's keyed cache hash — so every router in front of the same
/// fleet agrees.
pub fn route_key(
    url: &str,
    document: &str,
    resource_type: abp::ResourceType,
    sitekey: Option<&str>,
    tenant: u64,
) -> u64 {
    let mut h = abpdelta::StrongHasher::new();
    h.update(url.as_bytes());
    h.update(&[0xff]);
    h.update(document.as_bytes());
    h.update(&[0xff]);
    let rt = abp::ResourceType::ALL
        .iter()
        .position(|t| *t == resource_type)
        .unwrap_or(usize::MAX) as u8;
    h.update(&[rt, 0xff]);
    h.update(&tenant.to_le_bytes());
    h.update(&[0xff]);
    if let Some(k) = sitekey {
        h.update(&[1]);
        h.update(k.as_bytes());
    } else {
        h.update(&[0]);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> impl Iterator<Item = u64> {
        (0..n).map(|i| fnv1a_u64(FNV_BASIS, i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    #[test]
    fn every_slot_gets_a_fair_share() {
        let ring = HashRing::new(3, 64);
        let mut counts = [0usize; 3];
        for k in keys(30_000) {
            counts[ring.route(k, |_| true).unwrap()] += 1;
        }
        for (slot, &c) in counts.iter().enumerate() {
            let share = c as f64 / 30_000.0;
            assert!(
                (0.15..=0.55).contains(&share),
                "slot {slot} owns {share:.3} of the keyspace"
            );
        }
    }

    #[test]
    fn unrelated_failures_do_not_remap() {
        // A key owned by a healthy slot keeps its owner when *another*
        // slot dies: only the dead slot's keys move.
        let ring = HashRing::new(4, 64);
        for k in keys(2_000) {
            let owner = ring.route(k, |_| true).unwrap();
            let dead = (owner + 1) % 4;
            let rerouted = ring.route(k, |s| s != dead).unwrap();
            assert_eq!(owner, rerouted, "key moved although its owner is healthy");
        }
    }

    #[test]
    fn walk_starts_at_owner_and_covers_every_slot() {
        let ring = HashRing::new(3, 64);
        for k in keys(500) {
            let walk = ring.walk(k);
            assert_eq!(walk.len(), 3);
            assert_eq!(walk[0], ring.route(k, |_| true).unwrap());
            let mut sorted = walk.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "walk must visit each slot once");
        }
    }

    #[test]
    fn dead_owner_falls_to_its_walk_successor() {
        let ring = HashRing::new(3, 64);
        for k in keys(500) {
            let walk = ring.walk(k);
            let routed = ring.route(k, |s| s != walk[0]).unwrap();
            assert_eq!(
                routed, walk[1],
                "failover target must be the walk successor"
            );
        }
    }

    #[test]
    fn route_key_separates_fields_and_ignores_nothing() {
        const ALL: u64 = u64::MAX;
        let base = route_key(
            "http://a.example/x",
            "doc.example",
            abp::ResourceType::Script,
            None,
            ALL,
        );
        assert_ne!(
            base,
            route_key(
                "http://a.example/y",
                "doc.example",
                abp::ResourceType::Script,
                None,
                ALL,
            )
        );
        assert_ne!(
            base,
            route_key(
                "http://a.example/x",
                "other.example",
                abp::ResourceType::Script,
                None,
                ALL,
            )
        );
        assert_ne!(
            base,
            route_key(
                "http://a.example/x",
                "doc.example",
                abp::ResourceType::Image,
                None,
                ALL,
            )
        );
        assert_ne!(
            base,
            route_key(
                "http://a.example/x",
                "doc.example",
                abp::ResourceType::Script,
                Some("KEY"),
                ALL,
            )
        );
        // Two tenants never share a routing key for the same request.
        assert_ne!(
            base,
            route_key(
                "http://a.example/x",
                "doc.example",
                abp::ResourceType::Script,
                None,
                0b01,
            )
        );
        // Field boundaries cannot alias.
        assert_ne!(
            route_key("ab", "c", abp::ResourceType::Script, None, ALL),
            route_key("a", "bc", abp::ResourceType::Script, None, ALL)
        );
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::new(0, 64);
        assert_eq!(ring.route(42, |_| true), None);
        assert!(ring.walk(42).is_empty());
    }
}
