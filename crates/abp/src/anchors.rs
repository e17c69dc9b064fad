//! Request-side prefilters for the compiled engine.
//!
//! Three structures, all built once at engine-compile time and immutable
//! afterwards:
//!
//! * [`TokenTable`] — the rarest-token index, as Adblock Plus keeps it:
//!   every tokenized filter is filed under one of its tokens, and a
//!   request looks up each of its URL tokens (maximal `[a-z0-9%]` runs
//!   of the lowercased URL). A filter token is a whole token of every
//!   URL its pattern matches, so equality with a URL token is the whole
//!   test: a hash probe per URL token, no byte-by-byte walk.
//! * [`Automaton`] — a hand-rolled Aho–Corasick automaton over the
//!   literal fragments of *untokenized* filters: each one's longest
//!   literal ("anchor") and every literal's required-literal lane. One
//!   pass over the lowercased URL reports every occurrence, so the
//!   engine evaluates a wildcard-tail filter only when its anchor
//!   actually appears. Outputs carry a small `(group, value)` payload.
//!   On lists with no untokenized tail it is empty and a scan returns
//!   at once.
//! * [`HostIndex`] — every registered `domain=` entry, request and
//!   element side alike, keyed once: a host's label-boundary suffixes,
//!   probed longest first, find its deepest registered domain, and
//!   parent links from there yield the first-party gate's filters, the
//!   scoped element rules and the hiding-plan key in one walk.
//!
//! The token table and the host index share one hash core (a private
//! key index with one probe loop), and all three keep their string
//! data in a [`ByteArena`] instead of per-node or per-key heap
//! allocations.

use crate::intern::{ByteArena, Span};
use crate::scan::memchr;

/// "No node" sentinel in `fail`/`out_link` chains.
const NONE: u32 = u32::MAX;

/// Whether a byte can be part of a URL token (`[a-z0-9%]` over the
/// lowercased URL) — the same alphabet [`crate::pattern::Pattern::tokens`]
/// splits literals on.
#[inline]
pub fn is_token_byte(b: u8) -> bool {
    b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'%'
}

/// One pattern's payload, reported on every occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Output {
    /// Caller-defined output group (e.g. block-tail vs. literal lane).
    group: u8,
    /// Caller-defined value (a rank or a lane).
    value: u32,
}

/// Build-time trie node (flattened away by [`AutomatonBuilder::build`]).
#[derive(Debug, Default)]
struct BuildNode {
    /// Child edges, one byte each, in insertion order.
    edges: Vec<(u8, u32)>,
    /// Patterns ending at this node, in insertion order.
    outs: Vec<Output>,
}

/// Accumulates patterns for an [`Automaton`].
#[derive(Debug, Default)]
pub struct AutomatonBuilder {
    arena: ByteArena,
    pats: Vec<(Span, Output)>,
}

impl AutomatonBuilder {
    /// An empty builder.
    pub fn new() -> AutomatonBuilder {
        AutomatonBuilder::default()
    }

    /// Add a pattern. `pattern` must be non-empty and lowercase (the
    /// automaton scans lowercased URLs); `group`/`value` come back on
    /// every reported occurrence.
    pub fn add(&mut self, pattern: &str, group: u8, value: u32) {
        debug_assert!(!pattern.is_empty());
        debug_assert!(!pattern.bytes().any(|b| b.is_ascii_uppercase()));
        let span = self.arena.push(pattern.as_bytes());
        self.pats.push((span, Output { group, value }));
    }

    /// Number of patterns added so far.
    pub fn len(&self) -> usize {
        self.pats.len()
    }

    /// Whether no pattern has been added.
    pub fn is_empty(&self) -> bool {
        self.pats.is_empty()
    }

    /// Compile the added patterns into an immutable automaton.
    pub fn build(self) -> Automaton {
        // 1. Trie insertion. Patterns sharing a node keep insertion
        //    order in the node's output list.
        let mut nodes: Vec<BuildNode> = vec![BuildNode::default()];
        for (span, out) in &self.pats {
            let mut v = 0usize;
            for &b in self.arena.get(*span) {
                v = match nodes[v].edges.iter().find(|(eb, _)| *eb == b) {
                    Some(&(_, child)) => child as usize,
                    None => {
                        let child = nodes.len() as u32;
                        nodes[v].edges.push((b, child));
                        nodes.push(BuildNode::default());
                        child as usize
                    }
                };
            }
            nodes[v].outs.push(*out);
        }

        // 2. BFS failure links. `fail[v]` is the longest proper suffix
        //    of v's string that is also a trie node.
        let n = nodes.len();
        let mut fail = vec![0u32; n];
        let mut queue = std::collections::VecDeque::new();
        for &(_, child) in &nodes[0].edges {
            queue.push_back(child);
        }
        let mut bfs_order: Vec<u32> = Vec::with_capacity(n);
        while let Some(v) = queue.pop_front() {
            bfs_order.push(v);
            for i in 0..nodes[v as usize].edges.len() {
                let (b, child) = nodes[v as usize].edges[i];
                // Walk v's failure chain for a node with a b-edge.
                let mut f = fail[v as usize];
                let target = loop {
                    if let Some(&(_, t)) = nodes[f as usize].edges.iter().find(|(eb, _)| *eb == b) {
                        if t != child {
                            break t;
                        }
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = fail[f as usize];
                };
                fail[child as usize] = target;
                queue.push_back(child);
            }
        }

        // 3. Output links: `out_link[v]` is v itself when it has
        //    outputs, else the nearest failure ancestor that does. The
        //    scan walks `out_link[v] → out_link[fail[·]] → …`, visiting
        //    exactly the suffix nodes with outputs.
        let mut out_link = vec![NONE; n];
        if !nodes[0].outs.is_empty() {
            out_link[0] = 0;
        }
        for &v in &bfs_order {
            out_link[v as usize] = if nodes[v as usize].outs.is_empty() {
                out_link[fail[v as usize] as usize]
            } else {
                v
            };
        }

        // 4. Flatten: dense 256-way root table (the scan spends most
        //    bytes on the root), sorted sparse CSR edges elsewhere, and
        //    one contiguous output arena.
        let mut root_next = vec![0u32; 256];
        for &(b, child) in &nodes[0].edges {
            root_next[b as usize] = child;
        }
        let mut edge_starts = Vec::with_capacity(n + 1);
        let mut edge_bytes = Vec::new();
        let mut edge_targets = Vec::new();
        let mut out_starts = Vec::with_capacity(n + 1);
        let mut outputs = Vec::with_capacity(self.pats.len());
        edge_starts.push(0u32);
        out_starts.push(0u32);
        for node in &mut nodes {
            node.edges.sort_unstable_by_key(|(b, _)| *b);
            for &(b, t) in &node.edges {
                edge_bytes.push(b);
                edge_targets.push(t);
            }
            outputs.extend_from_slice(&node.outs);
            edge_starts.push(edge_bytes.len() as u32);
            out_starts.push(outputs.len() as u32);
        }

        Automaton {
            root_next: root_next.into_boxed_slice(),
            edge_starts,
            edge_bytes,
            edge_targets,
            fail,
            out_link,
            out_starts,
            outputs,
        }
    }
}

/// A compiled Aho–Corasick automaton over lowercase byte patterns.
///
/// Built by [`AutomatonBuilder`]; [`Automaton::scan`] reports every
/// pattern occurrence in one left-to-right pass.
#[derive(Debug, Clone)]
pub struct Automaton {
    /// Dense root transitions: `root_next[b]` is the child on byte `b`,
    /// or 0 (stay at root).
    root_next: Box<[u32]>,
    /// CSR sparse edges for all nodes, bytes sorted within a node.
    edge_starts: Vec<u32>,
    edge_bytes: Vec<u8>,
    edge_targets: Vec<u32>,
    /// Failure links (root fails to itself).
    fail: Vec<u32>,
    /// Nearest suffix-or-self node with outputs, or `NONE`.
    out_link: Vec<u32>,
    /// CSR outputs per node.
    out_starts: Vec<u32>,
    outputs: Vec<Output>,
}

impl Default for Automaton {
    fn default() -> Automaton {
        AutomatonBuilder::new().build()
    }
}

impl Automaton {
    /// Whether the automaton contains no patterns.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    #[inline]
    fn edge(&self, v: u32, b: u8) -> Option<u32> {
        let lo = self.edge_starts[v as usize] as usize;
        let hi = self.edge_starts[v as usize + 1] as usize;
        self.edge_bytes[lo..hi]
            .binary_search(&b)
            .ok()
            .map(|i| self.edge_targets[lo + i])
    }

    #[inline]
    fn step(&self, mut v: u32, b: u8) -> u32 {
        loop {
            if v == 0 {
                return self.root_next[b as usize];
            }
            if let Some(t) = self.edge(v, b) {
                return t;
            }
            v = self.fail[v as usize];
        }
    }

    /// Scan `text`, invoking `emit(group, value)` for every pattern
    /// occurrence, in end-position order (ties: output-chain order,
    /// longest suffix first; within one node, pattern insertion order).
    pub fn scan(&self, text: &[u8], mut emit: impl FnMut(u8, u32)) {
        if self.is_empty() {
            return;
        }
        let mut v = 0u32;
        for &b in text {
            v = self.step(v, b);
            let mut u = self.out_link[v as usize];
            while u != NONE {
                let lo = self.out_starts[u as usize] as usize;
                let hi = self.out_starts[u as usize + 1] as usize;
                for o in &self.outputs[lo..hi] {
                    emit(o.group, o.value);
                }
                u = self.out_link[self.fail[u as usize] as usize];
            }
        }
    }
}

/// Hash of a key's bytes for [`KeyIndex`]: a multiply per eight bytes,
/// the top bits picking the home slot and the low 32 (with the high half
/// folded in) tagging it.
#[inline]
fn key_hash(key: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = key.len() as u64;
    let mut words = key.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h.rotate_left(23) ^ w).wrapping_mul(K);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut w = [0u8; 8];
        w[..rest.len()].copy_from_slice(rest);
        h = (h.rotate_left(23) ^ u64::from_le_bytes(w)).wrapping_mul(K);
    }
    h ^ (h >> 32)
}

/// The key index both hash tables of this module are built on: distinct
/// byte strings numbered in insertion order, their bytes in one
/// [`ByteArena`], under an open-addressing hash table with linear
/// probing, at most half full. A slot holds a key's 32-bit hash tag and
/// its number, so most probes that miss never read key bytes.
///
/// Only compile time interns. A query looks up and never inserts, so no
/// URL or host can lengthen a probe sequence: the longest probe any
/// lookup takes — to the first empty slot after the longest run of
/// occupied ones — is fixed by the lists the index was built from.
#[derive(Debug, Clone)]
struct KeyIndex {
    arena: ByteArena,
    keys: Vec<Span>,
    /// `tag << 32 | (key number + 1)`, or 0 for an empty slot; a power
    /// of two long.
    slots: Box<[u64]>,
    /// `64 - log2(slots.len())`: a hash's top bits are its home slot.
    shift: u32,
}

impl Default for KeyIndex {
    fn default() -> KeyIndex {
        KeyIndex {
            arena: ByteArena::new(),
            keys: Vec::new(),
            slots: vec![0; 2].into_boxed_slice(),
            shift: 63,
        }
    }
}

impl KeyIndex {
    /// Number of keys.
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// The probe loop: `Ok(key number)` when `key` (of hash `h`) is a
    /// key, else `Err(slot)` with the empty slot its probe ended at.
    #[inline]
    fn probe(&self, h: u64, key: &[u8]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = (h >> self.shift) as usize;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return Err(i);
            }
            if (slot >> 32) as u32 == h as u32 {
                let k = (slot as u32 - 1) as usize;
                if self.arena.get(self.keys[k]) == key {
                    return Ok(k);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// The number of `key`, if it is a key.
    #[inline]
    fn find(&self, key: &[u8]) -> Option<usize> {
        self.probe(key_hash(key), key).ok()
    }

    /// The number of `key`, and whether this call added it.
    fn intern(&mut self, key: &[u8]) -> (usize, bool) {
        let h = key_hash(key);
        let i = match self.probe(h, key) {
            Ok(k) => return (k, false),
            Err(i) => i,
        };
        let k = self.keys.len();
        self.keys.push(self.arena.push(key));
        self.slots[i] = (h << 32) | (k as u64 + 1);
        // At most half full: every probe sequence ends at an empty slot,
        // and the clusters a miss walks to their end stay short.
        if 2 * self.keys.len() > self.slots.len() {
            self.slots = vec![0; 2 * self.slots.len()].into_boxed_slice();
            self.shift -= 1;
            for (k, &span) in self.keys.iter().enumerate() {
                let key = self.arena.get(span);
                let h = key_hash(key);
                if let Err(i) = self.probe(h, key) {
                    self.slots[i] = (h << 32) | (k as u64 + 1);
                }
            }
        }
        (k, true)
    }
}

/// URL tokens mapped to the request filters filed under them: each key
/// is one bucket token of the engine's rarest-token index, its value the
/// ids of that bucket's block filters and allow filters, in insertion
/// order. Keys are a [`KeyIndex`], ids one CSR array (key `k`'s block
/// ids, then its allow ids).
#[derive(Debug, Clone, Default)]
pub struct TokenTable {
    keys: KeyIndex,
    /// `2 * keys.len() + 1` offsets into `ids` once a token is added:
    /// key `k`'s block ids are `id_starts[2k]..id_starts[2k + 1]`, its
    /// allow ids run on to `id_starts[2k + 2]`.
    id_starts: Vec<u32>,
    ids: Vec<u32>,
}

impl TokenTable {
    /// File `block` and `allow` under `token`, each in the order given.
    /// `token` must be a lowercase URL token (at least two
    /// [`is_token_byte`] bytes) and added once.
    pub fn add(&mut self, token: &str, block: &[u32], allow: &[u32]) {
        debug_assert!(token.len() >= 2 && token.bytes().all(is_token_byte));
        let (_, added) = self.keys.intern(token.as_bytes());
        debug_assert!(added, "token added twice");
        if self.id_starts.is_empty() {
            self.id_starts.push(0);
        }
        self.ids.extend_from_slice(block);
        self.id_starts.push(self.ids.len() as u32);
        self.ids.extend_from_slice(allow);
        self.id_starts.push(self.ids.len() as u32);
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table holds no token.
    pub fn is_empty(&self) -> bool {
        self.keys.len() == 0
    }

    /// The number of ids (block and allow) filed under each token, in
    /// key order.
    pub fn bucket_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.id_starts
            .windows(3)
            .step_by(2)
            .map(|w| (w[2] - w[0]) as usize)
    }

    /// Walk the URL tokens of `url_lower` — its maximal `[a-z0-9%]` runs
    /// of two bytes or more, left to right — and call `hit(block,
    /// allow)` with the ids filed under each one that is a key. A token
    /// occurring twice hands over its bucket twice.
    pub fn for_each_hit(&self, url_lower: &[u8], mut hit: impl FnMut(&[u32], &[u32])) {
        if self.is_empty() {
            return;
        }
        let n = url_lower.len();
        let mut i = 0;
        while i < n {
            if !is_token_byte(url_lower[i]) {
                i += 1;
                continue;
            }
            let start = i;
            i += 1;
            while i < n && is_token_byte(url_lower[i]) {
                i += 1;
            }
            if i - start < 2 {
                continue;
            }
            if let Some(k) = self.keys.find(&url_lower[start..i]) {
                let (lo, mid, hi) = (
                    self.id_starts[2 * k] as usize,
                    self.id_starts[2 * k + 1] as usize,
                    self.id_starts[2 * k + 2] as usize,
                );
                hit(&self.ids[lo..mid], &self.ids[mid..hi]);
            }
        }
    }
}

/// Accumulates the registered domains of a [`HostIndex`]: each `domain=`
/// entry a request filter or element rule names, with what it files
/// under that domain. An empty entry files under the root, which no
/// host matches, as `urlkit::is_same_or_subdomain_of` matches none to
/// it.
#[derive(Debug)]
pub struct HostIndexBuilder {
    /// Key 0 is the root: the empty domain, which no host query probes.
    keys: KeyIndex,
    gate: Vec<Vec<u32>>,
    scope: Vec<Vec<u32>>,
    /// The lists of the element rules that name each entry.
    lists: Vec<u64>,
}

impl Default for HostIndexBuilder {
    fn default() -> HostIndexBuilder {
        let mut b = HostIndexBuilder {
            keys: KeyIndex::default(),
            gate: Vec::new(),
            scope: Vec::new(),
            lists: Vec::new(),
        };
        b.entry("");
        b
    }
}

impl HostIndexBuilder {
    /// The entry of `domain`, case-folded, interned on first sight.
    fn entry(&mut self, domain: &str) -> usize {
        let (k, added) = self.keys.intern(domain.to_ascii_lowercase().as_bytes());
        if added {
            self.gate.push(Vec::new());
            self.scope.push(Vec::new());
            self.lists.push(0);
        }
        k
    }

    /// File request filter `id` under include domain `domain`: the
    /// first-party gate.
    pub fn gate(&mut self, domain: &str, id: u32) {
        let k = self.entry(domain);
        self.gate[k].push(id);
    }

    /// File element rule `id`, carried by the (non-empty) list set
    /// `lists`, under include domain `domain`, which makes the domain a
    /// plan key.
    pub fn scope(&mut self, domain: &str, id: u32, lists: u64) {
        let k = self.entry(domain);
        self.scope[k].push(id);
        self.lists[k] |= lists;
    }

    /// Note that an element rule carried by `lists` excludes `domain`,
    /// which makes the domain a plan key.
    pub fn exclude(&mut self, domain: &str, lists: u64) {
        let k = self.entry(domain);
        self.lists[k] |= lists;
    }

    /// Link every entry to its parent, its plan key and its chain's
    /// lists, and flatten the id buckets.
    pub fn build(self) -> HostIndex {
        let n = self.keys.len();
        let mut parent = vec![0u32; n];
        for (k, p) in parent.iter_mut().enumerate().skip(1) {
            // The longest registered label-boundary suffix: the part
            // after the first dot that leaves a key, scanning left to
            // right.
            let domain = self.keys.arena.get(self.keys.keys[k]);
            *p = (0..domain.len())
                .filter(|&i| domain[i] == b'.' && i + 1 < domain.len())
                .find_map(|i| self.keys.find(&domain[i + 1..]))
                .map_or(0, |p| p as u32);
        }
        let (plan_key, lists) = (0..n as u32)
            .map(|k| {
                let chain = std::iter::successors(Some(k), |&e| Some(parent[e as usize]))
                    .take_while(|&e| e != 0);
                let own = |&e: &u32| self.lists[e as usize];
                let key = chain.clone().find(|e| own(e) != 0).unwrap_or(0);
                (key, chain.fold(0, |m, e| m | own(&e)))
            })
            .unzip();
        let csr = |buckets: Vec<Vec<u32>>| {
            let mut starts = Vec::with_capacity(buckets.len() + 1);
            starts.push(0u32);
            let mut ids = Vec::new();
            for bucket in buckets {
                ids.extend(bucket);
                starts.push(ids.len() as u32);
            }
            (starts, ids)
        };
        let (gate_starts, gate_ids) = csr(self.gate);
        let (scope_starts, scope_ids) = csr(self.scope);
        HostIndex {
            keys: self.keys,
            parent,
            plan_key,
            lists,
            gate_starts,
            gate_ids,
            scope_starts,
            scope_ids,
        }
    }
}

/// Every registered domain of the compiled lists — request filters'
/// `domain=` includes (the first-party gate) and element rules' includes
/// and excludes — once each, as the keys of a [`KeyIndex`].
///
/// A host matches a registered domain when it equals it or is a
/// subdomain of it (`urlkit::is_same_or_subdomain_of`): when the domain
/// is one of the host's *label-boundary suffixes*, the host itself and
/// each part after one of its dots. Each entry links to its *parent*,
/// its own longest registered label-boundary suffix, so the domains a
/// host matches are its deepest match and that entry's parent chain:
/// [`HostIndex::find`] probes the host's suffixes longest first and
/// stops at the first hit, and [`HostIndex::chain`] follows the links.
/// Each entry holds its gate ids and its element-scope ids (CSR), its
/// *plan key*: the nearest entry on its chain that an element rule
/// names, and the lists of the element rules that name a domain on its
/// chain. Hosts with the same plan key match the same element-rule
/// domains, so every element rule's `applies_on` answers them alike.
///
/// Entry 0 is the root: the host matches no registered domain.
#[derive(Debug, Clone)]
pub struct HostIndex {
    keys: KeyIndex,
    parent: Vec<u32>,
    plan_key: Vec<u32>,
    lists: Vec<u64>,
    gate_starts: Vec<u32>,
    gate_ids: Vec<u32>,
    scope_starts: Vec<u32>,
    scope_ids: Vec<u32>,
}

impl HostIndex {
    /// Number of entries, the root included: entries are `0..len()`.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no domain is registered.
    pub fn is_empty(&self) -> bool {
        self.keys.len() == 1
    }

    /// The entry of the longest registered domain that `host_lower`
    /// equals or is a subdomain of, or 0 (the root).
    #[inline]
    pub fn find(&self, host_lower: &str) -> u32 {
        let host = host_lower.as_bytes();
        let mut start = 0;
        while start < host.len() {
            if let Some(k) = self.keys.find(&host[start..]) {
                return k as u32;
            }
            match memchr(b'.', &host[start..]) {
                Some(dot) => start += dot + 1,
                None => break,
            }
        }
        0
    }

    /// `entry` and its parents, longest first, the root left out: every
    /// registered domain a host [`HostIndex::find`] maps to `entry`
    /// matches.
    pub fn chain(&self, entry: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(Some(entry), |&e| Some(self.parent[e as usize]))
            .take_while(|&e| e != 0)
    }

    /// The request filters filed under `entry`'s domain, in filing
    /// order.
    pub fn gate_ids(&self, entry: u32) -> &[u32] {
        let e = entry as usize;
        &self.gate_ids[self.gate_starts[e] as usize..self.gate_starts[e + 1] as usize]
    }

    /// The element rules filed under `entry`'s domain, in filing order.
    pub fn scope_ids(&self, entry: u32) -> &[u32] {
        let e = entry as usize;
        &self.scope_ids[self.scope_starts[e] as usize..self.scope_starts[e + 1] as usize]
    }

    /// The registered domain of `entry`, case-folded; empty for the
    /// root.
    pub fn domain(&self, entry: u32) -> &str {
        let bytes = self.keys.arena.get(self.keys.keys[entry as usize]);
        // Keys are interned from `&str`s: the fallback never runs.
        std::str::from_utf8(bytes).unwrap_or_default()
    }

    /// The nearest entry on `entry`'s chain that an element rule names,
    /// or 0.
    pub fn plan_key(&self, entry: u32) -> u32 {
        self.plan_key[entry as usize]
    }

    /// The lists of the element rules that name a domain on `entry`'s
    /// chain, includes and excludes alike.
    pub fn lists(&self, entry: u32) -> u64 {
        self.lists[entry as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(auto: &Automaton, text: &str) -> Vec<(u8, u32)> {
        let mut out = Vec::new();
        auto.scan(text.as_bytes(), |g, v| out.push((g, v)));
        out
    }

    #[test]
    fn classic_overlapping_patterns() {
        // The textbook he/she/his/hers set: exercises failure links
        // (s-h-e fails into h-e) and output links (she's node chains to
        // he's node).
        let mut b = AutomatonBuilder::new();
        b.add("he", 0, 0);
        b.add("she", 0, 1);
        b.add("his", 0, 2);
        b.add("hers", 0, 3);
        let auto = b.build();
        assert_eq!(
            hits(&auto, "ushers"),
            vec![(0, 1), (0, 0), (0, 3)],
            "she at 1..4, he at 2..4 via suffix link, hers at 2..6"
        );
        assert_eq!(hits(&auto, "this"), vec![(0, 2)]);
        assert_eq!(
            hits(&auto, "ahishers"),
            vec![(0, 2), (0, 1), (0, 0), (0, 3)]
        );
    }

    #[test]
    fn pattern_that_is_a_suffix_of_another_fires_on_both() {
        let mut b = AutomatonBuilder::new();
        b.add("click", 0, 0);
        b.add("doubleclick", 0, 1);
        let auto = b.build();
        // Both end at the same position; the output chain reports the
        // deepest node first (the longer pattern), then its suffix.
        assert_eq!(hits(&auto, "//doubleclick/"), vec![(0, 1), (0, 0)]);
        assert_eq!(hits(&auto, "oneclick"), vec![(0, 0)]);
    }

    #[test]
    fn repeated_occurrences_all_fire() {
        let mut b = AutomatonBuilder::new();
        b.add("ad", 0, 9);
        let auto = b.build();
        assert_eq!(hits(&auto, "ad/ad/ad"), vec![(0, 9); 3]);
        // Overlapping self-suffix: "aa" in "aaa" fires twice.
        let mut b = AutomatonBuilder::new();
        b.add("aa", 1, 5);
        let auto = b.build();
        assert_eq!(hits(&auto, "aaa"), vec![(1, 5), (1, 5)]);
    }

    #[test]
    fn insertion_order_is_preserved_within_a_node() {
        let mut b = AutomatonBuilder::new();
        b.add("ad", 0, 2);
        b.add("ad", 0, 0);
        b.add("ad", 0, 1);
        let auto = b.build();
        assert_eq!(hits(&auto, "ad"), vec![(0, 2), (0, 0), (0, 1)]);
    }

    #[test]
    fn empty_automaton_scans_nothing() {
        let auto = AutomatonBuilder::new().build();
        assert!(auto.is_empty());
        assert!(hits(&auto, "anything at all").is_empty());
    }

    #[test]
    fn anchors_with_separator_bytes_match_raw() {
        // Anchors are raw pattern literals, not tokens: "/ad." spans
        // separator bytes and must match byte-for-byte.
        let mut b = AutomatonBuilder::new();
        b.add("/ad.", 1, 7);
        let auto = b.build();
        assert_eq!(hits(&auto, "http://x.example/ad.gif"), vec![(1, 7)]);
        assert!(hits(&auto, "http://x.example/ad/gif").is_empty());
    }

    /// A table over `(token, block ids, allow ids)`.
    fn table(entries: &[(&str, &[u32], &[u32])]) -> TokenTable {
        let mut t = TokenTable::default();
        for &(token, block, allow) in entries {
            t.add(token, block, allow);
        }
        t
    }

    /// Every `(block, allow)` bucket the table hands over for `url`.
    fn table_hits(t: &TokenTable, url: &str) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut out = Vec::new();
        t.for_each_hit(url.as_bytes(), |b, a| out.push((b.to_vec(), a.to_vec())));
        out
    }

    /// The block ids of every bucket the table hands over for `url`.
    fn block_hits(t: &TokenTable, url: &str) -> Vec<u32> {
        table_hits(t, url)
            .into_iter()
            .flat_map(|(b, _)| b)
            .collect()
    }

    #[test]
    fn whole_token_requires_maximal_run() {
        let t = table(&[("ads", &[0], &[])]);
        assert_eq!(block_hits(&t, "/ads/"), [0]);
        assert_eq!(block_hits(&t, "ads"), [0], "URL start and end bound a run");
        assert_eq!(block_hits(&t, "/ads"), [0]);
        assert_eq!(block_hits(&t, "ads?x=1"), [0]);
        assert!(
            block_hits(&t, "loads/").is_empty(),
            "left flank is tokenish"
        );
        assert!(
            block_hits(&t, "/adsy").is_empty(),
            "right flank is tokenish"
        );
        assert!(block_hits(&t, "/ads0/").is_empty(), "digits are tokenish");
        assert!(block_hits(&t, "/7ads/").is_empty());
        assert!(block_hits(&t, "/ads%20/").is_empty(), "% is tokenish");
        assert!(block_hits(&t, "/%ads/").is_empty());
        for flank in ["-", ".", "_", "é", "/", "^", "A"] {
            assert_eq!(
                block_hits(&t, &format!("x{flank}ads{flank}y")),
                [0],
                "{flank:?} ends a run"
            );
        }
    }

    #[test]
    fn at_most_one_whole_token_hit_per_end_position() {
        // "example" contains "ample" and "exam": on the URL token
        // "example" only the key equal to the whole run hits. A URL
        // token that merely contains a key is a different token.
        let t = table(&[
            ("example", &[0], &[]),
            ("ample", &[1], &[]),
            ("exam", &[2], &[]),
        ]);
        assert_eq!(block_hits(&t, "/example/"), [0]);
        assert_eq!(block_hits(&t, "/ample/"), [1]);
        assert_eq!(block_hits(&t, "/exam.ample/"), [2, 1]);
        assert!(block_hits(&t, "/examples/").is_empty());
        assert!(block_hits(&t, "/counterexample/").is_empty());
    }

    #[test]
    fn table_hands_over_both_sides_in_url_token_order() {
        let t = table(&[
            ("banner", &[4, 2], &[7]),
            ("ads", &[], &[3, 1]),
            ("cdn", &[5], &[]),
        ]);
        assert_eq!(
            table_hits(&t, "http://cdn.example/ads/banner.gif"),
            [
                (vec![5], vec![]),
                (vec![], vec![3, 1]),
                (vec![4, 2], vec![7])
            ]
        );
        // A repeated token hands over its bucket once per occurrence;
        // the engine's canonicalize step dedups.
        assert_eq!(block_hits(&t, "/banner/x/banner"), [4, 2, 4, 2]);
    }

    #[test]
    fn two_byte_keys_and_one_byte_runs() {
        let t = table(&[("ad", &[0], &[]), ("js", &[1], &[])]);
        assert_eq!(block_hits(&t, "/ad/a/d/x.js"), [0, 1]);
        assert!(block_hits(&t, "a/d").is_empty());
    }

    #[test]
    fn table_reports_its_shape() {
        let t = table(&[("ads", &[0, 3], &[1]), ("cdn", &[2], &[])]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.bucket_sizes().collect::<Vec<_>>(), [3, 1]);
        let empty = TokenTable::default();
        assert!(empty.is_empty());
        assert_eq!(empty.bucket_sizes().count(), 0);
        assert!(table_hits(&empty, "http://ads.example/ads").is_empty());
    }

    #[test]
    fn table_finds_every_key_among_many() {
        // Enough keys for long probe sequences and every hash word
        // shape (keys of 2 to 20 bytes: one, two and three words).
        let keys: Vec<String> = (0..5000u32)
            .map(|i| format!("k{}", "x".repeat((i % 19) as usize)) + &i.to_string())
            .collect();
        let mut t = TokenTable::default();
        for (i, k) in keys.iter().enumerate() {
            t.add(k, &[i as u32], &[]);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(block_hits(&t, &format!("/{k}/")), [i as u32], "{k}");
            // Every key ends in a digit, so no key ends in `z`.
            assert!(block_hits(&t, &format!("/{k}z/")).is_empty());
        }
    }

    /// The gate ids of every registered domain `host` matches, deepest
    /// domain first.
    fn gate_hits(index: &HostIndex, host: &str) -> Vec<u32> {
        let entry = index.find(host);
        index
            .chain(entry)
            .flat_map(|e| index.gate_ids(e).to_vec())
            .collect()
    }

    /// A host index over `(domain, gate id)` pairs.
    fn gate_index(entries: &[(&str, u32)]) -> HostIndex {
        let mut b = HostIndexBuilder::default();
        for &(domain, id) in entries {
            b.gate(domain, id);
        }
        b.build()
    }

    #[test]
    fn host_trie_label_boundaries() {
        let index = gate_index(&[("example.com", 1), ("sub.example.com", 2), ("other.net", 3)]);
        assert_eq!(gate_hits(&index, "example.com"), [1]);
        assert_eq!(gate_hits(&index, "sub.example.com"), [2, 1]);
        assert_eq!(gate_hits(&index, "deep.sub.example.com"), [2, 1]);
        assert!(gate_hits(&index, "goodexample.com").is_empty());
        assert!(gate_hits(&index, "example.com.evil").is_empty());
        assert_eq!(gate_hits(&index, "other.net"), [3]);
        assert!(gate_hits(&index, "com").is_empty());
        assert!(gate_hits(&index, "").is_empty());
        assert!(gate_hits(&index, ".").is_empty());
        assert_eq!(gate_hits(&index, "x..example.com"), [1], "an empty label");
        assert!(
            gate_hits(&index, "example.com.").is_empty(),
            "a trailing dot"
        );
    }

    #[test]
    fn host_trie_tells_labels_with_equal_key_prefixes_apart() {
        // Siblings agreeing on their first eight bytes, a domain and its
        // NUL-padded twin, and one that is a prefix of another.
        let domains = [
            "publisher-one.example",
            "publisher-two.example",
            "publisher.example",
            "publishe.example",
            "pub.example",
            "pub\0.example",
        ];
        let entries: Vec<(&str, u32)> = domains.iter().copied().zip(0..).collect();
        let index = gate_index(&entries);
        assert_eq!(gate_hits(&index, "www.publisher-one.example"), [0]);
        assert_eq!(gate_hits(&index, "publisher-two.example"), [1]);
        assert_eq!(gate_hits(&index, "publisher.example"), [2]);
        assert_eq!(gate_hits(&index, "publishe.example"), [3]);
        assert_eq!(gate_hits(&index, "pub.example"), [4]);
        assert_eq!(gate_hits(&index, "pub\0.example"), [5]);
        assert!(gate_hits(&index, "publisher-six.example").is_empty());
        assert!(gate_hits(&index, "publish.example").is_empty());
        assert_ne!(index.find("publisher-two.example"), 0);
        assert_eq!(index.find("publisher-six.example"), 0);
    }

    #[test]
    fn host_trie_multiple_ids_per_domain_keep_order() {
        let index = gate_index(&[("reddit.com", 4), ("Reddit.com", 1), ("reddit.com", 3)]);
        assert_eq!(gate_hits(&index, "www.reddit.com"), [4, 1, 3]);
        assert_eq!(
            index.len(),
            2,
            "one entry per case-folded domain, and the root"
        );
        assert_eq!(index.gate_ids(index.find("reddit.com")).len(), 3);
    }

    #[test]
    fn terminal_nodes_partition_hosts_by_matched_domain_set() {
        let mut b = HostIndexBuilder::default();
        b.scope("example.com", 1, 0b01);
        b.scope("a.example.com", 2, 0b10);
        b.exclude("only.a.path.net", 0b100);
        b.gate("x.a.example.com", 7);
        b.gate("gate.example.org", 8);
        let index = b.build();
        let plan = |host: &str| index.plan_key(index.find(host));
        // Same matched set {example.com} → same plan key.
        let exact = plan("example.com");
        assert_ne!(exact, 0);
        assert_eq!(plan("b.example.com"), exact);
        // Matching {example.com, a.example.com} gets its own key, which
        // a gate-only domain below it does not split.
        assert_ne!(plan("a.example.com"), exact);
        assert_eq!(plan("x.a.example.com"), plan("a.example.com"));
        assert_ne!(index.find("x.a.example.com"), index.find("a.example.com"));
        assert_eq!(plan("y.x.a.example.com"), plan("a.example.com"));
        // Matching no element domain is the root, gate domains or not.
        assert_eq!(plan("other.org"), 0);
        assert_eq!(plan("gate.example.org"), 0);
        assert_eq!(plan("notexample.com"), plan("z.com"));
        // An exclude-only domain is a plan key without scope ids.
        let path = index.find("only.a.path.net");
        assert_ne!(plan("only.a.path.net"), 0);
        assert!(index.scope_ids(path).is_empty());
        assert_eq!(
            index
                .chain(index.find("y.x.a.example.com"))
                .flat_map(|e| index.scope_ids(e).to_vec())
                .collect::<Vec<_>>(),
            [2, 1]
        );
        assert_eq!(index.lists(index.find("y.x.a.example.com")), 0b11);
        assert_eq!(index.lists(index.find("example.com")), 0b01);
        assert_eq!(index.lists(index.find("gate.example.org")), 0);
        assert_eq!(index.domain(plan("y.x.a.example.com")), "a.example.com");
        assert_eq!(index.domain(0), "");
        assert_eq!(index.len(), 6);
    }

    #[test]
    fn empty_host_trie() {
        let index = HostIndexBuilder::default().build();
        assert!(index.is_empty());
        assert_eq!(index.len(), 1);
        assert!(gate_hits(&index, "example.com").is_empty());
        assert_eq!(index.plan_key(index.find("example.com")), 0);
        // The root's empty key is never a match.
        let index = gate_index(&[("", 9)]);
        assert!(index.is_empty());
        assert!(gate_hits(&index, "example.com.").is_empty());
    }
}
