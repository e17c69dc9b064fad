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
//! * [`HostLabelTrie`] — a reversed-domain-label trie for the element
//!   hiding index and the request path's first-party gate: walking the
//!   subject host's labels right-to-left collects every `domain=`-scoped
//!   rule bucket in one pass, replacing a hash probe per label suffix.
//!
//! All three are vendor-free by design and store their string data in a
//! [`ByteArena`] instead of per-node or per-key heap allocations.

use crate::intern::{ByteArena, Span};
use std::collections::BTreeMap;

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

/// Hash of a token's bytes for the [`TokenTable`] index: a multiply per
/// eight bytes, the top bits picking the home slot and the low 32 (with
/// the high half folded in) tagging it.
#[inline]
fn token_hash(token: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = token.len() as u64;
    let mut words = token.chunks_exact(8);
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

/// Accumulates `(token, block ids, allow ids)` entries for a
/// [`TokenTable`].
#[derive(Debug)]
pub struct TokenTableBuilder {
    arena: ByteArena,
    keys: Vec<Span>,
    id_starts: Vec<u32>,
    ids: Vec<u32>,
}

impl Default for TokenTableBuilder {
    fn default() -> TokenTableBuilder {
        TokenTableBuilder {
            arena: ByteArena::new(),
            keys: Vec::new(),
            id_starts: vec![0],
            ids: Vec::new(),
        }
    }
}

impl TokenTableBuilder {
    /// An empty builder.
    pub fn new() -> TokenTableBuilder {
        TokenTableBuilder::default()
    }

    /// File `block` and `allow` under `token`, each in the order given.
    /// `token` must be a lowercase URL token (at least two
    /// [`is_token_byte`] bytes) and added once.
    pub fn add(&mut self, token: &str, block: &[u32], allow: &[u32]) {
        debug_assert!(token.len() >= 2 && token.bytes().all(is_token_byte));
        self.keys.push(self.arena.push(token.as_bytes()));
        self.ids.extend_from_slice(block);
        self.id_starts.push(self.ids.len() as u32);
        self.ids.extend_from_slice(allow);
        self.id_starts.push(self.ids.len() as u32);
    }

    /// Build the hash index over the added tokens.
    pub fn build(self) -> TokenTable {
        // At most half full: every probe sequence ends at an empty slot,
        // and the clusters a miss walks to their end stay short.
        let len = (self.keys.len() * 2).next_power_of_two().max(2);
        let mut slots = vec![0u64; len].into_boxed_slice();
        let shift = 64 - len.trailing_zeros();
        for (k, &span) in self.keys.iter().enumerate() {
            let h = token_hash(self.arena.get(span));
            let mut i = (h >> shift) as usize;
            while slots[i] != 0 {
                debug_assert!(
                    self.arena.get(self.keys[(slots[i] as u32 - 1) as usize])
                        != self.arena.get(span),
                    "token added twice"
                );
                i = (i + 1) & (len - 1);
            }
            slots[i] = (h << 32) | (k as u64 + 1);
        }
        TokenTable {
            arena: self.arena,
            keys: self.keys,
            id_starts: self.id_starts,
            ids: self.ids,
            slots,
            shift,
        }
    }
}

/// URL tokens mapped to the request filters filed under them: each key
/// is one bucket token of the engine's rarest-token index, its value the
/// ids of that bucket's block filters and allow filters, in insertion
/// order.
///
/// Keys live in a [`ByteArena`], ids in one CSR array (key `k`'s block
/// ids, then its allow ids), and the index is an open-addressing hash
/// table with linear probing, at most half full; a slot holds a key's
/// 32-bit hash tag and its index, so most probes that miss never read
/// key bytes.
///
/// Only [`TokenTableBuilder::build`] inserts. A request looks up and
/// never inserts, so no URL can lengthen a probe sequence: the longest
/// probe any lookup takes — to the first empty slot after the longest
/// run of occupied ones — is fixed by the lists the table was built
/// from.
#[derive(Debug, Clone)]
pub struct TokenTable {
    arena: ByteArena,
    keys: Vec<Span>,
    /// `2 * keys.len() + 1` offsets into `ids`: key `k`'s block ids are
    /// `id_starts[2k]..id_starts[2k + 1]`, its allow ids run on to
    /// `id_starts[2k + 2]`.
    id_starts: Vec<u32>,
    ids: Vec<u32>,
    /// `tag << 32 | (key index + 1)`, or 0 for an empty slot; a power of
    /// two long.
    slots: Box<[u64]>,
    /// `64 - log2(slots.len())`: a hash's top bits are its home slot.
    shift: u32,
}

impl Default for TokenTable {
    fn default() -> TokenTable {
        TokenTableBuilder::new().build()
    }
}

impl TokenTable {
    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table holds no token.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The number of ids (block and allow) filed under each token, in
    /// key order.
    pub fn bucket_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.id_starts
            .windows(3)
            .step_by(2)
            .map(|w| (w[2] - w[0]) as usize)
    }

    /// The key index of `token`, if it is a key.
    #[inline]
    fn find(&self, token: &[u8]) -> Option<usize> {
        let h = token_hash(token);
        let mask = self.slots.len() - 1;
        let mut i = (h >> self.shift) as usize;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            if (slot >> 32) as u32 == h as u32 {
                let k = (slot as u32 - 1) as usize;
                if self.arena.get(self.keys[k]) == token {
                    return Some(k);
                }
            }
            i = (i + 1) & mask;
        }
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
            if let Some(k) = self.find(&url_lower[start..i]) {
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

/// Build-time trie node for [`HostLabelTrie`].
#[derive(Debug, Default)]
struct LabelBuildNode {
    /// Ordered by label, which is the order the flattened form's edge
    /// search needs; a node under a popular suffix has thousands.
    edges: BTreeMap<String, u32>,
    ids: Vec<u32>,
}

/// Accumulates `(domain, id)` pairs for a [`HostLabelTrie`].
#[derive(Debug, Default)]
pub struct HostLabelTrieBuilder {
    nodes: Vec<LabelBuildNode>,
}

impl HostLabelTrieBuilder {
    /// An empty builder.
    pub fn new() -> HostLabelTrieBuilder {
        HostLabelTrieBuilder {
            nodes: vec![LabelBuildNode::default()],
        }
    }

    /// Register `id` under `domain` (lowercase, dot-separated labels).
    pub fn insert(&mut self, domain: &str, id: u32) {
        let v = self.walk_or_create(domain);
        self.nodes[v].ids.push(id);
    }

    /// Materialize the node path for `domain` without attaching an id.
    /// Used by tries whose payload lives outside the trie, keyed by
    /// node index (e.g. the engine's per-suffix hiding plans).
    pub fn insert_path(&mut self, domain: &str) {
        self.walk_or_create(domain);
    }

    fn walk_or_create(&mut self, domain: &str) -> usize {
        let mut v = 0usize;
        for label in domain.rsplit('.') {
            v = match self.nodes[v].edges.get(label) {
                Some(&child) => child as usize,
                None => {
                    let child = self.nodes.len() as u32;
                    self.nodes[v].edges.insert(label.to_string(), child);
                    self.nodes.push(LabelBuildNode::default());
                    child as usize
                }
            };
        }
        v
    }

    /// Flatten into the immutable query form.
    pub fn build(self) -> HostLabelTrie {
        let n = self.nodes.len();
        let mut arena = ByteArena::new();
        let mut edge_starts = Vec::with_capacity(n + 1);
        let mut edge_keys = Vec::new();
        let mut edge_labels = Vec::new();
        let mut edge_targets = Vec::new();
        let mut id_starts = Vec::with_capacity(n + 1);
        let mut ids = Vec::new();
        edge_starts.push(0u32);
        id_starts.push(0u32);
        for node in &self.nodes {
            for (label, t) in &node.edges {
                edge_keys.push(label_key(label.as_bytes()));
                edge_labels.push(arena.push(label.as_bytes()));
                edge_targets.push(*t);
            }
            ids.extend_from_slice(&node.ids);
            edge_starts.push(edge_labels.len() as u32);
            id_starts.push(ids.len() as u32);
        }
        HostLabelTrie {
            arena,
            edge_starts,
            edge_keys,
            edge_labels,
            edge_targets,
            id_starts,
            ids,
        }
    }
}

/// The first eight bytes of a label, big-endian and zero-padded: byte
/// strings in lexicographic order are in non-decreasing key order, so a
/// node's sorted edges can be searched on keys alone and the label bytes
/// read only to tell equal keys apart.
fn label_key(label: &[u8]) -> u64 {
    let mut key = [0u8; 8];
    let n = label.len().min(8);
    key[..n].copy_from_slice(&label[..n]);
    u64::from_be_bytes(key)
}

/// A reversed-domain-label trie mapping hosts to the id buckets of
/// every registered domain they equal or are a subdomain of.
///
/// `insert("example.com", 7)` makes `collect("a.example.com")` yield 7
/// (label-boundary suffix), while `"goodexample.com"` yields nothing.
#[derive(Debug, Clone)]
pub struct HostLabelTrie {
    arena: ByteArena,
    edge_starts: Vec<u32>,
    /// [`label_key`] of each edge label: the dense array the per-node
    /// binary search runs over (a node under a popular suffix has
    /// thousands of children).
    edge_keys: Vec<u64>,
    edge_labels: Vec<Span>,
    edge_targets: Vec<u32>,
    id_starts: Vec<u32>,
    ids: Vec<u32>,
}

impl Default for HostLabelTrie {
    fn default() -> HostLabelTrie {
        HostLabelTrieBuilder::new().build()
    }
}

impl HostLabelTrie {
    /// Whether the trie holds no domains.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of nodes, the root included. Node indices returned by
    /// [`HostLabelTrie::terminal`] are `< node_count()`.
    pub fn node_count(&self) -> usize {
        self.edge_starts.len() - 1
    }

    /// The number of ids registered under each node, in node order (0
    /// for the root and for pure path nodes).
    pub fn bucket_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.id_starts.windows(2).map(|w| (w[1] - w[0]) as usize)
    }

    /// Walk `host_lower`'s labels right to left as far as edges exist
    /// and return the node where the walk stops (the root, index 0,
    /// when the first label already has no edge).
    ///
    /// Two hosts stopping at the same node are label-aligned-suffix
    /// matched by exactly the same set of registered domains: a domain
    /// matches a host iff the host's reversed-label walk passes through
    /// that domain's node, and the nodes passed are precisely the
    /// root-to-terminal path. The engine keys its per-suffix hiding
    /// plans on this index.
    pub fn terminal(&self, host_lower: &str) -> u32 {
        let mut v = 0u32;
        for label in host_lower.rsplit('.') {
            match self.child(v, label.as_bytes()) {
                Some(t) => v = t,
                None => return v,
            }
        }
        v
    }

    /// The child of node `v` along `label`, if that edge exists.
    fn child(&self, v: u32, label: &[u8]) -> Option<u32> {
        let lo = self.edge_starts[v as usize] as usize;
        let hi = self.edge_starts[v as usize + 1] as usize;
        let key = label_key(label);
        let mut i = lo + self.edge_keys[lo..hi].partition_point(|&k| k < key);
        while i < hi && self.edge_keys[i] == key {
            if self.arena.get(self.edge_labels[i]) == label {
                return Some(self.edge_targets[i]);
            }
            i += 1;
        }
        None
    }

    /// Append the id buckets of every registered domain that
    /// `host_lower` equals or is a subdomain of. One walk over the
    /// host's labels, right to left; each edge is a binary search.
    pub fn collect(&self, host_lower: &str, out: &mut Vec<u32>) {
        if self.is_empty() {
            return;
        }
        let mut v = 0u32;
        for label in host_lower.rsplit('.') {
            match self.child(v, label.as_bytes()) {
                Some(t) => v = t,
                None => return,
            }
            let ilo = self.id_starts[v as usize] as usize;
            let ihi = self.id_starts[v as usize + 1] as usize;
            out.extend_from_slice(&self.ids[ilo..ihi]);
        }
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
        let mut b = TokenTableBuilder::new();
        for &(token, block, allow) in entries {
            b.add(token, block, allow);
        }
        b.build()
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
        let mut b = TokenTableBuilder::new();
        for (i, k) in keys.iter().enumerate() {
            b.add(k, &[i as u32], &[]);
        }
        let t = b.build();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(block_hits(&t, &format!("/{k}/")), [i as u32], "{k}");
            // Every key ends in a digit, so no key ends in `z`.
            assert!(block_hits(&t, &format!("/{k}z/")).is_empty());
        }
    }

    fn collect(trie: &HostLabelTrie, host: &str) -> Vec<u32> {
        let mut out = Vec::new();
        trie.collect(host, &mut out);
        out
    }

    #[test]
    fn host_trie_label_boundaries() {
        let mut b = HostLabelTrieBuilder::new();
        b.insert("example.com", 1);
        b.insert("sub.example.com", 2);
        b.insert("other.net", 3);
        let trie = b.build();
        assert_eq!(collect(&trie, "example.com"), vec![1]);
        assert_eq!(collect(&trie, "sub.example.com"), vec![1, 2]);
        assert_eq!(collect(&trie, "deep.sub.example.com"), vec![1, 2]);
        assert_eq!(collect(&trie, "goodexample.com"), Vec::<u32>::new());
        assert_eq!(collect(&trie, "example.com.evil"), Vec::<u32>::new());
        assert_eq!(collect(&trie, "other.net"), vec![3]);
        assert_eq!(collect(&trie, "com"), Vec::<u32>::new());
    }

    #[test]
    fn host_trie_tells_labels_with_equal_key_prefixes_apart() {
        // Sibling labels agreeing on their first eight bytes share a
        // search key; so do a label and its NUL-padded twin.
        let mut b = HostLabelTrieBuilder::new();
        for (id, domain) in [
            "publisher-one.example",
            "publisher-two.example",
            "publisher.example",
            "publishe.example",
            "pub.example",
            "pub\0.example",
        ]
        .iter()
        .enumerate()
        {
            b.insert(domain, id as u32);
        }
        let trie = b.build();
        assert_eq!(collect(&trie, "www.publisher-one.example"), vec![0]);
        assert_eq!(collect(&trie, "publisher-two.example"), vec![1]);
        assert_eq!(collect(&trie, "publisher.example"), vec![2]);
        assert_eq!(collect(&trie, "publishe.example"), vec![3]);
        assert_eq!(collect(&trie, "pub.example"), vec![4]);
        assert_eq!(collect(&trie, "pub\0.example"), vec![5]);
        assert!(collect(&trie, "publisher-six.example").is_empty());
        assert!(collect(&trie, "publish.example").is_empty());
        assert_ne!(trie.terminal("publisher-two.example"), 0);
        assert_eq!(
            trie.terminal("publisher-six.example"),
            trie.terminal("example")
        );
    }

    #[test]
    fn host_trie_multiple_ids_per_domain_keep_order() {
        let mut b = HostLabelTrieBuilder::new();
        b.insert("reddit.com", 4);
        b.insert("reddit.com", 1);
        b.insert("reddit.com", 3);
        let trie = b.build();
        assert_eq!(collect(&trie, "www.reddit.com"), vec![4, 1, 3]);
    }

    #[test]
    fn terminal_nodes_partition_hosts_by_matched_domain_set() {
        let mut b = HostLabelTrieBuilder::new();
        b.insert("example.com", 1);
        b.insert("a.example.com", 2);
        b.insert_path("~only.a.path.net");
        let trie = b.build();
        // Same matched set {example.com} → same terminal node.
        let exact = trie.terminal("example.com");
        let miss_sub = trie.terminal("b.example.com");
        assert_eq!(exact, miss_sub);
        // Matching {example.com, a.example.com} lands deeper.
        assert_ne!(trie.terminal("a.example.com"), exact);
        assert_eq!(
            trie.terminal("x.a.example.com"),
            trie.terminal("a.example.com")
        );
        // Matching nothing lands at the root.
        assert_eq!(trie.terminal("other.org"), 0);
        assert_eq!(trie.terminal("notexample.com"), trie.terminal("z.com"));
        // Path-only inserts materialize nodes without ids.
        assert_ne!(trie.terminal("~only.a.path.net"), 0);
        let mut ids = Vec::new();
        trie.collect("~only.a.path.net", &mut ids);
        assert!(ids.is_empty());
        assert!(trie.node_count() > 4);
    }

    #[test]
    fn empty_host_trie() {
        let trie = HostLabelTrie::default();
        assert!(trie.is_empty());
        assert!(collect(&trie, "example.com").is_empty());
    }
}
