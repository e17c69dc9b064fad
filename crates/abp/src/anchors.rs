//! Multi-pattern literal prefilters for the compiled engine.
//!
//! Two structures, both built once at engine-compile time and immutable
//! afterwards:
//!
//! * [`Automaton`] — a hand-rolled Aho–Corasick automaton over literal
//!   fragments ("anchors") extracted from request-filter patterns. One
//!   pass over the lowercased URL reports every anchor occurrence, so
//!   the engine evaluates only filters whose required literal actually
//!   appears — instead of appending the whole untokenized tail to every
//!   candidate list. Outputs carry a small `(group, value)` payload and
//!   an optional *whole-token* constraint (the match must be flanked by
//!   non-token bytes), which makes the tokenized fast path emit exactly
//!   the buckets the old per-token index visited, in the same order.
//! * [`HostLabelTrie`] — a reversed-domain-label trie for the element
//!   hiding index and the request path's first-party gate: walking the
//!   subject host's labels right-to-left collects every `domain=`-scoped
//!   rule bucket in one pass, replacing a hash probe per label suffix.
//!
//! Both are vendor-free by design (like the CSR token index before
//! them) and store their string data in a shared [`ByteArena`] instead
//! of per-node heap allocations.

use crate::intern::{ByteArena, Span};
use std::collections::BTreeMap;

/// "No node" sentinel in `fail`/`out_link` chains.
const NONE: u32 = u32::MAX;

/// Whether a byte can be part of a URL token (`[a-z0-9%]` over the
/// lowercased URL) — the same alphabet the token index uses.
#[inline]
pub fn is_token_byte(b: u8) -> bool {
    b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'%'
}

/// One pattern's payload, reported on every occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Output {
    /// Caller-defined output group (e.g. block-token vs. allow-tail).
    group: u8,
    /// When set, the occurrence only counts if flanked by non-token
    /// bytes on both sides — i.e. the pattern equals a whole URL token.
    whole_token: bool,
    /// Pattern length in bytes (needed for the start-boundary check).
    len: u32,
    /// Caller-defined value (a filter id or a rank).
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
    /// every reported occurrence. With `whole_token`, occurrences are
    /// reported only when the match is a maximal token run.
    pub fn add(&mut self, pattern: &str, group: u8, whole_token: bool, value: u32) {
        debug_assert!(!pattern.is_empty());
        debug_assert!(!pattern.bytes().any(|b| b.is_ascii_uppercase()));
        let span = self.arena.push(pattern.as_bytes());
        self.pats.push((
            span,
            Output {
                group,
                whole_token,
                len: pattern.len() as u32,
                value,
            },
        ));
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
    /// Whole-token patterns are reported only when the occurrence is a
    /// maximal `[a-z0-9%]` run in `text`.
    pub fn scan(&self, text: &[u8], mut emit: impl FnMut(u8, u32)) {
        if self.is_empty() {
            return;
        }
        let mut v = 0u32;
        for (i, &b) in text.iter().enumerate() {
            v = self.step(v, b);
            let mut u = self.out_link[v as usize];
            while u != NONE {
                let lo = self.out_starts[u as usize] as usize;
                let hi = self.out_starts[u as usize + 1] as usize;
                for o in &self.outputs[lo..hi] {
                    if o.whole_token {
                        let start = i + 1 - o.len as usize;
                        let open = start == 0 || !is_token_byte(text[start - 1]);
                        let closed = i + 1 == text.len() || !is_token_byte(text[i + 1]);
                        if !(open && closed) {
                            continue;
                        }
                    }
                    emit(o.group, o.value);
                }
                u = self.out_link[self.fail[u as usize] as usize];
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
        b.add("he", 0, false, 0);
        b.add("she", 0, false, 1);
        b.add("his", 0, false, 2);
        b.add("hers", 0, false, 3);
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
        b.add("click", 0, false, 0);
        b.add("doubleclick", 0, false, 1);
        let auto = b.build();
        // Both end at the same position; the output chain reports the
        // deepest node first (the longer pattern), then its suffix.
        assert_eq!(hits(&auto, "//doubleclick/"), vec![(0, 1), (0, 0)]);
        assert_eq!(hits(&auto, "oneclick"), vec![(0, 0)]);
    }

    #[test]
    fn repeated_occurrences_all_fire() {
        let mut b = AutomatonBuilder::new();
        b.add("ad", 0, false, 9);
        let auto = b.build();
        assert_eq!(hits(&auto, "ad/ad/ad"), vec![(0, 9); 3]);
        // Overlapping self-suffix: "aa" in "aaa" fires twice.
        let mut b = AutomatonBuilder::new();
        b.add("aa", 1, false, 5);
        let auto = b.build();
        assert_eq!(hits(&auto, "aaa"), vec![(1, 5), (1, 5)]);
    }

    #[test]
    fn whole_token_requires_maximal_run() {
        let mut b = AutomatonBuilder::new();
        b.add("ads", 0, true, 0);
        let auto = b.build();
        assert_eq!(hits(&auto, "/ads/"), vec![(0, 0)]);
        assert_eq!(hits(&auto, "ads"), vec![(0, 0)], "text boundaries count");
        assert_eq!(hits(&auto, "/ads"), vec![(0, 0)]);
        assert!(hits(&auto, "loads/").is_empty(), "left flank is tokenish");
        assert!(hits(&auto, "/adsy").is_empty(), "right flank is tokenish");
        assert!(hits(&auto, "/ads0/").is_empty(), "digits are tokenish");
        assert_eq!(hits(&auto, "/ads-top"), vec![(0, 0)], "dash is a boundary");
    }

    #[test]
    fn at_most_one_whole_token_hit_per_end_position() {
        // "example" contains "ample" as a suffix; on a URL token
        // "example" only the full-token pattern may fire — the shorter
        // one's left flank is tokenish. This is what lets the engine
        // treat whole-token scan order as bucket-visit order.
        let mut b = AutomatonBuilder::new();
        b.add("example", 0, true, 0);
        b.add("ample", 0, true, 1);
        let auto = b.build();
        assert_eq!(hits(&auto, "/example/"), vec![(0, 0)]);
        assert_eq!(hits(&auto, "/ample/"), vec![(0, 1)]);
    }

    #[test]
    fn groups_and_token_flags_mix_on_one_node() {
        // The same string can be a whole-token bucket key for one
        // filter and a plain substring anchor for another.
        let mut b = AutomatonBuilder::new();
        b.add("banner", 0, true, 10);
        b.add("banner", 2, false, 3);
        let auto = b.build();
        assert_eq!(hits(&auto, "/banner/"), vec![(0, 10), (2, 3)]);
        // Embedded occurrence: only the substring output fires.
        assert_eq!(hits(&auto, "xbannery"), vec![(2, 3)]);
    }

    #[test]
    fn insertion_order_is_preserved_within_a_node() {
        let mut b = AutomatonBuilder::new();
        b.add("ad", 0, false, 2);
        b.add("ad", 0, false, 0);
        b.add("ad", 0, false, 1);
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
        b.add("/ad.", 1, false, 7);
        let auto = b.build();
        assert_eq!(hits(&auto, "http://x.example/ad.gif"), vec![(1, 7)]);
        assert!(hits(&auto, "http://x.example/ad/gif").is_empty());
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
