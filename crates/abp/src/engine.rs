//! The matching engine: combines filter lists, indexes request filters by
//! token, and evaluates requests, documents, and element hiding.
//!
//! ## Decision semantics (mirroring Adblock Plus)
//!
//! * If any **exception** filter matches a request, the request is
//!   allowed, *regardless of any blocking filter matches* (§2.1.1 of the
//!   paper).
//! * Otherwise, if any blocking filter matches, the request is blocked.
//! * A `$document` exception matching the top-level page disables *all*
//!   blocking on that page; `$elemhide` disables element hiding.
//! * An element is hidden when a `##` rule applies on the first-party
//!   domain and no `#@#` exception with the same selector applies.
//!
//! ## Instrumentation
//!
//! The paper's survey records *every* filter activation, not just the
//! final decision — including exceptions that "activate needlessly"
//! (match content no blocking filter would have blocked). The engine
//! therefore reports all matching filters on both sides.
//!
//! ## Compiled representation
//!
//! Filters are *added* into mutable builders, and the first match query
//! compiles them into an immutable, cache-friendly snapshot (rebuilt
//! lazily after further adds):
//!
//! * filter text, and the per-request subject URL, are interned
//!   ([`IStr`]) so recording an activation never copies string bytes;
//! * request filters with no `domain=` include list are filed under
//!   their rarest token in a [`TokenTable`] (keys in a byte arena, ids
//!   in CSR form, a hash index): a request looks each of its URL tokens
//!   up once. The *untokenized* ones compile into a literal-anchor
//!   [`Automaton`](crate::anchors::Automaton), so a wildcard-tail filter
//!   is scanned only when its longest literal actually occurs (filters
//!   with no extractable anchor stay in a tiny always-scan tail);
//! * anchorless *sitekey* filters (`@@$sitekey=K,document`: 25 of the
//!   paper's whitelist, §4) are filed under each of their keys, so only
//!   a request presenting one of those keys ever evaluates them;
//! * *restricted* request filters (a non-empty `domain=` include list:
//!   89% of the paper's whitelist, Fig 4) stay out of that table and
//!   automaton and sit behind a **first-party gate**: their ids are
//!   filed under their include domains in the [`HostIndex`], and the
//!   request's first party finds the ones whose `domain=` names it or a
//!   parent domain in one walk, so a filter whose `domain=` already
//!   rules it out is never a candidate, whatever the URL says;
//! * candidates canonicalize to ascending filter-id (list insertion)
//!   order — one sort+dedup of a short id vector — so evaluation order
//!   is a pure function of the subscribed lists, not of index layout,
//!   and a masked subscription subset sees exactly the order its own
//!   compiled engine would produce;
//! * `$document`/`$elemhide` page gates are allow request filters, so
//!   the document request runs the same candidate stage and evaluates
//!   only its gate candidates; `domain=`-scoped element rules are filed
//!   in the same [`HostIndex`], with precompiled selector-cancellation
//!   links, so page-level queries touch only plausible rules and never
//!   build a per-query selector set;
//! * the hiding outcome depends on the host only through its *plan
//!   key* (the deepest element-rule domain it matches) and on the
//!   tenant only through its *class* (the tenant's bits among the lists
//!   with element rules that can apply under that key), so resolved
//!   plans are memoized per `(plan key, class)` in one table whose
//!   capacity is fixed by the compiled lists.

use crate::activation::{Activation, MatchKind};
use crate::anchors::{Automaton, AutomatonBuilder, HostIndex, HostIndexBuilder, TokenTable};
use crate::filter::{ElementFilter, FilterAction, FilterBody, RequestFilter};
use crate::intern::IStr;
use crate::list::{FilterList, ListSource};
use crate::pattern::Element;
use crate::request::Request;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The engine's verdict on a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// No filter matched; the request proceeds.
    NoMatch,
    /// A blocking filter matched and no exception overrode it.
    Block,
    /// At least one exception matched (overriding any blocks).
    AllowedByException,
}

/// Outcome of evaluating one request: the decision plus every activation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// Final verdict.
    pub decision: Decision,
    /// All filter activations, blocking and exception.
    pub activations: Vec<Activation>,
}

impl RequestOutcome {
    /// Whether the request would be fetched.
    pub fn is_allowed(&self) -> bool {
        self.decision != Decision::Block
    }

    /// Whether a matched `$donottrack` filter asks the browser to send a
    /// `DNT: 1` header with this request (Appendix A.4: sent "as long as
    /// there is no matching exception rule with a 'donottrack' option").
    pub fn send_do_not_track(&self) -> bool {
        let requested = self
            .activations
            .iter()
            .any(|a| a.kind == MatchKind::BlockRequest && a.donottrack);
        let excepted = self
            .activations
            .iter()
            .any(|a| a.kind.is_exception() && a.donottrack);
        requested && !excepted
    }

    /// Exceptions that activated *needlessly*: they matched even though no
    /// blocking filter would have blocked the request (§5 of the paper).
    pub fn needless_exceptions(&self) -> impl Iterator<Item = &Activation> {
        let any_block = self
            .activations
            .iter()
            .any(|a| a.kind == MatchKind::BlockRequest);
        self.activations
            .iter()
            .filter(move |a| a.kind.is_exception() && !any_block)
    }
}

/// Page-level gates derived from `$document` / `$elemhide` exceptions and
/// sitekey filters evaluated against the top-level document request.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DocumentStatus {
    /// Activations of exceptions with the `document` option: the whole
    /// page is allowlisted (nothing is blocked or hidden).
    pub document_allow: Vec<Activation>,
    /// Activations of exceptions with the `elemhide` option: element
    /// hiding is disabled on the page.
    pub elemhide_allow: Vec<Activation>,
}

impl DocumentStatus {
    /// Whether all blocking is disabled on this page.
    pub fn whole_page_allowed(&self) -> bool {
        !self.document_allow.is_empty()
    }

    /// Whether element hiding is disabled on this page.
    pub fn hiding_disabled(&self) -> bool {
        self.whole_page_allowed() || !self.elemhide_allow.is_empty()
    }
}

/// An element-hiding selector in force on a page, or an exception that
/// cancels one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HidingOutcome {
    /// Selectors that will hide matching elements, with their source rule.
    /// Selectors are interned ([`IStr`]): building an outcome bumps a
    /// reference count per rule instead of copying selector bytes, and
    /// the serialized form is unchanged (a plain JSON string).
    ///
    /// The list sits behind an `Arc` so that the engine's precomputed
    /// generic outcome (served to every domain with no scoped rules) is
    /// shared rather than deep-cloned: a clone is two reference-count
    /// bumps regardless of rule count. `Arc<Vec<_>>` derefs to a slice,
    /// so iteration and indexing read exactly like the plain `Vec`.
    pub active: std::sync::Arc<Vec<(IStr, Activation)>>,
    /// Element-exception rules applicable on this domain (they produce an
    /// activation only when the selector matches an element — the caller
    /// owning the DOM decides).
    pub exceptions: std::sync::Arc<Vec<(IStr, Activation)>>,
}

#[derive(Debug, Clone)]
struct StoredRequestFilter {
    filter: RequestFilter,
    /// Interned verbatim filter line, shared with every activation.
    raw: IStr,
    source: ListSource,
    /// Subscription-set bitmask: which list slots carry this filter.
    /// A filter is visible to a tenant iff `mask & tenant != 0`.
    mask: u64,
}

#[derive(Debug, Clone)]
struct StoredElementRule {
    rule: ElementFilter,
    /// Interned verbatim rule line, shared with every activation.
    raw: IStr,
    /// Interned selector (activation subject), shared likewise.
    selector: IStr,
    source: ListSource,
    /// Subscription-set bitmask, as on [`StoredRequestFilter`].
    mask: u64,
}

/// Mutable token-bucketed index over the request filters that have no
/// `domain=` include list, used while filters are being added.
/// [`Compiled::build`] compiles its buckets into the [`TokenTable`] and
/// its untokenized filters into the anchor automaton.
#[derive(Debug, Default, Clone)]
struct TokenIndexBuilder {
    by_token: HashMap<String, Vec<u32>>,
    untokenized: Vec<u32>,
}

impl TokenIndexBuilder {
    fn insert(&mut self, id: u32, tokens: &[String]) {
        // Pick the rarest token (fewest existing entries; ties broken by
        // longer token, then first).
        let mut best: Option<&String> = None;
        for t in tokens {
            best = match best {
                None => Some(t),
                Some(b) => {
                    let cb = self.by_token.get(b.as_str()).map_or(0, Vec::len);
                    let ct = self.by_token.get(t.as_str()).map_or(0, Vec::len);
                    if ct < cb || (ct == cb && t.len() > b.len()) {
                        Some(t)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        match best {
            Some(t) => self.by_token.entry(t.clone()).or_default().push(id),
            None => self.untokenized.push(id),
        }
    }
}

/// Output groups of the request automaton. Tail groups carry a *rank*
/// into the side's untokenized list and fire on any substring
/// occurrence of the filter's longest literal anchor.
const GROUP_BLOCK_TAIL: u8 = 0;
const GROUP_ALLOW_TAIL: u8 = 1;
/// Required-literal group: the value is a bit lane (< [`LIT_LANES`]),
/// and a hit means "some literal bucketed into this lane occurs in the
/// URL". The same scan that yields tail candidates also accumulates the
/// lane mask, so the prefilter costs no extra pass.
const GROUP_LIT: u8 = 2;

/// Bit width of the required-literal mask. Distinct tail-filter
/// literals are assigned lanes round-robin (`index % LIT_LANES`), so
/// lane collisions can only cause false *admits* (two literals sharing
/// a lane make the mask easier to satisfy), never false rejects — the
/// prefilter stays sound at any tail size.
const LIT_LANES: u32 = 128;

/// Monotonic tail-path counters, shared by clones of a compiled
/// snapshot (relaxed atomics: these feed rates in bench output, not
/// cross-thread ordering).
#[derive(Debug, Default)]
struct TailCounters {
    prefilter_checked: AtomicU64,
    prefilter_rejected: AtomicU64,
}

/// Snapshot of the engine's tail-optimization counters: how hard the
/// required-literal prefilter and the hiding-plan memo are working,
/// and the compile-time shape of the first-party gate and the token
/// table. See [`Engine::tail_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TailStats {
    /// Untokenized tail candidates that reached the required-literal
    /// mask check. Request and document queries share the candidate
    /// stage, so both count.
    pub prefilter_checked: u64,
    /// Of those, candidates rejected by the mask without touching
    /// `Pattern::matches`.
    pub prefilter_rejected: u64,
    /// `hiding_for_domain` / `hiding_refs_for_domain` queries answered.
    pub hiding_queries: u64,
    /// Queries served from an already-built hiding plan (the rest built
    /// and memoized one).
    pub hiding_plan_hits: u64,
    /// Plans the memo dropped to make room: a full set of its ways
    /// gives up its least recently used plan.
    pub hiding_plan_evictions: u64,
    /// Plans the memo holds now.
    pub hiding_plans: u64,
    /// Most plans the memo can hold: a small multiple of the plan keys
    /// (element-rule domains, plus the root), fixed at compile time.
    pub hiding_plan_cap: u64,
    /// Request filters behind the first-party gate (non-empty `domain=`
    /// include list).
    pub restricted_filters: u64,
    /// Distinct include domains the gate indexes them under.
    pub restricted_domains: u64,
    /// Most filters under one include domain: what a request from that
    /// first party hands to `Filter::matches` at the least. A list that
    /// defeats the gate (everything restricted to one site) shows here.
    pub restricted_bucket_max: u64,
    /// Distinct tokens the token table files tokenized filters under.
    pub token_count: u64,
    /// Most filters (block and allow) under one token: the most one URL
    /// token can hand to evaluation. A list whose filters all share a
    /// token shows here.
    pub token_bucket_max: u64,
}

/// A compiled hiding plan: everything both hiding entry points return,
/// resolved once per plan key and tenant class and memoized in the
/// [`PlanMemo`]. The subjects of a hiding outcome are selectors, not
/// hosts, so the content is host-independent given the matched-domain
/// set — serving a plan is a host-index walk plus refcount bumps.
#[derive(Debug, Clone)]
struct HidingPlan {
    /// `(rule id, action)` — applicable exceptions first, then
    /// surviving hide rules: the `hiding_refs_for_domain` order.
    refs: Arc<Vec<(u32, FilterAction)>>,
    /// The owned-outcome form served by `hiding_for_domain`.
    outcome: HidingOutcome,
}

/// Ways per set of the [`PlanMemo`].
const PLAN_WAYS: usize = 4;

/// One memoized plan: its plan key, its tenant class, the plan.
type PlanSlot = Option<(u32, u64, HidingPlan)>;

/// The hiding-plan memo: finished plans keyed by `(plan key, class)`,
/// in sets of [`PLAN_WAYS`] ways, each set most recently used first. It
/// holds at most [`PLAN_WAYS`] × `sets`, the plan-key count doubled and
/// rounded up to a power of two (the root is a plan key, so at least
/// two) — fixed when the snapshot compiles, so the union view's one
/// class per key fills at most an eighth of the ways and no stream of
/// tenant masks can grow it.
#[derive(Debug, Default)]
struct PlanMemo {
    /// Allocated on the first hiding query.
    slots: Vec<PlanSlot>,
    sets: usize,
    /// Queries, the ones a memoized plan answered, and plans dropped to
    /// make room (each its set's least recently used).
    queries: u64,
    hits: u64,
    evictions: u64,
}

impl PlanMemo {
    /// The set `(key, class)` lives in, and its way there, if any.
    fn set(&mut self, key: u32, class: u64) -> (&mut [PlanSlot], Option<usize>) {
        if self.slots.is_empty() {
            self.slots.resize_with(self.sets * PLAN_WAYS, || None);
        }
        let h = ((u64::from(key) << 32) ^ class).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let set =
            &mut self.slots[((h >> 32) as usize & (self.sets - 1)) * PLAN_WAYS..][..PLAN_WAYS];
        let way = set
            .iter()
            .position(|w| matches!(w, Some((k, c, _)) if (*k, *c) == (key, class)));
        (set, way)
    }

    /// The plan for `(key, class)`, moved to the front of its set.
    fn get(&mut self, key: u32, class: u64) -> Option<HidingPlan> {
        self.queries += 1;
        let (set, way) = self.set(key, class);
        set[..=way?].rotate_right(1);
        let plan = set[0].as_ref().map(|(_, _, plan)| plan.clone());
        self.hits += 1;
        plan
    }

    /// Put `plan` at the front of its set, in place of an equal plan a
    /// racing query built or else of the set's least recently used one.
    fn insert(&mut self, key: u32, class: u64, plan: HidingPlan) {
        let (set, way) = self.set(key, class);
        set[..=way.unwrap_or(PLAN_WAYS - 1)].rotate_right(1);
        let evicted = way.is_none() && set[0].is_some();
        set[0] = Some((key, class, plan));
        self.evictions += u64::from(evicted);
    }
}

/// One sitekey's anchorless filters, as ranks into the lists whose
/// always-scan share they would otherwise be: `block_untok` and
/// `allow_untok`.
#[derive(Debug, Clone, Default)]
struct SitekeyRanks {
    block: Vec<u32>,
    allow: Vec<u32>,
}

/// The immutable matching snapshot compiled from the engine's builders:
/// the token table, the tail anchor automaton, the host index (the
/// first-party gate, element-rule scopes and hiding-plan keys), and
/// precompiled selector-cancellation links. The `$document`/`$elemhide`
/// gate has no index of its own: its filters are allow request
/// filters, found by the same candidate stage.
#[derive(Debug, Clone)]
struct Compiled {
    /// Both sides' token buckets: the candidates a URL token hands over.
    tokens: TokenTable,
    /// One automaton over the anchors and required literals of every
    /// untokenized request filter without a `domain=` include list,
    /// both sides. Empty when there are none.
    request_auto: Automaton,
    /// Every registered domain: the first-party gate's restricted
    /// request filters (block and allow alike, under each of their
    /// include domains; restricted filters are in no other request
    /// index), the scoped element rules, and the hiding-plan keys.
    hosts: HostIndex,
    /// Untokenized block/allow filter ids, insertion order. Tail-group
    /// automaton hits are ranks into these lists; merging hit ranks
    /// with the always-scan ranks and sorting restores insertion order.
    block_untok: Vec<u32>,
    allow_untok: Vec<u32>,
    /// Ranks (not ids) of untokenized filters with no extractable
    /// anchor: scanned on every request (subject to the
    /// required-literal mask below).
    block_always: Vec<u32>,
    allow_always: Vec<u32>,
    /// Required-literal lane masks, indexed by untokenized rank: every
    /// literal of the filter's pattern was assigned a lane, and a
    /// candidate survives only if the URL scan saw all of its lanes
    /// (`seen & mask == mask`). Anchor-hostile filters whose literals
    /// never occur are rejected without touching `Pattern::matches`.
    block_tail_req: Vec<u128>,
    allow_tail_req: Vec<u128>,
    /// Anchorless sitekey filters (`@@$sitekey=K,document` and kin),
    /// filed under each of their keys instead of in the always-scan
    /// lists above. Such a filter matches only a request whose verified
    /// key is in its list, compared exactly, so only a request
    /// presenting key K takes K's ranks: a request without a key takes
    /// none.
    sitekeyed: HashMap<String, SitekeyRanks>,
    /// Element rules with no `domain=` include list: applicable on every
    /// domain (subject to excludes, re-checked at query time). Built in
    /// id order, so already sorted.
    elem_generic: Vec<u32>,
    /// CSR per element rule: for a hide rule, the ids of every
    /// element-exception rule sharing its selector. A hide rule is
    /// cancelled on a domain iff any linked exception applies there —
    /// no per-query selector set needed.
    cancel_starts: Vec<u32>,
    cancel_ids: Vec<u32>,
    /// The lists with generic element rules. With the lists of the rules
    /// that name a domain on a plan key's chain, these are all whose
    /// element rules can apply on a host with that key: a tenant's
    /// hiding *class* under the key is its bits among them, and tenants
    /// of one class see the same plan.
    generic_mask: u64,
    /// Hiding plans, keyed by `(plan key, class)`; behind an `Arc` so
    /// snapshot clones share one memo.
    plans: Arc<Mutex<PlanMemo>>,
    /// Tail counters (the prefilter's reject rate); `Arc` so snapshot
    /// clones keep one set of running totals.
    counters: Arc<TailCounters>,
}

impl Compiled {
    fn build(engine: &Engine) -> Compiled {
        engine.compiles.fetch_add(1, Ordering::Relaxed);
        // Tokenized side: one table entry per bucket token, both sides'
        // buckets in insertion order.
        let (block_tokens, allow_tokens) = (
            &engine.block_builder.by_token,
            &engine.allow_builder.by_token,
        );
        let mut tokens = TokenTable::default();
        for (token, block) in block_tokens {
            let allow = allow_tokens.get(token).map_or(&[][..], Vec::as_slice);
            tokens.add(token, block, allow);
        }
        for (token, allow) in allow_tokens {
            if !block_tokens.contains_key(token) {
                tokens.add(token, &[], allow);
            }
        }
        let mut auto = AutomatonBuilder::new();
        // Untokenized tail: anchor what we can, always-scan the rest —
        // and give every tail filter a required-literal lane mask.
        // Each distinct literal (case-folded: `url_lower` is the scan
        // subject, and a matching pattern's literals all occur in it
        // contiguously, even under `match-case`) gets a one-byte-or-
        // longer automaton pattern in GROUP_LIT carrying its lane; the
        // filter's mask is the OR of its literals' lanes.
        let mut lit_bits: HashMap<String, u32> = HashMap::new();
        let tail = |untok: &[u32],
                    group: u8,
                    auto: &mut AutomatonBuilder,
                    lit_bits: &mut HashMap<String, u32>,
                    req_masks: &mut Vec<u128>|
         -> Vec<u32> {
            let mut always = Vec::new();
            for (rank, &id) in untok.iter().enumerate() {
                let sf = &engine.request_filters[id as usize];
                match sf.filter.pattern.anchor() {
                    Some(a) => auto.add(&a, group, rank as u32),
                    None => always.push(rank as u32),
                }
                let mut mask = 0u128;
                for e in &sf.filter.pattern.elements {
                    if let Element::Literal(lit) = e {
                        let lower = lit.to_ascii_lowercase();
                        let next = lit_bits.len() as u32 % LIT_LANES;
                        let bit = *lit_bits.entry(lower.clone()).or_insert_with(|| {
                            auto.add(&lower, GROUP_LIT, next);
                            next
                        });
                        mask |= 1u128 << bit;
                    }
                }
                req_masks.push(mask);
            }
            always
        };
        let mut block_tail_req = Vec::new();
        let mut allow_tail_req = Vec::new();
        let mut block_always = tail(
            &engine.block_builder.untokenized,
            GROUP_BLOCK_TAIL,
            &mut auto,
            &mut lit_bits,
            &mut block_tail_req,
        );
        let mut allow_always = tail(
            &engine.allow_builder.untokenized,
            GROUP_ALLOW_TAIL,
            &mut auto,
            &mut lit_bits,
            &mut allow_tail_req,
        );

        // First-party gate. `DomainConstraint::allows` requires the first
        // party to be same-or-subdomain of an include entry, which is
        // exactly "the entry is one of the host's label-boundary
        // suffixes" — so the host-index walk yields a superset of the
        // filters whose `domain=` admits the request (excludes are left
        // to `matches`). `allows` compares case-insensitively and the
        // index does not, so it folds its keys, and `with_host_lower`
        // folds the host at query time.
        let mut hosts = HostIndexBuilder::default();
        for (id, sf) in engine.request_filters.iter().enumerate() {
            for d in &sf.filter.options.domains.include {
                hosts.gate(d, id as u32);
            }
        }

        // Anchorless sitekey filters leave the always-scan lists for the
        // index under each of their keys (`sitekey=A|B` under both). A
        // rank keeps its list's meaning, so a keyed request merges its
        // key's ranks into the same sort+dedup as the always-scan ones.
        let mut sitekeyed: HashMap<String, SitekeyRanks> = HashMap::new();
        let mut file_by_key =
            |always: &mut Vec<u32>, ids: &[u32], side: fn(&mut SitekeyRanks) -> &mut Vec<u32>| {
                always.retain(|&rank| {
                    let keys = &engine.request_filters[ids[rank as usize] as usize]
                        .filter
                        .options
                        .sitekeys;
                    for key in keys {
                        side(sitekeyed.entry(key.clone()).or_default()).push(rank);
                    }
                    keys.is_empty()
                })
            };
        file_by_key(&mut block_always, &engine.block_builder.untokenized, |s| {
            &mut s.block
        });
        file_by_key(&mut allow_always, &engine.allow_builder.untokenized, |s| {
            &mut s.allow
        });

        // Element rules: generic ones in one id-ordered list, scoped ones
        // under their include domains. Every domain an element rule
        // names, includes and excludes alike, is a plan key, so
        // `applies_on` resolves identically for all hosts sharing one.
        let mut elem_generic = Vec::new();
        let mut generic_mask = 0u64;
        for (id, sr) in engine.element_rules.iter().enumerate() {
            let domains = &sr.rule.domains;
            if domains.include.is_empty() {
                elem_generic.push(id as u32);
                generic_mask |= sr.mask;
            }
            for d in &domains.include {
                hosts.scope(d, id as u32, sr.mask);
            }
            for d in &domains.exclude {
                hosts.exclude(d, sr.mask);
            }
        }
        let hosts = hosts.build();
        // Selector-cancellation links: hide rule → exception rules with
        // the same selector.
        let mut allow_by_selector: HashMap<&str, Vec<u32>> = HashMap::new();
        for (id, sr) in engine.element_rules.iter().enumerate() {
            if sr.rule.action == FilterAction::Allow {
                allow_by_selector
                    .entry(sr.rule.selector.as_str())
                    .or_default()
                    .push(id as u32);
            }
        }
        let mut cancel_starts = Vec::with_capacity(engine.element_rules.len() + 1);
        let mut cancel_ids = Vec::new();
        cancel_starts.push(0u32);
        for sr in &engine.element_rules {
            if sr.rule.action == FilterAction::Block {
                if let Some(links) = allow_by_selector.get(sr.rule.selector.as_str()) {
                    cancel_ids.extend_from_slice(links);
                }
            }
            cancel_starts.push(cancel_ids.len() as u32);
        }

        let plan_keys = (0..hosts.len() as u32)
            .filter(|&e| hosts.plan_key(e) == e)
            .count();

        Compiled {
            tokens,
            request_auto: auto.build(),
            block_untok: engine.block_builder.untokenized.clone(),
            allow_untok: engine.allow_builder.untokenized.clone(),
            block_always,
            allow_always,
            block_tail_req,
            allow_tail_req,
            sitekeyed,
            elem_generic,
            cancel_starts,
            cancel_ids,
            hosts,
            generic_mask,
            plans: Arc::new(Mutex::new(PlanMemo {
                sets: (2 * plan_keys).next_power_of_two(),
                ..PlanMemo::default()
            })),
            counters: Arc::new(TailCounters::default()),
        }
    }

    /// The anchorless sitekey filters `req`'s verified key files, if it
    /// presents one that any filter names.
    fn keyed_ranks(&self, req: &Request) -> Option<&SitekeyRanks> {
        self.sitekeyed.get(req.verified_sitekey.as_deref()?)
    }

    /// The plan memo, locked. It only ever holds finished plans — a
    /// plan is built outside the lock and moved in whole — so a guard
    /// that a panicking thread poisoned is safe to take over.
    fn lock_plans(&self) -> std::sync::MutexGuard<'_, PlanMemo> {
        self.plans.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Reusable per-thread allocations for `match_request` evaluations: the
/// candidate hit buffers. Both sides canonicalize to sorted, deduped
/// filter-id order before evaluation, so no separate dedup state is
/// needed.
#[derive(Debug, Default)]
struct MatchScratch {
    /// Token-table hits (filter ids), URL-token order; after the
    /// canonicalization step, the merged id-ordered candidate list.
    block_hits: Vec<u32>,
    allow_hits: Vec<u32>,
    /// Tail automaton hits (ranks into the untokenized lists); merged
    /// with the always-scan ranks, then sorted back to insertion order.
    block_tail: Vec<u32>,
    allow_tail: Vec<u32>,
    /// First-party gate hits (restricted filter ids, both sides), deepest
    /// include domain first.
    gate_hits: Vec<u32>,
    /// The evaluated matches of the last request, for the callers that
    /// build [`Activation`]s from them.
    matched: Vec<(u32, MatchKind)>,
}

impl MatchScratch {
    /// Start a new request: clears the hit buffers.
    fn begin(&mut self) {
        self.block_hits.clear();
        self.allow_hits.clear();
        self.block_tail.clear();
        self.allow_tail.clear();
        self.gate_hits.clear();
    }
}

thread_local! {
    /// Per-thread scratch so every `match_request` and
    /// `document_allowlist` call reuses the hit allocations of the last.
    static SCRATCH: RefCell<MatchScratch> = RefCell::new(MatchScratch::default());

    /// Per-thread lowercase scratch for first-party hosts on the
    /// hiding/element paths: normalize once per query and pass borrowed
    /// slices down, allocating nothing per lookup.
    static HOST_SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Run `f` on the lowercased form of `host`, borrowing `host` directly
/// when it is already lowercase (the common case: `Request` lowercases
/// at construction, and crawl callers pass registrable domains).
fn with_host_lower<R>(host: &str, f: impl FnOnce(&str) -> R) -> R {
    if !host.bytes().any(|b| b.is_ascii_uppercase()) {
        return f(host);
    }
    HOST_SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        s.clear();
        s.push_str(host);
        s.make_ascii_lowercase();
        f(&s)
    })
}

/// Visit the URL tokens (maximal `[a-z0-9%]` runs of length ≥ 2) of a
/// lowercased URL. The reference walk the debug assertion and the tests
/// hold [`TokenTable::for_each_hit`] to; requests go through the table.
#[cfg(any(test, debug_assertions))]
fn for_each_url_token(url_lower: &str, mut f: impl FnMut(&str)) {
    let bytes = url_lower.as_bytes();
    let mut start = None;
    for i in 0..=bytes.len() {
        // Spelled out rather than `anchors::is_token_byte`: the
        // reference shares no code with the table it checks.
        let tokenish = i < bytes.len() && matches!(bytes[i], b'a'..=b'z' | b'0'..=b'9' | b'%');
        match (tokenish, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                if i - s >= 2 {
                    f(&url_lower[s..i]);
                }
                start = None;
            }
            _ => {}
        }
    }
}

/// The filter-matching engine.
///
/// ```
/// use abp::{Decision, Engine, FilterList, ListSource, Request, ResourceType};
///
/// let blacklist = FilterList::parse(ListSource::EasyList, "||ads.example^$third-party\n");
/// let whitelist = FilterList::parse(
///     ListSource::AcceptableAds,
///     "@@||ads.example/acceptable/$domain=news.example\n",
/// );
/// let engine = Engine::from_lists([&blacklist, &whitelist]);
///
/// let req = Request::new(
///     "http://ads.example/acceptable/unit.js",
///     "news.example",
///     ResourceType::Script,
/// )
/// .unwrap();
/// let outcome = engine.match_request(&req);
/// assert_eq!(outcome.decision, Decision::AllowedByException);
/// assert_eq!(outcome.activations.len(), 2); // the block and the exception
/// ```
#[derive(Debug, Default)]
pub struct Engine {
    request_filters: Vec<StoredRequestFilter>,
    element_rules: Vec<StoredElementRule>,
    block_builder: TokenIndexBuilder,
    allow_builder: TokenIndexBuilder,
    /// Subscription slots assigned so far: each `add_list` call (and
    /// each run of standalone `add_filter` calls) claims the next bit.
    /// Slots past 63 all share bit 63 — see [`Engine::list_bit`].
    next_slot: u32,
    /// Whether a standalone-`add_filter` slot is currently open (the
    /// next `add_filter` joins it; an `add_list` closes it).
    loose_open: bool,
    /// The mask of the open standalone slot.
    loose_mask: u64,
    /// Lazily-compiled matching snapshot; reset whenever a filter is
    /// added (adding requires `&mut self`, so no query can be holding
    /// a reference into the old snapshot).
    compiled: OnceLock<Compiled>,
    /// How many times this engine and its clones ran [`Compiled::build`]
    /// (a statistic: relaxed, publishes nothing). See
    /// [`Engine::compile_count`].
    compiles: Arc<AtomicU64>,
}

impl Clone for Engine {
    fn clone(&self) -> Engine {
        Engine {
            request_filters: self.request_filters.clone(),
            element_rules: self.element_rules.clone(),
            block_builder: self.block_builder.clone(),
            allow_builder: self.allow_builder.clone(),
            next_slot: self.next_slot,
            loose_open: self.loose_open,
            loose_mask: self.loose_mask,
            // Carry the snapshot over when it exists; otherwise the
            // clone recompiles on first use.
            compiled: match self.compiled.get() {
                Some(c) => {
                    let lock = OnceLock::new();
                    let _ = lock.set(c.clone());
                    lock
                }
                None => OnceLock::new(),
            },
            compiles: Arc::clone(&self.compiles),
        }
    }
}

impl Engine {
    /// An engine with no filters.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Build an engine from filter lists.
    pub fn from_lists<'a>(lists: impl IntoIterator<Item = &'a FilterList>) -> Self {
        let mut e = Engine::new();
        for list in lists {
            e.add_list(list);
        }
        e.finalize();
        e
    }

    /// The subscription-mask bit for list slot `index` (the `index`-th
    /// `add_list` call): bit `index`, saturating at bit 63 — engines
    /// with more than 64 slots share the last bit, so masking degrades
    /// to coarser granularity, never to a missed filter.
    pub fn list_bit(index: usize) -> u64 {
        1u64 << index.min(63)
    }

    /// Subscription slots assigned so far (one per `add_list` call plus
    /// one per run of standalone `add_filter` calls).
    pub fn subscription_slots(&self) -> u32 {
        self.next_slot
    }

    /// Claim the next subscription slot's mask.
    fn claim_slot(&mut self) -> u64 {
        let mask = Engine::list_bit(self.next_slot as usize);
        self.next_slot = self.next_slot.saturating_add(1);
        mask
    }

    /// Add every filter of a list. Each call claims the next
    /// subscription slot: the list's filters are visible to exactly the
    /// tenants whose mask has that slot's bit set.
    pub fn add_list(&mut self, list: &FilterList) {
        let mask = self.claim_slot();
        self.loose_open = false;
        for f in list.filters() {
            self.add_filter_body(&f.body, &f.raw, list.source, mask);
        }
    }

    /// Add a single parsed filter. Consecutive standalone adds group
    /// into one implicit subscription slot (a custom-rules "list");
    /// the next `add_list` closes it.
    pub fn add_filter(&mut self, filter: &crate::Filter, source: ListSource) {
        if !self.loose_open {
            self.loose_mask = self.claim_slot();
            self.loose_open = true;
        }
        let mask = self.loose_mask;
        self.add_filter_body(&filter.body, &filter.raw, source, mask);
    }

    /// Eagerly compile the matching snapshot. Optional: the first query
    /// compiles on demand; calling this after the last `add_list` moves
    /// that cost to build time.
    pub fn finalize(&mut self) {
        let _ = self.compiled();
    }

    fn compiled(&self) -> &Compiled {
        self.compiled.get_or_init(|| Compiled::build(self))
    }

    /// How many times this engine — and every clone of it, which shares
    /// the counter — compiled its matching snapshot. One compiled core
    /// serving N tenant masks reads 1; the multi-tenant bench and the
    /// survey gate on that.
    pub fn compile_count(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    fn add_filter_body(&mut self, body: &FilterBody, raw: &str, source: ListSource, mask: u64) {
        // Invalidate the compiled snapshot; it re-materializes lazily.
        self.compiled = OnceLock::new();
        match body {
            FilterBody::Request(rf) => {
                let id = self.request_filters.len() as u32;
                // Restricted filters are indexed by first party at
                // compile time, not by URL token.
                if !rf.is_restricted() {
                    let tokens = rf.pattern.tokens();
                    match rf.action {
                        FilterAction::Block => self.block_builder.insert(id, &tokens),
                        FilterAction::Allow => self.allow_builder.insert(id, &tokens),
                    }
                }
                self.request_filters.push(StoredRequestFilter {
                    filter: rf.clone(),
                    raw: IStr::from(raw),
                    source,
                    mask,
                });
            }
            FilterBody::Element(ef) => {
                self.element_rules.push(StoredElementRule {
                    rule: ef.clone(),
                    raw: IStr::from(raw),
                    selector: IStr::from(ef.selector.as_str()),
                    source,
                    mask,
                });
            }
        }
    }

    /// Number of request filters loaded.
    pub fn request_filter_count(&self) -> usize {
        self.request_filters.len()
    }

    /// Number of element rules loaded.
    pub fn element_rule_count(&self) -> usize {
        self.element_rules.len()
    }

    /// Evaluate a request, returning the decision and all activations.
    pub fn match_request(&self, req: &Request) -> RequestOutcome {
        self.match_request_masked(req, u64::MAX)
    }

    /// Evaluate a request as one tenant: only filters whose
    /// subscription mask intersects `tenant` participate. The outcome
    /// is byte-identical to what an engine compiled from exactly the
    /// tenant's subscribed lists (in the same order) would return —
    /// candidates canonicalize to list-insertion order, and masking
    /// selects an ordered subsequence. `tenant == u64::MAX` is the
    /// union view (every list), `tenant == 0` is "no blocker".
    pub fn match_request_masked(&self, req: &Request, tenant: u64) -> RequestOutcome {
        SCRATCH.with(|s| self.match_request_with(req, tenant, &mut s.borrow_mut()))
    }

    /// [`Engine::match_request_masked`] without building the outcome:
    /// `matched` is cleared and receives each matching filter's id and
    /// how it matched, in the order the outcome lists its activations,
    /// and the decision is returned. [`Engine::request_filter_parts`]
    /// reads the rest of an activation off an id. Allocates nothing once
    /// `matched` and this thread's candidate buffers have grown.
    pub fn match_request_ids(
        &self,
        req: &Request,
        tenant: u64,
        matched: &mut Vec<(u32, MatchKind)>,
    ) -> Decision {
        SCRATCH.with(|s| self.match_ids_with(req, tenant, &mut s.borrow_mut(), matched))
    }

    /// What an activation of request filter `id` (an id from
    /// [`Engine::match_request_ids`]) records besides its kind and
    /// subject: the filter's verbatim text, its list, and whether it
    /// carries `donottrack`.
    pub fn request_filter_parts(&self, id: u32) -> (&str, ListSource, bool) {
        let sf = &self.request_filters[id as usize];
        (&sf.raw, sf.source, sf.filter.options.donottrack)
    }

    /// The candidate stage: leave in `scratch.block_hits` /
    /// `scratch.allow_hits` the ids of every filter that may match
    /// `req`, ascending and distinct. Tenant masks, options and patterns
    /// are the evaluation stage's business.
    fn collect_candidates(&self, req: &Request, scratch: &mut MatchScratch) {
        let compiled = self.compiled();
        scratch.begin();
        let MatchScratch {
            block_hits,
            allow_hits,
            block_tail,
            allow_tail,
            gate_hits,
            ..
        } = scratch;
        let url = req.url_lower.as_bytes();
        // Each URL token that is a bucket key hands over its bucket.
        compiled.tokens.for_each_hit(url, |block, allow| {
            block_hits.extend_from_slice(block);
            allow_hits.extend_from_slice(allow);
        });
        // One automaton pass finds the tail anchors and literal lanes
        // (none at all when the lists have no untokenized tail).
        let mut seen = 0u128;
        compiled.request_auto.scan(url, |group, value| match group {
            GROUP_BLOCK_TAIL => block_tail.push(value),
            GROUP_ALLOW_TAIL => allow_tail.push(value),
            _ => seen |= 1u128 << value,
        });
        // Tail hits are ranks into the untokenized lists; merging in the
        // always-scan ranks (and the presented sitekey's) and sorting
        // restores insertion order. The required-literal mask then drops
        // candidates missing a literal (order-preserving, so the
        // evaluation order is unchanged).
        block_tail.extend_from_slice(&compiled.block_always);
        allow_tail.extend_from_slice(&compiled.allow_always);
        if let Some(keyed) = compiled.keyed_ranks(req) {
            block_tail.extend_from_slice(&keyed.block);
            allow_tail.extend_from_slice(&keyed.allow);
        }
        block_tail.sort_unstable();
        block_tail.dedup();
        allow_tail.sort_unstable();
        allow_tail.dedup();
        let (bc, br) = self.prefilter_tail(
            req,
            seen,
            block_tail,
            &compiled.block_tail_req,
            &compiled.block_untok,
        );
        let (ac, ar) = self.prefilter_tail(
            req,
            seen,
            allow_tail,
            &compiled.allow_tail_req,
            &compiled.allow_untok,
        );
        if bc + ac > 0 {
            let c = &compiled.counters;
            c.prefilter_checked.fetch_add(bc + ac, Ordering::Relaxed);
            if br + ar > 0 {
                c.prefilter_rejected.fetch_add(br + ar, Ordering::Relaxed);
            }
        }
        // One walk of the first party through the host index: the
        // restricted filters whose include list names it or a parent
        // domain.
        let hosts = &compiled.hosts;
        let entry = with_host_lower(&req.first_party, |host| hosts.find(host));
        for e in hosts.chain(entry) {
            gate_hits.extend_from_slice(hosts.gate_ids(e));
        }

        #[cfg(debug_assertions)]
        {
            self.debug_assert_candidate_order(
                &req.url_lower,
                &self.block_builder,
                block_hits,
                block_tail,
                &compiled.block_untok,
            );
            self.debug_assert_candidate_order(
                &req.url_lower,
                &self.allow_builder,
                allow_hits,
                allow_tail,
                &compiled.allow_untok,
            );
            self.debug_assert_gate_hits(&req.first_party, gate_hits);
        }

        // Canonicalize both candidate streams to ascending filter-id
        // order: map tail ranks to ids, merge with the token hits and
        // this side's gate hits, sort, dedup (a URL repeating a token
        // handed its bucket over twice; a filter listed under two
        // matching include domains was collected twice). Id order is
        // list insertion order, so activations replay the subscribed
        // lists exactly as written, whichever index a filter came from —
        // and a masked (multi-tenant) evaluation of any subscription
        // subset yields an ordered subsequence of the full-engine order,
        // which is what makes one compiled core byte-equivalent to a
        // per-tenant build.
        block_hits.extend(block_tail.iter().map(|&r| compiled.block_untok[r as usize]));
        allow_hits.extend(allow_tail.iter().map(|&r| compiled.allow_untok[r as usize]));
        for &id in gate_hits.iter() {
            match self.request_filters[id as usize].filter.action {
                FilterAction::Block => block_hits.push(id),
                FilterAction::Allow => allow_hits.push(id),
            }
        }
        block_hits.sort_unstable();
        block_hits.dedup();
        allow_hits.sort_unstable();
        allow_hits.dedup();
    }

    fn match_request_with(
        &self,
        req: &Request,
        tenant: u64,
        scratch: &mut MatchScratch,
    ) -> RequestOutcome {
        let mut matched = std::mem::take(&mut scratch.matched);
        let decision = self.match_ids_with(req, tenant, scratch, &mut matched);
        // The subject URL is interned once per request and shared by all
        // of its activations — and not allocated at all on the no-match
        // path.
        let activations = match matched.first() {
            None => Vec::new(),
            Some(_) => {
                let subject = IStr::from(req.url.as_str());
                matched
                    .iter()
                    .map(|&(id, kind)| {
                        let sf = &self.request_filters[id as usize];
                        Activation {
                            filter: sf.raw.clone(),
                            source: sf.source,
                            kind,
                            subject: subject.clone(),
                            donottrack: sf.filter.options.donottrack,
                        }
                    })
                    .collect()
            }
        };
        scratch.matched = matched;
        RequestOutcome {
            decision,
            activations,
        }
    }

    /// The evaluation stage, the one loop every match runs: the
    /// candidates visible to `tenant` whose filter matches `req`, blocks
    /// then exceptions, each in filter-id order, into `matched`; and the
    /// decision they add up to.
    fn match_ids_with(
        &self,
        req: &Request,
        tenant: u64,
        scratch: &mut MatchScratch,
        matched: &mut Vec<(u32, MatchKind)>,
    ) -> Decision {
        matched.clear();
        if tenant == 0 {
            // No subscriptions: nothing can match, skip the scan.
            return Decision::NoMatch;
        }
        self.collect_candidates(req, scratch);
        let visible = |id: u32| {
            let sf = &self.request_filters[id as usize];
            (sf.mask & tenant != 0 && sf.filter.matches(req)).then_some(sf)
        };
        for &id in &scratch.block_hits {
            if visible(id).is_some() {
                matched.push((id, MatchKind::BlockRequest));
            }
        }
        let blocks = matched.len();
        for &id in &scratch.allow_hits {
            if let Some(sf) = visible(id) {
                let kind = if sf.filter.is_sitekey() {
                    MatchKind::SitekeyAllow
                } else {
                    MatchKind::AllowRequest
                };
                matched.push((id, kind));
            }
        }
        if matched.len() > blocks {
            Decision::AllowedByException
        } else if blocks > 0 {
            Decision::Block
        } else {
            Decision::NoMatch
        }
    }

    /// Drop tail candidates whose required-literal lanes were not all
    /// seen in the URL scan. Returns `(checked, rejected)`.
    ///
    /// Soundness: every literal of a matching pattern occurs
    /// (case-folded) contiguously in `url_lower`, so a missing lane
    /// proves the pattern cannot match; lane collisions only ever make
    /// a mask easier to satisfy. Debug builds assert the invariant
    /// directly: a rejected candidate's pattern must not match.
    fn prefilter_tail(
        &self,
        req: &Request,
        seen: u128,
        tail: &mut Vec<u32>,
        req_masks: &[u128],
        untok: &[u32],
    ) -> (u64, u64) {
        #[cfg(not(debug_assertions))]
        let _ = (req, untok);
        let before = tail.len() as u64;
        tail.retain(|&r| {
            let need = req_masks[r as usize];
            let pass = seen & need == need;
            #[cfg(debug_assertions)]
            if !pass {
                let sf = &self.request_filters[untok[r as usize] as usize];
                assert!(
                    !sf.filter
                        .pattern
                        .matches_prepared(&req.url_lower, req.url.as_str()),
                    "required-literal prefilter rejected a matching pattern {:?} on {:?}",
                    sf.filter.pattern.raw,
                    req.url
                );
            }
            pass
        });
        (before, before - tail.len() as u64)
    }

    /// The reference walk: the buckets of `url_lower`'s tokens read
    /// from the builder's map, in URL-token order, a repeated token's
    /// bucket once per occurrence.
    #[cfg(any(test, debug_assertions))]
    fn reference_token_walk(url_lower: &str, builder: &TokenIndexBuilder) -> Vec<u32> {
        let mut ids = Vec::new();
        for_each_url_token(url_lower, |t| {
            if let Some(bucket) = builder.by_token.get(t) {
                ids.extend_from_slice(bucket);
            }
        });
        ids
    }

    /// Debug-build guard on the URL-indexed half of the candidate
    /// stream (filters with no `domain=` include list; restricted ones
    /// come from the first-party gate, see
    /// [`Engine::debug_assert_gate_hits`]). The token hits must *equal*
    /// the reference walk over the URL's tokens, and the merged tail
    /// must be an ordered subsequence of the untokenized list (the
    /// prefilter may drop entries, never reorder them). No hit may be a
    /// restricted filter: those are in the gate only.
    #[cfg(debug_assertions)]
    fn debug_assert_candidate_order(
        &self,
        url_lower: &str,
        builder: &TokenIndexBuilder,
        hits: &[u32],
        tail_ranks: &[u32],
        untok: &[u32],
    ) {
        assert_eq!(
            hits,
            Engine::reference_token_walk(url_lower, builder),
            "token-table hits must replay the bucket chain for {url_lower:?}"
        );
        // Ranks are sorted and unique, and index the insertion-ordered
        // untokenized list, so the mapped ids are automatically an
        // ordered subsequence; assert the preconditions.
        assert!(
            tail_ranks.windows(2).all(|w| w[0] < w[1]),
            "tail ranks must be strictly increasing"
        );
        assert!(
            tail_ranks.iter().all(|&r| (r as usize) < untok.len()),
            "tail rank out of range"
        );
        let from_url = hits
            .iter()
            .copied()
            .chain(tail_ranks.iter().map(|&r| untok[r as usize]));
        for id in from_url {
            assert!(
                !self.request_filters[id as usize].filter.is_restricted(),
                "restricted filter {id} is also indexed by URL"
            );
        }
    }

    /// Debug-build guard on the gate's half of the candidate stream:
    /// every hit is a restricted filter with an include entry the first
    /// party equals or is a subdomain of (the walk is exact on includes,
    /// not merely a superset). That no admissible filter is *missing* is
    /// the differential suite's job: checking it here would cost a pass
    /// over every restricted filter per request.
    #[cfg(debug_assertions)]
    fn debug_assert_gate_hits(&self, first_party: &str, gate_hits: &[u32]) {
        for &id in gate_hits {
            let include = &self.request_filters[id as usize]
                .filter
                .options
                .domains
                .include;
            assert!(
                include
                    .iter()
                    .any(|d| urlkit::is_same_or_subdomain_of(first_party, d)),
                "gate admitted filter {id} for first party {first_party:?} outside its domain= list"
            );
        }
    }

    /// Evaluate page-level gates (`$document`, `$elemhide`, sitekeys)
    /// against the top-level document request.
    ///
    /// Every gate filter is an allow request filter, so the request
    /// path's candidate stage finds it: by URL token, tail anchor,
    /// always-scan or the document's verified key, or through the
    /// first-party gate when it names `domain=` includes. The stage
    /// never reads the resource type. Of the allow candidates, in id
    /// order, only those carrying `$document` or `$elemhide` are
    /// evaluated, type aside.
    pub fn document_allowlist(&self, doc_req: &Request) -> DocumentStatus {
        self.document_allowlist_masked(doc_req, u64::MAX)
    }

    /// [`Engine::document_allowlist`] restricted to one tenant's
    /// subscribed lists: gates outside the tenant's mask are invisible,
    /// exactly as if the engine had been compiled without them.
    pub fn document_allowlist_masked(&self, doc_req: &Request, tenant: u64) -> DocumentStatus {
        let mut status = DocumentStatus::default();
        if tenant == 0 {
            return status;
        }
        let mut subject: Option<IStr> = None;
        SCRATCH.with(|s| {
            let scratch = &mut s.borrow_mut();
            self.collect_candidates(doc_req, scratch);
            for &id in &scratch.allow_hits {
                let sf = &self.request_filters[id as usize];
                let opts = &sf.filter.options;
                if !(opts.document || opts.elemhide)
                    || sf.mask & tenant == 0
                    || !sf.filter.matches_ignoring_type(doc_req)
                {
                    continue;
                }
                let kind = if sf.filter.is_sitekey() {
                    MatchKind::SitekeyAllow
                } else {
                    MatchKind::DocumentAllow
                };
                let subject = subject.get_or_insert_with(|| IStr::from(doc_req.url.as_str()));
                if opts.document {
                    status.document_allow.push(Activation {
                        filter: sf.raw.clone(),
                        source: sf.source,
                        kind,
                        subject: subject.clone(),
                        donottrack: opts.donottrack,
                    });
                }
                if opts.elemhide {
                    status.elemhide_allow.push(Activation {
                        filter: sf.raw.clone(),
                        source: sf.source,
                        kind: MatchKind::ElemhideAllow,
                        subject: subject.clone(),
                        donottrack: opts.donottrack,
                    });
                }
            }
        });
        status
    }

    /// Borrowed, allocation-light variant of [`Engine::hiding_for_domain`]
    /// for crawl-scale use: returns `(rule index, selector, action)` for
    /// every element rule applicable on the domain, with exceptions'
    /// selector cancellation already applied to the hide rules —
    /// applicable exceptions first, then surviving hide rules.
    ///
    /// Served from the same memoized plan as
    /// [`Engine::hiding_for_domain`]: after the first query for a plan
    /// key, this is a host-index walk plus one id→selector map over the
    /// cached ref list, with no `applies_on` or cancellation work.
    pub fn hiding_refs_for_domain(&self, first_party: &str) -> Vec<(u32, &str, FilterAction)> {
        self.hiding_refs_for_domain_masked(first_party, u64::MAX)
    }

    /// [`Engine::hiding_refs_for_domain`] restricted to one tenant's
    /// subscribed lists (element rules *and* the exceptions that cancel
    /// them are both mask-gated).
    pub fn hiding_refs_for_domain_masked(
        &self,
        first_party: &str,
        tenant: u64,
    ) -> Vec<(u32, &str, FilterAction)> {
        let compiled = self.compiled();
        with_host_lower(first_party, |host| {
            self.hiding_plan(compiled, host, tenant)
                .refs
                .iter()
                .map(|&(id, action)| {
                    (
                        id,
                        self.element_rules[id as usize].rule.selector.as_str(),
                        action,
                    )
                })
                .collect()
        })
    }

    /// The memoized hiding plan for `(host, tenant)`: the host reduces
    /// to its plan key (hosts sharing one match exactly the same
    /// element-rule domains) and the tenant to its class under that key
    /// (bits carrying no rule that can apply there cannot change
    /// hiding), and the plan is built on the first query for the pair.
    /// Returns by clone: a plan is three `Arc` bumps, not a selector
    /// copy.
    fn hiding_plan(&self, compiled: &Compiled, host_lower: &str, tenant: u64) -> HidingPlan {
        let key = compiled.hosts.plan_key(compiled.hosts.find(host_lower));
        let class = tenant & (compiled.generic_mask | compiled.hosts.lists(key));
        if let Some(plan) = compiled.lock_plans().get(key, class) {
            return plan;
        }
        // Build outside the lock (plan construction can be heavy); a
        // racing duplicate computes the identical plan and takes the
        // first one's way.
        let plan = self.build_hiding_plan(compiled, key, class);
        compiled.lock_plans().insert(key, class, plan.clone());
        plan
    }

    /// Resolve the full hiding state for the hosts of plan key `key`
    /// under `mask`: both the ref list and the owned outcome, in one
    /// pass over the applicable rules.
    fn build_hiding_plan(&self, compiled: &Compiled, key: u32, mask: u64) -> HidingPlan {
        let mut refs: Vec<(u32, FilterAction)> = Vec::new();
        let mut hidden: Vec<(u32, FilterAction)> = Vec::new();
        let mut active = Vec::with_capacity(compiled.elem_generic.len());
        let mut exceptions = Vec::new();
        self.for_each_applicable_element_rule(compiled, key, mask, |id, sr, action| {
            let (ref_bucket, out_bucket, kind) = match action {
                FilterAction::Allow => (&mut refs, &mut exceptions, MatchKind::AllowElement),
                FilterAction::Block => (&mut hidden, &mut active, MatchKind::HideElement),
            };
            ref_bucket.push((id, action));
            out_bucket.push((
                sr.selector.clone(),
                Activation {
                    filter: sr.raw.clone(),
                    source: sr.source,
                    kind,
                    subject: sr.selector.clone(),
                    donottrack: false,
                },
            ));
        });
        // Applicable exceptions first, then surviving hide rules — the
        // order the two-pass formulation produced.
        refs.append(&mut hidden);
        HidingPlan {
            refs: Arc::new(refs),
            outcome: HidingOutcome {
                active: Arc::new(active),
                exceptions: Arc::new(exceptions),
            },
        }
    }

    /// Core of plan construction: visit every element rule applicable
    /// on the hosts of plan key `key` — exceptions and surviving
    /// (un-cancelled) hide rules — in rule-id order. The key's own
    /// domain stands for them: it has that plan key itself (and the
    /// root's, the empty host, matches no registered domain).
    ///
    /// Candidates come from a single merge of the (pre-sorted) generic
    /// list with the rules scoped to plan key `key`'s chain — no
    /// per-query clone or full sort of the generic list — and hide-rule
    /// cancellation walks the precompiled selector links instead of
    /// building a selector hash set. An exception
    /// cancels a hide rule exactly when it `applies_on` the domain
    /// *and* is visible under `mask`, which also implies it was a
    /// candidate, so the link check is equivalent to the old
    /// candidate-set membership test on the masked rule subset.
    fn for_each_applicable_element_rule<'a>(
        &'a self,
        compiled: &Compiled,
        key: u32,
        mask: u64,
        mut visit: impl FnMut(u32, &'a StoredElementRule, FilterAction),
    ) {
        let hosts = &compiled.hosts;
        let host = hosts.domain(key);
        let mut scoped: Vec<u32> = (hosts.chain(key))
            .flat_map(|e| hosts.scope_ids(e))
            .copied()
            .collect();
        // A rule listed under several matching include domains appears
        // in several buckets; candidates are id-ordered and distinct
        // after this (generic and scoped are disjoint).
        scoped.sort_unstable();
        scoped.dedup();
        let generic = &compiled.elem_generic;
        let (mut gi, mut si) = (0usize, 0usize);
        loop {
            let id = match (generic.get(gi), scoped.get(si)) {
                (Some(&g), Some(&s)) => {
                    if g < s {
                        gi += 1;
                        g
                    } else {
                        si += 1;
                        s
                    }
                }
                (Some(&g), None) => {
                    gi += 1;
                    g
                }
                (None, Some(&s)) => {
                    si += 1;
                    s
                }
                (None, None) => break,
            };
            let sr = &self.element_rules[id as usize];
            if sr.mask & mask == 0 || !sr.rule.applies_on(host) {
                continue;
            }
            match sr.rule.action {
                FilterAction::Allow => visit(id, sr, FilterAction::Allow),
                FilterAction::Block => {
                    let lo = compiled.cancel_starts[id as usize] as usize;
                    let hi = compiled.cancel_starts[id as usize + 1] as usize;
                    let cancelled = compiled.cancel_ids[lo..hi].iter().any(|&aid| {
                        let ar = &self.element_rules[aid as usize];
                        ar.mask & mask != 0 && ar.rule.applies_on(host)
                    });
                    if !cancelled {
                        visit(id, sr, FilterAction::Block);
                    }
                }
            }
        }
    }

    /// Build the activation record for element rule `idx` (as returned by
    /// [`Engine::hiding_refs_for_domain`]).
    pub fn element_rule_activation(&self, idx: u32) -> Activation {
        let sr = &self.element_rules[idx as usize];
        Activation {
            filter: sr.raw.clone(),
            source: sr.source,
            kind: if sr.rule.action == FilterAction::Allow {
                MatchKind::AllowElement
            } else {
                MatchKind::HideElement
            },
            subject: sr.selector.clone(),
            donottrack: false,
        }
    }

    /// Iterate over every element-rule selector with its index (used by
    /// callers that pre-parse selectors once per engine).
    pub fn element_selectors(&self) -> impl Iterator<Item = (u32, &str)> {
        self.element_rules
            .iter()
            .enumerate()
            .map(|(i, sr)| (i as u32, sr.rule.selector.as_str()))
    }

    /// Compute the element-hiding state for a first-party domain:
    /// selectors that will hide elements, and the applicable exceptions.
    ///
    /// Served from the memoized plan of the host's plan key (the deepest
    /// element-rule domain it matches, see [`HostIndex`]): the first
    /// query for a key resolves the applicable rules and memoizes the
    /// outcome; every later query for any host sharing that key is a
    /// host-index walk plus two `Arc` bumps. All hosts of one key share
    /// one outcome allocation, generic, conditional and scoped rules
    /// alike.
    pub fn hiding_for_domain(&self, first_party: &str) -> HidingOutcome {
        let compiled = self.compiled();
        with_host_lower(first_party, |host| {
            self.hiding_plan(compiled, host, u64::MAX).outcome
        })
    }

    /// [`Engine::hiding_for_domain`] restricted to one tenant's
    /// subscribed lists. Byte-identical to an engine compiled from
    /// exactly the tenant's lists; served from the `(plan key, class)`
    /// memo, so repeat queries are a host-index walk plus `Arc` bumps.
    pub fn hiding_for_domain_masked(&self, first_party: &str, tenant: u64) -> HidingOutcome {
        let compiled = self.compiled();
        with_host_lower(first_party, |host| {
            self.hiding_plan(compiled, host, tenant).outcome
        })
    }

    /// Snapshot the tail-path counters: prefilter checked/rejected and
    /// hiding queries/plan hits, cumulative since the current compiled
    /// snapshot was built (clones of an engine share one set).
    pub fn tail_stats(&self) -> TailStats {
        let compiled = self.compiled();
        let c = &compiled.counters;
        let plans = compiled.lock_plans();
        let hosts = &compiled.hosts;
        let gate = || (0..hosts.len() as u32).map(|e| hosts.gate_ids(e).len());
        TailStats {
            prefilter_checked: c.prefilter_checked.load(Ordering::Relaxed),
            prefilter_rejected: c.prefilter_rejected.load(Ordering::Relaxed),
            hiding_queries: plans.queries,
            hiding_plan_hits: plans.hits,
            hiding_plan_evictions: plans.evictions,
            hiding_plans: plans.slots.iter().flatten().count() as u64,
            hiding_plan_cap: (plans.sets * PLAN_WAYS) as u64,
            restricted_filters: (self.request_filters.iter())
                .filter(|sf| sf.filter.is_restricted())
                .count() as u64,
            restricted_domains: gate().filter(|&n| n > 0).count() as u64,
            restricted_bucket_max: gate().max().unwrap_or(0) as u64,
            token_count: compiled.tokens.len() as u64,
            token_bucket_max: compiled.tokens.bucket_sizes().max().unwrap_or(0) as u64,
        }
    }

    /// How many filters the candidate stage hands to evaluation for
    /// `req`: `(block, allow)`, before tenant masks, options and
    /// patterns. A diagnostic that runs the stage once more; matching
    /// itself counts nothing.
    pub fn candidate_count(&self, req: &Request) -> (usize, usize) {
        SCRATCH.with(|s| {
            let scratch = &mut s.borrow_mut();
            self.collect_candidates(req, scratch);
            (scratch.block_hits.len(), scratch.allow_hits.len())
        })
    }

    /// The candidate stage's output for one request: `(block, allow)`
    /// filter ids.
    #[cfg(test)]
    pub(crate) fn candidate_ids(&self, req: &Request) -> (Vec<u32>, Vec<u32>) {
        let mut scratch = MatchScratch::default();
        self.collect_candidates(req, &mut scratch);
        (scratch.block_hits, scratch.allow_hits)
    }

    /// What [`Engine::candidate_ids`] must return, built without any
    /// compiled index: the reference token walk, each untokenized filter
    /// whose trigger holds (its anchor occurs in the URL; or, anchorless,
    /// it names no sitekey or the request's key) and all of whose
    /// literals occur, and the restricted filters whose include list
    /// names the first party or a parent — split by action, ascending.
    ///
    /// The literal test is exact where the engine's lanes are not: it
    /// equals the engine's prefilter only while the untokenized filters
    /// carry fewer than [`LIT_LANES`] distinct literals, so that no two
    /// share a lane.
    #[cfg(test)]
    pub(crate) fn reference_candidates(&self, req: &Request) -> (Vec<u32>, Vec<u32>) {
        let url = req.url_lower.as_str();
        let key = req.verified_sitekey.as_deref();
        let mut sides = [Vec::new(), Vec::new()];
        for (side, builder) in sides
            .iter_mut()
            .zip([&self.block_builder, &self.allow_builder])
        {
            side.extend(Engine::reference_token_walk(url, builder));
            side.extend(builder.untokenized.iter().copied().filter(|&id| {
                let filter = &self.request_filters[id as usize].filter;
                let pattern = &filter.pattern;
                let keys = &filter.options.sitekeys;
                let triggered = match pattern.anchor() {
                    Some(anchor) => url.contains(&anchor),
                    None => keys.is_empty() || keys.iter().any(|k| Some(k.as_str()) == key),
                };
                triggered
                    && pattern.elements.iter().all(|e| match e {
                        Element::Literal(lit) => url.contains(&lit.to_ascii_lowercase()),
                        _ => true,
                    })
            }));
        }
        let first_party = req.first_party.to_ascii_lowercase();
        for (id, sf) in self.request_filters.iter().enumerate() {
            let include = &sf.filter.options.domains.include;
            if include
                .iter()
                .any(|d| urlkit::is_same_or_subdomain_of(&first_party, &d.to_ascii_lowercase()))
            {
                let side = match sf.filter.action {
                    FilterAction::Block => 0,
                    FilterAction::Allow => 1,
                };
                sides[side].push(id as u32);
            }
        }
        for side in &mut sides {
            side.sort_unstable();
            side.dedup();
        }
        let [block, allow] = sides;
        (block, allow)
    }
}

/// Compile-time proof that a built `Engine` can be shared across worker
/// threads behind an `Arc` (the abpd service depends on this).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{FilterList, ListSource};
    use crate::options::ResourceType;
    use crate::request::Request;

    fn easylist() -> FilterList {
        FilterList::parse(
            ListSource::EasyList,
            "\
||adzerk.net^$third-party
||doubleclick.net^
||googleadservices.com^$third-party
/banner/ads/*
reddit.com###siteTable_organic
##.ButtonAd
",
        )
    }

    fn whitelist() -> FilterList {
        FilterList::parse(
            ListSource::AcceptableAds,
            "\
@@||adzerk.net/reddit/$subdocument,document,domain=reddit.com
@@||stats.g.doubleclick.net^$script,image
@@$sitekey=MFwwTESTKEY,document
reddit.com#@##siteTable_organic
#@##influads_block
",
        )
    }

    fn engine() -> Engine {
        Engine::from_lists([&easylist(), &whitelist()])
    }

    fn req(url: &str, first: &str, ty: ResourceType) -> Request {
        Request::new(url, first, ty).unwrap()
    }

    #[test]
    fn blocks_third_party_ad_request() {
        let e = engine();
        let out = e.match_request(&req(
            "http://ad.doubleclick.net/x.js",
            "example.com",
            ResourceType::Script,
        ));
        assert_eq!(out.decision, Decision::Block);
        assert!(!out.is_allowed());
        assert_eq!(out.activations.len(), 1);
        assert_eq!(out.activations[0].source, ListSource::EasyList);
    }

    #[test]
    fn exception_overrides_block_on_reddit() {
        // Paper §2.1: on reddit.com the Adzerk frame is blocked by
        // EasyList but allowed by the whitelist exception.
        let e = engine();
        let out = e.match_request(&req(
            "http://static.adzerk.net/reddit/ads.html",
            "www.reddit.com",
            ResourceType::Subdocument,
        ));
        assert_eq!(out.decision, Decision::AllowedByException);
        assert!(out.is_allowed());
        let kinds: Vec<MatchKind> = out.activations.iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&MatchKind::BlockRequest));
        assert!(kinds.contains(&MatchKind::AllowRequest));
        // Not needless: a blocking filter did match.
        assert_eq!(out.needless_exceptions().count(), 0);
    }

    #[test]
    fn same_request_blocked_elsewhere() {
        let e = engine();
        let out = e.match_request(&req(
            "http://static.adzerk.net/reddit/ads.html",
            "example.com",
            ResourceType::Subdocument,
        ));
        assert_eq!(out.decision, Decision::Block);
    }

    #[test]
    fn needless_exception_detected() {
        // stats.g.doubleclick.net^$script,image as an exception; EasyList's
        // ||doubleclick.net^ *does* block it, so not needless. But a
        // request only matched by the exception (no block) is needless.
        let mut e = Engine::new();
        let wl = FilterList::parse(ListSource::AcceptableAds, "@@||gstatic.com^$third-party\n");
        e.add_list(&wl);
        let out = e.match_request(&req(
            "https://fonts.gstatic.com/s/roboto.woff",
            "example.com",
            ResourceType::Other,
        ));
        assert_eq!(out.decision, Decision::AllowedByException);
        assert_eq!(out.needless_exceptions().count(), 1);
    }

    #[test]
    fn no_match_allows() {
        let e = engine();
        let out = e.match_request(&req(
            "https://example.com/style.css",
            "example.com",
            ResourceType::Stylesheet,
        ));
        assert_eq!(out.decision, Decision::NoMatch);
        assert!(out.activations.is_empty());
    }

    #[test]
    fn sitekey_document_gate() {
        let e = engine();
        // Parked domain presents the verified key on its document request.
        let doc = req("http://reddit.cm/", "reddit.cm", ResourceType::Document)
            .with_sitekey("MFwwTESTKEY");
        let status = e.document_allowlist(&doc);
        assert!(status.whole_page_allowed());
        assert!(status.hiding_disabled());
        assert_eq!(status.document_allow[0].kind, MatchKind::SitekeyAllow);

        // Without the key, no gate.
        let doc = req("http://reddit.cm/", "reddit.cm", ResourceType::Document);
        let status = e.document_allowlist(&doc);
        assert!(!status.whole_page_allowed());
        assert!(!status.hiding_disabled());
    }

    #[test]
    fn document_exception_restricted_to_domain() {
        let mut e = Engine::new();
        let wl = FilterList::parse(
            ListSource::AcceptableAds,
            "@@||ask.com^$elemhide\n@@||example.com^$document\n",
        );
        e.add_list(&wl);

        let doc = Request::document("http://www.ask.com/").unwrap();
        let status = e.document_allowlist(&doc);
        assert!(!status.whole_page_allowed());
        assert!(status.hiding_disabled());

        let doc = Request::document("http://example.com/").unwrap();
        let status = e.document_allowlist(&doc);
        assert!(status.whole_page_allowed());

        let doc = Request::document("http://other.com/").unwrap();
        let status = e.document_allowlist(&doc);
        assert!(!status.whole_page_allowed());
        assert!(!status.hiding_disabled());
    }

    #[test]
    fn element_hiding_with_exception() {
        let e = engine();
        // On reddit.com: #siteTable_organic is excepted, .ButtonAd active.
        let h = e.hiding_for_domain("www.reddit.com");
        let active: Vec<&str> = h.active.iter().map(|(s, _)| s.as_str()).collect();
        assert!(active.contains(&".ButtonAd"));
        assert!(!active.contains(&"#siteTable_organic"));
        let exc: Vec<&str> = h.exceptions.iter().map(|(s, _)| s.as_str()).collect();
        assert!(exc.contains(&"#siteTable_organic"));
        assert!(exc.contains(&"#influads_block"));

        // Elsewhere: #siteTable_organic rule doesn't apply anyway.
        let h = e.hiding_for_domain("example.com");
        let active: Vec<&str> = h.active.iter().map(|(s, _)| s.as_str()).collect();
        assert!(active.contains(&".ButtonAd"));
        assert!(!active.contains(&"#siteTable_organic"));
    }

    #[test]
    fn counts() {
        let e = engine();
        assert_eq!(e.request_filter_count(), 7);
        assert_eq!(e.element_rule_count(), 4);
    }

    #[test]
    fn donottrack_header_semantics() {
        // Appendix A.4: a matched `donottrack` filter sends the DNT
        // header unless an exception with `donottrack` also matches.
        let bl = FilterList::parse(ListSource::EasyList, "||tracker.example^$donottrack\n");
        let wl = FilterList::parse(
            ListSource::AcceptableAds,
            "@@||tracker.example/optout/$donottrack\n",
        );
        let e = Engine::from_lists([&bl, &wl]);

        let plain = req(
            "http://tracker.example/t.gif",
            "news.example",
            ResourceType::Image,
        );
        assert!(e.match_request(&plain).send_do_not_track());

        let excepted = req(
            "http://tracker.example/optout/t.gif",
            "news.example",
            ResourceType::Image,
        );
        assert!(!e.match_request(&excepted).send_do_not_track());

        let unrelated = req(
            "http://cdn.example/x.gif",
            "news.example",
            ResourceType::Image,
        );
        assert!(!e.match_request(&unrelated).send_do_not_track());
    }

    #[test]
    fn token_index_prunes_but_never_misses() {
        // Build a large engine and verify index-based matching agrees with
        // brute force on a sample of URLs.
        let mut text = String::new();
        for i in 0..500 {
            text.push_str(&format!("||adnet{i}.example^$third-party\n"));
        }
        text.push_str("/implicit-wildcards/\n");
        let list = FilterList::parse(ListSource::EasyList, &text);
        let e = Engine::from_lists([&list]);

        for i in (0..500).step_by(37) {
            let r = req(
                &format!("http://cdn.adnet{i}.example/x.gif"),
                "news.site",
                ResourceType::Image,
            );
            let out = e.match_request(&r);
            assert_eq!(out.decision, Decision::Block, "adnet{i}");
            assert_eq!(out.activations.len(), 1);
        }
        let r = req(
            "http://x.example/implicit-wildcards/y",
            "news.site",
            ResourceType::Image,
        );
        assert_eq!(e.match_request(&r).decision, Decision::Block);
    }

    #[test]
    fn wildcard_pattern_reachable_via_untokenized_bucket() {
        // A filter whose only literal parts touch wildcards has no tokens;
        // it must still match via the untokenized tail — here through the
        // always-scan list, since 1-byte literals yield no anchor.
        let list = FilterList::parse(ListSource::EasyList, "a*z\n");
        let e = Engine::from_lists([&list]);
        let r = req("http://q.example/a-z", "q.example", ResourceType::Image);
        assert_eq!(e.match_request(&r).decision, Decision::Block);
    }

    #[test]
    fn anchored_untokenized_filter_gated_by_its_literal() {
        // `*adframe*` has no index token but a 7-byte anchor: the
        // automaton admits it only when "adframe" occurs in the URL.
        let list = FilterList::parse(ListSource::EasyList, "*adframe*\n@@*adframe*okay*\n");
        let e = Engine::from_lists([&list]);
        let hit = req(
            "http://x.example/adframe/unit.gif",
            "n.site",
            ResourceType::Image,
        );
        assert_eq!(e.match_request(&hit).decision, Decision::Block);
        let excepted = req(
            "http://x.example/adframe/okay/unit.gif",
            "n.site",
            ResourceType::Image,
        );
        assert_eq!(
            e.match_request(&excepted).decision,
            Decision::AllowedByException
        );
        let miss = req(
            "http://x.example/ad-frame/unit.gif",
            "n.site",
            ResourceType::Image,
        );
        assert_eq!(e.match_request(&miss).decision, Decision::NoMatch);
    }

    #[test]
    fn match_case_untokenized_filter_found_via_folded_anchor() {
        // The anchor is matched case-folded against the lowercased URL;
        // the filter itself still matches case-sensitively.
        let list = FilterList::parse(ListSource::EasyList, "*AdUnit*$match-case\n");
        let e = Engine::from_lists([&list]);
        let exact = req(
            "http://x.example/AdUnit/x.js",
            "n.site",
            ResourceType::Script,
        );
        assert_eq!(e.match_request(&exact).decision, Decision::Block);
        let wrong_case = req(
            "http://x.example/adunit/x.js",
            "n.site",
            ResourceType::Script,
        );
        assert_eq!(e.match_request(&wrong_case).decision, Decision::NoMatch);
    }

    #[test]
    fn activations_replay_list_insertion_order() {
        // Filters crafted so one URL activates tokenized buckets and the
        // untokenized tail: the merged candidates must canonicalize to
        // filter-id (list insertion) order regardless of which index
        // each filter landed in — the order a per-list linear scan would
        // produce, and the order masked tenant subsets inherit.
        let list = FilterList::parse(
            ListSource::EasyList,
            "*tailtwo*\n||first.example^\n*tailone*\n/second/x/\n",
        );
        let e = Engine::from_lists([&list]);
        let r = req(
            "http://first.example/second/x/tailone-tailtwo.gif",
            "n.site",
            ResourceType::Image,
        );
        let out = e.match_request(&r);
        assert_eq!(out.decision, Decision::Block);
        let order: Vec<&str> = out.activations.iter().map(|a| a.filter.as_str()).collect();
        assert_eq!(
            order,
            vec!["*tailtwo*", "||first.example^", "*tailone*", "/second/x/"]
        );
    }

    #[test]
    fn document_gate_automaton_prunes_but_never_misses() {
        let mut wl = String::new();
        for i in 0..50 {
            wl.push_str(&format!("@@||pub{i}.example^$document\n"));
        }
        // A gate with no extractable anchor (pure sitekey) is found
        // through its key instead.
        wl.push_str("@@$sitekey=MFwwKEY,document\n");
        let e = Engine::from_lists([&FilterList::parse(ListSource::AcceptableAds, &wl)]);
        for i in [0usize, 17, 49] {
            let doc = Request::document(&format!("http://pub{i}.example/")).unwrap();
            let status = e.document_allowlist(&doc);
            assert!(status.whole_page_allowed(), "pub{i}");
            assert_eq!(status.document_allow.len(), 1);
            // The candidate stage hands over this host's gate and at
            // most `pub0`'s, filed under the longer token `example` when
            // neither of its tokens had a bucket yet: not all 51.
            let (block, allow) = e.candidate_count(&doc);
            assert!(block == 0 && allow <= 2, "pub{i}: {allow} candidates");
        }
        let doc = Request::document("http://other.example/")
            .unwrap()
            .with_sitekey("MFwwKEY");
        assert!(e.document_allowlist(&doc).whole_page_allowed());
        let doc = Request::document("http://other.example/").unwrap();
        assert!(!e.document_allowlist(&doc).whole_page_allowed());
    }

    #[test]
    fn hiding_cancellation_links_respect_exception_domains() {
        // The hide rule and its exception share a selector, but the
        // exception is scoped: cancellation must apply only where the
        // exception itself applies.
        let list = FilterList::parse(
            ListSource::EasyList,
            "##.ad-box\nnews.example#@#.ad-box\nnews.example##.promo\n",
        );
        let e = Engine::from_lists([&list]);
        let on_news = e.hiding_for_domain("news.example");
        let active: Vec<&str> = on_news.active.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(active, vec![".promo"]);
        assert_eq!(on_news.exceptions.len(), 1);

        let elsewhere = e.hiding_for_domain("blog.example");
        let active: Vec<&str> = elsewhere.active.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(active, vec![".ad-box"]);
        assert!(elsewhere.exceptions.is_empty());

        // Refs and owned outcomes agree, including on a host that needs
        // case folding for the host-index walk.
        let refs = e.hiding_refs_for_domain("NEWS.example");
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].2, FilterAction::Allow);
        assert_eq!(refs[1].1, ".promo");
    }

    #[test]
    fn incremental_add_after_matching_recompiles() {
        // The compiled snapshot must invalidate when filters are added
        // after the engine has already answered queries.
        let mut e = Engine::new();
        e.add_list(&FilterList::parse(
            ListSource::EasyList,
            "||first.example^\n",
        ));
        let r1 = req(
            "http://first.example/a.js",
            "news.site",
            ResourceType::Script,
        );
        assert_eq!(e.match_request(&r1).decision, Decision::Block);

        e.add_list(&FilterList::parse(
            ListSource::EasyList,
            "||second.example^\nsecond.example##.late-ad\n",
        ));
        let r2 = req(
            "http://second.example/b.js",
            "news.site",
            ResourceType::Script,
        );
        assert_eq!(e.match_request(&r2).decision, Decision::Block);
        assert_eq!(e.match_request(&r1).decision, Decision::Block);
        let h = e.hiding_for_domain("second.example");
        assert_eq!(h.active.len(), 1);

        // Document gates added late are seen too.
        e.add_list(&FilterList::parse(
            ListSource::AcceptableAds,
            "@@||second.example^$document\n",
        ));
        let doc = Request::document("http://second.example/").unwrap();
        assert!(e.document_allowlist(&doc).whole_page_allowed());
    }

    #[test]
    fn duplicate_url_tokens_do_not_duplicate_activations() {
        // A URL repeating the filter's bucket token hands that bucket
        // over three times; canonicalize must keep one candidate and the
        // evaluation one activation.
        let list = FilterList::parse(ListSource::EasyList, "||ads.example^\n");
        let e = Engine::from_lists([&list]);
        let r = req(
            "http://ads.example/ads/example/ads.gif",
            "news.site",
            ResourceType::Image,
        );
        assert_eq!(e.candidate_ids(&r), (vec![0], vec![]));
        let out = e.match_request(&r);
        assert_eq!(out.decision, Decision::Block);
        assert_eq!(out.activations.len(), 1);
    }

    #[test]
    fn token_table_finds_whole_url_tokens_only() {
        let list = FilterList::parse(
            ListSource::EasyList,
            "/js/\n/ads/\n@@/ads/ok/\n/banner^\n/banner/\n",
        );
        let e = Engine::from_lists([&list]);
        let ids = |url: &str| e.candidate_ids(&req(url, "news.site", ResourceType::Script));
        // Bucket tokens: "js" (two bytes), "ads" on both sides, "banner"
        // twice. An upper-case URL is looked up lowercased.
        assert_eq!(ids("HTTP://CDN.EXAMPLE/JS/X.JS"), (vec![0], vec![]));
        assert_eq!(ids("http://ads.example/ads/ok/"), (vec![1], vec![2]));
        assert_eq!(ids("http://x.example/banner"), (vec![3, 4], vec![]));
        // URL tokens that merely contain a bucket token — a digit or a
        // `%` is part of the run — hand nothing over.
        assert_eq!(ids("http://x.example/jsx/banners"), (vec![], vec![]));
        assert_eq!(ids("http://x.example/x/ads7/%20banner"), (vec![], vec![]));
        // `.`, `_`, `-` and non-ASCII bytes end a token.
        assert_eq!(
            ids("http://x.example/é/banner-top_js.é"),
            (vec![0, 3, 4], vec![])
        );
        let stats = e.tail_stats();
        assert_eq!(stats.token_count, 3);
        assert_eq!(stats.token_bucket_max, 2);
    }

    #[test]
    fn a_bucket_token_and_a_tail_anchor_on_one_string_both_fire() {
        // "banner" is the bucket token of `/banner/` and the tail anchor
        // of `*banner*`: a URL token "banner" finds both, an embedded
        // occurrence only the anchor.
        let list = FilterList::parse(ListSource::EasyList, "/banner/\n*banner*\n");
        let e = Engine::from_lists([&list]);
        let ids = |url: &str| e.candidate_ids(&req(url, "news.site", ResourceType::Image));
        assert_eq!(ids("http://x.example/banner/"), (vec![0, 1], vec![]));
        assert_eq!(ids("http://x.example/xbannery"), (vec![1], vec![]));
        assert_eq!(e.tail_stats().token_count, 1);
    }

    #[test]
    fn interned_activations_share_subject_and_filter_text() {
        let e = engine();
        let out = e.match_request(&req(
            "http://static.adzerk.net/reddit/ads.html",
            "www.reddit.com",
            ResourceType::Subdocument,
        ));
        assert!(out.activations.len() >= 2);
        // Every activation of one request shares one interned subject.
        for w in out.activations.windows(2) {
            assert_eq!(w[0].subject, w[1].subject);
        }
        assert_eq!(
            out.activations[0].subject,
            "http://static.adzerk.net/reddit/ads.html"
        );
    }

    #[test]
    fn element_rule_multi_domain_include_deduplicates() {
        // A rule whose include list has a domain and its subdomain is a
        // candidate via two buckets; it must still apply exactly once.
        let list = FilterList::parse(
            ListSource::EasyList,
            "reddit.com,www.reddit.com##.promoted\n",
        );
        let e = Engine::from_lists([&list]);
        let h = e.hiding_for_domain("www.reddit.com");
        assert_eq!(h.active.len(), 1);
        let refs = e.hiding_refs_for_domain("www.reddit.com");
        assert_eq!(refs.len(), 1);
    }

    // ---- multi-tenant masking ------------------------------------------

    #[test]
    fn list_bit_is_sequential_and_saturates() {
        assert_eq!(Engine::list_bit(0), 1);
        assert_eq!(Engine::list_bit(1), 2);
        assert_eq!(Engine::list_bit(62), 1 << 62);
        assert_eq!(Engine::list_bit(63), 1 << 63);
        // Lists past the mask width share the last bit instead of
        // wrapping or panicking.
        assert_eq!(Engine::list_bit(64), 1 << 63);
        assert_eq!(Engine::list_bit(1000), 1 << 63);
    }

    #[test]
    fn masked_request_match_equals_subset_compiled_engine() {
        let union = engine(); // easylist = bit 0, whitelist = bit 1
        assert_eq!(union.subscription_slots(), 2);
        let easy_only = Engine::from_lists([&easylist()]);
        let aa_only = Engine::from_lists([&whitelist()]);

        let requests = [
            req(
                "http://static.adzerk.net/reddit/ads.html",
                "www.reddit.com",
                ResourceType::Subdocument,
            ),
            req(
                "http://ad.doubleclick.net/x.js",
                "example.com",
                ResourceType::Script,
            ),
            req(
                "https://stats.g.doubleclick.net/t.gif",
                "news.example",
                ResourceType::Image,
            ),
            req(
                "https://example.com/style.css",
                "example.com",
                ResourceType::Stylesheet,
            ),
        ];
        for r in &requests {
            // Full mask == legacy union view.
            let masked = union.match_request_masked(r, u64::MAX);
            let legacy = union.match_request(r);
            assert_eq!(masked.decision, legacy.decision);
            assert_eq!(masked.activations, legacy.activations);

            // Bit 0 only == engine compiled from EasyList alone.
            let masked = union.match_request_masked(r, 0b01);
            let want = easy_only.match_request(r);
            assert_eq!(masked.decision, want.decision, "easylist-only on {r:?}");
            assert_eq!(masked.activations, want.activations);

            // Bit 1 only == exceptions-only engine.
            let masked = union.match_request_masked(r, 0b10);
            let want = aa_only.match_request(r);
            assert_eq!(masked.decision, want.decision, "aa-only on {r:?}");
            assert_eq!(masked.activations, want.activations);

            // Empty mask: the "no blocker" tenant never matches.
            let masked = union.match_request_masked(r, 0);
            assert_eq!(masked.decision, Decision::NoMatch);
            assert!(masked.activations.is_empty());
        }
    }

    #[test]
    fn masked_document_gate_respects_tenant() {
        let union = engine();
        let doc = req("http://reddit.cm/", "reddit.cm", ResourceType::Document)
            .with_sitekey("MFwwTESTKEY");
        // Sitekey gate lives in the whitelist (bit 1).
        assert!(union
            .document_allowlist_masked(&doc, u64::MAX)
            .whole_page_allowed());
        assert!(union
            .document_allowlist_masked(&doc, 0b10)
            .whole_page_allowed());
        assert!(!union
            .document_allowlist_masked(&doc, 0b01)
            .whole_page_allowed());
        let empty = union.document_allowlist_masked(&doc, 0);
        assert!(!empty.whole_page_allowed());
        assert!(!empty.hiding_disabled());
        assert!(empty.document_allow.is_empty());
    }

    #[test]
    fn masked_hiding_equals_subset_compiled_engine() {
        let union = engine();
        let easy_only = Engine::from_lists([&easylist()]);

        // The full mask is the union view's class: the same plan.
        let full = union.hiding_for_domain_masked("www.reddit.com", u64::MAX);
        let legacy = union.hiding_for_domain("www.reddit.com");
        assert_eq!(full.active, legacy.active);
        assert_eq!(full.exceptions, legacy.exceptions);

        // EasyList-only tenant sees #siteTable_organic active again:
        // the whitelist's `#@#` exception is outside its mask.
        let masked = union.hiding_for_domain_masked("www.reddit.com", 0b01);
        let want = easy_only.hiding_for_domain("www.reddit.com");
        assert_eq!(masked.active, want.active);
        assert_eq!(masked.exceptions, want.exceptions);
        let active: Vec<&str> = masked.active.iter().map(|(s, _)| s.as_str()).collect();
        assert!(active.contains(&"#siteTable_organic"));

        // Repeat query is served from the (plan key, class) memo and stays equal.
        let again = union.hiding_for_domain_masked("www.reddit.com", 0b01);
        assert_eq!(again.active, masked.active);

        // Empty mask hides nothing.
        let none = union.hiding_for_domain_masked("www.reddit.com", 0);
        assert!(none.active.is_empty());
        assert!(none.exceptions.is_empty());
    }

    /// Sixteen lists of generic, conditional and scoped element rules
    /// and exceptions under a few shared domains make 2^16 tenant
    /// classes per plan key: cycling through 10,000 of them must evict
    /// from the plan memo rather than grow it, and must not change an
    /// answer.
    #[test]
    fn hiding_plan_memo_stays_under_its_cap_while_masks_cycle() {
        const DOMAINS: [&str; 4] = ["a.example", "b.example", "sub.a.example", "c.example"];
        let lists: Vec<FilterList> = (0..16)
            .map(|i| {
                let (d, e) = (DOMAINS[i % 4], DOMAINS[(i + 1) % 4]);
                let text = format!(
                    "##.gen-{i}\n##.shared\n~{e}##.cond-{i}\n{d},{e}##.scoped-{i}\n\
                     {d}#@#.gen-{}\n{e}#@#.shared\n{d},~{e}#@#.scoped-{}\n",
                    (i + 1) % 16,
                    (i + 3) % 16
                );
                FilterList::parse(ListSource::Custom, &text)
            })
            .collect();
        let union = Engine::from_lists(&lists);
        let hosts = [
            "a.example",
            "x.sub.a.example",
            "b.example",
            "C.example",
            "other.example",
        ];
        for j in 1..=10_000u64 {
            // An odd multiplier permutes the 16-bit masks: all distinct.
            let mask = (j * 40_503) & 0xffff;
            for host in hosts {
                let got = union.hiding_for_domain_masked(host, mask);
                if j % 100 == 0 {
                    let subset: Vec<&FilterList> = (lists.iter().enumerate())
                        .filter(|&(i, _)| mask & (1 << i) != 0)
                        .map(|(_, l)| l)
                        .collect();
                    let want = Engine::from_lists(subset).hiding_for_domain(host);
                    assert_eq!(got, want, "{host} under {mask:#06x}");
                }
            }
            let st = union.tail_stats();
            assert!(st.hiding_plans <= st.hiding_plan_cap);
        }
        let st = union.tail_stats();
        // Five plan keys (four domains and the root): 16 sets of 4 ways.
        assert_eq!(st.hiding_plan_cap, 64);
        assert_eq!(st.hiding_plans, 64, "the memo fills up to its cap");
        assert!(st.hiding_plan_evictions > 0);
        assert_eq!(st.hiding_queries, 50_000);
        assert_eq!(
            st.hiding_queries - st.hiding_plan_hits,
            st.hiding_plans + st.hiding_plan_evictions,
            "every miss built a plan that is held or was evicted"
        );
    }

    #[test]
    fn loose_filters_share_one_slot_until_next_list() {
        let mut e = Engine::new();
        let f = |line: &str| crate::parser::parse_filter(line).unwrap();
        e.add_filter(&f("||a.example^"), ListSource::Custom); // loose slot: bit 0
        e.add_filter(&f("||b.example^"), ListSource::Custom); // same loose slot
        assert_eq!(e.subscription_slots(), 1);
        e.add_list(&FilterList::parse(ListSource::EasyList, "||c.example^\n")); // bit 1
        e.add_filter(&f("||d.example^"), ListSource::Custom); // new loose slot: bit 2
        assert_eq!(e.subscription_slots(), 3);

        let r = |host: &str| {
            req(
                &format!("http://{host}/x.js"),
                "news.example",
                ResourceType::Script,
            )
        };
        // Bit 0 covers both early loose filters and nothing else.
        assert_eq!(
            e.match_request_masked(&r("a.example"), 1).decision,
            Decision::Block
        );
        assert_eq!(
            e.match_request_masked(&r("b.example"), 1).decision,
            Decision::Block
        );
        assert_eq!(
            e.match_request_masked(&r("c.example"), 1).decision,
            Decision::NoMatch
        );
        assert_eq!(
            e.match_request_masked(&r("d.example"), 1).decision,
            Decision::NoMatch
        );
        // Bit 1 is the list; bit 2 the post-list loose filter.
        assert_eq!(
            e.match_request_masked(&r("c.example"), 2).decision,
            Decision::Block
        );
        assert_eq!(
            e.match_request_masked(&r("d.example"), 4).decision,
            Decision::Block
        );
    }

    #[test]
    fn compile_count_is_per_engine_and_shared_with_clones() {
        let e = engine();
        assert_eq!(e.compile_count(), 1, "from_lists compiles eagerly");
        // Many masked queries against one engine never recompile.
        for tenant in [u64::MAX, 0b01, 0b10, 0] {
            let _ = e.match_request_masked(
                &req(
                    "http://ad.doubleclick.net/x.js",
                    "example.com",
                    ResourceType::Script,
                ),
                tenant,
            );
            let _ = e.hiding_for_domain_masked("www.reddit.com", tenant);
        }
        assert_eq!(e.compile_count(), 1);
        // A clone carries the snapshot and the counter; another engine
        // compiling elsewhere does not move it.
        let mut clone = e.clone();
        let _ = engine();
        assert_eq!(clone.compile_count(), 1);
        // Adding to the clone invalidates its snapshot: the recompile
        // shows on both, since they share the count.
        clone.add_list(&FilterList::parse(ListSource::Custom, "||late.example^\n"));
        let _ = clone.match_request(&req(
            "http://late.example/x.js",
            "example.com",
            ResourceType::Script,
        ));
        assert_eq!(clone.compile_count(), 2);
        assert_eq!(e.compile_count(), 2);
    }

    // ---- first-party gate ----------------------------------------------

    #[test]
    fn gate_keeps_same_pattern_exceptions_off_other_sites_candidate_lists() {
        // The paper's whitelist in miniature: one pattern, a thousand
        // `domain=` restrictions. By URL token every one of them is a
        // candidate for every request to that host.
        let mut wl = String::new();
        for i in 0..1000 {
            wl.push_str(&format!(
                "@@||g.adnet.example/pagead/conversion/$image,domain=site{i}.example\n"
            ));
        }
        let bl = FilterList::parse(ListSource::EasyList, "||adnet.example^\n");
        let wl = FilterList::parse(ListSource::AcceptableAds, &wl);
        let e = Engine::from_lists([&bl, &wl]);
        let url = "http://g.adnet.example/pagead/conversion/1.gif";

        let listed = req(url, "www.site7.example", ResourceType::Image);
        let (block, allow) = e.candidate_ids(&listed);
        assert_eq!(block, vec![0]);
        assert!(allow.len() <= 2, "{} allow candidates", allow.len());
        let out = e.match_request(&listed);
        assert_eq!(out.decision, Decision::AllowedByException);
        assert_eq!(out.activations.len(), 2);
        assert!(out.activations[1].filter.ends_with("domain=site7.example"));

        let unlisted = req(url, "elsewhere.example", ResourceType::Image);
        let (block, allow) = e.candidate_ids(&unlisted);
        assert_eq!(block, vec![0]);
        assert!(allow.is_empty());
        assert_eq!(e.match_request(&unlisted).decision, Decision::Block);

        let stats = e.tail_stats();
        assert_eq!(stats.restricted_filters, 1000);
        assert_eq!(stats.restricted_domains, 1000);
        assert_eq!(stats.restricted_bucket_max, 1);
    }

    #[test]
    fn gate_handles_multi_include_excludes_and_both_sides() {
        let list = FilterList::parse(
            ListSource::Custom,
            "\
/unit/$domain=a.example|www.a.example
/unit/$domain=a.example|~shop.a.example
@@/unit/ok/$domain=A.example
/unit/$domain=~a.example
",
        );
        let e = Engine::from_lists([&list]);
        let on = |first: &str, path: &str| {
            let r = req(
                &format!("http://cdn.example{path}"),
                first,
                ResourceType::Image,
            );
            let out = e.match_request(&r);
            let ids: Vec<&str> = out.activations.iter().map(|a| a.filter.as_str()).collect();
            (out.decision, ids.join(" "))
        };
        // Both include entries match `www.a.example`: one activation.
        assert_eq!(
            on("www.a.example", "/unit/x.gif"),
            (
                Decision::Block,
                "/unit/$domain=a.example|www.a.example /unit/$domain=a.example|~shop.a.example"
                    .into()
            )
        );
        // The exclude under an include is `matches`' to enforce.
        assert_eq!(
            on("shop.a.example", "/unit/x.gif"),
            (
                Decision::Block,
                "/unit/$domain=a.example|www.a.example".into()
            )
        );
        // Restricted exception, mixed-case include, wins over both.
        assert_eq!(
            on("a.example", "/unit/ok/x.gif").0,
            Decision::AllowedByException
        );
        // Exclude-only filters are not restricted: still found by URL.
        assert_eq!(
            on("b.example", "/unit/x.gif"),
            (Decision::Block, "/unit/$domain=~a.example".into())
        );
        assert_eq!(e.tail_stats().restricted_filters, 3);
        assert_eq!(e.tail_stats().restricted_bucket_max, 3);
    }

    // ---- sitekey index --------------------------------------------------

    #[test]
    fn anchorless_sitekey_filters_are_candidates_only_under_their_keys() {
        let list = FilterList::parse(
            ListSource::AcceptableAds,
            "\
@@$sitekey=KA,document
@@$sitekey=KA|KB,image,document
@@||ads.example^$sitekey=KB
$sitekey=KB,image
@@$sitekey=KC,document,domain=park.example
*
",
        );
        let e = Engine::from_lists([&list]);
        let url = "http://ads.example/x.png";
        let plain = req(url, "park.example", ResourceType::Image);
        let keyed = |key: &str| plain.clone().with_sitekey(key);

        // No key, or a key no filter names: only the anchored sitekey
        // filter (its anchor is in the URL), the restricted one (behind
        // the first-party gate, key or no key) and the catch-all `*`.
        assert_eq!(e.candidate_ids(&plain), (vec![5], vec![2, 4]));
        assert_eq!(e.candidate_ids(&keyed("KZ")), (vec![5], vec![2, 4]));
        assert_eq!(e.candidate_count(&plain), (1, 2));
        assert_eq!(e.candidate_ids(&keyed("KC")), (vec![5], vec![2, 4]));
        // A multi-key filter is filed under both of its keys.
        assert_eq!(e.candidate_ids(&keyed("KA")), (vec![5], vec![0, 1, 2, 4]));
        assert_eq!(e.candidate_ids(&keyed("KB")), (vec![3, 5], vec![1, 2, 4]));
        assert_eq!(
            e.match_request(&keyed("KB")).decision,
            Decision::AllowedByException
        );
        assert_eq!(e.match_request(&keyed("KZ")).decision, Decision::Block);

        // The document side: each key's gates, in list order.
        let doc = |key: Option<&str>| {
            let d = Request::document("http://park.example/").unwrap();
            let d = match key {
                Some(k) => d.with_sitekey(k),
                None => d,
            };
            let status = e.document_allowlist(&d);
            status
                .document_allow
                .iter()
                .map(|a| a.filter.to_string())
                .collect::<Vec<_>>()
        };
        assert!(doc(None).is_empty());
        assert_eq!(
            doc(Some("KA")),
            ["@@$sitekey=KA,document", "@@$sitekey=KA|KB,image,document"]
        );
        assert_eq!(doc(Some("KB")), ["@@$sitekey=KA|KB,image,document"]);
        assert_eq!(
            doc(Some("KC")),
            ["@@$sitekey=KC,document,domain=park.example"]
        );
    }

    #[test]
    fn gate_folds_include_domains_the_parser_did_not() {
        // `DomainConstraint::allows` ignores case, and its fields are
        // public: a filter built or deserialized by hand may carry an
        // include entry the parser would have lowercased.
        let mut f = crate::parser::parse_filter("/unit/$domain=a.example").unwrap();
        let FilterBody::Request(rf) = &mut f.body else {
            panic!("request filter");
        };
        rf.options.domains.include = vec!["A.Example".to_string()];
        let mut e = Engine::new();
        e.add_filter(&f, ListSource::Custom);
        let r = req(
            "http://cdn.example/unit/x.gif",
            "www.a.example",
            ResourceType::Image,
        );
        assert_eq!(e.match_request(&r).decision, Decision::Block);
    }
}
