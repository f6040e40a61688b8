//! Indexed match engine: a three-tier layout — domain buckets, resource
//! -kind partitions, and an Aho–Corasick residual — in the style of
//! production adblock engines, over a flat arena representation.
//!
//! **Tier 1 — domain buckets.** Every `||` (domain-anchored) rule lands
//! in an open-addressed hash table keyed by its domain pattern; at match
//! time a URL only probes its own host suffixes (`a.b.de` probes
//! `a.b.de`, `b.de`, `de`), so bucket cost is bounded by the host's
//! label count, not the list size. The bucket probe is exhaustive and
//! exact: a domain rule matches a host iff the host equals the rule's
//! domain or ends with `.domain` (see [`host_matches_domain`]), which is
//! precisely the set of dot-boundary suffixes [`host_suffixes`]
//! enumerates. Rules whose domain part is empty or contains `*` can
//! never pass that host check, so they compile to `TAG_NEVER` instead
//! of a bucket entry.
//!
//! **Tier 2 — kind partitions.** Buckets *and* the residual are
//! partitioned by [`ResourceKind`]: a `$image` rule only exists in the
//! `Image` partition, so an image request never examines script-only
//! rules and vice versa. Kind-neutral rules would quadruplicate the
//! tables, so partitions with identical member sets are deduplicated —
//! a list with no kind-constrained rules builds exactly one partition
//! shared by all four kinds.
//!
//! **Tier 3 — residual automaton.** Start-anchored and substring rules
//! (the "residual" the buckets can't key) used to be scanned linearly —
//! the measured cliff at 10^4+ rules. Each such rule now contributes its
//! longest literal part as a needle to a shared byte-level Aho–Corasick
//! DFA ([`hbbtv_automaton::Automaton`]): one walk over the URL text
//! yields the only candidate rules whose pattern could possibly match
//! (a wildcard pattern needs *every* literal part present, so a missing
//! longest part disqualifies the rule), and only those few candidates
//! run the full backtracking/option check. All-wildcard patterns (no
//! literal part) go to a tiny always-check list.
//!
//! Rule options (`$third-party`, `$image`, …) are packed into each
//! rule's compiled record, so the entire match path runs without
//! touching the parsed `Rule` vector.

use crate::matcher::{RequestContext, UrlView};
use crate::rule::{split_domain_pattern, Anchor, Parts, ResourceKind, Rule};
use hbbtv_automaton::Automaton;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hasher;

/// A multiply-xor string hasher (the FxHash scheme) for the bucket and
/// host-table lookups. The keys are short domain labels from curated
/// filter lists — not attacker-controlled — so SipHash's DoS resistance
/// buys nothing here, while its per-lookup cost dominates small-list
/// matching (several suffix probes across five lists per exchange).
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = 0u64;
            for (i, &b) in rest.iter().enumerate() {
                tail |= u64::from(b) << (8 * i);
            }
            self.add(tail);
        }
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        // `str`'s Hash impl terminates with a 0xff byte; fold it in as
        // one word so short keys stay two multiplies total.
        self.add(u64::from(b));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Build-hasher for the engine's (build-time) hash tables.
type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// One FxHash of a byte string — the probe hash for [`BucketTable`] and
/// [`DomainSet`]. Both the builder and the (possibly deserialized)
/// prober use this same function, which is what makes the serialized
/// slot layout portable.
#[inline]
fn fx_hash(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// A byte range into an engine arena. Everything variable-width in the
/// engine — domains, pattern parts, needles, host domains — is a `Span`
/// into one string, so the whole structure is flat and
/// serialization-friendly.
#[derive(Debug, Clone, Copy)]
struct Span {
    off: u32,
    len: u32,
}

impl Span {
    #[inline]
    fn of(self, arena: &str) -> &str {
        &arena[self.off as usize..(self.off + self.len) as usize]
    }
}

/// Pushes `s` into the arena and returns its span.
fn intern(arena: &mut String, s: &str) -> Span {
    let off = u32::try_from(arena.len()).expect("arena below 4 GiB");
    arena.push_str(s);
    Span {
        off,
        len: s.len() as u32,
    }
}

/// Arena-backed part list for [`parts_match`](crate::rule::parts_match).
#[derive(Clone, Copy)]
struct ArenaParts<'p> {
    arena: &'p str,
    spans: &'p [Span],
}

impl<'p> Parts<'p> for ArenaParts<'p> {
    #[inline]
    fn split_first(self) -> Option<(&'p str, Self)> {
        self.spans.split_first().map(|(s, rest)| {
            (
                s.of(self.arena),
                ArenaParts {
                    arena: self.arena,
                    spans: rest,
                },
            )
        })
    }
}

// Compiled-rule tags.
const TAG_NEVER: u8 = 0;
const TAG_DOMAIN: u8 = 1;
const TAG_START: u8 = 2;
const TAG_SUBSTRING: u8 = 3;

// Compiled-rule flags: pattern anchoring plus the `$option` gates,
// packed so the match path never consults the parsed `Rule`.
const F_ANCHORED: u8 = 1 << 0;
const F_END_SEP: u8 = 1 << 1;
const F_THIRD_ONLY: u8 = 1 << 2;
const F_FIRST_ONLY: u8 = 1 << 3;
const F_IMAGE_ONLY: u8 = 1 << 4;
const F_SCRIPT_ONLY: u8 = 1 << 5;

/// One compiled rule: tag, flags, and the `*`-split literal parts as a
/// range into [`RuleIndex::parts`]. 8 bytes, fixed width.
///
/// * `TAG_DOMAIN` — `||dom` or `||dom/path…`: the host is proven by the
///   bucket probe; `parts` hold the optional path remainder (matched
///   against the post-host text; empty = no path, always matches).
/// * `TAG_START` — `|pattern`, anchored at the start of the URL text
///   (unless a leading `*` cleared `F_ANCHORED`).
/// * `TAG_SUBSTRING` — unanchored pattern over the URL text.
/// * `TAG_NEVER` — a rule that cannot match any host (empty or
///   wildcarded domain part), kept so rule indices stay aligned.
#[derive(Debug, Clone, Copy)]
struct MatcherRec {
    tag: u8,
    flags: u8,
    parts_len: u16,
    parts_start: u32,
}

/// An open-addressed domain → candidate-ids table with linear probing.
///
/// Capacity is a power of two at most half full; an empty slot has
/// `dom.off == u32::MAX`. Insertion order is rule order, so the slot
/// layout is deterministic — the property that makes the serialized
/// image byte-stable.
#[derive(Debug, Clone, Default)]
struct BucketTable {
    mask: u32,
    slots: Vec<BucketSlot>,
}

/// One [`BucketTable`] slot: the domain key and its candidate-id range
/// in the partition's flat `ids` vector.
#[derive(Debug, Clone, Copy)]
struct BucketSlot {
    dom: Span,
    ids_start: u32,
    ids_len: u32,
}

const EMPTY_SLOT: u32 = u32::MAX;

impl BucketTable {
    /// Builds the table from `(domain, ids)` groups (insertion order =
    /// first-occurrence order). Returns the table plus the flat ids.
    fn build(arena: &str, groups: &[(Span, Vec<u32>)]) -> (BucketTable, Vec<u32>) {
        if groups.is_empty() {
            return (BucketTable::default(), Vec::new());
        }
        let cap = (groups.len() * 2).next_power_of_two().max(4);
        let mask = (cap - 1) as u32;
        let mut slots = vec![
            BucketSlot {
                dom: Span {
                    off: EMPTY_SLOT,
                    len: 0
                },
                ids_start: 0,
                ids_len: 0,
            };
            cap
        ];
        let mut ids = Vec::new();
        for &(dom, ref group) in groups {
            let mut at = (fx_hash(dom.of(arena).as_bytes()) & u64::from(mask)) as usize;
            while slots[at].dom.off != EMPTY_SLOT {
                at = (at + 1) & mask as usize;
            }
            slots[at] = BucketSlot {
                dom,
                ids_start: ids.len() as u32,
                ids_len: group.len() as u32,
            };
            ids.extend_from_slice(group);
        }
        (BucketTable { mask, slots }, ids)
    }

    /// Probes for an exact domain key; returns the ids range.
    #[inline]
    fn get(&self, arena: &str, key: &str) -> Option<(u32, u32)> {
        if self.slots.is_empty() {
            return None;
        }
        let mut at = (fx_hash(key.as_bytes()) & u64::from(self.mask)) as usize;
        loop {
            let slot = &self.slots[at];
            if slot.dom.off == EMPTY_SLOT {
                return None;
            }
            if slot.dom.of(arena) == key {
                return Some((slot.ids_start, slot.ids_len));
            }
            at = (at + 1) & self.mask as usize;
        }
    }
}

/// Sentinel for "this partition has no residual automaton".
const NO_AUTOMATON: u32 = u32::MAX;

/// The per-resource-kind slice of the engine: this kind's domain
/// buckets plus its residual (automaton index + always-check list).
/// Partitions with identical member sets are shared across kinds via
/// [`RuleIndex::of_kind`].
#[derive(Debug, Clone, Default)]
struct Partition {
    table: BucketTable,
    /// Flat candidate-id lists the bucket slots point into; each
    /// bucket's ids ascend (rule order), preserving first-match-wins.
    ids: Vec<u32>,
    /// Index into [`RuleIndex::automatons`], or [`NO_AUTOMATON`].
    automaton: u32,
    /// Residual rules with no literal part (all-wildcard patterns):
    /// checked on every query, ascending.
    always: Vec<u32>,
}

/// Maps a [`ResourceKind`] to its partition slot.
#[inline]
fn kind_slot(kind: ResourceKind) -> usize {
    match kind {
        ResourceKind::Document => 0,
        ResourceKind::Script => 1,
        ResourceKind::Image => 2,
        ResourceKind::Other => 3,
    }
}

/// The index over one rule vector. Bucket entries, automaton candidate
/// sets, and the always lists store rule indices; candidates are
/// examined in ascending (list) order, which is what lets
/// [`RuleIndex::first_match`] reproduce the linear scan's
/// first-match-wins semantics.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleIndex {
    /// Every literal the engine reads: domains, pattern parts.
    arena: Box<str>,
    /// One compiled record per rule, index-aligned with the rule list.
    matchers: Vec<MatcherRec>,
    /// Flattened `*`-split literal parts, referenced by `matchers`.
    parts: Vec<Span>,
    /// Deduplicated kind partitions (≥ 1 once any rule exists).
    partitions: Vec<Partition>,
    /// `kind_slot` → index into `partitions`.
    of_kind: [u8; 4],
    /// Deduplicated residual automatons, shared across partitions.
    automatons: Vec<Automaton>,
}

thread_local! {
    /// Scratch for first-match candidate collection: the automaton
    /// reports candidates in text order, first-match needs id order.
    /// Thread-local so the match path stays allocation-free in steady
    /// state and `&self` across worker threads.
    static RESIDUAL_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

impl RuleIndex {
    pub(crate) fn build(rules: &[Rule]) -> Self {
        let mut arena = String::new();
        let mut matchers = Vec::with_capacity(rules.len());
        let mut parts: Vec<Span> = Vec::new();
        // Per-rule bucket/residual membership, gathered during compile.
        let mut domain_of: Vec<Option<Span>> = Vec::with_capacity(rules.len());
        let mut needle_of: Vec<Option<Span>> = Vec::with_capacity(rules.len());

        for rule in rules {
            let mut flags = 0u8;
            if rule.options.third_party_only {
                flags |= F_THIRD_ONLY;
            }
            if rule.options.first_party_only {
                flags |= F_FIRST_ONLY;
            }
            if rule.options.image_only {
                flags |= F_IMAGE_ONLY;
            }
            if rule.options.script_only {
                flags |= F_SCRIPT_ONLY;
            }

            let (tag, pattern, anchored) = match rule.anchor {
                Anchor::Domain => {
                    let (dom, path) = split_domain_pattern(&rule.pattern);
                    if dom.is_empty() || dom.contains('*') {
                        (TAG_NEVER, "", false)
                    } else {
                        domain_of.push(Some(intern(&mut arena, dom)));
                        needle_of.push(None);
                        (TAG_DOMAIN, path, true)
                    }
                }
                Anchor::Start => (TAG_START, rule.pattern.as_str(), true),
                Anchor::None => (TAG_SUBSTRING, rule.pattern.as_str(), false),
            };
            if tag != TAG_DOMAIN {
                domain_of.push(None);
                needle_of.push(None);
            }

            // Mirror `wildcard_match`/`wildcard_find` exactly: a leading
            // `*` unanchors, a trailing `*` swallows the end-separator.
            if anchored && !pattern.starts_with('*') {
                flags |= F_ANCHORED;
            }
            if rule.end_separator
                && !pattern.ends_with('*')
                && !(tag == TAG_DOMAIN && pattern.is_empty())
            {
                flags |= F_END_SEP;
            }

            let parts_start = parts.len() as u32;
            let mut longest: Option<Span> = None;
            for part in pattern.split('*').filter(|p| !p.is_empty()) {
                let span = intern(&mut arena, part);
                parts.push(span);
                if longest.is_none_or(|l| span.len > l.len) {
                    longest = Some(span);
                }
            }
            let parts_len = (parts.len() as u32 - parts_start) as u16;
            if matches!(tag, TAG_START | TAG_SUBSTRING) {
                *needle_of.last_mut().expect("pushed above") = longest;
            }
            matchers.push(MatcherRec {
                tag,
                flags,
                parts_len,
                parts_start,
            });
        }
        let arena: Box<str> = arena.into_boxed_str();

        // Kind membership sets. A rule constrained to both image and
        // script can match neither (a request has one kind) — exactly
        // as `options_allow` decides — so it joins no partition.
        let mut kind_domain: [Vec<u32>; 4] = Default::default();
        let mut kind_residual: [Vec<u32>; 4] = Default::default();
        for (i, rec) in matchers.iter().enumerate() {
            let i = u32::try_from(i).expect("filter lists stay below 2^32 rules");
            let in_kind = |slot: usize| match (
                rec.flags & F_IMAGE_ONLY != 0,
                rec.flags & F_SCRIPT_ONLY != 0,
            ) {
                (false, false) => true,
                (true, false) => slot == kind_slot(ResourceKind::Image),
                (false, true) => slot == kind_slot(ResourceKind::Script),
                (true, true) => false,
            };
            for slot in 0..4 {
                if !in_kind(slot) {
                    continue;
                }
                match rec.tag {
                    TAG_DOMAIN => kind_domain[slot].push(i),
                    TAG_START | TAG_SUBSTRING => kind_residual[slot].push(i),
                    _ => {}
                }
            }
        }

        // Deduplicate: kinds with identical member sets share one
        // partition; identical residual sets share one automaton.
        let mut partitions: Vec<Partition> = Vec::new();
        let mut of_kind = [0u8; 4];
        let mut automatons: Vec<Automaton> = Vec::new();
        let mut part_memo: HashMap<(Vec<u32>, Vec<u32>), u8, FxBuildHasher> = HashMap::default();
        let mut auto_memo: HashMap<Vec<u32>, u32, FxBuildHasher> = HashMap::default();
        for slot in 0..4 {
            let key = (kind_domain[slot].clone(), kind_residual[slot].clone());
            if let Some(&p) = part_memo.get(&key) {
                of_kind[slot] = p;
                continue;
            }

            // Buckets: group this kind's domain rules by domain key,
            // first-occurrence order, ids ascending within a group.
            let mut group_of: HashMap<&str, usize, FxBuildHasher> = HashMap::default();
            let mut groups: Vec<(Span, Vec<u32>)> = Vec::new();
            for &i in &kind_domain[slot] {
                let dom = domain_of[i as usize].expect("domain rule has a domain span");
                let at = *group_of.entry(dom.of(&arena)).or_insert_with(|| {
                    groups.push((dom, Vec::new()));
                    groups.len() - 1
                });
                groups[at].1.push(i);
            }
            let (table, ids) = BucketTable::build(&arena, &groups);

            // Residual: automaton over each rule's longest literal part;
            // literal-free rules go to the always list.
            let mut always = Vec::new();
            let mut auto_rules: Vec<u32> = Vec::new();
            for &i in &kind_residual[slot] {
                match needle_of[i as usize] {
                    Some(_) => auto_rules.push(i),
                    None => always.push(i),
                }
            }
            let automaton = if auto_rules.is_empty() {
                NO_AUTOMATON
            } else if let Some(&a) = auto_memo.get(&auto_rules) {
                a
            } else {
                let needles: Vec<(&[u8], u32)> = auto_rules
                    .iter()
                    .map(|&i| {
                        let span = needle_of[i as usize].expect("filtered above");
                        (span.of(&arena).as_bytes(), i)
                    })
                    .collect();
                automatons.push(Automaton::build(&needles));
                let a = (automatons.len() - 1) as u32;
                auto_memo.insert(auto_rules.clone(), a);
                a
            };

            let p = u8::try_from(partitions.len()).expect("at most 4 partitions");
            partitions.push(Partition {
                table,
                ids,
                automaton,
                always,
            });
            part_memo.insert(key, p);
            of_kind[slot] = p;
        }

        RuleIndex {
            arena,
            matchers,
            parts,
            partitions,
            of_kind,
            automatons,
        }
    }

    /// Total DFA states across this index's automatons (obs feed).
    pub(crate) fn automaton_states(&self) -> u64 {
        self.automatons
            .iter()
            .map(|a| u64::from(a.n_states()))
            .sum()
    }

    #[inline]
    fn partition(&self, kind: ResourceKind) -> &Partition {
        &self.partitions[self.of_kind[kind_slot(kind)] as usize]
    }

    #[inline]
    fn automaton_of(&self, part: &Partition) -> Option<&Automaton> {
        if part.automaton == NO_AUTOMATON {
            None
        } else {
            Some(&self.automatons[part.automaton as usize])
        }
    }

    #[inline]
    fn bucket_ids<'s>(&'s self, part: &'s Partition, suffix: &str) -> Option<&'s [u32]> {
        part.table
            .get(&self.arena, suffix)
            .map(|(start, len)| &part.ids[start as usize..(start + len) as usize])
    }

    /// Whether rule `i` fires on the view (packed option gate + compiled
    /// pattern). Zero allocations, no `Rule` access.
    #[inline]
    fn applies(&self, i: u32, view: &UrlView<'_>, ctx: RequestContext) -> bool {
        let m = self.matchers[i as usize];
        let f = m.flags;
        if (f & F_THIRD_ONLY != 0 && !ctx.third_party)
            || (f & F_FIRST_ONLY != 0 && ctx.third_party)
            || (f & F_IMAGE_ONLY != 0 && ctx.kind != ResourceKind::Image)
            || (f & F_SCRIPT_ONLY != 0 && ctx.kind != ResourceKind::Script)
        {
            return false;
        }
        let spans =
            &self.parts[m.parts_start as usize..m.parts_start as usize + m.parts_len as usize];
        // All-star patterns split into no parts and match everything,
        // as in the per-call path (`Domain` with no path likewise: the
        // bucket probe already proved the host).
        if spans.is_empty() {
            return m.tag != TAG_NEVER;
        }
        let parts = ArenaParts {
            arena: &self.arena,
            spans,
        };
        let text = match m.tag {
            TAG_DOMAIN => view.after_host(),
            _ => view.text,
        };
        crate::rule::parts_match(text, parts, f & F_ANCHORED != 0, f & F_END_SEP != 0)
    }

    /// The lowest-index rule that fires — identical to what a linear
    /// `rules.iter().find(..)` would report. Residual candidates come
    /// out of the automaton walk unordered, so they are sorted into id
    /// order first; each bucket's ids ascend, so the first hit per probe
    /// is that probe's minimum and later probes stop as soon as their
    /// indices pass the current best.
    pub(crate) fn first_match(&self, view: &UrlView<'_>, ctx: RequestContext) -> Option<u32> {
        if self.matchers.is_empty() {
            return None;
        }
        // One relaxed load when counting is off (the default); the
        // instrumented loops live in a separate cold copy so this hot
        // path compiles exactly as if the cells didn't exist.
        if crate::stats::enabled() {
            return self.first_match_counted(view, ctx);
        }
        let part = self.partition(ctx.kind);
        let mut best: Option<u32> = None;
        RESIDUAL_SCRATCH.with(|scratch| {
            let mut cand = scratch.borrow_mut();
            cand.clear();
            if let Some(auto) = self.automaton_of(part) {
                auto.for_each_match(view.text.as_bytes(), |id| cand.push(id));
            }
            cand.extend_from_slice(&part.always);
            cand.sort_unstable();
            cand.dedup();
            for &i in cand.iter() {
                if self.applies(i, view, ctx) {
                    best = Some(i);
                    break;
                }
            }
        });
        for suffix in host_suffixes(view.host) {
            if let Some(ids) = self.bucket_ids(part, suffix) {
                for &i in ids {
                    if best.is_some_and(|b| i >= b) {
                        break;
                    }
                    if self.applies(i, view, ctx) {
                        best = Some(i);
                        break;
                    }
                }
            }
        }
        best
    }

    /// [`RuleIndex::first_match`] with the global cells fed — same
    /// result, same probe order.
    #[cold]
    fn first_match_counted(&self, view: &UrlView<'_>, ctx: RequestContext) -> Option<u32> {
        let part = self.partition(ctx.kind);
        let (mut probes, mut candidates, mut residual_checks) = (0u64, 0u64, 0u64);
        let mut walks = 0u64;
        let mut best: Option<u32> = None;
        RESIDUAL_SCRATCH.with(|scratch| {
            let mut cand = scratch.borrow_mut();
            cand.clear();
            if let Some(auto) = self.automaton_of(part) {
                walks = 1;
                auto.for_each_match(view.text.as_bytes(), |id| cand.push(id));
            }
            cand.extend_from_slice(&part.always);
            cand.sort_unstable();
            cand.dedup();
            for &i in cand.iter() {
                residual_checks += 1;
                if self.applies(i, view, ctx) {
                    best = Some(i);
                    break;
                }
            }
        });
        for suffix in host_suffixes(view.host) {
            if let Some(ids) = self.bucket_ids(part, suffix) {
                probes += 1;
                for &i in ids {
                    if best.is_some_and(|b| i >= b) {
                        break;
                    }
                    candidates += 1;
                    if self.applies(i, view, ctx) {
                        best = Some(i);
                        break;
                    }
                }
            }
        }
        let distance = best.map(|_| candidates + residual_checks);
        crate::stats::note_query(probes, candidates, residual_checks, walks, distance);
        best
    }

    /// Whether any rule fires, in no particular order (used for the
    /// boolean `matches` path and for exception lists, where only
    /// existence matters). The automaton walk short-circuits on the
    /// first candidate that survives the full check.
    pub(crate) fn any_match(&self, view: &UrlView<'_>, ctx: RequestContext) -> bool {
        if self.matchers.is_empty() {
            return false;
        }
        if crate::stats::enabled() {
            return self.any_match_counted(view, ctx);
        }
        let part = self.partition(ctx.kind);
        if let Some(auto) = self.automaton_of(part) {
            let mut state = 0u32;
            for &b in view.text.as_bytes() {
                state = auto.step(state, b);
                for &id in auto.outputs(state) {
                    if self.applies(id, view, ctx) {
                        return true;
                    }
                }
            }
        }
        if part.always.iter().any(|&i| self.applies(i, view, ctx)) {
            return true;
        }
        host_suffixes(view.host).any(|suffix| {
            self.bucket_ids(part, suffix)
                .is_some_and(|ids| ids.iter().any(|&i| self.applies(i, view, ctx)))
        })
    }

    /// [`RuleIndex::any_match`] with the global cells fed — same
    /// result, same probe order.
    #[cold]
    fn any_match_counted(&self, view: &UrlView<'_>, ctx: RequestContext) -> bool {
        let part = self.partition(ctx.kind);
        let (mut probes, mut candidates, mut residual_checks) = (0u64, 0u64, 0u64);
        let mut walks = 0u64;
        let mut hit = false;
        if let Some(auto) = self.automaton_of(part) {
            walks = 1;
            let mut state = 0u32;
            'walk: for &b in view.text.as_bytes() {
                state = auto.step(state, b);
                for &id in auto.outputs(state) {
                    residual_checks += 1;
                    if self.applies(id, view, ctx) {
                        hit = true;
                        break 'walk;
                    }
                }
            }
        }
        hit =
            hit || part.always.iter().any(|&i| {
                residual_checks += 1;
                self.applies(i, view, ctx)
            }) || host_suffixes(view.host).any(|suffix| {
                self.bucket_ids(part, suffix).is_some_and(|ids| {
                    probes += 1;
                    ids.iter().any(|&i| {
                        candidates += 1;
                        self.applies(i, view, ctx)
                    })
                })
            });
        let distance = hit.then_some(candidates + residual_checks);
        crate::stats::note_query(probes, candidates, residual_checks, walks, distance);
        hit
    }
}

/// An open-addressed domain *set* over an arena — the hosts-list
/// counterpart of [`BucketTable`], sharing its hash and layout so it
/// serializes the same way.
#[derive(Debug, Clone, Default)]
pub(crate) struct DomainSet {
    arena: Box<str>,
    mask: u32,
    /// `(off, len)` spans; empty slots have `off == u32::MAX`.
    slots: Vec<Span>,
    len: u32,
}

impl DomainSet {
    /// Builds the set from deduplicated domains (callers sort for a
    /// deterministic slot layout).
    pub(crate) fn build(domains: &[String]) -> DomainSet {
        if domains.is_empty() {
            return DomainSet::default();
        }
        let mut arena = String::new();
        let spans: Vec<Span> = domains.iter().map(|d| intern(&mut arena, d)).collect();
        let arena: Box<str> = arena.into_boxed_str();
        let cap = (domains.len() * 2).next_power_of_two().max(4);
        let mask = (cap - 1) as u32;
        let mut slots = vec![
            Span {
                off: EMPTY_SLOT,
                len: 0
            };
            cap
        ];
        for span in spans {
            let mut at = (fx_hash(span.of(&arena).as_bytes()) & u64::from(mask)) as usize;
            while slots[at].off != EMPTY_SLOT {
                at = (at + 1) & mask as usize;
            }
            slots[at] = span;
        }
        DomainSet {
            arena,
            mask,
            slots,
            len: domains.len() as u32,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exact membership probe.
    #[inline]
    pub(crate) fn contains(&self, key: &str) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let mut at = (fx_hash(key.as_bytes()) & u64::from(self.mask)) as usize;
        loop {
            let slot = self.slots[at];
            if slot.off == EMPTY_SLOT {
                return false;
            }
            if slot.of(&self.arena) == key {
                return true;
            }
            at = (at + 1) & self.mask as usize;
        }
    }

    /// Whether `host` or any dot-boundary suffix of it is in the set —
    /// hosts-list semantics (a listed domain blocks its subdomains).
    #[inline]
    pub(crate) fn blocks_host(&self, host: &str) -> bool {
        !self.is_empty() && host_suffixes(host).any(|suffix| self.contains(suffix))
    }
}

/// The host itself plus every suffix starting after a dot:
/// `a.b.de` → `a.b.de`, `b.de`, `de`.
fn host_suffixes(host: &str) -> impl Iterator<Item = &str> {
    std::iter::successors(Some(host), |h| h.find('.').map(|i| &h[i + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_suffixes_walk_label_boundaries() {
        let got: Vec<&str> = host_suffixes("a.b.c.de").collect();
        assert_eq!(got, ["a.b.c.de", "b.c.de", "c.de", "de"]);
        let got: Vec<&str> = host_suffixes("de").collect();
        assert_eq!(got, ["de"]);
    }

    #[test]
    fn stats_count_probes_candidates_and_distances() {
        use crate::matcher::{FilterList, RequestContext};
        use crate::rule::ResourceKind;
        use hbbtv_net::Url;

        let list = FilterList::parse_adblock(
            "test",
            "||ads.example.de^\n||tracker.de^\n/telemetry/collect",
        );
        let ctx = RequestContext {
            third_party: true,
            kind: ResourceKind::Other,
        };
        let hit: Url = "http://pixel.ads.example.de/1x1.gif".parse().unwrap();
        let telem: Url = "http://static.content.de/telemetry/collect?x=1"
            .parse()
            .unwrap();

        crate::stats::reset();
        crate::stats::enable();
        assert!(list.matches(&hit, ctx));
        assert!(list.matches(&telem, ctx));
        crate::stats::disable();
        let stats = crate::stats::snapshot();

        // Other tests may race the global cells between enable and
        // disable, so assert lower bounds only.
        assert!(stats.queries >= 2, "both matches queried the index");
        assert!(stats.hits >= 2);
        assert!(
            stats.bucket_probes >= 1,
            "the hit URL probed its host-suffix bucket"
        );
        assert!(
            stats.residual_walks >= 2,
            "both queries walked the residual automaton"
        );
        assert!(
            stats.residual_checks >= 1,
            "the telemetry URL surfaced the residual rule as a candidate"
        );
        assert!(stats.first_match_distance.count >= 1);
        assert!(stats.rules_per_query() > 0.0);

        // Counting off again: the cells stay frozen.
        let before = crate::stats::snapshot().queries;
        let _ = list.matches(&hit, ctx);
        assert_eq!(crate::stats::snapshot().queries, before);
    }

    #[test]
    fn never_rules_stay_index_aligned() {
        let rules: Vec<Rule> = ["||/path-only", "||a*b.de^", "||real.de^"]
            .iter()
            .filter_map(|l| crate::rule::parse_adblock_line(l))
            .collect();
        assert_eq!(rules.len(), 3);
        let index = RuleIndex::build(&rules);
        assert_eq!(index.matchers.len(), 3);
        assert_eq!(index.matchers[0].tag, TAG_NEVER);
        assert_eq!(index.matchers[1].tag, TAG_NEVER);
        assert_eq!(index.matchers[2].tag, TAG_DOMAIN);
        // No kind-constrained rule -> one shared partition, one domain.
        assert_eq!(index.partitions.len(), 1);
        assert_eq!(index.of_kind, [0, 0, 0, 0]);
        let part = &index.partitions[0];
        assert_eq!(part.ids, vec![2]);
        assert!(index.bucket_ids(part, "real.de").is_some());
        assert!(index.bucket_ids(part, "fake.de").is_none());
        assert_eq!(part.automaton, NO_AUTOMATON);
        assert!(part.always.is_empty());
    }

    #[test]
    fn kind_partitions_separate_constrained_rules() {
        let rules: Vec<Rule> = ["||neutral.de^", "||pix.de^$image", "/lib$script", "/any"]
            .iter()
            .filter_map(|l| crate::rule::parse_adblock_line(l))
            .collect();
        let index = RuleIndex::build(&rules);
        // Document/Other share a partition; Image and Script differ.
        let doc = index.of_kind[kind_slot(ResourceKind::Document)];
        let other = index.of_kind[kind_slot(ResourceKind::Other)];
        let image = index.of_kind[kind_slot(ResourceKind::Image)];
        let script = index.of_kind[kind_slot(ResourceKind::Script)];
        assert_eq!(doc, other);
        assert_ne!(doc, image);
        assert_ne!(doc, script);
        assert_ne!(image, script);
        // The image partition buckets ["neutral.de", "pix.de"]; the
        // document partition only the neutral domain.
        let img_part = &index.partitions[image as usize];
        assert!(index.bucket_ids(img_part, "pix.de").is_some());
        let doc_part = &index.partitions[doc as usize];
        assert!(index.bucket_ids(doc_part, "pix.de").is_none());
        assert!(index.bucket_ids(doc_part, "neutral.de").is_some());
        // The script partition's residual automaton covers both
        // residual rules; the document partition's only "/any".
        let script_part = &index.partitions[script as usize];
        assert_ne!(script_part.automaton, NO_AUTOMATON);
        assert_ne!(doc_part.automaton, script_part.automaton);
    }

    #[test]
    fn residual_automaton_finds_only_real_candidates() {
        use crate::matcher::{FilterList, RequestContext};
        use crate::rule::ResourceKind;
        use hbbtv_net::Url;
        let lines: Vec<String> = (0..200).map(|i| format!("/frag{i}/")).collect();
        let list = FilterList::parse_adblock("t", &lines.join("\n"));
        let ctx = RequestContext {
            third_party: true,
            kind: ResourceKind::Other,
        };
        let hit: Url = "http://x.de/frag123/pixel".parse().unwrap();
        let miss: Url = "http://x.de/clean/path".parse().unwrap();
        assert!(list.matches(&hit, ctx));
        assert!(!list.matches(&miss, ctx));
        match list.matching_rule(&hit, ctx) {
            crate::matcher::MatchOutcome::Blocked(r) => assert_eq!(r.source, "/frag123/"),
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_only_rules_live_on_the_always_list() {
        let rules: Vec<Rule> = ["*", "/x"]
            .iter()
            .filter_map(|l| crate::rule::parse_adblock_line(l))
            .collect();
        assert_eq!(rules.len(), 2);
        let index = RuleIndex::build(&rules);
        assert_eq!(index.partitions[0].always, vec![0]);
    }

    #[test]
    fn domain_set_probes_and_suffix_walks() {
        let mut domains: Vec<String> = ["tracker.de", "ads.example.com"].map(String::from).to_vec();
        domains.sort();
        let set = DomainSet::build(&domains);
        assert_eq!(set.len(), 2);
        assert!(set.contains("tracker.de"));
        assert!(!set.contains("nottracker.de"));
        assert!(set.blocks_host("a.b.tracker.de"));
        assert!(set.blocks_host("ads.example.com"));
        assert!(!set.blocks_host("example.com"));
        assert!(!DomainSet::default().blocks_host("tracker.de"));
    }
}
