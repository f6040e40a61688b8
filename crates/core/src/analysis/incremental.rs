//! The analysis engine: epoch segments, cached per-pass partials, and
//! running accumulators that make a report cost O(new epochs).
//!
//! Every §V–§VII finding is computed here, by one engine with two
//! front ends. [`StudyReport::compute`] seals each run of a borrowed
//! dataset as one epoch and reports once; [`IncrementalStudy`] owns a
//! growing dataset, accepts captures in epochs (arbitrary batch
//! boundaries inside each run), and can report at any prefix. Both end
//! in the same fold sequence, and both are byte-identical to the naive
//! oracle [`StudyReport::compute_naive`]. Appending an epoch costs work
//! proportional to the epoch, and so does the next report (plus, for
//! both, any earlier segments invalidated by a first-party flip or a
//! new sync-value owner), not to the whole dataset:
//!
//! * Each epoch seals into an immutable `SegmentCols` block of
//!   fixed-width symbol columns. The variable-width tables (URL texts,
//!   eTLD+1s, cookie keys, graph labels, sync values) grow
//!   monotonically in the builder and are shared by every segment, so
//!   a segment is only `u32`/`u8` arrays and can spill to disk.
//! * Sealing runs on the calling thread only what must run in capture
//!   order: interning each chunk's distinct keys into the global
//!   tables (chunks in capture order), folding the chunks' first-party
//!   election candidates, and invalidating segments. Every per-row
//!   step runs on the workers in row chunks: the scan (URL text, the
//!   pixel/fingerprint heuristics, the borrowed `Set-Cookie` view, body
//!   leak verdicts), the chunk's column slice and election candidates,
//!   the class-memo miss scan (the memo is an array per URL symbol)
//!   and the row partials. The list probes of new URLs and of memo
//!   misses cost microseconds each, so they fan out at a finer grain.
//!   Symbols are a pure function of capture order and the per-chunk
//!   parts join in chunk order, so outputs are the same at any worker
//!   count and any chunking.
//! * Every analysis pass keeps a per-segment partial, and sealing
//!   merges it into a running accumulator: per run for cookies,
//!   tracking, §IV-D counts and the HTTPS count of Table I; across runs
//!   for leakage, sync transfers (in segment order) and the ecosystem
//!   graph (distinct edges in segment order). A report reads the
//!   accumulators, resolves their symbols, and re-measures the graph
//!   only if it gained an edge; it merges no segment partial and reads
//!   no capture.
//! * Partials that depend on cross-epoch state — the first-party
//!   election (cookies, tracking, graph) and the sync-value owner
//!   table (syncing) — are invalidated per segment when that state
//!   actually changes and recomputed from the segment's columns on the
//!   next report, reloading spilled columns on demand. Set unions
//!   cannot be undone, so the refresh then rebuilds the accumulators
//!   the stale partials went into from the segments' partials: the
//!   runs of the recomputed segments, and the graph or sync
//!   accumulator when their partials were recomputed.
//! * A resident-byte budget ([`IncrementalStudy::with_budget`]) caps
//!   how many segment blocks stay in memory; the least-recently-used
//!   blocks spill through `FrameStore` and reload transparently.

use crate::analysis::category::{CategoryAnalysis, ChildrenCaseStudy};
use crate::analysis::classify::resource_kind_of_content;
use crate::analysis::consent_analysis::{ConsentAnalysis, OverlayRow, PrivacyPrevalenceRow};
use crate::analysis::cookies::{CookieAnalysis, CookieRow, SymCookiePartial, ThirdPartyRow};
use crate::analysis::ecosystem_graph::{GraphAnalysis, CHANNEL_PREFIX};
use crate::analysis::first_party::FirstPartyMap;
use crate::analysis::frame_store::{
    FrameStore, SegmentCols, FLAG_CANONICAL, FLAG_FINGERPRINT, FLAG_PIXEL,
};
use crate::analysis::leakage::{LeakageAnalysis, GENRE_KEYWORDS};
use crate::analysis::parallel::{par_chunks, par_map, CHUNK_LEN, PROBE_CHUNK_LEN};
use crate::analysis::policy_analysis::PolicyAnalysis;
use crate::analysis::significance::SignificanceReport;
use crate::analysis::syncing::{is_potential_id, SyncEvent, SyncingAnalysis};
use crate::analysis::tracking::{
    is_fingerprint_script, is_tracking_pixel, SymTrackingPartial, TrackingAnalysis, TrackingRow,
};
use crate::dataset::{protocol_split, RunDataset, StudyDataset};
use crate::report::StudyReport;
use crate::run::RunKind;
use crate::Ecosystem;
use hbbtv_broadcast::ChannelId;
use hbbtv_consent::{analyze_nudging, annotate, branding_catalog, NoticeBranding, PrivacyInfoKind};
use hbbtv_filterlists::{bundled, RequestContext, ResourceKind, UrlView};
use hbbtv_graph::Graph;
use hbbtv_net::{ContentType, CookieKey, Etld1, Etld1Ref, Timestamp, Url};
use hbbtv_obs::Telemetry;
use hbbtv_policies::compliance::{check_profiling_window, TrackingObservation};
use hbbtv_policies::{DocRef, PolicyCorpus};
use hbbtv_proxy::CapturedExchange;
use hbbtv_stats::describe;
use hbbtv_trackers::{CookieCategory, Cookiepedia};
use hbbtv_tv::DeviceProfile;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::time::Instant;

/// Domain node ids live above channel-label ids in the graph fold.
const DOMAIN_BASE: u64 = 1 << 32;

/// Filter-list verdict bits for the classification memo.
const BIT_PIHOLE: u8 = 1;
const BIT_EASYLIST: u8 = 2;
const BIT_EASYPRIVACY: u8 = 4;
const BIT_PERFLYST: u8 = 8;
const BIT_KAMRAN: u8 = 16;
/// A class-memo slot whose verdicts are not known yet (no `BIT_*`
/// combination sets it).
const UNCLASSIFIED: u8 = 0x80;

/// The resource kinds a class-memo slot can stand for, in declaration
/// (and so discriminant) order.
const KINDS: [ResourceKind; 4] = [
    ResourceKind::Document,
    ResourceKind::Script,
    ResourceKind::Image,
    ResourceKind::Other,
];
/// Class-memo slots per URL: one per (third party, [`KINDS`] entry).
const CLASS_SLOTS: usize = 2 * KINDS.len();

/// The class-memo slot of a (third party, content type) pair. The list
/// verdicts see the content type only through its resource kind, so
/// one slot per (party, kind) pair is exact.
fn class_slot(third_party: bool, ct: u8) -> usize {
    let kind = resource_kind_of_content(content_type_from_u8(ct));
    usize::from(third_party) * KINDS.len() + kind as usize
}

/// The leakage needle search over `searchable_text()` (url + " " +
/// body) without materializing the join: only a needle containing a
/// space can straddle the boundary, and only then is the joined string
/// rebuilt.
fn contains_needle(url_text: &str, body: &str, needle: &str) -> bool {
    url_text.contains(needle)
        || body.contains(needle)
        || (needle.contains(' ') && format!("{url_text} {body}").contains(needle))
}

/// The §V-B keyword needles, hoisted out of the per-capture loop.
struct LeakNeedles {
    /// The study TV's identifying strings (manufacturer, model, OS,
    /// language, IP, MAC).
    technical: Vec<String>,
    /// `genre=<keyword>` for every known genre.
    genre: Vec<String>,
}

impl LeakNeedles {
    fn new() -> Self {
        let device = DeviceProfile::study_tv();
        let technical = [
            device.manufacturer.clone(),
            device.model.clone(),
            device.os.split(' ').next().unwrap_or("").to_string(),
            device.language.clone(),
            device.ip.clone(),
            device.mac.clone(),
        ]
        .into_iter()
        .filter(|t| !t.is_empty())
        .collect();
        let genre = GENRE_KEYWORDS
            .iter()
            .map(|g| format!("genre={g}"))
            .collect();
        LeakNeedles { technical, genre }
    }

    /// The (technical, genre keyword) verdicts over a request's URL text
    /// and body.
    fn verdicts(&self, url_text: &str, body: &str) -> (bool, bool) {
        (
            self.technical
                .iter()
                .any(|t| contains_needle(url_text, body, t)),
            self.genre
                .iter()
                .any(|g| contains_needle(url_text, body, g)),
        )
    }
}

/// Maps a stored `ContentType` discriminant back to the enum. The
/// round trip is asserted per append in debug builds and by a unit
/// test over every variant.
pub(crate) fn content_type_from_u8(b: u8) -> ContentType {
    match b {
        0 => ContentType::Html,
        1 => ContentType::JavaScript,
        2 => ContentType::Image,
        3 => ContentType::Json,
        4 => ContentType::Css,
        5 => ContentType::Video,
        _ => ContentType::Other,
    }
}

/// URL-determined facts, computed once per distinct URL text when the
/// URL is first interned. Everything here is independent of the
/// exchange's response, channel, and the (mutable) first-party map.
struct UrlInfo {
    /// The URL's host, kept for rebuilding `UrlView`s in the memoized
    /// classification.
    host: String,
    /// Interned eTLD+1 symbol.
    etld1_sym: u32,
    /// Any bundled list flags the URL as a third-party image (the §V-C
    /// canonical probe).
    canonical: bool,
    /// EasyList/EasyPrivacy flag the URL as a third-party document (the
    /// first-party election guard).
    guarded: bool,
    /// Complete technical-leak verdict for bodyless requests.
    tech_bodyless: bool,
    /// The URL carries a `genre` query parameter.
    genre_param: bool,
    /// Complete genre-keyword verdict for bodyless requests.
    genre_keyword_bodyless: bool,
    /// The URL carries a `show` query parameter.
    has_show: bool,
    /// The URL carries a `uid` query parameter.
    has_uid: bool,
    /// The `brand` query parameter, if present.
    brand: Option<String>,
    /// Interned symbols of query values satisfying the potential-ID
    /// rule, with duplicates and order preserved.
    sync_vals: Vec<u32>,
}

impl UrlInfo {
    /// Every fact about `url` that needs no interning table: the list
    /// probes, the bodyless leak verdicts, and the query extractions.
    /// `etld1_sym` and `sync_vals` are left for the merge, which has
    /// them from the chunk scan.
    fn probe(url: &Url, needles: &LeakNeedles) -> UrlInfo {
        let lists = bundled::all_refs();
        let guards = [bundled::easylist_ref(), bundled::easyprivacy_ref()];
        let guard_ctx = RequestContext {
            third_party: true,
            kind: ResourceKind::Document,
        };
        let view = UrlView::of_url(url);
        let (tech_bodyless, genre_keyword_bodyless) = needles.verdicts(url.as_str(), "");
        UrlInfo {
            host: url.host().to_string(),
            etld1_sym: 0,
            canonical: lists
                .iter()
                .any(|l| l.matches_view(&view, RequestContext::third_party_image())),
            guarded: guards.iter().any(|g| g.matches_view(&view, guard_ctx)),
            tech_bodyless,
            genre_param: url.query_param("genre").is_some(),
            genre_keyword_bodyless,
            has_show: url.query_param("show").is_some(),
            has_uid: url.query_param("uid").is_some(),
            brand: url.query_param("brand").map(str::to_string),
            sync_vals: Vec::new(),
        }
    }
}

/// A chunk-local interning table: distinct keys in first-occurrence
/// order. Tables keyed by borrowed text look keys up in the chunk's
/// captures, so only a new key is copied.
struct LocalTable<K, V> {
    ids: HashMap<K, u32>,
    keys: Vec<V>,
}

impl<K: std::hash::Hash + Eq, V> LocalTable<K, V> {
    fn new() -> Self {
        LocalTable {
            ids: HashMap::new(),
            keys: Vec::new(),
        }
    }

    /// The local id of `key`, appending `own(&key)` when it is new.
    fn intern(&mut self, key: K, own: impl FnOnce(&K) -> V) -> u32 {
        let keys = &mut self.keys;
        *self.ids.entry(key).or_insert_with_key(|k| {
            keys.push(own(k));
            keys.len() as u32 - 1
        })
    }
}

impl LocalTable<String, Etld1> {
    /// Keyed by text, so a URL's eTLD+1 and one derived from a `Domain`
    /// attribute meet in one table; only a new one is copied.
    fn intern_domain(&mut self, d: Etld1Ref<'_>) -> u32 {
        match self.ids.get(d.as_str()) {
            Some(&id) => id,
            None => self.intern(d.as_str().to_string(), |_| d.to_owned()),
        }
    }
}

/// One distinct URL of a chunk.
struct ChunkUrl {
    text: String,
    /// Local eTLD+1 id.
    etld1: u32,
    /// Local ids of the potential-ID query values, in query order.
    values: Vec<u32>,
    /// Index in the chunk of the first capture carrying the URL.
    first: usize,
}

/// What one capture contributes, over its chunk's local ids.
struct ScanRow {
    url: u32,
    /// Graph label: the channel name's (`unknown` when unnamed) when
    /// the capture has a channel, else the name's for a named
    /// pixel/fingerprint capture (§VII-C), else `u32::MAX`.
    label: u32,
    /// `FLAG_PIXEL` / `FLAG_FINGERPRINT`.
    flags: u8,
    /// End of the capture's rows in [`ChunkScan::cookies`].
    cookie_end: usize,
    /// The (technical, genre keyword) leak verdicts over URL and body;
    /// `None` for bodyless requests, whose verdicts are per URL.
    body_leak: Option<(bool, bool)>,
}

/// What a chunk's scan remembers of one distinct `Set-Cookie` row
/// (owner text, name, value): a visit re-sets the same cookie on every
/// beacon, so a repeated row costs one lookup.
struct SeenCookie {
    /// Local `(domain, name)` key id.
    key: u32,
    /// Local eTLD+1 id of the cookie's domain.
    domain: u32,
    /// The channel of the row's latest capture that had one.
    channel: Option<ChannelId>,
}

/// One chunk of an epoch, scanned on a worker: the pure per-capture
/// work (URL serialization, the pixel/fingerprint heuristics, the
/// borrowed `Set-Cookie` view, body leak verdicts) plus chunk-local interning.
///
/// Each local table receives its keys in the order a per-capture walk
/// interns them into the global table: a URL's eTLD+1 and then its
/// potential-ID values when the URL is first seen, the graph label,
/// then per `Set-Cookie` row the domain, the `(domain, name)` key and a
/// 10–25-byte value. A URL first seen in the chunk but known to the
/// study adds an eTLD+1 and values that are interned already, so
/// merging the chunks' tables in order assigns the per-capture walk's
/// symbols. A repeated `Set-Cookie` row interns nothing new, and a
/// repeated (key, channel) pair can only recur on a row whose entry
/// last saw another channel, so both skips keep that order.
struct ChunkScan {
    rows: Vec<ScanRow>,
    /// `(key, domain)` per `Set-Cookie` row, in capture order.
    cookies: Vec<(u32, u32)>,
    urls: Vec<ChunkUrl>,
    etld1s: Vec<Etld1>,
    /// Raw channel names of the graph labels.
    labels: Vec<String>,
    /// `(domain, name)` cookie keys.
    keys: Vec<(u32, String)>,
    values: Vec<String>,
    /// Distinct (cookie key, channel) pairs, for §V-D5.
    key_channels: Vec<(u32, ChannelId)>,
    /// Distinct (cookie domain, 10–25-byte value) pairs, for the
    /// §V-C3 owner table.
    domain_values: Vec<(u32, u32)>,
}

impl ChunkScan {
    fn of(chunk: &[CapturedExchange], needles: &LeakNeedles) -> Self {
        let mut urls: HashMap<&str, u32> = HashMap::new();
        let mut url_list: Vec<ChunkUrl> = Vec::new();
        let mut etld1s: LocalTable<String, Etld1> = LocalTable::new();
        let mut labels: LocalTable<&str, String> = LocalTable::new();
        let mut keys: LocalTable<(u32, &str), (u32, String)> = LocalTable::new();
        let mut values: LocalTable<&str, String> = LocalTable::new();
        // Keyed by (the `Domain` attribute or the URL's eTLD+1, name,
        // value).
        let mut seen_cookies: HashMap<(&str, &str, &str), SeenCookie> = HashMap::new();
        let mut key_channels: HashSet<(u32, ChannelId)> = HashSet::new();
        let mut domain_values: HashSet<(u32, u32)> = HashSet::new();
        let mut rows = Vec::with_capacity(chunk.len());
        let mut cookies = Vec::new();
        let mut key_channel_list = Vec::new();
        let mut domain_value_list = Vec::new();
        for (i, c) in chunk.iter().enumerate() {
            let url = &c.request.url;
            let text = url.as_str();
            let u = match urls.get(text) {
                Some(&u) => u,
                None => {
                    let u = url_list.len() as u32;
                    let etld1 = etld1s.intern_domain(url.etld1());
                    let vals = url
                        .query_pairs()
                        .filter(|(_, v)| is_potential_id(v))
                        .map(|(_, v)| values.intern(v, |v| v.to_string()))
                        .collect();
                    urls.insert(text, u);
                    url_list.push(ChunkUrl {
                        text: text.to_string(),
                        etld1,
                        values: vals,
                        first: i,
                    });
                    u
                }
            };
            let mut flags = 0u8;
            if is_tracking_pixel(c) {
                flags |= FLAG_PIXEL;
            }
            if is_fingerprint_script(c) {
                flags |= FLAG_FINGERPRINT;
            }
            let name = c.channel_name.as_deref();
            let label = match (c.channel, name) {
                (Some(_), _) => Some(name.unwrap_or("unknown")),
                (None, Some(name)) if flags != 0 => Some(name),
                (None, _) => None,
            }
            .map_or(u32::MAX, |l| labels.intern(l, |l| l.to_string()));

            for set_cookie in c.response.set_cookie_views() {
                let (name, value, domain) =
                    (set_cookie.name, set_cookie.value, set_cookie.domain());
                let owner = domain.unwrap_or(url.etld1().as_str());
                let seen = match seen_cookies.entry((owner, name, value)) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        let d = match domain {
                            Some(host) => etld1s.intern_domain(Etld1::from_host(host).view()),
                            None => url_list[u as usize].etld1,
                        };
                        let key = keys.intern((d, name), |&(d, n)| (d, n.to_string()));
                        if (10..=25).contains(&value.len()) {
                            let v = values.intern(value, |v| v.to_string());
                            if domain_values.insert((d, v)) {
                                domain_value_list.push((d, v));
                            }
                        }
                        e.insert(SeenCookie {
                            key,
                            domain: d,
                            channel: None,
                        })
                    }
                };
                cookies.push((seen.key, seen.domain));
                if let Some(ch) = c.channel {
                    if seen.channel != Some(ch) {
                        seen.channel = Some(ch);
                        if key_channels.insert((seen.key, ch)) {
                            key_channel_list.push((seen.key, ch));
                        }
                    }
                }
            }
            let body = c.request.body.as_str();
            rows.push(ScanRow {
                url: u,
                label,
                flags,
                cookie_end: cookies.len(),
                body_leak: (!body.is_empty()).then(|| needles.verdicts(text, body)),
            });
        }
        ChunkScan {
            rows,
            cookies,
            urls: url_list,
            etld1s: etld1s.keys,
            labels: labels.keys,
            keys: keys.keys,
            values: values.keys,
            key_channels: key_channel_list,
            domain_values: domain_value_list,
        }
    }
}

/// A chunk's local→global symbol maps, by local id.
struct ChunkSyms {
    urls: Vec<u32>,
    etld1s: Vec<u32>,
    labels: Vec<u32>,
    keys: Vec<u32>,
}

/// A URL new to the study, waiting for its probe.
struct NewUrl {
    /// Index in the epoch of the first capture carrying it.
    cap: usize,
    sym: u32,
    etld1_sym: u32,
    sync_vals: Vec<u32>,
}

/// One chunk's part of a segment, filled on a worker from the chunk's
/// scan and local→global maps once every URL of the epoch is probed.
/// The calling thread joins the parts in chunk order.
struct ChunkFill {
    cols: SegmentCols,
    /// The rows' body leak verdicts (see [`ScanRow::body_leak`]).
    body_leaks: Vec<Option<(bool, bool)>>,
    /// HTTPS captures, for Table I.
    https: usize,
    /// Per channel, the earliest electing capture's (instant, eTLD+1
    /// symbol); the first of equal instants wins.
    candidates: BTreeMap<ChannelId, (u64, u32)>,
    /// Pixel/fingerprint rows of named channels as (label symbol,
    /// instant, URL symbol), in capture order.
    tracking_obs: Vec<(u32, Timestamp, u32)>,
    /// Chunk offsets of the §VII candidate documents.
    new_docs: Vec<u32>,
}

impl ChunkFill {
    /// Fills the part of `chunk` (the captures `scan` scanned) through
    /// the chunk's symbol maps `m`.
    fn of(
        scan: &ChunkScan,
        m: &ChunkSyms,
        chunk: &[CapturedExchange],
        url_info: &[UrlInfo],
    ) -> Self {
        let mut fill = ChunkFill {
            cols: SegmentCols::with_capacity(chunk.len(), scan.cookies.len()),
            body_leaks: Vec::with_capacity(chunk.len()),
            https: 0,
            candidates: BTreeMap::new(),
            tracking_obs: Vec::new(),
            new_docs: Vec::new(),
        };
        let cols = &mut fill.cols;
        let mut cookie_start = 0;
        for (j, (row, c)) in scan.rows.iter().zip(chunk).enumerate() {
            let u = m.urls[row.url as usize];
            let info = &url_info[u as usize];
            fill.https += usize::from(c.is_https());
            let ct = c.response.content_type as u8;
            debug_assert_eq!(content_type_from_u8(ct), c.response.content_type);
            let mut flags = row.flags;
            if info.canonical {
                flags |= FLAG_CANONICAL;
            }
            let label = match row.label {
                u32::MAX => u32::MAX,
                l => m.labels[l as usize],
            };
            for &(k, d) in &scan.cookies[cookie_start..row.cookie_end] {
                cols.cookie_key.push(m.keys[k as usize]);
                cols.cookie_domain.push(m.etld1s[d as usize]);
            }
            cookie_start = row.cookie_end;

            // First-party election (§V-A): content-bearing, unguarded
            // responses compete on earliest timestamp.
            if let Some(ch) = c.channel {
                if matches!(
                    c.response.content_type,
                    ContentType::Html | ContentType::JavaScript | ContentType::Css
                ) && !info.guarded
                {
                    let t = c.request.timestamp.as_unix();
                    let best = fill.candidates.entry(ch).or_insert((t, info.etld1_sym));
                    if t < best.0 {
                        *best = (t, info.etld1_sym);
                    }
                }
            }
            if row.flags != 0 && c.channel_name.is_some() {
                fill.tracking_obs.push((label, c.request.timestamp, u));
            }
            if c.response.content_type == ContentType::Html && c.response.body.len() > 300 {
                fill.new_docs.push(j as u32);
            }

            cols.url_sym.push(u);
            cols.etld1_sym.push(info.etld1_sym);
            cols.channel.push(c.channel.map_or(u32::MAX, |ch| ch.0));
            cols.chan_label.push(match c.channel {
                Some(_) => label,
                None => u32::MAX,
            });
            cols.content_type.push(ct);
            cols.flags.push(flags);
            cols.cookie_off.push(cols.cookie_key.len() as u32);
            fill.body_leaks.push(row.body_leak);
        }
        fill
    }
}

/// Laps of one seal's phases, recorded as `wall.frame.*` histograms
/// (microseconds) when the telemetry profiles; inert otherwise.
struct Phases<'a> {
    tel: &'a Telemetry,
    last: Option<Instant>,
}

impl<'a> Phases<'a> {
    fn start(tel: &'a Telemetry) -> Self {
        Phases {
            tel,
            last: tel.mode().profile_on().then(Instant::now),
        }
    }

    /// Records the time since the previous lap as `cell`.
    fn lap(&mut self, cell: &str) {
        if let Some(last) = self.last {
            let now = Instant::now();
            self.tel
                .histogram(cell)
                .record((now - last).as_micros() as u64);
            self.last = Some(now);
        }
    }
}

/// The first-party symbol of a row's channel, looked up once per run of
/// consecutive rows on one channel (a visit's captures are adjacent).
struct FirstParty<'a> {
    fp_syms: &'a HashMap<ChannelId, u32>,
    channel: u32,
    fp: Option<u32>,
}

impl<'a> FirstParty<'a> {
    fn new(fp_syms: &'a HashMap<ChannelId, u32>) -> Self {
        // `u32::MAX` marks an unattributed row, which has no first party.
        FirstParty {
            fp_syms,
            channel: u32::MAX,
            fp: None,
        }
    }

    /// The first party of raw channel column value `ch_raw`.
    fn of(&mut self, ch_raw: u32) -> Option<u32> {
        if ch_raw != self.channel {
            self.channel = ch_raw;
            self.fp = self.fp_syms.get(&ChannelId(ch_raw)).copied();
        }
        self.fp
    }
}

/// One sealed epoch: its immutable columns (resident or spilled) plus
/// every cached per-pass partial.
struct Segment {
    /// Index of the owning run in the dataset.
    run_idx: usize,
    /// The owning run's kind.
    run: RunKind,
    /// The column block; `None` while spilled.
    cols: Option<SegmentCols>,
    /// Resident footprint of `cols`, for budget accounting.
    bytes: usize,
    /// §V-C partial; `None` = invalidated by a first-party flip.
    cookie: Option<SymCookiePartial>,
    /// §V-D partial; `None` = invalidated by a first-party flip.
    tracking: Option<SymTrackingPartial>,
    /// Distinct graph edges in first-occurrence order; `None` =
    /// invalidated by a first-party flip.
    graph: Option<Vec<(u64, u64)>>,
    /// §V-C3 partial; `None` = invalidated by owner-table growth.
    syncing: Option<SyncSegment>,
}

/// Per-segment §V-C3 partial: the detected transfers, in capture
/// order, plus the summary sets.
#[derive(Default)]
struct SyncSegment {
    events: Vec<SyncEvent>,
    synced: BTreeSet<String>,
    domains: BTreeSet<Etld1>,
    channels: BTreeSet<ChannelId>,
    runs: BTreeSet<RunKind>,
}

impl SyncSegment {
    fn merge(&mut self, other: &SyncSegment) {
        self.events.extend(other.events.iter().cloned());
        self.synced.extend(other.synced.iter().cloned());
        self.domains.extend(other.domains.iter().cloned());
        self.channels.extend(&other.channels);
        self.runs.extend(&other.runs);
    }
}

/// Per-segment §V-B partial. Receivers are eTLD+1 symbols, resolved at
/// fold time.
#[derive(Default)]
struct LeakSegment {
    channels_with_technical: BTreeSet<ChannelId>,
    technical_receivers: BTreeSet<u32>,
    channels_with_genre: BTreeSet<ChannelId>,
    personal: usize,
    brands: BTreeSet<String>,
    per_channel: BTreeMap<ChannelId, usize>,
}

impl LeakSegment {
    fn merge(&mut self, other: LeakSegment) {
        self.channels_with_technical
            .extend(other.channels_with_technical);
        self.technical_receivers.extend(other.technical_receivers);
        self.channels_with_genre.extend(other.channels_with_genre);
        self.personal += other.personal;
        self.brands.extend(other.brands);
        for (ch, n) in other.per_channel {
            *self.per_channel.entry(ch).or_insert(0) += n;
        }
    }
}

/// Everything sealing caches for a range of one segment's rows: the
/// partials [`FrameBuilder::refresh`] can recompute, the seal-only ones
/// (leakage needs the request bodies), and the invalidation scopes.
/// Ranges fold in row order, so the merged partial is the whole
/// segment's.
#[derive(Default)]
struct EpochPartial {
    cookie: SymCookiePartial,
    tracking: SymTrackingPartial,
    graph: Vec<(u64, u64)>,
    syncing: SyncSegment,
    leakage: LeakSegment,
    sig_req: BTreeMap<ChannelId, usize>,
    sig_cok: BTreeMap<ChannelId, usize>,
    /// Channels with captures in the rows.
    channels: BTreeSet<ChannelId>,
    /// Potential-ID query values the rows' URLs carry.
    values: BTreeSet<u32>,
}

impl EpochPartial {
    fn merge(&mut self, other: EpochPartial) {
        self.cookie.merge(&other.cookie);
        self.tracking.merge(&other.tracking);
        self.graph.extend(other.graph);
        self.syncing.merge(&other.syncing);
        self.leakage.merge(other.leakage);
        add_counts(&mut self.sig_req, &other.sig_req);
        add_counts(&mut self.sig_cok, &other.sig_cok);
        self.channels.extend(other.channels);
        self.values.extend(other.values);
    }
}

/// Adds per-channel counts into `into`.
fn add_counts(into: &mut BTreeMap<ChannelId, usize>, from: &BTreeMap<ChannelId, usize>) {
    for (ch, n) in from {
        *into.entry(*ch).or_insert(0) += n;
    }
}

/// One run's running accumulators: the partials of every segment of
/// the run, merged as the segment seals, so a report reads them
/// instead of re-merging segments.
#[derive(Default)]
struct RunAcc {
    /// §VI partial, computed when the run is pushed (screenshots arrive
    /// with the run metadata, not with capture epochs).
    consent: ConsentRunPartial,
    /// §V-C partials of the run's segments; rebuilt from them when a
    /// refresh recomputes one.
    cookie: SymCookiePartial,
    /// §V-D partials of the run's segments; rebuilt like `cookie`.
    tracking: SymTrackingPartial,
    /// Per-channel request counts for §IV-D.
    sig_req: BTreeMap<ChannelId, usize>,
    /// Per-channel cookie-setting counts for §IV-D (zero entries mark
    /// channels seen without cookies, as the naive scan records).
    sig_cok: BTreeMap<ChannelId, usize>,
    /// HTTPS captures sealed so far, for Table I.
    https: usize,
}

/// Per-run §VI partial.
#[derive(Default)]
struct ConsentRunPartial {
    overlays: OverlayRow,
    prevalence: PrivacyPrevalenceRow,
    privacy_channels: BTreeSet<ChannelId>,
    observed: BTreeSet<ChannelId>,
    pointer: BTreeSet<ChannelId>,
    brandings: BTreeMap<NoticeBranding, BTreeSet<ChannelId>>,
    deepest: usize,
}

/// Annotates one run's screenshots, mirroring the per-run body of
/// [`ConsentAnalysis::compute`] exactly.
fn consent_partial(run_ds: &RunDataset) -> ConsentRunPartial {
    let mut part = ConsentRunPartial {
        prevalence: PrivacyPrevalenceRow {
            channels_total: run_ds.channels_measured.len(),
            ..Default::default()
        },
        ..Default::default()
    };
    for shot in &run_ds.screenshots {
        let a = annotate(&shot.content);
        *part.overlays.entry(a.overlay).or_insert(0) += 1;
        part.prevalence.screenshots_total += 1;
        part.observed.insert(shot.channel);
        if a.privacy_pointer {
            part.pointer.insert(shot.channel);
        }
        if a.shows_privacy_info() {
            part.prevalence.screenshots_privacy += 1;
            part.privacy_channels.insert(shot.channel);
        }
        if let Some(PrivacyInfoKind::ConsentNotice { branding, layer }) = a.privacy {
            part.brandings
                .entry(branding)
                .or_default()
                .insert(shot.channel);
            part.deepest = part.deepest.max(layer);
        }
    }
    part.prevalence.channels_privacy = part.privacy_channels.len();
    part
}

/// The analysis engine behind [`StudyReport::compute`] and
/// [`IncrementalStudy`]: monotone interning tables, cross-epoch
/// election and owner state, the sealed segments with their cached
/// partials, and the residency machinery.
pub(crate) struct FrameBuilder {
    // ---- monotone interning tables (always resident) ----
    url_texts: Vec<String>,
    url_info: Vec<UrlInfo>,
    sym_of_url: HashMap<String, u32>,
    etld1s: Vec<Etld1>,
    sym_of_etld1: HashMap<Etld1, u32>,
    cookie_keys: Vec<CookieKey>,
    /// Cookie-key symbol by (domain symbol, name).
    key_sym_of: HashMap<(u32, String), u32>,
    /// Cookie-key symbols Cookiepedia classifies as Targeting
    /// (classified once at interning).
    targeting_syms: BTreeSet<u32>,
    /// Channels each cookie key was set on (for §V-D5).
    cookie_channels: BTreeMap<u32, BTreeSet<ChannelId>>,
    cookiepedia: Cookiepedia,
    /// Interned `ch:`-prefixed graph labels.
    glabels: Vec<String>,
    /// Label symbol by raw channel name (`unknown` when unnamed).
    sym_of_glabel: HashMap<String, u32>,
    // ---- cross-epoch election state (eTLD+1 symbols) ----
    candidates: BTreeMap<ChannelId, (u64, u32)>,
    elected: BTreeMap<ChannelId, u32>,
    fp_map: FirstPartyMap,
    fp_syms: HashMap<ChannelId, u32>,
    // ---- cross-epoch sync-owner state ----
    sync_values: Vec<String>,
    sym_of_value: HashMap<String, u32>,
    owners: HashMap<u32, BTreeSet<Etld1>>,
    /// (domain sym, value sym) pairs already counted by pass 1. Only
    /// values in the 10..=25 length band reach the counting branches,
    /// so shorter/longer values are not recorded.
    seen_pairs: HashSet<(u32, u32)>,
    potential_ids: usize,
    timestamp_exclusions: usize,
    // ---- memoized classification ----
    /// The five list verdicts as `BIT_*` flags per URL symbol, one
    /// slot per (third party, resource kind) pair (see
    /// [`class_slot`]); [`UNCLASSIFIED`] until first needed.
    class_memo: Vec<[u8; CLASS_SLOTS]>,
    /// Memo misses so far: how many real classifications ran.
    classify_calls: u64,
    /// `Set-Cookie` rows sealed so far.
    cookie_rows: usize,
    // ---- policy corpus state ----
    /// The §VII-A pipeline folded over every candidate document fed so
    /// far.
    corpus: PolicyCorpus,
    /// (run index, capture index) of the §VII candidate documents
    /// appended since the last report, not yet fed to `corpus`.
    new_docs: Vec<(u32, u32)>,
    /// Pixel/fingerprint exchanges as (instant, URL symbol) in capture
    /// order, indexed by the channel name's label symbol, for the §VII-C
    /// window check. Observations are materialized only for the
    /// channels whose policy declares a window.
    tracking_obs: Vec<Vec<(Timestamp, u32)>>,
    /// The materialized observations of channels whose policy declares
    /// a window, caught up with `tracking_obs` on each report.
    window_obs: HashMap<u32, Vec<TrackingObservation>>,
    // ---- running accumulators (see `fold_segment`) ----
    /// One per run, in dataset order.
    runs: Vec<RunAcc>,
    /// The §V-C partials of every run, merged.
    cookie_all: SymCookiePartial,
    /// The §V-D partials of every run, merged.
    tracking_all: SymTrackingPartial,
    /// §V-B over every segment (election-free, so never rebuilt).
    leakage: LeakSegment,
    /// §V-C3 over every segment, transfers in segment order.
    syncing: SyncSegment,
    /// The distinct unordered edges in `graph`.
    graph_seen: HashSet<(u64, u64)>,
    /// The ecosystem graph: every segment's edges in segment order.
    graph: Graph,
    /// The last report's measurement of `graph`; `None` once an edge
    /// is added.
    graph_measured: Option<GraphAnalysis>,
    /// Segment partials merged into the accumulators so far, rebuilds
    /// included.
    partials_folded: u64,
    /// Chunk-local keys the merges looked up in the global tables.
    merged_keys: u64,
    needles: LeakNeedles,
    // ---- segments and residency ----
    segments: Vec<Segment>,
    /// Segments containing each channel's captures (election-flip
    /// invalidation scope).
    segs_of_channel: HashMap<ChannelId, Vec<usize>>,
    /// Segments whose captures carry each potential-ID query value
    /// (owner-growth invalidation scope).
    segs_of_value: HashMap<u32, Vec<usize>>,
    store: FrameStore,
    /// Resident segment ids, least recently used first.
    lru: Vec<usize>,
    resident_bytes: usize,
    peak_resident_bytes: usize,
    delta_recomputes: u64,
    /// Counters already forwarded to telemetry.
    emitted_partials_folded: u64,
    emitted_merged_keys: u64,
    emitted_spill_writes: u64,
    emitted_spill_loads: u64,
}

impl FrameBuilder {
    fn new(budget: Option<usize>) -> Self {
        FrameBuilder {
            url_texts: Vec::new(),
            url_info: Vec::new(),
            sym_of_url: HashMap::new(),
            etld1s: Vec::new(),
            sym_of_etld1: HashMap::new(),
            cookie_keys: Vec::new(),
            key_sym_of: HashMap::new(),
            targeting_syms: BTreeSet::new(),
            cookie_channels: BTreeMap::new(),
            cookiepedia: Cookiepedia::bundled(),
            glabels: Vec::new(),
            sym_of_glabel: HashMap::new(),
            candidates: BTreeMap::new(),
            elected: BTreeMap::new(),
            fp_map: FirstPartyMap::default(),
            fp_syms: HashMap::new(),
            sync_values: Vec::new(),
            sym_of_value: HashMap::new(),
            owners: HashMap::new(),
            seen_pairs: HashSet::new(),
            potential_ids: 0,
            timestamp_exclusions: 0,
            class_memo: Vec::new(),
            classify_calls: 0,
            cookie_rows: 0,
            corpus: PolicyCorpus::new(),
            new_docs: Vec::new(),
            tracking_obs: Vec::new(),
            window_obs: HashMap::new(),
            runs: Vec::new(),
            cookie_all: SymCookiePartial::default(),
            tracking_all: SymTrackingPartial::default(),
            leakage: LeakSegment::default(),
            syncing: SyncSegment::default(),
            graph_seen: HashSet::new(),
            graph: Graph::new(),
            graph_measured: None,
            partials_folded: 0,
            merged_keys: 0,
            needles: LeakNeedles::new(),
            segments: Vec::new(),
            segs_of_channel: HashMap::new(),
            segs_of_value: HashMap::new(),
            store: FrameStore::new(budget),
            lru: Vec::new(),
            resident_bytes: 0,
            peak_resident_bytes: 0,
            delta_recomputes: 0,
            emitted_partials_folded: 0,
            emitted_merged_keys: 0,
            emitted_spill_writes: 0,
            emitted_spill_loads: 0,
        }
    }

    fn intern_etld1(&mut self, d: Etld1) -> u32 {
        if let Some(&s) = self.sym_of_etld1.get(&d) {
            return s;
        }
        let s = self.etld1s.len() as u32;
        self.etld1s.push(d.clone());
        self.sym_of_etld1.insert(d, s);
        s
    }

    fn intern_value(&mut self, v: String) -> u32 {
        if let Some(&s) = self.sym_of_value.get(&v) {
            return s;
        }
        let s = self.sync_values.len() as u32;
        self.sync_values.push(v.clone());
        self.sym_of_value.insert(v, s);
        s
    }

    fn intern_glabel(&mut self, name: String) -> u32 {
        if let Some(&s) = self.sym_of_glabel.get(&name) {
            return s;
        }
        let s = self.glabels.len() as u32;
        self.glabels.push(format!("{CHANNEL_PREFIX}{name}"));
        self.sym_of_glabel.insert(name, s);
        s
    }

    fn intern_cookie_key(&mut self, domain: u32, name: String) -> u32 {
        let e = match self.key_sym_of.entry((domain, name)) {
            Entry::Occupied(e) => return *e.get(),
            Entry::Vacant(e) => e,
        };
        let s = self.cookie_keys.len() as u32;
        let key = CookieKey {
            domain: self.etld1s[domain as usize].clone(),
            name: e.key().1.clone(),
        };
        if self.cookiepedia.classify(&key) == Some(CookieCategory::Targeting) {
            self.targeting_syms.insert(s);
        }
        self.cookie_keys.push(key);
        e.insert(s);
        s
    }

    /// The URL symbol of `text`, and whether the text is new.
    fn intern_url(&mut self, text: String) -> (u32, bool) {
        if let Some(&u) = self.sym_of_url.get(&text) {
            return (u, false);
        }
        let u = self.url_texts.len() as u32;
        self.url_texts.push(text.clone());
        self.sym_of_url.insert(text, u);
        (u, true)
    }

    /// The one-shot front end: seals every run of a borrowed dataset as
    /// one epoch, recording the seal wall as `wall.frame.build` and its
    /// phases as `wall.frame.{scan,merge,fill,partials}` (profile mode)
    /// and the engine's table sizes as `frame.*` counters on `tel`.
    pub(crate) fn seal_all(dataset: &StudyDataset, tel: &Telemetry) -> Self {
        let t0 = std::time::Instant::now();
        let mut b = FrameBuilder::new(None);
        for (r, run_ds) in dataset.runs.iter().enumerate() {
            b.push_run(run_ds);
            b.append_epoch(r, run_ds.run, &run_ds.captures, 0, tel);
        }
        if tel.mode().profile_on() {
            tel.histogram("wall.frame.build")
                .record(t0.elapsed().as_micros() as u64);
        }
        if tel.is_enabled() {
            let exchanges: usize = b
                .segments
                .iter()
                .filter_map(|s| s.cols.as_ref())
                .map(SegmentCols::len)
                .sum();
            tel.counter("frame.exchanges").add(exchanges as u64);
            tel.counter("frame.set_cookie_rows")
                .add(b.cookie_rows as u64);
            tel.counter("frame.symbols").add(b.etld1s.len() as u64);
            tel.counter("frame.classify_calls").add(b.classify_calls);
            tel.counter("frame.unique_urls")
                .add(b.url_texts.len() as u64);
            tel.counter("frame.merged_keys").add(b.merged_keys);
        }
        b
    }

    /// Opens the accumulators of a run (its captures arrive as epochs).
    fn push_run(&mut self, run_ds: &RunDataset) {
        self.runs.push(RunAcc {
            consent: consent_partial(run_ds),
            ..RunAcc::default()
        });
    }

    /// Seals one epoch of captures (already appended to run `run_idx`
    /// of the dataset at offset `cap_base`) into a segment: builds the
    /// columns, updates cross-epoch state, invalidates any segments
    /// the new state dirties, and caches this segment's partials. Under
    /// profile telemetry on `tel`, records the four phases as
    /// `wall.frame.{scan,merge,fill,partials}`.
    ///
    /// The calling thread does only what must run in capture order:
    /// interning each chunk's distinct keys, folding the chunks'
    /// election candidates, and invalidating segments. Everything per
    /// row runs on the workers, chunk by chunk: the scans (with their
    /// chunk-local interning), the column fills, the class-memo miss
    /// scans and the row partials, plus the list probes of new URLs
    /// and of memo misses at [`PROBE_CHUNK_LEN`]. Every symbol is
    /// therefore a pure function of capture order, and the parts join
    /// in chunk order.
    fn append_epoch(
        &mut self,
        run_idx: usize,
        run: RunKind,
        caps: &[CapturedExchange],
        cap_base: usize,
        tel: &Telemetry,
    ) {
        if caps.is_empty() {
            return;
        }
        let mut phases = Phases::start(tel);
        let needles = &self.needles;
        let mut scans: Vec<ChunkScan> =
            par_chunks(caps, CHUNK_LEN, |chunk| ChunkScan::of(chunk, needles));
        phases.lap("wall.frame.scan");
        // Each chunk's first capture in the epoch.
        let starts: Vec<usize> = scans
            .iter()
            .scan(0, |at, scan| {
                let start = *at;
                *at += scan.rows.len();
                Some(start)
            })
            .collect();

        let mut owner_dirty: BTreeSet<u32> = BTreeSet::new();
        let mut new_urls: Vec<NewUrl> = Vec::new();
        let maps: Vec<ChunkSyms> = scans
            .iter_mut()
            .zip(&starts)
            .map(|(scan, &start)| self.merge_chunk(scan, start, &mut new_urls, &mut owner_dirty))
            .collect();
        let needles = &self.needles;
        let probes = par_chunks(&new_urls, PROBE_CHUNK_LEN, |chunk| {
            chunk
                .iter()
                .map(|n| UrlInfo::probe(&caps[n.cap].request.url, needles))
                .collect::<Vec<_>>()
        });
        for (mut info, n) in probes.into_iter().flatten().zip(new_urls) {
            debug_assert_eq!(n.sym as usize, self.url_info.len());
            info.etld1_sym = n.etld1_sym;
            info.sync_vals = n.sync_vals;
            self.url_info.push(info);
            self.class_memo.push([UNCLASSIFIED; CLASS_SLOTS]);
        }
        phases.lap("wall.frame.merge");

        let url_info = &self.url_info;
        let parts: Vec<(&ChunkScan, &ChunkSyms)> = scans.iter().zip(&maps).collect();
        let fills = par_map(&parts, |k, (scan, m)| {
            let start = starts[k];
            ChunkFill::of(scan, m, &caps[start..start + scan.rows.len()], url_info)
        });
        let mut col_parts = Vec::with_capacity(fills.len());
        let mut body_leaks: Vec<Option<(bool, bool)>> = Vec::with_capacity(caps.len());
        let mut https = 0usize;
        let mut election_touched: BTreeSet<ChannelId> = BTreeSet::new();
        for (fill, start) in fills.into_iter().zip(starts) {
            self.cookie_rows += fill.cols.cookie_key.len();
            https += fill.https;
            body_leaks.extend(fill.body_leaks);
            // Each epoch elects the candidates it changed, so only those
            // can flip.
            for (ch, (t, d)) in fill.candidates {
                let better = match self.candidates.get(&ch) {
                    Some(&(best_t, _)) => t < best_t,
                    None => true,
                };
                if better {
                    self.candidates.insert(ch, (t, d));
                    election_touched.insert(ch);
                }
            }
            for (l, at, u) in fill.tracking_obs {
                let l = l as usize;
                if self.tracking_obs.len() <= l {
                    self.tracking_obs.resize_with(l + 1, Vec::new);
                }
                self.tracking_obs[l].push((at, u));
            }
            let base = cap_base + start;
            self.new_docs.extend(
                fill.new_docs
                    .iter()
                    .map(|&j| (run_idx as u32, (base + j as usize) as u32)),
            );
            col_parts.push(fill.cols);
        }
        let cols = SegmentCols::concat(col_parts);

        // Election flips: re-derive the winner of every touched
        // channel; a change (including a first-time election)
        // invalidates the election-dependent partials of every segment
        // carrying that channel.
        let mut flipped: Vec<ChannelId> = Vec::new();
        for ch in election_touched {
            let winner = self.candidates[&ch].1;
            if self.elected.insert(ch, winner) != Some(winner) {
                flipped.push(ch);
            }
        }
        if !flipped.is_empty() {
            self.fp_map = FirstPartyMap::from_entries(
                self.elected
                    .iter()
                    .map(|(ch, &d)| (*ch, self.etld1s[d as usize].clone())),
            );
            self.fp_syms = self.elected.iter().map(|(ch, &d)| (*ch, d)).collect();
            let dirty: BTreeSet<usize> = flipped
                .iter()
                .filter_map(|ch| self.segs_of_channel.get(ch))
                .flatten()
                .copied()
                .collect();
            for s in dirty {
                self.segments[s].cookie = None;
                self.segments[s].tracking = None;
                self.segments[s].graph = None;
            }
        }
        // Owner growth: a value gaining an owner invalidates the
        // syncing partial of every segment whose captures carry it.
        let dirty: BTreeSet<usize> = owner_dirty
            .iter()
            .filter_map(|v| self.segs_of_value.get(v))
            .flatten()
            .copied()
            .collect();
        for s in dirty {
            self.segments[s].syncing = None;
        }
        phases.lap("wall.frame.fill");

        // Cache this segment's partials against the now-current state,
        // folding row chunks on the worker pool.
        self.fill_class_memo(&[&cols]);
        let n = cols.len();
        let chunks: Vec<Range<usize>> = (0..n)
            .step_by(CHUNK_LEN)
            .map(|a| a..n.min(a + CHUNK_LEN))
            .collect();
        let p = par_map(&chunks, |_, rows| {
            self.seal_partial(&cols, rows.clone(), &body_leaks[rows.clone()], run)
        })
        .into_iter()
        .reduce(|mut acc, p| {
            acc.merge(p);
            acc
        })
        .expect("a sealed epoch has rows");

        let seg_id = self.segments.len();
        let bytes = cols.byte_size();
        let acc = &mut self.runs[run_idx];
        acc.https += https;
        add_counts(&mut acc.sig_req, &p.sig_req);
        add_counts(&mut acc.sig_cok, &p.sig_cok);
        self.leakage.merge(p.leakage);
        self.segments.push(Segment {
            run_idx,
            run,
            cols: Some(cols),
            bytes,
            cookie: Some(p.cookie),
            tracking: Some(p.tracking),
            graph: Some(dedup_edges(p.graph)),
            syncing: Some(p.syncing),
        });
        self.fold_segment(seg_id);
        for ch in p.channels {
            self.segs_of_channel.entry(ch).or_default().push(seg_id);
        }
        for v in p.values {
            self.segs_of_value.entry(v).or_default().push(seg_id);
        }
        self.lru.push(seg_id);
        self.resident_bytes += bytes;
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        phases.lap("wall.frame.partials");
        // Spilling is outside the four phases.
        self.enforce_budget();
    }

    /// Interns one chunk's distinct keys into the global tables, each
    /// table in local order, and applies its distinct cookie pairs: the
    /// §V-D5 channel sets and the §V-C3 pass-1 owner bookkeeping. Only
    /// values in the 10..=25 length band reach the counting branches,
    /// so shorter/longer values are not recorded. Queues the URLs new
    /// to the study, with the chunk starting at capture `base`, for
    /// probing.
    fn merge_chunk(
        &mut self,
        scan: &mut ChunkScan,
        base: usize,
        new_urls: &mut Vec<NewUrl>,
        owner_dirty: &mut BTreeSet<u32>,
    ) -> ChunkSyms {
        self.merged_keys += (scan.urls.len()
            + scan.etld1s.len()
            + scan.labels.len()
            + scan.keys.len()
            + scan.values.len()
            + scan.key_channels.len()
            + scan.domain_values.len()) as u64;
        let etld1s: Vec<u32> = scan
            .etld1s
            .drain(..)
            .map(|d| self.intern_etld1(d))
            .collect();
        let values: Vec<u32> = scan
            .values
            .drain(..)
            .map(|v| self.intern_value(v))
            .collect();
        let labels: Vec<u32> = scan
            .labels
            .drain(..)
            .map(|l| self.intern_glabel(l))
            .collect();
        let keys: Vec<u32> = scan
            .keys
            .drain(..)
            .map(|(d, name)| self.intern_cookie_key(etld1s[d as usize], name))
            .collect();
        let urls: Vec<u32> = scan
            .urls
            .drain(..)
            .map(|url| {
                let (u, new) = self.intern_url(url.text);
                if new {
                    new_urls.push(NewUrl {
                        cap: base + url.first,
                        sym: u,
                        etld1_sym: etld1s[url.etld1 as usize],
                        sync_vals: url.values.iter().map(|&v| values[v as usize]).collect(),
                    });
                }
                u
            })
            .collect();
        for &(k, ch) in &scan.key_channels {
            self.cookie_channels
                .entry(keys[k as usize])
                .or_default()
                .insert(ch);
        }
        for &(d, v) in &scan.domain_values {
            let (d_sym, v_sym) = (etld1s[d as usize], values[v as usize]);
            if !self.seen_pairs.insert((d_sym, v_sym)) {
                continue;
            }
            if is_potential_id(&self.sync_values[v_sym as usize]) {
                self.potential_ids += 1;
                let owner = self.etld1s[d_sym as usize].clone();
                if self.owners.entry(v_sym).or_default().insert(owner) {
                    owner_dirty.insert(v_sym);
                }
            } else {
                self.timestamp_exclusions += 1;
            }
        }
        ChunkSyms {
            urls,
            etld1s,
            labels,
            keys,
        }
    }

    /// Merges segment `s`'s fresh partials into the running
    /// accumulators: cookie and tracking into its run's and the all-run
    /// ones, its sync transfers after the earlier segments', and its
    /// edges the graph lacks. Counts one fold.
    fn fold_segment(&mut self, s: usize) {
        let seg = &self.segments[s];
        let acc = &mut self.runs[seg.run_idx];
        let cookie = seg.cookie.as_ref().expect("fresh");
        let tracking = seg.tracking.as_ref().expect("fresh");
        acc.cookie.merge(cookie);
        acc.tracking.merge(tracking);
        self.cookie_all.merge(cookie);
        self.tracking_all.merge(tracking);
        self.syncing.merge(seg.syncing.as_ref().expect("fresh"));
        self.add_edges(s);
        self.partials_folded += 1;
    }

    /// Adds segment `s`'s edges that the graph lacks, in order, and
    /// drops the cached measurement if any edge was new.
    fn add_edges(&mut self, s: usize) {
        for &(a, b) in self.segments[s].graph.as_ref().expect("fresh") {
            if self.graph_seen.insert((a.min(b), a.max(b))) {
                let label = |id| graph_label(id, &self.glabels, &self.etld1s);
                self.graph.add_edge(label(a), label(b));
                self.graph_measured = None;
            }
        }
    }

    /// Rebuilds the accumulators a refresh left stale from the
    /// segments' fresh partials: the cookie and tracking accumulators
    /// of each run in `runs` (then the all-run ones from the runs'),
    /// the graph if a segment's edges were recomputed, and the sync
    /// transfers if a segment's were. Every segment re-folded counts
    /// one fold.
    fn rebuild(&mut self, runs: &BTreeSet<usize>, graph: bool, syncing: bool) {
        for &r in runs {
            let acc = &mut self.runs[r];
            acc.cookie = SymCookiePartial::default();
            acc.tracking = SymTrackingPartial::default();
            for seg in self.segments.iter().filter(|seg| seg.run_idx == r) {
                acc.cookie.merge(seg.cookie.as_ref().expect("refreshed"));
                acc.tracking
                    .merge(seg.tracking.as_ref().expect("refreshed"));
            }
        }
        if !runs.is_empty() {
            self.cookie_all = SymCookiePartial::default();
            self.tracking_all = SymTrackingPartial::default();
            for acc in &self.runs {
                self.cookie_all.merge(&acc.cookie);
                self.tracking_all.merge(&acc.tracking);
            }
        }
        if graph {
            self.graph_seen.clear();
            self.graph = Graph::new();
            self.graph_measured = None;
            for s in 0..self.segments.len() {
                self.add_edges(s);
            }
        }
        if syncing {
            self.syncing = SyncSegment::default();
            for seg in &self.segments {
                self.syncing.merge(seg.syncing.as_ref().expect("refreshed"));
            }
        }
        let refolded = if graph || syncing {
            self.segments.len()
        } else {
            self.segments
                .iter()
                .filter(|seg| runs.contains(&seg.run_idx))
                .count()
        };
        self.partials_folded += refolded as u64;
    }

    /// Reloads segment `s`'s columns if spilled and marks it most
    /// recently used.
    fn ensure_resident(&mut self, s: usize) {
        if self.segments[s].cols.is_some() {
            if let Some(pos) = self.lru.iter().position(|&x| x == s) {
                self.lru.remove(pos);
                self.lru.push(s);
            }
            return;
        }
        let cols = self
            .store
            .load(s)
            .unwrap_or_else(|e| panic!("frame segment {s} failed to load from spill: {e}"));
        self.resident_bytes += self.segments[s].bytes;
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        self.segments[s].cols = Some(cols);
        self.lru.push(s);
    }

    /// Evicts least-recently-used segments until the resident bytes
    /// fit the budget. Must not run while any segment's columns are
    /// taken out.
    fn enforce_budget(&mut self) {
        let Some(budget) = self.store.budget else {
            return;
        };
        while self.resident_bytes > budget && !self.lru.is_empty() {
            let victim = self.lru.remove(0);
            let cols = self.segments[victim]
                .cols
                .take()
                .expect("lru entries are resident");
            self.store
                .spill(victim, &cols)
                .unwrap_or_else(|e| panic!("frame segment {victim} failed to spill: {e}"));
            self.resident_bytes -= self.segments[victim].bytes;
        }
    }

    /// The [`EpochPartial`] of rows `rows` of a segment being sealed;
    /// `body_leaks` holds those rows' body leak verdicts.
    fn seal_partial(
        &self,
        cols: &SegmentCols,
        rows: Range<usize>,
        body_leaks: &[Option<(bool, bool)>],
        run: RunKind,
    ) -> EpochPartial {
        let mut p = EpochPartial {
            cookie: cookie_partial(cols, rows.clone(), &self.fp_syms),
            tracking: tracking_partial(cols, rows.clone(), &self.fp_syms, &self.class_memo),
            graph: graph_edges(cols, rows.clone(), &self.fp_syms),
            syncing: sync_segment(
                cols,
                rows.clone(),
                run,
                &self.url_info,
                &self.sync_values,
                &self.owners,
                &self.etld1s,
            ),
            ..EpochPartial::default()
        };
        let leak = &mut p.leakage;
        for (i, body_leak) in rows.zip(body_leaks) {
            let info = &self.url_info[cols.url_sym[i] as usize];
            let ch_raw = cols.channel[i];
            let channel = (ch_raw != u32::MAX).then_some(ChannelId(ch_raw));
            if let Some(ch) = channel {
                p.channels.insert(ch);
                *p.sig_req.entry(ch).or_insert(0) += 1;
                let cok = p.sig_cok.entry(ch).or_insert(0);
                if !cols.rows_of(i).is_empty() {
                    *cok += 1;
                }
            }
            p.values.extend(info.sync_vals.iter().copied());

            // §V-B: bodyless requests take the URL's verdicts.
            let (has_technical, genre_keyword) =
                body_leak.unwrap_or((info.tech_bodyless, info.genre_keyword_bodyless));
            let has_genre = info.genre_param || genre_keyword;
            if has_technical {
                leak.technical_receivers.insert(info.etld1_sym);
                if let Some(ch) = channel {
                    leak.channels_with_technical.insert(ch);
                }
            }
            if has_genre {
                if let Some(ch) = channel {
                    leak.channels_with_genre.insert(ch);
                }
            }
            if let Some(b) = &info.brand {
                leak.brands.insert(b.clone());
            }
            if has_genre || info.has_show || info.brand.is_some() {
                leak.personal += 1;
                if let Some(ch) = channel {
                    *leak.per_channel.entry(ch).or_insert(0) += 1;
                }
            }
        }
        p
    }

    /// Probes the five lists for every classification key of `blocks`
    /// that the memo lacks and records the verdicts. Afterwards every
    /// key of `blocks` is a memo hit.
    ///
    /// The miss scan runs on the workers in row chunks, each returning
    /// its distinct misses; the calling thread drops the misses an
    /// earlier chunk already queued, and the probes fan out at
    /// [`PROBE_CHUNK_LEN`]. The distinct misses, and so
    /// `classify_calls`, do not depend on the chunking.
    fn fill_class_memo(&mut self, blocks: &[&SegmentCols]) {
        let ranges: Vec<(&SegmentCols, Range<usize>)> = blocks
            .iter()
            .flat_map(|cols| {
                let n = cols.len();
                (0..n)
                    .step_by(CHUNK_LEN)
                    .map(move |a| (*cols, a..n.min(a + CHUNK_LEN)))
            })
            .collect();
        let (fp_syms, memo) = (&self.fp_syms, &self.class_memo);
        let found = par_map(&ranges, |_, (cols, rows)| {
            let mut fp = FirstParty::new(fp_syms);
            let mut misses: Vec<(u32, u8)> = rows
                .clone()
                .map(|i| class_key(cols, i, &mut fp))
                .filter(|&(u, slot, _)| memo[u as usize][slot] == UNCLASSIFIED)
                .map(|(u, slot, _)| (u, slot as u8))
                .collect();
            misses.sort_unstable();
            misses.dedup();
            misses
        });
        let mut misses: Vec<(u32, u8)> = Vec::new();
        for (u, slot) in found.into_iter().flatten() {
            let verdict = &mut self.class_memo[u as usize][usize::from(slot)];
            if *verdict == UNCLASSIFIED {
                *verdict = 0; // queued
                misses.push((u, slot));
            }
        }
        let (url_texts, url_info, etld1s) = (&self.url_texts, &self.url_info, &self.etld1s);
        let bits = par_chunks(&misses, PROBE_CHUNK_LEN, |chunk| {
            chunk
                .iter()
                .map(|&key| list_bits(key, url_texts, url_info, etld1s))
                .collect::<Vec<_>>()
        });
        self.classify_calls += misses.len() as u64;
        for ((u, slot), bits) in misses.into_iter().zip(bits.into_iter().flatten()) {
            self.class_memo[u as usize][usize::from(slot)] = bits;
        }
    }

    /// Recomputes every invalidated partial from its segment's columns
    /// (reloading spilled columns on demand), counting the segments in
    /// `delta_recomputes`, and rebuilds the accumulators the stale
    /// partials had been folded into.
    ///
    /// The recomputes fan out over the worker pool: an election flip
    /// invalidates every segment carrying the flipped channel, so a
    /// refresh after one is the widest burst of work a report does.
    /// The classification misses are filled first, so each segment's
    /// partials are pure functions of its columns and the
    /// (frozen-for-the-duration) builder tables, and workers share the
    /// tables read-only. Reports are byte-identical at any worker
    /// count.
    fn refresh(&mut self) {
        let dirty: Vec<usize> = (0..self.segments.len())
            .filter(|&s| {
                let seg = &self.segments[s];
                seg.cookie.is_none()
                    || seg.tracking.is_none()
                    || seg.graph.is_none()
                    || seg.syncing.is_none()
            })
            .collect();
        if dirty.is_empty() {
            self.enforce_budget();
            return;
        }
        // Residency is LRU bookkeeping — sequential by nature. Load
        // every dirty segment first, then take the column blocks out so
        // the parallel region borrows only immutable builder state.
        for &s in &dirty {
            self.ensure_resident(s);
        }
        let jobs: Vec<(usize, SegmentCols)> = dirty
            .iter()
            .map(|&s| (s, self.segments[s].cols.take().expect("just made resident")))
            .collect();
        let blocks: Vec<&SegmentCols> = jobs
            .iter()
            .filter(|(s, _)| self.segments[*s].tracking.is_none())
            .map(|(_, cols)| cols)
            .collect();
        self.fill_class_memo(&blocks);

        // A dirty segment's `None` partials are the ones to recompute.
        let segments = &self.segments;
        let url_info = &self.url_info;
        let etld1s = &self.etld1s;
        let fp_syms = &self.fp_syms;
        let sync_values = &self.sync_values;
        let owners = &self.owners;
        let memo = &self.class_memo;
        type Recompute = (
            Option<SymCookiePartial>,
            Option<SymTrackingPartial>,
            Option<Vec<(u64, u64)>>,
            Option<SyncSegment>,
        );
        let results: Vec<Recompute> = par_map(&jobs, |_, (s, cols)| {
            let seg = &segments[*s];
            let all = 0..cols.len();
            let cookie = seg
                .cookie
                .is_none()
                .then(|| cookie_partial(cols, all.clone(), fp_syms));
            let tracking = seg
                .tracking
                .is_none()
                .then(|| tracking_partial(cols, all.clone(), fp_syms, memo));
            let graph = seg
                .graph
                .is_none()
                .then(|| graph_edges(cols, all.clone(), fp_syms));
            let syncing = seg
                .syncing
                .is_none()
                .then(|| sync_segment(cols, all, seg.run, url_info, sync_values, owners, etld1s));
            (cookie, tracking, graph, syncing)
        });

        self.delta_recomputes += jobs.len() as u64;
        let mut stale_runs = BTreeSet::new();
        let (mut graph_stale, mut sync_stale) = (false, false);
        for ((s, cols), (cookie, tracking, graph, syncing)) in jobs.into_iter().zip(results) {
            let seg = &mut self.segments[s];
            if cookie.is_some() || tracking.is_some() {
                stale_runs.insert(seg.run_idx);
            }
            graph_stale |= graph.is_some();
            sync_stale |= syncing.is_some();
            seg.cookie = seg.cookie.take().or(cookie);
            seg.tracking = seg.tracking.take().or(tracking);
            seg.graph = seg.graph.take().or(graph);
            seg.syncing = seg.syncing.take().or(syncing);
            seg.cols = Some(cols);
        }
        self.rebuild(&stale_runs, graph_stale, sync_stale);
        self.enforce_budget();
    }

    /// The fold sequence both front ends report through: refreshes
    /// invalidated partials (rebuilding the accumulators they were in),
    /// then resolves every pass's accumulators against `dataset` (the
    /// dataset the segments were sealed from), each under its
    /// `analysis.*` span on `tel`, in canonical order. The
    /// first-parties span covers the refresh, the work a first-party
    /// election costs beyond sealing.
    pub(crate) fn report(
        &mut self,
        eco: &Ecosystem,
        dataset: &StudyDataset,
        tel: &Telemetry,
    ) -> StudyReport {
        let first_parties = {
            let _s = tel.span("analysis.first_parties");
            self.refresh();
            self.fp_map.clone()
        };
        let tracking = {
            let _s = tel.span("analysis.tracking");
            self.fold_tracking(dataset)
        };
        let cookies = {
            let _s = tel.span("analysis.cookies");
            self.fold_cookies(dataset)
        };
        let categories = {
            let _s = tel.span("analysis.categories");
            CategoryAnalysis::compute(eco, &tracking)
        };
        let children = {
            let _s = tel.span("analysis.children");
            self.fold_children(eco, &tracking)
        };
        let leakage = {
            let _s = tel.span("analysis.leakage");
            self.fold_leakage()
        };
        let syncing = {
            let _s = tel.span("analysis.syncing");
            self.fold_syncing()
        };
        let graph = {
            let _s = tel.span("analysis.graph");
            self.fold_graph()
        };
        let consent = {
            let _s = tel.span("analysis.consent");
            self.fold_consent(dataset)
        };
        let policies = {
            let _s = tel.span("analysis.policies");
            self.fold_policies(dataset)
        };
        let significance = {
            let _s = tel.span("analysis.significance");
            self.fold_significance()
        };
        StudyReport {
            protocol: self.fold_protocol(dataset),
            first_parties,
            leakage,
            cookies,
            syncing,
            tracking,
            categories,
            children,
            graph,
            consent,
            policies,
            significance,
            telemetry: None,
        }
    }

    // ---- folds: each resolves its accumulators (`refresh` first) ----

    fn fold_cookies(&self, dataset: &StudyDataset) -> CookieAnalysis {
        let mut per_run = BTreeMap::new();
        let mut third_party_per_run = BTreeMap::new();
        for (run_ds, acc) in dataset.runs.iter().zip(&self.runs) {
            let run = &acc.cookie;
            per_run.insert(
                run_ds.run,
                CookieRow {
                    total: run.keys.len(),
                    first_party: run.fp_keys.len(),
                    third_party: run.tp_keys.len(),
                    local_storage: run_ds.local_storage.len(),
                },
            );
            // The naive path iterates parties in eTLD+1 order and f64
            // summation is order-sensitive, so sort before describing.
            let mut party_counts: Vec<(&Etld1, usize)> = run
                .tp_parties
                .iter()
                .map(|(p, ks)| (&self.etld1s[*p as usize], ks.len()))
                .collect();
            party_counts.sort_by(|a, b| a.0.cmp(b.0));
            let counts: Vec<f64> = party_counts.iter().map(|(_, n)| *n as f64).collect();
            third_party_per_run.insert(
                run_ds.run,
                ThirdPartyRow {
                    parties: run.tp_parties.len(),
                    cookies: run.tp_parties.values().map(BTreeSet::len).sum(),
                    per_party: describe(&counts),
                },
            );
        }
        CookieAnalysis::finish(
            per_run,
            third_party_per_run,
            self.cookie_all.resolve(&self.cookie_keys, &self.etld1s),
            dataset.runs.iter().map(|r| r.local_storage.len()).sum(),
        )
    }

    fn fold_tracking(&self, dataset: &StudyDataset) -> TrackingAnalysis {
        let mut per_run = BTreeMap::new();
        for (run_ds, acc) in dataset.runs.iter().zip(&self.runs) {
            let row: &mut TrackingRow = per_run.entry(run_ds.run).or_default();
            row.add_row(&acc.tracking.row);
        }
        TrackingAnalysis::finish(per_run, self.tracking_all.resolve(&self.etld1s))
    }

    fn fold_significance(&self) -> SignificanceReport {
        let mut requests_by_run: Vec<Vec<f64>> = Vec::new();
        let mut cookies_by_run: Vec<Vec<f64>> = Vec::new();
        let mut per_channel: BTreeMap<ChannelId, Vec<f64>> = BTreeMap::new();
        for acc in &self.runs {
            requests_by_run.push(acc.sig_req.values().map(|&n| n as f64).collect());
            cookies_by_run.push(acc.sig_cok.values().map(|&n| n as f64).collect());
            for (ch, &n) in &acc.sig_req {
                per_channel.entry(*ch).or_default().push(n as f64);
            }
        }
        SignificanceReport::finish(requests_by_run, cookies_by_run, per_channel)
    }

    fn fold_leakage(&self) -> LeakageAnalysis {
        let l = &self.leakage;
        LeakageAnalysis {
            channels_with_technical: l.channels_with_technical.clone(),
            technical_receivers: l
                .technical_receivers
                .iter()
                .map(|&s| self.etld1s[s as usize].clone())
                .collect(),
            channels_with_genre: l.channels_with_genre.clone(),
            personal_data_requests: l.personal,
            brands_observed: l.brands.clone(),
            per_channel: l.per_channel.clone(),
        }
    }

    fn fold_syncing(&self) -> SyncingAnalysis {
        let s = &self.syncing;
        SyncingAnalysis {
            potential_ids: self.potential_ids,
            timestamp_exclusions: self.timestamp_exclusions,
            synced_values: s.synced.clone(),
            events: s.events.clone(),
            syncing_domains: s.domains.clone(),
            channels: s.channels.clone(),
            runs: s.runs.clone(),
        }
    }

    /// The graph's measurement, re-taken only when an edge was added
    /// since the last report.
    fn fold_graph(&mut self) -> GraphAnalysis {
        let graph = &self.graph;
        self.graph_measured
            .get_or_insert_with(|| GraphAnalysis::measure(graph.clone()))
            .clone()
    }

    /// Table I's request split per run, from the sealed HTTPS counts.
    fn fold_protocol(&self, dataset: &StudyDataset) -> Vec<(usize, usize, f64)> {
        dataset
            .runs
            .iter()
            .zip(&self.runs)
            .map(|(run_ds, acc)| protocol_split(run_ds.captures.len(), acc.https))
            .collect()
    }

    fn fold_consent(&self, dataset: &StudyDataset) -> ConsentAnalysis {
        let mut overlays_per_run = BTreeMap::new();
        let mut prevalence_per_run = BTreeMap::new();
        let mut channels_with_privacy_info = BTreeSet::new();
        let mut channels_observed = BTreeSet::new();
        let mut brandings: BTreeMap<NoticeBranding, BTreeSet<ChannelId>> = BTreeMap::new();
        let mut deepest_layer_per_run = BTreeMap::new();
        let mut channels_with_pointer = BTreeSet::new();
        for (run_ds, acc) in dataset.runs.iter().zip(&self.runs) {
            let part = &acc.consent;
            overlays_per_run.insert(run_ds.run, part.overlays.clone());
            prevalence_per_run.insert(run_ds.run, part.prevalence.clone());
            deepest_layer_per_run.insert(run_ds.run, part.deepest);
            channels_with_privacy_info.extend(part.privacy_channels.iter().copied());
            channels_observed.extend(part.observed.iter().copied());
            channels_with_pointer.extend(part.pointer.iter().copied());
            for (b, chs) in &part.brandings {
                brandings.entry(*b).or_default().extend(chs.iter().copied());
            }
        }
        let nudging = brandings
            .keys()
            .map(|&b| (b, analyze_nudging(&branding_catalog(b))))
            .collect();
        let consents_per_run = dataset
            .runs
            .iter()
            .map(|r| (r.run, r.consented_channels.len()))
            .collect();
        ConsentAnalysis {
            overlays_per_run,
            prevalence_per_run,
            channels_with_privacy_info,
            channels_observed: channels_observed.len(),
            brandings,
            deepest_layer_per_run,
            channels_with_pointer,
            nudging,
            consents_per_run,
        }
    }

    /// Feeds the candidate documents appended since the last report to
    /// the running corpus, then reports it: a report touches only new
    /// documents' bodies, plus the SimHash grouping over the unique
    /// policies.
    fn fold_policies(&mut self, dataset: &StudyDataset) -> PolicyAnalysis {
        for (r, i) in self.new_docs.drain(..) {
            let c = &dataset.runs[r as usize].captures[i as usize];
            let doc = DocRef {
                url: &c.request.url,
                channel: c.channel_name.as_deref().unwrap_or("unattributed"),
                run: &c.session,
                raw_text: &c.response.body,
            };
            self.corpus.push(&doc, PolicyAnalysis::manual_override);
        }
        let corpus = self.corpus.report();
        let mut window_reports = BTreeMap::new();
        for policy in &corpus.unique {
            if policy.annotation.profiling_window.is_none() {
                continue;
            }
            let observations: &[TrackingObservation] =
                match self.sym_of_glabel.get(policy.channel.as_str()) {
                    Some(&sym) => {
                        let rows = self
                            .tracking_obs
                            .get(sym as usize)
                            .map_or(&[][..], Vec::as_slice);
                        let done = self.window_obs.entry(sym).or_default();
                        let (url_info, etld1s) = (&self.url_info, &self.etld1s);
                        done.extend(rows[done.len()..].iter().map(|&(at, u)| {
                            let info = &url_info[u as usize];
                            TrackingObservation {
                                at,
                                tracker: etld1s[info.etld1_sym as usize].to_string(),
                                carried_user_id: info.has_uid,
                                carried_show: info.has_show,
                            }
                        }));
                        done
                    }
                    None => &[],
                };
            let report = check_profiling_window(&policy.annotation, observations);
            window_reports.insert(policy.channel.clone(), report);
        }
        PolicyAnalysis::aggregate(corpus, window_reports)
    }

    fn fold_children(&self, eco: &Ecosystem, tracking: &TrackingAnalysis) -> ChildrenCaseStudy {
        let targeting: BTreeSet<CookieKey> = self
            .targeting_syms
            .iter()
            .map(|&s| self.cookie_keys[s as usize].clone())
            .collect();
        let cookie_channels: BTreeMap<CookieKey, BTreeSet<ChannelId>> = self
            .cookie_channels
            .iter()
            .map(|(s, chs)| (self.cookie_keys[*s as usize].clone(), chs.clone()))
            .collect();
        ChildrenCaseStudy::compute(eco, tracking, &targeting, &cookie_channels)
    }
}

/// The graph label of node `id`: a domain above [`DOMAIN_BASE`], a
/// channel label below it.
fn graph_label<'a>(id: u64, glabels: &'a [String], etld1s: &'a [Etld1]) -> &'a str {
    if id >= DOMAIN_BASE {
        etld1s[(id - DOMAIN_BASE) as usize].as_str()
    } else {
        glabels[id as usize].as_str()
    }
}

/// §V-C over a segment's rows against the current first-party
/// assignment: [`CookieAnalysis::compute`]'s scan over symbols.
fn cookie_partial(
    cols: &SegmentCols,
    rows: Range<usize>,
    fp_syms: &HashMap<ChannelId, u32>,
) -> SymCookiePartial {
    let mut p = SymCookiePartial::default();
    let mut fp = FirstParty::new(fp_syms);
    let mut last: Option<(u32, bool, Range<usize>)> = None;
    for i in rows {
        let cookie_rows = cols.rows_of(i);
        if cookie_rows.is_empty() {
            continue;
        }
        let tracking = cols.flags[i] & (FLAG_PIXEL | FLAG_FINGERPRINT | FLAG_CANONICAL) != 0;
        let ch_raw = cols.channel[i];
        // Every insert below is idempotent, so an exchange repeating the
        // previous cookie-setting exchange's channel, tracking verdict
        // and rows (a visit's beacons) adds nothing.
        if let Some((ch, t, last)) = &last {
            if *ch == ch_raw
                && *t == tracking
                && cols.cookie_key[last.clone()] == cols.cookie_key[cookie_rows.clone()]
                && cols.cookie_domain[last.clone()] == cols.cookie_domain[cookie_rows.clone()]
            {
                continue;
            }
        }
        last = Some((ch_raw, tracking, cookie_rows.clone()));
        let channel = (ch_raw != u32::MAX).then_some(ChannelId(ch_raw));
        let fp_sym = fp.of(ch_raw);
        for r in cookie_rows {
            let k = cols.cookie_key[r];
            let d = cols.cookie_domain[r];
            p.keys.insert(k);
            p.parties.insert(d);
            if tracking {
                p.keys_by_tracking.insert(k);
            }
            if let Some(ch) = channel {
                p.per_channel_keys.entry(ch).or_default().insert(k);
                let third_party = match fp_sym {
                    Some(fp) => fp != d,
                    None => true,
                };
                if third_party {
                    p.tp_keys.insert(k);
                    p.per_channel_3p_keys.entry(ch).or_default().insert(k);
                    p.tp_parties.entry(d).or_default().insert(k);
                    p.party_channels.entry(d).or_default().insert(ch);
                } else {
                    p.fp_keys.insert(k);
                }
            }
        }
    }
    p
}

/// The classification memo key of exchange `i`: its URL symbol and
/// [`class_slot`], plus whether it is third party against the current
/// first-party assignment.
fn class_key(cols: &SegmentCols, i: usize, fp: &mut FirstParty<'_>) -> (u32, usize, bool) {
    let third_party = match fp.of(cols.channel[i]) {
        Some(fp) => fp != cols.etld1_sym[i],
        None => true,
    };
    (
        cols.url_sym[i],
        class_slot(third_party, cols.content_type[i]),
        third_party,
    )
}

/// The five list verdicts for a classification key (URL symbol,
/// [`class_slot`]), as `BIT_*` flags.
fn list_bits(
    (u, slot): (u32, u8),
    url_texts: &[String],
    url_info: &[UrlInfo],
    etld1s: &[Etld1],
) -> u8 {
    let info = &url_info[u as usize];
    let text = url_texts[u as usize].as_str();
    let view = UrlView::new(text, &info.host, etld1s[info.etld1_sym as usize].as_str());
    let slot = usize::from(slot);
    let ctx = RequestContext {
        third_party: slot >= KINDS.len(),
        kind: KINDS[slot % KINDS.len()],
    };
    let mut bits = 0u8;
    if bundled::pihole_ref().matches_view(&view, ctx) {
        bits |= BIT_PIHOLE;
    }
    if bundled::easylist_ref().matches_view(&view, ctx) {
        bits |= BIT_EASYLIST;
    }
    if bundled::easyprivacy_ref().matches_view(&view, ctx) {
        bits |= BIT_EASYPRIVACY;
    }
    if bundled::perflyst_ref().matches_view(&view, ctx) {
        bits |= BIT_PERFLYST;
    }
    if bundled::kamran_ref().matches_view(&view, ctx) {
        bits |= BIT_KAMRAN;
    }
    bits
}

/// §V-D over a segment's rows against the current first-party
/// assignment, reading the list verdicts from the filled memo.
fn tracking_partial(
    cols: &SegmentCols,
    rows: Range<usize>,
    fp_syms: &HashMap<ChannelId, u32>,
    memo: &[[u8; CLASS_SLOTS]],
) -> SymTrackingPartial {
    let mut p = SymTrackingPartial::default();
    let mut fp = FirstParty::new(fp_syms);
    for i in rows {
        p.total += 1;
        let sym = cols.etld1_sym[i];
        let ch_raw = cols.channel[i];
        let channel = (ch_raw != u32::MAX).then_some(ChannelId(ch_raw));
        let (u, slot, third_party) = class_key(cols, i, &mut fp);
        let bits = memo[u as usize][slot];
        debug_assert_ne!(bits, UNCLASSIFIED, "the memo was filled first");
        let on_el = bits & BIT_EASYLIST != 0;
        let on_ep = bits & BIT_EASYPRIVACY != 0;
        let on_ph = bits & BIT_PIHOLE != 0;
        if on_el {
            p.row.on_easylist += 1;
        }
        if on_ep {
            p.row.on_easyprivacy += 1;
        }
        if on_ph {
            p.row.on_pihole += 1;
        }
        if bits & BIT_PERFLYST != 0 {
            p.perflyst_hits += 1;
        }
        if bits & BIT_KAMRAN != 0 {
            p.kamran_hits += 1;
        }

        let pixel = cols.flags[i] & FLAG_PIXEL != 0;
        let fingerprint = cols.flags[i] & FLAG_FINGERPRINT != 0;
        if pixel {
            p.row.tracking_pixels += 1;
            p.pixel_parties.insert(sym);
            *p.pixel_party_requests.entry(sym).or_insert(0) += 1;
            if let Some(ch) = channel {
                p.channels_with_pixels.insert(ch);
                p.pixel_party_channels.entry(sym).or_default().insert(ch);
            }
        }
        if fingerprint {
            p.row.fingerprints += 1;
            p.fp_providers.insert(sym);
            if let Some(ch) = channel {
                p.fp_channels.insert(ch);
                if !third_party {
                    p.fp_requests_first_party += 1;
                    p.fp_provider_is_fp.insert(sym);
                }
            }
            if on_el {
                p.fp_el += 1;
            }
            if on_ep {
                p.fp_ep += 1;
            }
        }

        if pixel || fingerprint || on_el || on_ep || on_ph {
            if let Some(ch) = channel {
                *p.req_per_channel.entry(ch).or_insert(0) += 1;
                p.trackers_per_channel.entry(ch).or_default().insert(sym);
            }
        }
    }
    p
}

/// The ecosystem-graph edges of a segment's rows in first-occurrence
/// order, as unordered id pairs may repeat (see [`dedup_edges`]).
fn graph_edges(
    cols: &SegmentCols,
    rows: Range<usize>,
    fp_syms: &HashMap<ChannelId, u32>,
) -> Vec<(u64, u64)> {
    let mut edges: Vec<(u64, u64)> = Vec::new();
    let mut fp = FirstParty::new(fp_syms);
    for i in rows {
        let Some(fp) = fp.of(cols.channel[i]) else {
            continue;
        };
        let fp_id = DOMAIN_BASE + u64::from(fp);
        edges.push((u64::from(cols.chan_label[i]), fp_id));
        let dom_id = DOMAIN_BASE + u64::from(cols.etld1_sym[i]);
        if dom_id != fp_id {
            edges.push((fp_id, dom_id));
        }
    }
    dedup_edges(edges)
}

/// Keeps the first occurrence of every unordered id pair (the fold
/// re-deduplicates across segments).
///
/// `Graph::add_edge` creates both endpoint nodes before rejecting a
/// duplicate or self-loop, but a duplicate never introduces a node its
/// first occurrence didn't, and self-loops cannot occur (channel labels
/// carry the `ch:` prefix; the second edge is only emitted when the
/// domain differs from the first party). Replaying the distinct
/// unordered pairs in first-occurrence order therefore reproduces
/// [`GraphAnalysis::compute`]'s node ids and adjacency exactly.
fn dedup_edges(edges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    edges
        .into_iter()
        .filter(|&(a, b)| seen.insert((a.min(b), a.max(b))))
        .collect()
}

/// §V-C3 pass 2 over a segment's rows against the current owner
/// table, in capture and query-pair order.
fn sync_segment(
    cols: &SegmentCols,
    rows: Range<usize>,
    run: RunKind,
    url_info: &[UrlInfo],
    sync_values: &[String],
    owners: &HashMap<u32, BTreeSet<Etld1>>,
    etld1s: &[Etld1],
) -> SyncSegment {
    let mut out = SyncSegment::default();
    for i in rows {
        let info = &url_info[cols.url_sym[i] as usize];
        if info.sync_vals.is_empty() {
            continue;
        }
        let receiver = &etld1s[cols.etld1_sym[i] as usize];
        let ch_raw = cols.channel[i];
        let channel = (ch_raw != u32::MAX).then_some(ChannelId(ch_raw));
        for &v in &info.sync_vals {
            let Some(owner_set) = owners.get(&v) else {
                continue;
            };
            for owner in owner_set {
                if owner == receiver {
                    continue;
                }
                let value = sync_values[v as usize].clone();
                out.synced.insert(value.clone());
                out.domains.insert(owner.clone());
                out.domains.insert(receiver.clone());
                if let Some(ch) = channel {
                    out.channels.insert(ch);
                }
                out.runs.insert(run);
                out.events.push(SyncEvent {
                    owner: owner.clone(),
                    receiver: receiver.clone(),
                    value,
                    channel,
                    run,
                });
            }
        }
    }
    out
}

/// The incremental study: push runs, extend the last run with capture
/// epochs, and render a byte-identical [`StudyReport`] at any point.
pub struct IncrementalStudy {
    dataset: StudyDataset,
    builder: FrameBuilder,
    tel: Telemetry,
}

impl Default for IncrementalStudy {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalStudy {
    /// A study with no resident budget: every segment stays in memory.
    pub fn new() -> Self {
        Self::with_budget(None)
    }

    /// A study with an explicit resident-byte budget for segment
    /// columns (`None` = unlimited).
    pub fn with_budget(budget: Option<usize>) -> Self {
        IncrementalStudy {
            dataset: StudyDataset { runs: Vec::new() },
            builder: FrameBuilder::new(budget),
            tel: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry scope (counters `frame.*`, gauges, and the
    /// profile-mode `wall.frame.delta_report` histogram).
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.attach_telemetry(tel);
        self
    }

    /// In-place form of [`IncrementalStudy::with_telemetry`], for
    /// engines already embedded in a larger value (the ingest
    /// `LiveStudy` routes its `frame.*` cells into the collector's
    /// scope this way). Publishes the configured resident budget as the
    /// `frame.budget_bytes` gauge so watchdogs can compute residency.
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
        if self.tel.is_enabled() {
            if let Some(budget) = self.builder.store.budget {
                self.tel.gauge("frame.budget_bytes").set(budget as i64);
            }
            self.tel
                .gauge("frame.resident_bytes")
                .set(self.builder.resident_bytes as i64);
        }
    }

    /// Appends a run. Any captures already in the run become its first
    /// epoch; pass a run with empty captures and feed epochs through
    /// [`IncrementalStudy::extend_run`] for mid-run streaming.
    pub fn push_run(&mut self, mut run: RunDataset) {
        let caps = std::mem::take(&mut run.captures);
        self.builder.push_run(&run);
        self.dataset.runs.push(run);
        if !caps.is_empty() {
            self.extend_run(caps);
        }
    }

    /// Appends one epoch of captures to the most recently pushed run.
    pub fn extend_run(&mut self, captures: Vec<CapturedExchange>) {
        if captures.is_empty() {
            return;
        }
        let run_idx = self
            .dataset
            .runs
            .len()
            .checked_sub(1)
            .expect("extend_run requires a pushed run");
        let run_ds = &mut self.dataset.runs[run_idx];
        let run = run_ds.run;
        let base = run_ds.captures.len();
        run_ds.captures.extend(captures);
        let caps = &self.dataset.runs[run_idx].captures[base..];
        self.builder
            .append_epoch(run_idx, run, caps, base, &self.tel);
        if self.tel.is_enabled() {
            self.tel
                .gauge("frame.segments")
                .set(self.builder.segments.len() as i64);
            self.tel
                .gauge("frame.resident_bytes")
                .set(self.builder.resident_bytes as i64);
        }
    }

    /// Renders the report for everything appended so far —
    /// byte-identical to [`StudyReport::compute`] over the same
    /// dataset. Reads the running accumulators, so the cost is
    /// independent of how many segments came before: resolving symbols
    /// over the distinct keys, re-measuring the graph if an edge was
    /// added, SimHash grouping of the policy corpus, plus recomputing
    /// whatever the latest epochs invalidated (and rebuilding the
    /// accumulators that held it).
    pub fn report(&mut self, eco: &Ecosystem) -> StudyReport {
        let t0 = std::time::Instant::now();
        let before = self.builder.delta_recomputes;
        let report = self
            .builder
            .report(eco, &self.dataset, &Telemetry::disabled());
        let recomputed = self.builder.delta_recomputes - before;
        if self.tel.is_enabled() {
            self.tel.counter("frame.delta_reports").add(1);
            self.tel.counter("frame.delta_recomputes").add(recomputed);
            let b = &mut self.builder;
            self.tel
                .counter("frame.partials_folded")
                .add(b.partials_folded - b.emitted_partials_folded);
            b.emitted_partials_folded = b.partials_folded;
            self.tel
                .counter("frame.merged_keys")
                .add(b.merged_keys - b.emitted_merged_keys);
            b.emitted_merged_keys = b.merged_keys;
            let w = self.builder.store.spill_writes - self.builder.emitted_spill_writes;
            if w > 0 {
                self.tel.counter("frame.spill_writes").add(w);
                self.builder.emitted_spill_writes = self.builder.store.spill_writes;
            }
            let l = self.builder.store.spill_loads - self.builder.emitted_spill_loads;
            if l > 0 {
                self.tel.counter("frame.spill_loads").add(l);
                self.builder.emitted_spill_loads = self.builder.store.spill_loads;
            }
            self.tel
                .gauge("frame.segments")
                .set(self.builder.segments.len() as i64);
            self.tel
                .gauge("frame.peak_resident_bytes")
                .raise_to(self.builder.peak_resident_bytes as i64);
            if self.tel.mode().profile_on() {
                self.tel
                    .histogram("wall.frame.delta_report")
                    .record(t0.elapsed().as_micros() as u64);
            }
        }
        report
    }

    /// [`IncrementalStudy::report`] rendered against the accumulated
    /// dataset.
    pub fn render(&mut self, eco: &Ecosystem) -> String {
        let report = self.report(eco);
        report.render(&self.dataset)
    }

    /// The accumulated dataset (runs in push order, captures in append
    /// order).
    pub fn dataset(&self) -> &StudyDataset {
        &self.dataset
    }

    /// Number of sealed epoch segments.
    pub fn segments(&self) -> usize {
        self.builder.segments.len()
    }

    /// Current resident bytes of segment columns.
    pub fn resident_bytes(&self) -> usize {
        self.builder.resident_bytes
    }

    /// Peak resident bytes of segment columns.
    pub fn peak_resident_bytes(&self) -> usize {
        self.builder.peak_resident_bytes
    }

    /// Segments written to spill files so far.
    pub fn spill_writes(&self) -> u64 {
        self.builder.store.spill_writes
    }

    /// Segments reloaded from spill files so far.
    pub fn spill_loads(&self) -> u64 {
        self.builder.store.spill_loads
    }

    /// Segments whose partials were recomputed across all reports.
    pub fn delta_recomputes(&self) -> u64 {
        self.builder.delta_recomputes
    }

    /// Segment partials merged into the running accumulators so far:
    /// one per sealed segment, plus one per segment a rebuild after a
    /// recompute re-folds. A report with no new epoch and nothing to
    /// recompute adds none.
    pub fn partials_folded(&self) -> u64 {
        self.builder.partials_folded
    }

    /// Chunk-local keys (URLs, eTLD+1s, labels, cookie keys, values and
    /// distinct cookie pairs) sealing looked up in the global tables so
    /// far: the sequential share of sealing, a fraction of the captures
    /// on repetitive traffic.
    pub fn merged_keys(&self) -> u64 {
        self.builder.merged_keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunKind;
    use crate::{Ecosystem, StudyHarness};

    #[test]
    fn content_type_discriminants_round_trip() {
        for ct in [
            ContentType::Html,
            ContentType::JavaScript,
            ContentType::Image,
            ContentType::Json,
            ContentType::Css,
            ContentType::Video,
            ContentType::Other,
        ] {
            assert_eq!(content_type_from_u8(ct as u8), ct);
            // Each (party, content type) maps to the slot `list_bits`
            // reads the same request context back from.
            for third_party in [false, true] {
                let slot = class_slot(third_party, ct as u8);
                assert!(slot < CLASS_SLOTS);
                assert_eq!(slot >= KINDS.len(), third_party);
                assert_eq!(KINDS[slot % KINDS.len()], resource_kind_of_content(ct));
            }
        }
    }

    #[test]
    fn empty_study_reports_cleanly() {
        let eco = Ecosystem::with_scale(11, 0.05);
        let mut inc = IncrementalStudy::with_budget(None);
        let report = inc.report(&eco);
        assert_eq!(report.tracking.total_urls, 0);
    }

    #[test]
    fn classification_is_memoized_across_duplicate_urls() {
        let eco = Ecosystem::with_scale(11, 0.05);
        let harness = StudyHarness::new(&eco);
        let ds = StudyDataset {
            runs: vec![harness.run(RunKind::General), harness.run(RunKind::Red)],
        };
        let mut b = FrameBuilder::seal_all(&ds, &Telemetry::disabled());
        b.refresh();
        let exchanges: usize = ds.runs.iter().map(|r| r.captures.len()).sum();
        assert!(b.classify_calls > 0);
        assert!(
            b.classify_calls <= exchanges as u64,
            "at most one classification per exchange"
        );
        assert!(b.url_texts.len() <= exchanges);
        // Generated traffic repeats URLs heavily; the memo must actually
        // collapse duplicates, not just bound them.
        assert!(
            b.classify_calls < exchanges as u64 / 2,
            "{} classifications for {} exchanges",
            b.classify_calls,
            exchanges
        );
        // Exchanges sharing a URL symbol carry byte-identical URL texts.
        for seg in &b.segments {
            let cols = seg.cols.as_ref().expect("no budget, so nothing spills");
            let caps = &ds.runs[seg.run_idx].captures;
            assert_eq!(cols.len(), caps.len());
            for (c, &u) in caps.iter().zip(&cols.url_sym) {
                assert_eq!(b.url_texts[u as usize], c.request.url.to_text());
            }
        }
    }

    #[test]
    fn whole_run_appends_match_both_reference_paths() {
        let eco = Ecosystem::with_scale(11, 0.05);
        let harness = StudyHarness::new(&eco);
        let mut ds = StudyDataset { runs: Vec::new() };
        let mut inc = IncrementalStudy::with_budget(None);
        for kind in [RunKind::General, RunKind::Red] {
            let run = harness.run(kind);
            ds.runs.push(run.clone());
            inc.push_run(run);
            let live = inc.render(&eco);
            let built = StudyReport::compute(&eco, &ds).render(&ds);
            assert_eq!(live, built, "incremental == one-shot after {kind:?}");
            let naive = StudyReport::compute_naive(&eco, &ds).render(&ds);
            assert_eq!(live, naive, "incremental == naive after {kind:?}");
        }
    }

    #[test]
    fn mid_run_epochs_and_spilling_preserve_every_prefix() {
        let eco = Ecosystem::with_scale(11, 0.05);
        let harness = StudyHarness::new(&eco);
        let run1 = harness.run(RunKind::General);
        let run2 = harness.run(RunKind::Red);
        let mut inc = IncrementalStudy::with_budget(Some(4096));

        let mut meta1 = run1.clone();
        let caps1 = std::mem::take(&mut meta1.captures);
        inc.push_run(meta1);
        for chunk in caps1.chunks(97) {
            inc.extend_run(chunk.to_vec());
        }
        assert_eq!(
            inc.render(&eco),
            StudyReport::compute(
                &eco,
                &StudyDataset {
                    runs: vec![run1.clone()]
                }
            )
            .render(&StudyDataset {
                runs: vec![run1.clone()]
            }),
            "run 1 in epochs"
        );

        let mut meta2 = run2.clone();
        let caps2 = std::mem::take(&mut meta2.captures);
        inc.push_run(meta2);
        let chunks: Vec<&[CapturedExchange]> = caps2.chunks(97).collect();
        let half = chunks.len() / 2;
        let mut prefix_len = 0usize;
        for chunk in &chunks[..half] {
            inc.extend_run(chunk.to_vec());
            prefix_len += chunk.len();
        }
        let ds_prefix = StudyDataset {
            runs: vec![run1.clone(), {
                let mut r = run2.clone();
                r.captures.truncate(prefix_len);
                r
            }],
        };
        assert_eq!(
            inc.render(&eco),
            StudyReport::compute(&eco, &ds_prefix).render(&ds_prefix),
            "mid-run prefix"
        );
        for chunk in &chunks[half..] {
            inc.extend_run(chunk.to_vec());
        }
        let ds_full = StudyDataset {
            runs: vec![run1, run2],
        };
        let expected = StudyReport::compute(&eco, &ds_full).render(&ds_full);
        assert_eq!(inc.render(&eco), expected, "full dataset");
        assert_eq!(inc.render(&eco), expected, "reports are idempotent");
        assert!(inc.spill_writes() > 0, "the 4 KiB budget forces spills");
        assert!(inc.resident_bytes() <= 4096, "budget holds after report");
        assert!(inc.peak_resident_bytes() >= inc.resident_bytes());
    }

    /// One-capture epochs put a channel's image-only captures in sealed
    /// segments before the epoch that first elects its first party, so
    /// the election invalidates them and `refresh` must recompute their
    /// partials. Every step still renders like the one-shot engine, and
    /// the last like the naive oracle.
    #[test]
    fn first_time_elections_recompute_sealed_segments() {
        let eco = Ecosystem::with_scale(11, 0.05);
        let mut run = StudyHarness::new(&eco).run(RunKind::General);
        run.captures.truncate(200);
        let caps = std::mem::take(&mut run.captures);
        let mut inc = IncrementalStudy::with_budget(None);
        inc.push_run(run.clone());
        let mut live = String::new();
        for (n, c) in caps.into_iter().enumerate() {
            run.captures.push(c.clone());
            inc.extend_run(vec![c]);
            let ds = StudyDataset {
                runs: vec![run.clone()],
            };
            live = inc.render(&eco);
            assert_eq!(
                live,
                StudyReport::compute(&eco, &ds).render(&ds),
                "after {} captures",
                n + 1
            );
        }
        assert!(inc.delta_recomputes() > 0, "no segment was ever recomputed");
        let ds = StudyDataset { runs: vec![run] };
        assert_eq!(
            live,
            StudyReport::compute_naive(&eco, &ds).render(&ds),
            "final render vs the naive oracle"
        );
    }

    /// A channel whose first run carries only captures that cannot
    /// elect a first party (images, JSON, ...) is first elected in the
    /// second run. The election dirties first-run segments that earlier
    /// reports already folded into that run's accumulators, so the
    /// refresh must rebuild them. Both front ends share the
    /// accumulators, so every epoch is checked against the naive
    /// oracle.
    #[test]
    fn later_run_elections_rebuild_consumed_accumulators() {
        let eco = Ecosystem::with_scale(11, 0.05);
        let harness = StudyHarness::new(&eco);
        let mut run1 = harness.run(RunKind::General);
        let run2 = harness.run(RunKind::Red);
        let electing = |c: &CapturedExchange| {
            matches!(
                c.response.content_type,
                ContentType::Html | ContentType::JavaScript | ContentType::Css
            )
        };
        // A channel run 2 elects that also has non-electing captures in
        // run 1; run 1 keeps only those.
        let fp2 = FirstPartyMap::identify(&StudyDataset {
            runs: vec![run2.clone()],
        });
        let ch = run1
            .captures
            .iter()
            .filter(|c| !electing(c))
            .filter_map(|c| c.channel)
            .find(|&ch| fp2.first_party(ch).is_some())
            .expect("a channel both runs carry");
        run1.captures
            .retain(|c| c.channel != Some(ch) || !electing(c));

        // The accumulator-fed structs in full (the graph by node order
        // and adjacency: its label index is a HashMap), plus the render.
        let shape = |r: &StudyReport, ds: &StudyDataset| {
            let g = &r.graph.graph;
            let graph: Vec<(&str, Vec<&str>)> = g
                .nodes()
                .map(|id| (g.label(id), g.neighbors(id).map(|n| g.label(n)).collect()))
                .collect();
            format!(
                "{:?}\n{:?}\n{:?}\n{:?}\n{graph:?}\n{}",
                r.cookies,
                r.tracking,
                r.syncing,
                r.leakage,
                r.render(ds)
            )
        };
        let mut inc = IncrementalStudy::with_budget(None);
        let mut ds = StudyDataset { runs: Vec::new() };
        for run in [run1, run2] {
            let mut meta = run;
            let caps = std::mem::take(&mut meta.captures);
            inc.push_run(meta.clone());
            ds.runs.push(meta);
            for chunk in caps.chunks(caps.len().div_ceil(6)) {
                inc.extend_run(chunk.to_vec());
                ds.runs
                    .last_mut()
                    .unwrap()
                    .captures
                    .extend_from_slice(chunk);
                assert_eq!(
                    shape(&inc.report(&eco), &ds),
                    shape(&StudyReport::compute_naive(&eco, &ds), &ds),
                    "after {} segments",
                    inc.segments()
                );
            }
        }
        assert!(inc.delta_recomputes() > 0, "the election dirtied nothing");
        assert!(
            inc.partials_folded() > inc.segments() as u64,
            "no accumulator was rebuilt"
        );
    }

    /// The O(k) guard: a report folds only the segments sealed since
    /// the last one. With nothing to recompute, every segment is folded
    /// exactly once however often the study reports, and a report with
    /// no new epoch folds nothing.
    #[test]
    fn reports_fold_each_segment_once() {
        let eco = Ecosystem::with_scale(42, 0.05);
        let ds = StudyHarness::new(&eco).run_all();
        let epoch = ds.total_requests() / 60;
        let mut inc = IncrementalStudy::with_budget(None);
        for mut meta in ds.runs {
            let caps = std::mem::take(&mut meta.captures);
            inc.push_run(meta);
            for chunk in caps.chunks(epoch) {
                inc.extend_run(chunk.to_vec());
                inc.report(&eco);
                assert_eq!(inc.delta_recomputes(), 0, "this stream recomputes nothing");
                assert_eq!(inc.partials_folded(), inc.segments() as u64);
                inc.report(&eco);
                assert_eq!(
                    inc.partials_folded(),
                    inc.segments() as u64,
                    "a report with no new epoch folded a partial"
                );
            }
        }
        assert!(inc.segments() >= 50, "{} epochs", inc.segments());
    }

    /// Sealing interns chunk-local keys on the workers and merges them
    /// chunk by chunk, so the symbol tables must not depend on how the
    /// captures fall into chunks: they must equal the per-capture walk,
    /// which one-capture epochs are by construction. Each run's prefix
    /// carries several probe grains of new URLs and of memo misses, so
    /// the probes split at 2 and 3 workers; the first run's prefix ends
    /// with one `Set-Cookie` row recurring under channels A, B, A.
    #[test]
    fn interning_is_independent_of_chunking() {
        use crate::analysis::Runtime;
        let eco = Ecosystem::with_scale(11, 0.05);
        let harness = StudyHarness::new(&eco);
        let ds = StudyDataset {
            runs: vec![harness.run(RunKind::General), harness.run(RunKind::Red)],
        };
        let mut prefix = StudyDataset {
            runs: ds
                .runs
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    r.captures.truncate(3000);
                    r
                })
                .collect(),
        };
        let caps = &mut prefix.runs[0].captures;
        let setter = caps
            .iter()
            .find(|c| c.channel.is_some() && c.response.headers.get_all("Set-Cookie").count() > 0)
            .expect("a capture that sets a cookie on a channel")
            .clone();
        let (a, b) = (
            setter.channel.expect("on a channel"),
            caps.iter()
                .filter_map(|c| c.channel)
                .find(|&ch| Some(ch) != setter.channel)
                .expect("a second channel"),
        );
        let recur_at = caps.len();
        for ch in [a, b, a] {
            caps.push(CapturedExchange {
                channel: Some(ch),
                ..setter.clone()
            });
        }

        let tables = |b: &FrameBuilder| {
            let infos: Vec<(u32, &[u32])> = b
                .url_info
                .iter()
                .map(|i| (i.etld1_sym, i.sync_vals.as_slice()))
                .collect();
            format!(
                "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{infos:?}\n{:?}",
                b.url_texts, b.etld1s, b.cookie_keys, b.sync_values, b.glabels, b.cookie_channels
            )
        };
        let columns = |b: &FrameBuilder| {
            SegmentCols::concat(
                b.segments
                    .iter()
                    .map(|seg| seg.cols.clone().expect("no budget, so nothing spills"))
                    .collect(),
            )
        };

        let mut walk = IncrementalStudy::with_budget(None);
        for mut meta in prefix.runs.clone() {
            let caps = std::mem::take(&mut meta.captures);
            walk.push_run(meta);
            for c in caps {
                walk.extend_run(vec![c]);
            }
        }
        let walked = &walk.builder;
        let first_run = &walked.segments[..prefix.runs[0].captures.len()];
        let first_run_urls = first_run
            .iter()
            .flat_map(|seg| &seg.cols.as_ref().expect("resident").url_sym)
            .max()
            .map_or(0, |&u| u as usize + 1);
        let new_urls = walked.url_texts.len() - first_run_urls;
        assert!(
            new_urls > 2 * PROBE_CHUNK_LEN,
            "the second run's {new_urls} new URLs fill fewer than three probe grains"
        );
        let key = first_run[recur_at]
            .cols
            .as_ref()
            .expect("resident")
            .cookie_key[0];
        let channels = &walked.cookie_channels[&key];
        assert!(
            channels.contains(&a) && channels.contains(&b),
            "{channels:?}"
        );

        let mut full = Vec::new();
        for workers in [0, 2, 3, 8] {
            let rt = Runtime::with_workers(workers);
            let (whole, part) = rt.install(|| {
                let tel = Telemetry::disabled();
                (
                    FrameBuilder::seal_all(&ds, &tel),
                    FrameBuilder::seal_all(&prefix, &tel),
                )
            });
            assert_eq!(tables(&part), tables(walked), "prefix at {workers} workers");
            assert!(
                columns(&part) == columns(walked),
                "prefix columns at {workers} workers"
            );
            full.push((tables(&whole), whole.classify_calls, part.classify_calls));
        }
        assert!(
            full.windows(2).all(|w| w[0] == w[1]),
            "tables or memo misses vary with workers"
        );
    }

    /// `refresh` fans segment recomputes over the worker pool; with the
    /// memo filled before the fan-out, the rendered report must be
    /// byte-identical at every worker count. Small epochs under a tight
    /// budget maximize segments (and thus election-flip invalidations
    /// crossing segment boundaries), so the parallel region actually
    /// runs wide here. Two layouts: every epoch 61 captures, and a first
    /// epoch per run of 3,000 captures (several probe grains of new
    /// URLs, so sealing splits its probes at 2 and 3 workers) followed
    /// by 61-capture epochs.
    #[test]
    fn refresh_is_deterministic_across_worker_counts() {
        use crate::analysis::Runtime;
        let eco = Ecosystem::with_scale(11, 0.05);
        let harness = StudyHarness::new(&eco);
        let run1 = harness.run(RunKind::General);
        let run2 = harness.run(RunKind::Red);
        let ds = StudyDataset {
            runs: vec![run1.clone(), run2.clone()],
        };
        let compute = StudyReport::compute(&eco, &ds).render(&ds);
        let render_with = |first_epoch: usize, workers: usize| {
            let rt = Runtime::with_workers(workers);
            rt.install(|| {
                let mut inc = IncrementalStudy::with_budget(Some(4096));
                for run in [run1.clone(), run2.clone()] {
                    let mut meta = run;
                    let mut caps = std::mem::take(&mut meta.captures);
                    let rest = caps.split_off(first_epoch.min(caps.len()));
                    inc.push_run(meta);
                    inc.extend_run(caps);
                    for chunk in rest.chunks(61) {
                        inc.extend_run(chunk.to_vec());
                    }
                }
                inc.render(&eco)
            })
        };
        for first_epoch in [61, 3000] {
            for workers in [1, 2, 3, 8] {
                assert_eq!(
                    compute,
                    render_with(first_epoch, workers),
                    "a {first_epoch}-capture first epoch at {workers} workers diverged \
                     from the one-shot engine"
                );
            }
        }
    }
}
