//! Incremental, out-of-core study computation: epoch segments and
//! O(k) report deltas.
//!
//! [`IncrementalStudy`] accepts captures in epochs (arbitrary batch
//! boundaries inside each run) and can render a [`StudyReport`] at any
//! prefix that is byte-identical to [`StudyReport::compute`] /
//! [`StudyReport::compute_naive`] over the same dataset. Appending an
//! epoch costs work proportional to the epoch (plus any earlier
//! segments invalidated by a first-party flip or a new sync-value
//! owner), not to the whole dataset:
//!
//! * Each epoch seals into an immutable [`SegmentCols`] block of
//!   fixed-width symbol columns. The variable-width tables (URL texts,
//!   eTLD+1s, cookie keys, graph labels, sync values) grow
//!   monotonically in the builder and are shared by every segment, so
//!   a segment is only `u32`/`u8` arrays and can spill to disk.
//! * Every analysis pass keeps a per-segment partial (the same
//!   symbol-space partials the parallel frame path folds); a report
//!   folds the cached partials and resolves symbols once at the end.
//! * Partials that depend on cross-epoch state — the first-party
//!   election (cookies, tracking, graph) and the sync-value owner
//!   table (syncing) — are invalidated per segment when that state
//!   actually changes and recomputed from the segment's columns on the
//!   next report, reloading spilled columns on demand.
//! * A resident-byte budget ([`FRAME_BUDGET_ENV`], or an explicit
//!   [`IncrementalStudy::with_budget`]) caps how many segment blocks
//!   stay in memory; the least-recently-used blocks spill through
//!   [`FrameStore`] and reload transparently.

use crate::analysis::category::{CategoryAnalysis, ChildrenCaseStudy};
use crate::analysis::classify::resource_kind_of_content;
use crate::analysis::consent_analysis::{ConsentAnalysis, OverlayRow, PrivacyPrevalenceRow};
use crate::analysis::cookies::{CookieAnalysis, CookieRow, SymCookiePartial, ThirdPartyRow};
use crate::analysis::ecosystem_graph::{GraphAnalysis, CHANNEL_PREFIX};
use crate::analysis::first_party::FirstPartyMap;
use crate::analysis::frame::lean_set_cookie;
use crate::analysis::frame_store::{
    FrameStore, SegmentCols, FLAG_CANONICAL, FLAG_FINGERPRINT, FLAG_PIXEL,
};
use crate::analysis::leakage::{LeakageAnalysis, GENRE_KEYWORDS};
use crate::analysis::parallel::par_map;
use crate::analysis::policy_analysis::PolicyAnalysis;
use crate::analysis::significance::SignificanceReport;
use crate::analysis::syncing::{is_potential_id, SyncEvent, SyncingAnalysis};
use crate::analysis::tracking::{
    is_fingerprint_script, is_tracking_pixel, SymTrackingPartial, TrackingAnalysis, TrackingRow,
};
use crate::dataset::{RunDataset, StudyDataset};
use crate::report::StudyReport;
use crate::run::RunKind;
use crate::Ecosystem;
use hbbtv_broadcast::ChannelId;
use hbbtv_consent::{analyze_nudging, annotate, branding_catalog, NoticeBranding, PrivacyInfoKind};
use hbbtv_filterlists::{bundled, RequestContext, ResourceKind, UrlView};
use hbbtv_graph::Graph;
use hbbtv_net::{ContentType, CookieKey, Etld1, Url};
use hbbtv_obs::Telemetry;
use hbbtv_policies::compliance::{check_profiling_window, TrackingObservation};
use hbbtv_policies::{DocRef, PolicyCorpus};
use hbbtv_proxy::CapturedExchange;
use hbbtv_stats::describe;
use hbbtv_trackers::{CookieCategory, Cookiepedia};
use hbbtv_tv::DeviceProfile;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Domain node ids live above channel-label ids in the graph fold,
/// mirroring [`GraphAnalysis::compute_from_frame`].
const DOMAIN_BASE: u64 = 1 << 32;

/// Filter-list verdict bits for the classification memo.
const BIT_PIHOLE: u8 = 1;
const BIT_EASYLIST: u8 = 2;
const BIT_EASYPRIVACY: u8 = 4;
const BIT_PERFLYST: u8 = 8;
const BIT_KAMRAN: u8 = 16;

/// The leakage needle search over `searchable_text()` (url + " " +
/// body) without materializing the join: only a needle containing a
/// space can straddle the boundary, and only then is the joined string
/// rebuilt. Identical to the frame path's `contains` closure.
fn contains_needle(url_text: &str, body: &str, needle: &str) -> bool {
    url_text.contains(needle)
        || body.contains(needle)
        || (needle.contains(' ') && format!("{url_text} {body}").contains(needle))
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
    /// §V-B partial (never invalidated: leakage is election-free).
    leakage: LeakSegment,
    /// Per-channel request counts for §IV-D.
    sig_req: BTreeMap<ChannelId, usize>,
    /// Per-channel cookie-setting counts for §IV-D (zero entries mark
    /// channels seen without cookies, as the naive scan records).
    sig_cok: BTreeMap<ChannelId, usize>,
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

/// Per-run §VI partial, computed once when the run is pushed
/// (screenshots arrive with the run metadata, not with capture
/// epochs).
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

/// The growing state behind [`IncrementalStudy`]: monotone interning
/// tables, cross-epoch election and owner state, the sealed segments
/// with their cached partials, and the residency machinery.
struct FrameBuilder {
    // ---- monotone interning tables (always resident) ----
    url_texts: Vec<String>,
    url_info: Vec<UrlInfo>,
    sym_of_url: HashMap<String, u32>,
    etld1s: Vec<Etld1>,
    sym_of_etld1: HashMap<Etld1, u32>,
    cookie_keys: Vec<CookieKey>,
    key_sym_of: HashMap<CookieKey, u32>,
    /// Cookie-key symbols Cookiepedia classifies as Targeting
    /// (classified once at interning).
    targeting_syms: BTreeSet<u32>,
    /// Channels each cookie key was set on (for §V-D5).
    cookie_channels: BTreeMap<u32, BTreeSet<ChannelId>>,
    cookiepedia: Cookiepedia,
    glabels: Vec<String>,
    sym_of_glabel: HashMap<String, u32>,
    // ---- cross-epoch election state ----
    candidates: BTreeMap<ChannelId, (u64, Etld1)>,
    elected: BTreeMap<ChannelId, Etld1>,
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
    class_memo: HashMap<(u32, bool, u8), u8>,
    // ---- policy corpus state ----
    /// The §VII-A pipeline folded over every candidate document fed so
    /// far.
    corpus: PolicyCorpus,
    /// (run index, capture index) of the §VII candidate documents
    /// appended since the last report, not yet fed to `corpus`.
    new_docs: Vec<(u32, u32)>,
    /// Per-channel-name pixel/fingerprint observations in capture
    /// order, for the §VII-C window check.
    tracking_obs: BTreeMap<String, Vec<TrackingObservation>>,
    // ---- per-run consent partials ----
    consent_runs: Vec<ConsentRunPartial>,
    // ---- leakage needles (hoisted) ----
    technical_tokens: Vec<String>,
    genre_needles: Vec<String>,
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
    delta_reports: u64,
    /// Spill counters already forwarded to telemetry.
    emitted_spill_writes: u64,
    emitted_spill_loads: u64,
}

impl FrameBuilder {
    fn new(budget: Option<usize>) -> Self {
        let device = DeviceProfile::study_tv();
        let technical_tokens: Vec<String> = [
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
        let genre_needles = GENRE_KEYWORDS
            .iter()
            .map(|g| format!("genre={g}"))
            .collect();
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
            class_memo: HashMap::new(),
            corpus: PolicyCorpus::new(),
            new_docs: Vec::new(),
            tracking_obs: BTreeMap::new(),
            consent_runs: Vec::new(),
            technical_tokens,
            genre_needles,
            segments: Vec::new(),
            segs_of_channel: HashMap::new(),
            segs_of_value: HashMap::new(),
            store: FrameStore::new(budget),
            lru: Vec::new(),
            resident_bytes: 0,
            peak_resident_bytes: 0,
            delta_recomputes: 0,
            delta_reports: 0,
            emitted_spill_writes: 0,
            emitted_spill_loads: 0,
        }
    }

    fn intern_etld1(&mut self, d: &Etld1) -> u32 {
        if let Some(&s) = self.sym_of_etld1.get(d) {
            return s;
        }
        let s = self.etld1s.len() as u32;
        self.etld1s.push(d.clone());
        self.sym_of_etld1.insert(d.clone(), s);
        s
    }

    fn intern_value(&mut self, v: &str) -> u32 {
        if let Some(&s) = self.sym_of_value.get(v) {
            return s;
        }
        let s = self.sync_values.len() as u32;
        self.sync_values.push(v.to_string());
        self.sym_of_value.insert(v.to_string(), s);
        s
    }

    fn intern_glabel(&mut self, name: Option<&str>) -> u32 {
        let label = format!("{CHANNEL_PREFIX}{}", name.unwrap_or("unknown"));
        if let Some(&s) = self.sym_of_glabel.get(&label) {
            return s;
        }
        let s = self.glabels.len() as u32;
        self.sym_of_glabel.insert(label.clone(), s);
        self.glabels.push(label);
        s
    }

    fn intern_cookie_key(&mut self, key: &CookieKey) -> u32 {
        if let Some(&s) = self.key_sym_of.get(key) {
            return s;
        }
        let s = self.cookie_keys.len() as u32;
        if self.cookiepedia.classify(key) == Some(CookieCategory::Targeting) {
            self.targeting_syms.insert(s);
        }
        self.cookie_keys.push(key.clone());
        self.key_sym_of.insert(key.clone(), s);
        s
    }

    /// Interns a URL text, computing every URL-determined fact (list
    /// probes, leak needles, query extractions) exactly once per
    /// distinct URL.
    fn intern_url(&mut self, url: &Url) -> u32 {
        let text = url.to_text();
        if let Some(&s) = self.sym_of_url.get(&text) {
            return s;
        }
        let lists = bundled::all_refs();
        let guards = [bundled::easylist_ref(), bundled::easyprivacy_ref()];
        let guard_ctx = RequestContext {
            third_party: true,
            kind: ResourceKind::Document,
        };
        let view = UrlView::new(&text, url.host(), url.etld1().as_str());
        let canonical = lists
            .iter()
            .any(|l| l.matches_view(&view, RequestContext::third_party_image()));
        let guarded = guards.iter().any(|g| g.matches_view(&view, guard_ctx));
        let etld1_sym = self.intern_etld1(url.etld1());
        let tech_bodyless = self
            .technical_tokens
            .iter()
            .any(|t| contains_needle(&text, "", t));
        let genre_keyword_bodyless = self
            .genre_needles
            .iter()
            .any(|g| contains_needle(&text, "", g));
        let mut sync_vals = Vec::new();
        for (_, v) in url.query_pairs() {
            if is_potential_id(v) {
                sync_vals.push(self.intern_value(v));
            }
        }
        let info = UrlInfo {
            host: url.host().to_string(),
            etld1_sym,
            canonical,
            guarded,
            tech_bodyless,
            genre_param: url.query_param("genre").is_some(),
            genre_keyword_bodyless,
            has_show: url.query_param("show").is_some(),
            has_uid: url.query_param("uid").is_some(),
            brand: url.query_param("brand").map(str::to_string),
            sync_vals,
        };
        let s = self.url_info.len() as u32;
        self.url_texts.push(text.clone());
        self.url_info.push(info);
        self.sym_of_url.insert(text, s);
        s
    }

    /// Seals one epoch of captures (already appended to run `run_idx`
    /// of the dataset at offset `cap_base`) into a segment: builds the
    /// columns, updates cross-epoch state, invalidates any segments
    /// the new state dirties, and caches this segment's partials.
    fn append_epoch(
        &mut self,
        run_idx: usize,
        run: RunKind,
        caps: &[CapturedExchange],
        cap_base: usize,
    ) {
        if caps.is_empty() {
            return;
        }
        let mut cols = SegmentCols {
            cookie_off: vec![0],
            ..SegmentCols::default()
        };
        let mut leak = LeakSegment::default();
        let mut sig_req: BTreeMap<ChannelId, usize> = BTreeMap::new();
        let mut sig_cok: BTreeMap<ChannelId, usize> = BTreeMap::new();
        let mut channels_here: BTreeSet<ChannelId> = BTreeSet::new();
        let mut election_touched: BTreeSet<ChannelId> = BTreeSet::new();
        let mut owner_dirty: BTreeSet<u32> = BTreeSet::new();
        let mut vals_here: BTreeSet<u32> = BTreeSet::new();

        for (j, c) in caps.iter().enumerate() {
            let u = self.intern_url(&c.request.url);
            let (etld1_sym, guarded) = {
                let info = &self.url_info[u as usize];
                (info.etld1_sym, info.guarded)
            };
            let ct = c.response.content_type as u8;
            debug_assert_eq!(content_type_from_u8(ct), c.response.content_type);
            let is_pixel = is_tracking_pixel(c);
            let is_fingerprint = is_fingerprint_script(c);
            let mut flags = 0u8;
            if is_pixel {
                flags |= FLAG_PIXEL;
            }
            if is_fingerprint {
                flags |= FLAG_FINGERPRINT;
            }
            if self.url_info[u as usize].canonical {
                flags |= FLAG_CANONICAL;
            }
            let chan_label = if c.channel.is_some() {
                self.intern_glabel(c.channel_name.as_deref())
            } else {
                u32::MAX
            };
            let channel_col = c.channel.map(|ch| ch.0).unwrap_or(u32::MAX);

            // Cookie rows: the lean Set-Cookie parse, party resolution,
            // and the §V-C3 pass-1 owner bookkeeping.
            let mut rows_added = 0usize;
            for h in c.response.headers.iter() {
                if !h.name.eq_ignore_ascii_case("Set-Cookie") {
                    continue;
                }
                let Some((name, value, dom)) = lean_set_cookie(&h.value) else {
                    continue;
                };
                let domain = dom.unwrap_or_else(|| c.request.url.etld1().clone());
                let d_sym = self.intern_etld1(&domain);
                let key = CookieKey { domain, name };
                let k_sym = self.intern_cookie_key(&key);
                cols.cookie_key.push(k_sym);
                cols.cookie_domain.push(d_sym);
                rows_added += 1;
                if let Some(ch) = c.channel {
                    self.cookie_channels.entry(k_sym).or_default().insert(ch);
                }
                if (10..=25).contains(&value.len()) {
                    let v_sym = self.intern_value(&value);
                    if self.seen_pairs.insert((d_sym, v_sym)) {
                        if is_potential_id(&value) {
                            self.potential_ids += 1;
                            let owner = self.etld1s[d_sym as usize].clone();
                            if self.owners.entry(v_sym).or_default().insert(owner) {
                                owner_dirty.insert(v_sym);
                            }
                        } else {
                            self.timestamp_exclusions += 1;
                        }
                    }
                }
            }

            if let Some(ch) = c.channel {
                channels_here.insert(ch);
                *sig_req.entry(ch).or_insert(0) += 1;
                let cok = sig_cok.entry(ch).or_insert(0);
                if rows_added > 0 {
                    *cok += 1;
                }
                // First-party election (§V-A): content-bearing,
                // unguarded responses compete on earliest timestamp.
                if matches!(
                    c.response.content_type,
                    ContentType::Html | ContentType::JavaScript | ContentType::Css
                ) && !guarded
                {
                    election_touched.insert(ch);
                    let t = c.request.timestamp.as_unix();
                    let domain = c.request.url.etld1().clone();
                    self.candidates
                        .entry(ch)
                        .and_modify(|(best_t, best_d)| {
                            if t < *best_t {
                                *best_t = t;
                                *best_d = domain.clone();
                            }
                        })
                        .or_insert((t, domain));
                }
            }

            // §V-B leakage and the §VII-C observation index share one
            // borrow scope over the interning tables.
            let obs = {
                let url_text = self.url_texts[u as usize].as_str();
                let info = &self.url_info[u as usize];
                let body = c.request.body.as_str();
                let (has_technical, has_genre) = if body.is_empty() {
                    (
                        info.tech_bodyless,
                        info.genre_param || info.genre_keyword_bodyless,
                    )
                } else {
                    (
                        self.technical_tokens
                            .iter()
                            .any(|t| contains_needle(url_text, body, t)),
                        info.genre_param
                            || self
                                .genre_needles
                                .iter()
                                .any(|g| contains_needle(url_text, body, g)),
                    )
                };
                if has_technical {
                    leak.technical_receivers.insert(info.etld1_sym);
                    if let Some(ch) = c.channel {
                        leak.channels_with_technical.insert(ch);
                    }
                }
                if has_genre {
                    if let Some(ch) = c.channel {
                        leak.channels_with_genre.insert(ch);
                    }
                }
                if let Some(b) = &info.brand {
                    leak.brands.insert(b.clone());
                }
                if has_genre || info.has_show || info.brand.is_some() {
                    leak.personal += 1;
                    if let Some(ch) = c.channel {
                        *leak.per_channel.entry(ch).or_insert(0) += 1;
                    }
                }
                vals_here.extend(info.sync_vals.iter().copied());
                if (is_pixel || is_fingerprint) && c.channel_name.is_some() {
                    Some((
                        c.channel_name.clone().expect("checked is_some"),
                        TrackingObservation {
                            at: c.request.timestamp,
                            tracker: self.etld1s[info.etld1_sym as usize].to_string(),
                            carried_user_id: info.has_uid,
                            carried_show: info.has_show,
                        },
                    ))
                } else {
                    None
                }
            };
            if let Some((name, o)) = obs {
                self.tracking_obs.entry(name).or_default().push(o);
            }
            if c.response.content_type == ContentType::Html && c.response.body.len() > 300 {
                self.new_docs.push((run_idx as u32, (cap_base + j) as u32));
            }

            cols.url_sym.push(u);
            cols.etld1_sym.push(etld1_sym);
            cols.channel.push(channel_col);
            cols.chan_label.push(chan_label);
            cols.content_type.push(ct);
            cols.flags.push(flags);
            cols.cookie_off.push(cols.cookie_key.len() as u32);
        }

        // Election flips: re-derive the winner of every touched
        // channel; a change (including a first-time election)
        // invalidates the election-dependent partials of every segment
        // carrying that channel.
        let mut flipped: Vec<ChannelId> = Vec::new();
        for ch in election_touched {
            let winner = self.candidates[&ch].1.clone();
            if self.elected.get(&ch) != Some(&winner) {
                self.elected.insert(ch, winner);
                flipped.push(ch);
            }
        }
        if !flipped.is_empty() {
            self.fp_map =
                FirstPartyMap::from_entries(self.elected.iter().map(|(ch, d)| (*ch, d.clone())));
            let fp_syms: HashMap<ChannelId, u32> = self
                .elected
                .iter()
                .map(|(ch, d)| (*ch, self.sym_of_etld1[d]))
                .collect();
            self.fp_syms = fp_syms;
            let mut dirty: BTreeSet<usize> = BTreeSet::new();
            for ch in &flipped {
                if let Some(segs) = self.segs_of_channel.get(ch) {
                    dirty.extend(segs.iter().copied());
                }
            }
            for s in dirty {
                self.segments[s].cookie = None;
                self.segments[s].tracking = None;
                self.segments[s].graph = None;
            }
        }
        // Owner growth: a value gaining an owner invalidates the
        // syncing partial of every segment whose captures carry it.
        if !owner_dirty.is_empty() {
            let mut dirty: BTreeSet<usize> = BTreeSet::new();
            for v in &owner_dirty {
                if let Some(segs) = self.segs_of_value.get(v) {
                    dirty.extend(segs.iter().copied());
                }
            }
            for s in dirty {
                self.segments[s].syncing = None;
            }
        }

        // Cache this segment's partials against the now-current state.
        let cookie = cookie_partial(&cols, &self.fp_syms);
        let mut memo = ClassMemo::over(&self.class_memo);
        let tracking = tracking_partial(
            &cols,
            &self.url_texts,
            &self.url_info,
            &self.etld1s,
            &self.fp_syms,
            &mut memo,
        );
        let fresh = memo.fresh;
        self.class_memo.extend(fresh);
        let graph = graph_edges(&cols, &self.fp_syms);
        let syncing = sync_segment(
            &cols,
            run,
            &self.url_info,
            &self.sync_values,
            &self.owners,
            &self.etld1s,
        );

        let seg_id = self.segments.len();
        let bytes = cols.byte_size();
        self.segments.push(Segment {
            run_idx,
            run,
            cols: Some(cols),
            bytes,
            cookie: Some(cookie),
            tracking: Some(tracking),
            graph: Some(graph),
            syncing: Some(syncing),
            leakage: leak,
            sig_req,
            sig_cok,
        });
        for ch in channels_here {
            self.segs_of_channel.entry(ch).or_default().push(seg_id);
        }
        for v in vals_here {
            self.segs_of_value.entry(v).or_default().push(seg_id);
        }
        self.lru.push(seg_id);
        self.resident_bytes += bytes;
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        self.enforce_budget();
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

    /// Recomputes every invalidated partial from its segment's columns
    /// (reloading spilled columns on demand) and returns how many
    /// segments needed recomputation.
    ///
    /// The recomputes fan out over the worker pool: an election flip
    /// invalidates every segment carrying the flipped channel, so a
    /// refresh after one is the widest burst of work a report does.
    /// Each segment's partials are pure functions of its columns and
    /// the (frozen-for-the-duration) builder tables, so workers share
    /// the tables read-only; the classification memo is snapshotted and
    /// each worker's fresh entries are merged back afterwards in
    /// segment order (see [`ClassMemo`] — the merge order is
    /// irrelevant to results, ordering just keeps the map's iteration
    /// future-proof against becoming order-sensitive). Reports are
    /// byte-identical at any worker count.
    fn refresh(&mut self) -> u64 {
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
            return 0;
        }
        // Residency is LRU bookkeeping — sequential by nature. Load
        // every dirty segment first, then take the column blocks out so
        // the parallel region borrows only immutable builder state.
        for &s in &dirty {
            self.ensure_resident(s);
        }
        struct Job {
            s: usize,
            cols: SegmentCols,
            run: RunKind,
            need_cookie: bool,
            need_tracking: bool,
            need_graph: bool,
            need_syncing: bool,
        }
        let jobs: Vec<Job> = dirty
            .iter()
            .map(|&s| {
                let seg = &mut self.segments[s];
                Job {
                    s,
                    cols: seg.cols.take().expect("just made resident"),
                    run: seg.run,
                    need_cookie: seg.cookie.is_none(),
                    need_tracking: seg.tracking.is_none(),
                    need_graph: seg.graph.is_none(),
                    need_syncing: seg.syncing.is_none(),
                }
            })
            .collect();

        let url_texts = &self.url_texts;
        let url_info = &self.url_info;
        let etld1s = &self.etld1s;
        let fp_syms = &self.fp_syms;
        let sync_values = &self.sync_values;
        let owners = &self.owners;
        let base_memo = &self.class_memo;
        type Recompute = (
            Option<SymCookiePartial>,
            Option<SymTrackingPartial>,
            Option<Vec<(u64, u64)>>,
            Option<SyncSegment>,
            HashMap<(u32, bool, u8), u8>,
        );
        let results: Vec<Recompute> = par_map(&jobs, |_, job| {
            let mut memo = ClassMemo::over(base_memo);
            let cookie = job.need_cookie.then(|| cookie_partial(&job.cols, fp_syms));
            let tracking = job.need_tracking.then(|| {
                tracking_partial(&job.cols, url_texts, url_info, etld1s, fp_syms, &mut memo)
            });
            let graph = job.need_graph.then(|| graph_edges(&job.cols, fp_syms));
            let syncing = job
                .need_syncing
                .then(|| sync_segment(&job.cols, job.run, url_info, sync_values, owners, etld1s));
            (cookie, tracking, graph, syncing, memo.fresh)
        });

        let recomputed = jobs.len() as u64;
        for (job, (cookie, tracking, graph, syncing, fresh)) in jobs.into_iter().zip(results) {
            let seg = &mut self.segments[job.s];
            if let Some(p) = cookie {
                seg.cookie = Some(p);
            }
            if let Some(p) = tracking {
                seg.tracking = Some(p);
            }
            if let Some(p) = graph {
                seg.graph = Some(p);
            }
            if let Some(p) = syncing {
                seg.syncing = Some(p);
            }
            seg.cols = Some(job.cols);
            self.class_memo.extend(fresh);
        }
        self.enforce_budget();
        self.delta_recomputes += recomputed;
        recomputed
    }

    // ---- folds (all partials must be fresh; see `refresh`) ----

    fn fold_cookies(&self, dataset: &StudyDataset) -> CookieAnalysis {
        let mut per_run = BTreeMap::new();
        let mut third_party_per_run = BTreeMap::new();
        let mut global = SymCookiePartial::default();
        let mut ls_total = 0usize;
        for (r, run_ds) in dataset.runs.iter().enumerate() {
            let mut run = SymCookiePartial::default();
            for seg in self.segments.iter().filter(|s| s.run_idx == r) {
                run.merge(seg.cookie.clone().expect("refreshed"));
            }
            per_run.insert(
                run_ds.run,
                CookieRow {
                    total: run.keys.len(),
                    first_party: run.fp_keys.len(),
                    third_party: run.tp_keys.len(),
                    local_storage: run_ds.local_storage.len(),
                },
            );
            ls_total += run_ds.local_storage.len();
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
            global.merge(run);
        }
        CookieAnalysis::finish(
            per_run,
            third_party_per_run,
            global.resolve(&self.cookie_keys, &self.etld1s),
            ls_total,
        )
    }

    fn fold_tracking(&self, dataset: &StudyDataset) -> TrackingAnalysis {
        let mut per_run = BTreeMap::new();
        let mut global = SymTrackingPartial::default();
        for (r, run_ds) in dataset.runs.iter().enumerate() {
            let mut merged = SymTrackingPartial::default();
            for seg in self.segments.iter().filter(|s| s.run_idx == r) {
                merged.merge(seg.tracking.clone().expect("refreshed"));
            }
            let row: &mut TrackingRow = per_run.entry(run_ds.run).or_default();
            row.on_pihole += merged.row.on_pihole;
            row.on_easylist += merged.row.on_easylist;
            row.on_easyprivacy += merged.row.on_easyprivacy;
            row.tracking_pixels += merged.row.tracking_pixels;
            row.fingerprints += merged.row.fingerprints;
            global.merge(merged);
        }
        TrackingAnalysis::finish(per_run, global.resolve(&self.etld1s))
    }

    fn fold_significance(&self, dataset: &StudyDataset) -> SignificanceReport {
        let mut requests_by_run: Vec<Vec<f64>> = Vec::new();
        let mut cookies_by_run: Vec<Vec<f64>> = Vec::new();
        let mut per_channel: BTreeMap<ChannelId, Vec<f64>> = BTreeMap::new();
        for r in 0..dataset.runs.len() {
            let mut req: BTreeMap<ChannelId, usize> = BTreeMap::new();
            let mut cok: BTreeMap<ChannelId, usize> = BTreeMap::new();
            for seg in self.segments.iter().filter(|s| s.run_idx == r) {
                for (ch, n) in &seg.sig_req {
                    *req.entry(*ch).or_insert(0) += n;
                }
                for (ch, n) in &seg.sig_cok {
                    *cok.entry(*ch).or_insert(0) += n;
                }
            }
            requests_by_run.push(req.values().map(|&n| n as f64).collect());
            cookies_by_run.push(cok.values().map(|&n| n as f64).collect());
            for (ch, n) in req {
                per_channel.entry(ch).or_default().push(n as f64);
            }
        }
        SignificanceReport::finish(requests_by_run, cookies_by_run, per_channel)
    }

    fn fold_leakage(&self) -> LeakageAnalysis {
        let mut channels_with_technical = BTreeSet::new();
        let mut technical_receivers = BTreeSet::new();
        let mut channels_with_genre = BTreeSet::new();
        let mut personal = 0usize;
        let mut brands = BTreeSet::new();
        let mut per_channel: BTreeMap<ChannelId, usize> = BTreeMap::new();
        for seg in &self.segments {
            let l = &seg.leakage;
            channels_with_technical.extend(l.channels_with_technical.iter().copied());
            technical_receivers.extend(
                l.technical_receivers
                    .iter()
                    .map(|&s| self.etld1s[s as usize].clone()),
            );
            channels_with_genre.extend(l.channels_with_genre.iter().copied());
            personal += l.personal;
            brands.extend(l.brands.iter().cloned());
            for (ch, n) in &l.per_channel {
                *per_channel.entry(*ch).or_insert(0) += n;
            }
        }
        LeakageAnalysis {
            channels_with_technical,
            technical_receivers,
            channels_with_genre,
            personal_data_requests: personal,
            brands_observed: brands,
            per_channel,
        }
    }

    fn fold_syncing(&self) -> SyncingAnalysis {
        let mut events = Vec::new();
        let mut synced_values = BTreeSet::new();
        let mut syncing_domains = BTreeSet::new();
        let mut channels = BTreeSet::new();
        let mut runs = BTreeSet::new();
        for seg in &self.segments {
            let s = seg.syncing.as_ref().expect("refreshed");
            events.extend(s.events.iter().cloned());
            synced_values.extend(s.synced.iter().cloned());
            syncing_domains.extend(s.domains.iter().cloned());
            channels.extend(s.channels.iter().copied());
            runs.extend(s.runs.iter().copied());
        }
        SyncingAnalysis {
            potential_ids: self.potential_ids,
            timestamp_exclusions: self.timestamp_exclusions,
            synced_values,
            events,
            syncing_domains,
            channels,
            runs,
        }
    }

    fn glabel(&self, id: u64) -> &str {
        if id >= DOMAIN_BASE {
            self.etld1s[(id - DOMAIN_BASE) as usize].as_str()
        } else {
            self.glabels[id as usize].as_str()
        }
    }

    fn fold_graph(&self) -> GraphAnalysis {
        let mut seen: HashSet<(u64, u64)> = HashSet::new();
        let mut graph = Graph::new();
        for seg in &self.segments {
            for &(a, b) in seg.graph.as_ref().expect("refreshed") {
                if seen.insert((a.min(b), a.max(b))) {
                    graph.add_edge(self.glabel(a), self.glabel(b));
                }
            }
        }
        GraphAnalysis::measure(graph)
    }

    fn fold_consent(&self, dataset: &StudyDataset) -> ConsentAnalysis {
        let mut overlays_per_run = BTreeMap::new();
        let mut prevalence_per_run = BTreeMap::new();
        let mut channels_with_privacy_info = BTreeSet::new();
        let mut channels_observed = BTreeSet::new();
        let mut brandings: BTreeMap<NoticeBranding, BTreeSet<ChannelId>> = BTreeMap::new();
        let mut deepest_layer_per_run = BTreeMap::new();
        let mut channels_with_pointer = BTreeSet::new();
        for (run_ds, part) in dataset.runs.iter().zip(&self.consent_runs) {
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
            let observations = self
                .tracking_obs
                .get(policy.channel.as_str())
                .map(Vec::as_slice)
                .unwrap_or(&[]);
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

/// §V-C over one segment's columns against the current first-party
/// assignment, mirroring [`CookieAnalysis::compute_from_frame`]'s scan.
fn cookie_partial(cols: &SegmentCols, fp_syms: &HashMap<ChannelId, u32>) -> SymCookiePartial {
    let mut p = SymCookiePartial::default();
    for i in 0..cols.len() {
        let rows = cols.rows_of(i);
        if rows.is_empty() {
            continue;
        }
        let tracking = cols.flags[i] & (FLAG_PIXEL | FLAG_FINGERPRINT | FLAG_CANONICAL) != 0;
        let ch_raw = cols.channel[i];
        let channel = (ch_raw != u32::MAX).then_some(ChannelId(ch_raw));
        let fp_sym = channel.and_then(|ch| fp_syms.get(&ch).copied());
        for r in rows {
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

/// A two-level view of the builder's classification memo, so segment
/// recomputes can run on pool workers: `base` is a read-only snapshot
/// shared by every worker, `fresh` collects the entries this worker
/// computed. After the parallel region the caller folds every `fresh`
/// map back into the builder's memo. Classification is a pure function
/// of its key, so two workers racing on the same key compute the same
/// byte and the merge order cannot change any result.
struct ClassMemo<'a> {
    base: &'a HashMap<(u32, bool, u8), u8>,
    fresh: HashMap<(u32, bool, u8), u8>,
}

impl<'a> ClassMemo<'a> {
    fn over(base: &'a HashMap<(u32, bool, u8), u8>) -> Self {
        ClassMemo {
            base,
            fresh: HashMap::new(),
        }
    }
}

/// The five memoized list verdicts for a (URL, party relation,
/// content type) triple, as bit flags.
fn class_bits(
    u: u32,
    third_party: bool,
    ct: u8,
    url_texts: &[String],
    url_info: &[UrlInfo],
    etld1s: &[Etld1],
    memo: &mut ClassMemo<'_>,
) -> u8 {
    if let Some(&bits) = memo.base.get(&(u, third_party, ct)) {
        return bits;
    }
    *memo.fresh.entry((u, third_party, ct)).or_insert_with(|| {
        let info = &url_info[u as usize];
        let text = url_texts[u as usize].as_str();
        let view = UrlView::new(text, &info.host, etld1s[info.etld1_sym as usize].as_str());
        let ctx = RequestContext {
            third_party,
            kind: resource_kind_of_content(content_type_from_u8(ct)),
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
    })
}

/// §V-D over one segment's columns against the current first-party
/// assignment, mirroring [`TrackingAnalysis::compute_from_frame`]'s
/// scan with verdicts memoized per (URL, party, content-type).
fn tracking_partial(
    cols: &SegmentCols,
    url_texts: &[String],
    url_info: &[UrlInfo],
    etld1s: &[Etld1],
    fp_syms: &HashMap<ChannelId, u32>,
    memo: &mut ClassMemo<'_>,
) -> SymTrackingPartial {
    let mut p = SymTrackingPartial::default();
    for i in 0..cols.len() {
        p.total += 1;
        let u = cols.url_sym[i];
        let sym = cols.etld1_sym[i];
        let ch_raw = cols.channel[i];
        let channel = (ch_raw != u32::MAX).then_some(ChannelId(ch_raw));
        let third_party = match channel.and_then(|ch| fp_syms.get(&ch).copied()) {
            Some(fp) => fp != sym,
            None => true,
        };
        let bits = class_bits(
            u,
            third_party,
            cols.content_type[i],
            url_texts,
            url_info,
            etld1s,
            memo,
        );
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

/// The ecosystem-graph edges of one segment in first-occurrence order,
/// deduplicated on unordered id pairs within the segment (the fold
/// re-deduplicates globally), mirroring
/// [`GraphAnalysis::compute_from_frame`].
fn graph_edges(cols: &SegmentCols, fp_syms: &HashMap<ChannelId, u32>) -> Vec<(u64, u64)> {
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for i in 0..cols.len() {
        let ch_raw = cols.channel[i];
        if ch_raw == u32::MAX {
            continue;
        }
        let Some(&fp) = fp_syms.get(&ChannelId(ch_raw)) else {
            continue;
        };
        let chan_id = u64::from(cols.chan_label[i]);
        let fp_id = DOMAIN_BASE + u64::from(fp);
        if seen.insert((chan_id.min(fp_id), chan_id.max(fp_id))) {
            edges.push((chan_id, fp_id));
        }
        let dom_id = DOMAIN_BASE + u64::from(cols.etld1_sym[i]);
        if dom_id != fp_id && seen.insert((fp_id.min(dom_id), fp_id.max(dom_id))) {
            edges.push((fp_id, dom_id));
        }
    }
    edges
}

/// §V-C3 pass 2 over one segment's columns against the current owner
/// table, in capture and query-pair order.
fn sync_segment(
    cols: &SegmentCols,
    run: RunKind,
    url_info: &[UrlInfo],
    sync_values: &[String],
    owners: &HashMap<u32, BTreeSet<Etld1>>,
    etld1s: &[Etld1],
) -> SyncSegment {
    let mut out = SyncSegment::default();
    for i in 0..cols.len() {
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
    /// A study with the resident budget read from [`FRAME_BUDGET_ENV`]
    /// (unset = keep everything resident).
    ///
    /// [`FRAME_BUDGET_ENV`]: crate::analysis::frame_store::FRAME_BUDGET_ENV
    pub fn new() -> Self {
        Self::with_budget(FrameStore::budget_from_env())
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
        self.builder.consent_runs.push(consent_partial(&run));
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
        self.builder.append_epoch(run_idx, run, caps, base);
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
    /// dataset. Costs one fold over cached partials plus recomputation
    /// of whatever the latest epochs invalidated.
    pub fn report(&mut self, eco: &Ecosystem) -> StudyReport {
        let t0 = std::time::Instant::now();
        let recomputed = self.builder.refresh();
        let first_parties = self.builder.fp_map.clone();
        let cookies = self.builder.fold_cookies(&self.dataset);
        let tracking = self.builder.fold_tracking(&self.dataset);
        let categories = CategoryAnalysis::compute(eco, &tracking);
        let children = self.builder.fold_children(eco, &tracking);
        let leakage = self.builder.fold_leakage();
        let syncing = self.builder.fold_syncing();
        let graph = self.builder.fold_graph();
        let consent = self.builder.fold_consent(&self.dataset);
        let policies = self.builder.fold_policies(&self.dataset);
        let significance = self.builder.fold_significance(&self.dataset);
        self.builder.delta_reports += 1;
        if self.tel.is_enabled() {
            self.tel.counter("frame.delta_reports").add(1);
            self.tel.counter("frame.delta_recomputes").add(recomputed);
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
        StudyReport {
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
            assert_eq!(live, built, "incremental == frame build after {kind:?}");
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
    /// partials. Every step still renders like the reference build.
    #[test]
    fn first_time_elections_recompute_sealed_segments() {
        let eco = Ecosystem::with_scale(11, 0.05);
        let mut run = StudyHarness::new(&eco).run(RunKind::General);
        run.captures.truncate(200);
        let caps = std::mem::take(&mut run.captures);
        let mut inc = IncrementalStudy::with_budget(None);
        inc.push_run(run.clone());
        for (n, c) in caps.into_iter().enumerate() {
            run.captures.push(c.clone());
            inc.extend_run(vec![c]);
            let ds = StudyDataset {
                runs: vec![run.clone()],
            };
            assert_eq!(
                inc.render(&eco),
                StudyReport::compute(&eco, &ds).render(&ds),
                "after {} captures",
                n + 1
            );
        }
        assert!(inc.delta_recomputes() > 0, "no segment was ever recomputed");
    }

    /// `refresh` fans segment recomputes over the worker pool; with the
    /// read-only memo snapshot + fresh-overlay merge, the rendered
    /// report must be byte-identical at every worker count. Small
    /// epochs under a tight budget maximize segments (and thus
    /// election-flip invalidations crossing segment boundaries), so the
    /// parallel region actually runs wide here.
    #[test]
    fn refresh_is_deterministic_across_worker_counts() {
        use crate::analysis::Runtime;
        let eco = Ecosystem::with_scale(11, 0.05);
        let harness = StudyHarness::new(&eco);
        let run1 = harness.run(RunKind::General);
        let run2 = harness.run(RunKind::Red);
        let render_with = |workers: usize| {
            let rt = Runtime::with_workers(workers);
            rt.install(|| {
                let mut inc = IncrementalStudy::with_budget(Some(4096));
                for run in [run1.clone(), run2.clone()] {
                    let mut meta = run;
                    let caps = std::mem::take(&mut meta.captures);
                    inc.push_run(meta);
                    for chunk in caps.chunks(61) {
                        inc.extend_run(chunk.to_vec());
                    }
                }
                inc.render(&eco)
            })
        };
        let single = render_with(1);
        let eight = render_with(8);
        assert_eq!(single, eight, "worker count changed the report");
        let ds = StudyDataset {
            runs: vec![run1, run2],
        };
        assert_eq!(
            single,
            StudyReport::compute(&eco, &ds).render(&ds),
            "parallel refresh diverged from the reference build"
        );
    }
}
