//! The measurement harness: §IV-C's remote-control script.
//!
//! One [`StudyHarness::run`] call performs a complete measurement run:
//! it shuffles the channel order (runs were randomized to minimize
//! order effects), and for every available channel follows the exact
//! §IV-C protocol:
//!
//! * **General**: switch, wait 10 s, screenshot, then a screenshot every
//!   60 s until 900 s of watch time — 16 screenshots.
//! * **Button runs**: switch, wait 10 s (screenshot), press the run's
//!   colored button, wait 10 s (screenshot), then run the fixed
//!   interaction sequence of 10 random cursor/ENTER presses (screenshot
//!   after each), then screenshots every 60 s until 1000 s —
//!   27 screenshots.
//!
//! After each visit, cookies and local storage are extracted and wiped,
//! and the TV is powered off — the §IV-C lifecycle.
//!
//! # Visits are hermetic — and therefore parallel
//!
//! Each channel visit is a pure function of `(ecosystem, run kind,
//! visit position, channel id)`: it owns a fresh [`Tv`] (empty cookie
//! jar and local storage), a [`SimClock`] offset to the visit's slot in
//! the run's timeline, RNGs seeded from `(run seed, channel id)`, and a
//! [`VisitLog`] its TV records into. So every exchange is tagged with
//! exactly the visit that issued it, and a run's capture log is its
//! visits' logs concatenated in channel order. Because no state flows
//! between visits, [`StudyHarness::run_all`] plans all five runs up
//! front, fans every `(run, visit)` slot of the study out in one ordered
//! [`par_map`], and the executor that finishes a run's last visit
//! assembles that run in canonical channel order. The result is
//! byte-identical at any executor count: at one, [`par_map`] is an
//! in-order loop on the calling thread.

use crate::analysis::par_map;
use crate::dataset::{RunDataset, StudyDataset, VisitSummary};
use crate::ecosystem::Ecosystem;
use crate::run::RunKind;
use hbbtv_filterlists::{FilterList, RequestContext, ResourceKind};
use hbbtv_net::{ContentType, Duration, Etld1, Request, Response, SimClock, Status, Timestamp};
use hbbtv_obs::{keys, RunTelemetry, Span, StudyTelemetry, Telemetry, TelemetryConfig};
use hbbtv_proxy::{CapturedExchange, ProxyMetrics, VisitId, VisitLog};
use hbbtv_trackers::ResponderContext;
use hbbtv_tv::{
    ChannelContext, DeviceProfile, NetworkBackend, RcButton, Screenshot, StoredCookie, Tv,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The network backend for one simulated channel visit: answers from
/// the tracker registry (plus the first parties' policy routes) and
/// records every exchange into the visit's capture log.
struct EcoBackend<'a> {
    eco: &'a Ecosystem,
    log: &'a mut VisitLog,
    clock: SimClock,
    rng: StdRng,
    /// An on-device block list (the §VIII protection-mechanism
    /// evaluation): matching requests never leave the TV and are not
    /// captured.
    blocklist: Option<&'a FilterList>,
    /// The eTLD+1 of the channel being visited, so
    /// `$third-party`/`$~third-party` rules see the real party
    /// relationship instead of a hardcoded guess.
    first_party: Etld1,
}

impl NetworkBackend for EcoBackend<'_> {
    /// Answers from the registry, shows the exchange to the TV, then
    /// moves it into the visit's capture log.
    fn fetch(&mut self, request: Request, on_response: impl FnOnce(&Request, &Response)) {
        if let Some(list) = self.blocklist {
            let third_party = request.url.etld1() != self.first_party;
            let blocked = list.matches(
                &request.url,
                RequestContext {
                    third_party,
                    kind: resource_kind_of(&request),
                },
            );
            if blocked {
                // NXDOMAIN-style blackhole: nothing reaches the network,
                // nothing is captured, no cookies come back.
                let blackhole = Response::builder(Status::NOT_FOUND)
                    .content_type(ContentType::Other)
                    .build();
                on_response(&request, &blackhole);
                return;
            }
        }
        let response = match self.eco.policy_text(request.url.host(), request.url.path()) {
            Some(text) => Response::builder(Status::OK)
                .content_type(hbbtv_net::ContentType::Html)
                .body(format!("MENU | Zurueck | OK = Auswahl\n\n{text}"))
                .build(),
            None => {
                let mut ctx = ResponderContext {
                    now: self.clock.now(),
                    rng: &mut self.rng,
                };
                self.eco.registry().respond(&request, &mut ctx)
            }
        };
        on_response(&request, &response);
        self.log.record(request, response);
    }
}

/// Everything one hermetic channel visit produced; merged into a
/// [`RunDataset`] in canonical channel order.
struct VisitOutcome {
    id: hbbtv_broadcast::ChannelId,
    name: String,
    opened: Timestamp,
    captures: Vec<CapturedExchange>,
    cookies: Vec<StoredCookie>,
    local_storage: Vec<(String, String, String)>,
    screenshots: Vec<Screenshot>,
    interactions: usize,
    consented: bool,
    /// The visit's telemetry scope (inert when telemetry is off),
    /// merged into the run scope in canonical channel order.
    tel: Telemetry,
}

/// Everything one finished run left behind for the instrument: its
/// metric roll-up and its buffered journal events, held until
/// [`StudyHarness::flush_journal`] writes them out in canonical run
/// order.
struct RunArtifacts {
    summary: RunTelemetry,
    events: Vec<hbbtv_obs::Event>,
}

/// The harness's telemetry bookkeeping. Finished runs are keyed by
/// their ordinal in [`RunKind::ALL`] (repeated runs of one kind append
/// in call order), so summaries and the flushed journal come out in
/// canonical order whatever order runs were performed in.
struct TelemetryShared {
    config: TelemetryConfig,
    finished: Mutex<BTreeMap<usize, Vec<RunArtifacts>>>,
}

/// The run-level script state, fixed before any visit starts.
struct RunPlan {
    kind: RunKind,
    seed: u64,
    /// The shuffled channel order, off-air channels removed.
    order: Vec<hbbtv_broadcast::ChannelId>,
    /// The fixed 10-press interaction sequence shared by all visits
    /// (§IV-C generates it once per run).
    sequence: Vec<RcButton>,
    /// The run's telemetry scope; visit scopes parent under `span`.
    tel: Telemetry,
    span: Span,
}

/// Drives the full study over a generated ecosystem.
pub struct StudyHarness<'a> {
    eco: &'a Ecosystem,
    tel: Option<TelemetryShared>,
}

impl std::fmt::Debug for StudyHarness<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudyHarness")
            .field("seed", &self.eco.seed())
            .field("telemetry", &self.tel.as_ref().map(|t| t.config.mode))
            .finish()
    }
}

impl<'a> StudyHarness<'a> {
    /// Creates a harness over a world, telemetry off.
    pub fn new(eco: &'a Ecosystem) -> Self {
        StudyHarness { eco, tel: None }
    }

    /// Creates a harness with the instrument attached. Telemetry
    /// observes the pipeline but never steers it: every dataset and
    /// report this harness produces is byte-identical to
    /// [`StudyHarness::new`]'s.
    pub fn with_telemetry(eco: &'a Ecosystem, config: TelemetryConfig) -> Self {
        let tel = config.mode.metrics_on().then(|| TelemetryShared {
            config,
            finished: Mutex::new(BTreeMap::new()),
        });
        StudyHarness { eco, tel }
    }

    /// The ordinal of `kind` in [`RunKind::ALL`] — the canonical sort
    /// key for journal flushing and span-id bases.
    fn run_ordinal(kind: RunKind) -> usize {
        RunKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("every RunKind is in ALL")
    }

    /// A fresh telemetry scope for one run of `kind`: sim clock at the
    /// run's start, span ids in the run's own `(ordinal + 1) << 32`
    /// block. Inert when telemetry is off.
    fn run_scope(&self, kind: RunKind) -> Telemetry {
        match &self.tel {
            None => Telemetry::disabled(),
            Some(shared) => Telemetry::scope(
                shared.config.mode,
                SimClock::starting_at(kind.start_time()),
                ((Self::run_ordinal(kind) as u64) + 1) << 32,
            ),
        }
    }

    /// Freezes a finished run's scope into [`RunArtifacts`] under its
    /// canonical ordinal.
    fn finish_run(&self, kind: RunKind, run_tel: Telemetry) {
        let Some(shared) = &self.tel else { return };
        if !run_tel.is_enabled() {
            return;
        }
        let artifacts = RunArtifacts {
            summary: RunTelemetry::from_scope(kind.label(), &run_tel),
            events: run_tel.drain_events(),
        };
        shared
            .finished
            .lock()
            .expect("telemetry lock")
            .entry(Self::run_ordinal(kind))
            .or_default()
            .push(artifacts);
    }

    /// The instrument summaries of every run performed so far, in
    /// canonical run order. `None` when telemetry is off (or nothing
    /// ran yet) — the summary rides *alongside* the dataset, never
    /// inside its wire format.
    pub fn telemetry(&self) -> Option<StudyTelemetry> {
        let shared = self.tel.as_ref()?;
        let finished = shared.finished.lock().expect("telemetry lock");
        if finished.is_empty() {
            return None;
        }
        Some(StudyTelemetry {
            runs: finished
                .values()
                .flat_map(|runs| runs.iter().map(|r| r.summary.clone()))
                .collect(),
        })
    }

    /// Writes every buffered journal event to the configured sink, in
    /// canonical run order, and clears the buffers (summaries stay).
    /// [`run_all`] calls this automatically; single-run callers invoke
    /// it once their runs are done.
    ///
    /// [`run_all`]: StudyHarness::run_all
    pub fn flush_journal(&self) {
        let Some(shared) = &self.tel else { return };
        if !shared.config.mode.journal_on() {
            return;
        }
        let mut finished = shared.finished.lock().expect("telemetry lock");
        for runs in finished.values_mut() {
            for artifacts in runs.iter_mut() {
                for event in std::mem::take(&mut artifacts.events) {
                    shared.config.sink.record(&event);
                }
            }
        }
        shared.config.sink.flush();
    }

    /// Performs all five measurement runs, every `(run, visit)` slot of
    /// the study fanned out in one [`par_map`].
    ///
    /// The physical study ran the five protocols on independent days
    /// against freshly wiped TV state; here each run owns an isolated
    /// timeline and RNGs seeded only from `(ecosystem seed, run kind)`,
    /// and each visit inside a run is hermetic (see the module docs), so
    /// the study is byte-identical at any executor count. Each run is
    /// assembled in canonical channel order by whichever executor
    /// finishes its last visit, while the others go on with later runs'
    /// visits, and the runs come back in [`RunKind::ALL`] order. One
    /// flat batch lets an executor that drains one run's visits move
    /// straight on to the next run's, so the long-tailed channels
    /// (`visit_wall_p99 ≫ p50`) never gate a whole run.
    pub fn run_all(&self) -> StudyDataset {
        let runs = self.perform(&RunKind::ALL, None);
        self.flush_journal();
        StudyDataset { runs }
    }

    /// Performs one measurement run, its channel visits fanned out over
    /// [`par_map`].
    pub fn run(&self, kind: RunKind) -> RunDataset {
        self.perform(&[kind], None).remove(0)
    }

    /// Performs one measurement run with an on-device block list active
    /// (the §VIII protection evaluation: blocked requests never leave
    /// the TV).
    pub fn run_with_blocklist(&self, kind: RunKind, blocklist: &FilterList) -> RunDataset {
        self.perform(&[kind], Some(blocklist)).remove(0)
    }

    /// Performs the runs `kinds` in order: plans every run, then performs
    /// every `(run, visit)` slot in one [`par_map`]. Whichever executor
    /// finishes a run's last visit assembles that run right away, in
    /// canonical channel order, while the other executors go on with
    /// the remaining visits.
    fn perform(&self, kinds: &[RunKind], blocklist: Option<&FilterList>) -> Vec<RunDataset> {
        let plans: Vec<RunPlan> = kinds.iter().map(|&kind| self.plan(kind)).collect();
        let slots: Vec<(usize, usize)> = plans
            .iter()
            .enumerate()
            .flat_map(|(run, plan)| (0..plan.order.len()).map(move |seq| (run, seq)))
            .collect();
        // Each run's finished visits by position, and how many are in.
        let pending: Vec<Mutex<(Vec<Option<VisitOutcome>>, usize)>> = plans
            .iter()
            .map(|plan| Mutex::new(((0..plan.order.len()).map(|_| None).collect(), 0)))
            .collect();
        let visit = |&(run, seq): &(usize, usize)| {
            let plan = &plans[run];
            let outcome = self.visit_channel(plan, seq, blocklist);
            let visits = {
                let mut pending = pending[run].lock().expect("visit outcome lock");
                pending.0[seq] = Some(outcome);
                pending.1 += 1;
                if pending.1 < plan.order.len() {
                    return None;
                }
                std::mem::take(&mut pending.0)
            };
            let visits = visits.into_iter().map(|o| o.expect("every visit is in"));
            Some((run, assemble(plan, visits.collect())))
        };
        let assembled = par_map(&slots, |_, slot| visit(slot));
        let mut datasets: Vec<Option<RunDataset>> = plans.iter().map(|_| None).collect();
        for (run, dataset) in assembled.into_iter().flatten() {
            datasets[run] = Some(dataset);
        }
        plans
            .into_iter()
            .zip(datasets)
            .map(|(plan, dataset)| {
                // A run with no visit on the air has no last visit.
                let dataset = dataset.unwrap_or_else(|| assemble(&plan, Vec::new()));
                // The span opened at planning time, so in `Profile`
                // mode its wall time covers the whole shared batch.
                drop(plan.span);
                self.finish_run(plan.kind, plan.tel);
                dataset
            })
            .collect()
    }

    /// Draws a run's script state from its seed and opens its telemetry
    /// scope and `run` span.
    fn plan(&self, kind: RunKind) -> RunPlan {
        let seed = self.eco.seed() ^ (kind as u64).wrapping_mul(0x9E37_79B9);
        let mut script_rng = StdRng::seed_from_u64(seed ^ 0x5C21);
        let mut order: Vec<_> = self.eco.final_channels().to_vec();
        order.shuffle(&mut script_rng);
        let sequence = interaction_sequence(&mut script_rng);
        let off_air = self.eco.off_air(kind);
        order.retain(|id| !off_air.contains(id));
        let tel = self.run_scope(kind);
        let mut span = tel.span("run");
        span.add_field("run", kind.label());
        span.add_field("channels", order.len());
        RunPlan {
            kind,
            seed,
            order,
            sequence,
            tel,
            span,
        }
    }

    /// One hermetic channel visit, the `seq`-th of `plan`: a pure
    /// function of `(ecosystem, run kind, visit position, channel id)`.
    /// Owns a fresh TV, a clock offset to the visit's slot
    /// (`start_time + seq · watch_time`), a capture log, and RNGs seeded
    /// from `(run seed, channel id)` — so the same arguments produce the
    /// same outcome on any thread in any order.
    fn visit_channel(
        &self,
        plan: &RunPlan,
        seq: usize,
        blocklist: Option<&FilterList>,
    ) -> VisitOutcome {
        let (kind, id) = (plan.kind, plan.order[seq]);
        let bp = self
            .eco
            .blueprint(id)
            .expect("final channels have blueprints");
        let opened =
            kind.start_time() + Duration::from_secs(seq as u64 * kind.watch_time().as_secs());
        let clock = SimClock::starting_at(opened);
        // The visit's telemetry scope: buffered events, span ids from
        // the visit's canonical block, time from the visit's own clock.
        let tel = plan.tel.child_scope(seq, clock.clone());
        let mut visit_span = tel.span("visit");
        visit_span.add_field("seq", seq);
        visit_span.add_field("channel", id.0 as u64);
        let metrics = tel.is_enabled().then(|| ProxyMetrics {
            exchanges: tel.counter(keys::PROXY_EXCHANGES),
            bytes: tel.counter(keys::PROXY_BYTES),
        });
        let mut log = VisitLog::open(
            kind.label(),
            VisitId(seq as u32),
            id,
            &bp.plan.name,
            opened,
            metrics,
        );

        let visit_seed = plan.seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let backend = EcoBackend {
            eco: self.eco,
            log: &mut log,
            clock: clock.clone(),
            rng: StdRng::seed_from_u64(visit_seed ^ 0xBAC5),
            blocklist,
            first_party: Etld1::from_host(&bp.first_party_host),
        };
        let mut tv = Tv::new(
            DeviceProfile::study_tv(),
            clock.clone(),
            backend,
            visit_seed,
        );
        // The visit-local script RNG drives the weak-signal model.
        let mut script_rng = StdRng::seed_from_u64(visit_seed ^ 0x51C7);

        let mut screenshots = Vec::new();
        let mut interactions = 1usize; // the channel switch itself

        // Consent notices are frequency-capped: roughly one in four
        // tune-ins does not show the notice (deterministic per channel
        // and run).
        let suppress_notice = (id.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(kind as u64)
            % 4
            == 1;
        let ctx = ChannelContext {
            descriptor: bp.descriptor.clone(),
            app: bp.app.clone(),
            program: bp.program.clone(),
            signal_ok: true,
            tech_message: false,
            ctm_on_missing: bp.plan.knobs.ctm_on_missing,
            suppress_notice,
        };
        tv.tune(ctx, &bp.ait);

        let weak = bp.plan.knobs.weak_signal;
        let shoot = |tv: &mut Tv<EcoBackend>, rng: &mut StdRng, shots: &mut Vec<Screenshot>| {
            if weak {
                tv.set_signal_ok(rng.gen_bool(0.7));
            }
            if let Some(s) = tv.screenshot() {
                shots.push(s);
            }
        };

        // Wait 10 s, first screenshot.
        tv.advance(Duration::from_secs(10));
        shoot(&mut tv, &mut script_rng, &mut screenshots);

        let mut elapsed = 10u64;
        if let Some(button) = kind.button() {
            // Press the run's color button, wait 10 s, screenshot.
            tv.press(color_to_rc(button));
            interactions += 1;
            tv.advance(Duration::from_secs(10));
            elapsed += 10;
            shoot(&mut tv, &mut script_rng, &mut screenshots);
            // Fixed interaction sequence, 5 s apart, screenshot each.
            for &press in &plan.sequence {
                tv.press(press);
                interactions += 1;
                tv.advance(Duration::from_secs(5));
                elapsed += 5;
                shoot(&mut tv, &mut script_rng, &mut screenshots);
            }
        }

        // Periodic screenshots every 60 s until the watch time ends.
        let total = kind.watch_time().as_secs();
        loop {
            let next = (elapsed / 60 + 1) * 60;
            if next > total {
                break;
            }
            tv.advance(Duration::from_secs(next - elapsed));
            elapsed = next;
            shoot(&mut tv, &mut script_rng, &mut screenshots);
        }
        if total > elapsed {
            tv.advance(Duration::from_secs(total - elapsed));
        }
        let consented = tv.consent_granted();

        // Post-visit extraction (SSH in the physical study), then wipe
        // and power off.
        let (cookies, local_storage) = tv.extract_storage();
        tv.power_off();

        let captures = log.into_captures();
        visit_span.add_field("captures", captures.len());
        visit_span.add_field("consented", consented);
        drop(visit_span);

        VisitOutcome {
            id,
            name: bp.plan.name.clone(),
            opened,
            captures,
            cookies,
            local_storage,
            screenshots,
            interactions,
            consented,
            tel,
        }
    }
}

/// Assembles a run from its visit outcomes, in canonical channel order,
/// under the run scope's `assemble` span. The per-visit telemetry
/// scopes fold into the run scope in that order too — merge order is
/// fixed here, never by the executors, so metrics and journal are
/// byte-stable. Cookie jars merge the way one jar would have
/// accumulated them (keyed by `(domain, name)`, later visits overwrite
/// values while the earliest `created` survives); local storage merges
/// keyed by `(origin, key)`.
fn assemble(plan: &RunPlan, outcomes: Vec<VisitOutcome>) -> RunDataset {
    let tel = &plan.tel;
    let _span = tel.span("assemble");
    if tel.is_enabled() {
        let count = tel.counter(keys::VISITS);
        let visit_captures = tel.histogram(keys::VISIT_CAPTURES);
        for outcome in &outcomes {
            count.inc();
            visit_captures.record(outcome.captures.len() as u64);
            tel.merge_child(&outcome.tel);
        }
    }
    let mut channels_measured = Vec::new();
    let mut channel_names = BTreeMap::new();
    let mut visits = Vec::new();
    let mut captures = Vec::with_capacity(outcomes.iter().map(|o| o.captures.len()).sum());
    let mut cookies: Vec<StoredCookie> = Vec::new();
    let mut storage: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut screenshots = Vec::new();
    let mut interactions = 0usize;
    let mut consented_channels = Vec::new();

    for (seq, outcome) in outcomes.into_iter().enumerate() {
        channels_measured.push(outcome.id);
        channel_names.insert(outcome.id, outcome.name);
        visits.push(VisitSummary {
            visit: VisitId(seq as u32),
            channel: outcome.id,
            opened: outcome.opened,
            captures: outcome.captures.len(),
        });
        captures.extend(outcome.captures);
        cookies.extend(outcome.cookies);
        for (origin, key, value) in outcome.local_storage {
            storage.insert((origin, key), value);
        }
        screenshots.extend(outcome.screenshots);
        interactions += outcome.interactions;
        if outcome.consented {
            consented_channels.push(outcome.id);
        }
    }
    // The stable sort keeps each key's cookies in visit order, so the
    // last visit's cookie wins, carrying the earliest `created`.
    fn key(sc: &StoredCookie) -> (&str, &str) {
        (sc.cookie.domain.as_str(), sc.cookie.name.as_str())
    }
    cookies.sort_by(|a, b| key(a).cmp(&key(b)));
    cookies.dedup_by(|later, kept| {
        if key(later) != key(kept) {
            return false;
        }
        let created = kept.created.min(later.created);
        std::mem::swap(later, kept);
        kept.created = created;
        true
    });

    RunDataset {
        run: plan.kind,
        channels_measured,
        channel_names,
        visits,
        captures,
        cookies,
        local_storage: storage
            .into_iter()
            .map(|((origin, key), value)| (origin, key, value))
            .collect(),
        screenshots,
        interactions,
        consented_channels,
    }
}

/// Classifies a request for filter-list purposes from its path
/// extension (requests carry no `Accept` header in this simulation, so
/// the extension is the only signal available before the response).
fn resource_kind_of(request: &Request) -> ResourceKind {
    let path = request.url.path();
    let ext = path
        .rsplit('/')
        .next()
        .and_then(|seg| seg.rsplit_once('.'))
        .map(|(_, e)| e.to_ascii_lowercase());
    match ext.as_deref() {
        Some("js") => ResourceKind::Script,
        Some("gif" | "png" | "jpg" | "jpeg" | "webp" | "ico" | "svg") => ResourceKind::Image,
        Some("html" | "htm") => ResourceKind::Document,
        None if path == "/" || path.is_empty() => ResourceKind::Document,
        _ => ResourceKind::Other,
    }
}

fn color_to_rc(button: hbbtv_apps::ColorButton) -> RcButton {
    match button {
        hbbtv_apps::ColorButton::Red => RcButton::Red,
        hbbtv_apps::ColorButton::Green => RcButton::Green,
        hbbtv_apps::ColorButton::Yellow => RcButton::Yellow,
        hbbtv_apps::ColorButton::Blue => RcButton::Blue,
    }
}

/// Generates the fixed 10-press interaction sequence with ≥ 1 ENTER.
fn interaction_sequence(rng: &mut StdRng) -> Vec<RcButton> {
    const CURSOR: [RcButton; 5] = [
        RcButton::Up,
        RcButton::Down,
        RcButton::Left,
        RcButton::Right,
        RcButton::Enter,
    ];
    loop {
        let seq: Vec<RcButton> = (0..10)
            .map(|_| CURSOR[rng.gen_range(0..CURSOR.len())])
            .collect();
        if seq.contains(&RcButton::Enter) {
            return seq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Runtime;
    use crate::ecosystem::Ecosystem;

    fn small_world() -> Ecosystem {
        Ecosystem::with_scale(123, 0.05)
    }

    #[test]
    fn general_run_produces_the_protocol_artifacts() {
        let eco = small_world();
        let harness = StudyHarness::new(&eco);
        let ds = harness.run(RunKind::General);
        assert!(!ds.captures.is_empty());
        assert!(!ds.channels_measured.is_empty());
        // 16 screenshots per measured channel.
        assert_eq!(
            ds.screenshots.len(),
            ds.channels_measured.len() * 16,
            "16 screenshots per channel in General"
        );
        // All captures carry the session label.
        assert!(ds.captures.iter().all(|c| &*c.session == "General"));
    }

    #[test]
    fn button_runs_take_27_screenshots_per_channel() {
        let eco = small_world();
        let harness = StudyHarness::new(&eco);
        let ds = harness.run(RunKind::Red);
        assert_eq!(ds.screenshots.len(), ds.channels_measured.len() * 27);
    }

    #[test]
    fn green_run_measures_fewer_channels() {
        let eco = small_world();
        let harness = StudyHarness::new(&eco);
        let general = harness.run(RunKind::General);
        let green = harness.run(RunKind::Green);
        assert!(
            green.channels_measured.len() < general.channels_measured.len(),
            "daytime-only channels are off during the Green run"
        );
    }

    #[test]
    fn cookies_and_storage_are_extracted() {
        let eco = small_world();
        let harness = StudyHarness::new(&eco);
        let ds = harness.run(RunKind::Red);
        assert!(!ds.cookies.is_empty(), "trackers set cookies");
        assert!(!ds.local_storage.is_empty(), "apps write local storage");
    }

    #[test]
    fn all_traffic_is_attributed_to_visits() {
        let eco = small_world();
        let harness = StudyHarness::new(&eco);
        let ds = harness.run(RunKind::General);
        let attributed = ds.captures.iter().filter(|c| c.channel.is_some()).count();
        assert!(attributed * 10 >= ds.captures.len() * 9, "≥90% attributed");
        // Visit tags and channel tags agree with the visit summaries.
        for c in &ds.captures {
            assert_eq!(c.channel.is_some(), c.visit.is_some());
            if let (Some(v), Some(ch)) = (c.visit, c.channel) {
                let summary = &ds.visits[v.0 as usize];
                assert_eq!(summary.visit, v);
                assert_eq!(summary.channel, ch);
            }
        }
        // Per-visit capture counts re-derive from the tags.
        let tagged: usize = ds.per_visit_capture_counts().values().sum();
        assert_eq!(tagged, attributed);
    }

    #[test]
    fn visit_summaries_mirror_the_channel_order() {
        let eco = small_world();
        let harness = StudyHarness::new(&eco);
        let ds = harness.run(RunKind::Red);
        assert_eq!(ds.visits.len(), ds.channels_measured.len());
        for (i, (summary, &ch)) in ds.visits.iter().zip(&ds.channels_measured).enumerate() {
            assert_eq!(summary.visit.0 as usize, i);
            assert_eq!(summary.channel, ch);
        }
        // Visits tile the run's timeline back-to-back.
        let watch = RunKind::Red.watch_time().as_secs();
        for (i, summary) in ds.visits.iter().enumerate() {
            assert_eq!(
                summary.opened,
                RunKind::Red.start_time() + Duration::from_secs(i as u64 * watch)
            );
        }
    }

    /// A run's capture log is its visits' logs concatenated in channel
    /// order, and each visit tags only its own slice: with its own id
    /// and channel, or not at all. Ingest's visit sharding streams each
    /// visit's slice as recorded, so it relies on this.
    #[test]
    fn each_visit_tags_only_its_own_slice_of_the_log() {
        let eco = small_world();
        let study = StudyHarness::new(&eco).run_all();
        for ds in &study.runs {
            let mut rest = ds.captures.as_slice();
            for (k, summary) in ds.visits.iter().enumerate() {
                assert!(summary.captures <= rest.len(), "{} visit {k}", ds.run);
                let (slice, tail) = rest.split_at(summary.captures);
                rest = tail;
                let own = VisitId(k as u32);
                assert_eq!(summary.visit, own);
                for c in slice {
                    match c.visit {
                        Some(v) => {
                            assert_eq!(v, own, "{} visit {k}", ds.run);
                            assert_eq!(c.channel, Some(summary.channel));
                        }
                        None => assert_eq!((c.channel, &c.channel_name), (None, &None)),
                    }
                }
            }
            assert!(rest.is_empty(), "{}: captures past the last visit", ds.run);
        }
    }

    #[test]
    fn parallel_visits_match_sequential_visits() {
        let eco = small_world();
        let harness = StudyHarness::new(&eco);
        let sequential = Runtime::with_workers(1).install(|| harness.run(RunKind::Blue));
        let parallel = Runtime::with_workers(2).install(|| harness.run(RunKind::Blue));
        assert_eq!(sequential.captures, parallel.captures);
        assert_eq!(sequential.cookies, parallel.cookies);
        assert_eq!(sequential.local_storage, parallel.local_storage);
        assert_eq!(sequential.visits, parallel.visits);
        assert_eq!(sequential.screenshots.len(), parallel.screenshots.len());
        assert_eq!(sequential.interactions, parallel.interactions);
        assert_eq!(sequential.consented_channels, parallel.consented_channels);
    }

    #[test]
    fn runs_are_deterministic() {
        let eco = small_world();
        let a = StudyHarness::new(&eco).run(RunKind::Blue);
        let b = StudyHarness::new(&eco).run(RunKind::Blue);
        assert_eq!(a.captures.len(), b.captures.len());
        assert_eq!(a.cookies.len(), b.cookies.len());
        assert_eq!(a.screenshots.len(), b.screenshots.len());
    }

    #[test]
    fn interaction_sequence_has_enter() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let seq = interaction_sequence(&mut rng);
            assert_eq!(seq.len(), 10);
            assert!(seq.contains(&RcButton::Enter));
        }
    }
}
