//! The synthetic HbbTV world.
//!
//! [`Ecosystem`] generates everything the physical study *found in the
//! field*: the satellite scan (3,575 services at full scale), the 396
//! analyzable channels with their applications, the tracker backends,
//! consent notices, privacy policies, and per-run channel availability.
//!
//! Generation is seeded and deterministic. Cohort sizes are calibrated
//! against the population statistics reported in §IV–§VII (see
//! `DESIGN.md` §1 for the substitution argument and `EXPERIMENTS.md`
//! for measured-vs-paper outcomes). Everything downstream — every table
//! and figure — is *measured* from simulated traffic, never copied.

pub mod apps_gen;
pub mod channels;
pub mod policies_gen;
pub mod roster;

use crate::run::RunKind;
use apps_gen::{build_app, entry_url, policy_url, HostPlan};
use channels::{slugify, ButtonContent, ChannelKnobs, ChannelPlan};
use hbbtv_apps::{ColorButton, HbbtvApp};
use hbbtv_broadcast::{
    Ait, AppControlCode, BroadcastSchedule, ChannelCategory, ChannelDescriptor, ChannelId,
    ChannelLineup, Language, Network, Satellite,
};
use hbbtv_consent::NoticeBranding;
use hbbtv_policies::{render_policy, PolicyProfile};
use hbbtv_trackers::{TrackerKind, TrackerRegistry, TrackerService};
use hbbtv_tv::ProgramInfo;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// One fully generated channel.
#[derive(Debug, Clone)]
pub struct ChannelBlueprint {
    /// The plan (name, cohort knobs, taxonomy).
    pub plan: ChannelPlan,
    /// Broadcast metadata.
    pub descriptor: ChannelDescriptor,
    /// Application signalling.
    pub ait: Ait,
    /// The application model (channels in the final set always have
    /// one), shared with the TV of every visit.
    pub app: Option<Arc<HbbtvApp>>,
    /// What the channel airs.
    pub program: ProgramInfo,
    /// The application host (its eTLD+1 is the ground-truth first
    /// party; analyses re-derive it from traffic).
    pub first_party_host: String,
    /// The policy profile behind the channel's policy route, if any.
    pub policy_profile: Option<PolicyProfile>,
}

/// The generated world.
#[derive(Debug)]
pub struct Ecosystem {
    lineup: ChannelLineup,
    blueprints: BTreeMap<ChannelId, ChannelBlueprint>,
    registry: TrackerRegistry,
    /// Policy texts by host, then path, so a lookup borrows its keys.
    policy_texts: HashMap<String, HashMap<String, String>>,
    off_air: BTreeMap<RunKind, BTreeSet<ChannelId>>,
    final_ids: Vec<ChannelId>,
    seed: u64,
    scale: f64,
}

/// Full-scale per-network channel counts (sum = 396).
const NETWORK_COUNTS: [(Network, usize); 10] = [
    (Network::Ard, 150),
    (Network::Zdf, 15),
    (Network::ProSiebenSat1, 60),
    (Network::RtlGermany, 45),
    (Network::Discovery, 12),
    (Network::Paramount, 15),
    (Network::Shopping, 20),
    (Network::Austrian, 25),
    (Network::Religious, 1),
    (Network::Independent, 53),
];

/// Named channels per network (placed at the low indices).
fn specials(network: Network) -> &'static [&'static str] {
    match network {
        Network::Ard => &["Das Erste", "KiKA", "RBB", "MDR", "tagesschau24"],
        Network::Zdf => &["ZDF", "ZDFneo", "ZDFinfo"],
        Network::ProSiebenSat1 => &[
            "ProSieben",
            "SAT.1",
            "Kabel Eins",
            "Kabel Eins Doku",
            "sixx",
            "ProSieben MAXX",
            "SAT.1 Gold",
        ],
        Network::RtlGermany => &[
            "RTL",
            "RTL Zwei",
            "VOX",
            "n-tv",
            "Super RTL",
            "Super RTL Austria",
            "Toggo Plus",
            "RTL Nitro",
        ],
        Network::Discovery => &["DMAX", "DMAX Austria", "TLC", "HGTV"],
        Network::Paramount => &["MTV", "Comedy Central", "Nick"],
        Network::Shopping => &["QVC", "HSE", "MediaShop", "Astro TV", "Channel21"],
        Network::Austrian => &["ServusTV", "Krone.tv", "oe24.TV"],
        Network::Religious => &["Bibel TV"],
        Network::Independent => &[
            "WELT",
            "N24 Doku",
            "Sachsen Eins",
            "Sport1",
            "Tele 5",
            "Sport Total",
            "Kinderkanal Eins",
            "Kinderkanal Zwei",
            "Kinderkanal Drei",
            "Kinderkanal Vier",
            "Kinderkanal Fuenf",
            "Kinderkanal Sechs",
            "Kinderkanal Sieben",
        ],
    }
}

fn generated_name(network: Network, i: usize) -> String {
    let base = match network {
        Network::Ard => "ARD Regional",
        Network::Zdf => "ZDF Kanal",
        Network::ProSiebenSat1 => "P7S1 Kanal",
        Network::RtlGermany => "RTL Kanal",
        Network::Discovery => "Discovery Kanal",
        Network::Paramount => "Paramount Kanal",
        Network::Shopping => "Shop TV",
        Network::Austrian => "Austria TV",
        Network::Religious => "Glaube TV",
        Network::Independent => "Kanal",
    };
    format!("{base} {}", i + 1)
}

fn hub_for(network: Network) -> Option<&'static str> {
    match network {
        Network::Ard => Some("hbbtv.ard.de"),
        Network::Zdf => Some("hbbtv.zdf.de"),
        Network::ProSiebenSat1 => Some("hbbtv.redbutton.de"),
        Network::RtlGermany => Some("hbbtv.rtl-hbbtv.de"),
        Network::Discovery => Some("hbbtv.discovery-net.de"),
        Network::Paramount => Some("hbbtv.paramount-tv.com"),
        _ => None,
    }
}

/// Whether index `i` of `n` lies in the fractional band `[lo, hi)`.
fn band(i: usize, n: usize, lo: f64, hi: f64) -> bool {
    if n == 0 {
        return false;
    }
    let x = i as f64 / n as f64;
    x >= lo && x < hi
}

impl Ecosystem {
    /// The full-scale world of the paper (3,575 services, 396 analyzed
    /// channels).
    pub fn paper(seed: u64) -> Self {
        Self::with_scale(seed, 1.0)
    }

    /// A scaled-down world (cohort sizes multiplied by `scale`), for
    /// tests and examples.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not within `(0.0, 1.0]`.
    pub fn with_scale(seed: u64, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let mut registry = roster::build_third_party_registry();
        registry.register(
            TrackerService::new("reco-engine.de", TrackerKind::Analytics)
                .with_per_site_cookie("reco", 16),
        );

        let sc = |n: usize| -> usize { ((n as f64 * scale).round() as usize).max(1) };

        // ---- plans for the final channel set -------------------------
        let mut plans: Vec<ChannelPlan> = Vec::new();
        for (network, full_count) in NETWORK_COUNTS {
            let n = sc(full_count);
            let names = specials(network);
            for i in 0..n {
                let name = if i < names.len() {
                    names[i].to_string()
                } else {
                    generated_name(network, i)
                };
                let mut plan = ChannelPlan {
                    slug: slugify(&name),
                    name,
                    network,
                    category: category_for(network, i, n),
                    language: Language::German,
                    satellite: satellite_for(plans.len()),
                    knobs: assign_knobs(network, i, n),
                    policy_group: None,
                };
                special_overrides(&mut plan);
                plans.push(plan);
            }
        }
        assign_languages(&mut plans);
        assign_policy_routes(&mut plans, scale);

        // ---- blueprints, registry entries, policy texts --------------
        let mut blueprints = BTreeMap::new();
        let mut policy_texts: HashMap<String, HashMap<String, String>> = HashMap::new();
        let mut final_ids = Vec::new();
        let mut lineup = ChannelLineup::new();
        let mut registered_hubs: BTreeSet<String> = BTreeSet::new();
        let mut next_id: u32 = 0;

        for plan in plans {
            let id = ChannelId(next_id);
            next_id += 1;
            let hosts = match hub_for(plan.network) {
                Some(hub) => HostPlan::for_hub(hub),
                None => HostPlan::own(&plan.slug),
            };
            register_hosts(&mut registry, &mut registered_hubs, &hosts, plan.network);
            if plan.knobs.fp_first_party {
                let fp_host = format!("fp.{}", hosts.fp_domain);
                registry.register(
                    TrackerService::new(
                        &fp_host,
                        TrackerKind::Fingerprinter {
                            uses_library: false,
                        },
                    )
                    .with_cookie("fpid", 16),
                );
            }

            let mut plan = plan;
            if plan.knobs.fp_first_party {
                plan.knobs.fingerprint_host = Some(format!("fp.{}", hosts.fp_domain));
            }

            let app = build_app(&plan, &hosts);
            let mut ait = Ait::new();
            // A handful of channels encode a third-party URL directly in
            // the broadcast signal (the §V-A pitfall).
            if plan.knobs.ait_encodes_tracker {
                ait.push(
                    1,
                    AppControlCode::Autostart,
                    format!(
                        "http://{}/collect?site={}&tid=UA-4711",
                        roster::GOOGLE_ANALYTICS,
                        plan.slug
                    )
                    .parse()
                    .expect("valid URL"),
                );
            } else {
                ait.push(1, AppControlCode::Autostart, entry_url(&hosts, &plan.slug));
            }
            ait.push(2, AppControlCode::Present, entry_url(&hosts, &plan.slug));

            let policy_profile = policies_gen::profile_for(&plan, plan.policy_group.is_some());
            if let Some(profile) = &policy_profile {
                let route = policy_url(&hosts, &plan.slug);
                policy_texts
                    .entry(route.host().to_string())
                    .or_default()
                    .insert(route.path().to_string(), render_policy(profile));
            }

            let descriptor = descriptor_for(&plan, id);
            let schedule = if plan.knobs.limited_schedule {
                BroadcastSchedule::daytime()
            } else {
                BroadcastSchedule::Continuous
            };
            lineup.push(descriptor.clone(), ait.clone(), schedule);
            final_ids.push(id);
            blueprints.insert(
                id,
                ChannelBlueprint {
                    program: program_for(&plan),
                    first_party_host: hosts.hub.clone(),
                    app: Some(Arc::new(app)),
                    descriptor,
                    ait,
                    policy_profile,
                    plan,
                },
            );
        }

        // ---- the rest of the scan (funnel fodder) ---------------------
        push_nonfinal_services(&mut lineup, &mut next_id, scale);

        // ---- per-run availability -------------------------------------
        let off_air = assign_off_air(&blueprints, &final_ids, seed, scale);

        Ecosystem {
            lineup,
            blueprints,
            registry,
            policy_texts,
            off_air,
            final_ids,
            seed,
            scale,
        }
    }

    /// The full scan result (the §IV-B funnel input).
    pub fn lineup(&self) -> &ChannelLineup {
        &self.lineup
    }

    /// The tracker/backend registry ("the Internet").
    pub fn registry(&self) -> &TrackerRegistry {
        &self.registry
    }

    /// Channel ids of the final analysis set.
    pub fn final_channels(&self) -> &[ChannelId] {
        &self.final_ids
    }

    /// One channel's blueprint.
    pub fn blueprint(&self, id: ChannelId) -> Option<&ChannelBlueprint> {
        self.blueprints.get(&id)
    }

    /// Iterates over all blueprints.
    pub fn blueprints(&self) -> impl Iterator<Item = &ChannelBlueprint> {
        self.blueprints.values()
    }

    /// The policy text served at `host`/`path`, if any.
    pub fn policy_text(&self, host: &str, path: &str) -> Option<&str> {
        self.policy_texts.get(host)?.get(path).map(String::as_str)
    }

    /// Channels off the air during a run (daytime-only broadcasters
    /// whose slot fell outside their window; calibrated to the per-run
    /// channel counts of Table I).
    pub fn off_air(&self, run: RunKind) -> &BTreeSet<ChannelId> {
        &self.off_air[&run]
    }

    /// The generator seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generator scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

fn register_hosts(
    registry: &mut TrackerRegistry,
    registered: &mut BTreeSet<String>,
    hosts: &HostPlan,
    network: Network,
) {
    if !registered.insert(hosts.hub.clone()) {
        return;
    }
    if network.is_public() {
        registry.register(TrackerService::new(&hosts.hub, TrackerKind::Cdn));
        registry.register(TrackerService::new(
            &format!("media.{}", hosts.fp_domain),
            TrackerKind::Cdn,
        ));
    } else {
        registry.register(
            TrackerService::new(&hosts.hub, TrackerKind::Analytics)
                .with_per_site_cookie("sess", 14),
        );
        registry.register(
            TrackerService::new(
                &format!("media.{}", hosts.fp_domain),
                TrackerKind::Analytics,
            )
            .with_per_site_cookie("libid", 16),
        );
    }
    registry.register(TrackerService::new(&hosts.cdn, TrackerKind::Cdn));
}

fn satellite_for(global_index: usize) -> Satellite {
    // ≈ 31.5% Astra, 35% Hot Bird, 33.5% Eutelsat (§IV-D).
    match global_index % 20 {
        0..=5 => Satellite::Astra19E,
        6..=12 => Satellite::HotBird13E,
        _ => Satellite::Eutelsat16E,
    }
}

fn category_for(network: Network, i: usize, n: usize) -> ChannelCategory {
    match network {
        Network::Shopping => ChannelCategory::Shopping,
        Network::Religious => ChannelCategory::Religious,
        Network::Zdf => {
            if band(i, n, 0.0, 0.6) {
                ChannelCategory::General
            } else {
                ChannelCategory::Documentary
            }
        }
        Network::Discovery => ChannelCategory::Documentary,
        Network::Paramount => {
            if band(i, n, 0.0, 0.6) {
                ChannelCategory::Music
            } else {
                ChannelCategory::Movies
            }
        }
        Network::Austrian => {
            if band(i, n, 0.0, 0.5) {
                ChannelCategory::General
            } else {
                ChannelCategory::Regional
            }
        }
        Network::Ard => {
            // The ARD family is dominated by regional public channels
            // (the operator guides categorize the Dritte as Regional).
            if band(i, n, 0.0, 0.3) {
                ChannelCategory::General
            } else if band(i, n, 0.3, 0.38) {
                ChannelCategory::News
            } else if band(i, n, 0.38, 0.5) {
                ChannelCategory::Documentary
            } else {
                ChannelCategory::Regional
            }
        }
        _ => {
            // RTL/P7S1/Independent blend: mostly General with News,
            // Sports, Documentary, Music, Movies, Regional bands.
            if band(i, n, 0.0, 0.55) {
                ChannelCategory::General
            } else if band(i, n, 0.55, 0.65) {
                ChannelCategory::News
            } else if band(i, n, 0.65, 0.73) {
                ChannelCategory::Sports
            } else if band(i, n, 0.73, 0.83) {
                ChannelCategory::Documentary
            } else if band(i, n, 0.83, 0.9) {
                ChannelCategory::Movies
            } else if band(i, n, 0.9, 0.96) {
                ChannelCategory::Music
            } else {
                ChannelCategory::Regional
            }
        }
    }
}

fn assign_languages(plans: &mut [ChannelPlan]) {
    // 369 German, 12 English, 6 multilingual, 3 French, 1 Italian, rest
    // other (§IV-D; counts there do not sum to 396 — see DESIGN.md §4).
    let n = plans.len();
    let mut set = |idx: usize, lang: Language| {
        if idx < n {
            plans[idx].language = lang;
        }
    };
    let english = (n as f64 * 0.03).round() as usize;
    for k in 0..english {
        set(n - 1 - k, Language::English);
    }
    let multi = (n as f64 * 0.015).round() as usize;
    for k in 0..multi {
        set(n - 1 - english - k, Language::Multilingual);
    }
    if n > 30 {
        set(n - english - multi - 1, Language::French);
        set(n - english - multi - 2, Language::French);
        set(n - english - multi - 3, Language::Italian);
    }
}

fn assign_knobs(network: Network, i: usize, n: usize) -> ChannelKnobs {
    let mut k = ChannelKnobs::default();
    match network {
        Network::Ard => {
            k.ioam = i.is_multiple_of(2);
            k.red = if band(i, n, 0.0, 0.8) {
                ButtonContent::MediaLibrary
            } else if band(i, n, 0.8, 0.93) {
                ButtonContent::InfoText
            } else {
                ButtonContent::None
            };
            k.green = if band(i, n, 0.1, 0.35) {
                ButtonContent::MediaLibrary
            } else {
                ButtonContent::None
            };
            k.yellow = if band(i, n, 0.0, 0.27) {
                ButtonContent::MediaLibrary
            } else if band(i, n, 0.27, 0.4) {
                ButtonContent::InfoText
            } else {
                ButtonContent::None
            };
            k.blue = if band(i, n, 0.0, 0.05) {
                ButtonContent::PolicyPage
            } else {
                ButtonContent::None
            };
            k.library_tiles = 28;
            k.ls_write = band(i, n, 0.2, 0.6);
            k.weak_signal = i % 25 == 7;
            k.limited_schedule = band(i, n, 0.5, 0.97);
            k.ctm_on_missing = i % 5 == 1;
        }
        Network::Zdf => {
            k.ioam = i.is_multiple_of(2);
            k.red = ButtonContent::MediaLibrary;
            k.program_beacon = band(i, n, 0.0, 0.3);
            k.yellow = if band(i, n, 0.0, 0.3) {
                ButtonContent::InfoText
            } else {
                ButtonContent::None
            };
            k.library_tiles = 30;
            k.ls_write = band(i, n, 0.0, 0.4);
            k.limited_schedule = band(i, n, 0.8, 1.0);
        }
        Network::ProSiebenSat1 => {
            k.tvping_autostart = i % 4 != 3;
            k.notice = if i < (n as f64 * 0.08).round() as usize {
                Some(NoticeBranding::ProSiebenSat1Modal)
            } else if band(i, n, 0.08, 0.45) {
                Some(NoticeBranding::ProSiebenSat1NonModal)
            } else {
                None
            };
            k.red = ButtonContent::MediaLibrary;
            k.green = if band(i, n, 0.0, 0.7) {
                ButtonContent::MediaLibrary
            } else {
                ButtonContent::None
            };
            k.yellow = if band(i, n, 0.3, 0.45) {
                ButtonContent::Utility
            } else {
                ButtonContent::None
            };
            k.blue = if band(i, n, 0.0, 0.3) {
                ButtonContent::Settings
            } else if band(i, n, 0.3, 0.5) {
                ButtonContent::MediaLibrary
            } else {
                ButtonContent::Utility
            };
            if i % 5 == 3 {
                k.fingerprint_host = Some(roster::fingerprint_script_host(
                    roster::FP_THIRD_PARTIES[i % roster::FP_THIRD_PARTIES.len()],
                ));
            }
            k.xiti = true;
            k.genre_leak = band(i, n, 0.0, 0.83);
            k.program_beacon = k.genre_leak;
            k.ads_in_library = band(i, n, 0.0, 0.55) || i.is_multiple_of(2);
            k.tech_leak_to = Some(roster::TECH_RECEIVERS[i % 9].to_string());
            k.tvping_in_library = i % 6 == 2;
            k.reco_widget = band(i, n, 0.0, 0.5);
            k.library_tiles = 40;
            k.ls_write = true;
            k.limited_schedule = band(i, n, 0.58, 1.0);
            k.ctm_on_missing = i % 4 == 1;
            if i % 10 == 4 {
                k.sync_button = Some(ColorButton::Red);
            } else if i % 30 == 11 {
                k.sync_button = Some(ColorButton::Green);
            } else if i % 30 == 21 {
                k.sync_button = Some(ColorButton::Blue);
            }
            k.weak_signal = i % 30 == 9;
        }
        Network::RtlGermany => {
            k.tvping_autostart = i % 5 != 1;
            k.notice = if band(i, n, 0.0, 0.55) {
                Some(NoticeBranding::RtlGermany)
            } else {
                None
            };
            k.red = ButtonContent::MediaLibrary;
            k.green = if band(i, n, 0.0, 0.8) {
                ButtonContent::MediaLibrary
            } else {
                ButtonContent::None
            };
            k.blue = if band(i, n, 0.0, 0.33) {
                ButtonContent::Settings
            } else if band(i, n, 0.33, 0.55) {
                ButtonContent::MediaLibrary
            } else {
                ButtonContent::Utility
            };
            if i % 5 == 2 {
                k.fingerprint_host = Some(roster::fingerprint_script_host(
                    roster::FP_THIRD_PARTIES[(i + 5) % roster::FP_THIRD_PARTIES.len()],
                ));
            }
            k.xiti = true;
            k.genre_leak = band(i, n, 0.0, 0.89);
            k.program_beacon = k.genre_leak;
            k.ads_in_library = band(i, n, 0.0, 0.55) || i.is_multiple_of(2);
            k.tech_leak_to = Some(roster::TECH_RECEIVERS[(i + 3) % 9].to_string());
            k.tvping_in_library = i % 3 == 1;
            k.reco_widget = band(i, n, 0.0, 0.45);
            k.library_tiles = 36;
            k.ls_write = true;
            k.limited_schedule = band(i, n, 0.67, 1.0);
            k.ctm_on_missing = i % 5 == 2;
            if i % 6 == 1 {
                k.sync_button = Some(ColorButton::Red);
            } else if i % 15 == 5 {
                k.sync_button = Some(ColorButton::Green);
            } else if i % 15 == 10 {
                k.sync_button = Some(ColorButton::Blue);
            }
        }
        Network::Discovery => {
            if i % 3 == 1 {
                k.notice = Some(NoticeBranding::DmaxTlcComedyCentral);
            }
            k.red = ButtonContent::MediaLibrary;
            k.xiti = true;
            k.genre_leak = true;
            k.program_beacon = true;
            k.tvping_in_library = true;
            k.ads_in_library = true;
            k.library_tiles = 32;
            k.ls_write = true;
            k.limited_schedule = i % 6 == 5;
        }
        Network::Paramount => {
            k.tvping_autostart = band(i, n, 0.0, 0.66);
            k.red = ButtonContent::MediaLibrary;
            k.yellow = if band(i, n, 0.0, 0.53) {
                ButtonContent::MediaLibrary
            } else {
                ButtonContent::None
            };
            k.green = ButtonContent::Utility;
            k.blue = ButtonContent::Utility;
            if i % 4 == 1 {
                k.notice = Some(NoticeBranding::GenericUnbranded);
            }
            k.xiti = band(i, n, 0.0, 0.2);
            k.ads_in_library = true;
            if i % 4 == 2 {
                k.fingerprint_host = Some(roster::fingerprint_script_host(
                    roster::FP_THIRD_PARTIES[(i + 9) % roster::FP_THIRD_PARTIES.len()],
                ));
            }
            k.library_tiles = 30;
            k.ls_write = band(i, n, 0.0, 0.6);
            k.limited_schedule = band(i, n, 0.7, 1.0);
            k.ctm_on_missing = i % 3 == 1;
        }
        Network::Shopping => {
            k.tvping_autostart = i % 4 == 1;
            k.green = ButtonContent::Utility;
            if i % 3 == 2 {
                k.notice = Some(NoticeBranding::GenericUnbranded);
            }
            k.connector_host = Some(roster::CONNECTORS[i % 4].to_string());
            k.red = ButtonContent::Shop;
            k.blue = ButtonContent::Utility;
            k.tech_leak_to = if band(i, n, 0.0, 0.35) {
                Some(roster::TECH_RECEIVERS[(i + 6) % 9].to_string())
            } else {
                None
            };
            k.ls_write = true;
            k.limited_schedule = band(i, n, 0.5, 1.0);
            k.ctm_on_missing = i.is_multiple_of(3);
        }
        Network::Austrian => {
            k.ioam = i.is_multiple_of(2);
            k.connector_host = Some(roster::CONNECTORS[(i + 1) % 4].to_string());
            k.tvping_autostart = i % 4 == 1;
            if k.tvping_autostart {
                k.blue = ButtonContent::Utility;
            }
            if i % 5 == 3 {
                k.notice = Some(NoticeBranding::GenericUnbranded);
            }
            k.red = if band(i, n, 0.0, 0.6) {
                ButtonContent::MediaLibrary
            } else {
                ButtonContent::None
            };
            k.yellow = if band(i, n, 0.0, 0.4) {
                ButtonContent::InfoText
            } else {
                ButtonContent::None
            };
            k.library_tiles = 22;
            k.ls_write = band(i, n, 0.0, 0.3);
            k.limited_schedule = band(i, n, 0.4, 1.0);
            k.weak_signal = i % 12 == 5;
        }
        Network::Religious => {
            k.red = ButtonContent::MediaLibrary;
            k.connector_host = Some(roster::CONNECTORS[0].to_string());
            k.notice = Some(NoticeBranding::BibelTv);
            k.ga_post_consent = true;
            k.library_tiles = 16;
        }
        Network::Independent => {
            let specials_len = specials(Network::Independent).len();
            k.red = if band(i, n, 0.0, 0.55) {
                ButtonContent::MediaLibrary
            } else {
                ButtonContent::None
            };
            k.yellow = if band(i, n, 0.2, 0.5) {
                ButtonContent::InfoText
            } else {
                ButtonContent::None
            };
            k.connector_host = Some(roster::CONNECTORS[(i + 2) % 4].to_string());
            k.unique_tracker = if i >= specials_len {
                let idx = i - specials_len;
                (idx < roster::UNIQUE_TRACKER_COUNT).then_some(idx)
            } else {
                None
            };
            k.tvping_autostart = i % 5 >= 3;
            if k.tvping_autostart && i % 10 == 4 {
                k.blue = ButtonContent::Utility;
            }
            if i % 6 == 1 {
                k.notice = Some(NoticeBranding::GenericUnbranded);
            }
            k.fp_first_party = i % 8 == 6;
            if !k.fp_first_party && i.is_multiple_of(2) {
                k.fingerprint_host = Some(roster::fingerprint_script_host(
                    roster::FP_THIRD_PARTIES[i % roster::FP_THIRD_PARTIES.len()],
                ));
            }
            k.library_tiles = 18;
            k.ls_write = i.is_multiple_of(3);
            k.limited_schedule = band(i, n, 0.25, 1.0);
            k.ctm_on_missing = i % 4 == 2;
            k.weak_signal = i % 9 == 4;
            // Roughly one in nine independents encodes a tracker URL in
            // its AIT (§V-A).
            k.ait_encodes_tracker = i % 9 == 3;
        }
    }
    k
}

/// Name-keyed behavioral overrides for the paper's named channels.
fn special_overrides(plan: &mut ChannelPlan) {
    let k = &mut plan.knobs;
    match plan.name.as_str() {
        "KiKA" | "Nick" | "Toggo Plus" => {
            plan.category = ChannelCategory::Children;
        }
        "Super RTL" | "Super RTL Austria" => {
            plan.category = ChannelCategory::Children;
            k.tvping_autostart = true;
            k.ads_in_library = true;
            k.notice = Some(NoticeBranding::RtlGermany);
        }
        name if name.starts_with("Kinderkanal") => {
            plan.category = ChannelCategory::Children;
            k.tvping_autostart = plan.slug.ends_with("eins") || plan.slug.ends_with("zwei");
        }
        "RTL Zwei" => {
            k.notice = Some(NoticeBranding::RtlZwei);
        }
        "Kabel Eins Doku" => {
            plan.category = ChannelCategory::Documentary;
            k.notice = Some(NoticeBranding::Couchplay);
            k.red = ButtonContent::PolicyPage;
        }
        "Astro TV" => {
            k.red = ButtonContent::PolicyPage;
        }
        "RBB" | "MDR" => {
            plan.category = ChannelCategory::Regional;
            // The Red-run hybrid split screen (policy + cookie controls).
            k.red = ButtonContent::Settings;
            k.policy_beacon_on.push(ColorButton::Red);
        }
        "ZDF" => {
            k.notice_on_blue = Some(NoticeBranding::ZdfModal);
            k.blue = ButtonContent::Settings;
        }
        "TLC" => {
            k.notice = Some(NoticeBranding::DmaxTlcComedyCentral);
            k.notice_on_blue = Some(NoticeBranding::Tlc);
            k.blue = ButtonContent::Settings;
        }
        "DMAX Austria" => {
            k.notice = Some(NoticeBranding::DmaxTlcComedyCentral);
        }
        "QVC" => {
            k.notice = Some(NoticeBranding::Qvc);
        }
        "HSE" => {
            k.notice = Some(NoticeBranding::Hse);
        }
        "MTV" | "Comedy Central" | "WELT" | "N24 Doku" => {
            k.notice = Some(NoticeBranding::GenericUnbranded);
        }
        "MediaShop" => {
            k.notice = Some(NoticeBranding::GenericUnbranded);
            k.location_ad = true;
        }
        "Sport Total" => {
            // The §V-D3 outlier sits in the "General" category (Figure 7
            // notes the excluded ~60k data point there).
            plan.category = ChannelCategory::General;
            k.red = ButtonContent::MediaLibrary;
            k.tvping_in_library = true;
            k.outlier_burst = true;
        }
        "n-tv" | "tagesschau24" => {
            plan.category = ChannelCategory::News;
        }
        "Sport1" => {
            plan.category = ChannelCategory::Sports;
        }
        "Tele 5" => {
            plan.category = ChannelCategory::Movies;
        }
        "Sachsen Eins" => {
            plan.category = ChannelCategory::Regional;
        }
        _ => {}
    }
}

/// Selects the ~57 policy-serving channels and wires their part-fetch
/// beacons; sets the 11 shared-template groups.
fn assign_policy_routes(plans: &mut [ChannelPlan], scale: f64) {
    // (name → group) for the template groups.
    let groups: &[(&str, u8)] = &[
        ("Das Erste", 0),
        ("RBB", 0),
        ("MDR", 0),
        ("tagesschau24", 0),
        ("ZDF", 1),
        ("ZDFneo", 1),
        ("ZDFinfo", 1),
        ("ProSieben", 2),
        ("SAT.1", 2),
        ("Kabel Eins", 2),
        ("Kabel Eins Doku", 2),
        ("sixx", 2),
        ("ProSieben MAXX", 2),
        ("SAT.1 Gold", 2),
        ("P7S1 Kanal 8", 2),
        ("Super RTL", 3),
        ("Super RTL Austria", 3),
        ("Toggo Plus", 3),
        ("DMAX", 4),
        ("DMAX Austria", 4),
        ("QVC", 5),
        ("HSE", 5),
        ("ServusTV", 6),
        ("oe24.TV", 6),
        ("MTV", 7),
        ("Comedy Central", 7),
        ("WELT", 8),
        ("N24 Doku", 8),
        ("Kanal 14", 9),
        ("Kanal 15", 9),
        ("Kanal 16", 10),
        ("Kanal 17", 10),
    ];
    // Singleton policies.
    let singles: &[&str] = &[
        "RTL",
        "RTL Zwei",
        "VOX",
        "n-tv",
        "TLC",
        "HGTV",
        "MediaShop",
        "Astro TV",
        "Channel21",
        "Krone.tv",
        "Bibel TV",
        "Sachsen Eins",
        "Sport1",
        "Tele 5",
        "KiKA",
        "Nick",
        "Kanal 18",
        "Kanal 19",
        "Kanal 20",
        "Kanal 21",
        "Kanal 22",
        "Kanal 23",
        "Kanal 24",
        "Kanal 25",
        "Austria TV 4",
    ];
    let group_of: HashMap<&str, u8> = groups.iter().copied().collect();
    let single_set: BTreeSet<&str> = singles.iter().copied().collect();

    let mut route_rank = 0usize;
    for plan in plans.iter_mut() {
        let name = plan.name.as_str();
        let is_route = group_of.contains_key(name) || single_set.contains(name);
        if !is_route {
            continue;
        }
        plan.policy_group = Some(group_of.get(name).copied().unwrap_or(200));
        // Wire the fetch beacons that make the policy show up in the
        // captured traffic of each run (§VII-A per-run counts).
        let rank = route_rank;
        route_rank += 1;
        let k = &mut plan.knobs;
        match rank % 5 {
            0 | 1 => {
                // Yellow readers (the Yellow run found the most
                // policies).
                if k.yellow == ButtonContent::None {
                    k.yellow = ButtonContent::InfoText;
                }
                k.policy_beacon_on.push(ColorButton::Yellow);
                if k.green == ButtonContent::None {
                    k.green = ButtonContent::MediaLibrary;
                }
                k.policy_beacon_on.push(ColorButton::Green);
            }
            2 => {
                k.policy_beacon_autostart = true;
                if k.green == ButtonContent::None {
                    k.green = ButtonContent::MediaLibrary;
                }
                k.policy_beacon_on.push(ColorButton::Green);
            }
            3 => {
                if k.red == ButtonContent::None {
                    k.red = ButtonContent::MediaLibrary;
                }
                k.policy_beacon_on.push(ColorButton::Red);
                if k.yellow == ButtonContent::None {
                    k.yellow = ButtonContent::InfoText;
                }
                k.policy_beacon_on.push(ColorButton::Yellow);
            }
            _ => {
                if k.blue == ButtonContent::None || k.blue == ButtonContent::Utility {
                    k.blue = ButtonContent::Settings;
                }
                k.policy_beacon_on.push(ColorButton::Blue);
                if k.yellow == ButtonContent::None {
                    k.yellow = ButtonContent::InfoText;
                }
                k.policy_beacon_on.push(ColorButton::Yellow);
            }
        }
    }
    // At reduced scale, many named channels do not exist; that is fine —
    // the corpus shrinks proportionally.
    let _ = scale;
}

fn descriptor_for(plan: &ChannelPlan, id: ChannelId) -> ChannelDescriptor {
    let mut d = ChannelDescriptor::tv(id.0, &plan.name, plan.satellite)
        .with_network(plan.network)
        .with_language(plan.language)
        .with_category(plan.category);
    // Some channels carry a secondary category (§V-D4 uses the first).
    if plan.slug.len() % 7 == 2 && plan.category != ChannelCategory::General {
        d.categories.push(ChannelCategory::General);
    }
    d
}

fn program_for(plan: &ChannelPlan) -> ProgramInfo {
    let (show, genre) = match plan.category {
        ChannelCategory::Children => ("Die Abenteuerbande", "Children"),
        ChannelCategory::News => ("Abendnachrichten", "News"),
        ChannelCategory::Sports => ("Fussball Live", "Sports"),
        ChannelCategory::Documentary => ("Wunder der Natur", "Documentary"),
        ChannelCategory::Music => ("Hit Countdown", "Music"),
        ChannelCategory::Shopping => ("Teleshop am Mittag", "Shopping"),
        ChannelCategory::Movies => ("Filmabend", "Movies"),
        ChannelCategory::Regional => ("Regionalmagazin", "Regional"),
        ChannelCategory::Religious => ("Wort zum Tag", "Religious"),
        ChannelCategory::General => ("Grosse Abendshow", "Entertainment"),
    };
    let mut p = ProgramInfo::new(&format!("{show} ({})", plan.name), genre);
    if plan.knobs.location_ad {
        p.brand = Some("L'Oreal".to_string());
    }
    p
}

fn push_nonfinal_services(lineup: &mut ChannelLineup, next_id: &mut u32, scale: f64) {
    let sc = |n: usize| -> usize { (n as f64 * scale).round() as usize };
    let mut push = |descriptor: ChannelDescriptor, ait: Ait| {
        lineup.push(descriptor, ait, BroadcastSchedule::Continuous);
    };
    // 425 radio services.
    for i in 0..sc(425) {
        let id = *next_id;
        *next_id += 1;
        push(
            ChannelDescriptor::radio(id, &format!("Radio {i}"), satellite_for(i)),
            Ait::new(),
        );
    }
    // 1,104 encrypted TV services ("No CI module").
    for i in 0..sc(1104) {
        let id = *next_id;
        *next_id += 1;
        push(
            ChannelDescriptor::tv(id, &format!("Pay TV {i}"), satellite_for(i)).with_encryption(),
            Ait::new(),
        );
    }
    // 897 invisible or unnamed services.
    for i in 0..sc(897) {
        let id = *next_id;
        *next_id += 1;
        let mut d = ChannelDescriptor::tv(id, &format!("Ghost {i}"), satellite_for(i));
        if i % 9 == 0 {
            d.name.clear();
        } else {
            d.invisible = true;
        }
        push(d, Ait::new());
    }
    // 752 silent candidates (no HTTP traffic — empty AIT).
    for i in 0..sc(752) {
        let id = *next_id;
        *next_id += 1;
        push(
            ChannelDescriptor::tv(id, &format!("Testbild {i}"), satellite_for(i)),
            Ait::new(),
        );
    }
    // One IPTV service.
    {
        let id = *next_id;
        *next_id += 1;
        let mut d = ChannelDescriptor::tv(id, "Stream Only TV", Satellite::Astra19E);
        d.iptv = true;
        let mut ait = Ait::new();
        ait.push(
            1,
            AppControlCode::Autostart,
            "http://iptv-only.de/app".parse().expect("valid URL"),
        );
        push(d, ait);
    }
}

/// Per-run off-air sets, calibrated to Table I's channel counts.
fn assign_off_air(
    blueprints: &BTreeMap<ChannelId, ChannelBlueprint>,
    final_ids: &[ChannelId],
    seed: u64,
    scale: f64,
) -> BTreeMap<RunKind, BTreeSet<ChannelId>> {
    let pool: Vec<ChannelId> = final_ids
        .iter()
        .filter(|id| blueprints[id].plan.knobs.limited_schedule)
        .copied()
        .collect();
    // Full-scale off-air counts: 396−374, 396−375, 396−215, 396−309,
    // 396−381.
    let full_off = [
        (RunKind::General, 22usize),
        (RunKind::Red, 21),
        (RunKind::Green, 181),
        (RunKind::Blue, 87),
        (RunKind::Yellow, 15),
    ];
    let mut map = BTreeMap::new();
    for (run, full) in full_off {
        let want = ((full as f64 * scale).round() as usize).min(pool.len());
        let mut shuffled = pool.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ (0xA5A5 + run as u64 * 7919));
        shuffled.shuffle(&mut rng);
        map.insert(run, shuffled.into_iter().take(want).collect());
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`StudyHarness::run_all`](crate::StudyHarness::run_all) borrows
    /// one ecosystem from five run threads at once; compilation of this
    /// test is the guarantee that stays sound.
    #[test]
    fn ecosystem_is_shareable_across_run_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Ecosystem>();
    }

    #[test]
    fn paper_scale_population() {
        let eco = Ecosystem::paper(1);
        assert_eq!(eco.final_channels().len(), 396);
        assert_eq!(eco.lineup().len(), 396 + 425 + 1104 + 897 + 752 + 1);
        assert_eq!(eco.lineup().len(), 3575);
    }

    #[test]
    fn funnel_reproduces_section_iv_b() {
        let eco = Ecosystem::paper(1);
        let (report, finals) = eco.lineup().funnel(|_, ait| ait.signals_hbbtv());
        assert_eq!(report.received, 3575);
        assert_eq!(report.radio, 425);
        assert_eq!(report.tv_channels, 3150);
        assert_eq!(report.free_to_air, 2046);
        assert_eq!(report.candidates, 1149);
        assert_eq!(report.no_traffic, 752);
        assert_eq!(report.iptv, 1);
        assert_eq!(report.final_set, 396);
        assert_eq!(finals.len(), 396);
    }

    #[test]
    fn per_run_channel_counts_match_table_one() {
        let eco = Ecosystem::paper(1);
        let n = eco.final_channels().len();
        let measured: Vec<usize> = RunKind::ALL
            .iter()
            .map(|r| n - eco.off_air(*r).len())
            .collect();
        assert_eq!(measured, vec![374, 375, 215, 309, 381]);
    }

    #[test]
    fn tvping_channel_count_is_near_141() {
        let eco = Ecosystem::paper(1);
        let count = eco
            .blueprints()
            .filter(|b| b.plan.knobs.tvping_autostart || b.plan.knobs.tvping_in_library)
            .count();
        assert!((110..=170).contains(&count), "tvping on {count} channels");
    }

    #[test]
    fn children_channels_are_twelve() {
        let eco = Ecosystem::paper(1);
        let kids = eco
            .blueprints()
            .filter(|b| b.descriptor.targets_children())
            .count();
        assert_eq!(kids, 12);
    }

    #[test]
    fn policy_routes_are_about_57() {
        let eco = Ecosystem::paper(1);
        let routes = eco
            .blueprints()
            .filter(|b| b.policy_profile.is_some())
            .count();
        assert!((50..=60).contains(&routes), "routes = {routes}");
        // Shared-template groups (two or more members).
        let mut group_sizes: HashMap<u8, usize> = HashMap::new();
        for b in eco.blueprints() {
            if let Some(g) = b.plan.policy_group {
                if g != 200 {
                    *group_sizes.entry(g).or_insert(0) += 1;
                }
            }
        }
        let multi = group_sizes.values().filter(|&&c| c >= 2).count();
        assert!((9..=12).contains(&multi), "groups = {multi}");
    }

    #[test]
    fn exactly_one_outlier_burst_channel() {
        let eco = Ecosystem::paper(1);
        let outliers: Vec<&str> = eco
            .blueprints()
            .filter(|b| b.plan.knobs.outlier_burst)
            .map(|b| b.plan.name.as_str())
            .collect();
        assert_eq!(outliers, vec!["Sport Total"]);
    }

    #[test]
    fn sync_channels_are_about_twenty() {
        let eco = Ecosystem::paper(1);
        let n = eco
            .blueprints()
            .filter(|b| b.plan.knobs.sync_button.is_some())
            .count();
        assert!((14..=26).contains(&n), "sync on {n} channels");
    }

    #[test]
    fn policy_texts_serve_the_routes() {
        let eco = Ecosystem::paper(1);
        let with_profile = eco
            .blueprints()
            .find(|b| b.policy_profile.is_some())
            .expect("some channel serves a policy");
        let route = apps_gen::policy_url(
            &HostPlan::for_hub(&with_profile.first_party_host),
            &with_profile.plan.slug,
        );
        let text = eco
            .policy_text(route.host(), route.path())
            .expect("policy text registered");
        assert!(text.contains("Datenschutz") || text.contains("Privacy"));
    }

    #[test]
    fn scaled_world_shrinks() {
        let eco = Ecosystem::with_scale(7, 0.05);
        assert!(eco.final_channels().len() < 60);
        assert!(eco.lineup().len() < 250);
        assert!(!eco.off_air(RunKind::Green).is_empty());
    }

    #[test]
    fn super_rtl_has_window_policy_and_trackers() {
        let eco = Ecosystem::paper(1);
        let srtl = eco
            .blueprints()
            .find(|b| b.plan.name == "Super RTL")
            .unwrap();
        assert_eq!(
            srtl.policy_profile.as_ref().unwrap().profiling_window,
            Some((17, 6))
        );
        assert!(srtl.plan.knobs.tvping_autostart);
        assert!(srtl.descriptor.targets_children());
    }

    #[test]
    fn deterministic_generation() {
        let a = Ecosystem::with_scale(9, 0.05);
        let b = Ecosystem::with_scale(9, 0.05);
        assert_eq!(a.final_channels(), b.final_channels());
        let id = a.final_channels()[0];
        assert_eq!(a.blueprint(id).unwrap().plan, b.blueprint(id).unwrap().plan);
        assert_eq!(a.off_air(RunKind::Blue), b.off_air(RunKind::Blue));
    }
}
