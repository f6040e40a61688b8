//! Personal-data leakage analysis (§V-B).
//!
//! The paper searches GET/POST request contents for the TV's technical
//! attributes (manufacturer, model, OS, language, local time, IP/MAC)
//! and for behavioral data (show genres, show titles, brands). We apply
//! the same keyword search to the captured traffic.

use crate::dataset::StudyDataset;
use hbbtv_broadcast::ChannelId;
use hbbtv_net::Etld1;
use hbbtv_tv::DeviceProfile;
use std::collections::{BTreeMap, BTreeSet};

/// Genre keywords searched for (the paper used a TV-genre catalog).
pub const GENRE_KEYWORDS: [&str; 10] = [
    "Children",
    "News",
    "Sports",
    "Documentary",
    "Music",
    "Shopping",
    "Movies",
    "Regional",
    "Religious",
    "Entertainment",
];

/// The complete §V-B computation.
#[derive(Debug, Clone)]
pub struct LeakageAnalysis {
    /// Channels sending technical device data (112 / 29% in the paper).
    pub channels_with_technical: BTreeSet<ChannelId>,
    /// Third parties receiving technical data (9).
    pub technical_receivers: BTreeSet<Etld1>,
    /// Channels sending the current show's genre (94).
    pub channels_with_genre: BTreeSet<ChannelId>,
    /// Requests containing personal data such as the watched show
    /// (23,671).
    pub personal_data_requests: usize,
    /// Brand names observed unrelated to the program (the L'Oréal
    /// observation).
    pub brands_observed: BTreeSet<String>,
    /// Per-channel counts of personal-data requests.
    pub per_channel: BTreeMap<ChannelId, usize>,
}

impl LeakageAnalysis {
    /// Runs the keyword search over the dataset.
    pub fn compute(dataset: &StudyDataset) -> Self {
        let device = DeviceProfile::study_tv();
        let technical_tokens: Vec<String> = vec![
            device.manufacturer.clone(),
            device.model.clone(),
            device.os.split(' ').next().unwrap_or("").to_string(),
            device.language.clone(),
            device.ip.clone(),
            device.mac.clone(),
        ];

        let mut channels_with_technical = BTreeSet::new();
        let mut technical_receivers = BTreeSet::new();
        let mut channels_with_genre = BTreeSet::new();
        let mut personal = 0usize;
        let mut brands = BTreeSet::new();
        let mut per_channel: BTreeMap<ChannelId, usize> = BTreeMap::new();

        for c in dataset.all_captures() {
            let text = c.request.searchable_text();
            let has_technical = technical_tokens
                .iter()
                .filter(|t| !t.is_empty())
                .any(|t| text.contains(t.as_str()));
            if has_technical {
                technical_receivers.insert(c.request.url.etld1().clone());
                if let Some(ch) = c.channel {
                    channels_with_technical.insert(ch);
                }
            }
            let has_genre = c.request.url.query_param("genre").is_some()
                || GENRE_KEYWORDS
                    .iter()
                    .any(|g| text.contains(&format!("genre={g}")));
            if has_genre {
                if let Some(ch) = c.channel {
                    channels_with_genre.insert(ch);
                }
            }
            let has_show = c.request.url.query_param("show").is_some();
            if let Some(brand) = c.request.url.query_param("brand") {
                brands.insert(brand.to_string());
            }
            if has_genre || has_show || c.request.url.query_param("brand").is_some() {
                personal += 1;
                if let Some(ch) = c.channel {
                    *per_channel.entry(ch).or_insert(0) += 1;
                }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunKind;
    use crate::{Ecosystem, StudyHarness};

    fn dataset() -> StudyDataset {
        let eco = Ecosystem::with_scale(5, 0.1);
        let harness = StudyHarness::new(&eco);
        StudyDataset {
            runs: vec![harness.run(RunKind::General), harness.run(RunKind::Red)],
        }
    }

    #[test]
    fn technical_data_reaches_few_receivers() {
        let ds = dataset();
        let l = LeakageAnalysis::compute(&ds);
        assert!(!l.channels_with_technical.is_empty());
        assert!(
            l.technical_receivers.len() <= 9,
            "≤9 receivers, got {:?}",
            l.technical_receivers
        );
    }

    #[test]
    fn genre_and_show_leak_in_many_requests() {
        let ds = dataset();
        let l = LeakageAnalysis::compute(&ds);
        assert!(!l.channels_with_genre.is_empty());
        assert!(l.personal_data_requests > 50);
        assert!(!l.per_channel.is_empty());
    }

    #[test]
    fn brand_observation_from_location_ad() {
        let eco = Ecosystem::with_scale(5, 1.0 / 4.0);
        let has_mediashop = eco.blueprints().any(|b| b.plan.name == "MediaShop");
        if !has_mediashop {
            return; // cohort absent at this scale
        }
        let harness = StudyHarness::new(&eco);
        let ds = StudyDataset {
            runs: vec![harness.run(RunKind::Red)],
        };
        let l = LeakageAnalysis::compute(&ds);
        assert!(
            l.brands_observed.iter().any(|b| b.contains("Oreal")),
            "brands: {:?}",
            l.brands_observed
        );
    }
}
