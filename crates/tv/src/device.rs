//! The device profile and program metadata.

use hbbtv_apps::LeakItem;
use hbbtv_net::UnixText;
use serde::{Deserialize, Serialize};

/// Static device attributes an application can exfiltrate (§V-B's
/// "technical data").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Manufacturer string.
    pub manufacturer: String,
    /// Model string.
    pub model: String,
    /// OS identification.
    pub os: String,
    /// UI language.
    pub language: String,
    /// Local IP address (behind the hotspot).
    pub ip: String,
    /// Wi-Fi MAC address.
    pub mac: String,
}

impl DeviceProfile {
    /// The study device: LG 43UK6300LLB on webOS 05.40.26.
    pub fn study_tv() -> Self {
        DeviceProfile {
            manufacturer: "LGE".to_string(),
            model: "43UK6300LLB".to_string(),
            os: "WEBOS4.0 05.40.26 W4_LM18A".to_string(),
            language: "German".to_string(),
            ip: "192.168.12.34".to_string(),
            mac: "a8:23:fe:12:34:56".to_string(),
        }
    }
}

impl Default for DeviceProfile {
    fn default() -> Self {
        Self::study_tv()
    }
}

/// What the channel currently airs (from the program guide the webOS API
/// exposes). Feeds the behavioral leak items.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramInfo {
    /// Title of the running show.
    pub show_title: String,
    /// Genre of the running show.
    pub genre: String,
    /// A brand in ad context, if an ad is running.
    pub brand: Option<String>,
}

impl ProgramInfo {
    /// Creates program info.
    pub fn new(show_title: &str, genre: &str) -> Self {
        ProgramInfo {
            show_title: show_title.to_string(),
            genre: genre.to_string(),
            brand: None,
        }
    }
}

impl DeviceProfile {
    /// Resolves the concrete value an application would send for a leak
    /// item, borrowed from the profile, the program, or the request's
    /// `local_time` text. Identifier items (`UserId`, `SessionId`) are
    /// resolved by the runtime from its cookie state, not here.
    pub fn leak_value<'a>(
        &'a self,
        item: LeakItem,
        program: &'a ProgramInfo,
        channel_name: &'a str,
        local_time: &'a UnixText,
    ) -> Option<&'a str> {
        Some(match item {
            LeakItem::Manufacturer => &self.manufacturer,
            LeakItem::Model => &self.model,
            LeakItem::OperatingSystem => &self.os,
            LeakItem::Language => &self.language,
            LeakItem::LocalTime => local_time.as_str(),
            LeakItem::IpAddress => &self.ip,
            LeakItem::MacAddress => &self.mac,
            LeakItem::Genre => &program.genre,
            LeakItem::ShowTitle => &program.show_title,
            LeakItem::ChannelName => channel_name,
            LeakItem::Brand => program.brand.as_deref()?,
            LeakItem::UserId | LeakItem::SessionId => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_tv_matches_the_paper() {
        let d = DeviceProfile::study_tv();
        assert_eq!(d.manufacturer, "LGE");
        assert!(d.model.contains("43UK6300"));
        assert!(d.os.contains("WEBOS4.0"));
        assert_eq!(d.language, "German");
    }

    #[test]
    fn leak_values_resolve() {
        let d = DeviceProfile::study_tv();
        let p = ProgramInfo::new("PAW Patrol", "Children");
        let t = &hbbtv_net::Timestamp::from_unix(1_700_000_000).unix_text();
        assert_eq!(
            d.leak_value(LeakItem::Genre, &p, "KiKA", t).unwrap(),
            "Children"
        );
        assert_eq!(
            d.leak_value(LeakItem::ShowTitle, &p, "KiKA", t).unwrap(),
            "PAW Patrol"
        );
        assert_eq!(
            d.leak_value(LeakItem::ChannelName, &p, "KiKA", t).unwrap(),
            "KiKA"
        );
        assert_eq!(
            d.leak_value(LeakItem::LocalTime, &p, "KiKA", t).unwrap(),
            "1700000000"
        );
        assert_eq!(d.leak_value(LeakItem::Brand, &p, "KiKA", t), None);
        assert_eq!(
            d.leak_value(LeakItem::UserId, &p, "KiKA", t),
            None,
            "runtime-resolved"
        );
    }

    #[test]
    fn brand_resolves_when_ad_runs() {
        let d = DeviceProfile::study_tv();
        let mut p = ProgramInfo::new("Movie", "Movies");
        p.brand = Some("L'Oreal".to_string());
        let t = &hbbtv_net::Timestamp::from_unix(0).unix_text();
        assert_eq!(
            d.leak_value(LeakItem::Brand, &p, "RTL", t).unwrap(),
            "L'Oreal"
        );
    }
}
