//! The TV's cookie jar and local storage.
//!
//! The study extracted both stores over SSH from the TV's Chromium
//! profile after each run, then wiped them to prevent cross-run
//! contamination. Within a run the state is kept ("runs were stateful to
//! track shared resource access"), so third parties re-encounter their
//! cookies across channels — the basis of the cross-channel-tracking
//! analysis (§V-C2).

use hbbtv_net::{Cookie, CookieKey, Etld1, Etld1Ref, SetCookie, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A cookie at rest, with its expiry and provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredCookie {
    /// The cookie itself.
    pub cookie: Cookie,
    /// Expiry; `None` = session cookie.
    pub expires: Option<Timestamp>,
    /// When the cookie was first set.
    pub created: Timestamp,
    /// When the cookie was last written.
    pub updated: Timestamp,
}

/// The TV's cookie jar, keyed by (domain, name) at eTLD+1 granularity —
/// the resolution at which the paper counts "distinct cookies".
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CookieJar {
    cookies: BTreeMap<CookieKey, StoredCookie>,
}

impl CookieJar {
    /// Creates an empty jar.
    pub fn new() -> Self {
        CookieJar::default()
    }

    /// Applies a `Set-Cookie`, scoping host-only cookies to
    /// `default_domain` (the responding host's eTLD+1). An existing
    /// entry is updated in place: its value, expiry and `updated` change,
    /// `created` stays. Returns the key under which the cookie is stored.
    pub fn apply(
        &mut self,
        sc: SetCookie,
        default_domain: Etld1Ref<'_>,
        now: Timestamp,
    ) -> CookieKey {
        let Cookie {
            name,
            value,
            domain,
        } = sc.cookie;
        let domain = if sc.explicit_domain {
            domain
        } else {
            default_domain.to_owned()
        };
        let key = CookieKey { domain, name };
        if let Some(entry) = self.cookies.get_mut(&key) {
            entry.cookie.value = value;
            entry.expires = sc.expires;
            entry.updated = now;
            return key;
        }
        let cookie = Cookie::new(key.name.clone(), value, key.domain.clone());
        self.cookies.insert(
            key.clone(),
            StoredCookie {
                cookie,
                expires: sc.expires,
                created: now,
                updated: now,
            },
        );
        key
    }

    /// The `Cookie:` header value for a request to `domain` — its live
    /// cookies as `name=value` pairs in name order, joined by `"; "` — or
    /// `None` if the TV holds no live cookies for it.
    pub fn header_for(&self, domain: Etld1Ref<'_>, now: Timestamp) -> Option<String> {
        let live = || {
            self.cookies
                .values()
                .filter(move |sc| sc.cookie.domain == domain && !is_expired(sc, now))
        };
        let len = live()
            .map(|sc| sc.cookie.name.len() + 1 + sc.cookie.value.len())
            .reduce(|len, pair| len + 2 + pair)?;
        let mut header = String::with_capacity(len);
        for sc in live() {
            if !header.is_empty() {
                header.push_str("; ");
            }
            header.push_str(&sc.cookie.name);
            header.push('=');
            header.push_str(&sc.cookie.value);
        }
        Some(header)
    }

    /// The first live cookie value for `domain` (used to fill `uid=`
    /// leak parameters the way real apps echo their tracker's cookie).
    pub fn any_value_for(&self, domain: Etld1Ref<'_>, now: Timestamp) -> Option<&str> {
        self.cookies
            .values()
            .find(|sc| sc.cookie.domain == domain && !is_expired(sc, now))
            .map(|sc| sc.cookie.value.as_str())
    }

    /// All stored cookies (the post-run SSH extraction).
    pub fn all(&self) -> impl Iterator<Item = &StoredCookie> {
        self.cookies.values()
    }

    /// Number of stored cookies.
    pub fn len(&self) -> usize {
        self.cookies.len()
    }

    /// Whether the jar is empty.
    pub fn is_empty(&self) -> bool {
        self.cookies.is_empty()
    }

    /// Wipes the jar (between measurement runs).
    pub fn wipe(&mut self) {
        self.cookies.clear();
    }
}

fn is_expired(sc: &StoredCookie, now: Timestamp) -> bool {
    matches!(sc.expires, Some(e) if e <= now)
}

/// The TV's HTML5 local storage, keyed by origin domain and entry key.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LocalStorage {
    entries: BTreeMap<(Etld1, String), String>,
}

impl LocalStorage {
    /// Creates empty storage.
    pub fn new() -> Self {
        LocalStorage::default()
    }

    /// Sets `key` to `value` for `origin`.
    pub fn set(&mut self, origin: Etld1Ref<'_>, key: &str, value: &str) {
        self.entries
            .insert((origin.to_owned(), key.to_string()), value.to_string());
    }

    /// Reads a value.
    pub fn get(&self, origin: &Etld1, key: &str) -> Option<&str> {
        self.entries
            .get(&(origin.clone(), key.to_string()))
            .map(String::as_str)
    }

    /// All entries as (origin, key, value).
    pub fn all(&self) -> impl Iterator<Item = (&Etld1, &str, &str)> {
        self.entries
            .iter()
            .map(|((o, k), v)| (o, k.as_str(), v.as_str()))
    }

    /// Number of stored objects (Table I's "Local Stor." column).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the storage is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Wipes the storage (between measurement runs).
    pub fn wipe(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Etld1 {
        Etld1::new(s)
    }

    const T0: Timestamp = Timestamp::from_unix(1_700_000_000);
    const T1: Timestamp = Timestamp::from_unix(1_700_000_100);

    #[test]
    fn host_only_cookies_get_default_domain() {
        let mut jar = CookieJar::new();
        let key = jar.apply(SetCookie::session("sid", "x1"), d("zdf.de").view(), T0);
        assert_eq!(key.domain.as_str(), "zdf.de");
        assert_eq!(key.name, "sid");
        let stored = jar.all().next().unwrap();
        assert_eq!(stored.cookie.domain.as_str(), "zdf.de");
        assert_eq!(stored.cookie.key(), key);
        assert_eq!(jar.header_for(d("zdf.de").view(), T0).unwrap(), "sid=x1");
        assert_eq!(jar.header_for(d("ard.de").view(), T0), None);
    }

    #[test]
    fn explicit_domain_wins() {
        let mut jar = CookieJar::new();
        let sc = SetCookie::persistent("uid", "abc", d("xiti.com"), T1);
        jar.apply(sc, d("zdf.de").view(), T0);
        assert!(jar.header_for(d("xiti.com").view(), T0).is_some());
        assert!(jar.header_for(d("zdf.de").view(), T0).is_none());
    }

    #[test]
    fn update_keeps_created_bumps_updated() {
        const T2: Timestamp = Timestamp::from_unix(1_700_000_200);
        let mut jar = CookieJar::new();
        jar.apply(SetCookie::session("a", "1"), d("x.de").view(), T0);
        let key = jar.apply(SetCookie::session("a", "2"), d("x.de").view(), T1);
        let stored = jar.all().next().unwrap();
        assert_eq!(stored.cookie.value, "2");
        assert_eq!(stored.expires, None);
        assert_eq!(stored.created, T0);
        assert_eq!(stored.updated, T1);
        assert_eq!(stored.cookie.key(), key);
        assert_eq!(jar.len(), 1, "same key overwrites");

        // A persistent update of the same cookie overwrites the expiry
        // too, and a later one replaces it again.
        let again = jar.apply(
            SetCookie::persistent("a", "3", d("x.de"), T2),
            d("y.de").view(),
            T1,
        );
        assert_eq!(again, key);
        jar.apply(
            SetCookie::persistent("a", "4", d("x.de"), T2 + hbbtv_net::Duration::from_secs(9)),
            d("y.de").view(),
            T2,
        );
        let stored = jar.all().next().unwrap();
        assert_eq!(jar.len(), 1);
        assert_eq!(stored.cookie, Cookie::new("a", "4", d("x.de")));
        assert_eq!(stored.expires, Some(T2 + hbbtv_net::Duration::from_secs(9)));
        assert_eq!(stored.created, T0);
        assert_eq!(stored.updated, T2);
    }

    #[test]
    fn expired_cookies_are_not_sent() {
        let mut jar = CookieJar::new();
        let sc = SetCookie::persistent("u", "v", d("t.de"), T1);
        jar.apply(sc, d("t.de").view(), T0);
        assert!(jar.header_for(d("t.de").view(), T0).is_some());
        assert!(
            jar.header_for(d("t.de").view(), T1).is_none(),
            "expiry is inclusive"
        );
    }

    #[test]
    fn multiple_cookies_join_with_semicolons() {
        let mut jar = CookieJar::new();
        jar.apply(SetCookie::session("b", "2"), d("x.de").view(), T0);
        jar.apply(
            SetCookie::persistent("c", "3", d("x.de"), T1),
            d("x.de").view(),
            T0,
        );
        jar.apply(SetCookie::session("a", "1"), d("x.de").view(), T0);
        jar.apply(SetCookie::session("z", "9"), d("other.de").view(), T0);
        assert_eq!(
            jar.header_for(d("x.de").view(), T0).unwrap(),
            "a=1; b=2; c=3"
        );
        // At T1 the persistent `c` has expired and is skipped.
        let header = jar.header_for(d("x.de").view(), T1).unwrap();
        assert_eq!(header, "a=1; b=2");
        assert_eq!(header.capacity(), header.len());
        assert_eq!(jar.header_for(d("other.de").view(), T1).unwrap(), "z=9");
    }

    #[test]
    fn any_value_for_returns_live_value() {
        let mut jar = CookieJar::new();
        jar.apply(
            SetCookie::session("uid", "zzz9"),
            d("tvping.com").view(),
            T0,
        );
        assert_eq!(jar.any_value_for(d("tvping.com").view(), T0), Some("zzz9"));
        assert_eq!(jar.any_value_for(d("other.de").view(), T0), None);
        // An expired cookie is skipped in favour of a live one.
        jar.apply(
            SetCookie::persistent("a_old", "gone", d("t.de"), T1),
            d("t.de").view(),
            T0,
        );
        jar.apply(SetCookie::session("b_new", "live"), d("t.de").view(), T0);
        assert_eq!(jar.any_value_for(d("t.de").view(), T0), Some("gone"));
        assert_eq!(jar.any_value_for(d("t.de").view(), T1), Some("live"));
        jar.apply(
            SetCookie::persistent("b_new", "x", d("t.de"), T1),
            d("t.de").view(),
            T0,
        );
        assert_eq!(jar.any_value_for(d("t.de").view(), T1), None);
    }

    #[test]
    fn wipe_clears_everything() {
        let mut jar = CookieJar::new();
        jar.apply(SetCookie::session("a", "1"), d("x.de").view(), T0);
        jar.wipe();
        assert!(jar.is_empty());

        let mut ls = LocalStorage::new();
        ls.set(d("x.de").view(), "k", "v");
        assert_eq!(ls.get(&d("x.de"), "k"), Some("v"));
        assert_eq!(ls.len(), 1);
        ls.wipe();
        assert!(ls.is_empty());
        assert_eq!(ls.get(&d("x.de"), "k"), None);
    }

    #[test]
    fn local_storage_iterates_entries() {
        let mut ls = LocalStorage::new();
        ls.set(d("a.de").view(), "k1", "v1");
        ls.set(d("b.de").view(), "k2", "v2");
        let entries: Vec<_> = ls.all().collect();
        assert_eq!(entries.len(), 2);
    }
}
