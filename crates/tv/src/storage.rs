//! The TV's cookie jar and local storage.
//!
//! The study extracted both stores over SSH from the TV's Chromium
//! profile after each run, then wiped them to prevent cross-run
//! contamination. Within a run the state is kept ("runs were stateful to
//! track shared resource access"), so third parties re-encounter their
//! cookies across channels — the basis of the cross-channel-tracking
//! analysis (§V-C2).

use hbbtv_net::{Cookie, Etld1, Etld1Ref, SetCookie, SetCookieView, Timestamp};
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
/// the resolution at which the paper counts "distinct cookies". Each
/// domain's cookies sit in a map of their own, so a request's `Cookie`
/// header reads only its domain's entries, and a `Set-Cookie` finds its
/// entry by the borrowed domain and name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CookieJar {
    cookies: BTreeMap<Etld1, BTreeMap<String, StoredCookie>>,
}

impl CookieJar {
    /// Creates an empty jar.
    pub fn new() -> Self {
        CookieJar::default()
    }

    /// Applies a `Set-Cookie` read in place, scoping host-only cookies
    /// to `default_domain` (the responding host's eTLD+1). An existing
    /// entry is updated in place: its value, expiry and `updated`
    /// change, `created` stays. Only a new cookie allocates.
    pub fn apply_view(
        &mut self,
        header: SetCookieView<'_>,
        default_domain: Etld1Ref<'_>,
        now: Timestamp,
    ) {
        let attrs = header.attributes();
        let owned;
        let domain = match attrs.domain {
            None => default_domain,
            Some(host) => match Etld1Ref::of_host(host) {
                Some(domain) => domain,
                None => {
                    owned = Etld1::from_host(host);
                    owned.view()
                }
            },
        };
        self.store(domain, header.name, header.value, attrs.expires, now);
    }

    /// Applies a parsed `Set-Cookie`, like [`CookieJar::apply_view`].
    pub fn apply(&mut self, sc: &SetCookie, default_domain: Etld1Ref<'_>, now: Timestamp) {
        let domain = if sc.explicit_domain {
            sc.cookie.domain.view()
        } else {
            default_domain
        };
        self.store(domain, &sc.cookie.name, &sc.cookie.value, sc.expires, now);
    }

    fn store(
        &mut self,
        domain: Etld1Ref<'_>,
        name: &str,
        value: &str,
        expires: Option<Timestamp>,
        now: Timestamp,
    ) {
        if let Some(entry) = self
            .cookies
            .get_mut(domain.as_str())
            .and_then(|names| names.get_mut(name))
        {
            entry.cookie.value.clear();
            entry.cookie.value.push_str(value);
            entry.expires = expires;
            entry.updated = now;
            return;
        }
        if !self.cookies.contains_key(domain.as_str()) {
            self.cookies.insert(domain.to_owned(), BTreeMap::new());
        }
        let names = self
            .cookies
            .get_mut(domain.as_str())
            .expect("inserted above");
        names.insert(
            name.to_string(),
            StoredCookie {
                cookie: Cookie::new(name, value, domain.to_owned()),
                expires,
                created: now,
                updated: now,
            },
        );
    }

    /// The `Cookie:` header a request to `domain` carries — its live
    /// cookies as `name=value` pairs in name order, joined by `"; "` —
    /// or `None` if the TV holds no live cookies for it.
    pub fn cookie_header(&self, domain: Etld1Ref<'_>, now: Timestamp) -> Option<CookieHeader<'_>> {
        let cookies = self.cookies.get(domain.as_str())?;
        let header = CookieHeader {
            cookies,
            now,
            len: 0,
        };
        let len = header
            .live()
            .map(|sc| sc.cookie.name.len() + 1 + sc.cookie.value.len())
            .reduce(|len, pair| len + 2 + pair)?;
        Some(CookieHeader { len, ..header })
    }

    /// The [`CookieJar::cookie_header`] text as a string of its own.
    pub fn header_for(&self, domain: Etld1Ref<'_>, now: Timestamp) -> Option<String> {
        let header = self.cookie_header(domain, now)?;
        let mut text = String::with_capacity(header.text_len());
        header.write(&mut text);
        Some(text)
    }

    /// The first live cookie value for `domain` (used to fill `uid=`
    /// leak parameters the way real apps echo their tracker's cookie).
    pub fn any_value_for(&self, domain: Etld1Ref<'_>, now: Timestamp) -> Option<&str> {
        self.cookies
            .get(domain.as_str())?
            .values()
            .find(|sc| !is_expired(sc, now))
            .map(|sc| sc.cookie.value.as_str())
    }

    /// All stored cookies in (domain, name) order (the post-run SSH
    /// extraction).
    pub fn all(&self) -> impl Iterator<Item = &StoredCookie> {
        self.cookies.values().flat_map(BTreeMap::values)
    }

    /// Moves every stored cookie out in (domain, name) order, leaving
    /// the jar empty.
    pub fn take_all(&mut self) -> Vec<StoredCookie> {
        std::mem::take(&mut self.cookies)
            .into_values()
            .flat_map(BTreeMap::into_values)
            .collect()
    }

    /// Number of stored cookies.
    pub fn len(&self) -> usize {
        self.cookies.values().map(BTreeMap::len).sum()
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

/// A request's `Cookie` header value, read from the jar as it is
/// written: [`CookieHeader::text_len`] sizes the header buffer, and
/// [`CookieHeader::write`] fills it without building the value first.
#[derive(Debug, Clone, Copy)]
pub struct CookieHeader<'a> {
    cookies: &'a BTreeMap<String, StoredCookie>,
    now: Timestamp,
    len: usize,
}

impl<'a> CookieHeader<'a> {
    fn live(self) -> impl Iterator<Item = &'a StoredCookie> {
        self.cookies
            .values()
            .filter(move |sc| !is_expired(sc, self.now))
    }

    /// The length of the header value.
    pub fn text_len(&self) -> usize {
        self.len
    }

    /// Appends the header value to `out`.
    pub fn write(&self, out: &mut String) {
        for (i, sc) in self.live().enumerate() {
            if i > 0 {
                out.push_str("; ");
            }
            out.push_str(&sc.cookie.name);
            out.push('=');
            out.push_str(&sc.cookie.value);
        }
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
        jar.apply(&SetCookie::session("sid", "x1"), d("zdf.de").view(), T0);
        let stored = jar.all().next().unwrap();
        assert_eq!(stored.cookie, Cookie::new("sid", "x1", d("zdf.de")));
        assert_eq!(jar.header_for(d("zdf.de").view(), T0).unwrap(), "sid=x1");
        assert_eq!(jar.header_for(d("ard.de").view(), T0), None);
    }

    #[test]
    fn explicit_domain_wins() {
        let mut jar = CookieJar::new();
        let sc = SetCookie::persistent("uid", "abc", d("xiti.com"), T1);
        jar.apply(&sc, d("zdf.de").view(), T0);
        assert!(jar.header_for(d("xiti.com").view(), T0).is_some());
        assert!(jar.header_for(d("zdf.de").view(), T0).is_none());
        // Read in place, the `Domain` host is scoped to its eTLD+1.
        let view = SetCookieView::parse("v=1; Domain=.an.XITI.com").unwrap();
        jar.apply_view(view, d("zdf.de").view(), T0);
        assert_eq!(
            jar.header_for(d("xiti.com").view(), T0).unwrap(),
            "uid=abc; v=1"
        );
    }

    #[test]
    fn update_keeps_created_bumps_updated() {
        const T2: Timestamp = Timestamp::from_unix(1_700_000_200);
        let mut jar = CookieJar::new();
        jar.apply(&SetCookie::session("a", "1"), d("x.de").view(), T0);
        jar.apply(&SetCookie::session("a", "2"), d("x.de").view(), T1);
        let stored = jar.all().next().unwrap();
        assert_eq!(stored.cookie.value, "2");
        assert_eq!(stored.expires, None);
        assert_eq!(stored.created, T0);
        assert_eq!(stored.updated, T1);
        assert_eq!(jar.len(), 1, "same key overwrites");

        // A persistent update of the same cookie overwrites the expiry
        // too, and a later one replaces it again.
        jar.apply(
            &SetCookie::persistent("a", "3", d("x.de"), T2),
            d("y.de").view(),
            T1,
        );
        assert_eq!(jar.len(), 1);
        let view = SetCookieView::parse("a=4; Domain=x.de; Expires=1700000209").unwrap();
        jar.apply_view(view, d("y.de").view(), T2);
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
        jar.apply(&sc, d("t.de").view(), T0);
        assert!(jar.header_for(d("t.de").view(), T0).is_some());
        assert!(
            jar.header_for(d("t.de").view(), T1).is_none(),
            "expiry is inclusive"
        );
    }

    #[test]
    fn multiple_cookies_join_with_semicolons() {
        let mut jar = CookieJar::new();
        jar.apply(&SetCookie::session("b", "2"), d("x.de").view(), T0);
        jar.apply(
            &SetCookie::persistent("c", "3", d("x.de"), T1),
            d("x.de").view(),
            T0,
        );
        jar.apply(&SetCookie::session("a", "1"), d("x.de").view(), T0);
        jar.apply(&SetCookie::session("z", "9"), d("other.de").view(), T0);
        assert_eq!(
            jar.header_for(d("x.de").view(), T0).unwrap(),
            "a=1; b=2; c=3"
        );
        // At T1 the persistent `c` has expired and is skipped.
        let header = jar.header_for(d("x.de").view(), T1).unwrap();
        assert_eq!(header, "a=1; b=2");
        assert_eq!(header.capacity(), header.len());
        assert_eq!(jar.header_for(d("other.de").view(), T1).unwrap(), "z=9");
        let taken = jar.take_all();
        let keys: Vec<String> = taken.iter().map(|sc| sc.cookie.key().to_string()).collect();
        assert_eq!(keys, ["other.de/z", "x.de/a", "x.de/b", "x.de/c"]);
        assert!(jar.is_empty());
    }

    #[test]
    fn any_value_for_returns_live_value() {
        let mut jar = CookieJar::new();
        jar.apply(
            &SetCookie::session("uid", "zzz9"),
            d("tvping.com").view(),
            T0,
        );
        assert_eq!(jar.any_value_for(d("tvping.com").view(), T0), Some("zzz9"));
        assert_eq!(jar.any_value_for(d("other.de").view(), T0), None);
        // An expired cookie is skipped in favour of a live one.
        jar.apply(
            &SetCookie::persistent("a_old", "gone", d("t.de"), T1),
            d("t.de").view(),
            T0,
        );
        jar.apply(&SetCookie::session("b_new", "live"), d("t.de").view(), T0);
        assert_eq!(jar.any_value_for(d("t.de").view(), T0), Some("gone"));
        assert_eq!(jar.any_value_for(d("t.de").view(), T1), Some("live"));
        jar.apply(
            &SetCookie::persistent("b_new", "x", d("t.de"), T1),
            d("t.de").view(),
            T0,
        );
        assert_eq!(jar.any_value_for(d("t.de").view(), T1), None);
    }

    #[test]
    fn wipe_clears_everything() {
        let mut jar = CookieJar::new();
        jar.apply(&SetCookie::session("a", "1"), d("x.de").view(), T0);
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
