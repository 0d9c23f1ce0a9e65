//! The endpoint table: the one place a request line becomes an endpoint.
//!
//! Every row names a method, a path pattern, the histogram that times
//! the endpoint and the shed tier admission control gives it. Routing,
//! the `405` `Allow` list, the latency histograms and admission all read
//! this table, so they cannot disagree about which endpoint a request
//! names. Empty path segments are ignored, so `/v1/stats/`, `//v1/stats`
//! and `/v1//stats` are all `GET /v1/stats`. Adding an endpoint is one
//! row here and one arm in the gateway's dispatch.

use crate::http::metrics::MetricKey;
use crate::http::overload::EndpointClass;
use crate::manager::SessionId;

/// Every endpoint the gateway serves; [`TABLE`] holds each one's row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Stats,
    ListUniverses,
    CreateSession,
    Restore,
    Delta,
    SessionStatus,
    DeleteSession,
    Question,
    Answers,
    Snapshot,
}

/// `(endpoint, method, path segments, histogram, shed tier)`.
type Row = (
    Endpoint,
    &'static str,
    &'static [&'static str],
    MetricKey,
    EndpointClass,
);

/// Pattern wildcards: `{uid}` matches any segment, `{sid}` an integer.
const UID: &str = "{uid}";
const SID: &str = "{sid}";

/// Indexed by `Endpoint as usize`. Patterns are pre-split so a decode
/// compares segments only against rows of the same length; rows sharing
/// a pattern share a `405`.
#[rustfmt::skip]
const TABLE: [Row; 10] = {
    use Endpoint as E;
    use EndpointClass::{Control, Mutating, ReadOnly};
    use MetricKey as M;
    [
        (E::Stats,         "GET",    &["v1", "stats"],                                       M::Stats,         Control),
        (E::ListUniverses, "GET",    &["v1", "universes"],                                   M::Stats,         ReadOnly),
        (E::CreateSession, "POST",   &["v1", "universes", UID, "sessions"],                  M::CreateSession, Mutating),
        (E::Restore,       "POST",   &["v1", "universes", UID, "restore"],                   M::Restore,       Mutating),
        (E::Delta,         "POST",   &["v1", "universes", UID, "delta"],                     M::Delta,         Mutating),
        (E::SessionStatus, "GET",    &["v1", "universes", UID, "sessions", SID],             M::Session,       ReadOnly),
        (E::DeleteSession, "DELETE", &["v1", "universes", UID, "sessions", SID],             M::Session,       Mutating),
        (E::Question,      "GET",    &["v1", "universes", UID, "sessions", SID, "question"], M::Question,      ReadOnly),
        (E::Answers,       "POST",   &["v1", "universes", UID, "sessions", SID, "answers"],  M::Answers,       Mutating),
        (E::Snapshot,      "GET",    &["v1", "universes", UID, "sessions", SID, "snapshot"], M::Snapshot,      ReadOnly),
    ]
};

/// Segments in the longest pattern; a longer path routes nowhere.
const MAX_SEGMENTS: usize = 6;

/// A decoded request line: the endpoint and its path parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route<'a> {
    /// Which endpoint the request names.
    pub endpoint: Endpoint,
    /// The `{uid}` segment (empty for endpoints without one).
    pub uid: &'a str,
    /// The `{sid}` segment (0 for endpoints without one).
    pub sid: SessionId,
}

/// Why a request line names no endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unrouted {
    /// No pattern matches the path: `404 unknown_route`.
    UnknownRoute,
    /// A pattern matches but `{sid}` is no integer: `404 unknown_session`.
    BadSessionId,
    /// This endpoint's pattern matches but no row on it takes the
    /// method: `405`, with [`Endpoint::allow`] as the `Allow` list.
    WrongMethod(Endpoint),
}

/// Matches `segments` against a pattern, returning the `{uid}` and
/// `{sid}` segments on a match.
fn captures<'a>(pattern: &[&str], segments: &[&'a str]) -> Option<(&'a str, Option<&'a str>)> {
    if pattern.len() != segments.len() {
        return None;
    }
    let (mut uid, mut sid) = ("", None);
    for (&part, &segment) in pattern.iter().zip(segments) {
        match part {
            UID => uid = segment,
            SID => sid = Some(segment),
            literal if literal == segment => {}
            _ => return None,
        }
    }
    Some((uid, sid))
}

impl Endpoint {
    fn row(self) -> &'static Row {
        &TABLE[self as usize]
    }

    /// Every endpoint, in table order.
    #[cfg(test)]
    pub fn all() -> impl Iterator<Item = Endpoint> {
        TABLE.iter().map(|row| row.0)
    }

    /// Decodes a request line without allocating: admission decodes
    /// every request head, and the gateway decodes it again to route.
    pub fn decode<'a>(method: &str, path: &'a str) -> Result<Route<'a>, Unrouted> {
        let mut segments = [""; MAX_SEGMENTS];
        let mut len = 0;
        for segment in path.split('/').filter(|s| !s.is_empty()) {
            *segments.get_mut(len).ok_or(Unrouted::UnknownRoute)? = segment;
            len += 1;
        }
        let mut wrong_method = None;
        for row in &TABLE {
            let Some((uid, sid)) = captures(row.2, &segments[..len]) else {
                continue;
            };
            let sid = sid
                .map_or(Ok(0), str::parse)
                .map_err(|_| Unrouted::BadSessionId)?;
            if row.1 == method {
                return Ok(Route {
                    endpoint: row.0,
                    uid,
                    sid,
                });
            }
            wrong_method.get_or_insert(row.0);
        }
        Err(wrong_method.map_or(Unrouted::UnknownRoute, Unrouted::WrongMethod))
    }

    /// The method this endpoint takes.
    #[cfg(test)]
    pub fn method(self) -> &'static str {
        self.row().1
    }

    /// The path template, e.g. `/v1/universes/{uid}/sessions/{sid}`.
    #[cfg(test)]
    pub fn template(self) -> String {
        format!("/{}", self.row().2.join("/"))
    }

    /// Every method on this endpoint's path pattern, in table order: the
    /// `Allow` list of a `405`.
    pub fn allow(self) -> String {
        let on_pattern = TABLE.iter().filter(|row| row.2 == self.row().2);
        on_pattern.map(|row| row.1).collect::<Vec<_>>().join(", ")
    }

    /// The histogram that times this endpoint; its rolling latency
    /// estimate is what admission control reads for it.
    pub fn metric(self) -> MetricKey {
        self.row().3
    }

    /// The shed tier admission control puts this endpoint in.
    pub fn tier(self) -> EndpointClass {
        self.row().4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_indexed_by_endpoint() {
        for (i, endpoint) in Endpoint::all().enumerate() {
            assert_eq!(endpoint as usize, i, "{endpoint:?} out of order");
        }
        let longest = TABLE.iter().map(|row| row.2.len()).max();
        assert_eq!(longest, Some(MAX_SEGMENTS));
    }

    #[test]
    fn every_endpoint_decodes_allows_times_and_tiers_from_its_row() {
        use EndpointClass::{Control, Mutating, ReadOnly};
        use MetricKey as M;
        let expected = [
            (Endpoint::Stats, "GET", M::Stats, Control),
            (Endpoint::ListUniverses, "GET", M::Stats, ReadOnly),
            (Endpoint::CreateSession, "POST", M::CreateSession, Mutating),
            (Endpoint::Restore, "POST", M::Restore, Mutating),
            (Endpoint::Delta, "POST", M::Delta, Mutating),
            (Endpoint::SessionStatus, "GET, DELETE", M::Session, ReadOnly),
            (Endpoint::DeleteSession, "GET, DELETE", M::Session, Mutating),
            (Endpoint::Question, "GET", M::Question, ReadOnly),
            (Endpoint::Answers, "POST", M::Answers, Mutating),
            (Endpoint::Snapshot, "GET", M::Snapshot, ReadOnly),
        ];
        assert!(Endpoint::all().eq(expected.iter().map(|row| row.0)));
        for (endpoint, allow, metric, tier) in expected {
            let template = endpoint.template();
            let path = template.replace("{uid}", "demo").replace("{sid}", "7");
            let route = Endpoint::decode(endpoint.method(), &path).unwrap();
            assert_eq!(route.endpoint, endpoint, "{path}");
            let uid = if template.contains("{uid}") {
                "demo"
            } else {
                ""
            };
            let sid = if template.contains("{sid}") { 7 } else { 0 };
            assert_eq!((route.uid, route.sid), (uid, sid), "{path}");
            let Err(Unrouted::WrongMethod(wrong)) = Endpoint::decode("PUT", &path) else {
                panic!("PUT {path} must be a 405");
            };
            assert_eq!(wrong.template(), template);
            assert_eq!(
                (wrong.allow().as_str(), endpoint.allow().as_str()),
                (allow, allow)
            );
            assert_eq!(endpoint.metric(), metric);
            // The documented shed order: reads shed past soft, writes
            // past hard, stats never; the read/write split is the method.
            let documented = match endpoint.method() {
                _ if endpoint == Endpoint::Stats => Control,
                "GET" => ReadOnly,
                _ => Mutating,
            };
            assert_eq!(tier, documented, "{path}");
            assert_eq!(endpoint.tier(), tier, "{path}");
        }
    }

    #[test]
    fn every_spelling_of_a_path_is_the_same_endpoint() {
        for path in [
            "/v1/stats",
            "/v1/stats/",
            "//v1/stats",
            "/v1//stats",
            "v1/stats",
        ] {
            let route = Endpoint::decode("GET", path).unwrap();
            assert_eq!(route.endpoint, Endpoint::Stats, "{path}");
        }
        let route = Endpoint::decode("POST", "/v1/universes/u//sessions/3/answers/").unwrap();
        let decoded = (route.endpoint, route.uid, route.sid);
        assert_eq!(decoded, (Endpoint::Answers, "u", 3));
    }

    #[test]
    fn misses_are_typed() {
        let miss = |method, path| Endpoint::decode(method, path).unwrap_err();
        assert_eq!(miss("GET", "/v2/whatever"), Unrouted::UnknownRoute);
        assert_eq!(miss("GET", "/"), Unrouted::UnknownRoute);
        assert_eq!(miss("GET", "/v1/stats/x"), Unrouted::UnknownRoute);
        let too_long = "/v1/universes/u/sessions/1/question/x";
        assert_eq!(miss("GET", too_long), Unrouted::UnknownRoute);
        let bad_sid = "/v1/universes/u/sessions/abc/question";
        assert_eq!(miss("GET", bad_sid), Unrouted::BadSessionId);
        // A bad id is a 404 before the method is looked at.
        assert_eq!(
            miss("PUT", "/v1/universes/u/sessions/abc"),
            Unrouted::BadSessionId
        );
        let create = miss("GET", "/v1/universes/u/sessions");
        assert_eq!(create, Unrouted::WrongMethod(Endpoint::CreateSession));
    }
}
