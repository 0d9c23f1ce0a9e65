//! The JSON gateway: routes HTTP requests to [`SessionManager`] calls.
//!
//! The gateway is a [`jqi_net::Handler`]: pure request → response, no
//! sockets, no threads — the transport crate owns those. Routing is a
//! match over the endpoint the request line decodes to in the endpoint
//! table (`endpoint.rs`); bodies are parsed with the same vendored
//! [`crate::json`] reader the snapshot format uses. Every failure mode
//! maps to one JSON error shape,
//!
//! ```json
//! {"error": {"code": "…", "message": "…"}}
//! ```
//!
//! with `universe_mismatch` additionally carrying the `expected`/`found`
//! fingerprints as hex strings — the loud cross-universe rejection the
//! durability tier insists on, surfaced over the wire. The full
//! endpoint-by-endpoint contract lives in `docs/API.md`.

use crate::http::endpoint::{Endpoint, Route, Unrouted};
use crate::http::metrics::{GatewayMetrics, LatencyHistogram};
use crate::http::overload::{EndpointClass, OverloadConfig};
use crate::http::registry::{valid_universe_id, UniverseEntry, UniverseRegistry};
use crate::json::Json;
use crate::manager::{
    ManagerStats, ServerError, SessionId, SessionManager, SessionOp, SessionOutcome,
};
use crate::snapshot::SessionSnapshot;
use jqi_core::{Candidate, ClassId, Label, StrategyConfig, UniverseDelta};
use jqi_net::{NetStats, Request, Response, StatsHandle};
use jqi_relation::{Side, Tuple, Value};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Largest accepted `answers` array in one batch. Batches beyond it are
/// refused with `413 batch_too_large` before any answer is applied.
pub const MAX_ANSWER_BATCH: usize = 4096;

/// The HTTP/JSON front end over a [`UniverseRegistry`].
pub struct Gateway {
    registry: Arc<UniverseRegistry>,
    metrics: Arc<GatewayMetrics>,
    overload: OverloadConfig,
    /// Live transport counters, attached once the server is bound (the
    /// gateway is constructed first); `GET /v1/stats` serves them.
    transport: OnceLock<StatsHandle>,
}

impl Gateway {
    /// Wraps a registry. The returned gateway is ready to be passed to
    /// [`jqi_net::Server::bind`] (via [`crate::http::serve`]).
    pub fn new(registry: Arc<UniverseRegistry>) -> Gateway {
        Gateway::with_overload(registry, OverloadConfig::default())
    }

    /// [`Gateway::new`] with explicit admission-control thresholds.
    pub fn with_overload(registry: Arc<UniverseRegistry>, overload: OverloadConfig) -> Gateway {
        Gateway {
            registry,
            metrics: Arc::default(),
            overload,
            transport: OnceLock::new(),
        }
    }

    /// The registry this gateway routes into.
    pub fn registry(&self) -> &Arc<UniverseRegistry> {
        &self.registry
    }

    /// The live per-endpoint latency histograms (also served under
    /// `"endpoints"` in `GET /v1/stats`).
    pub fn metrics(&self) -> &Arc<GatewayMetrics> {
        &self.metrics
    }

    /// Attaches the bound server's live transport counters so
    /// `GET /v1/stats` can serve them. Later calls are no-ops.
    pub fn attach_transport(&self, handle: StatsHandle) {
        let _ = self.transport.set(handle);
    }

    /// Dispatches on the endpoint the request line decodes to.
    fn route(&self, request: &Request) -> Response {
        let Route { endpoint, uid, sid } = match Endpoint::decode(&request.method, &request.path) {
            Ok(route) => route,
            Err(unrouted) => return unrouted_response(unrouted, &request.path),
        };
        let histogram = self.metrics.get(endpoint.metric());
        let serve = |f: &dyn Fn(&SessionManager) -> Result<Response, Response>| {
            self.with_universe(uid, histogram, f)
        };
        match endpoint {
            Endpoint::Stats => timed(histogram, || self.stats()),
            Endpoint::ListUniverses => timed(histogram, || self.list_universes()),
            Endpoint::CreateSession => serve(&|m| create_session(m, request)),
            Endpoint::Restore => serve(&|m| restore(m, request)),
            Endpoint::Delta => serve(&|m| apply_delta(m, request)),
            Endpoint::SessionStatus => serve(&|m| session_status(m, sid)),
            Endpoint::DeleteSession => serve(&|m| delete_session(m, sid, request)),
            Endpoint::Question => serve(&|m| question(m, sid)),
            Endpoint::Answers => serve(&|m| answers(m, sid, request)),
            Endpoint::Snapshot => serve(&|m| {
                let snap = m.snapshot(sid).map_err(server_error)?;
                Ok(Response::json(200, snap.to_json_string()))
            }),
        }
    }

    /// Resolves `uid`, times the handler, and maps resolution failures
    /// to the documented statuses: unknown id → `404 unknown_universe`,
    /// failed recovery → `503 universe_failed` (with the preserved
    /// recovery error — a WAL fingerprint mismatch surfaces here).
    fn with_universe(
        &self,
        uid: &str,
        histogram: &LatencyHistogram,
        f: impl FnOnce(&SessionManager) -> Result<Response, Response>,
    ) -> Response {
        if !valid_universe_id(uid) {
            return error(404, "unknown_universe", "invalid universe id");
        }
        match self.registry.lookup(uid) {
            None => error(404, "unknown_universe", &format!("no universe {uid:?}")),
            Some(UniverseEntry::Failed { error: cause }) => {
                // Recovery may be re-attempted by an operator at any
                // time; tell well-behaved clients when to look again.
                let message = format!("universe {uid:?} failed recovery: {cause}");
                let mut response = error(503, "universe_failed", &message);
                response.headers.push(("retry-after".into(), "5".into()));
                response
            }
            Some(UniverseEntry::Serving(manager)) => timed(histogram, || f(&manager)),
        }
    }

    fn list_universes(&self) -> Result<Response, Response> {
        let universes =
            self.universes_json(|m| ("sessions".into(), Json::num(m.session_count() as f64)));
        Ok(ok(Json::Obj(vec![("universes".into(), universes)])))
    }

    /// One entry per registered universe: its status, plus its
    /// fingerprint and the `detail` field while it serves, or the
    /// recovery error once it failed.
    fn universes_json(&self, detail: impl Fn(&SessionManager) -> (String, Json)) -> Json {
        let universes = self
            .registry
            .uids()
            .into_iter()
            .filter_map(|uid| self.registry.lookup(&uid).map(|e| (uid, e)))
            .map(|(uid, entry)| {
                let value = match entry {
                    UniverseEntry::Serving(m) => {
                        let fingerprint = format!("{:016x}", m.universe_fingerprint());
                        Json::Obj(vec![
                            ("status".into(), Json::str("serving")),
                            ("fingerprint".into(), Json::str(fingerprint)),
                            detail(&m),
                        ])
                    }
                    UniverseEntry::Failed { error } => Json::Obj(vec![
                        ("status".into(), Json::str("failed")),
                        ("error".into(), Json::str(error)),
                    ]),
                };
                (uid, value)
            })
            .collect();
        Json::Obj(universes)
    }

    /// The `"transport"` block for `GET /v1/stats` — [`NetStats`] as
    /// JSON, or `Null` before a server is attached.
    fn transport_json(&self) -> Json {
        let Some(handle) = self.transport.get() else {
            return Json::Null;
        };
        let s: NetStats = handle.snapshot();
        Json::Obj(vec![
            count("accepted", s.accepted as f64),
            count("rejected", s.rejected as f64),
            count("open_connections", s.open_connections as f64),
            count("requests", s.requests as f64),
            count("protocol_errors", s.protocol_errors as f64),
            count("handler_panics", s.handler_panics as f64),
            count("idle_timeouts", s.idle_timeouts as f64),
            count("peer_resets", s.peer_resets as f64),
            count("shed", s.shed as f64),
            count("deadlines_exceeded", s.deadlines_exceeded as f64),
            count("queue_depth", s.queue_depth as f64),
        ])
    }

    fn stats(&self) -> Result<Response, Response> {
        let universes = self.universes_json(|m| ("stats".into(), manager_stats_json(&m.stats())));
        Ok(ok(Json::Obj(vec![
            ("universes".into(), universes),
            ("endpoints".into(), self.metrics.to_json()),
            ("transport".into(), self.transport_json()),
        ])))
    }
}

impl jqi_net::Handler for Gateway {
    fn handle(&self, request: &Request) -> Response {
        self.route(request)
    }

    /// Admission control: the transport asks on the framed request head,
    /// before the body transfer happens. Policy lives in
    /// [`OverloadConfig::admit`]; the tier and the rolling latency
    /// estimate come from the endpoint the head decodes to. A head that
    /// decodes to no endpoint sheds as a read: it only earns a 404/405.
    fn admit(
        &self,
        head: &jqi_net::RequestHead,
        pressure: jqi_net::Pressure,
    ) -> jqi_net::Admission {
        let (tier, ewma_us) = match Endpoint::decode(&head.method, &head.path) {
            Ok(Route { endpoint: e, .. }) => (e.tier(), self.metrics.get(e.metric()).ewma_us()),
            Err(_) => (EndpointClass::ReadOnly, 0),
        };
        self.overload.admit(tier, pressure, ewma_us)
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("universes", &self.registry.uids())
            .finish()
    }
}

// ── endpoint bodies ────────────────────────────────────────────────────

/// The last deadline check before mutating work: once the manager runs,
/// the WAL append happens, and an append must never be orphaned by a
/// client that already gave up. Cheap reads skip this — the transport
/// already rejected requests that arrived expired.
fn deadline_guard(request: &Request) -> Result<(), Response> {
    if request.expired() {
        return Err(error(
            504,
            "deadline_exceeded",
            "client deadline lapsed before the mutation was applied; nothing was appended",
        ));
    }
    Ok(())
}

fn create_session(manager: &SessionManager, request: &Request) -> Result<Response, Response> {
    let doc = parse_body(request)?;
    let strategy: StrategyConfig = doc
        .get("strategy")
        .and_then(Json::as_str)
        .ok_or_else(|| {
            bad_request(
                "body must be {\"strategy\": \"LKS:2\" | \"BU\" | \"TD\" | \"EG\" | \"OPT\" | \"RND:<seed>\"}",
            )
        })?
        .parse()
        .map_err(|e: String| error(400, "bad_strategy", &e))?;
    deadline_guard(request)?;
    let (id, fingerprint) = manager
        .create_session_stamped(strategy.clone())
        .map_err(server_error)?;
    let fields = vec![
        count("session", id as f64),
        ("strategy".into(), Json::str(strategy.to_string())),
        ("universe".into(), Json::str(format!("{fingerprint:016x}"))),
    ];
    Ok(ok_with(201, Json::Obj(fields)))
}

fn delete_session(
    manager: &SessionManager,
    sid: SessionId,
    request: &Request,
) -> Result<Response, Response> {
    deadline_guard(request)?;
    manager.remove(sid).map_err(server_error)?;
    Ok(Response {
        status: 204,
        headers: vec![],
        body: vec![],
        close: false,
    })
}

fn question(manager: &SessionManager, sid: SessionId) -> Result<Response, Response> {
    let outcome = manager
        .serve(sid, SessionOp::Question)
        .map_err(server_error)?;
    let mut fields = vec![count("session", sid as f64)];
    match &outcome.question {
        Some((candidate, values)) => {
            fields.push(("question".into(), candidate_json(candidate, values)));
            fields.push(("done".into(), Json::Bool(false)));
        }
        None => {
            fields.push(("question".into(), Json::Null));
            fields.push(("done".into(), Json::Bool(true)));
            fields.push(("predicate".into(), predicate_json(&outcome)));
        }
    }
    fields.push(count("interactions", outcome.interactions as f64));
    fields.push(count("epoch", outcome.epoch as f64));
    Ok(ok(Json::Obj(fields)))
}

fn answers(
    manager: &SessionManager,
    sid: SessionId,
    request: &Request,
) -> Result<Response, Response> {
    let doc = parse_body(request)?;
    let items = doc.get("answers").and_then(Json::as_arr).ok_or_else(|| {
        bad_request("body must be {\"answers\": [{\"class\": <id>, \"label\": \"+\" | \"-\"}, …]}")
    })?;
    let n = items.len();
    if n > MAX_ANSWER_BATCH {
        let message = format!("batch of {n} answers exceeds the limit of {MAX_ANSWER_BATCH}");
        return Err(error(413, "batch_too_large", &message));
    }
    let mut batch: Vec<(ClassId, Label)> = Vec::with_capacity(n);
    for item in items {
        let class = item
            .get("class")
            .and_then(Json::as_num)
            .filter(|n| n.fract() == 0.0 && (0.0..=9e15).contains(n))
            .ok_or_else(|| bad_request("each answer needs an integer \"class\""))?
            as ClassId;
        let label = match item.get("label").and_then(Json::as_str) {
            Some("+") => Label::Positive,
            Some("-") => Label::Negative,
            _ => {
                return Err(bad_request(
                    "each answer needs a \"label\" of \"+\" or \"-\"",
                ))
            }
        };
        batch.push((class, label));
    }
    let epoch = match doc.get("epoch") {
        None => None,
        Some(epoch) => Some(
            epoch
                .as_num()
                .filter(|n| n.fract() == 0.0 && (0.0..=9e15).contains(n))
                .ok_or_else(|| bad_request("\"epoch\" must be a non-negative integer"))?
                as u64,
        ),
    };
    deadline_guard(request)?;
    let op = SessionOp::Answers {
        answers: &batch,
        epoch,
    };
    let outcome = manager.serve(sid, op).map_err(server_error)?;
    Ok(ok(Json::Obj(vec![
        count("session", sid as f64),
        count("applied", outcome.applied as f64),
        count("interactions", outcome.interactions as f64),
        ("done".into(), Json::Bool(outcome.done)),
    ])))
}

fn session_status(manager: &SessionManager, sid: SessionId) -> Result<Response, Response> {
    let outcome = manager
        .serve(sid, SessionOp::Status)
        .map_err(server_error)?;
    Ok(ok(Json::Obj(vec![
        count("session", sid as f64),
        count("interactions", outcome.interactions as f64),
        ("done".into(), Json::Bool(outcome.done)),
        ("predicate".into(), predicate_json(&outcome)),
    ])))
}

fn restore(manager: &SessionManager, request: &Request) -> Result<Response, Response> {
    let body = std::str::from_utf8(&request.body)
        .map_err(|_| bad_request("snapshot body is not UTF-8"))?;
    let snapshot =
        SessionSnapshot::from_json(body).map_err(|e| error(400, "bad_snapshot", &e.to_string()))?;
    deadline_guard(request)?;
    let id = manager.restore(&snapshot).map_err(server_error)?;
    let interactions = snapshot.history.len() as f64;
    let fields = vec![
        count("session", id as f64),
        count("interactions", interactions),
    ];
    Ok(ok_with(201, Json::Obj(fields)))
}

/// Parses one JSON row — an array of ints and strings — into a [`Tuple`]
/// interned against the serving universe's (shared, append-only)
/// interner. Arity is *not* checked here; [`jqi_core::Universe::apply_delta`]
/// validates it against the schema and the rejection comes back as
/// `400 bad_delta`.
fn parse_row(
    interner: &jqi_relation::Interner,
    key: &str,
    index: usize,
    row: &Json,
) -> Result<Tuple, Response> {
    let cells = row
        .as_arr()
        .ok_or_else(|| bad_request(&format!("{key}[{index}] must be an array of row values")))?;
    let mut values = Vec::with_capacity(cells.len());
    for cell in cells {
        values.push(match cell {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 9e15 => Value::int(*n as i64),
            Json::Str(s) => Value::str(s.as_str()),
            _ => {
                let message = format!("{key}[{index}] values must be integers or strings");
                return Err(bad_request(&message));
            }
        });
    }
    Ok(Tuple::intern(interner, &values))
}

fn apply_delta(manager: &SessionManager, request: &Request) -> Result<Response, Response> {
    let doc = parse_body(request)?;
    let mut delta = UniverseDelta::new();
    {
        // The rows are interned through the serving universe, whose
        // handle is dropped with the parse: held any longer, it would keep
        // the pre-delta universe alive past `SessionManager::apply_delta`.
        let universe = manager.universe();
        let interner = universe.instance().interner();
        for (key, side, is_delete) in [
            ("insert_r", Side::R, false),
            ("delete_r", Side::R, true),
            ("insert_p", Side::P, false),
            ("delete_p", Side::P, true),
        ] {
            let Some(block) = doc.get(key) else { continue };
            let rows = block
                .as_arr()
                .ok_or_else(|| bad_request(&format!("{key} must be an array of rows")))?;
            for (index, row) in rows.iter().enumerate() {
                let tuple = parse_row(interner, key, index, row)?;
                if is_delete {
                    delta.delete(side, tuple);
                } else {
                    delta.insert(side, tuple);
                }
            }
        }
    }
    if delta.is_empty() {
        return Err(bad_request(
            "delta has no edits; provide at least one of \
             insert_r, delete_r, insert_p, delete_p",
        ));
    }
    deadline_guard(request)?;
    // Built from the report alone: a second delta may already have
    // replaced the universe this one produced.
    let report = manager.apply_delta(&delta).map_err(server_error)?;
    let universe = Json::str(format!("{:016x}", report.to_fingerprint));
    let invalidated = report.invalidated.iter().map(|&id| Json::num(id as f64));
    Ok(ok(Json::Obj(vec![
        count("epoch", report.to_epoch as f64),
        ("universe".into(), universe),
        count("edits", delta.len() as f64),
        count("sessions", report.sessions as f64),
        count("carried", report.carried as f64),
        count("replayed", report.replayed as f64),
        count("dropped_labels", report.dropped_labels as f64),
        ("invalidated".into(), Json::Arr(invalidated.collect())),
    ])))
}

// ── shared plumbing ────────────────────────────────────────────────────

fn candidate_json(candidate: &Candidate, values: &[Value]) -> Json {
    let (r, p) = candidate.tuple;
    let tuple = Json::Arr(vec![Json::num(r as f64), Json::num(p as f64)]);
    let values = Json::Arr(values.iter().map(|v| Json::str(v.to_string())).collect());
    Json::Obj(vec![
        count("class", candidate.class as f64),
        ("tuple".into(), tuple),
        ("values".into(), values),
    ])
}

/// The outcome's predicate string, or `null` while inference is running.
fn predicate_json(outcome: &SessionOutcome) -> Json {
    outcome.predicate.clone().map_or(Json::Null, Json::Str)
}

fn parse_body(request: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&request.body).map_err(|_| bad_request("body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(bad_request("a JSON body is required"));
    }
    Json::parse(text).map_err(|e| error(400, "bad_json", &e.to_string()))
}

/// Runs a handler under `histogram`, answering its error as its response.
fn timed(histogram: &LatencyHistogram, f: impl FnOnce() -> Result<Response, Response>) -> Response {
    let start = Instant::now();
    let response = f().unwrap_or_else(|e| e);
    histogram.record(start.elapsed());
    response
}

fn ok(body: Json) -> Response {
    ok_with(200, body)
}

fn ok_with(status: u16, body: Json) -> Response {
    Response::json(status, body.to_string_pretty() + "\n")
}

/// The single error shape every gateway failure uses. `extra` fields are
/// spliced into the `"error"` object after `code`/`message`.
fn error_with(status: u16, code: &str, message: &str, extra: Vec<(String, Json)>) -> Response {
    let mut fields = vec![
        ("code".into(), Json::str(code)),
        ("message".into(), Json::str(message)),
    ];
    fields.extend(extra);
    Response::json(
        status,
        Json::Obj(vec![("error".into(), Json::Obj(fields))]).to_string_pretty() + "\n",
    )
}

fn error(status: u16, code: &str, message: &str) -> Response {
    error_with(status, code, message, vec![])
}

fn bad_request(message: &str) -> Response {
    error(400, "bad_request", message)
}

/// The `404`/`405` for a request line that names no endpoint.
fn unrouted_response(unrouted: Unrouted, path: &str) -> Response {
    match unrouted {
        Unrouted::UnknownRoute => error(404, "unknown_route", &format!("no route for {path:?}")),
        Unrouted::BadSessionId => error(404, "unknown_session", "session ids are integers"),
        Unrouted::WrongMethod(endpoint) => {
            let allow = endpoint.allow();
            let message = format!("this route accepts: {allow}");
            let mut response = error(405, "method_not_allowed", &message);
            response.headers.push(("allow".into(), allow));
            response
        }
    }
}

/// Maps [`ServerError`] onto the HTTP error contract (see `docs/API.md`).
fn server_error(e: ServerError) -> Response {
    match &e {
        ServerError::UnknownSession(_) => error(404, "unknown_session", &e.to_string()),
        ServerError::SessionExists(_) => error(409, "session_exists", &e.to_string()),
        ServerError::UniverseMismatch { expected, found } => error_with(
            409,
            "universe_mismatch",
            &e.to_string(),
            vec![
                ("expected".into(), Json::str(format!("{expected:016x}"))),
                ("found".into(), Json::str(format!("{found:016x}"))),
            ],
        ),
        ServerError::Inference(_) => error(400, "inference_error", &e.to_string()),
        ServerError::Durability(_) => error(500, "durability_error", &e.to_string()),
        ServerError::Delta(_) => error(400, "bad_delta", &e.to_string()),
        ServerError::StaleEpoch { .. } => error(409, "stale_epoch", &e.to_string()),
    }
}

/// A named number as a JSON object field.
fn count(name: &str, n: f64) -> (String, Json) {
    (name.to_string(), Json::Num(n))
}

/// Serializes [`ManagerStats`] (plus its nested decision-cache and
/// durability blocks) for `GET /v1/stats`.
pub fn manager_stats_json(stats: &ManagerStats) -> Json {
    let c = &stats.decision_cache;
    let cache = Json::Obj(vec![
        count("hits", c.hits as f64),
        count("misses", c.misses as f64),
        count("evictions", c.evictions as f64),
        count("entries", c.entries as f64),
        count("bytes", c.bytes as f64),
        count("budget_bytes", c.budget_bytes as f64),
    ]);
    let durability = stats.durability.as_ref().map_or(Json::Null, |d| {
        Json::Obj(vec![
            count("wal_records", d.wal_records as f64),
            count("wal_syncs", d.wal_syncs as f64),
            count("wal_appended_bytes", d.wal_appended_bytes as f64),
            count("spill_entries", d.spill_entries as f64),
            count("spill_bytes_written", d.spill_bytes_written as f64),
            count("spill_reads", d.spill_reads as f64),
        ])
    });
    Json::Obj(vec![
        count("sessions", stats.sessions as f64),
        count("resident_sessions", stats.resident_sessions as f64),
        count("hibernated_sessions", stats.hibernated_sessions as f64),
        count("spilled_sessions", stats.spilled_sessions as f64),
        count("state_bytes", stats.state_bytes as f64),
        count("resident_bytes", stats.resident_bytes as f64),
        count("history_bytes", stats.history_bytes as f64),
        count("hibernated_bytes", stats.hibernated_bytes as f64),
        count("spilled_bytes", stats.spilled_bytes as f64),
        ("decision_cache".into(), cache),
        ("durability".into(), durability),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::metrics::MetricKey;
    use crate::ServerConfig;
    use jqi_core::{paper::flight_hotel, Universe};
    use jqi_net::{Admission, Handler, Pressure, RequestHead};
    use std::time::Duration;

    /// A gateway over universe `demo` (flight/hotel, in memory).
    fn demo() -> (Gateway, Arc<SessionManager>) {
        let universe = Arc::new(Universe::build(flight_hotel()));
        let manager = Arc::new(SessionManager::new(universe, ServerConfig::default()));
        let registry = Arc::new(UniverseRegistry::new());
        registry.register("demo", Arc::clone(&manager)).unwrap();
        (Gateway::new(registry), manager)
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
            close: false,
            deadline: None,
        }
    }

    #[test]
    fn stats_is_admitted_and_served_under_every_spelling() {
        let (gateway, _) = demo();
        // Far past both hard thresholds: depth and the stats EWMA.
        let drowning = Pressure {
            queue_depth: 1_000,
            open_connections: 1_000,
            workers: 8,
        };
        gateway
            .metrics
            .get(MetricKey::Stats)
            .record(Duration::from_secs(10));
        for path in ["/v1/stats", "/v1/stats/", "//v1/stats", "/v1//stats"] {
            let head = RequestHead::synthetic("GET", path);
            assert_eq!(gateway.admit(&head, drowning), Admission::Accept, "{path}");
            assert_eq!(
                gateway.handle(&request("GET", path, "")).status,
                200,
                "{path}"
            );
        }
        // The read tier does shed there, so the pressure is real.
        let listing = RequestHead::synthetic("GET", "/v1/universes");
        assert_ne!(gateway.admit(&listing, drowning), Admission::Accept);
    }

    #[test]
    fn unroutable_requests_shed_at_the_read_only_tier() {
        let (gateway, _) = demo();
        let config = OverloadConfig::default();
        let depth = |queue_depth| Pressure {
            queue_depth,
            open_connections: 1,
            workers: 8,
        };
        let past_soft = depth(config.queue_soft + 1);
        for (method, path) in [
            ("GET", "/v2/whatever"),
            ("POST", "/v1/universes/demo/sessions/abc/answers"),
            ("PUT", "/v1/universes/demo/sessions/1/answers"),
        ] {
            let head = RequestHead::synthetic(method, path);
            assert_eq!(gateway.admit(&head, depth(1)), Admission::Accept);
            assert_ne!(gateway.admit(&head, past_soft), Admission::Accept, "{path}");
            assert_eq!(gateway.handle(&request(method, path, "")).status / 100, 4);
        }
        // A well-formed write at the same depth is still admitted.
        let answers = RequestHead::synthetic("POST", "/v1/universes/demo/sessions/1/answers");
        assert_eq!(gateway.admit(&answers, past_soft), Admission::Accept);
    }

    #[test]
    fn a_lapsed_deadline_is_504_and_changes_nothing_on_every_mutating_endpoint() {
        let (gateway, manager) = demo();
        let sid = manager.create_session(StrategyConfig::Bu).unwrap();
        let outcome = manager.serve(sid, SessionOp::Question).unwrap();
        let class = outcome.question.expect("a fresh session asks").0.class;
        // A restorable document: the snapshot of a session since dropped.
        let dropped = manager.create_session(StrategyConfig::Bu).unwrap();
        let snapshot = manager.snapshot(dropped).unwrap().to_json_string();
        manager.remove(dropped).unwrap();

        let status_path = format!("/v1/universes/demo/sessions/{sid}");
        let fleet = || {
            let body = |path: &str| gateway.handle(&request("GET", path, "")).body;
            (body("/v1/universes"), body(&status_path))
        };
        let before = fleet();
        let mutating = Endpoint::all().filter(|e| e.tier() == EndpointClass::Mutating);
        for endpoint in mutating {
            let body = match endpoint {
                Endpoint::CreateSession => r#"{"strategy": "BU"}"#.to_string(),
                Endpoint::Restore => snapshot.clone(),
                Endpoint::Delta => r#"{"insert_r": [["Paris", "Lille", "AF"]]}"#.to_string(),
                Endpoint::DeleteSession => String::new(),
                Endpoint::Answers => {
                    format!(r#"{{"answers": [{{"class": {class}, "label": "+"}}]}}"#)
                }
                other => panic!("no lapsed-deadline request for {other:?}"),
            };
            let path = endpoint
                .template()
                .replace("{uid}", "demo")
                .replace("{sid}", &sid.to_string());
            let mut lapsed = request(endpoint.method(), &path, &body);
            lapsed.deadline = Some(Instant::now());
            let response = gateway.handle(&lapsed);
            assert_eq!(response.status, 504, "{endpoint:?}: {:?}", response.body);
            assert_eq!(fleet(), before, "{endpoint:?} changed the fleet");
        }
        assert_eq!(manager.session_count(), 1);
    }
}
