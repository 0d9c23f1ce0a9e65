//! The JSON gateway: routes HTTP requests to [`SessionManager`] calls.
//!
//! The gateway is a [`jqi_net::Handler`]: pure request → response, no
//! sockets, no threads — the transport crate owns those. Routing is a
//! match over path segments; bodies are parsed with the same vendored
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

use crate::http::metrics::{GatewayMetrics, LatencyHistogram};
use crate::http::overload::OverloadConfig;
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
            metrics: Arc::new(GatewayMetrics::new()),
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

    /// The histogram whose rolling estimate stands for this request in
    /// admission control, by the same leaf rules the router uses.
    fn histogram_for(&self, method: &str, path: &str) -> &LatencyHistogram {
        let leaf = path.rsplit('/').next().unwrap_or_default();
        match (method, leaf) {
            (_, "question") => &self.metrics.question,
            (_, "answers") => &self.metrics.answers,
            (_, "snapshot") => &self.metrics.snapshot,
            ("POST", "sessions") => &self.metrics.create_session,
            ("POST", "restore") => &self.metrics.restore,
            ("POST", "delta") => &self.metrics.delta,
            (_, "stats") | (_, "universes") => &self.metrics.stats,
            _ => &self.metrics.session,
        }
    }

    fn route(&self, request: &Request) -> Response {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        let method = request.method.as_str();
        match segments.as_slice() {
            ["v1", "stats"] => match method {
                "GET" => self.timed(&self.metrics.stats, || self.stats()),
                _ => method_not_allowed("GET"),
            },
            ["v1", "universes"] => match method {
                "GET" => self.timed(&self.metrics.stats, || self.list_universes()),
                _ => method_not_allowed("GET"),
            },
            ["v1", "universes", uid, "sessions"] => match method {
                "POST" => self.with_universe(uid, &self.metrics.create_session, |m| {
                    create_session(m, request)
                }),
                _ => method_not_allowed("POST"),
            },
            ["v1", "universes", uid, "restore"] => match method {
                "POST" => self.with_universe(uid, &self.metrics.restore, |m| restore(m, request)),
                _ => method_not_allowed("POST"),
            },
            ["v1", "universes", uid, "delta"] => match method {
                "POST" => self.with_universe(uid, &self.metrics.delta, |m| apply_delta(m, request)),
                _ => method_not_allowed("POST"),
            },
            ["v1", "universes", uid, "sessions", sid] => {
                let Some(sid) = parse_session_id(sid) else {
                    return error(404, "unknown_session", "session ids are integers");
                };
                match method {
                    "GET" => {
                        self.with_universe(uid, &self.metrics.session, |m| session_status(m, sid))
                    }
                    "DELETE" => self.with_universe(uid, &self.metrics.session, |m| {
                        m.remove(sid).map_err(server_error)?;
                        Ok(Response {
                            status: 204,
                            headers: vec![],
                            body: vec![],
                            close: false,
                        })
                    }),
                    _ => method_not_allowed("GET, DELETE"),
                }
            }
            ["v1", "universes", uid, "sessions", sid, leaf] => {
                let Some(sid) = parse_session_id(sid) else {
                    return error(404, "unknown_session", "session ids are integers");
                };
                match (*leaf, method) {
                    ("question", "GET") => {
                        self.with_universe(uid, &self.metrics.question, |m| question(m, sid))
                    }
                    ("question", _) => method_not_allowed("GET"),
                    ("answers", "POST") => {
                        self.with_universe(uid, &self.metrics.answers, |m| answers(m, sid, request))
                    }
                    ("answers", _) => method_not_allowed("POST"),
                    ("snapshot", "GET") => self.with_universe(uid, &self.metrics.snapshot, |m| {
                        let snap = m.snapshot(sid).map_err(server_error)?;
                        Ok(Response::json(200, snap.to_json_string()))
                    }),
                    ("snapshot", _) => method_not_allowed("GET"),
                    _ => unknown_route(&request.path),
                }
            }
            _ => unknown_route(&request.path),
        }
    }

    /// Resolves `uid`, times the handler, and maps resolution failures
    /// to the documented statuses: unknown id → `404 unknown_universe`,
    /// failed recovery → `503 universe_failed` (with the preserved
    /// recovery error — a WAL fingerprint mismatch surfaces here).
    fn with_universe(
        &self,
        uid: &str,
        histogram: &crate::http::metrics::LatencyHistogram,
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
                let mut response = error(
                    503,
                    "universe_failed",
                    &format!("universe {uid:?} failed recovery: {cause}"),
                );
                response.headers.push(("retry-after".into(), "5".into()));
                response
            }
            Some(UniverseEntry::Serving(manager)) => self.timed(histogram, || f(&manager)),
        }
    }

    fn timed(
        &self,
        histogram: &crate::http::metrics::LatencyHistogram,
        f: impl FnOnce() -> Result<Response, Response>,
    ) -> Response {
        let start = Instant::now();
        let response = f().unwrap_or_else(|e| e);
        histogram.record(start.elapsed());
        response
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
                    UniverseEntry::Serving(m) => Json::Obj(vec![
                        ("status".into(), Json::str("serving")),
                        (
                            "fingerprint".into(),
                            Json::str(format!("{:016x}", m.universe_fingerprint())),
                        ),
                        detail(&m),
                    ]),
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
        let stats: NetStats = handle.snapshot();
        Json::Obj(vec![
            ("accepted".into(), Json::num(stats.accepted as f64)),
            ("rejected".into(), Json::num(stats.rejected as f64)),
            (
                "open_connections".into(),
                Json::num(stats.open_connections as f64),
            ),
            ("requests".into(), Json::num(stats.requests as f64)),
            (
                "protocol_errors".into(),
                Json::num(stats.protocol_errors as f64),
            ),
            (
                "handler_panics".into(),
                Json::num(stats.handler_panics as f64),
            ),
            (
                "idle_timeouts".into(),
                Json::num(stats.idle_timeouts as f64),
            ),
            ("peer_resets".into(), Json::num(stats.peer_resets as f64)),
            ("shed".into(), Json::num(stats.shed as f64)),
            (
                "deadlines_exceeded".into(),
                Json::num(stats.deadlines_exceeded as f64),
            ),
            ("queue_depth".into(), Json::num(stats.queue_depth as f64)),
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
    /// before any routing or body transfer happens. Policy lives in
    /// [`OverloadConfig::admit`]; the rolling latency estimate comes
    /// from the endpoint's own histogram.
    fn admit(
        &self,
        head: &jqi_net::RequestHead,
        pressure: jqi_net::Pressure,
    ) -> jqi_net::Admission {
        let ewma_us = self.histogram_for(&head.method, &head.path).ewma_us();
        self.overload.admit(head, pressure, ewma_us)
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
            error(
                400,
                "bad_request",
                "body must be {\"strategy\": \"LKS:2\" | \"BU\" | \"TD\" | \"EG\" | \"OPT\" | \"RND:<seed>\"}",
            )
        })?
        .parse()
        .map_err(|e: String| error(400, "bad_strategy", &e))?;
    deadline_guard(request)?;
    let (id, fingerprint) = manager
        .create_session_stamped(strategy.clone())
        .map_err(server_error)?;
    Ok(ok_with(
        201,
        Json::Obj(vec![
            ("session".into(), Json::num(id as f64)),
            ("strategy".into(), Json::str(strategy.to_string())),
            ("universe".into(), Json::str(format!("{fingerprint:016x}"))),
        ]),
    ))
}

fn question(manager: &SessionManager, sid: SessionId) -> Result<Response, Response> {
    let outcome = manager
        .serve(sid, SessionOp::Question)
        .map_err(server_error)?;
    let mut fields = vec![("session".into(), Json::num(sid as f64))];
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
    fields.push((
        "interactions".into(),
        Json::num(outcome.interactions as f64),
    ));
    Ok(ok(Json::Obj(fields)))
}

fn answers(
    manager: &SessionManager,
    sid: SessionId,
    request: &Request,
) -> Result<Response, Response> {
    let doc = parse_body(request)?;
    let items = doc.get("answers").and_then(Json::as_arr).ok_or_else(|| {
        error(
            400,
            "bad_request",
            "body must be {\"answers\": [{\"class\": <id>, \"label\": \"+\" | \"-\"}, …]}",
        )
    })?;
    if items.len() > MAX_ANSWER_BATCH {
        return Err(error(
            413,
            "batch_too_large",
            &format!(
                "batch of {} answers exceeds the limit of {MAX_ANSWER_BATCH}",
                items.len()
            ),
        ));
    }
    let mut batch: Vec<(ClassId, Label)> = Vec::with_capacity(items.len());
    for item in items {
        let class = item
            .get("class")
            .and_then(Json::as_num)
            .filter(|n| n.fract() == 0.0 && (0.0..=9e15).contains(n))
            .ok_or_else(|| error(400, "bad_request", "each answer needs an integer \"class\""))?
            as ClassId;
        let label = match item.get("label").and_then(Json::as_str) {
            Some("+") => Label::Positive,
            Some("-") => Label::Negative,
            _ => {
                return Err(error(
                    400,
                    "bad_request",
                    "each answer needs a \"label\" of \"+\" or \"-\"",
                ))
            }
        };
        batch.push((class, label));
    }
    deadline_guard(request)?;
    let outcome = manager
        .serve(sid, SessionOp::Answers(&batch))
        .map_err(server_error)?;
    Ok(ok(Json::Obj(vec![
        ("session".into(), Json::num(sid as f64)),
        ("applied".into(), Json::num(outcome.applied as f64)),
        (
            "interactions".into(),
            Json::num(outcome.interactions as f64),
        ),
        ("done".into(), Json::Bool(outcome.done)),
    ])))
}

fn session_status(manager: &SessionManager, sid: SessionId) -> Result<Response, Response> {
    let outcome = manager
        .serve(sid, SessionOp::Status)
        .map_err(server_error)?;
    Ok(ok(Json::Obj(vec![
        ("session".into(), Json::num(sid as f64)),
        (
            "interactions".into(),
            Json::num(outcome.interactions as f64),
        ),
        ("done".into(), Json::Bool(outcome.done)),
        ("predicate".into(), predicate_json(&outcome)),
    ])))
}

fn restore(manager: &SessionManager, request: &Request) -> Result<Response, Response> {
    let body = std::str::from_utf8(&request.body)
        .map_err(|_| error(400, "bad_request", "snapshot body is not UTF-8"))?;
    let snapshot =
        SessionSnapshot::from_json(body).map_err(|e| error(400, "bad_snapshot", &e.to_string()))?;
    deadline_guard(request)?;
    let id = manager.restore(&snapshot).map_err(server_error)?;
    Ok(ok_with(
        201,
        Json::Obj(vec![
            ("session".into(), Json::num(id as f64)),
            (
                "interactions".into(),
                Json::num(snapshot.history.len() as f64),
            ),
        ]),
    ))
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
    let cells = row.as_arr().ok_or_else(|| {
        error(
            400,
            "bad_request",
            &format!("{key}[{index}] must be an array of row values"),
        )
    })?;
    let mut values = Vec::with_capacity(cells.len());
    for cell in cells {
        values.push(match cell {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 9e15 => Value::int(*n as i64),
            Json::Str(s) => Value::str(s.as_str()),
            _ => {
                return Err(error(
                    400,
                    "bad_request",
                    &format!("{key}[{index}] values must be integers or strings"),
                ))
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
            let rows = block.as_arr().ok_or_else(|| {
                error(
                    400,
                    "bad_request",
                    &format!("{key} must be an array of rows"),
                )
            })?;
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
        return Err(error(
            400,
            "bad_request",
            "delta has no edits; provide at least one of \
             insert_r, delete_r, insert_p, delete_p",
        ));
    }
    deadline_guard(request)?;
    // Built from the report alone: a second delta may already have
    // replaced the universe this one produced.
    let report = manager.apply_delta(&delta).map_err(server_error)?;
    Ok(ok(Json::Obj(vec![
        ("epoch".into(), Json::num(report.to_epoch as f64)),
        (
            "universe".into(),
            Json::str(format!("{:016x}", report.to_fingerprint)),
        ),
        ("edits".into(), Json::num(delta.len() as f64)),
        ("sessions".into(), Json::num(report.sessions as f64)),
        ("carried".into(), Json::num(report.carried as f64)),
        ("replayed".into(), Json::num(report.replayed as f64)),
        (
            "dropped_labels".into(),
            Json::num(report.dropped_labels as f64),
        ),
        (
            "invalidated".into(),
            Json::Arr(
                report
                    .invalidated
                    .iter()
                    .map(|&id| Json::num(id as f64))
                    .collect(),
            ),
        ),
    ])))
}

// ── shared plumbing ────────────────────────────────────────────────────

fn candidate_json(candidate: &Candidate, values: &[Value]) -> Json {
    Json::Obj(vec![
        ("class".into(), Json::num(candidate.class as f64)),
        (
            "tuple".into(),
            Json::Arr(vec![
                Json::num(candidate.tuple.0 as f64),
                Json::num(candidate.tuple.1 as f64),
            ]),
        ),
        (
            "values".into(),
            Json::Arr(values.iter().map(|v| Json::str(v.to_string())).collect()),
        ),
    ])
}

/// The outcome's predicate string, or `null` while inference is running.
fn predicate_json(outcome: &SessionOutcome) -> Json {
    outcome.predicate.clone().map_or(Json::Null, Json::Str)
}

fn parse_session_id(segment: &str) -> Option<SessionId> {
    segment.parse::<SessionId>().ok()
}

fn parse_body(request: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| error(400, "bad_request", "body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(error(400, "bad_request", "a JSON body is required"));
    }
    Json::parse(text).map_err(|e| error(400, "bad_json", &e.to_string()))
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

fn method_not_allowed(allow: &str) -> Response {
    let mut response = error(
        405,
        "method_not_allowed",
        &format!("this route accepts: {allow}"),
    );
    response.headers.push(("allow".into(), allow.to_string()));
    response
}

fn unknown_route(path: &str) -> Response {
    error(404, "unknown_route", &format!("no route for {path:?}"))
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
    }
}

/// Serializes [`ManagerStats`] (plus its nested decision-cache and
/// durability blocks) for `GET /v1/stats`.
pub fn manager_stats_json(stats: &ManagerStats) -> Json {
    let cache = &stats.decision_cache;
    let mut fields = vec![
        ("sessions".into(), Json::num(stats.sessions as f64)),
        (
            "resident_sessions".into(),
            Json::num(stats.resident_sessions as f64),
        ),
        (
            "hibernated_sessions".into(),
            Json::num(stats.hibernated_sessions as f64),
        ),
        (
            "spilled_sessions".into(),
            Json::num(stats.spilled_sessions as f64),
        ),
        ("state_bytes".into(), Json::num(stats.state_bytes as f64)),
        (
            "resident_bytes".into(),
            Json::num(stats.resident_bytes as f64),
        ),
        (
            "history_bytes".into(),
            Json::num(stats.history_bytes as f64),
        ),
        (
            "hibernated_bytes".into(),
            Json::num(stats.hibernated_bytes as f64),
        ),
        (
            "spilled_bytes".into(),
            Json::num(stats.spilled_bytes as f64),
        ),
        (
            "decision_cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::num(cache.hits as f64)),
                ("misses".into(), Json::num(cache.misses as f64)),
                ("evictions".into(), Json::num(cache.evictions as f64)),
                ("entries".into(), Json::num(cache.entries as f64)),
                ("bytes".into(), Json::num(cache.bytes as f64)),
                ("budget_bytes".into(), Json::num(cache.budget_bytes as f64)),
            ]),
        ),
    ];
    fields.push((
        "durability".into(),
        match &stats.durability {
            None => Json::Null,
            Some(d) => Json::Obj(vec![
                ("wal_records".into(), Json::num(d.wal_records as f64)),
                ("wal_syncs".into(), Json::num(d.wal_syncs as f64)),
                (
                    "wal_appended_bytes".into(),
                    Json::num(d.wal_appended_bytes as f64),
                ),
                ("spill_entries".into(), Json::num(d.spill_entries as f64)),
                (
                    "spill_bytes_written".into(),
                    Json::num(d.spill_bytes_written as f64),
                ),
                ("spill_reads".into(), Json::num(d.spill_reads as f64)),
            ]),
        },
    ));
    Json::Obj(fields)
}
