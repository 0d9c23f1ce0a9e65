//! The `throughput` benchmark: the `jqi_server` session service under
//! concurrent load.
//!
//! M worker threads drive K sessions each over one shared
//! `SessionManager` on the paper's flight & hotel instance — every session
//! a different simulated user (goals cycle through the instance's
//! non-nullable predicates, strategies through the paper's mix). Nine
//! phases are measured:
//!
//! 1. **interactive** — all `M·K` sessions live at once, each driven
//!    question-by-question to completion; the per-answer latency
//!    distribution covers the full service path (shard lookup, session
//!    lock, incremental state update, next-question strategy work).
//!    Afterwards the manager's [`SessionManager::stats`] are sampled, so
//!    the report carries the resident per-session memory (mask-compressed
//!    derived state + history log) and footprint regressions are visible.
//! 2. **batch** — fresh sessions fed their entire recorded label history
//!    through one `answer_batch` call each, the crowdsourcing arrival
//!    shape; latency is per batch, with the per-answer cost derived.
//! 3. **snapshot** — every session snapshotted to JSON, restored into a
//!    fresh manager, and verified to produce the same predicate; latency
//!    is per round-trip.
//! 4. **restore** — the restore half alone (deterministic replay through
//!    `apply_batch` mask ops, no JSON), bucketed by history length in the
//!    report's `restore_vs_history` array so replay cost can be read as a
//!    function of the session's age.
//! 5. **fleet** — the universe-level decision cache under a fleet of LkS
//!    sessions on a TPC-H workload: first-question latency with the cache
//!    disabled (*cold* — every session pays the full-candidate-set
//!    lookahead) versus enabled (*warm* — the first session computes,
//!    the rest answer from the shared cache), with the cache's
//!    hit/miss/eviction counters and resident bytes in the report.
//! 6. **hibernate** — the interactive fleet parked into the hibernation
//!    tier: resident vs parked bytes per session, and the wake (lazy
//!    re-materialization by replay) latency distribution.
//! 7. **durability** — the same interactive workload on a *durable*
//!    manager (real files, real fsync): per-answer latency with group
//!    commit (`wal_group`, one batched write + fsync per 2048 records,
//!    plus one final flush inside the timed region) and with an fsync per
//!    record (`wal_sync`, the cost ceiling), each also as a throughput
//!    ratio against the in-memory interactive phase (answers/s divided by
//!    WAL-on answers/s — the acceptance gate holds this within 3×); then
//!    the whole fleet is parked, spilled to segments, the manager dropped,
//!    and `SessionManager::recover` is timed — recovery wall clock and
//!    sessions/s.
//! 8. **transport** — the workload over loopback HTTP: every session gets
//!    its own keep-alive connection through the `jqi_net` epoll server and
//!    the `jqi_server::http` gateway (create → question/answer to
//!    completion → snapshot → restore into a twin tenant), all `M·K`
//!    connections held open concurrently; per-request latency is measured
//!    client-side and the server's live `open_connections` is sampled at
//!    a barrier while every client is still connected.
//! 9. **overload** — the load shedder under several times more offered
//!    load than the worker pool serves, through the chaos proxy: an
//!    uncontended pass sets the latency baseline, then a client fleet
//!    alternates session creates (admitted writes) with each session's
//!    cold first LkS question (the expensive, sheddable read) while two
//!    faulted connections (delay, drip) ride along. Reported:
//!    accepted-vs-shed split, both latency distributions, the
//!    accepted-p99-over-baseline ratio, goodput, and the must-be-zero
//!    wedge/error counters.
//!
//! The `throughput` binary renders a table and writes `BENCH_server.json`
//! at the repo root; `docs/BENCHMARKS.md` has the schema.

use crate::json::{arr_at, f64_at, field, num, str_at, Json};
use jqi_core::paper::flight_hotel;
use jqi_core::{ClassId, DecisionCacheStats, Label, StrategyConfig, Universe};
use jqi_relation::BitSet;
use jqi_server::{
    DurabilityConfig, ManagerStats, RecoveryReport, ServerConfig, SessionId, SessionManager,
    SessionSnapshot,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load parameters.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputParams {
    /// Worker threads (M).
    pub threads: usize,
    /// Sessions per worker thread (K); `M·K` sessions are live at once.
    pub sessions_per_thread: usize,
    /// Shards of the session table.
    pub shards: usize,
    /// Seed for the RND sessions in the strategy mix.
    pub seed: u64,
}

impl Default for ThroughputParams {
    fn default() -> Self {
        ThroughputParams {
            threads: 8,
            sessions_per_thread: 128,
            shards: 16,
            seed: 0xC0FFEE,
        }
    }
}

impl ThroughputParams {
    /// CI-smoke sizes: few threads, but enough sessions that every
    /// phase's mean rests on hundreds of samples, so one host reproduces
    /// its own reading.
    pub fn tiny() -> Self {
        ThroughputParams {
            threads: 2,
            sessions_per_thread: 128,
            ..Self::default()
        }
    }
}

/// Latency distribution summary, in microseconds.
#[derive(Debug, Clone)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Maximum.
    pub max_us: f64,
}

impl LatencySummary {
    fn of(mut samples: Vec<u64>) -> LatencySummary {
        assert!(!samples.is_empty(), "no latency samples recorded");
        samples.sort_unstable();
        let count = samples.len();
        let pct = |p: f64| -> f64 {
            let idx = ((count - 1) as f64 * p).round() as usize;
            samples[idx] as f64 / 1000.0
        };
        LatencySummary {
            count,
            mean_us: samples.iter().sum::<u64>() as f64 / count as f64 / 1000.0,
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
            max_us: pct(1.0),
        }
    }

    /// The summary as a report object.
    pub fn json(&self) -> Json {
        Json::Obj(vec![
            num("count", self.count as f64),
            num("mean_us", self.mean_us),
            num("p50_us", self.p50_us),
            num("p95_us", self.p95_us),
            num("p99_us", self.p99_us),
            num("max_us", self.max_us),
        ])
    }
}

/// The report of one phase of `samples.len()` operations over `elapsed`
/// wall clock.
fn phase(name: &str, elapsed: Duration, samples: Vec<u64>) -> Json {
    let elapsed_s = elapsed.as_secs_f64();
    Json::Obj(vec![
        field("phase", Json::str(name)),
        num("elapsed_s", elapsed_s),
        num("ops_per_sec", samples.len() as f64 / elapsed_s),
        field("latency", LatencySummary::of(samples).json()),
    ])
}

/// The decision-cache counters as a JSON object.
fn cache_json(stats: &DecisionCacheStats) -> Json {
    Json::Obj(vec![
        num("hits", stats.hits as f64),
        num("misses", stats.misses as f64),
        num("evictions", stats.evictions as f64),
        num("entries", stats.entries as f64),
        num("bytes", stats.bytes as f64),
        num("budget_bytes", stats.budget_bytes as f64),
    ])
}

/// The manager's footprint as the report's `session_memory` object.
fn session_memory_json(stats: &ManagerStats) -> Json {
    Json::Obj(vec![
        num("sessions", stats.sessions as f64),
        num("resident_sessions", stats.resident_sessions as f64),
        num("hibernated_sessions", stats.hibernated_sessions as f64),
        num("state_bytes_total", stats.state_bytes as f64),
        num("state_bytes_per_session", stats.state_bytes_per_session()),
        num("resident_bytes_total", stats.resident_bytes as f64),
        num(
            "resident_bytes_per_session",
            stats.resident_bytes_per_session(),
        ),
        num("history_bytes_total", stats.history_bytes as f64),
        num("hibernated_bytes_total", stats.hibernated_bytes as f64),
        field("decision_cache", cache_json(&stats.decision_cache)),
    ])
}

/// Renders a [`run`] report as plain text: the phases as an aligned
/// table, then one line per later phase.
pub fn table(report: &Json) -> String {
    let n = |path: &str| f64_at(report, path);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} sessions ({} threads × {}), {} shards, {} interactive answers",
        n("concurrent_sessions"),
        n("threads"),
        n("sessions_per_thread"),
        n("shards"),
        n("total_answers"),
    );
    let _ = writeln!(
        out,
        "session memory: {:.0} B derived state/session ({} B total), {} B history total",
        n("session_memory.state_bytes_per_session"),
        n("session_memory.state_bytes_total"),
        n("session_memory.history_bytes_total"),
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "phase", "ops", "ops/s", "mean µs", "p50 µs", "p95 µs", "p99 µs", "max µs"
    );
    for p in arr_at(report, "phases") {
        let n = |path: &str| f64_at(p, path);
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>12.0} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            str_at(p, "phase"),
            n("latency.count"),
            n("ops_per_sec"),
            n("latency.mean_us"),
            n("latency.p50_us"),
            n("latency.p95_us"),
            n("latency.p99_us"),
            n("latency.max_us"),
        );
    }
    let _ = writeln!(
        out,
        "fleet ({} / {}): first question cold {:.1} µs mean ({} sessions) vs warm {:.3} µs \
         mean ({} sessions) — {:.0}× ({} hits / {} misses, {} B cache of {} B budget)",
        str_at(report, "fleet.instance"),
        str_at(report, "fleet.strategy"),
        n("fleet.cold_first_question.mean_us"),
        n("fleet.cold_sessions"),
        n("fleet.warm_first_question.mean_us"),
        n("fleet.warm_sessions"),
        n("fleet.warm_speedup"),
        n("fleet.decision_cache.hits"),
        n("fleet.decision_cache.misses"),
        n("fleet.decision_cache.bytes"),
        n("fleet.decision_cache.budget_bytes"),
    );
    let _ = writeln!(
        out,
        "hibernate: {} of {} sessions parked, {:.0} B resident → {:.0} B parked per \
         session; stats {:.2} µs; wake mean {:.1} µs / p50 {:.1} µs",
        n("hibernate.parked"),
        n("hibernate.sessions"),
        n("hibernate.resident_bytes_per_session"),
        n("hibernate.hibernated_bytes_per_session"),
        n("hibernate.stats_us"),
        n("hibernate.wake.mean_us"),
        n("hibernate.wake.p50_us"),
    );
    let _ = writeln!(
        out,
        "durability: group-commit {:.1} µs/answer ({:.2}× throughput cost, {} fsyncs \
         / {} records), fsync-per-record {:.1} µs ({:.2}×); recovery {} sessions \
         ({} spilled, {} WAL records) in {:.1} ms — {:.0} sessions/s",
        n("durability.wal_group.latency.mean_us"),
        n("durability.overhead_group_x"),
        n("durability.wal_syncs"),
        n("durability.wal_records"),
        n("durability.wal_sync.latency.mean_us"),
        n("durability.overhead_sync_x"),
        n("durability.recovery.sessions"),
        n("durability.recovery.spilled"),
        n("durability.recovery.wal_records"),
        n("durability.recovery.elapsed_ms"),
        n("durability.recovery.sessions_per_sec"),
    );
    let _ = writeln!(
        out,
        "transport: {} concurrent HTTP sessions ({} open at peak, {} client threads → \
         {} server workers), {} requests at {:.0} req/s; mean {:.1} µs / p95 {:.1} µs, \
         {} restored over the wire, {} protocol errors",
        n("transport.sessions"),
        n("transport.open_connections_peak"),
        n("transport.client_threads"),
        n("transport.server_workers"),
        n("transport.requests"),
        n("transport.requests_per_sec"),
        n("transport.request_latency.mean_us"),
        n("transport.request_latency.p95_us"),
        n("transport.restored"),
        n("transport.protocol_errors"),
    );
    let _ = writeln!(
        out,
        "overload: {} clients (+{} chaos) → {} workers via chaos proxy; {} offered, \
         {} accepted at {:.0}/s (p99 {:.1} µs, {:.2}× uncontended), {} shed at mean \
         {:.1} µs; {} wedged, {} client errors, {} protocol errors, {} faults injected",
        n("overload.clients"),
        n("overload.chaos_clients"),
        n("overload.server_workers"),
        n("overload.offered"),
        n("overload.accepted"),
        n("overload.goodput_per_sec"),
        n("overload.accepted_latency.p99_us"),
        n("overload.p99_ratio"),
        n("overload.shed"),
        n("overload.shed_latency.mean_us"),
        n("overload.wedged"),
        n("overload.client_errors"),
        n("overload.protocol_errors"),
        n("overload.faults_injected"),
    );
    out
}

/// The per-session setup the phases share: strategy mix + goal oracle.
struct SessionPlan {
    config: StrategyConfig,
    goal: BitSet,
}

fn plans(universe: &Universe, n: usize, seed: u64) -> Vec<SessionPlan> {
    let goals =
        jqi_core::lattice::non_nullable_predicates(universe, 100_000).expect("tiny lattice");
    assert!(!goals.is_empty(), "flight & hotel has non-nullable goals");
    (0..n)
        .map(|i| {
            let config = match i % 5 {
                0 => StrategyConfig::Bu,
                1 => StrategyConfig::Td,
                2 => StrategyConfig::Lks { depth: 1 },
                3 => StrategyConfig::Lks { depth: 2 },
                _ => StrategyConfig::Rnd {
                    seed: seed ^ i as u64,
                },
            };
            SessionPlan {
                config,
                goal: goals[i % goals.len()].clone(),
            }
        })
        .collect()
}

/// One recorded session: its plan index plus the answers it gave.
type RecordedHistory = (usize, Vec<(ClassId, Label)>);

fn oracle_label(universe: &Universe, goal: &BitSet, class: ClassId) -> Label {
    if goal.is_subset(universe.sig(class)) {
        Label::Positive
    } else {
        Label::Negative
    }
}

/// Runs `work` on one scoped thread per `per_thread`-sized chunk of
/// `items` — the thread layout of every in-process phase — passing each
/// chunk with the index of its first item; returns the results in chunk
/// order.
fn fan_out<T: Sync, R: Send>(
    items: &[T],
    per_thread: usize,
    work: impl Fn(usize, &[T]) -> R + Sync,
) -> Vec<R> {
    let per_thread = per_thread.max(1);
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = items
            .chunks(per_thread)
            .enumerate()
            .map(|(c, chunk)| scope.spawn(move || work(c * per_thread, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("no panics"))
            .collect()
    })
}

/// The paper's Algorithm 1 for one session: ask, let the goal oracle
/// label, answer, until nothing is left to ask. One sample in `lat` is
/// one full service cycle: question selection (strategy work under the
/// session lock) plus the answer's incremental state update.
fn drive_session(
    manager: &SessionManager,
    universe: &Universe,
    id: SessionId,
    goal: &BitSet,
    lat: &mut Vec<u64>,
) {
    loop {
        let t0 = Instant::now();
        let Some(q) = manager.next_question(id).expect("live session") else {
            break;
        };
        let label = oracle_label(universe, goal, q.class);
        manager.answer(id, q.class, label).expect("consistent");
        lat.push(t0.elapsed().as_nanos() as u64);
    }
}

/// The one builder of the managers that serve the run's fleet: the run's
/// shard count, every other setting default. In memory, or — given a
/// directory and a group-commit quota — durable there, recovering
/// whatever the directory holds.
fn fleet_manager(
    params: &ThroughputParams,
    universe: &Arc<Universe>,
    durable: Option<(&Path, usize)>,
) -> (SessionManager, RecoveryReport) {
    let universe = Arc::clone(universe);
    let config = ServerConfig {
        shards: params.shards,
        ..ServerConfig::default()
    };
    match durable {
        None => (
            SessionManager::new(universe, config),
            RecoveryReport::default(),
        ),
        Some((dir, group_commit_every)) => {
            SessionManager::recover(universe, config, durability_config(group_commit_every), dir)
                .expect("durable directory opens")
        }
    }
}

/// Runs the in-process phases, then the fleet, hibernate, durability,
/// transport and overload phases, and assembles the report (its schema
/// is in `docs/BENCHMARKS.md`).
pub fn run(tiny: bool, params: ThroughputParams) -> Json {
    let params = if tiny {
        ThroughputParams::tiny()
    } else {
        params
    };
    let per_thread = params.sessions_per_thread;
    let universe = Arc::new(Universe::build(flight_hotel()));
    let total_sessions = params.threads * per_thread;
    let plans = plans(&universe, total_sessions, params.seed);
    let (manager, _) = fleet_manager(&params, &universe, None);

    // All sessions exist before any is driven: the interactive phase
    // exercises `total_sessions` *concurrent* sessions, not a trickle.
    let ids: Vec<SessionId> = plans
        .iter()
        .map(|p| manager.create_session(p.config.clone()).expect("in-memory"))
        .collect();
    assert_eq!(manager.session_count(), total_sessions);

    // Phase 1: interactive question/answer loops, one chunk per thread;
    // each finished session's history is recorded inside the phase.
    let phase_start = Instant::now();
    let driven = fan_out(&ids, per_thread, |lo, chunk| {
        let mut lat = Vec::new();
        let recorded: Vec<RecordedHistory> = (lo..)
            .zip(chunk)
            .map(|(i, &id)| {
                drive_session(&manager, &universe, id, &plans[i].goal, &mut lat);
                (i, manager.snapshot(id).expect("live session").history)
            })
            .collect();
        (lat, recorded)
    });
    let elapsed = phase_start.elapsed();
    let (latencies, histories): (Vec<_>, Vec<_>) = driven.into_iter().unzip();
    let interactive = phase("interactive", elapsed, latencies.concat());
    // Resident footprint while every session is live and fully answered.
    let session_memory = manager.stats();

    // Phase 2: the same answer streams folded in as one batch per fresh
    // session (the crowdsourcing arrival shape).
    let histories: Vec<RecordedHistory> = histories.into_iter().flatten().collect();
    let (batch_manager, _) = fleet_manager(&params, &universe, None);
    let phase_start = Instant::now();
    let lat = fan_out(&histories, per_thread, |_, chunk| {
        let mut lat = Vec::new();
        for (i, history) in chunk {
            let id = batch_manager
                .create_session(plans[*i].config.clone())
                .expect("in-memory");
            let t0 = Instant::now();
            let applied = batch_manager.answer_batch(id, history).expect("consistent");
            lat.push(t0.elapsed().as_nanos() as u64);
            assert_eq!(applied, history.len());
        }
        lat
    });
    let batch = phase("batch", phase_start.elapsed(), lat.concat());

    // Phase 3: snapshot → JSON → restore round-trips into a fresh manager,
    // verified against the original predicate.
    let (restore_manager, _) = fleet_manager(&params, &universe, None);
    let phase_start = Instant::now();
    let lat = fan_out(&ids, per_thread, |_, chunk| {
        let mut lat = Vec::new();
        for &id in chunk {
            let t0 = Instant::now();
            let json = manager.snapshot(id).expect("live").to_json_string();
            let snap = SessionSnapshot::from_json(&json).expect("well-formed");
            let restored = restore_manager.restore(&snap).expect("replays");
            lat.push(t0.elapsed().as_nanos() as u64);
            assert_eq!(
                restore_manager.inferred_predicate(restored).expect("live"),
                manager.inferred_predicate(id).expect("live"),
                "restored session diverged"
            );
        }
        lat
    });
    let snapshot = phase("snapshot", phase_start.elapsed(), lat.concat());

    // Phase 4: the restore half alone — deterministic replay folded through
    // `apply_batch` mask ops, no JSON on the path — bucketed by history
    // length so replay cost reads as a function of session age.
    let snapshots: Vec<_> = ids
        .iter()
        .map(|&id| manager.snapshot(id).expect("live session"))
        .collect();
    let (replay_manager, _) = fleet_manager(&params, &universe, None);
    let phase_start = Instant::now();
    let lat = fan_out(&snapshots, per_thread, |_, chunk| {
        let mut lat = Vec::with_capacity(chunk.len());
        for snap in chunk {
            let t0 = Instant::now();
            replay_manager.restore(snap).expect("replays");
            lat.push(t0.elapsed().as_nanos() as u64);
        }
        lat
    });
    let elapsed = phase_start.elapsed();
    let lat = lat.concat();
    let mut buckets: BTreeMap<usize, (usize, u64)> = BTreeMap::new();
    for (snap, &ns) in snapshots.iter().zip(&lat) {
        let e = buckets.entry(snap.history.len()).or_insert((0, 0));
        e.0 += 1;
        e.1 += ns;
    }
    let restore_vs_history = buckets
        .into_iter()
        .map(|(history_len, (count, total_ns))| {
            Json::Obj(vec![
                num("history_len", history_len as f64),
                num("count", count as f64),
                num("mean_us", total_ns as f64 / count as f64 / 1000.0),
            ])
        })
        .collect();
    let restore = phase("restore", elapsed, lat);

    // Phase 5: the decision cache under an LkS fleet on TPC-H — cold
    // (cache disabled, every session pays the full first-question
    // lookahead) vs warm (shared cache; the first session computes, the
    // rest probe).
    let fleet = fleet_phase(tiny, params.seed);

    // Phase 6: hibernation — park the fully-answered interactive fleet,
    // then touch every session once so the wake path (lazy
    // re-materialization by replay) is measured at fleet scale.
    let parked = manager
        .hibernate_idle(Duration::ZERO)
        .expect("in-memory")
        .parked;
    // One `stats()` call is well under a microsecond: time one call per
    // session and report the mean.
    let t0 = Instant::now();
    for _ in &ids {
        std::hint::black_box(manager.stats());
    }
    let stats_us = t0.elapsed().as_nanos() as f64 / 1000.0 / ids.len() as f64;
    let parked_stats = manager.stats();
    let mut wake_lat: Vec<u64> = Vec::with_capacity(ids.len());
    for &id in &ids {
        let t0 = Instant::now();
        let _ = manager.next_question(id).expect("live session");
        wake_lat.push(t0.elapsed().as_nanos() as u64);
    }
    let hibernate = Json::Obj(vec![
        num("sessions", total_sessions as f64),
        num("parked", parked as f64),
        num(
            "resident_bytes_per_session",
            session_memory.resident_bytes_per_session(),
        ),
        num(
            "state_bytes_per_session",
            session_memory.state_bytes_per_session(),
        ),
        num(
            "hibernated_bytes_per_session",
            parked_stats.hibernated_bytes_per_session(),
        ),
        num("stats_us", stats_us),
        field("wake", LatencySummary::of(wake_lat).json()),
    ]);

    // Phase 7: durability — the interactive workload again, this time
    // with a real WAL (and spill segments) under it, then a timed
    // recovery of the whole fleet.
    let durability = durability_phase(&params, &universe, &plans, &interactive);

    // Phase 8: transport — the workload over loopback HTTP through the
    // `jqi_net` server and the gateway, one keep-alive connection per
    // session, all open at once.
    let transport = transport_phase(&params, &universe, &plans);

    // Phase 9: overload — more load than the worker pool can serve,
    // offered through the chaos proxy against tight admission
    // thresholds; measures the shedder, not the service.
    let overload = overload_phase(tiny, params.seed);

    Json::Obj(vec![
        field("bench", Json::str("server_throughput")),
        field("instance", Json::str("flight_hotel")),
        num("threads", params.threads as f64),
        num("sessions_per_thread", params.sessions_per_thread as f64),
        num("concurrent_sessions", total_sessions as f64),
        num("shards", params.shards as f64),
        num("seed", params.seed as f64),
        num("total_answers", f64_at(&interactive, "latency.count")),
        field("session_memory", session_memory_json(&session_memory)),
        field(
            "phases",
            Json::Arr(vec![interactive, batch, snapshot, restore]),
        ),
        field("restore_vs_history", Json::Arr(restore_vs_history)),
        field("fleet", fleet),
        field("hibernate", hibernate),
        field("durability", durability),
        field("transport", transport),
        field("overload", overload),
    ])
}

/// The path that creates a session on the HTTP phases' `bench` tenant.
const CREATE_PATH: &str = "/v1/universes/bench/sessions";

/// The session id in a `201` create response's body.
fn created_sid(resp: &jqi_net::ClientResponse) -> Option<u64> {
    use jqi_server::json::Json as Wire;
    resp.body_str()
        .ok()
        .and_then(|t| Wire::parse(t).ok())
        .and_then(|doc| doc.get("session").and_then(Wire::as_num))
        .map(|n| n as u64)
}

/// Drives the overload phase: the gateway behind the chaos proxy under
/// more offered load than its worker pool can serve, with tight
/// admission thresholds — the measurement of the load shedder itself. A
/// clean uncontended pass on the same wire path sets the latency
/// baseline; then a fleet of clients several times the worker pool
/// hammers the same endpoints. The acceptance shape: accepted requests
/// stay within a small factor of the uncontended p99 (the queue a
/// request waits behind is bounded by the shed thresholds), shed
/// responses come back in well under a millisecond (the 503 is written
/// before routing or body parsing), nothing wedges, and the wire stays
/// clean.
///
/// Topology: a 2-worker gateway with `queue_soft: 2` / `queue_hard`
/// above the client count, reached only through a [`jqi_net::ChaosProxy`]
/// whose script delays one connection and drip-feeds another (the two
/// unmetered chaos clients) and relays the rest untouched. One clean
/// client measures the uncontended baseline first; then every metered
/// client gets its own session and alternates a read (`GET` session
/// status — sheds past the soft threshold) with a write (`POST` an empty
/// answer batch — admitted up to the hard threshold), so under pressure
/// both outcomes occur: writes land, reads shed. Metered clients run a
/// fixed request budget, extended (bounded) until the fleet has
/// collectively seen a minimum number of sheds, so the shed-latency
/// summary is never empty on a fast machine.
fn overload_phase(tiny: bool, seed: u64) -> Json {
    use jqi_datagen::tpch::{workload, TpchJoin, TpchScale};
    use jqi_net::{ChaosProxy, ChaosScript, Client, Fault, NetConfig};
    use jqi_server::http::{serve_with, OverloadConfig, UniverseRegistry};
    use jqi_server::json::Json as Wire;
    use std::sync::atomic::{AtomicU64, Ordering};

    // 2× offered load: twice as many always-outstanding clients as
    // worker threads — the acceptance shape. The request mix is create →
    // first LkS question on a cold-cache TPC-H universe, so every
    // accepted read is milliseconds of real lookahead compute: the
    // accepted p99 then tracks the queue an admitted request waits
    // behind (what the shedder bounds), not per-request scheduler noise.
    let (clients_n, per_client, uncontended_n) = if tiny { (8, 40, 12) } else { (8, 200, 60) };
    let chaos_clients_n = 2usize;
    let min_shed = 25u64;
    let wedge_deadline = Duration::from_secs(30);
    let strategy_body = "{\"strategy\": \"LKS:2\"}";

    let tpch = workload(TpchScale::Small, TpchJoin::Join4, seed);
    let universe = Arc::new(Universe::build(tpch.instance).with_decision_cache_budget(0));
    let registry = Arc::new(UniverseRegistry::new());
    registry
        .register(
            "bench",
            Arc::new(SessionManager::new(
                Arc::clone(&universe),
                ServerConfig::default(),
            )),
        )
        .expect("fresh registry");
    // Twice as many clients as workers (the 2× offered shape). The
    // soft tier admits at most a couple of expensive reads at once, so
    // the spare workers stay free to write sheds immediately instead of
    // queueing them behind a lookahead in progress.
    let net = NetConfig {
        workers: 4,
        max_connections: clients_n + chaos_clients_n + 16,
        ..NetConfig::default()
    };
    let server_workers = net.workers;
    let overload = OverloadConfig {
        // Reads shed once more than two wake-ups are in flight; writes
        // once more than six are. Both tiers bound the queue an
        // accepted request waits behind — that bound, not the offered
        // load, is what the accepted p99 tracks (the p99_ratio
        // acceptance bar).
        queue_soft: 2,
        queue_hard: 6,
        retry_after_s: 1,
        ..OverloadConfig::default()
    };
    let (mut server, _gateway) =
        serve_with(Arc::clone(&registry), "127.0.0.1:0", net, overload).expect("loopback bind");
    // Connection 0 is the clean uncontended baseline; 1 and 2 are the
    // chaos clients' (delayed, dripping); everything after runs clean.
    let script = ChaosScript {
        seed: 0x10AD,
        faults: vec![
            Fault::None,
            Fault::Delay { ms: 10 },
            Fault::Drip { chunk: 16, ms: 1 },
        ],
    };
    let mut proxy = ChaosProxy::spawn(server.local_addr(), script).expect("proxy bind");
    let addr = proxy.local_addr();

    fn classify(resp: &jqi_net::ClientResponse) -> Result<bool, String> {
        // Ok(true) = served, Ok(false) = well-formed shed, Err = neither.
        let doc = resp
            .body_str()
            .ok()
            .and_then(|t| Wire::parse(t).ok())
            .ok_or_else(|| format!("unparseable body at status {}", resp.status))?;
        match resp.status {
            200 | 201 => Ok(true),
            503 => {
                let code = doc
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Wire::as_str);
                let hinted = resp.headers.iter().any(|(n, _)| n == "retry-after");
                if code == Some("overloaded") && hinted {
                    Ok(false)
                } else {
                    Err(format!("503 without shed shape: {:?}", resp.body_str()))
                }
            }
            other => Err(format!("unexpected status {other}: {:?}", resp.body_str())),
        }
    }

    // Uncontended baseline: one client, same wire path and request mix,
    // no competition. Each GET is a fresh session's first question, so
    // with the decision cache off every one pays the full lookahead.
    let mut baseline_lat: Vec<u64> = Vec::with_capacity(uncontended_n);
    let mut base = Client::connect(addr).expect("baseline connect");
    let mut base_sid = 0u64;
    for r in 0..uncontended_n {
        let t0 = Instant::now();
        let resp = if r % 2 == 0 {
            base.post(CREATE_PATH, strategy_body)
        } else {
            base.get(&format!("/v1/universes/bench/sessions/{base_sid}/question"))
        }
        .expect("baseline request");
        baseline_lat.push(t0.elapsed().as_nanos() as u64);
        assert!(
            classify(&resp).expect("baseline must be clean"),
            "the uncontended pass must never shed"
        );
        if resp.status == 201 {
            base_sid = created_sid(&resp).expect("session id");
        }
    }
    let uncontended = LatencySummary::of(baseline_lat);

    // Connect everything up front, in order, so chaos connection indexes
    // are deterministic; each metered client gets its own session while
    // the wire is still calm.
    let chaos_conns: Vec<Client> = (0..chaos_clients_n)
        .map(|_| Client::connect(addr).expect("chaos connect"))
        .collect();
    let metered: Vec<(Client, u64)> = (0..clients_n)
        .map(|_| {
            let mut client = Client::connect(addr).expect("metered connect");
            let created = client
                .post(CREATE_PATH, strategy_body)
                .expect("metered create");
            assert_eq!(created.status, 201, "{:?}", created.body_str());
            let sid = created_sid(&created).expect("session id");
            (client, sid)
        })
        .collect();

    let shed_total = AtomicU64::new(0);
    let phase_start = Instant::now();
    let mut accepted_lat: Vec<u64> = Vec::new();
    let mut shed_lat: Vec<u64> = Vec::new();
    let mut client_errors = 0u64;
    let mut wedged = 0usize;
    std::thread::scope(|scope| {
        // Chaos clients: unmetered read pressure over faulted
        // connections. They may be shed or served; they must finish.
        let chaos_handles: Vec<_> = chaos_conns
            .into_iter()
            .map(|mut client| {
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut errors = 0u64;
                    for _ in 0..per_client / 2 {
                        match client.get("/v1/universes") {
                            Ok(resp) if classify(&resp).is_ok() => {}
                            _ => errors += 1,
                        }
                        // Paced: the chaos connections exist to push
                        // faulted bytes through the path, not to add
                        // offered load on top of the metered fleet.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    (errors, started.elapsed())
                })
            })
            .collect();
        let metered_handles: Vec<_> = metered
            .into_iter()
            .map(|(mut client, mut sid)| {
                let shed_total = &shed_total;
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut accepted = Vec::new();
                    let mut shed = Vec::new();
                    let mut errors = 0u64;
                    for r in 0..per_client * 4 {
                        // Past the base budget, keep offering load only
                        // until the fleet has its minimum shed sample.
                        if r >= per_client && shed_total.load(Ordering::Relaxed) >= min_shed {
                            break;
                        }
                        let t0 = Instant::now();
                        // Mutating create, then the cold first question
                        // on the session it made — the expensive read
                        // the soft tier sheds first.
                        let outcome = if r % 2 == 0 {
                            client.post(CREATE_PATH, strategy_body)
                        } else {
                            client.get(&format!("/v1/universes/bench/sessions/{sid}/question"))
                        };
                        let elapsed = t0.elapsed().as_nanos() as u64;
                        match outcome {
                            Err(_) => errors += 1,
                            Ok(resp) => match classify(&resp) {
                                Ok(true) => {
                                    accepted.push(elapsed);
                                    if resp.status == 201 {
                                        sid = created_sid(&resp).unwrap_or(sid);
                                    }
                                }
                                Ok(false) => {
                                    shed.push(elapsed);
                                    shed_total.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(_) => errors += 1,
                            },
                        }
                    }
                    (accepted, shed, errors, started.elapsed())
                })
            })
            .collect();
        for handle in chaos_handles {
            let (errors, elapsed) = handle.join().expect("no panics");
            client_errors += errors;
            if elapsed > wedge_deadline {
                wedged += 1;
            }
        }
        for handle in metered_handles {
            let (accepted, shed, errors, elapsed) = handle.join().expect("no panics");
            accepted_lat.extend(accepted);
            shed_lat.extend(shed);
            client_errors += errors;
            if elapsed > wedge_deadline {
                wedged += 1;
            }
        }
    });
    let elapsed_s = phase_start.elapsed().as_secs_f64();
    let chaos_stats = proxy.stats();
    let net_stats = server.stats();
    proxy.shutdown();
    server.shutdown();

    let offered = accepted_lat.len() + shed_lat.len() + client_errors as usize;
    let accepted = accepted_lat.len();
    let shed = shed_lat.len();
    assert!(
        accepted > 0,
        "the overload mix must land some writes (all {offered} offered requests shed)"
    );
    assert!(
        shed > 0,
        "the overload mix must shed some reads (all {offered} offered requests served)"
    );
    let accepted_latency = LatencySummary::of(accepted_lat);
    Json::Obj(vec![
        num("clients", clients_n as f64),
        num("chaos_clients", chaos_clients_n as f64),
        num("server_workers", server_workers as f64),
        num("offered", offered as f64),
        num("accepted", accepted as f64),
        num("shed", shed as f64),
        num("client_errors", client_errors as f64),
        num("protocol_errors", net_stats.protocol_errors as f64),
        num("wedged", wedged as f64),
        num("faults_injected", chaos_stats.faults_injected as f64),
        field("uncontended", uncontended.json()),
        field("accepted_latency", accepted_latency.json()),
        field("shed_latency", LatencySummary::of(shed_lat).json()),
        num("p99_ratio", accepted_latency.p99_us / uncontended.p99_us),
        num("goodput_per_sec", accepted as f64 / elapsed_s),
        num("elapsed_s", elapsed_s),
    ])
}

/// Drives the transport phase: the question/answer/snapshot/restore
/// workload again, over real loopback HTTP through the `jqi_net` epoll
/// server and the `jqi_server::http` gateway, so the measurement covers
/// wire framing, JSON bodies, routing, and the parked-connection
/// hand-off, not just the in-process service path. Every session
/// gets its own keep-alive connection, all `threads ×
/// sessions_per_thread` connections are held open concurrently, and each
/// session runs create → question/answer to completion → snapshot →
/// restore into a twin tenant, timing every request from first byte
/// written to full response read. `open_connections_peak` is sampled
/// from live [`jqi_net::NetStats`] at a barrier while every client is
/// still connected, so the reported concurrency is observed, not
/// assumed.
fn transport_phase(
    params: &ThroughputParams,
    universe: &Arc<Universe>,
    plans: &[SessionPlan],
) -> Json {
    use jqi_net::{Client, NetConfig};
    use jqi_server::http::{serve, UniverseRegistry};
    use jqi_server::json::Json as Wire;
    use std::sync::Barrier;

    let sessions = params.threads * params.sessions_per_thread;
    let registry = Arc::new(UniverseRegistry::new());
    for tenant in ["bench", "twin"] {
        let (manager, _) = fleet_manager(params, universe, None);
        registry
            .register(tenant, Arc::new(manager))
            .expect("fresh registry");
    }
    let net = NetConfig {
        max_connections: sessions + 64,
        ..NetConfig::default()
    };
    let server_workers = net.workers;
    let (mut server, _gateway) =
        serve(Arc::clone(&registry), "127.0.0.1:0", net).expect("loopback bind");
    let addr = server.local_addr();

    fn text(resp: &jqi_net::ClientResponse) -> &str {
        resp.body_str().expect("utf-8 response")
    }

    // Rendezvous twice: once with every connection still open (main
    // samples the server's live stats), once to release the clients.
    let barrier = Barrier::new(params.threads + 1);
    let phase_start = Instant::now();
    let mut latencies: Vec<Vec<u64>> = Vec::with_capacity(params.threads);
    let mut restored = 0usize;
    let mut open_connections_peak = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..params.threads)
            .map(|t| {
                let universe = Arc::clone(universe);
                let barrier = &barrier;
                scope.spawn(move || {
                    let lo = t * params.sessions_per_thread;
                    let mut lat = Vec::new();
                    let mut clients: Vec<Client> = (0..params.sessions_per_thread)
                        .map(|_| Client::connect(addr).expect("loopback connect"))
                        .collect();

                    // Create: one session per connection.
                    let mut sids: Vec<u64> = Vec::with_capacity(clients.len());
                    for (k, client) in clients.iter_mut().enumerate() {
                        let body = format!("{{\"strategy\": \"{}\"}}", plans[lo + k].config);
                        let t0 = Instant::now();
                        let resp = client.post(CREATE_PATH, &body).expect("create over http");
                        lat.push(t0.elapsed().as_nanos() as u64);
                        assert_eq!(resp.status, 201, "{}", text(&resp));
                        sids.push(created_sid(&resp).expect("session id"));
                    }

                    // Drive sessions round-robin (one question per visit)
                    // so the whole slice stays in flight together.
                    let mut done = vec![false; clients.len()];
                    let mut live = clients.len();
                    while live > 0 {
                        for k in 0..clients.len() {
                            if done[k] {
                                continue;
                            }
                            let path = format!("/v1/universes/bench/sessions/{}/question", sids[k]);
                            let t0 = Instant::now();
                            let resp = clients[k].get(&path).expect("question over http");
                            lat.push(t0.elapsed().as_nanos() as u64);
                            assert_eq!(resp.status, 200, "{}", text(&resp));
                            let doc = Wire::parse(text(&resp)).expect("json body");
                            if doc.get("done") == Some(&Wire::Bool(true)) {
                                done[k] = true;
                                live -= 1;
                                continue;
                            }
                            let class = doc
                                .get("question")
                                .and_then(|q| q.get("class"))
                                .and_then(Wire::as_num)
                                .expect("open question")
                                as ClassId;
                            let label = match oracle_label(&universe, &plans[lo + k].goal, class) {
                                Label::Positive => "+",
                                Label::Negative => "-",
                            };
                            let body = format!(
                                "{{\"answers\": [{{\"class\": {class}, \"label\": \"{label}\"}}]}}"
                            );
                            let path = format!("/v1/universes/bench/sessions/{}/answers", sids[k]);
                            let t0 = Instant::now();
                            let resp = clients[k].post(&path, &body).expect("answer over http");
                            lat.push(t0.elapsed().as_nanos() as u64);
                            assert_eq!(resp.status, 200, "{}", text(&resp));
                        }
                    }

                    // Snapshot each finished session, restore it into the
                    // twin tenant over the same connection.
                    let mut thread_restored = 0usize;
                    for (k, client) in clients.iter_mut().enumerate() {
                        let path = format!("/v1/universes/bench/sessions/{}/snapshot", sids[k]);
                        let t0 = Instant::now();
                        let snap = client.get(&path).expect("snapshot over http");
                        lat.push(t0.elapsed().as_nanos() as u64);
                        assert_eq!(snap.status, 200, "{}", text(&snap));
                        let body = text(&snap).to_string();
                        let t0 = Instant::now();
                        let resp = client
                            .post("/v1/universes/twin/restore", &body)
                            .expect("restore over http");
                        lat.push(t0.elapsed().as_nanos() as u64);
                        assert_eq!(resp.status, 201, "{}", text(&resp));
                        thread_restored += 1;
                    }

                    barrier.wait(); // work done, every connection still open
                    barrier.wait(); // main has sampled open_connections
                    (lat, thread_restored)
                })
            })
            .collect();

        barrier.wait();
        open_connections_peak = server.stats().open_connections;
        barrier.wait();

        for handle in handles {
            let (lat, thread_restored) = handle.join().expect("no panics");
            latencies.push(lat);
            restored += thread_restored;
        }
    });
    let elapsed_s = phase_start.elapsed().as_secs_f64();
    let net_stats = server.stats();
    server.shutdown();

    let all: Vec<u64> = latencies.into_iter().flatten().collect();
    let requests = all.len();
    Json::Obj(vec![
        num("sessions", sessions as f64),
        num("client_threads", params.threads as f64),
        num("server_workers", server_workers as f64),
        num("requests", requests as f64),
        num("elapsed_s", elapsed_s),
        num("requests_per_sec", requests as f64 / elapsed_s),
        field("request_latency", LatencySummary::of(all).json()),
        num("open_connections_peak", open_connections_peak as f64),
        num("restored", restored as f64),
        num("protocol_errors", net_stats.protocol_errors as f64),
    ])
}

const GROUP_EVERY: usize = 2048;

fn durability_config(group_commit_every: usize) -> DurabilityConfig {
    DurabilityConfig {
        group_commit_every,
        // Zero watermark: a sweep spills every parked session, so the
        // recovery measurement covers segment reads, not just WAL replay.
        resident_watermark_bytes: Some(0),
        segment_max_bytes: 4 << 20,
    }
}

/// The interactive workload on a durable manager rooted at `dir`: same
/// fleet shape, thread layout and question/answer loop as the in-memory
/// interactive phase, so the per-answer means are directly comparable.
/// Returns the phase report and the (still live) manager.
fn durable_drive(
    name: &str,
    params: &ThroughputParams,
    universe: &Arc<Universe>,
    plans: &[SessionPlan],
    dir: &Path,
    group_commit_every: usize,
) -> (Json, SessionManager) {
    let (manager, _) = fleet_manager(params, universe, Some((dir, group_commit_every)));
    let ids: Vec<SessionId> = plans
        .iter()
        .map(|p| {
            manager
                .create_session(p.config.clone())
                .expect("durable create")
        })
        .collect();
    let phase_start = Instant::now();
    let latencies = fan_out(&ids, params.sessions_per_thread, |lo, chunk| {
        let mut lat = Vec::new();
        for (i, &id) in (lo..).zip(chunk) {
            drive_session(&manager, universe, id, &plans[i].goal, &mut lat);
        }
        lat
    });
    // The batch the group-commit quota had not yet synced is part of the
    // workload's durability cost: flush inside the timed region so ops/s
    // stays honest.
    manager.flush_wal().expect("wal flush");
    (
        phase(name, phase_start.elapsed(), latencies.concat()),
        manager,
    )
}

/// Runs the durability phase (see the module docs). `in_memory` is the
/// in-memory interactive phase's report — the overhead baseline.
fn durability_phase(
    params: &ThroughputParams,
    universe: &Arc<Universe>,
    plans: &[SessionPlan],
    in_memory: &Json,
) -> Json {
    let root =
        std::env::temp_dir().join(format!("jqi-throughput-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Group commit — the recommended configuration, and the directory the
    // recovery measurement uses.
    let group_dir = root.join("group");
    let (wal_group, manager) = durable_drive(
        "wal_group",
        params,
        universe,
        plans,
        &group_dir,
        GROUP_EVERY,
    );
    // Park and spill the whole fleet so recovery exercises segment reads
    // and WAL replay together, then "crash" (drop without ceremony — the
    // data is already synced, which is the point).
    manager
        .hibernate_idle(Duration::ZERO)
        .expect("park the fleet");
    manager.sweep().expect("spill the fleet");
    let stats = manager.stats();
    let wal_stats = stats.durability.expect("durable manager has wal stats");
    drop(manager);

    let recover_start = Instant::now();
    let (recovered, recovery_report) =
        fleet_manager(params, universe, Some((&group_dir, GROUP_EVERY)));
    let elapsed_ms = recover_start.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(recovery_report.sessions, plans.len());
    drop(recovered);

    // fsync per record — the cost ceiling.
    let (wal_sync, sync_manager) =
        durable_drive("wal_sync", params, universe, plans, &root.join("sync"), 1);
    drop(sync_manager);
    let _ = std::fs::remove_dir_all(&root);

    let overhead = |phase: &Json| f64_at(in_memory, "ops_per_sec") / f64_at(phase, "ops_per_sec");
    let (overhead_group_x, overhead_sync_x) = (overhead(&wal_group), overhead(&wal_sync));
    let recovery = Json::Obj(vec![
        num("sessions", recovery_report.sessions as f64),
        num("spilled", recovery_report.spilled as f64),
        num("wal_records", recovery_report.wal_records as f64),
        num("elapsed_ms", elapsed_ms),
        num(
            "sessions_per_sec",
            recovery_report.sessions as f64 / (elapsed_ms / 1000.0),
        ),
    ]);
    Json::Obj(vec![
        num("sessions", plans.len() as f64),
        num("in_memory_mean_us", f64_at(in_memory, "latency.mean_us")),
        field("wal_group", wal_group),
        field("wal_sync", wal_sync),
        num("overhead_group_x", overhead_group_x),
        num("overhead_sync_x", overhead_sync_x),
        num("wal_records", wal_stats.wal_records as f64),
        num("wal_syncs", wal_stats.wal_syncs as f64),
        num("wal_bytes", wal_stats.wal_appended_bytes as f64),
        field("recovery", recovery),
    ])
}

/// Drives the cold and warm fleets of the fleet phase (see the module
/// docs): same TPC-H workload, same strategy, the only difference being
/// the universe's decision-cache budget.
fn fleet_phase(tiny: bool, seed: u64) -> Json {
    use jqi_datagen::tpch::{workload, TpchJoin, TpchScale};
    let strategy = StrategyConfig::Lks { depth: 2 };
    let (cold_n, warm_n) = if tiny { (4, 16) } else { (32, 1024) };
    let workload = workload(TpchScale::Small, TpchJoin::Join4, seed);
    let warm_universe = Arc::new(Universe::build(workload.instance));
    // The cold universe is the warm one cloned (identical class ids;
    // cloning resets the cache) with caching disabled — no second
    // profile-dedup + closure build.
    let cold_universe = Arc::new((*warm_universe).clone().with_decision_cache_budget(0));
    let first_questions = |universe: &Arc<Universe>, n: usize| -> Vec<u64> {
        let manager = SessionManager::new(Arc::clone(universe), ServerConfig::default());
        let ids: Vec<u64> = (0..n)
            .map(|_| manager.create_session(strategy.clone()).expect("in-memory"))
            .collect();
        ids.iter()
            .map(|&id| {
                let t0 = Instant::now();
                let q = manager.next_question(id).expect("live session");
                assert!(q.is_some(), "the tpch fleet must have a first question");
                t0.elapsed().as_nanos() as u64
            })
            .collect()
    };
    let cold_first_question = LatencySummary::of(first_questions(&cold_universe, cold_n));
    let warm_first_question = LatencySummary::of(first_questions(&warm_universe, warm_n));
    Json::Obj(vec![
        field(
            "instance",
            Json::str(format!("tpch {} {}", TpchScale::Small, TpchJoin::Join4)),
        ),
        field("strategy", Json::str(strategy.to_string())),
        num("cold_sessions", cold_n as f64),
        num("warm_sessions", warm_n as f64),
        field("cold_first_question", cold_first_question.json()),
        field("warm_first_question", warm_first_question.json()),
        num(
            "warm_speedup",
            cold_first_question.mean_us / warm_first_question.mean_us,
        ),
        field(
            "decision_cache",
            cache_json(&warm_universe.decision_cache_stats()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{at, ci_baseline, leaf_paths};

    #[test]
    fn tiny_run_reports_all_phases() {
        let report = run(true, ThroughputParams::default());
        let n = |path: &str| f64_at(&report, path);
        let tiny = ThroughputParams::tiny();
        let sessions = (tiny.threads * tiny.sessions_per_thread) as f64;
        assert_eq!(n("concurrent_sessions"), sessions);
        let phases: Vec<&str> = arr_at(&report, "phases")
            .iter()
            .map(|p| str_at(p, "phase"))
            .collect();
        assert_eq!(phases, ["interactive", "batch", "snapshot", "restore"]);
        assert!(n("total_answers") >= n("concurrent_sessions"));
        for phase in arr_at(&report, "phases") {
            let n = |path: &str| f64_at(phase, path);
            assert!(n("latency.count") > 0.0);
            assert!(n("latency.p50_us") <= n("latency.p95_us"));
            assert!(n("latency.p95_us") <= n("latency.max_us"));
        }
        // Per-session memory was sampled while all sessions were live.
        assert_eq!(n("session_memory.sessions"), sessions);
        assert_eq!(n("session_memory.resident_sessions"), sessions);
        assert!(n("session_memory.state_bytes_total") > 0.0);
        assert!(
            n("session_memory.state_bytes_per_session") <= 200.0,
            "session state ballooned: {} B/session",
            n("session_memory.state_bytes_per_session")
        );
        // The interactive mix contains deterministic strategies, so the
        // shared decision cache saw traffic and stayed inside its budget.
        assert!(
            n("session_memory.decision_cache.hits") + n("session_memory.decision_cache.misses")
                > 0.0
        );
        assert!(
            n("session_memory.decision_cache.bytes")
                <= n("session_memory.decision_cache.budget_bytes")
        );
        // Fleet phase: the warm fleet must beat the cold one (the real
        // margin — ≥5× — is asserted on the committed full-size run, not
        // here, where debug builds and CI noise would make it flaky).
        assert_eq!(n("fleet.cold_sessions"), 4.0);
        assert_eq!(n("fleet.warm_sessions"), 16.0);
        assert!(n("fleet.decision_cache.hits") >= n("fleet.warm_sessions") - 1.0);
        assert!(
            n("fleet.warm_speedup") > 1.0,
            "warm fleet not faster than cold: {}",
            n("fleet.warm_speedup")
        );
        assert!(n("fleet.decision_cache.bytes") <= n("fleet.decision_cache.budget_bytes"));
        // Hibernate phase: everything parked, parked sessions at most half
        // the resident footprint, and every wake measured.
        assert_eq!(n("hibernate.parked"), sessions);
        assert_eq!(n("hibernate.wake.count"), sessions);
        assert!(
            n("hibernate.hibernated_bytes_per_session") * 2.0
                <= n("hibernate.resident_bytes_per_session"),
            "parked sessions not at most half the resident bytes: {} vs {}",
            n("hibernate.hibernated_bytes_per_session"),
            n("hibernate.resident_bytes_per_session")
        );
        // Restore latencies are bucketed by history length and cover every
        // session.
        let buckets = arr_at(&report, "restore_vs_history");
        let restored: f64 = buckets.iter().map(|b| f64_at(b, "count")).sum();
        assert_eq!(restored, n("concurrent_sessions"));
        assert!(buckets
            .windows(2)
            .all(|w| f64_at(&w[0], "history_len") < f64_at(&w[1], "history_len")));
        // Durability phase: both WAL configurations drove the full fleet,
        // overheads are real ratios, and recovery brought everyone back.
        assert_eq!(n("durability.sessions"), sessions);
        assert!(n("durability.wal_group.latency.count") >= n("concurrent_sessions"));
        assert!(n("durability.wal_sync.latency.count") >= n("concurrent_sessions"));
        assert!(n("durability.overhead_group_x") > 0.0 && n("durability.overhead_sync_x") > 0.0);
        for counter in ["wal_records", "wal_syncs", "wal_bytes"] {
            assert!(n(&format!("durability.{counter}")) > 0.0, "{counter}");
        }
        assert_eq!(n("durability.recovery.sessions"), sessions);
        assert!(
            n("durability.recovery.spilled") > 0.0,
            "zero watermark must spill the fleet"
        );
        assert!(n("durability.recovery.wal_records") > 0.0);
        assert!(n("durability.recovery.sessions_per_sec") > 0.0);
        // Transport phase: every session ran its whole lifecycle over a
        // live HTTP connection, all connections were observed open at
        // once, and the wire stayed clean.
        assert_eq!(n("transport.sessions"), sessions);
        assert_eq!(n("transport.open_connections_peak"), sessions);
        assert_eq!(n("transport.restored"), sessions);
        assert_eq!(n("transport.protocol_errors"), 0.0);
        // create + snapshot + restore per session, plus at least one
        // question round-trip each.
        assert!(n("transport.requests") >= 4.0 * n("transport.sessions"));
        assert_eq!(
            n("transport.request_latency.count"),
            n("transport.requests")
        );
        assert!(n("transport.requests_per_sec") > 0.0);
        // Overload phase: both outcomes occurred, nothing wedged, the
        // wire stayed clean, and sheds were fast even in a debug build.
        let o = at(&report, "overload").expect("overload block");
        let n = |path: &str| f64_at(o, path);
        assert_eq!(n("clients"), 8.0);
        assert_eq!(n("offered"), n("accepted") + n("shed"));
        assert!(n("accepted") > 0.0 && n("shed") > 0.0, "{o:?}");
        assert!(
            n("shed") >= 25.0 || n("offered") >= n("clients") * 160.0,
            "{o:?}"
        );
        assert_eq!(n("client_errors"), 0.0, "{o:?}");
        assert_eq!(n("protocol_errors"), 0.0, "{o:?}");
        assert_eq!(n("wedged"), 0.0, "{o:?}");
        assert!(n("faults_injected") >= 2.0, "{o:?}");
        assert!(n("goodput_per_sec") > 0.0);
        assert!(
            n("shed_latency.mean_us") < 5_000.0,
            "sheds must be fast even in debug: {o:?}"
        );
        // The report's schema is the committed baseline's, key for key and
        // in document order: `bench_guard` reads the fresh report by the
        // baseline's keys.
        assert_eq!(
            leaf_paths(&report),
            leaf_paths(&ci_baseline("bench_baseline_server.json")),
            "report schema differs from ci/bench_baseline_server.json"
        );
        // Every line of the text table renders.
        let table = table(&report);
        for line in [
            "fleet (",
            "hibernate:",
            "durability:",
            "transport:",
            "overload:",
        ] {
            assert!(table.contains(line), "table lacks {line}\n{table}");
        }
    }
}
