//! Concurrency tests: many threads creating, answering, snapshotting and
//! dropping sessions over one shared `Arc<Universe>`, with every inferred
//! predicate checked against a single-threaded replay.

mod common;

use common::oracle_label;
use jqi_core::session::Session;
use jqi_core::{ClassId, Label, StrategyConfig, Universe};
use jqi_datagen::SyntheticConfig;
use jqi_relation::BitSet;
use jqi_server::{ServerConfig, SessionManager, SessionSnapshot};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

/// The strategy mix the concurrency tests cycle through — heterogeneous on
/// purpose: the session table holds them all behind one `DynStrategy`.
fn strategy_mix(i: usize) -> StrategyConfig {
    match i % 5 {
        0 => StrategyConfig::Bu,
        1 => StrategyConfig::Td,
        2 => StrategyConfig::Lks { depth: 1 },
        3 => StrategyConfig::Lks { depth: 2 },
        _ => StrategyConfig::Rnd { seed: i as u64 },
    }
}

fn goals(universe: &Universe, take: usize) -> Vec<BitSet> {
    jqi_core::lattice::non_nullable_predicates(universe, 100_000)
        .expect("small lattice")
        .into_iter()
        .cycle()
        .take(take)
        .collect()
}

/// Drives a borrowing single-threaded session to completion — the
/// reference every concurrent session is compared against.
fn single_threaded_reference(
    universe: &Universe,
    config: &StrategyConfig,
    goal: &BitSet,
) -> (BitSet, Vec<(ClassId, Label)>) {
    let mut session = Session::new(universe, config.build());
    while let Some(q) = session.next().expect("strategies do not fail") {
        session
            .answer(oracle_label(universe, goal, q.class))
            .expect("goal oracles are consistent");
    }
    (session.inferred_predicate(), session.history().to_vec())
}

#[test]
fn many_threads_many_sessions_match_single_threaded_replays() {
    let universe = Arc::new(Universe::build(
        SyntheticConfig::new(2, 3, 14, 6).generate(11),
    ));
    let manager = Arc::new(SessionManager::new(
        Arc::clone(&universe),
        ServerConfig {
            shards: 4,
            ..ServerConfig::default()
        },
    ));
    const THREADS: usize = 8;
    const SESSIONS_PER_THREAD: usize = 8;
    let goals = goals(&universe, THREADS * SESSIONS_PER_THREAD);

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let manager = Arc::clone(&manager);
            let universe = Arc::clone(&universe);
            let goals = goals.clone();
            thread::spawn(move || {
                let mut outcomes = Vec::new();
                for s in 0..SESSIONS_PER_THREAD {
                    let i = t * SESSIONS_PER_THREAD + s;
                    let config = strategy_mix(i);
                    let goal = goals[i].clone();
                    let id = manager.create_session(config.clone()).expect("in-memory");
                    while let Some(q) = manager.next_question(id).expect("live session") {
                        let label = oracle_label(&universe, &goal, q.class);
                        manager.answer(id, q.class, label).expect("consistent");
                    }
                    let theta = manager.inferred_predicate(id).expect("live session");
                    let snap = manager.snapshot(id).expect("live session");
                    outcomes.push((config, goal, theta, snap.history));
                }
                outcomes
            })
        })
        .collect();

    let mut total = 0usize;
    for handle in handles {
        for (config, goal, theta, history) in handle.join().expect("no panics") {
            let (ref_theta, ref_history) = single_threaded_reference(&universe, &config, &goal);
            assert_eq!(theta, ref_theta, "θ diverged for {config}");
            assert_eq!(history, ref_history, "history diverged for {config}");
            total += 1;
        }
    }
    assert_eq!(total, THREADS * SESSIONS_PER_THREAD);
    assert_eq!(manager.session_count(), total);
}

/// Several workers hammer the *same* session: questions are re-delivered
/// idempotently, duplicate answers are no-ops, and the outcome is exactly
/// the single-threaded run.
#[test]
fn concurrent_workers_on_one_session_agree_with_the_reference() {
    let universe = Arc::new(Universe::build(
        SyntheticConfig::new(2, 2, 12, 5).generate(3),
    ));
    let goal = goals(&universe, 1).remove(0);
    let config = StrategyConfig::Lks { depth: 1 };
    let manager = Arc::new(SessionManager::new(
        Arc::clone(&universe),
        ServerConfig::default(),
    ));
    let id = manager.create_session(config.clone()).expect("in-memory");

    let handles: Vec<_> = (0..6)
        .map(|_| {
            let manager = Arc::clone(&manager);
            let universe = Arc::clone(&universe);
            let goal = goal.clone();
            thread::spawn(move || loop {
                match manager.next_question(id).expect("live session") {
                    None => break,
                    Some(q) => {
                        let label = oracle_label(&universe, &goal, q.class);
                        // Racing duplicates of the same answer are fine.
                        manager.answer(id, q.class, label).expect("no conflicts");
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("no panics");
    }

    let (ref_theta, ref_history) = single_threaded_reference(&universe, &config, &goal);
    assert_eq!(manager.inferred_predicate(id).unwrap(), ref_theta);
    assert_eq!(manager.snapshot(id).unwrap().history, ref_history);
    assert!(manager.is_done(id).unwrap());
}

/// Batched, out-of-order answering: a whole crowdsourcing round folded in
/// per call still reaches an instance-equivalent predicate.
#[test]
fn batched_answers_reach_equivalent_predicates() {
    let universe = Arc::new(Universe::build(
        SyntheticConfig::new(2, 3, 14, 6).generate(7),
    ));
    let manager = Arc::new(SessionManager::new(
        Arc::clone(&universe),
        ServerConfig::default(),
    ));
    let goals = goals(&universe, 8);
    let handles: Vec<_> = goals
        .into_iter()
        .map(|goal| {
            let manager = Arc::clone(&manager);
            let universe = Arc::clone(&universe);
            thread::spawn(move || {
                let id = manager
                    .create_session(StrategyConfig::Bu)
                    .expect("in-memory");
                loop {
                    // Gather a "round" of up to 3 outstanding questions by
                    // labeling classes straight from the goal oracle —
                    // answers the strategy never asked for, out of order.
                    let mut batch: Vec<(ClassId, Label)> = Vec::new();
                    match manager.next_question(id).expect("live") {
                        None => break,
                        Some(q) => {
                            batch.push((q.class, oracle_label(&universe, &goal, q.class)));
                        }
                    }
                    for c in (0..universe.num_classes()).rev().take(2) {
                        batch.push((c, oracle_label(&universe, &goal, c)));
                    }
                    manager.answer_batch(id, &batch).expect("consistent batch");
                }
                let theta = manager.inferred_predicate(id).expect("live");
                assert_eq!(
                    universe.instance().equijoin(&theta),
                    universe.instance().equijoin(&goal),
                    "batched inference missed the goal"
                );
                manager.remove(id).expect("live");
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("no panics");
    }
    assert_eq!(manager.session_count(), 0);
}

/// Create/answer/snapshot/drop churn from many threads leaves the table
/// consistent and empty.
#[test]
fn churn_leaves_an_empty_consistent_table() {
    let universe = Arc::new(Universe::build(
        SyntheticConfig::new(2, 2, 10, 4).generate(1),
    ));
    let manager = Arc::new(SessionManager::new(
        Arc::clone(&universe),
        ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        },
    ));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let manager = Arc::clone(&manager);
            let universe = Arc::clone(&universe);
            thread::spawn(move || {
                for round in 0..20 {
                    let id = manager
                        .create_session(strategy_mix(t + round))
                        .expect("in-memory");
                    if let Some(q) = manager.next_question(id).expect("live") {
                        manager.answer(id, q.class, Label::Negative).expect("ok");
                        let snap = manager.snapshot(id).expect("live");
                        assert_eq!(snap.history.len(), 1);
                        // Round-trip through JSON while the session lives.
                        let json = snap.to_json_string();
                        assert_eq!(SessionSnapshot::from_json(&json).unwrap(), snap);
                    }
                    let _ = universe.num_classes();
                    manager.remove(id).expect("live");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("no panics");
    }
    assert_eq!(manager.session_count(), 0);
}

/// Every answers response describes one session state: the `applied`
/// count and the `interactions` it reports come from the same locked
/// call. Four workers answer disjoint classes of each session through the
/// gateway, one label per batch, so every class is applied exactly once;
/// if the count were read in a second call, a racing answer could land in
/// between and two responses would report the same `interactions`.
#[test]
fn every_applied_answer_response_reports_its_own_state() {
    use jqi_net::{Handler, Request};
    use jqi_server::json::Json;
    use jqi_server::{Gateway, UniverseRegistry};

    let universe = Arc::new(Universe::build(
        SyntheticConfig::new(2, 3, 14, 6).generate(11),
    ));
    let classes = universe.num_classes();
    let manager = Arc::new(SessionManager::new(
        Arc::clone(&universe),
        ServerConfig::default(),
    ));
    const SESSIONS: usize = 2000;
    const WORKERS: usize = 4;
    let goals = goals(&universe, SESSIONS);
    let sessions: Vec<u64> = (0..SESSIONS)
        .map(|_| {
            manager
                .create_session(StrategyConfig::Bu)
                .expect("in-memory")
        })
        .collect();
    let registry = Arc::new(UniverseRegistry::new());
    registry.register("u", manager).expect("fresh registry");
    let gateway = Arc::new(Gateway::new(registry));
    // Lines the workers up on each session, so their answers race.
    let barrier = Arc::new(std::sync::Barrier::new(WORKERS));

    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let gateway = Arc::clone(&gateway);
            let barrier = Arc::clone(&barrier);
            let universe = Arc::clone(&universe);
            let goals = goals.clone();
            let sessions = sessions.clone();
            thread::spawn(move || {
                // (session index, reported interactions) per applied answer.
                let mut applied = Vec::new();
                for (i, &sid) in sessions.iter().enumerate() {
                    barrier.wait();
                    for class in (w..classes).step_by(WORKERS) {
                        let label = match oracle_label(&universe, &goals[i], class) {
                            Label::Positive => "+",
                            Label::Negative => "-",
                        };
                        let request = Request {
                            method: "POST".into(),
                            path: format!("/v1/universes/u/sessions/{sid}/answers"),
                            headers: vec![],
                            body: format!(
                                "{{\"answers\": [{{\"class\": {class}, \"label\": \"{label}\"}}]}}"
                            )
                            .into_bytes(),
                            close: false,
                            deadline: None,
                        };
                        let response = gateway.handle(&request);
                        assert_eq!(response.status, 200);
                        let doc = Json::parse(std::str::from_utf8(&response.body).unwrap())
                            .expect("JSON body");
                        let field = |key: &str| doc.get(key).and_then(Json::as_num).unwrap();
                        if field("applied") == 1.0 {
                            applied.push((i, field("interactions") as usize));
                        }
                    }
                }
                applied
            })
        })
        .collect();
    let mut reported = vec![Vec::new(); SESSIONS];
    for handle in handles {
        for (i, interactions) in handle.join().expect("no panics") {
            reported[i].push(interactions);
        }
    }
    let mut duplicates = 0;
    for counts in &mut reported {
        counts.sort_unstable();
        let before = counts.len();
        counts.dedup();
        duplicates += before - counts.len();
    }
    assert_eq!(
        duplicates, 0,
        "{duplicates} applied answers reported an interactions count another response also reported"
    );
    for counts in &reported {
        assert_eq!(*counts, (1..=classes).collect::<Vec<_>>());
    }
}

/// A create response names the universe its session was created on, even
/// while deltas land between creates. No session is ever removed, so a
/// migration that saw `n` sessions ran after the creates of ids `0..n`
/// and before every later one: the migration reports alone say which
/// universe each session was created on.
#[test]
fn create_responses_name_the_universe_the_session_was_created_on() {
    use jqi_net::{Handler, Request};
    use jqi_server::json::Json;
    use jqi_server::{Gateway, UniverseRegistry};

    let mut rng = common::Rng(7);
    let mut rows = common::Rows::random(&mut rng);
    let universe = common::live_universe(&rows);
    let manager = Arc::new(SessionManager::new(
        Arc::clone(&universe),
        ServerConfig::default(),
    ));
    let registry = Arc::new(UniverseRegistry::new());
    registry
        .register("u", Arc::clone(&manager))
        .expect("fresh registry");
    let gateway = Gateway::new(registry);
    // At least this many creates, and creating until at least this many
    // deltas have landed among them.
    const CREATES: usize = 300;
    const DELTAS: usize = 100;
    let started = Barrier::new(2);
    let creating = AtomicBool::new(true);
    let applied = AtomicUsize::new(0);
    let (created, migrations) = thread::scope(|scope| {
        let deltas = scope.spawn(|| {
            started.wait();
            let mut reports = Vec::new();
            while creating.load(Ordering::Relaxed) {
                let delta = common::random_delta(&mut rng, &manager.universe(), &mut rows, true);
                reports.push(manager.apply_delta(&delta).expect("count-only delta"));
                applied.fetch_add(1, Ordering::Relaxed);
            }
            reports
        });
        started.wait();
        let mut created: Vec<(usize, String)> = Vec::new();
        while created.len() < CREATES || applied.load(Ordering::Relaxed) < DELTAS {
            let response = gateway.handle(&Request {
                method: "POST".into(),
                path: "/v1/universes/u/sessions".into(),
                headers: vec![],
                body: br#"{"strategy": "BU"}"#.to_vec(),
                close: false,
                deadline: None,
            });
            assert_eq!(response.status, 201);
            let doc = Json::parse(std::str::from_utf8(&response.body).unwrap()).expect("JSON body");
            let id = doc.get("session").and_then(Json::as_num).unwrap() as usize;
            let reported = doc.get("universe").and_then(Json::as_str).unwrap();
            created.push((id, reported.to_string()));
        }
        creating.store(false, Ordering::Relaxed);
        (created, deltas.join().expect("no panics"))
    });
    let mut fingerprints = vec![universe.fingerprint()];
    fingerprints.extend(migrations.iter().map(|r| r.to_fingerprint));
    let mislabeled = created
        .iter()
        .filter(|(id, reported)| {
            let epoch = migrations.iter().filter(|r| r.sessions <= *id).count();
            *reported != format!("{:016x}", fingerprints[epoch])
        })
        .count();
    assert_eq!(
        mislabeled,
        0,
        "{mislabeled} of {} create responses named a universe their session was not created on",
        created.len()
    );
}

/// Four workers answer, park and delete the same sessions while a fifth
/// polls `stats()`. A request still holding a deleted session's handle
/// finishes against it without counting it again, so once the workers
/// are done the O(1) gauges equal a fresh walk of the table.
#[test]
fn stats_gauges_hold_through_racing_answers_parks_and_deletes() {
    let universe = Arc::new(Universe::build(
        SyntheticConfig::new(2, 3, 14, 6).generate(11),
    ));
    let manager = SessionManager::new(
        Arc::clone(&universe),
        ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        },
    );
    const SESSIONS: usize = 2000;
    const WORKERS: usize = 4;
    let goals = goals(&universe, SESSIONS);
    let sessions: Vec<u64> = (0..SESSIONS)
        .map(|i| {
            manager
                .create_session(common::strategy_mix(i, 7))
                .expect("in-memory")
        })
        .collect();
    // Lines the workers up on each session, so their operations race.
    let barrier = Barrier::new(WORKERS);
    let working = AtomicBool::new(true);
    thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut polls = 0usize;
            while working.load(Ordering::Relaxed) {
                let stats = manager.stats();
                // A gauge taken below zero would wrap past the fleet size.
                assert!(stats.sessions <= SESSIONS, "{stats:?}");
                assert!(stats.resident_sessions + stats.hibernated_sessions <= 2 * SESSIONS);
                polls += 1;
            }
            polls
        });
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (manager, barrier, universe) = (&manager, &barrier, &universe);
                let (goals, sessions) = (&goals, &sessions);
                scope.spawn(move || {
                    for (i, &sid) in sessions.iter().enumerate() {
                        barrier.wait();
                        match (w + i) % WORKERS {
                            // Every other session is deleted mid-flight.
                            0 if i % 2 == 0 => {
                                // A head start for the others' lookups, so
                                // some still hold the handle when it goes.
                                thread::yield_now();
                                manager.remove(sid).expect("one remover per session");
                            }
                            1 => {
                                let _ = manager.hibernate(sid);
                            }
                            // Single-label batches on this worker's own
                            // classes: each one grows the history.
                            _ => {
                                for class in (w..universe.num_classes()).step_by(WORKERS).take(4) {
                                    let label = oracle_label(universe, &goals[i], class);
                                    let _ = manager.answer(sid, class, label);
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("no panics");
        }
        working.store(false, Ordering::Relaxed);
        assert!(poller.join().expect("no panics") > 0);
    });
    assert_eq!(manager.session_count(), SESSIONS / 2);
    assert_eq!(manager.stats(), manager.stats_by_walk());
}
