//! Property test: a migrated fleet equals a replayed one.
//!
//! `SessionManager::apply_delta` carries sessions over to the post-delta
//! universe by the cheapest sound path: over a count-only delta (every
//! class signature in place) resident sessions keep their masks and
//! parked ones are not touched at all; over a structural delta every
//! session is remapped by signature and replayed. Whatever path ran, each
//! surviving session must be indistinguishable from the oracle —
//! `Session::replay` on the new universe of the session's pre-delta
//! identity (strategy, history, pending question) remapped by signature:
//! same history, pending class, interaction count, θ bounds and next
//! question. And after every delta, recovering the durable log from the
//! base universe (re-applying each logged delta) must give that same
//! fleet.
//!
//! Fleets mix the three tiers (resident, hibernated, spilled) on a
//! durable manager over in-memory storage, and the delta schedule mixes
//! count-only edits (a duplicate row inserted, or one copy of a
//! duplicated row deleted) with structural ones (a fresh row inserted, or
//! a row deleted outright).

mod common;

use common::{live_universe, oracle_label, random_delta, strategy_mix, Rng, Rows};
use jqi_core::{ClassId, Label, Session, Universe};
use jqi_relation::BitSet;
use jqi_server::durability::{MemSegments, MemWal};
use jqi_server::{
    DurabilityConfig, MigrationReport, ServerConfig, ServerError, SessionManager, SessionSnapshot,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Up to `steps` question/answer rounds, optionally leaving one more
/// question outstanding.
fn advance(m: &SessionManager, id: u64, goal: &BitSet, steps: usize, leave_pending: bool) {
    let universe = m.universe();
    for _ in 0..steps {
        let Some(q) = m.next_question(id).expect("live session") else {
            return;
        };
        m.answer(id, q.class, oracle_label(&universe, goal, q.class))
            .expect("consistent");
    }
    if leave_pending {
        m.next_question(id).expect("live session");
    }
}

/// Re-tiers the fleet at random: some sessions spill (hibernate, then a
/// sweep at a zero watermark spills every parked session), some stay
/// hibernated, the rest stay resident.
fn shuffle_tiers(rng: &mut Rng, m: &SessionManager, ids: &[u64]) {
    let spill: Vec<u64> = ids.iter().copied().filter(|_| rng.chance(30)).collect();
    for &id in &spill {
        m.hibernate(id).expect("live session");
    }
    m.sweep().expect("in-memory storage");
    for &id in ids {
        if !spill.contains(&id) && rng.chance(40) {
            m.hibernate(id).expect("live session");
        }
    }
}

fn recover(base: &Arc<Universe>, wal: &MemWal, segments: &MemSegments) -> SessionManager {
    SessionManager::recover_with_storage(
        Arc::clone(base),
        ServerConfig::default(),
        durability(),
        Box::new(MemWal::from_bytes(wal.durable_image())),
        Box::new(segments.clone()),
    )
    .expect("the log recovers from the base universe")
    .0
}

fn durability() -> DurabilityConfig {
    DurabilityConfig {
        group_commit_every: 4,
        resident_watermark_bytes: Some(0),
        segment_max_bytes: 512,
    }
}

/// The oracle: `snapshot`'s pre-delta identity remapped by signature onto
/// `post` and replayed from scratch; `None` if it no longer replays.
fn replayed(pre: &Universe, post: &Arc<Universe>, snapshot: &SessionSnapshot) -> Option<Session> {
    let remap = |c: ClassId| post.class_for_signature(pre.sig(c));
    let history: Vec<(ClassId, Label)> = snapshot
        .history
        .iter()
        .filter_map(|&(c, label)| Some((remap(c)?, label)))
        .collect();
    let pending = snapshot.pending.and_then(remap);
    Session::replay(Arc::clone(post), &snapshot.strategy, &history, pending).ok()
}

fn check_migration(
    report: &MigrationReport,
    m: &SessionManager,
    pre: &Universe,
    post: &Arc<Universe>,
    before: &BTreeMap<u64, SessionSnapshot>,
    expected: &mut BTreeMap<u64, Session>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(report.sessions, before.len());
    prop_assert_eq!(
        report.carried + report.replayed + report.invalidated.len(),
        report.sessions
    );
    prop_assert_eq!(report.to_epoch, post.epoch());
    prop_assert_eq!(report.to_fingerprint, post.fingerprint());
    if pre.same_classes(post) {
        prop_assert_eq!(report.replayed, 0, "count-only deltas replay nothing");
        prop_assert_eq!(report.dropped_labels, 0);
    }
    for (&id, snapshot) in before {
        let Some(oracle) = replayed(pre, post, snapshot) else {
            prop_assert!(
                report.invalidated.contains(&id),
                "session {} must be invalidated",
                id
            );
            prop_assert!(matches!(
                m.interactions(id),
                Err(ServerError::UnknownSession(_))
            ));
            continue;
        };
        prop_assert!(!report.invalidated.contains(&id));
        let now = m.snapshot(id).expect("surviving session");
        prop_assert_eq!(&now.strategy, &snapshot.strategy);
        prop_assert_eq!(
            now.history.as_slice(),
            oracle.history(),
            "history of {}",
            id
        );
        prop_assert_eq!(now.pending, oracle.pending_class(), "pending of {}", id);
        prop_assert_eq!(m.interactions(id).expect("live"), oracle.interactions());
        prop_assert_eq!(
            m.inferred_predicate(id).expect("live"),
            oracle.inferred_predicate()
        );
        let rebuilt = Session::replay(Arc::clone(post), &now.strategy, &now.history, now.pending)
            .expect("a served session replays");
        prop_assert_eq!(
            rebuilt.state().interval(),
            oracle.state().interval(),
            "θ bounds of {}",
            id
        );
        expected.insert(id, oracle);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn migrated_fleet_equals_the_replayed_fleet(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed);
        let mut rows = Rows::random(&mut rng);
        let mut universe = live_universe(&rows);
        let base = Arc::clone(&universe);
        let wal = MemWal::new();
        let segments = MemSegments::new();
        let (m, _) = SessionManager::recover_with_storage(
            Arc::clone(&universe),
            ServerConfig { shards: 3, hibernate_ttl: None },
            durability(),
            Box::new(wal.clone()),
            Box::new(segments.clone()),
        )
        .expect("fresh durable fleet");

        let n = 6 + rng.below(9);
        let mut goals: BTreeMap<u64, BitSet> = BTreeMap::new();
        for i in 0..n {
            let id = m.create_session(strategy_mix(i, seed)).expect("create");
            let goal = universe.sig(rng.below(universe.num_classes())).clone();
            advance(&m, id, &goal, rng.below(4), rng.chance(50));
            goals.insert(id, goal);
        }
        let ids: Vec<u64> = goals.keys().copied().collect();
        shuffle_tiers(&mut rng, &m, &ids);

        for _ in 0..4 {
            let ids: Vec<u64> = goals.keys().copied().collect();
            let before: BTreeMap<u64, SessionSnapshot> = ids
                .iter()
                .map(|&id| (id, m.snapshot(id).expect("live")))
                .collect();
            let stats_before = m.stats();
            let count_only = rng.chance(60);
            let delta = random_delta(&mut rng, &universe, &mut rows, count_only);
            let report = m.apply_delta(&delta).expect("valid delta");
            // The migration re-counts the slots it visits: the gauges
            // agree with a fresh walk whatever path each session took.
            prop_assert_eq!(m.stats(), m.stats_by_walk());
            let post = m.universe();
            if count_only {
                prop_assert!(universe.same_classes(&post), "duplicate edits keep every class");
                prop_assert_eq!(report.carried, ids.len());
                // Every session stays in its tier, and no spilled payload
                // is read.
                let stats = m.stats();
                prop_assert_eq!(stats.resident_sessions, stats_before.resident_sessions);
                prop_assert_eq!(stats.hibernated_sessions, stats_before.hibernated_sessions);
                prop_assert_eq!(stats.spilled_sessions, stats_before.spilled_sessions);
                prop_assert_eq!(
                    stats.durability.map(|d| d.spill_reads),
                    stats_before.durability.map(|d| d.spill_reads)
                );
            }
            let mut expected = BTreeMap::new();
            check_migration(&report, &m, &universe, &post, &before, &mut expected)?;
            for id in &report.invalidated {
                goals.remove(id);
            }

            // The log, replayed from the base universe, recovers the same
            // universe and the same fleet.
            let r = recover(&base, &wal, &segments);
            prop_assert_eq!(r.universe_fingerprint(), post.fingerprint());
            prop_assert_eq!(r.session_count(), expected.len());
            for &id in expected.keys() {
                prop_assert_eq!(m.snapshot(id).expect("live"), r.snapshot(id).expect("recovered"));
                prop_assert_eq!(m.interactions(id).expect("live"), r.interactions(id).expect("recovered"));
                prop_assert_eq!(
                    m.inferred_predicate(id).expect("live"),
                    r.inferred_predicate(id).expect("recovered")
                );
            }
            drop(r);

            // Same next question as the replayed oracle.
            for (&id, oracle) in expected.iter_mut() {
                let want = match oracle.pending_candidate() {
                    Some(c) => Some(c),
                    None => oracle.next().expect("oracle session"),
                };
                prop_assert_eq!(m.next_question(id).expect("live"), want, "next question of {}", id);
            }

            universe = post;
            for (&id, goal) in &goals {
                advance(&m, id, goal, rng.below(3), rng.chance(50));
            }
            let ids: Vec<u64> = goals.keys().copied().collect();
            shuffle_tiers(&mut rng, &m, &ids);
        }
    }
}
