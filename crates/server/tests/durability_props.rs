//! Property test: scripted crashes × workloads. A fleet that loses its
//! process mid-write must recover to a state indistinguishable from one
//! that stopped cleanly at the same log prefix — or refuse loudly. Never
//! silent divergence.
//!
//! The crash is injected at the storage seam ([`MemWal`] with a
//! [`CrashScript`]): at a scripted append the write is dropped entirely,
//! torn mid-frame, or bit-flipped, and everything after it never reaches
//! the durable image — exactly the shapes a `kill -9` (or worse, bit rot)
//! leaves behind. The real-process variant lives in
//! `tests/crash_recovery.rs`.
//!
//! A live-data delta is one more WAL record, so its crash points get the
//! same treatment: a lost or torn `Delta` frame recovers the pre-delta
//! universe and fleet, a crash just after its commit recovers the
//! post-delta ones, a logged fingerprint that lies is refused, and a
//! delta whose record cannot be written changes nothing.

mod common;

use common::{live_universe, oracle_label, random_delta, strategy_mix, Rng, Rows};
use jqi_core::{ClassId, Label, Universe, UniverseDelta};
use jqi_datagen::SyntheticConfig;
use jqi_relation::{BitSet, Side, Tuple, Value};
use jqi_server::durability::codec::{frame, next_frame, FrameStep, FILE_HEADER_LEN};
use jqi_server::durability::{CrashScript, Damage, MemSegments, MemWal, WalRecord};
use jqi_server::{
    DurabilityConfig, DurabilityError, ServerConfig, ServerError, SessionManager, SessionSnapshot,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Drives `id` to completion, returning the final history and predicate.
fn drive(manager: &SessionManager, id: u64, goal: &BitSet) -> (Vec<(ClassId, Label)>, BitSet) {
    while let Some(q) = manager.next_question(id).expect("live session") {
        let label = oracle_label(&manager.universe(), goal, q.class);
        manager.answer(id, q.class, label).expect("consistent");
    }
    let history = manager.snapshot(id).expect("live session").history;
    let theta = manager.inferred_predicate(id).expect("live session");
    (history, theta)
}

fn durability() -> DurabilityConfig {
    DurabilityConfig {
        group_commit_every: 4,
        resident_watermark_bytes: Some(0),
        segment_max_bytes: 512,
    }
}

fn recover(
    universe: &Arc<Universe>,
    wal_bytes: Vec<u8>,
    segments: MemSegments,
) -> Result<SessionManager, DurabilityError> {
    SessionManager::recover_with_storage(
        Arc::clone(universe),
        ServerConfig::default(),
        durability(),
        Box::new(MemWal::from_bytes(wal_bytes)),
        Box::new(segments),
    )
    .map(|(m, _)| m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn crashed_fleet_recovers_to_a_clean_prefix_or_fails_loudly(
        instance_seed in 0u64..100,
        goal_base in 0usize..32,
        n_sessions in 1usize..4,
        crash_at in 0usize..48,
        damage_pick in 0usize..4,
        torn_keep in 0usize..16,
        flip_bit in 0u64..1_000_000,
        sweep_mask in 0u16..1024,
    ) {
        let universe = Arc::new(Universe::build(
            SyntheticConfig::new(2, 2, 10, 5).generate(instance_seed),
        ));
        let goals = jqi_core::lattice::non_nullable_predicates(&universe, 100_000)
            .expect("small lattice");
        prop_assume!(!goals.is_empty());
        let goal_of = |i: usize| goals[(goal_base + i) % goals.len()].clone();

        let damage = match damage_pick {
            0 => Damage::Lost,
            1 => Damage::Torn { keep: torn_keep },
            _ => Damage::BitFlip { bit: flip_bit },
        };
        let wal = MemWal::with_script(CrashScript { at_append: crash_at, damage });
        let segments = MemSegments::new();
        let (m, _) = SessionManager::recover_with_storage(
            Arc::clone(&universe),
            ServerConfig { shards: 3, ..ServerConfig::default() },
            durability(),
            Box::new(wal.clone()),
            Box::new(segments.clone()),
        ).expect("fresh durable fleet");

        // The workload: interleaved question/answer rounds across the
        // fleet, with hibernation sweeps (which, at a zero watermark,
        // spill everything parked) sprinkled in. The scripted crash fires
        // somewhere inside; the manager keeps running — writes after the
        // crash simply never reach the durable image, exactly as the
        // dying process's unflushed appends never reached disk.
        let ids: Vec<u64> = (0..n_sessions)
            .map(|i| m.create_session(strategy_mix(i, instance_seed)).expect("in-memory"))
            .collect();
        let mut round = 0usize;
        loop {
            let mut progressed = false;
            for (i, &id) in ids.iter().enumerate() {
                if let Some(q) = m.next_question(id).expect("live session") {
                    let label = oracle_label(&universe, &goal_of(i), q.class);
                    m.answer(id, q.class, label).expect("consistent");
                    progressed = true;
                }
            }
            m.flush_wal().expect("mem wal never errors");
            if sweep_mask >> (round % 10) & 1 == 1 {
                m.hibernate_idle(Duration::ZERO).expect("mem wal never errors");
                m.sweep().expect("mem segments never error");
            }
            round += 1;
            prop_assert!(round < 10_000, "runaway workload");
            if !progressed {
                break;
            }
        }
        drop(m);

        // The uninterrupted references: per-session full history + θ,
        // driven on a plain in-memory manager (strategies are
        // deterministic, sessions independent — interleaving is
        // irrelevant).
        let reference = SessionManager::new(Arc::clone(&universe), ServerConfig::default());
        let refs: Vec<(Vec<(ClassId, Label)>, BitSet)> = (0..n_sessions)
            .map(|i| {
                let id = reference
                    .create_session(strategy_mix(i, instance_seed))
                    .expect("in-memory");
                drive(&reference, id, &goal_of(i))
            })
            .collect();

        match recover(&universe, wal.durable_image(), segments.clone()) {
            Err(err) => {
                // Loud refusal is only legitimate for bit rot — a torn or
                // lost append is a clean-prefix crash and MUST recover.
                prop_assert!(
                    matches!(damage, Damage::BitFlip { .. }),
                    "recovery refused a {damage:?} crash: {err}"
                );
            }
            Ok(r) => {
                for (i, &id) in ids.iter().enumerate() {
                    let Ok(snap) = r.snapshot(id) else {
                        // The session's Create never reached the durable
                        // image — a clean prefix may simply not know it.
                        continue;
                    };
                    let (ref_history, ref_theta) = &refs[i];
                    // Recovered history is a *prefix* of the uninterrupted
                    // one: nothing invented, nothing reordered.
                    prop_assert!(
                        snap.history.len() <= ref_history.len()
                            && snap.history[..] == ref_history[..snap.history.len()],
                        "session {id}: recovered history diverges from the \
                         uninterrupted run at some index"
                    );
                    // And the recovered session, continued with the same
                    // oracle, is indistinguishable from never crashing:
                    // same question sequence from the cut, same final θ.
                    let (final_history, theta) = drive(&r, id, &goal_of(i));
                    prop_assert_eq!(&final_history, ref_history);
                    prop_assert_eq!(&theta, ref_theta);
                }
            }
        }

        // A torn append and a clean stop just before it are the same
        // crash: recovering the damaged image must equal recovering the
        // pristine prefix (when the script actually fired and recovery
        // accepts both).
        if wal.crashed() && matches!(damage, Damage::Lost | Damage::Torn { .. }) {
            let from_damaged = recover(&universe, wal.durable_image(), segments.clone());
            let from_prefix = recover(&universe, wal.pristine_prefix(crash_at), segments);
            let (damaged, prefix) = match (from_damaged, from_prefix) {
                (Ok(a), Ok(b)) => (a, b),
                (a, b) => {
                    prop_assert!(false, "clean-prefix crashes must recover: {:?} / {:?}", a.err(), b.err());
                    unreachable!()
                }
            };
            for &id in &ids {
                match (damaged.snapshot(id), prefix.snapshot(id)) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                    (Err(_), Err(_)) => {}
                    (a, b) => prop_assert!(
                        false,
                        "session {} known to one recovery but not the other: {:?} / {:?}",
                        id, a.is_ok(), b.is_ok()
                    ),
                }
            }
        }
    }
}

/// What a fleet looks like from outside: the served fingerprint and every
/// session's snapshot (which carries that fingerprint too).
#[derive(Debug, Clone, PartialEq)]
struct Fleet {
    fingerprint: u64,
    epoch: u64,
    sessions: BTreeMap<u64, SessionSnapshot>,
}

fn fleet(m: &SessionManager, ids: &[u64]) -> Fleet {
    Fleet {
        fingerprint: m.universe_fingerprint(),
        epoch: m.universe().epoch(),
        sessions: ids
            .iter()
            .filter_map(|&id| Some((id, m.snapshot(id).ok()?)))
            .collect(),
    }
}

/// One run of the delta workload, deterministic in its seed.
struct DeltaRun {
    /// The fleet just before the delta.
    pre: Fleet,
    /// The fleet just after it (equal to `pre` when the delta failed).
    post: Fleet,
    /// The storage append that carries the `Delta` record.
    delta_append: usize,
}

/// A mixed-tier fleet on a live universe; a delta that `apply_delta`
/// rejects after interning a fresh value; a flush; then one count-only or
/// structural delta (a structural one may carry a second fresh value, so
/// a recovery that interns from scratch numbers it differently); then
/// post-delta traffic. With `fail_delta`, the `Delta` append fails.
fn delta_workload(seed: u64, wal: &MemWal, segments: &MemSegments, fail_delta: bool) -> DeltaRun {
    let mut rng = Rng(seed);
    let mut rows = Rows::random(&mut rng);
    let universe = live_universe(&rows);
    let (m, _) = SessionManager::recover_with_storage(
        Arc::clone(&universe),
        ServerConfig {
            shards: 3,
            ..ServerConfig::default()
        },
        durability(),
        Box::new(wal.clone()),
        Box::new(segments.clone()),
    )
    .expect("fresh durable fleet");
    let mut ids = Vec::new();
    for i in 0..3 + rng.below(4) {
        let id = m.create_session(strategy_mix(i, seed)).expect("create");
        let goal = universe.sig(rng.below(universe.num_classes())).clone();
        for _ in 0..rng.below(4) {
            let Some(q) = m.next_question(id).expect("live session") else {
                break;
            };
            let label = oracle_label(&universe, &goal, q.class);
            m.answer(id, q.class, label).expect("consistent");
        }
        if rng.chance(30) {
            m.hibernate(id).expect("live session");
        }
        ids.push(id);
    }
    // A zero watermark spills everything parked so far; park some more
    // afterwards, so all three tiers meet the delta.
    m.sweep().expect("in-memory storage");
    for &id in &ids {
        if rng.chance(30) {
            m.hibernate(id).expect("live session");
        }
    }

    let interner = universe.instance().interner();
    let fresh = |k: i64| Value::int(1_000_000 + 2 * seed as i64 + k);
    let mut rejected = UniverseDelta::new();
    rejected.insert(Side::P, Tuple::intern(interner, &[fresh(0)]));
    assert!(matches!(
        m.apply_delta(&rejected),
        Err(ServerError::Delta(_))
    ));
    m.flush_wal().expect("in-memory storage");
    let pre = fleet(&m, &ids);
    let delta_append = wal.appends();

    let count_only = rng.chance(50);
    let mut delta = random_delta(&mut rng, &universe, &mut rows, count_only);
    if !count_only && rng.chance(50) {
        delta.insert(
            Side::R,
            Tuple::intern(interner, &[fresh(1), Value::int(1), Value::int(2)]),
        );
    }
    wal.set_io_failing(fail_delta);
    let applied = m.apply_delta(&delta);
    wal.set_io_failing(false);
    if fail_delta {
        assert!(matches!(applied, Err(ServerError::Durability(_))));
        let post = fleet(&m, &ids);
        return DeltaRun {
            pre,
            post,
            delta_append,
        };
    }
    applied.expect("valid delta");
    let post = fleet(&m, &ids);

    // Post-delta traffic, so a crash right after the delta has something
    // to lose.
    let id = m.create_session(strategy_mix(0, seed)).expect("create");
    m.next_question(id).expect("live session");
    m.flush_wal().expect("in-memory storage");
    DeltaRun {
        pre,
        post,
        delta_append,
    }
}

/// Recovers `image` from a base rebuilt from scratch (a fresh interner,
/// as a restarted process has) and reads the fleet back.
fn recovered_fleet(
    seed: u64,
    image: Vec<u8>,
    segments: &MemSegments,
    ids: &[u64],
) -> Result<Fleet, DurabilityError> {
    let base = live_universe(&Rows::random(&mut Rng(seed)));
    let r = recover(&base, image, segments.clone())?;
    Ok(fleet(&r, ids))
}

/// Re-frames `image` with every logged delta fingerprint flipped.
fn flip_delta_fingerprints(image: &[u8]) -> Vec<u8> {
    let mut out = image[..FILE_HEADER_LEN].to_vec();
    let body = &image[FILE_HEADER_LEN..];
    let mut at = 0;
    while let FrameStep::Record { payload, next } = next_frame(body, at) {
        let mut record = WalRecord::decode(payload).expect("valid record");
        if let WalRecord::Delta { fingerprint, .. } = &mut record {
            *fingerprint ^= 1;
        }
        out.extend_from_slice(&frame(&record.encode()));
        at = next;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn a_delta_is_durable_exactly_when_its_record_is(
        seed in 0u64..1_000_000,
        torn_keep in 0usize..16,
    ) {
        // Crash-free: the whole log recovers the post-delta fleet, even
        // though the recovering interner never saw the rejected value.
        let (wal, segments) = (MemWal::new(), MemSegments::new());
        let run = delta_workload(seed, &wal, &segments, false);
        let ids: Vec<u64> = run.post.sessions.keys().copied().collect();
        prop_assert_eq!(run.post.epoch, run.pre.epoch + 1);
        let pristine = wal.durable_image();

        // The crash points around the `Delta` frame.
        for (at, damage, want) in [
            (run.delta_append, Damage::Lost, &run.pre),
            (run.delta_append, Damage::Torn { keep: torn_keep }, &run.pre),
            (run.delta_append + 1, Damage::Lost, &run.post),
        ] {
            let wal = MemWal::with_script(CrashScript { at_append: at, damage });
            let segments = MemSegments::new();
            let rerun = delta_workload(seed, &wal, &segments, false);
            prop_assert_eq!(&rerun.post, &run.post, "the workload is deterministic");
            prop_assert!(wal.crashed());
            let got = recovered_fleet(seed, wal.durable_image(), &segments, &ids)
                .map_err(|e| TestCaseError::fail(format!("{damage:?} at {at}: {e}")))?;
            prop_assert_eq!(&got, want, "{:?} at append {}", damage, at);
        }

        // A logged fingerprint that lies is refused, not followed.
        prop_assert!(matches!(
            recovered_fleet(seed, flip_delta_fingerprints(&pristine), &segments, &ids),
            Err(DurabilityError::BadLog { .. })
        ));
        // The untouched log recovers the post-delta fleet.
        prop_assert_eq!(
            recovered_fleet(seed, pristine, &segments, &ids)
                .map_err(|e| TestCaseError::fail(e.to_string()))?,
            run.post
        );

        // A `Delta` append that fails changes nothing, live or recovered.
        let (wal, segments) = (MemWal::new(), MemSegments::new());
        let failed = delta_workload(seed, &wal, &segments, true);
        prop_assert_eq!(&failed.post, &failed.pre);
        prop_assert_eq!(
            recovered_fleet(seed, wal.durable_image(), &segments, &ids)
                .map_err(|e| TestCaseError::fail(e.to_string()))?,
            failed.pre
        );
    }
}
