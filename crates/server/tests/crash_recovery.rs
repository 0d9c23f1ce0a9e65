//! The real thing: a child process running a durable fleet is `kill -9`ed
//! mid-round, and the parent recovers its directory.
//!
//! The parent re-invokes this test binary with `JQI_CRASH_DIR` set, which
//! turns the otherwise-inert `crash_child` "test" into an endless durable
//! workload (waves of sessions created, driven, parked, and spilled). The
//! parent watches `wal.log` grow, SIGKILLs the child at an arbitrary
//! point in that traffic — no shutdown hook runs, whatever was mid-write
//! stays mid-write — then recovers and checks every surviving session
//! against a deterministic oracle: histories must be exact prefixes of
//! the uninterrupted run, and every session must still drive to the
//! reference predicate. The in-memory, finely scripted variant of this
//! test is `tests/durability_props.rs`; this one exists so the claim
//! holds for real files, real fsync, and a real dead process.
//!
//! A second pair (`delta_crash_child` / `kill_nine_across_deltas_…`)
//! interleaves the waves with live-data deltas, so the kill also lands
//! around `Delta` records and the parent must re-apply them to a base
//! universe it rebuilt from scratch.

mod common;

use common::{live_universe, oracle_label, random_delta, strategy_mix, Rng, Rows};
use jqi_core::session::remap_replay_parts;
use jqi_core::{StrategyConfig, Universe, UniverseDelta};
use jqi_datagen::SyntheticConfig;
use jqi_relation::{BitSet, Side, Tuple, Value};
use jqi_server::{DurabilityConfig, ServerConfig, SessionManager, SessionSnapshot};
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAVE: usize = 4;
/// Kill once the WAL holds at least this much committed traffic — several
/// complete waves plus, almost surely, a wave in flight.
const KILL_AFTER_WAL_BYTES: u64 = 32 * 1024;

fn build_universe() -> Arc<Universe> {
    Arc::new(Universe::build(
        SyntheticConfig::new(2, 2, 12, 6).generate(7),
    ))
}

fn durability() -> DurabilityConfig {
    DurabilityConfig {
        group_commit_every: 8,
        // Zero watermark: every sweep spills every parked session, so the
        // kill also lands amid segment traffic.
        resident_watermark_bytes: Some(0),
        segment_max_bytes: 4096,
    }
}

/// Everything about session `id` is a deterministic function of `id`:
/// same strategy, same goal, in parent and child alike.
fn strategy_of(id: u64) -> StrategyConfig {
    match id % 4 {
        0 => StrategyConfig::Bu,
        1 => StrategyConfig::Td,
        2 => StrategyConfig::Lks { depth: 1 },
        _ => StrategyConfig::Rnd { seed: id },
    }
}

fn goal_of(goals: &[BitSet], id: u64) -> &BitSet {
    &goals[id as usize % goals.len()]
}

fn goals(universe: &Universe) -> Vec<BitSet> {
    let goals =
        jqi_core::lattice::non_nullable_predicates(universe, 100_000).expect("small lattice");
    assert!(
        !goals.is_empty(),
        "the crash workload needs goal predicates"
    );
    goals
}

/// The child workload. Inert under a normal `cargo test` run (the env var
/// is unset); an endless durable workload when the parent spawns it.
#[test]
fn crash_child() {
    let Ok(dir) = std::env::var("JQI_CRASH_DIR") else {
        return;
    };
    let universe = build_universe();
    let goals = goals(&universe);
    let (manager, _) = SessionManager::recover(
        Arc::clone(&universe),
        ServerConfig::default(),
        durability(),
        Path::new(&dir),
    )
    .expect("fresh durable fleet");
    // Waves forever, until the parent kills us. The directory is fresh,
    // so ids are dense from 0 and each wave's ids are predictable — the
    // parent relies on `strategy_of(id)` matching on both sides.
    let mut next_id: u64 = 0;
    for _wave in 0..u64::MAX {
        let ids: Vec<u64> = (0..WAVE)
            .map(|_| {
                let id = manager
                    .create_session(strategy_of(next_id))
                    .expect("durable create");
                assert_eq!(id, next_id, "session ids must be dense");
                next_id += 1;
                id
            })
            .collect();
        loop {
            let mut progressed = false;
            for &id in &ids {
                if let Some(q) = manager.next_question(id).expect("live session") {
                    let label = oracle_label(&universe, goal_of(&goals, id), q.class);
                    manager.answer(id, q.class, label).expect("honest oracle");
                    progressed = true;
                }
            }
            // One fsync per round — the durability contract under test.
            manager.flush_wal().expect("wal flush");
            if !progressed {
                break;
            }
        }
        // Park and spill the finished wave so the kill also interrupts
        // hibernate/spill traffic, not just answers.
        manager.hibernate_idle(Duration::ZERO).expect("park");
        manager.sweep().expect("spill");
    }
}

/// Re-invokes this test binary as `child` (an inert test unless `env`
/// names its directory) on a fresh directory.
fn spawn_child(child: &str, env: &str) -> (Child, PathBuf) {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "jqi-{child}-{}-{:x}",
        std::process::id(),
        Instant::now().elapsed().as_nanos()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let exe = std::env::current_exe().expect("test binary path");
    let process = std::process::Command::new(exe)
        .args([child, "--exact", "--nocapture"])
        .env(env, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn crash child");
    (process, dir)
}

/// Polls until `ready` holds, then pulls the plug. `kill()` is SIGKILL
/// on unix: the child gets no chance to flush or unwind.
fn kill_when(mut child: Child, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !ready() {
        if let Some(status) = child.try_wait().expect("child status") {
            panic!("crash child exited on its own: {status}");
        }
        if Instant::now() >= deadline {
            // Never leave an endless workload running behind a failure.
            let _ = child.kill();
            panic!("crash child made no progress");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap child");
}

#[test]
fn kill_nine_mid_round_recovers_the_fleet() {
    let (child, dir) = spawn_child("crash_child", "JQI_CRASH_DIR");
    // Wait for real committed traffic, then pull the plug.
    let wal_path = dir.join("wal.log");
    kill_when(child, || {
        std::fs::metadata(&wal_path).map_or(0, |m| m.len()) >= KILL_AFTER_WAL_BYTES
    });

    // Recover the directory the dead process left behind.
    let universe = build_universe();
    let goals = goals(&universe);
    let (recovered, report) = SessionManager::recover(
        Arc::clone(&universe),
        ServerConfig::default(),
        durability(),
        &dir,
    )
    .unwrap_or_else(|e| panic!("recovery after kill -9 failed: {e}"));
    assert!(
        report.sessions >= WAVE,
        "expected at least one full wave, recovered {} sessions",
        report.sessions
    );

    // The child never removes sessions, so recovered ids are dense from 0.
    // Check each against the uninterrupted oracle run.
    let reference = SessionManager::new(Arc::clone(&universe), ServerConfig::default());
    for id in 0..report.sessions as u64 {
        let snap = recovered
            .snapshot(id)
            .unwrap_or_else(|e| panic!("session {id} missing after recovery: {e}"));
        let ref_id = reference
            .create_session(strategy_of(id))
            .expect("in-memory");
        assert_eq!(ref_id, id, "reference fleet must mirror the child's ids");
        let goal = goal_of(&goals, id);
        while let Some(q) = reference.next_question(id).expect("live session") {
            let label = oracle_label(&universe, goal, q.class);
            reference.answer(id, q.class, label).expect("honest oracle");
        }
        let ref_history = reference.snapshot(id).expect("live session").history;
        assert!(
            snap.history.len() <= ref_history.len()
                && snap.history[..] == ref_history[..snap.history.len()],
            "session {id}: recovered history is not a prefix of the \
             uninterrupted run ({} vs {} answers)",
            snap.history.len(),
            ref_history.len()
        );
        // Continue the recovered session: it must converge to the same
        // predicate as if the process had never died.
        while let Some(q) = recovered.next_question(id).expect("live session") {
            let label = oracle_label(&universe, goal, q.class);
            recovered.answer(id, q.class, label).expect("honest oracle");
        }
        assert_eq!(
            recovered.inferred_predicate(id).expect("live session"),
            reference.inferred_predicate(id).expect("live session"),
            "session {id} diverged after recovery"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Seed of the delta workload: its base rows, its delta schedule and its
/// sessions' strategies all derive from it.
const DELTA_SEED: u64 = 11;
/// Kill once the child has acknowledged this many deltas.
const KILL_AFTER_EPOCH: u64 = 6;
/// The side file the delta child records each acknowledged epoch in.
const ACKED: &str = "acked-epoch";

/// The delta schedule both processes follow, from a base universe built
/// from scratch (a fresh interner on every call). A structural delta also
/// carries a value the base never held, which the child interns after
/// its rejected values and a recovering process without them.
struct Schedule {
    rng: Rng,
    rows: Rows,
    deltas: i64,
}

impl Schedule {
    fn new() -> (Schedule, Arc<Universe>) {
        let mut rng = Rng(DELTA_SEED);
        let rows = Rows::random(&mut rng);
        let base = live_universe(&rows);
        let schedule = Schedule {
            rng,
            rows,
            deltas: 0,
        };
        (schedule, base)
    }

    /// The next delta, interned against `universe`.
    fn next(&mut self, universe: &Universe) -> UniverseDelta {
        self.deltas += 1;
        let count_only = self.rng.chance(50);
        let mut delta = random_delta(&mut self.rng, universe, &mut self.rows, count_only);
        if !count_only {
            let values = [Value::int(100 + self.deltas), Value::int(1), Value::int(2)];
            delta.insert(
                Side::R,
                Tuple::intern(universe.instance().interner(), &values),
            );
        }
        delta
    }
}

/// A goal per session, over the (epoch-independent) attribute pairs.
fn delta_goal(base: &Universe, id: u64) -> BitSet {
    base.sig(id as usize % base.num_classes()).clone()
}

/// The delta child: waves as in `crash_child` (only the first spilled),
/// each followed by a delta that `apply_delta` rejects (interning a value
/// the parent never sees) and one from the schedule, whose epoch is then
/// recorded in the side file. Inert unless `JQI_DELTA_CRASH_DIR` is set.
#[test]
fn delta_crash_child() {
    let Ok(dir) = std::env::var("JQI_DELTA_CRASH_DIR") else {
        return;
    };
    let dir = Path::new(&dir);
    let (mut schedule, base) = Schedule::new();
    let (manager, _) = SessionManager::recover(
        Arc::clone(&base),
        ServerConfig::default(),
        durability(),
        dir,
    )
    .expect("fresh durable fleet");
    let mut next_id: u64 = 0;
    for wave in 0..u64::MAX {
        let ids: Vec<u64> = (next_id..next_id + WAVE as u64).collect();
        for &id in &ids {
            let created = manager
                .create_session(strategy_mix(id as usize, DELTA_SEED))
                .expect("durable create");
            assert_eq!(created, id, "session ids must be dense");
        }
        next_id += WAVE as u64;
        let universe = manager.universe();
        loop {
            let mut progressed = false;
            for &id in &ids {
                if let Some(q) = manager.next_question(id).expect("live session") {
                    let label = oracle_label(&universe, &delta_goal(&base, id), q.class);
                    manager.answer(id, q.class, label).expect("honest oracle");
                    progressed = true;
                }
            }
            manager.flush_wal().expect("wal flush");
            if !progressed {
                break;
            }
        }
        // Park every wave, but spill only the first: a sweep re-spills
        // whatever is parked, and the log must carry later histories
        // across structural deltas by re-applying them, not by re-spills.
        manager.hibernate_idle(Duration::ZERO).expect("park");
        if wave == 0 {
            manager.sweep().expect("spill");
        }

        let mut rejected = UniverseDelta::new();
        let junk = [Value::str(format!("junk-{wave}"))];
        rejected.insert(
            Side::P,
            Tuple::intern(universe.instance().interner(), &junk),
        );
        manager.apply_delta(&rejected).expect_err("arity mismatch");
        let report = manager
            .apply_delta(&schedule.next(&manager.universe()))
            .expect("scheduled delta");
        let tmp = dir.join(format!("{ACKED}.tmp"));
        std::fs::write(&tmp, report.to_epoch.to_string()).expect("side file");
        std::fs::rename(&tmp, dir.join(ACKED)).expect("side file");
    }
}

#[test]
fn kill_nine_across_deltas_recovers_the_fleet() {
    let (child, dir) = spawn_child("delta_crash_child", "JQI_DELTA_CRASH_DIR");
    let acked = || {
        std::fs::read_to_string(dir.join(ACKED))
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    kill_when(child, || acked() >= KILL_AFTER_EPOCH);
    let acked = acked();

    // Recover from a base rebuilt from scratch, as a restarted process
    // would: its interner never saw the child's rejected values.
    let (_, base) = Schedule::new();
    let (recovered, report) = SessionManager::recover(
        Arc::clone(&base),
        ServerConfig::default(),
        durability(),
        &dir,
    )
    .unwrap_or_else(|e| panic!("recovery after kill -9 failed: {e}"));
    let epoch = recovered.universe().epoch();
    assert!(
        epoch >= acked,
        "recovered epoch {epoch} lost an acknowledged delta (epoch {acked})"
    );

    // The oracle chain: the same schedule on an independent rebuild.
    let (mut schedule, first) = Schedule::new();
    let mut chain = vec![first];
    while chain.len() <= epoch as usize {
        let last = chain.last().expect("non-empty");
        let next = last
            .apply_delta(&schedule.next(last))
            .expect("scheduled delta");
        chain.push(Arc::new(next));
    }
    let served = &chain[epoch as usize];
    assert_eq!(recovered.universe_fingerprint(), served.fingerprint());

    // Wave `w` ran on epoch `w`; its uninterrupted run, carried to the
    // recovered epoch by signature, is the oracle.
    for id in 0..report.sessions as u64 {
        let wave = id / WAVE as u64;
        assert!(
            wave <= epoch,
            "session {id} of wave {wave} outlives its epoch"
        );
        let strategy = strategy_mix(id as usize, DELTA_SEED);
        let goal = delta_goal(&base, id);
        let at_wave =
            SessionManager::new(Arc::clone(&chain[wave as usize]), ServerConfig::default());
        let ref_id = at_wave.create_session(strategy.clone()).expect("in-memory");
        let universe = at_wave.universe();
        while let Some(q) = at_wave.next_question(ref_id).expect("live session") {
            at_wave
                .answer(ref_id, q.class, oracle_label(&universe, &goal, q.class))
                .expect("honest oracle");
        }
        let mut history = at_wave.snapshot(ref_id).expect("live session").history;
        for k in wave as usize..epoch as usize {
            (history, _, _) = remap_replay_parts(&chain[k], &chain[k + 1], history, None);
        }

        let snap = recovered
            .snapshot(id)
            .unwrap_or_else(|e| panic!("session {id} missing after recovery: {e}"));
        assert!(
            snap.history.len() <= history.len()
                && snap.history[..] == history[..snap.history.len()],
            "session {id}: recovered history is not a prefix of the oracle's \
             ({} vs {} answers)",
            snap.history.len(),
            history.len()
        );
        if wave < epoch {
            assert_eq!(
                snap.history, history,
                "session {id} finished before a delta"
            );
        }

        // Continued on the recovered epoch, it converges with the oracle.
        let reference = SessionManager::new(Arc::clone(served), ServerConfig::default());
        reference
            .restore(&SessionSnapshot {
                session: id,
                strategy,
                history,
                pending: None,
                universe: None,
            })
            .expect("the oracle replays");
        let theta = |m: &SessionManager| {
            while let Some(q) = m.next_question(id).expect("live session") {
                m.answer(id, q.class, oracle_label(served, &goal, q.class))
                    .expect("honest oracle");
            }
            m.inferred_predicate(id).expect("live session")
        };
        assert_eq!(
            theta(&recovered),
            theta(&reference),
            "session {id} diverged after recovery"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
