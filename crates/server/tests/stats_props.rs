//! Property test: the O(1) tier gauges and the resident index equal a
//! walk of the session table.
//!
//! `SessionManager::stats` reads per-tier session counts and byte totals
//! that every slot transition moves as it happens; `stats_by_walk`
//! recomputes them by locking every session. Likewise `resident_ids`
//! reads the index a count-only migration and the TTL park visit, and
//! `resident_ids_by_walk` finds the resident sessions by locking every
//! slot. Seeded random operation
//! sequences drive a durable manager over in-memory storage through every
//! transition — create, question, answers, park, sweep with a spill
//! watermark, wake of spilled sessions, snapshot, restore, delete,
//! count-only and structural deltas, recovery (from a WAL that a scripted
//! crash may have cut short), and appends that fail under a create,
//! restore, delete, answer or park — and after every operation each pair
//! must agree. (No delta invalidates a session here: remapping keeps
//! every signature and consistency reads signatures only; the manager's
//! unit tests plant an unreplayable history to reach that path.)

mod common;

use common::{live_universe, oracle_label, random_delta, strategy_mix, Rng, Rows};
use jqi_core::{ClassId, Label, Universe};
use jqi_relation::BitSet;
use jqi_server::durability::{CrashScript, Damage, MemSegments, MemWal};
use jqi_server::{DurabilityConfig, ServerConfig, SessionManager, SessionOp, SessionSnapshot};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Operations per case.
const STEPS: usize = 80;

/// One durable fleet under test and what the test knows about it.
struct Fleet {
    manager: SessionManager,
    /// The universe the durable directory was created with.
    base: Arc<Universe>,
    /// The storage the manager appends to (clones share the image).
    wal: MemWal,
    segments: MemSegments,
    config: ServerConfig,
    durability: DurabilityConfig,
    rows: Rows,
    /// The rows at each epoch so far, so a recovery that ends on an
    /// earlier epoch (a lost tail) resumes the edits from there.
    rows_at: Vec<Rows>,
    /// Every id ever handed out, with the goal its answers follow — live
    /// or not, so operations also land on removed sessions.
    goals: BTreeMap<u64, BitSet>,
    snapshots: Vec<SessionSnapshot>,
}

impl Fleet {
    fn universe(&self) -> Arc<Universe> {
        self.manager.universe()
    }

    fn pick(&self, rng: &mut Rng) -> Option<u64> {
        let ids: Vec<u64> = self.goals.keys().copied().collect();
        (!ids.is_empty()).then(|| ids[rng.below(ids.len())])
    }

    fn create(&mut self, rng: &mut Rng, seed: u64) {
        let universe = self.universe();
        let strategy = strategy_mix(rng.below(5), seed);
        if let Ok(id) = self.manager.create_session(strategy) {
            let goal = universe.sig(rng.below(universe.num_classes())).clone();
            self.goals.insert(id, goal);
        }
    }

    /// A few goal-consistent labels on random classes (some repeats, some
    /// uninformative), folded as one batch.
    fn answer(&self, rng: &mut Rng) {
        let (Some(id), universe) = (self.pick(rng), self.universe()) else {
            return;
        };
        let goal = &self.goals[&id];
        let batch: Vec<(ClassId, Label)> = (0..1 + rng.below(3))
            .map(|_| {
                let class = rng.below(universe.num_classes());
                (class, oracle_label(&universe, goal, class))
            })
            .collect();
        let _ = self.manager.answer_batch(id, &batch);
    }

    fn restore(&mut self, rng: &mut Rng) {
        if self.snapshots.is_empty() {
            return;
        }
        let snapshot = self.snapshots[rng.below(self.snapshots.len())].clone();
        // Live ids collide, pre-delta snapshots mismatch the universe;
        // neither may move a gauge.
        if let Ok(id) = self.manager.restore(&snapshot) {
            self.goals.entry(id).or_insert_with(|| {
                let universe = self.manager.universe();
                universe.sig(rng.below(universe.num_classes())).clone()
            });
        }
    }

    fn delta(&mut self, rng: &mut Rng, count_only: bool) {
        let universe = self.universe();
        let delta = random_delta(rng, &universe, &mut self.rows, count_only);
        let report = self.manager.apply_delta(&delta).expect("valid delta");
        assert!(report.invalidated.is_empty(), "remapping keeps signatures");
        self.rows_at.push(self.rows.clone());
    }

    /// Restarts from the durable image alone, re-applying its logged
    /// deltas to the base universe; the recovered manager takes over a
    /// fresh copy of that image.
    fn recover(&mut self) {
        self.wal = MemWal::from_bytes(self.wal.durable_image());
        self.manager = SessionManager::recover_with_storage(
            Arc::clone(&self.base),
            self.config.clone(),
            self.durability.clone(),
            Box::new(self.wal.clone()),
            Box::new(self.segments.clone()),
        )
        .expect("a lost tail recovers to a clean prefix")
        .0;
        let epoch = self.manager.universe().epoch() as usize;
        self.rows_at.truncate(epoch + 1);
        self.rows = self.rows_at[epoch].clone();
    }

    /// One mutation whose WAL append fails: a create or restore is
    /// unwound, a delete leaves the session live, and an answer or park
    /// is applied in RAM and reports the error.
    fn failing_append(&mut self, rng: &mut Rng, seed: u64) {
        self.wal.set_io_failing(true);
        match rng.below(5) {
            0 => self.create(rng, seed),
            1 => self.restore(rng),
            2 => self.answer(rng),
            3 => {
                if let Some(id) = self.pick(rng) {
                    let _ = self.manager.hibernate(id);
                }
            }
            _ => {
                if let Some(id) = self.pick(rng) {
                    let _ = self.manager.remove(id);
                }
            }
        }
        self.wal.set_io_failing(false);
    }

    fn step(&mut self, rng: &mut Rng, seed: u64) -> &'static str {
        let id = self.pick(rng);
        let m = &self.manager;
        match rng.below(16) {
            0 | 1 => {
                self.create(rng, seed);
                "create"
            }
            2 | 3 => {
                if let Some(id) = id {
                    let _ = m.next_question(id);
                }
                "question"
            }
            4 | 5 => {
                self.answer(rng);
                "answers"
            }
            6 => {
                if let Some(id) = id {
                    let _ = m.hibernate(id);
                }
                "hibernate"
            }
            7 => {
                m.hibernate_idle(Duration::ZERO).expect("in-memory storage");
                "hibernate_idle"
            }
            8 => {
                m.sweep().expect("in-memory storage");
                "sweep"
            }
            9 => {
                // A touch wakes a parked session and lifts a spilled one;
                // the reads beside it must leave every tier as it is.
                if let Some(id) = id {
                    let _ = m.serve(id, SessionOp::Status);
                    let _ = m.interactions(id);
                    let _ = m.inferred_predicate(id);
                }
                "touch"
            }
            10 => {
                if let Some(snapshot) = id.and_then(|id| m.snapshot(id).ok()) {
                    self.snapshots.push(snapshot);
                }
                "snapshot"
            }
            11 => {
                self.restore(rng);
                "restore"
            }
            12 => {
                if let Some(id) = id {
                    let _ = m.remove(id);
                }
                "remove"
            }
            13 => {
                let count_only = rng.chance(50);
                self.delta(rng, count_only);
                if count_only {
                    "count-only delta"
                } else {
                    "structural delta"
                }
            }
            14 => {
                self.recover();
                "recover"
            }
            _ => {
                self.failing_append(rng, seed);
                "failing append"
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn tier_gauges_equal_a_walk_of_the_table(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed);
        let rows = Rows::random(&mut rng);
        let universe = live_universe(&rows);
        // Per-record commits, so an injected failure fires inside the
        // append that would have logged the mutation.
        let durability = DurabilityConfig {
            group_commit_every: 1,
            // Half the cases spill whatever is parked at every sweep.
            resident_watermark_bytes: Some(if rng.chance(50) { 0 } else { rng.below(4000) }),
            segment_max_bytes: 512,
        };
        let config = ServerConfig {
            shards: 3,
            hibernate_ttl: rng.chance(30).then_some(Duration::ZERO),
        };
        // Half the cases lose the WAL's tail at a scripted append, so a
        // later recovery restores a prefix of the fleet.
        let wal = if rng.chance(50) {
            MemWal::with_script(CrashScript { at_append: 20 + rng.below(80), damage: Damage::Lost })
        } else {
            MemWal::new()
        };
        let segments = MemSegments::new();
        let (manager, _) = SessionManager::recover_with_storage(
            Arc::clone(&universe),
            config.clone(),
            durability.clone(),
            Box::new(wal.clone()),
            Box::new(segments.clone()),
        )
        .expect("fresh durable fleet");
        let mut fleet = Fleet {
            manager,
            base: universe,
            wal,
            segments,
            config,
            durability,
            rows_at: vec![rows.clone()],
            rows,
            goals: BTreeMap::new(),
            snapshots: Vec::new(),
        };
        for step in 0..STEPS {
            let op = fleet.step(&mut rng, seed);
            prop_assert_eq!(
                fleet.manager.stats(),
                fleet.manager.stats_by_walk(),
                "after {} (step {})",
                op,
                step
            );
            prop_assert_eq!(
                fleet.manager.resident_ids(),
                fleet.manager.resident_ids_by_walk(),
                "resident index after {} (step {})",
                op,
                step
            );
        }
    }
}
