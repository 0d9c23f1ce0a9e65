//! A concurrent multi-session inference service over one shared universe.
//!
//! The paper's interaction model (Algorithm 1) is aimed at non-expert
//! users behind a UI or a crowdsourcing task queue — many users, each with
//! their own goal query, labeling tuples of the *same* instance. This
//! crate turns the single-threaded [`jqi_core::session::Session`] loop
//! into a service:
//!
//! * [`SessionManager`] — a sharded, thread-safe session table over an
//!   immutable `Arc<Universe>`; create/answer/drop sessions from any
//!   thread, with per-session mutexes so distinct sessions never contend.
//! * class-addressed, batched answers — answers may arrive asynchronously,
//!   out of order, and in batches ([`SessionManager::answer_batch`] folds a
//!   whole batch into the inference state under one lock acquisition);
//!   agreeing duplicates from concurrent crowd workers are idempotent.
//! * [`SessionSnapshot`] — snapshot/restore by deterministic replay:
//!   persist a session as its strategy config + label sequence (a few
//!   bytes per answer, JSON), rebuild it bit-for-bit after a process
//!   restart.
//! * a **hibernation tier** — resident sessions idle past a TTL are parked
//!   down to their replay log (strategy config + label history, tens of
//!   bytes) by [`SessionManager::hibernate_idle`] / the configured
//!   [`SessionManager::sweep`], and re-materialize lazily on the next
//!   touch via one replay `apply_batch`. Combined with the universe-level
//!   decision cache (warm fleets answer strategy questions from the shared
//!   cache), millions of parked sessions fit in memory and waking one is
//!   microseconds.
//! * a **durability tier** ([`durability`]) — an fsync'd,
//!   CRC32-checksummed write-ahead log of every session mutation (group
//!   commit amortizes the fsyncs), spill segment files that take parked
//!   sessions out of RAM entirely past a watermark, and
//!   [`SessionManager::recover`], which rebuilds the whole fleet after a
//!   `kill -9` — truncating a torn WAL tail, failing loudly on mid-log
//!   corruption, and refusing state stamped by a different universe
//!   ([`jqi_core::Universe::fingerprint`]).
//!
//! # Example: two users, one universe
//!
//! ```
//! use jqi_core::paper::flight_hotel;
//! use jqi_core::{Label, StrategyConfig, Universe};
//! use jqi_server::{ServerConfig, SessionManager, SessionSnapshot};
//! use std::sync::Arc;
//!
//! let universe = Arc::new(Universe::build(flight_hotel()));
//! let manager = SessionManager::new(Arc::clone(&universe), ServerConfig::default());
//!
//! // User A wants Q2 (city AND discount airline must match), via L2S.
//! let a = manager.create_session(StrategyConfig::Lks { depth: 2 }).unwrap();
//! while let Some(q) = manager.next_question(a).unwrap() {
//!     let v = q.values(&universe);
//!     let keep = v[1] == v[3] && v[2] == v[4];
//!     let label = if keep { Label::Positive } else { Label::Negative };
//!     manager.answer(a, q.class, label).unwrap();
//! }
//! let theta = manager.inferred_predicate(a).unwrap();
//! assert_eq!(
//!     universe.instance().predicate_string(&theta),
//!     "{Flight.To=Hotel.City ∧ Flight.Airline=Hotel.Discount}"
//! );
//!
//! // User B's session survives a "restart" as a tiny JSON document.
//! let b = manager.create_session(StrategyConfig::Bu).unwrap();
//! let q = manager.next_question(b).unwrap().unwrap();
//! manager.answer(b, q.class, Label::Negative).unwrap();
//! let json = manager.snapshot(b).unwrap().to_json_string();
//!
//! let reborn = SessionManager::new(universe, ServerConfig::default());
//! let restored = SessionSnapshot::from_json(&json).unwrap();
//! assert_eq!(reborn.restore(&restored).unwrap(), b);
//! assert_eq!(reborn.interactions(b).unwrap(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod durability;
pub mod http;
pub mod json;
pub mod manager;
pub mod snapshot;

pub use durability::{DurabilityConfig, DurabilityError, DurabilityStats, RecoveryReport};
pub use http::{Gateway, UniverseRegistry};
pub use manager::{
    ManagerStats, MigrationReport, Result, ServerConfig, ServerError, SessionId, SessionManager,
    SessionOp, SessionOutcome, SweepReport,
};
pub use snapshot::{SessionSnapshot, SnapshotError, SNAPSHOT_FORMAT};
