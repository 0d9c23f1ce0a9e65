//! The sharded, thread-safe session table.
//!
//! One [`SessionManager`] owns a shared immutable [`Universe`] behind an
//! [`Arc`] and serves any number of concurrent inference sessions over it.
//! Sessions are spread over `N` shards by `id % N`; each shard is a
//! [`parking_lot::RwLock`] around a `HashMap<SessionId, Arc<Mutex<…>>>`:
//!
//! * **shard locks** are held only for table lookups, inserts, and removals
//!   (microseconds), never across strategy computation — creating or
//!   dropping a session stalls at most `1/N` of the lookups;
//! * **per-session mutexes** serialize the operations of one session, so
//!   answers for the *same* session arriving from several threads are
//!   applied in some total order, while sessions on different mutexes
//!   (even in the same shard) proceed fully in parallel.
//!
//! Answers are class-addressed and go through the session's batch path
//! ([`jqi_core::session::Session::apply_batch`]): they may arrive out of
//! order relative to the questions asked, in batches folded into the
//! inference state under a single lock acquisition, and duplicated by
//! concurrent workers (agreeing duplicates are idempotent; contradictions
//! surface as [`InferenceError::ConflictingLabel`]).
//!
//! A request reads a session in one place: [`SessionManager::serve`]
//! performs the operation and reads back the resulting state under one
//! serving read and one session lock, so its [`SessionOutcome`] never
//! mixes two states. A session is rebuilt in one place too: waking a
//! parked session, restoring a snapshot, recovering a WAL and migrating
//! across a structural delta all replay a label history through
//! `Slot::wake`. Sessions move between tiers through one park (`Slot::park`)
//! and one lift back from disk (`SessionManager::lift`).

use crate::durability::recover::recover_fleet;
use crate::durability::{
    DirSegments, DurabilityConfig, DurabilityError, DurabilityStats, FileWal, RecoveryReport,
    SegmentStore, SpillLocator, SpillPayload, SpillStore, Wal, WalRecord, WalStorage,
};
use crate::snapshot::SessionSnapshot;
use jqi_core::session::{remap_replay_parts, Candidate, Session};
use jqi_core::{
    ClassId, DecisionCacheStats, DeltaError, InferenceError, Label, StrategyConfig, Universe,
    UniverseDelta,
};
use jqi_relation::{BitSet, Value};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A multiply–xorshift finalizer for the `u64` session ids.
///
/// The session table is probed twice per answered question (question +
/// answer), and std's default SipHash dominates a `u64` lookup; ids are
/// either a trusted counter or snapshot-restored values, so a keyed hash
/// buys nothing here. The finalizer is the 64-bit murmur mix — full
/// avalanche, so sequential ids spread over the buckets.
#[derive(Default)]
struct SessionIdHasher(u64);

impl Hasher for SessionIdHasher {
    #[inline]
    fn write_u64(&mut self, id: u64) {
        let mut h = id;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        self.0 = h;
    }

    fn write(&mut self, bytes: &[u8]) {
        // Sessions ids hash through write_u64; keep a correct fallback.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Identifier of a session within one [`SessionManager`].
pub type SessionId = u64;

/// Configuration of a [`SessionManager`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of shards the session table is split into. More shards mean
    /// less create/remove contention; lookups are O(1) either way.
    pub shards: usize,
    /// Idle TTL of the hibernation tier: resident sessions untouched for
    /// at least this long are parked by [`SessionManager::sweep`] — their
    /// derived masks are dropped and only the strategy config + label
    /// history (+ the outstanding question) are kept, re-materializing
    /// lazily on the next touch via one replay `apply_batch`. `None`
    /// disables sweeping; [`SessionManager::hibernate_idle`] can still be
    /// called with an explicit TTL.
    pub hibernate_ttl: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 16,
            hibernate_ttl: None,
        }
    }
}

/// Errors surfaced by the session service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// No session with this id (never created, or already removed).
    UnknownSession(SessionId),
    /// A restore collided with a live session carrying the same id.
    SessionExists(SessionId),
    /// An inference-level failure (inconsistent labels, conflicting
    /// duplicate answers, out-of-range classes, …).
    Inference(InferenceError),
    /// A snapshot stamped with a different universe's fingerprint was
    /// offered to [`SessionManager::restore`] — replaying its class-id
    /// history here would silently produce a wrong session, so it is
    /// refused loudly instead.
    UniverseMismatch {
        /// The serving universe's fingerprint.
        expected: u64,
        /// The snapshot's stamped fingerprint.
        found: u64,
    },
    /// The durability tier failed (WAL/segment I/O, corruption on a
    /// spilled-session read, …).
    Durability(DurabilityError),
    /// A live-data edit script could not be applied to the serving
    /// universe ([`jqi_core::DeltaError`] — unknown symbols, arity
    /// mismatches, deleting absent rows, or a universe built without
    /// live tables).
    Delta(DeltaError),
    /// Answers echoed the epoch of a question asked before a structural
    /// delta renumbered the classes ([`SessionOp::Answers`]): their class
    /// ids may now name other classes, so none was applied.
    StaleEpoch {
        /// The epoch the answers echoed.
        echoed: u64,
        /// The epoch of the last delta that changed the class structure.
        structural: u64,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServerError::SessionExists(id) => write!(f, "session {id} already exists"),
            ServerError::Inference(e) => write!(f, "inference error: {e}"),
            ServerError::UniverseMismatch { expected, found } => write!(
                f,
                "snapshot was taken against universe {found:016x}, \
                 this manager serves {expected:016x}"
            ),
            ServerError::Durability(e) => write!(f, "durability error: {e}"),
            ServerError::Delta(e) => write!(f, "delta rejected: {e}"),
            ServerError::StaleEpoch { echoed, structural } => write!(
                f,
                "answers to a question of epoch {echoed} are stale: the delta of epoch \
                 {structural} renumbered the classes; ask again"
            ),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Inference(e) => Some(e),
            ServerError::Durability(e) => Some(e),
            ServerError::Delta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InferenceError> for ServerError {
    fn from(e: InferenceError) -> Self {
        ServerError::Inference(e)
    }
}

impl From<DurabilityError> for ServerError {
    fn from(e: DurabilityError) -> Self {
        ServerError::Durability(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Durability(DurabilityError::Io(e.to_string()))
    }
}

/// Convenience alias for service results.
pub type Result<T> = std::result::Result<T, ServerError>;

/// Which tier a session currently occupies.
///
/// The resident session is boxed so a hibernated slot's inline footprint
/// is the small variant (a history `Vec` + the pending class), not the
/// full session struct — parking a session genuinely returns its memory.
enum Tier {
    /// Materialized: the full session with every derived mask.
    Resident(Box<Resident>),
    /// Parked: only what deterministic replay needs. `history` is
    /// `shrink_to_fit`-ed on entry, so a parked session holds exactly its
    /// replay log.
    Hibernated {
        history: Vec<(ClassId, Label)>,
        pending: Option<ClassId>,
    },
    /// Spilled to a segment file: RAM holds only the locator (and the
    /// history length, so metrics never touch the disk). The payload —
    /// history + pending — is read back from the segment on the next
    /// touch; only a manager with a durability tier can hold this
    /// variant.
    Spilled {
        locator: SpillLocator,
        history_len: usize,
    },
}

impl Tier {
    /// A freshly materialized session, not yet counted.
    fn resident(session: Session) -> Tier {
        Tier::Resident(Box::new(Resident {
            session,
            counted: Footprint::default(),
        }))
    }
}

/// A materialized session and the footprint it last added to the tier
/// gauges. Its bytes change in place on every answer, so unlike a parked
/// or spilled slot's they cannot be re-derived from the slot when it is
/// next locked.
struct Resident {
    session: Session,
    counted: Footprint,
}

/// One slot's share of the tier gauges: the session and byte fields of
/// [`ManagerStats`] in the order [`Gauges::load`] names them — sessions;
/// resident, hibernated and spilled sessions; state, resident, history,
/// hibernated and spilled bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Footprint([usize; 9]);

impl Footprint {
    fn resident(session: &Session) -> Footprint {
        let history = std::mem::size_of_val(session.history());
        let (state, resident) = (session.state_bytes(), session.resident_bytes());
        Footprint([1, 1, 0, 0, state, resident, history, 0, 0])
    }

    fn hibernated(history: &Vec<(ClassId, Label)>) -> Footprint {
        let (bytes, parked) = (
            std::mem::size_of_val(&history[..]),
            Slot::hibernated_bytes(history),
        );
        Footprint([1, 0, 1, 0, 0, 0, bytes, parked, 0])
    }

    fn spilled(locator: &SpillLocator) -> Footprint {
        Footprint([1, 0, 0, 1, 0, 0, 0, 0, locator.len as usize])
    }

    /// Whether this footprint counts a resident session.
    fn is_resident(&self) -> bool {
        self.0[1] != 0
    }
}

/// The tier gauges behind [`SessionManager::stats`]: one counter per
/// [`Footprint`] field, equal to the sum of every counted slot's
/// footprint once the fleet is quiescent. Only [`SlotGuard`] moves them.
#[derive(Default)]
struct Gauges([AtomicUsize; 9]);

impl Gauges {
    /// Moves each gauge by `after - before` (wrapping: a shrinking slot
    /// adds the two's complement). One slot's share never goes below
    /// zero, so neither does any gauge a reader loads.
    fn apply(&self, before: Footprint, after: Footprint) {
        for ((gauge, b), a) in self.0.iter().zip(before.0).zip(after.0) {
            if a != b {
                gauge.fetch_add(a.wrapping_sub(b), Ordering::Relaxed);
            }
        }
    }

    /// The session and byte fields of [`ManagerStats`]; the rest default.
    fn load(&self) -> ManagerStats {
        let [sessions, resident_sessions, hibernated_sessions, spilled_sessions, state_bytes, resident_bytes, history_bytes, hibernated_bytes, spilled_bytes] =
            self.0.each_ref().map(|gauge| gauge.load(Ordering::Relaxed));
        ManagerStats {
            sessions,
            resident_sessions,
            hibernated_sessions,
            spilled_sessions,
            state_bytes,
            resident_bytes,
            history_bytes,
            hibernated_bytes,
            spilled_bytes,
            ..ManagerStats::default()
        }
    }
}

/// The ids of the slots whose counted footprint is resident, kept by
/// [`SlotGuard`] beside the gauges, so the paths that concern resident
/// sessions only — a count-only migration, the TTL park — visit
/// O(resident) slots instead of walking the table. Its lock is a leaf:
/// taken under a session mutex, never held while one is taken.
type ResidentIndex = Mutex<HashSet<SessionId, BuildHasherDefault<SessionIdHasher>>>;

/// A locked slot that re-counts itself into the tier gauges when it is
/// released — every session-mutex acquisition of the manager that can
/// change a slot goes through one ([`SessionManager::lock`]), so whatever
/// the holder did to the slot (answer, park, wake, spill, lift, replay,
/// detach) lands in the gauges as the difference between the footprint
/// counted at acquisition and the one re-counted at release, and in the
/// resident index when that difference enters or leaves the resident
/// tier.
struct SlotGuard<'a> {
    slot: MutexGuard<'a, Slot>,
    gauges: &'a Gauges,
    resident: &'a ResidentIndex,
    before: Footprint,
}

impl std::ops::Deref for SlotGuard<'_> {
    type Target = Slot;

    fn deref(&self) -> &Slot {
        &self.slot
    }
}

impl std::ops::DerefMut for SlotGuard<'_> {
    fn deref_mut(&mut self) -> &mut Slot {
        &mut self.slot
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let after = self.slot.recount();
        self.gauges.apply(self.before, after);
        match (self.before.is_resident(), after.is_resident()) {
            (false, true) => {
                self.resident.lock().insert(self.slot.id);
            }
            (true, false) => {
                self.resident.lock().remove(&self.slot.id);
            }
            _ => {}
        }
    }
}

/// One session table slot: its table key (stamped by the insert), the
/// strategy config (needed to snapshot and to re-materialize), the idle
/// clock, the tiered session itself, and whether its footprint is in the
/// tier gauges — from the insert that publishes it until the removal that
/// detaches it.
struct Slot {
    id: SessionId,
    config: StrategyConfig,
    last_touch: Instant,
    tier: Tier,
    counted: bool,
}

impl Slot {
    fn new(config: StrategyConfig, tier: Tier) -> Slot {
        Slot {
            id: 0,
            config,
            last_touch: Instant::now(),
            tier,
            counted: false,
        }
    }

    /// The footprint this slot has in the gauges right now: what the last
    /// re-count stored for a resident session, a pure function of the
    /// parked or spilled payload otherwise, nothing while uncounted.
    fn counted(&self) -> Footprint {
        match &self.tier {
            _ if !self.counted => Footprint::default(),
            Tier::Resident(resident) => resident.counted,
            Tier::Hibernated { history, .. } => Footprint::hibernated(history),
            Tier::Spilled { locator, .. } => Footprint::spilled(locator),
        }
    }

    /// Re-derives the footprint (storing it on a resident session) and
    /// returns it.
    fn recount(&mut self) -> Footprint {
        if let (true, Tier::Resident(resident)) = (self.counted, &mut self.tier) {
            resident.counted = Footprint::resident(&resident.session);
        }
        self.counted()
    }

    /// The one replay path: re-materializes a parked slot by replaying its
    /// history through one `apply_batch` and returns the resident session.
    /// Wake, restore, recovery and structural migration all rebuild
    /// sessions here — warm fleets answer the replay's strategy-free mask
    /// ops from the shared caches, so waking is cheap even at scale. On
    /// error the slot stays parked. A [`Tier::Spilled`] slot must be
    /// lifted first ([`SessionManager::lift`] — it needs the spill store).
    fn wake(
        &mut self,
        universe: &Arc<Universe>,
    ) -> std::result::Result<&mut Session, InferenceError> {
        if let Tier::Hibernated { history, pending } = &self.tier {
            let session = Session::replay(Arc::clone(universe), &self.config, history, *pending)?;
            self.tier = Tier::resident(session);
        }
        match &mut self.tier {
            Tier::Resident(resident) => Ok(&mut resident.session),
            Tier::Hibernated { .. } => unreachable!("just materialized"),
            Tier::Spilled { .. } => unreachable!("caller lifts spilled slots first"),
        }
    }

    /// The one park: keeps only the replay log (shrunk to its length, so a
    /// parked session holds exactly its log) and the pending question.
    fn park(&mut self, mut history: Vec<(ClassId, Label)>, pending: Option<ClassId>) {
        history.shrink_to_fit();
        self.tier = Tier::Hibernated { history, pending };
    }

    /// Moves the replay log out of an in-RAM slot (resident or parked),
    /// leaving an empty parked tier behind for the caller to overwrite.
    fn take_replay_parts(&mut self) -> (Vec<(ClassId, Label)>, Option<ClassId>) {
        let empty = Tier::Hibernated {
            history: Vec::new(),
            pending: None,
        };
        match std::mem::replace(&mut self.tier, empty) {
            Tier::Resident(resident) => resident.session.into_replay_parts(),
            Tier::Hibernated { history, pending } => (history, pending),
            Tier::Spilled { .. } => unreachable!("caller lifts spilled slots first"),
        }
    }

    /// Parks a resident session, dropping its derived masks and strategy
    /// object; returns whether a transition happened (`false` when the
    /// slot was already parked or spilled).
    fn hibernate(&mut self) -> bool {
        if !matches!(self.tier, Tier::Resident(_)) {
            return false;
        }
        let (history, pending) = self.take_replay_parts();
        self.park(history, pending);
        true
    }

    /// Resident bytes of a parked session: the replay log (by allocation
    /// capacity — equal to its length after the shrink on entry) plus the
    /// pending marker. (The strategy config is carried by every slot in
    /// either tier, so it is excluded from the comparison on both sides.)
    fn hibernated_bytes(history: &Vec<(ClassId, Label)>) -> usize {
        history.capacity() * std::mem::size_of::<(ClassId, Label)>()
            + std::mem::size_of::<Option<ClassId>>()
    }
}

/// Aggregate per-session memory statistics of a [`SessionManager`] — see
/// [`SessionManager::stats`].
///
/// The session and byte fields are gauges the manager keeps up to date on
/// every slot transition, so reading them costs O(1). Each one is exact
/// once the fleet is quiescent; under concurrent load each is some value
/// it passed through, but two fields may come from different instants (a
/// session caught mid-park can be missing from `resident_sessions`
/// before it shows in `hibernated_sessions`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Live sessions, every tier.
    pub sessions: usize,
    /// Sessions materialized with full derived state.
    pub resident_sessions: usize,
    /// Sessions parked in the hibernation tier (bare replay logs).
    pub hibernated_sessions: usize,
    /// Total heap bytes of derived inference state across **resident**
    /// sessions ([`jqi_core::InferenceState::state_bytes`]).
    pub state_bytes: usize,
    /// Total *full* resident footprint of materialized sessions (session
    /// struct + derived-state heap + history heap,
    /// [`jqi_core::session::Session::resident_bytes`]).
    pub resident_bytes: usize,
    /// Total bytes of label history (the replay log) held **in RAM**
    /// (resident + hibernated tiers; spilled histories live on disk and
    /// are counted in [`ManagerStats::spilled_bytes`]).
    pub history_bytes: usize,
    /// Total resident bytes of **hibernated** sessions (replay log +
    /// pending marker).
    pub hibernated_bytes: usize,
    /// Sessions spilled to segment files (RAM holds only a locator).
    pub spilled_sessions: usize,
    /// Total on-disk bytes of live spilled sessions (their segment
    /// frames). Disk, not RAM: a spilled session's resident footprint is
    /// the ~16-byte locator, counted nowhere else.
    pub spilled_bytes: usize,
    /// The shared universe's decision-cache counters at sampling time.
    pub decision_cache: DecisionCacheStats,
    /// WAL/spill counters when the manager has a durability tier.
    pub durability: Option<DurabilityStats>,
}

impl ManagerStats {
    /// Mean derived-state bytes per resident session (0 when none).
    pub fn state_bytes_per_session(&self) -> f64 {
        if self.resident_sessions == 0 {
            0.0
        } else {
            self.state_bytes as f64 / self.resident_sessions as f64
        }
    }

    /// Mean full footprint per resident session (0 when none).
    pub fn resident_bytes_per_session(&self) -> f64 {
        if self.resident_sessions == 0 {
            0.0
        } else {
            self.resident_bytes as f64 / self.resident_sessions as f64
        }
    }

    /// Mean resident bytes per hibernated session (0 when none).
    pub fn hibernated_bytes_per_session(&self) -> f64 {
        if self.hibernated_sessions == 0 {
            0.0
        } else {
            self.hibernated_bytes as f64 / self.hibernated_sessions as f64
        }
    }
}

/// How many sessions one [`SessionManager::sweep`] /
/// [`SessionManager::hibernate_idle`] pass moved between tiers. The bytes
/// they moved show in the tier gauges of [`SessionManager::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Sessions parked resident → hibernated this pass.
    pub parked: usize,
    /// Sessions spilled hibernated → segment this pass.
    pub spilled: usize,
}

/// The live durability tier of one manager: the group-committing WAL and
/// the rotating spill store, each behind its own mutex.
///
/// Lock order (deadlock freedom): shard lock → session mutex → spill
/// mutex → WAL mutex, always in that direction. Records that must agree
/// with a state transition are appended while the transition's lock is
/// still held — per-session operations under the session mutex,
/// create/restore/remove under the shard write lock — so the log's order
/// is an order the table actually went through.
struct DurabilityState {
    config: DurabilityConfig,
    wal: Mutex<Wal>,
    spill: Mutex<SpillStore>,
}

impl DurabilityState {
    fn log(&self, record: &WalRecord) -> Result<()> {
        Ok(self.wal.lock().append(record)?)
    }
}

type Shard = RwLock<HashMap<SessionId, Arc<Mutex<Slot>>, BuildHasherDefault<SessionIdHasher>>>;

/// The universe currently being served, plus its cached fingerprint.
///
/// Swapped atomically (under the write half of the serving lock) by
/// [`SessionManager::apply_delta`]; every public operation holds the read
/// half for its whole duration, so a migration observes a quiesced fleet
/// and no operation ever straddles two universes.
struct Serving {
    universe: Arc<Universe>,
    fingerprint: u64,
    /// The epoch of the last delta that changed the class structure (0
    /// if none did): class ids asked before it may name other classes.
    structural_epoch: u64,
}

/// What one [`SessionManager::apply_delta`] did to the session fleet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Live sessions at the migration, every tier (read off the tier
    /// gauges, which the serving write lock makes exact).
    pub sessions: usize,
    /// Sessions carried over without replay because the class structure
    /// was unchanged (a count-only delta, [`Universe::same_classes`]): a
    /// resident session's masks transfer verbatim in O(masks), and a
    /// parked or spilled session is not visited at all — its replay log
    /// is kept as it is, its class ids meaning the same signatures on the
    /// new universe. `sessions - replayed - invalidated`.
    pub carried: usize,
    /// Sessions re-validated by signature-remapped replay against the new
    /// universe — every session of a structural delta, resident or
    /// parked.
    pub replayed: usize,
    /// Labels the surviving sessions dropped because their class has no
    /// signature-equal counterpart in the new universe (its rows were all
    /// deleted). Dropping a label only widens the consistent interval, so
    /// the surviving sessions remain sound.
    pub dropped_labels: usize,
    /// Sessions removed because their remapped history no longer replays
    /// against the new universe. Loud by construction: the ids are
    /// returned here and the sessions answer
    /// [`ServerError::UnknownSession`] afterwards.
    pub invalidated: Vec<SessionId>,
    /// The epoch served before the migration.
    pub from_epoch: u64,
    /// The epoch served after it.
    pub to_epoch: u64,
    /// The [`Universe::fingerprint`] served after it — with `to_epoch`,
    /// enough to describe the post-migration universe without reading the
    /// manager again (a later migration may already have replaced it).
    pub to_fingerprint: u64,
}

/// One request against one session, for [`SessionManager::serve`].
#[derive(Debug, Clone, Copy)]
pub enum SessionOp<'a> {
    /// Re-deliver the outstanding question, or ask the next one
    /// ([`SessionManager::next_question`]).
    Question,
    /// Fold a batch of class-addressed answers
    /// ([`SessionManager::answer_batch`]).
    Answers {
        /// The answers.
        answers: &'a [(ClassId, Label)],
        /// The [`SessionOutcome::epoch`] of the question they answer, if
        /// the caller echoes it: older than the last structural delta, the
        /// batch is refused whole with [`ServerError::StaleEpoch`].
        epoch: Option<u64>,
    },
    /// Only read the state.
    Status,
}

/// The session state one [`SessionManager::serve`] call left behind, read
/// under the same serving read and session lock that performed the
/// operation.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The question a [`SessionOp::Question`] asked (`None` for the other
    /// operations, or when inference is complete), with its representative
    /// tuple's values decoded against the same universe.
    pub question: Option<(Candidate, Vec<Value>)>,
    /// Answers a [`SessionOp::Answers`] batch applied as new information.
    pub applied: usize,
    /// Answers recorded so far.
    pub interactions: usize,
    /// Whether the session has nothing left to ask.
    pub done: bool,
    /// The epoch of the universe the operation was served on.
    pub epoch: u64,
    /// The inferred predicate `T(S⁺)` rendered over the universe's
    /// attribute names, present exactly when `done`.
    pub predicate: Option<String>,
}

/// A thread-safe, multi-session inference service over one shared universe.
///
/// See the [module docs](self) for the locking discipline. All methods take
/// `&self`; the manager is meant to live in an `Arc` shared by every worker
/// thread of a server.
pub struct SessionManager {
    /// The served universe and its [`Universe::fingerprint`] — stamped
    /// into snapshots, checked on restore, and swapped wholesale by
    /// [`Self::apply_delta`]. Lock order: serving → shard → session
    /// mutex → spill → WAL.
    serving: RwLock<Serving>,
    config: ServerConfig,
    shards: Box<[Shard]>,
    /// Per-tier session counts and byte totals, moved only by
    /// [`SlotGuard`] — what [`Self::stats`] reads instead of the table.
    gauges: Gauges,
    /// The resident slots' ids, also kept only by [`SlotGuard`].
    resident: ResidentIndex,
    next_id: AtomicU64,
    durability: Option<DurabilityState>,
}

impl std::fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionManager")
            .field("shards", &self.shards.len())
            .field("sessions", &self.session_count())
            .field("next_id", &self.next_id.load(Ordering::Relaxed))
            .finish()
    }
}

impl SessionManager {
    /// Creates an in-memory (non-durable) manager serving sessions over
    /// `universe`. See [`Self::recover`] for the durable constructor.
    pub fn new(universe: Arc<Universe>, config: ServerConfig) -> Self {
        SessionManager {
            serving: RwLock::new(Serving {
                fingerprint: universe.fingerprint(),
                universe,
                structural_epoch: 0,
            }),
            shards: (0..config.shards.max(1))
                .map(|_| RwLock::new(HashMap::default()))
                .collect(),
            gauges: Gauges::default(),
            resident: ResidentIndex::default(),
            next_id: AtomicU64::new(0),
            config,
            durability: None,
        }
    }

    /// Opens (or creates) a **durable** manager rooted at `dir`: the WAL
    /// at `dir/wal.log`, spill segments under `dir/segments/`.
    ///
    /// Pass the universe the directory was **created with** — every
    /// later [`Self::apply_delta`] is in the log and is re-applied to it.
    /// A fresh directory starts an empty durable fleet on `universe`. An
    /// existing one is *recovered*: the WAL is replayed from `universe`
    /// (its torn tail — the remnant of an interrupted append — is
    /// truncated away; mid-log corruption, a header fingerprint other
    /// than `universe`'s, or a logged delta that does not re-apply to the
    /// fingerprint it logged fails loudly), spill references are resolved
    /// against the checksummed segments, and every restored session is
    /// validated by a full deterministic replay against the universe the
    /// log ends on before it is served, then re-parked (hibernated, or
    /// left spilled) so recovery memory stays proportional to histories,
    /// not derived state.
    pub fn recover(
        universe: Arc<Universe>,
        config: ServerConfig,
        durability: DurabilityConfig,
        dir: &Path,
    ) -> std::result::Result<(Self, RecoveryReport), DurabilityError> {
        std::fs::create_dir_all(dir)?;
        let wal = FileWal::open(&dir.join("wal.log"))?;
        let segments = DirSegments::open(&dir.join("segments"))?;
        Self::recover_with_storage(
            universe,
            config,
            durability,
            Box::new(wal),
            Box::new(segments),
        )
    }

    /// [`Self::recover`] over injectable storage — the fault-injection
    /// seam ([`crate::durability::MemWal`] /
    /// [`crate::durability::MemSegments`] let tests script crashes,
    /// torn writes, and bit flips deterministically).
    pub fn recover_with_storage(
        universe: Arc<Universe>,
        config: ServerConfig,
        durability: DurabilityConfig,
        mut wal_storage: Box<dyn WalStorage>,
        mut segments: Box<dyn SegmentStore>,
    ) -> std::result::Result<(Self, RecoveryReport), DurabilityError> {
        let fingerprint = universe.fingerprint();
        let wal_bytes = wal_storage.read_all()?;
        // Served from the universe the log ends on; the files keep the
        // base stamp.
        let (fleet, universe) = recover_fleet(&wal_bytes, segments.as_mut(), universe)?;
        if fleet.wal_keep_len < wal_bytes.len() as u64 {
            wal_storage.truncate(fleet.wal_keep_len)?;
        }
        let group = durability.group_commit_every;
        let wal = if fleet.wal_keep_len < crate::durability::codec::FILE_HEADER_LEN as u64 {
            Wal::create(wal_storage, fingerprint, group)?
        } else {
            Wal::resume(wal_storage, group)
        };
        // Live appends always start on a fresh segment past everything the
        // log references — a possibly-torn segment tail is never extended.
        let next_segment = fleet.max_segment.map_or(0, |m| m + 1);
        let spill = SpillStore::new(
            segments,
            fingerprint,
            next_segment,
            durability.segment_max_bytes,
        )?;

        let manager = SessionManager {
            next_id: AtomicU64::new(fleet.next_id),
            durability: Some(DurabilityState {
                config: durability,
                wal: Mutex::new(wal),
                spill: Mutex::new(spill),
            }),
            ..SessionManager::new(Arc::clone(&universe), config)
        };
        manager.serving.write().structural_epoch = fleet.structural_epoch;
        let mut report = RecoveryReport {
            wal_records: fleet.wal_records,
            wal_torn_bytes: fleet.wal_torn_bytes,
            ignored_records: fleet.ignored_records,
            ..RecoveryReport::default()
        };
        for (id, recovered) in fleet.sessions {
            // Validate by the real replay path: a history the serving
            // universe cannot replay must fail recovery, not fail at the
            // first touch. The materialized session is parked right away
            // — its replay also normalizes a pending question that later
            // answers made moot, exactly as the live session would have.
            report.replayed_answers += recovered.history.len() as u64;
            let mut slot = Slot::new(
                recovered.strategy,
                Tier::Hibernated {
                    history: recovered.history,
                    pending: recovered.pending,
                },
            );
            slot.wake(&universe)
                .map_err(|error| DurabilityError::Replay { session: id, error })?;
            let (history, pending) = slot.take_replay_parts();
            if let Some(locator) = recovered.spilled {
                report.spilled += 1;
                slot.tier = Tier::Spilled {
                    locator,
                    history_len: history.len(),
                };
            } else {
                report.hibernated += 1;
                slot.park(history, pending);
            }
            report.sessions += 1;
            manager
                .insert(id, Arc::new(Mutex::new(slot)), None)
                .expect("recovered ids are unique (log replay is a map)");
        }
        Ok((manager, report))
    }

    /// The configuration the manager was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The serving universe's fingerprint ([`Universe::fingerprint`]),
    /// stamped into snapshots. Changes on every [`Self::apply_delta`]
    /// (the fingerprint folds the universe's epoch).
    pub fn universe_fingerprint(&self) -> u64 {
        self.serving.read().fingerprint
    }

    /// The universe all sessions currently run over, by value: the handle
    /// stays valid across a concurrent [`Self::apply_delta`], it just
    /// keeps the pre-delta universe alive until dropped.
    pub fn universe(&self) -> Arc<Universe> {
        Arc::clone(&self.serving.read().universe)
    }

    /// Number of live sessions across all shards: the `sessions` gauge of
    /// [`Self::stats`], O(1) and lock-free.
    pub fn session_count(&self) -> usize {
        self.gauges.load().sessions
    }

    /// Aggregate per-session resident-memory statistics, so footprint
    /// regressions are visible in server stats and bench output.
    ///
    /// O(1) in the fleet size: the session and byte fields are gauges the
    /// manager moves on every slot transition, read here together with
    /// the decision-cache counters and the WAL/spill counters. No shard
    /// lock and no session mutex is taken, so polling never waits behind
    /// a session's request nor holds one up; a durable manager's WAL and
    /// spill mutexes are held just long enough to copy their counters.
    /// Each gauge is exact once the fleet is quiescent; under concurrent
    /// load the fields may be mutually unsynchronised (see
    /// [`ManagerStats`]).
    ///
    /// `state_bytes` sums the mask-compressed derived inference state of
    /// resident sessions ([`jqi_core::InferenceState::state_bytes`]);
    /// `history_bytes` sums the replay logs in RAM (what snapshots
    /// persist, proportional to answers given); `hibernated_bytes` sums
    /// the bare footprint of parked sessions. The shared universe is
    /// excluded — it is paid once per process, not per session — but its
    /// decision-cache counters ride along in `decision_cache`. Sampling
    /// is not a touch: it never wakes a parked session or resets an idle
    /// clock.
    pub fn stats(&self) -> ManagerStats {
        let decision_cache = self.serving.read().universe.decision_cache_stats();
        ManagerStats {
            decision_cache,
            durability: self.durability_stats(),
            ..self.gauges.load()
        }
    }

    /// The ids in the resident index, sorted: what a count-only
    /// migration and the TTL park visit. Equal to
    /// [`Self::resident_ids_by_walk`] whenever the fleet is quiescent.
    #[doc(hidden)]
    pub fn resident_ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self.resident.lock().iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The ids of the resident sessions, sorted, found by walking the
    /// whole table and locking every session: the oracle the resident
    /// index is tested against.
    #[doc(hidden)]
    pub fn resident_ids_by_walk(&self) -> Vec<SessionId> {
        let _serving = self.serving.read();
        let mut ids = Vec::new();
        for (id, slot) in self.all_slots() {
            if let Tier::Resident(_) = slot.lock().tier {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        ids
    }

    /// [`Self::stats`] recomputed by walking the whole table, locking
    /// every session: the oracle the gauges are tested against, equal to
    /// `stats()` whenever the fleet is quiescent.
    #[doc(hidden)]
    pub fn stats_by_walk(&self) -> ManagerStats {
        let serving = self.serving.read();
        let mut stats = ManagerStats {
            decision_cache: serving.universe.decision_cache_stats(),
            durability: self.durability_stats(),
            ..ManagerStats::default()
        };
        for (_, slot) in self.all_slots() {
            let guard = slot.lock();
            stats.sessions += 1;
            match &guard.tier {
                Tier::Resident(resident) => {
                    let session = &resident.session;
                    stats.resident_sessions += 1;
                    stats.state_bytes += session.state_bytes();
                    stats.resident_bytes += session.resident_bytes();
                    stats.history_bytes += std::mem::size_of_val(session.history());
                }
                Tier::Hibernated { history, .. } => {
                    stats.hibernated_sessions += 1;
                    stats.history_bytes += std::mem::size_of_val(&history[..]);
                    stats.hibernated_bytes += Slot::hibernated_bytes(history);
                }
                Tier::Spilled { locator, .. } => {
                    stats.spilled_sessions += 1;
                    stats.spilled_bytes += locator.len as usize;
                }
            }
        }
        stats
    }

    fn durability_stats(&self) -> Option<DurabilityStats> {
        let state = self.durability.as_ref()?;
        let wal = state.wal.lock().stats();
        let spill = state.spill.lock().stats();
        Some(DurabilityStats {
            wal_records: wal.records,
            wal_syncs: wal.syncs,
            wal_appended_bytes: wal.appended_bytes,
            spill_entries: spill.entries_written,
            spill_bytes_written: spill.bytes_written,
            spill_reads: spill.reads,
        })
    }

    /// The one way to lock a slot that may change: the returned guard
    /// re-counts the slot into the tier gauges when it is released.
    fn lock<'a>(&'a self, slot: &'a Mutex<Slot>) -> SlotGuard<'a> {
        let slot = slot.lock();
        let before = slot.counted();
        SlotGuard {
            slot,
            gauges: &self.gauges,
            resident: &self.resident,
            before,
        }
    }

    /// Handles on every slot of the table, with their ids: the one table
    /// walk. Each shard's handles are cloned out under its read lock, so
    /// no shard lock is held while a caller takes a session mutex.
    fn all_slots(&self) -> Vec<(SessionId, Arc<Mutex<Slot>>)> {
        self.shards
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .iter()
                    .map(|(&id, slot)| (id, Arc::clone(slot)))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Handles on the slots of the resident index. The ids are copied out
    /// first, since the index lock is a leaf; a slot parked or removed
    /// since is still returned (or skipped, if already unlinked), so
    /// callers re-check its tier under its lock.
    fn resident_slots(&self) -> Vec<Arc<Mutex<Slot>>> {
        let ids: Vec<SessionId> = self.resident.lock().iter().copied().collect();
        ids.into_iter()
            .filter_map(|id| self.slot(id).ok())
            .collect()
    }

    fn shard(&self, id: SessionId) -> &Shard {
        &self.shards[(id % self.shards.len() as u64) as usize]
    }

    fn slot(&self, id: SessionId) -> Result<Arc<Mutex<Slot>>> {
        self.shard(id)
            .read()
            .get(&id)
            .cloned()
            .ok_or(ServerError::UnknownSession(id))
    }

    /// The one lift: moves a spilled slot back into the hibernated tier
    /// (one positioned segment read, checksum re-verified). The lift
    /// itself appends nothing to the WAL: the session's replay state is
    /// unchanged — which tier held it is a RAM detail the log only learns
    /// about at the next answer/question/spill.
    fn lift(&self, slot: &mut Slot) -> Result<()> {
        if let Tier::Spilled { locator, .. } = slot.tier {
            let payload = self.read_spilled(locator)?;
            slot.park(payload.history, payload.pending);
        }
        Ok(())
    }

    /// Runs `f` on the materialized session under one serving read and the
    /// session's mutex, so everything `f` does and reads belongs to one
    /// session state on one universe. The shard lock is released before
    /// `f` runs, so slow strategy work never blocks unrelated lookups.
    /// Counts as a touch: the idle clock resets, and a hibernated or
    /// spilled session is re-materialized first.
    fn with_session<T>(
        &self,
        id: SessionId,
        f: impl FnOnce(&Serving, &mut Session) -> Result<T>,
    ) -> Result<T> {
        let serving = self.serving.read();
        let slot = self.slot(id)?;
        let mut guard = self.lock(&slot);
        guard.last_touch = Instant::now();
        self.lift(&mut guard)?;
        f(&serving, guard.wake(&serving.universe)?)
    }

    /// Inserts, appending `record` while the shard write lock is still
    /// held, so the log's Create/Restore/Remove order matches the table's
    /// (a WAL failure unwinds the insert before the slot is published or
    /// counted). Recovery inserts without a record: the log already
    /// describes its sessions.
    fn insert(
        &self,
        id: SessionId,
        slot: Arc<Mutex<Slot>>,
        record: Option<&WalRecord>,
    ) -> Result<()> {
        use std::collections::hash_map::Entry;
        let mut shard = self.shard(id).write();
        match shard.entry(id) {
            Entry::Occupied(_) => Err(ServerError::SessionExists(id)),
            Entry::Vacant(e) => {
                if let (Some(state), Some(record)) = (&self.durability, record) {
                    state.log(record)?;
                }
                // Unpublished, so this lock is uncontended.
                let mut guard = self.lock(&slot);
                guard.id = id;
                guard.counted = true;
                drop(guard);
                e.insert(slot);
                Ok(())
            }
        }
    }

    /// Starts a fresh session with the given strategy; returns its id.
    ///
    /// Durable managers append a `Create` record before the id is handed
    /// out, while the shard lock is still held — a WAL failure unwinds
    /// the insert and surfaces as [`ServerError::Durability`], so no
    /// session the caller ever saw is missing from the log.
    pub fn create_session(&self, strategy: StrategyConfig) -> Result<SessionId> {
        self.create_session_stamped(strategy).map(|(id, _)| id)
    }

    /// [`Self::create_session`], also returning the fingerprint of the
    /// universe the session was created on — read under the same serving
    /// read as the insert, so a concurrent [`Self::apply_delta`] cannot
    /// slip in between (asking [`Self::universe_fingerprint`] afterwards
    /// can report the next universe's).
    pub fn create_session_stamped(&self, strategy: StrategyConfig) -> Result<(SessionId, u64)> {
        let serving = self.serving.read();
        let session = Session::with_config(Arc::clone(&serving.universe), &strategy);
        let slot = Arc::new(Mutex::new(Slot::new(
            strategy.clone(),
            Tier::resident(session),
        )));
        // A concurrent restore() may race a stale snapshot onto the id the
        // counter just handed out (its fetch_max lands after our
        // fetch_add); skip to the next id instead of clobbering either
        // session.
        loop {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let record = self.durability.is_some().then(|| WalRecord::Create {
                id,
                strategy: strategy.clone(),
            });
            match self.insert(id, Arc::clone(&slot), record.as_ref()) {
                Err(ServerError::SessionExists(_)) => continue,
                inserted => return inserted.map(|()| (id, serving.fingerprint)),
            }
        }
    }

    /// The next tuple for the user to label, or `None` when inference is
    /// complete (halt condition Γ).
    ///
    /// Idempotent: while a question is outstanding, re-asking returns the
    /// *same* candidate instead of consuming a strategy step — an
    /// at-least-once task queue can re-deliver freely.
    ///
    /// Durable managers additionally append a `Question` record when a
    /// strategy step selects a **new** candidate (re-delivery appends
    /// nothing), so recovery reproduces outstanding questions exactly.
    pub fn next_question(&self, id: SessionId) -> Result<Option<Candidate>> {
        self.with_session(id, |_, session| self.ask(id, session))
    }

    /// Records one class-addressed answer.
    ///
    /// Answers need not match the outstanding question and may repeat
    /// (agreeing duplicates are no-ops); see
    /// [`jqi_core::session::Session::apply_batch`] for the exact
    /// semantics. Returns `true` if the answer was new information.
    pub fn answer(&self, id: SessionId, class: ClassId, label: Label) -> Result<bool> {
        Ok(self.answer_batch(id, &[(class, label)])? == 1)
    }

    /// Folds a batch of answers into the session under a single lock
    /// acquisition; returns how many were new information.
    ///
    /// Durable managers append one `Answers` record carrying exactly the
    /// history suffix the batch applied — agreeing duplicates are not
    /// re-logged, and a batch that errors mid-way still logs the prefix
    /// it applied, keeping the log aligned with the state. The record is
    /// fsync'd by group commit ([`DurabilityConfig::group_commit_every`])
    /// or the next [`Self::flush_wal`] / sweep, whichever comes first —
    /// this call does not commit. A serving loop that calls `flush_wal`
    /// once per answer round has a whole round across many sessions
    /// share one fsync.
    pub fn answer_batch(&self, id: SessionId, answers: &[(ClassId, Label)]) -> Result<usize> {
        self.with_session(id, |_, session| self.apply(id, session, answers))
    }

    /// Whether the session has nothing left to ask.
    ///
    /// A touch: answering this for a parked session requires the derived
    /// masks (the halt condition is about the informative set), so it
    /// re-materializes — unlike [`Self::interactions`],
    /// [`Self::inferred_predicate`], and [`Self::snapshot`], which serve
    /// parked sessions from the parked payload.
    pub fn is_done(&self, id: SessionId) -> Result<bool> {
        self.with_session(id, |_, session| Ok(session.is_done()))
    }

    /// Performs `op` and reads the state it left behind in one locked
    /// call — one serving read, one session lock — so every field of the
    /// outcome describes the same session state on the same universe,
    /// however many other requests race on the session. The HTTP
    /// gateway's question, answers and status handlers are each one call
    /// of this. A touch, like [`Self::is_done`].
    ///
    /// The epoch fence of [`SessionOp::Answers`] is checked under the
    /// same serving read that would apply the batch, so no structural
    /// delta can land between the check and the apply.
    pub fn serve(&self, id: SessionId, op: SessionOp<'_>) -> Result<SessionOutcome> {
        self.with_session(id, |serving, session| {
            let (candidate, applied) = match op {
                SessionOp::Question => (self.ask(id, session)?, 0),
                SessionOp::Answers { answers, epoch } => {
                    let structural = serving.structural_epoch;
                    if let Some(echoed) = epoch.filter(|&e| e < structural) {
                        return Err(ServerError::StaleEpoch { echoed, structural });
                    }
                    (None, self.apply(id, session, answers)?)
                }
                SessionOp::Status => (None, 0),
            };
            let universe = session.universe();
            let done = session.is_done();
            Ok(SessionOutcome {
                question: candidate.map(|c| (c, c.values(universe))),
                applied,
                interactions: session.interactions(),
                done,
                epoch: universe.epoch(),
                predicate: done.then(|| {
                    universe
                        .instance()
                        .predicate_string(&session.inferred_predicate())
                }),
            })
        })
    }

    /// [`Self::next_question`]'s body on an already-locked session.
    fn ask(&self, id: SessionId, session: &mut Session) -> Result<Option<Candidate>> {
        if let Some(pending) = session.pending_candidate() {
            return Ok(Some(pending));
        }
        let candidate = session.next()?;
        if let (Some(state), Some(c)) = (&self.durability, &candidate) {
            state.log(&WalRecord::Question { id, class: c.class })?;
        }
        Ok(candidate)
    }

    /// [`Self::answer_batch`]'s body on an already-locked session.
    fn apply(
        &self,
        id: SessionId,
        session: &mut Session,
        answers: &[(ClassId, Label)],
    ) -> Result<usize> {
        let before = session.history().len();
        let applied = session.apply_batch(answers);
        if let Some(state) = &self.durability {
            let suffix = &session.history()[before..];
            if !suffix.is_empty() {
                state.log(&WalRecord::Answers {
                    id,
                    answers: suffix.to_vec(),
                })?;
            }
        }
        Ok(applied?)
    }

    /// Number of answers recorded so far.
    ///
    /// Served from the parked payload for hibernated sessions — a metrics
    /// loop polling a parked fleet neither wakes sessions nor resets
    /// their idle clocks.
    pub fn interactions(&self, id: SessionId) -> Result<usize> {
        let slot = self.slot(id)?;
        let guard = slot.lock();
        Ok(match &guard.tier {
            Tier::Resident(resident) => resident.session.interactions(),
            Tier::Hibernated { history, .. } => history.len(),
            // The locator carries the length so metrics stay off-disk.
            Tier::Spilled { history_len, .. } => *history_len,
        })
    }

    /// The predicate inferred so far — `T(S⁺)`, the most specific
    /// predicate consistent with the answers (usable before completion,
    /// §4.1).
    ///
    /// Not a touch: for a hibernated session, `T(S⁺)` is recomputed
    /// directly from the parked replay log (`Ω ∩ ⋂ sig(positives)`, a few
    /// word-ANDs) instead of re-materializing the whole session.
    pub fn inferred_predicate(&self, id: SessionId) -> Result<BitSet> {
        let serving = self.serving.read();
        let slot = self.slot(id)?;
        let guard = slot.lock();
        let fold = |history: &[(ClassId, Label)]| {
            let mut theta = serving.universe.omega();
            for &(c, label) in history {
                if label == Label::Positive {
                    theta.intersect_with(serving.universe.sig(c));
                }
            }
            theta
        };
        Ok(match &guard.tier {
            Tier::Resident(resident) => resident.session.inferred_predicate(),
            Tier::Hibernated { history, .. } => fold(history),
            // Served from the checksummed segment payload without waking
            // — the slot stays spilled.
            Tier::Spilled { locator, .. } => fold(&self.read_spilled(*locator)?.history),
        })
    }

    /// A restartable snapshot of the session: strategy config + label
    /// history. The session keeps running; pair with [`Self::remove`] for
    /// eviction.
    ///
    /// A **hibernated** session is snapshotted straight from its parked
    /// replay log — no re-materialization and no touch — so periodically
    /// persisting a fleet of parked sessions never wakes them. (This is
    /// also why hibernation composes with snapshot-based hand-off: the
    /// parked representation *is* the snapshot payload.)
    pub fn snapshot(&self, id: SessionId) -> Result<SessionSnapshot> {
        let serving = self.serving.read();
        let slot = self.slot(id)?;
        let guard = slot.lock();
        let (history, pending) = match &guard.tier {
            Tier::Resident(resident) => {
                let session = &resident.session;
                (session.history().to_vec(), session.pending_class())
            }
            Tier::Hibernated { history, pending } => (history.clone(), *pending),
            // A spilled session's snapshot is read straight off its
            // segment frame — still no wake, still no touch.
            Tier::Spilled { locator, .. } => {
                let payload = self.read_spilled(*locator)?;
                (payload.history, payload.pending)
            }
        };
        Ok(SessionSnapshot {
            session: id,
            strategy: guard.config.clone(),
            history,
            pending,
            universe: Some(serving.fingerprint),
        })
    }

    /// Reads one spilled payload back through the spill store (slot mutex
    /// already held by the caller — spill after slot is the lock order).
    fn read_spilled(&self, locator: SpillLocator) -> Result<SpillPayload> {
        let state = self
            .durability
            .as_ref()
            .expect("spilled tier only exists under a durability tier");
        Ok(state.spill.lock().read(locator)?)
    }

    /// Rebuilds a snapshotted session under its original id (deterministic
    /// replay, see [`crate::snapshot`]). Future [`Self::create_session`]
    /// ids are bumped past it, so restores and fresh sessions never
    /// collide. Errors if the id is live, the history does not replay, or
    /// the snapshot is stamped with a different universe's fingerprint
    /// ([`ServerError::UniverseMismatch`] — unstamped legacy documents
    /// are accepted and validated by replay alone).
    pub fn restore(&self, snapshot: &SessionSnapshot) -> Result<SessionId> {
        let serving = self.serving.read();
        if let Some(found) = snapshot.universe {
            if found != serving.fingerprint {
                return Err(ServerError::UniverseMismatch {
                    expected: serving.fingerprint,
                    found,
                });
            }
        }
        let id = snapshot.session;
        let mut slot = Slot::new(
            snapshot.strategy.clone(),
            Tier::Hibernated {
                history: snapshot.history.clone(),
                pending: snapshot.pending,
            },
        );
        slot.wake(&serving.universe)?;
        let record = self.durability.is_some().then(|| WalRecord::Restore {
            id,
            strategy: snapshot.strategy.clone(),
            history: snapshot.history.clone(),
            pending: snapshot.pending,
        });
        self.insert(id, Arc::new(Mutex::new(slot)), record.as_ref())?;
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        Ok(id)
    }

    /// Parks every resident session idle for at least `ttl` into the
    /// hibernation tier (derived masks dropped; strategy config + label
    /// history kept; see [`ServerConfig::hibernate_ttl`]). Returns a
    /// [`SweepReport`] with the park count and per-tier byte deltas.
    /// `Duration::ZERO` parks everything — useful for tests and for
    /// draining a manager before hand-off.
    ///
    /// Parked sessions stay fully addressable: the next touch
    /// re-materializes them lazily, and [`Self::snapshot`] serves them
    /// without waking. Sessions busy under another thread's operation are
    /// still swept afterwards — the sweep takes each session mutex in
    /// turn. A park writes nothing to the WAL (it changes no session
    /// input; recovery re-parks every session that is not spilled); a
    /// durable manager still commits the log's pending group once.
    pub fn hibernate_idle(&self, ttl: Duration) -> Result<SweepReport> {
        let _serving = self.serving.read();
        let mut report = SweepReport::default();
        self.park_idle(ttl, &mut report);
        self.commit_wal()?;
        Ok(report)
    }

    /// The TTL park: visits the resident slots only, O(resident).
    fn park_idle(&self, ttl: Duration, report: &mut SweepReport) {
        for slot in self.resident_slots() {
            let mut guard = self.lock(&slot);
            if guard.last_touch.elapsed() < ttl {
                continue;
            }
            if guard.hibernate() {
                report.parked += 1;
            }
        }
    }

    /// Force-parks one session regardless of idle time; returns whether it
    /// was resident. Not a touch, and not logged.
    pub fn hibernate(&self, id: SessionId) -> Result<bool> {
        let _serving = self.serving.read();
        let slot = self.slot(id)?;
        let parked = self.lock(&slot).hibernate();
        Ok(parked)
    }

    /// The periodic maintenance pass the serving loop calls: the TTL park
    /// ([`Self::hibernate_idle`] with the configured
    /// [`ServerConfig::hibernate_ttl`], skipped when none is set), then —
    /// on a durable manager with a
    /// [`DurabilityConfig::resident_watermark_bytes`] — the **spill
    /// pass**: while the fleet's RAM footprint (resident + hibernated
    /// bytes, read off the tier gauges — a pass under the watermark walks
    /// nothing) exceeds the watermark, parked sessions spill oldest-idle
    /// first to the segment files, leaving a ~16-byte locator each. Each
    /// spilled payload is fsynced before its `Spill` record is framed
    /// (so a committed locator never points at unsynced bytes); one WAL
    /// fsync covers the whole pass.
    pub fn sweep(&self) -> Result<SweepReport> {
        let _serving = self.serving.read();
        let mut report = SweepReport::default();
        if let Some(ttl) = self.config.hibernate_ttl {
            self.park_idle(ttl, &mut report);
        }
        self.spill_to_watermark(&mut report)?;
        self.commit_wal()?;
        Ok(report)
    }

    fn spill_to_watermark(&self, report: &mut SweepReport) -> Result<()> {
        let Some(state) = &self.durability else {
            return Ok(());
        };
        let Some(watermark) = state.config.resident_watermark_bytes else {
            return Ok(());
        };
        let ram_bytes = || {
            let stats = self.gauges.load();
            stats.resident_bytes + stats.hibernated_bytes
        };
        if ram_bytes() <= watermark {
            return Ok(());
        }
        // Over it: collect the parked candidates, oldest idle first — the
        // sessions least likely to wake soon.
        let mut candidates: Vec<(Instant, SessionId, Arc<Mutex<Slot>>)> = Vec::new();
        for (id, slot) in self.all_slots() {
            let guard = slot.lock();
            if let Tier::Hibernated { .. } = guard.tier {
                candidates.push((guard.last_touch, id, Arc::clone(&slot)));
            }
        }
        candidates.sort_by_key(|&(touch, _, _)| touch);
        for (_, id, slot) in candidates {
            if ram_bytes() <= watermark {
                break;
            }
            let mut guard = self.lock(&slot);
            // Re-check under the lock: the session may have woken (or
            // been spilled by a racing sweep) since the candidate walk.
            let Tier::Hibernated { history, pending } = &guard.tier else {
                continue;
            };
            let payload = SpillPayload {
                id,
                strategy: guard.config.clone(),
                history: history.clone(),
                pending: *pending,
            };
            let locator = {
                let mut spill = state.spill.lock();
                let locator = spill.append(&payload)?;
                // The payload must be durable before its locator can reach
                // the log: `Wal::append` group-commits on its own schedule
                // (this pass's quota, or a concurrent answer's), so the
                // Spill record below may be written *and fsynced* at any
                // moment after it is framed. Syncing here — per entry, not
                // once after the loop — keeps the invariant that a
                // committed Spill record always points at synced bytes, on
                // power loss as well as process death. (`sync` is a no-op
                // when nothing is unsynced, so back-to-back spills into
                // one segment cost one fsync each, never more.)
                spill.sync()?;
                locator
            };
            // The Spill record is appended while the session mutex is
            // still held, so no post-wake Answers record can slip in
            // front of it.
            state.log(&WalRecord::Spill {
                id,
                segment: locator.segment,
                offset: locator.offset,
                len: locator.len,
            })?;
            guard.tier = Tier::Spilled {
                locator,
                history_len: payload.history.len(),
            };
            report.spilled += 1;
        }
        Ok(())
    }

    /// Forces an fsync of all WAL records appended so far (a no-op on a
    /// non-durable manager or a clean log). Called once per answer round,
    /// together with group commit it bounds the window of
    /// acknowledged-but-unsynced work; nothing calls it implicitly (the
    /// HTTP gateway does not), see
    /// [`DurabilityConfig::group_commit_every`].
    pub fn flush_wal(&self) -> Result<()> {
        let _serving = self.serving.read();
        self.commit_wal()
    }

    /// [`Self::flush_wal`] without the serving guard — the shared body,
    /// also called from the sweeps, which already hold the serving lock.
    fn commit_wal(&self) -> Result<()> {
        if let Some(state) = &self.durability {
            state.wal.lock().commit()?;
        }
        Ok(())
    }

    /// Applies a live-data edit script to the serving universe and
    /// migrates the whole fleet onto the result — the one way a manager's
    /// universe changes, atomically with respect to all other operations
    /// (the serving lock's write half quiesces the fleet first).
    ///
    /// The new universe is derived by [`Universe::apply_delta`] —
    /// incremental maintenance in O(Δ), not a rebuild. Requires a
    /// delta-capable universe ([`Universe::is_live`]), else
    /// [`ServerError::Delta`]. A durable manager then logs the edits (by
    /// value) with the post-delta fingerprint as one `Delta` record and
    /// commits it **before** anything changes: if that fails, the
    /// serving universe, its epoch and the fleet stay as they were, and
    /// once it succeeds the delta survives a crash — recovery re-applies
    /// it to the base universe.
    ///
    /// Whether the class structure is unchanged
    /// ([`Universe::same_classes`] — a count-only delta) is decided once
    /// for the fleet:
    ///
    /// * **Unchanged** — consistency and certainty read signatures only,
    ///   so no history can have become invalid. A resident session
    ///   rebinds through [`Session::rebind`], its masks carried
    ///   verbatim in O(masks); a parked or spilled session is left exactly
    ///   as it is. Only the resident slots are visited (found through the
    ///   resident index, not a table walk), so the migration costs
    ///   O(resident sessions), replays nothing and reads no segment.
    /// * **Changed** — every session, whatever its tier, is remapped by
    ///   class signature ([`remap_replay_parts`]), re-validated by a full
    ///   replay on the new universe, and put back into its own tier
    ///   (resident stays resident, parked stays parked; a spilled one
    ///   comes back parked). Labels whose class vanished are dropped
    ///   (consistency only widens); a session whose remapped history no
    ///   longer replays (or whose spilled payload cannot be read) is
    ///   removed, logged as a `Remove`, and reported in
    ///   [`MigrationReport::invalidated`] — loudly, never served wrong.
    pub fn apply_delta(&self, delta: &UniverseDelta) -> Result<MigrationReport> {
        let mut serving = self.serving.write();
        let old = Arc::clone(&serving.universe);
        let universe = Arc::new(old.apply_delta(delta).map_err(ServerError::Delta)?);
        if let Some(state) = &self.durability {
            let interner = old.instance().interner();
            state.wal.lock().append_committed(&WalRecord::Delta {
                edits: delta
                    .edits()
                    .iter()
                    .map(|e| (e.side, e.op, e.row.resolve(interner)))
                    .collect(),
                fingerprint: universe.fingerprint(),
            })?;
        }
        let mut report = MigrationReport {
            from_epoch: old.epoch(),
            to_epoch: universe.epoch(),
            to_fingerprint: universe.fingerprint(),
            ..MigrationReport::default()
        };
        // Decided once for the whole fleet: with every signature in place
        // a parked replay log already means the same thing on the new
        // universe, and replaying it would hand it back unchanged — so a
        // count-only delta visits the resident slots alone, and a
        // structural one every slot. The serving write lock has quiesced
        // the fleet, so the gauges are exact and the visits block nobody.
        let same_classes = old.same_classes(&universe);
        report.sessions = self.gauges.load().sessions;
        let slots: Vec<Arc<Mutex<Slot>>> = if same_classes {
            self.resident_slots()
        } else {
            self.all_slots().into_iter().map(|(_, slot)| slot).collect()
        };
        let mut doomed: Vec<SessionId> = Vec::new();
        for slot in &slots {
            // The guard re-counts the slot in this same visit, so the
            // gauges follow the migration without a walk of their own.
            let mut guard = self.lock(slot);
            let slot: &mut Slot = &mut guard;
            let carried = same_classes
                && match &mut slot.tier {
                    Tier::Resident(resident) => {
                        resident.session.rebind(Arc::clone(&universe), &slot.config)
                    }
                    _ => true,
                };
            if carried {
                continue;
            }
            // The class structure changed: remap the replay log by
            // signature, replay it, and return the session to its tier.
            let resident = matches!(slot.tier, Tier::Resident(_));
            let dropped = self.lift(slot).ok().and_then(|()| {
                let (history, pending) = slot.take_replay_parts();
                let (history, pending, dropped) =
                    remap_replay_parts(&old, &universe, history, pending);
                slot.tier = Tier::Hibernated { history, pending };
                slot.wake(&universe).ok().map(|_| dropped)
            });
            let Some(dropped) = dropped else {
                // Leaves the gauges with this visit; unlinked below.
                slot.counted = false;
                doomed.push(slot.id);
                continue;
            };
            if !resident {
                slot.hibernate();
            }
            report.replayed += 1;
            report.dropped_labels += dropped;
        }
        report.carried = report.sessions - report.replayed - doomed.len();
        for &id in &doomed {
            self.shard(id).write().remove(&id);
        }
        serving.universe = universe;
        serving.fingerprint = report.to_fingerprint;
        if !same_classes {
            serving.structural_epoch = report.to_epoch;
        }
        // Logged after the swap, so a failure here leaves RAM consistent
        // on the new universe; recovery would then refuse the unlogged
        // session loudly instead of serving it.
        if let Some(state) = &self.durability {
            for &id in &doomed {
                state.log(&WalRecord::Remove { id })?;
            }
        }
        self.commit_wal()?;
        report.invalidated = doomed;
        Ok(report)
    }

    /// Drops a session. Operations already holding its handle finish
    /// against the detached session, which no longer counts in
    /// [`Self::stats`]; later calls get [`ServerError::UnknownSession`].
    /// (On a durable manager such detached operations may append records
    /// behind the `Remove` — recovery tolerates and skips them.)
    pub fn remove(&self, id: SessionId) -> Result<()> {
        let _serving = self.serving.read();
        let slot = {
            let mut shard = self.shard(id).write();
            if !shard.contains_key(&id) {
                return Err(ServerError::UnknownSession(id));
            }
            // Log first, delete second (the mirror of insert's unwind):
            // a WAL failure leaves the session live and the Remove
            // unlogged, so the table and the log agree either way — never
            // a removal the caller saw fail that recovery silently
            // honors, nor one that succeeded but recovery resurrects.
            if let Some(state) = &self.durability {
                state.log(&WalRecord::Remove { id })?;
            }
            shard.remove(&id).expect("checked above")
        };
        // Detach outside the shard lock, which must not wait behind a
        // request busy on this session; only the remover gets here.
        self.lock(&slot).counted = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jqi_core::paper::flight_hotel;

    fn manager() -> SessionManager {
        SessionManager::new(
            Arc::new(Universe::build(flight_hotel())),
            ServerConfig::default(),
        )
    }

    /// Drives `id` to completion with a goal-predicate oracle.
    fn drive(manager: &SessionManager, id: SessionId, goal: &BitSet) -> BitSet {
        while let Some(q) = manager.next_question(id).unwrap() {
            let label = if goal.is_subset(manager.universe().sig(q.class)) {
                Label::Positive
            } else {
                Label::Negative
            };
            manager.answer(id, q.class, label).unwrap();
        }
        manager.inferred_predicate(id).unwrap()
    }

    #[test]
    fn drives_a_session_to_the_paper_goal() {
        let m = manager();
        let goal = jqi_core::predicate_from_names(
            m.universe().instance(),
            &[("To", "City"), ("Airline", "Discount")],
        )
        .unwrap();
        let id = m.create_session(StrategyConfig::Lks { depth: 2 }).unwrap();
        let theta = drive(&m, id, &goal);
        assert_eq!(
            m.universe().instance().predicate_string(&theta),
            "{Flight.To=Hotel.City ∧ Flight.Airline=Hotel.Discount}"
        );
        assert!(m.is_done(id).unwrap());
    }

    #[test]
    fn next_question_is_idempotent_while_unanswered() {
        let m = manager();
        let id = m.create_session(StrategyConfig::Bu).unwrap();
        let q1 = m.next_question(id).unwrap().unwrap();
        let q2 = m.next_question(id).unwrap().unwrap();
        assert_eq!(q1.class, q2.class);
        assert_eq!(m.interactions(id).unwrap(), 0);
    }

    #[test]
    fn answers_are_idempotent_and_conflicts_are_rejected() {
        let m = manager();
        let id = m.create_session(StrategyConfig::Td).unwrap();
        let q = m.next_question(id).unwrap().unwrap();
        assert!(m.answer(id, q.class, Label::Negative).unwrap());
        // A second crowd worker repeating the answer is a no-op…
        assert!(!m.answer(id, q.class, Label::Negative).unwrap());
        assert_eq!(m.interactions(id).unwrap(), 1);
        // …but a contradicting one is an error.
        let e = m.answer(id, q.class, Label::Positive).unwrap_err();
        assert!(matches!(
            e,
            ServerError::Inference(InferenceError::ConflictingLabel { .. })
        ));
    }

    #[test]
    fn out_of_order_batches_supersede_the_outstanding_question() {
        let m = manager();
        let id = m.create_session(StrategyConfig::Bu).unwrap();
        let q = m.next_question(id).unwrap().unwrap();
        // Answers for *other* classes arrive first (async task queue).
        let others: Vec<(ClassId, Label)> = (0..m.universe().num_classes())
            .filter(|&c| c != q.class)
            .take(2)
            .map(|c| (c, Label::Negative))
            .collect();
        let applied = m.answer_batch(id, &others).unwrap();
        assert!(applied >= 1);
        // The session keeps going: either the old question is still open
        // or a fresh one replaced it.
        let _ = m.next_question(id).unwrap();
    }

    #[test]
    fn stats_report_per_session_memory() {
        let m = manager();
        let empty = m.stats();
        assert_eq!(empty.sessions, 0);
        assert_eq!(empty.resident_sessions, 0);
        assert_eq!(empty.hibernated_sessions, 0);
        assert_eq!(empty.state_bytes, 0);
        // The universe's decision cache rides along in the stats.
        assert!(empty.decision_cache.budget_bytes > 0);
        let a = m.create_session(StrategyConfig::Bu).unwrap();
        let b = m.create_session(StrategyConfig::Lks { depth: 2 }).unwrap();
        let q = m.next_question(a).unwrap().unwrap();
        m.answer(a, q.class, Label::Negative).unwrap();
        let stats = m.stats();
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.resident_sessions, 2);
        // Mask-compressed sessions over the paper's instance are ~100 bytes
        // of derived state each.
        assert!(stats.state_bytes > 0);
        assert!(
            stats.state_bytes_per_session() <= 160.0,
            "session state ballooned: {} bytes/session",
            stats.state_bytes_per_session()
        );
        // The full resident footprint includes the session struct itself.
        assert!(stats.resident_bytes > stats.state_bytes);
        // One answer recorded: history accounting follows.
        assert_eq!(stats.history_bytes, std::mem::size_of::<(ClassId, Label)>());
        // The strategy question above went through the decision cache.
        assert!(stats.decision_cache.hits + stats.decision_cache.misses > 0);
        m.remove(a).unwrap();
        m.remove(b).unwrap();
        assert_eq!(m.stats().sessions, 0);
    }

    #[test]
    fn stats_take_neither_a_shard_lock_nor_a_session_mutex() {
        use std::sync::{mpsc, Barrier};
        let m = manager();
        let id = m.create_session(StrategyConfig::Bu).unwrap();
        let want = m.stats_by_walk();
        let slot = m.slot(id).unwrap();
        let held = Barrier::new(2);
        let (release, released) = mpsc::channel::<()>();
        let (m, slot, held) = (&m, &slot, &held);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _session = slot.lock();
                let _shard = m.shard(id).write();
                held.wait();
                released.recv().unwrap();
            });
            held.wait();
            // Sampled on a thread of its own, so a read that waits on
            // either lock fails the test instead of hanging it.
            let (sent, sample) = mpsc::channel();
            scope.spawn(move || sent.send(m.stats()).unwrap());
            let got = sample.recv_timeout(Duration::from_secs(10));
            release.send(()).unwrap();
            assert_eq!(got.expect("stats() waited on a held lock"), want);
        });
    }

    #[test]
    fn hibernated_sessions_shrink_and_wake_transparently() {
        let m = manager();
        let goal = jqi_core::predicate_from_names(
            m.universe().instance(),
            &[("To", "City"), ("Airline", "Discount")],
        )
        .unwrap();
        // Drive a few answers, park, and compare against a twin that never
        // hibernates.
        let id = m.create_session(StrategyConfig::Lks { depth: 2 }).unwrap();
        let twin = m.create_session(StrategyConfig::Lks { depth: 2 }).unwrap();
        for _ in 0..2 {
            let q = m.next_question(id).unwrap().unwrap();
            let label = if goal.is_subset(m.universe().sig(q.class)) {
                Label::Positive
            } else {
                Label::Negative
            };
            m.answer(id, q.class, label).unwrap();
            let qt = m.next_question(twin).unwrap().unwrap();
            assert_eq!(qt.class, q.class, "twin asked a different question");
            m.answer(twin, qt.class, label).unwrap();
        }
        assert!(m.hibernate(id).unwrap());
        assert!(!m.hibernate(id).unwrap(), "second park is a no-op");
        let stats = m.stats();
        assert_eq!(stats, m.stats_by_walk());
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.hibernated_sessions, 1);
        assert_eq!(stats.resident_sessions, 1);
        // The parked footprint is a fraction of the materialized one.
        assert!(
            stats.hibernated_bytes_per_session() * 2.0 <= stats.resident_bytes_per_session(),
            "parked session not at most half the resident footprint: {} vs {}",
            stats.hibernated_bytes_per_session(),
            stats.resident_bytes_per_session()
        );
        // Read-only queries are served from the parked payload without
        // waking: snapshot, interactions, and the inferred predicate.
        let snap = m.snapshot(id).unwrap();
        assert_eq!(snap.history.len(), 2);
        assert_eq!(m.interactions(id).unwrap(), 2);
        assert_eq!(
            m.inferred_predicate(id).unwrap(),
            m.inferred_predicate(twin).unwrap(),
            "parked θ diverges from the resident twin's"
        );
        assert_eq!(
            m.stats().hibernated_sessions,
            1,
            "a read-only query woke the session"
        );
        // The next touch re-materializes lazily and continues exactly like
        // the never-hibernated twin.
        while let Some(q) = m.next_question(id).unwrap() {
            let qt = m.next_question(twin).unwrap().unwrap();
            assert_eq!(qt.class, q.class, "woken session diverged from twin");
            let label = if goal.is_subset(m.universe().sig(q.class)) {
                Label::Positive
            } else {
                Label::Negative
            };
            m.answer(id, q.class, label).unwrap();
            m.answer(twin, qt.class, label).unwrap();
        }
        assert!(m.next_question(twin).unwrap().is_none());
        assert_eq!(
            m.inferred_predicate(id).unwrap(),
            m.inferred_predicate(twin).unwrap()
        );
        assert_eq!(m.stats().hibernated_sessions, 0);
    }

    #[test]
    fn hibernate_idle_respects_ttl_and_sweep_respects_config() {
        let m = manager();
        let a = m.create_session(StrategyConfig::Bu).unwrap();
        let _b = m.create_session(StrategyConfig::Td).unwrap();
        // Nothing has been idle for an hour.
        assert_eq!(
            m.hibernate_idle(Duration::from_secs(3600)).unwrap().parked,
            0
        );
        // A zero TTL parks everything at once, and the tier gauges show
        // the RAM it moved: resident bytes fall, hibernated bytes rise.
        let before = m.stats();
        let report = m.hibernate_idle(Duration::ZERO).unwrap();
        assert_eq!(report.parked, 2);
        assert_eq!(report.spilled, 0);
        let after = m.stats();
        assert!(after.resident_bytes < before.resident_bytes);
        assert!(after.hibernated_bytes > before.hibernated_bytes);
        assert!(
            before.resident_bytes - after.resident_bytes
                > after.hibernated_bytes - before.hibernated_bytes
        );
        assert_eq!(after.hibernated_sessions, 2);
        // Touching one wakes exactly that one.
        let _ = m.next_question(a).unwrap();
        assert_eq!(m.stats().hibernated_sessions, 1);
        // sweep() is a no-op without a configured TTL…
        assert_eq!(m.sweep().unwrap(), SweepReport::default());
        // …and parks idle sessions when one is set.
        let ttl = SessionManager::new(
            m.universe(),
            ServerConfig {
                hibernate_ttl: Some(Duration::ZERO),
                ..ServerConfig::default()
            },
        );
        let c = ttl.create_session(StrategyConfig::Bu).unwrap();
        assert_eq!(ttl.sweep().unwrap().parked, 1);
        assert_eq!(ttl.stats().hibernated_sessions, 1);
        let _ = ttl.next_question(c).unwrap();
        assert_eq!(ttl.stats().hibernated_sessions, 0);
    }

    #[test]
    fn pending_question_survives_hibernation() {
        let m = manager();
        let id = m.create_session(StrategyConfig::Td).unwrap();
        let q = m.next_question(id).unwrap().unwrap();
        assert!(m.hibernate(id).unwrap());
        // Re-delivery after waking returns the same outstanding question
        // without consuming a strategy step.
        let q2 = m.next_question(id).unwrap().unwrap();
        assert_eq!(q2.class, q.class);
        assert_eq!(m.interactions(id).unwrap(), 0);
    }

    #[test]
    fn unknown_and_removed_sessions_error() {
        let m = manager();
        assert_eq!(
            m.next_question(99).unwrap_err(),
            ServerError::UnknownSession(99)
        );
        let id = m.create_session(StrategyConfig::Bu).unwrap();
        m.remove(id).unwrap();
        assert_eq!(m.remove(id).unwrap_err(), ServerError::UnknownSession(id));
        assert_eq!(m.session_count(), 0);
    }

    #[test]
    fn restore_preserves_id_and_bumps_allocation() {
        let m = manager();
        let goal =
            jqi_core::predicate_from_names(m.universe().instance(), &[("To", "City")]).unwrap();
        let id = m.create_session(StrategyConfig::Rnd { seed: 5 }).unwrap();
        let q = m.next_question(id).unwrap().unwrap();
        let label = if goal.is_subset(m.universe().sig(q.class)) {
            Label::Positive
        } else {
            Label::Negative
        };
        m.answer(id, q.class, label).unwrap();
        let snap = m.snapshot(id).unwrap();

        // Simulate a restart: a brand-new manager restores the snapshot.
        let m2 = SessionManager::new(
            m.universe(),
            ServerConfig {
                shards: 3,
                ..ServerConfig::default()
            },
        );
        let restored = m2.restore(&snap).unwrap();
        assert_eq!(restored, id);
        assert_eq!(m2.interactions(id).unwrap(), 1);
        // Restoring again under a live id collides.
        assert_eq!(
            m2.restore(&snap).unwrap_err(),
            ServerError::SessionExists(id)
        );
        // Fresh ids skip past the restored one.
        let fresh = m2.create_session(StrategyConfig::Bu).unwrap();
        assert!(fresh > id);
        // And both reach the same final predicate as an uninterrupted run.
        let theta_restored = drive(&m2, id, &goal);
        let id3 = m.create_session(StrategyConfig::Rnd { seed: 5 }).unwrap();
        let theta_solo = drive(&m, id3, &goal);
        assert_eq!(theta_restored, theta_solo);
    }

    #[test]
    fn restore_rejects_snapshots_from_a_different_universe() {
        let m = manager();
        let id = m.create_session(StrategyConfig::Bu).unwrap();
        let snap = m.snapshot(id).unwrap();
        assert_eq!(snap.universe, Some(m.universe_fingerprint()));

        let other = SessionManager::new(
            Arc::new(Universe::build(jqi_core::paper::example_2_1())),
            ServerConfig::default(),
        );
        let err = other.restore(&snap).unwrap_err();
        assert!(matches!(err, ServerError::UniverseMismatch { .. }));
        // Unstamped (legacy) snapshots still restore unchecked.
        let legacy = SessionSnapshot {
            universe: None,
            ..snap
        };
        assert_eq!(other.restore(&legacy).unwrap(), id);
    }

    // ------------------------------------------------------------------
    // Durability: the manager-level WAL / spill / recover round trips.
    // (Codec-, WAL-, and recovery-level corruption cases live in
    // `durability::*`; crash scripts at full workloads live in
    // `tests/durability_props.rs`.)
    // ------------------------------------------------------------------

    use crate::durability::{MemSegments, MemWal};

    fn durable_pair(
        universe: &Arc<Universe>,
        wal: MemWal,
        segments: MemSegments,
        durability: DurabilityConfig,
    ) -> (SessionManager, RecoveryReport) {
        SessionManager::recover_with_storage(
            Arc::clone(universe),
            ServerConfig::default(),
            durability,
            Box::new(wal),
            Box::new(segments),
        )
        .unwrap()
    }

    #[test]
    fn durable_fleet_survives_a_restart() {
        let universe = Arc::new(Universe::build(flight_hotel()));
        let goal = jqi_core::predicate_from_names(universe.instance(), &[("To", "City")]).unwrap();
        let wal = MemWal::new();
        let segments = MemSegments::new();
        let (m, report) = durable_pair(
            &universe,
            wal.clone(),
            segments.clone(),
            DurabilityConfig::default(),
        );
        assert_eq!(report, RecoveryReport::default());

        // One finished session, one mid-flight with a pending question,
        // one created-then-removed.
        let done = m.create_session(StrategyConfig::Lks { depth: 2 }).unwrap();
        let theta = drive(&m, done, &goal);
        let mid = m.create_session(StrategyConfig::Bu).unwrap();
        let q = m.next_question(mid).unwrap().unwrap();
        m.answer(mid, q.class, Label::Negative).unwrap();
        let pending = m.next_question(mid).unwrap().map(|q| q.class);
        let gone = m.create_session(StrategyConfig::Td).unwrap();
        m.remove(gone).unwrap();
        m.flush_wal().unwrap();
        let mid_snap = m.snapshot(mid).unwrap();
        drop(m);

        // "Restart": recover from the durable image alone.
        let (r, report) = durable_pair(
            &universe,
            MemWal::from_bytes(wal.durable_image()),
            segments,
            DurabilityConfig::default(),
        );
        assert_eq!(report.sessions, 2);
        assert_eq!(report.wal_torn_bytes, 0);
        assert_eq!(r.session_count(), 2);
        assert_eq!(r.inferred_predicate(done).unwrap(), theta);
        assert!(r.is_done(done).unwrap());
        assert_eq!(r.snapshot(mid).unwrap().history, mid_snap.history);
        assert_eq!(r.next_question(mid).unwrap().map(|q| q.class), pending);
        assert!(matches!(
            r.next_question(gone).unwrap_err(),
            ServerError::UnknownSession(_)
        ));
        // Recovered ids stay unique: the allocator resumes past them.
        let fresh = r.create_session(StrategyConfig::Bu).unwrap();
        assert!(fresh > mid);
        // And the recovered mid-flight session finishes like a live one.
        let theta_mid = drive(&r, mid, &goal);
        assert_eq!(
            universe.instance().predicate_string(&theta_mid),
            universe.instance().predicate_string(&goal)
        );
    }

    #[test]
    fn torn_wal_tail_is_truncated_not_fatal() {
        let universe = Arc::new(Universe::build(flight_hotel()));
        let wal = MemWal::new();
        let (m, _) = durable_pair(
            &universe,
            wal.clone(),
            MemSegments::new(),
            DurabilityConfig::default(),
        );
        let a = m.create_session(StrategyConfig::Bu).unwrap();
        let q = m.next_question(a).unwrap().unwrap();
        m.answer(a, q.class, Label::Negative).unwrap();
        let _b = m.create_session(StrategyConfig::Td).unwrap();
        m.flush_wal().unwrap();
        drop(m);

        // Chop mid-frame through the last record — the torn tail an
        // interrupted append leaves behind.
        let mut image = wal.durable_image();
        image.truncate(image.len() - 3);
        let (r, report) = durable_pair(
            &universe,
            MemWal::from_bytes(image),
            MemSegments::new(),
            DurabilityConfig::default(),
        );
        assert!(report.wal_torn_bytes > 0);
        // Session `a` (fully before the tear) survives with its answer.
        assert_eq!(r.interactions(a).unwrap(), 1);
    }

    #[test]
    fn sweep_spills_past_the_watermark_and_recovery_restores_the_spilled_tier() {
        let universe = Arc::new(Universe::build(flight_hotel()));
        let goal = jqi_core::predicate_from_names(universe.instance(), &[("To", "City")]).unwrap();
        let wal = MemWal::new();
        let segments = MemSegments::new();
        let durability = DurabilityConfig {
            resident_watermark_bytes: Some(0),
            segment_max_bytes: 256, // force rotation across several spills
            ..DurabilityConfig::default()
        };
        let (m, _) = durable_pair(&universe, wal.clone(), segments.clone(), durability.clone());
        let ids: Vec<SessionId> = (0..6)
            .map(|i| {
                let id = m
                    .create_session(if i % 2 == 0 {
                        StrategyConfig::Bu
                    } else {
                        StrategyConfig::Td
                    })
                    .unwrap();
                let q = m.next_question(id).unwrap().unwrap();
                m.answer(id, q.class, Label::Negative).unwrap();
                id
            })
            .collect();
        let theta0 = m.inferred_predicate(ids[0]).unwrap();

        // Park everything, then sweep against a zero watermark: every
        // parked session must leave RAM for the segment files.
        let parked = m.hibernate_idle(Duration::ZERO).unwrap();
        assert_eq!(parked.parked, ids.len());
        let before = m.stats();
        let swept = m.sweep().unwrap();
        assert_eq!(swept.spilled, ids.len());
        let stats = m.stats();
        assert!(stats.hibernated_bytes < before.hibernated_bytes);
        assert!(stats.spilled_bytes > before.spilled_bytes);
        assert_eq!(stats, m.stats_by_walk());
        assert_eq!(stats.spilled_sessions, ids.len());
        assert_eq!(stats.hibernated_sessions, 0);
        let d = stats.durability.unwrap();
        assert_eq!(d.spill_entries, ids.len() as u64);
        assert!(d.wal_records >= 3 * ids.len() as u64);

        // Read-only serves answer from disk without re-admitting the
        // session to RAM…
        assert_eq!(m.inferred_predicate(ids[0]).unwrap(), theta0);
        assert_eq!(m.interactions(ids[1]).unwrap(), 1);
        let snap = m.snapshot(ids[2]).unwrap();
        assert_eq!(snap.history.len(), 1);
        assert_eq!(m.stats().spilled_sessions, ids.len());
        // …while a mutating touch wakes it for real.
        let _ = m.next_question(ids[3]).unwrap();
        assert_eq!(m.stats().spilled_sessions, ids.len() - 1);
        m.flush_wal().unwrap();
        drop(m);

        // Recovery keeps cold sessions cold: the spilled stay spilled.
        let (r, report) = durable_pair(
            &universe,
            MemWal::from_bytes(wal.durable_image()),
            segments,
            durability,
        );
        assert_eq!(report.sessions, ids.len());
        assert_eq!(report.spilled, ids.len() - 1);
        assert_eq!(report.hibernated, 1);
        assert_eq!(r.stats().spilled_sessions, ids.len() - 1);
        // Every session — spilled or not — still finishes correctly.
        for &id in &ids {
            drive(&r, id, &goal);
            assert!(r.is_done(id).unwrap());
        }
    }

    #[test]
    fn a_durable_park_writes_nothing_to_the_log() {
        let universe = Arc::new(Universe::build(flight_hotel()));
        let wal = MemWal::new();
        let segments = MemSegments::new();
        let (m, _) = durable_pair(
            &universe,
            wal.clone(),
            segments.clone(),
            DurabilityConfig::default(),
        );
        // Sessions with 0, 1 and 2 answers, each with a question pending.
        let ids: Vec<SessionId> = (0..3)
            .map(|answers| {
                let id = m.create_session(StrategyConfig::Bu).unwrap();
                for _ in 0..answers {
                    let q = m.next_question(id).unwrap().unwrap();
                    m.answer(id, q.class, Label::Negative).unwrap();
                }
                m.next_question(id).unwrap().unwrap();
                id
            })
            .collect();
        let records = || m.stats().durability.unwrap().wal_records;
        let before = records();
        assert!(m.hibernate(ids[0]).unwrap());
        assert_eq!(records(), before, "a forced park appends nothing");
        assert_eq!(m.hibernate_idle(Duration::ZERO).unwrap().parked, 2);
        assert_eq!(records(), before, "a TTL park appends nothing");
        let live: Vec<(SessionSnapshot, usize)> = ids
            .iter()
            .map(|&id| (m.snapshot(id).unwrap(), m.interactions(id).unwrap()))
            .collect();
        m.flush_wal().unwrap();
        drop(m);

        // Every session comes back parked, exactly as it was.
        let (r, report) = durable_pair(
            &universe,
            MemWal::from_bytes(wal.durable_image()),
            segments,
            DurabilityConfig::default(),
        );
        assert_eq!((report.hibernated, report.spilled), (ids.len(), 0));
        assert_eq!(r.stats().hibernated_sessions, ids.len());
        for (&id, (snap, interactions)) in ids.iter().zip(&live) {
            assert_eq!(&r.snapshot(id).unwrap(), snap);
            assert_eq!(r.interactions(id).unwrap(), *interactions);
        }
    }

    #[test]
    fn a_spill_woken_without_a_record_recovers_spilled_at_its_locator() {
        let universe = Arc::new(Universe::build(flight_hotel()));
        let wal = MemWal::new();
        let segments = MemSegments::new();
        let durability = DurabilityConfig {
            resident_watermark_bytes: Some(0),
            ..DurabilityConfig::default()
        };
        let (m, _) = durable_pair(&universe, wal.clone(), segments.clone(), durability.clone());
        let id = m.create_session(StrategyConfig::Bu).unwrap();
        let q = m.next_question(id).unwrap().unwrap();
        m.hibernate(id).unwrap();
        assert_eq!(m.sweep().unwrap().spilled, 1);
        // Re-delivering the pending question wakes the session but logs
        // nothing, so its spill locator still holds its whole state.
        let records = m.stats().durability.unwrap().wal_records;
        assert_eq!(m.next_question(id).unwrap().unwrap().class, q.class);
        assert_eq!(m.stats().spilled_sessions, 0);
        assert!(m.hibernate(id).unwrap());
        assert_eq!(m.stats().durability.unwrap().wal_records, records);
        let snap = m.snapshot(id).unwrap();
        m.flush_wal().unwrap();
        drop(m);

        let (r, report) = durable_pair(
            &universe,
            MemWal::from_bytes(wal.durable_image()),
            segments,
            durability,
        );
        assert_eq!((report.spilled, report.hibernated), (1, 0));
        assert_eq!(r.snapshot(id).unwrap(), snap);
        assert_eq!(r.next_question(id).unwrap().unwrap().class, q.class);
    }

    #[test]
    fn recovery_refuses_a_wal_from_another_universe() {
        let flight = Arc::new(Universe::build(flight_hotel()));
        let wal = MemWal::new();
        let (m, _) = durable_pair(
            &flight,
            wal.clone(),
            MemSegments::new(),
            DurabilityConfig::default(),
        );
        m.create_session(StrategyConfig::Bu).unwrap();
        m.flush_wal().unwrap();
        drop(m);

        let other = Arc::new(Universe::build(jqi_core::paper::example_2_1()));
        let err = SessionManager::recover_with_storage(
            other,
            ServerConfig::default(),
            DurabilityConfig::default(),
            Box::new(MemWal::from_bytes(wal.durable_image())),
            Box::new(MemSegments::new()),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            DurabilityError::FingerprintMismatch {
                source: "wal header",
                ..
            }
        ));
    }

    #[test]
    fn group_commit_defers_fsyncs_but_flush_is_immediate() {
        let universe = Arc::new(Universe::build(flight_hotel()));
        let wal = MemWal::new();
        let (m, _) = durable_pair(
            &universe,
            wal.clone(),
            MemSegments::new(),
            DurabilityConfig {
                group_commit_every: 1000,
                ..DurabilityConfig::default()
            },
        );
        let id = m.create_session(StrategyConfig::Bu).unwrap();
        let q = m.next_question(id).unwrap().unwrap();
        m.answer(id, q.class, Label::Negative).unwrap();
        let before = m.stats().durability.unwrap();
        assert_eq!(before.wal_syncs, 0, "group quota of 1000 never reached");
        m.flush_wal().unwrap();
        let after = m.stats().durability.unwrap();
        assert_eq!(after.wal_syncs, 1);
        assert!(after.wal_records >= 3);
        // The durable image now contains everything the pristine one does.
        assert_eq!(wal.durable_image(), wal.pristine_image());
    }

    // ------------------------------------------------------------------
    // Live-data migration: apply_delta over the session fleet.
    // ------------------------------------------------------------------

    use jqi_core::IngestOptions;
    use jqi_relation::{RowChunk, Side, StreamSchema, Tuple, Value};

    /// A delta-capable universe: R(A1,A2) × P(B1), shared symbols {1, 2},
    /// two classes (signatures {A1=B1} and {}).
    fn live_universe() -> Arc<Universe> {
        let schema = StreamSchema::from_names("R", &["A1", "A2"], "P", &["B1"]).unwrap();
        let r_rows: [[i64; 2]; 4] = [[1, 100], [2, 101], [1, 102], [3, 103]];
        let p_rows: [[i64; 1]; 4] = [[1], [2], [1], [4]];
        let chunks = vec![
            RowChunk {
                side: Side::R,
                rows: r_rows
                    .iter()
                    .map(|r| {
                        schema
                            .intern_row(Side::R, &[Value::int(r[0]), Value::int(r[1])])
                            .unwrap()
                    })
                    .collect(),
            },
            RowChunk {
                side: Side::P,
                rows: p_rows
                    .iter()
                    .map(|p| schema.intern_row(Side::P, &[Value::int(p[0])]).unwrap())
                    .collect(),
            },
        ];
        let (u, _) = Universe::build_streaming_live(schema, || chunks.clone().into_iter(), 1);
        Arc::new(u)
    }

    fn row(u: &Universe, values: &[i64]) -> Tuple {
        let vals: Vec<Value> = values.iter().map(|&v| Value::int(v)).collect();
        Tuple::intern(u.instance().interner(), &vals)
    }

    #[test]
    fn apply_delta_carries_sessions_over_count_only_edits() {
        let u = live_universe();
        let m = SessionManager::new(Arc::clone(&u), ServerConfig::default());
        let id = m.create_session(StrategyConfig::Td).unwrap();
        let parked = m.create_session(StrategyConfig::Bu).unwrap();
        for &sid in &[id, parked] {
            let q = m.next_question(sid).unwrap().unwrap();
            m.answer(sid, q.class, Label::Negative).unwrap();
        }
        // A pending question rides along with the parked payload.
        let parked_q = m.next_question(parked).unwrap();
        assert!(parked_q.is_some());
        assert!(m.hibernate(parked).unwrap());
        let parked_pre = m.snapshot(parked).unwrap();
        let pre = m.snapshot(id).unwrap();
        let old_fp = m.universe_fingerprint();

        // Duplicate an existing row: weights change, classes do not.
        let mut d = UniverseDelta::new();
        d.insert(Side::R, row(&u, &[1, 100]));
        let report = m.apply_delta(&d).unwrap();
        assert_eq!(report.sessions, 2);
        assert_eq!(
            report.carried, 2,
            "count-only deltas carry masks verbatim and leave parked sessions be"
        );
        assert_eq!(report.replayed, 0);
        assert_eq!(report.dropped_labels, 0);
        assert!(report.invalidated.is_empty());
        assert_eq!((report.from_epoch, report.to_epoch), (0, 1));
        assert_ne!(m.universe_fingerprint(), old_fp);
        assert_eq!(report.to_fingerprint, m.universe_fingerprint());
        assert_eq!(m.universe().epoch(), 1);
        // The parked session was not woken, and its payload is unchanged.
        assert_eq!(m.stats().hibernated_sessions, 1);
        let parked_post = m.snapshot(parked).unwrap();
        assert_eq!(
            (parked_post.history, parked_post.pending),
            (parked_pre.history, parked_pre.pending)
        );
        // The labels survived and both sessions still drive to completion;
        // the parked one re-delivers its outstanding question first.
        assert_eq!(m.next_question(parked).unwrap(), parked_q);
        for &sid in &[id, parked] {
            assert_eq!(m.interactions(sid).unwrap(), 1);
            while let Some(q) = m.next_question(sid).unwrap() {
                m.answer(sid, q.class, Label::Negative).unwrap();
            }
            assert!(m.is_done(sid).unwrap());
        }
        // A pre-delta snapshot is now another universe's snapshot.
        assert!(matches!(
            m.restore(&SessionSnapshot {
                session: 999,
                ..pre
            })
            .unwrap_err(),
            ServerError::UniverseMismatch { .. }
        ));
    }

    #[test]
    fn apply_delta_replays_sessions_over_structural_edits_without_waking_parked_ones() {
        let u = live_universe();
        let m = SessionManager::new(Arc::clone(&u), ServerConfig::default());
        let resident = m.create_session(StrategyConfig::Td).unwrap();
        let parked = m.create_session(StrategyConfig::Td).unwrap();
        for &id in &[resident, parked] {
            let q = m.next_question(id).unwrap().unwrap();
            m.answer(id, q.class, Label::Negative).unwrap();
        }
        assert!(m.hibernate(parked).unwrap());

        // A new symbol combination births a class: [1,1] meets P row [1]
        // on both attributes (signature {A1=B1, A2=B1}).
        let mut d = UniverseDelta::new();
        d.insert(Side::R, row(&u, &[1, 1]));
        let report = m.apply_delta(&d).unwrap();
        assert_eq!(report.sessions, 2);
        assert_eq!(report.carried, 0);
        assert_eq!(report.replayed, 2);
        assert!(report.invalidated.is_empty());
        assert_eq!(
            m.stats().hibernated_sessions,
            1,
            "migration re-parks parked sessions instead of waking them"
        );
        // Both sessions keep their answer and finish on the new universe.
        for &id in &[resident, parked] {
            assert_eq!(m.interactions(id).unwrap(), 1);
            while let Some(q) = m.next_question(id).unwrap() {
                m.answer(id, q.class, Label::Negative).unwrap();
            }
            assert!(m.is_done(id).unwrap());
        }
    }

    #[test]
    fn an_invalidated_session_leaves_the_gauges_with_the_migration() {
        let u = live_universe();
        let m = SessionManager::new(Arc::clone(&u), ServerConfig::default());
        let keep = m.create_session(StrategyConfig::Td).unwrap();
        // Remapping keeps every signature, so no history a live session
        // built can stop replaying; plant one that never replayed.
        let broken = Slot::new(
            StrategyConfig::Bu,
            Tier::Hibernated {
                history: vec![(0, Label::Positive), (0, Label::Negative)],
                pending: None,
            },
        );
        m.insert(99, Arc::new(Mutex::new(broken)), None).unwrap();
        assert_eq!(m.stats(), m.stats_by_walk());
        let mut d = UniverseDelta::new();
        d.insert(Side::R, row(&u, &[1, 1]));
        let report = m.apply_delta(&d).unwrap();
        assert_eq!(report.invalidated, vec![99]);
        assert_eq!(report.replayed, 1);
        assert_eq!(m.session_count(), 1);
        assert_eq!(m.stats(), m.stats_by_walk());
        assert_eq!(m.interactions(keep).unwrap(), 0);
    }

    #[test]
    fn a_structural_delta_invalidates_a_spilled_session_it_cannot_read() {
        let u = live_universe();
        let wal = MemWal::new();
        let segments = MemSegments::new();
        let durability = DurabilityConfig {
            resident_watermark_bytes: Some(0),
            ..DurabilityConfig::default()
        };
        let (m, _) = durable_pair(&u, wal.clone(), segments.clone(), durability);
        let ids: Vec<SessionId> = (0..2)
            .map(|_| {
                let id = m.create_session(StrategyConfig::Td).unwrap();
                let q = m.next_question(id).unwrap().unwrap();
                m.answer(id, q.class, Label::Negative).unwrap();
                m.hibernate(id).unwrap();
                id
            })
            .collect();
        assert_eq!(m.sweep().unwrap().spilled, 2);
        // Rot the last payload byte of the segment: the second spill.
        let mut bytes = segments.segment_bytes(0).unwrap();
        *bytes.last_mut().unwrap() ^= 0x40;
        segments.set_segment_bytes(0, bytes);

        let mut d = UniverseDelta::new();
        d.insert(Side::R, row(&u, &[1, 1]));
        let report = m.apply_delta(&d).unwrap();
        assert_eq!(report.invalidated, vec![ids[1]]);
        assert_eq!(report.replayed, 1);
        assert_eq!(m.session_count(), 1);
        assert_eq!(m.stats(), m.stats_by_walk());
        assert_eq!(m.interactions(ids[0]).unwrap(), 1);
        // The removal is logged right behind the delta.
        let image = wal.durable_image();
        assert!(image.ends_with(&crate::durability::codec::frame(
            &WalRecord::Remove { id: ids[1] }.encode()
        )));
    }

    #[test]
    fn apply_delta_requires_a_live_universe_and_validates_rows() {
        // A plain streaming build keeps representatives only — it cannot
        // accept deltas (unlike `Universe::build`, which retains the full
        // instance, and a live streaming build, which keeps row tables).
        let schema = StreamSchema::from_names("R", &["A1"], "P", &["B1"]).unwrap();
        let chunk = RowChunk {
            side: Side::R,
            rows: vec![schema.intern_row(Side::R, &[Value::int(1)]).unwrap()],
        };
        let (reps_only, _) = Universe::build_streaming(
            schema,
            || std::iter::once(chunk.clone()),
            &IngestOptions::with_threads(1),
        );
        let m = SessionManager::new(Arc::new(reps_only), ServerConfig::default());
        let mut d = UniverseDelta::new();
        d.insert(
            Side::R,
            Tuple::intern(m.universe().instance().interner(), &[Value::int(2)]),
        );
        assert!(matches!(
            m.apply_delta(&d).unwrap_err(),
            ServerError::Delta(DeltaError::NotLive)
        ));

        let live = live_universe();
        let lm = SessionManager::new(Arc::clone(&live), ServerConfig::default());
        let mut bad = UniverseDelta::new();
        bad.insert(Side::R, row(&live, &[7])); // arity 1 into a 2-ary side
        assert!(matches!(
            lm.apply_delta(&bad).unwrap_err(),
            ServerError::Delta(DeltaError::ArityMismatch { .. })
        ));
        // A rejected delta leaves the serving universe untouched.
        assert_eq!(lm.universe_fingerprint(), live.fingerprint());
    }

    #[test]
    fn durable_delta_is_logged_and_recovers_from_the_base_universe() {
        let u = live_universe();
        let wal = MemWal::new();
        let segments = MemSegments::new();
        let (m, _) = durable_pair(
            &u,
            wal.clone(),
            segments.clone(),
            DurabilityConfig::default(),
        );
        let a = m.create_session(StrategyConfig::Td).unwrap();
        let b = m.create_session(StrategyConfig::Bu).unwrap();
        for &id in &[a, b] {
            let q = m.next_question(id).unwrap().unwrap();
            m.answer(id, q.class, Label::Negative).unwrap();
        }
        assert!(m.hibernate(b).unwrap());
        // A net-zero delta (same content, next epoch), then a structural
        // one: both are in the log, committed before the calls return.
        let dup = row(&u, &[1, 100]);
        let mut net_zero = UniverseDelta::new();
        net_zero.insert(Side::R, dup.clone()).delete(Side::R, dup);
        m.apply_delta(&net_zero).unwrap();
        let mut d = UniverseDelta::new();
        d.insert(Side::R, row(&u, &[1, 1]));
        assert_eq!(m.apply_delta(&d).unwrap().sessions, 2);
        let migrated = m.universe();
        let live = [m.snapshot(a).unwrap(), m.snapshot(b).unwrap()];
        assert_eq!(wal.durable_image(), wal.pristine_image());
        // The epoch fence stands at the structural delta (epoch 2), not
        // at the net-zero one before it.
        let fenced = |m: &SessionManager| {
            let stale = SessionOp::Answers {
                answers: &[],
                epoch: Some(1),
            };
            let current = SessionOp::Answers {
                answers: &[],
                epoch: Some(2),
            };
            let structural = 2;
            assert_eq!(
                m.serve(a, stale).unwrap_err(),
                ServerError::StaleEpoch {
                    echoed: 1,
                    structural
                }
            );
            assert_eq!(m.serve(a, current).unwrap().epoch, 2);
        };
        fenced(&m);
        drop(m);

        // Recovery from the base universe re-applies both deltas and lands
        // on the live epoch, fingerprint and fleet…
        let (r, rec) = durable_pair(
            &u,
            MemWal::from_bytes(wal.durable_image()),
            segments.clone(),
            DurabilityConfig::default(),
        );
        assert_eq!(rec.sessions, 2);
        assert_eq!(r.universe().epoch(), 2);
        assert_eq!(r.universe_fingerprint(), migrated.fingerprint());
        for snap in &live {
            assert_eq!(&r.snapshot(snap.session).unwrap(), snap);
        }
        fenced(&r);
        drop(r);
        // …while the files keep the base stamp: the post-delta universe is
        // not the one the directory was created with.
        let err = SessionManager::recover_with_storage(
            migrated,
            ServerConfig::default(),
            DurabilityConfig::default(),
            Box::new(MemWal::from_bytes(wal.durable_image())),
            Box::new(segments),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            DurabilityError::FingerprintMismatch {
                source: "wal header",
                ..
            }
        ));
    }

    #[test]
    fn wal_failures_unwind_create_and_leave_removed_sessions_live() {
        let universe = Arc::new(Universe::build(flight_hotel()));
        let wal = MemWal::new();
        let (m, _) = durable_pair(
            &universe,
            wal.clone(),
            MemSegments::new(),
            // Per-record commits: every append hits the storage at once,
            // so the injected failure fires inside the logging call.
            DurabilityConfig {
                group_commit_every: 1,
                ..DurabilityConfig::default()
            },
        );
        let keep = m.create_session(StrategyConfig::Bu).unwrap();
        wal.set_io_failing(true);
        // A create whose record cannot be logged is unwound: the caller
        // gets the error and no session.
        assert!(matches!(
            m.create_session(StrategyConfig::Td),
            Err(ServerError::Durability(_))
        ));
        assert_eq!(m.session_count(), 1);
        // A remove whose record cannot be logged leaves the session live —
        // the table never runs ahead of the log.
        assert!(matches!(m.remove(keep), Err(ServerError::Durability(_))));
        assert_eq!(m.session_count(), 1);
        assert_eq!(m.interactions(keep).unwrap(), 0);
        wal.set_io_failing(false);
        m.flush_wal().unwrap();
        drop(m);

        // Recovery agrees with what the callers were told: `keep` exists,
        // the failed create left no phantom, the failed remove removed
        // nothing.
        let (r, report) = durable_pair(
            &universe,
            MemWal::from_bytes(wal.durable_image()),
            MemSegments::new(),
            DurabilityConfig::default(),
        );
        assert_eq!(report.sessions, 1);
        assert_eq!(r.session_count(), 1);
        assert_eq!(r.interactions(keep).unwrap(), 0);
    }
}
