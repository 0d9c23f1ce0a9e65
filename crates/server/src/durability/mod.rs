//! The durability tier: checksummed write-ahead logging, hibernation
//! spill segments, and crash recovery for the session fleet.
//!
//! Sessions are deterministic functions of tiny inputs — a strategy
//! config, a label history, a pending question (`jqi-session/1`) — so
//! durability never persists derived state: the WAL logs the *inputs* as
//! they happen, the spill tier writes parked payloads to segment files,
//! and [`crate::SessionManager::recover`] rebuilds the fleet by the same
//! replay path a hibernated session wakes through. Three pieces:
//!
//! * [`codec`] — CRC32, length-prefixed checksummed frames, record
//!   payloads, and the 16-byte file header stamping the **base universe's
//!   fingerprint** ([`jqi_core::Universe::fingerprint`] of the universe
//!   the directory was created with) into every WAL and segment file.
//! * [`wal`] / [`segment`] — the injectable storage traits
//!   ([`WalStorage`], [`SegmentStore`]) with real-file implementations
//!   ([`FileWal`], [`DirSegments`]) and deterministic in-memory
//!   fault-injection twins ([`MemWal`] with a scripted [`CrashScript`],
//!   [`MemSegments`]), plus the group-committing [`Wal`] writer and the
//!   rotating [`SpillStore`].
//! * [`recover`] — the WAL replay state machine: truncate the torn tail,
//!   fail loudly on mid-log corruption or impossible sequences, resolve
//!   `Spill` records against checksummed segment entries, re-apply
//!   `Delta` records to the base universe, refuse any fingerprint
//!   mismatch.
//!
//! The manager integration lives in [`crate::manager`]: pass a
//! [`DurabilityConfig`] via [`crate::SessionManager::recover`] (a fresh
//! directory starts a durable fleet, an existing one recovers it) and
//! every mutation is logged; one [`Wal::commit`] covers a whole answer
//! round (group commit).

pub mod codec;
pub mod recover;
pub mod segment;
pub mod wal;

pub use codec::{SpillPayload, WalRecord};
pub use recover::{RecoveredFleet, RecoveredSession};
pub use segment::{DirSegments, MemSegments, SegmentStore, SpillLocator, SpillStats, SpillStore};
pub use wal::{CrashScript, Damage, FileWal, MemWal, Wal, WalStats, WalStorage};

/// Knobs of the durability tier.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Group commit: write and fsync the WAL every this many records.
    /// `1` fsyncs every record (safest, slowest). Outside the quota the
    /// batch is committed only by `SessionManager::flush_wal`, a sweep
    /// (`sweep` / `hibernate_idle`), `SessionManager::apply_delta` (which
    /// commits its `Delta` record, and with it the batch, before it
    /// answers), or dropping the manager — `answer_batch` itself does
    /// not commit, and neither does the HTTP gateway's answers handler. So with a value above `1` up
    /// to `group_commit_every - 1` *acknowledged* records can live only
    /// in process memory until the next of those; a serving loop that
    /// needs every acknowledged round durable calls `flush_wal` after
    /// the round.
    pub group_commit_every: usize,
    /// Spill watermark: when a sweep finds
    /// `resident_bytes + hibernated_bytes` above this, parked sessions
    /// spill to segments (oldest idle first) until the total RAM
    /// footprint is back under it. `None` disables spilling.
    pub resident_watermark_bytes: Option<usize>,
    /// Rotate to a new segment file once the current one reaches this
    /// many bytes.
    pub segment_max_bytes: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            group_commit_every: 64,
            resident_watermark_bytes: None,
            segment_max_bytes: 64 << 20,
        }
    }
}

/// Errors of the durability tier. I/O failures, corruption, and
/// cross-universe restores are all *loud*: the one thing this layer never
/// does is silently serve a session it cannot prove consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityError {
    /// An underlying storage operation failed.
    Io(String),
    /// A WAL or segment file header is malformed (wrong magic).
    BadHeader {
        /// What failed to parse.
        detail: String,
    },
    /// Durable state was written by a different universe: the header
    /// stamp is not the fingerprint of the universe recovery started
    /// from, which must be the one the directory was created with.
    FingerprintMismatch {
        /// Which header carried the offending stamp.
        source: &'static str,
        /// The fingerprint of the universe recovery started from.
        expected: u64,
        /// The stamped fingerprint.
        found: u64,
    },
    /// A checksum failure in the middle of the WAL (a torn *tail* is
    /// truncated instead — see [`recover`]).
    CorruptWal {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What failed.
        detail: String,
    },
    /// A referenced segment entry is unreadable or fails its checksum.
    CorruptSegment {
        /// Segment number.
        segment: u32,
        /// Byte offset within the segment.
        offset: u64,
        /// What failed.
        detail: String,
    },
    /// The WAL parses but describes an impossible sequence (duplicate
    /// create, remove of an unknown id, …) — mid-history damage.
    BadLog {
        /// Byte offset of the offending record.
        offset: u64,
        /// What is impossible about it.
        detail: String,
    },
    /// A recovered session's history failed deterministic replay against
    /// the serving universe.
    Replay {
        /// The session that failed.
        session: u64,
        /// The inference-level failure.
        error: jqi_core::InferenceError,
    },
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurabilityError::BadHeader { detail } => write!(f, "bad file header: {detail}"),
            DurabilityError::FingerprintMismatch {
                source,
                expected,
                found,
            } => write!(
                f,
                "universe fingerprint mismatch in {source}: \
                 stamped {found:016x}, base universe is {expected:016x}"
            ),
            DurabilityError::CorruptWal { offset, detail } => {
                write!(f, "corrupt WAL at byte {offset}: {detail}")
            }
            DurabilityError::CorruptSegment {
                segment,
                offset,
                detail,
            } => write!(f, "corrupt segment {segment} at byte {offset}: {detail}"),
            DurabilityError::BadLog { offset, detail } => {
                write!(f, "impossible WAL sequence at byte {offset}: {detail}")
            }
            DurabilityError::Replay { session, error } => {
                write!(f, "recovered session {session} fails replay: {error}")
            }
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e.to_string())
    }
}

/// Aggregate durability counters, reported in
/// [`crate::ManagerStats::durability`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL records appended since the manager started.
    pub wal_records: u64,
    /// WAL fsyncs issued.
    pub wal_syncs: u64,
    /// WAL bytes appended (frames included).
    pub wal_appended_bytes: u64,
    /// Session payloads spilled to segments.
    pub spill_entries: u64,
    /// Segment bytes written (frames included).
    pub spill_bytes_written: u64,
    /// Spilled payloads read back (wakes and read-only serves).
    pub spill_reads: u64,
}

/// What [`crate::SessionManager::recover`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sessions restored.
    pub sessions: usize,
    /// …of which re-entered the hibernated (RAM) tier.
    pub hibernated: usize,
    /// …of which stayed spilled on disk.
    pub spilled: usize,
    /// WAL records replayed.
    pub wal_records: u64,
    /// Torn-tail bytes truncated from the WAL.
    pub wal_torn_bytes: u64,
    /// Records referencing removed sessions (tolerated races), skipped.
    pub ignored_records: u64,
    /// Labels re-applied across all validation replays.
    pub replayed_answers: u64,
}
