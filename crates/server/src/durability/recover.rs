//! Crash recovery: scan the WAL, resolve spill references against the
//! segment files, and hand the manager a validated fleet description.
//!
//! Recovery is *replay*: the WAL carries exactly what `jqi-session/1`
//! snapshots carry — strategy configs, label suffixes, pending questions,
//! spill locators — so rebuilding a session is the same deterministic
//! `apply_batch` replay the hibernation tier already uses. So is the
//! universe: from the one the directory was created with, each `Delta`
//! record is re-applied in log order ([`Universe::apply_delta`]), and one
//! that changes the class structure remaps the histories read so far by
//! signature ([`remap_replay_parts`]), as the live migration did. This
//! module only reconstructs the *descriptions*;
//! [`crate::SessionManager::recover`] materializes and validates each one.
//!
//! # Failure semantics
//!
//! * A **torn tail** (the file ends mid-frame, or the final frame fails
//!   its payload checksum — what an interrupted append produces) is
//!   truncated away: everything before it was fsync-ordered and survives.
//! * **Mid-log corruption** (a checksum failure with more data after it, a
//!   header that fails its own CRC, an undecodable record, a semantically
//!   impossible sequence like a duplicate `Create`) fails recovery loudly
//!   with [`DurabilityError`] — a log that lies is worse than a log that
//!   ends early.
//! * Records referencing an id the log never created are **tolerated**
//!   (counted, skipped): `remove()` drops the slot while a detached
//!   operation — an answer, a question delivery, or a sweep's spill, all
//!   of which hold only a slot `Arc` — may still be finishing against the
//!   removed session and append behind it, the documented remove
//!   semantics.
//! * Every file header (the WAL's, each referenced segment's) must carry
//!   the base universe's fingerprint, else
//!   [`DurabilityError::FingerprintMismatch`]; a re-applied delta that
//!   fails, or lands on another fingerprint than the one it logged, is a
//!   [`DurabilityError::BadLog`].

use std::collections::HashMap;
use std::sync::Arc;

use jqi_core::session::remap_replay_parts;
use jqi_core::{ClassId, Label, StrategyConfig, Universe, UniverseDelta};
use jqi_relation::Tuple;

use super::codec::{
    next_frame, parse_file_header, FrameStep, SpillPayload, WalRecord, FILE_HEADER_LEN, SEG_MAGIC,
    WAL_MAGIC,
};
use super::segment::{read_payload_frame, SegmentStore, SpillLocator};
use super::DurabilityError;

/// One session as the log describes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredSession {
    /// Strategy configuration.
    pub strategy: StrategyConfig,
    /// Full label history (spill baseline + later WAL answer suffixes).
    pub history: Vec<(ClassId, Label)>,
    /// Outstanding question.
    pub pending: Option<ClassId>,
    /// Where the session's payload sits if its last `Spill` record is still
    /// its whole replay state; recovery leaves it spilled there. `None`
    /// re-parks it in RAM — the first touch re-materializes it, keeping
    /// recovery memory proportional to histories, not derived state.
    pub spilled: Option<SpillLocator>,
}

/// The decoded fleet plus bookkeeping the manager needs to resume.
#[derive(Debug, Default)]
pub struct RecoveredFleet {
    /// Sessions by id.
    pub sessions: HashMap<u64, RecoveredSession>,
    /// One past the largest id the log ever allocated (0 for an empty
    /// log), the resume point for the id counter.
    pub next_id: u64,
    /// Absolute file length the WAL must be truncated to (strips the torn
    /// tail; equals the file length when the log ended cleanly).
    pub wal_keep_len: u64,
    /// Bytes of torn tail being discarded.
    pub wal_torn_bytes: u64,
    /// Records replayed.
    pub wal_records: u64,
    /// Records referencing unknown ids (detached-operation races).
    pub ignored_records: u64,
    /// Largest segment number referenced or present, if any — the store
    /// resumes at the next number.
    pub max_segment: Option<u32>,
    /// The epoch of the last logged delta that changed the class
    /// structure (0 if none did) — the serving manager's epoch fence.
    pub structural_epoch: u64,
}

/// Replays `wal_bytes` (a whole WAL file, header included) against
/// `segments`, starting from `universe` — the one the directory was
/// created with, whose fingerprint every file header must carry. Returns
/// the fleet and the universe the log ends on (every logged delta
/// re-applied), which every recovered history's class ids belong to.
pub fn recover_fleet(
    wal_bytes: &[u8],
    segments: &mut dyn SegmentStore,
    mut universe: Arc<Universe>,
) -> Result<(RecoveredFleet, Arc<Universe>), DurabilityError> {
    let fingerprint = universe.fingerprint();
    let mut fleet = RecoveredFleet::default();
    for seg in segments
        .list()
        .map_err(|e| DurabilityError::Io(format!("listing segments: {e}")))?
    {
        fleet.max_segment = Some(fleet.max_segment.map_or(seg, |m| m.max(seg)));
    }

    // A WAL shorter than its header is the torn remnant of `create`:
    // nothing was ever logged past it, so the fleet is empty and the
    // remnant is truncated away (the caller rewrites a fresh header).
    match parse_file_header(wal_bytes, WAL_MAGIC, "wal")
        .map_err(|detail| DurabilityError::BadHeader { detail })?
    {
        None => {
            fleet.wal_torn_bytes = wal_bytes.len() as u64;
            return Ok((fleet, universe));
        }
        Some(found) if found != fingerprint => {
            return Err(DurabilityError::FingerprintMismatch {
                source: "wal header",
                expected: fingerprint,
                found,
            });
        }
        Some(_) => {}
    }

    // Referenced segments are header-validated once, lazily — recovery
    // never scans segment bodies, it reads exactly the frames the WAL
    // points at.
    let mut checked_segments: HashMap<u32, ()> = HashMap::new();

    let body = &wal_bytes[FILE_HEADER_LEN..];
    let mut at = 0usize;
    loop {
        let offset = (FILE_HEADER_LEN + at) as u64;
        match next_frame(body, at) {
            FrameStep::CleanEnd => {
                fleet.wal_keep_len = wal_bytes.len() as u64;
                break;
            }
            FrameStep::TornTail => {
                fleet.wal_keep_len = offset;
                fleet.wal_torn_bytes = wal_bytes.len() as u64 - offset;
                break;
            }
            FrameStep::Corrupt { detail } => {
                return Err(DurabilityError::CorruptWal { offset, detail });
            }
            FrameStep::Record { payload, next } => {
                let record = WalRecord::decode(payload)
                    .map_err(|detail| DurabilityError::CorruptWal { offset, detail })?;
                apply_record(
                    &mut fleet,
                    &mut universe,
                    record,
                    offset,
                    segments,
                    &mut checked_segments,
                    fingerprint,
                )?;
                fleet.wal_records += 1;
                at = next;
            }
        }
    }
    Ok((fleet, universe))
}

fn bad_log(offset: u64, detail: impl Into<String>) -> DurabilityError {
    DurabilityError::BadLog {
        offset,
        detail: detail.into(),
    }
}

fn apply_record(
    fleet: &mut RecoveredFleet,
    universe: &mut Arc<Universe>,
    record: WalRecord,
    offset: u64,
    segments: &mut dyn SegmentStore,
    checked_segments: &mut HashMap<u32, ()>,
    fingerprint: u64,
) -> Result<(), DurabilityError> {
    match record {
        WalRecord::Create { id, strategy } => {
            fleet.next_id = fleet.next_id.max(id + 1);
            let prior = fleet.sessions.insert(
                id,
                RecoveredSession {
                    strategy,
                    history: Vec::new(),
                    pending: None,
                    spilled: None,
                },
            );
            if prior.is_some() {
                return Err(bad_log(offset, format!("duplicate create of session {id}")));
            }
        }
        WalRecord::Restore {
            id,
            strategy,
            history,
            pending,
        } => {
            fleet.next_id = fleet.next_id.max(id + 1);
            let prior = fleet.sessions.insert(
                id,
                RecoveredSession {
                    strategy,
                    history,
                    pending,
                    spilled: None,
                },
            );
            if prior.is_some() {
                return Err(bad_log(offset, format!("restore over live session {id}")));
            }
        }
        WalRecord::Answers { id, answers } => match fleet.sessions.get_mut(&id) {
            Some(s) => {
                s.history.extend_from_slice(&answers);
                // Answering implies the session was materialized.
                s.spilled = None;
            }
            None => fleet.ignored_records += 1,
        },
        WalRecord::Question { id, class } => match fleet.sessions.get_mut(&id) {
            Some(s) => {
                s.pending = Some(class);
                s.spilled = None;
            }
            None => fleet.ignored_records += 1,
        },
        WalRecord::Spill {
            id,
            segment,
            offset: seg_offset,
            len,
        } => {
            // A spill record is the WAL's index entry: the payload in the
            // segment becomes the session's authoritative replay state
            // (later Answers/Question records append past it). The
            // referenced segment counts toward `max_segment` even when the
            // record is ignored below — live appends must resume past it.
            fleet.max_segment = Some(fleet.max_segment.map_or(segment, |m| m.max(segment)));
            let Some(s) = fleet.sessions.get_mut(&id) else {
                // A detached-operation race, like answers: sweep() spills
                // from slot Arcs collected outside the shard lock, so a
                // concurrent remove() can log Remove before the sweep's
                // Spill lands. The session is gone; the orphaned segment
                // entry is never referenced again.
                fleet.ignored_records += 1;
                return Ok(());
            };
            let locator = SpillLocator {
                segment,
                offset: seg_offset,
                len,
            };
            if checked_segments.insert(segment, ()).is_none() {
                check_segment_header(segments, segment, fingerprint)?;
            }
            let payload = read_spill(segments, locator)?;
            if payload.id != id {
                return Err(bad_log(
                    offset,
                    format!("segment entry belongs to session {}, not {id}", payload.id),
                ));
            }
            if payload.strategy != s.strategy {
                return Err(bad_log(
                    offset,
                    format!("spilled strategy diverges for session {id}"),
                ));
            }
            s.history = payload.history;
            s.pending = payload.pending;
            s.spilled = Some(locator);
        }
        WalRecord::Remove { id } => {
            if fleet.sessions.remove(&id).is_none() {
                return Err(bad_log(offset, format!("remove of unknown session {id}")));
            }
        }
        WalRecord::Delta { edits, fingerprint } => {
            let old = &*universe;
            let mut delta = UniverseDelta::new();
            for (side, op, values) in &edits {
                delta.push(*side, *op, Tuple::intern(old.instance().interner(), values));
            }
            let next = old
                .apply_delta(&delta)
                .map_err(|e| bad_log(offset, format!("logged delta does not apply: {e}")))?;
            let reached = next.fingerprint();
            if reached != fingerprint {
                let detail = format!("delta reaches {reached:016x}, logged {fingerprint:016x}");
                return Err(bad_log(offset, detail));
            }
            // The live migration's rule: only a changed class structure
            // moves class ids, and a spilled session it moves comes back
            // parked (its segment payload holds the old ids).
            if !old.same_classes(&next) {
                fleet.structural_epoch = next.epoch();
                for s in fleet.sessions.values_mut() {
                    let history = std::mem::take(&mut s.history);
                    (s.history, s.pending, _) = remap_replay_parts(old, &next, history, s.pending);
                    s.spilled = None;
                }
            }
            *universe = Arc::new(next);
        }
    }
    Ok(())
}

fn check_segment_header(
    segments: &mut dyn SegmentStore,
    segment: u32,
    fingerprint: u64,
) -> Result<(), DurabilityError> {
    let len = segments
        .len(segment)
        .map_err(|e| DurabilityError::Io(format!("segment {segment}: {e}")))?;
    if len < FILE_HEADER_LEN as u64 {
        return Err(DurabilityError::CorruptSegment {
            segment,
            offset: 0,
            detail: "referenced segment lacks a header".into(),
        });
    }
    let header = segments
        .read_at(segment, 0, FILE_HEADER_LEN as u32)
        .map_err(|e| DurabilityError::Io(format!("segment {segment}: {e}")))?;
    match parse_file_header(&header, SEG_MAGIC, "segment")
        .map_err(|detail| DurabilityError::BadHeader { detail })?
    {
        Some(found) if found == fingerprint => Ok(()),
        Some(found) => Err(DurabilityError::FingerprintMismatch {
            source: "segment header",
            expected: fingerprint,
            found,
        }),
        None => unreachable!("length checked above"),
    }
}

fn read_spill(
    segments: &mut dyn SegmentStore,
    locator: SpillLocator,
) -> Result<SpillPayload, DurabilityError> {
    let bytes = segments
        .read_at(locator.segment, locator.offset, locator.len)
        .map_err(|e| DurabilityError::CorruptSegment {
            segment: locator.segment,
            offset: locator.offset,
            detail: format!("referenced entry unreadable: {e}"),
        })?;
    read_payload_frame(&bytes, locator)
}

#[cfg(test)]
mod tests {
    use super::super::codec::{file_header, frame};
    use super::super::segment::{MemSegments, SpillStore};
    use super::*;

    /// The base universe and its fingerprint, which every header stamps.
    fn base() -> (Arc<Universe>, u64) {
        let u = Arc::new(Universe::build(jqi_core::paper::flight_hotel()));
        let fp = u.fingerprint();
        (u, fp)
    }

    fn wal_image(records: &[WalRecord], fingerprint: u64) -> Vec<u8> {
        let mut bytes = file_header(WAL_MAGIC, fingerprint).to_vec();
        for r in records {
            bytes.extend_from_slice(&frame(&r.encode()));
        }
        bytes
    }

    #[test]
    fn replays_creates_answers_and_removes() {
        let (u, fp) = base();
        let mut segs = MemSegments::new();
        let records = [
            WalRecord::Create {
                id: 0,
                strategy: StrategyConfig::Bu,
            },
            WalRecord::Question { id: 0, class: 3 },
            WalRecord::Answers {
                id: 0,
                answers: vec![(3, Label::Negative)],
            },
            WalRecord::Create {
                id: 1,
                strategy: StrategyConfig::Td,
            },
            WalRecord::Question { id: 1, class: 4 },
            WalRecord::Remove { id: 1 },
        ];
        let (fleet, _) = recover_fleet(&wal_image(&records, fp), &mut segs, u.clone()).unwrap();
        assert_eq!(fleet.sessions.len(), 1);
        assert_eq!(fleet.next_id, 2);
        assert_eq!(fleet.wal_records, 6);
        assert_eq!(fleet.wal_torn_bytes, 0);
        let s = &fleet.sessions[&0];
        assert_eq!(s.history, vec![(3, Label::Negative)]);
        // The question was answered; the last Question record precedes
        // the answer so pending stays recorded — replay's informativeness
        // filter drops it at wake if moot.
        assert_eq!(s.pending, Some(3));
        assert_eq!(s.spilled, None);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let (u, fp) = base();
        let mut bytes = wal_image(
            &[WalRecord::Create {
                id: 0,
                strategy: StrategyConfig::Bu,
            }],
            fp,
        );
        let keep = bytes.len() as u64;
        let torn = frame(&WalRecord::Remove { id: 0 }.encode());
        bytes.extend_from_slice(&torn[..torn.len() - 3]);
        let (fleet, _) = recover_fleet(&bytes, &mut MemSegments::new(), u.clone()).unwrap();
        assert_eq!(fleet.sessions.len(), 1);
        assert_eq!(fleet.wal_keep_len, keep);
        assert_eq!(fleet.wal_torn_bytes, (torn.len() - 3) as u64);
    }

    #[test]
    fn mid_log_corruption_is_loud() {
        let (u, fp) = base();
        let mut bytes = wal_image(
            &[
                WalRecord::Create {
                    id: 0,
                    strategy: StrategyConfig::Bu,
                },
                WalRecord::Question { id: 0, class: 1 },
            ],
            fp,
        );
        // Flip a bit inside the FIRST record's payload (mid-log).
        bytes[FILE_HEADER_LEN + 14] ^= 0x20;
        assert!(matches!(
            recover_fleet(&bytes, &mut MemSegments::new(), u.clone()),
            Err(DurabilityError::CorruptWal { .. })
        ));
    }

    #[test]
    fn impossible_sequences_are_loud() {
        let (u, fp) = base();
        let dup = wal_image(
            &[
                WalRecord::Create {
                    id: 0,
                    strategy: StrategyConfig::Bu,
                },
                WalRecord::Create {
                    id: 0,
                    strategy: StrategyConfig::Td,
                },
            ],
            fp,
        );
        assert!(matches!(
            recover_fleet(&dup, &mut MemSegments::new(), u.clone()),
            Err(DurabilityError::BadLog { .. })
        ));
        let ghost_remove = wal_image(&[WalRecord::Remove { id: 4 }], fp);
        assert!(matches!(
            recover_fleet(&ghost_remove, &mut MemSegments::new(), u.clone()),
            Err(DurabilityError::BadLog { .. })
        ));
    }

    #[test]
    fn detached_answers_after_remove_are_tolerated() {
        let (u, fp) = base();
        let records = [
            WalRecord::Create {
                id: 0,
                strategy: StrategyConfig::Bu,
            },
            WalRecord::Remove { id: 0 },
            WalRecord::Answers {
                id: 0,
                answers: vec![(1, Label::Negative)],
            },
        ];
        let (fleet, _) =
            recover_fleet(&wal_image(&records, fp), &mut MemSegments::new(), u.clone()).unwrap();

        assert_eq!(fleet.sessions.len(), 0);
        assert_eq!(fleet.ignored_records, 1);
    }

    #[test]
    fn detached_spills_after_remove_are_tolerated() {
        let (u, fp) = base();
        // sweep() spills from slot Arcs collected outside the shard lock,
        // so a concurrent remove() can commit its Remove record before the
        // sweep's Spill lands — a legitimate log a clean shutdown can
        // leave behind, not corruption.
        let segs = MemSegments::new();
        let mut spill = SpillStore::new(Box::new(segs.clone()), fp, 0, 1 << 20).unwrap();
        let loc = spill
            .append(&SpillPayload {
                id: 0,
                strategy: StrategyConfig::Bu,
                history: vec![(1, Label::Negative)],
                pending: None,
            })
            .unwrap();
        spill.sync().unwrap();
        let records = [
            WalRecord::Create {
                id: 0,
                strategy: StrategyConfig::Bu,
            },
            WalRecord::Remove { id: 0 },
            WalRecord::Spill {
                id: 0,
                segment: loc.segment,
                offset: loc.offset,
                len: loc.len,
            },
        ];
        let mut store = segs.clone();
        let (fleet, _) = recover_fleet(&wal_image(&records, fp), &mut store, u.clone()).unwrap();
        assert_eq!(fleet.sessions.len(), 0);
        assert_eq!(fleet.ignored_records, 1);
        // The orphaned entry's segment still counts: live appends resume
        // past it.
        assert_eq!(fleet.max_segment, Some(loc.segment));
    }

    #[test]
    fn fingerprint_mismatch_is_loud() {
        let (u, _) = base();
        let bytes = wal_image(&[], 111);
        assert!(matches!(
            recover_fleet(&bytes, &mut MemSegments::new(), u.clone()),
            Err(DurabilityError::FingerprintMismatch { found: 111, .. })
        ));
    }

    #[test]
    fn short_or_missing_wal_is_a_fresh_start() {
        let (u, _) = base();
        let (fleet, _) = recover_fleet(&[], &mut MemSegments::new(), u.clone()).unwrap();
        assert_eq!(fleet.sessions.len(), 0);
        assert_eq!(fleet.wal_keep_len, 0);
        let torn_header = &file_header(WAL_MAGIC, 1)[..9];
        let (fleet, _) = recover_fleet(torn_header, &mut MemSegments::new(), u.clone()).unwrap();
        assert_eq!(fleet.wal_torn_bytes, 9);
    }

    #[test]
    fn spill_records_swap_in_the_segment_payload() {
        let (u, fp) = base();
        let segs = MemSegments::new();
        let mut spill = SpillStore::new(Box::new(segs.clone()), fp, 0, 1 << 20).unwrap();
        let payload = SpillPayload {
            id: 0,
            strategy: StrategyConfig::Bu,
            history: vec![(2, Label::Positive), (5, Label::Negative)],
            pending: Some(9),
        };
        let loc = spill.append(&payload).unwrap();
        spill.sync().unwrap();
        let records = [
            WalRecord::Create {
                id: 0,
                strategy: StrategyConfig::Bu,
            },
            WalRecord::Answers {
                id: 0,
                answers: vec![(2, Label::Positive), (5, Label::Negative)],
            },
            WalRecord::Spill {
                id: 0,
                segment: loc.segment,
                offset: loc.offset,
                len: loc.len,
            },
            // Woken after the spill: a later answer extends the baseline.
            WalRecord::Answers {
                id: 0,
                answers: vec![(7, Label::Negative)],
            },
        ];
        let mut store = segs.clone();
        let (fleet, _) = recover_fleet(&wal_image(&records, fp), &mut store, u.clone()).unwrap();
        let s = &fleet.sessions[&0];
        assert_eq!(
            s.history,
            vec![
                (2, Label::Positive),
                (5, Label::Negative),
                (7, Label::Negative)
            ]
        );
        assert_eq!(s.spilled, None, "post-spill answer woke it");
        assert_eq!(fleet.max_segment, Some(0));

        // Same log against a store stamped with the wrong fingerprint.
        let other = MemSegments::new();
        let mut wrong = SpillStore::new(Box::new(other.clone()), fp ^ 1, 0, 1 << 20).unwrap();
        let loc2 = wrong.append(&payload).unwrap();
        assert_eq!((loc2.segment, loc2.offset), (loc.segment, loc.offset));
        let mut store = other.clone();
        assert!(matches!(
            recover_fleet(&wal_image(&records, fp), &mut store, u.clone()),
            Err(DurabilityError::FingerprintMismatch { found, .. }) if found == fp ^ 1
        ));
    }
}
