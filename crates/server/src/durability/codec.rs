//! On-disk encoding shared by the WAL and the spill segments: CRC32,
//! length-prefixed checksummed frames, and the record payloads.
//!
//! # Frame layout
//!
//! Every record — WAL entry or spilled session payload — is written as one
//! *frame*:
//!
//! ```text
//! ┌──────────┬──────────┬──────────┬───────────────────┐
//! │ len: u32 │ pcrc: u32│ hcrc: u32│ payload (len B)   │   all LE
//! └──────────┴──────────┴──────────┴───────────────────┘
//! ```
//!
//! `pcrc` is the CRC32 (IEEE, reflected 0xEDB88320) of the payload and
//! `hcrc` the CRC32 of the first 8 header bytes (`len` + `pcrc`), so a
//! corrupted length can never send the reader off the rails: a frame whose
//! header fails its own checksum is reported as corruption, never walked
//! past. Files open with a 16-byte header — an 8-byte magic
//! ([`WAL_MAGIC`] / [`SEG_MAGIC`]) plus the universe fingerprint
//! ([`jqi_core::Universe::fingerprint`]) — so recovery refuses logs from a
//! different universe before replaying a single record.
//!
//! # Torn tail vs corruption
//!
//! [`next_frame`] distinguishes the two failure modes recovery must treat
//! differently (see [`crate::durability::recover`]):
//!
//! * **torn tail** — the file ends mid-frame (fewer than 12 header bytes,
//!   or fewer payload bytes than the checksummed header declares), or the
//!   *final* frame's payload fails its CRC. Exactly what a crash between
//!   `write` and `fsync` produces; recovery truncates it away.
//! * **corruption** — a frame *followed by more data* fails a checksum, or
//!   a header fails its own CRC, or declares an absurd length. A crash
//!   cannot produce this (appends are sequential), so it means bit rot or
//!   truncation in the middle of history — recovery fails loudly.

use jqi_core::{ClassId, EditOp, Label, StrategyConfig};
use jqi_relation::{Side, Value};

/// First 8 bytes of a WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"JQIWAL1\n";
/// First 8 bytes of a spill segment file.
pub const SEG_MAGIC: [u8; 8] = *b"JQISEG1\n";
/// File header: magic + universe fingerprint (both 8 bytes, LE).
pub const FILE_HEADER_LEN: usize = 16;
/// Frame header: `len | pcrc | hcrc`, each `u32` LE.
pub const FRAME_HEADER_LEN: usize = 12;
/// Upper bound on one frame's payload — anything larger is corruption
/// (the biggest legitimate record is a spilled history, ~6 B/answer).
pub const MAX_PAYLOAD_LEN: u32 = 1 << 24;

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
/// gzip/zlib/PNG use. Table-driven, built in a `const` so the hot append
/// path is one lookup per byte with no lazy-init branch.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Builds the 16-byte file header for `magic` + `fingerprint`.
pub fn file_header(magic: [u8; 8], fingerprint: u64) -> [u8; FILE_HEADER_LEN] {
    let mut h = [0u8; FILE_HEADER_LEN];
    h[..8].copy_from_slice(&magic);
    h[8..].copy_from_slice(&fingerprint.to_le_bytes());
    h
}

/// Validates a file header, returning the stamped fingerprint.
///
/// `Ok(None)` means the file ends inside the header — the torn remnant of
/// a crash during creation, which recovery treats as an empty file.
pub fn parse_file_header(bytes: &[u8], magic: [u8; 8], what: &str) -> Result<Option<u64>, String> {
    if bytes.len() < FILE_HEADER_LEN {
        return Ok(None);
    }
    if bytes[..8] != magic {
        return Err(format!(
            "{what}: bad magic {:02x?}, expected {:02x?}",
            &bytes[..8],
            magic
        ));
    }
    Ok(Some(u64::from_le_bytes(bytes[8..16].try_into().unwrap())))
}

/// Wraps `payload` in a checksummed frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame_into(&mut out, |out| out.extend_from_slice(payload));
    out
}

/// Appends one checksummed frame to `out`, its payload written in place
/// by `encode`, and returns the frame's length. The same bytes as
/// `out.extend_from_slice(&frame(&payload))`, without the two
/// intermediate buffers — the WAL frames every record straight into its
/// group-commit batch this way.
pub(crate) fn frame_into(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    encode(out);
    let len = out.len() - start - FRAME_HEADER_LEN;
    if len as u64 > MAX_PAYLOAD_LEN as u64 {
        out.truncate(start);
        panic!("oversized record");
    }
    let pcrc = crc32(&out[start + FRAME_HEADER_LEN..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&pcrc.to_le_bytes());
    let hcrc = crc32(&out[start..start + 8]);
    out[start + 8..start + FRAME_HEADER_LEN].copy_from_slice(&hcrc.to_le_bytes());
    out.len() - start
}

/// One step of a frame scan — see [`next_frame`].
#[derive(Debug)]
pub enum FrameStep<'a> {
    /// A whole, checksum-valid frame.
    Record {
        /// The frame's payload (CRC-verified).
        payload: &'a [u8],
        /// Offset just past the frame, where the next one starts.
        next: usize,
    },
    /// `at` is exactly the end of the buffer: a clean end of log.
    CleanEnd,
    /// The buffer ends mid-frame (or the final frame's payload fails its
    /// CRC): the torn tail of an interrupted append. Recovery truncates
    /// the file back to the frame's start offset.
    TornTail,
    /// A checksum failure that an interrupted append cannot explain —
    /// mid-log damage that must fail recovery loudly.
    Corrupt {
        /// Human-readable description of what failed.
        detail: String,
    },
}

/// Reads the frame starting at `at` in `bytes` (offsets are relative to
/// the start of `bytes`, i.e. past any file header, which the caller
/// strips). See the [module docs](self) for the torn-tail/corruption
/// contract.
pub fn next_frame(bytes: &[u8], at: usize) -> FrameStep<'_> {
    let remaining = &bytes[at..];
    if remaining.is_empty() {
        return FrameStep::CleanEnd;
    }
    if remaining.len() < FRAME_HEADER_LEN {
        return FrameStep::TornTail;
    }
    let len = u32::from_le_bytes(remaining[0..4].try_into().unwrap());
    let pcrc = u32::from_le_bytes(remaining[4..8].try_into().unwrap());
    let hcrc = u32::from_le_bytes(remaining[8..12].try_into().unwrap());
    if crc32(&remaining[..8]) != hcrc {
        // A torn append can only produce a *short* frame, never 12 fully
        // written header bytes that disagree with their own checksum.
        return FrameStep::Corrupt {
            detail: "frame header fails its checksum".into(),
        };
    }
    if len > MAX_PAYLOAD_LEN {
        return FrameStep::Corrupt {
            detail: format!("frame declares absurd payload length {len}"),
        };
    }
    let end = FRAME_HEADER_LEN + len as usize;
    if remaining.len() < end {
        return FrameStep::TornTail;
    }
    let payload = &remaining[FRAME_HEADER_LEN..end];
    if crc32(payload) != pcrc {
        return if remaining.len() == end {
            // The final record of the file: indistinguishable from a torn
            // append that wrote the header and only part of the payload
            // over stale bytes — truncate, don't fail.
            FrameStep::TornTail
        } else {
            FrameStep::Corrupt {
                detail: "payload fails its checksum mid-log".into(),
            }
        };
    }
    FrameStep::Record {
        payload,
        next: at + end,
    }
}

// ---------------------------------------------------------------------------
// Record payloads
// ---------------------------------------------------------------------------

const TAG_CREATE: u8 = 1;
const TAG_RESTORE: u8 = 2;
const TAG_ANSWERS: u8 = 3;
const TAG_QUESTION: u8 = 4;
// Tag 5 stays unassigned: older logs may hold it (a park record), and such a
// log must fail recovery as an unknown tag rather than be misread.
const TAG_SPILL: u8 = 6;
const TAG_REMOVE: u8 = 7;
const TAG_DELTA: u8 = 8;

/// One logical WAL entry. Every mutation of the session table appends
/// exactly one (plus `Question` when a strategy step selects a *new*
/// candidate — pending questions are part of session state, so recovery
/// must reproduce them; idempotent re-delivery of an outstanding question
/// appends nothing), and every live-data delta appends one `Delta`. Parks
/// append none: a park changes no session input, and recovery re-parks
/// every session that is not spilled anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// `create_session(strategy)` handed out `id`.
    Create {
        /// The new session's id.
        id: u64,
        /// Its strategy configuration.
        strategy: StrategyConfig,
    },
    /// `restore(snapshot)` re-created `id` with its full replay state.
    Restore {
        /// The restored session's id.
        id: u64,
        /// The snapshot's strategy configuration.
        strategy: StrategyConfig,
        /// The snapshot's label history.
        history: Vec<(ClassId, Label)>,
        /// The snapshot's outstanding question.
        pending: Option<ClassId>,
    },
    /// The suffix of labels an `answer_batch` actually applied (agreeing
    /// duplicates are not re-recorded; a failing batch still logs the
    /// prefix it applied before erroring, keeping log and state aligned).
    Answers {
        /// The answering session.
        id: u64,
        /// The `(class, label)` pairs appended to its history, in order.
        answers: Vec<(ClassId, Label)>,
    },
    /// A strategy step selected a new outstanding question.
    Question {
        /// The asking session.
        id: u64,
        /// The selected class.
        class: ClassId,
    },
    /// The session's parked payload was spilled to a segment; the WAL
    /// entry is just the locator — the payload lives in the segment,
    /// fsync'd before this record is appended.
    Spill {
        /// The spilled session.
        id: u64,
        /// Segment file number.
        segment: u32,
        /// Byte offset of the payload's frame within the segment.
        offset: u64,
        /// Length of the payload's frame in bytes.
        len: u32,
    },
    /// The session was removed.
    Remove {
        /// The removed session.
        id: u64,
    },
    /// `apply_delta` changed the served universe. Every later record's
    /// class ids belong to the post-delta universe.
    Delta {
        /// The row edits in application order, by value rather than by
        /// symbol id: a restarted process interns values in its own
        /// order.
        edits: Vec<(Side, EditOp, Vec<Value>)>,
        /// The post-delta [`jqi_core::Universe::fingerprint`]; recovery
        /// refuses a re-applied delta that lands anywhere else.
        fingerprint: u64,
    },
}

/// Appends `value`'s display form as a `u16`-length-prefixed string,
/// formatted straight into `out` (the prefix is patched afterwards).
fn put_str(out: &mut Vec<u8>, value: &impl std::fmt::Display) {
    use std::io::Write;
    let at = out.len();
    out.extend_from_slice(&[0; 2]);
    write!(out, "{value}").expect("writing to a Vec cannot fail");
    let len = out.len() - at - 2;
    assert!(len <= u16::MAX as usize, "oversized string");
    out[at..at + 2].copy_from_slice(&(len as u16).to_le_bytes());
}

fn put_class(out: &mut Vec<u8>, c: ClassId) {
    let c = u32::try_from(c).expect("class ids fit in u32");
    out.extend_from_slice(&c.to_le_bytes());
}

fn put_history(out: &mut Vec<u8>, history: &[(ClassId, Label)]) {
    out.extend_from_slice(&(history.len() as u32).to_le_bytes());
    for &(c, label) in history {
        put_class(out, c);
        out.push(match label {
            Label::Negative => 0,
            Label::Positive => 1,
        });
    }
}

fn put_pending(out: &mut Vec<u8>, pending: Option<ClassId>) {
    match pending {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            put_class(out, c);
        }
    }
}

/// Appends one session's replay state — the body a `Restore` record and
/// a spill payload share.
fn put_session(
    out: &mut Vec<u8>,
    id: u64,
    strategy: &StrategyConfig,
    history: &[(ClassId, Label)],
    pending: Option<ClassId>,
) {
    out.extend_from_slice(&id.to_le_bytes());
    put_str(out, strategy);
    put_pending(out, pending);
    put_history(out, history);
}

/// A strict little-endian reader over a record payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("record truncated at byte {}", self.at))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<&'a str, String> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|e| format!("bad UTF-8 string: {e}"))
    }

    fn strategy(&mut self) -> Result<StrategyConfig, String> {
        self.str()?
            .parse()
            .map_err(|e| format!("bad strategy string: {e}"))
    }

    fn label(&mut self) -> Result<Label, String> {
        match self.u8()? {
            0 => Ok(Label::Negative),
            1 => Ok(Label::Positive),
            other => Err(format!("bad label byte {other}")),
        }
    }

    /// An element count, bounded by the payload length the frame already
    /// checksummed, so a hostile count cannot over-allocate.
    fn count(&mut self) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n > self.bytes.len() {
            return Err(format!("count {n} exceeds record size"));
        }
        Ok(n)
    }

    /// An edit's side and op, packed as `2·is_p + is_delete`.
    fn edit_kind(&mut self) -> Result<(Side, EditOp), String> {
        let kind = self.u8()? as usize;
        if kind > 3 {
            return Err(format!("bad edit kind byte {kind}"));
        }
        Ok((
            [Side::R, Side::P][kind / 2],
            [EditOp::Insert, EditOp::Delete][kind % 2],
        ))
    }

    fn values(&mut self) -> Result<Vec<Value>, String> {
        (0..self.count()?)
            .map(|_| match self.u8()? {
                0 => Ok(Value::Int(self.u64()? as i64)),
                1 => {
                    let len = self.u32()? as usize;
                    std::str::from_utf8(self.take(len)?)
                        .map(Value::str)
                        .map_err(|e| format!("bad UTF-8 value: {e}"))
                }
                other => Err(format!("bad value tag {other}")),
            })
            .collect()
    }

    fn history(&mut self) -> Result<Vec<(ClassId, Label)>, String> {
        let n = self.count()?;
        let mut history = Vec::with_capacity(n);
        for _ in 0..n {
            let class = self.u32()? as ClassId;
            let label = self.label()?;
            history.push((class, label));
        }
        Ok(history)
    }

    fn pending(&mut self) -> Result<Option<ClassId>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()? as ClassId)),
            other => Err(format!("bad pending flag {other}")),
        }
    }

    fn finish(self) -> Result<(), String> {
        if self.at != self.bytes.len() {
            return Err(format!(
                "{} trailing bytes after record",
                self.bytes.len() - self.at
            ));
        }
        Ok(())
    }
}

impl WalRecord {
    /// Serializes the record payload (the frame is added by the WAL).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Appends the record payload to `out` — [`Self::encode`] without the
    /// fresh buffer.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Create { id, strategy } => {
                out.push(TAG_CREATE);
                out.extend_from_slice(&id.to_le_bytes());
                put_str(out, strategy);
            }
            WalRecord::Restore {
                id,
                strategy,
                history,
                pending,
            } => {
                out.push(TAG_RESTORE);
                put_session(out, *id, strategy, history, *pending);
            }
            WalRecord::Answers { id, answers } => {
                out.push(TAG_ANSWERS);
                out.extend_from_slice(&id.to_le_bytes());
                put_history(out, answers);
            }
            WalRecord::Question { id, class } => {
                out.push(TAG_QUESTION);
                out.extend_from_slice(&id.to_le_bytes());
                put_class(out, *class);
            }
            WalRecord::Spill {
                id,
                segment,
                offset,
                len,
            } => {
                out.push(TAG_SPILL);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&segment.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            WalRecord::Remove { id } => {
                out.push(TAG_REMOVE);
                out.extend_from_slice(&id.to_le_bytes());
            }
            WalRecord::Delta { edits, fingerprint } => {
                out.push(TAG_DELTA);
                out.extend_from_slice(&fingerprint.to_le_bytes());
                out.extend_from_slice(&(edits.len() as u32).to_le_bytes());
                for (side, op, values) in edits {
                    out.push(2 * (*side == Side::P) as u8 + (*op == EditOp::Delete) as u8);
                    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
                    for value in values {
                        match value {
                            Value::Int(i) => {
                                out.push(0);
                                out.extend_from_slice(&i.to_le_bytes());
                            }
                            Value::Str(s) => {
                                out.push(1);
                                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                                out.extend_from_slice(s.as_bytes());
                            }
                        }
                    }
                }
            }
        }
    }

    /// Parses a record payload (already CRC-validated by the frame).
    pub fn decode(bytes: &[u8]) -> Result<WalRecord, String> {
        let mut r = Reader { bytes, at: 0 };
        let tag = r.u8()?;
        let record = match tag {
            TAG_CREATE => WalRecord::Create {
                id: r.u64()?,
                strategy: r.strategy()?,
            },
            TAG_RESTORE => WalRecord::Restore {
                id: r.u64()?,
                strategy: r.strategy()?,
                pending: r.pending()?,
                history: r.history()?,
            },
            TAG_ANSWERS => WalRecord::Answers {
                id: r.u64()?,
                answers: r.history()?,
            },
            TAG_QUESTION => WalRecord::Question {
                id: r.u64()?,
                class: r.u32()? as ClassId,
            },
            TAG_SPILL => WalRecord::Spill {
                id: r.u64()?,
                segment: r.u32()?,
                offset: r.u64()?,
                len: r.u32()?,
            },
            TAG_REMOVE => WalRecord::Remove { id: r.u64()? },
            TAG_DELTA => {
                let fingerprint = r.u64()?;
                let edits = (0..r.count()?)
                    .map(|_| {
                        let (side, op) = r.edit_kind()?;
                        Ok((side, op, r.values()?))
                    })
                    .collect::<Result<_, String>>()?;
                WalRecord::Delta { edits, fingerprint }
            }
            other => return Err(format!("unknown record tag {other}")),
        };
        r.finish()?;
        Ok(record)
    }
}

/// The payload a hibernated session spills to a segment: its full replay
/// state. Self-describing (carries the id), so a segment can be audited —
/// or shipped to another shard — without the WAL that references it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillPayload {
    /// The spilled session's id.
    pub id: u64,
    /// Its strategy configuration.
    pub strategy: StrategyConfig,
    /// Its label history.
    pub history: Vec<(ClassId, Label)>,
    /// Its outstanding question, if any.
    pub pending: Option<ClassId>,
}

impl SpillPayload {
    /// Serializes the payload (the segment adds the frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 5 * self.history.len());
        put_session(
            &mut out,
            self.id,
            &self.strategy,
            &self.history,
            self.pending,
        );
        out
    }

    /// Parses a payload (already CRC-validated by the frame).
    pub fn decode(bytes: &[u8]) -> Result<SpillPayload, String> {
        let mut r = Reader { bytes, at: 0 };
        let payload = SpillPayload {
            id: r.u64()?,
            strategy: r.strategy()?,
            pending: r.pending()?,
            history: r.history()?,
        };
        r.finish()?;
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard CRC32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_and_chain() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&frame(b"alpha"));
        buf.extend_from_slice(&frame(b""));
        buf.extend_from_slice(&frame(b"gamma"));
        let mut at = 0;
        let mut seen = Vec::new();
        loop {
            match next_frame(&buf, at) {
                FrameStep::Record { payload, next } => {
                    seen.push(payload.to_vec());
                    at = next;
                }
                FrameStep::CleanEnd => break,
                other => panic!("unexpected step {other:?}"),
            }
        }
        assert_eq!(
            seen,
            vec![b"alpha".to_vec(), b"".to_vec(), b"gamma".to_vec()]
        );
    }

    #[test]
    fn short_tails_are_torn_not_corrupt() {
        let full = frame(b"payload");
        // Every strict prefix of a single frame is a torn tail.
        for cut in 0..full.len() {
            match next_frame(&full[..cut], 0) {
                FrameStep::TornTail => {}
                FrameStep::CleanEnd if cut == 0 => {}
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn final_record_payload_damage_is_torn_mid_log_damage_is_corrupt() {
        let mut buf = frame(b"first");
        let second_start = buf.len();
        buf.extend_from_slice(&frame(b"second"));
        // Flip a payload bit in the FINAL record: torn tail.
        let mut tail_damaged = buf.clone();
        let last = tail_damaged.len() - 1;
        tail_damaged[last] ^= 0x40;
        assert!(matches!(
            next_frame(&tail_damaged, second_start),
            FrameStep::TornTail
        ));
        // Same flip with another record after it: corruption.
        let mut mid_damaged = tail_damaged;
        mid_damaged.extend_from_slice(&frame(b"third"));
        assert!(matches!(
            next_frame(&mid_damaged, second_start),
            FrameStep::Corrupt { .. }
        ));
        // A damaged header is corruption wherever it sits.
        let mut header_damaged = buf;
        header_damaged[second_start] ^= 0x01;
        assert!(matches!(
            next_frame(&header_damaged, second_start),
            FrameStep::Corrupt { .. }
        ));
    }

    #[test]
    fn records_round_trip() {
        let records = [
            WalRecord::Create {
                id: 7,
                strategy: StrategyConfig::Lks { depth: 2 },
            },
            WalRecord::Restore {
                id: u64::MAX,
                strategy: StrategyConfig::Rnd { seed: 99 },
                history: vec![(3, Label::Positive), (0, Label::Negative)],
                pending: Some(12),
            },
            WalRecord::Answers {
                id: 1,
                answers: vec![(5, Label::Negative)],
            },
            WalRecord::Question { id: 1, class: 9 },
            WalRecord::Spill {
                id: 3,
                segment: 4,
                offset: 1 << 40,
                len: 77,
            },
            WalRecord::Remove { id: 4 },
            WalRecord::Delta {
                edits: vec![
                    (
                        Side::R,
                        EditOp::Insert,
                        vec![Value::int(-3), Value::str("é,x")],
                    ),
                    (Side::R, EditOp::Delete, vec![Value::int(i64::MIN)]),
                    (Side::P, EditOp::Insert, vec![Value::str("")]),
                    (Side::P, EditOp::Delete, vec![]),
                ],
                fingerprint: 0xFEED_FACE_CAFE_BEEF,
            },
        ];
        for record in records {
            let bytes = record.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), record, "{record:?}");
        }
    }

    #[test]
    fn framing_in_place_appends_the_documented_layout() {
        let record = WalRecord::Answers {
            id: 5,
            answers: vec![(2, Label::Positive)],
        };
        let payload = record.encode();
        let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&crc32(&payload).to_le_bytes());
        expected.extend_from_slice(&crc32(&expected).to_le_bytes());
        expected.extend_from_slice(&payload);

        let mut out = b"prefix".to_vec();
        let len = frame_into(&mut out, |out| record.encode_into(out));
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], expected.as_slice());
        assert_eq!(len, expected.len());
        assert_eq!(frame(&payload), expected);
    }

    #[test]
    fn spill_payloads_round_trip() {
        let payload = SpillPayload {
            id: 42,
            strategy: StrategyConfig::Eg,
            history: vec![(1, Label::Negative), (2, Label::Positive)],
            pending: None,
        };
        assert_eq!(SpillPayload::decode(&payload.encode()).unwrap(), payload);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        assert!(WalRecord::decode(&[]).is_err());
        assert!(WalRecord::decode(&[99]).is_err());
        // The unassigned tag 5 is unknown, whatever follows it.
        let mut retired = vec![5];
        retired.extend_from_slice(&1u64.to_le_bytes());
        assert!(WalRecord::decode(&retired).is_err());
        // Truncated Create.
        assert!(WalRecord::decode(&[TAG_CREATE, 1, 2]).is_err());
        // Trailing garbage.
        let mut bytes = WalRecord::Remove { id: 1 }.encode();
        bytes.push(0);
        assert!(WalRecord::decode(&bytes).is_err());
        // Hostile history count larger than the record.
        let mut answers = WalRecord::Answers {
            id: 1,
            answers: vec![],
        }
        .encode();
        let n = answers.len();
        answers[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(WalRecord::decode(&answers).is_err());
        // A delta edit whose side/op byte is out of range.
        let mut delta = WalRecord::Delta {
            edits: vec![(Side::R, EditOp::Insert, vec![])],
            fingerprint: 0,
        }
        .encode();
        delta[1 + 8 + 4] = 4;
        assert!(WalRecord::decode(&delta).is_err());
    }

    #[test]
    fn file_headers_validate_magic_and_carry_the_fingerprint() {
        let h = file_header(WAL_MAGIC, 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(
            parse_file_header(&h, WAL_MAGIC, "wal").unwrap(),
            Some(0xDEAD_BEEF_0BAD_F00D)
        );
        assert_eq!(parse_file_header(&h[..7], WAL_MAGIC, "wal").unwrap(), None);
        assert!(parse_file_header(&h, SEG_MAGIC, "segment").is_err());
    }
}
