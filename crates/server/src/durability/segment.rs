//! Append-only spill segments for the hibernation tier.
//!
//! Past the configured resident-bytes watermark, `sweep()` moves parked
//! sessions' replay payloads out of RAM into *segment files*: append-only,
//! CRC-framed, capped at [`crate::durability::DurabilityConfig::segment_max_bytes`]
//! and rotated by number (`segment-000000.seg`, `segment-000001.seg`, …).
//! Each file opens with the [`super::codec::SEG_MAGIC`] header and the
//! fingerprint of the universe the directory was created with (live-data
//! deltas leave it as it is); each entry is one framed
//! [`super::codec::SpillPayload`]. The index is *in the WAL*: every spill
//! appends a `Spill { id, segment, offset, len }` record, so waking a
//! spilled session is a single positioned read + checksum + replay, and
//! recovery never scans segments — it reads exactly the entries the WAL
//! references (validating each frame), which also makes unreferenced tail
//! garbage in a segment (a crash mid-spill) harmless.
//!
//! After recovery the store always rotates to a fresh segment number, so
//! live appends never land behind a possibly-torn tail.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use super::codec::{file_header, frame, next_frame, FrameStep, SpillPayload, SEG_MAGIC};
use super::DurabilityError;

/// Where a spilled session's payload lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillLocator {
    /// Segment number.
    pub segment: u32,
    /// Byte offset of the payload's frame within the segment file.
    pub offset: u64,
    /// Byte length of the frame.
    pub len: u32,
}

/// An addressable family of append-only segment files.
pub trait SegmentStore: Send {
    /// Segment numbers present, ascending.
    fn list(&mut self) -> std::io::Result<Vec<u32>>;
    /// Current byte length of segment `seg` (0 if absent).
    fn len(&mut self, seg: u32) -> std::io::Result<u64>;
    /// Appends to segment `seg` (creating it), returning the offset the
    /// write landed at.
    fn append(&mut self, seg: u32, bytes: &[u8]) -> std::io::Result<u64>;
    /// fsyncs segment `seg`.
    fn sync(&mut self, seg: u32) -> std::io::Result<()>;
    /// Reads `len` bytes at `offset` of segment `seg`; must fail if the
    /// range is not fully present.
    fn read_at(&mut self, seg: u32, offset: u64, len: u32) -> std::io::Result<Vec<u8>>;
}

/// [`SegmentStore`] over real files in one directory.
pub struct DirSegments {
    dir: PathBuf,
    open: HashMap<u32, File>,
}

impl DirSegments {
    /// Opens (creating) the segment directory at `dir`.
    pub fn open(dir: &Path) -> std::io::Result<DirSegments> {
        std::fs::create_dir_all(dir)?;
        Ok(DirSegments {
            dir: dir.to_path_buf(),
            open: HashMap::new(),
        })
    }

    fn path(&self, seg: u32) -> PathBuf {
        self.dir.join(format!("segment-{seg:06}.seg"))
    }

    fn file(&mut self, seg: u32) -> std::io::Result<&mut File> {
        if !self.open.contains_key(&seg) {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(self.path(seg))?;
            self.open.insert(seg, file);
        }
        Ok(self.open.get_mut(&seg).expect("opened above"))
    }
}

impl SegmentStore for DirSegments {
    fn list(&mut self) -> std::io::Result<Vec<u32>> {
        let mut segs = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("segment-")
                .and_then(|s| s.strip_suffix(".seg"))
            {
                if let Ok(seg) = num.parse::<u32>() {
                    segs.push(seg);
                }
            }
        }
        segs.sort_unstable();
        Ok(segs)
    }

    fn len(&mut self, seg: u32) -> std::io::Result<u64> {
        if !self.path(seg).exists() && !self.open.contains_key(&seg) {
            return Ok(0);
        }
        Ok(self.file(seg)?.metadata()?.len())
    }

    fn append(&mut self, seg: u32, bytes: &[u8]) -> std::io::Result<u64> {
        let file = self.file(seg)?;
        let offset = file.seek(SeekFrom::End(0))?;
        file.write_all(bytes)?;
        Ok(offset)
    }

    fn sync(&mut self, seg: u32) -> std::io::Result<()> {
        self.file(seg)?.sync_data()
    }

    fn read_at(&mut self, seg: u32, offset: u64, len: u32) -> std::io::Result<Vec<u8>> {
        let file = self.file(seg)?;
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len as usize];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }
}

/// In-memory [`SegmentStore`]; clones share the map (tests keep a handle
/// across a simulated crash).
#[derive(Clone, Default)]
pub struct MemSegments {
    segs: Arc<Mutex<BTreeMap<u32, Vec<u8>>>>,
}

impl MemSegments {
    /// An empty in-memory store.
    pub fn new() -> MemSegments {
        MemSegments::default()
    }

    /// Raw bytes of one segment, for test surgery.
    pub fn segment_bytes(&self, seg: u32) -> Option<Vec<u8>> {
        self.segs.lock().get(&seg).cloned()
    }

    /// Overwrites one segment's bytes, for test surgery.
    pub fn set_segment_bytes(&self, seg: u32, bytes: Vec<u8>) {
        self.segs.lock().insert(seg, bytes);
    }
}

impl SegmentStore for MemSegments {
    fn list(&mut self) -> std::io::Result<Vec<u32>> {
        Ok(self.segs.lock().keys().copied().collect())
    }

    fn len(&mut self, seg: u32) -> std::io::Result<u64> {
        Ok(self.segs.lock().get(&seg).map_or(0, Vec::len) as u64)
    }

    fn append(&mut self, seg: u32, bytes: &[u8]) -> std::io::Result<u64> {
        let mut segs = self.segs.lock();
        let data = segs.entry(seg).or_default();
        let offset = data.len() as u64;
        data.extend_from_slice(bytes);
        Ok(offset)
    }

    fn sync(&mut self, _seg: u32) -> std::io::Result<()> {
        Ok(())
    }

    fn read_at(&mut self, seg: u32, offset: u64, len: u32) -> std::io::Result<Vec<u8>> {
        let segs = self.segs.lock();
        let data = segs
            .get(&seg)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no such segment"))?;
        let start = offset as usize;
        let end = start + len as usize;
        if end > data.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "read past segment end",
            ));
        }
        Ok(data[start..end].to_vec())
    }
}

/// Running counters of one [`SpillStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Payloads spilled.
    pub entries_written: u64,
    /// Bytes appended to segments (frames included).
    pub bytes_written: u64,
    /// Spilled sessions read back (wakes + read-only serves).
    pub reads: u64,
    /// Segments created so far in this process.
    pub segments_opened: u64,
}

/// The writing side of the spill tier: appends framed payloads to the
/// current segment, rotating past `max_bytes`.
pub struct SpillStore {
    store: Box<dyn SegmentStore>,
    fingerprint: u64,
    current: u32,
    current_len: u64,
    max_bytes: u64,
    dirty: bool,
    stats: SpillStats,
}

impl SpillStore {
    /// Opens a store writing to segment `start` (created with a header if
    /// absent — recovery always passes a fresh number past every existing
    /// segment, so live appends never extend a possibly-torn tail).
    pub fn new(
        mut store: Box<dyn SegmentStore>,
        fingerprint: u64,
        start: u32,
        max_bytes: u64,
    ) -> std::io::Result<SpillStore> {
        let mut spill = SpillStore {
            current_len: store.len(start)?,
            store,
            fingerprint,
            current: start,
            max_bytes: max_bytes.max(super::codec::FILE_HEADER_LEN as u64 + 1),
            dirty: false,
            stats: SpillStats::default(),
        };
        if spill.current_len == 0 {
            spill.open_current()?;
        }
        Ok(spill)
    }

    fn open_current(&mut self) -> std::io::Result<()> {
        let header = file_header(SEG_MAGIC, self.fingerprint);
        self.store.append(self.current, &header)?;
        self.store.sync(self.current)?;
        self.current_len = header.len() as u64;
        self.stats.segments_opened += 1;
        Ok(())
    }

    /// Appends one payload (rotating first if it would overflow the
    /// current segment); **not** synced — call [`Self::sync`] before the
    /// WAL record referencing the entry is appended, so a committed
    /// locator never points at unsynced bytes.
    pub fn append(&mut self, payload: &SpillPayload) -> std::io::Result<SpillLocator> {
        let framed = frame(&payload.encode());
        if self.current_len + framed.len() as u64 > self.max_bytes
            && self.current_len > super::codec::FILE_HEADER_LEN as u64
        {
            self.sync()?;
            self.current += 1;
            self.open_current()?;
        }
        let offset = self.store.append(self.current, &framed)?;
        self.current_len = offset + framed.len() as u64;
        self.dirty = true;
        self.stats.entries_written += 1;
        self.stats.bytes_written += framed.len() as u64;
        Ok(SpillLocator {
            segment: self.current,
            offset,
            len: framed.len() as u32,
        })
    }

    /// fsyncs the current segment if it has unsynced appends.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if std::mem::take(&mut self.dirty) {
            self.store.sync(self.current)?;
        }
        Ok(())
    }

    /// Reads one spilled payload back, re-verifying its frame checksum.
    pub fn read(&mut self, locator: SpillLocator) -> Result<SpillPayload, DurabilityError> {
        let bytes = self
            .store
            .read_at(locator.segment, locator.offset, locator.len)
            .map_err(|e| DurabilityError::Io(format!("segment read: {e}")))?;
        self.stats.reads += 1;
        read_payload_frame(&bytes, locator)
    }

    /// Counters so far.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }
}

/// Validates and decodes one framed [`SpillPayload`] read at `locator`.
pub fn read_payload_frame(
    bytes: &[u8],
    locator: SpillLocator,
) -> Result<SpillPayload, DurabilityError> {
    let corrupt = |detail: String| DurabilityError::CorruptSegment {
        segment: locator.segment,
        offset: locator.offset,
        detail,
    };
    match next_frame(bytes, 0) {
        FrameStep::Record { payload, next } if next == bytes.len() => {
            SpillPayload::decode(payload).map_err(corrupt)
        }
        FrameStep::Record { .. } => Err(corrupt("locator length exceeds its frame".into())),
        FrameStep::CleanEnd | FrameStep::TornTail => Err(corrupt(
            "entry frame is short or fails its payload checksum".into(),
        )),
        FrameStep::Corrupt { detail } => Err(corrupt(detail)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jqi_core::{Label, StrategyConfig};

    fn payload(id: u64, n: usize) -> SpillPayload {
        SpillPayload {
            id,
            strategy: StrategyConfig::Bu,
            history: (0..n).map(|c| (c, Label::Negative)).collect(),
            pending: None,
        }
    }

    fn roundtrip(store: Box<dyn SegmentStore>) {
        let mut spill = SpillStore::new(store, 0xFEED, 0, 160).unwrap();
        let mut locs = Vec::new();
        for id in 0..6 {
            locs.push((id, spill.append(&payload(id, id as usize)).unwrap()));
        }
        spill.sync().unwrap();
        assert!(
            locs.iter().any(|(_, loc)| loc.segment > 0),
            "tiny max_bytes must force rotation"
        );
        for (id, loc) in locs {
            assert_eq!(spill.read(loc).unwrap(), payload(id, id as usize));
        }
        assert_eq!(spill.stats().entries_written, 6);
        assert_eq!(spill.stats().reads, 6);
    }

    #[test]
    fn mem_segments_rotate_and_read_back() {
        roundtrip(Box::new(MemSegments::new()));
    }

    #[test]
    fn dir_segments_rotate_and_read_back() {
        let dir = std::env::temp_dir().join(format!(
            "jqi-seg-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        roundtrip(Box::new(DirSegments::open(&dir).unwrap()));
        let mut reopened = DirSegments::open(&dir).unwrap();
        assert!(reopened.list().unwrap().len() > 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_entries_fail_loudly_on_read() {
        let mem = MemSegments::new();
        let mut spill = SpillStore::new(Box::new(mem.clone()), 1, 0, 1 << 20).unwrap();
        let loc = spill.append(&payload(9, 3)).unwrap();
        let mut bytes = mem.segment_bytes(0).unwrap();
        let flip = loc.offset as usize + loc.len as usize - 1;
        bytes[flip] ^= 0x10;
        mem.set_segment_bytes(0, bytes);
        assert!(matches!(
            spill.read(loc),
            Err(DurabilityError::CorruptSegment { segment: 0, .. })
        ));
    }
}
