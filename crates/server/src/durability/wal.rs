//! The write-ahead log: an injectable append-only byte sink
//! ([`WalStorage`]) and the group-committing record writer ([`Wal`]).
//!
//! Two storage implementations ship:
//!
//! * [`FileWal`] — a real `File`, `write_all` + `sync_data`; what a server
//!   runs on.
//! * [`MemWal`] — a deterministic in-memory double image for fault
//!   injection: every append lands in a *pristine* image, and in a
//!   *durable* image **unless** a scripted [`CrashScript`] says the
//!   process died at that append — in which case the damage
//!   ([`Damage::Lost`], [`Damage::Torn`], [`Damage::BitFlip`]) is applied
//!   to the durable image and every later append is silently dropped
//!   (the process is "dead"). Tests then recover from the durable image
//!   and compare against a twin driven from the pristine prefix.
//!
//! [`MemWal`] clones share one underlying image, so a test can keep a
//! handle while the manager owns the `Box<dyn WalStorage>`.

use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use super::codec::{frame_into, WalRecord};

/// An append-only, truncatable byte log the WAL writes through.
///
/// Implementations must make `read_all` return exactly the bytes a fresh
/// process would observe after a crash — for [`FileWal`] that is the file;
/// for [`MemWal`] the scripted durable image.
pub trait WalStorage: Send {
    /// Appends `bytes` at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Makes every append so far durable (fsync).
    fn sync(&mut self) -> std::io::Result<()>;
    /// The full current content, as recovery would see it.
    fn read_all(&mut self) -> std::io::Result<Vec<u8>>;
    /// Truncates the log to `len` bytes (recovery cutting a torn tail).
    fn truncate(&mut self, len: u64) -> std::io::Result<()>;
}

/// [`WalStorage`] over a real file, opened read+append-safe.
pub struct FileWal {
    file: File,
}

impl FileWal {
    /// Opens (creating if absent) the WAL file at `path`.
    pub fn open(path: &Path) -> std::io::Result<FileWal> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FileWal { file })
    }
}

impl WalStorage for FileWal {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)?;
        self.file.sync_data()
    }
}

/// What the scripted crash does to the append it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// The append never reached the disk at all.
    Lost,
    /// Only the first `keep` bytes of the append landed (torn write).
    Torn {
        /// Bytes of the append that survived.
        keep: usize,
    },
    /// The append landed whole, but the bit at absolute position `bit`
    /// (modulo the durable image's length in bits) flipped — bit rot, the
    /// mid-log damage recovery must refuse loudly.
    BitFlip {
        /// Absolute bit index into the durable image.
        bit: u64,
    },
}

/// A deterministic scripted crash: at the `at_append`-th append (0-based,
/// counting every [`WalStorage::append`] call), apply `damage` and drop
/// everything after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashScript {
    /// Which append the crash fires on.
    pub at_append: usize,
    /// What happens to that append (and, for `BitFlip`, to the image).
    pub damage: Damage,
}

#[derive(Default)]
struct MemWalInner {
    /// What a crash-free run would have written (the test oracle).
    pristine: Vec<u8>,
    /// What recovery will actually read.
    durable: Vec<u8>,
    /// Byte length of `pristine` before each append, so tests can map
    /// "crashed at append k" to the pristine prefix that survived.
    append_starts: Vec<usize>,
    script: Option<CrashScript>,
    crashed: bool,
    io_failing: bool,
}

/// In-memory fault-injecting [`WalStorage`]; clones share the image.
#[derive(Clone, Default)]
pub struct MemWal {
    inner: Arc<Mutex<MemWalInner>>,
}

impl MemWal {
    /// A fresh, crash-free in-memory WAL.
    pub fn new() -> MemWal {
        MemWal::default()
    }

    /// A WAL that will "crash" per `script`.
    pub fn with_script(script: CrashScript) -> MemWal {
        let wal = MemWal::new();
        wal.inner.lock().script = Some(script);
        wal
    }

    /// Seeds the durable image (building a recovery input by hand).
    pub fn from_bytes(bytes: Vec<u8>) -> MemWal {
        let wal = MemWal::new();
        {
            let mut inner = wal.inner.lock();
            inner.pristine = bytes.clone();
            inner.durable = bytes;
        }
        wal
    }

    /// The bytes recovery will see (the post-crash durable image).
    pub fn durable_image(&self) -> Vec<u8> {
        self.inner.lock().durable.clone()
    }

    /// The bytes a crash-free run would have produced.
    pub fn pristine_image(&self) -> Vec<u8> {
        self.inner.lock().pristine.clone()
    }

    /// The pristine prefix up to (excluding) append `k` — what a run that
    /// stopped cleanly just before the crashed append would have written.
    pub fn pristine_prefix(&self, k: usize) -> Vec<u8> {
        let inner = self.inner.lock();
        match inner.append_starts.get(k) {
            Some(&cut) => inner.pristine[..cut].to_vec(),
            None => inner.pristine.clone(),
        }
    }

    /// How many appends have been attempted so far.
    pub fn appends(&self) -> usize {
        self.inner.lock().append_starts.len()
    }

    /// Whether the scripted crash has fired.
    pub fn crashed(&self) -> bool {
        self.inner.lock().crashed
    }

    /// Toggles I/O-failure injection: while set, every append errors
    /// without touching either image. Unlike a [`CrashScript`] the
    /// process stays alive and *observes* the failure — this is the seam
    /// for testing the unwind paths (a create that must not leave a
    /// phantom record, a remove that must leave the session live).
    pub fn set_io_failing(&self, failing: bool) {
        self.inner.lock().io_failing = failing;
    }
}

impl WalStorage for MemWal {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        if inner.io_failing {
            return Err(std::io::Error::other("injected append failure"));
        }
        let index = inner.append_starts.len();
        let start = inner.pristine.len();
        inner.append_starts.push(start);
        inner.pristine.extend_from_slice(bytes);
        if inner.crashed {
            return Ok(());
        }
        match inner.script {
            Some(script) if script.at_append == index => {
                match script.damage {
                    Damage::Lost => {}
                    Damage::Torn { keep } => {
                        let keep = keep.min(bytes.len());
                        inner.durable.extend_from_slice(&bytes[..keep]);
                    }
                    Damage::BitFlip { bit } => {
                        inner.durable.extend_from_slice(bytes);
                        let nbits = inner.durable.len() as u64 * 8;
                        if nbits > 0 {
                            let bit = bit % nbits;
                            inner.durable[(bit / 8) as usize] ^= 1 << (bit % 8);
                        }
                    }
                }
                inner.crashed = true;
            }
            _ => inner.durable.extend_from_slice(bytes),
        }
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        // The durable image models the post-crash file directly; kill -9
        // (the target fault model) does not lose page-cache writes, so
        // sync is a no-op here.
        Ok(())
    }

    fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
        Ok(self.durable_image())
    }

    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        inner.durable.truncate(len as usize);
        Ok(())
    }
}

/// Running counters of one [`Wal`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// fsyncs issued (group commit amortizes these over records).
    pub syncs: u64,
    /// Bytes appended, frames included.
    pub appended_bytes: u64,
}

/// The record-level WAL writer: frames records into an in-memory batch
/// and, every `group_every` records (or on an explicit [`Wal::commit`] —
/// the manager issues one on `flush_wal`, per sweep and per delta),
/// writes the batch to the storage and fsyncs once. Group commit
/// therefore amortizes the write syscall *and* the fsync over the whole
/// batch; an uncommitted batch is lost on `kill -9`, which recovery
/// treats the same as any other torn tail.
pub struct Wal {
    storage: Box<dyn WalStorage>,
    group_every: usize,
    batch: Vec<u8>,
    dirty: usize,
    stats: WalStats,
}

impl Wal {
    /// Starts a WAL on `storage`, writing (and syncing) the file header.
    /// The storage must be empty.
    pub fn create(
        mut storage: Box<dyn WalStorage>,
        fingerprint: u64,
        group_every: usize,
    ) -> std::io::Result<Wal> {
        let header = super::codec::file_header(super::codec::WAL_MAGIC, fingerprint);
        storage.append(&header)?;
        storage.sync()?;
        Ok(Wal::resume(storage, group_every))
    }

    /// Adopts a storage whose header (and valid prefix) already exist —
    /// the post-recovery path.
    pub fn resume(storage: Box<dyn WalStorage>, group_every: usize) -> Wal {
        Wal {
            storage,
            group_every: group_every.max(1),
            batch: Vec::new(),
            dirty: 0,
            stats: WalStats::default(),
        }
    }

    /// Frames one record into the current batch; writes and fsyncs the
    /// batch if the group-commit quota is reached.
    ///
    /// If that commit fails *before the batch reached the storage*, the
    /// just-framed record is stripped back out: the caller unwinds the
    /// state transition the record described (`create_session` removes
    /// the table insert, `remove` keeps the session), so a later
    /// successful commit must not durably log an operation the caller was
    /// told failed — recovery would resurrect a phantom.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        self.push(record, false)
    }

    /// [`Self::append`], then commits the batch whatever the group-commit
    /// quota says. On failure the record is stripped back out exactly as
    /// an auto-commit failure strips it, so the caller can refuse the
    /// transition it describes — the path of a live-data delta, which is
    /// applied only once its record is durable.
    pub fn append_committed(&mut self, record: &WalRecord) -> std::io::Result<()> {
        self.push(record, true)
    }

    /// Frames `record` straight into the batch, then commits if `commit`
    /// is set or the group-commit quota is reached (the body of every
    /// append).
    fn push(&mut self, record: &WalRecord, commit: bool) -> std::io::Result<()> {
        let mark = self.batch.len();
        let framed = frame_into(&mut self.batch, |out| record.encode_into(out)) as u64;
        self.stats.records += 1;
        self.stats.appended_bytes += framed;
        self.dirty += 1;
        if commit || self.dirty >= self.group_every {
            if let Err(e) = self.commit() {
                // A non-empty batch means the storage append itself failed
                // (commit clears the batch before syncing); the record
                // never left memory, so un-append it. An empty batch means
                // the bytes reached the storage but the sync failed — they
                // cannot be unwritten, and the error still propagates.
                if self.batch.len() > mark {
                    self.batch.truncate(mark);
                    self.dirty -= 1;
                    self.stats.records -= 1;
                    self.stats.appended_bytes -= framed;
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Writes the pending batch to the storage and fsyncs it.
    pub fn commit(&mut self) -> std::io::Result<()> {
        if self.dirty == 0 {
            return Ok(());
        }
        self.storage.append(&self.batch)?;
        self.batch.clear();
        self.storage.sync()?;
        self.stats.syncs += 1;
        self.dirty = 0;
        Ok(())
    }

    /// Counters so far.
    pub fn stats(&self) -> WalStats {
        self.stats
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort flush of a tail the group-commit quota had not yet
        // synced; a failure here is what recovery exists for.
        let _ = self.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::super::codec::{
        next_frame, parse_file_header, FrameStep, FILE_HEADER_LEN, WAL_MAGIC,
    };
    use super::*;
    use jqi_core::StrategyConfig;

    fn read_records(bytes: &[u8]) -> Vec<WalRecord> {
        let mut at = FILE_HEADER_LEN;
        let mut records = Vec::new();
        loop {
            match next_frame(&bytes[FILE_HEADER_LEN..], at - FILE_HEADER_LEN) {
                FrameStep::Record { payload, next } => {
                    records.push(WalRecord::decode(payload).unwrap());
                    at = FILE_HEADER_LEN + next;
                }
                FrameStep::CleanEnd => return records,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn group_commit_amortizes_syncs() {
        let mem = MemWal::new();
        let mut wal = Wal::create(Box::new(mem.clone()), 1, 4).unwrap();
        for id in 0..10 {
            wal.append(&WalRecord::Remove { id }).unwrap();
        }
        assert_eq!(wal.stats().records, 10);
        assert_eq!(wal.stats().syncs, 2, "10 records / group of 4");
        wal.commit().unwrap();
        assert_eq!(wal.stats().syncs, 3);
        wal.commit().unwrap();
        assert_eq!(wal.stats().syncs, 3, "clean commit is a no-op");
        let bytes = mem.durable_image();
        assert_eq!(
            parse_file_header(&bytes, WAL_MAGIC, "wal").unwrap(),
            Some(1)
        );
        assert_eq!(read_records(&bytes).len(), 10);
    }

    #[test]
    fn scripted_crashes_damage_the_durable_image_only() {
        // Torn write at the third append (header is append 0).
        let mem = MemWal::with_script(CrashScript {
            at_append: 2,
            damage: Damage::Torn { keep: 5 },
        });
        let mut wal = Wal::create(Box::new(mem.clone()), 7, 1).unwrap();
        for id in 0..4 {
            wal.append(&WalRecord::Remove { id }).unwrap();
        }
        assert!(mem.crashed());
        let durable = mem.durable_image();
        let pristine = mem.pristine_image();
        assert!(durable.len() < pristine.len());
        assert_eq!(durable, &pristine[..durable.len()]);
        // The surviving prefix parses up to a torn tail.
        let body = &durable[FILE_HEADER_LEN..];
        match next_frame(body, 0) {
            FrameStep::Record { next, .. } => {
                assert!(matches!(next_frame(body, next), FrameStep::TornTail));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The pristine prefix before the crashed append holds 1 record.
        let prefix = mem.pristine_prefix(2);
        assert_eq!(read_records(&prefix).len(), 1);
    }

    #[test]
    fn failed_auto_commit_strips_the_record_from_the_batch() {
        let mem = MemWal::new();
        // group_every = 1: every append tries to commit immediately.
        let mut wal = Wal::create(Box::new(mem.clone()), 1, 1).unwrap();
        mem.set_io_failing(true);
        assert!(wal.append(&WalRecord::Remove { id: 7 }).is_err());
        // The failed record left no trace: not in the stats, and not in
        // the batch a later commit would flush.
        assert_eq!(wal.stats().records, 0);
        mem.set_io_failing(false);
        wal.append(&WalRecord::Question { id: 1, class: 3 })
            .unwrap();
        wal.commit().unwrap();
        assert_eq!(
            read_records(&mem.durable_image()),
            vec![WalRecord::Question { id: 1, class: 3 }],
            "the unwound Remove must not resurface in the log"
        );

        // A forced commit strips its record the same way, below the quota
        // too, and leaves the records batched before it in place.
        let mem = MemWal::new();
        let mut wal = Wal::create(Box::new(mem.clone()), 1, 64).unwrap();
        wal.append(&WalRecord::Question { id: 1, class: 3 })
            .unwrap();
        mem.set_io_failing(true);
        assert!(wal.append_committed(&WalRecord::Remove { id: 7 }).is_err());
        mem.set_io_failing(false);
        wal.commit().unwrap();
        assert_eq!(
            read_records(&mem.durable_image()),
            vec![WalRecord::Question { id: 1, class: 3 }]
        );
    }

    #[test]
    fn lost_appends_drop_cleanly() {
        let mem = MemWal::with_script(CrashScript {
            at_append: 1,
            damage: Damage::Lost,
        });
        let mut wal = Wal::create(Box::new(mem.clone()), 0, 1).unwrap();
        wal.append(&WalRecord::Create {
            id: 0,
            strategy: StrategyConfig::Bu,
        })
        .unwrap();
        wal.append(&WalRecord::Remove { id: 0 }).unwrap();
        assert_eq!(mem.durable_image().len(), FILE_HEADER_LEN);
        assert_eq!(read_records(&mem.durable_image()).len(), 0);
    }
}
