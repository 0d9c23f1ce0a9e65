//! Streaming universe construction: folding row chunks into weighted join
//! profiles with peak memory `O(distinct profiles)`, not `O(rows)`.
//!
//! [`Universe::build`] requires the full instance in RAM before the first
//! profile is extracted. But the universe itself only depends on the
//! *weighted distinct join profiles* of each side — a Z-set-shaped
//! representation where every row is a `+1` weight delta on one profile
//! key. [`Universe::build_streaming`], the one streaming entry point,
//! ingests a stream of [`RowChunk`]s, folds each chunk into per-thread
//! `profile key → (weight, first row, representative)` maps, merges the
//! maps deterministically, and hands the resulting weighted profiles to the
//! profile-pair kernel the materialized build uses (which visits only the
//! profile pairs that share a value; see [`crate::universe`]). Rows are
//! dropped the moment their chunk is folded; what stays resident is one
//! representative [`Tuple`] and one counter per *distinct* profile.
//!
//! # Two passes, one bounded memory footprint
//!
//! Canonicalizing a row to its profile key requires knowing which symbols
//! occur on **both** sides — information only complete once the whole
//! stream has been seen. A single-pass fold would have to keep full rows
//! until the shared set stabilizes, which is exactly the `O(rows)` cost
//! streaming exists to avoid. [`Universe::build_streaming`] therefore takes
//! a *restartable* chunk source and makes two passes:
//!
//! 1. **Shared scan** — fold per-side symbol-occurrence sets (memory
//!    `O(distinct symbols)`), intersect them into the shared set.
//! 2. **Fold** — re-stream the chunks and canonicalize each row with the
//!    now-exact shared set, in one of two ways picked by
//!    [`IngestOptions::live`]:
//!    * `false`: fold weighted profile maps in parallel workers fed
//!      through a bounded channel. The result keeps only representatives
//!      and refuses deltas.
//!    * `true`: fold every distinct full row with its multiplicity into
//!      the live tables delta maintenance works on (sequentially — they
//!      are one arena). Memory is `O(distinct rows)`, and the result
//!      accepts [`Universe::apply_delta`].
//!
//! Both folds end in one tail that turns the ordered representatives and
//! weights into profiles and assembles the universe.
//!
//! Seeded generators (e.g. `jqi_datagen::stream`) replay for free, so the
//! second pass costs one more generation sweep, never a materialization.
//!
//! # Determinism
//!
//! Each side's chunks arrive in a fixed order, so every row has a global
//! index (chunk base + offset). Workers record the *minimum* index at
//! which each profile key was seen; the merge orders profiles by that
//! index, and the live fold numbers profiles in arrival order. The result —
//! profile order, representatives, class ids, counts — is identical to
//! [`Universe::build`] on the materialized equivalent, for both folds and
//! every thread count and chunk size (property-tested in
//! `tests/properties.rs`).

use crate::delta::{LiveTables, SymbolSet};
use crate::universe::{Profile, Rows, Universe};
use jqi_relation::{BitSet, RowChunk, Side, StreamSchema, Symbol, Tuple};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::time::Instant;

/// Options for a streaming ingestion run.
#[derive(Debug, Clone, Copy)]
pub struct IngestOptions {
    /// Worker threads. The profile fold (`live: false`) folds chunks in
    /// this many workers, `1` inline on the calling thread (no channel, no
    /// spawn); both folds parallelize the pair-loop assembly over it.
    pub threads: usize,
    /// Hard ceiling on tracked ingestion bytes (profile maps, or the live
    /// tables when `live`): ingestion panics when they outgrow it. A
    /// memory blow-up (a stream whose profiles do *not* collapse) then
    /// fails fast — in CI, the bench smoke job dies with a message instead
    /// of OOMing the runner.
    pub byte_ceiling: Option<usize>,
    /// Keep live row tables so the result accepts
    /// [`Universe::apply_delta`]. The memory trade is explicit: the plain
    /// fold keeps `O(distinct profiles)`, the live fold keeps
    /// `O(distinct rows)` — every distinct full row with its multiplicity
    /// (a Z-set), exactly the state incremental maintenance needs. The
    /// live fold is sequential.
    pub live: bool,
}

impl IngestOptions {
    /// Options with the given worker count, no ceiling, and no live tables.
    pub fn with_threads(threads: usize) -> Self {
        IngestOptions {
            threads: threads.max(1),
            byte_ceiling: None,
            live: false,
        }
    }

    /// Sets the tracked-byte ceiling (see [`IngestOptions::byte_ceiling`]).
    pub fn with_byte_ceiling(mut self, bytes: usize) -> Self {
        self.byte_ceiling = Some(bytes);
        self
    }

    /// Bounded-channel capacity, in chunks, between the chunk source and
    /// the profile-fold workers: `2 × threads`. Caps in-flight row memory
    /// at `capacity × chunk bytes` while letting generation overlap
    /// folding.
    pub fn channel_depth(&self) -> usize {
        2 * self.threads.max(1)
    }
}

/// What a streaming build measured about itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStats {
    /// Rows streamed into side `R`.
    pub rows_r: u64,
    /// Rows streamed into side `P`.
    pub rows_p: u64,
    /// Chunks consumed (second pass).
    pub chunks: u64,
    /// Distinct R-side join profiles after the fold.
    pub distinct_r: usize,
    /// Distinct P-side join profiles after the fold.
    pub distinct_p: usize,
    /// Peak tracked bytes of the profile accumulators across all workers
    /// (or of the live tables, for a live build) — the streaming build's
    /// resident ingestion state. Excludes the bounded channel
    /// ([`IngestOptions::channel_depth`] chunks) and the final universe
    /// itself.
    pub peak_tracked_bytes: usize,
    /// What the rows would occupy if materialized as interned tuples —
    /// the memory the streaming path avoids holding.
    pub materialized_row_bytes: u64,
    /// Worker threads the fold ran with (1 for a live build, whose fold is
    /// sequential).
    pub threads: usize,
    /// Wall seconds of pass 1, the shared-symbol scan.
    pub shared_scan_s: f64,
    /// Wall seconds of pass 2, the profile or live fold, up to the
    /// representative instance the assembly starts from.
    pub fold_s: f64,
    /// Wall seconds of the assembly: the profile-pair scan into classes
    /// and the containment closure.
    pub assemble_s: f64,
}

/// Estimated per-entry overhead of a profile accumulator beyond its key
/// and representative symbols: the hash-map slot, the counter/index
/// fields, and allocator slack.
const ACC_ENTRY_OVERHEAD: usize =
    std::mem::size_of::<ProfileAcc>() + 2 * std::mem::size_of::<Tuple>() + 48;

/// Heap bytes a materialized interned row would cost (symbols + the
/// `Tuple` fat pointer inside a `Vec<Tuple>`).
fn materialized_bytes(arity: usize) -> u64 {
    (std::mem::size_of::<Tuple>() + arity * std::mem::size_of::<u32>()) as u64
}

/// One side's folded profiles: representative rows and their weights, in
/// first-occurrence order — the same order the materialized build's
/// `distinct_profiles` produces.
type SideProfiles = (Vec<Tuple>, Vec<u64>);

/// One folded profile: weight, first global row index, representative row.
#[derive(Debug, Clone)]
struct ProfileAcc {
    count: u64,
    first: u64,
    rep: Tuple,
}

/// A per-worker (or merged) profile map for one side.
#[derive(Debug, Default)]
struct SideAcc {
    map: HashMap<Box<[u32]>, ProfileAcc>,
    /// Tracked resident bytes of `map` (keys, reps, entry overhead).
    bytes: usize,
}

impl SideAcc {
    /// Folds one row (at global index `row`) into the map. Returns the
    /// tracked-byte delta (0 for a duplicate profile).
    fn fold(&mut self, key: Box<[u32]>, row: u64, tuple: &Tuple) -> usize {
        match self.map.entry(key) {
            Entry::Occupied(mut e) => {
                let acc = e.get_mut();
                acc.count += 1;
                // Chunks may fold out of order across workers: keep the
                // earliest row as the representative.
                if row < acc.first {
                    acc.first = row;
                    acc.rep = tuple.clone();
                }
                0
            }
            Entry::Vacant(e) => {
                let added = e.key().len() * std::mem::size_of::<u32>()
                    + tuple.arity() * std::mem::size_of::<u32>()
                    + ACC_ENTRY_OVERHEAD;
                e.insert(ProfileAcc {
                    count: 1,
                    first: row,
                    rep: tuple.clone(),
                });
                self.bytes += added;
                added
            }
        }
    }

    /// Merges another worker's map into this one (weights add, earliest
    /// first-occurrence wins the representative).
    fn absorb(&mut self, other: SideAcc) {
        for (key, acc) in other.map {
            match self.map.entry(key) {
                Entry::Occupied(mut e) => {
                    let mine = e.get_mut();
                    mine.count += acc.count;
                    if acc.first < mine.first {
                        mine.first = acc.first;
                        mine.rep = acc.rep;
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(acc);
                }
            }
        }
    }

    /// Drains into representatives and weights ordered by first
    /// occurrence.
    fn into_ordered(self) -> SideProfiles {
        let mut entries: Vec<ProfileAcc> = self.map.into_values().collect();
        entries.sort_unstable_by_key(|a| a.first);
        let counts = entries.iter().map(|a| a.count).collect();
        let reps = entries.into_iter().map(|a| a.rep).collect();
        (reps, counts)
    }
}

/// The first streaming pass: per-side symbol-occurrence sets, intersected
/// into the exact shared-symbol set (the streaming analogue of
/// [`jqi_relation::Instance::shared_symbols`]).
///
/// Memory is `O(distinct symbols)`; rows are inspected and dropped.
fn scan_shared_symbols(schema: &StreamSchema, chunks: impl Iterator<Item = RowChunk>) -> BitSet {
    let mut r_syms = SymbolSet::default();
    let mut p_syms = SymbolSet::default();
    for chunk in chunks {
        let set = match chunk.side {
            Side::R => &mut r_syms,
            Side::P => &mut p_syms,
        };
        for row in &chunk.rows {
            for sym in row.symbols() {
                set.insert(sym.0);
            }
        }
    }
    r_syms.intersect(&p_syms, schema.interner().len())
}

/// Folds a whole chunk into a worker's side accumulators, returning the
/// tracked-byte delta.
fn fold_chunk(
    chunk: &RowChunk,
    base: u64,
    shared: &BitSet,
    r_acc: &mut SideAcc,
    p_acc: &mut SideAcc,
) -> usize {
    let acc = match chunk.side {
        Side::R => r_acc,
        Side::P => p_acc,
    };
    let mut added = 0usize;
    for (offset, row) in chunk.rows.iter().enumerate() {
        let key = jqi_relation::stream::profile_key(row, shared);
        added += acc.fold(key, base + offset as u64, row);
    }
    added
}

/// Tracks ingestion residency (the profile maps across workers, or the
/// live tables) and enforces the byte ceiling.
struct ByteTracker {
    current: AtomicUsize,
    peak: AtomicUsize,
    ceiling: Option<usize>,
}

impl ByteTracker {
    fn new(ceiling: Option<usize>) -> Self {
        ByteTracker {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            ceiling,
        }
    }

    /// Adds a post-chunk byte delta; panics past the ceiling.
    fn add(&self, delta: usize) {
        if delta == 0 {
            return;
        }
        let now = self.current.fetch_add(delta, Ordering::Relaxed) + delta;
        self.peak.fetch_max(now, Ordering::Relaxed);
        if let Some(ceiling) = self.ceiling {
            assert!(
                now <= ceiling,
                "streaming ingestion exceeded its byte ceiling: \
                 {now} tracked bytes > {ceiling} — the stream's profiles \
                 (live: its distinct rows) are not collapsing"
            );
        }
    }

    fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// The profile fold (pass 2, `live: false`) over `chunks`: per-side
/// ordered profiles plus the row, chunk, byte and thread statistics.
fn fold_profiles(
    shared: &BitSet,
    chunks: impl Iterator<Item = RowChunk>,
    options: &IngestOptions,
) -> (SideProfiles, SideProfiles, IngestStats) {
    let threads = options.threads.max(1);
    let tracker = ByteTracker::new(options.byte_ceiling);
    let mut stats = IngestStats {
        threads,
        ..IngestStats::default()
    };

    // Assign each chunk its side's global row base on the coordinator, so
    // row numbering is defined by arrival order regardless of which worker
    // folds the chunk.
    let mut next_base: [u64; 2] = [0, 0];
    let mut sequence = chunks.map(|chunk| {
        let side = match chunk.side {
            Side::R => 0usize,
            Side::P => 1usize,
        };
        let base = next_base[side];
        next_base[side] += chunk.rows.len() as u64;
        (base, chunk)
    });

    let (mut r_acc, mut p_acc) = if threads <= 1 {
        let mut r_acc = SideAcc::default();
        let mut p_acc = SideAcc::default();
        for (base, chunk) in &mut sequence {
            stats.chunks += 1;
            let delta = fold_chunk(&chunk, base, shared, &mut r_acc, &mut p_acc);
            tracker.add(delta);
        }
        (r_acc, p_acc)
    } else {
        let (tx, rx) = sync_channel::<(u64, RowChunk)>(options.channel_depth());
        // Workers co-own the receiver: if every worker dies (e.g. the
        // byte ceiling trips and the panic unwinds them), the channel
        // disconnects and the blocked feeder's `send` errors out instead
        // of waiting forever on a full buffer.
        let rx = std::sync::Arc::new(std::sync::Mutex::new(rx));
        let (locals, chunks_seen) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let rx = std::sync::Arc::clone(&rx);
                    let tracker = &tracker;
                    s.spawn(move || {
                        let mut r_acc = SideAcc::default();
                        let mut p_acc = SideAcc::default();
                        let mut folded = 0u64;
                        loop {
                            // Hold the receiver lock only to pull one
                            // chunk. A poisoned lock means a sibling
                            // panicked mid-recv — exit quietly and let the
                            // coordinator re-raise the sibling's panic.
                            let Ok(guard) = rx.lock() else { break };
                            let next = guard.recv();
                            drop(guard);
                            let Ok((base, chunk)) = next else { break };
                            folded += 1;
                            let delta = fold_chunk(&chunk, base, shared, &mut r_acc, &mut p_acc);
                            tracker.add(delta);
                        }
                        (r_acc, p_acc, folded)
                    })
                })
                .collect();
            drop(rx);
            for pair in &mut sequence {
                if tx.send(pair).is_err() {
                    // Every worker is gone; stop feeding. The join loop
                    // below re-raises whatever killed them.
                    break;
                }
            }
            drop(tx);
            let mut locals = Vec::with_capacity(threads);
            let mut seen = 0u64;
            for h in handles {
                match h.join() {
                    Ok((r, p, folded)) => {
                        seen += folded;
                        locals.push((r, p));
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            (locals, seen)
        });
        stats.chunks = chunks_seen;
        let mut r_acc = SideAcc::default();
        let mut p_acc = SideAcc::default();
        for (r, p) in locals {
            r_acc.absorb(r);
            p_acc.absorb(p);
        }
        (r_acc, p_acc)
    };

    stats.rows_r = next_base[0];
    stats.rows_p = next_base[1];
    stats.peak_tracked_bytes = tracker.peak();
    r_acc.bytes = 0; // merged views are not re-tracked
    p_acc.bytes = 0;
    (r_acc.into_ordered(), p_acc.into_ordered(), stats)
}

/// The live fold (pass 2, `live: true`): every row goes into the live
/// tables, whose profiles come out numbered in arrival order. Returns the
/// per-side profiles, the tables and the statistics.
fn fold_live(
    schema: &StreamSchema,
    shared: &BitSet,
    chunks: impl Iterator<Item = RowChunk>,
    byte_ceiling: Option<usize>,
) -> (SideProfiles, SideProfiles, LiveTables, IngestStats) {
    let tracker = ByteTracker::new(byte_ceiling);
    let mut stats = IngestStats {
        threads: 1,
        ..IngestStats::default()
    };
    let mut lt = LiveTables::new(
        schema.side(Side::R).arity(),
        schema.side(Side::P).arity(),
        shared,
    );
    let mut syms: Vec<u32> = Vec::new();
    let mut tracked = 0;
    for chunk in chunks {
        stats.chunks += 1;
        for row in &chunk.rows {
            syms.clear();
            syms.extend(row.symbols().iter().map(|s| s.0));
            lt.ingest(chunk.side, &syms);
        }
        match chunk.side {
            Side::R => stats.rows_r += chunk.rows.len() as u64,
            Side::P => stats.rows_p += chunk.rows.len() as u64,
        }
        // The tables only grow while they fold.
        let resident = lt.resident_bytes();
        tracker.add(resident - tracked);
        tracked = resident;
    }
    stats.peak_tracked_bytes = tracker.peak();
    lt.finalize_ingest();
    let side_profiles = |st: &crate::delta::SideTable| -> SideProfiles {
        (0..st.prof_count() as u32)
            .map(|p| {
                let rep = Tuple::new(
                    st.rep_syms(p)
                        .iter()
                        .map(|&s| Symbol(s))
                        .collect::<Box<[_]>>(),
                );
                (rep, st.prof_weight(p))
            })
            .unzip()
    };
    let (r, p) = (side_profiles(&lt.r), side_profiles(&lt.p));
    (r, p, lt, stats)
}

impl Universe {
    /// Builds the universe from a **restartable** stream of row chunks,
    /// with peak ingestion memory `O(distinct profiles)` instead of
    /// `O(rows)` — or `O(distinct rows)` with [`IngestOptions::live`],
    /// which makes the result delta-capable.
    ///
    /// `source` is called twice: once for the shared-symbol scan, once for
    /// the fold (see the module docs for why two passes are the
    /// memory-honest design). Both passes stream; nothing row-shaped
    /// outlives its chunk. The finished universe is **equivalent to**
    /// [`Universe::build`] on the materialized instance — identical class
    /// signatures, ids, counts, and representative tuples — except that
    /// its embedded instance holds one representative row per distinct
    /// profile rather than every row (so `instance().product_size()` is
    /// the *profile* product; [`Universe::total_tuples`] still reports the
    /// true row product).
    pub fn build_streaming<I>(
        schema: StreamSchema,
        source: impl Fn() -> I,
        options: &IngestOptions,
    ) -> (Universe, IngestStats)
    where
        I: Iterator<Item = RowChunk>,
    {
        let start = Instant::now();
        let shared = scan_shared_symbols(&schema, source());
        let shared_scan_s = start.elapsed().as_secs_f64();
        let (universe, mut stats) = Self::build_on_shared(schema, shared, source(), options);
        stats.shared_scan_s = shared_scan_s;
        (universe, stats)
    }

    /// [`Universe::build_streaming`] with [`IngestOptions::live`] set.
    pub fn build_streaming_live<I>(
        schema: StreamSchema,
        source: impl Fn() -> I,
        threads: usize,
    ) -> (Universe, IngestStats)
    where
        I: Iterator<Item = RowChunk>,
    {
        let options = IngestOptions {
            live: true,
            ..IngestOptions::with_threads(threads)
        };
        Self::build_streaming(schema, source, &options)
    }

    /// Pass 2 and the shared tail: folds `chunks` against `shared` with
    /// the fold `options.live` picks, turns the folded representatives and
    /// weights into profiles, and assembles the universe.
    ///
    /// `shared` must contain every symbol occurring on both sides. Exactly
    /// the true shared set reproduces [`Universe::build`] bit for bit; a
    /// strict **superset** still yields correct signatures and counts but
    /// may split profiles finer. A set *missing* a genuinely shared symbol
    /// is unsound — its equality bits would be lost.
    fn build_on_shared(
        schema: StreamSchema,
        shared: BitSet,
        chunks: impl Iterator<Item = RowChunk>,
        options: &IngestOptions,
    ) -> (Universe, IngestStats) {
        let start = Instant::now();
        let ((r_reps, r_weights), (p_reps, p_weights), rows, mut stats) = if options.live {
            let (r, p, lt, stats) = fold_live(&schema, &shared, chunks, options.byte_ceiling);
            (r, p, Rows::Live(Box::new(lt)), stats)
        } else {
            let (r, p, stats) = fold_profiles(&shared, chunks, options);
            (r, p, Rows::Representatives, stats)
        };
        stats.distinct_r = r_reps.len();
        stats.distinct_p = p_reps.len();
        stats.materialized_row_bytes = stats.rows_r
            * materialized_bytes(schema.side(Side::R).arity())
            + stats.rows_p * materialized_bytes(schema.side(Side::P).arity());
        let profiles = |weights: Vec<u64>| -> Vec<Profile> {
            (0u32..)
                .zip(weights)
                .map(|(rep, count)| Profile { rep, count })
                .collect()
        };
        let (r_profiles, p_profiles) = (profiles(r_weights), profiles(p_weights));
        let instance = schema
            .into_instance(r_reps, p_reps)
            .expect("streamed rows match their declared schemas");
        stats.fold_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let universe = Universe::assemble(
            instance,
            shared,
            r_profiles,
            p_profiles,
            options.threads.max(1),
            rows,
        );
        stats.assemble_s = start.elapsed().as_secs_f64();
        (universe, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jqi_relation::Value;

    fn opts(threads: usize, live: bool) -> IngestOptions {
        IngestOptions {
            live,
            ..IngestOptions::with_threads(threads)
        }
    }

    fn schema() -> StreamSchema {
        StreamSchema::from_names("R", &["A1", "A2"], "P", &["B1"]).unwrap()
    }

    /// 6 R rows collapsing to 2 profiles, 4 P rows collapsing to 3.
    fn chunks(schema: &StreamSchema, chunk_rows: usize) -> Vec<RowChunk> {
        let r_rows: Vec<[i64; 2]> = vec![
            [1, 100],
            [1, 101], // 100/101 occur only in R → same profile as above
            [2, 100],
            [1, 102],
            [2, 103],
            [2, 104],
        ];
        let p_rows: Vec<[i64; 1]> = vec![[1], [2], [1], [3]];
        let mut out = Vec::new();
        for rows in r_rows.chunks(chunk_rows) {
            out.push(RowChunk {
                side: Side::R,
                rows: rows
                    .iter()
                    .map(|r| {
                        schema
                            .intern_row(Side::R, &[Value::int(r[0]), Value::int(r[1])])
                            .unwrap()
                    })
                    .collect(),
            });
        }
        for rows in p_rows.chunks(chunk_rows) {
            out.push(RowChunk {
                side: Side::P,
                rows: rows
                    .iter()
                    .map(|r| schema.intern_row(Side::P, &[Value::int(r[0])]).unwrap())
                    .collect(),
            });
        }
        out
    }

    #[test]
    fn streaming_build_collapses_profiles() {
        let schema = schema();
        let all = chunks(&schema, 2);
        let start = Instant::now();
        let (u, stats) =
            Universe::build_streaming(schema, || all.clone().into_iter(), &opts(1, false));
        let wall = start.elapsed().as_secs_f64();
        // The three stage timers are disjoint parts of the build.
        let stages = stats.shared_scan_s + stats.fold_s + stats.assemble_s;
        assert!(stages > 0.0 && stages <= wall, "{stages} s of {wall} s");
        assert_eq!(stats.rows_r, 6);
        assert_eq!(stats.rows_p, 4);
        assert_eq!(stats.distinct_r, 2);
        assert_eq!(stats.distinct_p, 3);
        assert_eq!(u.distinct_r_profiles(), 2);
        assert_eq!(u.distinct_p_profiles(), 3);
        // The compact instance holds reps only, but weights are preserved.
        assert_eq!(u.instance().r().len(), 2);
        assert_eq!(u.total_tuples(), 24);
        assert!(stats.peak_tracked_bytes > 0);
        assert!(stats.materialized_row_bytes > stats.peak_tracked_bytes as u64 / 10);
    }

    #[test]
    fn streaming_matches_thread_counts_and_chunk_sizes() {
        let schema0 = schema();
        let base_chunks = chunks(&schema0, 2);
        let (reference, _) =
            Universe::build_streaming(schema0, || base_chunks.clone().into_iter(), &opts(1, false));
        for threads in [2, 4] {
            for chunk_rows in [1, 3, 100] {
                let s = schema();
                let all = chunks(&s, chunk_rows);
                let (u, _) =
                    Universe::build_streaming(s, || all.clone().into_iter(), &opts(threads, false));
                assert_eq!(u.num_classes(), reference.num_classes());
                assert_eq!(u.counts(), reference.counts());
                assert_eq!(
                    u.sigs(),
                    reference.sigs(),
                    "threads={threads} chunk_rows={chunk_rows}"
                );
            }
        }
    }

    #[test]
    fn byte_ceiling_fails_fast() {
        let s = schema();
        let all = chunks(&s, 2);
        let options = IngestOptions::with_threads(1).with_byte_ceiling(8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Universe::build_streaming(s, || all.clone().into_iter(), &options)
        }));
        assert!(result.is_err(), "ceiling of 8 bytes must trip");
    }

    #[test]
    fn empty_stream_builds_empty_universe() {
        let s = schema();
        let (u, stats) =
            Universe::build_streaming(s, std::iter::empty::<RowChunk>, &opts(2, false));
        assert_eq!(u.num_classes(), 0);
        assert_eq!(u.total_tuples(), 0);
        assert_eq!(stats.rows_r + stats.rows_p, 0);
    }

    #[test]
    fn live_streaming_matches_plain_streaming_and_accepts_deltas() {
        let s0 = schema();
        let all = chunks(&s0, 2);
        let (plain, _) = Universe::build_streaming(s0, || all.clone().into_iter(), &opts(1, false));
        let s1 = schema();
        let all1 = chunks(&s1, 3);
        let tuple = s1
            .intern_row(Side::R, &[Value::int(3), Value::int(100)])
            .unwrap();
        let (live, stats) = Universe::build_streaming_live(s1, || all1.clone().into_iter(), 2);
        assert_eq!(live.sigs(), plain.sigs());
        assert_eq!(live.counts(), plain.counts());
        assert_eq!(live.fingerprint(), plain.fingerprint());
        assert_eq!(stats.distinct_r, 2);
        assert_eq!(stats.distinct_p, 3);
        assert!(stats.peak_tracked_bytes > 0);
        assert_eq!(stats.threads, 1, "the live fold is sequential");
        assert!(live.is_live());
        assert!(!plain.is_live(), "plain streaming build has no row tables");
        assert!(matches!(
            plain.apply_delta(&crate::delta::UniverseDelta::new()),
            Err(crate::delta::DeltaError::NotLive)
        ));
        // The live build takes deltas without ever materializing rows.
        let mut d = crate::delta::UniverseDelta::new();
        d.insert(Side::R, tuple);
        let next = live.apply_delta(&d).unwrap();
        assert_eq!(next.total_tuples(), live.total_tuples() + 4);
        assert_eq!(next.epoch(), 1);
    }

    #[test]
    fn live_byte_ceiling_fails_fast() {
        let s = schema();
        let all = chunks(&s, 2);
        let options = opts(1, true).with_byte_ceiling(8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Universe::build_streaming(s, || all.clone().into_iter(), &options)
        }));
        assert!(result.is_err(), "ceiling of 8 bytes must trip");
    }

    #[test]
    fn shared_superset_keeps_signatures_and_counts() {
        // A superset of the true shared set may split profiles finer but
        // must not change the signature/count multiset.
        let s = schema();
        let all = chunks(&s, 2);
        let exact = scan_shared_symbols(&s, all.clone().into_iter());
        let superset = BitSet::full(s.interner().len());
        let (u_exact, _) =
            Universe::build_on_shared(s.clone(), exact, all.clone().into_iter(), &opts(1, false));
        let (u_super, _) = Universe::build_on_shared(s, superset, all.into_iter(), &opts(1, false));
        assert!(u_super.distinct_r_profiles() >= u_exact.distinct_r_profiles());
        let mut a: Vec<(Vec<usize>, u64)> = u_exact
            .iter()
            .map(|(_, sig, n)| (sig.iter().collect(), n))
            .collect();
        let mut b: Vec<(Vec<usize>, u64)> = u_super
            .iter()
            .map(|(_, sig, n)| (sig.iter().collect(), n))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
