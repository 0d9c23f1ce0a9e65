//! Copy-on-write chunked columns: the storage of the live row tables.
//!
//! A [`Chunked`] column is a sequence of fixed-width records cut into
//! chunks of [`CHUNK_RECORDS`] records, each behind its own [`Arc`].
//! Cloning a column copies the chunk handles, not the records, and a
//! write copies only the chunk it lands in (`Arc::make_mut`). A clone
//! edited in a few places therefore shares every other chunk with its
//! source, and neither can observe the other's writes. That is what lets
//! `Universe::apply_delta` clone the whole live state for a one-row edit.
//!
//! [`ChainIndex`] is a hash index in the same storage: power-of-two
//! bucket heads chaining through one link per record.

use std::sync::Arc;

/// log₂ of [`CHUNK_RECORDS`].
const CHUNK_SHIFT: usize = 12;

/// Records per chunk. Picked by measurement: on the live SF-0.1
/// customer⋈orders universe (165k rows), 400 alternating single-row
/// inserts and deletes, each timed through the drop of the universe it
/// replaced, took a median 0.22 ms per delta at 4096 records against
/// 0.26 ms at 1024 and 0.26–0.31 ms at 256 (2-vCPU x86-64 VM), and
/// 16384 bought nothing more. A cloned column holds a few dozen
/// handles; the widest chunk an edit copies (a 9-column row table) is
/// 144 KiB.
const CHUNK_RECORDS: usize = 1 << CHUNK_SHIFT;

/// Sentinel for "no record" in [`ChainIndex`] links and heads.
pub(crate) const NONE_U32: u32 = u32::MAX;

/// A column of fixed-width records in shared, copy-on-write chunks.
#[derive(Debug, Clone)]
pub(crate) struct Chunked<T> {
    /// Values per record (a row table's arity; 1 for a plain column).
    stride: usize,
    /// Records stored.
    len: usize,
    /// Every chunk but the last holds exactly [`CHUNK_RECORDS`] records.
    chunks: Vec<Arc<Vec<T>>>,
}

impl<T: Copy> Chunked<T> {
    /// An empty column of `stride`-value records.
    pub(crate) fn new(stride: usize) -> Self {
        Chunked {
            stride,
            len: 0,
            chunks: Vec::new(),
        }
    }

    /// A column of `len` one-value records, all `fill`.
    pub(crate) fn filled(len: usize, fill: T) -> Self {
        let chunks = (0..len.div_ceil(CHUNK_RECORDS))
            .map(|c| Arc::new(vec![fill; (len - c * CHUNK_RECORDS).min(CHUNK_RECORDS)]))
            .collect();
        Chunked {
            stride: 1,
            len,
            chunks,
        }
    }

    /// Number of records.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Chunk and value offset of record `i`.
    #[inline]
    fn locate(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < self.len, "record {i} out of {}", self.len);
        (i >> CHUNK_SHIFT, (i & (CHUNK_RECORDS - 1)) * self.stride)
    }

    /// Record `i`.
    #[inline]
    pub(crate) fn record(&self, i: usize) -> &[T] {
        let (c, o) = self.locate(i);
        &self.chunks[c][o..o + self.stride]
    }

    /// Record `i`, writable: copies its chunk first if a clone shares it.
    #[inline]
    pub(crate) fn record_mut(&mut self, i: usize) -> &mut [T] {
        let (c, o) = self.locate(i);
        &mut Arc::make_mut(&mut self.chunks[c])[o..o + self.stride]
    }

    /// Appends one record.
    pub(crate) fn push(&mut self, record: &[T]) {
        debug_assert_eq!(record.len(), self.stride);
        if self.len.is_multiple_of(CHUNK_RECORDS) {
            self.chunks.push(Arc::new(Vec::new()));
        }
        let last = self.chunks.last_mut().expect("a chunk with room");
        if last.len() == last.capacity() || Arc::get_mut(last).is_none() {
            // Out of room, or shared with a clone: move the tail into a
            // buffer of twice its size, capped at a whole chunk, so full
            // chunks hold no spare room and a small table stays small.
            let whole = CHUNK_RECORDS * self.stride;
            let mut grown = Vec::with_capacity((last.len() * 2).clamp(16 * self.stride, whole));
            grown.extend_from_slice(last);
            *last = Arc::new(grown);
        }
        Arc::get_mut(last)
            .expect("unshared after the copy")
            .extend_from_slice(record);
        self.len += 1;
    }

    /// One-value records, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = T> + '_ {
        debug_assert_eq!(self.stride, 1);
        self.chunks.iter().flat_map(|c| c.iter().copied())
    }

    /// Bytes of record storage.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.len * self.stride * std::mem::size_of::<T>()
    }
}

impl<T: Copy> Chunked<T> {
    /// Value of one-value record `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> T {
        self.record(i)[0]
    }

    /// Overwrites one-value record `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, value: T) {
        self.record_mut(i)[0] = value;
    }
}

/// Smallest bucket array of a [`ChainIndex`].
const MIN_BUCKETS: usize = 16;

/// A hash index over the records `0..len` of some table: power-of-two
/// bucket heads, each chaining through one `next` link per record. The
/// bucket array doubles (and every record is relinked) when records
/// outnumber buckets, so chains stay O(1) long on average. Chain order
/// is arbitrary; lookups compare keys, so it never shows.
#[derive(Debug, Clone)]
pub(crate) struct ChainIndex {
    heads: Chunked<u32>,
    next: Chunked<u32>,
}

impl ChainIndex {
    pub(crate) fn new() -> ChainIndex {
        ChainIndex {
            heads: Chunked::filled(MIN_BUCKETS, NONE_U32),
            next: Chunked::new(1),
        }
    }

    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.heads.len() - 1)
    }

    /// The first record in `hash`'s chain for which `is_key` holds.
    #[inline]
    pub(crate) fn find(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut cur = self.heads.get(self.bucket(hash));
        while cur != NONE_U32 {
            if is_key(cur) {
                return Some(cur);
            }
            cur = self.next.get(cur as usize);
        }
        None
    }

    /// Links the next record (id `len`) under `hash`. When the buckets
    /// double, `hash_of` re-hashes every earlier record.
    pub(crate) fn link(&mut self, hash: u64, hash_of: impl Fn(u32) -> u64) {
        let id = self.next.len() as u32;
        if self.next.len() >= self.heads.len() {
            *self = ChainIndex {
                heads: Chunked::filled(self.heads.len() * 2, NONE_U32),
                next: Chunked::new(1),
            };
            for record in 0..id {
                self.push_link(hash_of(record));
            }
        }
        self.push_link(hash);
    }

    fn push_link(&mut self, hash: u64) {
        let b = self.bucket(hash);
        self.next.push(&[self.heads.get(b)]);
        self.heads.set(b, self.next.len() as u32 - 1);
    }

    /// Bytes of heads and links.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.heads.heap_bytes() + self.next.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(records: usize, stride: usize) -> Chunked<u32> {
        let mut c = Chunked::new(stride);
        for i in 0..records {
            let rec: Vec<u32> = (0..stride).map(|k| (i * stride + k) as u32).collect();
            c.push(&rec);
        }
        c
    }

    #[test]
    fn records_span_chunks_in_order() {
        let c = column(3 * CHUNK_RECORDS + 5, 3);
        assert_eq!(c.len(), 3 * CHUNK_RECORDS + 5);
        for i in [0, CHUNK_RECORDS - 1, CHUNK_RECORDS, 3 * CHUNK_RECORDS + 4] {
            let want: Vec<u32> = (0..3).map(|k| (i * 3 + k) as u32).collect();
            assert_eq!(c.record(i), want.as_slice());
        }
        assert_eq!(c.heap_bytes(), c.len() * 3 * 4);
    }

    #[test]
    fn a_clone_shares_chunks_until_either_side_writes() {
        let base = column(2 * CHUNK_RECORDS + 1, 2);
        let mut edited = base.clone();
        assert!(Arc::ptr_eq(&base.chunks[1], &edited.chunks[1]));
        edited.record_mut(CHUNK_RECORDS)[1] = 7;
        edited.push(&[8, 9]);
        // Only the written chunks were copied; the base sees neither write.
        assert!(Arc::ptr_eq(&base.chunks[0], &edited.chunks[0]));
        assert!(!Arc::ptr_eq(&base.chunks[1], &edited.chunks[1]));
        assert!(!Arc::ptr_eq(&base.chunks[2], &edited.chunks[2]));
        assert_eq!(base.len(), 2 * CHUNK_RECORDS + 1);
        assert_eq!(
            base.record(CHUNK_RECORDS)[1],
            (CHUNK_RECORDS * 2 + 1) as u32
        );
        assert_eq!(edited.record(CHUNK_RECORDS)[1], 7);
        assert_eq!(edited.record(2 * CHUNK_RECORDS + 1), &[8, 9]);
    }

    #[test]
    fn a_full_chunk_holds_no_spare_room() {
        // Grown by doubling from empty, or copied from a shared tail (by a
        // push or by a write), a chunk ends exactly one chunk large.
        let base = column(CHUNK_RECORDS - 1, 3);
        assert!(base.chunks[0].capacity() <= 3 * CHUNK_RECORDS);
        let mut pushed = base.clone();
        pushed.push(&[0, 0, 0]);
        let mut written = base.clone();
        written.record_mut(0)[0] = 1;
        written.push(&[0, 0, 0]);
        for full in [&pushed, &written] {
            assert_eq!(full.chunks[0].len(), 3 * CHUNK_RECORDS);
            assert_eq!(full.chunks[0].capacity(), 3 * CHUNK_RECORDS);
        }
        assert_eq!(base.record(0)[0], 0);
    }

    #[test]
    fn filled_and_scalar_access() {
        let mut c = Chunked::filled(CHUNK_RECORDS + 3, 5u64);
        assert_eq!(c.iter().count(), CHUNK_RECORDS + 3);
        c.set(CHUNK_RECORDS + 2, 9);
        assert_eq!(c.get(CHUNK_RECORDS + 2), 9);
        assert_eq!(c.iter().sum::<u64>(), 5 * (CHUNK_RECORDS as u64 + 2) + 9);
    }

    #[test]
    fn chain_index_finds_every_record_across_rehashes() {
        // A deliberately poor hash puts many records in one chain.
        let hash = |r: u32| (r % 37) as u64;
        let mut index = ChainIndex::new();
        for r in 0..5000u32 {
            index.link(hash(r), hash);
        }
        assert!(index.heads.len() >= 5000 && index.heads.len().is_power_of_two());
        for r in (0..5000u32).step_by(7) {
            assert_eq!(index.find(hash(r), |c| c == r), Some(r));
        }
        assert_eq!(index.find(hash(5001), |c| c == 5001), None);
        // A clone links on without disturbing its source.
        let mut clone = index.clone();
        clone.link(hash(5000), hash);
        assert_eq!(clone.find(hash(5000), |c| c == 5000), Some(5000));
        assert_eq!(index.find(hash(5000), |c| c == 5000), None);
    }
}
