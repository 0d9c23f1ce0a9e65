//! Fixed-capacity bit sets.
//!
//! Join predicates `θ ⊆ Ω = attrs(R) × attrs(P)` are represented as bit sets
//! over the `|attrs(R)| · |attrs(P)|` attribute pairs. The inference
//! algorithms reduce to three bit-set operations (Lemmas 3.3 and 3.4 of the
//! paper): subset testing, intersection, and equality — all implemented here
//! as word-wise loops over a `Box<[u64]>`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Bits per backing word.
pub const WORD_BITS: usize = 64;

/// A fixed-capacity set of bit positions `0..nbits`.
pub struct BitSet {
    nbits: usize,
    words: Box<[u64]>,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            nbits: self.nbits,
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s backing buffer when the word counts match — the
    /// lookahead speculation pool copies Ω-width predicates once per visited
    /// node, and a fresh allocation per copy would dominate.
    fn clone_from(&mut self, source: &Self) {
        self.nbits = source.nbits;
        if self.words.len() == source.words.len() {
            self.words.copy_from_slice(&source.words);
        } else {
            self.words = source.words.clone();
        }
    }
}

/// Number of `u64` words backing a set over `nbits` positions.
///
/// Shared with bulk signature computation in `jqi_core::universe`, which
/// builds word buffers directly before wrapping them via
/// [`BitSet::from_words`].
#[inline]
pub fn word_count(nbits: usize) -> usize {
    nbits.div_ceil(WORD_BITS)
}

/// ORs an `mask`-encoded bit pattern into `dst` at bit offset `base`.
///
/// `mask` is a little-endian word buffer whose meaningful bits occupy
/// positions `0..m` for some `m`; bits `base..base+m` of `dst` receive them.
/// The caller guarantees `base + m` fits in `dst` and that bits of `mask` at
/// or above `m` are zero. This is the bulk-signature primitive of
/// `jqi_core::universe`: each P-column mask is placed at its R-column's
/// offset `i·m` in one shifted word loop, for any arity (no 64-column
/// limit).
#[inline]
pub fn or_shifted(dst: &mut [u64], mask: &[u64], base: usize) {
    let wi = base / WORD_BITS;
    let off = base % WORD_BITS;
    if off == 0 {
        for (k, &w) in mask.iter().enumerate() {
            if w != 0 {
                dst[wi + k] |= w;
            }
        }
    } else {
        for (k, &w) in mask.iter().enumerate() {
            if w == 0 {
                continue;
            }
            dst[wi + k] |= w << off;
            let spill = w >> (WORD_BITS - off);
            if spill != 0 {
                dst[wi + k + 1] |= spill;
            }
        }
    }
}

/// Popcount of the intersection of two word slices (`|a ∩ b|`), without
/// materializing it. Slices may have different lengths; missing words count
/// as zero. This is the mask-algebra primitive behind popcount-speed
/// entropy: `jqi_core`'s class-index masks intersect the precomputed
/// containment closure with the live informative mask and only ever need
/// the cardinality.
#[inline]
pub fn count_and(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x & y).count_ones() as usize)
        .sum()
}

/// The position of the `n`-th (0-based) set bit of a word slice, in
/// ascending order, or `None` if fewer than `n + 1` bits are set.
///
/// Word-skipping select: whole words are stepped over by popcount, then the
/// target word is scanned bit by bit. Used by the random strategy to draw a
/// uniform informative class from the class-index mask without
/// materializing a candidate vector.
#[inline]
pub fn nth_set_bit(words: &[u64], mut n: usize) -> Option<usize> {
    for (wi, &w) in words.iter().enumerate() {
        let ones = w.count_ones() as usize;
        if n < ones {
            let mut w = w;
            for _ in 0..n {
                w &= w - 1; // clear the lowest set bit
            }
            return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
        }
        n -= ones;
    }
    None
}

/// A cheap, deterministic 64-bit hash over a word slice (murmur-style
/// finalizer). Used to bucket signatures during class construction; callers
/// must re-check full equality on collision.
#[inline]
pub fn hash_words(words: &[u64]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
    }
    h
}

impl BitSet {
    /// Creates the empty set over a universe of `nbits` positions.
    pub fn empty(nbits: usize) -> Self {
        BitSet {
            nbits,
            words: vec![0u64; word_count(nbits)].into_boxed_slice(),
        }
    }

    /// Creates the full set `{0, …, nbits-1}`.
    pub fn full(nbits: usize) -> Self {
        let mut s = Self::empty(nbits);
        for w in s.words.iter_mut() {
            *w = u64::MAX;
        }
        s.clear_excess();
        s
    }

    /// Builds a set from an iterator of positions.
    pub fn from_iter(nbits: usize, iter: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::empty(nbits);
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// Builds a set directly from backing words (for bulk signature
    /// computation). Panics if `words` has the wrong length; excess bits
    /// beyond `nbits` are cleared.
    pub fn from_words(nbits: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), word_count(nbits), "word count mismatch");
        let mut s = BitSet {
            nbits,
            words: words.into_boxed_slice(),
        };
        s.clear_excess();
        s
    }

    #[inline]
    fn clear_excess(&mut self) {
        let rem = self.nbits % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        if self.nbits == 0 {
            for w in self.words.iter_mut() {
                *w = 0;
            }
        }
    }

    /// The size of the universe (number of addressable positions).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Inserts position `i`. Panics if out of range.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.nbits, "bit {i} out of range {}", self.nbits);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Removes position `i`. Panics if out of range.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.nbits, "bit {i} out of range {}", self.nbits);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.nbits {
            return false;
        }
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self ⊆ other`. Both sets must share a universe size.
    #[inline]
    pub fn is_subset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.nbits, other.nbits, "universe mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(&a, &b)| a & !b == 0)
    }

    /// `self ⊊ other` (proper subset).
    #[inline]
    pub fn is_proper_subset(&self, other: &BitSet) -> bool {
        self.is_subset(other) && self != other
    }

    /// In-place intersection: `self ← self ∩ other`.
    #[inline]
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.nbits, other.nbits, "universe mismatch");
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
    }

    /// Returns `self ∩ other` as a new set.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// In-place union: `self ← self ∪ other`.
    #[inline]
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.nbits, other.nbits, "universe mismatch");
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Returns `self ∪ other` as a new set.
    pub fn union(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Whether `self ∩ other ⊆ third`, computed without allocating.
    ///
    /// This is the Lemma 3.4 test (`T(S⁺) ∩ T(t) ⊆ T(t′)`) on the hot path of
    /// certain-negative checking.
    #[inline]
    pub fn intersection_is_subset(&self, other: &BitSet, third: &BitSet) -> bool {
        debug_assert_eq!(self.nbits, other.nbits, "universe mismatch");
        debug_assert_eq!(self.nbits, third.nbits, "universe mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .zip(third.words.iter())
            .all(|((&a, &b), &c)| (a & b) & !c == 0)
    }

    /// Whether `self \ {bit} ⊆ other`, computed without allocating.
    ///
    /// This is the `InferenceState` θ-certain test: pair `k` belongs to
    /// every consistent predicate iff `T(S⁺) \ {k} ⊆ T(t′)` for some
    /// negative example `t′`.
    #[inline]
    pub fn is_subset_except(&self, other: &BitSet, bit: usize) -> bool {
        debug_assert_eq!(self.nbits, other.nbits, "universe mismatch");
        debug_assert!(bit < self.nbits, "bit out of range");
        let (wi, mask) = (bit / WORD_BITS, 1u64 << (bit % WORD_BITS));
        self.words
            .iter()
            .zip(other.words.iter())
            .enumerate()
            .all(|(i, (&a, &b))| {
                let mut excess = a & !b;
                if i == wi {
                    excess &= !mask;
                }
                excess == 0
            })
    }

    /// Iterates over set positions in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * WORD_BITS + b)
                }
            })
        })
    }

    /// Raw words, exposed for hashing-sensitive callers.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable raw words, for callers assembling masks in place (the
    /// incremental inference state's word-OR updates). Bits at or above
    /// [`BitSet::capacity`] must stay zero.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// `|self ∩ other|` without materializing the intersection — see the
    /// free function [`count_and`].
    #[inline]
    pub fn count_and(&self, other: &BitSet) -> usize {
        count_and(&self.words, &other.words)
    }

    /// The `n`-th (0-based, ascending) set position — see the free function
    /// [`nth_set_bit`].
    #[inline]
    pub fn nth_set_bit(&self, n: usize) -> Option<usize> {
        nth_set_bit(&self.words, n)
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        self.nbits == other.nbits && self.words == other.words
    }
}
impl Eq for BitSet {}

impl Hash for BitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words.hash(state);
    }
}

impl PartialOrd for BitSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic order on words; used only to make iteration orders
/// deterministic, not as the lattice order.
impl Ord for BitSet {
    fn cmp(&self, other: &Self) -> Ordering {
        self.words
            .cmp(&other.words)
            .then(self.nbits.cmp(&other.nbits))
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSet{{")?;
        let mut first = true;
        for i in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = BitSet::empty(130);
        let f = BitSet::full(130);
        assert!(e.is_empty());
        assert_eq!(f.len(), 130);
        assert!(e.is_subset(&f));
        assert!(!f.is_subset(&e));
        assert!(f.contains(129));
        assert!(!f.contains(130));
    }

    #[test]
    fn full_clears_excess_bits() {
        let f = BitSet::full(65);
        assert_eq!(f.len(), 65);
        assert_eq!(f.words()[1], 1);
        let f0 = BitSet::full(0);
        assert!(f0.is_empty());
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::empty(100);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert_eq!(s.len(), 4);
        assert!(s.contains(63) && s.contains(64));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::empty(10).insert(10);
    }

    #[test]
    fn subset_semantics() {
        let a = BitSet::from_iter(70, [1, 65]);
        let b = BitSet::from_iter(70, [1, 3, 65]);
        assert!(a.is_subset(&b));
        assert!(a.is_proper_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(!a.is_proper_subset(&a));
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter(10, [1, 2, 3]);
        let b = BitSet::from_iter(10, [3, 4]);
        assert_eq!(a.intersection(&b), BitSet::from_iter(10, [3]));
        assert_eq!(a.union(&b), BitSet::from_iter(10, [1, 2, 3, 4]));
    }

    #[test]
    fn intersection_is_subset_matches_naive() {
        let a = BitSet::from_iter(70, [1, 5, 66]);
        let b = BitSet::from_iter(70, [5, 66, 69]);
        let c = BitSet::from_iter(70, [5, 66]);
        assert!(a.intersection_is_subset(&b, &c));
        let c2 = BitSet::from_iter(70, [5]);
        assert!(!a.intersection_is_subset(&b, &c2));
        assert_eq!(
            a.intersection_is_subset(&b, &c2),
            a.intersection(&b).is_subset(&c2)
        );
    }

    #[test]
    fn iter_yields_sorted_positions() {
        let s = BitSet::from_iter(130, [129, 0, 64, 63, 7]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 7, 63, 64, 129]);
    }

    #[test]
    fn debug_format() {
        let s = BitSet::from_iter(8, [1, 3]);
        assert_eq!(format!("{s:?}"), "BitSet{1,3}");
    }

    #[test]
    fn is_subset_except_matches_naive() {
        let a = BitSet::from_iter(70, [1, 5, 66]);
        let b = BitSet::from_iter(70, [1, 5]);
        // a ⊄ b, but a \ {66} ⊆ b.
        assert!(!a.is_subset(&b));
        assert!(a.is_subset_except(&b, 66));
        assert!(!a.is_subset_except(&b, 5));
        // Excluding a bit not in `a` changes nothing.
        assert!(!a.is_subset_except(&b, 2));
        for bit in 0..70 {
            let mut without = a.clone();
            if without.contains(bit) {
                without.remove(bit);
            }
            assert_eq!(
                a.is_subset_except(&b, bit),
                without.is_subset(&b),
                "mismatch at bit {bit}"
            );
        }
    }

    #[test]
    fn word_count_and_hash_words_helpers() {
        assert_eq!(word_count(0), 0);
        assert_eq!(word_count(1), 1);
        assert_eq!(word_count(64), 1);
        assert_eq!(word_count(65), 2);
        // Deterministic, and sensitive to content.
        let a = [1u64, 2, 3];
        let b = [1u64, 2, 4];
        assert_eq!(hash_words(&a), hash_words(&a));
        assert_ne!(hash_words(&a), hash_words(&b));
    }

    #[test]
    fn or_shifted_matches_per_bit_insertion() {
        // Place a 70-bit mask at every offset of a 300-bit buffer and check
        // against naive insertion.
        let m = 70usize;
        let mask_bits = [0usize, 3, 63, 64, 69];
        let mut mask = vec![0u64; word_count(m)];
        for &b in &mask_bits {
            mask[b / WORD_BITS] |= 1u64 << (b % WORD_BITS);
        }
        for base in 0..(300 - m) {
            let mut dst = vec![0u64; word_count(300)];
            or_shifted(&mut dst, &mask, base);
            let mut expect = BitSet::empty(300);
            for &b in &mask_bits {
                expect.insert(base + b);
            }
            assert_eq!(
                BitSet::from_words(300, dst),
                expect,
                "mismatch at base {base}"
            );
        }
    }

    #[test]
    fn or_shifted_accumulates() {
        let mut dst = vec![0u64; 2];
        or_shifted(&mut dst, &[0b11], 0);
        or_shifted(&mut dst, &[0b11], 63);
        let s = BitSet::from_words(128, dst);
        let expect = BitSet::from_iter(128, [0, 1, 63, 64]);
        assert_eq!(s, expect);
    }

    #[test]
    fn clone_from_reuses_and_resizes() {
        let a = BitSet::from_iter(130, [0, 64, 129]);
        let mut b = BitSet::full(130);
        b.clone_from(&a); // same word count: in-place copy
        assert_eq!(a, b);
        let mut c = BitSet::empty(10);
        c.clone_from(&a); // different word count: reallocates
        assert_eq!(a, c);
    }

    #[test]
    fn count_and_matches_materialized_intersection() {
        let a = BitSet::from_iter(200, [0, 63, 64, 130, 199]);
        let b = BitSet::from_iter(200, [63, 64, 131, 199]);
        assert_eq!(a.count_and(&b), a.intersection(&b).len());
        assert_eq!(a.count_and(&b), 3);
        // Free-function form tolerates length mismatches (missing words = 0).
        assert_eq!(count_and(a.words(), &b.words()[..1]), 1);
        assert_eq!(count_and(&[], a.words()), 0);
    }

    #[test]
    fn nth_set_bit_is_select() {
        let positions = [0usize, 7, 63, 64, 129, 190];
        let s = BitSet::from_iter(200, positions);
        for (n, &p) in positions.iter().enumerate() {
            assert_eq!(s.nth_set_bit(n), Some(p), "select({n})");
        }
        assert_eq!(s.nth_set_bit(positions.len()), None);
        assert_eq!(BitSet::empty(10).nth_set_bit(0), None);
        // Agrees with the iterator for every rank.
        for (n, p) in s.iter().enumerate() {
            assert_eq!(s.nth_set_bit(n), Some(p));
        }
    }

    #[test]
    fn words_mut_round_trips() {
        let mut s = BitSet::empty(100);
        s.words_mut()[1] |= 1; // bit 64
        assert!(s.contains(64));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn hash_eq_consistency() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(BitSet::from_iter(70, [1, 2]));
        set.insert(BitSet::from_iter(70, [1, 2]));
        set.insert(BitSet::from_iter(70, [1]));
        assert_eq!(set.len(), 2);
    }
}
