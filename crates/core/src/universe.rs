//! T-equivalence classes of the Cartesian product.
//!
//! Two product tuples `t, t′ ∈ D = R × P` with `T(t) = T(t′)` are
//! interchangeable for inference: every join predicate selects either both
//! or neither, so labeling one immediately renders the other uninformative
//! (Lemmas 3.3–3.4). The paper exploits this observation when defining the
//! *join ratio* ("if two tuples are selected by the same most specific join
//! predicate, then they are basically equivalent w.r.t. the inference
//! process"). We push it further and make the equivalence classes the
//! primary data structure: a [`Universe`] partitions `D` into classes of
//! equal signature, and all strategies reason over classes weighted by
//! multiplicity. This is what makes TPC-H-scale products (10⁷–10⁸ tuples)
//! tractable: the number of *distinct* signatures stays small.
//!
//! # Construction: profile deduplication, then a sparse pair scan
//!
//! [`Universe::build`] never walks the raw `|R| · |P|` product. It first
//! canonicalizes each row to its *join profile* — the row's symbol tuple
//! restricted to symbols occurring in the opposite relation (see
//! [`jqi_relation::stream::profile_key`]) — and deduplicates rows into
//! weighted distinct profiles. Two rows with equal profiles produce
//! identical signatures against every opposite row, so only
//! `distinct_R · distinct_P` profile pairs remain, each weighted by the
//! product of the two profile counts.
//!
//! Most of those pairs share no value, and a pair that shares no value has
//! the signature ∅ (§3: `T(t)` holds exactly the attribute pairs whose
//! values are equal). So the pair scan visits only the pairs that share a
//! value. The P side is indexed once as one posting list per shared symbol
//! (the P profiles holding it, each with the P columns that hold it).
//! Each R profile walks the postings of its shared symbols, builds the
//! signatures of the P profiles it reaches, and folds every other P
//! profile into one ∅ observation. Total cost:
//!
//! * `O(|R| · n + |P| · m)` hashing to deduplicate rows into profiles,
//! * `O(distinct_P · m)` to build the postings,
//! * per R profile, one mask OR per posting of its symbols, a sort of the
//!   `k` P profiles it touches, and `k + 1` class-table probes (one per
//!   touched pair, one for all its ∅ pairs),
//!
//! instead of `O(|R| · |P| · n)` for walking the product, or one symbol
//! lookup per column of every profile pair for a dense profile-pair
//! loop. On duplicate-heavy instances
//! (the TPC-H regime the paper targets: 10⁷–10⁸ product tuples, a handful
//! of distinct signatures) this is orders of magnitude less work. The ∅
//! observation is made at the position of the first P profile it covers,
//! so class ids follow the first-occurrence order of visiting every pair.
//! When the scan is large it is parallelized with `std::thread::scope`
//! over R-profile chunks; the per-thread class tables are merged in chunk
//! order, so class ids, counts, and representatives are **identical** to
//! the sequential build. P relations of any arity are supported: column
//! masks are multi-word (`bitset::or_shifted`), not capped at 64
//! attributes.
//!
//! [`Universe::build_rowpair_reference`] walks every row pair and computes
//! each signature directly, with no profiles and no postings: an
//! executable specification used by the equivalence tests and the
//! baseline of the `scaling` benchmark.
//!
//! # One builder per source
//!
//! * An [`Instance`] in memory: [`Universe::build`] (or
//!   [`Universe::build_with_parallelism`] to force a worker count).
//! * A restartable chunk stream: [`Universe::build_streaming`]
//!   (`crate::ingest`), whose [`IngestOptions::live`](crate::IngestOptions::live)
//!   decides whether the result keeps live row tables.
//!
//! All of them end in one assembly step, so class ids, counts and
//! representatives agree across sources. Whether a universe accepts
//! [`Universe::apply_delta`] is decided by one field, which records what it
//! knows about its rows: every row (the in-memory builds), representatives
//! only (a plain streaming build), or live tables (a live streaming build
//! and every post-delta universe).

use crate::delta::LiveTables;
use jqi_relation::bitset::{hash_words, or_shifted, word_count, WORD_BITS};
use jqi_relation::stream::profile_key;
use jqi_relation::{BitSet, Instance, Tuple};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Identifier of a T-equivalence class (an index into [`Universe`] tables).
pub type ClassId = usize;

/// Below this much profile-pair work, [`Universe::build`] stays
/// single-threaded: thread spawn/merge overhead would dominate.
const PARALLEL_THRESHOLD: u64 = 1 << 15;

/// The static `up`/`down` containment masks are materialized only while
/// `classes² ≤ STATIC_MASK_BITS_CAP` (two arenas of `classes²` bits each —
/// 8 MiB per arena at the cap). Above it, [`ClassClosure::members`] still
/// provides every mask on demand in `O(|Ω| · words)`; only the O(1) lookup
/// fast path is lost.
const STATIC_MASK_BITS_CAP: u64 = 1 << 26;

/// Below this much per-class mask work, the closure build stays
/// single-threaded.
const CLOSURE_PARALLEL_THRESHOLD: u64 = 1 << 18;

/// The containment order among T-equivalence classes, precomputed once per
/// [`Universe`] and shared read-only by every session.
///
/// The paper's certainty lemmas (3.3–3.4) and the entropy pair of §4.4 are
/// all functions of *signature containment*: a class becomes certain
/// exactly when its signature is contained in, or contains, the right
/// combination of labeled signatures and the interval bound `T(S⁺)`. That
/// order is fixed the moment the universe is built — so the closure
/// materializes it as bit masks **over class indices** and sessions reduce
/// their per-label work to word-ORs and popcounts over ≤ `|classes|` bits:
///
/// * [`ClassClosure::members`]`(b)` — the classes whose signature contains
///   Ω-bit `b`. From these, the down-set of any predicate restriction is
///   one union–complement per query (`{t : T(t) ∩ θ ⊆ X}` =
///   `¬⋃_{b ∈ θ∖X} members(b)`), which is what keeps mask inference
///   **exact** even after `T(S⁺)` has shrunk below Ω.
/// * [`ClassClosure::up`]`(c)` / [`ClassClosure::down`]`(c)` — the static
///   supersets/subsets of class `c`'s signature, the `θ = Ω` fast path
///   (empty and all-negative samples — in particular every first question):
///   one word-AND + popcount per certainty or gain query.
///
/// All masks have [`ClassClosure::mask_words`] words; bits at or above the
/// class count are zero in `members`/`down` and may be garbage in no mask —
/// callers AND with a live-class mask before iterating.
#[derive(Debug, Clone)]
pub struct ClassClosure {
    classes: usize,
    mask_words: usize,
    /// `members[b]`: stride-`mask_words` arena of per-Ω-bit class masks.
    members: Vec<u64>,
    /// Static superset masks (`sig(t) ⊇ sig(c)`), stride `mask_words`;
    /// `None` above the memory cap.
    up: Option<Vec<u64>>,
    /// Static subset masks (`sig(t) ⊆ sig(c)`), stride `mask_words`.
    down: Option<Vec<u64>>,
}

impl ClassClosure {
    /// Builds the closure for `sigs` over an Ω of `omega_len` bits. It is a
    /// function of the signatures alone, so [`Universe::apply_delta`]
    /// rebuilds it whenever a delta births or retires a class.
    ///
    /// Cost: `O(Σ|sig|)` for the per-bit member masks plus — when the
    /// static masks fit the cap — `O(classes · |Ω| · mask_words)` word ops
    /// for `up`/`down`, parallelized over class chunks (each class's masks
    /// are computed independently, so the result is identical for every
    /// worker count).
    pub(crate) fn build(sigs: &[BitSet], omega_len: usize, threads: usize) -> ClassClosure {
        let classes = sigs.len();
        let mask_words = word_count(classes);
        let mut members = vec![0u64; omega_len * mask_words];
        for (c, sig) in sigs.iter().enumerate() {
            let (wi, bit) = (c / WORD_BITS, 1u64 << (c % WORD_BITS));
            for b in sig.iter() {
                members[b * mask_words + wi] |= bit;
            }
        }

        let statics = (classes as u64).pow(2) <= STATIC_MASK_BITS_CAP && classes > 0;
        let (up, down) = if statics {
            let mut up = vec![0u64; classes * mask_words];
            let mut down = vec![0u64; classes * mask_words];
            let fill = |c: ClassId, up_c: &mut [u64], down_c: &mut [u64]| {
                // up(c) = ⋂_{b ∈ sig(c)} members(b); the empty signature is
                // contained in everything, so start from all-ones.
                up_c.iter_mut().for_each(|w| *w = !0);
                for b in sigs[c].iter() {
                    let m = &members[b * mask_words..(b + 1) * mask_words];
                    up_c.iter_mut().zip(m).for_each(|(w, &v)| *w &= v);
                }
                // down(c) = ¬⋃_{b ∈ Ω∖sig(c)} members(b), clamped to the
                // live classes so iteration never sees phantom bits.
                for b in 0..omega_len {
                    if sigs[c].contains(b) {
                        continue;
                    }
                    let m = &members[b * mask_words..(b + 1) * mask_words];
                    down_c.iter_mut().zip(m).for_each(|(w, &v)| *w |= v);
                }
                down_c.iter_mut().for_each(|w| *w = !*w);
                clamp_mask(down_c, classes);
                clamp_mask(up_c, classes);
            };
            let work = classes as u64 * (omega_len as u64).max(1) * mask_words as u64;
            let threads = if work < CLOSURE_PARALLEL_THRESHOLD {
                1
            } else {
                threads.clamp(1, classes)
            };
            if threads <= 1 {
                for c in 0..classes {
                    // Split borrows: each class owns its stride in both arenas.
                    let up_c = &mut up[c * mask_words..(c + 1) * mask_words];
                    // Safe split via temporary take is unnecessary: down is a
                    // disjoint arena.
                    let down_c = &mut down[c * mask_words..(c + 1) * mask_words];
                    fill(c, up_c, down_c);
                }
            } else {
                let chunk = classes.div_ceil(threads);
                std::thread::scope(|s| {
                    let fill = &fill;
                    for (ci, (up_chunk, down_chunk)) in up
                        .chunks_mut(chunk * mask_words)
                        .zip(down.chunks_mut(chunk * mask_words))
                        .enumerate()
                    {
                        s.spawn(move || {
                            for (k, (up_c, down_c)) in up_chunk
                                .chunks_mut(mask_words)
                                .zip(down_chunk.chunks_mut(mask_words))
                                .enumerate()
                            {
                                fill(ci * chunk + k, up_c, down_c);
                            }
                        });
                    }
                });
            }
            (Some(up), Some(down))
        } else {
            (None, None)
        };

        ClassClosure {
            classes,
            mask_words,
            members,
            up,
            down,
        }
    }

    /// Words per class-index mask (`⌈classes / 64⌉`).
    #[inline]
    pub fn mask_words(&self) -> usize {
        self.mask_words
    }

    /// Number of classes the masks range over.
    #[inline]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The classes whose signature contains Ω-bit `b`.
    #[inline]
    pub fn members(&self, b: usize) -> &[u64] {
        &self.members[b * self.mask_words..(b + 1) * self.mask_words]
    }

    /// Whether the static `up`/`down` masks were materialized (see the
    /// memory cap in the type docs).
    #[inline]
    pub fn has_static_masks(&self) -> bool {
        self.up.is_some()
    }

    /// The classes whose signature contains `sig(c)` (including `c`), when
    /// materialized.
    #[inline]
    pub fn up(&self, c: ClassId) -> Option<&[u64]> {
        self.up
            .as_deref()
            .map(|a| &a[c * self.mask_words..(c + 1) * self.mask_words])
    }

    /// The classes whose signature is contained in `sig(c)` (including
    /// `c`), when materialized.
    #[inline]
    pub fn down(&self, c: ClassId) -> Option<&[u64]> {
        self.down
            .as_deref()
            .map(|a| &a[c * self.mask_words..(c + 1) * self.mask_words])
    }

    /// Resident size of the closure in bytes (shared once per universe, not
    /// per session).
    pub fn resident_bytes(&self) -> usize {
        (self.members.len()
            + self.up.as_ref().map_or(0, Vec::len)
            + self.down.as_ref().map_or(0, Vec::len))
            * std::mem::size_of::<u64>()
    }
}

/// Zeroes the bits at or above `nbits` in a mask word slice.
#[inline]
fn clamp_mask(words: &mut [u64], nbits: usize) {
    let rem = nbits % WORD_BITS;
    if rem != 0 {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << rem) - 1;
        }
    }
}

/// Default byte budget of the [`Universe`] decision cache (see
/// [`Universe::with_decision_cache_budget`]).
pub const DEFAULT_DECISION_CACHE_BYTES: usize = 4 << 20;

/// A statistics snapshot of the universe-level decision cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that had to compute the move (including hash collisions whose
    /// exact-mask verification failed — those never return a cached value).
    pub misses: u64,
    /// Entries dropped to stay inside the byte budget, oldest inserted
    /// first.
    pub evictions: u64,
    /// Live entries at sampling time.
    pub entries: usize,
    /// Estimated resident bytes of the cache at sampling time.
    pub bytes: usize,
    /// The configured byte budget (`0` = caching disabled).
    pub budget_bytes: usize,
}

/// Estimated per-entry overhead beyond the mask words: the map slot (key
/// and entry), the key's slot in the insertion queue, and allocator slack.
const CACHE_ENTRY_OVERHEAD: usize =
    std::mem::size_of::<((u64, u64), CacheEntry)>() + std::mem::size_of::<(u64, u64)>() + 32;

/// One memoized decision: the exact mask keys it was computed for and the
/// chosen candidate.
#[derive(Debug)]
struct CacheEntry {
    /// Exact `T(S⁺)` mask words (empty while `θ = Ω` — the normalized form
    /// of the whole negative phase).
    pos: Box<[u64]>,
    /// Exact negative-label class mask words.
    neg: Box<[u64]>,
    /// The memoized move (`None` = the strategy halted).
    value: Option<ClassId>,
}

impl CacheEntry {
    fn bytes(&self) -> usize {
        CACHE_ENTRY_OVERHEAD + (self.pos.len() + self.neg.len()) * std::mem::size_of::<u64>()
    }
}

/// The write-locked core of the decision cache: the entries by
/// `(strategy_key, mask hash)`, and their keys in insertion order, oldest
/// first.
#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<(u64, u64), CacheEntry>,
    order: VecDeque<(u64, u64)>,
    bytes: usize,
}

/// The universe-level **full-policy decision cache**: a bounded memo of
/// deterministic strategies' moves, shared by every session over one
/// universe.
///
/// Given the universe, a deterministic strategy's choice is a pure
/// function of the session's derived state, and the derived state is
/// itself a pure function of `(T(S⁺), negative-label class mask)` (plus
/// whether any positive exists at all — folded into the strategy
/// fingerprint): the open/certain partition, every gain pair, and the
/// inclusion–exclusion probabilities are all determined by those masks
/// (see the consistency argument on
/// [`Universe::cached_decision`]). A fleet of sessions over one universe
/// is therefore a walk over one shared decision structure, and the cache
/// makes each distinct state's strategy work — for deep lookahead, by far
/// the most expensive part of a session — a one-time cost per universe
/// instead of per session.
///
/// The map is keyed by `(strategy fingerprint, 64-bit mask hash)` for
/// cheap probes, but every entry stores the **exact** mask words and a hit
/// is only returned after comparing them — a hash collision degrades to a
/// miss, never to a wrong move.
///
/// Concurrency: the hot path (a fleet of sessions hitting warm entries)
/// takes only the **read** lock and writes nothing but the `hits`
/// counter, so hits proceed in parallel. Misses take the write lock once
/// to insert. Memory is bounded by a byte budget with eviction in
/// **insertion order**: an insert that takes the cache past its budget
/// drops the oldest entries, however recently they were hit, until the
/// cache fits again. A budget of `0` disables caching entirely.
#[derive(Debug)]
pub(crate) struct DecisionCache {
    budget: usize,
    inner: RwLock<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl DecisionCache {
    fn new(budget: usize) -> DecisionCache {
        DecisionCache {
            budget,
            inner: RwLock::new(CacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Probes for `key`; `Some(move)` only when the exact masks match.
    /// Read lock only — see the type docs.
    fn lookup(&self, key: (u64, u64), pos: &[u64], neg: &[u64]) -> Option<Option<ClassId>> {
        let inner = self.inner.read().expect("decision cache poisoned");
        if let Some(e) = inner.map.get(&key) {
            if &*e.pos == pos && &*e.neg == neg {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(e.value);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Records a computed move, then evicts the oldest entries while the
    /// byte budget is exceeded. An existing entry under the same key (a
    /// racing compute, or a hash collision) is overwritten in place and
    /// keeps its queue position — for races the values agree, and for
    /// collisions exact verification keeps either resident value safe.
    fn insert(&self, key: (u64, u64), pos: &[u64], neg: &[u64], value: Option<ClassId>) {
        let entry = CacheEntry {
            pos: pos.into(),
            neg: neg.into(),
            value,
        };
        let mut inner = self.inner.write().expect("decision cache poisoned");
        inner.bytes += entry.bytes();
        match inner.map.insert(key, entry) {
            Some(old) => inner.bytes -= old.bytes(),
            None => inner.order.push_back(key),
        }
        // Every queued key is cached, so the queue empties only once
        // `bytes` is back to 0 — even an entry larger than the whole
        // budget is dropped again.
        while inner.bytes > self.budget {
            let oldest = inner.order.pop_front().expect("a cached entry is queued");
            let e = inner.map.remove(&oldest).expect("a queued key is cached");
            inner.bytes -= e.bytes();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> DecisionCacheStats {
        let inner = self.inner.read().expect("decision cache poisoned");
        DecisionCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
            budget_bytes: self.budget,
        }
    }
}

impl Clone for DecisionCache {
    /// Cloning a universe starts an empty cache with the same budget:
    /// entries rebuild cheaply and class ids are identical either way.
    fn clone(&self) -> Self {
        DecisionCache::new(self.budget)
    }
}

/// The Cartesian product of an instance, partitioned into T-equivalence
/// classes.
#[derive(Debug, Clone)]
pub struct Universe {
    pub(crate) instance: Instance,
    /// Distinct signatures; `sigs[c]` is `T(t)` for every tuple of class `c`.
    pub(crate) sigs: Vec<BitSet>,
    /// `|T(t)|` per class, precomputed: the BU/TD orderings consult it on
    /// every step and popcounting the signature each time would dominate.
    pub(crate) sig_sizes: Vec<u32>,
    /// Number of product tuples in each class.
    pub(crate) counts: Vec<u64>,
    /// One representative `(ri, pi)` product tuple per class.
    pub(crate) reps: Vec<(u32, u32)>,
    /// Construction-time hash buckets (signature word-hash → candidate
    /// class ids), kept so [`Universe::class_of`] is O(1) expected instead
    /// of a linear scan over all signatures.
    pub(crate) buckets: HashMap<u64, Vec<u32>>,
    /// The precomputed containment order among classes (see
    /// [`ClassClosure`]): built once here, shared read-only by every
    /// session over this universe.
    pub(crate) closure: ClassClosure,
    /// The full-policy decision cache: deterministic strategies' memoized
    /// moves in both phases, shared by every session over this universe.
    pub(crate) decision_cache: DecisionCache,
    /// Number of distinct R-side / P-side join profiles the build
    /// enumerated (`|R|` / `|P|` for the reference build).
    pub(crate) distinct_r: usize,
    pub(crate) distinct_p: usize,
    /// Monotone edit-generation counter: 0 at construction, +1 per
    /// [`Universe::apply_delta`]. Folded into [`Universe::fingerprint`] so
    /// durable state stamped before a delta can never silently replay
    /// against the post-delta class ids, and into the decision-cache key so
    /// a cached move can never leak across a delta.
    pub(crate) epoch: u64,
    /// Which rows back this universe, and so whether it takes deltas.
    pub(crate) rows: Rows,
}

/// What a universe knows about its rows — the one thing that decides
/// whether [`Universe::apply_delta`] can run on it.
#[derive(Debug, Clone)]
pub(crate) enum Rows {
    /// `instance` holds every row ([`Universe::build`] and its in-memory
    /// siblings); the first delta derives live tables from it.
    Complete,
    /// `instance` holds one representative row per distinct profile and
    /// nothing holds the full row multiset, so deltas are refused (a
    /// streaming build without [`IngestOptions::live`](crate::IngestOptions::live)).
    Representatives,
    /// The live row/profile tables delta maintenance works on (a live
    /// streaming build, or any post-delta universe); `instance` holds
    /// representatives. The tables are copy-on-write chunks, so cloning
    /// a universe copies chunk handles, not rows, and `apply_delta`
    /// copies only the chunks its edits write. (Boxed only to keep the
    /// enum small.)
    Live(Box<LiveTables>),
}

/// One distinct join profile of a relation side: its first (representative)
/// row and the number of rows that collapse into it. The streaming build
/// (`crate::ingest`) produces these directly from folded profile maps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Profile {
    pub(crate) rep: u32,
    pub(crate) count: u64,
}

/// Deduplicates profile keys in first-occurrence order.
fn distinct_profiles(keys: impl Iterator<Item = Box<[u32]>>) -> Vec<Profile> {
    let mut ids: HashMap<Box<[u32]>, u32> = HashMap::new();
    let mut out: Vec<Profile> = Vec::new();
    for (row, key) in keys.enumerate() {
        match ids.entry(key) {
            Entry::Occupied(e) => out[*e.get() as usize].count += 1,
            Entry::Vacant(e) => {
                e.insert(out.len() as u32);
                out.push(Profile {
                    rep: row as u32,
                    count: 1,
                });
            }
        }
    }
    out
}

/// The P side's shared symbols as posting lists, in CSR form.
///
/// For the shared symbol of rank `k` (its position among the shared
/// symbols in id order), postings `offsets[k]..offsets[k + 1]` name the P
/// profiles whose representative row holds it, in P-profile order
/// (`pids`), each with the P columns that hold it (`masks`, stride
/// `pwords` words, so P relations of any arity are supported). The lists
/// are indexed by rank rather than by symbol id, so the index costs
/// `O(postings)` plus one `u32` per 64 symbol ids for the rank directory.
struct Postings<'s> {
    shared: &'s BitSet,
    /// Shared symbols below each word of `shared`.
    rank_base: Vec<u32>,
    offsets: Vec<u32>,
    pids: Vec<u32>,
    masks: Vec<u64>,
    pwords: usize,
}

impl<'s> Postings<'s> {
    fn build(p_rows: &[Tuple], shared: &'s BitSet, p_profiles: &[Profile], m: usize) -> Self {
        let pwords = word_count(m);
        let mut rank_base = Vec::with_capacity(shared.words().len());
        let mut ranks = 0u32;
        for w in shared.words() {
            rank_base.push(ranks);
            ranks += w.count_ones();
        }
        let mut index = Postings {
            shared,
            rank_base,
            offsets: vec![0; ranks as usize + 1],
            pids: Vec::new(),
            masks: Vec::new(),
            pwords,
        };
        // Each profile's distinct shared symbols with their column masks,
        // in profile order, counted per rank.
        let mut entries: Vec<(u32, u32)> = Vec::new();
        let mut entry_masks: Vec<u64> = Vec::new();
        for (pid, profile) in (0u32..).zip(p_profiles) {
            let first = entries.len();
            for (j, sym) in p_rows[profile.rep as usize].symbols().iter().enumerate() {
                let Some(rank) = index.rank(sym.index()) else {
                    continue;
                };
                let e = match entries[first..].iter().position(|&(r, _)| r == rank) {
                    Some(k) => first + k,
                    None => {
                        entries.push((rank, pid));
                        entry_masks.resize(entry_masks.len() + pwords, 0);
                        index.offsets[rank as usize + 1] += 1;
                        entries.len() - 1
                    }
                };
                entry_masks[e * pwords + j / WORD_BITS] |= 1u64 << (j % WORD_BITS);
            }
        }
        assert!(
            u32::try_from(entries.len()).is_ok(),
            "{} postings overflow the u32 offsets",
            entries.len()
        );
        for k in 1..index.offsets.len() {
            index.offsets[k] += index.offsets[k - 1];
        }
        // A stable counting sort by rank keeps every list in P-profile order.
        let mut next = index.offsets.clone();
        index.pids = vec![0; entries.len()];
        index.masks = vec![0; entry_masks.len()];
        for (e, &(rank, pid)) in entries.iter().enumerate() {
            let k = next[rank as usize] as usize;
            next[rank as usize] += 1;
            index.pids[k] = pid;
            index.masks[k * pwords..(k + 1) * pwords]
                .copy_from_slice(&entry_masks[e * pwords..(e + 1) * pwords]);
        }
        index
    }

    /// The rank of symbol `sym` among the shared symbols, if it is shared.
    #[inline]
    fn rank(&self, sym: usize) -> Option<u32> {
        if !self.shared.contains(sym) {
            return None;
        }
        let below = self.shared.words()[sym / WORD_BITS] & ((1u64 << (sym % WORD_BITS)) - 1);
        Some(self.rank_base[sym / WORD_BITS] + below.count_ones())
    }

    /// The `(P profile, column mask)` postings of symbol `sym`; none if it
    /// is not shared.
    #[inline]
    fn of(&self, sym: usize) -> impl Iterator<Item = (usize, &[u64])> + '_ {
        let range = self.rank(sym).map_or(0..0, |k| {
            self.offsets[k as usize] as usize..self.offsets[k as usize + 1] as usize
        });
        range.map(move |k| {
            (
                self.pids[k] as usize,
                &self.masks[k * self.pwords..(k + 1) * self.pwords],
            )
        })
    }
}

/// A growing table of distinct signatures with weights, representatives and
/// hash buckets. Threads build local tables; [`ClassTable::absorb`] merges
/// them deterministically.
#[derive(Default)]
struct ClassTable {
    sigs: Vec<BitSet>,
    counts: Vec<u64>,
    reps: Vec<(u32, u32)>,
    buckets: HashMap<u64, Vec<u32>>,
}

impl ClassTable {
    /// Records `count` product tuples with the signature in `words`; `rep`
    /// is used only if the signature is new.
    fn observe(&mut self, nbits: usize, words: &[u64], count: u64, rep: (u32, u32)) {
        let bucket = self.buckets.entry(hash_words(words)).or_default();
        for &cid in bucket.iter() {
            if self.sigs[cid as usize].words() == words {
                self.counts[cid as usize] += count;
                return;
            }
        }
        let cid = self.sigs.len() as u32;
        self.sigs.push(BitSet::from_words(nbits, words.to_vec()));
        self.counts.push(count);
        self.reps.push(rep);
        bucket.push(cid);
    }

    /// Merges a later chunk's table into this one. First-occurrence order
    /// is preserved because chunks are absorbed in chunk order.
    fn absorb(&mut self, other: ClassTable) {
        for ((sig, count), rep) in other.sigs.into_iter().zip(other.counts).zip(other.reps) {
            self.observe(sig.capacity(), sig.words(), count, rep);
        }
    }
}

/// The profile-pair kernel: classifies every `(r_profile, p_profile)` pair
/// of `r_chunk × p_profiles` into a local class table, visiting only the
/// pairs that share a value.
///
/// Per R profile, the postings of its shared symbols are ORed, each mask
/// shifted to its R column's offset `i·m`, into a scratch signature row per
/// P profile, and every P profile reached is marked touched. The touched
/// pairs are observed in P-profile order. Every other pair shares no value,
/// so its signature is ∅: the untouched pairs are folded into one
/// observation, weighted by the untouched P weight and emitted at the
/// position of the first untouched P profile (its representative), so
/// class ids, counts and representatives are those of visiting every pair
/// in order.
fn scan_chunk(
    r_rows: &[Tuple],
    r_chunk: &[Profile],
    p_profiles: &[Profile],
    postings: &Postings,
    nbits: usize,
    m: usize,
) -> ClassTable {
    let words = word_count(nbits);
    let p_weight: u64 = p_profiles.iter().map(|p| p.count).sum();
    let mut table = ClassTable::default();
    let mut sig_rows: Vec<u64> = vec![0; p_profiles.len() * words];
    let mut touched_bits: Vec<u64> = vec![0; word_count(p_profiles.len())];
    let mut touched: Vec<usize> = Vec::new();
    let empty: Vec<u64> = vec![0; words];
    for rp in r_chunk {
        for (i, sym) in r_rows[rp.rep as usize].symbols().iter().enumerate() {
            for (pid, mask) in postings.of(sym.index()) {
                or_shifted(&mut sig_rows[pid * words..(pid + 1) * words], mask, i * m);
                let bit = 1u64 << (pid % WORD_BITS);
                if touched_bits[pid / WORD_BITS] & bit == 0 {
                    touched_bits[pid / WORD_BITS] |= bit;
                    touched.push(pid);
                }
            }
        }
        touched.sort_unstable();
        // The first untouched P profile (`p_profiles.len()` if none): the
        // ∅ observation of every untouched pair is made at its position.
        let mut first_untouched = (0..).zip(&touched).take_while(|&(k, &p)| k == p).count();
        let untouched_weight = p_weight - touched.iter().map(|&p| p_profiles[p].count).sum::<u64>();
        for pid in touched.iter().copied().chain([p_profiles.len()]) {
            if first_untouched < pid {
                let rep = (rp.rep, p_profiles[first_untouched].rep);
                table.observe(nbits, &empty, rp.count * untouched_weight, rep);
                first_untouched = usize::MAX;
            }
            let Some(pp) = p_profiles.get(pid) else {
                break;
            };
            let sig = &mut sig_rows[pid * words..(pid + 1) * words];
            table.observe(nbits, sig, rp.count * pp.count, (rp.rep, pp.rep));
            sig.fill(0);
            touched_bits[pid / WORD_BITS] = 0;
        }
        touched.clear();
    }
    table
}

impl Universe {
    /// Partitions the Cartesian product of `instance` into T-equivalence
    /// classes, deduplicating rows into weighted join profiles first and
    /// parallelizing the remaining profile-pair loop when it is large (see
    /// the module docs for the complexity budget).
    ///
    /// The result is deterministic: class ids follow the first-occurrence
    /// order of signatures over the (R-profile, P-profile) pair enumeration,
    /// regardless of thread count.
    pub fn build(instance: Instance) -> Self {
        Self::build_from_rows(instance, None)
    }

    /// [`Universe::build`] with an explicit worker count, exposed so the
    /// equivalence property tests (and benches) can force the parallel
    /// merge path on any machine.
    pub fn build_with_parallelism(instance: Instance, threads: usize) -> Self {
        Self::build_from_rows(instance, Some(threads))
    }

    /// The in-memory build: deduplicates both sides into weighted join
    /// profiles and assembles. `threads: None` picks the worker count from
    /// the profile-pair work.
    fn build_from_rows(instance: Instance, threads: Option<usize>) -> Self {
        let shared = instance.shared_symbols();
        let profiles =
            |rows: &[Tuple]| distinct_profiles(rows.iter().map(|row| profile_key(row, &shared)));
        let r_profiles = profiles(instance.r().rows());
        let p_profiles = profiles(instance.p().rows());
        let threads = threads.unwrap_or_else(|| {
            let work = r_profiles.len() as u64 * p_profiles.len() as u64;
            if work < PARALLEL_THRESHOLD {
                1
            } else {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            }
        });
        Self::assemble(
            instance,
            shared,
            r_profiles,
            p_profiles,
            threads,
            Rows::Complete,
        )
    }

    /// The pre-deduplication construction: walk every `(ri, pi)` row pair
    /// of the raw Cartesian product in order, computing each signature
    /// directly with [`Instance::signature_into`]. `O(|R| · |P| · n · m)`.
    /// It shares no profiles and no postings with [`Universe::build`], so
    /// it is an executable specification of it (the tests assert equal
    /// class ids, counts and representatives) and the baseline the
    /// `scaling` benchmark measures speedups against.
    pub fn build_rowpair_reference(instance: Instance) -> Self {
        let nbits = instance.pairs().len();
        let (rows_r, rows_p) = (instance.r().len(), instance.p().len());
        let mut table = ClassTable::default();
        let mut sig = BitSet::empty(nbits);
        for ri in 0..rows_r {
            for pi in 0..rows_p {
                instance.signature_into(ri, pi, &mut sig);
                table.observe(nbits, sig.words(), 1, (ri as u32, pi as u32));
            }
        }
        Self::from_classes(instance, table, (rows_r, rows_p), 1, Rows::Complete)
    }

    /// Classifies the weighted profile pairs with the sparse kernel
    /// ([`scan_chunk`]), in parallel over R-profile chunks when `threads >
    /// 1`, merging the chunk tables in chunk order.
    pub(crate) fn assemble(
        instance: Instance,
        shared: BitSet,
        r_profiles: Vec<Profile>,
        p_profiles: Vec<Profile>,
        threads: usize,
        rows: Rows,
    ) -> Self {
        let m = instance.pairs().arity_p();
        let nbits = instance.pairs().len();
        let postings = Postings::build(instance.p().rows(), &shared, &p_profiles, m);
        let r_rows = instance.r().rows();

        let scan_threads = threads.clamp(1, r_profiles.len().max(1));
        let table = if scan_threads <= 1 {
            scan_chunk(r_rows, &r_profiles, &p_profiles, &postings, nbits, m)
        } else {
            let chunk = r_profiles.len().div_ceil(scan_threads);
            let locals: Vec<ClassTable> = std::thread::scope(|s| {
                let handles: Vec<_> = r_profiles
                    .chunks(chunk)
                    .map(|r_chunk| {
                        let (p_profiles, postings) = (&p_profiles, &postings);
                        s.spawn(move || scan_chunk(r_rows, r_chunk, p_profiles, postings, nbits, m))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("universe scan worker panicked"))
                    .collect()
            });
            let mut merged = ClassTable::default();
            for local in locals {
                merged.absorb(local);
            }
            merged
        };
        let distinct = (r_profiles.len(), p_profiles.len());
        Self::from_classes(instance, table, distinct, threads, rows)
    }

    /// The universe over a finished class table: signature sizes, the
    /// containment closure (built on `threads` workers) and an empty
    /// decision cache. `distinct` is the number of R and P profiles the
    /// build enumerated.
    fn from_classes(
        instance: Instance,
        mut table: ClassTable,
        distinct: (usize, usize),
        threads: usize,
        rows: Rows,
    ) -> Self {
        let sig_sizes = table.sigs.iter().map(|s| s.len() as u32).collect();
        table.buckets.shrink_to_fit();
        let closure = ClassClosure::build(&table.sigs, instance.pairs().len(), threads);
        Universe {
            instance,
            sigs: table.sigs,
            sig_sizes,
            counts: table.counts,
            reps: table.reps,
            buckets: table.buckets,
            closure,
            decision_cache: DecisionCache::new(DEFAULT_DECISION_CACHE_BYTES),
            distinct_r: distinct.0,
            distinct_p: distinct.1,
            epoch: 0,
            rows,
        }
    }

    /// Replaces the decision cache with an empty one bounded by `bytes`
    /// (`0` disables caching entirely — every probe computes). An insert
    /// that takes the cache past `bytes` evicts the oldest inserted
    /// entries until it fits; a hit does not make an entry younger.
    ///
    /// Builder-style so call sites read
    /// `Universe::build(inst).with_decision_cache_budget(n)`.
    pub fn with_decision_cache_budget(mut self, bytes: usize) -> Self {
        self.decision_cache = DecisionCache::new(bytes);
        self
    }

    /// A statistics snapshot of the decision cache (hits, misses,
    /// evictions, resident bytes, budget).
    pub fn decision_cache_stats(&self) -> DecisionCacheStats {
        self.decision_cache.stats()
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Number of T-equivalence classes (the paper's `|N|`, plus possibly the
    /// ∅-signature class).
    pub fn num_classes(&self) -> usize {
        self.sigs.len()
    }

    /// Number of distinct R-side join profiles enumerated at construction
    /// (`|R|` for [`Universe::build_rowpair_reference`]).
    pub fn distinct_r_profiles(&self) -> usize {
        self.distinct_r
    }

    /// Number of distinct P-side join profiles enumerated at construction.
    pub fn distinct_p_profiles(&self) -> usize {
        self.distinct_p
    }

    /// The signature `T(t)` shared by all tuples of class `c`.
    #[inline]
    pub fn sig(&self, c: ClassId) -> &BitSet {
        &self.sigs[c]
    }

    /// All distinct signatures, indexed by class id.
    pub fn sigs(&self) -> &[BitSet] {
        &self.sigs
    }

    /// Whether `other` has the identical signature sequence — every class
    /// id names the same signature in both (a count-only delta keeps
    /// this). Consistency and certainty (§3.1, Lemmas 3.3/3.4) read
    /// signatures only, so a label history valid over `self` is valid,
    /// with the same derived masks, over `other`.
    pub fn same_classes(&self, other: &Universe) -> bool {
        self.sigs == other.sigs
    }

    /// `|T(t)|` for class `c`, precomputed at construction.
    #[inline]
    pub fn sig_size(&self, c: ClassId) -> usize {
        self.sig_sizes[c] as usize
    }

    /// Number of product tuples in class `c`.
    #[inline]
    pub fn count(&self, c: ClassId) -> u64 {
        self.counts[c]
    }

    /// Per-class tuple counts, indexed by class id — the weight array the
    /// mask-based gain computations fold over.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The precomputed containment closure among classes.
    #[inline]
    pub fn closure(&self) -> &ClassClosure {
        &self.closure
    }

    /// The memoized move of a deterministic strategy at the derived state
    /// described by `(pos_mask, neg_mask)`, computing it with `compute` on
    /// the first probe and serving every later one from the shared
    /// decision cache.
    ///
    /// # Why the key is sufficient (the consistency argument)
    ///
    /// Fix the universe and a consistent sample `S`. The derived state
    /// every deterministic strategy reads is a pure function of
    /// `θ = T(S⁺)` and the set `N` of negatively labeled classes:
    ///
    /// * the certain-positive classes are `{t : θ ⊆ T(t)}` and the
    ///   certain-negative ones `⋃_{g∈N} {t : θ ∩ T(t) ⊆ T(g)}` (Lemmas
    ///   3.3–3.4) — functions of `(θ, N)` only;
    /// * a labeled class would be *certain* under its own label had it not
    ///   been labeled (each positive `p` has `θ ⊆ T(p)` since `θ` is the
    ///   intersection of positive signatures; each negative `g` trivially
    ///   satisfies `θ ∩ T(g) ⊆ T(g)`), so the **open mask** — the
    ///   complement of labeled-or-certain — does not depend on *which*
    ///   positives produced `θ`;
    /// * gains, entropies, and the inclusion–exclusion probabilities
    ///   iterate `N` only through unions/sums — order never matters.
    ///
    /// Hence the move is a function of `(θ, N)` — **almost**: strategies
    /// may branch on whether any positive exists at all (TD's phase
    /// switch), which `θ` does not capture when a positive's signature is
    /// all of Ω. Callers must fold that phase bit (and everything else the
    /// choice depends on: strategy identity, lookahead depth)
    /// into `strategy_key`. `pos_mask` must be the exact `θ` words,
    /// normalized to the **empty slice** while `θ = Ω`; `neg_mask` the
    /// exact negative-label class mask. Strategies whose choice depends on
    /// per-session data (a random seed, the history length) must not use
    /// the cache.
    ///
    /// The probe hashes the masks but a hit is verified against the exact
    /// stored words, so a hash collision can never change a move.
    /// Thread-safe; concurrent first probes may both compute, last insert
    /// wins (the value is deterministic, so the races agree).
    pub fn cached_decision(
        &self,
        strategy_key: u64,
        pos_mask: &[u64],
        neg_mask: &[u64],
        compute: impl FnOnce() -> Option<ClassId>,
    ) -> Option<ClassId> {
        if self.decision_cache.budget == 0 {
            return compute();
        }
        let key = (strategy_key, self.cache_mask_key(pos_mask, neg_mask));
        if let Some(value) = self.decision_cache.lookup(key, pos_mask, neg_mask) {
            return value;
        }
        let value = compute();
        self.decision_cache.insert(key, pos_mask, neg_mask, value);
        value
    }

    /// The mask half of the decision-cache key. The universe's epoch is
    /// folded in with its own odd multiplier: a post-delta universe probes
    /// a disjoint key space, so even a cache that (hypothetically) survived
    /// a delta could never serve a pre-delta move. In practice
    /// [`Universe::apply_delta`] also starts the new universe with an empty
    /// cache — the epoch in the key is defense in depth, and what the
    /// regression tests assert.
    fn cache_mask_key(&self, pos_mask: &[u64], neg_mask: &[u64]) -> u64 {
        hash_words(pos_mask).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ hash_words(neg_mask)
            ^ self.epoch.wrapping_mul(0xA24B_AED4_963E_E407)
    }

    /// A representative `(ri, pi)` product tuple of class `c` — the tuple a
    /// strategy actually shows to the user.
    #[inline]
    pub fn representative(&self, c: ClassId) -> (usize, usize) {
        let (ri, pi) = self.reps[c];
        (ri as usize, pi as usize)
    }

    /// Total number of product tuples, `|D|`.
    pub fn total_tuples(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `|Ω|`, the capacity of every predicate bitset.
    pub fn omega_len(&self) -> usize {
        self.instance.pairs().len()
    }

    /// The most specific predicate Ω as a bitset.
    pub fn omega(&self) -> BitSet {
        self.instance.pairs().omega()
    }

    /// A deterministic fingerprint of the class structure: `|Ω|`, the
    /// number of classes, and every class's signature words and tuple
    /// count, folded through the same multiply–xorshift mix as
    /// [`jqi_relation::bitset::hash_words`].
    ///
    /// Two universes share a fingerprint exactly when they assign the same
    /// class ids to the same signatures with the same weights — the
    /// precondition for a session history (class-id addressed) from one to
    /// replay correctly on the other. Durable state (WAL headers, spill
    /// segments, snapshot documents) stamps this value so a restore
    /// against the wrong universe fails loudly instead of replaying
    /// garbage. Stable across processes and platforms: no addresses, no
    /// randomized hashing, and `Universe::build` is deterministic.
    ///
    /// The [`Universe::epoch`] is folded in on top of the class-structure
    /// hash ([`Universe::content_fingerprint`]): even a delta that happens
    /// to restore the exact pre-delta class structure yields a fresh
    /// fingerprint, so a snapshot taken before the delta always fails its
    /// restore check instead of replaying against reshuffled ids, and a
    /// logged delta names exactly the universe it produced.
    pub fn fingerprint(&self) -> u64 {
        hash_words(&[self.content_fingerprint(), self.epoch])
    }

    /// The epoch-independent part of [`Universe::fingerprint`]: a hash of
    /// `|Ω|`, the class count, and every class's signature words and tuple
    /// count.
    pub fn content_fingerprint(&self) -> u64 {
        let mut acc: Vec<u64> = Vec::with_capacity(2 + 2 * self.sigs.len());
        acc.push(self.omega_len() as u64);
        acc.push(self.sigs.len() as u64);
        for (sig, &count) in self.sigs.iter().zip(self.counts.iter()) {
            acc.push(hash_words(sig.words()));
            acc.push(count);
        }
        hash_words(&acc)
    }

    /// The universe's edit generation: 0 at construction, bumped by one on
    /// every [`Universe::apply_delta`] (including empty deltas). Monotone
    /// along any chain of deltas; folded into [`Universe::fingerprint`] and
    /// the decision-cache key.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Finds the class of an arbitrary product tuple.
    ///
    /// O(1) expected: one signature computation plus a probe of the
    /// construction-time hash buckets (full equality is re-checked, so hash
    /// collisions are harmless).
    pub fn class_of(&self, ri: usize, pi: usize) -> Option<ClassId> {
        let sig = self.instance.signature(ri, pi);
        self.class_for_signature(&sig)
    }

    /// Finds the class carrying exactly `sig`, if any. O(1) expected (one
    /// bucket probe with exact re-check). This is how session migration
    /// maps a pre-delta class id to its post-delta id: signatures are the
    /// stable identity of a class, ids are not.
    pub fn class_for_signature(&self, sig: &BitSet) -> Option<ClassId> {
        let bucket = self.buckets.get(&hash_words(sig.words()))?;
        bucket
            .iter()
            .map(|&c| c as usize)
            .find(|&c| self.sigs[c] == *sig)
    }

    /// Iterates over `(class, signature, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &BitSet, u64)> + '_ {
        self.sigs
            .iter()
            .enumerate()
            .map(move |(c, s)| (c, s, self.counts[c]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::example_2_1;
    use jqi_relation::{Instance, InstanceBuilder, Value};

    #[test]
    fn example_2_1_has_twelve_singleton_classes() {
        // Figure 3: all 12 product tuples have pairwise distinct T values.
        let u = Universe::build(example_2_1());
        assert_eq!(u.num_classes(), 12);
        assert_eq!(u.total_tuples(), 12);
        assert!(u.iter().all(|(_, _, n)| n == 1));
    }

    #[test]
    fn signatures_match_direct_computation() {
        let u = Universe::build(example_2_1());
        let inst = u.instance();
        for (ri, pi) in inst.product() {
            let sig = inst.signature(ri, pi);
            let c = u.class_of(ri, pi).expect("every tuple has a class");
            assert_eq!(u.sig(c), &sig);
        }
    }

    #[test]
    fn duplicate_rows_collapse_into_classes() {
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A"]);
        b.relation_p("P", &["B"]);
        for _ in 0..3 {
            b.row_r(&[Value::int(1)]);
        }
        for _ in 0..2 {
            b.row_p(&[Value::int(1)]);
        }
        b.row_p(&[Value::int(2)]);
        let u = Universe::build(b.build().unwrap());
        // Two classes: {A=B} with 3·2=6 tuples, ∅ with 3·1=3 tuples.
        assert_eq!(u.num_classes(), 2);
        assert_eq!(u.total_tuples(), 9);
        let mut counts: Vec<u64> = u.counts.clone();
        counts.sort();
        assert_eq!(counts, vec![3, 6]);
        // The duplicated rows collapse into single profiles.
        assert_eq!(u.distinct_r_profiles(), 1);
        assert_eq!(u.distinct_p_profiles(), 2);
    }

    #[test]
    fn sig_sizes_match_popcounts() {
        let u = Universe::build(example_2_1());
        for c in 0..u.num_classes() {
            assert_eq!(u.sig_size(c), u.sig(c).len());
        }
    }

    #[test]
    fn representative_belongs_to_its_class() {
        let u = Universe::build(example_2_1());
        for c in 0..u.num_classes() {
            let (ri, pi) = u.representative(c);
            assert_eq!(&u.instance().signature(ri, pi), u.sig(c));
        }
    }

    #[test]
    fn wide_relations_cross_word_boundaries() {
        // n=3, m=60 → |Ω| = 180 bits, masks straddle word boundaries.
        let mut b = InstanceBuilder::new();
        let r_attrs: Vec<String> = (0..3).map(|i| format!("A{i}")).collect();
        let p_attrs: Vec<String> = (0..60).map(|j| format!("B{j}")).collect();
        let r_refs: Vec<&str> = r_attrs.iter().map(String::as_str).collect();
        let p_refs: Vec<&str> = p_attrs.iter().map(String::as_str).collect();
        b.relation_r("R", &r_refs);
        b.relation_p("P", &p_refs);
        b.row_r(&[Value::int(7), Value::int(8), Value::int(9)]);
        let p_row: Vec<Value> = (0..60)
            .map(|j| Value::int(if j % 2 == 0 { 7 } else { 9 }))
            .collect();
        b.row_p(&p_row);
        let u = Universe::build(b.build().unwrap());
        assert_eq!(u.num_classes(), 1);
        let sig = u.sig(0);
        let inst = u.instance();
        let direct = inst.signature(0, 0);
        assert_eq!(sig, &direct, "fast path must agree with naive signature");
        // Spot checks: A0 (=7) matches even B columns, A2 (=9) odd ones.
        assert!(sig.contains(inst.pair_index(0, 0)));
        assert!(!sig.contains(inst.pair_index(0, 1)));
        assert!(sig.contains(inst.pair_index(2, 1)));
        assert!(!sig.contains(inst.pair_index(1, 5)));
    }

    #[test]
    fn relations_wider_than_64_columns_are_supported() {
        // Regression for the former `m <= 64` assert-panic: P has 70
        // attributes, so each per-symbol column mask spans two words.
        let n = 2usize;
        let m = 70usize;
        let mut b = InstanceBuilder::new();
        let r_attrs: Vec<String> = (0..n).map(|i| format!("A{i}")).collect();
        let p_attrs: Vec<String> = (0..m).map(|j| format!("B{j}")).collect();
        let r_refs: Vec<&str> = r_attrs.iter().map(String::as_str).collect();
        let p_refs: Vec<&str> = p_attrs.iter().map(String::as_str).collect();
        b.relation_r("R", &r_refs);
        b.relation_p("P", &p_refs);
        b.row_r(&[Value::int(1), Value::int(2)]);
        b.row_r(&[Value::int(2), Value::int(3)]);
        // P rows hit columns on both sides of the 64-bit boundary.
        let p_row_a: Vec<Value> = (0..m)
            .map(|j| Value::int(if j == 0 || j == 65 { 1 } else { -1 }))
            .collect();
        let p_row_b: Vec<Value> = (0..m)
            .map(|j| Value::int(if j % 7 == 0 { 2 } else { 3 }))
            .collect();
        b.row_p(&p_row_a);
        b.row_p(&p_row_b);
        let u = Universe::build(b.build().unwrap());
        let inst = u.instance();
        assert_eq!(u.omega_len(), n * m);
        for (ri, pi) in inst.product() {
            let sig = inst.signature(ri, pi);
            let c = u.class_of(ri, pi).expect("class exists");
            assert_eq!(u.sig(c), &sig, "wide signature diverges at ({ri},{pi})");
        }
    }

    #[test]
    fn parallel_build_is_deterministic() {
        // Class ids, counts, and representatives must be identical to the
        // sequential build for every worker count.
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A1", "A2"]);
        b.relation_p("P", &["B1", "B2"]);
        for i in 0..40i64 {
            b.row_r_ints(&[i % 5, (i * 3) % 4]);
        }
        for j in 0..30i64 {
            b.row_p_ints(&[(j * 2) % 5, j % 3]);
        }
        let inst = b.build().unwrap();
        let seq = Universe::build_with_parallelism(inst.clone(), 1);
        for threads in [2, 3, 4, 7] {
            let par = Universe::build_with_parallelism(inst.clone(), threads);
            assert_eq!(
                seq.sigs, par.sigs,
                "signatures diverge at {threads} threads"
            );
            assert_eq!(
                seq.counts, par.counts,
                "counts diverge at {threads} threads"
            );
            assert_eq!(seq.reps, par.reps, "reps diverge at {threads} threads");
        }
    }

    /// Asserts that every in-memory build of `inst` (`build`, and 1, 2, 3
    /// and 8 threads) equals the row-pair reference class by class, in id
    /// order: signature, count and representative. Returns the reference.
    fn assert_matches_reference(inst: &Instance) -> Universe {
        let reference = Universe::build_rowpair_reference(inst.clone());
        let mut builds = vec![("build".to_string(), Universe::build(inst.clone()))];
        for threads in [1, 2, 3, 8] {
            let u = Universe::build_with_parallelism(inst.clone(), threads);
            builds.push((format!("{threads} threads"), u));
        }
        for (what, u) in &builds {
            assert_eq!(u.sigs(), reference.sigs(), "{what}: signatures");
            assert_eq!(u.counts(), reference.counts(), "{what}: counts");
            for c in 0..reference.num_classes() {
                assert_eq!(
                    u.representative(c),
                    reference.representative(c),
                    "{what}: representative of class {c}"
                );
            }
            assert_eq!(u.fingerprint(), reference.fingerprint(), "{what}");
        }
        reference
    }

    fn instance(r: (&[&str], &[&[i64]]), p: (&[&str], &[&[i64]])) -> Instance {
        let mut b = InstanceBuilder::new();
        b.relation_r("R", r.0);
        b.relation_p("P", p.0);
        for row in r.1 {
            b.row_r_ints(row);
        }
        for row in p.1 {
            b.row_p_ints(row);
        }
        b.build().unwrap()
    }

    #[test]
    fn dedup_build_matches_rowpair_reference() {
        // Duplicate-heavy instance: the deduplicated build must produce the
        // reference's classes in the reference's order.
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A1", "A2"]);
        b.relation_p("P", &["B1"]);
        for i in 0..24i64 {
            b.row_r_ints(&[i % 3, (i % 2) + 100]); // second column unmatchable
        }
        for j in 0..18i64 {
            b.row_p_ints(&[j % 4]);
        }
        let inst = b.build().unwrap();
        let reference = assert_matches_reference(&inst);
        assert_eq!(reference.total_tuples(), 24 * 18);
        // Representatives land in their own class.
        for c in 0..reference.num_classes() {
            let (ri, pi) = reference.representative(c);
            assert_eq!(&inst.signature(ri, pi), reference.sig(c));
        }
        assert!(Universe::build(inst).distinct_r_profiles() < 24);
    }

    #[test]
    fn empty_class_born_between_touched_p_profiles() {
        // P profiles in order: [1], [hole], [2]. The first R row touches
        // the first and the last, so ∅ is first seen in the middle.
        let inst = instance(
            (&["A1", "A2"], &[&[1, 2], &[5, 1], &[6, 7]]),
            (&["B"], &[&[1], &[3], &[2], &[3]]),
        );
        let u = assert_matches_reference(&inst);
        let empty = u.sigs().iter().position(BitSet::is_empty).unwrap();
        assert_eq!(empty, 1, "∅ is the second class, after A1=B");
        assert_eq!(u.representative(empty), (0, 1));
        // Row 0 pairs with the two P rows holding 3, row 1 with all but
        // the 1, row 2 with all four.
        assert_eq!(u.count(empty), 2 + 3 + 4);
    }

    #[test]
    fn row_touching_every_p_profile_has_no_empty_pair() {
        let inst = instance(
            (&["A1", "A2"], &[&[1, 2], &[8, 9]]),
            (&["B"], &[&[1], &[2], &[1]]),
        );
        let u = assert_matches_reference(&inst);
        let empty = u.sigs().iter().position(BitSet::is_empty).unwrap();
        assert_eq!(u.representative(empty), (1, 0), "born in the second row");
        assert_eq!(u.count(empty), 3);
        assert_eq!(u.num_classes(), 3);
    }

    #[test]
    fn one_symbol_in_two_r_and_two_p_columns() {
        let inst = instance(
            (&["A1", "A2"], &[&[4, 4], &[4, 5], &[9, 4]]),
            (
                &["B1", "B2"],
                &[&[4, 4], &[4, 9], &[9, 4], &[9, 9], &[5, 4]],
            ),
        );
        let u = assert_matches_reference(&inst);
        // (4,4) × (4,4) agrees on all four attribute pairs.
        let c = u.class_of(0, 0).unwrap();
        assert_eq!(u.sig(c).len(), 4);
        assert_eq!(u.total_tuples(), 15);
    }

    #[test]
    fn p_side_sharing_no_symbol_is_one_empty_class() {
        let inst = instance(
            (&["A"], &[&[1], &[2], &[1]]),
            (&["B1", "B2"], &[&[3, 4], &[5, 6]]),
        );
        let u = assert_matches_reference(&inst);
        assert_eq!(u.num_classes(), 1);
        assert!(u.sig(0).is_empty());
        assert_eq!((u.count(0), u.representative(0)), (6, (0, 0)));
    }

    #[test]
    fn class_of_probes_buckets() {
        let u = Universe::build(example_2_1());
        for (ri, pi) in u.instance().product().collect::<Vec<_>>() {
            let c = u.class_of(ri, pi).expect("class exists");
            assert_eq!(u.sig(c), &u.instance().signature(ri, pi));
        }
        // A signature that does not occur maps to no class: build a probe
        // instance whose only signature is Ω-sized, then ask for ∅.
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A"]);
        b.relation_p("P", &["B"]);
        b.row_r(&[Value::int(1)]);
        b.row_p(&[Value::int(1)]);
        b.row_p(&[Value::int(2)]);
        let u = Universe::build(b.build().unwrap());
        assert_eq!(u.num_classes(), 2);
        assert!(u.class_of(0, 0).is_some());
    }

    #[test]
    fn closure_masks_match_pairwise_containment() {
        let u = Universe::build(example_2_1());
        let closure = u.closure();
        assert!(closure.has_static_masks());
        assert_eq!(closure.classes(), u.num_classes());
        let contains = |mask: &[u64], t: ClassId| mask[t / 64] >> (t % 64) & 1 == 1;
        for c in 0..u.num_classes() {
            let up = closure.up(c).expect("static masks present");
            let down = closure.down(c).expect("static masks present");
            for t in 0..u.num_classes() {
                assert_eq!(
                    contains(up, t),
                    u.sig(c).is_subset(u.sig(t)),
                    "up({c}) wrong at {t}"
                );
                assert_eq!(
                    contains(down, t),
                    u.sig(t).is_subset(u.sig(c)),
                    "down({c}) wrong at {t}"
                );
            }
            // Reflexivity: every class is in its own up and down sets.
            assert!(contains(up, c) && contains(down, c));
        }
        // members(b) lists exactly the classes whose signature has bit b.
        for b in 0..u.omega_len() {
            let m = closure.members(b);
            for t in 0..u.num_classes() {
                assert_eq!(contains(m, t), u.sig(t).contains(b), "members({b}) at {t}");
            }
        }
        assert!(closure.resident_bytes() > 0);
    }

    #[test]
    fn closure_parallel_build_matches_sequential() {
        // Force > 64 classes so masks are multi-word, and check every
        // worker count produces identical closure arenas.
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A1", "A2", "A3"]);
        b.relation_p("P", &["B1", "B2", "B3"]);
        for i in 0..40i64 {
            b.row_r_ints(&[i % 5, (i * 3) % 4, (i * 7) % 6]);
        }
        for j in 0..30i64 {
            b.row_p_ints(&[(j * 2) % 5, j % 4, (j * 5) % 6]);
        }
        let inst = b.build().unwrap();
        let seq = Universe::build_with_parallelism(inst.clone(), 1);
        assert!(seq.num_classes() > 64, "want multi-word class masks");
        for threads in [2usize, 5] {
            let par = Universe::build_with_parallelism(inst.clone(), threads);
            assert_eq!(seq.closure.members, par.closure.members);
            assert_eq!(seq.closure.up, par.closure.up);
            assert_eq!(seq.closure.down, par.closure.down);
        }
        // Spot-check multi-word masks against pairwise containment.
        let closure = seq.closure();
        assert_eq!(closure.mask_words(), 2);
        let contains = |mask: &[u64], t: ClassId| mask[t / 64] >> (t % 64) & 1 == 1;
        for c in (0..seq.num_classes()).step_by(7) {
            let down = closure.down(c).unwrap();
            for t in 0..seq.num_classes() {
                assert_eq!(contains(down, t), seq.sig(t).is_subset(seq.sig(c)));
            }
        }
    }

    #[test]
    fn decision_cache_memoizes_and_counts() {
        let u = Universe::build(example_2_1());
        let mut computed = 0usize;
        let neg = [0b1010u64];
        for _ in 0..3 {
            let v = u.cached_decision(7, &[], &neg, || {
                computed += 1;
                Some(4)
            });
            assert_eq!(v, Some(4));
        }
        assert_eq!(computed, 1, "only the first probe computes");
        let stats = u.decision_cache_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0 && stats.bytes <= stats.budget_bytes);
        // A different strategy key or a different mask is a separate entry.
        assert_eq!(u.cached_decision(8, &[], &neg, || Some(1)), Some(1));
        assert_eq!(u.cached_decision(7, &[3], &neg, || Some(2)), Some(2));
        assert_eq!(u.cached_decision(7, &[], &[0b1011], || Some(3)), Some(3));
        assert_eq!(u.decision_cache_stats().entries, 4);
        // The original entry is untouched.
        assert_eq!(u.cached_decision(7, &[], &neg, || unreachable!()), Some(4));
        // `None` moves (the strategy halted) are cached too.
        assert_eq!(u.cached_decision(9, &[], &neg, || None), None);
        assert_eq!(u.cached_decision(9, &[], &neg, || unreachable!()), None);
    }

    #[test]
    fn decision_cache_budget_zero_disables_caching() {
        let u = Universe::build(example_2_1()).with_decision_cache_budget(0);
        let mut computed = 0usize;
        for _ in 0..3 {
            u.cached_decision(7, &[], &[1], || {
                computed += 1;
                Some(0)
            });
        }
        assert_eq!(computed, 3, "budget 0 must compute every probe");
        let stats = u.decision_cache_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.budget_bytes, 0);
    }

    #[test]
    fn decision_cache_lru_eviction_respects_budget() {
        // Budget fits only a handful of entries; older ones must be
        // evicted oldest-inserted first, and bytes must never exceed the
        // budget after an insert settles.
        let budget = 4 * (CACHE_ENTRY_OVERHEAD + 16);
        let u = Universe::build(example_2_1()).with_decision_cache_budget(budget);
        for i in 0..16u64 {
            u.cached_decision(1, &[i], &[i], || Some(i as usize));
            assert!(
                u.decision_cache_stats().bytes <= budget,
                "cache bytes exceed the budget after insert {i}"
            );
        }
        let stats = u.decision_cache_stats();
        assert!(stats.evictions > 0, "budget pressure must evict");
        assert!(stats.entries <= 4);
        // The most recent entry survives; the oldest is gone (recompute).
        let mut recomputed = false;
        assert_eq!(
            u.cached_decision(1, &[15], &[15], || unreachable!()),
            Some(15)
        );
        u.cached_decision(1, &[0], &[0], || {
            recomputed = true;
            Some(0)
        });
        assert!(recomputed, "the oldest entry should have been evicted");
        // Cloned universes restart with an empty cache but keep the budget.
        let clone = u.clone();
        let cs = clone.decision_cache_stats();
        assert_eq!((cs.entries, cs.hits, cs.misses), (0, 0, 0));
        assert_eq!(cs.budget_bytes, budget);
    }

    #[test]
    fn decision_cache_evicts_in_insertion_order_not_by_use() {
        let entry = CACHE_ENTRY_OVERHEAD + 16;
        let budget = 4 * entry;
        let u = Universe::build(example_2_1()).with_decision_cache_budget(budget);
        for i in 0..4u64 {
            u.cached_decision(1, &[i], &[i], || Some(i as usize));
        }
        assert_eq!(u.decision_cache_stats().bytes, budget, "four entries fit");
        // Hit the oldest entry just before the budget fills: it is still
        // the first one out.
        assert_eq!(u.cached_decision(1, &[0], &[0], || unreachable!()), Some(0));
        u.cached_decision(1, &[4], &[4], || Some(4));
        let stats = u.decision_cache_stats();
        assert_eq!((stats.evictions, stats.entries), (1, 4));
        assert!(stats.bytes <= budget);
        for i in 1..5u64 {
            assert_eq!(
                u.cached_decision(1, &[i], &[i], || unreachable!()),
                Some(i as usize)
            );
        }
        let mut recomputed = false;
        u.cached_decision(1, &[0], &[0], || {
            recomputed = true;
            Some(0)
        });
        assert!(
            recomputed,
            "the first-inserted entry goes first, hit or not"
        );

        // One entry larger than the whole budget evicts everything,
        // itself included, so bytes still stay inside the budget.
        let wide = vec![u64::MAX; 2 * budget / 8];
        assert!(CACHE_ENTRY_OVERHEAD + 8 * (wide.len() + 1) > budget);
        u.cached_decision(2, &wide, &[0], || Some(9));
        let stats = u.decision_cache_stats();
        assert!(stats.bytes <= budget, "{} > {budget}", stats.bytes);
        assert_eq!((stats.entries, stats.bytes), (0, 0));
        let mut recomputed = false;
        u.cached_decision(2, &wide, &[0], || {
            recomputed = true;
            Some(9)
        });
        assert!(recomputed, "an entry over the budget is not kept");
    }

    #[test]
    fn empty_relation_yields_no_classes() {
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A"]);
        b.relation_p("P", &["B"]);
        let u = Universe::build(b.build().unwrap());
        assert_eq!(u.num_classes(), 0);
        assert_eq!(u.total_tuples(), 0);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminates() {
        // Building the same instance twice yields the same fingerprint;
        // an unrelated instance yields a different one. Clones (fresh
        // decision cache, same classes) agree.
        let a = Universe::build(example_2_1());
        let b = Universe::build(example_2_1());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        let other = Universe::build(crate::paper::flight_hotel());
        assert_ne!(a.fingerprint(), other.fingerprint());
    }
}
