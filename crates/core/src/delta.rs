//! Incremental universe maintenance: O(delta) live-data updates.
//!
//! [`Universe::build`] canonicalizes a *frozen* `R × P` product. Production
//! data churns, and a full rebuild on every churn abandons the
//! deduplicated work the weighted-profile representation already paid for.
//! This module closes that gap with Z-set-style incremental view
//! maintenance (DBSP / differential-dataflow shaped): a row insert or
//! delete is a ±1 weight delta on one join profile, and its effect on the
//! class partition touches `O(opposite-side distinct profiles)` signatures
//! — not the full product.
//!
//! # The pieces
//!
//! * [`UniverseDelta`] — an edit script of row inserts/deletes on either
//!   side, validated against the schema arities and the shared interner.
//! * `LiveTables` (private) — the maintained state: per side, the weighted
//!   *distinct full rows* (a Z-set: multiplicities, never duplicates) and
//!   the *distinct join profiles* grouping them, plus per-symbol
//!   occurrence units used to detect symbols becoming shared. Every
//!   column, and the bucket heads of the row and profile hash indexes,
//!   is stored in copy-on-write chunks (`crate::chunked`).
//! * [`Universe::apply_delta`] — clones the universe once and edits the
//!   clone: adjusting profile weights, retiring/creating profiles,
//!   patching class counts/representatives/buckets, and rebuilding the
//!   `ClassClosure` from the signatures when a class is born or dies. The
//!   clone shares the live tables' chunks and the instance's relations
//!   with the receiver, and the edits copy only the chunks (and the
//!   relation side) they write, so a single-row delta costs
//!   O(Δ + chunks touched), not O(live rows).
//!   The result's [`Universe::epoch`] is bumped and its decision cache
//!   starts empty.
//!
//! # Why profile-level deltas are sound: the superset grouping
//!
//! Signatures are computed from **full rows** (raw symbol equality), so
//! profile grouping is purely a dedup device. The build groups rows by
//! their *join profile* — the row with every symbol outside the shared set
//! holed out — which is valid because a single-sided symbol can never
//! witness an equality. Under edits the true shared set moves in both
//! directions, but this module maintains grouping under a **grow-only
//! superset** `ever_shared` of it:
//!
//! * A superset only *refines* the grouping (exposing more symbols can
//!   only split groups), and any refinement of the true-shared grouping
//!   keeps the invariant that matters: two rows in one group have equal
//!   signatures against every opposite row. Hence signatures computed on a
//!   group's representative stand for the whole group.
//! * When a symbol *becomes* shared (its first occurrence lands on the
//!   side that lacked it), the groups on the other side containing it are
//!   split **before** any pair involving the triggering row is scored.
//! * When a symbol *stops* being shared, nothing needs merging — the
//!   grouping just stays finer than necessary. The cost is a slightly
//!   higher distinct-profile count, never a wrong signature.
//!
//! It also makes representative repair trivial in the common case:
//! replacing a profile's representative row by any surviving row of the
//! same group provably preserves every signature computed against it, so
//! instance rows are overwritten in place and class representatives stay
//! valid without rescoring.
//!
//! # Batch scoring
//!
//! Edits are folded into the live tables one at a time, but their effect
//! on class counts is *settled* per batch: with `Δw` the per-profile
//! weight changes over a window,
//!
//! ```text
//! Δ(w_r · w_p) = Δw_r · w_p^old  +  w_r^new · Δw_p
//! ```
//!
//! summed per signature — one opposite-side profile sweep per *changed
//! profile*, not per edited row. Count deltas accumulate in signed space
//! (so transient negatives during a window are harmless) and are applied
//! once: class births append, classes whose count reaches zero are
//! compacted away (ids above them shift down — which is why sessions must
//! be migrated, see `SessionManager::apply_delta`).
//!
//! The one thing that forces an early settle is a symbol becoming shared
//! mid-batch: the split changes grouping attribution, so the window is
//! scored under the pre-split grouping first. Both orderings describe the
//! same product; the settle points just keep the bookkeeping exact.

use crate::chunked::{ChainIndex, Chunked, NONE_U32};
use crate::universe::{ClassClosure, Rows, Universe};
use jqi_relation::bitset::{hash_words, BitSet, WORD_BITS};
use jqi_relation::stream::{Side, PROFILE_HOLE};
use jqi_relation::{Instance, Tuple};
use std::collections::HashMap;
use std::fmt;

/// An edit operation on one relation side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditOp {
    /// Add one occurrence of the row (multiset insert).
    Insert,
    /// Remove one occurrence of the row; an error if none is present.
    Delete,
}

/// One row edit of a [`UniverseDelta`].
#[derive(Debug, Clone)]
pub struct RowEdit {
    /// Which relation the row belongs to.
    pub side: Side,
    /// Insert or delete.
    pub op: EditOp,
    /// The full row, interned through the universe's interner.
    pub row: Tuple,
}

/// An ordered edit script over a universe's instance: row inserts and
/// deletes on either side, in multiset semantics (each insert adds one
/// occurrence, each delete removes one).
///
/// Rows must be interned through the *same* interner as the universe's
/// instance (new symbols are fine — the interner is shared and
/// append-only). Validation happens in [`Universe::apply_delta`]: arity
/// and symbol range up front, row existence for deletes as the script is
/// folded (so an insert-then-delete of a fresh row is legal).
#[derive(Debug, Clone, Default)]
pub struct UniverseDelta {
    edits: Vec<RowEdit>,
}

impl UniverseDelta {
    /// An empty edit script. Applying it still bumps the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an insert of `row` on `side`.
    pub fn insert(&mut self, side: Side, row: Tuple) -> &mut Self {
        self.push(side, EditOp::Insert, row)
    }

    /// Appends a delete of `row` on `side`.
    pub fn delete(&mut self, side: Side, row: Tuple) -> &mut Self {
        self.push(side, EditOp::Delete, row)
    }

    /// Appends one edit of `row` on `side`.
    pub fn push(&mut self, side: Side, op: EditOp, row: Tuple) -> &mut Self {
        self.edits.push(RowEdit { side, op, row });
        self
    }

    /// Number of edits in the script.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// The edits, in application order.
    pub fn edits(&self) -> &[RowEdit] {
        &self.edits
    }
}

/// Errors raised by [`Universe::apply_delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The universe carries no live row tables and its instance holds only
    /// profile representatives, so the full row multiset is unknown. Build
    /// with `Universe::build` (materialized rows) or stream with
    /// [`IngestOptions::live`](crate::IngestOptions::live) set to get a
    /// delta-capable universe.
    NotLive,
    /// An edit row's arity does not match its side's schema.
    ArityMismatch {
        /// Side the row was addressed to.
        side: Side,
        /// Index of the offending edit within the script.
        index: usize,
        /// The schema's arity.
        expected: usize,
        /// The row's arity.
        got: usize,
    },
    /// An edit row contains a symbol id outside the shared interner.
    UnknownSymbol {
        /// Side the row was addressed to.
        side: Side,
        /// Index of the offending edit within the script.
        index: usize,
        /// The out-of-range symbol id.
        symbol: u32,
    },
    /// A delete addressed a row with no remaining occurrences.
    MissingRow {
        /// Side the row was addressed to.
        side: Side,
        /// Index of the offending edit within the script.
        index: usize,
        /// Display form of the missing row.
        row: String,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::NotLive => write!(
                f,
                "universe holds no live row tables (streaming build without \
                 `IngestOptions::live`); deltas need the full row multiset"
            ),
            DeltaError::ArityMismatch {
                side,
                index,
                expected,
                got,
            } => write!(
                f,
                "edit #{index}: {} row has {got} values but the schema has {expected}",
                side.name()
            ),
            DeltaError::UnknownSymbol {
                side,
                index,
                symbol,
            } => write!(
                f,
                "edit #{index}: {} row carries symbol {symbol} outside the universe's interner",
                side.name()
            ),
            DeltaError::MissingRow { side, index, row } => write!(
                f,
                "edit #{index}: delete of {} row {row} which has no remaining occurrences",
                side.name()
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A growable symbol set (plain bit words). The interner grows while a
/// stream is consumed and as deltas arrive, past any capacity a [`BitSet`]
/// fixes up front.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymbolSet {
    words: Vec<u64>,
}

impl SymbolSet {
    fn from_bitset(b: &BitSet) -> SymbolSet {
        SymbolSet {
            words: b.words().to_vec(),
        }
    }

    #[inline]
    fn contains(&self, s: u32) -> bool {
        let w = s as usize / WORD_BITS;
        w < self.words.len() && self.words[w] >> (s as usize % WORD_BITS) & 1 == 1
    }

    pub(crate) fn insert(&mut self, s: u32) {
        let w = s as usize / WORD_BITS;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (s as usize % WORD_BITS);
    }

    /// Intersection as a `BitSet` of capacity `cap`.
    pub(crate) fn intersect(&self, other: &SymbolSet, cap: usize) -> BitSet {
        let mut out = BitSet::empty(cap);
        for w in 0..self.words.len().min(other.words.len()) {
            let mut bits = self.words[w] & other.words[w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                let index = w * WORD_BITS + b;
                if index < cap {
                    out.insert(index);
                }
                bits &= bits - 1;
            }
        }
        out
    }
}

/// The profile key of the row `syms` under the holing mask `ever_shared`:
/// every symbol outside it becomes [`PROFILE_HOLE`].
fn holed_key(syms: &[u32], ever_shared: &SymbolSet) -> Vec<u32> {
    syms.iter()
        .map(|&s| {
            if ever_shared.contains(s) {
                s
            } else {
                PROFILE_HOLE
            }
        })
        .collect()
}

/// Content hash of a raw symbol row (FNV-style with a finishing shift; the
/// arity is fixed per side, so length need not be mixed in).
fn hash_syms(syms: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &s in syms {
        h ^= s as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 33;
    }
    h
}

/// One side's live state: the weighted distinct full rows and the distinct
/// join profiles grouping them.
///
/// Both tables are append-only arenas with tombstones (weight 0): row and
/// profile ids stay stable across edits, deleted content is retained so
/// signatures of retired profiles remain computable while a batch settles,
/// and a re-inserted row or re-materialized profile key revives its slot.
/// Every column is [`Chunked`], so a clone shares its chunks with the
/// original until one of them writes.
#[derive(Debug, Clone)]
pub(crate) struct SideTable {
    /// Distinct full rows, one record (the side's arity wide) each.
    rows: Chunked<u32>,
    /// Multiplicity of each distinct row (0 = tombstone).
    weight: Chunked<u64>,
    /// Row → owning profile id.
    prof_of: Chunked<u32>,
    /// Row content hash → row id.
    row_index: ChainIndex,
    /// Distinct profile keys (holed under `ever_shared`), one record each.
    prof_keys: Chunked<u32>,
    /// Total weight of each profile's rows (0 = retired).
    prof_weight: Chunked<u64>,
    /// Profile → current representative row id.
    prof_rep: Chunked<u32>,
    /// Profile → the instance row materializing its representative.
    prof_instance: Chunked<u32>,
    /// Profile key hash → profile id.
    prof_index: ChainIndex,
    /// Instance row → live row id currently materialized there.
    inst_rows: Chunked<u32>,
    /// Symbol id → Σ over live rows of `weight × occurrences` (interner
    /// ids are dense; symbols past the end count 0). Drives the
    /// newly-shared transition detection and `live_shared_symbols`.
    sym_units: Chunked<u64>,
}

impl SideTable {
    fn new(arity: usize) -> SideTable {
        SideTable {
            rows: Chunked::new(arity),
            weight: Chunked::new(1),
            prof_of: Chunked::new(1),
            row_index: ChainIndex::new(),
            prof_keys: Chunked::new(arity),
            prof_weight: Chunked::new(1),
            prof_rep: Chunked::new(1),
            prof_instance: Chunked::new(1),
            prof_index: ChainIndex::new(),
            inst_rows: Chunked::new(1),
            sym_units: Chunked::new(1),
        }
    }

    #[inline]
    fn row_count(&self) -> usize {
        self.weight.len()
    }

    #[inline]
    pub(crate) fn prof_count(&self) -> usize {
        self.prof_weight.len()
    }

    #[inline]
    pub(crate) fn row_syms(&self, row: u32) -> &[u32] {
        self.rows.record(row as usize)
    }

    #[inline]
    fn prof_key(&self, p: u32) -> &[u32] {
        self.prof_keys.record(p as usize)
    }

    #[inline]
    pub(crate) fn rep_syms(&self, p: u32) -> &[u32] {
        self.row_syms(self.prof_rep.get(p as usize))
    }

    #[inline]
    pub(crate) fn prof_weight(&self, p: u32) -> u64 {
        self.prof_weight.get(p as usize)
    }

    #[inline]
    fn prof_instance(&self, p: u32) -> u32 {
        self.prof_instance.get(p as usize)
    }

    #[inline]
    fn weight(&self, row: u32) -> u64 {
        self.weight.get(row as usize)
    }

    #[inline]
    fn prof_of(&self, row: u32) -> u32 {
        self.prof_of.get(row as usize)
    }

    /// Moves row `row`'s multiplicity by `delta`; returns the new one.
    #[inline]
    fn add_weight(&mut self, row: u32, delta: i64) -> u64 {
        let w = &mut self.weight.record_mut(row as usize)[0];
        *w = w.checked_add_signed(delta).expect("row weight underflow");
        *w
    }

    /// Moves profile `p`'s weight by `delta`.
    #[inline]
    fn add_prof_weight(&mut self, p: u32, delta: i64) {
        let w = &mut self.prof_weight.record_mut(p as usize)[0];
        *w = w
            .checked_add_signed(delta)
            .expect("profile weight underflow");
    }

    /// Live (weight > 0) profile count.
    pub(crate) fn alive_profiles(&self) -> usize {
        self.prof_weight.iter().filter(|&w| w > 0).count()
    }

    /// Total row multiplicity (|R| of the current data).
    pub(crate) fn total_weight(&self) -> u64 {
        self.weight.iter().sum()
    }

    #[inline]
    fn units(&self, s: u32) -> u64 {
        let s = s as usize;
        if s < self.sym_units.len() {
            self.sym_units.get(s)
        } else {
            0
        }
    }

    fn bump_units(&mut self, syms: &[u32], delta: i64) {
        for &s in syms {
            while self.sym_units.len() <= s as usize {
                self.sym_units.push(&[0]);
            }
            let u = &mut self.sym_units.record_mut(s as usize)[0];
            *u = u
                .checked_add_signed(delta)
                .expect("symbol unit counter underflow");
        }
    }

    fn find_row(&self, syms: &[u32]) -> Option<u32> {
        self.row_index
            .find(hash_syms(syms), |row| self.row_syms(row) == syms)
    }

    /// Appends a tombstoned row (weight 0, no profile) and links it into
    /// the hash index.
    fn add_row(&mut self, syms: &[u32]) -> u32 {
        let id = self.row_count() as u32;
        self.rows.push(syms);
        self.weight.push(&[0]);
        self.prof_of.push(&[NONE_U32]);
        let rows = &self.rows;
        self.row_index
            .link(hash_syms(syms), |row| hash_syms(rows.record(row as usize)));
        id
    }

    fn find_prof(&self, key: &[u32]) -> Option<u32> {
        self.prof_index
            .find(hash_syms(key), |p| self.prof_key(p) == key)
    }

    /// Appends a profile with weight 0 (the caller adds weight) whose
    /// representative is `rep_row`, materialized at `instance_row`.
    fn add_prof(&mut self, key: &[u32], rep_row: u32, instance_row: u32) -> u32 {
        let id = self.prof_count() as u32;
        self.prof_keys.push(key);
        self.prof_weight.push(&[0]);
        self.prof_rep.push(&[rep_row]);
        self.prof_instance.push(&[instance_row]);
        let keys = &self.prof_keys;
        self.prof_index
            .link(hash_syms(key), |p| hash_syms(keys.record(p as usize)));
        id
    }

    /// Records one occurrence of the row `syms`: finds or adds the distinct
    /// row and bumps its weight and symbol units. On the row's first live
    /// occurrence (fresh, or resurrected from a tombstone, whose stored
    /// profile may predate `ever_shared` growth) the row joins the profile
    /// of its key under `ever_shared` (see [`SideTable::join_profile`]).
    /// The profile's weight is the caller's to bump. Returns the row and
    /// whether its profile was revived.
    fn insert_row(
        &mut self,
        syms: &[u32],
        ever_shared: &SymbolSet,
        instance_row: impl FnOnce(&mut SideTable, u32) -> u32,
    ) -> (u32, bool) {
        let row = match self.find_row(syms) {
            Some(row) => row,
            None => self.add_row(syms),
        };
        self.bump_units(syms, 1);
        if self.add_weight(row, 1) > 1 {
            return (row, false);
        }
        let revived = self.join_profile(row, &holed_key(syms, ever_shared), instance_row);
        (row, revived)
    }

    /// Points `row` at the profile keyed `key`, adding the profile when the
    /// key is new; `instance_row(self, row)` names the instance row that
    /// backs an added profile. Returns whether the profile was found
    /// retired (weight 0): the caller repoints a revived profile's
    /// representative at `row`.
    fn join_profile(
        &mut self,
        row: u32,
        key: &[u32],
        instance_row: impl FnOnce(&mut SideTable, u32) -> u32,
    ) -> bool {
        let (prof, revived) = match self.find_prof(key) {
            Some(p) => (p, self.prof_weight(p) == 0),
            None => {
                let inst = instance_row(self, row);
                (self.add_prof(key, row, inst), false)
            }
        };
        self.prof_of.set(row as usize, prof);
        revived
    }

    /// Scans for a surviving row of profile `p` to become its
    /// representative. O(rows) — only runs when a representative dies.
    fn any_live_row_of(&self, p: u32) -> Option<u32> {
        self.weight
            .iter()
            .zip(self.prof_of.iter())
            .position(|(w, q)| w > 0 && q == p)
            .map(|row| row as u32)
    }

    /// Approximate resident heap bytes (arenas + indexes).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.rows.heap_bytes()
            + self.weight.heap_bytes()
            + self.prof_of.heap_bytes()
            + self.row_index.heap_bytes()
            + self.prof_keys.heap_bytes()
            + self.prof_weight.heap_bytes()
            + self.prof_rep.heap_bytes()
            + self.prof_instance.heap_bytes()
            + self.prof_index.heap_bytes()
            + self.inst_rows.heap_bytes()
            + self.sym_units.heap_bytes()
    }
}

/// The live row/profile state of a delta-capable universe — see the
/// [module docs](self) for the invariants.
#[derive(Debug, Clone)]
pub(crate) struct LiveTables {
    pub(crate) r: SideTable,
    pub(crate) p: SideTable,
    /// Grow-only superset of the truly-shared symbol set; the profile
    /// grouping's holing mask.
    ever_shared: SymbolSet,
}

impl LiveTables {
    /// Empty tables for a streaming build whose shared set is already
    /// known (pass 1 of the two-pass ingest).
    pub(crate) fn new(arity_r: usize, arity_p: usize, shared: &BitSet) -> LiveTables {
        LiveTables {
            r: SideTable::new(arity_r),
            p: SideTable::new(arity_p),
            ever_shared: SymbolSet::from_bitset(shared),
        }
    }

    /// `side`'s table, with the holing mask its profile keys are formed
    /// under.
    fn side_mut(&mut self, side: Side) -> (&mut SideTable, &SymbolSet) {
        let st = match side {
            Side::R => &mut self.r,
            Side::P => &mut self.p,
        };
        (st, &self.ever_shared)
    }

    /// Rebuilds live tables from a complete instance (the
    /// [`Universe::build`] path, where the instance holds the full row
    /// multiset and instance rows double as the live rows).
    pub(crate) fn from_instance(instance: &Instance) -> LiveTables {
        let shared = instance.shared_symbols();
        let mut lt = LiveTables::new(
            instance.pairs().arity_r(),
            instance.pairs().arity_p(),
            &shared,
        );
        let mut syms: Vec<u32> = Vec::new();
        for (side, rel) in [(Side::R, instance.r()), (Side::P, instance.p())] {
            let (st, ever_shared) = lt.side_mut(side);
            for (i, row) in (0u32..).zip(rel.rows()) {
                syms.clear();
                syms.extend(row.symbols().iter().map(|s| s.0));
                // Instance row `i` holds this occurrence, so it backs the
                // profile the occurrence opens.
                let (row, _) = st.insert_row(&syms, ever_shared, |_, _| i);
                st.inst_rows.push(&[row]);
                st.add_prof_weight(st.prof_of(row), 1);
            }
        }
        lt
    }

    /// Folds one streamed row in (+1 multiplicity). Profile `i` is backed
    /// by instance row `i`, which [`LiveTables::finalize_ingest`] wires up.
    ///
    /// Ingest assumes `ever_shared` already covers every symbol that is
    /// (or will become) shared — true for both construction paths — so no
    /// transition handling happens here.
    pub(crate) fn ingest(&mut self, side: Side, syms: &[u32]) {
        let (st, ever_shared) = self.side_mut(side);
        let (row, _) = st.insert_row(syms, ever_shared, |st, _| st.prof_count() as u32);
        st.add_prof_weight(st.prof_of(row), 1);
    }

    /// Completes a streaming ingest: instance row `i` of each side is
    /// profile `i`'s representative.
    pub(crate) fn finalize_ingest(&mut self) {
        self.r.inst_rows = self.r.prof_rep.clone();
        self.p.inst_rows = self.p.prof_rep.clone();
    }

    /// The currently-shared symbols (both sides hold live occurrences), as
    /// a bitset of capacity `cap`. This is the *exact* shared set — not
    /// the grow-only grouping superset.
    pub(crate) fn shared_symbols(&self, cap: usize) -> BitSet {
        let mut out = BitSet::empty(cap);
        for (s, u) in self.r.sym_units.iter().enumerate() {
            if u > 0 && self.p.units(s as u32) > 0 {
                out.insert(s);
            }
        }
        out
    }

    /// Approximate resident heap bytes of both sides.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.r.resident_bytes() + self.p.resident_bytes() + self.ever_shared.words.len() * 8
    }
}

/// One pending class birth discovered while settling a batch.
struct Birth {
    sig: BitSet,
    delta: i64,
    rep: (u32, u32),
}

/// The signed per-class count accumulator of one `apply_delta` call.
struct PairAcc {
    /// Per side (R, P), changed profiles of the current settle window →
    /// weight at window start.
    changed: [HashMap<u32, u64>; 2],
    /// Signed count deltas for pre-existing classes.
    cdelta: Vec<i64>,
    /// Signatures not present in the universe, with accumulated deltas.
    births: Vec<Birth>,
    birth_buckets: HashMap<u64, Vec<u32>>,
    scratch: BitSet,
}

impl PairAcc {
    fn new(classes: usize, nbits: usize) -> PairAcc {
        PairAcc {
            changed: Default::default(),
            cdelta: vec![0; classes],
            births: Vec::new(),
            birth_buckets: HashMap::new(),
            scratch: BitSet::empty(nbits),
        }
    }

    fn touch(&mut self, side: Side, p: u32, weight_before: u64) {
        self.changed[side as usize]
            .entry(p)
            .or_insert(weight_before);
    }

    /// Adds `v` product tuples to the class carrying the signature in
    /// `self.scratch` (probing the universe's buckets, then the pending
    /// births, then recording a new birth).
    fn bump(&mut self, u: &Universe, v: i64, rep: (u32, u32)) {
        let words = self.scratch.words();
        let h = hash_words(words);
        if let Some(bucket) = u.buckets.get(&h) {
            for &c in bucket {
                if u.sigs[c as usize].words() == words {
                    self.cdelta[c as usize] += v;
                    return;
                }
            }
        }
        let bucket = self.birth_buckets.entry(h).or_default();
        for &bi in bucket.iter() {
            if self.births[bi as usize].sig.words() == words {
                self.births[bi as usize].delta += v;
                return;
            }
        }
        bucket.push(self.births.len() as u32);
        self.births.push(Birth {
            sig: self.scratch.clone(),
            delta: v,
            rep,
        });
    }

    /// Scores the current window, then resets it: every changed profile
    /// sweeps the opposite side once (`Δw_r · w_p^old + w_r^new · Δw_p`
    /// per pair, accumulated per signature). Changed R profiles sweep the
    /// P weights of the window start, then changed P profiles sweep the
    /// new R weights. Changed profiles go in id order so class-birth
    /// order — and hence the resulting fingerprint — is deterministic.
    fn settle(&mut self, u: &Universe, lt: &LiveTables) {
        let pairs = u.instance.pairs();
        let [changed_r, changed_p] = std::mem::take(&mut self.changed);
        // The P sweep reads current R weights: no map probe per pair.
        let sweeps = [
            (Side::R, &changed_r, Some(&changed_p)),
            (Side::P, &changed_p, None),
        ];
        for (side, changed, opp_old) in sweeps {
            let (st, opp) = match side {
                Side::R => (&lt.r, &lt.p),
                Side::P => (&lt.p, &lt.r),
            };
            let mut changed: Vec<(u32, u64)> = changed.iter().map(|(&x, &w)| (x, w)).collect();
            changed.sort_unstable();
            for (x, old) in changed {
                let dx = st.prof_weight(x) as i64 - old as i64;
                if dx == 0 {
                    continue;
                }
                let x_rep = (st.rep_syms(x), st.prof_instance(x));
                for y in 0..opp.prof_count() as u32 {
                    let wy = opp_old
                        .and_then(|old| old.get(&y).copied())
                        .unwrap_or_else(|| opp.prof_weight(y));
                    if wy == 0 {
                        continue;
                    }
                    let y_rep = (opp.rep_syms(y), opp.prof_instance(y));
                    let (r, p) = match side {
                        Side::R => (x_rep, y_rep),
                        Side::P => (y_rep, x_rep),
                    };
                    pairs.signature_of_into(r.0, p.0, &mut self.scratch);
                    self.bump(u, dx * wy as i64, (r.1, p.1));
                }
            }
        }
    }
}

impl Universe {
    /// Whether this universe can apply deltas: it either carries live row
    /// tables already or its instance holds the complete row multiset from
    /// which they can be materialized on first use.
    pub fn is_live(&self) -> bool {
        !matches!(self.rows, Rows::Representatives)
    }

    /// Total row multiplicities `(|R|, |P|)` tracked by the live tables,
    /// when present — the true data sizes behind a representative-only
    /// instance.
    pub fn live_row_counts(&self) -> Option<(u64, u64)> {
        match &self.rows {
            Rows::Live(lt) => Some((lt.r.total_weight(), lt.p.total_weight())),
            Rows::Complete | Rows::Representatives => None,
        }
    }

    /// The exact currently-shared symbol set maintained by the live
    /// tables, when present — what `instance().shared_symbols()` would
    /// return on the full edited data (the post-delta instance itself
    /// holds only representatives). Exposed for the equivalence property
    /// tests.
    pub fn live_shared_symbols(&self) -> Option<BitSet> {
        match &self.rows {
            Rows::Live(lt) => Some(lt.shared_symbols(self.instance.interner().len())),
            Rows::Complete | Rows::Representatives => None,
        }
    }

    /// Produces the universe of the edited instance by incremental
    /// maintenance — `O(|delta| · opposite-side distinct profiles)`
    /// signature work instead of re-walking the product.
    ///
    /// The receiver is untouched (open sessions keep serving it): the
    /// result starts as a clone sharing the receiver's copy-on-write
    /// storage, and every write copies what it changes first. The result
    /// is a universe with:
    ///
    /// * class counts adjusted, classes born for never-seen signatures and
    ///   compacted away when their count reaches zero (class ids are only
    ///   stable when no class dies — migration maps ids by signature);
    /// * representatives repaired to surviving rows;
    /// * the [`crate::universe::ClassClosure`] rebuilt from the signatures
    ///   when a class is born or dies, and kept as it is otherwise;
    /// * [`Universe::epoch`] bumped by one (so [`Universe::fingerprint`]
    ///   changes even if the class structure does not) and an **empty**
    ///   decision cache with the same budget.
    ///
    /// Errors: [`DeltaError::NotLive`] for universes without row
    /// knowledge, [`DeltaError::ArityMismatch`] /
    /// [`DeltaError::UnknownSymbol`] for malformed rows (checked up
    /// front — the universe is never partially edited), and
    /// [`DeltaError::MissingRow`] when a delete addresses an absent row.
    ///
    /// Worst cases, documented: a delete that retires a *profile* whose
    /// instance row backs a surviving class representative triggers a
    /// signature search over live profile pairs (early-exit; full
    /// `O(profiles²)` only when the class is nearly gone), and a symbol
    /// newly occurring on both sides splits the opposite side's groups
    /// (`O(rows)` scan, no count changes).
    pub fn apply_delta(&self, delta: &UniverseDelta) -> Result<Universe, DeltaError> {
        // Validate the whole script before touching anything.
        let interner_len = self.instance.interner().len() as u32;
        for (index, e) in delta.edits().iter().enumerate() {
            let expected = match e.side {
                Side::R => self.instance.pairs().arity_r(),
                Side::P => self.instance.pairs().arity_p(),
            };
            if e.row.arity() != expected {
                return Err(DeltaError::ArityMismatch {
                    side: e.side,
                    index,
                    expected,
                    got: e.row.arity(),
                });
            }
            if let Some(sym) = e
                .row
                .symbols()
                .iter()
                .map(|s| s.0)
                .find(|&s| s >= interner_len)
            {
                return Err(DeltaError::UnknownSymbol {
                    side: e.side,
                    index,
                    symbol: sym,
                });
            }
        }

        if !self.is_live() {
            return Err(DeltaError::NotLive);
        }
        // The one copy: the live tables and the instance relations share
        // their storage with `self` and copy only what the edits write.
        // The decision cache clones to empty with the same budget.
        let mut u = self.clone();
        u.epoch = self.epoch + 1;
        // `finalize` attaches the edited tables.
        let mut lt = match std::mem::replace(&mut u.rows, Rows::Representatives) {
            Rows::Live(lt) => *lt,
            Rows::Complete => LiveTables::from_instance(&self.instance),
            Rows::Representatives => unreachable!("checked live above"),
        };

        let nbits = u.instance.pairs().len();
        let mut acc = PairAcc::new(u.sigs.len(), nbits);
        let mut syms: Vec<u32> = Vec::new();

        for (index, e) in delta.edits().iter().enumerate() {
            syms.clear();
            syms.extend(e.row.symbols().iter().map(|s| s.0));
            match e.op {
                EditOp::Insert => {
                    // Newly-shared transitions: settle the window under the
                    // old grouping, then split before the row is scored.
                    for &s in &syms {
                        if lt.ever_shared.contains(s) {
                            continue;
                        }
                        let opp = match e.side {
                            Side::R => &lt.p,
                            Side::P => &lt.r,
                        };
                        if opp.units(s) == 0 {
                            continue;
                        }
                        acc.settle(&u, &lt);
                        lt.ever_shared.insert(s);
                        split_on_shared(&mut lt, e.side.opposite(), s, &mut u.instance);
                    }
                    apply_insert(&mut lt, e.side, &syms, &mut u.instance, &mut acc);
                }
                EditOp::Delete => {
                    apply_delete(&mut lt, e.side, &syms, &mut u.instance, &mut acc).map_err(
                        |()| DeltaError::MissingRow {
                            side: e.side,
                            index,
                            row: e.row.display(self.instance.interner()).to_string(),
                        },
                    )?;
                }
            }
        }
        acc.settle(&u, &lt);
        finalize(&mut u, lt, acc);
        Ok(u)
    }
}

/// Splits `side`'s profile groups after `s` entered `ever_shared`: every
/// live row containing `s` re-keys (exposing `s`) and moves to its new
/// group. No class count changes — the moved rows' signatures against all
/// *existing* opposite rows are unchanged (no opposite row contains `s`
/// yet, or `s` would already have been shared).
fn split_on_shared(lt: &mut LiveTables, side: Side, s: u32, instance: &mut Instance) {
    let (st, ever_shared) = lt.side_mut(side);
    let mut touched: Vec<u32> = Vec::new();
    for row in 0..st.row_count() as u32 {
        if st.weight(row) == 0 || !st.row_syms(row).contains(&s) {
            continue;
        }
        let old_p = st.prof_of(row);
        let key = holed_key(st.row_syms(row), ever_shared);
        if st.prof_key(old_p) == key.as_slice() {
            continue;
        }
        let w = st.weight(row) as i64;
        st.add_prof_weight(old_p, -w);
        touched.push(old_p);
        let revived = st.join_profile(row, &key, |st, row| push_rep(st, side, row, instance));
        let new_p = st.prof_of(row);
        if revived {
            set_rep(st, side, new_p, row, instance);
        }
        st.add_prof_weight(new_p, w);
    }
    // Groups whose representative moved away need a surviving one.
    touched.sort_unstable();
    touched.dedup();
    for old_p in touched {
        if st.prof_weight(old_p) == 0 {
            continue; // retired; repair happens class-side at finalize
        }
        let rep = st.prof_rep.get(old_p as usize);
        if st.prof_of(rep) != old_p || st.weight(rep) == 0 {
            let new_rep = st
                .any_live_row_of(old_p)
                .expect("profile with weight has a live row");
            set_rep(st, side, old_p, new_rep, instance);
        }
    }
}

/// Repoints profile `p`'s representative at `row`, overwriting its
/// instance row in place (signature-preserving: `row` belongs to the same
/// group, see the module docs).
fn set_rep(st: &mut SideTable, side: Side, p: u32, row: u32, instance: &mut Instance) {
    st.prof_rep.set(p as usize, row);
    let inst = st.prof_instance(p) as usize;
    instance
        .overwrite_symbol_row(side, inst, st.row_syms(row))
        .expect("representative rows match their schema arity");
    st.inst_rows.set(inst, row);
}

/// Backs a new profile of `side` with a fresh instance row holding `row`;
/// returns that instance row.
fn push_rep(st: &mut SideTable, side: Side, row: u32, instance: &mut Instance) -> u32 {
    let inst = instance
        .push_symbol_row(side, st.row_syms(row))
        .expect("representative rows match their schema arity");
    st.inst_rows.push(&[row]);
    inst as u32
}

/// Structural insert: +1 multiplicity, profile assignment/revival, window
/// bookkeeping.
fn apply_insert(
    lt: &mut LiveTables,
    side: Side,
    syms: &[u32],
    instance: &mut Instance,
    acc: &mut PairAcc,
) {
    let (st, ever_shared) = lt.side_mut(side);
    let (row, revived) = st.insert_row(syms, ever_shared, |st, row| {
        push_rep(st, side, row, instance)
    });
    let prof = st.prof_of(row);
    if revived {
        set_rep(st, side, prof, row, instance);
    }
    acc.touch(side, prof, st.prof_weight(prof));
    st.add_prof_weight(prof, 1);
}

/// Structural delete: −1 multiplicity, representative replacement when the
/// representative row dies but its group survives. `Err(())` when the row
/// has no occurrences.
fn apply_delete(
    lt: &mut LiveTables,
    side: Side,
    syms: &[u32],
    instance: &mut Instance,
    acc: &mut PairAcc,
) -> Result<(), ()> {
    let (st, _) = lt.side_mut(side);
    let row = st
        .find_row(syms)
        .filter(|&row| st.weight(row) > 0)
        .ok_or(())?;
    let weight = st.add_weight(row, -1);
    st.bump_units(syms, -1);
    let prof = st.prof_of(row);
    acc.touch(side, prof, st.prof_weight(prof));
    st.add_prof_weight(prof, -1);
    if weight == 0 && st.prof_rep.get(prof as usize) == row && st.prof_weight(prof) > 0 {
        let new_rep = st
            .any_live_row_of(prof)
            .expect("profile with weight has a live row");
        set_rep(st, side, prof, new_rep, instance);
    }
    Ok(())
}

/// Applies the settled count deltas: births append, zero-count classes
/// compact away, the closure is rebuilt when a class was born or died,
/// representatives are repaired, and the live tables are attached to the
/// result.
fn finalize(u: &mut Universe, lt: LiveTables, acc: PairAcc) {
    let nbits = u.instance.pairs().len();
    let classes_before = u.sigs.len();

    let mut deaths = false;
    for (c, &d) in acc.cdelta.iter().enumerate() {
        let next = (u.counts[c] as i64)
            .checked_add(d)
            .expect("class count overflow");
        assert!(next >= 0, "delta maintenance drove class {c} negative");
        u.counts[c] = next as u64;
        deaths |= next == 0;
    }
    for birth in acc.births {
        if birth.delta == 0 {
            continue;
        }
        assert!(
            birth.delta > 0,
            "delta maintenance removed tuples from a class that never existed"
        );
        let cid = u.sigs.len() as u32;
        u.buckets
            .entry(hash_words(birth.sig.words()))
            .or_default()
            .push(cid);
        u.sig_sizes.push(birth.sig.len() as u32);
        u.sigs.push(birth.sig);
        u.counts.push(birth.delta as u64);
        u.reps.push(birth.rep);
    }

    if deaths {
        // Compact: surviving classes keep their relative order (stable
        // remap), and buckets are rebuilt over the survivors.
        let mut w = 0usize;
        for c in 0..u.sigs.len() {
            if u.counts[c] > 0 {
                u.sigs.swap(w, c);
                u.counts.swap(w, c);
                u.sig_sizes.swap(w, c);
                u.reps.swap(w, c);
                w += 1;
            }
        }
        u.sigs.truncate(w);
        u.counts.truncate(w);
        u.sig_sizes.truncate(w);
        u.reps.truncate(w);
        u.buckets.clear();
        for (c, sig) in u.sigs.iter().enumerate() {
            u.buckets
                .entry(hash_words(sig.words()))
                .or_default()
                .push(c as u32);
        }
    }
    // The closure is a function of the signatures alone.
    if deaths || u.sigs.len() != classes_before {
        u.closure = ClassClosure::build(&u.sigs, nbits, 1);
    }

    // Representative repair: every class must point at instance rows whose
    // content is live. Cheap path: the dead row's *profile* survives, so
    // its (already-live) representative instance row substitutes —
    // signature-preserving. Slow path (profile retired): signature search
    // over live profile pairs with early exit.
    let mut need: Vec<usize> = Vec::new();
    for c in 0..u.sigs.len() {
        let (ri, pi) = u.reps[c];
        let rrow = lt.r.inst_rows.get(ri as usize);
        let prow = lt.p.inst_rows.get(pi as usize);
        if lt.r.weight(rrow) > 0 && lt.p.weight(prow) > 0 {
            continue;
        }
        let pr = lt.r.prof_of(rrow);
        let pp = lt.p.prof_of(prow);
        if lt.r.prof_weight(pr) > 0 && lt.p.prof_weight(pp) > 0 {
            u.reps[c] = (lt.r.prof_instance(pr), lt.p.prof_instance(pp));
        } else {
            need.push(c);
        }
    }
    if !need.is_empty() {
        let pairs = u.instance.pairs();
        let mut scratch = BitSet::empty(nbits);
        'scan: for pr in 0..lt.r.prof_count() as u32 {
            if lt.r.prof_weight(pr) == 0 {
                continue;
            }
            let r_syms = lt.r.rep_syms(pr);
            for pp in 0..lt.p.prof_count() as u32 {
                if lt.p.prof_weight(pp) == 0 {
                    continue;
                }
                pairs.signature_of_into(r_syms, lt.p.rep_syms(pp), &mut scratch);
                if let Some(c) = u.class_for_signature(&scratch) {
                    if let Some(k) = need.iter().position(|&n| n == c) {
                        u.reps[c] = (lt.r.prof_instance(pr), lt.p.prof_instance(pp));
                        need.swap_remove(k);
                        if need.is_empty() {
                            break 'scan;
                        }
                    }
                }
            }
        }
        assert!(
            need.is_empty(),
            "delta maintenance left classes without live representatives"
        );
    }

    u.distinct_r = lt.r.alive_profiles();
    u.distinct_p = lt.p.alive_profiles();
    u.rows = Rows::Live(Box::new(lt));
}

#[cfg(test)]
mod tests {
    use super::*;
    use jqi_relation::{Interner, Relation, Schema, Value};
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    /// A mutable row-list model of an instance, for rebuilding edited data
    /// from scratch next to the incremental path.
    struct Model {
        interner: Arc<Interner>,
        r: Vec<Tuple>,
        p: Vec<Tuple>,
    }

    impl Model {
        fn new(r_rows: &[&[i64]], p_rows: &[&[i64]]) -> Model {
            let interner = Arc::new(Interner::new());
            let tup = |vals: &[i64], it: &Interner| {
                let values: Vec<Value> = vals.iter().map(|&v| Value::int(v)).collect();
                Tuple::intern(it, &values)
            };
            Model {
                r: r_rows.iter().map(|v| tup(v, &interner)).collect(),
                p: p_rows.iter().map(|v| tup(v, &interner)).collect(),
                interner,
            }
        }

        fn tuple(&self, vals: &[i64]) -> Tuple {
            let values: Vec<Value> = vals.iter().map(|&v| Value::int(v)).collect();
            Tuple::intern(&self.interner, &values)
        }

        fn arity(&self, side: Side) -> usize {
            match side {
                Side::R => self.r.first().map_or(2, Tuple::arity),
                Side::P => self.p.first().map_or(2, Tuple::arity),
            }
        }

        fn apply(&mut self, delta: &UniverseDelta) {
            for e in delta.edits() {
                let rows = match e.side {
                    Side::R => &mut self.r,
                    Side::P => &mut self.p,
                };
                match e.op {
                    EditOp::Insert => rows.push(e.row.clone()),
                    EditOp::Delete => {
                        let i = rows
                            .iter()
                            .position(|t| t.symbols() == e.row.symbols())
                            .expect("model delete of present row");
                        rows.remove(i);
                    }
                }
            }
        }

        fn build(&self) -> Universe {
            let names_r: Vec<String> = (0..self.arity(Side::R)).map(|i| format!("A{i}")).collect();
            let names_p: Vec<String> = (0..self.arity(Side::P)).map(|i| format!("B{i}")).collect();
            let refs_r: Vec<&str> = names_r.iter().map(String::as_str).collect();
            let refs_p: Vec<&str> = names_p.iter().map(String::as_str).collect();
            let mut rr = Relation::new(Schema::new("R", &refs_r).unwrap());
            let mut pp = Relation::new(Schema::new("P", &refs_p).unwrap());
            for t in &self.r {
                rr.push_tuple(t.clone()).unwrap();
            }
            for t in &self.p {
                pp.push_tuple(t.clone()).unwrap();
            }
            let inst = Instance::new(Arc::clone(&self.interner), rr, pp).unwrap();
            Universe::build(inst)
        }
    }

    fn mask_classes(mask: &[u64], classes: usize) -> Vec<usize> {
        (0..classes)
            .filter(|&t| mask[t / 64] >> (t % 64) & 1 == 1)
            .collect()
    }

    /// Class structure keyed by signature words: count, and the up/down
    /// closure sets expressed as signature sets (class-id independent).
    #[allow(clippy::type_complexity)]
    fn canon(u: &Universe) -> BTreeMap<Vec<u64>, (u64, BTreeSet<Vec<u64>>, BTreeSet<Vec<u64>>)> {
        let n = u.num_classes();
        let sig_words = |c: usize| u.sig(c as ClassId).words().to_vec();
        (0..n)
            .map(|c| {
                let up = u
                    .closure()
                    .up(c as ClassId)
                    .map(|m| mask_classes(m, n).into_iter().map(sig_words).collect())
                    .unwrap_or_default();
                let down = u
                    .closure()
                    .down(c as ClassId)
                    .map(|m| mask_classes(m, n).into_iter().map(sig_words).collect())
                    .unwrap_or_default();
                (sig_words(c), (u.count(c as ClassId), up, down))
            })
            .collect()
    }

    use crate::universe::ClassId;

    /// Asserts the delta-maintained universe is equivalent (up to class
    /// relabeling) to a from-scratch build of the edited data.
    fn assert_equiv(inc: &Universe, rebuilt: &Universe) {
        assert_eq!(inc.omega_len(), rebuilt.omega_len());
        assert_eq!(inc.total_tuples(), rebuilt.total_tuples());
        assert_eq!(inc.num_classes(), rebuilt.num_classes());
        assert_eq!(canon(inc), canon(rebuilt), "class structure diverged");
        // Every representative must live in the class it represents.
        for c in 0..inc.num_classes() {
            let (ri, pi) = inc.representative(c as ClassId);
            assert_eq!(
                inc.class_of(ri, pi),
                Some(c as ClassId),
                "stale representative for class {c}"
            );
        }
        // The live tables track the exact shared-symbol set.
        let shared = inc
            .live_shared_symbols()
            .expect("delta result carries live tables");
        let cap = rebuilt.instance().interner().len();
        let expect = rebuilt.instance().shared_symbols();
        for s in 0..cap {
            assert_eq!(
                shared.contains(s),
                expect.contains(s),
                "shared-symbol divergence at {s}"
            );
        }
    }

    /// Applies `delta` incrementally and via rebuild and checks equivalence;
    /// returns the incremental result for follow-on checks.
    fn check(model: &mut Model, base: &Universe, delta: &UniverseDelta) -> Universe {
        let inc = base.apply_delta(delta).expect("delta applies");
        model.apply(delta);
        let rebuilt = model.build();
        assert_equiv(&inc, &rebuilt);
        assert_eq!(inc.epoch(), base.epoch() + 1);
        assert_ne!(inc.fingerprint(), base.fingerprint());
        inc
    }

    #[test]
    fn single_insert_matches_rebuild() {
        let mut m = Model::new(&[&[0, 1], &[0, 2], &[2, 2]], &[&[1, 1], &[0, 2]]);
        let base = m.build();
        let mut d = UniverseDelta::new();
        d.insert(Side::R, m.tuple(&[1, 0]));
        check(&mut m, &base, &d);
    }

    #[test]
    fn duplicate_insert_only_bumps_counts() {
        let mut m = Model::new(&[&[0, 1], &[0, 2]], &[&[1, 1], &[0, 2]]);
        let base = m.build();
        let mut d = UniverseDelta::new();
        d.insert(Side::R, m.tuple(&[0, 1]));
        let inc = check(&mut m, &base, &d);
        assert_eq!(inc.num_classes(), base.num_classes());
    }

    #[test]
    fn delete_matches_rebuild_and_repairs_reps() {
        let mut m = Model::new(
            &[&[0, 1], &[0, 2], &[2, 2], &[1, 0]],
            &[&[1, 1], &[0, 2], &[2, 0]],
        );
        let base = m.build();
        let mut d = UniverseDelta::new();
        d.delete(Side::R, m.tuple(&[0, 1]));
        d.delete(Side::P, m.tuple(&[2, 0]));
        check(&mut m, &base, &d);
    }

    #[test]
    fn class_death_compacts() {
        // Row (5, 6) is the only witness of its signatures; deleting it
        // retires classes.
        let mut m = Model::new(&[&[0, 1], &[5, 6]], &[&[1, 1], &[0, 2]]);
        let base = m.build();
        let mut d = UniverseDelta::new();
        d.delete(Side::R, m.tuple(&[5, 6]));
        let inc = check(&mut m, &base, &d);
        assert!(inc.num_classes() < base.num_classes());
    }

    #[test]
    fn newly_shared_symbol_splits_profiles() {
        // Symbol 7 lives only in P at build time; profiles on P hole it
        // out. Inserting an R row containing 7 makes it shared and must
        // split P's profiles before scoring.
        let mut m = Model::new(&[&[0, 1], &[0, 2]], &[&[7, 1], &[7, 2], &[1, 2]]);
        let base = m.build();
        let mut d = UniverseDelta::new();
        d.insert(Side::R, m.tuple(&[7, 0]));
        check(&mut m, &base, &d);
    }

    #[test]
    fn unshared_symbol_keeps_fine_grouping_but_right_classes() {
        // Delete the only R occurrence of a shared symbol: grouping stays
        // finer than necessary but classes must match a rebuild.
        let mut m = Model::new(&[&[0, 1], &[2, 1]], &[&[0, 3], &[2, 4]]);
        let base = m.build();
        let mut d = UniverseDelta::new();
        d.delete(Side::R, m.tuple(&[0, 1]));
        check(&mut m, &base, &d);
    }

    #[test]
    fn insert_then_delete_of_fresh_row_roundtrips() {
        let mut m = Model::new(&[&[0, 1]], &[&[1, 2]]);
        let base = m.build();
        let mut d = UniverseDelta::new();
        d.insert(Side::R, m.tuple(&[3, 4]));
        d.delete(Side::R, m.tuple(&[3, 4]));
        let inc = check(&mut m, &base, &d);
        assert_eq!(inc.content_fingerprint(), base.content_fingerprint());
    }

    #[test]
    fn all_rows_of_one_side_deleted() {
        let mut m = Model::new(&[&[0, 1], &[2, 3]], &[&[1, 2]]);
        let base = m.build();
        let mut d = UniverseDelta::new();
        d.delete(Side::P, m.tuple(&[1, 2]));
        let inc = check(&mut m, &base, &d);
        assert_eq!(inc.total_tuples(), 0);
        assert_eq!(inc.num_classes(), 0);
        // And the side can repopulate afterwards.
        let mut d2 = UniverseDelta::new();
        d2.insert(Side::P, m.tuple(&[1, 2]));
        d2.insert(Side::P, m.tuple(&[0, 3]));
        check(&mut m, &inc, &d2);
    }

    #[test]
    fn chained_deltas_accumulate() {
        let mut m = Model::new(&[&[0, 1], &[0, 2]], &[&[1, 1], &[0, 2]]);
        let base = m.build();
        let mut d1 = UniverseDelta::new();
        d1.insert(Side::R, m.tuple(&[2, 2]));
        let u1 = check(&mut m, &base, &d1);
        let mut d2 = UniverseDelta::new();
        d2.delete(Side::R, m.tuple(&[0, 1]));
        d2.insert(Side::P, m.tuple(&[2, 0]));
        let u2 = check(&mut m, &u1, &d2);
        assert_eq!(u2.epoch(), 2);
    }

    #[test]
    fn empty_delta_bumps_epoch_only() {
        let m = Model::new(&[&[0, 1]], &[&[1, 2]]);
        let base = m.build();
        let inc = base.apply_delta(&UniverseDelta::new()).unwrap();
        assert_eq!(inc.epoch(), 1);
        assert_eq!(inc.content_fingerprint(), base.content_fingerprint());
        assert_ne!(inc.fingerprint(), base.fingerprint());
    }

    #[test]
    fn apply_delta_is_deterministic() {
        let mut m = Model::new(&[&[0, 1], &[0, 2]], &[&[1, 1], &[0, 2]]);
        let base = m.build();
        let mut d = UniverseDelta::new();
        d.insert(Side::R, m.tuple(&[4, 5]));
        d.insert(Side::P, m.tuple(&[5, 4]));
        d.delete(Side::R, m.tuple(&[0, 1]));
        let a = base.apply_delta(&d).unwrap();
        let b = base.apply_delta(&d).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.counts(), b.counts());
        m.apply(&d);
        assert_equiv(&a, &m.build());
    }

    #[test]
    fn base_universe_is_untouched() {
        let mut m = Model::new(&[&[0, 1]], &[&[1, 2]]);
        let before = m.build();
        let fp = before.fingerprint();
        let counts: Vec<u64> = before.counts().to_vec();
        let mut d = UniverseDelta::new();
        d.insert(Side::R, m.tuple(&[9, 9]));
        let _ = check(&mut m, &before, &d);
        assert_eq!(before.fingerprint(), fp);
        assert_eq!(before.counts(), counts.as_slice());
    }

    #[test]
    fn validation_errors() {
        let m = Model::new(&[&[0, 1]], &[&[1, 2]]);
        let base = m.build();
        let mut d = UniverseDelta::new();
        let bad = Tuple::new(vec![jqi_relation::Symbol(0)]);
        d.insert(Side::R, bad);
        assert!(matches!(
            base.apply_delta(&d),
            Err(DeltaError::ArityMismatch {
                side: Side::R,
                index: 0,
                expected: 2,
                got: 1,
            })
        ));

        let mut d = UniverseDelta::new();
        d.insert(
            Side::P,
            Tuple::new(vec![jqi_relation::Symbol(999), jqi_relation::Symbol(0)]),
        );
        assert!(matches!(
            base.apply_delta(&d),
            Err(DeltaError::UnknownSymbol { symbol: 999, .. })
        ));

        let mut d = UniverseDelta::new();
        d.delete(Side::R, m.tuple(&[0, 2]));
        let err = base.apply_delta(&d).unwrap_err();
        assert!(matches!(err, DeltaError::MissingRow { index: 0, .. }));
        assert!(err.to_string().contains("no remaining occurrences"));
    }

    #[test]
    fn delta_result_supports_further_deltas() {
        let mut m = Model::new(&[&[0, 1], &[2, 3]], &[&[1, 2], &[3, 0]]);
        let base = m.build();
        let mut u = base;
        for step in 0..6i64 {
            let mut d = UniverseDelta::new();
            d.insert(Side::R, m.tuple(&[step + 4, step]));
            if step % 2 == 0 {
                d.insert(Side::P, m.tuple(&[step, step + 4]));
            }
            u = check(&mut m, &u, &d);
        }
        assert_eq!(u.epoch(), 6);
    }

    #[test]
    fn births_and_deaths_across_the_64_class_mask_word() {
        // Against every P row over {0..3}³, R row (0, 0, 0) makes the 8
        // signatures `{all R columns} × J`; (0, 1, 2) adds one per map from
        // P columns to a matching R column or none (4³, ∅ already there).
        let p_rows: Vec<[i64; 3]> = (0..64).map(|v| [v / 16, v / 4 % 4, v % 4]).collect();
        let p_refs: Vec<&[i64]> = p_rows.iter().map(|r| r.as_slice()).collect();
        let mut m = Model::new(&[&[0, 0, 0]], &p_refs);
        let base = m.build();
        assert_eq!(base.closure().mask_words(), 1);
        let mut d = UniverseDelta::new();
        d.insert(Side::R, m.tuple(&[0, 1, 2]));
        let grown = check(&mut m, &base, &d);
        assert_eq!(grown.num_classes(), base.num_classes() + 63);
        assert_eq!(grown.closure().mask_words(), 2);
        let mut d = UniverseDelta::new();
        d.delete(Side::R, m.tuple(&[0, 1, 2]));
        let shrunk = check(&mut m, &grown, &d);
        assert_eq!(shrunk.closure().mask_words(), 1);
    }
}
