//! The incremental inference core: [`InferenceState`], now mask-compressed.
//!
//! Before this module existed, every strategy re-derived the consequences
//! of the current sample from scratch on each `next` call: consistency, the
//! certain/uninformative classification of every T-equivalence class
//! (Lemmas 3.3–3.4), the uninformative-tuple counts behind entropy (§4.4) —
//! all full scans over Ω. A first rewrite made the state incremental
//! (`O(affected classes)` per label), but it still carried a per-class
//! status vector, a materialized informative list and a per-class entropy
//! cache, and every certainty or gain query walked signatures word by word.
//!
//! This version compresses the whole derived state into **class-index
//! bitmasks** over ≤ `|classes|` bits, backed by the containment closure
//! the shared [`Universe`] precomputes once ([`crate::universe::ClassClosure`]):
//!
//! * the labeled / certain-positive / certain-negative / informative
//!   partition is five masks of `⌈|classes|/64⌉` words each;
//! * applying a label is a handful of word-ORs: the classes a negative
//!   example renders certain are `open ∧ down(c)` (one AND per word), and a
//!   positive's reclassification intersects/unions the closure's per-Ω-bit
//!   member masks over the bits of the shrunken `T(S⁺)`;
//! * the gain pair `(u⁺, u⁻)` of §4.4 is a popcount/weight-fold over
//!   `up(c)/down(c) ∧ open` — no per-candidate walk of the informative set;
//! * lookahead speculation copies a few machine words instead of cloning
//!   vectors, so the branch-and-bound recursion's per-node cost is the
//!   word-OR apply itself.
//!
//! # Why the masks stay exact below Ω
//!
//! The static closure masks describe containment of *full* signatures,
//! which coincides with the lemmas' tests only while `T(S⁺) = Ω`. Once a
//! positive example shrinks the interval, every test involves the projected
//! signature `T(t) ∩ T(S⁺)` — and projections can create containments the
//! static order does not have. The closure therefore also stores, per Ω-bit
//! `b`, the mask `members(b)` of classes whose signature has `b`; the exact
//! projected down-set of any bound `X` is then one union–complement,
//!
//! ```text
//! {t : T(t) ∩ T(S⁺) ⊆ X}  =  ¬ ⋃_{b ∈ T(S⁺) ∖ X} members(b),
//! ```
//!
//! costing `O(|T(S⁺)|)` word-ORs — and `|T(S⁺)|` only shrinks as positives
//! arrive, so the dynamic path gets *cheaper* exactly when the static fast
//! path stops applying. Equivalence with the from-scratch specs in
//! [`crate::certain`] / [`crate::entropy`] after arbitrary label sequences
//! (including multi-word Ω and multi-word class masks) is enforced by
//! `tests/properties.rs`.
//!
//! The incremental update remains sound because certainty is **monotone**
//! for consistent samples: `T(S⁺)` only shrinks, so Lemma 3.3's
//! `T(S⁺) ⊆ T(t)` and Lemma 3.4's existential can only flip from false to
//! true, and a label moves classes *out of* the informative mask but never
//! back in.

use crate::entropy::Entropy;
use crate::error::{InferenceError, Result};
use crate::sample::{Label, Sample};
use crate::universe::{ClassClosure, ClassId, Universe};
use jqi_relation::bitset::{nth_set_bit, word_count, WORD_BITS};
use jqi_relation::BitSet;
use std::cell::RefCell;
use std::sync::Arc;

/// What the engine knows about one T-equivalence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassState {
    /// Unlabeled and informative: both labels keep the sample consistent.
    Informative,
    /// Unlabeled but certainly selected (Lemma 3.3: `T(S⁺) ⊆ T(t)`).
    CertainPositive,
    /// Unlabeled but certainly rejected (Lemma 3.4:
    /// `∃t′ ∈ S⁻. T(S⁺) ∩ T(t) ⊆ T(t′)`).
    CertainNegative,
    /// Labeled positive by the user.
    LabeledPositive,
    /// Labeled negative by the user.
    LabeledNegative,
}

impl ClassState {
    /// The user label, if the class is labeled.
    #[inline]
    pub fn label(self) -> Option<Label> {
        match self {
            ClassState::LabeledPositive => Some(Label::Positive),
            ClassState::LabeledNegative => Some(Label::Negative),
            _ => None,
        }
    }

    /// The certain label of an *unlabeled* class, if any.
    #[inline]
    pub fn certain_label(self) -> Option<Label> {
        match self {
            ClassState::CertainPositive => Some(Label::Positive),
            ClassState::CertainNegative => Some(Label::Negative),
            _ => None,
        }
    }

    /// The label the class is known to carry — recorded or certain.
    #[inline]
    pub fn known_label(self) -> Option<Label> {
        self.label().or_else(|| self.certain_label())
    }

    /// Whether labeling this class can still shrink `C(S)` (§3.4).
    #[inline]
    pub fn is_informative(self) -> bool {
        matches!(self, ClassState::Informative)
    }
}

/// Reusable word buffers for the mask computations, so the hot paths
/// (gains, per-label reclassification) never allocate. `a`/`b` are
/// class-mask sized, `tp` is Ω-sized. Contents are meaningless between
/// calls.
#[derive(Debug, Clone, Default)]
struct MaskScratch {
    a: Vec<u64>,
    b: Vec<u64>,
    tp: Vec<u64>,
}

/// Below this many informative classes, [`InferenceState::gain_pair`] takes
/// the fused direct scan instead of assembling closure masks: the scan is
/// `O(open · |S⁻|)` single-word tests, which beats `O(|θ|)` member-mask ORs
/// once the open set is small — the tail of every session and most
/// speculated lookahead nodes.
const DIRECT_SCAN_OPEN_CAP: u32 = 24;

/// `f` holds for every word triple of three equal-length slices.
#[inline]
fn zip3_all(a: &[u64], b: &[u64], c: &[u64], f: impl Fn(u64, u64, u64) -> bool) -> bool {
    a.iter().zip(b).zip(c).all(|((&x, &y), &z)| f(x, y, z))
}

/// Calls `f` with every set position of `a ∧ ¬b` (missing `b` words = 0).
#[inline]
fn for_bits_diff(a: &[u64], b: &[u64], mut f: impl FnMut(usize)) {
    for (i, &x) in a.iter().enumerate() {
        let mut w = x & !b.get(i).copied().unwrap_or(0);
        while w != 0 {
            f(i * WORD_BITS + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// Sum of `counts` over the set bits of `a ∧ b`.
#[inline]
fn weight_and(a: &[u64], b: &[u64], counts: &[u64]) -> u64 {
    let mut total = 0u64;
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let mut w = x & y;
        while w != 0 {
            total += counts[i * WORD_BITS + w.trailing_zeros() as usize];
            w &= w - 1;
        }
    }
    total
}

/// Moves `take ∧ open` out of the informative mask into `into`, returning
/// the retired `(tuple_weight, class_count)`. A free function so callers
/// can hold closure/scratch borrows across the call (field-level split
/// borrows).
fn retire_words(open: &mut BitSet, into: &mut BitSet, take: &[u64], counts: &[u64]) -> (u64, u64) {
    let (mut dt, mut dc) = (0u64, 0u64);
    for (i, ((o, t), &v)) in open
        .words_mut()
        .iter_mut()
        .zip(into.words_mut())
        .zip(take)
        .enumerate()
    {
        let mut w = *o & v;
        if w == 0 {
            continue;
        }
        *t |= w;
        *o &= !w;
        dc += w.count_ones() as u64;
        while w != 0 {
            dt += counts[i * WORD_BITS + w.trailing_zeros() as usize];
            w &= w - 1;
        }
    }
    (dt, dc)
}

/// The incrementally maintained, mask-compressed derived state of one
/// inference session.
///
/// See the module docs for the representation and maintenance invariants.
/// Cloning copies a few machine words per 64 classes (plus the label
/// bookkeeping), which is what the lookahead recursion and the minimax
/// strategy build their speculation on. [`InferenceState::state_bytes`]
/// reports the resident footprint.
#[derive(Debug, Clone)]
pub struct InferenceState {
    /// The universe the session runs over, shared by every session and
    /// speculation over it.
    universe: Arc<Universe>,
    /// Unlabeled, not certain — the candidate mask every strategy draws
    /// from. Always the complement of the other four masks.
    open: BitSet,
    labeled_pos: BitSet,
    labeled_neg: BitSet,
    cert_pos: BitSet,
    cert_neg: BitSet,
    /// Positive / negative classes, in labeling order.
    pos: Vec<ClassId>,
    neg: Vec<ClassId>,
    /// Questions and answers, in order.
    history: Vec<(ClassId, Label)>,
    /// `θ_possible = T(S⁺)`: every consistent predicate is ⊆ it.
    theta_possible: BitSet,
    /// Whether `θ_possible` still equals Ω — the static-closure fast path.
    theta_is_omega: bool,
    /// Lazily computed `θ_certain` (stamp, value): pairs contained in every
    /// consistent predicate. Computed on first read per version, so the
    /// speculation-heavy paths (minimax, depth-k lookahead) never pay for
    /// it.
    theta_certain: RefCell<(u64, BitSet)>,
    /// Popcount of `open`, maintained across updates.
    open_count: u32,
    /// The uninformative-tuple count (see
    /// [`crate::certain::uninformative_count`]).
    uninf_tuples: u64,
    consistent: bool,
    /// Bumped on every applied label; stamps the θ_certain cache.
    version: u64,
    scratch: RefCell<MaskScratch>,
}

impl InferenceState {
    /// The state of the empty sample over `universe`.
    ///
    /// Construction performs the one full scan of the session: classes with
    /// `T(t) = Ω` are certain-positive from the start (every predicate
    /// selects them), everything else is informative.
    pub fn new(universe: Arc<Universe>) -> Self {
        let classes = universe.num_classes();
        let omega_len = universe.omega_len();
        let mask_words = word_count(classes);
        let mut open = BitSet::empty(classes);
        let mut cert_pos = BitSet::empty(classes);
        let mut open_count = 0u32;
        let mut uninf_tuples = 0u64;
        for c in 0..classes {
            if universe.sig_size(c) == omega_len {
                cert_pos.insert(c);
                uninf_tuples += universe.count(c);
            } else {
                open.insert(c);
                open_count += 1;
            }
        }
        let theta_possible = universe.omega();
        InferenceState {
            theta_certain: RefCell::new((1, BitSet::empty(omega_len))),
            scratch: RefCell::new(MaskScratch {
                a: vec![0; mask_words],
                b: vec![0; mask_words],
                tp: vec![0; word_count(omega_len)],
            }),
            universe,
            open,
            labeled_pos: BitSet::empty(classes),
            labeled_neg: BitSet::empty(classes),
            cert_pos,
            cert_neg: BitSet::empty(classes),
            pos: Vec::new(),
            neg: Vec::new(),
            history: Vec::new(),
            theta_possible,
            theta_is_omega: true,
            open_count,
            uninf_tuples,
            consistent: true,
            version: 1,
        }
    }

    /// The universe the session runs over.
    #[inline]
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Number of T-equivalence classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.open.capacity()
    }

    /// Number of labeled examples (`|S|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Whether no example has been labeled yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// The state of class `c`.
    #[inline]
    pub fn class_state(&self, c: ClassId) -> ClassState {
        if self.labeled_pos.contains(c) {
            ClassState::LabeledPositive
        } else if self.labeled_neg.contains(c) {
            ClassState::LabeledNegative
        } else if self.cert_pos.contains(c) {
            ClassState::CertainPositive
        } else if self.cert_neg.contains(c) {
            ClassState::CertainNegative
        } else {
            ClassState::Informative
        }
    }

    /// The recorded label of class `c`, if any.
    #[inline]
    pub fn label(&self, c: ClassId) -> Option<Label> {
        if self.labeled_pos.contains(c) {
            Some(Label::Positive)
        } else if self.labeled_neg.contains(c) {
            Some(Label::Negative)
        } else {
            None
        }
    }

    /// What the engine already knows about class `c` without asking: its
    /// recorded or certain label.
    #[inline]
    pub fn known_label(&self, c: ClassId) -> Option<Label> {
        self.class_state(c).known_label()
    }

    /// Whether class `c` is informative (§3.4).
    #[inline]
    pub fn is_informative(&self, c: ClassId) -> bool {
        self.open.contains(c)
    }

    /// Positive classes, in labeling order.
    #[inline]
    pub fn positives(&self) -> &[ClassId] {
        &self.pos
    }

    /// Negative classes, in labeling order.
    #[inline]
    pub fn negatives(&self) -> &[ClassId] {
        &self.neg
    }

    /// The questions and answers so far, in order.
    #[inline]
    pub fn history(&self) -> &[(ClassId, Label)] {
        &self.history
    }

    /// Decomposes the state into its label history — the replay log a
    /// hibernated session tier keeps while every derived mask is dropped.
    /// Replaying it through [`InferenceState::apply_batch`] rebuilds this
    /// exact state.
    pub fn into_history(self) -> Vec<(ClassId, Label)> {
        self.history
    }

    /// Resident heap bytes of the label history, counted by allocation
    /// **capacity** (what the `Vec` actually holds from the allocator —
    /// up to ~2× the length under doubling growth), not by length. This
    /// is the honest term for footprint comparisons against a hibernated
    /// tier, whose shrunken replay logs have capacity = length.
    pub fn history_heap_bytes(&self) -> usize {
        self.history.capacity() * std::mem::size_of::<(ClassId, Label)>()
    }

    /// `θ_possible = T(S⁺)`, the most specific predicate consistent with
    /// the positives — the upper end of the consistent interval. Equals `Ω`
    /// while `S⁺ = ∅`.
    #[inline]
    pub fn theta_possible(&self) -> &BitSet {
        &self.theta_possible
    }

    /// `θ_certain`: the attribute pairs contained in **every** consistent
    /// predicate — the lower end of the consistent interval.
    ///
    /// `k ∈ θ_certain` iff `T(S⁺) \ {k} ⊆ T(t′)` for some `t′ ∈ S⁻`: the
    /// down-sets `P(T(S⁺) ∩ T(t′))` are the inconsistent predicates, and a
    /// union of down-sets covers `P(X)` iff it contains `X` itself, so
    /// dropping `k` must land the whole remaining interval inside one of
    /// them. Empty while there is no negative example.
    ///
    /// Computed lazily on first read per state version
    /// (`O(|θ_possible| · |S⁻|)` subset tests, bounded by the number of
    /// answers), then served from the cache — the speculation-heavy
    /// recursions that never read it never pay for it.
    pub fn theta_certain(&self) -> BitSet {
        let mut cache = self.theta_certain.borrow_mut();
        if cache.0 != self.version {
            let mut certain = BitSet::empty(self.theta_possible.capacity());
            if !self.neg.is_empty() {
                for k in self.theta_possible.iter() {
                    let forced = self.neg.iter().any(|&g| {
                        self.theta_possible
                            .is_subset_except(self.universe.sig(g), k)
                    });
                    if forced {
                        certain.insert(k);
                    }
                }
            }
            *cache = (self.version, certain);
        }
        cache.1.clone()
    }

    /// The consistent-predicate interval `[θ_certain, θ_possible]`: every
    /// predicate consistent with the sample contains the first and is
    /// contained in the second.
    pub fn interval(&self) -> (BitSet, BitSet) {
        (self.theta_certain(), self.theta_possible.clone())
    }

    /// Whether some equijoin predicate is consistent with the labels so far
    /// (§3.1). Maintained incrementally; `O(1)` to read.
    #[inline]
    pub fn is_consistent(&self) -> bool {
        self.consistent
    }

    /// The informative classes, ascending — the candidate set every
    /// strategy draws from, iterated straight off the class-index mask.
    #[inline]
    pub fn informative(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.open.iter()
    }

    /// The informative classes as the raw class-index mask.
    #[inline]
    pub fn informative_mask(&self) -> &BitSet {
        &self.open
    }

    /// The exact decision-cache mask keys of the current derived state:
    /// `(T(S⁺) words, negative-label mask words)`, with `T(S⁺)` normalized
    /// to the **empty slice** while it still equals Ω — the whole negative
    /// phase then shares one canonical key form regardless of `|Ω|`.
    ///
    /// This pair (plus the caller's strategy fingerprint, including the
    /// "any positive yet?" phase bit) determines every deterministic
    /// strategy's move; see [`Universe::cached_decision`] for the argument.
    #[inline]
    pub fn decision_masks(&self) -> (&[u64], &[u64]) {
        let pos: &[u64] = if self.theta_is_omega {
            &[]
        } else {
            self.theta_possible.words()
        };
        (pos, self.labeled_neg.words())
    }

    /// Number of informative classes. `O(1)`; maintained across updates.
    #[inline]
    pub fn informative_len(&self) -> usize {
        self.open_count as usize
    }

    /// The `i`-th informative class in ascending order (word-skipping
    /// select on the mask), or `None` when `i ≥ informative_len()`.
    #[inline]
    pub fn nth_informative(&self, i: usize) -> Option<ClassId> {
        nth_set_bit(self.open.words(), i)
    }

    /// Whether any informative tuple remains — the negation of Algorithm
    /// 1's halt condition Γ.
    #[inline]
    pub fn any_informative(&self) -> bool {
        self.open_count > 0
    }

    /// The weighted count of uninformative tuples, matching
    /// [`crate::certain::uninformative_count`]. `O(1)`.
    #[inline]
    pub fn uninformative_count(&self) -> u64 {
        self.uninf_tuples
    }

    /// Resident heap bytes of the derived session state: the five partition
    /// masks, the interval bounds, the mask scratch, and the positive /
    /// negative class lists. Excludes the shared universe (paid once per
    /// process, not per session) and the label history (the replay log a
    /// snapshot persists, proportional to the number of answers).
    pub fn state_bytes(&self) -> usize {
        let word = std::mem::size_of::<u64>();
        let masks = 5 * std::mem::size_of_val(self.open.words());
        let theta = std::mem::size_of_val(self.theta_possible.words());
        let theta_certain = std::mem::size_of_val(self.theta_certain.borrow().1.words());
        let scratch = self.scratch.borrow();
        let scratch_bytes = (scratch.a.len() + scratch.b.len() + scratch.tp.len()) * word;
        let labels = (self.pos.len() + self.neg.len()) * std::mem::size_of::<ClassId>();
        masks + theta + theta_certain + scratch_bytes + labels
    }

    /// Writes `{t : restrict ∩ T(t) ⊆ allowed}` into `out` — the exact
    /// projected down-set of the module docs, for any restriction
    /// (`θ_possible`, or a hypothetical `θ ∩ T(c)` during gains):
    /// `out = ¬ ⋃ members(b)` over the set bits of `restrict ∧ ¬allowed`.
    #[inline]
    fn down_under_into(closure: &ClassClosure, restrict: &[u64], allowed: &[u64], out: &mut [u64]) {
        out.iter_mut().for_each(|w| *w = 0);
        for_bits_diff(restrict, allowed, |b| {
            let m = closure.members(b);
            out.iter_mut().zip(m).for_each(|(w, &v)| *w |= v);
        });
        out.iter_mut().for_each(|w| *w = !*w);
    }

    /// Writes `{t : require ⊆ T(t)}` into `out`: `⋂ members(b)` over the
    /// set bits of `require` (all-ones for the empty requirement — callers
    /// AND with `open` before consuming).
    #[inline]
    fn supersets_into(closure: &ClassClosure, require: &[u64], out: &mut [u64]) {
        out.iter_mut().for_each(|w| *w = !0);
        for (i, &x) in require.iter().enumerate() {
            let mut w = x;
            while w != 0 {
                let b = i * WORD_BITS + w.trailing_zeros() as usize;
                let m = closure.members(b);
                out.iter_mut().zip(m).for_each(|(o, &v)| *o &= v);
                w &= w - 1;
            }
        }
    }

    /// Applies one label, updating every derived quantity incrementally.
    ///
    /// Mirrors `Sample::add` + the consistency check of Algorithm 1 lines
    /// 5–7: the label is recorded unconditionally (double labeling and
    /// out-of-range classes are rejected), and
    /// [`is_consistent`](Self::is_consistent) turns
    /// false if no predicate explains the labels — in which case the
    /// partition stops being maintained (certainty is only defined for
    /// consistent samples) and the caller is expected to abort, as
    /// [`crate::engine::run_inference`] does.
    ///
    /// Cost: one projected-down-set mask (`O(|θ_possible|)` word-ORs; a
    /// single word-AND per mask word on the `θ = Ω` fast path) for a
    /// negative label, the same per negative example for a positive one —
    /// never a rescan of all of Ω, and no allocation.
    pub fn apply(&mut self, c: ClassId, label: Label) -> Result<()> {
        let classes = self.num_classes();
        if c >= classes {
            return Err(InferenceError::ClassOutOfBounds {
                class: c,
                len: classes,
            });
        }
        if self.labeled_pos.contains(c) || self.labeled_neg.contains(c) {
            return Err(InferenceError::AlreadyLabeled { class: c });
        }
        let was_informative = self.open.contains(c);

        // Counter bookkeeping for the labeled class itself: an informative
        // class starts contributing weight − 1 (its classmates become
        // certain); an already-certain class merely stops counting its
        // representative.
        if was_informative {
            self.open.remove(c);
            self.open_count -= 1;
            self.uninf_tuples += self.universe.count(c).saturating_sub(1);
        } else {
            self.cert_pos.remove(c);
            self.cert_neg.remove(c);
            self.uninf_tuples = self.uninf_tuples.saturating_sub(1);
        }
        match label {
            Label::Positive => self.labeled_pos.insert(c),
            Label::Negative => self.labeled_neg.insert(c),
        }
        self.history.push((c, label));
        self.version += 1;

        match label {
            Label::Positive => {
                self.pos.push(c);
                let sig = self.universe.sig(c);
                if !self.theta_possible.is_subset(sig) {
                    // θ_possible shrinks to θ_possible ∩ T(c).
                    self.theta_possible.intersect_with(sig);
                    self.theta_is_omega = false;
                    if self.consistent {
                        // §3.1: consistency must be re-checked against every
                        // negative under the shrunken T(S⁺).
                        let tp = &self.theta_possible;
                        self.consistent = self
                            .neg
                            .iter()
                            .all(|&g| !tp.is_subset(self.universe.sig(g)));
                    }
                    if self.consistent {
                        self.reclassify_open();
                    }
                }
            }
            Label::Negative => {
                self.neg.push(c);
                if self.consistent {
                    self.consistent = !self.theta_possible.is_subset(self.universe.sig(c));
                }
                if self.consistent {
                    // The only new Lemma 3.4 witness is T(c): retire the
                    // projected down-set of T(c) from the informative mask.
                    let mut scratch = self.scratch.borrow_mut();
                    let MaskScratch { a, .. } = &mut *scratch;
                    let closure = self.universe.closure();
                    let take: &[u64] = match closure.down(c).filter(|_| self.theta_is_omega) {
                        Some(down) => down,
                        None => {
                            Self::down_under_into(
                                closure,
                                self.theta_possible.words(),
                                self.universe.sig(c).words(),
                                a,
                            );
                            a
                        }
                    };
                    let (dt, dc) = retire_words(
                        &mut self.open,
                        &mut self.cert_neg,
                        take,
                        self.universe.counts(),
                    );
                    self.open_count -= dc as u32;
                    self.uninf_tuples += dt;
                }
            }
        }

        Ok(())
    }

    /// Re-tests every informative class against the shrunken `θ_possible`:
    /// classes containing the new bound become certain-positive, classes
    /// whose projection lands inside some negative's signature become
    /// certain-negative (in that order — the spec's priority).
    fn reclassify_open(&mut self) {
        let mut scratch = self.scratch.borrow_mut();
        let MaskScratch { a, b, .. } = &mut *scratch;
        let closure = self.universe.closure();
        let counts = self.universe.counts();
        // Certain-positive: {t : θ ⊆ T(t)}.
        Self::supersets_into(closure, self.theta_possible.words(), a);
        let (mut dt, mut dc) = retire_words(&mut self.open, &mut self.cert_pos, a, counts);
        // Certain-negative among the remaining open classes:
        // ⋃_g {t : θ ∩ T(t) ⊆ T(g)}.
        if !self.neg.is_empty() {
            a.iter_mut().for_each(|w| *w = 0);
            for &g in &self.neg {
                Self::down_under_into(
                    closure,
                    self.theta_possible.words(),
                    self.universe.sig(g).words(),
                    b,
                );
                a.iter_mut().zip(b.iter()).for_each(|(x, &y)| *x |= y);
            }
            let (dt2, dc2) = retire_words(&mut self.open, &mut self.cert_neg, a, counts);
            dt += dt2;
            dc += dc2;
        }
        self.open_count -= dc as u32;
        self.uninf_tuples += dt;
    }

    /// `u^α_{t,S}`: the weighted number of tuples that would become
    /// uninformative if informative class `c` were labeled `alpha`
    /// (Figure 5 / §4.4), relative to the current sample.
    ///
    /// Computed as a popcount/weight-fold of closure masks against the
    /// informative mask — the `θ = Ω` fast path is a single word-AND per
    /// mask word; below Ω the exact projected masks cost `O(|θ_possible|)`
    /// word-ORs (per negative example for `α = +`). No allocation.
    pub fn gain(&self, c: ClassId, alpha: Label) -> u64 {
        debug_assert!(
            self.is_informative(c),
            "gain is defined for informative classes"
        );
        let closure = self.universe.closure();
        let (open, counts) = (self.open.words(), self.universe.counts());
        let mut scratch = self.scratch.borrow_mut();
        let MaskScratch { a, b, tp } = &mut *scratch;
        let sum = match alpha {
            Label::Negative => {
                // Classes whose projection lands inside T(c).
                if self.theta_is_omega {
                    if let Some(down) = closure.down(c) {
                        return weight_and(down, open, counts) - 1;
                    }
                }
                Self::down_under_into(
                    closure,
                    self.theta_possible.words(),
                    self.universe.sig(c).words(),
                    a,
                );
                weight_and(a, open, counts)
            }
            Label::Positive => {
                // T(S⁺) would shrink to tp = θ ∩ T(c): certain-positives are
                // the supersets of tp, certain-negatives the classes some
                // negative covers under tp.
                let sig = self.universe.sig(c).words();
                let tp: &[u64] = if self.theta_is_omega {
                    sig
                } else {
                    tp.iter_mut()
                        .zip(self.theta_possible.words().iter().zip(sig))
                        .for_each(|(o, (&x, &y))| *o = x & y);
                    tp
                };
                if self.theta_is_omega && self.neg.is_empty() {
                    if let Some(up) = closure.up(c) {
                        return weight_and(up, open, counts) - 1;
                    }
                }
                Self::supersets_into(closure, tp, a);
                for &g in &self.neg {
                    Self::down_under_into(closure, tp, self.universe.sig(g).words(), b);
                    a.iter_mut().zip(b.iter()).for_each(|(x, &y)| *x |= y);
                }
                weight_and(a, open, counts)
            }
        };
        // `c` itself is always in the mask (tp ⊆ T(c) on both branches) and
        // contributes weight − 1: the labeled representative joins S, its
        // classmates become certain.
        sum - 1
    }

    /// The `(u⁺, u⁻)` gain pair of informative class `c`.
    /// [`entropy`](Self::entropy) is its normalized view; the lookahead
    /// recursion reads the raw pair to order label branches.
    ///
    /// Adaptive: once the informative mask is small (the tail of every
    /// session, and most speculated lookahead nodes), both gains come from
    /// **one** fused pass over the open classes applying the raw Lemma
    /// 3.3/3.4 word tests — cheaper than two mask assemblies when there are
    /// fewer open classes than `|θ_possible|` bits. Above the threshold the
    /// closure-mask path takes over. Both paths are exact; a unit test
    /// pins them to each other on both sides of the threshold.
    pub fn gain_pair(&self, c: ClassId) -> (u64, u64) {
        if self.open_count <= DIRECT_SCAN_OPEN_CAP {
            self.gain_pair_direct(c)
        } else {
            (self.gain(c, Label::Positive), self.gain(c, Label::Negative))
        }
    }

    /// The fused small-open gain pair: a single pass over the informative
    /// mask, testing each open class once against `c`'s hypothetical labels
    /// with allocation-free word loops.
    fn gain_pair_direct(&self, c: ClassId) -> (u64, u64) {
        debug_assert!(
            self.is_informative(c),
            "gain is defined for informative classes"
        );
        let universe: &Universe = &self.universe;
        let theta = self.theta_possible.words();
        let sig_c = universe.sig(c).words();
        let (mut u_pos, mut u_neg) = (0u64, 0u64);
        for x in self.open.iter() {
            let weight = universe.count(x);
            let sig_x = universe.sig(x).words();
            // Negative on c: x retires iff θ ∩ T(x) ⊆ T(c)  (Lemma 3.4
            // with witness T(c)).
            if zip3_all(theta, sig_x, sig_c, |t, x, c| t & x & !c == 0) {
                u_neg += weight;
            }
            // Positive on c: T(S⁺) shrinks to tp = θ ∩ T(c); x retires iff
            // tp ⊆ T(x) (Lemma 3.3) or some negative covers tp ∩ T(x)
            // (Lemma 3.4).
            let pos = zip3_all(theta, sig_c, sig_x, |t, c, x| t & c & !x == 0)
                || self.neg.iter().any(|&g| {
                    let sig_g = universe.sig(g).words();
                    theta
                        .iter()
                        .zip(sig_c)
                        .zip(sig_x)
                        .zip(sig_g)
                        .all(|(((&t, &c), &x), &g)| t & c & x & !g == 0)
                });
            if pos {
                u_pos += weight;
            }
        }
        // `c` itself satisfied both conditions; as the labeled example it
        // contributes weight − 1 on each side.
        (u_pos - 1, u_neg - 1)
    }

    /// The one-step entropy of informative class `c` (§4.4).
    pub fn entropy(&self, c: ClassId) -> Entropy {
        let (u_pos, u_neg) = self.gain_pair(c);
        Entropy::of(u_pos, u_neg)
    }

    /// One-step entropies of all informative classes, ascending by class.
    pub fn entropies(&self) -> Vec<(ClassId, Entropy)> {
        self.informative().map(|c| (c, self.entropy(c))).collect()
    }

    /// A hypothetical successor state: `self` with `(c, label)` applied.
    ///
    /// This is what the depth-k lookahead recursion and the minimax-optimal
    /// strategy branch on — a copy of a few machine words plus one mask
    /// apply, never a from-scratch re-derivation.
    pub fn speculate(&self, c: ClassId, label: Label) -> InferenceState {
        let mut next = self.clone();
        next.apply(c, label)
            .expect("speculated class must be unlabeled and in range");
        next
    }

    /// Like [`speculate`](Self::speculate), but rebuilds `out` in place,
    /// reusing its existing allocations (masks, Ω-width bitsets, scratch)
    /// instead of cloning into fresh ones.
    ///
    /// The depth-k lookahead recursion calls this once per visited tree
    /// node through a per-depth scratch pool, turning the per-node
    /// allocation cost into a one-time warm-up. `out` may hold any previous
    /// state (even over a different universe); it is overwritten
    /// wholesale, so the result is indistinguishable from
    /// `*out = self.speculate(c, label)`.
    pub fn speculate_into(&self, c: ClassId, label: Label, out: &mut InferenceState) {
        // Every node of a lookahead tree runs over the same universe, and
        // its refcount is shared by every session and worker thread over
        // it: touch it only when `out` last held another universe.
        if !Arc::ptr_eq(&out.universe, &self.universe) {
            out.universe = Arc::clone(&self.universe);
        }
        out.open.clone_from(&self.open);
        out.labeled_pos.clone_from(&self.labeled_pos);
        out.labeled_neg.clone_from(&self.labeled_neg);
        out.cert_pos.clone_from(&self.cert_pos);
        out.cert_neg.clone_from(&self.cert_neg);
        out.pos.clone_from(&self.pos);
        out.neg.clone_from(&self.neg);
        out.history.clone_from(&self.history);
        out.theta_possible.clone_from(&self.theta_possible);
        out.theta_is_omega = self.theta_is_omega;
        {
            let mut dst = out.theta_certain.borrow_mut();
            let src = self.theta_certain.borrow();
            dst.0 = src.0;
            dst.1.clone_from(&src.1);
        }
        {
            let mut dst = out.scratch.borrow_mut();
            let src = self.scratch.borrow();
            dst.a.resize(src.a.len(), 0);
            dst.b.resize(src.b.len(), 0);
            dst.tp.resize(src.tp.len(), 0);
        }
        out.open_count = self.open_count;
        out.uninf_tuples = self.uninf_tuples;
        out.consistent = self.consistent;
        out.version = self.version;
        out.apply(c, label)
            .expect("speculated class must be unlabeled and in range");
    }

    /// Reconstructs the equivalent [`Sample`] (the from-scratch
    /// representation) by replaying the label history.
    pub fn as_sample(&self) -> Sample {
        let mut sample = Sample::new(&self.universe);
        for &(c, label) in &self.history {
            sample
                .add(&self.universe, c, label)
                .expect("state history never double-labels");
        }
        sample
    }

    /// Applies a batch of answers in one call, folding them into the state
    /// without any intervening strategy work — the shape in which
    /// asynchronous answers (a crowdsourcing task queue, a web UI with
    /// several outstanding questions) arrive at a server. This is also the
    /// snapshot-restore fast path: replaying a history is one `apply_batch`
    /// of mask ops, no strategy work and no per-answer allocation.
    ///
    /// Per answer: out-of-range classes error; a duplicate answer carrying
    /// the **same** label as the recorded one is skipped (idempotent — two
    /// crowd workers may label the same tuple); a duplicate carrying the
    /// **opposite** label errors with [`InferenceError::ConflictingLabel`];
    /// an answer that would make the sample inconsistent is **rejected
    /// without being applied** and the batch aborts with
    /// [`InferenceError::InconsistentSample`] naming the offending class
    /// (Algorithm 1 lines 5–7, checked per answer *before* recording it);
    /// everything else is applied incrementally. On a consistent state the
    /// pre-check is an O(1) certainty-mask probe: a negative is
    /// inconsistent iff the class is certain-positive, a positive iff it is
    /// certain-negative.
    ///
    /// Returns the number of answers actually applied. On error the
    /// answers *before* the offending one remain applied, the offending
    /// one is not, and — unlike the raw [`apply`](Self::apply) — the state
    /// is still consistent: the session remains usable and its history
    /// remains replayable (snapshots taken after a rejected batch still
    /// restore).
    pub fn apply_batch(&mut self, answers: &[(ClassId, Label)]) -> Result<usize> {
        let mut applied = 0usize;
        for &(c, label) in answers {
            if c >= self.num_classes() {
                return Err(InferenceError::ClassOutOfBounds {
                    class: c,
                    len: self.num_classes(),
                });
            }
            if let Some(existing) = self.label(c) {
                if existing == label {
                    continue;
                }
                return Err(InferenceError::ConflictingLabel {
                    class: c,
                    existing,
                    conflicting: label,
                });
            }
            // §3.1 consistency, tested speculatively so a bad answer never
            // poisons the recorded history. While the partition is
            // maintained this is one mask probe; otherwise fall back to the
            // direct signature tests.
            let inconsistent = if self.consistent {
                match label {
                    Label::Negative => self.cert_pos.contains(c),
                    Label::Positive => self.cert_neg.contains(c),
                }
            } else {
                match label {
                    Label::Negative => self.theta_possible.is_subset(self.universe.sig(c)),
                    Label::Positive => {
                        let sig = self.universe.sig(c);
                        self.neg.iter().any(|&g| {
                            self.theta_possible
                                .intersection_is_subset(sig, self.universe.sig(g))
                        })
                    }
                }
            };
            if inconsistent {
                return Err(InferenceError::InconsistentSample { class: c });
            }
            self.apply(c, label)?;
            applied += 1;
            debug_assert!(self.consistent, "pre-checked answers stay consistent");
        }
        Ok(applied)
    }

    /// Carries this state over to `universe` — typically the
    /// [`Universe::apply_delta`](crate::delta) successor of the one it was
    /// built over — when both have the *identical* signature sequence
    /// ([`Universe::same_classes`], a count-only delta). Every mask
    /// transfers verbatim (certainty is a function of signatures alone);
    /// only the uninformative-tuple count is re-derived from the new
    /// class counts. `O(masks)` words, no replay.
    ///
    /// Returns `None` when the class structure changed (or the state is
    /// inconsistent): the label history must then be remapped by signature
    /// ([`crate::session::remap_replay_parts`]) and replayed.
    pub fn rebind(&self, universe: Arc<Universe>) -> Option<InferenceState> {
        if !self.consistent || !self.universe().same_classes(&universe) {
            return None;
        }
        let omega_len = universe.omega_len();
        let mask_words = word_count(universe.num_classes());
        let mut next = InferenceState {
            universe,
            open: self.open.clone(),
            labeled_pos: self.labeled_pos.clone(),
            labeled_neg: self.labeled_neg.clone(),
            cert_pos: self.cert_pos.clone(),
            cert_neg: self.cert_neg.clone(),
            pos: self.pos.clone(),
            neg: self.neg.clone(),
            history: self.history.clone(),
            theta_possible: self.theta_possible.clone(),
            theta_is_omega: self.theta_is_omega,
            // Stamp 0 never matches a live version: recomputed on read.
            theta_certain: RefCell::new((0, BitSet::empty(omega_len))),
            open_count: self.open_count,
            uninf_tuples: 0,
            consistent: true,
            version: self.version,
            scratch: RefCell::new(MaskScratch {
                a: vec![0; mask_words],
                b: vec![0; mask_words],
                tp: vec![0; word_count(omega_len)],
            }),
        };
        next.recount_uninformative();
        Some(next)
    }

    /// Re-derives the uninformative-tuple count from the current masks and
    /// the universe's class counts: a certain unlabeled class contributes
    /// its full count, a labeled class its count minus the labeled
    /// representative.
    fn recount_uninformative(&mut self) {
        let counts = self.universe.counts();
        let mut tuples = 0u64;
        for c in self.cert_pos.iter().chain(self.cert_neg.iter()) {
            tuples += counts[c];
        }
        for c in self.labeled_pos.iter().chain(self.labeled_neg.iter()) {
            tuples += counts[c] - 1;
        }
        self.uninf_tuples = tuples;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certain::{self, informative_classes, uninformative_count};
    use crate::paper::example_2_1;
    use crate::universe::Universe;

    fn class_of(u: &Universe, ri: usize, pi: usize) -> ClassId {
        u.class_of(ri, pi).unwrap()
    }

    /// Checks the state against the from-scratch implementations in
    /// `certain.rs` after each of a sequence of labels.
    fn assert_matches_scratch(state: &InferenceState, sample: &Sample) {
        let u = state.universe();
        assert_eq!(state.is_consistent(), sample.is_consistent(u));
        assert_eq!(state.theta_possible(), sample.t_pos());
        if !state.is_consistent() {
            return; // partition is only defined for consistent samples
        }
        assert_eq!(
            state.informative().collect::<Vec<_>>(),
            informative_classes(u, sample),
            "informative sets diverge"
        );
        assert_eq!(
            state.informative_len(),
            informative_classes(u, sample).len()
        );
        assert_eq!(
            state.uninformative_count(),
            uninformative_count(u, sample),
            "uninformative count diverges"
        );
        for c in 0..u.num_classes() {
            assert_eq!(state.label(c), sample.label(c));
            if sample.label(c).is_none() {
                assert_eq!(
                    state.class_state(c).certain_label(),
                    certain::certain_label(u, sample, c),
                    "certain label diverges for class {c}"
                );
            }
        }
    }

    #[test]
    fn tracks_scratch_on_example_2_1_replay() {
        // Example 2.1 driven through a mixed label sequence.
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        let mut sample = Sample::new(&u);
        assert_matches_scratch(&state, &sample);
        let script = [
            (class_of(&u, 1, 1), Label::Positive),
            (class_of(&u, 0, 2), Label::Negative),
            (class_of(&u, 2, 1), Label::Negative),
        ];
        for (c, label) in script {
            state.apply(c, label).unwrap();
            sample.add(&u, c, label).unwrap();
            assert_matches_scratch(&state, &sample);
        }
    }

    #[test]
    fn entropy_matches_scratch_entropy() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        let mut sample = Sample::new(&u);
        for c in state.informative() {
            assert_eq!(
                state.entropy(c),
                crate::entropy::entropy(&u, &sample, c),
                "entropy diverges for class {c}"
            );
        }
        // And again mid-session, where T(S⁺) sits below Ω and the masks
        // must take the exact projected path.
        let c = class_of(&u, 0, 2);
        state.apply(c, Label::Positive).unwrap();
        sample.add(&u, c, Label::Positive).unwrap();
        for t in state.informative().collect::<Vec<_>>() {
            assert_eq!(state.entropy(t), crate::entropy::entropy(&u, &sample, t),);
        }
    }

    #[test]
    fn interval_brackets_every_consistent_predicate() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        state.apply(class_of(&u, 1, 1), Label::Positive).unwrap();
        state.apply(class_of(&u, 0, 2), Label::Negative).unwrap();
        let sample = state.as_sample();
        let (lo, hi) = state.interval();
        let nbits = u.omega_len();
        let mut any = false;
        for mask in 0u64..(1 << nbits) {
            let theta = BitSet::from_iter(nbits, (0..nbits).filter(|&b| mask >> b & 1 == 1));
            if sample.admits(&u, &theta) {
                any = true;
                assert!(lo.is_subset(&theta), "θ_certain ⊄ consistent {theta:?}");
                assert!(theta.is_subset(&hi), "consistent {theta:?} ⊄ θ_possible");
            }
        }
        assert!(any, "sample should be consistent");
        // And the bounds are tight: both ends are attained over the brute
        // force (θ_certain is the meet, θ_possible the join, of C(S)).
        let consistent: Vec<BitSet> = (0u64..(1 << nbits))
            .map(|mask| BitSet::from_iter(nbits, (0..nbits).filter(|&b| mask >> b & 1 == 1)))
            .filter(|t| sample.admits(&u, t))
            .collect();
        let mut meet = consistent[0].clone();
        let mut join = consistent[0].clone();
        for t in &consistent[1..] {
            meet.intersect_with(t);
            join.union_with(t);
        }
        assert_eq!(meet, lo, "θ_certain must be the meet of C(S)");
        assert_eq!(join, hi, "θ_possible must be the join of C(S)");
    }

    #[test]
    fn speculate_equals_apply() {
        let u = Arc::new(Universe::build(example_2_1()));
        let state = InferenceState::new(Arc::clone(&u));
        let c = state.nth_informative(3).unwrap();
        for label in Label::BOTH {
            let spec = state.speculate(c, label);
            let mut direct = InferenceState::new(Arc::clone(&u));
            direct.apply(c, label).unwrap();
            assert_eq!(
                spec.informative().collect::<Vec<_>>(),
                direct.informative().collect::<Vec<_>>()
            );
            assert_eq!(spec.theta_possible(), direct.theta_possible());
            assert_eq!(spec.uninformative_count(), direct.uninformative_count());
        }
    }

    #[test]
    fn speculate_into_repoints_a_buffer_from_another_universe() {
        let u = Arc::new(Universe::build(example_2_1()));
        let other = Arc::new(Universe::build(example_2_1()));
        let state = InferenceState::new(Arc::clone(&u));
        let mut out = InferenceState::new(Arc::clone(&other));
        let c = state.nth_informative(0).unwrap();
        state.speculate_into(c, Label::Negative, &mut out);
        assert!(Arc::ptr_eq(&out.universe, &u));
        assert_eq!(Arc::strong_count(&other), 1, "the old universe is released");
        // Over the same universe the buffer keeps its handle.
        state.speculate_into(c, Label::Positive, &mut out);
        assert!(Arc::ptr_eq(&out.universe, &u));
        assert_eq!(Arc::strong_count(&u), 3);
    }

    #[test]
    fn speculate_into_equals_speculate() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        state.apply(class_of(&u, 0, 2), Label::Positive).unwrap();
        // Reuse a deliberately unrelated buffer state.
        let mut buffer = InferenceState::new(Arc::clone(&u));
        buffer.apply(class_of(&u, 2, 0), Label::Negative).unwrap();
        for c in state.informative().collect::<Vec<_>>() {
            for label in Label::BOTH {
                let fresh = state.speculate(c, label);
                state.speculate_into(c, label, &mut buffer);
                assert_eq!(
                    fresh.informative().collect::<Vec<_>>(),
                    buffer.informative().collect::<Vec<_>>()
                );
                assert_eq!(fresh.theta_possible(), buffer.theta_possible());
                assert_eq!(fresh.history(), buffer.history());
                assert_eq!(fresh.is_consistent(), buffer.is_consistent());
                assert_eq!(fresh.uninformative_count(), buffer.uninformative_count());
                assert_eq!(fresh.theta_certain(), buffer.theta_certain());
                for t in fresh.informative().collect::<Vec<_>>() {
                    assert_eq!(
                        fresh.entropy(t),
                        buffer.entropy(t),
                        "entropy diverges for class {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn gain_matches_scratch_difference() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        state.apply(class_of(&u, 0, 2), Label::Positive).unwrap();
        state.apply(class_of(&u, 2, 0), Label::Negative).unwrap();
        let sample = state.as_sample();
        let base = uninformative_count(&u, &sample);
        for c in state.informative().collect::<Vec<_>>() {
            for alpha in Label::BOTH {
                let mut s = sample.clone();
                s.add(&u, c, alpha).unwrap();
                let scratch = uninformative_count(&u, &s).saturating_sub(base);
                assert_eq!(
                    state.gain(c, alpha),
                    scratch,
                    "gain diverges for class {c} labeled {alpha}"
                );
            }
        }
    }

    #[test]
    fn misuse_is_rejected_like_sample() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        assert!(matches!(
            state.apply(99, Label::Positive),
            Err(InferenceError::ClassOutOfBounds { class: 99, .. })
        ));
        state.apply(3, Label::Positive).unwrap();
        assert!(matches!(
            state.apply(3, Label::Negative),
            Err(InferenceError::AlreadyLabeled { class: 3 })
        ));
    }

    #[test]
    fn apply_batch_folds_skips_and_rejects() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        let a = class_of(&u, 1, 1);
        let b = class_of(&u, 0, 2);
        // Mixed batch with an agreeing duplicate: two answers applied.
        let applied = state
            .apply_batch(&[
                (a, Label::Positive),
                (b, Label::Negative),
                (a, Label::Positive),
            ])
            .unwrap();
        assert_eq!(applied, 2);
        assert_eq!(state.len(), 2);
        // A contradicting duplicate errors without touching the state.
        let e = state.apply_batch(&[(b, Label::Positive)]).unwrap_err();
        assert_eq!(
            e,
            InferenceError::ConflictingLabel {
                class: b,
                existing: Label::Negative,
                conflicting: Label::Positive,
            }
        );
        assert_eq!(state.len(), 2);
    }

    #[test]
    fn apply_batch_rejects_inconsistent_answers_without_recording_them() {
        // Positive on (t2,t2') makes (t4,t1') certain-positive; a batch
        // answering it negative is inconsistent. Unlike raw apply(), the
        // batch path rejects the answer *before* recording it, so the
        // session stays consistent and its history stays replayable.
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        let certain_pos = class_of(&u, 3, 0);
        let batch = [
            (class_of(&u, 1, 1), Label::Positive),
            (certain_pos, Label::Negative),
        ];
        let e = state.apply_batch(&batch).unwrap_err();
        assert_eq!(e, InferenceError::InconsistentSample { class: certain_pos });
        // The prefix before the offending answer is applied; the offending
        // answer is not, and the state is still consistent.
        assert_eq!(state.len(), 1);
        assert!(state.is_consistent());
        assert_eq!(state.label(certain_pos), None);
        assert_eq!(state.class_state(certain_pos), ClassState::CertainPositive);
        // Replaying the surviving history reproduces the state.
        let mut replay = InferenceState::new(Arc::clone(&u));
        replay.apply_batch(state.history()).unwrap();
        assert_eq!(replay.theta_possible(), state.theta_possible());
        assert_eq!(
            replay.informative().collect::<Vec<_>>(),
            state.informative().collect::<Vec<_>>()
        );
        // The certainly-rejected mirror case: negative first, then a batch
        // trying to answer a certain-negative class positive.
        let mut s2 = InferenceState::new(Arc::clone(&u));
        s2.apply(class_of(&u, 1, 1), Label::Positive).unwrap();
        s2.apply(class_of(&u, 0, 2), Label::Negative).unwrap();
        let certain_neg =
            (0..u.num_classes()).find(|&c| s2.class_state(c) == ClassState::CertainNegative);
        if let Some(cn) = certain_neg {
            let e = s2.apply_batch(&[(cn, Label::Positive)]).unwrap_err();
            assert_eq!(e, InferenceError::InconsistentSample { class: cn });
            assert!(s2.is_consistent());
            assert_eq!(s2.label(cn), None);
        }
    }

    #[test]
    fn inconsistent_labeling_is_detected() {
        // §3.4's certain classes mislabeled: positive on (t2,t2') makes
        // (t4,t1') certain-positive; answering it negative has no
        // consistent explanation.
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        state.apply(class_of(&u, 1, 1), Label::Positive).unwrap();
        let certain_pos = class_of(&u, 3, 0);
        assert_eq!(state.class_state(certain_pos), ClassState::CertainPositive);
        state.apply(certain_pos, Label::Negative).unwrap();
        assert!(!state.is_consistent());
    }

    #[test]
    fn omega_signature_class_is_certain_from_the_start() {
        use jqi_relation::{InstanceBuilder, Value};
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A"]);
        b.relation_p("P", &["B"]);
        b.row_r(&[Value::int(5)]);
        b.row_p(&[Value::int(5)]);
        let u = Arc::new(Universe::build(b.build().unwrap()));
        let state = InferenceState::new(Arc::clone(&u));
        assert_eq!(state.class_state(0), ClassState::CertainPositive);
        assert!(!state.any_informative());
        assert_eq!(state.uninformative_count(), 1);
    }

    #[test]
    fn as_sample_round_trips_history() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        state.apply(class_of(&u, 1, 1), Label::Positive).unwrap();
        state.apply(class_of(&u, 2, 1), Label::Negative).unwrap();
        let sample = state.as_sample();
        assert_eq!(sample.len(), 2);
        assert_eq!(sample.t_pos(), state.theta_possible());
        assert_eq!(sample.positives(), state.positives());
        assert_eq!(sample.negatives(), state.negatives());
    }

    #[test]
    fn nth_informative_is_select_on_the_mask() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        state.apply(class_of(&u, 2, 0), Label::Negative).unwrap();
        let inf: Vec<ClassId> = state.informative().collect();
        assert_eq!(inf.len(), state.informative_len());
        for (i, &c) in inf.iter().enumerate() {
            assert_eq!(state.nth_informative(i), Some(c));
        }
        assert_eq!(state.nth_informative(inf.len()), None);
    }

    #[test]
    fn gain_pair_direct_and_mask_paths_agree() {
        // The adaptive gain_pair must produce identical pairs through the
        // fused direct scan and the closure-mask assembly, empty and
        // mid-session (θ below Ω, negatives present).
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        for step in 0..3 {
            for c in state.informative().collect::<Vec<_>>() {
                let direct = state.gain_pair_direct(c);
                let masked = (
                    state.gain(c, Label::Positive),
                    state.gain(c, Label::Negative),
                );
                assert_eq!(direct, masked, "paths diverge for {c} at step {step}");
            }
            let c = state.nth_informative(0).unwrap();
            let label = if step == 0 {
                Label::Positive
            } else {
                Label::Negative
            };
            state.apply(c, label).unwrap();
            if !state.is_consistent() {
                break;
            }
        }
    }

    #[test]
    fn state_bytes_is_about_a_hundred_bytes_on_small_universes() {
        // The mask-compressed session state of the paper's instances fits
        // in ~100 bytes + history: five one-word masks, two Ω-word bounds,
        // and the scratch words.
        let u = Arc::new(Universe::build(crate::paper::flight_hotel()));
        let mut state = InferenceState::new(Arc::clone(&u));
        let empty = state.state_bytes();
        assert!(empty <= 128, "empty-session state is {empty} bytes");
        state
            .apply(state.nth_informative(0).unwrap(), Label::Negative)
            .unwrap();
        assert!(state.state_bytes() <= 160);
    }
}
