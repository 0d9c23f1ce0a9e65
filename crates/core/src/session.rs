//! Step-by-step interactive inference sessions.
//!
//! A [`Session`] is Algorithm 1 one question at a time: the strategy asks
//! an informative tuple, the caller shows it to the user and hands back
//! the label, and the session updates `T(S⁺)` and the certain classes.
//! A real application (CLI, web UI, crowdsourcing task queue) interleaves
//! those steps with its own control flow; [`crate::engine::run_inference`]
//! drives the same session against an [`crate::engine::Oracle`].
//!
//! A session co-owns its universe through an [`Arc`], so it can live in a
//! service's session table, move across threads and outlive the scope
//! that built it; its strategy is a [`DynStrategy`], so sessions with
//! different strategies share one type.
//!
//! ```
//! use jqi_core::session::Session;
//! use jqi_core::strategy::TopDown;
//! use jqi_core::universe::Universe;
//! use jqi_core::Label;
//! use jqi_core::paper::flight_hotel;
//! use std::sync::Arc;
//!
//! let universe = Arc::new(Universe::build(flight_hotel()));
//! let mut session = Session::new(Arc::clone(&universe), Box::new(TopDown::new()));
//! while let Some(candidate) = session.next().unwrap() {
//!     // Show `candidate.values(&universe)` to the user; here: accept
//!     // flights into the hotel's city with a matching discount airline
//!     // (query Q2).
//!     let values = candidate.values(&universe);
//!     let keep = values[1] == values[3] && values[2] == values[4];
//!     session
//!         .answer(if keep { Label::Positive } else { Label::Negative })
//!         .unwrap();
//! }
//! let theta = session.inferred_predicate();
//! assert_eq!(universe.instance().predicate_string(&theta),
//!            "{Flight.To=Hotel.City ∧ Flight.Airline=Hotel.Discount}");
//! ```

use crate::error::{InferenceError, Result};
use crate::sample::{Label, Sample};
use crate::state::InferenceState;
use crate::strategy::{DynStrategy, StrategyConfig};
use crate::universe::{ClassId, Universe};
use jqi_relation::{BitSet, Value};
use std::sync::Arc;

/// A tuple presented to the user for labeling.
///
/// Carries only the class and representative indices; the displayable
/// attribute values are resolved on demand via [`Candidate::values`], so
/// the question hot path (a server asking thousands of questions per
/// second, most of them answered by class id) never allocates or resolves
/// symbols it does not show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The T-equivalence class being asked about.
    pub class: ClassId,
    /// The representative `(ri, pi)` product tuple shown to the user.
    pub tuple: (usize, usize),
}

impl Candidate {
    /// The concatenated attribute values of the representative tuple —
    /// what a UI renders next to the question.
    pub fn values(&self, universe: &Universe) -> Vec<Value> {
        let (ri, pi) = self.tuple;
        universe.instance().product_tuple_values(ri, pi)
    }
}

/// An in-progress interactive inference run.
///
/// The session owns one [`InferenceState`] for its whole lifetime: answers
/// are applied incrementally, and the halt test, known-label queries and
/// inferred predicate are O(1) reads on the maintained state.
pub struct Session {
    strategy: DynStrategy,
    state: InferenceState,
    pending: Option<ClassId>,
}

/// An alias of [`Session`], kept for the end-to-end benchmark, which
/// names it.
pub type OwnedSession = Session;

impl Session {
    /// Starts a session over `universe` with `strategy`.
    pub fn new(universe: Arc<Universe>, strategy: DynStrategy) -> Self {
        Session {
            strategy,
            state: InferenceState::new(universe),
            pending: None,
        }
    }

    /// Starts a session with the strategy described by `config`.
    pub fn with_config(universe: Arc<Universe>, config: &StrategyConfig) -> Self {
        Self::new(universe, config.build())
    }

    /// Asks the strategy for the next tuple to label. Returns `None` when
    /// the halt condition Γ holds; errors if the previous candidate has not
    /// been answered yet.
    ///
    /// Intentionally named after Algorithm 1's "next tuple" step; a session
    /// is not an `Iterator` because answering is required between calls.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Candidate>> {
        if self.pending.is_some() {
            return Err(InferenceError::CandidateAlreadyPending);
        }
        match self.strategy.next(&self.state)? {
            None => Ok(None),
            Some(c) => {
                self.pending = Some(c);
                Ok(Some(self.candidate(c)))
            }
        }
    }

    /// The unanswered candidate from the last [`Session::next`] call, if
    /// any — re-presentable without consuming a strategy step, so a server
    /// can re-deliver the outstanding question idempotently (at-least-once
    /// task queues, reconnecting clients).
    pub fn pending_candidate(&self) -> Option<Candidate> {
        self.pending.map(|c| self.candidate(c))
    }

    /// The class of the outstanding question, if any — what
    /// [`Session::pending_candidate`] re-presents and
    /// [`Session::replay`] re-arms after a restore.
    pub fn pending_class(&self) -> Option<ClassId> {
        self.pending
    }

    fn candidate(&self, c: ClassId) -> Candidate {
        let (ri, pi) = self.state.universe().representative(c);
        Candidate {
            class: c,
            tuple: (ri, pi),
        }
    }

    /// Records the user's answer for the pending candidate, checking
    /// consistency (Algorithm 1, lines 5–7).
    pub fn answer(&mut self, label: Label) -> Result<()> {
        let c = self
            .pending
            .take()
            .ok_or(InferenceError::NoPendingCandidate)?;
        self.state.apply(c, label)?;
        if !self.state.is_consistent() {
            return Err(InferenceError::InconsistentSample { class: c });
        }
        Ok(())
    }

    /// Folds a batch of class-addressed answers into the session in one
    /// call — the shape in which answers arrive asynchronously, out of
    /// order, or from several crowd workers at once. Delegates to
    /// [`InferenceState::apply_batch`] (idempotent for agreeing duplicates,
    /// [`InferenceError::ConflictingLabel`] for contradictions,
    /// consistency-checked per answer) and returns the number of answers
    /// applied.
    ///
    /// The pending candidate, if any, stays pending unless the batch made
    /// it uninformative (labeled it directly, or rendered it certain) — in
    /// which case it is withdrawn and the next [`Session::next`] call asks
    /// a fresh question.
    pub fn apply_batch(&mut self, answers: &[(ClassId, Label)]) -> Result<usize> {
        let applied = self.state.apply_batch(answers);
        if let Some(p) = self.pending {
            if !self.state.is_consistent() || !self.state.is_informative(p) {
                self.pending = None;
            }
        }
        applied
    }

    /// Whether the session is finished (no informative tuple remains and no
    /// candidate is pending).
    pub fn is_done(&self) -> bool {
        self.pending.is_none() && !self.state.any_informative()
    }

    /// The predicate inferred so far: `T(S⁺)`, the most specific predicate
    /// consistent with the answers. The user may stop early and take this
    /// (§4.1: "the halt condition Γ may be weaker in practice").
    pub fn inferred_predicate(&self) -> BitSet {
        self.state.theta_possible().clone()
    }

    /// What the engine already knows about class `c` without asking:
    /// its recorded or certain label, if any.
    pub fn known_label(&self, c: ClassId) -> Option<Label> {
        self.state.known_label(c)
    }

    /// Number of answers recorded so far.
    pub fn interactions(&self) -> usize {
        self.state.len()
    }

    /// The questions and answers so far, in order.
    pub fn history(&self) -> &[(ClassId, Label)] {
        self.state.history()
    }

    /// The incrementally maintained session state — the consistent interval,
    /// class partition, entropies, and counts.
    pub fn state(&self) -> &InferenceState {
        &self.state
    }

    /// Resident heap bytes of the session's derived inference state (see
    /// [`InferenceState::state_bytes`]) — what a session table's footprint
    /// accounting sums per live session. Excludes the shared universe and
    /// the label history.
    pub fn state_bytes(&self) -> usize {
        self.state.state_bytes()
    }

    /// Total resident bytes of the materialized session: the session
    /// struct itself (masks headers, scratch cells, strategy handle), the
    /// derived-state heap, and the label-history heap (by allocation
    /// capacity, [`InferenceState::history_heap_bytes`], so unshrunken
    /// growth slack is counted too). Excludes the shared universe. This is
    /// the footprint a hibernated tier reclaims down to the bare replay
    /// log — compare [`Session::into_replay_parts`].
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.state.state_bytes() + self.state.history_heap_bytes()
    }

    /// The current sample, reconstructed in the from-scratch representation
    /// (for interoperability with [`crate::certain`] / [`crate::entropy`]).
    pub fn sample(&self) -> Sample {
        self.state.as_sample()
    }

    /// The universe the session runs over.
    pub fn universe(&self) -> &Universe {
        self.state.universe()
    }

    /// Decomposes the session into the parts a hibernated session tier
    /// keeps: the label history (the replay log) and the outstanding
    /// question, dropping every derived mask and the strategy object.
    /// Feeding both back through [`Session::replay`] (with the same
    /// strategy configuration) rebuilds an indistinguishable session —
    /// every strategy is a deterministic function of its configuration and
    /// the replayed state.
    pub fn into_replay_parts(self) -> (Vec<(ClassId, Label)>, Option<ClassId>) {
        (self.state.into_history(), self.pending)
    }

    /// Rebuilds a session deterministically from its recorded label
    /// sequence — the restore half of snapshot/restore.
    ///
    /// The history is folded back through [`Session::apply_batch`], so the
    /// restored state is identical to the state the labels produced the
    /// first time, and — because every strategy is a deterministic function
    /// of its configuration and the current state — the session continues
    /// exactly as an uninterrupted one would. `pending` re-arms the
    /// question that was outstanding at snapshot time (out-of-range
    /// classes error; a pending class the history has since made
    /// uninformative is dropped, its question being moot), so re-delivery
    /// survives the restart too. Errors if the history is not a valid
    /// consistent label sequence for this universe.
    pub fn replay(
        universe: Arc<Universe>,
        config: &StrategyConfig,
        history: &[(ClassId, Label)],
        pending: Option<ClassId>,
    ) -> Result<Session> {
        let mut session = Self::with_config(universe, config);
        session.apply_batch(history)?;
        if let Some(c) = pending {
            if c >= session.state.num_classes() {
                return Err(InferenceError::ClassOutOfBounds {
                    class: c,
                    len: session.state.num_classes(),
                });
            }
            if session.state.is_informative(c) {
                session.pending = Some(c);
            }
        }
        Ok(session)
    }

    /// Re-targets the session at `universe` when it has the same class
    /// structure as the one the session runs over (a count-only delta):
    /// the masks carry over verbatim ([`InferenceState::rebind`]), and so
    /// do the history and the pending question, whose class ids name the
    /// same signatures on both. The strategy is rebuilt from `config`,
    /// exactly as [`Session::replay`] would.
    ///
    /// Returns `false`, leaving the session untouched, when the class
    /// structure changed: remap the replay parts with
    /// [`remap_replay_parts`] and replay them instead.
    pub fn rebind(&mut self, universe: Arc<Universe>, config: &StrategyConfig) -> bool {
        let Some(state) = self.state.rebind(universe) else {
            return false;
        };
        self.state = state;
        self.strategy = config.build();
        true
    }
}

/// Carries a replay log from `old` onto `new` by class **signature** —
/// class ids shift when classes are born or die, signatures are the stable
/// identity. Returns the remapped history, the remapped pending question,
/// and how many labels were dropped.
///
/// A label whose class has no signature-equal counterpart in `new` (all of
/// its tuples were deleted) is dropped: a label about data that no longer
/// exists constrains nothing, and dropping labels only widens the
/// consistent interval. A pending question on such a class is withdrawn.
/// Feed the result to [`Session::replay`] on `new`.
pub fn remap_replay_parts(
    old: &Universe,
    new: &Universe,
    mut history: Vec<(ClassId, Label)>,
    pending: Option<ClassId>,
) -> (Vec<(ClassId, Label)>, Option<ClassId>, usize) {
    let before = history.len();
    history.retain_mut(|(c, _)| match new.class_for_signature(old.sig(*c)) {
        Some(nc) => {
            *c = nc;
            true
        }
        None => false,
    });
    let dropped = before - history.len();
    let pending = pending.and_then(|c| new.class_for_signature(old.sig(c)));
    (history, pending, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::example_2_1;
    use crate::strategy::{BottomUp, Strategy, TopDown};
    use crate::universe::Universe;

    #[test]
    fn drives_to_completion_like_the_engine() {
        let u = Arc::new(Universe::build(example_2_1()));
        let goal = crate::predicate_from_names(u.instance(), &[("A1", "B1")]).unwrap();
        let mut session = Session::new(Arc::clone(&u), Box::new(TopDown::new()));
        while let Some(cand) = session.next().unwrap() {
            let label = if goal.is_subset(u.sig(cand.class)) {
                Label::Positive
            } else {
                Label::Negative
            };
            session.answer(label).unwrap();
        }
        assert!(session.is_done());
        // Same outcome as Algorithm 1 written out over the state alone.
        let mut state = InferenceState::new(Arc::clone(&u));
        let mut strategy = TopDown::new();
        while let Some(c) = strategy.next(&state).unwrap() {
            let label = if goal.is_subset(u.sig(c)) {
                Label::Positive
            } else {
                Label::Negative
            };
            state.apply(c, label).unwrap();
            assert!(state.is_consistent());
        }
        assert_eq!(&session.inferred_predicate(), state.theta_possible());
        assert_eq!(session.interactions(), state.len());
        assert_eq!(session.history(), state.history());
    }

    #[test]
    fn double_next_is_rejected() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut session = Session::new(Arc::clone(&u), Box::new(BottomUp::new()));
        session.next().unwrap().unwrap();
        let e = session.next().unwrap_err();
        assert_eq!(e, InferenceError::CandidateAlreadyPending);
    }

    #[test]
    fn answer_without_candidate_is_rejected() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut session = Session::new(Arc::clone(&u), Box::new(BottomUp::new()));
        let e = session.answer(Label::Positive).unwrap_err();
        assert_eq!(e, InferenceError::NoPendingCandidate);
    }

    #[test]
    fn candidate_exposes_values() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut session = Session::new(Arc::clone(&u), Box::new(BottomUp::new()));
        let cand = session.next().unwrap().unwrap();
        // BU first asks about (t3,t1') = (2,2, 1,1,0).
        assert_eq!(cand.tuple, (2, 0));
        assert_eq!(cand.values(&u).len(), 5);
        session.answer(Label::Negative).unwrap();
        assert_eq!(session.interactions(), 1);
    }

    #[test]
    fn early_stop_returns_most_specific_so_far() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut session = Session::new(Arc::clone(&u), Box::new(TopDown::new()));
        let cand = session.next().unwrap().unwrap();
        session.answer(Label::Positive).unwrap();
        // Early stop: inferred predicate is exactly the signature of the
        // one positive class.
        assert_eq!(session.inferred_predicate(), *u.sig(cand.class));
        assert!(!session.is_done());
    }

    #[test]
    fn rebind_carries_masks_over_count_only_deltas() {
        use crate::delta::UniverseDelta;
        use jqi_relation::{Side, Tuple};
        let u = Arc::new(Universe::build(example_2_1()));
        let config = StrategyConfig::Td;
        let mut session = OwnedSession::with_config(Arc::clone(&u), &config);
        let cand = session.next().unwrap().unwrap();
        session.answer(Label::Negative).unwrap();
        session.next().unwrap().unwrap();
        // Duplicate an existing R row: counts change, signatures do not.
        let mut d = UniverseDelta::new();
        d.insert(
            Side::R,
            Tuple::new(u.instance().r().rows()[0].symbols().to_vec()),
        );
        let next = Arc::new(u.apply_delta(&d).unwrap());
        let pending_before = session.pending_class();
        assert!(session.rebind(Arc::clone(&next), &config));
        assert_eq!(session.history(), &[(cand.class, Label::Negative)]);
        assert_eq!(session.pending_class(), pending_before);
        assert_eq!(session.universe().epoch(), 1);
        // The carried counters match a from-scratch replay on the new
        // universe.
        let replayed = OwnedSession::replay(
            Arc::clone(&next),
            &config,
            session.history(),
            session.pending_class(),
        )
        .unwrap();
        assert_eq!(
            session.state().uninformative_count(),
            replayed.state().uninformative_count()
        );
        assert_eq!(
            session.state().informative().collect::<Vec<_>>(),
            replayed.state().informative().collect::<Vec<_>>()
        );
    }

    #[test]
    fn structural_deltas_are_remapped_and_replayed() {
        use crate::delta::UniverseDelta;
        use jqi_relation::{Interner, Side, Tuple, Value};
        let u = Arc::new(Universe::build(example_2_1()));
        let config = StrategyConfig::Td;
        let mut session = OwnedSession::with_config(Arc::clone(&u), &config);
        let cand = session.next().unwrap().unwrap();
        session.answer(Label::Negative).unwrap();
        // A new row recombining existing shared symbols grows the class
        // structure: (2,1) yields product signatures {3,4}, {2,4} and {0}
        // against the three P rows, none of which exist in example 2.1.
        let it: &Interner = u.instance().interner();
        let row = Tuple::intern(it, &[Value::int(2), Value::int(1)]);
        let mut d = UniverseDelta::new();
        d.insert(Side::R, row);
        let next = Arc::new(u.apply_delta(&d).unwrap());
        assert_ne!(next.sigs(), u.sigs());
        // Masks cannot carry over a changed class structure: rebind
        // refuses and leaves the session on the old universe.
        assert!(!session.rebind(Arc::clone(&next), &config));
        assert_eq!(session.universe().epoch(), 0);
        let (history, pending) = session.into_replay_parts();
        let (history, pending, dropped) = remap_replay_parts(&u, &next, history, pending);
        assert_eq!(dropped, 0);
        let mut session =
            OwnedSession::replay(Arc::clone(&next), &config, &history, pending).unwrap();
        // The label survived, remapped by signature.
        assert_eq!(session.interactions(), 1);
        let (nc, label) = session.history()[0];
        assert_eq!(label, Label::Negative);
        assert_eq!(next.sig(nc), u.sig(cand.class));
        // The session keeps driving to completion on the new universe.
        let goal = crate::predicate_from_names(next.instance(), &[("A1", "B1")]).unwrap();
        while let Some(c) = session.next().unwrap() {
            let keep = goal.is_subset(next.sig(c.class));
            session
                .answer(if keep {
                    Label::Positive
                } else {
                    Label::Negative
                })
                .unwrap();
        }
        assert!(session.is_done());
    }

    #[test]
    fn remap_drops_labels_whose_class_vanished() {
        use crate::delta::UniverseDelta;
        use jqi_relation::{Interner, Side, Tuple, Value};
        // Base with an extra R row whose symbols are unique to it.
        let mut b = jqi_relation::InstanceBuilder::new();
        b.relation_r("R", &["A1", "A2"]);
        b.relation_p("P", &["B1"]);
        b.row_r(&[Value::int(0), Value::int(1)]);
        b.row_r(&[Value::int(50), Value::int(51)]);
        b.row_p(&[Value::int(1)]);
        let inst = b.build().unwrap();
        let it: &Interner = inst.interner();
        let doomed = Tuple::intern(it, &[Value::int(50), Value::int(51)]);
        let u = Arc::new(Universe::build(inst));
        let config = StrategyConfig::Td;
        let mut session = OwnedSession::with_config(Arc::clone(&u), &config);
        // Label the class of the doomed row's product tuples.
        let doomed_class = u.class_of(1, 0).unwrap();
        session
            .apply_batch(&[(doomed_class, Label::Negative)])
            .unwrap();
        let mut d = UniverseDelta::new();
        d.delete(Side::R, doomed);
        let next = Arc::new(u.apply_delta(&d).unwrap());
        let (history, _) = session.into_replay_parts();
        let (history, pending, dropped) =
            remap_replay_parts(&u, &next, history, Some(doomed_class));
        assert_eq!(dropped, 1);
        assert_eq!(
            pending, None,
            "a question about a vanished class is withdrawn"
        );
        let session = OwnedSession::replay(next, &config, &history, pending).unwrap();
        assert_eq!(session.interactions(), 0, "the dropped label is gone");
        assert!(session.state().is_consistent());
    }

    #[test]
    fn known_label_reports_certainty() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut session = Session::new(Arc::clone(&u), Box::new(BottomUp::new()));
        let cand = session.next().unwrap().unwrap();
        assert_eq!(session.known_label(cand.class), None);
        session.answer(Label::Positive).unwrap();
        assert_eq!(session.known_label(cand.class), Some(Label::Positive));
    }
}
