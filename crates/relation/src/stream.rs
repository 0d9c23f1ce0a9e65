//! Streaming row ingestion: chunks of interned tuples flowing into a
//! universe build without ever materializing a full relation.
//!
//! The materialized path ([`crate::Instance`]) holds every row of both
//! relations in RAM before profile extraction starts. At real TPC-H scale
//! factors that caps the system long before the *inference* structures do —
//! the number of distinct join profiles (and T-equivalence classes) is tiny
//! compared to the row count. This module provides the relation-layer half
//! of the streaming alternative:
//!
//! * [`StreamSchema`] — the static part of an instance: two disjoint
//!   schemas sharing one interner, plus the pair space Ω. It is what a
//!   chunk producer and a profile-folding consumer agree on up front.
//! * [`RowChunk`] — a batch of interned rows for one side ([`Side::R`] or
//!   [`Side::P`]), the unit flowing through bounded channels from
//!   generator workers to ingestion workers.
//! * [`profile_key`] — the per-row canonicalization (symbols outside the
//!   shared set collapse to [`PROFILE_HOLE`]) that makes rows with equal
//!   keys interchangeable against every opposite-side row; the consumer
//!   folds chunks into `profile key → weight` maps and drops the rows.
//!
//! The consumer half — accumulating weighted profiles and assembling the
//! universe — lives in `jqi_core::ingest`.

use crate::bitset::BitSet;
use crate::error::{RelationError, Result};
use crate::instance::{Instance, PairSpace};
use crate::interner::Interner;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::sync::Arc;

/// Sentinel marking a profile-key position whose symbol cannot witness any
/// equality (it occurs on only one side).
pub const PROFILE_HOLE: u32 = u32::MAX;

/// Which relation of the instance a [`RowChunk`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The left relation `R`.
    R,
    /// The right relation `P`.
    P,
}

impl Side {
    /// Display name (`"R"` / `"P"`).
    pub fn name(self) -> &'static str {
        match self {
            Side::R => "R",
            Side::P => "P",
        }
    }

    /// The other side.
    pub fn opposite(self) -> Side {
        match self {
            Side::R => Side::P,
            Side::P => Side::R,
        }
    }
}

/// A batch of interned rows for one side of the instance — the unit of a
/// profile stream.
///
/// Rows are already interned against the [`StreamSchema`]'s interner (the
/// interner is thread-safe, so generator workers intern concurrently).
/// Chunk *order within a side* defines the global row numbering the
/// deterministic profile merge relies on; the producer must emit each
/// side's chunks in a fixed order regardless of how many workers generated
/// them.
#[derive(Debug, Clone)]
pub struct RowChunk {
    /// Which relation the rows extend.
    pub side: Side,
    /// The rows, in generation order.
    pub rows: Vec<Tuple>,
}

impl RowChunk {
    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Heap bytes the chunk's rows occupy (symbols plus the per-row fat
    /// pointer) — what a bounded channel of such chunks holds resident.
    pub fn heap_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|t| std::mem::size_of::<Tuple>() + t.arity() * std::mem::size_of::<u32>())
            .sum()
    }
}

/// The static part of a two-relation instance: schemas, shared interner,
/// and the pair space Ω — everything a streaming build needs before the
/// first row exists.
#[derive(Debug, Clone)]
pub struct StreamSchema {
    interner: Arc<Interner>,
    r: Schema,
    p: Schema,
    pairs: PairSpace,
}

impl StreamSchema {
    /// Creates a schema pair over a shared interner. Fails if the attribute
    /// sets overlap (the paper assumes `attrs(R) ∩ attrs(P) = ∅`).
    pub fn new(interner: Arc<Interner>, r: Schema, p: Schema) -> Result<Self> {
        for a in r.attrs() {
            if p.attrs().contains(a) {
                return Err(RelationError::OverlappingAttributes {
                    attribute: a.clone(),
                });
            }
        }
        let pairs = PairSpace::new(r.arity(), p.arity());
        Ok(StreamSchema {
            interner,
            r,
            p,
            pairs,
        })
    }

    /// Convenience constructor from names, with a fresh interner.
    pub fn from_names(
        r_name: &str,
        r_attrs: &[&str],
        p_name: &str,
        p_attrs: &[&str],
    ) -> Result<Self> {
        Self::new(
            Arc::new(Interner::new()),
            Schema::new(r_name, r_attrs)?,
            Schema::new(p_name, p_attrs)?,
        )
    }

    /// The shared value interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// A clone of the interner handle (for generator workers).
    pub fn interner_handle(&self) -> Arc<Interner> {
        Arc::clone(&self.interner)
    }

    /// Schema of `R`.
    pub fn r(&self) -> &Schema {
        &self.r
    }

    /// Schema of `P`.
    pub fn p(&self) -> &Schema {
        &self.p
    }

    /// The schema for `side`.
    pub fn side(&self, side: Side) -> &Schema {
        match side {
            Side::R => &self.r,
            Side::P => &self.p,
        }
    }

    /// The attribute-pair space Ω.
    pub fn pairs(&self) -> PairSpace {
        self.pairs
    }

    /// Interns a row of values for `side` into a [`Tuple`], checking arity.
    pub fn intern_row(&self, side: Side, values: &[Value]) -> Result<Tuple> {
        let schema = self.side(side);
        if values.len() != schema.arity() {
            return Err(RelationError::ArityMismatch {
                relation: schema.name().to_string(),
                expected: schema.arity(),
                got: values.len(),
            });
        }
        Ok(Tuple::intern(&self.interner, values))
    }

    /// Assembles an [`Instance`] from (typically profile-representative)
    /// rows. The streaming build uses this to give the finished universe a
    /// compact instance holding one row per distinct join profile.
    pub fn into_instance(self, r_rows: Vec<Tuple>, p_rows: Vec<Tuple>) -> Result<Instance> {
        let mut r = Relation::new(self.r);
        for t in r_rows {
            r.push_tuple(t)?;
        }
        let mut p = Relation::new(self.p);
        for t in p_rows {
            p.push_tuple(t)?;
        }
        Instance::new(self.interner, r, p)
    }
}

/// The join-profile key of `row` against a set of `shared` symbols: the
/// row's symbol tuple with every symbol outside `shared` collapsed to
/// [`PROFILE_HOLE`].
///
/// Two rows with equal keys have identical signatures `T((r, p))` against
/// every opposite-side row: a signature bit `(i, j)` only depends on
/// whether `r[i] = p[j]`, and a symbol absent from the other side matches
/// no cell there. So a weighted map over keys loses nothing the universe
/// construction needs, and both the materialized and the streaming build
/// deduplicate rows with this one function. `shared` must be a bitset over
/// symbol indices containing at least every symbol occurring on **both**
/// sides (see [`Instance::shared_symbols`]); symbols beyond its capacity
/// are treated as non-shared.
pub fn profile_key(row: &Tuple, shared: &BitSet) -> Box<[u32]> {
    row.symbols()
        .iter()
        .map(|sym| {
            if sym.index() < shared.capacity() && shared.contains(sym.index()) {
                sym.0
            } else {
                PROFILE_HOLE
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> StreamSchema {
        StreamSchema::from_names("R", &["A1", "A2"], "P", &["B1"]).unwrap()
    }

    #[test]
    fn overlapping_attributes_rejected() {
        let e = StreamSchema::from_names("R", &["A", "X"], "P", &["X"]).unwrap_err();
        assert!(matches!(e, RelationError::OverlappingAttributes { .. }));
    }

    #[test]
    fn intern_row_checks_arity() {
        let s = schema();
        let e = s.intern_row(Side::R, &[Value::int(1)]).unwrap_err();
        assert!(matches!(e, RelationError::ArityMismatch { .. }));
        assert!(s.intern_row(Side::P, &[Value::int(1)]).is_ok());
    }

    #[test]
    fn into_instance_round_trips() {
        let s = schema();
        let r0 = s
            .intern_row(Side::R, &[Value::int(1), Value::int(2)])
            .unwrap();
        let p0 = s.intern_row(Side::P, &[Value::int(1)]).unwrap();
        let inst = s.into_instance(vec![r0], vec![p0]).unwrap();
        assert_eq!(inst.r().len(), 1);
        assert_eq!(inst.p().len(), 1);
        assert_eq!(inst.pairs().len(), 2);
        // The shared value 1 matches on (A1, B1).
        assert!(inst.signature(0, 0).contains(inst.pair_index(0, 0)));
    }

    #[test]
    fn profile_key_holes_non_shared_symbols() {
        let s = schema();
        let row = s
            .intern_row(Side::R, &[Value::int(1), Value::int(7)])
            .unwrap();
        let mut shared = BitSet::empty(s.interner().len());
        shared.insert(row.get(0).index()); // only the first symbol is shared
        let key = profile_key(&row, &shared);
        assert_eq!(key[0], row.get(0).0);
        assert_eq!(key[1], PROFILE_HOLE);
    }

    #[test]
    fn profile_key_treats_out_of_capacity_as_holes() {
        let s = schema();
        let row = s
            .intern_row(Side::R, &[Value::int(1), Value::int(2)])
            .unwrap();
        let shared = BitSet::empty(0); // capacity 0: every symbol is a hole
        let key = profile_key(&row, &shared);
        assert!(key.iter().all(|&k| k == PROFILE_HOLE));
    }

    #[test]
    fn chunk_accounting() {
        let s = schema();
        let rows = vec![
            s.intern_row(Side::P, &[Value::int(1)]).unwrap(),
            s.intern_row(Side::P, &[Value::int(2)]).unwrap(),
        ];
        let chunk = RowChunk {
            side: Side::P,
            rows,
        };
        assert_eq!(chunk.len(), 2);
        assert!(!chunk.is_empty());
        assert!(chunk.heap_bytes() >= 2 * std::mem::size_of::<Tuple>());
        assert_eq!(chunk.side.name(), "P");
    }
}
