//! Typed mutation deltas: the engine's O(delta) write path.
//!
//! A [`Delta`] describes an **insert-only** batch of rows, grouped by
//! relation. [`crate::Engine::apply`] consumes one to build the next
//! snapshot copy-on-write: only the touched relations' row buffers and
//! statistics are rebuilt, everything else keeps being shared with the
//! previous snapshot (see [`pq_relation::DatabaseStatistics::apply_inserts`]),
//! and plan-cache invalidation is limited to plans that actually read a
//! touched relation.
//!
//! ```
//! use pq_engine::{Delta, Engine};
//! use pq_relation::{Database, Relation, Schema};
//!
//! let mut db = Database::new(64);
//! db.insert(Relation::from_rows(
//!     Schema::from_strs("R", &["a", "b"]),
//!     vec![vec![1, 2]],
//! ));
//! let engine = Engine::new(db, 4);
//! let snapshot = engine
//!     .apply(Delta::insert("R", vec![vec![2, 3], vec![3, 4]]))
//!     .unwrap();
//! assert_eq!(snapshot.database().expect_relation("R").len(), 3);
//! ```

use pq_relation::Value;
use std::collections::BTreeMap;
use std::fmt;

/// An insert-only batch of rows, grouped by relation name.
///
/// Build one with [`Delta::insert`] (or [`Delta::new`] plus
/// [`Delta::and_insert`] for multi-relation batches) and hand it to
/// [`crate::Engine::apply`]. Values are plain domain values (`u64`); the
/// CLI front-ends encode string tokens through their
/// [`pq_relation::ValueDictionary`] before building the delta. Rows are
/// validated (relation exists, arity matches) at apply time, against the
/// snapshot the delta lands on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    inserts: BTreeMap<String, Vec<Vec<Value>>>,
}

impl Delta {
    /// An empty delta (applying it is a no-op returning the current
    /// snapshot).
    pub fn new() -> Self {
        Delta::default()
    }

    /// A delta inserting `rows` into `relation` — the common single-relation
    /// case as one expression.
    pub fn insert(relation: impl Into<String>, rows: Vec<Vec<Value>>) -> Self {
        Delta::new().and_insert(relation, rows)
    }

    /// Add more inserted rows (builder-style; rows for the same relation
    /// accumulate).
    pub fn and_insert(mut self, relation: impl Into<String>, rows: Vec<Vec<Value>>) -> Self {
        self.inserts.entry(relation.into()).or_default().extend(rows);
        self
    }

    /// True when the delta inserts no row at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.values().all(Vec::is_empty)
    }

    /// Total number of inserted rows across all relations.
    pub fn num_rows(&self) -> usize {
        self.inserts.values().map(Vec::len).sum()
    }

    /// Names of the relations this delta touches (with at least one row),
    /// in sorted order.
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.inserts
            .iter()
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(name, _)| name.as_str())
    }

    /// The grouped rows (relations with empty row lists included).
    pub(crate) fn inserts(&self) -> &BTreeMap<String, Vec<Vec<Value>>> {
        &self.inserts
    }
}

/// Why a [`Delta`] could not be applied. Validation happens before any
/// state is touched, so a rejected delta leaves the engine exactly as it
/// was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta names a relation the snapshot does not hold.
    UnknownRelation {
        /// The missing relation.
        relation: String,
        /// What is loaded instead.
        available: Vec<String>,
    },
    /// A row's length does not match the stored relation's arity.
    ArityMismatch {
        /// The relation being inserted into.
        relation: String,
        /// Arity of the stored relation.
        stored: usize,
        /// Length of the offending row.
        given: usize,
    },
    /// The delta was valid but could not be made durable: the write-ahead
    /// log rejected the append (an I/O error). The engine's state is
    /// unchanged — log-before-apply means a delta that never reached the
    /// log is never applied.
    Wal {
        /// The underlying I/O failure, rendered.
        message: String,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownRelation {
                relation,
                available,
            } => write!(
                f,
                "relation `{relation}` is not loaded (available: {})",
                available.join(", ")
            ),
            DeltaError::ArityMismatch {
                relation,
                stored,
                given,
            } => write!(
                f,
                "relation `{relation}` has {stored} column(s) but a delta row has {given} value(s)"
            ),
            DeltaError::Wal { message } => {
                write!(f, "write-ahead log append failed, delta not applied: {message}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_rows_per_relation() {
        let delta = Delta::insert("R", vec![vec![1, 2]])
            .and_insert("S", vec![vec![3]])
            .and_insert("R", vec![vec![4, 5]]);
        assert_eq!(delta.num_rows(), 3);
        assert!(!delta.is_empty());
        assert_eq!(delta.relations().collect::<Vec<_>>(), vec!["R", "S"]);
        assert_eq!(delta.inserts()["R"], vec![vec![1, 2], vec![4, 5]]);
    }

    #[test]
    fn empty_deltas_are_detected() {
        assert!(Delta::new().is_empty());
        // A relation with zero rows does not count as touched.
        let noop = Delta::insert("R", vec![]);
        assert!(noop.is_empty());
        assert_eq!(noop.relations().count(), 0);
    }

    #[test]
    fn errors_render_readably() {
        let e = DeltaError::UnknownRelation {
            relation: "X".into(),
            available: vec!["R".into(), "S".into()],
        };
        assert!(e.to_string().contains("not loaded"));
        let e = DeltaError::ArityMismatch {
            relation: "R".into(),
            stored: 2,
            given: 3,
        };
        assert!(e.to_string().contains("2 column(s)"), "{e}");
    }
}
