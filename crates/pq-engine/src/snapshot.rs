//! An immutable, fully analysed database snapshot.
//!
//! A [`Snapshot`] pairs a [`Database`] with its [`DatabaseStatistics`] —
//! per-relation cardinalities, bit sizes and full per-attribute degree maps,
//! plus the combined statistics fingerprint — computed **once** when the
//! snapshot is built. Every consumer that used to make its own O(data) pass
//! (the plan-cache fingerprint, per-variable heavy-hitter detection, the
//! multi-round estimator's distinct counts) reads from the shared catalogue
//! instead, so planning against a warm snapshot touches no tuple at all.
//!
//! Snapshots are immutable and shared behind `Arc`: arbitrarily many
//! sessions plan and execute against one snapshot concurrently, and a
//! writer installing a new snapshot (see `Engine::apply`) never disturbs
//! readers still holding the old one.

use pq_relation::{Database, DatabaseStatistics, RelationStatistics};

/// An immutable database plus its statistics catalogue, analysed once.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    database: Database,
    statistics: DatabaseStatistics,
}

impl Snapshot {
    /// Analyse `database` (one pass over every relation) and freeze it.
    pub fn new(database: Database) -> Self {
        let statistics = DatabaseStatistics::compute(&database);
        Snapshot {
            database,
            statistics,
        }
    }

    /// Freeze a database together with an **already maintained** statistics
    /// catalogue — the incremental-mutation path (`Engine::apply`), where
    /// recomputing the catalogue from scratch is exactly the O(data) cost
    /// being avoided.
    ///
    /// The caller guarantees `statistics` describes `database`; in debug
    /// builds this is cross-checked against a fresh computation.
    pub fn from_parts(database: Database, statistics: DatabaseStatistics) -> Self {
        debug_assert_eq!(
            DatabaseStatistics::compute(&database).fingerprint,
            statistics.fingerprint,
            "statistics handed to Snapshot::from_parts do not match the database"
        );
        Snapshot {
            database,
            statistics,
        }
    }

    /// The frozen database.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The statistics catalogue computed when the snapshot was built.
    pub fn statistics(&self) -> &DatabaseStatistics {
        &self.statistics
    }

    /// Statistics of one relation (None when it is not loaded).
    pub fn relation_statistics(&self, name: &str) -> Option<&RelationStatistics> {
        self.statistics.relation(name)
    }

    /// The memoized statistics fingerprint — part of every plan-cache key,
    /// so a new snapshot with different statistics invalidates stale plans
    /// without any explicit bookkeeping.
    pub fn fingerprint(&self) -> u64 {
        self.statistics.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_relation::{database_fingerprint, Relation, Schema};

    #[test]
    fn snapshot_memoizes_the_fingerprint_and_statistics() {
        let mut db = Database::new(1 << 10);
        db.insert(Relation::from_rows(
            Schema::from_strs("R", &["a", "b"]),
            vec![vec![1, 2], vec![1, 3], vec![2, 4]],
        ));
        let expected = database_fingerprint(&db);
        let snapshot = Snapshot::new(db);
        assert_eq!(snapshot.fingerprint(), expected);
        let stats = snapshot.relation_statistics("R").expect("R analysed");
        assert_eq!(stats.cardinality, 3);
        assert_eq!(stats.degrees["a"].distinct(), 2);
        assert_eq!(stats.degrees["a"].frequency(1), 2);
        assert!(snapshot.relation_statistics("missing").is_none());
    }
}
