//! The LRU plan cache.
//!
//! Planning is cheap relative to execution but not free: it scans every
//! relation for statistics, solves two linear programs and prices candidate
//! plans. Repeated queries over unchanged data — the common case for a
//! serving system — should skip all of that, so the engine caches plans
//! keyed by the **query signature** (structure up to variable renaming, see
//! [`crate::parser::ParsedQuery::signature`]), the **statistics
//! fingerprint** of the database ([`pq_relation::database_fingerprint`]),
//! and the server budget `p`.
//!
//! Data changes invalidate **per touched relation**, not wholesale: when a
//! mutation installs a new snapshot, [`PlanCache::on_snapshot_change`]
//! evicts exactly the plans that read a touched relation (plus any stale
//! leftovers from even older snapshots, so dead entries never squeeze live
//! ones out of the LRU) and re-keys every other entry to the new
//! fingerprint — a plan for `Q(x,z) :- S(x,y), T(y,z)` keeps hitting across
//! any number of inserts into `R`.

use crate::planner::Plan;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Key of one cached plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    /// Canonical query signature.
    pub signature: String,
    /// Database statistics fingerprint.
    pub fingerprint: u64,
    /// Server budget.
    pub p: usize,
}

/// Hit/miss counters and occupancy of a [`PlanCache`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a plan.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Plans currently cached.
    pub len: usize,
    /// Maximum number of plans retained.
    pub capacity: usize,
    /// Cached plans per server budget `p`. Sessions choose their own `p`
    /// (each gets its own cache key), so this shows how the cache is split
    /// across budgets — entries for a `p` nobody uses any more linger only
    /// until the LRU evicts them.
    pub per_p: BTreeMap<usize, usize>,
    /// Plans evicted by data changes (cumulative): entries whose query read
    /// a mutated relation, plus stale-fingerprint leftovers swept eagerly
    /// on every `Engine::apply`.
    pub invalidated: u64,
}

/// A least-recently-used plan cache.
///
/// Capacities are small (plans are a few hundred bytes and real workloads
/// have few distinct query shapes), so the cache is a `VecDeque` in recency
/// order — front is most recent — with linear lookup; eviction pops the
/// back.
#[derive(Debug)]
pub struct PlanCache {
    entries: VecDeque<(PlanKey, Plan)>,
    capacity: usize,
    hits: u64,
    misses: u64,
    invalidated: u64,
}

impl PlanCache {
    /// A cache retaining at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            invalidated: 0,
        }
    }

    /// Look up a plan, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &PlanKey) -> Option<Plan> {
        match self.entries.iter().position(|(k, _)| k == key) {
            Some(i) => {
                let entry = self.entries.remove(i).expect("index in range");
                self.entries.push_front(entry);
                self.hits += 1;
                Some(self.entries[0].1.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) a plan as most-recently-used, evicting the least
    /// recently used entry when full.
    pub fn insert(&mut self, key: PlanKey, plan: Plan) {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(i);
        }
        self.entries.push_front((key, plan));
        while self.entries.len() > self.capacity {
            self.entries.pop_back();
        }
    }

    /// Maintain the cache across a snapshot change installed by a mutation.
    ///
    /// Every entry is classified in one pass:
    ///
    /// * **stale leftovers** — entries keyed by a fingerprint other than
    ///   `old_fingerprint` (from snapshots before the previous one; e.g.
    ///   inserted by a session that raced a writer) are evicted eagerly
    ///   instead of lingering until the LRU pushes live plans out;
    /// * **touched plans** — entries whose query reads any relation in
    ///   `touched` are evicted: their statistics changed, so the plan may
    ///   no longer be the one the planner would pick;
    /// * **unaffected plans** — everything else is *re-keyed* to
    ///   `new_fingerprint` and keeps hitting: the planner's decision for a
    ///   query depends only on the statistics of the relations it reads
    ///   (plus `p`), and none of those changed.
    ///
    /// Returns the number of evicted entries (also added to the cumulative
    /// [`CacheStats::invalidated`] counter).
    pub fn on_snapshot_change(
        &mut self,
        old_fingerprint: u64,
        new_fingerprint: u64,
        touched: &BTreeSet<String>,
    ) -> usize {
        let before = self.entries.len();
        self.entries.retain_mut(|(key, plan)| {
            if key.fingerprint != old_fingerprint {
                return false;
            }
            let reads_touched = plan
                .parsed
                .query
                .relation_names()
                .iter()
                .any(|name| touched.contains(name));
            if reads_touched {
                return false;
            }
            key.fingerprint = new_fingerprint;
            plan.fingerprint = new_fingerprint;
            true
        });
        let evicted = before - self.entries.len();
        self.invalidated += evicted as u64;
        evicted
    }

    /// Current counters and occupancy, including the per-`p` entry counts.
    pub fn stats(&self) -> CacheStats {
        let mut per_p: BTreeMap<usize, usize> = BTreeMap::new();
        for (key, _) in &self.entries {
            *per_p.entry(key.p).or_insert(0) += 1;
        }
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            len: self.entries.len(),
            capacity: self.capacity,
            per_p,
            invalidated: self.invalidated,
        }
    }

    /// Drop every cached plan **and** reset the hit/miss/invalidated
    /// counters — the cache looks freshly constructed afterwards.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.hits = 0;
        self.misses = 0;
        self.invalidated = 0;
    }

    /// Drop every cached plan but keep the hit/miss counters. Benchmarks
    /// use this to force cold planning on every iteration while still
    /// reporting cumulative counter totals at the end.
    pub fn clear_keep_stats(&mut self) {
        self.entries.clear();
    }
}

impl Default for PlanCache {
    /// A cache with the engine's default capacity of 64 plans.
    fn default() -> Self {
        PlanCache::new(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::planner::plan_query;
    use pq_relation::{Database, Relation, Schema};

    fn toy_plan(relation: &str) -> (PlanKey, Plan) {
        let text = format!("Q(x, y) :- {relation}(x, y)");
        let parsed = parse_query(&text).unwrap();
        let mut db = Database::new(64);
        db.insert(Relation::from_rows(
            Schema::from_strs(relation, &["a", "b"]),
            vec![vec![1, 2], vec![3, 4]],
        ));
        let plan = plan_query(&parsed, &db, 4).unwrap();
        (
            PlanKey {
                signature: parsed.signature(),
                fingerprint: plan.fingerprint,
                p: 4,
            },
            plan,
        )
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut cache = PlanCache::new(2);
        let (ka, pa) = toy_plan("A");
        let (kb, pb) = toy_plan("B");
        let (kc, pc) = toy_plan("C");
        assert!(cache.get(&ka).is_none());
        cache.insert(ka.clone(), pa);
        cache.insert(kb.clone(), pb);
        assert!(cache.get(&ka).is_some()); // A is now most recent.
        cache.insert(kc.clone(), pc); // evicts B, the LRU entry.
        assert!(cache.get(&kb).is_none());
        assert!(cache.get(&ka).is_some());
        assert!(cache.get(&kc).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.len, 2);
        assert_eq!(stats.capacity, 2);
    }

    #[test]
    fn fingerprint_partitions_the_key_space() {
        let mut cache = PlanCache::new(8);
        let (ka, pa) = toy_plan("A");
        cache.insert(ka.clone(), pa);
        let stale = PlanKey {
            fingerprint: ka.fingerprint.wrapping_add(1),
            ..ka.clone()
        };
        assert!(cache.get(&stale).is_none());
        let other_p = PlanKey { p: 8, ..ka.clone() };
        assert!(cache.get(&other_p).is_none());
        assert!(cache.get(&ka).is_some());
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut cache = PlanCache::new(4);
        let (ka, pa) = toy_plan("A");
        cache.insert(ka.clone(), pa.clone());
        cache.insert(ka.clone(), pa);
        assert_eq!(cache.stats().len, 1);
        cache.clear();
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn clear_resets_counters_but_clear_keep_stats_does_not() {
        let mut cache = PlanCache::new(4);
        let (ka, pa) = toy_plan("A");
        cache.insert(ka.clone(), pa.clone());
        assert!(cache.get(&ka).is_some());
        let (kb, _) = toy_plan("B");
        assert!(cache.get(&kb).is_none());
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));

        cache.clear_keep_stats();
        assert_eq!(cache.stats().len, 0, "entries gone");
        assert_eq!(
            (cache.stats().hits, cache.stats().misses),
            (1, 1),
            "counters survive clear_keep_stats"
        );

        cache.insert(ka.clone(), pa);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.len, 0);
        assert_eq!((stats.hits, stats.misses), (0, 0), "clear resets counters");
        assert!(stats.per_p.is_empty());
    }

    /// Three single-relation plans over **one** database, so their cache
    /// keys share a fingerprint (what `on_snapshot_change` expects of live
    /// entries).
    fn plans_on_shared_db() -> Vec<(PlanKey, Plan)> {
        let mut db = Database::new(64);
        for name in ["A", "B", "C"] {
            db.insert(Relation::from_rows(
                Schema::from_strs(name, &["a", "b"]),
                vec![vec![1, 2], vec![3, 4]],
            ));
        }
        ["A", "B", "C"]
            .iter()
            .map(|name| {
                let parsed = parse_query(&format!("Q(x, y) :- {name}(x, y)")).unwrap();
                let plan = plan_query(&parsed, &db, 4).unwrap();
                (
                    PlanKey {
                        signature: parsed.signature(),
                        fingerprint: plan.fingerprint,
                        p: 4,
                    },
                    plan,
                )
            })
            .collect()
    }

    #[test]
    fn snapshot_change_evicts_touched_and_stale_entries_and_rekeys_the_rest() {
        let mut cache = PlanCache::new(8);
        let plans = plans_on_shared_db();
        let old_fp = plans[0].0.fingerprint;
        for (key, plan) in &plans {
            cache.insert(key.clone(), plan.clone());
        }
        // A leftover from an even older snapshot (e.g. a racing reader).
        let stale_key = PlanKey {
            fingerprint: old_fp.wrapping_add(99),
            ..plans[0].0.clone()
        };
        cache.insert(stale_key, plans[0].1.clone());
        assert_eq!(cache.stats().len, 4);

        let new_fp = old_fp.wrapping_add(1);
        let touched: BTreeSet<String> = ["A".to_string()].into();
        let evicted = cache.on_snapshot_change(old_fp, new_fp, &touched);
        assert_eq!(evicted, 2, "the plan over A and the stale leftover");
        assert_eq!(cache.stats().invalidated, 2);
        assert_eq!(cache.stats().len, 2);

        // The survivors answer under the *new* fingerprint only, with their
        // embedded plan fingerprint rewritten to match.
        for (key, _) in &plans[1..] {
            assert!(cache.get(key).is_none(), "old key must not resolve");
            let rekeyed = PlanKey {
                fingerprint: new_fp,
                ..key.clone()
            };
            let plan = cache.get(&rekeyed).expect("rekeyed entry hits");
            assert_eq!(plan.fingerprint, new_fp);
        }
        let rekeyed_a = PlanKey {
            fingerprint: new_fp,
            ..plans[0].0.clone()
        };
        assert!(cache.get(&rekeyed_a).is_none(), "touched plan was evicted");

        // `clear` resets the cumulative counter, `clear_keep_stats` keeps it.
        cache.clear_keep_stats();
        assert_eq!(cache.stats().invalidated, 2);
        cache.clear();
        assert_eq!(cache.stats().invalidated, 0);
    }

    #[test]
    fn stats_report_entry_counts_per_server_budget() {
        let mut cache = PlanCache::new(8);
        let (ka, pa) = toy_plan("A");
        let (kb, pb) = toy_plan("B");
        let (kc, pc) = toy_plan("C");
        cache.insert(ka, pa);
        cache.insert(PlanKey { p: 8, ..kb }, pb);
        cache.insert(PlanKey { p: 8, ..kc }, pc);
        let per_p = cache.stats().per_p;
        assert_eq!(per_p.get(&4), Some(&1));
        assert_eq!(per_p.get(&8), Some(&2));
        assert_eq!(per_p.values().sum::<usize>(), cache.stats().len);
    }
}
