//! Concurrency contract of the engine façade: many sessions answering
//! queries on real threads against one shared `Engine` (one snapshot, one
//! plan cache) must agree with the sequential oracle, observe each other's
//! cached plans, and never be disturbed — let alone poisoned — by a writer
//! installing new snapshots mid-run.

use pq_engine::{parse_query, plan_query_on, run_plan, Delta, Engine};
use pq_query::evaluate_sequential;
use pq_relation::{Database, Relation, Schema};
use std::sync::atomic::{AtomicUsize, Ordering};

/// R → S → T chain fragments: R(i, i+1), S(i+1, i+2), T(i+2, i+3).
fn chain_database(m: u64) -> Database {
    let mut db = Database::new(1 << 20);
    for (name, offset) in [("R", 0), ("S", 1), ("T", 2)] {
        db.insert(Relation::from_rows(
            Schema::from_strs(name, &["a", "b"]),
            (0..m).map(|i| vec![i + offset, i + offset + 1]).collect(),
        ));
    }
    db
}

#[test]
fn concurrent_sessions_equal_the_oracle_and_share_one_plan_cache() {
    let db = chain_database(60);
    let engine = Engine::new(db.clone(), 8);
    // Four distinct texts, three distinct rename-invariant signatures (the
    // second is an alpha-renaming of the first).
    let queries = [
        "Q(x, y, z) :- R(x, y), S(y, z)",
        "P(u, v, w) :- R(u, v), S(v, w)",
        "Q(x, y, z) :- S(x, y), T(y, z)",
        "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)",
    ];
    let distinct_signatures: u64 = 3;
    let oracles: Vec<_> = queries
        .iter()
        .map(|text| {
            let parsed = parse_query(text).expect("parses");
            evaluate_sequential(&parsed.query, &db).canonicalized().to_tuples()
        })
        .collect();

    // Warm each signature once, sequentially: exactly one miss per
    // signature, so every one of the N·M threaded lookups below must hit.
    let warmer = engine.session();
    for text in &queries {
        warmer.run(text).expect("warm-up runs");
    }
    assert_eq!(engine.cache_stats().misses, distinct_signatures);
    let warmup_hits = engine.cache_stats().hits;

    const THREADS: usize = 4;
    const ROUNDS: usize = 3;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let session = engine.session();
            let oracles = &oracles;
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    for (text, oracle) in queries.iter().zip(oracles) {
                        let run = session.run(text).expect("concurrent run");
                        assert_eq!(
                            run.outcome.output.canonicalized().to_tuples(),
                            &oracle[..],
                            "thread answer diverged from the oracle on {text}"
                        );
                    }
                }
            });
        }
    });

    let stats = engine.cache_stats();
    let threaded_lookups = (THREADS * ROUNDS * queries.len()) as u64;
    assert_eq!(
        stats.hits - warmup_hits,
        threaded_lookups,
        "every threaded lookup must hit the shared cache"
    );
    assert!(
        stats.hits >= threaded_lookups - distinct_signatures,
        "N·M − distinct signatures is the contract's floor"
    );
    assert_eq!(stats.misses, distinct_signatures, "no extra planning happened");
}

#[test]
fn writer_installing_snapshots_mid_run_never_panics_or_poisons_readers() {
    // Each update appends one fresh R(x, y), S(y, z) pair, extending the
    // two-atom chain answer by exactly one row — so every reader must see
    // a *consistent* snapshot: between 40 and 40 + UPDATES rows, never a
    // torn state where only half an update is visible.
    const BASE_ROWS: usize = 40;
    const UPDATES: usize = 6;
    let engine = Engine::new(chain_database(BASE_ROWS as u64), 8);
    let text = "Q(x, y, z) :- R(x, y), S(y, z)";
    let runs_done = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let session = engine.session();
            let runs_done = &runs_done;
            scope.spawn(move || {
                for _ in 0..8 {
                    let run = session.run(text).expect("reader run survives updates");
                    let rows = run.outcome.output.len();
                    assert!(
                        (BASE_ROWS..=BASE_ROWS + UPDATES).contains(&rows),
                        "inconsistent snapshot: {rows} rows"
                    );
                    runs_done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let writer = engine.clone();
        scope.spawn(move || {
            for k in 0..UPDATES as u64 {
                writer
                    .apply(
                        Delta::insert("R", vec![vec![10_000 + k, 20_000 + k]])
                            .and_insert("S", vec![vec![20_000 + k, 30_000 + k]]),
                    )
                    .expect("valid delta");
            }
        });
    });

    assert_eq!(runs_done.load(Ordering::Relaxed), 3 * 8);
    // After the dust settles every session sees all updates.
    let settled = engine.session().run(text).expect("runs");
    assert_eq!(settled.outcome.output.len(), BASE_ROWS + UPDATES);
}

#[test]
fn old_snapshot_arc_still_answers_after_a_copy_on_write_update() {
    let engine = Engine::new(chain_database(25), 8);
    let parsed = parse_query("Q(x, y, z) :- R(x, y), S(y, z)").expect("parses");

    // An "in-flight query": snapshot and plan fetched before the update…
    let old_snapshot = engine.snapshot();
    let plan = plan_query_on(&parsed, &old_snapshot, 8).expect("plans");

    let new_snapshot = engine
        .apply(
            Delta::insert("R", (0..5u64).map(|k| vec![50_000 + k, 60_000 + k]).collect())
                .and_insert("S", (0..5u64).map(|k| vec![60_000 + k, 70_000 + k]).collect()),
        )
        .expect("valid delta");

    // …finishes on the old snapshot with the old answer (copy-on-write),
    // while new sessions see the new data.
    let old_run = run_plan(&plan, &old_snapshot, 7);
    assert_eq!(old_run.output.len(), 25);
    assert_eq!(new_snapshot.database().expect_relation("R").len(), 30);
    let fresh = engine.session().run("Q(x, y, z) :- R(x, y), S(y, z)").expect("runs");
    assert_eq!(fresh.outcome.output.len(), 30);
}

#[test]
fn one_prepared_query_can_be_shared_across_threads() {
    let engine = Engine::new(chain_database(30), 8);
    let prepared = engine
        .session()
        .prepare("Q(x, y, z) :- R(x, y), S(y, z)")
        .expect("prepares");
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let prepared = &prepared;
            scope.spawn(move || {
                for _ in 0..3 {
                    let run = prepared.run().expect("prepared run");
                    assert!(run.cache_hit, "steady state reuses the memoized plan");
                    assert_eq!(run.outcome.output.len(), 30);
                }
            });
        }
    });
}

#[test]
fn concurrent_updates_are_serialised_and_none_is_lost() {
    let engine = Engine::new(chain_database(10), 8);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let engine = engine.clone();
            scope.spawn(move || {
                for k in 0..5u64 {
                    engine
                        .apply(Delta::insert("T", vec![vec![1_000 * (t + 1) + k, 1]]))
                        .expect("valid delta");
                }
            });
        }
    });
    assert_eq!(
        engine.snapshot().database().expect_relation("T").len(),
        10 + 4 * 5,
        "copy-on-write updates from racing writers must all land"
    );
}
