//! Pooled-execution oracle: the persistent executor pool must be invisible
//! in every answer. For random databases and every pool size, a query run
//! on an N-thread engine returns exactly the rows — in exactly the order —
//! of the same query on a fully inline single-thread engine, and the warm
//! query path spawns zero threads.

use pq_engine::Engine;
use pq_relation::{Database, Relation, Schema};
use proptest::prelude::*;

/// The three query shapes of the oracle: the paper's triangle, a length-3
/// chain and a 3-leaf star, all over relations A, B, C.
const SHAPES: [&str; 3] = [
    "Q(x, y, z) :- A(x, y), B(y, z), C(z, x)",
    "Q(w, x, y, z) :- A(w, x), B(x, y), C(y, z)",
    "Q(x, a, b, c) :- A(x, a), B(x, b), C(x, c)",
];

fn database(a: &[(u64, u64)], b: &[(u64, u64)], c: &[(u64, u64)]) -> Database {
    let mut db = Database::new(1 << 10);
    for (name, rows) in [("A", a), ("B", b), ("C", c)] {
        db.insert(Relation::from_rows(
            Schema::from_strs(name, &["u", "v"]),
            rows.iter().map(|&(x, y)| vec![x, y]).collect(),
        ));
    }
    db
}

/// The answer at pool size `threads`. The random relations repeat rows,
/// so this also checks that duplicate input rows never duplicate answers
/// (`canonicalized` would hide them from the comparisons).
fn run_at(threads: usize, db: Database, query: &str) -> Relation {
    let engine = Engine::new(db, 8).with_threads(threads);
    let output = engine
        .session()
        .run(query)
        .expect("oracle queries are valid")
        .outcome
        .output;
    assert_eq!(
        output.len(),
        output.canonicalized().len(),
        "duplicate answer rows"
    );
    output
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The oracle itself: pooled == sequential, row for row, order included,
    // at every pool size, for random data on all three query shapes.
    #[test]
    fn pooled_execution_matches_the_inline_oracle(
        a in proptest::collection::vec((0u64..16, 0u64..16), 0..60),
        b in proptest::collection::vec((0u64..16, 0u64..16), 0..60),
        c in proptest::collection::vec((0u64..16, 0u64..16), 0..60),
        threads in 2usize..8,
        shape in 0usize..3,
    ) {
        let query = SHAPES[shape];
        let inline = run_at(1, database(&a, &b, &c), query);
        let pooled = run_at(threads, database(&a, &b, &c), query);
        prop_assert_eq!(pooled, inline);
    }
}

// Determinism at a fixed pool size: the same data and query produce
// byte-identical output across repeated runs and across separately built
// engines — per-morsel buffers are merged in input order, never in
// completion order.
#[test]
fn pooled_execution_is_deterministic_across_runs_and_engines() {
    let rows: Vec<(u64, u64)> = (0..200).map(|i| (i % 23, (i * 7) % 23)).collect();
    for query in SHAPES {
        let first = run_at(4, database(&rows, &rows, &rows), query);
        let engine = Engine::new(database(&rows, &rows, &rows), 8).with_threads(4);
        let session = engine.session();
        for _ in 0..3 {
            let again = session.run(query).unwrap().outcome.output;
            assert_eq!(again, first, "run-to-run determinism for `{query}`");
        }
    }
}

// A relation large enough to cross the morsel threshold in routing takes
// the parallel kernels and still matches the inline oracle exactly.
#[test]
fn morsel_sized_inputs_match_the_inline_oracle() {
    let m = 3 * pq_relation::MORSEL_ROWS as u64;
    let a: Vec<(u64, u64)> = (0..m).map(|i| (i % 512, (i + 1) % 512)).collect();
    let b: Vec<(u64, u64)> = (0..m).map(|i| ((i + 1) % 512, (i + 2) % 512)).collect();
    let c: Vec<(u64, u64)> = (0..m).map(|i| ((i + 2) % 512, i % 512)).collect();
    let query = SHAPES[0];
    let inline = run_at(1, database(&a, &b, &c), query);
    let pooled = run_at(4, database(&a, &b, &c), query);
    assert_eq!(pooled, inline);
    assert!(!inline.is_empty(), "the oracle must exercise non-empty joins");
}

// The perf contract behind the whole PR: the pool's threads are spawned
// once at engine construction, and N warm queries after that spawn zero —
// the counter stays flat while tasks keep flowing through the pool.
#[test]
fn warm_queries_spawn_zero_threads() {
    let rows: Vec<(u64, u64)> = (0..300).map(|i| (i % 31, (i * 5) % 31)).collect();
    let engine = Engine::new(database(&rows, &rows, &rows), 8).with_threads(4);
    let session = engine.session();
    session.run(SHAPES[0]).unwrap();
    let warm = engine.pool().stats();
    assert_eq!(warm.pool_size, 4);
    assert_eq!(
        warm.threads_spawned, 3,
        "a pool of 4 is 3 workers plus the helping caller"
    );
    for _ in 0..20 {
        session.run(SHAPES[0]).unwrap();
    }
    let after = engine.pool().stats();
    assert_eq!(
        after.threads_spawned, warm.threads_spawned,
        "20 warm queries must spawn zero threads"
    );
    assert!(
        after.tasks > warm.tasks,
        "warm queries keep scheduling onto the persistent pool"
    );
}
