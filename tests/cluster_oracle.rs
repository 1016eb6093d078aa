//! Distributed-vs-simulator oracle: the cluster backend (real `pqd`-style
//! worker threads behind TCP sockets) must return exactly the rows of the
//! in-process simulator — which the `engine_oracle` suite already holds to
//! the sequential `natural_join_all` oracle — for random databases, a
//! suite of query shapes, and `p` both above and below the worker count.
//!
//! Beyond row-for-row equality the suite checks the two cost accounts
//! against each other: the cluster's *model* bits (`received_bits`) must be
//! bit-identical to the simulator's for one-round HyperCube plans (same
//! router, same seed, same shares), and the *measured* wire bytes must
//! bracket the model load — at least `total_bits / 8` (the wire ships
//! 64-bit values, the model charges `log n` bits) and at most the model's
//! value count at 64 bits plus bounded framing overhead.

use pq_bench::matching_database_for_query;
use pq_engine::{Delta, Engine, EngineError, ExecBackend, Strategy};
use pq_mpc::net::{ClusterConfig, LocalWorkers};
use pq_query::{evaluate_sequential, ConjunctiveQuery};
use pq_relation::{Database, Relation, Schema, Tuple};
use proptest::prelude::*;

/// The query shapes under test: the triangle and star that the paper's
/// one-round algorithms target, a longer chain whose simulator plan may go
/// multi-round (exercising the cluster's one-round fallback), and the
/// disconnected Cartesian pair.
fn query_suite() -> Vec<ConjunctiveQuery> {
    vec![
        ConjunctiveQuery::triangle(),
        ConjunctiveQuery::chain(4),
        ConjunctiveQuery::star(3),
        ConjunctiveQuery::cartesian_pair(),
    ]
}

/// A matching database for the query; with `skew`, every relation gets a
/// heavy hitter (value 0) in its first column so the simulator routes to
/// the skew-aware strategies while the cluster falls back to plain
/// HyperCube — the outputs must agree regardless.
fn database_for(query: &ConjunctiveQuery, m: usize, seed: u64, skew: bool) -> Database {
    let mut db = matching_database_for_query(query, m, seed);
    let domain = db.domain_size();
    if skew {
        let heavy = (m / 8).max(8);
        for (j, atom) in query.atoms().iter().enumerate() {
            let rel = db.relation_mut(atom.relation()).expect("relation exists");
            for i in 0..heavy as u64 {
                let mut row = vec![0u64; atom.arity()];
                for (c, cell) in row.iter_mut().enumerate().skip(1) {
                    *cell = domain - 1 - (i * 7 + c as u64 + j as u64 * 977) % 3000;
                }
                rel.push(Tuple::new(row));
            }
            rel.dedup();
        }
    }
    db
}

/// Run `query` on `db` with budget `p` on both backends over `workers`
/// live worker threads, assert row-for-row equality against the
/// sequential oracle and both cost-account relations, and return the
/// simulator strategy that was exercised.
fn assert_cluster_matches_simulator(
    query: &ConjunctiveQuery,
    db: &Database,
    p: usize,
    workers: usize,
) -> &'static str {
    let cluster = LocalWorkers::spawn(workers).expect("spawn local workers");
    let config = ClusterConfig::new(cluster.addresses().to_vec());

    let oracle = evaluate_sequential(query, db).canonicalized();
    let sim = Engine::new(db.clone(), p)
        .session()
        .run(&query.to_string())
        .expect("simulator run");
    let run = Engine::new(db.clone(), p)
        .with_backend(ExecBackend::cluster(config))
        .session()
        .run(&query.to_string())
        .expect("cluster run");

    // `canonicalized()` removes duplicates, so check there are none first.
    for output in [&run.outcome.output, &sim.outcome.output] {
        assert_eq!(
            output.len(),
            output.canonicalized().len(),
            "duplicate answer rows"
        );
    }
    assert_eq!(
        run.outcome.output.canonicalized(),
        oracle,
        "cluster disagrees with the sequential oracle on {} (p = {p}, workers = {workers})",
        query.name()
    );
    assert_eq!(
        run.outcome.output.canonicalized(),
        sim.outcome.output.canonicalized(),
        "cluster disagrees with the simulator on {} (p = {p}, workers = {workers})",
        query.name()
    );

    // Measured-vs-model accounting. The cluster executes exactly one
    // shuffle round; unless the join was empty on every worker, real
    // traffic crossed the wire.
    let metrics = &run.outcome.metrics;
    assert_eq!(metrics.num_rounds(), 1, "cluster plans are one-round");
    assert!(
        metrics.is_measured(),
        "cluster runs must carry measured wire bytes"
    );
    let round = &metrics.rounds[0];
    assert_eq!(round.received_bits.len(), p, "model account is per logical server");
    assert_eq!(round.wire_bytes.len(), workers, "wire account is per worker");
    assert!(round.wall_micros > 0, "round wall time is measured");

    // Lower bound: the wire ships every model value as a 64-bit word plus
    // headers, and the model charges `bits_per_value <= 64` bits for it.
    assert!(
        round.total_wire_bytes() * 8 >= round.total_bits(),
        "wire bytes ({}) cannot undercut the model bits ({})",
        round.total_wire_bytes(),
        round.total_bits()
    );
    // Upper bound: 64 bits per model value, plus a generous per-frame and
    // per-worker allowance for headers, schemas and Execute programs.
    let bits_per_value = db.bits_per_value().max(1);
    let values_shipped = round.total_bits() / bits_per_value;
    let overhead_bits = 8 * (round.messages as u64 * 512 + workers as u64 * 2048);
    assert!(
        round.total_wire_bytes() * 8 <= values_shipped * 64 + overhead_bits,
        "wire bytes ({}) exceed 64 bits/value on {} model values plus framing",
        round.total_wire_bytes(),
        values_shipped
    );

    // Model-account parity: when the simulator itself ran one-round
    // HyperCube, both backends routed the same messages with the same
    // seed, so the per-logical-server bit counts must be identical.
    if matches!(sim.plan.strategy, Strategy::HyperCube { .. }) {
        assert_eq!(
            round.received_bits, sim.outcome.metrics.rounds[0].received_bits,
            "cluster model bits must match the simulator bit-for-bit on {}",
            query.name()
        );
    }

    // The simulator, by contrast, must never claim measured traffic.
    assert!(!sim.outcome.metrics.is_measured());

    cluster.shutdown();
    sim.plan.strategy.name()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The headline oracle: random databases x query suite x p in
    // {2, 4, 8}, over 3 workers (so p = 4 and p = 8 exercise the
    // logical-server folding, p = 2 leaves a worker idle).
    #[test]
    fn cluster_matches_simulator_on_random_databases(
        seed in 0u64..1000,
        m in 20usize..60,
        p_choice in 0usize..3,
        skew in any::<bool>(),
    ) {
        let p = [2, 4, 8][p_choice];
        for query in query_suite() {
            let db = database_for(&query, m, seed, skew);
            assert_cluster_matches_simulator(&query, &db, p, 3);
        }
    }
}

#[test]
fn skew_aware_simulator_plans_fall_back_to_hypercube_on_the_cluster() {
    // The planner picks the skew-aware triangle for this database; the
    // cluster backend runs the plan's shares as plain one-round HyperCube
    // and must still agree with both oracles.
    let query = ConjunctiveQuery::triangle();
    let db = database_for(&query, 300, 41, true);
    let strategy = assert_cluster_matches_simulator(&query, &db, 16, 3);
    assert_eq!(strategy, "skew-aware triangle");
}

#[test]
fn multi_round_simulator_plans_fall_back_to_hypercube_on_the_cluster() {
    let query = ConjunctiveQuery::chain(3);
    let db = database_for(&query, 1_200, 47, false);
    let strategy = assert_cluster_matches_simulator(&query, &db, 64, 3);
    assert_eq!(strategy, "multi-round bushy plan");
}

#[test]
fn a_single_worker_carries_every_logical_server() {
    let query = ConjunctiveQuery::triangle();
    let db = database_for(&query, 80, 11, false);
    assert_cluster_matches_simulator(&query, &db, 8, 1);
}

#[test]
fn an_empty_database_yields_an_empty_answer_without_hanging() {
    let query = ConjunctiveQuery::triangle();
    let empty = Database::from_relations(
        query
            .atoms()
            .iter()
            .map(|a| {
                let cols: Vec<String> = (0..a.arity()).map(|i| format!("c{i}")).collect();
                Relation::empty(Schema::new(a.relation(), cols))
            })
            .collect(),
    );
    let cluster = LocalWorkers::spawn(2).expect("spawn local workers");
    let config = ClusterConfig::new(cluster.addresses().to_vec());
    let run = Engine::new(empty, 4)
        .with_backend(ExecBackend::cluster(config))
        .session()
        .run(&query.to_string())
        .expect("cluster run");
    assert_eq!(run.outcome.output.len(), 0);
    // No fragments crossed the wire, but every worker still received its
    // Execute frame — the round is measured even when the data is empty.
    assert!(run.outcome.metrics.is_measured());
    cluster.shutdown();
}

#[test]
fn duplicate_input_rows_never_duplicate_cluster_answers() {
    // Every row of the first 20 of each relation stored twice: the
    // coordinator's merge must still return each answer once.
    let query = ConjunctiveQuery::triangle();
    let mut db = database_for(&query, 60, 13, false);
    for atom in query.atoms() {
        let relation = db.relation_mut(atom.relation()).expect("relation exists");
        for i in 0..20 {
            let row = relation.row(i).to_vec();
            relation.push_row(&row);
        }
    }
    assert_cluster_matches_simulator(&query, &db, 8, 3);
}

#[test]
fn an_unencodable_identifier_fails_one_run_and_the_pool_keeps_serving() {
    // A 70 000-byte variable name does not fit the codec's u16 string
    // length: the run must fail with a typed cluster error (not panic
    // while holding the pool's run lock), and the next run on the same
    // pool must succeed.
    let query = ConjunctiveQuery::triangle();
    let db = database_for(&query, 60, 17, false);
    let cluster = LocalWorkers::spawn(2).expect("spawn local workers");
    let config = ClusterConfig::new(cluster.addresses().to_vec());
    let engine = Engine::new(db.clone(), 4).with_backend(ExecBackend::cluster(config));
    let session = engine.session();
    let long = "x".repeat(70_000);
    let text = format!("Q({long}, y, z) :- S1({long}, y), S2(y, z), S3(z, {long})");
    let err = session.run(&text).expect_err("the identifier cannot be encoded");
    assert!(matches!(err, EngineError::Cluster(_)), "{err}");
    let delta = Delta::insert("S1", vec![vec![1, 2]]).and_insert("S2", vec![vec![2, 3]]);
    let snapshot = engine.apply(delta.and_insert("S3", vec![vec![3, 1]])).unwrap();
    let run = session.run(&query.to_string()).expect("the next run succeeds");
    assert_eq!(
        run.outcome.output.canonicalized(),
        evaluate_sequential(&query, snapshot.database()).canonicalized()
    );
    assert!(run.outcome.metrics.is_measured());
    cluster.shutdown();
}
