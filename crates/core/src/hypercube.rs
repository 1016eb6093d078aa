//! The one-round HyperCube (HC) algorithm (Section 3.1).
//!
//! Servers are organised into a grid `[p_1] × … × [p_k]`, one dimension per
//! query variable, with `Π_i p_i ≤ p`. Independent hash functions
//! `h_i : [n] → [p_i]` are chosen per variable, and every tuple `t` of an
//! atom `S_j` is sent to its **destination subcube**: all grid points that
//! agree with `h_i(t[i])` on the variables the atom binds (Eq. 9). After the
//! single communication round each server joins the fragments it received;
//! every potential output tuple `(a_1, …, a_k)` is fully visible at the
//! server `(h_1(a_1), …, h_k(a_k))`, which makes the algorithm correct.
//!
//! On skew-free data with the share exponents of [`crate::shares`] the
//! maximum load is `O(L_upper)` with high probability (Theorem 3.4), which
//! matches the lower bound of Theorem 3.5 (Section 3.3).

use crate::shares::{self, ShareRounding};
use pq_mpc::{map_servers_parallel, Cluster, Message, RunMetrics, Server};
use pq_query::{evaluate_bound, instantiate, ConjunctiveQuery};
use pq_relation::{BucketHasher, HashFamily, MultiplyShiftHash, Relation, Value};
use std::collections::BTreeMap;

/// A configured HyperCube router: the grid layout (shares per variable), the
/// per-variable hash functions, and the block of physical servers the grid
/// is mapped onto.
///
/// The router is deliberately independent of the [`Cluster`], so skew-aware
/// and multi-round algorithms can combine several routers (e.g. one per
/// heavy hitter, each on its own server block) inside a *single*
/// communication round.
pub struct HyperCubeRouter {
    variables: Vec<String>,
    shares: Vec<usize>,
    /// `strides[d]` = Π_{d' > d} shares[d']: the weight of dimension `d` in
    /// the row-major linearisation of the grid.
    strides: Vec<usize>,
    hashers: Vec<<MultiplyShiftHash as HashFamily>::Hasher>,
    server_offset: usize,
}

impl HyperCubeRouter {
    /// Build a router for the query's variables with the given integer
    /// shares, mapping grid point `(0,…,0)` to physical server
    /// `server_offset`. `seed` and `hash_index_base` select the hash
    /// functions: routers that must be independent (e.g. per heavy hitter)
    /// should use different bases.
    pub fn new(
        query: &ConjunctiveQuery,
        shares: &BTreeMap<String, usize>,
        seed: u64,
        hash_index_base: usize,
        server_offset: usize,
    ) -> Self {
        let variables = query.variables();
        let family = MultiplyShiftHash::new(seed);
        let share_vec: Vec<usize> = variables
            .iter()
            .map(|v| shares.get(v).copied().unwrap_or(1).max(1))
            .collect();
        let hashers = variables
            .iter()
            .enumerate()
            .map(|(i, _)| family.hasher(hash_index_base + i, share_vec[i]))
            .collect();
        let mut strides = vec![1usize; share_vec.len()];
        for d in (0..share_vec.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * share_vec[d + 1];
        }
        HyperCubeRouter {
            variables,
            shares: share_vec,
            strides,
            hashers,
            server_offset,
        }
    }

    /// Number of grid points (`Π_i p_i`), i.e. physical servers used.
    pub fn grid_size(&self) -> usize {
        self.shares.iter().product()
    }

    /// The variables of the grid, in dimension order.
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// The integer shares, in dimension order.
    pub fn shares(&self) -> &[usize] {
        &self.shares
    }

    /// Physical server of a full variable assignment (the unique server that
    /// sees an output tuple with these values).
    pub fn server_of_assignment(&self, values: &BTreeMap<String, u64>) -> usize {
        let idx: usize = self
            .variables
            .iter()
            .enumerate()
            .map(|(i, v)| {
                values
                    .get(v)
                    .map(|&val| self.hashers[i].bucket(val))
                    .unwrap_or(0)
                    * self.strides[i]
            })
            .sum();
        self.server_offset + idx
    }

    /// Resolve a bound relation's schema against the grid once: which grid
    /// dimension each schema position pins (`bound`), and the linear-index
    /// offsets of every combination of the remaining free dimensions
    /// (`free_offsets`). Per-row routing is then one hash and one add per
    /// bound dimension plus one add per destination — no string comparison,
    /// no recursion, no allocation.
    fn route_plan(&self, bound_schema_vars: &[String]) -> (Vec<(usize, usize)>, Vec<usize>) {
        let mut bound: Vec<(usize, usize)> = Vec::new();
        let mut dim_is_bound = vec![false; self.variables.len()];
        for (pos, var) in bound_schema_vars.iter().enumerate() {
            if let Some(dim) = self.variables.iter().position(|v| v == var) {
                bound.push((dim, pos));
                dim_is_bound[dim] = true;
            }
        }
        let mut free_offsets = vec![0usize];
        for dim in (0..self.variables.len()).rev() {
            if dim_is_bound[dim] {
                continue;
            }
            let mut next = Vec::with_capacity(free_offsets.len() * self.shares[dim]);
            for c in 0..self.shares[dim] {
                let base = c * self.strides[dim];
                next.extend(free_offsets.iter().map(|&o| base + o));
            }
            free_offsets = next;
        }
        (bound, free_offsets)
    }

    /// The destination subcube of a row of the given bound relation
    /// (schema attributes = query variables): every physical server whose
    /// grid coordinates agree with the hashes of the row's values.
    pub fn destinations(&self, bound_schema_vars: &[String], row: &[Value]) -> Vec<usize> {
        let (bound, free_offsets) = self.route_plan(bound_schema_vars);
        let base = self.server_offset + self.base_index(&bound, row);
        free_offsets.iter().map(|&o| base + o).collect()
    }

    #[inline]
    fn base_index(&self, bound: &[(usize, usize)], row: &[Value]) -> usize {
        bound
            .iter()
            .map(|&(dim, pos)| self.hashers[dim].bucket(row[pos]) * self.strides[dim])
            .sum()
    }

    /// Route one bound relation (schema attributes = query variables):
    /// copies every row view into pre-sized per-destination fragments and
    /// returns one message per non-empty fragment. The per-row work is
    /// allocation-free — rows land in the flat fragment buffers by
    /// `extend_from_slice`.
    ///
    /// Like the join kernels, a large relation routes morsel-parallel when
    /// the calling thread has a `pq-exec` pool installed: each morsel fills
    /// its own per-destination fragment set and the sets are merged in
    /// morsel order, so every fragment keeps its rows in input order at any
    /// pool size.
    pub fn route_relation(&self, relation: &Relation) -> Vec<Message> {
        let (bound, free_offsets) = self.route_plan(relation.schema().attributes());
        let grid = self.grid_size();
        let n = relation.len();
        // Expected fragment size under balanced hashing: every row goes to
        // |free_offsets| of the `grid` destinations.
        let route_morsel = |lo: usize, hi: usize| -> Vec<Relation> {
            let per_dest = (hi - lo) * free_offsets.len() / grid.max(1) + 1;
            let mut fragments: Vec<Relation> = (0..grid)
                .map(|_| Relation::with_capacity(relation.schema().clone(), per_dest))
                .collect();
            for r in lo..hi {
                let row = relation.row(r);
                let base = self.base_index(&bound, row);
                for &off in &free_offsets {
                    fragments[base + off].push_row(row);
                }
            }
            fragments
        };
        let pool = pq_exec::current().filter(|p| p.threads() > 1);
        let fragments: Vec<Relation> = match pool {
            Some(pool) if n >= 2 * pq_relation::MORSEL_ROWS => {
                let ranges: Vec<(usize, usize)> = (0..n)
                    .step_by(pq_relation::MORSEL_ROWS)
                    .map(|lo| (lo, (lo + pq_relation::MORSEL_ROWS).min(n)))
                    .collect();
                let mut parts = pool
                    .map_indexed(&ranges, |_, &(lo, hi)| route_morsel(lo, hi))
                    .into_iter();
                let mut merged = parts.next().unwrap_or_default();
                for part in parts {
                    for (dest, fragment) in merged.iter_mut().zip(&part) {
                        dest.append(fragment);
                    }
                }
                merged
            }
            _ => route_morsel(0, n),
        };
        fragments
            .into_iter()
            .enumerate()
            .filter(|(_, fragment)| !fragment.is_empty())
            .map(|(idx, fragment)| Message::tuples(self.server_offset + idx, fragment))
            .collect()
    }

    /// Route a set of bound relations (one per atom, attributes named by
    /// query variables): returns one message per (destination server,
    /// relation) pair carrying that server's fragment.
    pub fn route_bound(&self, bound: &[Relation]) -> Vec<Message> {
        bound
            .iter()
            .flat_map(|relation| self.route_relation(relation))
            .collect()
    }
}

/// The result of a HyperCube run.
#[derive(Debug, Clone)]
pub struct HyperCubeRun {
    /// The query answer (set semantics), columns in query-variable order.
    pub output: Relation,
    /// Communication metrics (one round).
    pub metrics: RunMetrics,
    /// The integer shares used, keyed by variable.
    pub shares: BTreeMap<String, usize>,
}

/// Evaluate the query locally at one server over the fragments it received.
/// Missing fragments mean the server cannot produce any answers.
pub fn local_join(query: &ConjunctiveQuery, server: &Server) -> Relation {
    let mut bound = Vec::with_capacity(query.num_atoms());
    for atom in query.atoms() {
        match server.fragment(atom.relation()) {
            Some(fragment) => bound.push(fragment.clone()),
            None => {
                return Relation::empty(pq_relation::Schema::new(
                    query.name(),
                    query.variables(),
                ))
            }
        }
    }
    evaluate_bound(query, &bound)
}

/// Run the HyperCube algorithm with explicitly provided integer shares.
pub fn run_hypercube_with_shares(
    query: &ConjunctiveQuery,
    database: &pq_relation::Database,
    p: usize,
    shares: &BTreeMap<String, usize>,
    seed: u64,
) -> HyperCubeRun {
    let bound = instantiate(query, database);
    let mut cluster = Cluster::new(p, database.bits_per_value());
    cluster.set_input_bits(database.total_size_bits());

    let router = HyperCubeRouter::new(query, shares, seed, 0, 0);
    assert!(
        router.grid_size() <= p,
        "share grid of size {} does not fit on {p} servers",
        router.grid_size()
    );
    let messages = router.route_bound(&bound);
    cluster.communicate(messages);

    let outputs = map_servers_parallel(cluster.servers(), |_, server| local_join(query, server));
    // The union needs no dedup: each server's output is duplicate-free
    // (`evaluate_bound` dedups), and the outputs are disjoint. Every query
    // variable occurs in some atom, so a server joins an answer only if it
    // received every atom's tuple of it, i.e. only the one server at grid
    // coordinates `(h_1(x_1), …, h_k(x_k))` produces that answer.
    let mut output = Relation::empty(pq_relation::Schema::new(query.name(), query.variables()));
    for o in &outputs {
        output.append(o);
    }

    HyperCubeRun {
        output,
        metrics: cluster.into_metrics(),
        shares: shares.clone(),
    }
}

/// Run the full one-round HyperCube algorithm: optimise the shares for the
/// database's relation sizes (Eq. 10), route, and join locally.
pub fn run_hypercube(
    query: &ConjunctiveQuery,
    database: &pq_relation::Database,
    p: usize,
    seed: u64,
) -> HyperCubeRun {
    let exps = shares::optimal_share_exponents(query, &database.sizes_bits(), p);
    let shares = shares::integer_shares(&exps, ShareRounding::GreedyFill);
    run_hypercube_with_shares(query, database, p, &shares, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_query::evaluate_sequential;
    use pq_relation::{DataGenerator, Database, Schema};

    fn matching_db(query: &ConjunctiveQuery, m: usize, seed: u64) -> Database {
        let mut gen = DataGenerator::new(seed, (m as u64 * 100).max(1000));
        let specs: Vec<(Schema, usize)> = query
            .atoms()
            .iter()
            .map(|a| {
                let attrs: Vec<&str> = (0..a.arity()).map(|_| "").collect();
                // Positional column names; binding renames them.
                let names: Vec<String> = (0..attrs.len()).map(|i| format!("c{i}")).collect();
                (
                    Schema::new(a.relation(), names),
                    m,
                )
            })
            .collect();
        gen.matching_database(&specs)
    }

    fn identity_db(query: &ConjunctiveQuery, m: usize) -> Database {
        // Identity matchings give exactly m answers for chains/cycles.
        let mut db = Database::new((m as u64).max(2));
        for a in query.atoms() {
            let names: Vec<String> = (0..a.arity()).map(|i| format!("c{i}")).collect();
            let rows = (0..m as u64).map(|i| vec![i; a.arity()]).collect();
            db.insert(Relation::from_rows(Schema::new(a.relation(), names), rows));
        }
        db
    }

    #[test]
    fn router_grid_and_destinations() {
        let q = ConjunctiveQuery::triangle();
        let shares: BTreeMap<String, usize> =
            [("x1", 2usize), ("x2", 2), ("x3", 2)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        let router = HyperCubeRouter::new(&q, &shares, 1, 0, 0);
        assert_eq!(router.grid_size(), 8);
        // A binary atom fixes two of three dimensions: |destinations| = 2.
        let dests = router.destinations(&["x1".to_string(), "x2".to_string()], &[5, 9]);
        assert_eq!(dests.len(), 2);
        for d in &dests {
            assert!(*d < 8);
        }
        // Unary binding fixes one dimension: 4 destinations.
        let dests = router.destinations(&["x2".to_string()], &[9]);
        assert_eq!(dests.len(), 4);
    }

    #[test]
    fn router_with_offset_shifts_servers() {
        let q = ConjunctiveQuery::simple_join();
        let shares: BTreeMap<String, usize> =
            [("z", 4usize)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        let router = HyperCubeRouter::new(&q, &shares, 1, 0, 10);
        let dests = router.destinations(&["z".to_string(), "x1".to_string()], &[3, 7]);
        assert_eq!(dests.len(), 1);
        assert!(dests[0] >= 10 && dests[0] < 14);
    }

    #[test]
    fn output_tuple_server_sees_all_its_parts() {
        // The defining property of HC: for any potential output tuple, the
        // server indexed by the hashes of its values receives all matching
        // atom tuples.
        let q = ConjunctiveQuery::triangle();
        let shares: BTreeMap<String, usize> =
            [("x1", 3usize), ("x2", 3), ("x3", 3)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        let router = HyperCubeRouter::new(&q, &shares, 9, 0, 0);
        let assignment: BTreeMap<String, u64> =
            [("x1", 11u64), ("x2", 22), ("x3", 33)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        let target = router.server_of_assignment(&assignment);
        // Each atom's projection of the assignment must route through target.
        for (vars, row) in [
            (vec!["x1".to_string(), "x2".to_string()], [11u64, 22]),
            (vec!["x2".to_string(), "x3".to_string()], [22, 33]),
            (vec!["x3".to_string(), "x1".to_string()], [33, 11]),
        ] {
            let dests = router.destinations(&vars, &row);
            assert!(dests.contains(&target));
        }
    }

    #[test]
    fn triangle_matches_sequential_oracle() {
        let q = ConjunctiveQuery::triangle();
        let db = identity_db(&q, 200); // every i forms a triangle (i,i,i)
        let run = run_hypercube(&q, &db, 8, 3);
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
        assert_eq!(run.output.len(), 200);
        assert_eq!(run.metrics.num_rounds(), 1);
    }

    #[test]
    fn triangle_on_random_matchings_matches_oracle() {
        let q = ConjunctiveQuery::triangle();
        let db = matching_db(&q, 400, 5);
        let run = run_hypercube(&q, &db, 27, 11);
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
        assert_eq!(run.output.len(), oracle.len(), "no duplicate answers");
    }

    #[test]
    fn chain_query_matches_oracle() {
        let q = ConjunctiveQuery::chain(3);
        let db = identity_db(&q, 300);
        let run = run_hypercube(&q, &db, 16, 7);
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
        assert_eq!(run.output.len(), 300);
    }

    #[test]
    fn star_query_matches_oracle() {
        let q = ConjunctiveQuery::star(3);
        let db = matching_db(&q, 500, 17);
        let run = run_hypercube(&q, &db, 16, 23);
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
        assert_eq!(run.output.len(), oracle.len(), "no duplicate answers");
    }

    #[test]
    fn load_is_near_m_over_p_two_thirds_for_triangle() {
        // Theorem 3.4: with equal sizes the triangle load is O(M / p^{2/3}).
        let q = ConjunctiveQuery::triangle();
        let m = 3000;
        let db = matching_db(&q, m, 29);
        let p = 64;
        let run = run_hypercube(&q, &db, p, 31);
        let m_bits = db.relation_size_bits("S1") as f64;
        let predicted = m_bits / (p as f64).powf(2.0 / 3.0);
        let measured = run.metrics.max_load() as f64;
        assert!(
            measured < 6.0 * predicted,
            "measured {measured} too far above predicted {predicted}"
        );
        // And not absurdly small either (sanity of the accounting).
        assert!(measured > 0.2 * predicted);
    }

    #[test]
    fn every_server_receives_roughly_balanced_load() {
        let q = ConjunctiveQuery::simple_join();
        let db = matching_db(&q, 4000, 41);
        let run = run_hypercube(&q, &db, 16, 43);
        let round = &run.metrics.rounds[0];
        let mean = round.mean_load();
        assert!(round.max_load() as f64 <= 3.0 * mean + 64.0);
    }

    #[test]
    fn broadcast_relation_when_share_is_one() {
        // Simple join: x1, x2 get share 1, so S1 tuples go to exactly one
        // server each (hash on z): total bits across servers equals |S1|+|S2|.
        let q = ConjunctiveQuery::simple_join();
        let db = identity_db(&q, 100);
        let run = run_hypercube(&q, &db, 8, 3);
        assert_eq!(run.metrics.total_bits(), db.total_size_bits());
    }

    #[test]
    fn local_join_with_missing_fragment_is_empty() {
        let q = ConjunctiveQuery::triangle();
        let server = Server::new(0);
        let out = local_join(&q, &server);
        assert!(out.is_empty());
        assert_eq!(out.arity(), 3);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_grid_panics() {
        let q = ConjunctiveQuery::triangle();
        let db = identity_db(&q, 10);
        let shares: BTreeMap<String, usize> =
            [("x1", 4usize), ("x2", 4), ("x3", 4)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        run_hypercube_with_shares(&q, &db, 8, &shares, 1);
    }
}
