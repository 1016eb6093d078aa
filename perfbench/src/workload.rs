//! The four workloads' inputs, generated from a seed with planted answers.
//!
//! Every relation is a planted part plus filler. The planted part holds
//! exactly the answers the workload's queries must return. Filler values
//! are drawn from a value block of their own per (relation, column), so a
//! filler value never occurs in a second column and can never join: the
//! answer of every query is exactly its planted rows, which
//! [`oracle_check`] confirms against `pq_query::evaluate_sequential` on a
//! scaled-down instance built from the same seed.
//!
//! Values are decimal tokens; pqd dictionary-encodes them in file order and
//! decodes them back in `ROW` lines, so answers are compared as text.

use pq_engine::parse_query;
use pq_query::evaluate_sequential;
use pq_relation::csv::parse_relation_text;
use pq_relation::{Database, ValueDictionary};
use std::path::Path;

/// The workloads, in the order the docs and `BENCHMARK.json` list them.
pub const WORKLOADS: [&str; 4] = [
    "hypercube_triangle",
    "skew_strategies",
    "ingest_mix",
    "cluster_triangle",
];

/// splitmix64: small, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5bd1_e995_9e37_79b9)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash of one answer row as pqd prints it after `ROW ` (FNV-1a, then a
/// finaliser so that sums of row hashes spread over all 64 bits).
pub fn row_hash(text: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    mix(h)
}

/// Order-independent digest of a set of rows: count and wrapping sum of
/// row hashes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: usize,
    pub hash: u64,
}

impl Digest {
    pub fn add_text(&mut self, text: &[u8]) {
        self.rows += 1;
        self.hash = self.hash.wrapping_add(row_hash(text));
    }

    pub fn add_row(&mut self, row: &[u64]) {
        self.add_text(row_text(row).as_bytes());
    }

    pub fn of(rows: &[Vec<u64>]) -> Digest {
        let mut d = Digest::default();
        for row in rows {
            d.add_row(row);
        }
        d
    }
}

pub fn row_text(row: &[u64]) -> String {
    let cells: Vec<String> = row.iter().map(u64::to_string).collect();
    cells.join(",")
}

/// One stored relation: name and rows (every row has the same arity).
pub struct Table {
    pub name: &'static str,
    pub rows: Vec<Vec<u64>>,
}

impl Table {
    /// The CSV text pqd loads (header `c0,c1,…`).
    pub fn csv(&self) -> String {
        let arity = self.rows.first().map_or(2, Vec::len);
        let header: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
        let mut out = header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row_text(row));
            out.push('\n');
        }
        out
    }
}

/// One query class of a workload with its planted answer (in head order).
pub struct Query {
    pub label: &'static str,
    pub text: &'static str,
    /// The strategy name pqd must report (`Strategy::name`).
    pub strategy: &'static str,
    /// Logical servers the session runs it on.
    pub p: usize,
    pub answers: Vec<Vec<u64>>,
}

/// `ingest_mix`'s write stream: each cycle inserts `batch` new planted
/// triangles, one batched INSERT per relation.
pub struct Ingest {
    batch: usize,
    next: usize,
    xs: Vec<u64>,
    ys: Vec<u64>,
    zs: Vec<u64>,
}

/// One cycle's writes: per relation its rows, and the answers they add.
pub struct Cycle {
    pub inserts: Vec<(&'static str, Vec<Vec<u64>>)>,
    pub answers: Vec<Vec<u64>>,
}

impl Ingest {
    /// The writes of the next cycle, or `None` once the reserved values
    /// are used up.
    pub fn next_cycle(&mut self) -> Option<Cycle> {
        let lo = self.next;
        let hi = lo + self.batch;
        if hi > self.xs.len() {
            return None;
        }
        self.next = hi;
        let answers: Vec<Vec<u64>> = (lo..hi)
            .map(|i| vec![self.xs[i], self.ys[i], self.zs[i]])
            .collect();
        let edges = |a: usize, b: usize| answers.iter().map(|t| vec![t[a], t[b]]).collect();
        Some(Cycle {
            inserts: vec![
                ("S1", edges(0, 1)),
                ("S2", edges(1, 2)),
                ("S3", edges(2, 0)),
            ],
            answers,
        })
    }
}

/// A workload's full input.
pub struct Dataset {
    pub tables: Vec<Table>,
    pub queries: Vec<Query>,
    pub ingest: Option<Ingest>,
}

impl Dataset {
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for table in &self.tables {
            std::fs::write(dir.join(format!("{}.csv", table.name)), table.csv())?;
        }
        Ok(())
    }
}

/// Hands out disjoint value blocks: block `b` holds `b·10^8 + [0, n)`.
struct Values {
    next_block: u64,
}

const BLOCK: u64 = 100_000_000;

impl Values {
    fn block(&mut self, n: usize, rng: &mut Rng) -> Vec<u64> {
        assert!((n as u64) < BLOCK, "value block of {n} overflows");
        self.next_block += 1;
        let base = self.next_block * BLOCK;
        let mut values: Vec<u64> = (0..n as u64).map(|i| base + i).collect();
        rng.shuffle(&mut values);
        values
    }
}

/// Pad `planted` to `m` rows with filler whose every column is a fresh
/// block, then shuffle the row order (which sets pqd's dictionary ids).
fn fill(
    name: &'static str,
    mut rows: Vec<Vec<u64>>,
    m: usize,
    values: &mut Values,
    rng: &mut Rng,
) -> Table {
    let arity = rows.first().map_or(2, Vec::len);
    let filler = m.saturating_sub(rows.len());
    let columns: Vec<Vec<u64>> = (0..arity).map(|_| values.block(filler, rng)).collect();
    rows.extend((0..filler).map(|i| columns.iter().map(|c| c[i]).collect()));
    rng.shuffle(&mut rows);
    Table { name, rows }
}

/// A triangle `N1(x,y), N2(y,z), N3(z,x)` with `light` planted triangles
/// of degree one and `hub` triangles through one shared `x` value.
fn triangle(
    names: [&'static str; 3],
    m: usize,
    light: usize,
    hub: usize,
    values: &mut Values,
    rng: &mut Rng,
) -> (Vec<Table>, Vec<Vec<u64>>) {
    let xs = values.block(light + 1, rng);
    let ys = values.block(light + hub, rng);
    let zs = values.block(light + hub, rng);
    let answers: Vec<Vec<u64>> = (0..light + hub)
        .map(|i| vec![if i < light { xs[i] } else { xs[light] }, ys[i], zs[i]])
        .collect();
    let edges = |a: usize, b: usize| -> Vec<Vec<u64>> {
        answers.iter().map(|t| vec![t[a], t[b]]).collect()
    };
    let tables = vec![
        fill(names[0], edges(0, 1), m, values, rng),
        fill(names[1], edges(1, 2), m, values, rng),
        fill(names[2], edges(2, 0), m, values, rng),
    ];
    (tables, answers)
}

/// A star `R1(z,a), R2(z,b)`: one centre with `hub` rows in R1 and two in
/// R2 (so `2·hub` answers), plus `light` centres of degree one.
fn star(
    m: usize,
    light: usize,
    hub: usize,
    values: &mut Values,
    rng: &mut Rng,
) -> (Vec<Table>, Vec<Vec<u64>>) {
    let zs = values.block(light + 1, rng);
    let a_vals = values.block(light + hub, rng);
    let b_vals = values.block(light + 2, rng);
    let centre = zs[light];
    let mut r1: Vec<Vec<u64>> = (0..light).map(|i| vec![zs[i], a_vals[i]]).collect();
    let mut r2: Vec<Vec<u64>> = (0..light).map(|i| vec![zs[i], b_vals[i]]).collect();
    let mut answers: Vec<Vec<u64>> = (0..light)
        .map(|i| vec![zs[i], a_vals[i], b_vals[i]])
        .collect();
    r1.extend(a_vals[light..].iter().map(|&a| vec![centre, a]));
    r2.extend(b_vals[light..].iter().map(|&b| vec![centre, b]));
    for &a in &a_vals[light..] {
        for &b in &b_vals[light..] {
            answers.push(vec![centre, a, b]);
        }
    }
    let tables = vec![
        fill("R1", r1, m, values, rng),
        fill("R2", r2, m, values, rng),
    ];
    (tables, answers)
}

/// A chain `C1(a,b), C2(b,c), C3(c,d), C4(d,e)` with `k` planted paths.
fn chain4(m: usize, k: usize, values: &mut Values, rng: &mut Rng) -> (Vec<Table>, Vec<Vec<u64>>) {
    let cols: Vec<Vec<u64>> = (0..5).map(|_| values.block(k, rng)).collect();
    let answers: Vec<Vec<u64>> = (0..k)
        .map(|i| cols.iter().map(|c| c[i]).collect())
        .collect();
    let names = ["C1", "C2", "C3", "C4"];
    let tables = names
        .iter()
        .enumerate()
        .map(|(r, name)| {
            let rows = answers.iter().map(|t| vec![t[r], t[r + 1]]).collect();
            fill(name, rows, m, values, rng)
        })
        .collect();
    (tables, answers)
}

pub const TRIANGLE: &str = "Q(x, y, z) :- S1(x, y), S2(y, z), S3(z, x)";

/// Input sizes of one workload; [`Sizes::scaled`] gives the oracle's
/// instance.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    m: usize,
    planted: usize,
    hub: usize,
}

impl Sizes {
    fn scaled(self, divisor: usize) -> Sizes {
        Sizes {
            m: self.m / divisor,
            planted: self.planted / divisor,
            hub: self.hub / divisor,
        }
    }
}

/// `hypercube_triangle` and `cluster_triangle`: skew-free matchings.
const HC: Sizes = Sizes {
    m: 100_000,
    planted: 10_000,
    hub: 0,
};
/// `skew_strategies`, per class: the hub exceeds m/p at p = 64.
const SKEW_TRIANGLE: Sizes = Sizes {
    m: 5_000,
    planted: 400,
    hub: 300,
};
const SKEW_STAR: Sizes = Sizes {
    m: 20_000,
    planted: 2_000,
    hub: 1_000,
};
const CHAIN: Sizes = Sizes {
    m: 20_000,
    planted: 2_000,
    hub: 0,
};
/// `ingest_mix`: m = 20k and 10 new triangles per cycle, with values
/// reserved for 500 cycles, so a run grows each relation by at most a
/// quarter; a run that uses them up ends its measured phase early.
const INGEST: Sizes = Sizes {
    m: 20_000,
    planted: 2_000,
    hub: 0,
};
const INGEST_BATCH: usize = 10;
const INGEST_RESERVE: usize = 5_000;

/// Build workload `name` from `seed`; `divisor` > 1 scales every size down
/// (the oracle's instance).
pub fn build(name: &str, seed: u64, divisor: usize) -> Option<Dataset> {
    let mut rng = Rng::new(seed);
    let mut values = Values { next_block: 0 };
    let data = match name {
        "hypercube_triangle" | "cluster_triangle" => {
            let s = HC.scaled(divisor);
            let (tables, answers) =
                triangle(["S1", "S2", "S3"], s.m, s.planted, 0, &mut values, &mut rng);
            Dataset {
                tables,
                queries: vec![Query {
                    label: "triangle",
                    text: TRIANGLE,
                    strategy: "one-round HyperCube",
                    p: 16,
                    answers,
                }],
                ingest: None,
            }
        }
        "skew_strategies" => {
            let t = SKEW_TRIANGLE.scaled(divisor);
            let s = SKEW_STAR.scaled(divisor);
            let c = CHAIN.scaled(divisor);
            let (mut tables, tri) = triangle(
                ["T1", "T2", "T3"],
                t.m,
                t.planted,
                t.hub,
                &mut values,
                &mut rng,
            );
            let (star_tables, star_answers) = star(s.m, s.planted, s.hub, &mut values, &mut rng);
            let (chain_tables, chain_answers) = chain4(c.m, c.planted, &mut values, &mut rng);
            tables.extend(star_tables);
            tables.extend(chain_tables);
            Dataset {
                tables,
                queries: vec![
                    Query {
                        label: "skew_triangle",
                        text: "QT(x, y, z) :- T1(x, y), T2(y, z), T3(z, x)",
                        strategy: "skew-aware triangle",
                        p: 64,
                        answers: tri,
                    },
                    Query {
                        label: "skew_star",
                        text: "QS(z, a, b) :- R1(z, a), R2(z, b)",
                        strategy: "skew-aware star",
                        p: 64,
                        answers: star_answers,
                    },
                    Query {
                        label: "multiround_chain4",
                        text: "QC(a, b, c, d, e) :- C1(a, b), C2(b, c), C3(c, d), C4(d, e)",
                        strategy: "multi-round bushy plan",
                        p: 64,
                        answers: chain_answers,
                    },
                ],
                ingest: None,
            }
        }
        "ingest_mix" => {
            let s = INGEST.scaled(divisor);
            let reserve = INGEST_RESERVE / divisor;
            let (tables, answers) = triangle(
                ["S1", "S2", "S3"],
                s.m + reserve,
                s.planted + reserve,
                0,
                &mut values,
                &mut rng,
            );
            // The first `planted` triangles are loaded; the rest are held
            // back as the INSERT stream (their edges are removed below).
            let (loaded, held): (Vec<Vec<u64>>, Vec<Vec<u64>>) = {
                let mut all = answers;
                let held = all.split_off(s.planted);
                (all, held)
            };
            let held_edges: std::collections::HashSet<Vec<u64>> = held
                .iter()
                .flat_map(|t| [vec![t[0], t[1]], vec![t[1], t[2]], vec![t[2], t[0]]])
                .collect();
            let tables = tables
                .into_iter()
                .map(|mut table| {
                    table.rows.retain(|row| !held_edges.contains(row));
                    table
                })
                .collect();
            Dataset {
                tables,
                queries: vec![Query {
                    label: "triangle",
                    text: TRIANGLE,
                    strategy: "one-round HyperCube",
                    p: 16,
                    answers: loaded,
                }],
                ingest: Some(Ingest {
                    batch: INGEST_BATCH.min(reserve.max(1)),
                    next: 0,
                    xs: held.iter().map(|t| t[0]).collect(),
                    ys: held.iter().map(|t| t[1]).collect(),
                    zs: held.iter().map(|t| t[2]).collect(),
                }),
            }
        }
        _ => return None,
    };
    Some(data)
}

/// Scale-down factor of the instance [`oracle_check`] evaluates.
pub const ORACLE_DIVISOR: usize = 20;

/// Check that the planted answers of `name`'s scaled-down instance are
/// exactly what `evaluate_sequential` returns, for every query class (and,
/// for `ingest_mix`, after three insert cycles).
pub fn oracle_check(name: &str, seed: u64) -> Result<(), String> {
    let mut data =
        build(name, seed, ORACLE_DIVISOR).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let mut dictionary = ValueDictionary::new();
    let mut relations = Vec::new();
    for table in &data.tables {
        let relation = parse_relation_text(
            table.name,
            &table.csv(),
            Path::new(table.name),
            &mut dictionary,
        )
        .map_err(|e| e.to_string())?;
        relations.push(relation);
    }
    let mut extra_answers: Vec<Vec<u64>> = Vec::new();
    if let Some(ingest) = data.ingest.as_mut() {
        for _ in 0..3 {
            let cycle = ingest.next_cycle().ok_or("ingest reserve too small")?;
            for (rel, rows) in cycle.inserts {
                let relation = relations
                    .iter_mut()
                    .find(|r| r.name() == rel)
                    .ok_or("insert into unknown relation")?;
                for row in rows {
                    let encoded: Vec<u64> = row
                        .iter()
                        .map(|v| dictionary.encode(&v.to_string()))
                        .collect();
                    relation.push_row(&encoded);
                }
            }
            extra_answers.extend(cycle.answers);
        }
    }
    let mut db = Database::new((dictionary.len() as u64).max(2));
    for r in relations {
        db.insert(r);
    }
    for query in &data.queries {
        let parsed = parse_query(query.text).map_err(|e| e.to_string())?;
        let mut out =
            evaluate_sequential(&parsed.query, &db).project(&parsed.head, parsed.query.name());
        out.dedup();
        let mut got = Digest::default();
        for row in out.iter() {
            let cells: Vec<String> = row
                .iter()
                .map(|&v| dictionary.decode_or_number(v))
                .collect();
            got.add_text(cells.join(",").as_bytes());
        }
        let mut want = Digest::of(&query.answers);
        for row in &extra_answers {
            want.add_row(row);
        }
        if want.rows == 0 || got != want {
            return Err(format!(
                "{name}/{}: oracle returns {} rows (hash {:#x}), planted {} rows (hash {:#x})",
                query.label, got.rows, got.hash, want.rows, want.hash
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_answer_counts_match_the_sizes() {
        let hc = build("hypercube_triangle", 1, 1).unwrap();
        assert_eq!(hc.queries[0].answers.len(), HC.planted);
        assert!(hc.tables.iter().all(|t| t.rows.len() == HC.m));

        let skew = build("skew_strategies", 1, 1).unwrap();
        let counts: Vec<usize> = skew.queries.iter().map(|q| q.answers.len()).collect();
        assert_eq!(
            counts,
            vec![
                SKEW_TRIANGLE.planted + SKEW_TRIANGLE.hub,
                SKEW_STAR.planted + 2 * SKEW_STAR.hub,
                CHAIN.planted
            ]
        );

        let mut ingest = build("ingest_mix", 1, 1).unwrap();
        assert_eq!(ingest.queries[0].answers.len(), INGEST.planted);
        assert!(ingest.tables.iter().all(|t| t.rows.len() == INGEST.m));
        let cycle = ingest.ingest.as_mut().unwrap().next_cycle().unwrap();
        assert_eq!(cycle.answers.len(), INGEST_BATCH);
        assert!(cycle
            .inserts
            .iter()
            .all(|(_, rows)| rows.len() == INGEST_BATCH));
    }

    #[test]
    fn hubs_exceed_the_heavy_hitter_threshold() {
        // The planner calls a value heavy above m/p; p = 64 here.
        assert!(SKEW_TRIANGLE.hub > SKEW_TRIANGLE.m / 64);
        assert!(SKEW_STAR.hub > SKEW_STAR.m / 64);
        let scaled = SKEW_TRIANGLE.scaled(ORACLE_DIVISOR);
        assert!(scaled.hub > 0 && scaled.planted > 0);
    }

    #[test]
    fn filler_never_shares_a_value_across_columns() {
        let data = build("skew_strategies", 3, 1).unwrap();
        let mut owner: std::collections::HashMap<u64, (&str, usize)> = Default::default();
        let planted: std::collections::HashSet<u64> = data
            .queries
            .iter()
            .flat_map(|q| q.answers.iter().flatten().copied())
            .collect();
        for table in &data.tables {
            for row in &table.rows {
                for (col, v) in row.iter().enumerate() {
                    if planted.contains(v) {
                        continue;
                    }
                    let first = *owner.entry(*v).or_insert((table.name, col));
                    assert_eq!(first, (table.name, col), "filler value {v} reused");
                }
            }
        }
    }

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        let a = build("hypercube_triangle", 5, 20).unwrap();
        let b = build("hypercube_triangle", 5, 20).unwrap();
        let c = build("hypercube_triangle", 6, 20).unwrap();
        assert_eq!(a.tables[0].csv(), b.tables[0].csv());
        assert_ne!(a.tables[0].csv(), c.tables[0].csv());
    }

    #[test]
    fn every_workload_matches_the_sequential_oracle() {
        for name in WORKLOADS {
            oracle_check(name, 11).unwrap();
        }
    }

    #[test]
    fn digest_is_order_independent() {
        let rows = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        let mut reversed = rows.clone();
        reversed.reverse();
        assert_eq!(Digest::of(&rows), Digest::of(&reversed));
        assert_ne!(Digest::of(&rows), Digest::of(&rows[..2]));
    }
}
