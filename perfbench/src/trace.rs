//! The per-layer traced run.
//!
//! In-process, from the same seed and the same CSV files as the
//! end-to-end run, it replays each query the way `Session::run` executes
//! it, calling each layer's public function in turn and recording a span
//! (name, start, end, parent) around every call. Spans are kept in memory
//! and written to `spans.tsv` in the work directory at exit. A layer's
//! self time is its span minus the union of its children. After every
//! replay the same query runs once through `Session::run`, and
//! `trace.coverage` compares the replay's stage spans with that wall time.
//!
//! The spans sit in this file, around calls into the program; the program
//! itself carries none. Where a layer runs inside a call that has no
//! public seam (the skew-aware and multi-round algorithms route and
//! communicate inside `run_plan`), the metric has no samples; the run
//! reports the median of every metric it has samples of, and `run.py`
//! names the declared ones it lacks, with the reason.

use crate::daemon::Process;
use crate::json::Json;
use crate::workload::{self, Digest};
use pq_core::bounds::one_round::lower_bound_load;
use pq_core::hypercube::{local_join, HyperCubeRouter};
use pq_engine::{
    open_durable, parse_query, plan_query_on, run_plan, Delta, DurabilityOptions, Engine,
    ExecBackend, Plan, Snapshot, Strategy,
};
use pq_exec::TaskPool;
use pq_mpc::net::{write_frame, AtomSpec, ClusterConfig, Frame, RoundProgram, WorkerPool};
use pq_mpc::{map_servers_parallel, Cluster, Message, Payload, RunMetrics};
use pq_query::instantiate;
use pq_relation::{load_database_files, Relation, Schema, ValueDictionary};
use pq_wal::SyncPolicy;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub pqd: PathBuf,
    pub threads: usize,
    pub work_dir: PathBuf,
}

/// Same cadence as the end-to-end run's `--checkpoint-every`.
const CHECKPOINT_EVERY: usize = 60;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

/// In-memory span collector; ids are indices.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) -> Duration {
        assert_eq!(self.stack.pop(), Some(id), "spans close in order");
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed().as_nanos() as u64;
        Duration::from_nanos(span.end - span.start)
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let result = f();
        self.close(id);
        result
    }

    /// A span around `f` whose duration is also a sample of `metric`.
    fn timed<R>(
        &mut self,
        name: &'static str,
        samples: &mut Samples,
        metric: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name);
        let result = f();
        samples.push(metric, ms(self.close(id)));
        result
    }

    /// A span timed elsewhere (a parallel task or a callback).
    fn record(&mut self, name: &'static str, parent: usize, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start,
            end,
        });
    }

    fn duration_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end - s.start) as f64 / 1e6
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    fn self_times_ms(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start - covered) as f64 / 1e6
            })
            .collect()
    }

    fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let self_ms = self.self_times_ms();
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\tself_ms\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{:.6}",
                s.name, s.start, s.end, self_ms[id]
            );
        }
        std::fs::write(path, out)
    }
}

/// Per-metric samples; each metric reports the median of its samples.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> Option<f64> {
        let mut v = self.0.get(name)?.clone();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let n = v.len();
        Some(if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        })
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// CPU seconds of this process or thread (nanosecond resolution).
fn cpu_clock(clock: i32) -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable timespec for the call.
    let status = unsafe { clock_gettime(clock, &mut time) };
    if status != 0 {
        return 0.0;
    }
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

fn message_rows(messages: &[Message]) -> usize {
    messages
        .iter()
        .map(|m| match &m.payload {
            Payload::Tuples(r) => r.len(),
            Payload::Raw { .. } => 0,
        })
        .sum()
}

/// Model-load figures of one run: max load, max/mean skew, and max load
/// over the one-round lower bound.
fn record_loads(samples: &mut Samples, plan: &Plan, snapshot: &Snapshot, metrics: &RunMetrics) {
    let max = metrics.max_load() as f64;
    samples.push("mpc.max_load_bits", max);
    let skew = metrics
        .rounds
        .iter()
        .filter(|r| r.mean_load() > 0.0)
        .map(|r| r.max_load() as f64 / r.mean_load())
        .fold(0.0, f64::max);
    samples.push("mpc.load_skew", skew);
    let sizes = snapshot.database().sizes_bits();
    let bound = lower_bound_load(&plan.parsed.query, &sizes, plan.p);
    if bound > 0.0 {
        samples.push("mpc.load_vs_bound", max / bound);
    }
}

/// The one-round HyperCube execute path of `run_plan`, stage by stage.
fn hypercube_replay(
    tr: &mut Tracer,
    samples: &mut Samples,
    plan: &Plan,
    snapshot: &Snapshot,
    seed: u64,
    pool: &Arc<TaskPool>,
) -> Relation {
    let Strategy::HyperCube { shares } = &plan.strategy else {
        unreachable!("called for HyperCube plans only")
    };
    let threads = pool.threads() as f64;
    pool.install(|| {
        let database = snapshot.database();
        let query = &plan.parsed.query;
        let bound = tr.timed("query.instantiate", samples, "query.instantiate_ms", || {
            instantiate(query, database)
        });
        let route = tr.open("hypercube.route");
        let mut cluster = Cluster::new(plan.p, database.bits_per_value());
        cluster.set_input_bits(database.total_size_bits());
        let router = HyperCubeRouter::new(query, shares, seed, 0, 0);
        let messages = router.route_bound(&bound);
        let route_ms = ms(tr.close(route));
        let input_rows: usize = bound.iter().map(Relation::len).sum();
        samples.push("hypercube.route_ms", route_ms);
        samples.push(
            "hypercube.route_ns_per_row",
            route_ms * 1e6 / input_rows.max(1) as f64,
        );
        samples.push("hypercube.routed_rows", message_rows(&messages) as f64);
        let communicate = tr.open("mpc.communicate");
        cluster.communicate(messages);
        samples.push("mpc.communicate_ms", ms(tr.close(communicate)));

        // Per server: wall span for the tree, thread CPU time for the sums
        // (on a host that time-slices the pool, wall spans overlap).
        let fanout = tr.open("local_join.fanout");
        let origin = tr.origin;
        let process_cpu = cpu_clock(CLOCK_PROCESS_CPUTIME_ID);
        let outputs: Vec<(Relation, u64, u64, f64)> =
            map_servers_parallel(cluster.servers(), |_, server| {
                let start = origin.elapsed().as_nanos() as u64;
                let cpu = cpu_clock(CLOCK_THREAD_CPUTIME_ID);
                let out = local_join(query, server);
                let cpu_ms = (cpu_clock(CLOCK_THREAD_CPUTIME_ID) - cpu) * 1e3;
                (out, start, origin.elapsed().as_nanos() as u64, cpu_ms)
            });
        let process_cpu_ms = (cpu_clock(CLOCK_PROCESS_CPUTIME_ID) - process_cpu) * 1e3;
        let fanout_ms = ms(tr.close(fanout));
        let mut sum_ms = 0.0f64;
        let mut max_ms = 0.0f64;
        let mut out_rows = 0usize;
        for (out, start, end, cpu_ms) in &outputs {
            tr.record("local_join.server", fanout, *start, *end);
            sum_ms += cpu_ms;
            max_ms = max_ms.max(*cpu_ms);
            out_rows += out.len();
        }
        samples.push("local_join.sum_ms", sum_ms);
        samples.push("local_join.max_server_ms", max_ms);
        samples.push("local_join.out_rows", out_rows as f64);
        samples.push(
            "exec.parallel_efficiency",
            process_cpu_ms / (fanout_ms * threads).max(1e-9),
        );

        let output = tr.timed("merge.dedup", samples, "merge.dedup_ms", || {
            let mut merged = Relation::empty(Schema::new(query.name(), query.variables()));
            for (out, ..) in &outputs {
                merged.append(out);
            }
            merged.dedup();
            let mut projected = merged.project(&plan.parsed.head, query.name());
            projected.dedup();
            projected
        });
        record_loads(samples, plan, snapshot, cluster.metrics());
        output
    })
}

/// The cluster execute path of `run_plan_on`: route inside
/// `WorkerPool::execute`, then project and dedup.
#[allow(clippy::too_many_arguments)]
fn cluster_replay(
    tr: &mut Tracer,
    samples: &mut Samples,
    plan: &Plan,
    snapshot: &Snapshot,
    seed: u64,
    pool: &Arc<TaskPool>,
    workers: &WorkerPool,
    engine: &Engine,
) -> Result<Relation, String> {
    pool.install(|| {
        let database = snapshot.database();
        let query = &plan.parsed.query;
        let bound = tr.timed("query.instantiate", samples, "query.instantiate_ms", || {
            instantiate(query, database)
        });
        let router = HyperCubeRouter::new(query, &plan.shares, seed, 0, 0);
        let program = RoundProgram {
            name: query.name().to_string(),
            output_vars: query.variables(),
            atoms: bound
                .iter()
                .map(|r| AtomSpec {
                    relation: r.name().to_string(),
                    variables: r.schema().attributes().to_vec(),
                })
                .collect(),
        };
        let origin = tr.origin;
        let routes: RefCell<Vec<(u64, u64, usize)>> = RefCell::new(Vec::new());
        let retries_before = workers.stats().retries;
        let registry = engine.metrics();
        let round = tr.open("net.round");
        let result = workers.execute(
            plan.p,
            database.bits_per_value(),
            database.total_size_bits(),
            &program,
            &|| {
                let start = origin.elapsed().as_nanos() as u64;
                let messages = router.route_bound(&bound);
                routes.borrow_mut().push((
                    start,
                    origin.elapsed().as_nanos() as u64,
                    message_rows(&messages),
                ));
                messages
            },
            Some(&registry),
        );
        samples.push("net.round_ms", ms(tr.close(round)));
        let input_rows: usize = bound.iter().map(Relation::len).sum();
        for (start, end, rows) in routes.into_inner() {
            tr.record("hypercube.route", round, start, end);
            let route_ms = (end - start) as f64 / 1e6;
            samples.push("hypercube.route_ms", route_ms);
            samples.push(
                "hypercube.route_ns_per_row",
                route_ms * 1e6 / input_rows.max(1) as f64,
            );
            samples.push("hypercube.routed_rows", rows as f64);
        }
        samples.push(
            "net.retries",
            (workers.stats().retries - retries_before) as f64,
        );
        let (raw, metrics) = result.map_err(|e| e.to_string())?;
        samples.push("net.bytes_on_wire", metrics.bytes_on_wire() as f64);
        record_loads(samples, plan, snapshot, &metrics);
        Ok(tr.timed("merge.dedup", samples, "merge.dedup_ms", || {
            let mut projected = raw.project(&plan.parsed.head, query.name());
            projected.dedup();
            projected
        }))
    })
}

/// The frame codec alone, outside the replay: encode a query's routed
/// fragments into memory.
fn encode_ms(plan: &Plan, snapshot: &Snapshot, seed: u64) -> Result<f64, String> {
    let bound = instantiate(&plan.parsed.query, snapshot.database());
    let router = HyperCubeRouter::new(&plan.parsed.query, &plan.shares, seed, 0, 0);
    let messages = router.route_bound(&bound);
    let start = Instant::now();
    let mut buffer = Vec::new();
    for message in messages {
        if let Payload::Tuples(relation) = message.payload {
            write_frame(&mut buffer, &Frame::Fragment { round: 1, relation })
                .map_err(|e| e.to_string())?;
        }
    }
    let elapsed = ms(start.elapsed());
    std::hint::black_box(buffer);
    Ok(elapsed)
}

fn decode_digest(relation: &Relation, dictionary: &ValueDictionary) -> Digest {
    let mut digest = Digest::default();
    for row in relation.iter() {
        let cells: Vec<String> = row
            .iter()
            .map(|&v| dictionary.decode_or_number(v))
            .collect();
        digest.add_text(cells.join(",").as_bytes());
    }
    digest
}

pub fn run(opts: &Options) -> Result<Json, String> {
    let name = opts.workload.as_str();
    let mut data =
        workload::build(name, opts.seed, 1).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let data_dir = opts.work_dir.join("data");
    data.write_csv(&data_dir).map_err(|e| e.to_string())?;
    let (database, dictionary) = load_database_files(&[data_dir]).map_err(|e| e.to_string())?;
    let p = data.queries[0].p;
    let mut samples = Samples::default();
    let mut tr = Tracer::new();

    for _ in 0..3 {
        let copy = database.clone();
        let id = tr.open("snapshot.analyze");
        let snapshot = Snapshot::new(copy);
        samples.push("snapshot.analyze_ms", ms(tr.close(id)));
        drop(snapshot);
    }

    // Engines: the one queries run on (durable for ingest_mix, cluster
    // backed for cluster_triangle), plus an in-memory twin for ingest_mix.
    let mut workers_started: Vec<Process> = Vec::new();
    let mut memory_twin: Option<(Engine, ValueDictionary)> = None;
    let (engine, shared_dictionary) = match name {
        "ingest_mix" => {
            let wal_dir = opts.work_dir.join("wal-trace");
            let _ = std::fs::remove_dir_all(&wal_dir);
            let options = DurabilityOptions {
                sync: SyncPolicy::GroupCommit,
                checkpoint_every: 0,
            };
            memory_twin = Some((Engine::new(database.clone(), p), dictionary.clone()));
            let opened = open_durable(&wal_dir, options, p, Some((database, dictionary)))
                .map_err(|e| e.to_string())?;
            (opened.engine, opened.dictionary)
        }
        "cluster_triangle" => {
            let flags: Vec<String> = ["--worker", "--threads", "1", "--log-level", "quiet"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            for _ in 0..2 {
                workers_started.push(Process::spawn(&opts.pqd, &flags)?);
            }
            let config =
                ClusterConfig::new(workers_started.iter().map(|w| w.addr.clone()).collect());
            (
                Engine::new(database, p).with_backend(ExecBackend::cluster(config)),
                Arc::new(RwLock::new(dictionary)),
            )
        }
        _ => (Engine::new(database, p), Arc::new(RwLock::new(dictionary))),
    };
    let engine = engine.with_threads(opts.threads);
    let session = engine.session();
    let pool = Arc::clone(engine.pool());
    let workers = match engine.default_backend() {
        ExecBackend::Cluster { pool, .. } => Some(pool.clone()),
        ExecBackend::Simulator => None,
    };
    let seed = session.seed();

    let mut expected: Vec<Digest> = data
        .queries
        .iter()
        .map(|q| Digest::of(&q.answers))
        .collect();
    let mut errors: Vec<String> = Vec::new();
    let mut coverage: Vec<f64> = Vec::new();
    let replans = data.ingest.is_some();
    let mut deltas = 0usize;
    let mut rows_inserted = 0usize;
    let wal_counter = |c: &str| engine.metrics().counter_value(c, &[]) as f64;
    let (fsyncs0, wal_bytes0) = (
        wal_counter("pq_wal_fsyncs_total"),
        wal_counter("pq_wal_bytes_total"),
    );
    let cache0 = engine.cache_stats();

    // Warm-up: each query once through the session (plans are cached, as
    // in pqd after its first run).
    for query in &data.queries {
        session.run(query.text).map_err(|e| e.to_string())?;
    }
    let cpu0 = cpu_clock(CLOCK_PROCESS_CPUTIME_ID);
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut i = 0usize;
    while t0.elapsed() < budget {
        if let Some(ingest) = data.ingest.as_mut() {
            let Some(cycle) = ingest.next_cycle() else {
                break;
            };
            let (twin, twin_dictionary) = memory_twin
                .as_mut()
                .expect("ingest_mix has an in-memory twin");
            for (relation, rows) in &cycle.inserts {
                let encode = |dict: &mut ValueDictionary| -> Vec<Vec<u64>> {
                    rows.iter()
                        .map(|r| r.iter().map(|v| dict.encode(&v.to_string())).collect())
                        .collect()
                };
                let memory = Delta::insert(*relation, encode(twin_dictionary));
                let durable = Delta::insert(
                    *relation,
                    encode(
                        &mut shared_dictionary
                            .write()
                            .unwrap_or_else(PoisonError::into_inner),
                    ),
                );
                // Alternate which engine applies first, so neither always
                // finds the caches warm.
                for turn in 0..2 {
                    if (turn + deltas).is_multiple_of(2) {
                        let id = tr.open("delta.apply");
                        twin.apply(memory.clone()).map_err(|e| e.to_string())?;
                        samples.push("delta.apply_us", ms(tr.close(id)) * 1e3);
                    } else {
                        let id = tr.open("wal.apply");
                        engine.apply(durable.clone()).map_err(|e| e.to_string())?;
                        samples.push("wal.apply_us", ms(tr.close(id)) * 1e3);
                    }
                }
                deltas += 1;
                rows_inserted += rows.len();
                if deltas.is_multiple_of(CHECKPOINT_EVERY) {
                    let id = tr.open("wal.checkpoint");
                    engine.checkpoint().map_err(|e| e.to_string())?;
                    samples.push("wal.checkpoint_ms", ms(tr.close(id)));
                }
            }
            for row in &cycle.answers {
                expected[0].add_row(row);
            }
        }
        let k = i % data.queries.len();
        i += 1;
        let query = &data.queries[k];
        let snapshot = engine.snapshot();

        // The planner alone (outside the replay when plans come cached).
        let parsed = parse_query(query.text).map_err(|e| e.to_string())?;
        if !replans {
            let start = Instant::now();
            plan_query_on(&parsed, &snapshot, p).map_err(|e| e.to_string())?;
            samples.push("planner.plan_ms", ms(start.elapsed()));
        }

        let root = tr.open("replay");
        let parse = tr.open("parser.parse");
        let parsed = parse_query(query.text).map_err(|e| e.to_string())?;
        samples.push("parser.parse_us", ms(tr.close(parse)) * 1e3);
        let plan = if replans {
            let id = tr.open("planner.plan");
            let plan = plan_query_on(&parsed, &snapshot, p).map_err(|e| e.to_string())?;
            samples.push("planner.plan_ms", ms(tr.close(id)));
            plan
        } else {
            tr.span("cache.lookup", || session.plan(query.text))
                .map_err(|e| e.to_string())?
                .0
        };
        if plan.strategy.name() != query.strategy {
            errors.push(format!(
                "{}: planned as `{}`",
                query.label,
                plan.strategy.name()
            ));
        }
        let output = match (&plan.strategy, &workers) {
            (Strategy::HyperCube { .. }, None) => {
                let id = tr.open("execute");
                let out = hypercube_replay(&mut tr, &mut samples, &plan, &snapshot, seed, &pool);
                tr.close(id);
                out
            }
            (Strategy::HyperCube { .. }, Some(workers)) => {
                let id = tr.open("execute");
                let out = cluster_replay(
                    &mut tr,
                    &mut samples,
                    &plan,
                    &snapshot,
                    seed,
                    &pool,
                    workers,
                    &engine,
                );
                tr.close(id);
                samples.push("net.encode_ms", encode_ms(&plan, &snapshot, seed)?);
                out?
            }
            (strategy, _) => {
                let metric = match strategy {
                    Strategy::SkewAwareTriangle { .. } => "skew.triangle_ms",
                    Strategy::SkewAwareStar { .. } => "skew.star_ms",
                    _ => "multiround.run_ms",
                };
                let id = tr.open("execute");
                let outcome = pool.install(|| run_plan(&plan, &snapshot, seed));
                samples.push(metric, ms(tr.close(id)));
                if matches!(strategy, Strategy::MultiRound { .. }) {
                    samples.push("multiround.rounds", outcome.metrics.num_rounds() as f64);
                }
                record_loads(&mut samples, &plan, &snapshot, &outcome.metrics);
                outcome.output
            }
        };
        tr.close(root);
        let stages_ms: f64 = tr.spans[root..]
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(root))
            .map(|(j, _)| tr.duration_ms(root + j))
            .sum();
        let got = decode_digest(
            &output,
            &shared_dictionary
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        );
        if got != expected[k] {
            errors.push(format!(
                "{}: replay returned {} rows, planted {}",
                query.label, got.rows, expected[k].rows
            ));
        }

        // The same query through the engine's own entry point.
        let start = Instant::now();
        let run = session.run(query.text).map_err(|e| e.to_string())?;
        let session_ms = ms(start.elapsed());
        std::hint::black_box(run);
        coverage.push(stages_ms / session_ms);
    }
    let wall = t0.elapsed().as_secs_f64();
    samples.push(
        "exec.cpu_per_wall",
        (cpu_clock(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / wall,
    );
    let cache = engine.cache_stats();
    let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
    samples.push(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    if deltas > 0 {
        samples.push(
            "wal.fsyncs_per_delta",
            (wal_counter("pq_wal_fsyncs_total") - fsyncs0) / deltas as f64,
        );
        samples.push(
            "wal.bytes_per_row",
            (wal_counter("pq_wal_bytes_total") - wal_bytes0) / rows_inserted as f64,
        );
        if let (Some(durable), Some(memory)) = (
            samples.median("wal.apply_us"),
            samples.median("delta.apply_us"),
        ) {
            samples.push("wal.log_us", durable - memory);
        }
    }
    if let Some(config) = engine.default_backend().cluster_config() {
        pq_mpc::net::shutdown_workers(config);
    }
    for worker in workers_started {
        worker.reap(Duration::from_secs(10));
    }
    tr.write_tsv(&opts.work_dir.join("spans.tsv"))
        .map_err(|e| e.to_string())?;

    let mut metrics = Json::obj();
    for metric in samples.0.keys() {
        if let Some(v) = samples.median(metric) {
            metrics.set(metric, v);
        }
    }
    let mut sorted = coverage.clone();
    sorted.sort_by(f64::total_cmp);
    let mut out = Json::obj();
    out.set("workload", name)
        .set("seed", opts.seed)
        .set("queries", i)
        .set("spans", tr.spans.len())
        .set(
            "trace_coverage",
            sorted.get(sorted.len() / 2).copied().unwrap_or(0.0),
        )
        .set("metrics", metrics)
        .set("errors", errors);
    Ok(out)
}
