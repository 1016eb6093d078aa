//! The end-to-end run: one client connection drives the real `pqd` in a
//! closed loop, checks every answer against the planted ground truth and
//! reads the server processes' CPU time and peak memory from `/proc`.
//!
//! It prints raw samples as one JSON object; `run.py` turns them into the
//! reported metrics.

use crate::daemon::{
    cpu_seconds, metric_sum, status_mib, written_bytes, Client, Process, Response, Topology,
};
use crate::json::Json;
use crate::workload::{self, Dataset, Digest, Query};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub pqd: PathBuf,
    pub threads: usize,
    pub setups: usize,
    pub setup_only: usize,
    pub work_dir: PathBuf,
}

/// Checkpoint cadence of `ingest_mix`: with 3 deltas per cycle a run
/// completes several checkpoints.
const CHECKPOINT_EVERY: u64 = 60;
const CLUSTER_WORKERS: usize = 2;

/// Samples of one run.
#[derive(Default)]
struct Samples {
    query_ms: Vec<f64>,
    insert_ms: Vec<f64>,
    first_byte_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    wire_bytes: Vec<f64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    received_bytes: u64,
    user_bytes: u64,
    errors: Vec<String>,
    // Per pqd instance, or summed over them.
    measured_s: f64,
    cpu_s: f64,
    storage_bytes: u64,
    peak_rss_mib: Vec<f64>,
    checkpoints: Vec<f64>,
    instance_queries: Vec<f64>,
    retries: f64,
}

impl Samples {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(message);
        }
    }
}

/// pqd's flags for this workload (without `--data-dir`/`--cluster`, which
/// depend on the set-up).
fn daemon_flags(opts: &Options, data: &Path, p: usize) -> Vec<String> {
    let mut flags = vec![
        "--data".to_string(),
        data.display().to_string(),
        "--servers".to_string(),
        p.to_string(),
        "--threads".to_string(),
        opts.threads.to_string(),
        "--log-level".to_string(),
        "quiet".to_string(),
    ];
    if opts.workload == "ingest_mix" {
        flags.extend(
            ["--wal-sync", "group-commit", "--checkpoint-every"]
                .iter()
                .map(|s| s.to_string()),
        );
        flags.push(CHECKPOINT_EVERY.to_string());
    }
    flags
}

fn start(opts: &Options, flags: &[String], wal_dir: &Path) -> Result<Topology, String> {
    let mut processes = Vec::new();
    let mut flags = flags.to_vec();
    if opts.workload == "cluster_triangle" {
        let worker_flags: Vec<String> = ["--worker", "--threads", "1", "--log-level", "quiet"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for _ in 0..CLUSTER_WORKERS {
            processes.push(Process::spawn(&opts.pqd, &worker_flags)?);
        }
        let addrs: Vec<String> = processes.iter().map(|p| p.addr.clone()).collect();
        flags.push("--cluster".into());
        flags.push(addrs.join(","));
    }
    if opts.workload == "ingest_mix" {
        flags.push("--data-dir".into());
        flags.push(wal_dir.display().to_string());
    }
    processes.push(Process::spawn(&opts.pqd, &flags)?);
    Ok(Topology { processes })
}

/// Check one RUN response against the planted digest and the workload's
/// declared strategy and cache state.
fn check_run(response: &Response, query: &Query, want: Digest, cache: &str) -> Result<(), String> {
    if !response.ok() {
        return Err(format!("{}: {}", query.label, response.status));
    }
    if response.digest != want {
        return Err(format!(
            "{}: wrong answer: {} rows (hash {:#x}), planted {} rows (hash {:#x})",
            query.label, response.digest.rows, response.digest.hash, want.rows, want.hash
        ));
    }
    if response.strategy() != Some(query.strategy) {
        return Err(format!(
            "{}: planned as `{}`, declared `{}`",
            query.label,
            response.strategy().unwrap_or("?"),
            query.strategy
        ));
    }
    if response.field("cache") != Some(cache) {
        return Err(format!(
            "{}: cache={:?}, expected {cache}",
            query.label,
            response.field("cache")
        ));
    }
    if response.field("degraded") == Some("true") {
        return Err(format!(
            "{}: served degraded by the simulator fallback",
            query.label
        ));
    }
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn record_run(samples: &mut Samples, response: &Response) {
    samples.query_ms.push(ms(response.total));
    samples.first_byte_ms.push(ms(response.first_byte));
    samples
        .drain_ms
        .push(ms(response.total - response.first_byte));
    samples.received_bytes += response.bytes;
    if let Some(wire) = response
        .field("bytes_on_wire")
        .and_then(|v| v.parse::<f64>().ok())
    {
        samples.wire_bytes.push(wire);
    }
}

/// One RUN (counted, timed and checked).
fn run_query(
    client: &mut Client,
    samples: &mut Samples,
    query: &Query,
    want: Digest,
    cache: &str,
) -> Result<(), String> {
    samples.attempted += 1;
    let response = client.request(&format!("RUN {}", query.text))?;
    match check_run(&response, query, want, cache) {
        Ok(()) => record_run(samples, &response),
        Err(message) => {
            if response.ok() {
                samples.wrong += 1;
            }
            samples.fail(message);
        }
    }
    Ok(())
}

/// One `ingest_mix` cycle: three batched INSERTs, then the RUN that must
/// see them. Returns false once the reserved inserts are used up.
fn ingest_cycle(
    client: &mut Client,
    data: &mut Dataset,
    expected: &mut Digest,
    samples: &mut Samples,
    record: bool,
) -> Result<bool, String> {
    let Some(cycle) = data.ingest.as_mut().and_then(|i| i.next_cycle()) else {
        return Ok(false);
    };
    for (relation, rows) in &cycle.inserts {
        let payload: Vec<String> = rows.iter().map(|r| workload::row_text(r)).collect();
        let payload = payload.join(";");
        let response = client.request(&format!("INSERT {relation} {payload}"))?;
        let ok = response.ok()
            && response
                .status
                .contains(&format!("inserted {} row", rows.len()));
        if !record {
            if !ok {
                return Err(format!("INSERT {relation}: {}", response.status));
            }
            continue;
        }
        samples.attempted += 1;
        if ok {
            samples.insert_ms.push(ms(response.total));
            samples.received_bytes += response.bytes;
            samples.user_bytes += payload.len() as u64;
        } else {
            samples.fail(format!("INSERT {relation}: {}", response.status));
        }
    }
    for row in &cycle.answers {
        expected.add_row(row);
    }
    let query = &data.queries[0];
    if record {
        run_query(client, samples, query, *expected, "MISS")?;
    } else {
        let response = client.request(&format!("RUN {}", query.text))?;
        check_run(&response, query, *expected, "MISS")?;
    }
    Ok(true)
}

pub fn run(opts: &Options) -> Result<Json, String> {
    let name = opts.workload.as_str();
    workload::oracle_check(name, opts.seed)?;
    let mut data =
        workload::build(name, opts.seed, 1).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let data_dir = opts.work_dir.join("data");
    data.write_csv(&data_dir).map_err(|e| e.to_string())?;
    let p = data.queries[0].p;
    let flags = daemon_flags(opts, &data_dir, p);

    // Each set-up (spawn → first OK) starts a fresh pqd. The first
    // `setups` of them then serve an equal share of the measured time; the
    // `setup_only` ones after them are shut down at once.
    let mut samples = Samples::default();
    let mut setup_s = Vec::new();
    let share = opts.seconds / opts.setups as f64;
    for i in 0..opts.setups + opts.setup_only {
        let wal_dir = opts.work_dir.join(format!("wal-{i}"));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let t0 = Instant::now();
        let topology = start(opts, &flags, &wal_dir)?;
        let connected = Client::connect(topology.daemon_addr()).and_then(|mut client| {
            let response = client.request(&format!("SERVERS {p}"))?;
            if response.ok() {
                Ok(client)
            } else {
                Err(format!("SERVERS {p}: {}", response.status))
            }
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        let result = connected.and_then(|mut client| {
            if i < opts.setups {
                measure(&mut data, &topology, &mut client, share, &mut samples)
            } else {
                Ok(())
            }
        });
        topology.shutdown();
        let _ = std::fs::remove_dir_all(&wal_dir);
        result?;
        if data.ingest.is_some() && i < opts.setups {
            // A fresh pqd starts from the CSV again: restart the stream.
            data.ingest = workload::build(name, opts.seed, 1).and_then(|d| d.ingest);
        }
    }

    let mut out = Json::obj();
    out.set("workload", name)
        .set("seed", opts.seed)
        .set("pqd_flags", flags.join(" "))
        .set("setup_s", setup_s)
        .set("measured_s", samples.measured_s)
        .set("attempted", samples.attempted)
        .set("failed", samples.failed)
        .set("wrong", samples.wrong)
        .set("server_cpu_s", samples.cpu_s)
        .set("peak_rss_mib", std::mem::take(&mut samples.peak_rss_mib))
        .set("storage_bytes", samples.storage_bytes)
        .set("user_bytes", samples.user_bytes)
        .set("checkpoints", std::mem::take(&mut samples.checkpoints))
        .set(
            "instance_queries",
            std::mem::take(&mut samples.instance_queries),
        )
        .set("cluster_retries", samples.retries)
        .set("query_ms", std::mem::take(&mut samples.query_ms))
        .set("insert_ms", std::mem::take(&mut samples.insert_ms))
        .set("first_byte_ms", std::mem::take(&mut samples.first_byte_ms))
        .set("drain_ms", std::mem::take(&mut samples.drain_ms))
        .set("wire_bytes", std::mem::take(&mut samples.wire_bytes))
        .set("errors", std::mem::take(&mut samples.errors));
    Ok(out)
}

/// Warm up one pqd, then measure it for `seconds`, adding to `samples`.
fn measure(
    data: &mut Dataset,
    topology: &Topology,
    client: &mut Client,
    seconds: f64,
    samples: &mut Samples,
) -> Result<(), String> {
    let pids = topology.pids();
    let daemon_pid = *pids.last().expect("pqd is always started");
    let mut expected: Vec<Digest> = data
        .queries
        .iter()
        .map(|q| Digest::of(&q.answers))
        .collect();

    // Warm-up: the first run of each query is checked but not timed.
    if data.ingest.is_some() {
        let response = client.request(&format!("RUN {}", data.queries[0].text))?;
        check_run(&response, &data.queries[0], expected[0], "MISS")?;
        ingest_cycle(client, data, &mut expected[0], samples, false)?;
    } else {
        for (query, want) in data.queries.iter().zip(&expected) {
            let response = client.request(&format!("RUN {}", query.text))?;
            check_run(&response, query, *want, "MISS")?;
        }
    }

    let before = client.metrics()?;
    let cpu0: f64 = pids.iter().map(|&p| cpu_seconds(p)).sum();
    let written0 = written_bytes(daemon_pid);
    let received0 = samples.received_bytes;
    let queries0 = samples.query_ms.len();
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while t0.elapsed() < budget {
        if data.ingest.is_some() {
            if !ingest_cycle(client, data, &mut expected[0], samples, true)? {
                break;
            }
        } else {
            let k = i % data.queries.len();
            run_query(client, samples, &data.queries[k], expected[k], "HIT")?;
        }
        i += 1;
    }
    samples.measured_s += t0.elapsed().as_secs_f64();
    samples.cpu_s += pids.iter().map(|&p| cpu_seconds(p)).sum::<f64>() - cpu0;
    samples
        .instance_queries
        .push((samples.query_ms.len() - queries0) as f64);
    samples.storage_bytes += written_bytes(daemon_pid)
        .saturating_sub(written0)
        .saturating_sub(samples.received_bytes - received0);
    samples.peak_rss_mib.push(
        pids.iter()
            .map(|&p| status_mib(p, "VmHWM:"))
            .fold(0.0, f64::max),
    );
    let after = client.metrics()?;
    let delta = |name: &str| metric_sum(&after, name) - metric_sum(&before, name);
    samples.checkpoints.push(delta("pq_wal_checkpoints_total"));
    samples.retries += delta("pq_cluster_retries_total");
    Ok(())
}
