//! `perfbench`: the benchmark's compiled half.
//!
//! ```text
//! perfbench e2e   --workload W --seed S --seconds T --pqd PATH [--setups K] [--setup-only N]
//!                 --work DIR
//! perfbench trace --workload W --seed S --seconds T --pqd PATH --work DIR
//! perfbench probe
//! ```
//!
//! `e2e` and `trace` print one JSON object of raw samples; `probe` prints
//! the host's capacity. pqd's executor pool, and the traced engine's, is
//! `nproc` threads. `perfbench/run.py` drives all three; see
//! `perfbench/README.md`.

mod daemon;
mod e2e;
mod json;
mod trace;
mod workload;

use json::Json;
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench e2e|trace --workload W --seed S --seconds T --pqd PATH --work DIR \
         [--setups K] [--setup-only N]\n       perfbench probe"
    );
    std::process::exit(2);
}

/// Spin-loop throughput with `threads` threads, in loop iterations per
/// second.
fn spin_rate(threads: usize) -> f64 {
    const ITERS: u64 = 40_000_000;
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut x = t as u64 + 1;
                for _ in 0..ITERS {
                    x = std::hint::black_box(x ^ (x << 13) ^ (x >> 7));
                }
                x
            });
        }
    });
    (threads as u64 * ITERS) as f64 / start.elapsed().as_secs_f64()
}

fn probe() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let one = spin_rate(1);
    let all = spin_rate(nproc);
    let mut out = Json::obj();
    out.set("nproc", nproc).set("parallel_capacity", all / one);
    out
}

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| usage());
    if command == "probe" {
        println!("{}", probe().render());
        return;
    }
    let mut workload = String::new();
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut pqd = PathBuf::new();
    let mut work = PathBuf::new();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut setups = 3usize;
    let mut setup_only = 0usize;
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        let number = || value.parse::<f64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => workload = value.clone(),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = number(),
            "--pqd" => pqd = PathBuf::from(&value),
            "--work" => work = PathBuf::from(&value),
            "--setups" => setups = number() as usize,
            "--setup-only" => setup_only = number() as usize,
            _ => usage(),
        }
    }
    if !workload::WORKLOADS.contains(&workload.as_str())
        || work.as_os_str().is_empty()
        || setups == 0
    {
        usage();
    }
    let result = match command.as_str() {
        "e2e" => e2e::run(&e2e::Options {
            workload,
            seed,
            seconds,
            pqd,
            threads,
            setups,
            setup_only,
            work_dir: work,
        }),
        "trace" => trace::run(&trace::Options {
            workload,
            seed,
            seconds,
            pqd,
            threads,
            work_dir: work,
        }),
        _ => usage(),
    };
    match result {
        Ok(json) => println!("{}", json.render()),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}
