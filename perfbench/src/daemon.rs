//! Starting pqd (and its workers), talking its line protocol, and reading
//! the processes' CPU time and peak memory from `/proc`.

use crate::workload::Digest;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A started `pqd` process with the address it printed.
pub struct Process {
    child: Child,
    // Held so the process never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Process {
    /// Start `pqd ARGS` and wait for its `… listening on ADDR` line.
    pub fn spawn(pqd: &Path, args: &[String]) -> Result<Process, String> {
        let mut child = Command::new(pqd)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", pqd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().rsplit(' ').next().unwrap_or("").to_string();
        if read.is_err() || !line.contains("listening on") {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "pqd {args:?} did not start (printed `{}`)",
                line.trim()
            ));
        }
        Ok(Process {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait up to `grace` for the process to exit, then kill it.
    pub fn reap(mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Process {
    /// A process still running when its handle goes (an error path, or
    /// the end of `reap`'s grace) is killed and waited for.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// pqd plus, for a cluster, its workers (workers first).
pub struct Topology {
    pub processes: Vec<Process>,
}

impl Topology {
    pub fn pids(&self) -> Vec<u32> {
        self.processes.iter().map(Process::pid).collect()
    }

    pub fn daemon_addr(&self) -> &str {
        &self.processes.last().expect("pqd is always started").addr
    }

    /// Ask pqd to SHUTDOWN (it stops its workers too), then make sure every
    /// process has exited.
    pub fn shutdown(self) {
        if let Ok(mut c) = Client::connect(self.daemon_addr()) {
            let _ = c.request("SHUTDOWN");
        }
        // The daemon goes first: it checkpoints, then stops the workers.
        for process in self.processes.into_iter().rev() {
            process.reap(Duration::from_secs(20));
        }
    }
}

/// One response block.
pub struct Response {
    /// The `OK …` or `ERR …` line.
    pub status: String,
    /// Digest of the `ROW` lines.
    pub digest: Digest,
    /// From sending the request to its first response byte.
    pub first_byte: Duration,
    /// From sending the request to the end of the status line.
    pub total: Duration,
    /// Bytes of the whole response.
    pub bytes: u64,
}

impl Response {
    pub fn ok(&self) -> bool {
        self.status.starts_with("OK")
    }

    /// Value of `key=` in the status line.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.status
            .split(' ')
            .find_map(|f| f.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
    }

    /// The strategy name: the status line's text between `strategy=` and
    /// ` cache=`.
    pub fn strategy(&self) -> Option<&str> {
        let rest = self.status.split_once("strategy=")?.1;
        Some(rest.split_once(" cache=").map_or(rest, |(s, _)| s))
    }
}

/// One TCP connection speaking pqd's line protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl Client {
    /// Connect and read the `READY` greeting.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut client = Client {
            reader: BufReader::with_capacity(1 << 20, stream),
            writer,
            line: Vec::with_capacity(256),
        };
        client.read_line()?;
        if !client.line.starts_with(b"READY") {
            return Err(format!(
                "unexpected greeting `{}`",
                String::from_utf8_lossy(&client.line)
            ));
        }
        Ok(client)
    }

    fn read_line(&mut self) -> Result<usize, String> {
        self.line.clear();
        let n = self
            .reader
            .read_until(b'\n', &mut self.line)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed".into());
        }
        while matches!(self.line.last(), Some(b'\n' | b'\r')) {
            self.line.pop();
        }
        Ok(n)
    }

    /// Send one request line and read its response block.
    pub fn request(&mut self, line: &str) -> Result<Response, String> {
        let start = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        // Block until the first response byte is buffered.
        self.reader.fill_buf().map_err(|e| e.to_string())?;
        let first_byte = start.elapsed();
        let mut digest = Digest::default();
        let mut bytes = 0u64;
        loop {
            bytes += self.read_line()? as u64;
            if let Some(row) = self.line.strip_prefix(b"ROW ") {
                digest.add_text(row);
            } else if self.line.starts_with(b"OK") || self.line.starts_with(b"ERR") {
                break;
            }
        }
        Ok(Response {
            status: String::from_utf8_lossy(&self.line).into_owned(),
            digest,
            first_byte,
            total: start.elapsed(),
            bytes,
        })
    }

    /// `METRICS` as text (the exposition lines before `OK`).
    pub fn metrics(&mut self) -> Result<String, String> {
        self.writer
            .write_all(b"METRICS\n")
            .map_err(|e| e.to_string())?;
        let mut text = String::new();
        loop {
            self.read_line()?;
            if self.line.starts_with(b"OK") {
                return Ok(text);
            }
            if self.line.starts_with(b"ERR") {
                return Err(String::from_utf8_lossy(&self.line).into_owned());
            }
            text.push_str(&String::from_utf8_lossy(&self.line));
            text.push('\n');
        }
    }
}

/// Sum of the samples of metric `name` (any labels) in a Prometheus text
/// exposition.
pub fn metric_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with([' ', '{']))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// Clock ticks per second of `/proc/*/stat` times.
fn clock_ticks() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf only reads a configuration value.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// utime + stime of process `pid` (all its threads), in seconds.
pub fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / clock_ticks()
}

/// Field `key` (in kB) of `/proc/PID/status`, in MiB.
pub fn status_mib(pid: u32, key: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
        / 1024.0
}

/// `wchar` of `/proc/PID/io`: bytes the process passed to write calls.
pub fn written_bytes(pid: u32) -> u64 {
    let io = std::fs::read_to_string(format!("/proc/{pid}/io")).unwrap_or_default();
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}
