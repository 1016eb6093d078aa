//! The real-wire backend: a binary framed protocol, worker processes and a
//! coordinator that together execute MPC rounds over TCP.
//!
//! The in-process [`crate::Cluster`] *simulates* the paper's cost model;
//! this module runs the same round structure on actual sockets so the
//! reported load can be checked against measured bytes on a real wire:
//!
//! * [`codec`] — the frame format: magic `PQW1`, a type byte, a u32
//!   little-endian length prefix, and a payload whose relation fragments
//!   are the flat row buffers shipped verbatim
//!   ([`pq_relation::Relation::write_rows_le`]);
//! * [`worker`] — the worker loop behind `pqd --worker`: accept a
//!   coordinator connection, merge incoming fragments by relation name
//!   (exactly like the simulator's [`crate::Server`]), answer each
//!   `Execute` with the local join of its fragments, and shut down cleanly
//!   on a `Shutdown` frame; [`LocalWorkers`] spawns the same loop on
//!   in-process threads for tests and benchmarks;
//! * [`coordinator`] — the driver: maps the algorithm's `p` *logical*
//!   servers onto the configured workers (`server % workers`), ships each
//!   round's route-plan messages as fragment frames, barriers on every
//!   worker's answer, and merges head fragments. It records both the
//!   model's idealised per-server `received_bits` (identical to the
//!   simulator's, given the same router and seed) and the *measured*
//!   per-worker [`crate::RoundStats::wire_bytes`];
//! * [`pool`] — the resilience layer: a persistent, health-checked
//!   [`WorkerPool`] that keeps Hello'd connections alive across runs,
//!   pings stale sockets (`Ping`/`Pong`), retries failed rounds on a
//!   freshly rebuilt (possibly reduced) topology under a per-query
//!   deadline, and fails fast behind a circuit breaker;
//! * [`retry`] — the scheduling primitives under the pool: capped
//!   exponential backoff with deterministic jitter ([`RetryPolicy`]), the
//!   test-injectable [`Clock`], and the [`Breaker`].
//!
//! Folding several logical servers onto one worker is sound and complete
//! for full conjunctive queries: every fragment is a subset of a genuine
//! input relation, so the union-merged join produces only genuine answers
//! (soundness, with duplicates removed by the coordinator), and every
//! answer tuple's designated logical server maps to *some* worker that
//! therefore holds all of its parts (completeness). The same argument is
//! what lets the pool route retries *around* dead workers: any worker
//! count ≥ 1 computes the exact answer.

pub mod codec;
pub mod coordinator;
pub mod pool;
pub mod retry;
pub mod worker;

pub use codec::{read_frame, write_frame, Frame, FrameError, MAGIC, MAX_FRAME_LEN};
pub use coordinator::{
    shutdown_workers, AtomSpec, ClusterConfig, ClusterError, Coordinator, RoundProgram,
};
pub use pool::{PoolStats, WorkerPool};
pub use retry::{Breaker, BreakerState, Clock, RetryPolicy, SystemClock, TestClock};
pub use worker::{serve_worker, LocalWorkers, WorkerLimits, WorkerObs};
