//! The engine's observability wiring: one [`MetricsRegistry`] per
//! [`crate::Engine`], with the hot-path handles resolved once.
//!
//! Every engine owns a registry from birth — there is no "unobserved"
//! engine, only one whose registry is disabled
//! ([`crate::Engine::with_metrics_enabled`]), in which case every
//! instrumentation site skips its whole recording block behind one relaxed
//! atomic load. [`EngineObs`] pre-resolves the handles the per-query path
//! needs (query counters, phase histograms, cache counters), so recording
//! a fully traced query is a handful of atomic adds; only the per-strategy
//! latency histogram is resolved per run (a short registry read-lock),
//! because strategy labels are data-dependent.
//!
//! Metric inventory (the engine-level slice; `pqd` and the cluster layers
//! add their own — see the README's Observability section):
//!
//! | metric | kind | labels |
//! |---|---|---|
//! | `pq_queries_total` | counter | `status="ok"\|"error"` |
//! | `pq_query_rows_total` | counter | — |
//! | `pq_bytes_on_wire_total` | counter | — |
//! | `pq_query_latency_micros` | histogram | `strategy` |
//! | `pq_phase_micros` | histogram | `phase="parse"\|"plan"\|"execute"` |
//! | `pq_plan_cache_hits_total` | counter | — |
//! | `pq_plan_cache_misses_total` | counter | — |
//! | `pq_plan_cache_invalidated_total` | counter | — |
//! | `pq_deltas_applied_total` | counter | — |
//! | `pq_rows_inserted_total` | counter | — |
//! | `pq_snapshot_updates_total` | counter | — |
//!
//! A cluster backend folds its resilience metrics into the same registry
//! (registered lazily by [`pq_mpc::net::WorkerPool`] on its first run, and
//! by the degrade path in [`crate::executor`]):
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `pq_cluster_retries_total` | counter | failed attempts retried on a rebuilt topology |
//! | `pq_cluster_reconnects_total` | counter | worker connections (re)dialled |
//! | `pq_cluster_degraded_total` | counter | runs answered by the simulator fallback |
//! | `pq_cluster_pool_size` | gauge | warm pooled connections after the last run |
//! | `pq_cluster_breaker_state` | gauge | 0 = closed, 1 = open, 2 = half-open |
//!
//! An engine sized with [`crate::Engine::with_threads`] additionally
//! mirrors its dedicated executor pool's counters
//! ([`pq_exec::TaskPool::attach_registry`]):
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `pq_exec_tasks_total` | counter | tasks scheduled on the persistent pool |
//! | `pq_exec_steals_total` | counter | tasks taken from another worker's queue |
//! | `pq_exec_threads_spawned_total` | counter | worker threads ever spawned — flat across queries |
//! | `pq_exec_pool_size` | gauge | configured parallelism, helping caller included |
//! | `pq_exec_queue_depth` | gauge | tasks queued and not yet started |

use crate::engine::EngineRun;
use pq_obs::{Counter, Histogram, MetricsRegistry, Phase, QueryTrace};
use std::sync::Arc;

/// Pre-resolved metric handles for the engine's instrumentation sites.
/// One per engine, shared by every session and prepared query.
#[derive(Debug)]
pub(crate) struct EngineObs {
    registry: Arc<MetricsRegistry>,
    queries_ok: Counter,
    queries_error: Counter,
    query_rows: Counter,
    bytes_on_wire: Counter,
    phase_parse: Histogram,
    phase_plan: Histogram,
    phase_execute: Histogram,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) cache_invalidated: Counter,
    pub(crate) deltas_applied: Counter,
    pub(crate) rows_inserted: Counter,
    pub(crate) snapshot_updates: Counter,
}

impl EngineObs {
    /// A fresh registry with every engine-level metric registered.
    pub(crate) fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        EngineObs {
            queries_ok: registry.counter(
                "pq_queries_total",
                &[("status", "ok")],
                "Queries served, by outcome",
            ),
            queries_error: registry.counter(
                "pq_queries_total",
                &[("status", "error")],
                "Queries served, by outcome",
            ),
            query_rows: registry.counter(
                "pq_query_rows_total",
                &[],
                "Result rows returned across all queries",
            ),
            bytes_on_wire: registry.counter(
                "pq_bytes_on_wire_total",
                &[],
                "Measured bytes on the wire across all cluster-backend queries",
            ),
            phase_parse: registry.histogram(
                "pq_phase_micros",
                &[("phase", "parse")],
                "Per-phase query lifecycle timings",
            ),
            phase_plan: registry.histogram(
                "pq_phase_micros",
                &[("phase", "plan")],
                "Per-phase query lifecycle timings",
            ),
            phase_execute: registry.histogram(
                "pq_phase_micros",
                &[("phase", "execute")],
                "Per-phase query lifecycle timings",
            ),
            cache_hits: registry.counter(
                "pq_plan_cache_hits_total",
                &[],
                "Shared plan-cache lookups that found a plan",
            ),
            cache_misses: registry.counter(
                "pq_plan_cache_misses_total",
                &[],
                "Shared plan-cache lookups that had to plan",
            ),
            cache_invalidated: registry.counter(
                "pq_plan_cache_invalidated_total",
                &[],
                "Cached plans evicted by data changes",
            ),
            deltas_applied: registry.counter(
                "pq_deltas_applied_total",
                &[],
                "Typed deltas folded into the snapshot",
            ),
            rows_inserted: registry.counter(
                "pq_rows_inserted_total",
                &[],
                "Rows inserted through typed deltas",
            ),
            snapshot_updates: registry.counter(
                "pq_snapshot_updates_total",
                &[],
                "Copy-on-write snapshot installs",
            ),
            registry,
        }
    }

    /// The registry behind this engine.
    pub(crate) fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Whether instrumentation sites should record (one relaxed load).
    pub(crate) fn enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    /// Fold one finished query trace into the cumulative metrics:
    /// outcome-labelled query count, rows/bytes totals, per-phase
    /// histograms and the per-strategy latency histogram.
    pub(crate) fn record_trace(&self, trace: &QueryTrace, ok: bool) {
        if !self.enabled() {
            return;
        }
        if ok { &self.queries_ok } else { &self.queries_error }.inc();
        if let Some(rows) = trace.rows_out {
            self.query_rows.add(rows);
        }
        if let Some(bytes) = trace.bytes_on_wire {
            self.bytes_on_wire.add(bytes);
        }
        for (phase, histogram) in [
            (Phase::Parse, &self.phase_parse),
            (Phase::Plan, &self.phase_plan),
            (Phase::Execute, &self.phase_execute),
        ] {
            if let Some(duration) = trace.phase_duration(phase) {
                histogram.observe_micros(duration);
            }
        }
        let strategy = trace.strategy.as_deref().unwrap_or("none");
        self.registry
            .histogram(
                "pq_query_latency_micros",
                &[("strategy", strategy)],
                "End-to-end query latency, by chosen strategy",
            )
            .observe_micros(trace.total());
    }

    /// Record the outcome labels of a completed run onto `trace` (strategy,
    /// rows, measured wire bytes) — shared by the session and
    /// prepared-query paths.
    pub(crate) fn stamp_run(trace: &mut QueryTrace, run: &EngineRun) {
        trace.strategy = Some(run.plan.strategy.name().to_string());
        trace.cache_hit = Some(run.cache_hit);
        trace.rows_out = Some(run.outcome.output.len() as u64);
        trace.bytes_on_wire = Some(if run.outcome.metrics.is_measured() {
            run.outcome.metrics.bytes_on_wire()
        } else {
            0
        });
    }
}
