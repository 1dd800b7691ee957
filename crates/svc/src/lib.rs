//! # sudoku-svc
//!
//! The concurrent, sharded SuDoku cache **service**: the single-threaded
//! [`SudokuCache`] of `sudoku-core` partitioned by Hash-1 RAID-Group into
//! `N` shards and put behind per-shard claims, a background scrub daemon,
//! and a load generator — recovery coexisting with demand traffic, the
//! operating point the paper budgets for in §VII-B.
//!
//! Three layers:
//!
//! * [`ShardedCache`] — the sharded storage engine. Hash-1 groups are
//!   distributed round-robin over shards, so the whole Hash-1 half of the
//!   recovery ladder (ECC-1 → CRC detect → RAID-4 → SDR) is shard-local;
//!   Hash-2 groups cross shards *by construction*, so SuDoku-Z recovery
//!   escalates to a cross-shard coordinator that gathers members from
//!   their owning shards and drives the same [`RepairEngine`] the
//!   single-threaded cache uses. The deterministic whole-cache scrub
//!   replicates the reference fixpoint schedule exactly — `N`-shard scrub
//!   outcomes and `CacheStats` totals are invariant in `N`.
//! * [`Service`] — the live front-end: per-shard bounded request queues
//!   with backpressure, drained by whichever client holds the shard's
//!   claim (the service runs no demand threads of its own), a scrub daemon
//!   ticking every shard with per-shard forked fault injectors, and
//!   graceful drain/shutdown.
//! * [`loadgen`] — replay of `sim::trace` workload mixes (or a zipfian
//!   stream) against a running service at a target request rate, with a
//!   golden-copy oracle that counts silent data corruption.
//! * [`telemetry`] / [`Exporter`] — the live telemetry plane: a lock-free
//!   [`TelemetryRegistry`] every claim holder updates wait-free, a sampler
//!   thread recording periodic [`TelemetrySnapshot`]s into a bounded
//!   [`FlightRecorder`] ring (and optional JSONL time series), and a
//!   std-only TCP endpoint serving `GET /metrics` (Prometheus text),
//!   `/healthz`, and `/snapshot.json` while the service runs.
//!
//! The service is **degraded-mode tolerant**: nothing on the client path
//! panics. Handle operations return [`ServiceError`]; a shard whose op
//! serving panicked (or whose mutex was poisoned) is quarantined behind
//! [`ShardHealth`] while the other N−1 shards keep serving; permanently
//! faulty (stuck-at) cells reassert after every write and repair, and
//! lines the ladder keeps losing to them are remapped to per-shard
//! [`SpareTable`]s. See the [`degraded`] module.
//!
//! [`SudokuCache`]: sudoku_core::SudokuCache
//! [`RepairEngine`]: sudoku_core::RepairEngine

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod degraded;
mod error;
mod exporter;
pub mod loadgen;
pub mod promtext;
mod service;
mod sharded;
mod slot;
pub mod telemetry;
mod view;
pub mod watchdog;

pub use audit::{
    AuditConfig, AuditPlane, AuditSnapshot, F64Gauge, QuotaDecision, ReliabilityEstimator,
    ScrubController, ScrubDeadlineTracker,
};
pub use degraded::{DegradedConfig, DegradedStats, ShardHealth, SpareTable};
pub use error::{ServiceError, StartError};
pub use exporter::{parse_bind_addr, Exporter};
pub use loadgen::{AddrMode, LoadReport, LoadgenConfig};
pub use service::{Service, ServiceConfig, ServiceHandle, ServiceReport};
pub use sharded::{merge_reports, ShardSession, ShardedCache};
pub use telemetry::{
    Exemplar, FlightRecorder, TelemetryConfig, TelemetryRegistry, TelemetrySnapshot, TraceOutcome,
    TracePath, TraceRecord,
};
pub use watchdog::{ScanObs, Watchdog};
