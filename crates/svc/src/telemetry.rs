//! The live telemetry plane: a lock-free metrics registry every worker
//! updates wait-free, a sampler thread that snapshots the whole system
//! into a bounded flight-recorder ring (and optional JSONL time series),
//! and the [`TelemetrySnapshot`] both the `/metrics` Prometheus exposition
//! and `/snapshot.json` render from.
//!
//! Until this plane existed, a soak or chaos run was a black box until
//! `shutdown()` assembled the final [`ServiceReport`]; now the recovery
//! ladder is observable *while it operates*: per-shard queue depth and
//! health, scrub-daemon progress and tick lag, ECC-1 / SDR / RAID-4 /
//! Hash-2 ladder counters, spare-pool occupancy, and per-phase request
//! latency (queue wait → shard service → cross-shard H2 gather+repair)
//! threaded by a per-request trace ID.
//!
//! Cost model: the hot path touches only [`Counter`]s, [`Gauge`]s and
//! striped [`AtomicHist`]s — relaxed atomics, no locks, no allocation.
//! Snapshots are pulled by the sampler (or a scrape), which *does* briefly
//! take the shard mutexes to read the recovery-ladder [`CacheStats`]; that
//! cost rides on the sampler interval, never on a request.
//!
//! Every metric is declared exactly once, as one row of the `METRICS`
//! table: its `/snapshot.json` key (if any), Prometheus family, kind, help
//! text, and value source (a registry counter, gauge or histogram, a
//! [`CacheStats`] / [`DegradedStats`] / [`AuditSnapshot`] field, or a value
//! derived from the snapshot). [`TelemetrySnapshot::capture_with_audit`]
//! reads the registry rows, and [`TelemetrySnapshot::to_json`] and
//! [`TelemetrySnapshot::to_prometheus`] render every row from the table,
//! so a metric added once appears on both surfaces. The snapshot itself
//! keeps only the state no row carries (shard health, per-shard vectors,
//! the engine counters, traces, and the audit and heatmap sections).
//!
//! [`ServiceReport`]: crate::ServiceReport

use crate::audit::{AuditPlane, AuditSnapshot};
use crate::degraded::DegradedStats;
use crate::sharded::ShardedCache;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::net::IpAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use sudoku_core::CacheStats;
use sudoku_obs::json::JsonObject;
use sudoku_obs::{AtomicHist, Counter, Gauge, Heatmaps, Histogram, ServiceHistograms};

/// Configuration of the optional live telemetry plane (sampler thread,
/// flight recorder, scrape endpoint). The registry itself is always on —
/// its hot-path cost is a handful of relaxed atomics per request.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Sampler period: one [`TelemetrySnapshot`] lands in the flight
    /// recorder (and JSONL file) every interval.
    pub sample_every: Duration,
    /// Bounded flight-recorder capacity in snapshots; the ring keeps the
    /// most recent `cap` (≈ `cap × sample_every` seconds of history).
    pub flight_recorder_cap: usize,
    /// Optional JSONL time-series file: one snapshot per line, flushed per
    /// line so a crash leaves everything up to the last interval on disk.
    pub jsonl_path: Option<PathBuf>,
    /// Optional TCP scrape endpoint on `bind:port` serving
    /// `/metrics`, `/healthz`, and `/snapshot.json` (0 = ephemeral port;
    /// read it back via [`Service::telemetry_addr`]).
    ///
    /// [`Service::telemetry_addr`]: crate::Service::telemetry_addr
    pub port: Option<u16>,
    /// Address the scrape endpoint binds (default loopback-only; set
    /// `0.0.0.0` to expose the plane, the same knob the wire server has).
    pub bind: IpAddr,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_every: Duration::from_millis(50),
            flight_recorder_cap: 256,
            jsonl_path: None,
            port: None,
            bind: IpAddr::from([127, 0, 0, 1]),
        }
    }
}

/// Which demand path served a request — the causal "where did this
/// request's time go" dimension of a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePath {
    /// Served off the seqlock line view, no shard mutex.
    Lockfree,
    /// Served inline by the requester holding the shard claim.
    Inline,
    /// Rode the bounded shard queue to a drainer.
    Queued,
}

impl TracePath {
    /// Lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            TracePath::Lockfree => "lockfree",
            TracePath::Inline => "inline",
            TracePath::Queued => "queued",
        }
    }
}

/// How a traced request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Served normally.
    Ok,
    /// Served but detectably uncorrectable — always retained in the trace
    /// ring regardless of sampling, because every DUE deserves a trace.
    Due,
    /// Failed (shard down / shutting down).
    Error,
}

impl TraceOutcome {
    /// Lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::Due => "due",
            TraceOutcome::Error => "error",
        }
    }
}

/// One completed request's per-phase timing, identified by its trace ID.
/// One histogram-bucket exemplar: `(bucket_index, upper_bound_ns,
/// trace_id)` — the most recent sampled trace to land in that latency
/// bucket.
pub type Exemplar = (usize, u64, u64);

/// The registry keeps a sampled ring of these (1 in [`TRACE_SAMPLE`],
/// plus **every** DUE) so `/snapshot.json` and `/traces.json` can show
/// concrete end-to-end traces without a per-request lock on the hot path.
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    /// The per-request trace ID the handle allocated at enqueue time.
    pub trace: u64,
    /// Owning shard.
    pub shard: u32,
    /// Whether the request was a write.
    pub write: bool,
    /// Which demand path served it.
    pub path: TracePath,
    /// How it ended.
    pub outcome: TraceOutcome,
    /// Time spent queued before a worker dequeued it, ns.
    pub queue_wait_ns: u64,
    /// Shard-local service time (dequeue → reply), ns.
    pub service_ns: u64,
    /// Cross-shard Hash-2 gather+repair time (0 when not escalated), ns.
    pub h2_ns: u64,
}

impl TraceRecord {
    /// End-to-end latency: queue wait plus service (H2 time is inside the
    /// service span — escalation happens while the worker owns the
    /// request).
    pub fn total_ns(&self) -> u64 {
        self.queue_wait_ns + self.service_ns
    }

    /// One JSON object per trace (`/snapshot.json`, `/traces.json`).
    pub fn to_json(self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("trace", self.trace)
            .field_u64("shard", self.shard as u64)
            .field_bool("write", self.write)
            .field_str("path", self.path.name())
            .field_str("outcome", self.outcome.name())
            .field_u64("queue_wait_ns", self.queue_wait_ns)
            .field_u64("service_ns", self.service_ns)
            .field_u64("h2_ns", self.h2_ns)
            .field_u64("total_ns", self.total_ns());
        obj.finish()
    }
}

/// One trace in [`TRACE_SAMPLE`] completed requests is retained in the
/// recent-traces ring (the only mutex the plane owns, taken off the fast
/// path by the sampling).
pub const TRACE_SAMPLE: u64 = 64;

const TRACE_RING: usize = 64;

/// The lock-free metrics registry shared by every worker, the scrub
/// daemon, the client handles, the sampler, and the scrape endpoint.
///
/// Writers update counters/gauges/histograms wait-free; readers snapshot
/// via [`TelemetrySnapshot::capture_with_audit`] without stopping the world.
#[derive(Debug)]
pub struct TelemetryRegistry {
    // Demand-path counters.
    /// Demand reads served.
    pub reads: Counter,
    /// Demand writes served.
    pub writes: Counter,
    /// Demand writes rejected (owning shard down).
    pub failed_writes: Counter,
    /// Demand reads that needed cross-shard Hash-2 escalation.
    pub escalated_reads: Counter,
    /// Demand reads that stayed uncorrectable (DUE).
    pub due_reads: Counter,
    /// Demand reads served lock-free off the seqlock line view (no shard
    /// mutex, CRC verified inline).
    pub clean_read_lockfree_hits: Counter,
    /// Seqlock retries taken by lock-free reads (torn snapshot or writer
    /// in flight); the retry *rate* is this over the hit count.
    pub seqlock_retries: Counter,
    // Scrub-daemon progress.
    /// Scrub ticks completed (one tick = one shard).
    pub scrub_ticks: Counter,
    /// Ticks skipped because the shard was quarantined.
    pub skipped_ticks: Counter,
    /// Lines faulted by the daemon's injectors.
    pub injected_lines: Counter,
    /// Cross-shard escalations triggered by scrub leftovers.
    pub escalations: Counter,
    /// Lines handed to those escalations.
    pub escalated_lines: Counter,
    /// Lines still unresolved after escalation (scrub-detected DUEs).
    pub unresolved_lines: Counter,
    /// Next shard the daemon will scrub (round-robin cursor).
    pub scrub_cursor: Gauge,
    /// 1 once the scrub daemon died to a caught panic.
    pub daemon_dead: Gauge,
    /// Most recent tick's start lag behind its deadline, ns.
    pub last_tick_lag_ns: Gauge,
    /// Lines actually swept by the scrub daemon.
    pub scrub_lines_swept: Counter,
    /// Most recent adaptive quota decision (packets this visit).
    pub scrub_packet_quota: Gauge,
    /// Most recent adaptive quota floor (packets; the deadline contract).
    pub scrub_floor_quota: Gauge,
    /// Visits where demand pressure asked for less than the floor and the
    /// floor was enforced instead.
    pub scrub_floor_clamps: Counter,
    // Latency histograms (same pow2 layouts as [`ServiceHistograms`]).
    /// End-to-end demand-read latency, ns.
    pub read_latency_ns: AtomicHist,
    /// End-to-end demand-write latency, ns.
    pub write_latency_ns: AtomicHist,
    /// Phase: time queued before a worker dequeued the request, ns.
    pub queue_wait_ns: AtomicHist,
    /// Phase: shard-local service time (dequeue → reply), ns.
    pub shard_service_ns: AtomicHist,
    /// Phase: cross-shard Hash-2 gather+repair time, ns (demand + scrub).
    pub h2_gather_ns: AtomicHist,
    /// Wall-clock duration of one shard scrub tick, ns.
    pub scrub_tick_ns: AtomicHist,
    /// Scrub-tick start lag behind the deadline, ns.
    pub tick_lag_ns: AtomicHist,
    /// Per-shard request-queue depth sampled at dequeue.
    pub queue_depth_hist: AtomicHist,
    /// Adaptive scrub quota per daemon visit, packets.
    pub scrub_quota_hist: AtomicHist,
    // Wire plane (the `sudoku-net` TCP front end).
    /// Wire connections ever accepted.
    pub net_connections: Counter,
    /// Wire connections open right now.
    pub net_open_connections: Gauge,
    /// Wire request frames decoded (well-formed, any opcode).
    pub net_frames: Counter,
    /// Wire requests shed with RETRY (in-flight window or queue full).
    pub net_sheds: Counter,
    /// Malformed wire frames (each also closes its connection).
    pub net_malformed: Counter,
    depths: Vec<Gauge>,
    next_trace: AtomicU64,
    traces: Mutex<VecDeque<TraceRecord>>,
    /// Histogram exemplars: per bucket of `read_latency_ns` (and
    /// `write_latency_ns`), the most recent trace ID that landed there,
    /// stored as `trace + 1` (0 = no exemplar yet). This is what links a
    /// p999 bucket on a dashboard to a concrete causal trace in
    /// `/traces.json`.
    read_exemplars: Vec<AtomicU64>,
    write_exemplars: Vec<AtomicU64>,
}

impl TelemetryRegistry {
    /// A zeroed registry for an `n_shards`-way service.
    pub fn new(n_shards: usize) -> Self {
        TelemetryRegistry {
            reads: Counter::new(),
            writes: Counter::new(),
            failed_writes: Counter::new(),
            escalated_reads: Counter::new(),
            due_reads: Counter::new(),
            clean_read_lockfree_hits: Counter::new(),
            seqlock_retries: Counter::new(),
            scrub_ticks: Counter::new(),
            skipped_ticks: Counter::new(),
            injected_lines: Counter::new(),
            escalations: Counter::new(),
            escalated_lines: Counter::new(),
            unresolved_lines: Counter::new(),
            scrub_cursor: Gauge::new(),
            daemon_dead: Gauge::new(),
            last_tick_lag_ns: Gauge::new(),
            scrub_lines_swept: Counter::new(),
            scrub_packet_quota: Gauge::new(),
            scrub_floor_quota: Gauge::new(),
            scrub_floor_clamps: Counter::new(),
            read_latency_ns: AtomicHist::pow2(40),
            write_latency_ns: AtomicHist::pow2(40),
            queue_wait_ns: AtomicHist::pow2(40),
            shard_service_ns: AtomicHist::pow2(40),
            h2_gather_ns: AtomicHist::pow2(40),
            scrub_tick_ns: AtomicHist::pow2(40),
            tick_lag_ns: AtomicHist::pow2(40),
            queue_depth_hist: AtomicHist::pow2(20),
            scrub_quota_hist: AtomicHist::pow2(20),
            net_connections: Counter::new(),
            net_open_connections: Gauge::new(),
            net_frames: Counter::new(),
            net_sheds: Counter::new(),
            net_malformed: Counter::new(),
            depths: (0..n_shards).map(|_| Gauge::new()).collect(),
            next_trace: AtomicU64::new(0),
            traces: Mutex::new(VecDeque::with_capacity(TRACE_RING)),
            read_exemplars: (0..AtomicHist::pow2(40).n_buckets())
                .map(|_| AtomicU64::new(0))
                .collect(),
            write_exemplars: (0..AtomicHist::pow2(40).n_buckets())
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Allocates the next per-request trace ID.
    #[inline]
    pub fn next_trace_id(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Trace IDs issued so far.
    pub fn traces_issued(&self) -> u64 {
        self.next_trace.load(Ordering::Relaxed)
    }

    /// `shard`'s live queue-depth gauge.
    #[inline]
    pub fn depth(&self, shard: usize) -> &Gauge {
        &self.depths[shard]
    }

    /// Current depth of every shard's request queue.
    pub fn queue_depths(&self) -> Vec<u64> {
        self.depths.iter().map(Gauge::get).collect()
    }

    /// Completes one request's phase accounting: records the phase and
    /// end-to-end histograms, and retains a 1-in-[`TRACE_SAMPLE`] sample
    /// of concrete [`TraceRecord`]s for `/snapshot.json`.
    pub fn note_request(&self, record: TraceRecord) {
        self.queue_wait_ns.record(record.queue_wait_ns);
        self.shard_service_ns.record(record.service_ns);
        if record.h2_ns > 0 {
            self.h2_gather_ns.record(record.h2_ns);
        }
        let total = record.total_ns();
        if record.write {
            self.write_latency_ns.record(total);
            let bucket = self.write_latency_ns.bucket_of(total);
            self.write_exemplars[bucket].store(record.trace + 1, Ordering::Relaxed);
        } else {
            self.read_latency_ns.record(total);
            let bucket = self.read_latency_ns.bucket_of(total);
            self.read_exemplars[bucket].store(record.trace + 1, Ordering::Relaxed);
        }
        // DUEs are always retained — a detected-uncorrectable read is the
        // event the whole audit plane exists for, and there are few.
        if record.trace.is_multiple_of(TRACE_SAMPLE) || record.outcome == TraceOutcome::Due {
            // `try_lock`, never `lock`: the ring is a diagnostic sample, and
            // a sampled trace must not make a lock-free read wait behind a
            // scraper (or another sampler) holding the ring. Contended
            // pushes are simply dropped.
            if let Ok(mut ring) = self.traces.try_lock() {
                if ring.len() == TRACE_RING {
                    ring.pop_front();
                }
                ring.push_back(record);
            }
        }
    }

    /// The latency-histogram exemplars: `(bucket_index, upper_bound_ns,
    /// trace_id)` for every bucket that has one, reads and writes
    /// separately.
    pub fn exemplars(&self) -> (Vec<Exemplar>, Vec<Exemplar>) {
        let collect = |slots: &[AtomicU64], hist: &AtomicHist| {
            slots
                .iter()
                .enumerate()
                .filter_map(|(bucket, slot)| {
                    let stamped = slot.load(Ordering::Relaxed);
                    (stamped > 0).then(|| (bucket, hist.bucket_bound(bucket), stamped - 1))
                })
                .collect::<Vec<_>>()
        };
        (
            collect(&self.read_exemplars, &self.read_latency_ns),
            collect(&self.write_exemplars, &self.write_latency_ns),
        )
    }

    /// The sampled recent traces, oldest first.
    pub fn recent_traces(&self) -> Vec<TraceRecord> {
        self.traces
            .lock()
            .map(|r| r.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Folds the registry's histograms into the [`ServiceHistograms`]
    /// shape the end-of-run [`ServiceReport`] carries.
    ///
    /// [`ServiceReport`]: crate::ServiceReport
    pub fn service_hists(&self) -> ServiceHistograms {
        ServiceHistograms {
            read_latency_ns: self.read_latency_ns.snapshot(),
            write_latency_ns: self.write_latency_ns.snapshot(),
            scrub_tick_ns: self.scrub_tick_ns.snapshot(),
            escalation_ns: self.h2_gather_ns.snapshot(),
            queue_depth: self.queue_depth_hist.snapshot(),
        }
    }
}

/// The spatial reliability plane folded into a snapshot: the heatmap's
/// combined observed-repair grid, the DUE grid, and the per-cell achieved
/// scrub-interval gauge, all row-major `shard × region`. (The full
/// nine-grid bundle stays on `/heatmap.json`; snapshots carry the three
/// a dashboard panels on.)
#[derive(Clone, Debug)]
pub struct HeatmapSnapshot {
    /// Shard rows in each grid.
    pub n_shards: usize,
    /// Region columns in each grid.
    pub n_regions: usize,
    /// Observed repair events per cell (ECC-1 + RAID-4 + SDR + DUE).
    pub observed: Vec<u64>,
    /// Uncorrectable lines per cell.
    pub due: Vec<u64>,
    /// Last achieved scrub interval per cell, ns.
    pub staleness: Vec<u64>,
}

impl HeatmapSnapshot {
    /// Captures the three dashboard grids from the live heatmaps.
    pub fn capture(maps: &Heatmaps) -> HeatmapSnapshot {
        HeatmapSnapshot {
            n_shards: maps.geometry().n_shards(),
            n_regions: maps.geometry().n_regions(),
            observed: maps.observed_cells(),
            due: maps.due.snapshot(),
            staleness: maps.staleness.snapshot(),
        }
    }

    /// The snapshot as a JSON object (the `heatmap` field of
    /// `/snapshot.json`).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("n_shards", self.n_shards as u64)
            .field_u64("n_regions", self.n_regions as u64)
            .field_array_u64("observed", self.observed.iter().copied())
            .field_array_u64("due", self.due.iter().copied())
            .field_array_u64("staleness_ns", self.staleness.iter().copied());
        obj.finish()
    }
}

/// One metric's value in a snapshot.
#[derive(Clone, Debug)]
enum Value {
    U64(u64),
    /// Rendered as 0 when not finite (Prometheus has no place for NaN).
    F64(f64),
    Hist(Histogram),
    /// Labelled samples: the label body (`shard="0"`) and its value.
    Series(Vec<(String, u64)>),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<Histogram> for Value {
    fn from(h: Histogram) -> Self {
        Value::Hist(h)
    }
}

/// Where a metric's value comes from.
#[derive(Clone, Copy)]
enum Src {
    /// The live registry, read once at capture (the snapshot keeps the
    /// value).
    Reg(fn(&TelemetryRegistry) -> Value),
    /// The snapshot's own state, read at render; `None` skips the metric
    /// (its audit, spatial or heatmap section is absent).
    Snap(fn(&TelemetrySnapshot) -> Option<Value>),
}

/// One row of [`METRICS`]: everything every surface needs to know about a
/// metric.
struct Metric {
    /// Key in `/snapshot.json`, if the metric appears there. `u64` rows
    /// are written before the engine counters and histogram rows after
    /// them, the document's key order.
    json: Option<&'static str>,
    /// Prometheus family on `/metrics`, if the metric appears there.
    family: Option<&'static str>,
    /// Prometheus type: `counter`, `gauge` or `histogram`.
    kind: &'static str,
    /// Prometheus help text.
    help: &'static str,
    src: Src,
}

/// Builds [`METRICS`] from one line per metric:
/// `json key, Prometheus family, kind, help, source;` (`_` = absent).
/// Sources: `reg(field)` / `hist(field)` read a registry counter, gauge
/// or histogram, `reg(|r| ..)` any registry value; `stats(field)` and
/// `degraded(field)` read [`CacheStats`] / [`DegradedStats`]; `snap(|s|
/// ..)`, `audit(|a| ..)`, `spatial(|c| ..)` and `heatmap(|h| ..)` derive
/// a value from the snapshot, its [`AuditSnapshot`], its
/// [`CorrelationStat`] or its [`HeatmapSnapshot`].
///
/// [`CorrelationStat`]: sudoku_obs::CorrelationStat
macro_rules! metrics {
    (@opt _) => { None };
    (@opt $s:literal) => { Some($s) };
    (@src reg(|$r:ident| $e:expr)) => { Src::Reg(|$r| Value::from($e)) };
    (@src reg($f:ident)) => { Src::Reg(|r| Value::U64(r.$f.get())) };
    (@src hist($f:ident)) => { Src::Reg(|r| Value::Hist(r.$f.snapshot())) };
    (@src stats($f:ident)) => { Src::Snap(|s| Some(Value::U64(s.stats.$f))) };
    (@src degraded($f:ident)) => { Src::Snap(|s| Some(Value::U64(s.degraded.$f))) };
    (@src snap(|$s:ident| $e:expr)) => { Src::Snap(|$s| Some(Value::from($e))) };
    (@src audit(|$a:ident| $e:expr)) => { Src::Snap(|s| s.audit.as_ref().map(|$a| Value::from($e))) };
    (@src spatial(|$c:ident| $e:expr)) => {
        Src::Snap(|s| s.audit.as_ref()?.spatial.as_ref().map(|$c| Value::from($e)))
    };
    (@src heatmap(|$h:ident| $e:expr)) => { Src::Snap(|s| s.heatmap.as_ref().map(|$h| Value::from($e))) };
    ($($json:tt, $family:tt, $kind:ident, $help:literal, $how:ident($($src:tt)*);)*) => {
        /// Every telemetry metric, declared once. [`TelemetrySnapshot`]
        /// captures the registry rows, and `to_json` / `to_prometheus`
        /// render every row from here.
        const METRICS: &[Metric] = &[$(Metric {
            json: metrics!(@opt $json),
            family: metrics!(@opt $family),
            kind: stringify!($kind),
            help: $help,
            src: metrics!(@src $how($($src)*)),
        }),*];
    };
}

metrics! {
    // Demand path.
    "reads", "sudoku_reads_total", counter, "Demand reads served", reg(reads);
    "writes", "sudoku_writes_total", counter, "Demand writes served", reg(writes);
    "failed_writes", "sudoku_failed_writes_total", counter, "Demand writes rejected (shard down)", reg(failed_writes);
    "escalated_reads", "sudoku_escalated_reads_total", counter, "Demand reads escalated cross-shard", reg(escalated_reads);
    "due_reads", "sudoku_due_reads_total", counter, "Demand reads left uncorrectable", reg(due_reads);
    "clean_read_lockfree_hits", "sudoku_clean_read_lockfree_hits_total", counter, "Demand reads served lock-free off the seqlock line view", reg(clean_read_lockfree_hits);
    "seqlock_retries", "sudoku_seqlock_retries_total", counter, "Seqlock retries taken by lock-free reads", reg(seqlock_retries);
    // Scrub daemon.
    "scrub_ticks", "sudoku_scrub_ticks_total", counter, "Scrub ticks completed", reg(scrub_ticks);
    "skipped_ticks", "sudoku_scrub_skipped_ticks_total", counter, "Scrub ticks skipped (quarantined shard)", reg(skipped_ticks);
    "injected_lines", "sudoku_injected_lines_total", counter, "Lines faulted by the injectors", reg(injected_lines);
    "escalations", "sudoku_scrub_escalations_total", counter, "Cross-shard escalations from scrub leftovers", reg(escalations);
    "escalated_lines", _, counter, "Lines handed to scrub escalations", reg(escalated_lines);
    "unresolved_lines", "sudoku_scrub_unresolved_lines_total", counter, "Scrub-detected DUE lines", reg(unresolved_lines);
    "scrub_cursor", "sudoku_scrub_cursor", gauge, "Next shard the daemon scrubs", reg(scrub_cursor);
    "last_tick_lag_ns", "sudoku_scrub_tick_lag_ns", gauge, "Most recent tick's start lag behind deadline", reg(last_tick_lag_ns);
    "scrub_lines_swept", "sudoku_scrub_lines_swept_total", counter, "Lines actually swept by the scrub daemon", reg(scrub_lines_swept);
    "scrub_packet_quota", "sudoku_scrub_packet_quota", gauge, "Most recent adaptive scrub quota (packets per visit)", reg(scrub_packet_quota);
    "scrub_floor_quota", "sudoku_scrub_floor_quota", gauge, "Most recent adaptive scrub quota floor (packets)", reg(scrub_floor_quota);
    "scrub_floor_clamps", "sudoku_scrub_floor_clamps_total", counter, "Scrub visits where the quota floor was enforced against demand pressure", reg(scrub_floor_clamps);
    "traces_issued", "sudoku_traces_total", counter, "Per-request trace IDs issued", reg(|r| r.traces_issued());
    // Wire plane.
    "net_connections", "sudoku_net_connections_total", counter, "Wire connections accepted", reg(net_connections);
    "net_open_connections", "sudoku_net_open_connections", gauge, "Wire connections open", reg(net_open_connections);
    "net_frames", "sudoku_net_frames_total", counter, "Wire request frames decoded", reg(net_frames);
    "net_sheds", "sudoku_net_sheds_total", counter, "Wire requests shed with RETRY", reg(net_sheds);
    "net_malformed", "sudoku_net_malformed_total", counter, "Malformed wire frames", reg(net_malformed);
    // Latency and quota histograms.
    "read_latency_ns", "sudoku_read_latency_ns", histogram, "Demand-read latency", hist(read_latency_ns);
    "write_latency_ns", "sudoku_write_latency_ns", histogram, "Demand-write latency", hist(write_latency_ns);
    "queue_wait_ns", "sudoku_queue_wait_ns", histogram, "Queue-wait phase", hist(queue_wait_ns);
    "shard_service_ns", "sudoku_shard_service_ns", histogram, "Shard-service phase", hist(shard_service_ns);
    "h2_gather_ns", "sudoku_h2_gather_ns", histogram, "Cross-shard H2 gather+repair phase", hist(h2_gather_ns);
    "scrub_tick_ns", "sudoku_scrub_tick_ns", histogram, "Scrub-tick duration", hist(scrub_tick_ns);
    "tick_lag_ns", "sudoku_tick_lag_ns", histogram, "Scrub-tick lag", hist(tick_lag_ns);
    "scrub_quota", "sudoku_scrub_quota_packets", histogram, "Adaptive scrub quota per daemon visit", hist(scrub_quota_hist);
    _, "sudoku_read_latency_ns_p99", gauge, "Demand-read latency p99 (histogram upper bound)", reg(|r| r.read_latency_ns.snapshot().quantile(0.99));
    _, "sudoku_read_latency_ns_p999", gauge, "Demand-read latency p999 (histogram upper bound)", reg(|r| r.read_latency_ns.snapshot().quantile(0.999));
    // Recovery ladder (CacheStats).
    _, "sudoku_ecc1_repairs_total", counter, "ECC-1 single-bit fixes", stats(ecc1_repairs);
    _, "sudoku_meta_repairs_total", counter, "ECC-metadata regenerations", stats(meta_repairs);
    _, "sudoku_multibit_detections_total", counter, "Lines flagged multibit by CRC", stats(multibit_detections);
    _, "sudoku_raid4_repairs_total", counter, "RAID-4 reconstructions", stats(raid4_repairs);
    _, "sudoku_sdr_repairs_total", counter, "SDR resurrections", stats(sdr_repairs);
    _, "sudoku_sdr_trials_total", counter, "SDR flip-and-check trials", stats(sdr_trials);
    _, "sudoku_hash2_repairs_total", counter, "Repairs only the Hash-2 dimension delivered", stats(hash2_repairs);
    _, "sudoku_due_lines_total", counter, "Lines left uncorrectable", stats(due_lines);
    _, "sudoku_group_scans_total", counter, "Whole-group recovery reads", stats(group_scans);
    // Degraded mode.
    _, "sudoku_skipped_h2_escalations_total", counter, "H2 escalations refused (shard down)", degraded(skipped_h2_escalations);
    _, "sudoku_shard_down_rejects_total", counter, "Requests rejected fast on quarantined shards", degraded(shard_down_rejects);
    _, "sudoku_stuck_reasserts_total", counter, "Bits re-corrupted by stuck cells", degraded(stuck_reasserts);
    _, "sudoku_spare_strikes_total", counter, "Sparing strikes recorded", degraded(strikes);
    _, "sudoku_spared_lines", gauge, "Lines remapped to spare pools", degraded(spared_lines);
    // Shard health.
    _, "sudoku_shards", gauge, "Configured shard count", snap(|s| s.shards as u64);
    _, "sudoku_shards_up", gauge, "Shards currently serving", snap(|s| s.shards_up as u64);
    _, "sudoku_daemon_up", gauge, "1 while the scrub daemon is alive", snap(|s| u64::from(!s.daemon_dead));
    _, "sudoku_shard_up", gauge, "Liveness per shard", snap(|s| per_shard((0..s.shards).map(|i| u64::from(!s.quarantined.contains(&i)))));
    _, "sudoku_queue_depth", gauge, "Live request-queue depth per shard", snap(|s| per_shard(s.queue_depths.iter().copied()));
    _, "sudoku_spare_occupancy", gauge, "Spare-pool occupancy per shard", snap(|s| per_shard(s.spare_occupancy.iter().copied()));
    // Audit plane.
    _, "sudoku_scrub_deadline_misses_total", counter, "Packet sweeps whose achieved interval exceeded the hard deadline", audit(|a| a.scrub_deadline_misses);
    _, "sudoku_scrub_deadline_ns", gauge, "Configured hard scrub deadline", audit(|a| a.scrub_deadline_ns);
    _, "sudoku_scrub_deadline_misses", counter, "Deadline misses per shard", audit(|a| per_shard(a.per_shard_misses.iter().copied()));
    _, "sudoku_scrub_staleness_ns", gauge, "Worst live packet staleness per shard", audit(|a| per_shard(a.per_shard_worst_staleness_ns.iter().copied()));
    _, "sudoku_achieved_scrub_interval_ns", histogram, "Achieved per-packet scrub interval", audit(|a| a.achieved_scrub_interval_ns.clone());
    _, "sudoku_observed_ber", gauge, "Observed per-interval raw bit-error rate (slow window)", audit(|a| a.observed_ber);
    _, "sudoku_projected_due_fit", gauge, "Projected DUE FIT at the observed BER", audit(|a| a.projected_fit);
    _, "sudoku_error_budget_burn_fast", gauge, "Fast-window error-budget burn rate", audit(|a| a.burn_fast);
    _, "sudoku_error_budget_burn_slow", gauge, "Slow-window error-budget burn rate", audit(|a| a.burn_slow);
    _, "sudoku_alerts_critical_total", counter, "Critical alerts raised", audit(|a| a.alerts_critical);
    _, "sudoku_alerts_dropped_total", counter, "Alerts evicted from the ring before scrape", audit(|a| a.alerts_dropped);
    _, "sudoku_alerts_total", counter, "Alerts raised, by class", audit(|a| labelled(a.alerts_by_class.iter().map(|(class, n)| (format!("class=\"{class}\""), *n))));
    _, "sudoku_worst_region", gauge, "Index of the region behind the worst-region gauges", audit(|a| a.worst_region);
    _, "sudoku_worst_region_ber", gauge, "Worst-region observed per-interval raw bit-error rate (slow window)", audit(|a| a.worst_region_ber);
    _, "sudoku_worst_region_burn", gauge, "Error-budget burn rate were every region at the worst region's BER", audit(|a| a.worst_region_burn);
    // Spatial plane: the latest correlation verdict and the region grids.
    _, "sudoku_spatial_z", gauge, "Max-cell z-score of the latest spatial-correlation window", spatial(|c| c.z);
    _, "sudoku_spatial_dispersion", gauge, "Index of dispersion (variance/mean) of the latest window's cell deltas", spatial(|c| c.dispersion);
    _, "sudoku_spatial_skew", gauge, "Hottest cell over the i.i.d.-expected per-cell mean, latest window", spatial(|c| c.skew());
    _, "sudoku_spatial_fired", gauge, "1 while the latest window rejected the i.i.d. failure hypothesis", spatial(|c| u64::from(c.fired));
    _, "sudoku_region_observed_flips_total", counter, "Observed repair events (ECC-1 + RAID-4 + SDR + DUE) per (shard, region) cell", heatmap(|h| grid(h, &h.observed));
    _, "sudoku_region_due_total", counter, "Uncorrectable lines per (shard, region) cell", heatmap(|h| grid(h, &h.due));
    _, "sudoku_region_scrub_staleness_ns", gauge, "Last achieved scrub interval per (shard, region) cell", heatmap(|h| grid(h, &h.staleness));
}

/// Labelled samples from `(label body, value)` pairs.
fn labelled(samples: impl Iterator<Item = (String, u64)>) -> Value {
    Value::Series(samples.collect())
}

/// One `shard="i"` sample per value, in shard order.
fn per_shard(values: impl Iterator<Item = u64>) -> Value {
    labelled(
        values
            .enumerate()
            .map(|(shard, v)| (format!("shard=\"{shard}\""), v)),
    )
}

/// One `shard="i",region="j"` sample per cell of a row-major heatmap grid.
fn grid(hm: &HeatmapSnapshot, cells: &[u64]) -> Value {
    let n_regions = hm.n_regions.max(1);
    labelled(cells.iter().enumerate().map(|(i, &v)| {
        let (shard, region) = (i / n_regions, i % n_regions);
        (format!("shard=\"{shard}\",region=\"{region}\""), v)
    }))
}

/// One coherent picture of the whole service at a sampling instant: the
/// registry rows of the metric table, plus the state no row carries —
/// shard health, per-shard vectors, the recovery-ladder and degraded
/// counters pulled (briefly, under the shard mutexes) from the engine,
/// sampled traces, and the audit and spatial sections.
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// Monotone snapshot sequence number (per sampler/scraper).
    pub seq: u64,
    /// Milliseconds since the UNIX epoch at capture time.
    pub unix_ms: u64,
    /// Quarantined shards, ascending.
    pub quarantined: Vec<usize>,
    /// Shards still serving.
    pub shards_up: usize,
    /// Total shard count.
    pub shards: usize,
    /// Whether the scrub daemon died to a caught panic.
    pub daemon_dead: bool,
    /// Per-shard live queue depth.
    pub queue_depths: Vec<u64>,
    /// Per-shard spare-pool occupancy (lines remapped).
    pub spare_occupancy: Vec<u64>,
    /// The values of the registry rows of `METRICS`, in table order.
    registry: Vec<Value>,
    /// Recovery-ladder counters (ECC-1 fixes, SDR trials, RAID-4/H2
    /// reconstructions, DUEs, group scans) summed over shards+coordinator.
    pub stats: CacheStats,
    /// Degraded-mode counters (sparing, stuck physics, skipped H2, …).
    pub degraded: DegradedStats,
    /// Sampled per-request traces, oldest first.
    pub recent_traces: Vec<TraceRecord>,
    /// The audit plane's view (scrub deadlines, burn rates, alerts) when
    /// the capture was given one.
    pub audit: Option<AuditSnapshot>,
    /// The spatial reliability plane's grids, when heatmaps are attached.
    pub heatmap: Option<HeatmapSnapshot>,
}

fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl TelemetrySnapshot {
    /// Captures the system state: lock-free reads of the registry, a brief
    /// pass under the shard mutexes for [`CacheStats`] and
    /// [`DegradedStats`] (poison-tolerant — quarantined shards are still
    /// read), and the audit plane's deadline/burn/alert view when one is
    /// running.
    pub fn capture_with_audit(
        seq: u64,
        state: &ShardedCache,
        reg: &TelemetryRegistry,
        audit: Option<&AuditPlane>,
    ) -> TelemetrySnapshot {
        TelemetrySnapshot {
            seq,
            unix_ms: unix_ms_now(),
            quarantined: state.health().quarantined(),
            shards_up: state.health().n_up(),
            shards: state.n_shards(),
            daemon_dead: reg.daemon_dead.get() != 0,
            queue_depths: reg.queue_depths(),
            spare_occupancy: state.spare_occupancy(),
            registry: METRICS
                .iter()
                .filter_map(|m| match m.src {
                    Src::Reg(get) => Some(get(reg)),
                    Src::Snap(_) => None,
                })
                .collect(),
            stats: state.stats(),
            degraded: state.degraded_stats(),
            recent_traces: reg.recent_traces(),
            audit: audit.map(AuditPlane::snapshot),
            heatmap: state.heatmaps().map(|m| HeatmapSnapshot::capture(m)),
        }
    }

    /// Whether every shard is up and the daemon (if it ever ran) is alive.
    pub fn healthy(&self) -> bool {
        self.quarantined.is_empty() && !self.daemon_dead
    }

    /// Every present metric with its value, in table order.
    fn metrics(&self) -> impl Iterator<Item = (&'static Metric, Cow<'_, Value>)> + '_ {
        let mut registry = self.registry.iter();
        METRICS.iter().filter_map(move |m| match m.src {
            Src::Reg(_) => registry.next().map(|v| (m, Cow::Borrowed(v))),
            Src::Snap(get) => get(self).map(|v| (m, Cow::Owned(v))),
        })
    }

    /// One JSON object per snapshot — the flight-recorder JSONL line and
    /// the `/snapshot.json` body.
    pub fn to_json(&self) -> String {
        let traces: Vec<String> = self.recent_traces.iter().map(|t| t.to_json()).collect();
        let keyed: Vec<_> = self
            .metrics()
            .filter_map(|(m, v)| Some((m.json?, v)))
            .collect();
        let mut obj = JsonObject::new();
        obj.field_u64("seq", self.seq)
            .field_u64("unix_ms", self.unix_ms)
            .field_bool("healthy", self.healthy())
            .field_array_u64("quarantined", self.quarantined.iter().map(|&s| s as u64))
            .field_u64("shards_up", self.shards_up as u64)
            .field_u64("shards", self.shards as u64)
            .field_bool("daemon_dead", self.daemon_dead)
            .field_array_u64("queue_depths", self.queue_depths.iter().copied())
            .field_array_u64("spare_occupancy", self.spare_occupancy.iter().copied());
        for (key, v) in &keyed {
            if let Value::U64(n) = **v {
                obj.field_u64(key, n);
            }
        }
        obj.field_raw("stats", &self.stats.to_json())
            .field_raw("degraded", &self.degraded.to_json());
        for (key, v) in &keyed {
            if let Value::Hist(h) = &**v {
                obj.field_raw(key, &h.to_json());
            }
        }
        obj.field_raw("recent_traces", &format!("[{}]", traces.join(",")));
        if let Some(audit) = &self.audit {
            obj.field_raw("audit", &audit.to_json());
        }
        if let Some(heatmap) = &self.heatmap {
            obj.field_raw("heatmap", &heatmap.to_json());
        }
        obj.finish()
    }

    /// Prometheus text exposition (version 0.0.4) of the snapshot.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        for (m, v) in self.metrics() {
            let Some(name) = m.family else { continue };
            let _ = writeln!(out, "# HELP {name} {}\n# TYPE {name} {}", m.help, m.kind);
            match &*v {
                Value::U64(n) => {
                    let _ = writeln!(out, "{name} {n}");
                }
                Value::F64(x) => {
                    let _ = writeln!(out, "{name} {}", if x.is_finite() { *x } else { 0.0 });
                }
                Value::Hist(h) => prometheus_hist(&mut out, name, h),
                Value::Series(samples) => {
                    for (labels, n) in samples {
                        let _ = writeln!(out, "{name}{{{labels}}} {n}");
                    }
                }
            }
        }
        out
    }
}

/// Renders one histogram's samples in Prometheus exposition shape:
/// cumulative `le` buckets (sparse — only buckets that change the
/// cumulative count, plus `+Inf`), then `_sum` and `_count`.
fn prometheus_hist(out: &mut String, name: &str, h: &Histogram) {
    let mut cumulative = 0u64;
    for (bound, count) in h.all_buckets() {
        if count == 0 {
            continue;
        }
        cumulative += count;
        if bound == u64::MAX {
            continue; // folded into +Inf below
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count());
}

/// Bounded ring of the most recent [`TelemetrySnapshot`]s — the in-memory
/// half of the flight recorder. A crash or chaos event leaves the last
/// `cap × sample_every` seconds of system state here (and, when a JSONL
/// path is configured, on disk).
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<TelemetrySnapshot>>,
    cap: usize,
    pushed: AtomicU64,
}

impl FlightRecorder {
    /// An empty recorder keeping the most recent `cap` snapshots.
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(cap.max(1))),
            cap: cap.max(1),
            pushed: AtomicU64::new(0),
        }
    }

    /// Appends a snapshot, evicting the oldest at capacity.
    pub fn push(&self, snap: TelemetrySnapshot) {
        self.pushed.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut ring) = self.ring.lock() {
            if ring.len() == self.cap {
                ring.pop_front();
            }
            ring.push_back(snap);
        }
    }

    /// The most recent snapshot, if any.
    pub fn latest(&self) -> Option<TelemetrySnapshot> {
        self.ring.lock().ok().and_then(|r| r.back().cloned())
    }

    /// Every retained snapshot, oldest first.
    pub fn snapshots(&self) -> Vec<TelemetrySnapshot> {
        self.ring
            .lock()
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Snapshots retained right now.
    pub fn len(&self) -> usize {
        self.ring.lock().map(|r| r.len()).unwrap_or(0)
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots ever pushed (retained or evicted).
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promtext;
    use crate::sharded::ShardedCache;
    use sudoku_core::{Scheme, SudokuConfig};

    fn snap(seq: u64) -> TelemetrySnapshot {
        let state = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap();
        let reg = TelemetryRegistry::new(2);
        TelemetrySnapshot::capture_with_audit(seq, &state, &reg, None)
    }

    #[test]
    fn registry_counts_and_phases() {
        let reg = TelemetryRegistry::new(4);
        reg.reads.inc();
        reg.reads.inc();
        reg.depth(2).inc();
        assert_eq!(reg.queue_depths(), vec![0, 0, 1, 0]);
        reg.note_request(TraceRecord {
            trace: 0,
            shard: 1,
            write: false,
            path: TracePath::Queued,
            outcome: TraceOutcome::Ok,
            queue_wait_ns: 500,
            service_ns: 1500,
            h2_ns: 0,
        });
        reg.note_request(TraceRecord {
            trace: 1,
            shard: 0,
            write: true,
            path: TracePath::Inline,
            outcome: TraceOutcome::Ok,
            queue_wait_ns: 100,
            service_ns: 900,
            h2_ns: 400,
        });
        assert_eq!(reg.read_latency_ns.snapshot().count(), 1);
        assert_eq!(reg.write_latency_ns.snapshot().count(), 1);
        assert_eq!(reg.queue_wait_ns.snapshot().count(), 2);
        assert_eq!(reg.h2_gather_ns.snapshot().count(), 1);
        // trace 0 is a sample multiple; trace 1 is not.
        assert_eq!(reg.recent_traces().len(), 1);
        let hists = reg.service_hists();
        assert_eq!(hists.read_latency_ns.count(), 1);
        assert_eq!(hists.read_latency_ns.max(), 2000);
    }

    #[test]
    fn snapshot_json_and_prometheus_render() {
        let state = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap();
        let reg = TelemetryRegistry::new(2);
        reg.reads.add(3);
        reg.note_request(TraceRecord {
            trace: 0,
            shard: 0,
            write: false,
            path: TracePath::Lockfree,
            outcome: TraceOutcome::Ok,
            queue_wait_ns: 100,
            service_ns: 200,
            h2_ns: 0,
        });
        let snap = TelemetrySnapshot::capture_with_audit(7, &state, &reg, None);
        assert!(snap.healthy());
        let json = snap.to_json();
        assert!(json.contains("\"seq\":7"), "{json}");
        assert!(json.contains("\"reads\":3"), "{json}");
        assert!(json.contains("\"recent_traces\":[{"), "{json}");
        assert!(json.contains("\"queue_wait_ns\""), "{json}");
        let prom = promtext::parse(&snap.to_prometheus()).expect("exposition parses");
        prom.check_histograms().unwrap();
        let family = |key| {
            METRICS
                .iter()
                .find(|m| m.json == Some(key))
                .and_then(|m| m.family)
                .unwrap()
        };
        assert_eq!(prom.value(family("reads")), Some(3.0));
        let read_latency = family("read_latency_ns");
        assert_eq!(prom.value(&format!("{read_latency}_count")), Some(1.0));
    }

    #[test]
    fn every_present_row_renders_once_with_its_type_and_help() {
        let snap = snap(0);
        let prom = promtext::parse(&snap.to_prometheus()).expect("exposition parses");
        for m in METRICS {
            let Some(family) = m.family else { continue };
            // Without an audit plane or heatmaps those sections' rows are
            // skipped, and nothing else is.
            let present = match m.src {
                Src::Reg(_) => true,
                Src::Snap(get) => get(&snap).is_some(),
            };
            assert_eq!(prom.types.contains_key(family), present, "{family}");
            if present {
                assert_eq!(prom.types[family], m.kind, "{family}");
                assert_eq!(prom.helps[family], m.help, "{family}");
            }
        }
        // 76 families, less 15 audit, 4 spatial and 3 heatmap rows.
        assert_eq!(prom.types.len(), 54);
    }

    #[test]
    fn quarantine_shows_in_snapshot_health() {
        let state = ShardedCache::new(SudokuConfig::small(Scheme::Z, 256, 16), 2).unwrap();
        let reg = TelemetryRegistry::new(2);
        state.health().quarantine(1);
        let snap = TelemetrySnapshot::capture_with_audit(0, &state, &reg, None);
        assert!(!snap.healthy());
        assert_eq!(snap.quarantined, vec![1]);
        assert_eq!(snap.shards_up, 1);
    }

    #[test]
    fn flight_recorder_is_bounded_fifo() {
        let recorder = FlightRecorder::new(3);
        assert!(recorder.is_empty());
        for seq in 0..5 {
            recorder.push(snap(seq));
        }
        assert_eq!(recorder.len(), 3);
        assert_eq!(recorder.pushed(), 5);
        let seqs: Vec<u64> = recorder.snapshots().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(recorder.latest().unwrap().seq, 4);
    }
}
