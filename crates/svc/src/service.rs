//! The live service front-end: per-shard bounded queues drained by
//! whichever client holds the shard's claim, a lock-free clean-read fast
//! path, preallocated completion slots, a background scrub daemon with
//! per-shard forked fault injectors, a live telemetry plane, and graceful
//! drain/shutdown. The service runs no demand-serving threads of its own.
//!
//! # The demand path
//!
//! A read first tries the seqlock **line view** ([`ShardedCache::try_read_clean`]):
//! load the line's published `(data, crc)` under the seqlock, verify the
//! CRC-31 inline, and serve without touching any mutex — the overwhelming
//! common case in the paper's BER regime. Only a miss (faulty line, torn
//! snapshot, writer in flight, spared line, quarantined shard) falls
//! through to the claimed path.
//!
//! Everything else funnels through one per-shard **claim** (an atomic
//! flag admitting a single drainer at a time, so **repairs stay
//! serialized per shard**). A client whose shard claim is free serves its
//! own op *inline*: claim, drain whatever is FIFO-ahead in the shard
//! queue, serve its own op through a [`ShardSession`], release — no op
//! allocation, no context switch. A held claim is yielded to and retried
//! a few times (its holder is mid-op, sub-µs) before the client pays the
//! queue path: the op lands on the owning shard's bounded [`VecDeque`]
//! (producers block when a shard's queue is at its bound, so a hot shard
//! throttles its own clients), writes fire-and-forget behind a per-line
//! pending gate that keeps lock-free readers honest, and reads ride
//! preallocated per-thread [`CompletionSlot`]s. Every enqueuer then tries
//! the claim itself; whoever holds it — that enqueuer, or the holder it
//! lost to, whose release re-checks the queue — pops up to [`BATCH`] ops
//! at once, serves the packet through one session, writes each result
//! and flips one atomic flag; the client spins briefly then parks. No
//! per-request channel allocation anywhere on the hot path.
//!
//! The scrub daemon ticks shards round-robin on the configured interval:
//! inject (per-shard decorrelated [`FaultInjector::fork`] streams, so
//! concurrent injection is reproducible regardless of thread
//! interleaving), then a shard-local Hash-1 scrub, then cross-shard
//! escalation of whatever the shard could not resolve alone. Its bulk
//! passes take the shard mutex in small chunks, so a tick never convoys
//! the demand path for more than a few µs at a time.
//!
//! # Telemetry
//!
//! Every claim holder and the daemon publish into a shared lock-free
//! [`TelemetryRegistry`] as they go — counters (including the lock-free
//! hit/retry rate), queue-depth gauges, and per-phase latency histograms
//! (queue wait → shard service → cross-shard H2 gather+repair), threaded
//! by a per-request trace ID. The end-of-run [`ServiceReport`] is a final
//! read of that registry; with [`ServiceConfig::telemetry`] set, a sampler
//! thread additionally records periodic [`TelemetrySnapshot`]s into a
//! bounded flight recorder (and optional JSONL time series), and a
//! std-only TCP exporter serves `GET /metrics`, `/healthz`, and
//! `/snapshot.json` while the service runs.
//!
//! # Failure semantics
//!
//! Nothing on the client path panics, and no completion handle is ever
//! lost: handles stay *outside* the per-op `catch_unwind`, so a panic
//! mid-op quarantines the shard and then error-completes the op and
//! everything queued behind it. Every handle operation returns
//! `Result<_, `[`ServiceError`]`>`:
//!
//! * A panic while serving an op (organic, or injected via
//!   [`ServiceHandle::inject_worker_panic`]) is caught at the op boundary;
//!   the shard is **quarantined**, its queued ops complete with
//!   [`ServiceError::ShardDown`], and subsequent requests to it fail fast
//!   while the other N−1 shards keep serving. The registry (shared, not
//!   thread-local) keeps everything the packet recorded.
//! * A scrub daemon panic is caught per tick; scrubbing stops but demand
//!   traffic continues, and [`ServiceReport::daemon_panicked`] says so.
//! * Shutdown never panics and never strands a client: it closes
//!   acceptance and then claims and drains every shard itself until each
//!   queue is verifiably empty, so every accepted op was served (live
//!   shards) or error-completed (dead shards). Panicked shards land in
//!   [`ServiceReport::worker_panics`], surviving telemetry is harvested (a
//!   poisoned shard mutex does not block counter collection), and the
//!   degraded-mode counters land in [`ServiceReport::degraded`].
//!
//! [`TelemetrySnapshot`]: crate::TelemetrySnapshot
//! [`CompletionSlot`]: crate::slot::CompletionSlot

use crate::audit::{AuditConfig, AuditPlane, ScrubController};
use crate::degraded::{DegradedConfig, DegradedStats};
use crate::error::{ServiceError, StartError};
use crate::exporter::Exporter;
use crate::sharded::{ShardSession, ShardedCache};
use crate::slot::{CompletionSlot, SlotSender};
use crate::telemetry::{
    FlightRecorder, TelemetryConfig, TelemetryRegistry, TelemetrySnapshot, TraceOutcome, TracePath,
    TraceRecord,
};
use crate::watchdog::watchdog_loop;
use std::collections::{BTreeSet, VecDeque};
use std::io::Write as _;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sudoku_codes::LineData;
use sudoku_core::{CacheStats, Recorder, ShardPlan, SudokuConfig};
use sudoku_fault::{FaultInjector, StuckBitMap};
use sudoku_obs::{
    CorrelationStat, Heatmaps, RecoveryHistograms, RegionGeometry, ServiceHistograms,
    DEFAULT_REGIONS,
};

/// Ops per work packet: one shard-mutex acquire is amortized over up to
/// this many demand operations.
const BATCH: usize = 32;

/// Yield-and-retry rounds a client spends on a held shard claim before
/// falling back to the queue. Claims are held for sub-µs inline ops, so
/// the holder usually finishes within a yield; the queue fallback keeps
/// the bound on a holder that got preempted mid-op.
const CLAIM_RETRIES: usize = 16;

/// Configuration of a running [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The cache geometry and scheme (the service applies
    /// [`SudokuConfig::with_deferred_hash2`] internally per shard).
    pub cache: SudokuConfig,
    /// Number of shards, each with its own queue, claim, and mutex.
    pub n_shards: usize,
    /// Bound of each shard's request queue (producers block when full).
    pub queue_depth: usize,
    /// Scrub daemon tick period; `None` disables the daemon.
    pub scrub_every: Option<Duration>,
    /// Per-interval transient bit error rate injected by the daemon
    /// (0.0 = scrub without injection).
    pub ber: f64,
    /// Master seed; per-shard injectors fork decorrelated streams from it.
    pub seed: u64,
    /// Permanent (stuck-at) cells of the underlying array — physics, not
    /// controller state: they reassert after every write and repair.
    pub stuck: StuckBitMap,
    /// Quarantine/sparing policy for degraded operation.
    pub degraded: DegradedConfig,
    /// Live telemetry plane (sampler, flight recorder, scrape endpoint);
    /// `None` runs the lock-free registry only, with zero extra threads.
    pub telemetry: Option<TelemetryConfig>,
    /// Reliability audit plane: scrub-deadline tracking, error-budget
    /// burn estimation, and the anomaly watchdog. Always on (the plane is
    /// lock-free and the watchdog is one light thread); this configures
    /// its thresholds.
    pub audit: AuditConfig,
    /// Drive the scrub daemon's per-visit packet quota with the
    /// closed-loop [`ScrubController`](crate::audit::ScrubController)
    /// (floor from the achieved visit period, opportunistic ceiling when
    /// demand is idle, backoff under pressure). `false` runs the legacy
    /// fixed cadence: a static quota computed once from the nominal
    /// `tick × n_shards` period.
    pub adaptive_scrub: bool,
}

impl ServiceConfig {
    /// A small functional-test configuration: SuDoku-Z, `lines` lines in
    /// groups of 16, 4 shards, a 2 ms scrub tick, a pristine array.
    pub fn small(lines: u64, n_shards: usize, ber: f64, seed: u64) -> Self {
        ServiceConfig {
            cache: SudokuConfig::small(sudoku_core::Scheme::Z, lines, 16),
            n_shards,
            queue_depth: 64,
            scrub_every: Some(Duration::from_millis(2)),
            ber,
            seed,
            stuck: StuckBitMap::new(),
            degraded: DegradedConfig::default(),
            telemetry: None,
            audit: AuditConfig::default(),
            adaptive_scrub: true,
        }
    }
}

/// One demand operation queued for a shard.
enum Op {
    Read {
        line: u64,
        trace: u64,
        enqueued: Instant,
        reply: SlotSender<Result<LineData, ServiceError>>,
    },
    Write {
        line: u64,
        trace: u64,
        data: LineData,
        enqueued: Instant,
    },
    /// Chaos injection: whoever drains the shard panics on purpose when it
    /// pops this, optionally while holding the shard's state mutex (which
    /// poisons it, like a real mid-repair panic would).
    Panic { hold_lock: bool },
}

/// One shard's bounded op queue and the claim that admits one drainer.
struct ShardQueue {
    ops: Mutex<VecDeque<Op>>,
    /// Mirror of `ops.len()`, so the claim's release re-check (and the
    /// wire server's shed probe) can read the occupancy without the mutex.
    len: AtomicUsize,
    /// Set while one thread serves this shard — the claim is what keeps
    /// repairs serialized per shard with every client able to drain.
    claimed: AtomicBool,
    /// Signalled when ops are popped, releasing producers blocked on the
    /// queue bound.
    not_full: Condvar,
}

impl ShardQueue {
    fn new() -> Self {
        ShardQueue {
            ops: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            claimed: AtomicBool::new(false),
            not_full: Condvar::new(),
        }
    }
}

/// The shared demand plane: per-shard queues plus shutdown state.
struct Demand {
    queues: Vec<ShardQueue>,
    /// Cleared by shutdown; checked by producers under the queue lock, so
    /// shutdown's verify-empty drain cannot race a late push.
    accepting: AtomicBool,
    /// Shards whose op serving caught a panic (quarantined).
    panicked: Mutex<BTreeSet<usize>>,
    queue_depth: usize,
}

impl Demand {
    /// Enqueues `op` on `shard`'s queue, blocking (with re-checks of
    /// shutdown and shard health on every wake) while the queue is at its
    /// bound. The depth gauge moves under the queue lock, so it can never
    /// drift from the queue's true occupancy. `Panic` ops bypass the
    /// bound and the gauge — chaos must land even on a saturated shard.
    /// The caller must try the claim afterwards ([`with_claim`]) so its
    /// op cannot sit unserved.
    fn enqueue(
        &self,
        shard: usize,
        op: Op,
        state: &ShardedCache,
        reg: &TelemetryRegistry,
    ) -> Result<(), ServiceError> {
        let q = &self.queues[shard];
        let counted = !matches!(op, Op::Panic { .. });
        let mut ops = q.ops.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !self.accepting.load(Ordering::Acquire) {
                return Err(ServiceError::ShuttingDown);
            }
            if !state.health().is_up(shard) {
                state.note_reject();
                return Err(ServiceError::ShardDown(shard));
            }
            if !counted || ops.len() < self.queue_depth {
                break;
            }
            // Saturated: a full queue has a claim holder draining it (every
            // enqueuer drains after its push), and each of its pops — or
            // shutdown closing the door — signals this condvar.
            ops = q.not_full.wait(ops).unwrap_or_else(|e| e.into_inner());
        }
        ops.push_back(op);
        q.len.fetch_add(1, Ordering::SeqCst);
        if counted {
            reg.depth(shard).inc();
        }
        Ok(())
    }

    /// Pops up to [`BATCH`] ops from `shard`'s queue, moving the depth
    /// gauge and histogram for each. `Panic` ops ride in a packet of their
    /// own: the panic protocol (drop the session, maybe poison the mutex)
    /// must not share a session with real ops.
    fn pop_batch(&self, shard: usize, reg: &TelemetryRegistry) -> Vec<Op> {
        let q = &self.queues[shard];
        if q.len.load(Ordering::SeqCst) == 0 {
            return Vec::new(); // skip the mutex on the empty-queue drain
        }
        let mut ops = q.ops.lock().unwrap_or_else(|e| e.into_inner());
        let mut batch = Vec::with_capacity(BATCH.min(ops.len()));
        while batch.len() < BATCH {
            match ops.front() {
                None => break,
                Some(Op::Panic { .. }) => {
                    if batch.is_empty() {
                        batch.push(ops.pop_front().expect("front exists"));
                    }
                    break;
                }
                Some(_) => {
                    batch.push(ops.pop_front().expect("front exists"));
                    reg.queue_depth_hist.record(reg.depth(shard).dec());
                }
            }
        }
        drop(ops);
        if !batch.is_empty() {
            q.len.fetch_sub(batch.len(), Ordering::SeqCst);
            q.not_full.notify_all();
        }
        batch
    }
}

std::thread_local! {
    /// Per-thread preallocated completion slot: a client blocks on its
    /// own slot until the claim holder answers, so one reusable slot per
    /// thread replaces a per-request channel allocation. (Writes complete at
    /// acceptance and need no slot at all.)
    static READ_SLOT: Arc<CompletionSlot<Result<LineData, ServiceError>>> = CompletionSlot::new();
}

/// End-of-run summary assembled by [`Service::shutdown`].
#[derive(Debug)]
pub struct ServiceReport {
    /// Shard count the service ran with.
    pub shards: usize,
    /// Aggregate cache counters (all shards + coordinator).
    pub stats: CacheStats,
    /// Per-shard cache counters.
    pub per_shard: Vec<CacheStats>,
    /// Service-level latency/queue-depth histograms (demand + daemon).
    pub hists: ServiceHistograms,
    /// Recovery-ladder histograms harvested from every shard recorder.
    pub recovery_hists: RecoveryHistograms,
    /// Demand reads served.
    pub reads: u64,
    /// Demand writes served.
    pub writes: u64,
    /// Demand writes rejected (owning shard down).
    pub failed_writes: u64,
    /// Demand reads that needed cross-shard escalation.
    pub escalated_reads: u64,
    /// Demand reads that remained uncorrectable (DUE).
    pub due_reads: u64,
    /// Demand reads served lock-free off the seqlock line view.
    pub lockfree_reads: u64,
    /// Scrub daemon ticks completed (one tick = one shard).
    pub scrub_ticks: u64,
    /// Daemon ticks skipped because the shard was quarantined.
    pub skipped_ticks: u64,
    /// Lines faulted by the daemon's injectors.
    pub injected_lines: u64,
    /// Cross-shard escalations triggered by scrub leftovers.
    pub escalations: u64,
    /// Lines handed to those escalations.
    pub escalated_lines: u64,
    /// Lines still unresolved after escalation (scrub-detected DUEs).
    pub unresolved_lines: u64,
    /// Shards where serving an op panicked (caught; shard quarantined).
    pub worker_panics: Vec<usize>,
    /// Whether the scrub daemon died to a caught panic.
    pub daemon_panicked: bool,
    /// Shards quarantined at shutdown (op panics + poisoned locks).
    pub quarantined: Vec<usize>,
    /// Degraded-mode counters: sparing, stuck-cell physics, fail-fasts.
    pub degraded: DegradedStats,
    /// Alerts the watchdog raised over the run.
    pub alerts: u64,
    /// Critical-severity alerts among them.
    pub critical_alerts: u64,
    /// Line-range packets whose achieved scrub interval exceeded the
    /// configured deadline.
    pub scrub_deadline_misses: u64,
    /// p99 of the achieved packet re-scrub interval across all shards, ns
    /// (the BER math's 20 ms contract, as measured).
    pub scrub_interval_p99_ns: u64,
    /// Lines actually swept by the scrub daemon over the run.
    pub scrub_lines_swept: u64,
    /// Daemon visits where demand pressure asked for less than the quota
    /// floor and the floor was enforced instead.
    pub scrub_floor_clamps: u64,
    /// The spatial reliability plane's heatmap bundle (shared with the
    /// now-stopped service; the grids are final at shutdown).
    pub heatmaps: Option<Arc<Heatmaps>>,
    /// The spatial-correlation detector's last verdict of the run.
    pub spatial: Option<CorrelationStat>,
}

impl ServiceReport {
    /// Uncorrected lines from any path (demand DUEs + scrub DUEs).
    pub fn total_due(&self) -> u64 {
        self.due_reads + self.unresolved_lines
    }

    /// Whether the run ended with every shard up and no caught panics.
    pub fn fully_healthy(&self) -> bool {
        self.worker_panics.is_empty() && !self.daemon_panicked && self.quarantined.is_empty()
    }

    /// JSON object with the headline counters and latency quantiles.
    pub fn to_json(&self) -> String {
        let mut obj = sudoku_obs::json::JsonObject::new();
        obj.field_u64("shards", self.shards as u64)
            .field_u64("reads", self.reads)
            .field_u64("writes", self.writes)
            .field_u64("failed_writes", self.failed_writes)
            .field_u64("escalated_reads", self.escalated_reads)
            .field_u64("due_reads", self.due_reads)
            .field_u64("lockfree_reads", self.lockfree_reads)
            .field_u64("scrub_ticks", self.scrub_ticks)
            .field_u64("skipped_ticks", self.skipped_ticks)
            .field_u64("injected_lines", self.injected_lines)
            .field_u64("escalations", self.escalations)
            .field_u64("escalated_lines", self.escalated_lines)
            .field_u64("unresolved_lines", self.unresolved_lines)
            .field_array_u64(
                "worker_panics",
                self.worker_panics.iter().map(|&s| s as u64),
            )
            .field_bool("daemon_panicked", self.daemon_panicked)
            .field_array_u64("quarantined", self.quarantined.iter().map(|&s| s as u64))
            .field_u64("alerts", self.alerts)
            .field_u64("critical_alerts", self.critical_alerts)
            .field_u64("scrub_deadline_misses", self.scrub_deadline_misses)
            .field_u64("scrub_interval_p99_ns", self.scrub_interval_p99_ns)
            .field_u64("scrub_lines_swept", self.scrub_lines_swept)
            .field_u64("scrub_floor_clamps", self.scrub_floor_clamps)
            .field_raw("degraded", &self.degraded.to_json())
            .field_raw("stats", &self.stats.to_json())
            .field_raw("service_hists", &self.hists.to_json());
        if let Some(maps) = &self.heatmaps {
            obj.field_raw("heatmap", &maps.to_json(self.spatial.as_ref()));
        }
        obj.finish()
    }
}

/// A cloneable client of a running [`Service`]: serves clean reads
/// lock-free off the seqlock line view, and everything else under the
/// owning shard's claim — inline when it is free, else through the
/// shard's queue, blocking when that queue is full (backpressure).
#[derive(Clone)]
pub struct ServiceHandle {
    plan: ShardPlan,
    demand: Arc<Demand>,
    registry: Arc<TelemetryRegistry>,
    state: Arc<ShardedCache>,
    /// Read only by [`ServiceHandle::stats_json`], never on a request.
    plane: Arc<AuditPlane>,
}

impl ServiceHandle {
    /// The shard that owns `line` (useful for interpreting
    /// [`ServiceError::ShardDown`]).
    pub fn shard_of(&self, line: u64) -> usize {
        self.plan.shard_of_line(line)
    }

    /// Shards currently quarantined, ascending.
    pub fn quarantined(&self) -> Vec<usize> {
        self.state.health().quarantined()
    }

    /// Why an accepted op came back without an answer: the shard died
    /// mid-flight, or the whole service is tearing down.
    fn disconnect_error(&self, s: usize) -> ServiceError {
        if self.state.health().is_up(s) {
            ServiceError::ShuttingDown
        } else {
            self.state.note_reject();
            ServiceError::ShardDown(s)
        }
    }

    /// Serves `line` lock-free off the seqlock view when it is verifiably
    /// clean, doing the full per-request telemetry accounting. `None`
    /// means the caller must take the queued path; a hit returns the data
    /// with the trace ID it was recorded under: `trace` when the caller
    /// already allocated one, else a fresh ID.
    fn fast_read(&self, line: u64, shard: usize, trace: Option<u64>) -> Option<(LineData, u64)> {
        if !self.demand.accepting.load(Ordering::Acquire) {
            return None; // shutdown: the queued path reports ShuttingDown
        }
        let service_start = Instant::now();
        let (hit, retries) = self.state.try_read_clean(line);
        let data = hit?;
        let trace = trace.unwrap_or_else(|| self.registry.next_trace_id());
        self.registry.reads.inc();
        self.registry.clean_read_lockfree_hits.inc();
        self.registry.seqlock_retries.add(u64::from(retries));
        self.registry.note_request(TraceRecord {
            trace,
            shard: shard as u32,
            write: false,
            path: TracePath::Lockfree,
            outcome: TraceOutcome::Ok,
            queue_wait_ns: 0,
            service_ns: service_start.elapsed().as_nanos() as u64,
            h2_ns: 0,
        });
        Some((data, trace))
    }

    /// Runs `serve` inline under `shard`'s claim (see [`with_claim`]);
    /// `None` when another thread holds the claim.
    fn claim<T>(&self, shard: usize, serve: impl FnOnce() -> T) -> Option<T> {
        with_claim(&self.state, &self.demand, shard, &self.registry, serve)
    }

    /// Writes `line`, inline under the shard's claim when it is free, and
    /// otherwise enqueues it (blocking on a full queue) and returns as soon
    /// as it is **accepted** — whichever thread next holds the claim
    /// applies it. Acceptance marks the line write-pending in the
    /// lock-free view, so every subsequent read of the line (from this or
    /// any other thread that learned of the write) takes the shard queue's
    /// FIFO path *behind* the write: fire-and-forget stays
    /// read-your-write consistent. A write a dying shard never applies is
    /// counted in [`ServiceReport::failed_writes`] and surfaces as
    /// [`ServiceError::ShardDown`] on later reads of the line.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShardDown`] when the owning shard is quarantined at
    /// acceptance, [`ServiceError::ShuttingDown`] when the service no
    /// longer accepts requests.
    pub fn write(&self, line: u64, data: &LineData) -> Result<(), ServiceError> {
        self.write_traced(line, data).1
    }

    /// [`ServiceHandle::write`], additionally reporting the trace ID the
    /// request was accepted under (`None` when it was rejected before a
    /// trace was allocated) — this is what lets a wire front end link a
    /// network request ID to the `/traces.json` causal plane.
    ///
    /// # Errors
    ///
    /// Same as [`ServiceHandle::write`].
    pub fn write_traced(
        &self,
        line: u64,
        data: &LineData,
    ) -> (Option<u64>, Result<(), ServiceError>) {
        let shard = self.plan.shard_of_line(line);
        if !self.state.health().is_up(shard) {
            self.state.note_reject();
            return (None, Err(ServiceError::ShardDown(shard)));
        }
        if !self.demand.accepting.load(Ordering::Acquire) {
            return (None, Err(ServiceError::ShuttingDown));
        }
        let trace = self.registry.next_trace_id();
        // Queue-bypass fast path: if the shard's claim is free, serve the
        // write synchronously on this thread — no op allocation, no queue
        // mutex, no pending-gate round trip. The engine write itself is
        // ~0.3µs; everything the queue adds is overhead we skip here. A
        // held claim is usually sub-µs (its holder is mid-inline-op), so
        // yield to it and retry before paying the queue path — enqueueing
        // would open a pending window that knocks every reader of this
        // line off the lock-free view.
        for attempt in 0..=CLAIM_RETRIES {
            let inline = self.claim(shard, || {
                serve_write(
                    &self.state,
                    &self.demand,
                    shard,
                    line,
                    trace,
                    data,
                    Via::Inline,
                    &mut None,
                    &self.registry,
                );
            });
            if inline.is_some() {
                return (Some(trace), Ok(()));
            }
            if attempt < CLAIM_RETRIES {
                thread::yield_now();
            }
        }
        self.state.begin_write(line);
        let accepted = self.demand.enqueue(
            shard,
            Op::Write {
                line,
                trace,
                data: *data,
                enqueued: Instant::now(),
            },
            &self.state,
            &self.registry,
        );
        if accepted.is_err() {
            // Rejected at the door: nothing will ever apply (or retire) it.
            self.state.retire_write(line);
            return (Some(trace), accepted);
        }
        // Flat-combining: try to drain the shard queue (our write
        // included) right here. Losing the claim race is fine — the
        // holder's drain and release re-check cover our op.
        self.claim(shard, || ());
        (Some(trace), accepted)
    }

    /// Blocking read: lock-free off the seqlock view when the line is
    /// verifiably clean, otherwise enqueued and answered through this
    /// thread's completion slot.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Uncorrectable`] when even cross-shard recovery
    /// failed (DUE), [`ServiceError::ShardDown`] when the owning shard is
    /// quarantined (including mid-flight: a request stranded by a panic
    /// on its shard reports the shard, never a panic or a hang), and
    /// [`ServiceError::ShuttingDown`] when the service is gone.
    pub fn read(&self, line: u64) -> Result<LineData, ServiceError> {
        self.read_traced(line).1
    }

    /// [`ServiceHandle::read`], additionally reporting the trace ID the
    /// request was served under (`None` when it was rejected before a
    /// trace was allocated).
    ///
    /// # Errors
    ///
    /// Same as [`ServiceHandle::read`].
    pub fn read_traced(&self, line: u64) -> (Option<u64>, Result<LineData, ServiceError>) {
        let shard = self.plan.shard_of_line(line);
        if let Some((data, trace)) = self.fast_read(line, shard, None) {
            return (Some(trace), Ok(data));
        }
        if !self.state.health().is_up(shard) {
            self.state.note_reject();
            return (None, Err(ServiceError::ShardDown(shard)));
        }
        if !self.demand.accepting.load(Ordering::Acquire) {
            return (None, Err(ServiceError::ShuttingDown));
        }
        let trace = self.registry.next_trace_id();
        // Queue-bypass fast path: a free claim lets us drain whatever is
        // FIFO-ahead (our line's pending write included) and run the
        // locked ladder read right here — no slot, no wait. On a held
        // claim, yield to the holder and retry: its release re-check
        // drains anything queued meanwhile, often republishing our line
        // clean, so the lock-free view is worth re-probing each round.
        for attempt in 0..=CLAIM_RETRIES {
            let inline = self.claim(shard, || {
                serve_read(
                    &self.state,
                    &self.demand,
                    shard,
                    line,
                    trace,
                    Via::Inline,
                    &mut None,
                    &self.registry,
                )
                .unwrap_or(Err(ServiceError::ShardDown(shard)))
            });
            if let Some(result) = inline {
                return (Some(trace), result);
            }
            if attempt < CLAIM_RETRIES {
                thread::yield_now();
                if let Some((data, _)) = self.fast_read(line, shard, Some(trace)) {
                    return (Some(trace), Ok(data));
                }
            }
        }
        let result = READ_SLOT.with(|slot| {
            self.demand.enqueue(
                shard,
                Op::Read {
                    line,
                    trace,
                    enqueued: Instant::now(),
                    reply: slot.arm(),
                },
                &self.state,
                &self.registry,
            )?;
            // Flat-combining: winning the claim serves our own op (and
            // everything FIFO-ahead of it, write-pending lines included)
            // on this thread, filling the slot before the wait even starts
            // — zero context switches on the miss path.
            self.claim(shard, || ());
            slot.wait()
                .unwrap_or_else(|| Err(self.disconnect_error(shard)))
        });
        (Some(trace), result)
    }

    /// Chaos hook: queues a panic op on `shard`, and whichever thread
    /// drains it panics on purpose when it pops the op — with `hold_lock`,
    /// while holding the shard's state mutex, poisoning it exactly like an
    /// organic mid-repair panic. Like every enqueuer, the caller then
    /// tries the claim: on a free claim the panic (caught, quarantining
    /// the shard) happens on the calling thread before this returns.
    ///
    /// # Errors
    ///
    /// The same acceptance errors as any other request.
    pub fn inject_worker_panic(&self, shard: usize, hold_lock: bool) -> Result<(), ServiceError> {
        self.demand
            .enqueue(shard, Op::Panic { hold_lock }, &self.state, &self.registry)?;
        self.claim(shard, || ());
        Ok(())
    }

    /// Current depth of each shard's request queue.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.registry
            .queue_depths()
            .into_iter()
            .map(|d| d as usize)
            .collect()
    }

    /// `shard`'s live queue depth, lock-free (the wire server's RETRY-shed
    /// probe: depth at the bound means an enqueue would block).
    #[inline]
    pub fn shard_depth(&self, shard: usize) -> usize {
        self.demand.queues[shard].len.load(Ordering::Relaxed)
    }

    /// The per-shard queue bound producers block at ([`ServiceConfig`]'s
    /// `queue_depth`).
    pub fn queue_bound(&self) -> usize {
        self.demand.queue_depth
    }

    /// Shard count the service was started with.
    pub fn n_shards(&self) -> usize {
        self.state.n_shards()
    }

    /// A fresh [`TelemetrySnapshot`] rendered as JSON — the body of the
    /// wire STATS opcode (the same document as the exporter's
    /// `/snapshot.json`, audit section included, always freshly captured).
    pub fn stats_json(&self) -> String {
        TelemetrySnapshot::capture_with_audit(0, &self.state, &self.registry, Some(&self.plane))
            .to_json()
    }

    /// The live metrics registry this handle feeds.
    pub fn registry(&self) -> &Arc<TelemetryRegistry> {
        &self.registry
    }
}

/// The running concurrent sharded cache service.
///
/// # Examples
///
/// ```
/// use sudoku_svc::{Service, ServiceConfig};
/// use sudoku_codes::LineData;
///
/// let service = Service::start(ServiceConfig::small(256, 4, 0.0, 42))?;
/// let handle = service.handle();
/// let mut data = LineData::zero();
/// data.set_bit(9, true);
/// handle.write(17, &data)?;
/// assert_eq!(handle.read(17)?, data);
/// let report = service.shutdown();
/// assert_eq!(report.writes, 1);
/// assert!(report.fully_healthy());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Service {
    state: Arc<ShardedCache>,
    demand: Arc<Demand>,
    registry: Arc<TelemetryRegistry>,
    daemon: Option<JoinHandle<bool>>,
    stop: Arc<AtomicBool>,
    daemon_panic: Arc<AtomicBool>,
    recorder: Option<Arc<FlightRecorder>>,
    sampler: Option<JoinHandle<()>>,
    sampler_stop: Arc<AtomicBool>,
    exporter: Option<Exporter>,
    plane: Arc<AuditPlane>,
    watchdog: Option<JoinHandle<()>>,
    watchdog_stop: Arc<AtomicBool>,
    daemon_stall_us: Arc<AtomicU64>,
}

impl Service {
    /// Starts the service: the scrub daemon (when configured), the audit
    /// watchdog, and, with [`ServiceConfig::telemetry`], the sampler and
    /// the scrape endpoint. Demand ops are served by the client threads
    /// themselves, under each shard's claim.
    ///
    /// # Errors
    ///
    /// [`StartError::Config`] for cache/shard validation failures,
    /// [`StartError::Telemetry`] when the scrape endpoint cannot bind or
    /// the flight-recorder JSONL file cannot be created.
    pub fn start(config: ServiceConfig) -> Result<Self, StartError> {
        let state = Arc::new(ShardedCache::with_faults(
            config.cache,
            config.n_shards,
            config.stuck,
            config.degraded,
        )?);
        // The spatial reliability plane: one heatmap bundle over a
        // shard × region grid, tapped by every shard recorder. Attached
        // before any handle exists so no repair escapes attribution.
        let heatmaps = {
            let plan = *state.plan();
            let geom = RegionGeometry::new(
                config.n_shards,
                DEFAULT_REGIONS,
                state.config().geometry.lines(),
                |line| plan.shard_of_line(line),
            );
            Arc::new(Heatmaps::new(geom))
        };
        state.attach_heatmaps(Arc::clone(&heatmaps));
        let registry = Arc::new(TelemetryRegistry::new(config.n_shards));
        let demand = Arc::new(Demand {
            queues: (0..config.n_shards).map(|_| ShardQueue::new()).collect(),
            accepting: AtomicBool::new(true),
            panicked: Mutex::new(BTreeSet::new()),
            queue_depth: config.queue_depth.max(1),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let daemon_panic = Arc::new(AtomicBool::new(false));
        let daemon_stall_us = Arc::new(AtomicU64::new(0));
        // The audit plane exists regardless of telemetry config: deadline
        // accounting and alerting are part of the reliability story, not
        // an optional extra.
        let plane = Arc::new(AuditPlane::new(state.plan(), config.audit.clone())?);
        plane.arm_spatial(heatmaps.geometry());
        let daemon = config.scrub_every.map(|tick| {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let panic_flag = Arc::clone(&daemon_panic);
            let registry = Arc::clone(&registry);
            let plane = Arc::clone(&plane);
            let stall = Arc::clone(&daemon_stall_us);
            let master = FaultInjector::new(config.ber, config.seed);
            let queue_bound = config.queue_depth.max(1) as u64;
            let adaptive = config.adaptive_scrub;
            std::thread::spawn(move || {
                daemon_loop(
                    &state,
                    tick,
                    &master,
                    &stop,
                    &panic_flag,
                    &registry,
                    &plane,
                    &stall,
                    queue_bound,
                    adaptive,
                )
            })
        });
        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog = {
            let state = Arc::clone(&state);
            let plane = Arc::clone(&plane);
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&watchdog_stop);
            let scrub_every = config.scrub_every;
            let queue_bound = config.queue_depth.max(1) as u64;
            Some(std::thread::spawn(move || {
                watchdog_loop(&state, &plane, &registry, scrub_every, queue_bound, &stop)
            }))
        };
        // The optional plane: sampler + flight recorder + scrape endpoint.
        let sampler_stop = Arc::new(AtomicBool::new(false));
        let (recorder, sampler, exporter) = match &config.telemetry {
            None => (None, None, None),
            Some(tcfg) => {
                let recorder = Arc::new(FlightRecorder::new(tcfg.flight_recorder_cap));
                let jsonl = match &tcfg.jsonl_path {
                    None => None,
                    Some(path) => Some(std::io::BufWriter::new(std::fs::File::create(path)?)),
                };
                let exporter = match tcfg.port {
                    None => None,
                    Some(port) => Some(Exporter::start(
                        tcfg.bind,
                        port,
                        Arc::clone(&state),
                        Arc::clone(&registry),
                        Arc::clone(&recorder),
                        Arc::clone(&plane),
                    )?),
                };
                let sampler = {
                    let state = Arc::clone(&state);
                    let registry = Arc::clone(&registry);
                    let recorder = Arc::clone(&recorder);
                    let plane = Arc::clone(&plane);
                    let stop = Arc::clone(&sampler_stop);
                    let every = tcfg.sample_every.max(Duration::from_millis(1));
                    std::thread::spawn(move || {
                        sampler_loop(&state, &registry, &recorder, &plane, jsonl, every, &stop)
                    })
                };
                (Some(recorder), Some(sampler), exporter)
            }
        };
        Ok(Service {
            state,
            demand,
            registry,
            daemon,
            stop,
            daemon_panic,
            recorder,
            sampler,
            sampler_stop,
            exporter,
            plane,
            watchdog,
            watchdog_stop,
            daemon_stall_us,
        })
    }

    /// A new client handle (cheap to clone, safe to share across threads).
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            plan: *self.state.plan(),
            demand: Arc::clone(&self.demand),
            registry: Arc::clone(&self.registry),
            state: Arc::clone(&self.state),
            plane: Arc::clone(&self.plane),
        }
    }

    /// The sharded storage engine behind the service (for direct
    /// inspection in tests; demand traffic should go through handles).
    pub fn state(&self) -> &Arc<ShardedCache> {
        &self.state
    }

    /// The live metrics registry every claim holder and the daemon publish
    /// into.
    pub fn registry(&self) -> &Arc<TelemetryRegistry> {
        &self.registry
    }

    /// The flight recorder, when [`ServiceConfig::telemetry`] enabled one.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// The scrape endpoint's bound address, when one is serving (use port
    /// 0 in [`TelemetryConfig::port`] to let the OS choose).
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.exporter.as_ref().map(Exporter::addr)
    }

    /// Chaos hook: the scrub daemon panics at the start of its next tick
    /// (caught; scrubbing stops, demand traffic continues, and the report
    /// says [`ServiceReport::daemon_panicked`]).
    pub fn inject_daemon_panic(&self) {
        self.daemon_panic.store(true, Ordering::Relaxed);
    }

    /// Chaos hook: the scrub daemon sleeps through `stall` at the start
    /// of its next tick — alive but not scrubbing, the failure mode the
    /// watchdog's `daemon_stuck` / deadline-staleness alerts exist for.
    /// The stall honors shutdown (it sleeps in small slices).
    pub fn inject_daemon_stall(&self, stall: Duration) {
        self.daemon_stall_us
            .store(stall.as_micros() as u64, Ordering::Relaxed);
    }

    /// The reliability audit plane: deadline tracker, alert log, and live
    /// error-budget estimates.
    pub fn audit(&self) -> &Arc<AuditPlane> {
        &self.plane
    }

    /// Graceful drain and shutdown: stops the scrub daemon, closes
    /// acceptance, drains every shard on the calling thread until its
    /// queue is verifiably empty, then retires the telemetry plane
    /// (sampler last, so the flight recorder's final snapshot sees the
    /// quiesced system) and assembles the end-of-run report. Every op
    /// accepted before the call is fully served by live shards; ops
    /// stranded on dead shards produce error replies, never hangs.
    ///
    /// Never panics: dead shards and a dead daemon are reported in
    /// [`ServiceReport::worker_panics`] / [`ServiceReport::daemon_panicked`],
    /// with their surviving telemetry still harvested.
    pub fn shutdown(self) -> ServiceReport {
        // 1. Stop the daemon first so no new scrub work races the drain.
        self.stop.store(true, Ordering::Relaxed);
        let mut daemon_panicked = false;
        if let Some(handle) = self.daemon {
            match handle.join() {
                Ok(panicked) => daemon_panicked = panicked,
                // The per-tick catch_unwind makes this unreachable short of
                // a panic in the loop scaffolding itself; report it anyway.
                Err(_) => daemon_panicked = true,
            }
        }
        // 2. Drain: close acceptance, then per shard wake the producers
        //    blocked on its bound (they see the closed door and return
        //    ShuttingDown) and serve its leftovers here. With acceptance
        //    closed before each queue lock is taken, a queue seen empty
        //    under its lock by the claim holder stays empty, so nothing
        //    accepted is left unserved; a claim held elsewhere is yielded
        //    to until its holder finishes.
        self.demand.accepting.store(false, Ordering::SeqCst);
        for (shard, q) in self.demand.queues.iter().enumerate() {
            let lock = || q.ops.lock().unwrap_or_else(|e| e.into_inner());
            drop(lock());
            q.not_full.notify_all();
            let (state, reg) = (&self.state, &self.registry);
            while with_claim(state, &self.demand, shard, reg, || lock().is_empty()) != Some(true) {
                thread::yield_now();
            }
        }
        let worker_panics: Vec<usize> = self
            .demand
            .panicked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .copied()
            .collect();
        // 3. Retire the telemetry plane: the sampler takes one final
        //    snapshot of the quiesced system on its way out (so the last
        //    flight-recorder entry / JSONL line is the end state), then
        //    the exporter stops serving.
        self.sampler_stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler {
            let _ = sampler.join();
        }
        // The watchdog goes down with the sampler (it only observes; the
        // final alert-log flush happens on its way out).
        self.watchdog_stop.store(true, Ordering::Relaxed);
        if let Some(watchdog) = self.watchdog {
            let _ = watchdog.join();
        }
        drop(self.exporter);
        // 4. Harvest telemetry and counters from the quiesced engine —
        //    including from quarantined shards (poison-tolerant locks).
        let mut master = Recorder::unbounded();
        self.state.harvest_recorders(&mut master);
        let reg = &self.registry;
        ServiceReport {
            shards: self.state.n_shards(),
            stats: self.state.stats(),
            per_shard: self.state.shard_stats(),
            hists: reg.service_hists(),
            recovery_hists: master.hists,
            reads: reg.reads.get(),
            writes: reg.writes.get(),
            failed_writes: reg.failed_writes.get(),
            escalated_reads: reg.escalated_reads.get(),
            due_reads: reg.due_reads.get(),
            lockfree_reads: reg.clean_read_lockfree_hits.get(),
            scrub_ticks: reg.scrub_ticks.get(),
            skipped_ticks: reg.skipped_ticks.get(),
            injected_lines: reg.injected_lines.get(),
            escalations: reg.escalations.get(),
            escalated_lines: reg.escalated_lines.get(),
            unresolved_lines: reg.unresolved_lines.get(),
            worker_panics,
            daemon_panicked,
            quarantined: self.state.health().quarantined(),
            degraded: self.state.degraded_stats(),
            alerts: self.plane.alerts.total(),
            critical_alerts: self.plane.alerts.criticals(),
            scrub_deadline_misses: self.plane.tracker.total_misses(),
            scrub_interval_p99_ns: self.plane.tracker.achieved_hist_all().quantile(0.99),
            scrub_lines_swept: reg.scrub_lines_swept.get(),
            scrub_floor_clamps: reg.scrub_floor_clamps.get(),
            heatmaps: self.state.heatmaps().cloned(),
            spatial: self.plane.latest_spatial(),
        }
    }
}

/// The sampler thread: one [`TelemetrySnapshot`] per interval into the
/// flight recorder (and the JSONL time series, flushed per line so a
/// crash loses at most the current interval), plus one final snapshot of
/// the quiesced system when the stop flag lands.
fn sampler_loop(
    state: &ShardedCache,
    registry: &TelemetryRegistry,
    recorder: &FlightRecorder,
    plane: &AuditPlane,
    mut jsonl: Option<std::io::BufWriter<std::fs::File>>,
    every: Duration,
    stop: &AtomicBool,
) {
    let mut seq = 0u64;
    loop {
        // Sleep in small slices so shutdown stays prompt.
        let deadline = Instant::now() + every;
        while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(every.min(Duration::from_millis(1)));
        }
        let snap = TelemetrySnapshot::capture_with_audit(seq, state, registry, Some(plane));
        seq += 1;
        if let Some(w) = jsonl.as_mut() {
            let _ = writeln!(w, "{}", snap.to_json());
            let _ = w.flush();
        }
        recorder.push(snap);
        if stop.load(Ordering::Relaxed) {
            break; // the snapshot above was the final, post-drain capture
        }
    }
}

/// Claims `shard` and, when the claim was free, drains its queue in whole
/// work packets on the *calling* thread, runs `serve` (the caller's own
/// op, FIFO-behind everything just drained), and releases. `None` when
/// another thread holds the claim: its drain and release re-check cover
/// anything the caller queued. This is the only way queued ops get
/// served — repairs stay serialized per shard because the claim admits
/// one drainer at a time and the shard session mutex covers the state.
fn with_claim<T>(
    state: &ShardedCache,
    demand: &Demand,
    shard: usize,
    reg: &TelemetryRegistry,
    serve: impl FnOnce() -> T,
) -> Option<T> {
    // SeqCst, pairing with the SeqCst store in `release_claim`: see there.
    if demand.queues[shard].claimed.swap(true, Ordering::SeqCst) {
        return None;
    }
    drain_claimed(state, demand, shard, reg);
    let out = serve();
    release_claim(state, demand, shard, reg);
    Some(out)
}

/// Drains `shard`'s queue in whole work packets until it is empty. The
/// caller must hold the claim.
fn drain_claimed(state: &ShardedCache, demand: &Demand, shard: usize, reg: &TelemetryRegistry) {
    loop {
        let batch = demand.pop_batch(shard, reg);
        if batch.is_empty() {
            return;
        }
        if state.health().is_up(shard) {
            serve_packet(state, demand, shard, batch, reg);
        } else {
            // Quarantined: drain with error replies, never hangs.
            for op in batch {
                complete_shard_down(op, shard, state, reg);
            }
        }
    }
}

/// Releases the claim on `shard`, closing the push-after-empty-pop race:
/// an op pushed between the holder's last empty pop and the release saw
/// the shard claimed and counts on the holder to serve it. Reclaim and
/// drain again (or leave it to whoever beat us to the reclaim).
fn release_claim(state: &ShardedCache, demand: &Demand, shard: usize, reg: &TelemetryRegistry) {
    let q = &demand.queues[shard];
    loop {
        // Store-buffering pair with the enqueuer, which increments `len`
        // and then swaps `claimed` in `with_claim`: all four accesses are
        // SeqCst, so in their single total order either our `len` load
        // sees the push or the enqueuer's swap sees this release. With a
        // Release store here, both could read the stale value and strand
        // the op with nobody draining it.
        q.claimed.store(false, Ordering::SeqCst);
        if q.len.load(Ordering::SeqCst) == 0 || q.claimed.swap(true, Ordering::SeqCst) {
            return;
        }
        drain_claimed(state, demand, shard, reg);
    }
}

/// Quarantines `shard` after a caught panic and records it for the
/// end-of-run report.
fn fail_shard(state: &ShardedCache, demand: &Demand, shard: usize) {
    state.health().quarantine(shard);
    demand
        .panicked
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(shard);
}

/// Error-completes a stranded op (queued behind a panic, or drained off a
/// dead shard's queue). The client gets [`ServiceError::ShardDown`], never
/// a hang.
fn complete_shard_down(op: Op, shard: usize, state: &ShardedCache, reg: &TelemetryRegistry) {
    match op {
        Op::Panic { .. } => {}
        Op::Read { reply, .. } => {
            state.note_reject();
            reply.complete(Err(ServiceError::ShardDown(shard)));
        }
        Op::Write { line, .. } => {
            state.note_reject();
            // The accepted write will never be applied: surface it in the
            // failed-write counter and re-arm the line's lock-free view.
            reg.failed_writes.inc();
            state.retire_write(line);
        }
    }
}

/// How an op reached its serve routine.
#[derive(Clone, Copy)]
enum Via {
    /// The client's own op, on its own thread under the claim it just
    /// won: no queue wait.
    Inline,
    /// Popped off the shard queue; the op was enqueued at this instant.
    Queued(Instant),
}

impl Via {
    /// The trace path and the queue wait up to `service_start`, in ns.
    fn path_and_wait(self, service_start: Instant) -> (TracePath, u64) {
        match self {
            Via::Inline => (TracePath::Inline, 0),
            Via::Queued(enqueued) => (
                TracePath::Queued,
                service_start.duration_since(enqueued).as_nanos() as u64,
            ),
        }
    }
}

/// Opens `shard`'s session on first use, so one is shared across a packet
/// and an all-write packet after an escalation doesn't reacquire for
/// nothing.
fn open_session<'s, 'a>(
    state: &'a ShardedCache,
    shard: usize,
    session: &'s mut Option<ShardSession<'a>>,
) -> Result<&'s mut ShardSession<'a>, ServiceError> {
    match session {
        Some(live) => Ok(live),
        None => Ok(session.insert(state.session(shard)?)),
    }
}

/// Serves one read of `line` on `shard` — the caller's own op inline, or
/// a queued one inside a packet — with its counters and trace record.
/// A local ladder failure drops the session *before* escalating, since
/// the cross-shard coordinator acquires every shard mutex in ascending
/// order. `None` means the op panicked: the shard is already failed, and
/// the caller answers [`ServiceError::ShardDown`].
#[allow(clippy::too_many_arguments)] // private; the op plus its serving context
fn serve_read<'a>(
    state: &'a ShardedCache,
    demand: &Demand,
    shard: usize,
    line: u64,
    trace: u64,
    via: Via,
    session: &mut Option<ShardSession<'a>>,
    reg: &TelemetryRegistry,
) -> Option<Result<LineData, ServiceError>> {
    let service_start = Instant::now();
    let (path, queue_wait_ns) = via.path_and_wait(service_start);
    let mut h2_ns = 0u64;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let live = open_session(state, shard, session)?;
        // Any recovery the ladder runs for this read is stamped with the
        // request's trace ID — /traces.json ties a slow read to the exact
        // RecoveryEvents it caused.
        live.set_trace(trace);
        match live.read(line) {
            Err(ServiceError::Uncorrectable(_)) => {
                reg.escalated_reads.inc();
                *session = None;
                let h2_start = Instant::now();
                let fetched = state.escalate_fetch(line, trace);
                h2_ns = h2_start.elapsed().as_nanos() as u64;
                reg.h2_gather_ns.record(h2_ns);
                fetched
            }
            other => other,
        }
    }));
    let Ok(result) = outcome else {
        fail_shard(state, demand, shard);
        return None;
    };
    reg.reads.inc();
    if matches!(result, Err(ServiceError::Uncorrectable(_))) {
        reg.due_reads.inc();
    }
    reg.note_request(TraceRecord {
        trace,
        shard: shard as u32,
        write: false,
        path,
        outcome: read_outcome(&result),
        queue_wait_ns,
        service_ns: service_start.elapsed().as_nanos() as u64,
        h2_ns,
    });
    Some(result)
}

/// Serves one write of `data` to `line` on `shard`, inline or queued, with
/// its counters and trace record. A queued write retires its pending mark
/// *after* the apply-and-republish (or on the way to the teardown): only
/// then is the view authoritative for the line again. Returns `false`
/// when the op panicked (the shard is already failed).
#[allow(clippy::too_many_arguments)] // private; the op plus its serving context
fn serve_write<'a>(
    state: &'a ShardedCache,
    demand: &Demand,
    shard: usize,
    line: u64,
    trace: u64,
    data: &LineData,
    via: Via,
    session: &mut Option<ShardSession<'a>>,
    reg: &TelemetryRegistry,
) -> bool {
    let service_start = Instant::now();
    let (path, queue_wait_ns) = via.path_and_wait(service_start);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        open_session(state, shard, session).map(|live| {
            // Consistency-triggered group recovery under the write carries
            // the write's trace, same as the read path.
            live.set_trace(trace);
            live.write(line, data);
        })
    }));
    if let Via::Queued(_) = via {
        state.retire_write(line);
    }
    let Ok(result) = outcome else {
        fail_shard(state, demand, shard);
        reg.failed_writes.inc();
        return false;
    };
    match &result {
        Ok(()) => reg.writes.inc(),
        Err(_) => reg.failed_writes.inc(),
    }
    reg.note_request(TraceRecord {
        trace,
        shard: shard as u32,
        write: true,
        path,
        outcome: if result.is_ok() {
            TraceOutcome::Ok
        } else {
            TraceOutcome::Error
        },
        queue_wait_ns,
        service_ns: service_start.elapsed().as_nanos() as u64,
        h2_ns: 0,
    });
    true
}

/// Serves one work packet against `shard`, holding one [`ShardSession`]
/// across the batch (one mutex acquire amortized over up to [`BATCH`]
/// ops).
///
/// Panic protocol: completion handles **never** enter the `catch_unwind`
/// closure — only the cache operation does — so a panic cannot strand or
/// double-complete a client. On a caught panic the shard is quarantined
/// first, then the current op and everything left in the packet complete
/// with [`ServiceError::ShardDown`]. The session `Option` lives outside
/// the closure, so the shard mutex is released (not poisoned) on the way
/// out; `hold_lock` chaos panics still poison it via their own acquire.
fn serve_packet(
    state: &ShardedCache,
    demand: &Demand,
    shard: usize,
    batch: Vec<Op>,
    reg: &TelemetryRegistry,
) {
    let mut session: Option<ShardSession<'_>> = None;
    let mut ops = batch.into_iter();
    while let Some(op) = ops.next() {
        let served = match op {
            Op::Panic { hold_lock } => {
                // Release the session first: a hold_lock panic re-acquires
                // the shard mutex itself (and poisons it on unwind).
                drop(session.take());
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    state.chaos_panic(shard, hold_lock);
                }));
                fail_shard(state, demand, shard);
                false
            }
            Op::Read {
                line,
                trace,
                enqueued,
                reply,
            } => {
                let via = Via::Queued(enqueued);
                let result = serve_read(state, demand, shard, line, trace, via, &mut session, reg);
                let served = result.is_some();
                reply.complete(result.unwrap_or(Err(ServiceError::ShardDown(shard))));
                served
            }
            Op::Write {
                line,
                trace,
                data,
                enqueued,
            } => {
                let via = Via::Queued(enqueued);
                serve_write(
                    state,
                    demand,
                    shard,
                    line,
                    trace,
                    &data,
                    via,
                    &mut session,
                    reg,
                )
            }
        };
        if !served {
            for rest in ops {
                complete_shard_down(rest, shard, state, reg);
            }
            return;
        }
    }
}

/// One scrub tick over `shard`: inject, shard-local scrub, escalate the
/// leftovers. Split out so [`daemon_loop`] can wrap it in `catch_unwind`.
#[allow(clippy::too_many_arguments)]
fn daemon_tick(
    state: &ShardedCache,
    shard: usize,
    injector: &mut FaultInjector,
    inject: bool,
    reg: &TelemetryRegistry,
    plane: &AuditPlane,
    cursor: &mut usize,
    packets_per_tick: usize,
) {
    let started = Instant::now();
    let injected = if inject {
        state.inject_shard(shard, injector)
    } else {
        Vec::new()
    };
    reg.injected_lines.add(injected.len() as u64);
    // The bounded incremental sweep: advance this shard's packet cursor
    // far enough per tick that every owned line is revisited within the
    // scrub deadline (the golden-zero fast path makes clean lines nearly
    // free to rescan). Injection hints alone only cover lines the
    // simulator *knows* it faulted — the sweep is what makes the 20 ms
    // guarantee an audited property instead of an assumption.
    let tracker = &plane.tracker;
    let n_packets = tracker.n_packets(shard);
    let packet_lines = tracker.packet_lines();
    let owned = state.plan().owned_line_count(shard);
    let mut hints = injected;
    let mut swept = Vec::with_capacity(packets_per_tick);
    let mut lines_swept = 0u64;
    for _ in 0..packets_per_tick.min(n_packets) {
        let packet = *cursor % n_packets;
        *cursor = (*cursor + 1) % n_packets;
        let start = packet as u64 * packet_lines;
        let end = (start + packet_lines).min(owned);
        hints.extend((start..end).map(|idx| state.plan().owned_line_at(shard, idx)));
        lines_swept += end.saturating_sub(start);
        if start < owned {
            swept.push((packet, state.plan().owned_line_at(shard, start)));
        }
    }
    reg.scrub_lines_swept.add(lines_swept);
    hints.sort_unstable();
    hints.dedup();
    let (_report, leftover) = state.scrub_shard_local(shard, &hints);
    for (packet, first_line) in swept {
        let interval_ns = tracker.note_packet(shard, packet);
        if let Some(maps) = state.heatmaps() {
            maps.note_staleness(first_line, interval_ns);
        }
    }
    reg.scrub_tick_ns
        .record(started.elapsed().as_nanos() as u64);
    if !leftover.is_empty() {
        let escalation_start = Instant::now();
        let report = state.escalate(&leftover);
        reg.h2_gather_ns
            .record(escalation_start.elapsed().as_nanos() as u64);
        reg.escalations.inc();
        reg.escalated_lines.add(leftover.len() as u64);
        reg.unresolved_lines.add(report.unresolved.len() as u64);
    }
    reg.scrub_ticks.inc();
}

/// Maps a served read's result to its trace outcome.
fn read_outcome(result: &Result<LineData, ServiceError>) -> TraceOutcome {
    match result {
        Ok(_) => TraceOutcome::Ok,
        Err(e) if e.is_due() => TraceOutcome::Due,
        Err(_) => TraceOutcome::Error,
    }
}

#[allow(clippy::too_many_arguments)] // private; mirrors the service wiring
fn daemon_loop(
    state: &ShardedCache,
    tick: Duration,
    master: &FaultInjector,
    stop: &AtomicBool,
    panic_flag: &AtomicBool,
    reg: &TelemetryRegistry,
    plane: &AuditPlane,
    stall_us: &AtomicU64,
    queue_bound: u64,
    adaptive: bool,
) -> bool {
    let mut panicked = false;
    // One decorrelated injector per shard: the fault streams are fixed by
    // (seed, shard) alone, independent of tick interleaving.
    let mut injectors: Vec<FaultInjector> = (0..state.n_shards())
        .map(|s| master.fork(s as u64))
        .collect();
    // Legacy fixed-cadence quotas, used when the adaptive controller is
    // off: a shard is ticked every `tick × n_shards`, so covering all its
    // packets within the deadline needs `n_packets × period / deadline`
    // packets per tick — swept at 1.25× that rate for headroom. The
    // adaptive controller computes the same floor from the *achieved*
    // period instead, so it stays honest when ticks run long.
    let period = tick.saturating_mul(state.n_shards() as u32);
    let period_ns = (period.as_nanos() as u64).max(1);
    let deadline_ns = plane.tracker.deadline_ns().max(1);
    let mut cursors = vec![0usize; state.n_shards()];
    let static_quotas: Vec<usize> = (0..state.n_shards())
        .map(|s| {
            let n_packets = plane.tracker.n_packets(s) as u64;
            let per_tick = (n_packets * period_ns * 5).div_ceil(4 * deadline_ns).max(1);
            per_tick.min(n_packets) as usize
        })
        .collect();
    let mut controller = ScrubController::new(
        &plane.tracker,
        plane.config.tick_lag_budget,
        queue_bound as usize,
        period,
    );
    let epoch = Instant::now();
    let mut next_shard = 0usize;
    // Absolute tick schedule: each deadline is the previous one plus
    // `tick`, not "now + tick" computed after the previous tick's work.
    // The achieved cadence therefore does not drift with work time — an
    // overrun surfaces as tick lag (histogram + gauge) and is repaid by
    // the next sleep being shorter, instead of silently stretching every
    // subsequent period.
    let mut next_deadline = Instant::now() + tick;
    // Consecutive behind-schedule iterations (the sleep was a no-op).
    let mut catchup = 0usize;
    'daemon: loop {
        // Checked every iteration, not only inside the sleep: when every
        // tick overruns its period (tiny tick on a slow build), the sleep
        // loop below never executes — without this check the daemon would
        // spin through catch-up rotations forever and shutdown would hang
        // on the join.
        if stop.load(Ordering::Relaxed) {
            break 'daemon;
        }
        // Sleep in small slices so shutdown stays prompt.
        while Instant::now() < next_deadline {
            if stop.load(Ordering::Relaxed) {
                break 'daemon;
            }
            std::thread::sleep(tick.min(Duration::from_millis(1)));
        }
        // Chaos hook: an injected stall — alive but not scrubbing. It
        // lands *after* the tick deadline so the whole stall shows up as
        // tick lag and growing packet staleness, exactly like a real
        // starvation would.
        let stall = stall_us.swap(0, Ordering::Relaxed);
        if stall > 0 {
            let until = Instant::now() + Duration::from_micros(stall);
            while Instant::now() < until {
                if stop.load(Ordering::Relaxed) {
                    break 'daemon;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // How late the tick started: scheduling + the previous tick's
        // overrun. The gauge holds the latest value; the histogram the
        // whole distribution.
        let now = Instant::now();
        let lag_ns = now.duration_since(next_deadline).as_nanos() as u64;
        reg.tick_lag_ns.record(lag_ns);
        reg.last_tick_lag_ns.set(lag_ns);
        next_deadline += tick;
        if next_deadline < now {
            // Behind schedule (a stall, a scheduler hole, or work that
            // ran past the tick). Keep the stale deadline so the sleep
            // at the loop top is a no-op and the next shards get visited
            // back-to-back — on a starved CPU the daemon's wakeups are
            // sparse, and one-visit-per-wakeup would stretch every
            // shard's re-scrub interval to `n_shards × wakeup gap`.
            // Catch-up is bounded to one full rotation: past that the
            // debt is re-anchored away and the daemon yields a tick, so
            // it can never busy-loop the demand path off the core.
            // Coverage beyond the burst is restored by the controller's
            // floor rising with the achieved period, not by replaying
            // arbitrarily old missed ticks.
            catchup += 1;
            if catchup >= state.n_shards() {
                next_deadline = now + tick;
                catchup = 0;
            }
        } else {
            catchup = 0;
        }
        // Pick the next *live* shard, skipping quarantined ones without
        // consuming the tick: the sweep budget a dead shard would have
        // used goes to the survivors (their achieved visit period — and
        // therefore the adaptive floor — stays honest automatically).
        let mut shard = next_shard;
        let mut hops = 0;
        while hops < state.n_shards() && !state.health().is_up(shard) {
            // A quarantined shard's state is frozen: no injection (physics
            // on a dead shard is unobservable anyway) and no scrub.
            reg.skipped_ticks.inc();
            shard = (shard + 1) % state.n_shards();
            hops += 1;
        }
        next_shard = (shard + 1) % state.n_shards();
        reg.scrub_cursor.set(next_shard as u64);
        if hops == state.n_shards() {
            // Everything is quarantined; idle this tick.
            continue;
        }
        let quota = if adaptive {
            let decision = controller.decide(
                shard,
                epoch.elapsed().as_nanos() as u64,
                reg.depth(shard).get(),
                lag_ns,
                plane.tracker.worst_staleness_ns(shard),
            );
            reg.scrub_packet_quota.set(decision.quota as u64);
            reg.scrub_floor_quota.set(decision.floor as u64);
            reg.scrub_quota_hist.record(decision.quota as u64);
            if decision.floor_clamped {
                reg.scrub_floor_clamps.inc();
            }
            decision.quota
        } else {
            static_quotas[shard]
        };
        let inject = master.ber() > 0.0;
        let injector = &mut injectors[shard];
        let result = catch_unwind(AssertUnwindSafe(|| {
            if panic_flag.swap(false, Ordering::Relaxed) {
                panic!("injected scrub daemon panic");
            }
            daemon_tick(
                state,
                shard,
                injector,
                inject,
                reg,
                plane,
                &mut cursors[shard],
                quota,
            );
        }));
        if result.is_err() {
            // Scrubbing stops (reported), demand traffic continues.
            panicked = true;
            reg.daemon_dead.set(1);
            break;
        }
    }
    panicked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_with(bits: &[usize]) -> LineData {
        let mut d = LineData::zero();
        for &b in bits {
            d.set_bit(b, true);
        }
        d
    }

    #[test]
    fn shutdown_drains_every_accepted_request() {
        let mut config = ServiceConfig::small(256, 4, 0.0, 1);
        config.scrub_every = None;
        config.queue_depth = 4; // small queue: the test exercises blocking
        let service = Service::start(config).unwrap();
        let handle = service.handle();
        for line in 0..200u64 {
            handle
                .write(line, &data_with(&[line as usize % 512]))
                .unwrap();
        }
        let report = service.shutdown();
        assert_eq!(report.writes, 200, "drain must serve every write");
        assert_eq!(report.stats.writes, 200);
        assert_eq!(report.due_reads, 0);
        assert!(report.fully_healthy());
    }

    #[test]
    fn concurrent_clients_roundtrip_against_separate_shards() {
        let mut config = ServiceConfig::small(512, 4, 0.0, 2);
        config.scrub_every = None;
        let service = Service::start(config).unwrap();
        std::thread::scope(|s| {
            for worker in 0..4u64 {
                let handle = service.handle();
                s.spawn(move || {
                    for i in 0..64u64 {
                        let line = worker * 128 + i;
                        let data = data_with(&[(line as usize * 3) % 512]);
                        handle.write(line, &data).unwrap();
                        assert_eq!(handle.read(line).unwrap(), data);
                    }
                });
            }
        });
        // The registry is live: inspect it before shutdown.
        let reg = Arc::clone(service.registry());
        assert_eq!(reg.reads.get(), 256);
        assert_eq!(reg.traces_issued(), 512);
        let report = service.shutdown();
        assert_eq!(report.reads, 256);
        assert_eq!(report.writes, 256);
        assert_eq!(report.due_reads, 0);
        assert!(report.hists.read_latency_ns.count() == 256);
        // Phase accounting covers every request: queue wait is recorded
        // for reads and writes alike (zero for lock-free reads).
        assert_eq!(reg.queue_wait_ns.snapshot().count(), 512);
    }

    #[test]
    fn scrub_daemon_heals_injected_faults() {
        let mut config = ServiceConfig::small(1024, 4, 2e-4, 3);
        config.scrub_every = Some(Duration::from_millis(1));
        let service = Service::start(config).unwrap();
        let handle = service.handle();
        // Demand traffic concurrent with injection + scrub.
        for line in 0..256u64 {
            handle
                .write(line * 4, &data_with(&[line as usize % 512]))
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(40));
        for line in 0..256u64 {
            assert_eq!(
                handle.read(line * 4).unwrap(),
                data_with(&[line as usize % 512]),
                "line {line} corrupted"
            );
        }
        let report = service.shutdown();
        assert!(report.scrub_ticks >= 4, "{report:?}");
        assert!(report.injected_lines > 0, "{report:?}");
        assert_eq!(report.due_reads, 0);
        assert!(report.fully_healthy());
    }

    #[test]
    fn depth_gauge_returns_to_zero_after_rejected_sends() {
        // Regression: a failed send used to leave the optimistic depth
        // increment behind, drifting the gauge upward forever.
        let mut config = ServiceConfig::small(256, 4, 0.0, 7);
        config.scrub_every = None;
        let service = Service::start(config).unwrap();
        let handle = service.handle();
        let victim = handle.shard_of(0);
        handle.inject_worker_panic(victim, false).unwrap();
        // Wait for the quarantine to land.
        while !handle.quarantined().contains(&victim) {
            std::thread::sleep(Duration::from_micros(50));
        }
        for line in 0..64u64 {
            let s = handle.shard_of(line);
            let r = handle.write(line, &data_with(&[1]));
            if s == victim {
                assert_eq!(r, Err(ServiceError::ShardDown(victim)));
            } else {
                r.unwrap();
            }
        }
        let report = service.shutdown();
        assert_eq!(report.worker_panics, vec![victim]);
        // Every accepted request was served, every rejected one undone:
        // the gauge histogram never saw a depth above the queue bound.
        assert!(report.hists.queue_depth.max() <= 64);
        assert_eq!(report.writes, 48);
        assert_eq!(report.quarantined, vec![victim]);
    }

    #[test]
    fn daemon_panic_is_survivable() {
        let mut config = ServiceConfig::small(256, 4, 0.0, 9);
        config.scrub_every = Some(Duration::from_millis(1));
        let service = Service::start(config).unwrap();
        let handle = service.handle();
        service.inject_daemon_panic();
        // The registry flags the dead daemon live (panic unwinding takes a
        // few ms, so poll rather than sleep a fixed interval).
        let deadline = Instant::now() + Duration::from_secs(5);
        while service.registry().daemon_dead.get() == 0 {
            assert!(Instant::now() < deadline, "daemon_dead never flagged");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Demand traffic is unaffected by the daemon's death.
        handle.write(3, &data_with(&[3])).unwrap();
        assert_eq!(handle.read(3).unwrap(), data_with(&[3]));
        let report = service.shutdown();
        assert!(report.daemon_panicked);
        assert!(report.worker_panics.is_empty());
        assert_eq!(report.writes, 1);
    }

    #[test]
    fn adaptive_scrub_recovers_deadline_under_tick_overrun() {
        // Regression for the cadence-drift bug: the old loop computed each
        // tick deadline as `now + tick` *after* the previous tick's work,
        // so sustained overrun silently stretched the achieved period
        // while the startup quota kept assuming the ideal one — packets
        // quietly blew the 20 ms contract forever. With the absolute
        // schedule + adaptive controller, the overrun shows up as tick
        // lag, the achieved-period EWMA lifts the quota floor, and misses
        // stop once the controller converges.
        let mut config = ServiceConfig::small(1024, 4, 0.0, 21);
        config.scrub_every = Some(Duration::from_millis(1));
        let service = Service::start(config).unwrap();
        // Artificial per-tick work: ~2 ms of stall against a 1 ms tick,
        // i.e. every tick overruns its period threefold.
        for _ in 0..50 {
            service.inject_daemon_stall(Duration::from_millis(2));
            std::thread::sleep(Duration::from_millis(3));
        }
        let mid_misses = service.audit().tracker.total_misses();
        for _ in 0..50 {
            service.inject_daemon_stall(Duration::from_millis(2));
            std::thread::sleep(Duration::from_millis(3));
        }
        let registry = Arc::clone(service.registry());
        let plane = Arc::clone(service.audit());
        let report = service.shutdown();
        // Converged: the second half of the run adds (at most a straggler
        // or two of) no new misses. The old static quota missed on every
        // revisit here — dozens in this window.
        let late_misses = report.scrub_deadline_misses - mid_misses;
        assert!(
            late_misses <= 4,
            "controller failed to converge: {late_misses} new misses after warmup \
             (total {}, quota floor ended at {})",
            report.scrub_deadline_misses,
            registry.scrub_floor_quota.get()
        );
        // The overrun is surfaced as tick lag, not hidden by the schedule.
        let lag = registry.tick_lag_ns.snapshot();
        assert!(lag.count() > 0);
        assert!(lag.max() >= 1_000_000, "2 ms stalls must show up as lag");
        // The bulk of the achieved intervals sit inside the envelope.
        let achieved = plane.tracker.achieved_hist_all();
        assert!(
            achieved.quantile(0.50) <= plane.tracker.deadline_ns(),
            "median achieved interval {} ns blew the deadline",
            achieved.quantile(0.50)
        );
        // Backpressure (stall-induced lag = pressure 1) pinned the quota
        // at its floor at least once along the way — the clamp counter is
        // what the watchdog's floor-breach alert keys on.
        assert!(report.scrub_floor_clamps > 0);
    }

    #[test]
    fn quarantined_shards_yield_their_sweep_budget() {
        // With 3 of 4 shards quarantined, the daemon must not burn 3 of
        // every 4 ticks on skip bookkeeping: the hop-skip hands those
        // ticks to the surviving shard, whose visit cadence (and therefore
        // deadline math) stays honest.
        let mut config = ServiceConfig::small(1024, 4, 0.0, 23);
        config.scrub_every = Some(Duration::from_millis(1));
        let service = Service::start(config).unwrap();
        let handle = service.handle();
        for shard in 1..4 {
            handle.inject_worker_panic(shard, false).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.quarantined().len() < 3 {
            assert!(Instant::now() < deadline, "quarantines never landed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let ticks_at_quarantine = service.registry().scrub_ticks.get();
        std::thread::sleep(Duration::from_millis(120));
        let scrubbed = service.registry().scrub_ticks.get() - ticks_at_quarantine;
        // Ideal is ~120 scrubbing ticks (every tick lands on the live
        // shard); the old consume-the-tick skip managed ~30. The bound
        // sits far from both, robust to scheduler noise.
        assert!(
            scrubbed >= 60,
            "live shard starved: only {scrubbed} scrub ticks in 120 ms \
             with 3 shards quarantined"
        );
        // The survivor's packets are being revisited well inside the
        // deadline (checked pre-shutdown: staleness keeps growing once the
        // daemon stops).
        let plane = Arc::clone(service.audit());
        assert!(
            plane.tracker.worst_staleness_ns(0) <= plane.tracker.deadline_ns(),
            "live shard staleness blew the deadline after redistribution"
        );
        let report = service.shutdown();
        assert!(report.skipped_ticks > 0, "pass-overs must still be counted");
        assert_eq!(report.quarantined, vec![1, 2, 3]);
    }

    #[test]
    fn clean_reads_are_served_lock_free() {
        let mut config = ServiceConfig::small(256, 4, 0.0, 11);
        config.scrub_every = None;
        let service = Service::start(config).unwrap();
        let handle = service.handle();
        for line in 0..64u64 {
            handle.write(line, &data_with(&[line as usize])).unwrap();
        }
        // Writes complete at acceptance: the first read of each line may
        // queue behind its still-pending write (FIFO gives read-your-write),
        // after which the line is published and the second read MUST be
        // served straight from the seqlock view.
        for line in 0..64u64 {
            assert_eq!(handle.read(line).unwrap(), data_with(&[line as usize]));
        }
        for line in 0..64u64 {
            assert_eq!(handle.read(line).unwrap(), data_with(&[line as usize]));
        }
        let report = service.shutdown();
        assert_eq!(report.reads, 128);
        assert!(
            report.lockfree_reads >= 64,
            "clean reads must bypass the queue: {} lock-free of {}",
            report.lockfree_reads,
            report.reads
        );
        // The view's accounting matches the reference: each lock-free read
        // is one cache read + one CRC check in aggregate stats.
        assert_eq!(report.stats.reads, 128);
    }
}
