//! The workloads, the service configuration `svc_read_hot` and the layer
//! ladder share, and the measurement window every workload reports into.

use crate::stats::Samples;
use std::time::{Duration, Instant};
use sudoku_core::{Scheme, SudokuConfig};
use sudoku_fault::StuckBitMap;
use sudoku_svc::{AuditConfig, DegradedConfig, Service, ServiceConfig, ServiceHandle};

/// Cache lines of the service workloads.
pub const LINES: u64 = 16_384;
/// Client threads of the service workloads (the reference host's nproc).
pub const CLIENTS: u64 = 2;
/// Set-ups timed per run; `setup_s` is their median. One is the measured
/// process's own; the rest run in a child process, so that the memory
/// they free does not inflate the measured process's peak RSS.
pub const SETUPS: usize = 9;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, Zipf θ=0.99, 5% writes: the lock-free read path.
    SvcReadHot,
    /// The paper-default SuDoku-Z interval campaign.
    McInterval,
}

/// Key skew and write share of a workload's op stream.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Zipf skew over each client's slice (0 = uniform).
    pub theta: f64,
    /// Fraction of ops that are writes.
    pub write_frac: f64,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 2] = [Workload::SvcReadHot, Workload::McInterval];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SvcReadHot => "svc_read_hot",
            Workload::McInterval => "mc_interval",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The op stream the workload (and its ladder) drives. The interval
    /// campaign's op is a scrub read of a line, so its ladder mix is
    /// uniform reads.
    pub fn mix(self) -> Mix {
        match self {
            Workload::SvcReadHot => Mix {
                theta: 0.99,
                write_frac: 0.05,
            },
            Workload::McInterval => Mix {
                theta: 0.0,
                write_frac: 0.0,
            },
        }
    }
}

/// Length of one measurement slice. Rates and latency quantiles are
/// taken per slice and reported as the interquartile mean over slices,
/// so a burst of interference from the rest of the host moves one slice,
/// not the figure.
pub const SLICE: Duration = Duration::from_millis(500);

/// A measurement window: `slices` consecutive slices, spans recorded or
/// not.
#[derive(Clone, Copy, Debug)]
pub struct WindowSpec {
    pub slices: usize,
    pub traced: bool,
}

/// Latency quantiles `[p50, p90, p99, p99.9]` of the headline op, ns.
pub type Quantiles = [u64; 4];

/// What one slice saw, summed over the load-generating threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Slice {
    /// Ops (or trials) completed.
    pub ops: u64,
    /// Slice length, seconds.
    pub elapsed_s: f64,
    /// Process CPU spent, seconds.
    pub cpu_s: f64,
    /// Lines scrubbed (daemon sweep, or campaign scrub).
    pub scrub_lines: u64,
}

/// What one measurement window saw.
#[derive(Default)]
pub struct Window {
    pub slices: Vec<Slice>,
    /// Headline latency quantiles, one entry per load-generating thread
    /// and slice (one per window for the campaign).
    pub quantiles: Vec<Quantiles>,
}

/// One load-generating thread's per-slice accounting over a run.
pub struct SliceRecorder {
    epoch: Instant,
    current: usize,
    lat: Samples,
    /// Ops completed in each slice of the run.
    pub ops: Vec<u64>,
    /// `(slice, quantiles)` of each slice that saw a headline op.
    pub quantiles: Vec<(usize, Quantiles)>,
}

impl SliceRecorder {
    pub fn new(epoch: Instant, total_slices: usize) -> SliceRecorder {
        SliceRecorder {
            epoch,
            current: 0,
            lat: Samples::default(),
            ops: vec![0; total_slices],
            quantiles: Vec::new(),
        }
    }

    /// The slice `t` falls in (the last one for any later time).
    pub fn slice_of(&self, t: Instant) -> usize {
        let k = (t.saturating_duration_since(self.epoch).as_nanos() / SLICE.as_nanos()) as usize;
        k.min(self.ops.len() - 1)
    }

    /// Counts an op that completed at `done`, with its latency when it is
    /// a headline op.
    #[inline]
    pub fn record(&mut self, done: Instant, headline_ns: Option<u64>) {
        let k = self.slice_of(done);
        if k != self.current {
            self.flush();
            self.current = k;
        }
        self.ops[k] += 1;
        if let Some(ns) = headline_ns {
            self.lat.record(ns);
        }
    }

    fn flush(&mut self) {
        if let Some(q) = self.lat.quantiles() {
            self.quantiles.push((self.current, q));
        }
        self.lat.clear();
    }

    /// Closes the last slice.
    pub fn finish(mut self) -> SliceRecorder {
        self.flush();
        self
    }
}

/// Splits a run's per-slice records into windows. `recorders` are the
/// load-generating threads'; `cpu_marks` and `scrub_marks` are process CPU
/// seconds and scrubbed-line counts read at every slice boundary.
pub fn windows_from_slices(
    specs: &[WindowSpec],
    recorders: &[SliceRecorder],
    cpu_marks: &[f64],
    scrub_marks: &[u64],
) -> Vec<Window> {
    let mut windows = Vec::with_capacity(specs.len());
    let mut first = 0;
    for spec in specs {
        let range = first..first + spec.slices;
        let slices = range
            .clone()
            .map(|k| Slice {
                ops: recorders.iter().map(|r| r.ops[k]).sum(),
                elapsed_s: SLICE.as_secs_f64(),
                cpu_s: cpu_marks[k + 1] - cpu_marks[k],
                scrub_lines: scrub_marks[k + 1] - scrub_marks[k],
            })
            .collect();
        let quantiles = recorders
            .iter()
            .flat_map(|r| &r.quantiles)
            .filter(|(k, _)| range.contains(k))
            .map(|&(_, q)| q)
            .collect();
        windows.push(Window { slices, quantiles });
        first = range.end;
    }
    windows
}

/// Whether slice `k` of a run lies in a traced window.
pub fn traced_slices(specs: &[WindowSpec]) -> Vec<bool> {
    specs
        .iter()
        .flat_map(|s| std::iter::repeat_n(s.traced, s.slices))
        .collect()
}

/// Reads process CPU and `scrubbed()` at every slice boundary from
/// `epoch` on, `total_slices + 1` marks in all.
pub fn mark_slices(
    epoch: Instant,
    total_slices: usize,
    scrubbed: impl Fn() -> u64,
) -> (Vec<f64>, Vec<u64>) {
    let mut cpu = Vec::with_capacity(total_slices + 1);
    let mut scrub = Vec::with_capacity(total_slices + 1);
    for k in 0..=total_slices {
        crate::sleep_until(epoch + SLICE * k as u32);
        cpu.push(crate::host::process_cpu_s());
        scrub.push(scrubbed());
    }
    (cpu, scrub)
}

/// Service counters a run reads back from the public registry and report.
#[derive(Clone, Copy, Debug, Default)]
pub struct SvcCounters {
    pub reads: u64,
    pub lockfree_hits: u64,
    pub seqlock_retries: u64,
    pub due_reads: u64,
    pub escalations: u64,
    pub injected_lines: u64,
    pub scrub_floor_clamps: u64,
    pub scrub_deadline_misses: u64,
    pub net_frames: u64,
    pub net_retry: u64,
}

/// Everything a workload run hands back to the reporter.
pub struct Run {
    /// Median of the run's set-ups, seconds.
    pub setup_s: f64,
    /// One window per [`WindowSpec`], in order.
    pub windows: Vec<Window>,
    /// Op accounting over every window.
    pub tally: crate::report::Tally,
    /// Counters of the service the run drove, when it drove one.
    pub counters: Option<SvcCounters>,
    /// CPU spent by the load-generating threads over all windows, seconds.
    pub client_cpu_s: f64,
    /// Spans recorded in the traced window.
    pub spans: Vec<crate::trace::Span>,
}

/// The shared service configuration: SuDoku-Z, groups of 16, 4 shards,
/// 1 ms adaptive scrub at BER 1e-4 (`daemon`), no telemetry sampler.
pub fn service_config(seed: u64, daemon: bool) -> ServiceConfig {
    ServiceConfig {
        cache: SudokuConfig::small(Scheme::Z, LINES, 16),
        n_shards: 4,
        queue_depth: 64,
        scrub_every: daemon.then(|| Duration::from_millis(1)),
        ber: if daemon { 1e-4 } else { 0.0 },
        seed,
        stuck: StuckBitMap::new(),
        degraded: DegradedConfig::default(),
        telemetry: None,
        audit: AuditConfig::default(),
        adaptive_scrub: true,
    }
}

/// The value every line holds after [`prefill`].
pub fn initial_value(seed: u64, line: u64) -> sudoku_codes::LineData {
    crate::dense_line(seed ^ 0x5EED_0000_0000, line)
}

/// Starts the shared service and writes [`initial_value`] to every line,
/// so demand reads take the CRC-checked path rather than the all-zero one.
///
/// # Panics
///
/// When the service cannot start or refuses a prefill write.
pub fn start_prefilled(seed: u64, daemon: bool) -> Service {
    let service = Service::start(service_config(seed, daemon)).expect("service starts");
    prefill(&service.handle(), seed);
    service
}

fn prefill(handle: &ServiceHandle, seed: u64) {
    for line in 0..LINES {
        handle
            .write(line, &initial_value(seed, line))
            .expect("prefill write accepted");
    }
}

/// Reads the service counters the per-layer report needs, then shuts the
/// service down.
pub fn shutdown_counting(service: Service) -> SvcCounters {
    let seqlock_retries = service.registry().seqlock_retries.get();
    let net_frames = service.registry().net_frames.get();
    let net_retry = service.registry().net_sheds.get();
    let report = service.shutdown();
    SvcCounters {
        reads: report.reads,
        lockfree_hits: report.lockfree_reads,
        seqlock_retries,
        due_reads: report.due_reads,
        escalations: report.escalations,
        injected_lines: report.injected_lines,
        scrub_floor_clamps: report.scrub_floor_clamps,
        scrub_deadline_misses: report.scrub_deadline_misses,
        net_frames,
        net_retry,
    }
}

/// Runs `f`, returning its result and how long it took, seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}
