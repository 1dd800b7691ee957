//! The repository benchmark: two workloads over the SuDoku cache, their
//! end-to-end metrics, and a traced run that breaks the time down by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload svc_read_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (why each exists is on [`workload::Workload`]):
//!
//! * `svc_read_hot` — two closed-loop clients, Zipf θ=0.99, 5% writes,
//!   in process: the lock-free seqlock read with its inline CRC.
//! * `mc_interval` — the paper-default SuDoku-Z interval campaign on two
//!   threads: fault planning, CRC-31/ECC-1 scrub, arena reset.
//!
//! `--trace 0` prints the end-to-end metrics. Every one applies to every
//! workload: an *op* is a demand read or write (`svc_read_hot`) or a
//! campaign trial (`mc_interval`), and `p50_us` is the exact median of the
//! headline op's latency — reads on `svc_read_hot`, a trial's share of a
//! campaign call on `mc_interval`. Tail quantiles (p90, p99, p99.9) are
//! reported by the traced run only: on a two-CPU host the p90 of either
//! workload spread up to a quarter of its median between runs. Rates and quantiles are taken per half-second slice and
//! averaged over the middle half of the slices.
//!
//! `--trace 1` runs the workload untraced and then traced (spans written
//! to `perfbench/out/`), measures each layer from outside, drives the
//! workload's op mix up the layer ladder from the codec to a pipelined
//! `WireClient`, runs an open-loop wire probe at 25,000 req/s, and prints
//! the per-layer metrics. The wire plane and the write-heavy demand path
//! are measured only here: every end-to-end wire workload tried, and a
//! 50%-write uniform workload, spread too widely between runs on a
//! two-CPU host to be gated.
//!
//! The last line of standard output is the JSON result. The process exits
//! 1 when any output was wrong (SDC, malformed frame, pacing violation,
//! failed campaign check) and 2 on bad arguments or a run the wall-clock
//! guard had to stop.

mod host;
mod layers;
mod mc;
mod report;
mod sched;
mod stats;
mod svc_load;
mod trace;
mod wire_load;
mod workload;

use report::{Tally, END_TO_END};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use sudoku_codes::LineData;
use workload::{Run, Window, WindowSpec, Workload};

/// A small splitmix64 generator for the benchmark's own inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Sleeps until `t` (returns at once if it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// A dense pseudo-random line, a function of `(seed, i)` only.
pub fn dense_line(seed: u64, i: u64) -> LineData {
    let mut rng = Rng::new(seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    LineData::from_words(std::array::from_fn(|_| rng.next_u64()))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// What the command line asks for.
enum Mode {
    /// Run the benchmark.
    Bench(Args),
    /// Child of a benchmark run: time `n` set-ups of the workload.
    Setups(Workload, u64, usize),
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} is not a whole number"))
    };
    if argv.iter().any(|a| a == "--setups") {
        return Ok(Mode::Setups(
            workload,
            number("--seed")?,
            number("--setups")? as usize,
        ));
    }
    let args = Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match number("--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace is 0 or 1".into()),
        },
    };
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be 1 to 60".into());
    }
    Ok(Mode::Bench(args))
}

/// Sets the workload up once and tears it down; the set-up's seconds.
fn setup_once(workload: Workload, seed: u64) -> f64 {
    match workload {
        Workload::SvcReadHot => {
            let (service, secs) = workload::timed(|| workload::start_prefilled(seed, true));
            drop(service.shutdown());
            secs
        }
        Workload::McInterval => workload::timed(|| mc::setup(seed)).1,
    }
}

/// Times `workload::SETUPS - 1` set-ups in a child process (see
/// [`workload::SETUPS`]); `None` if the child failed.
fn child_setups(workload: Workload, seed: u64) -> Option<Vec<f64>> {
    let n = workload::SETUPS - 1;
    let mut child = std::process::Command::new(std::env::current_exe().ok()?)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--setups", &n.to_string()])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .ok()?;
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().ok()?.is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().ok()?;
    let times: Vec<f64> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.strip_prefix("setup_s ")?.parse().ok())
        .collect();
    (out.status.success() && times.len() == n).then_some(times)
}

/// Stops a stuck run: past the deadline, reports the run as one failed
/// attempt and exits without waiting for the stuck threads.
fn start_guard(seconds: u64) {
    let deadline = Duration::from_secs((60 + 6 * seconds).min(170));
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        eprintln!("run exceeded its {deadline:?} wall-clock guard; stopped");
        let stuck = Tally {
            attempted: 1,
            campaign: 1,
            ..Tally::default()
        };
        println!("{}", report::result_line(&stuck, &[], &BTreeMap::new()));
        std::process::exit(2);
    });
}

fn run_workload(args: &Args, windows: &[WindowSpec]) -> Run {
    let mix = args.workload.mix();
    match args.workload {
        Workload::SvcReadHot => svc_load::run(args.seed, mix, windows),
        Workload::McInterval => mc::run(args.seed, windows),
    }
}

fn us(ns: Option<u64>) -> f64 {
    ns.expect("latency samples recorded") as f64 / 1e3
}

/// Interquartile mean over a window's slices of `f(slice)`.
fn per_slice(w: &Window, f: impl Fn(&workload::Slice) -> f64) -> f64 {
    stats::interquartile_mean(&w.slices.iter().map(f).collect::<Vec<_>>())
}

/// Interquartile mean over a window's entries of latency quantile `i`
/// (0 = p50, 1 = p90, 2 = p99, 3 = p99.9), µs.
fn latency_us(w: &Window, i: usize) -> f64 {
    let values: Vec<f64> = w.quantiles.iter().map(|q| q[i] as f64).collect();
    stats::interquartile_mean(&values) / 1e3
}

/// The end-to-end metrics of an untraced run; `setups` are the child's
/// set-up times, to which the run's own is added.
fn end_to_end(run: &Run, mut setups: Vec<f64>) -> BTreeMap<String, f64> {
    let w = &run.windows[0];
    let mut m = BTreeMap::new();
    setups.push(run.setup_s);
    m.insert("setup_s".into(), stats::median(&setups));
    m.insert("peak_rss_mb".into(), host::peak_rss_mb());
    m.insert(
        "cpu_us_per_op".into(),
        per_slice(w, |s| s.cpu_s * 1e6 / s.ops.max(1) as f64),
    );
    m.insert(
        "ops_per_s".into(),
        per_slice(w, |s| s.ops as f64 / s.elapsed_s),
    );
    m.insert("p50_us".into(), latency_us(w, 0));
    m.insert(
        "scrub_lines_per_s".into(),
        per_slice(w, |s| s.scrub_lines as f64 / s.elapsed_s),
    );
    m
}

fn per_layer(
    args: &Args,
    run: &Run,
    fingerprint: &host::Fingerprint,
) -> (BTreeMap<String, f64>, Tally) {
    let layers = layers::measure(args.seed, args.workload.mix());
    let mut m = layers.metrics;
    m.insert("codes.crc31_ns".into(), fingerprint.crc31_ns);
    // Service counters come from the service the workload drove; the
    // campaign drives none, so it reports the ladder's daemon-on service.
    let svc = run.counters.unwrap_or(layers.counters);
    let reads = svc.reads.max(1) as f64;
    m.insert(
        "svc.lockfree_hit_ratio".into(),
        svc.lockfree_hits as f64 / reads,
    );
    m.insert(
        "svc.seqlock_retries_per_read".into(),
        svc.seqlock_retries as f64 / reads,
    );
    m.insert("svc.due_reads".into(), svc.due_reads as f64);
    m.insert("svc.escalations".into(), svc.escalations as f64);
    m.insert("svc.injected_lines".into(), svc.injected_lines as f64);
    m.insert(
        "svc.scrub_floor_clamps".into(),
        svc.scrub_floor_clamps as f64,
    );
    m.insert(
        "svc.scrub_deadline_misses".into(),
        svc.scrub_deadline_misses as f64,
    );
    let window_cpu: f64 = run
        .windows
        .iter()
        .flat_map(|w| &w.slices)
        .map(|s| s.cpu_s)
        .sum();
    m.insert("svc.client_cpu_s".into(), run.client_cpu_s);
    m.insert(
        "svc.service_cpu_s".into(),
        (window_cpu - run.client_cpu_s).max(0.0),
    );
    // No workload drives the wire front end; the ladder's does.
    m.insert("net.retry".into(), layers.counters.net_retry as f64);
    m.insert("net.frames".into(), layers.counters.net_frames as f64);
    m.insert("net.ping_rtt_us".into(), layers.ping_rtt_us);
    let (untraced, traced) = (&run.windows[0], &run.windows[1]);
    let mut paced = layers.paced;
    m.insert("net.paced_p50_us".into(), us(paced.lat.quantile(0.5)));
    m.insert("net.paced_p90_us".into(), us(paced.lat.quantile(0.9)));
    m.insert("bench.gen_late_p50_us".into(), us(paced.late.quantile(0.5)));
    m.insert(
        "bench.gen_late_p99_us".into(),
        us(paced.late.quantile(0.99)),
    );
    m.insert("bench.p90_us".into(), latency_us(untraced, 1));
    m.insert("bench.p99_us".into(), latency_us(untraced, 2));
    m.insert("bench.p999_us".into(), latency_us(untraced, 3));
    m.insert(
        "bench.trace_overhead_frac".into(),
        latency_us(traced, 0) / latency_us(untraced, 0) - 1.0,
    );
    println!("layers {}", layers.tally.describe());
    println!("paced {}", paced.tally.describe());
    let mut tally = layers.tally;
    tally.merge(&paced.tally);
    (m, tally)
}

fn main() {
    let args = match parse_args() {
        Ok(Mode::Bench(args)) => args,
        Ok(Mode::Setups(workload, seed, n)) => {
            for _ in 0..n {
                println!("setup_s {}", setup_once(workload, seed));
            }
            return;
        }
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <1-60> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    start_guard(args.seconds);
    let fingerprint = host::Fingerprint::probe(args.seed);
    let host_json = fingerprint.to_json();
    println!("workload {} seed {}", args.workload.name(), args.seed);
    println!("host {host_json}");
    // Whole slices: `--seconds` split in two halves when traced.
    let slices =
        (Duration::from_secs(args.seconds).as_nanos() / workload::SLICE.as_nanos()) as usize;
    let (metrics, catalog, tally) = if args.trace {
        let half = |traced| WindowSpec {
            slices: slices / 2,
            traced,
        };
        let run = run_workload(&args, &[half(false), half(true)]);
        let (metrics, layer_tally) = per_layer(&args, &run, &fingerprint);
        let path = trace::out_path(args.workload.name(), args.seed);
        match trace::write_spans(&path, &host_json, &run.spans) {
            Ok(()) => println!("spans {} written to {}", run.spans.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        for rung in report::RUNGS {
            println!(
                "ladder {rung:<12} {:>12.1} ns/op  {:>+12.1} ns",
                metrics[&format!("ladder.{rung}_ns")],
                metrics[&format!("ladder.{rung}_inc_ns")]
            );
        }
        let mut tally = run.tally;
        tally.merge(&layer_tally);
        (metrics, report::per_layer(), tally)
    } else {
        let Some(setups) = child_setups(args.workload, args.seed) else {
            eprintln!("the set-up child process failed");
            std::process::exit(2);
        };
        let run = run_workload(
            &args,
            &[WindowSpec {
                slices,
                traced: false,
            }],
        );
        let catalog = END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit))
            .collect();
        (end_to_end(&run, setups), catalog, run.tally)
    };
    println!("ops {}", tally.describe());
    if tally.attempted == 0 {
        eprintln!("no op was attempted");
        std::process::exit(2);
    }
    println!("{}", report::result_line(&tally, &catalog, &metrics));
    if !tally.correct() {
        std::process::exit(1);
    }
}
