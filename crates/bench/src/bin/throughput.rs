//! Campaign-throughput benchmark: runs the paper-default interval campaign
//! and reports trials/sec plus kernel micro-timings.
//!
//! ```text
//! cargo run --release -p sudoku-bench --bin throughput -- --trials 64
//! cargo run --release -p sudoku-bench --bin throughput -- --trials 64 --json
//! cargo run --release -p sudoku-bench --bin throughput -- --json --check-baseline
//! cargo run --release -p sudoku-bench --bin throughput -- \
//!     --events events.jsonl --metrics-json telemetry.json
//! ```
//!
//! `--json` additionally writes `BENCH_kernels.json` to the current
//! directory, a machine-readable record for tracking kernel performance
//! across revisions; with `--check-baseline`, the run first reads the
//! committed `BENCH_kernels.json` and exits non-zero if the new
//! trials/sec regressed more than 20 % against it.
//!
//! The headline number always comes from a telemetry-disabled campaign, so
//! it is comparable across revisions; `--events`/`--metrics-json` trigger
//! an *additional* observed campaign whose event log and histogram/phase
//! metrics go to the given paths.

use std::hint::black_box;
use std::time::Instant;
use sudoku_bench::{flag, git_rev, header, Args, Baseline};
use sudoku_codes::{CrcEngine, LineData, CRC31};
use sudoku_core::Scheme;
use sudoku_reliability::montecarlo::{
    run_interval_campaign_observed, run_interval_campaign_timed, McConfig,
};

/// Nanoseconds per `checksum_line` call on a dense pseudo-random line.
fn measure_ns_per_crc() -> f64 {
    let engine = CrcEngine::new(CRC31);
    let mut words = [0u64; 8];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for w in words.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *w = x;
    }
    let line = LineData::from_words(words);
    const ITERS: u32 = 200_000;
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..ITERS {
        acc ^= engine.checksum_line(black_box(&line));
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

fn main() {
    let args = Args::parse(64, 0);
    header("Campaign throughput (paper-default config)");
    // Read the committed baseline up front: `--json` overwrites the file.
    let baseline = Baseline::read("BENCH_kernels.json", "trials_per_sec");

    let cfg = McConfig::paper_default(Scheme::Z, args.trials, args.seed);
    let (summary, report) = run_interval_campaign_timed(&cfg);
    let elapsed = summary.trials as f64 / report.trials_per_sec;
    println!(
        "trials = {}, elapsed = {:.3} s, trials/sec = {:.2}",
        summary.trials, elapsed, report.trials_per_sec
    );
    println!(
        "due_intervals = {}, faulty_bits = {}, multibit_lines = {}",
        summary.due_intervals, summary.faulty_bits, summary.multibit_lines
    );
    report.println("campaign");

    let ns_per_crc = measure_ns_per_crc();
    // Campaign-amortized cost per scrubbed line (injection + scrub + reset).
    let ns_per_scrub_line = elapsed * 1e9 / report.lines_scrubbed.max(1) as f64;
    println!("ns/CRC (dense line) = {ns_per_crc:.2}, ns/scrubbed line = {ns_per_scrub_line:.2}");

    // An extra, observed campaign when telemetry outputs were requested —
    // the headline above stays untouched by recording costs.
    let observed = args.observe().enabled().then(|| {
        let (obs_summary, obs_report, telemetry) =
            run_interval_campaign_observed(&cfg, args.observe());
        assert_eq!(obs_summary, summary, "telemetry must not perturb results");
        println!("\nobserved re-run (telemetry on):");
        obs_report.println("observed");
        println!("{}", telemetry.phases.render());
        args.write_telemetry(None, &telemetry);
        telemetry
    });

    if flag("--json") {
        let mut obj = sudoku_obs::json::JsonObject::new();
        obj.field_str("name", "interval_campaign_paper_default")
            .field_f64("trials_per_sec", report.trials_per_sec)
            .field_f64("ns_per_crc", ns_per_crc)
            .field_f64("ns_per_scrub_line", ns_per_scrub_line)
            .field_u64("seed", args.seed)
            .field_str("git_rev", &git_rev())
            .field_raw("campaign", &report.to_json());
        if let Some(telemetry) = &observed {
            obj.field_raw("phases", &telemetry.phases.to_json());
        }
        let json = obj.finish() + "\n";
        std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
        println!("wrote BENCH_kernels.json");
    }

    baseline.check(report.trials_per_sec, "trials/sec");
}
