//! The interval-campaign workload (`mc_interval`): the paper-default
//! SuDoku-Z campaign (2^20 lines, groups of 512, BER 5.3e-6) run through
//! `run_interval_campaign_timed` on two threads, in calls of
//! [`TRIALS_PER_CALL`] trials with consecutive trial seeds.

use crate::host::{process_cpu_s, thread_cpu_s};
use crate::report::Tally;
use crate::stats::Samples;
use crate::trace::{Kind, Span, SpanBuf};
use crate::workload::{Run, Slice, Window, WindowSpec, SLICE};
use std::time::Instant;
use sudoku_codes::TOTAL_BITS;
use sudoku_core::{Scheme, SudokuCache, SudokuConfig};
use sudoku_reliability::montecarlo::{run_interval_campaign_timed, McConfig};

/// Trials per campaign call.
pub const TRIALS_PER_CALL: u64 = 128;
/// Campaign calls per measurement slice.
const CALLS_PER_SLICE: usize = 4;
/// Campaign worker threads, set explicitly rather than taken from nproc.
pub const THREADS: usize = 2;

/// The paper-default campaign configuration for `trials` trials.
pub fn config(trials: u64, seed: u64) -> McConfig {
    McConfig {
        threads: THREADS,
        ..McConfig::paper_default(Scheme::Z, trials, seed)
    }
}

/// The cache configuration the campaign builds its arenas from.
pub fn cache_config(cfg: &McConfig) -> SudokuConfig {
    SudokuConfig {
        scrub: cfg.scrub,
        ..SudokuConfig::small(cfg.scheme, cfg.lines, cfg.group)
    }
}

/// The campaign's set-up: the per-thread arenas it builds before its
/// first trial, and one warm-up call.
pub fn setup(seed: u64) {
    let base = config(TRIALS_PER_CALL, seed);
    let arenas: Vec<_> = (0..THREADS)
        .map(|_| SudokuCache::new_sparse(cache_config(&base)).expect("valid config"))
        .collect();
    std::hint::black_box(arenas);
    let warm = config(TRIALS_PER_CALL, seed.wrapping_sub(TRIALS_PER_CALL));
    std::hint::black_box(run_interval_campaign_timed(&warm));
}

/// Runs the workload for `windows`.
pub fn run(seed: u64, windows: &[WindowSpec]) -> Run {
    let base = config(TRIALS_PER_CALL, seed);
    let ((), setup_s) = crate::workload::timed(|| setup(seed));
    let mut run = Run {
        setup_s,
        windows: Vec::new(),
        tally: Tally::default(),
        counters: None,
        client_cpu_s: 0.0,
        spans: Vec::new(),
    };
    let epoch = Instant::now();
    let cpu0 = thread_cpu_s();
    let mut spans = SpanBuf::default();
    let mut next_seed = seed;
    let mut faulty_bits = 0u64;
    let mut trials = 0u64;
    // A campaign call is a fifth of a slice, so slices here are groups of
    // calls rather than fixed time spans, and the latency quantiles are
    // taken over the window's calls.
    for spec in windows {
        let duration = SLICE * spec.slices as u32;
        let mut slices = Vec::new();
        let mut lat = Samples::default();
        let start = Instant::now();
        while start.elapsed() < duration {
            let mut w = Slice::default();
            let cpu_start = process_cpu_s();
            let group_start = Instant::now();
            for _ in 0..CALLS_PER_SLICE {
                let cfg = McConfig {
                    seed: next_seed,
                    ..base
                };
                next_seed = next_seed.wrapping_add(TRIALS_PER_CALL);
                let t0 = Instant::now();
                let (summary, report) = run_interval_campaign_timed(&cfg);
                let t1 = Instant::now();
                let call_ns = (t1 - t0).as_nanos() as u64;
                // A trial's share of the call on one worker thread.
                lat.record(call_ns * THREADS as u64 / summary.trials.max(1));
                w.ops += summary.trials;
                w.scrub_lines += report.lines_scrubbed;
                faulty_bits += summary.faulty_bits;
                trials += summary.trials;
                run.tally.attempted += summary.trials;
                run.tally.campaign += summary.due_intervals + summary.sdc_intervals;
                if summary.trials != TRIALS_PER_CALL {
                    run.tally.campaign += 1;
                }
                if spec.traced {
                    spans.push(Span {
                        kind: Kind::Campaign,
                        start_ns: (t0 - epoch).as_nanos() as u64,
                        end_ns: (t1 - epoch).as_nanos() as u64,
                        trace: u64::MAX,
                    });
                }
            }
            w.elapsed_s = group_start.elapsed().as_secs_f64();
            w.cpu_s = process_cpu_s() - cpu_start;
            slices.push(w);
        }
        run.windows.push(Window {
            slices,
            quantiles: lat.quantiles().into_iter().collect(),
        });
    }
    if !fault_count_plausible(faulty_bits, trials, base.lines, base.ber) {
        eprintln!("injected {faulty_bits} bits in {trials} trials: outside 5 sigma of binomial");
        run.tally.campaign += 1;
    }
    run.client_cpu_s = thread_cpu_s() - cpu0;
    run.spans = spans.spans;
    run
}

/// Whether `faulty_bits` injected over `trials` intervals of `lines`
/// lines at `ber` lies within 5σ of the binomial expectation.
pub fn fault_count_plausible(faulty_bits: u64, trials: u64, lines: u64, ber: f64) -> bool {
    let n = trials as f64 * lines as f64 * TOTAL_BITS as f64;
    let mean = n * ber;
    let sigma = (n * ber * (1.0 - ber)).sqrt();
    (faulty_bits as f64 - mean).abs() <= 5.0 * sigma
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_check_accepts_the_mean_and_rejects_far_tails() {
        let lines = 1 << 20;
        let ber = 5.3e-6;
        let mean = (lines as f64 * TOTAL_BITS as f64 * ber) as u64;
        assert!(fault_count_plausible(mean * 100, 100, lines, ber));
        let sigma = (100.0 * lines as f64 * TOTAL_BITS as f64 * ber).sqrt();
        let off = (4.9 * sigma) as u64;
        assert!(fault_count_plausible(mean * 100 + off, 100, lines, ber));
        let off = (5.1 * sigma) as u64;
        assert!(!fault_count_plausible(mean * 100 - off, 100, lines, ber));
        assert!(!fault_count_plausible(0, 100, lines, ber));
    }
}
