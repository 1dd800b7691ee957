//! Fixed-seed campaign goldens: the paper-default SuDoku-Z interval
//! campaign must reproduce these counts bit for bit. Any change to the
//! codec kernels, the fault samplers or the scrub fast paths that alters
//! an outcome, a repair or a counted CRC check shows up here.

use sudoku_core::Scheme;
use sudoku_reliability::montecarlo::{run_interval_campaign_timed, CampaignSummary, McConfig};

fn paper_campaign(ber: f64, trials: u64) -> (CampaignSummary, u64, u64) {
    let cfg = McConfig {
        ber,
        threads: 2,
        ..McConfig::paper_default(Scheme::Z, trials, 99)
    };
    let (summary, report) = run_interval_campaign_timed(&cfg);
    (summary, report.lines_scrubbed, report.crc_checks)
}

#[test]
fn paper_default_campaign_matches_golden() {
    let expected = CampaignSummary {
        trials: 512,
        due_intervals: 0,
        sdc_intervals: 0,
        faulty_bits: 1_573_826,
        multibit_lines: 2_294,
        raid4_repairs: 2_294,
        sdr_repairs: 0,
        hash2_repairs: 0,
    };
    assert_eq!(
        paper_campaign(5.3e-6, 512),
        (expected, 1_571_528, 1_576_116)
    );
}

#[test]
fn high_ber_campaign_matches_golden() {
    // Enough faults that SDR and Hash-2 both repair lines.
    let expected = CampaignSummary {
        trials: 48,
        due_intervals: 0,
        sdc_intervals: 0,
        faulty_bits: 1_112_410,
        multibit_lines: 12_142,
        raid4_repairs: 11_451,
        sdr_repairs: 691,
        hash2_repairs: 11,
    };
    assert_eq!(paper_campaign(4e-5, 48), (expected, 1_100_173, 1_124_966));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about 90 s unoptimized; runs under `cargo test --release`"
)]
fn high_ber_full_campaign_matches_golden() {
    let expected = CampaignSummary {
        trials: 512,
        due_intervals: 0,
        sdc_intervals: 0,
        faulty_bits: 11_876_126,
        multibit_lines: 128_878,
        raid4_repairs: 121_513,
        sdr_repairs: 7_365,
        hash2_repairs: 58,
    };
    assert_eq!(
        paper_campaign(4e-5, 512),
        (expected, 11_746_269, 12_009_368)
    );
}
