//! Fixed-seed goldens for the fault-plan RNG stream.
//!
//! Every Monte-Carlo result is a function of the stream `cache_plan` and
//! `resolved_plan` draw from, so any change to the samplers (hoisting set-up
//! out of a loop, swapping a hasher) must leave these digests unchanged. The
//! expected values were captured before those samplers were last optimized.

use sudoku_fault::FaultInjector;

/// FNV-1a over a stream of `u64`s.
fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(faulty lines, fault bits, digest)` of `rounds` consecutive plans.
fn plan_golden(ber: f64, n_lines: u64, seed: u64, rounds: usize) -> (usize, u64, u64) {
    let mut injector = FaultInjector::new(ber, seed);
    let plans: Vec<_> = (0..rounds).map(|_| injector.cache_plan(n_lines)).collect();
    let lines = plans.iter().map(Vec::len).sum();
    let bits = plans.iter().flatten().map(|lf| u64::from(lf.faults)).sum();
    let digest = fnv(plans
        .iter()
        .flatten()
        .flat_map(|lf| [lf.line, u64::from(lf.faults)]));
    (lines, bits, digest)
}

/// `(faulty lines, fault bits, digest)` of `rounds` consecutive resolved
/// plans, positions included.
fn resolved_golden(ber: f64, n_lines: u64, seed: u64, rounds: usize) -> (usize, u64, u64) {
    let mut injector = FaultInjector::new(ber, seed);
    let plans: Vec<_> = (0..rounds)
        .map(|_| injector.resolved_plan(n_lines))
        .collect();
    let lines = plans.iter().map(Vec::len).sum();
    let bits = plans
        .iter()
        .flatten()
        .map(|(_, positions)| positions.len() as u64)
        .sum();
    let digest = fnv(plans.iter().flatten().flat_map(|(line, positions)| {
        std::iter::once(*line)
            .chain(std::iter::once(positions.len() as u64))
            .chain(positions.iter().map(|&p| p as u64))
    }));
    (lines, bits, digest)
}

#[test]
fn cache_plan_stream_matches_golden() {
    // Paper default: ~3k faulty lines, the hashed sparse `choose_distinct`.
    let paper = plan_golden(5.3e-6, 1 << 20, 42, 4);
    // A handful of faulty lines: the linear-scan sparse path.
    let few = plan_golden(2e-5, 1 << 10, 7, 16);
    // Most lines faulty: the dense Fisher-Yates path.
    let dense = plan_golden(2e-3, 512, 3, 4);
    assert_eq!(paper, (12_279, 12_300, 14_077_535_612_677_388_823));
    assert_eq!(few, (173, 174, 11_494_736_382_344_949_765));
    assert_eq!(dense, (1_357, 2_295, 6_676_417_613_328_500_335));
}

#[test]
fn resolved_plan_stream_matches_golden() {
    let paper = resolved_golden(5.3e-6, 1 << 20, 99, 2);
    // High BER: multi-bit lines, including positions drawn by the hashed
    // and dense paths of `choose_distinct`.
    let heavy = resolved_golden(0.05, 64, 5, 2);
    assert_eq!(paper, (6_086, 6_095, 13_155_075_841_983_432_112));
    assert_eq!(heavy, (128, 3_608, 9_932_138_463_045_332_377));
}
