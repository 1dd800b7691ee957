//! Characterization test of the two telemetry renderings: a fixed,
//! fully populated [`TelemetrySnapshot`] must render `/snapshot.json`
//! byte for byte as the committed golden, and `/metrics` to the same
//! samples, `# TYPE` and `# HELP` declarations (compared through
//! [`promtext::parse`], so sample order is free).
//!
//! The fixture sets every registry counter, gauge and histogram to a
//! distinct non-zero value, drives a small stuck-bit cache through ECC-1,
//! RAID-4 and sparing so the recovery-ladder and degraded counters move,
//! quarantines one shard, and attaches an audit section (with a spatial
//! verdict) and a heatmap, so every family the exporter can emit appears.
//!
//! Run alone with
//! `cargo test --release -q --offline -p sudoku-svc --test golden_telemetry`.

use std::collections::BTreeSet;
use sudoku_codes::LineData;
use sudoku_core::{Scheme, SudokuConfig};
use sudoku_fault::StuckBitMap;
use sudoku_obs::{AtomicHist, CorrelationStat, Histogram};
use sudoku_svc::promtext;
use sudoku_svc::telemetry::HeatmapSnapshot;
use sudoku_svc::{
    AuditSnapshot, DegradedConfig, ShardedCache, TelemetryRegistry, TelemetrySnapshot,
    TraceOutcome, TracePath, TraceRecord,
};

const GOLDEN_JSON: &str = include_str!("golden/snapshot.json");
const GOLDEN_PROM: &str = include_str!("golden/metrics.prom");

fn data_with(bits: &[usize]) -> LineData {
    let mut d = LineData::zero();
    for &b in bits {
        d.set_bit(b % 512, true);
    }
    d
}

/// A two-shard Scheme-X cache whose stuck cells make lines 2 and 3
/// hopeless, so two DUE reads spare line 2; line 10 takes an ECC-1 fix
/// and line 20 a RAID-4 reconstruction.
fn exercised_cache() -> ShardedCache {
    let mut stuck = StuckBitMap::new();
    for bit in [11u16, 22, 33, 44] {
        stuck.insert(2, bit, true);
        stuck.insert(3, bit, true);
    }
    let degraded = DegradedConfig {
        spare_cap_per_shard: 4,
        strike_threshold: 2,
    };
    let state =
        ShardedCache::with_faults(SudokuConfig::small(Scheme::Y, 64, 16), 2, stuck, degraded)
            .unwrap();
    for line in 0..64u64 {
        state
            .write(line, &data_with(&[line as usize, 100 + line as usize]))
            .unwrap();
    }
    for _ in 0..2 {
        assert!(state.read(2).is_err(), "line 2 is hopeless");
    }
    state.inject_fault(10, 5);
    state.read(10).unwrap();
    state.inject_fault(20, 7);
    state.inject_fault(20, 300);
    state.read(20).unwrap();
    for (line, bits) in [(40, [7, 300]), (41, [9, 310])] {
        for bit in bits {
            state.inject_fault(line, bit);
        }
    }
    state.read(40).unwrap();
    state.write(2, &data_with(&[200])).unwrap();
    state.read(2).unwrap();
    state.health().quarantine(1);
    let _ = state.read(3);
    state
}

/// Every registry counter, gauge and histogram at a distinct non-zero
/// value, plus three retained traces (two sampled, one DUE).
fn loaded_registry() -> TelemetryRegistry {
    let reg = TelemetryRegistry::new(2);
    let counters = [
        &reg.reads,
        &reg.writes,
        &reg.failed_writes,
        &reg.escalated_reads,
        &reg.due_reads,
        &reg.clean_read_lockfree_hits,
        &reg.seqlock_retries,
        &reg.scrub_ticks,
        &reg.skipped_ticks,
        &reg.injected_lines,
        &reg.escalations,
        &reg.escalated_lines,
        &reg.unresolved_lines,
        &reg.scrub_lines_swept,
        &reg.scrub_floor_clamps,
        &reg.net_connections,
        &reg.net_frames,
        &reg.net_sheds,
        &reg.net_malformed,
    ];
    for (i, c) in counters.iter().enumerate() {
        c.add(1000 + 17 * i as u64);
    }
    let gauges = [
        &reg.scrub_cursor,
        &reg.daemon_dead,
        &reg.last_tick_lag_ns,
        &reg.scrub_packet_quota,
        &reg.scrub_floor_quota,
        &reg.net_open_connections,
    ];
    for (i, g) in gauges.iter().enumerate() {
        g.set(1 + 3 * i as u64);
    }
    reg.depth(0).set(4);
    reg.depth(1).set(9);
    let hists: [&AtomicHist; 9] = [
        &reg.read_latency_ns,
        &reg.write_latency_ns,
        &reg.queue_wait_ns,
        &reg.shard_service_ns,
        &reg.h2_gather_ns,
        &reg.scrub_tick_ns,
        &reg.tick_lag_ns,
        &reg.queue_depth_hist,
        &reg.scrub_quota_hist,
    ];
    for (i, h) in hists.iter().enumerate() {
        for k in 0..=i as u64 {
            h.record(37 + 1000 * k + 211 * i as u64);
        }
    }
    for trace in 0..130 {
        let id = reg.next_trace_id();
        if id.is_multiple_of(64) || id == 77 {
            reg.note_request(TraceRecord {
                trace: id,
                shard: (id % 2) as u32,
                write: id == 64,
                path: [TracePath::Lockfree, TracePath::Inline, TracePath::Queued][trace % 3],
                outcome: if id == 77 {
                    TraceOutcome::Due
                } else {
                    TraceOutcome::Ok
                },
                queue_wait_ns: 100 + id,
                service_ns: 2000 + 3 * id,
                h2_ns: if id == 77 { 900 } else { 0 },
            });
        }
    }
    reg
}

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::pow2(40);
    for &v in values {
        h.record(v);
    }
    h
}

fn audit_section() -> AuditSnapshot {
    AuditSnapshot {
        scrub_deadline_ns: 20_000_000,
        packet_lines: 64,
        scrub_deadline_misses: 42,
        per_shard_misses: vec![40, 2],
        per_shard_worst_staleness_ns: vec![25_000_000, 1_500_000],
        achieved_scrub_interval_ns: hist_of(&[900_000, 15_000_000, 33_000_000]),
        observed_ber: 1.25e-5,
        projected_fit: 37.5,
        burn_fast: 2.5,
        burn_slow: f64::INFINITY,
        worst_region: 7,
        worst_region_ber: 3.5e-5,
        worst_region_burn: 4.75,
        spatial: Some(CorrelationStat {
            total: 96,
            mean: 3.0,
            max_cell: 21,
            max_shard: 1,
            max_region: 2,
            z: 10.392,
            dispersion: 6.5,
            fired: true,
        }),
        alerts_total: 11,
        alerts_critical: 3,
        alerts_dropped: 1,
        alerts_by_class: vec![
            ("deadline_miss", 6),
            ("daemon_stuck", 2),
            ("daemon_dead", 3),
        ],
        degraded_reasons: vec!["shard 1 quarantined".to_string()],
    }
}

fn heatmap_section() -> HeatmapSnapshot {
    HeatmapSnapshot {
        n_shards: 2,
        n_regions: 3,
        observed: vec![5, 0, 12, 1, 21, 3],
        due: vec![0, 0, 1, 0, 2, 0],
        staleness: vec![19_000_000, 21_000_000, 0, 1_000, 2_000, 3_000],
    }
}

fn fixture() -> TelemetrySnapshot {
    let state = exercised_cache();
    let reg = loaded_registry();
    let mut snap = TelemetrySnapshot::capture_with_audit(7, &state, &reg, None);
    snap.unix_ms = 0;
    snap.audit = Some(audit_section());
    snap.heatmap = Some(heatmap_section());
    snap
}

type SampleKey = (String, Vec<(String, String)>, u64);

fn samples(text: &promtext::PromText) -> BTreeSet<SampleKey> {
    text.samples
        .iter()
        .map(|s| (s.name.clone(), s.labels.clone(), s.value.to_bits()))
        .collect()
}

#[test]
fn fixture_moves_the_engine_counters() {
    let snap = fixture();
    assert_eq!(snap.quarantined, vec![1]);
    assert!(snap.spare_occupancy.iter().sum::<u64>() >= 1);
    assert!(snap.stats.ecc1_repairs >= 1, "{:?}", snap.stats);
    assert!(snap.stats.raid4_repairs >= 1, "{:?}", snap.stats);
    assert!(snap.degraded.strikes >= 2, "{:?}", snap.degraded);
    assert_eq!(snap.recent_traces.len(), 4);
}

#[test]
fn snapshot_json_matches_golden_bytes() {
    let json = fixture().to_json();
    assert_eq!(json, GOLDEN_JSON.trim_end(), "/snapshot.json drifted");
}

#[test]
fn metrics_match_golden_samples_types_and_helps() {
    let got = promtext::parse(&fixture().to_prometheus()).expect("exposition parses");
    let want = promtext::parse(GOLDEN_PROM).expect("golden parses");
    assert_eq!(got.types, want.types, "# TYPE declarations drifted");
    assert_eq!(got.helps, want.helps, "# HELP declarations drifted");
    let (got_s, want_s) = (samples(&got), samples(&want));
    let missing: Vec<_> = want_s.difference(&got_s).collect();
    let extra: Vec<_> = got_s.difference(&want_s).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "samples drifted\nmissing: {missing:?}\nextra: {extra:?}"
    );
    assert_eq!(
        got.samples.len(),
        want.samples.len(),
        "sample count drifted"
    );
    assert!(got.types.len() >= 70, "fixture covers every family");
    got.check_histograms().unwrap();
}
