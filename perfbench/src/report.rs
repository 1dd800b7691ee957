//! Failure accounting, the metric catalog, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics a user of the system sees, reported by every untraced run:
/// `(name, unit)`. `BENCHMARK.json` lists the same names with their
/// bounds (checked by a test).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_us_per_op", "us"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("scrub_lines_per_s", "1/s"),
];

/// Ladder rungs, outermost last; each adds one layer to the one below.
pub const RUNGS: &[&str] = &[
    "codes",
    "core",
    "svc_session",
    "svc_view",
    "handle_off",
    "handle_on",
    "wire_w1",
    "wire_pipe",
];

/// Single-layer metrics, reported by every traced run: `(name, unit)`.
/// The ladder's `ladder.<rung>_ns` / `ladder.<rung>_inc_ns` pairs are
/// appended by [`per_layer`].
const LAYER_METRICS: &[(&str, &str)] = &[
    ("codes.crc31_ns", "ns"),
    ("codes.encode_ns", "ns"),
    ("codes.read_check_clean_ns", "ns"),
    ("codes.ecc1_fix_ns", "ns"),
    ("fault.plan_ns_per_faulty_line", "ns"),
    ("core.write_ns", "ns"),
    ("core.read_clean_ns", "ns"),
    ("core.scrub_clean_ns_per_line", "ns"),
    ("core.scrub_faulty_ns_per_line", "ns"),
    ("reliability.inject_ms_per_trial", "ms"),
    ("reliability.scrub_ms_per_trial", "ms"),
    ("reliability.reset_ms_per_trial", "ms"),
    ("reliability.lines_scrubbed_per_trial", "count"),
    ("reliability.crc_checks_per_trial", "count"),
    ("svc.session_read_ns", "ns"),
    ("svc.session_write_ns", "ns"),
    ("svc.view_read_ns", "ns"),
    ("svc.handle_read_ns", "ns"),
    ("svc.handle_write_ns", "ns"),
    ("svc.lockfree_hit_ratio", "ratio"),
    ("svc.seqlock_retries_per_read", "ratio"),
    ("svc.due_reads", "count"),
    ("svc.escalations", "count"),
    ("svc.injected_lines", "count"),
    ("svc.scrub_floor_clamps", "count"),
    ("svc.scrub_deadline_misses", "count"),
    ("svc.client_cpu_s", "s"),
    ("svc.service_cpu_s", "s"),
    ("net.encode_put_ns", "ns"),
    ("net.decode_request_ns", "ns"),
    ("net.decode_response_ns", "ns"),
    ("net.ping_rtt_us", "us"),
    ("net.paced_p50_us", "us"),
    ("net.paced_p90_us", "us"),
    ("net.retry", "count"),
    ("net.frames", "count"),
    ("obs.hist_record_ns", "ns"),
    ("bench.gen_late_p50_us", "us"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.p90_us", "us"),
    ("bench.p99_us", "us"),
    ("bench.p999_us", "us"),
];

/// Every per-layer metric, ladder rungs included: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for rung in RUNGS {
        all.push((format!("ladder.{rung}_ns"), "ns"));
        all.push((format!("ladder.{rung}_inc_ns"), "ns"));
    }
    all
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Per-run operation accounting. Every attempted op lands in exactly one
/// bucket: served correctly, or one of the failure kinds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops (or trials) attempted.
    pub attempted: u64,
    /// Reads that returned a detected uncorrectable error.
    pub due: u64,
    /// Ops refused in process (quarantined shard, shutting down).
    pub shed: u64,
    /// Wire requests shed with RETRY.
    pub retry: u64,
    /// Wire requests refused with SHARD_DOWN or SHUTTING_DOWN.
    pub shard_down: u64,
    /// Malformed frames, mismatched response IDs, or broken connections.
    pub malformed: u64,
    /// Reads whose data differed from the golden copy.
    pub sdc: u64,
    /// Paced requests sent before they were due or answered faster than
    /// an idle round trip — a pacing bug in the generator.
    pub early: u64,
    /// Interval-campaign trials or checks that failed.
    pub campaign: u64,
}

impl Tally {
    /// Ops that did not complete correctly.
    pub fn failed(&self) -> u64 {
        self.due
            + self.shed
            + self.retry
            + self.shard_down
            + self.malformed
            + self.sdc
            + self.early
            + self.campaign
    }

    /// Whether every output was right: no corruption, no protocol
    /// violation, no pacing violation, no failed campaign check. Refused
    /// or DUE ops are failures but not wrong outputs.
    pub fn correct(&self) -> bool {
        self.sdc == 0 && self.malformed == 0 && self.early == 0 && self.campaign == 0
    }

    /// Adds `other`'s counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.due += other.due;
        self.shed += other.shed;
        self.retry += other.retry;
        self.shard_down += other.shard_down;
        self.malformed += other.malformed;
        self.sdc += other.sdc;
        self.early += other.early;
        self.campaign += other.campaign;
    }

    /// One line naming every non-zero failure kind.
    pub fn describe(&self) -> String {
        format!(
            "attempted={} due={} shed={} retry={} shard_down={} malformed={} sdc={} early={} campaign={}",
            self.attempted,
            self.due,
            self.shed,
            self.retry,
            self.shard_down,
            self.malformed,
            self.sdc,
            self.early,
            self.campaign
        )
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with each metric of `catalog` taken from `values`.
///
/// # Panics
///
/// When a catalog metric is missing or not finite — a bug in the
/// benchmark, not in the program under test.
pub fn result_line(
    tally: &Tally,
    catalog: &[(String, &str)],
    values: &BTreeMap<String, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted,
        tally.failed()
    );
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let value = values
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            valid_name(name) && valid_unit(unit),
            "bad metric {name} [{unit}]"
        );
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end() -> Vec<(String, &'static str)> {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let mut all = end_to_end();
        all.extend(per_layer());
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn name_rules_reject_what_the_contract_forbids() {
        assert!(valid_name("svc.view_read_ns"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("micro seconds"));
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
        for (name, _) in end_to_end().iter().chain(per_layer().iter()) {
            assert!(listed(name), "{name} missing from BENCHMARK.json");
        }
        let entries = text.matches("\"name\": ").count();
        let workloads = crate::workload::Workload::ALL.len();
        assert_eq!(entries, END_TO_END.len() + per_layer().len() + workloads);
        for w in crate::workload::Workload::ALL {
            assert!(valid_name(w.name()) && listed(w.name()), "{}", w.name());
        }
    }

    #[test]
    fn failures_are_counted_once_and_only_wrong_outputs_are_incorrect() {
        let mut t = Tally {
            attempted: 100,
            due: 1,
            retry: 2,
            shard_down: 3,
            shed: 4,
            ..Tally::default()
        };
        assert_eq!(t.failed(), 10);
        assert!(
            t.correct(),
            "refusals and DUEs are failures, not wrong outputs"
        );
        let wrong = Tally {
            attempted: 5,
            sdc: 1,
            ..Tally::default()
        };
        t.merge(&wrong);
        assert_eq!(t.attempted, 105);
        assert_eq!(t.failed(), 11);
        assert!(!t.correct());
        for bad in [
            Tally {
                malformed: 1,
                ..Tally::default()
            },
            Tally {
                early: 1,
                ..Tally::default()
            },
            Tally {
                campaign: 1,
                ..Tally::default()
            },
        ] {
            assert!(!bad.correct());
            assert_eq!(bad.failed(), 1);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let catalog = vec![("a_s".to_string(), "s"), ("b".to_string(), "count")];
        let mut values = BTreeMap::new();
        values.insert("a_s".to_string(), 0.25);
        values.insert("b".to_string(), 3.0);
        values.insert("unlisted".to_string(), 9.0);
        let t = Tally {
            attempted: 1,
            ..Tally::default()
        };
        assert_eq!(
            result_line(&t, &catalog, &values),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }
}
