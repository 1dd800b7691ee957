//! Host fingerprint and process accounting read from `/proc`.

use std::time::Instant;
use sudoku_codes::{crc31, LineData};

/// Linux reports `/proc/*/stat` CPU times in USER_HZ ticks, fixed at 100.
const TICKS_PER_S: f64 = 100.0;

/// Which machine a result came from, so results from different hosts are
/// never compared silently.
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// In-run calibration: ns per CRC-31 of one dense 512-bit line.
    pub crc31_ns: f64,
}

impl Fingerprint {
    /// Probes the host and runs the calibration kernel.
    pub fn probe(seed: u64) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            crc31_ns: crc31_ns(seed),
        }
    }

    /// The fingerprint as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"crc31_ns\": {}}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], "_"),
            self.crc31_ns
        )
    }
}

/// Median ns per `checksum_line` over five timed blocks of dense lines.
pub fn crc31_ns(seed: u64) -> f64 {
    let lines: Vec<LineData> = (0..64).map(|i| crate::dense_line(seed, i)).collect();
    let engine = crc31();
    let blocks: Vec<f64> = (0..5)
        .map(|_| {
            const ITERS: usize = 40_000;
            let start = Instant::now();
            let mut acc = 0u64;
            for i in 0..ITERS {
                acc ^= engine.checksum_line(std::hint::black_box(&lines[i % lines.len()]));
            }
            std::hint::black_box(acc);
            start.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    crate::stats::median(&blocks)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

fn status_kb(key: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU seconds (user + system) consumed by every thread of this process,
/// live or exited.
pub fn process_cpu_s() -> f64 {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = text.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// CPU seconds the calling thread has run, at nanosecond resolution.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}
