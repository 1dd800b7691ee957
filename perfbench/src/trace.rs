//! Spans recorded by the benchmark around its calls into a layer.
//!
//! A span is kept in memory while the traced window runs and written out
//! once the run ends, as CSV with one span per line. The trace ID is the
//! one the service returned for the request (`read_traced`,
//! `write_traced`, or the wire response), so these spans can be joined
//! with spans recorded inside the program.

use std::io::Write;
use std::path::{Path, PathBuf};

/// Spans kept per recording thread; later ones are counted, not kept.
pub const SPANS_PER_THREAD: usize = 1 << 17;

/// Which call a span wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `ServiceHandle::read_traced`.
    Read,
    /// `ServiceHandle::write_traced`.
    Write,
    /// One `run_interval_campaign` call.
    Campaign,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Campaign => "campaign",
        }
    }
}

/// One call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Service trace ID (`u64::MAX` when the call has none).
    pub trace: u64,
}

/// A bounded per-thread span buffer.
#[derive(Default)]
pub struct SpanBuf {
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanBuf {
    /// Keeps `span` if there is room.
    #[inline]
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < SPANS_PER_THREAD {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

/// Where a traced run writes its spans, relative to the working directory.
pub fn out_path(workload: &str, seed: u64) -> PathBuf {
    Path::new("perfbench/out").join(format!("spans-{workload}-{seed}.csv"))
}

/// Writes `spans` as CSV under a header line holding `host`.
///
/// # Errors
///
/// The file system error, verbatim.
pub fn write_spans(path: &Path, host: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# host {host}")?;
    writeln!(out, "kind,start_ns,end_ns,trace")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{}",
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            s.trace
        )?;
    }
    out.flush()
}
