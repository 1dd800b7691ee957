//! # sudoku-sttram
//!
//! A full reproduction of **SuDoku: Tolerating High-Rate of Transient
//! Failures for Enabling Scalable STTRAM** (Nair, Asgari, Qureshi —
//! DSN 2019), as a Rust workspace:
//!
//! * [`codes`] — CRC-31, Hamming SEC (ECC-1), GF(2^m)/BCH (ECC-2…6,
//!   Hi-ECC), and RAID-4 parity;
//! * [`fault`] — the STTRAM thermal retention-failure model, seeded fault
//!   injection, scrub scheduling, permanent faults;
//! * [`core`] — the SuDoku cache itself: PLTs, skewed hashes, RAID-4,
//!   Sequential Data Resurrection, cross-hash recovery, plus the CPPC /
//!   RAID-6 / Hi-ECC / uniform-ECC baselines;
//! * [`reliability`] — analytic FIT/MTTF models and Monte-Carlo campaigns
//!   over the real engines;
//! * [`sim`] — the trace-driven performance and energy simulator behind
//!   Figures 8 and 9;
//! * [`obs`] — recovery-event telemetry: the escalation-chain event log,
//!   allocation-free histograms, phase spans, and forensic replay;
//! * [`svc`] — the concurrent sharded cache service: Hash-1-sharded
//!   storage behind per-shard claimed queues, a background scrub daemon,
//!   cross-shard Hash-2 escalation, and a load generator.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! per-table/figure reproduction record. The `sudoku-bench` crate
//! regenerates every table and figure (`cargo run -p sudoku-bench --bin
//! repro`).
//!
//! # Quick start
//!
//! ```
//! use sudoku_sttram::core::{Scheme, SudokuCache, SudokuConfig};
//! use sudoku_sttram::codes::LineData;
//!
//! let mut cache = SudokuCache::new(SudokuConfig::small(Scheme::Z, 256, 16))?;
//! let mut data = LineData::zero();
//! data.set_bit(7, true);
//! cache.write(3, &data);
//! for bit in [10, 20, 30] {
//!     cache.inject_fault(3, bit); // a 3-bit transient burst
//! }
//! assert_eq!(cache.read(3)?, data);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use sudoku_codes as codes;
pub use sudoku_core as core;
pub use sudoku_fault as fault;
pub use sudoku_obs as obs;
pub use sudoku_reliability as reliability;
pub use sudoku_sim as sim;
pub use sudoku_svc as svc;
