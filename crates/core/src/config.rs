//! Configuration of a SuDoku-protected cache.

use serde::{Deserialize, Serialize};
use std::fmt;
use sudoku_codes::{CRC_BITS, DATA_BITS, ECC_BITS, TOTAL_BITS};
use sudoku_fault::ScrubSchedule;

/// Which SuDoku variant is active (paper §III–§V).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// SuDoku-X: ECC-1 + CRC-31 per line, RAID-4 parity per group.
    X,
    /// SuDoku-Y: X plus Sequential Data Resurrection.
    Y,
    /// SuDoku-Z: Y plus a second, skewed hash with its own parity table.
    Z,
}

impl Scheme {
    /// Whether Sequential Data Resurrection is enabled.
    pub fn sdr_enabled(&self) -> bool {
        !matches!(self, Scheme::X)
    }

    /// Whether the second (skewed) hash dimension is enabled.
    pub fn second_hash_enabled(&self) -> bool {
        matches!(self, Scheme::Z)
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheme::X => write!(f, "SuDoku-X"),
            Scheme::Y => write!(f, "SuDoku-Y"),
            Scheme::Z => write!(f, "SuDoku-Z"),
        }
    }
}

/// Physical shape of the protected cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total data capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes (64 in the paper).
    pub line_bytes: u32,
    /// Associativity (8 in the paper; only the performance model cares).
    pub ways: u32,
}

impl CacheGeometry {
    /// The paper's 64 MB, 8-way, 64-byte-line LLC (Table VI).
    pub fn paper_default() -> Self {
        CacheGeometry {
            capacity_bytes: 64 * 1024 * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// A geometry with the given number of 64-byte lines (for tests and
    /// scaled experiments).
    pub fn with_lines(lines: u64) -> Self {
        CacheGeometry {
            capacity_bytes: lines * 64,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// Number of cache lines.
    pub fn lines(&self) -> u64 {
        self.capacity_bytes / self.line_bytes as u64
    }
}

/// Errors validating a [`SudokuConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfigError {
    /// The RAID-Group size must be a power of two of at least 2 lines.
    BadGroupSize(u32),
    /// The line count must be a positive multiple of the group size.
    LinesNotMultipleOfGroup {
        /// Configured number of lines.
        lines: u64,
        /// Configured group size.
        group: u32,
    },
    /// SuDoku-Z's disjointness guarantee needs `lines` to be a multiple of
    /// `group²` (so the second hash can permute whole group squares).
    LinesNotMultipleOfGroupSquare {
        /// Configured number of lines.
        lines: u64,
        /// Configured group size.
        group: u32,
    },
    /// A shard plan needs at least one shard and no more shards than
    /// Hash-1 RAID-Groups (each shard must own at least one whole group).
    BadShardCount {
        /// Requested shard count.
        shards: usize,
        /// Available Hash-1 groups.
        groups: u64,
    },
    /// The geometry has more lines than a sharded cache's line array holds.
    TooManyLines {
        /// Configured number of lines.
        lines: u64,
        /// Largest supported number of lines.
        max: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadGroupSize(g) => {
                write!(f, "group size {g} is not a power of two >= 2")
            }
            ConfigError::LinesNotMultipleOfGroup { lines, group } => {
                write!(
                    f,
                    "{lines} lines is not a positive multiple of group {group}"
                )
            }
            ConfigError::LinesNotMultipleOfGroupSquare { lines, group } => {
                write!(
                    f,
                    "{lines} lines is not a positive multiple of group² = {}",
                    (*group as u64) * (*group as u64)
                )
            }
            ConfigError::BadShardCount { shards, groups } => {
                write!(
                    f,
                    "{shards} shards cannot partition {groups} Hash-1 groups \
                     (need 1 <= shards <= groups)"
                )
            }
            ConfigError::TooManyLines { lines, max } => {
                write!(
                    f,
                    "{lines} lines exceeds the sharded cache's {max}-line limit"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of a SuDoku cache.
///
/// # Examples
///
/// ```
/// use sudoku_core::{Scheme, SudokuConfig};
///
/// let cfg = SudokuConfig::paper_default(Scheme::Z);
/// assert_eq!(cfg.geometry.lines(), 1 << 20);
/// assert_eq!(cfg.n_groups(), 2048);
/// // §VII-H: 43 bits of overhead per line for SuDoku-Z vs 60 for ECC-6.
/// assert_eq!(cfg.storage_overhead_bits_per_line().round() as u32, 43);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SudokuConfig {
    /// Cache shape.
    pub geometry: CacheGeometry,
    /// Active SuDoku variant.
    pub scheme: Scheme,
    /// Lines per RAID-Group (512 in the paper, §III-D).
    pub group_lines: u32,
    /// SDR gives up beyond this many parity-mismatch positions
    /// (6 in the paper, §IV-C).
    pub max_sdr_mismatches: u32,
    /// Extension beyond the paper: when single-flip SDR stalls, also try
    /// flipping *pairs* of mismatch positions before giving up. Rescues
    /// lines with t+2 faults (e.g. two 3-fault lines under ECC-1) at the
    /// cost of O(mismatches²) extra trials. Off in the paper's design.
    pub sdr_pair_trials: bool,
    /// Defer Hash-2 recovery to an external coordinator: the Hash-2 PLT is
    /// still maintained on writes, but this cache's own recovery ladder
    /// stops after Hash-1 (SDR included) and reports the leftovers as
    /// unresolved. A sharded service sets this on its per-shard caches —
    /// Hash-2 groups span shards, so their recovery runs in the cross-shard
    /// coordinator instead.
    pub defer_hash2: bool,
    /// Scrub schedule.
    pub scrub: ScrubSchedule,
}

impl SudokuConfig {
    /// The paper's default configuration: 64 MB cache, 512-line groups,
    /// ≤6 SDR mismatch positions, 20 ms scrub.
    pub fn paper_default(scheme: Scheme) -> Self {
        SudokuConfig {
            geometry: CacheGeometry::paper_default(),
            scheme,
            group_lines: 512,
            max_sdr_mismatches: 6,
            sdr_pair_trials: false,
            defer_hash2: false,
            scrub: ScrubSchedule::paper_default(),
        }
    }

    /// A small configuration for tests and examples: `lines` cache lines in
    /// groups of `group_lines`.
    pub fn small(scheme: Scheme, lines: u64, group_lines: u32) -> Self {
        SudokuConfig {
            geometry: CacheGeometry::with_lines(lines),
            scheme,
            group_lines,
            max_sdr_mismatches: 6,
            sdr_pair_trials: false,
            defer_hash2: false,
            scrub: ScrubSchedule::paper_default(),
        }
    }

    /// Enables the pair-flip SDR extension (see
    /// [`SudokuConfig::sdr_pair_trials`]).
    pub fn with_pair_sdr(mut self) -> Self {
        self.sdr_pair_trials = true;
        self
    }

    /// Defers Hash-2 recovery to an external coordinator (see
    /// [`SudokuConfig::defer_hash2`]).
    pub fn with_deferred_hash2(mut self) -> Self {
        self.defer_hash2 = true;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        let g = self.group_lines;
        if g < 2 || !g.is_power_of_two() {
            return Err(ConfigError::BadGroupSize(g));
        }
        let lines = self.geometry.lines();
        if lines == 0 || !lines.is_multiple_of(g as u64) {
            return Err(ConfigError::LinesNotMultipleOfGroup { lines, group: g });
        }
        if self.scheme.second_hash_enabled() {
            let sq = g as u64 * g as u64;
            if !lines.is_multiple_of(sq) {
                return Err(ConfigError::LinesNotMultipleOfGroupSquare { lines, group: g });
            }
        }
        Ok(())
    }

    /// Number of RAID-Groups per hash dimension.
    pub fn n_groups(&self) -> u64 {
        self.geometry.lines() / self.group_lines as u64
    }

    /// Total metadata overhead in bits per cache line: ECC-1 (10) + CRC-31
    /// (31) + the amortized parity-line storage of each enabled PLT.
    ///
    /// Matches the paper's §VII-H accounting: 43 bits/line for SuDoku-Z
    /// versus 60 bits/line for ECC-6.
    pub fn storage_overhead_bits_per_line(&self) -> f64 {
        let plts = if self.scheme.second_hash_enabled() {
            2.0
        } else {
            1.0
        };
        let parity_amortized = plts * TOTAL_BITS as f64 / self.group_lines as f64;
        (ECC_BITS + CRC_BITS) as f64 + parity_amortized
    }

    /// PLT storage in bytes (all enabled parity tables together).
    pub fn plt_storage_bytes(&self) -> u64 {
        let plts = if self.scheme.second_hash_enabled() {
            2
        } else {
            1
        };
        // One stored line (553 bits -> 70 bytes rounded) per group; the
        // paper rounds to the 64-byte data payload (128 KB per PLT).
        plts * self.n_groups() * (DATA_BITS as u64 / 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_has_2048_groups() {
        let cfg = SudokuConfig::paper_default(Scheme::Z);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.geometry.lines(), 1 << 20);
        assert_eq!(cfg.n_groups(), 2048);
    }

    #[test]
    fn overhead_matches_paper_section_vii_h() {
        // SuDoku-Z: 10 + 31 + 2 PLT bits ≈ 43 bits per line.
        let z = SudokuConfig::paper_default(Scheme::Z);
        assert_eq!(z.storage_overhead_bits_per_line().round() as u32, 43);
        // X/Y: one PLT, ≈ 42 bits.
        let y = SudokuConfig::paper_default(Scheme::Y);
        assert_eq!(y.storage_overhead_bits_per_line().round() as u32, 42);
        // Both comfortably below ECC-6's 60 bits per line.
        assert!(z.storage_overhead_bits_per_line() < 60.0);
    }

    #[test]
    fn plt_storage_is_256kb_for_z() {
        // Paper: two 128 KB PLTs for the 64 MB cache.
        let z = SudokuConfig::paper_default(Scheme::Z);
        assert_eq!(z.plt_storage_bytes(), 256 * 1024);
    }

    #[test]
    fn bad_group_sizes_rejected() {
        let mut cfg = SudokuConfig::small(Scheme::X, 64, 3);
        assert_eq!(cfg.validate(), Err(ConfigError::BadGroupSize(3)));
        cfg.group_lines = 1;
        assert_eq!(cfg.validate(), Err(ConfigError::BadGroupSize(1)));
    }

    #[test]
    fn non_multiple_lines_rejected() {
        let cfg = SudokuConfig::small(Scheme::X, 100, 8);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::LinesNotMultipleOfGroup { .. })
        ));
    }

    #[test]
    fn z_requires_group_square_multiple() {
        // 32 lines is a multiple of group 8 but not of 64 = 8².
        let cfg = SudokuConfig::small(Scheme::Z, 32, 8);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::LinesNotMultipleOfGroupSquare { .. })
        ));
        let ok = SudokuConfig::small(Scheme::Z, 128, 8);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn scheme_flags() {
        assert!(!Scheme::X.sdr_enabled());
        assert!(Scheme::Y.sdr_enabled() && !Scheme::Y.second_hash_enabled());
        assert!(Scheme::Z.sdr_enabled() && Scheme::Z.second_hash_enabled());
    }
}
