//! The lock-free line view must mirror every shard's store exactly.
//!
//! Rounds of 1–3-bit faults are pushed through every path that rewrites
//! stored lines — the stop-the-world scrub, shard-local scrubs plus
//! cross-shard escalation, demand reads, demand writes, stuck-cell
//! reasserts and sparing — and after every step each line is checked:
//! whatever the lock-free path serves must be the stored data, and (until
//! a line is spared out of the view) it must serve exactly the lines a
//! locked read would accept without repair.

use sudoku_codes::{LineCodec, LineData, TOTAL_BITS};
use sudoku_core::{CacheStats, HashDim, Scheme, SudokuConfig};
use sudoku_fault::StuckBitMap;
use sudoku_svc::{DegradedConfig, ShardedCache};

const LINES: u64 = 512;
const GROUP: u32 = 16;
const ROUNDS: usize = 48;
/// H1 group whose two stuck lines defeat Hash-1 recovery (same cells in
/// both lines): left alone until the last third of the run, then
/// scrubbed every round until sparing takes them out of the array.
const PAIR_GROUP: u64 = 5;

/// SplitMix64: a dependency-free, seedable stream for fault placement.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Written data keeps clear of bits 0..300, where the stuck cells sit, so
/// every stuck cell really corrupts its line.
fn golden(line: u64, version: u64) -> LineData {
    let mut d = LineData::zero();
    d.set_bit(300 + ((line * 37 + version * 11) % 200) as usize, true);
    d.set_bit(300 + ((line * 13 + version * 7 + 101) % 200) as usize, true);
    d
}

fn assert_view_mirrors_store(cache: &ShardedCache, ctx: &str) {
    let codec = LineCodec::shared();
    let exact = cache.degraded_stats().spared_lines == 0;
    for line in 0..LINES {
        let (served, _) = cache.try_read_clean(line);
        let stored = cache.stored_line(line);
        if let Some(data) = served {
            assert_eq!(data, stored.data, "{ctx}: line {line} served stale data");
        }
        if exact {
            assert_eq!(
                served.is_some(),
                stored.is_zero() || codec.crc_ok(&stored),
                "{ctx}: line {line} view disagrees with the stored line's CRC"
            );
        }
    }
}

fn h1_members(cache: &ShardedCache, group: u64) -> Vec<u64> {
    cache.plan().hashes().members(HashDim::H1, group).collect()
}

/// One seeded campaign; returns the aggregate counters and spared lines.
fn run(scheme: Scheme, n_shards: usize, seed: u64) -> (CacheStats, u64) {
    let config = SudokuConfig::small(scheme, LINES, GROUP);
    let probe = ShardedCache::new(config, n_shards).unwrap();
    let pair: Vec<u64> = h1_members(&probe, PAIR_GROUP)[3..5].to_vec();
    let mut stuck = StuckBitMap::new();
    for &line in &pair {
        stuck.insert(line, 100, true);
        stuck.insert(line, 200, true);
    }
    // Single stuck cells: ECC-1 repairs them on every touch and the
    // reassert re-corrupts them right after.
    let single_stuck = [17u64, 90, 333];
    for &line in &single_stuck {
        stuck.insert(line, 50, true);
    }
    let cache = ShardedCache::with_faults(
        config,
        n_shards,
        stuck,
        DegradedConfig {
            spare_cap_per_shard: 4,
            strike_threshold: 2,
        },
    )
    .unwrap();
    let ctx = format!("{scheme:?}/{n_shards} shards");
    // Every ninth line stays never-written (the golden zero slot).
    for line in (0..LINES).filter(|l| l % 9 != 0) {
        cache.write(line, &golden(line, 0)).unwrap();
    }
    assert_view_mirrors_store(&cache, &format!("{ctx} after fill"));

    let n_groups = LINES / GROUP as u64;
    let mut rng = Rng(seed);
    for round in 0..ROUNDS {
        let mut hints = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let group = loop {
                let g = rng.below(n_groups);
                if g != PAIR_GROUP {
                    break g;
                }
            };
            let members = h1_members(&cache, group);
            let n_faulty = 1 + rng.below(3) as usize;
            // One round in four corrupts two members at identical
            // positions: parity cancels, so Hash-1 cannot localize them.
            let overlapping = rng.below(4) == 0;
            let shared: Vec<usize> = (0..2)
                .map(|_| rng.below(TOTAL_BITS as u64) as usize)
                .collect();
            for _ in 0..n_faulty {
                let line = members[rng.below(members.len() as u64) as usize];
                if single_stuck.contains(&line) || hints.contains(&line) {
                    continue;
                }
                let bits: Vec<usize> = if overlapping {
                    shared.clone()
                } else {
                    (0..1 + rng.below(3))
                        .map(|_| rng.below(TOTAL_BITS as u64) as usize)
                        .collect()
                };
                for bit in bits {
                    cache.inject_fault(line, bit);
                }
                hints.push(line);
            }
        }
        hints.extend_from_slice(&single_stuck);
        if round >= 2 * ROUNDS / 3 {
            hints.extend_from_slice(&pair);
        }
        let step = format!("{ctx} round {round}");
        assert_view_mirrors_store(&cache, &format!("{step} injection"));
        match round % 4 {
            0 => {
                cache.scrub_lines(&hints);
                assert_view_mirrors_store(&cache, &format!("{step} scrub_lines"));
            }
            1 => {
                let mut leftovers = Vec::new();
                for shard in 0..n_shards {
                    let left = cache.scrub_shard_local(shard, &hints).unresolved;
                    assert_view_mirrors_store(&cache, &format!("{step} local scrub {shard}"));
                    leftovers.extend(left);
                }
                cache.escalate(&leftovers);
                assert_view_mirrors_store(&cache, &format!("{step} escalate"));
            }
            2 => {
                for &line in &hints {
                    let _ = cache.read(line);
                    assert_view_mirrors_store(&cache, &format!("{step} read {line}"));
                }
            }
            _ => {
                for &line in &hints {
                    cache.write(line, &golden(line, round as u64)).unwrap();
                    assert_view_mirrors_store(&cache, &format!("{step} write {line}"));
                }
            }
        }
    }
    (cache.stats(), cache.degraded_stats().spared_lines)
}

#[test]
fn view_equals_store_across_every_recovery_path() {
    let mut total = CacheStats::default();
    let mut spared = 0;
    for (scheme, n_shards, seed) in [
        (Scheme::Z, 4, 0x5D0C_0001),
        (Scheme::Z, 2, 0x5D0C_0002),
        (Scheme::Y, 4, 0x5D0C_0003),
    ] {
        let (stats, spared_lines) = run(scheme, n_shards, seed);
        total.merge(&stats);
        spared += spared_lines;
    }
    assert!(total.ecc1_repairs > 0, "ECC-1 never ran: {total:?}");
    assert!(total.raid4_repairs > 0, "RAID-4 never ran: {total:?}");
    assert!(total.sdr_repairs > 0, "SDR never ran: {total:?}");
    assert!(total.hash2_repairs > 0, "Hash-2 never ran: {total:?}");
    assert!(total.due_lines > 0, "no DUE was reached: {total:?}");
    assert!(spared > 0, "no line was spared");
}
