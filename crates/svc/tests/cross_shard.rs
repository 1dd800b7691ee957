//! Cross-shard Hash-2 escalation: fault patterns a single shard provably
//! cannot resolve with its local Hash-1 ladder, resolved by the
//! coordinator's cross-shard SuDoku-Z pass.

use sudoku_codes::LineData;
use sudoku_core::{HashDim, Scheme, SudokuConfig};
use sudoku_svc::ShardedCache;

const LINES: u64 = 256;
const GROUP: u32 = 16;

fn golden(i: u64) -> LineData {
    let mut d = LineData::zero();
    d.set_bit((i as usize * 13) % 512, true);
    d
}

fn populated(n_shards: usize) -> ShardedCache {
    let config = SudokuConfig::small(Scheme::Z, LINES, GROUP);
    let sharded = ShardedCache::new(config, n_shards).expect("valid shard count");
    for i in 0..LINES {
        sharded.write(i, &golden(i)).unwrap();
    }
    sharded
}

/// The Fig-3(c) defeat pattern for Hash-1: two members of the *same* H1
/// group corrupted at the *same* bit positions. The group parity cancels,
/// so RAID-4 sees zero mismatches and SDR has nothing to anchor on —
/// shard-local recovery is structurally blind to it.
fn inject_h1_defeating_pair(sharded: &ShardedCache) -> [u64; 2] {
    let victims = [4u64, 5u64]; // same H1 group (group 0 spans lines 0..16)
    for &line in &victims {
        sharded.inject_fault(line, 100);
        sharded.inject_fault(line, 200);
    }
    victims
}

#[test]
fn shard_local_scrub_cannot_resolve_the_pair() {
    let sharded = populated(2);
    let victims = inject_h1_defeating_pair(&sharded);
    let owner = sharded.plan().shard_of_line(victims[0]);
    assert_eq!(owner, sharded.plan().shard_of_line(victims[1]));

    // The owning shard alone — full H1 ladder, no coordinator. Hint order
    // and repeats must not matter: each victim is hinted twice, reversed.
    let hints: Vec<u64> = victims
        .iter()
        .rev()
        .chain(victims.iter().rev())
        .copied()
        .collect();
    let report = sharded.scrub_shard_local(owner, &hints);
    assert_eq!(
        report.unresolved,
        vec![4, 5],
        "the H1-defeating pair must survive shard-local recovery"
    );
    assert_eq!(report.hash2_repairs, 0, "no H2 without the coordinator");

    // Cross-shard escalation resolves exactly what the shard could not.
    let escalation = sharded.escalate(&report.unresolved);
    assert!(escalation.fully_repaired(), "{escalation:?}");
    assert!(escalation.hash2_repairs >= 1, "{escalation:?}");
    for &line in &victims {
        assert_eq!(sharded.read(line).unwrap(), golden(line));
    }
}

#[test]
fn h2_groups_cross_shards_by_construction() {
    // Round-robin H1-group sharding guarantees every H2 group has members
    // on ≥ 2 shards whenever there are ≥ 2 shards: consecutive H1 groups
    // land on different shards, and H2's skewed hash mixes lines of
    // consecutive H1 groups into each of its groups.
    for n_shards in [2usize, 4, 8] {
        let sharded = populated(n_shards);
        let plan = sharded.plan();
        let hashes =
            sudoku_core::SkewedHashes::from_config(sharded.config()).expect("valid config");
        let groups = hashes.n_groups();
        let mut crossing = 0u64;
        for g in 0..groups {
            let owners: std::collections::BTreeSet<usize> = hashes
                .members(HashDim::H2, g)
                .map(|line| plan.shard_of_line(line))
                .collect();
            if owners.len() >= 2 {
                crossing += 1;
            }
        }
        assert_eq!(
            crossing, groups,
            "every H2 group must cross shards at n_shards={n_shards}"
        );
    }
}

#[test]
fn demand_read_triggers_cross_shard_recovery() {
    let sharded = populated(4);
    let victims = inject_h1_defeating_pair(&sharded);
    // A plain demand read of a victim escalates internally and succeeds.
    assert_eq!(sharded.read(victims[0]).unwrap(), golden(victims[0]));
    assert!(
        sharded.coordinator_stats().hash2_repairs >= 1
            || sharded.coordinator_stats().raid4_repairs >= 1,
        "recovery must have run on the coordinator: {:?}",
        sharded.coordinator_stats()
    );
    // The sibling victim was healed by the same group pass.
    assert_eq!(sharded.read(victims[1]).unwrap(), golden(victims[1]));
}
