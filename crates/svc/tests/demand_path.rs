//! Demand-path equivalence: the batched/slot-completed/lock-free service
//! front-end must be *bit-identical* to driving the same [`ShardedCache`]
//! engine sequentially — same read results, same stored lines, same
//! aggregate counters — for every shard count, with faults in flight.
//! (Scrub-side shard invariance vs the single-threaded `SudokuCache` is
//! covered by `determinism.rs`; this file pins the *front-end*: packets,
//! completion slots, and the seqlock view must add no observable state.)
//! Plus a torn-read soak proving the seqlock view never serves a
//! half-written line, and a liveness test of the contended queued path.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;
use sudoku_codes::LineData;
use sudoku_fault::FaultInjector;
use sudoku_svc::{Service, ServiceConfig, ShardedCache};

const LINES: u64 = 256;

fn pattern(tag: u64) -> LineData {
    let mut d = LineData::zero();
    d.set_bit((tag as usize * 37) % 512, true);
    d.set_bit((tag as usize * 11 + 201) % 512, true);
    d
}

/// Replays one op sequence against a sequentially-driven [`ShardedCache`]
/// and a running `n_shards` service (single client, so the global order
/// is the issue order), asserting identical per-op results, stored lines,
/// and stats.
fn assert_demand_equivalence(n_shards: usize, seed: u64, ber: f64, ops: &[(u64, bool)]) {
    let mut svc_config = ServiceConfig::small(LINES, n_shards, 0.0, seed);
    svc_config.scrub_every = None;
    let reference = ShardedCache::new(svc_config.cache, n_shards).expect("valid config");
    let service = Service::start(svc_config).unwrap();
    let handle = service.handle();

    // Shared initial footprint, then one identical fault plan on both
    // sides: reads below must drive the same ladder repairs in both.
    for line in 0..LINES {
        let data = pattern(line);
        reference.write(line, &data).unwrap();
        handle.write(line, &data).unwrap();
    }
    // Writes complete at acceptance; `inject_fault` below bypasses the
    // queue, so drain the footprint first. A paired read sweep is the
    // barrier: each service read of a pending line rides the FIFO behind
    // its write, and the reference read keeps the counters identical.
    drain_sweep(&reference, &handle);
    let plan = FaultInjector::new(ber, seed).resolved_plan(LINES);
    for (line, bits) in &plan {
        for &bit in bits {
            reference.inject_fault(*line, bit);
            service.state().inject_fault(*line, bit);
        }
    }

    for (i, &(line, is_write)) in ops.iter().enumerate() {
        if is_write {
            let data = pattern(line ^ (i as u64) << 8);
            reference.write(line, &data).unwrap();
            handle.write(line, &data).unwrap();
        } else {
            let expect = reference.read(line);
            match (expect, handle.read(line)) {
                (Ok(want), Ok(got)) => assert_eq!(
                    want, got,
                    "read {line} diverges at n_shards={n_shards} seed={seed} op {i}"
                ),
                (Err(_), Err(e)) => assert!(
                    e.is_due(),
                    "reference DUE but service returned {e} (line {line}, op {i})"
                ),
                (want, got) => panic!(
                    "read {line} diverges at n_shards={n_shards} seed={seed} op {i}: \
                     reference {want:?} vs service {got:?}"
                ),
            }
        }
    }

    // Drain any writes still pending in the shard queues (same paired
    // sweep: identical repairs and counters on both sides), then compare.
    drain_sweep(&reference, &handle);

    // Bit-identity of the stored array and of the aggregate counters —
    // the lock-free view hits are folded into `stats().reads/crc_checks`
    // exactly as the reference's locked read path would have counted them.
    for line in 0..LINES {
        assert_eq!(
            reference.stored_line(line),
            service.state().stored_line(line),
            "stored line {line} diverges at n_shards={n_shards} seed={seed}"
        );
    }
    assert_eq!(
        reference.stats(),
        service.state().stats(),
        "aggregate stats diverge at n_shards={n_shards} seed={seed}"
    );
    let report = service.shutdown();
    assert!(report.worker_panics.is_empty());
    assert_eq!(report.failed_writes, 0, "no write may fail to apply");
}

/// Paired full-array read: on the service side every read of a line with
/// a write still pending takes the FIFO queue path *behind* that write,
/// so when the sweep returns all accepted writes have been applied. The
/// reference read keeps repairs and counters bit-identical.
fn drain_sweep(reference: &ShardedCache, handle: &sudoku_svc::ServiceHandle) {
    for line in 0..LINES {
        match (reference.read(line), handle.read(line)) {
            (Ok(want), Ok(got)) => assert_eq!(want, got, "drain sweep diverges at line {line}"),
            (Err(_), Err(e)) => assert!(e.is_due(), "drain sweep: reference DUE, service {e}"),
            (want, got) => panic!("drain sweep diverges at line {line}: {want:?} vs {got:?}"),
        }
    }
}

/// Deterministic op mix: zipf-ish revisits plus a sweep, ~25% writes.
fn fixed_ops(seed: u64, n: usize) -> Vec<(u64, bool)> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % LINES, (x >> 13).is_multiple_of(4))
        })
        .collect()
}

#[test]
fn demand_path_matches_reference_across_shard_counts() {
    let ops = fixed_ops(0xD5D0_0002, 512);
    for n_shards in [1, 2, 4, 8] {
        assert_demand_equivalence(n_shards, 0xD5D0_0002, 2e-3, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: the packetized, slot-completed, seqlock-fronted demand
    /// path ≡ the single-threaded reference for arbitrary seeds, fault
    /// rates, and op mixes across all supported shard counts.
    #[test]
    fn packetized_service_is_bit_identical_to_reference(
        seed in any::<u64>(),
        ber_idx in 0usize..3,
        shard_idx in 0usize..4,
    ) {
        let ber = [5e-4, 2e-3, 5e-3][ber_idx];
        let n_shards = [1usize, 2, 4, 8][shard_idx];
        assert_demand_equivalence(n_shards, seed, ber, &fixed_ops(seed, 384));
    }
}

/// Torn-read soak: one writer hammers a single hot line alternating
/// between two values while readers race it through the lock-free view.
/// Every read must observe one of the two published values (or the DUE
/// path) — never a torn mix — and the fast path must actually fire.
#[test]
fn seqlock_view_never_serves_torn_lines() {
    let mut config = ServiceConfig::small(256, 2, 0.0, 99);
    config.scrub_every = None;
    let service = Service::start(config).unwrap();
    let a = pattern(1);
    let b = pattern(2);
    let line = 7u64;
    service.handle().write(line, &a).unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer_handle = service.handle();
        let (wa, wb) = (a, b);
        let stop = &stop;
        s.spawn(move || {
            for i in 0..2_000u64 {
                let data = if i % 2 == 0 { wb } else { wa };
                writer_handle.write(line, &data).unwrap();
            }
            stop.store(true, Ordering::Release);
        });
        for _ in 0..3 {
            let reader_handle = service.handle();
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let got = reader_handle.read(line).unwrap();
                    assert!(got == a || got == b, "torn read: {got:?}");
                }
            });
        }
    });
    // First read drains the writer's still-pending tail through the FIFO;
    // after that the line is published and must be served lock-free.
    let handle = service.handle();
    let settled = handle.read(line).unwrap();
    assert!(settled == a || settled == b, "torn settle: {settled:?}");
    for _ in 0..8 {
        assert_eq!(handle.read(line).unwrap(), settled);
    }
    let report = service.shutdown();
    assert_eq!(report.failed_writes, 0);
    assert!(
        report.lockfree_reads >= 8,
        "fast path never fired: {report:?}"
    );
}

/// Liveness of the queued path: eight clients contend for one shard with
/// a queue bound of 4, so ops queue behind a held claim and bounded
/// enqueues block, and every queued op must be served by whichever client
/// drains the shard. Each client owns one line and writes then reads it
/// back every round (read-your-write through the pending gate). A
/// stranded op would hang its client forever; the deadline turns that
/// into a failure instead.
///
/// An op only queues when its client finds the claim held through every
/// retry, i.e. when the holder is preempted mid-op, which a fast build
/// can dodge for all of the first `ROUNDS`. Clients therefore keep going
/// (up to `MAX_ROUNDS`) until the queued path has run at least once.
#[test]
fn contended_queue_serves_every_op_without_stranding() {
    const CLIENTS: u64 = 8;
    const ROUNDS: u64 = 2_000;
    const MAX_ROUNDS: u64 = 50 * ROUNDS;
    let mut config = ServiceConfig::small(LINES, 1, 0.0, 31);
    config.scrub_every = None;
    config.queue_depth = 4;
    let service = Service::start(config).unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let handle = service.handle();
            let done = done_tx.clone();
            std::thread::spawn(move || {
                let queued = || handle.registry().queue_depth_hist.snapshot().count() > 0;
                let mut rounds = 0;
                while rounds < ROUNDS || (rounds < MAX_ROUNDS && !queued()) {
                    let data = pattern(t * MAX_ROUNDS + rounds);
                    handle.write(t, &data).unwrap();
                    let got = handle.read(t).unwrap();
                    assert_eq!(got, data, "client {t} round {rounds}");
                    rounds += 1;
                }
                let _ = done.send(rounds);
            })
        })
        .collect();
    drop(done_tx);
    let mut rounds = 0;
    for _ in 0..CLIENTS {
        match done_rx.recv_timeout(Duration::from_secs(60)) {
            Ok(n) => rounds += n,
            Err(RecvTimeoutError::Timeout) => panic!("a client hung: an op was stranded"),
            Err(RecvTimeoutError::Disconnected) => break, // a client panicked
        }
    }
    for client in clients {
        client.join().expect("client panicked");
    }
    assert!(
        service.registry().queue_depth_hist.snapshot().count() > 0,
        "no op took the queued path"
    );
    let report = service.shutdown();
    assert_eq!(report.writes, rounds);
    assert_eq!(report.reads, rounds);
    assert_eq!(report.failed_writes, 0);
    assert!(report.fully_healthy());
}
