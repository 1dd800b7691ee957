//! The lock-free **line view**: the sharded cache's line array itself,
//! one seqlock-stamped slot per line holding its `(data, crc, ecc)`
//! triple. Each shard's [`ViewStore`] reads and writes its own lines'
//! slots *inside* the shard lock; clients read any slot without taking a
//! lock at all. There is no other copy of a stored line.
//!
//! This is what makes the demand hot path "a CRC check plus a few atomic
//! loads": a clean read loads the line's slot under the seqlock, verifies
//! the CRC-31 inline, and never touches a mutex. Anything else — a torn
//! snapshot, an odd epoch (writer in flight), a CRC mismatch (the line is
//! faulty and needs the ladder), or an invalidated slot (the line was
//! remapped to a spare) — is a **miss**, and the caller falls back to the
//! locked repair path, which is bit-identical to the reference.
//!
//! # Writer protocol (under the owning shard's mutex)
//!
//! The only writer is [`ViewStore`], the line store inside each shard's
//! cache: its `set_line` (and the `flip_bit` built on it) publishes the
//! line into its slot. Every store write — demand writes, injected
//! faults, scrub repairs, cross-shard commits, stuck-cell reasserts —
//! goes through it, and the slot is the only copy, so what a lock-free
//! reader sees is the store by construction. The store lives behind the
//! shard mutex, so writers are serialized per line and the seqlock needs
//! no writer CAS: bump the epoch to odd (`Relaxed` store, then a
//! `Release` fence orders it before the payload), store the eight data
//! words + packed `crc|ecc` meta word (`Relaxed`), then store the
//! even epoch with `Release`. A reader validates with the mirrored
//! acquire-fence protocol; equal even epochs on both sides of the payload
//! loads guarantee an untorn snapshot.
//!
//! # Accounting
//!
//! The reference cache counts `reads` on every read and `crc_checks` on
//! every non-zero read. The view replicates that exactly — per-shard
//! atomic counters folded into [`CacheStats`] by the sharded engine — so
//! aggregate stats stay bit-identical whether a read was served lock-free
//! or under the lock. An all-zero slot (data, crc *and* ecc all zero) is
//! the golden never-written line: served as zero with **no** CRC check,
//! exactly like the reference's `is_zero` fast path.
//!
//! [`CacheStats`]: sudoku_core::CacheStats

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use sudoku_codes::{LineCodec, LineData, ProtectedLine, LINE_WORDS};
use sudoku_core::LineStore;

/// Epoch sentinel: the line was remapped to a spare slot (or otherwise
/// taken out of the view) — permanently invalid, reads always miss.
const SPARED: u64 = u64::MAX;

/// Bounded seqlock retries before giving up and taking the locked path.
const MAX_RETRIES: u32 = 8;

/// The largest geometry a view holds (the slot array is ~88 B/line; 2^20
/// lines — the paper's 64 MB LLC of 64 B lines — is ≈ 92 MB). The sharded
/// cache rejects larger geometries with
/// [`ConfigError::TooManyLines`](sudoku_core::ConfigError::TooManyLines).
pub(crate) const MAX_VIEW_LINES: u64 = 1 << 20;

/// One line's published state: seqlock epoch, the eight data words, a
/// packed meta word (`crc` in bits 0..32, `ecc` in bits 32..48), and the
/// count of accepted-but-not-yet-applied writes (see [`LineView::begin_write`]).
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; LINE_WORDS],
    meta: AtomicU64,
    /// Writes accepted into the shard queue but not yet applied. While
    /// nonzero, lock-free reads miss: they fall to the shard queue, whose
    /// FIFO order puts them *behind* the write — that is what makes
    /// fire-and-forget writes read-your-write consistent.
    pending: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
            meta: AtomicU64::new(0),
            pending: AtomicU64::new(0),
        }
    }
}

/// Per-shard read accounting, cache-line padded so shards don't false-share.
#[repr(align(64))]
#[derive(Default)]
struct ShardCounters {
    reads: AtomicU64,
    crc_checks: AtomicU64,
}

/// Outcome of a lock-free view read.
pub(crate) enum ViewRead {
    /// Non-zero line whose CRC verified inline: serve it, no lock.
    Clean(LineData),
    /// Golden all-zero line (never written / zero slot): serve zero with
    /// no CRC check, mirroring the reference's `is_zero` fast path.
    Zero,
    /// Torn snapshot, writer in flight, CRC mismatch, or invalidated slot:
    /// fall back to the locked path (which does all the accounting).
    Miss,
}

/// The seqlock-stamped slots of the whole line address space.
pub(crate) struct LineView {
    slots: Vec<Slot>,
    counters: Vec<ShardCounters>,
    codec: &'static LineCodec,
}

impl LineView {
    /// Builds a view of `n_lines` all-zero lines (at most
    /// [`MAX_VIEW_LINES`]; the caller checks) read by `n_shards` shards.
    pub(crate) fn new(n_lines: u64, n_shards: usize) -> LineView {
        debug_assert!(n_lines <= MAX_VIEW_LINES);
        LineView {
            slots: (0..n_lines).map(|_| Slot::new()).collect(),
            counters: (0..n_shards).map(|_| ShardCounters::default()).collect(),
            codec: LineCodec::shared(),
        }
    }

    /// Lock-free read of `line`, charging accounting to `shard`. Returns
    /// the outcome plus the number of seqlock retries taken.
    pub(crate) fn try_read(&self, line: u64, shard: usize) -> (ViewRead, u32) {
        let slot = &self.slots[line as usize];
        if slot.pending.load(Ordering::Acquire) != 0 {
            // A write for this line is queued but not applied yet: the
            // locked path's FIFO queue orders this read after it.
            return (ViewRead::Miss, 0);
        }
        let mut retries = 0u32;
        loop {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == SPARED {
                return (ViewRead::Miss, retries);
            }
            if s1 & 1 == 1 {
                // Writer in flight.
                if retries >= MAX_RETRIES {
                    return (ViewRead::Miss, retries);
                }
                retries += 1;
                std::hint::spin_loop();
                continue;
            }
            let mut words = [0u64; LINE_WORDS];
            for (w, src) in words.iter_mut().zip(slot.words.iter()) {
                *w = src.load(Ordering::Relaxed);
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            // Pairs with the writer's release fence: if any payload load
            // above observed a post-fence store, this fence makes the
            // writer's odd-epoch store visible to the re-load below.
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 != s2 {
                if retries >= MAX_RETRIES {
                    return (ViewRead::Miss, retries);
                }
                retries += 1;
                std::hint::spin_loop();
                continue;
            }
            // Untorn snapshot.
            let counters = &self.counters[shard];
            let candidate = unpack(words, meta);
            if candidate.is_zero() {
                counters.reads.fetch_add(1, Ordering::Relaxed);
                return (ViewRead::Zero, retries);
            }
            if self.codec.crc_ok(&candidate) {
                counters.reads.fetch_add(1, Ordering::Relaxed);
                counters.crc_checks.fetch_add(1, Ordering::Relaxed);
                return (ViewRead::Clean(candidate.data), retries);
            }
            // Faulty line: the locked ladder owns it (and its accounting).
            return (ViewRead::Miss, retries);
        }
    }

    /// The stored state of `line`. Writer side only: the caller holds the
    /// owning shard's mutex, which also guards the slot's only writer, so
    /// plain `Relaxed` loads see the last publish and cannot tear.
    pub(crate) fn load(&self, line: u64) -> ProtectedLine {
        let slot = &self.slots[line as usize];
        let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
        unpack(words, slot.meta.load(Ordering::Relaxed))
    }

    /// Publishes `stored` as `line`'s current state. Called only by
    /// [`ViewStore`], under the owning shard's mutex (writers are
    /// serialized by it — the seqlock has no writer-side CAS). An
    /// invalidated slot keeps its odd [`SPARED`] epoch, so readers keep
    /// missing, but still takes the payload: a spared line's array copy
    /// still takes faults and stays a member of its Hash-1 group's parity.
    pub(crate) fn publish(&self, line: u64, stored: &ProtectedLine) {
        let slot = &self.slots[line as usize];
        let s = slot.seq.load(Ordering::Relaxed);
        let live = s != SPARED;
        if live {
            slot.seq.store(s + 1, Ordering::Relaxed);
        }
        fence(Ordering::Release);
        for (dst, &w) in slot.words.iter().zip(stored.data.words().iter()) {
            dst.store(w, Ordering::Relaxed);
        }
        slot.meta.store(
            (stored.crc as u64) | ((stored.ecc as u64) << 32),
            Ordering::Relaxed,
        );
        if live {
            slot.seq.store(s + 2, Ordering::Release);
        }
    }

    /// Permanently takes `line` out of the lock-free read path (it was
    /// remapped to a spare slot): reads miss forever, while later
    /// publishes keep its array copy current.
    pub(crate) fn invalidate(&self, line: u64) {
        self.slots[line as usize]
            .seq
            .store(SPARED, Ordering::Release);
    }

    /// Marks a write for `line` as accepted (queued, not yet applied):
    /// lock-free reads of the line miss until [`LineView::retire_write`]
    /// balances this call. Called by the *client* thread at enqueue — the
    /// increment is in its program order, so its own subsequent reads are
    /// guaranteed to take the queued path behind the write.
    pub(crate) fn begin_write(&self, line: u64) {
        self.slots[line as usize]
            .pending
            .fetch_add(1, Ordering::Release);
    }

    /// Balances one [`LineView::begin_write`]: the write was applied (or
    /// consumed by a teardown path — either way it will never be applied
    /// later, so the view is authoritative again once the count drains).
    pub(crate) fn retire_write(&self, line: u64) {
        self.slots[line as usize]
            .pending
            .fetch_sub(1, Ordering::Release);
    }

    /// Lock-free reads served for `shard` (each also counted one read in
    /// the reference accounting).
    pub(crate) fn reads(&self, shard: usize) -> u64 {
        self.counters[shard].reads.load(Ordering::Relaxed)
    }

    /// Inline CRC checks performed for `shard`'s lock-free reads.
    pub(crate) fn crc_checks(&self, shard: usize) -> u64 {
        self.counters[shard].crc_checks.load(Ordering::Relaxed)
    }
}

/// Rebuilds a line from its slot's data words and packed meta word.
fn unpack(words: [u64; LINE_WORDS], meta: u64) -> ProtectedLine {
    ProtectedLine {
        data: LineData::from_words(words),
        crc: (meta & 0xFFFF_FFFF) as u32,
        ecc: (meta >> 32) as u16,
    }
}

/// A shard's line store: the shared [`LineView`]'s slots, read and
/// published in place. Owned by the shard's cache, so every access
/// happens under the shard mutex — the view's single-writer protocol —
/// and a shard only ever touches the lines it owns.
pub(crate) struct ViewStore {
    view: Arc<LineView>,
}

impl ViewStore {
    pub(crate) fn new(view: Arc<LineView>) -> Self {
        ViewStore { view }
    }
}

impl LineStore for ViewStore {
    fn n_lines(&self) -> u64 {
        self.view.slots.len() as u64
    }

    fn line(&self, idx: u64) -> ProtectedLine {
        self.view.load(idx)
    }

    fn set_line(&mut self, idx: u64, line: ProtectedLine) {
        self.view.publish(idx, &line);
    }

    /// Not the all-zero codeword — exactly what a sparse store keeps an
    /// entry for, so group scans skip the same members.
    fn is_materialized(&self, idx: u64) -> bool {
        !self.view.load(idx).is_zero()
    }
}

impl std::fmt::Debug for LineView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineView")
            .field("lines", &self.slots.len())
            .field("shards", &self.counters.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(bits: &[usize]) -> ProtectedLine {
        let mut d = LineData::zero();
        for &b in bits {
            d.set_bit(b, true);
        }
        LineCodec::shared().encode(&d)
    }

    #[test]
    fn zero_slot_serves_zero_without_crc_check() {
        let view = LineView::new(16, 2);
        let (out, retries) = view.try_read(3, 1);
        assert!(matches!(out, ViewRead::Zero));
        assert_eq!(retries, 0);
        assert_eq!(view.reads(1), 1);
        assert_eq!(view.crc_checks(1), 0);
    }

    #[test]
    fn published_line_reads_back_clean_with_crc_check() {
        let view = LineView::new(16, 2);
        let stored = encoded(&[5, 100]);
        view.publish(7, &stored);
        match view.try_read(7, 0) {
            (ViewRead::Clean(data), _) => assert_eq!(data, stored.data),
            _ => panic!("expected clean hit"),
        }
        assert_eq!(view.reads(0), 1);
        assert_eq!(view.crc_checks(0), 1);
    }

    #[test]
    fn corrupt_line_misses_without_accounting() {
        let view = LineView::new(16, 1);
        let mut stored = encoded(&[9]);
        // Flip a data bit without updating the CRC: the inline check fails.
        stored.data.set_bit(10, true);
        view.publish(2, &stored);
        assert!(matches!(view.try_read(2, 0), (ViewRead::Miss, _)));
        assert_eq!(view.reads(0), 0);
        assert_eq!(view.crc_checks(0), 0);
    }

    #[test]
    fn invalidated_slot_misses_forever() {
        let view = LineView::new(16, 1);
        view.publish(4, &encoded(&[1]));
        view.invalidate(4);
        assert!(matches!(view.try_read(4, 0), (ViewRead::Miss, _)));
        // Publishing after invalidation keeps the slot out: still a miss.
        view.publish(4, &encoded(&[2]));
        assert!(matches!(view.try_read(4, 0), (ViewRead::Miss, _)));
    }

    #[test]
    fn pending_write_blocks_lock_free_reads_until_retired() {
        let view = LineView::new(16, 1);
        let stored = encoded(&[3, 200]);
        view.publish(6, &stored);
        view.begin_write(6);
        view.begin_write(6);
        assert!(matches!(view.try_read(6, 0), (ViewRead::Miss, _)));
        view.retire_write(6);
        // One write still in flight: still a miss.
        assert!(matches!(view.try_read(6, 0), (ViewRead::Miss, _)));
        view.retire_write(6);
        assert!(matches!(view.try_read(6, 0), (ViewRead::Clean(_), _)));
    }

    #[test]
    fn view_store_publishes_every_write() {
        let view = Arc::new(LineView::new(16, 1));
        let mut store = ViewStore::new(Arc::clone(&view));
        let stored = encoded(&[3, 200]);
        store.set_line(5, stored);
        assert!(matches!(view.try_read(5, 0), (ViewRead::Clean(d), _) if d == stored.data));
        // A fault is visible at once: the CRC fails and the read misses.
        store.flip_bit(5, 40);
        assert!(matches!(view.try_read(5, 0), (ViewRead::Miss, _)));
        store.flip_bit(5, 40);
        assert!(matches!(view.try_read(5, 0), (ViewRead::Clean(_), _)));
        // A spared line stays out of the lock-free path, but the store
        // still holds what it writes.
        view.invalidate(5);
        store.set_line(5, encoded(&[7]));
        assert!(matches!(view.try_read(5, 0), (ViewRead::Miss, _)));
        assert_eq!(store.line(5), encoded(&[7]));
    }

    #[test]
    fn view_store_matches_sparse_store_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use sudoku_codes::{CRC_BITS, DATA_BITS, TOTAL_BITS};
        use sudoku_core::SparseStore;

        const LINES: u64 = 64;
        // Few enough stored bits that a flip often undoes an earlier one
        // and returns a line to the zero codeword; one in each field.
        const BITS: [usize; 6] = [0, 7, 300, DATA_BITS, DATA_BITS + CRC_BITS, TOTAL_BITS - 1];
        let codec = LineCodec::shared();
        let view = Arc::new(LineView::new(LINES, 1));
        let mut store = ViewStore::new(Arc::clone(&view));
        let mut reference = SparseStore::new(LINES);
        let mut spared = [false; LINES as usize];
        let mut rng = StdRng::seed_from_u64(0x5EED_0017);
        for step in 0..4_000 {
            let idx = rng.gen_range(0..LINES);
            match rng.gen_range(0..200u32) {
                0..=89 => {
                    let line = if rng.gen_range(0..4u32) == 0 {
                        ProtectedLine::zero()
                    } else {
                        encoded(&[rng.gen_range(0..DATA_BITS), rng.gen_range(0..DATA_BITS)])
                    };
                    store.set_line(idx, line);
                    reference.set_line(idx, line);
                }
                90..=198 => {
                    let bit = BITS[rng.gen_range(0..BITS.len())];
                    store.flip_bit(idx, bit);
                    reference.flip_bit(idx, bit);
                }
                _ => {
                    view.invalidate(idx);
                    spared[idx as usize] = true;
                }
            }
            for line in 0..LINES {
                let want = reference.line(line);
                assert_eq!(store.line(line), want, "step {step}: line {line}");
                assert_eq!(
                    store.is_materialized(line),
                    reference.is_materialized(line),
                    "step {step}: line {line} materialization"
                );
                let (read, _) = view.try_read(line, 0);
                if spared[line as usize] {
                    assert!(
                        matches!(read, ViewRead::Miss),
                        "step {step}: spared line {line} was served"
                    );
                    continue;
                }
                match read {
                    ViewRead::Clean(data) => {
                        assert!(!want.is_zero() && codec.crc_ok(&want));
                        assert_eq!(data, want.data, "step {step}: line {line}");
                    }
                    ViewRead::Zero => assert!(want.is_zero(), "step {step}: line {line}"),
                    ViewRead::Miss => assert!(!codec.crc_ok(&want), "step {step}: line {line}"),
                }
            }
        }
        assert!(spared.iter().any(|&s| s) && !spared.iter().all(|&s| s));
    }

    #[test]
    fn concurrent_publish_never_yields_torn_clean_read() {
        // A writer flips line 0 between two valid encodings while readers
        // hammer it: every Clean hit must be one of the two golden values
        // (the CRC would catch a mash of the two, so a torn-but-accepted
        // snapshot would surface as a wrong-data panic here).
        let view = std::sync::Arc::new(LineView::new(4, 1));
        let a = encoded(&[1, 64, 300]);
        let b = encoded(&[2, 65, 301]);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let view = std::sync::Arc::clone(&view);
                let stop = std::sync::Arc::clone(&stop);
                let (a, b) = (a, b);
                s.spawn(move || {
                    for i in 0..200_000u64 {
                        view.publish(0, if i & 1 == 0 { &a } else { &b });
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            for _ in 0..3 {
                let view = std::sync::Arc::clone(&view);
                let stop = std::sync::Arc::clone(&stop);
                let (a, b) = (a, b);
                s.spawn(move || {
                    let mut hits = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if let (ViewRead::Clean(data), _) = view.try_read(0, 0) {
                            assert!(data == a.data || data == b.data, "torn read escaped");
                            hits += 1;
                        }
                    }
                    hits
                });
            }
        });
    }
}
