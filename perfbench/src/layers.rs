//! Per-layer measurements, each timing calls into one layer's public
//! functions from outside, and the ladder that drives one op stream up
//! through every layer in turn.

use crate::report::{Tally, RUNGS};
use crate::stats::median;
use crate::wire_load::{idle_pings, paced, Paced, Stack};
use crate::workload::{self, initial_value, Mix, SvcCounters, LINES};
use crate::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use sudoku_codes::{
    LineCodec, LineData, ProtectedLine, ReadCheck, CRC_BITS, DATA_BITS, TOTAL_BITS,
};
use sudoku_core::{Scheme, SudokuCache, SudokuConfig};
use sudoku_fault::{choose_distinct, FaultInjector};
use sudoku_net::{decode_request, decode_response, Request, Response, Status, WireClient};
use sudoku_obs::AtomicHist;
use sudoku_reliability::montecarlo::run_interval_campaign_timed;
use sudoku_sim::ZipfGen;
use sudoku_svc::{ServiceHandle, ShardedCache};

/// Ops per in-process ladder rung and per-layer loop.
const OPS: usize = 20_000;
/// Requests per write on the pipelined wire rung.
const BURST: usize = 64;
/// Ops per wire ladder rung (each is a loopback round trip or a share of
/// one).
const WIRE_OPS: usize = 32 * BURST;
/// Length of the open-loop wire probe.
const PACED_PROBE: Duration = Duration::from_secs(2);
/// Trials replayed through the campaign's public pieces.
const REPLAY_TRIALS: u64 = 6;
/// Timed blocks per micro-measurement; the median block is reported.
const BLOCKS: usize = 5;

/// One op of a workload's stream: a read, or a write of `Some(data)`.
#[derive(Clone, Copy)]
pub struct Op {
    pub line: u64,
    pub write: Option<LineData>,
}

/// `n` ops over the whole cache, drawn from `mix`.
pub fn op_stream(seed: u64, mix: Mix, n: usize) -> Vec<Op> {
    let mut zipf = ZipfGen::new(LINES, mix.theta, seed ^ 0x1ADD_E500);
    let mut rng = Rng::new(seed ^ 0x0B5);
    (0..n)
        .map(|_| {
            let line = zipf.next_rank();
            let write =
                (rng.unit() < mix.write_frac).then(|| crate::dense_line(line, rng.next_u64()));
            Op { line, write }
        })
        .collect()
}

/// Median ns per call of `f` over [`BLOCKS`] blocks of `iters` calls.
fn per_call_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let blocks: Vec<f64> = (0..BLOCKS)
        .map(|b| {
            let start = Instant::now();
            for i in 0..iters {
                f(b * iters + i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&blocks)
}

/// Results of the traced run's layer pass.
pub struct Layers {
    pub metrics: BTreeMap<String, f64>,
    pub tally: Tally,
    /// Counters of the ladder's daemon-on service and wire front end.
    pub counters: SvcCounters,
    /// Median idle PING round trip on the ladder's wire front end, µs.
    pub ping_rtt_us: f64,
    /// The open-loop wire probe on the ladder's wire front end.
    pub paced: Paced,
}

/// Runs every layer measurement and the ladder for `mix`.
pub fn measure(seed: u64, mix: Mix) -> Layers {
    let mut m = BTreeMap::new();
    let mut tally = Tally::default();
    codes(seed, &mut m, &mut tally);
    fault(seed, &mut m);
    core(seed, mix, &mut m, &mut tally);
    reliability(seed, &mut m, &mut tally);
    svc(seed, mix, &mut m);
    net(seed, &mut m);
    let hist = AtomicHist::pow2(40);
    let mut x = seed | 1;
    m.insert(
        "obs.hist_record_ns".into(),
        per_call_ns(OPS * 10, |_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(black_box(x >> 40));
        }),
    );
    let (counters, ping_rtt_us, paced) = ladder(seed, mix, &mut m, &mut tally);
    Layers {
        metrics: m,
        tally,
        counters,
        ping_rtt_us,
        paced,
    }
}

fn codes(seed: u64, m: &mut BTreeMap<String, f64>, tally: &mut Tally) {
    let codec = LineCodec::shared();
    let data: Vec<LineData> = (0..64).map(|i| crate::dense_line(seed, i)).collect();
    let clean: Vec<ProtectedLine> = data.iter().map(|d| codec.encode(d)).collect();
    let mut rng = Rng::new(seed ^ 0xEC1);
    // One flipped data or CRC bit: the read path's ECC-1 repair. (A
    // flipped ECC-field bit reads clean; only scrub notices it.)
    let faulty: Vec<ProtectedLine> = clean
        .iter()
        .map(|line| {
            let mut f = *line;
            f.flip_bit(rng.below((DATA_BITS + CRC_BITS) as u64) as usize);
            f
        })
        .collect();
    for (f, d) in faulty.iter().zip(&data) {
        match codec.read_check(f) {
            ReadCheck::Corrected { repaired, .. } if repaired.data == *d => {}
            _ => tally.sdc += 1,
        }
    }
    m.insert(
        "codes.encode_ns".into(),
        per_call_ns(OPS * 5, |i| {
            black_box(codec.encode(black_box(&data[i % 64])));
        }),
    );
    m.insert(
        "codes.read_check_clean_ns".into(),
        per_call_ns(OPS * 5, |i| {
            black_box(codec.read_check(black_box(&clean[i % 64])));
        }),
    );
    m.insert(
        "codes.ecc1_fix_ns".into(),
        per_call_ns(OPS * 5, |i| {
            black_box(codec.read_check(black_box(&faulty[i % 64])));
        }),
    );
}

fn fault(seed: u64, m: &mut BTreeMap<String, f64>) {
    let cfg = crate::mc::config(1, seed);
    let mut injector = FaultInjector::new(cfg.ber, seed);
    let per_line: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let start = Instant::now();
            let plan = injector.cache_plan(cfg.lines);
            for lf in &plan {
                black_box(choose_distinct(
                    injector.rng(),
                    TOTAL_BITS as u64,
                    u64::from(lf.faults),
                ));
            }
            start.elapsed().as_nanos() as f64 / plan.len().max(1) as f64
        })
        .collect();
    m.insert("fault.plan_ns_per_faulty_line".into(), median(&per_line));
}

fn small_config() -> SudokuConfig {
    SudokuConfig::small(Scheme::Z, LINES, 16)
}

fn prefilled_core(seed: u64) -> SudokuCache {
    let mut cache = SudokuCache::new(small_config()).expect("valid config");
    for line in 0..LINES {
        cache.write(line, &initial_value(seed, line));
    }
    cache
}

fn core(seed: u64, mix: Mix, m: &mut BTreeMap<String, f64>, tally: &mut Tally) {
    let ops = op_stream(seed, mix, OPS);
    let mut cache = prefilled_core(seed);
    m.insert(
        "core.read_clean_ns".into(),
        per_call_ns(OPS, |i| {
            let line = ops[i % OPS].line;
            black_box(cache.read(line).ok());
        }),
    );
    let mut rng = Rng::new(seed ^ 0xC0E);
    m.insert(
        "core.write_ns".into(),
        per_call_ns(OPS, |i| {
            let line = ops[i % OPS].line;
            cache.write(line, &crate::dense_line(line, i as u64));
        }),
    );
    m.insert(
        "core.scrub_clean_ns_per_line".into(),
        per_call_ns(1, |_| {
            black_box(cache.scrub());
        }) / LINES as f64,
    );
    // Single-bit faults in 1 of every 64 lines, repaired by ECC-1.
    let hints: Vec<u64> = (0..LINES).step_by(64).collect();
    let per_line: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            for &line in &hints {
                cache.inject_fault(line, rng.below(TOTAL_BITS as u64) as usize);
            }
            let start = Instant::now();
            let report = cache.scrub_lines(&hints);
            let ns = start.elapsed().as_nanos() as f64 / hints.len() as f64;
            if !report.fully_repaired() {
                tally.due += report.unresolved.len() as u64;
            }
            ns
        })
        .collect();
    m.insert("core.scrub_faulty_ns_per_line".into(), median(&per_line));
}

/// Replays a few paper-default trials through the campaign's public
/// pieces, timing each phase, and checks the replay scrubbed exactly what
/// the campaign itself reports for the same trial seeds.
fn reliability(seed: u64, m: &mut BTreeMap<String, f64>, tally: &mut Tally) {
    let cfg = crate::mc::config(REPLAY_TRIALS, seed ^ 0x4E1);
    let mut cache =
        SudokuCache::new_sparse(crate::mc::cache_config(&cfg)).expect("valid campaign config");
    let mut injector = FaultInjector::new(cfg.ber, cfg.seed);
    let (mut inject, mut scrub, mut reset) = (0.0, 0.0, 0.0);
    for i in 0..REPLAY_TRIALS {
        let t0 = Instant::now();
        injector.reseed(cfg.seed.wrapping_add(i));
        let plan = injector.cache_plan(cfg.lines);
        let mut hints = Vec::with_capacity(plan.len());
        for lf in &plan {
            for pos in choose_distinct(injector.rng(), TOTAL_BITS as u64, u64::from(lf.faults)) {
                cache.inject_fault(lf.line, pos as usize);
            }
            hints.push(lf.line);
        }
        let t1 = Instant::now();
        let report = cache.scrub_lines(&hints);
        let t2 = Instant::now();
        cache.reset_to_golden_zero();
        let t3 = Instant::now();
        if !report.fully_repaired() {
            tally.campaign += 1;
        }
        inject += (t1 - t0).as_secs_f64();
        scrub += (t2 - t1).as_secs_f64();
        reset += (t3 - t2).as_secs_f64();
    }
    let (_, campaign) = run_interval_campaign_timed(&cfg);
    let stats = cache.stats();
    if stats.lines_scrubbed != campaign.lines_scrubbed || stats.crc_checks != campaign.crc_checks {
        eprintln!(
            "replay scrubbed {} lines / {} checks, campaign {} / {}",
            stats.lines_scrubbed, stats.crc_checks, campaign.lines_scrubbed, campaign.crc_checks
        );
        tally.campaign += 1;
    }
    let t = REPLAY_TRIALS as f64;
    m.insert("reliability.inject_ms_per_trial".into(), inject * 1e3 / t);
    m.insert("reliability.scrub_ms_per_trial".into(), scrub * 1e3 / t);
    m.insert("reliability.reset_ms_per_trial".into(), reset * 1e3 / t);
    m.insert(
        "reliability.lines_scrubbed_per_trial".into(),
        campaign.lines_scrubbed as f64 / t,
    );
    m.insert(
        "reliability.crc_checks_per_trial".into(),
        campaign.crc_checks as f64 / t,
    );
}

fn prefilled_sharded(seed: u64) -> ShardedCache {
    let sharded = ShardedCache::new(small_config(), 4).expect("valid sharded config");
    for line in 0..LINES {
        sharded
            .write(line, &initial_value(seed, line))
            .expect("shard up");
    }
    sharded
}

fn svc(seed: u64, mix: Mix, m: &mut BTreeMap<String, f64>) {
    let ops = op_stream(seed, mix, OPS);
    let sharded = prefilled_sharded(seed);
    m.insert(
        "svc.session_read_ns".into(),
        per_call_ns(OPS, |i| {
            black_box(sharded.read(ops[i % OPS].line).ok());
        }),
    );
    m.insert(
        "svc.view_read_ns".into(),
        per_call_ns(OPS, |i| {
            black_box(sharded.try_read_clean(ops[i % OPS].line));
        }),
    );
    m.insert(
        "svc.session_write_ns".into(),
        per_call_ns(OPS, |i| {
            let line = ops[i % OPS].line;
            let _ = sharded.write(line, &crate::dense_line(line, i as u64));
        }),
    );
    let service = workload::start_prefilled(seed, false);
    let handle = service.handle();
    m.insert(
        "svc.handle_read_ns".into(),
        per_call_ns(OPS, |i| {
            black_box(handle.read(ops[i % OPS].line).ok());
        }),
    );
    m.insert(
        "svc.handle_write_ns".into(),
        per_call_ns(OPS, |i| {
            let line = ops[i % OPS].line;
            let _ = handle.write(line, &crate::dense_line(line, i as u64));
        }),
    );
    drop(service.shutdown());
}

fn net(seed: u64, m: &mut BTreeMap<String, f64>) {
    let data = crate::dense_line(seed, 7);
    let put = Request::Put {
        id: seed,
        line: 42,
        data,
    };
    let mut buf = Vec::with_capacity(128);
    m.insert(
        "net.encode_put_ns".into(),
        per_call_ns(OPS * 5, |_| {
            buf.clear();
            black_box(&put).encode(&mut buf);
        }),
    );
    let mut frame = Vec::new();
    put.encode(&mut frame);
    m.insert(
        "net.decode_request_ns".into(),
        per_call_ns(OPS * 5, |_| {
            black_box(decode_request(black_box(&frame)).ok());
        }),
    );
    let mut reply = Vec::new();
    Response {
        id: seed,
        status: Status::Ok,
        trace: 1,
        body: data.to_bytes().to_vec(),
    }
    .encode(&mut reply);
    m.insert(
        "net.decode_response_ns".into(),
        per_call_ns(OPS * 5, |_| {
            black_box(decode_response(black_box(&reply)).ok());
        }),
    );
}

/// A layer's view of the op stream: serve `op`, return the data a read
/// saw (`None` for a write or a failed read).
type Rung<'a> = Box<dyn FnMut(&Op) -> Option<LineData> + 'a>;

/// Drives `ops` through `rung` single-threaded, `passes` times; the
/// median pass's ns per op. Reads are checked against a golden copy the
/// writes keep current.
fn drive(seed: u64, ops: &[Op], passes: usize, mut rung: Rung<'_>, tally: &mut Tally) -> f64 {
    let mut golden: Vec<LineData> = (0..LINES).map(|l| initial_value(seed, l)).collect();
    let per_pass: Vec<f64> = (0..passes)
        .map(|_| {
            let start = Instant::now();
            for op in ops {
                let got = rung(op);
                let expected = &mut golden[op.line as usize];
                match (op.write, got) {
                    (Some(data), _) => *expected = data,
                    (None, Some(data)) if data == *expected => {}
                    (None, Some(_)) => tally.sdc += 1,
                    (None, None) => tally.due += 1,
                }
            }
            start.elapsed().as_nanos() as f64 / ops.len() as f64
        })
        .collect();
    tally.attempted += (passes * ops.len()) as u64;
    median(&per_pass)
}

fn handle_rung(handle: &ServiceHandle) -> Rung<'_> {
    Box::new(move |op: &Op| match op.write {
        Some(data) => handle.write(op.line, &data).ok().and(None),
        None => handle.read(op.line).ok(),
    })
}

/// Drives the workload's op stream up the ladder, recording `ladder.*`,
/// then runs the open-loop probe on the ladder's wire front end; returns
/// that stack's counters, its idle PING round trip, and the probe.
fn ladder(
    seed: u64,
    mix: Mix,
    m: &mut BTreeMap<String, f64>,
    tally: &mut Tally,
) -> (SvcCounters, f64, Paced) {
    let ops = op_stream(seed ^ 0x1ADDE4, mix, OPS);
    let wire_ops = &ops[..WIRE_OPS];
    let mut ns = Vec::with_capacity(RUNGS.len());

    let codec = LineCodec::shared();
    let mut store: Vec<ProtectedLine> = (0..LINES)
        .map(|l| codec.encode(&initial_value(seed, l)))
        .collect();
    let codes: Rung<'_> = Box::new(|op: &Op| match op.write {
        Some(data) => {
            store[op.line as usize] = codec.encode(&data);
            None
        }
        None => {
            let line = &store[op.line as usize];
            matches!(codec.read_check(line), ReadCheck::Clean).then_some(line.data)
        }
    });
    ns.push(drive(seed, &ops, BLOCKS, codes, tally));

    let mut cache = prefilled_core(seed);
    let core: Rung<'_> = Box::new(|op: &Op| match op.write {
        Some(data) => {
            cache.write(op.line, &data);
            None
        }
        None => cache.read(op.line).ok(),
    });
    ns.push(drive(seed, &ops, BLOCKS, core, tally));

    let sharded = prefilled_sharded(seed);
    let session: Rung<'_> = Box::new(|op: &Op| match op.write {
        Some(data) => sharded.write(op.line, &data).ok().and(None),
        None => sharded.read(op.line).ok(),
    });
    ns.push(drive(seed, &ops, BLOCKS, session, tally));

    let sharded = prefilled_sharded(seed);
    let view: Rung<'_> = Box::new(|op: &Op| match op.write {
        Some(data) => sharded.write(op.line, &data).ok().and(None),
        None => sharded
            .try_read_clean(op.line)
            .0
            .or_else(|| sharded.read(op.line).ok()),
    });
    ns.push(drive(seed, &ops, BLOCKS, view, tally));

    let service = workload::start_prefilled(seed, false);
    ns.push(drive(
        seed,
        &ops,
        BLOCKS,
        handle_rung(&service.handle()),
        tally,
    ));
    drop(service.shutdown());

    let stack = Stack::start(seed);
    let mut pings = idle_pings(stack.server.addr(), 200);
    let ping_rtt_us = pings.quantile(0.5).expect("pings timed") as f64 / 1e3;
    let handle = stack.service.handle();
    // Each rung above the handle starts from the initial values, so the
    // golden copies it checks against hold.
    let restore = || {
        for line in 0..LINES {
            handle
                .write(line, &initial_value(seed, line))
                .expect("restore write accepted");
        }
    };
    ns.push(drive(seed, &ops, BLOCKS, handle_rung(&handle), tally));
    restore();
    let mut client =
        WireClient::connect(stack.server.addr(), Some(Duration::from_secs(5))).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let w1: Rung<'_> = Box::new(|op: &Op| {
        let resp = match op.write {
            Some(data) => client.put(op.line, &data),
            None => client.get(op.line),
        };
        resp.ok().and_then(|r| r.line_data())
    });
    ns.push(drive(seed, wire_ops, 1, w1, tally));
    restore();
    ns.push(pipelined(seed, &mut client, wire_ops, tally));
    drop(client);
    restore();
    let floor_ns = pings.min().expect("pings timed");
    let probe = paced(stack.server.addr(), seed, mix, PACED_PROBE, floor_ns);
    let counters = stack.stop();

    let mut prev = 0.0;
    for (rung, &v) in RUNGS.iter().zip(&ns) {
        m.insert(format!("ladder.{rung}_ns"), v);
        m.insert(format!("ladder.{rung}_inc_ns"), v - prev);
        prev = v;
    }
    (counters, ping_rtt_us, probe)
}

/// The pipelined wire rung: bursts of [`BURST`] requests per write.
fn pipelined(seed: u64, client: &mut WireClient, ops: &[Op], tally: &mut Tally) -> f64 {
    let mut golden: Vec<LineData> = (0..LINES).map(|l| initial_value(seed, l)).collect();
    let mut batch = Vec::with_capacity(BURST);
    let start = Instant::now();
    tally.attempted += ops.len() as u64;
    'bursts: for chunk in ops.chunks(BURST) {
        batch.clear();
        for op in chunk {
            let id = client.next_id();
            batch.push(match op.write {
                Some(data) => Request::Put {
                    id,
                    line: op.line,
                    data,
                },
                None => Request::Get { id, line: op.line },
            });
        }
        if client.send(&batch).is_err() {
            tally.malformed += chunk.len() as u64;
            break;
        }
        for (k, (op, req)) in chunk.iter().zip(&batch).enumerate() {
            let resp = match client.recv() {
                Ok(resp) if resp.id == req.id() => resp,
                _ => {
                    tally.malformed += (chunk.len() - k) as u64;
                    break 'bursts;
                }
            };
            match (op.write, resp.status) {
                (Some(data), Status::Ok) => golden[op.line as usize] = data,
                (None, Status::Ok) if resp.line_data() == Some(golden[op.line as usize]) => {}
                (None, Status::Ok) => tally.sdc += 1,
                _ => tally.retry += 1,
            }
        }
    }
    start.elapsed().as_nanos() as f64 / ops.len() as f64
}
