//! The wire plane: the shared service behind a `NetServer`, and the
//! open-loop probe the traced run drives through it over loopback —
//! [`PACED_RATE`] requests per second over two connections, each request
//! sent no earlier than its schedule and timed from it.
//!
//! Every GET is checked against a golden copy that the connection updates
//! as PUTs are acknowledged: the server applies one connection's frames
//! in order, so a GET answered after a PUT's OK must see that PUT, and a
//! refused PUT changes nothing.

use crate::report::Tally;
use crate::sched::{wait_until, Schedule, WallClock};
use crate::stats::Samples;
use crate::workload::{self, Mix, LINES};
use crate::Rng;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use sudoku_codes::LineData;
use sudoku_net::{decode_response, NetConfig, NetServer, Request, Response, Status, WireClient};
use sudoku_sim::ZipfGen;
use sudoku_svc::Service;

/// Wire connections of the paced probe.
pub const CONNECTIONS: u64 = 2;
/// Offered load of the paced probe, requests per second.
pub const PACED_RATE: u64 = 25_000;

/// The running service and wire front end.
pub struct Stack {
    pub service: Service,
    pub server: NetServer,
}

impl Stack {
    /// Starts the prefilled shared service, scrub daemon on, behind a
    /// default `NetServer`.
    ///
    /// # Panics
    ///
    /// When the service or server cannot start.
    pub fn start(seed: u64) -> Stack {
        let service = workload::start_prefilled(seed, true);
        let server =
            NetServer::start(service.handle(), NetConfig::default()).expect("net server starts");
        Stack { service, server }
    }

    /// Drains the wire front end, then the service.
    pub fn stop(self) -> workload::SvcCounters {
        self.server.shutdown();
        workload::shutdown_counting(self.service)
    }
}

/// Idle PING round trips, ns, over one fresh connection.
///
/// # Panics
///
/// When the server does not answer.
pub fn idle_pings(addr: SocketAddr, n: usize) -> Samples {
    let mut client = WireClient::connect(addr, Some(Duration::from_secs(5))).expect("connect");
    let mut rtts = Samples::default();
    for _ in 0..n {
        let t0 = Instant::now();
        let resp = client.ping().expect("ping answered");
        rtts.record(t0.elapsed().as_nanos() as u64);
        assert_eq!(resp.status, Status::Ok, "idle ping refused");
        std::thread::sleep(Duration::from_micros(200));
    }
    rtts
}

/// Whether `min_latency_ns` can include a loopback round trip, given the
/// fastest idle PING. Halved: a loaded handler skips the idle nap, and
/// the fastest of a few hundred PINGs is itself a noisy floor. A request
/// sent ahead of its schedule reads as a near-zero latency.
pub fn round_trip_plausible(min_latency_ns: u64, ping_floor_ns: u64) -> bool {
    min_latency_ns >= ping_floor_ns / 2
}

/// Applies one response to the golden copy of its line and the tally.
fn check(resp: &Response, put: Option<LineData>, golden: &mut LineData, tally: &mut Tally) {
    match (resp.status, put) {
        (Status::Ok, Some(data)) => *golden = data,
        (Status::Ok, None) => {
            if resp.line_data() != Some(*golden) {
                tally.sdc += 1;
            }
        }
        (Status::Due, None) => tally.due += 1,
        (Status::Retry, _) => tally.retry += 1,
        (Status::ShardDown | Status::ShuttingDown, _) => tally.shard_down += 1,
        _ => tally.malformed += 1,
    }
}

/// Initial values of connection `c`'s slice: the lines `≡ c mod
/// CONNECTIONS`, indexed by rank.
fn golden_slice(seed: u64, c: u64) -> Vec<LineData> {
    (0..LINES / CONNECTIONS)
        .map(|rank| workload::initial_value(seed, rank * CONNECTIONS + c))
        .collect()
}

/// Connection `c`'s op stream over its slice.
struct OpGen {
    c: u64,
    seed: u64,
    write_frac: f64,
    zipf: ZipfGen,
    rng: Rng,
}

impl OpGen {
    fn new(seed: u64, mix: Mix, c: u64) -> OpGen {
        OpGen {
            c,
            seed,
            write_frac: mix.write_frac,
            zipf: ZipfGen::new(LINES / CONNECTIONS, mix.theta, seed ^ (c + 1) << 40),
            rng: Rng::new(seed ^ 0x5E4D_0000 ^ c),
        }
    }

    /// The next request (with ID `id`), its slice rank, and a PUT's value.
    fn next(&mut self, id: u64) -> (Request, u64, Option<LineData>) {
        let rank = self.zipf.next_rank();
        let line = rank * CONNECTIONS + self.c;
        let put = (self.rng.unit() < self.write_frac)
            .then(|| crate::dense_line(self.seed ^ line, self.rng.next_u64()));
        let request = match put {
            Some(data) => Request::Put { id, line, data },
            None => Request::Get { id, line },
        };
        (request, rank, put)
    }
}

/// What the open-loop probe saw.
pub struct Paced {
    /// Latency of every request from its scheduled send, ns.
    pub lat: Samples,
    /// How far past its schedule each request was sent, ns.
    pub late: Samples,
    pub tally: Tally,
}

/// A request the paced receiver is waiting on.
struct Pending {
    id: u64,
    rank: u64,
    put: Option<LineData>,
    due_ns: u64,
}

/// Drives the open loop at [`PACED_RATE`] for `duration` over fresh
/// connections to `addr`, whose lines must hold their initial values.
///
/// Each connection has a sender thread that sends request `k` only once
/// it is due (see [`crate::sched`]) and a receiver thread that blocks on
/// the socket, so a response is timed the moment it arrives.
pub fn paced(addr: SocketAddr, seed: u64, mix: Mix, duration: Duration, floor_ns: u64) -> Paced {
    let epoch = Instant::now() + Duration::from_millis(20);
    let end_ns = duration.as_nanos() as u64;
    let mut out = Paced {
        lat: Samples::default(),
        late: Samples::default(),
        tally: Tally::default(),
    };
    std::thread::scope(|s| {
        let conns: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || paced_connection(addr, seed, mix, c, epoch, end_ns)))
            .collect();
        for conn in conns {
            let (lat, late, tally) = conn.join().expect("paced connection");
            out.lat.merge(&lat);
            out.late.merge(&late);
            out.tally.merge(&tally);
        }
    });
    let min = out.lat.min().unwrap_or(0);
    if !round_trip_plausible(min, floor_ns) {
        eprintln!("paced latency {min} ns undercuts the idle PING floor {floor_ns} ns");
        out.tally.early += 1;
    }
    out
}

fn paced_connection(
    addr: SocketAddr,
    seed: u64,
    mix: Mix,
    c: u64,
    epoch: Instant,
    end_ns: u64,
) -> (Samples, Samples, Tally) {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let reader = stream.try_clone().expect("clone stream");
    let (tx, rx) = mpsc::channel::<Pending>();
    let ops = OpGen::new(seed, mix, c);
    std::thread::scope(|s| {
        let sender = s.spawn(move || send_loop(stream, ops, epoch, end_ns, tx));
        let (lat, mut tally, answered) = receive_loop(reader, golden_slice(seed, c), epoch, rx);
        let (sent, late) = sender.join().expect("sender thread");
        // The sender's count is authoritative; a request left unanswered
        // is a broken connection.
        tally.attempted = sent;
        tally.malformed += sent.saturating_sub(answered);
        (lat, late, tally)
    })
}

/// Sends the connection's share of the schedule; returns the number sent
/// and each send's lateness.
fn send_loop(
    mut stream: TcpStream,
    mut ops: OpGen,
    epoch: Instant,
    end_ns: u64,
    tx: mpsc::Sender<Pending>,
) -> (u64, Samples) {
    let schedule = Schedule::new(PACED_RATE, CONNECTIONS, ops.c);
    let mut late = Samples::default();
    let mut clock = WallClock(epoch);
    let mut frame = Vec::with_capacity(128);
    // The clock reads 0 until the epoch, so start no sooner.
    crate::sleep_until(epoch);
    let mut k = 0u64;
    loop {
        let due_ns = schedule.due_ns(k);
        if due_ns >= end_ns {
            break;
        }
        let (request, rank, put) = ops.next(k);
        frame.clear();
        request.encode(&mut frame);
        let sent_ns = wait_until(&mut clock, due_ns);
        if stream.write_all(&frame).is_err() {
            break;
        }
        late.record(sent_ns - due_ns);
        let pending = Pending {
            id: k,
            rank,
            put,
            due_ns,
        };
        if tx.send(pending).is_err() {
            break;
        }
        k += 1;
    }
    (k, late)
}

/// Decodes responses in order, matching each to its pending request;
/// returns the latencies, the tally, and how many were answered.
fn receive_loop(
    mut stream: TcpStream,
    mut golden: Vec<LineData>,
    epoch: Instant,
    rx: mpsc::Receiver<Pending>,
) -> (Samples, Tally, u64) {
    let mut lat = Samples::default();
    let mut tally = Tally::default();
    let mut answered = 0u64;
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut start = 0usize;
    let mut chunk = [0u8; 16 * 1024];
    'requests: for want in rx.iter() {
        let resp = loop {
            match decode_response(&buf[start..]) {
                Ok(Some((resp, used))) => {
                    start += used;
                    break resp;
                }
                Ok(None) => {
                    if start == buf.len() {
                        buf.clear();
                        start = 0;
                    }
                    match stream.read(&mut chunk) {
                        Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        _ => break 'requests,
                    }
                }
                Err(_) => break 'requests,
            }
        };
        let done_ns = epoch.elapsed().as_nanos() as u64;
        if resp.id != want.id {
            break;
        }
        answered += 1;
        lat.record(done_ns.saturating_sub(want.due_ns));
        check(&resp, want.put, &mut golden[want.rank as usize], &mut tally);
    }
    (lat, tally, answered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_response_faster_than_a_round_trip_is_rejected() {
        // A request sent at its first due time but timed from a later
        // one reads as ~1 ns; a real loopback round trip cannot.
        assert!(!round_trip_plausible(1, 18_000));
        assert!(!round_trip_plausible(8_999, 18_000));
        assert!(round_trip_plausible(9_000, 18_000));
        assert!(round_trip_plausible(15_500, 18_000));
    }
}
