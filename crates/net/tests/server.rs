//! End-to-end wire tests: a real [`Service`] behind a real [`NetServer`]
//! on an ephemeral loopback port, driven by [`WireClient`]s over actual
//! TCP — round trips, pipelining, typed failure statuses, malformed-frame
//! handling, backpressure shed, and graceful drain.

use std::io::Write as _;
use std::time::{Duration, Instant};
use sudoku_codes::LineData;
use sudoku_net::{decode_response, NetConfig, NetServer, Request, Status, WireClient, TRACE_NONE};
use sudoku_svc::{Service, ServiceConfig};

const LINES: u64 = 256;

fn start(n_shards: usize) -> (Service, NetServer) {
    let service = Service::start(ServiceConfig::small(LINES, n_shards, 0.0, 7))
        .expect("valid service config");
    let server = NetServer::start(service.handle(), NetConfig::default()).expect("ephemeral bind");
    (service, server)
}

fn patterned(seed: u64) -> LineData {
    let mut data = LineData::zero();
    data.set_bit((seed as usize).wrapping_mul(31) % 512, true);
    data.set_bit((seed as usize).wrapping_mul(7 + 1) % 512, true);
    data
}

#[test]
fn put_get_round_trip_over_tcp() {
    let (service, server) = start(4);
    let mut client = WireClient::connect(server.addr(), Some(Duration::from_secs(1))).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for line in 0..32u64 {
        let data = patterned(line);
        let put = client.put(line, &data).unwrap();
        assert_eq!(put.status, Status::Ok, "line {line}");
        assert_ne!(put.trace, TRACE_NONE, "PUT must carry a service trace");
        let got = client.get(line).unwrap();
        assert_eq!(got.status, Status::Ok, "line {line}");
        assert_eq!(got.line_data(), Some(data), "line {line}");
        assert_ne!(got.trace, TRACE_NONE, "GET must carry a service trace");
    }
    let ping = client.ping().unwrap();
    assert_eq!(ping.status, Status::Ok);
    assert!(ping.body.is_empty());
    drop(client);
    server.shutdown();
    let report = service.shutdown();
    assert_eq!(report.reads, 32);
    assert_eq!(report.writes, 32);
}

#[test]
fn pipelined_burst_answers_every_id_in_order() {
    let (service, server) = start(2);
    let mut client = WireClient::connect(server.addr(), Some(Duration::from_secs(1))).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // One write_all carrying 64 interleaved GET/PUT frames; responses come
    // back in order, each echoing its client-chosen ID.
    let burst: Vec<Request> = (0..64u64)
        .map(|i| {
            let id = 1000 + i;
            if i % 2 == 0 {
                Request::Put {
                    id,
                    line: i % LINES,
                    data: patterned(i),
                }
            } else {
                Request::Get {
                    id,
                    line: (i - 1) % LINES,
                }
            }
        })
        .collect();
    client.send(&burst).unwrap();
    for (i, want) in burst.iter().enumerate() {
        let resp = client.recv().unwrap();
        assert_eq!(resp.id, want.id(), "response {i} answers in order");
        assert_eq!(resp.status, Status::Ok, "response {i}");
    }
    let frames = service.handle().registry().net_frames.get();
    assert_eq!(frames, 64);
    server.shutdown();
    service.shutdown();
}

#[test]
fn stats_frame_returns_snapshot_json() {
    let (service, server) = start(2);
    let mut client = WireClient::connect(server.addr(), Some(Duration::from_secs(1))).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    client.put(3, &patterned(3)).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.status, Status::Ok);
    let body = String::from_utf8(stats.body).expect("STATS body is JSON text");
    assert!(body.starts_with('{'), "{body}");
    assert!(body.contains("\"writes\":1"), "{body}");
    assert!(body.contains("\"net_frames\""), "{body}");
    // The same document as /snapshot.json, audit section included.
    assert!(body.contains("\"audit\":{"), "{body}");
    server.shutdown();
    service.shutdown();
}

#[test]
fn malformed_frame_gets_typed_refusal_then_close_not_a_reset() {
    let (service, server) = start(2);
    // A raw socket so we can write hostile bytes the client type refuses
    // to construct.
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // A well-formed PING first, then a frame with a hostile opcode.
    let mut bytes = Vec::new();
    Request::Ping { id: 42 }.encode(&mut bytes);
    bytes.extend_from_slice(&9u32.to_le_bytes());
    bytes.push(0xAB); // unknown opcode
    bytes.extend_from_slice(&[0u8; 8]);
    raw.write_all(&bytes).unwrap();
    // The server answers the PING, sends a typed MALFORMED refusal, then
    // closes cleanly — a clean EOF after the refusal, not a reset
    // mid-frame.
    let mut got = Vec::new();
    use std::io::Read as _;
    let eof = loop {
        let mut chunk = [0u8; 4096];
        match raw.read(&mut chunk) {
            Ok(0) => break true,
            Ok(n) => got.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("expected clean EOF after refusal, got {e}"),
        }
    };
    assert!(eof);
    let (ping, used) = decode_response(&got).unwrap().expect("PING response");
    assert_eq!(ping.id, 42);
    assert_eq!(ping.status, Status::Ok);
    let (refusal, used2) = decode_response(&got[used..]).unwrap().expect("refusal");
    assert_eq!(refusal.status, Status::Malformed);
    assert_eq!(used + used2, got.len(), "nothing after the refusal");
    assert_eq!(service.handle().registry().net_malformed.get(), 1);
    server.shutdown();
    service.shutdown();
}

#[test]
fn worker_panic_surfaces_as_typed_shard_down_status() {
    let (service, server) = start(4);
    let handle = service.handle();
    let mut client = WireClient::connect(server.addr(), Some(Duration::from_secs(1))).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Find a line owned by shard 0, then kill shard 0's worker.
    let victim_line = (0..LINES)
        .find(|&l| handle.shard_of(l) == 0)
        .expect("some line maps to shard 0");
    assert_eq!(
        client.put(victim_line, &patterned(1)).unwrap().status,
        Status::Ok
    );
    handle.inject_worker_panic(0, false).unwrap();
    // The panic lands when a worker pops it; poll over the wire until the
    // quarantine surfaces as a typed status on this live connection.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut saw_shard_down = false;
    while Instant::now() < deadline {
        let resp = client.get(victim_line).unwrap();
        match resp.status {
            Status::ShardDown => {
                assert_eq!(resp.shard(), Some(0), "SHARD_DOWN names the shard");
                saw_shard_down = true;
                break;
            }
            Status::Ok | Status::Retry => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert!(saw_shard_down, "quarantine never surfaced on the wire");
    // The other shards keep serving on the same connection.
    let alive_line = (0..LINES)
        .find(|&l| handle.shard_of(l) != 0)
        .expect("some line maps elsewhere");
    assert_eq!(client.get(alive_line).unwrap().status, Status::Ok);
    server.shutdown();
    service.shutdown();
}

#[test]
fn graceful_drain_refuses_new_frames_with_shutting_down() {
    let (service, server) = start(2);
    let addr = server.addr();
    let mut client = WireClient::connect(addr, Some(Duration::from_secs(1))).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(client.ping().unwrap().status, Status::Ok);
    // Drain in the background while the client keeps talking.
    let drain = std::thread::spawn(move || server.shutdown());
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut refused = false;
    while Instant::now() < deadline {
        match client.ping() {
            Ok(resp) if resp.status == Status::ShuttingDown => {
                refused = true;
                break;
            }
            Ok(_) => {}
            // The drain closes the connection once flushed; either typed
            // refusal or clean EOF is a correct ending — never a hang.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => break,
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("unexpected transport error: {e}"),
        }
    }
    drain.join().unwrap();
    // New connections are refused during/after the drain.
    let late = WireClient::connect(addr, Some(Duration::from_millis(250)));
    if let Ok(mut late) = late {
        late.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        assert!(
            late.ping().is_err() || refused,
            "a post-drain connection must not be served"
        );
    }
    service.shutdown();
}

#[test]
fn net_counters_track_connections_and_frames() {
    let (service, server) = start(2);
    let reg = std::sync::Arc::clone(service.handle().registry());
    {
        let mut a = WireClient::connect(server.addr(), Some(Duration::from_secs(1))).unwrap();
        let mut b = WireClient::connect(server.addr(), Some(Duration::from_secs(1))).unwrap();
        a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(a.ping().unwrap().status, Status::Ok);
        assert_eq!(b.ping().unwrap().status, Status::Ok);
        let deadline = Instant::now() + Duration::from_secs(2);
        while reg.net_open_connections.get() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(reg.net_connections.get(), 2);
        assert_eq!(reg.net_open_connections.get(), 2);
        assert_eq!(reg.net_frames.get(), 2);
    }
    // Dropped clients close; the open-connection gauge drains to zero.
    let deadline = Instant::now() + Duration::from_secs(2);
    while reg.net_open_connections.get() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(reg.net_open_connections.get(), 0);
    assert_eq!(reg.net_connections.get(), 2);
    server.shutdown();
    service.shutdown();
}
