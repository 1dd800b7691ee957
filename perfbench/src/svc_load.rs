//! The closed-loop service workload (`svc_read_hot`): client threads
//! calling `ServiceHandle` in process, each on its own slice of lines with
//! a golden copy of every value it wrote. Reads are the headline op.

use crate::host::thread_cpu_s;
use crate::report::Tally;
use crate::trace::{Kind, Span, SpanBuf};
use crate::workload::{self, Mix, Run, SliceRecorder, WindowSpec, CLIENTS, LINES};
use crate::Rng;
use std::time::{Duration, Instant};
use sudoku_codes::LineData;
use sudoku_sim::ZipfGen;
use sudoku_svc::ServiceHandle;

struct ClientOut {
    slices: SliceRecorder,
    tally: Tally,
    spans: SpanBuf,
    cpu_s: f64,
}

/// Runs the workload for `windows`.
pub fn run(seed: u64, mix: Mix, windows: &[WindowSpec]) -> Run {
    let (service, setup_s) = workload::timed(|| workload::start_prefilled(seed, true));
    let registry = service.registry().clone();
    let epoch = Instant::now() + Duration::from_millis(2);
    let traced = workload::traced_slices(windows);
    let (outs, (cpu_marks, scrub_marks)) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = service.handle();
                let traced = &traced;
                s.spawn(move || client(&handle, seed, mix, c, epoch, traced))
            })
            .collect();
        let marks = workload::mark_slices(epoch, traced.len(), || registry.scrub_lines_swept.get());
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (outs, marks)
    });
    let counters = workload::shutdown_counting(service);
    let mut recorders = Vec::with_capacity(outs.len());
    let mut run = Run {
        setup_s,
        windows: Vec::new(),
        tally: Tally::default(),
        counters: Some(counters),
        client_cpu_s: 0.0,
        spans: Vec::new(),
    };
    for out in outs {
        run.tally.merge(&out.tally);
        run.client_cpu_s += out.cpu_s;
        run.spans.extend(out.spans.spans);
        recorders.push(out.slices);
    }
    run.windows = workload::windows_from_slices(windows, &recorders, &cpu_marks, &scrub_marks);
    run
}

/// One closed-loop client: its slice is the lines `≡ c (mod CLIENTS)`.
fn client(
    handle: &ServiceHandle,
    seed: u64,
    mix: Mix,
    c: u64,
    epoch: Instant,
    traced: &[bool],
) -> ClientOut {
    let span = LINES / CLIENTS;
    let mut golden: Vec<LineData> = (0..span)
        .map(|rank| workload::initial_value(seed, rank * CLIENTS + c))
        .collect();
    let mut zipf = ZipfGen::new(span, mix.theta, seed ^ (c + 1) << 32);
    let mut rng = Rng::new(seed ^ 0xC11E_0000 ^ c);
    let mut slices = SliceRecorder::new(epoch, traced.len());
    let mut tally = Tally::default();
    let mut spans = SpanBuf::default();
    let end = epoch + workload::SLICE * traced.len() as u32;
    crate::sleep_until(epoch);
    let cpu0 = thread_cpu_s();
    loop {
        let rank = zipf.next_rank();
        let line = rank * CLIENTS + c;
        let write = rng.unit() < mix.write_frac;
        let t0 = Instant::now();
        let (trace, t1) = if write {
            let data = crate::dense_line(seed ^ line, rng.next_u64());
            let (trace, result) = handle.write_traced(line, &data);
            let t1 = Instant::now();
            match result {
                Ok(()) => golden[rank as usize] = data,
                Err(_) => tally.shed += 1,
            }
            (trace, t1)
        } else {
            let (trace, result) = handle.read_traced(line);
            let t1 = Instant::now();
            match result {
                Ok(got) if got == golden[rank as usize] => {}
                Ok(_) => tally.sdc += 1,
                Err(e) if e.is_due() => tally.due += 1,
                Err(_) => tally.shed += 1,
            }
            (trace, t1)
        };
        tally.attempted += 1;
        slices.record(t1, (!write).then(|| (t1 - t0).as_nanos() as u64));
        if traced[slices.slice_of(t1)] {
            spans.push(Span {
                kind: if write { Kind::Write } else { Kind::Read },
                start_ns: (t0 - epoch).as_nanos() as u64,
                end_ns: (t1 - epoch).as_nanos() as u64,
                trace: trace.unwrap_or(u64::MAX),
            });
        }
        if t1 >= end {
            break;
        }
    }
    ClientOut {
        slices: slices.finish(),
        tally,
        spans,
        cpu_s: thread_cpu_s() - cpu0,
    }
}
