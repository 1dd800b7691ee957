//! Open-loop schedule arithmetic and never-early pacing.
//!
//! A paced client sends request `k` at an absolute offset from the run's
//! start, computed from `k` alone (no accumulated sleep drift), and never
//! before that offset: a sleep that wakes early is slept again. Latency is
//! then timed from the scheduled offset, so a stall that delays later
//! sends is charged to those requests instead of vanishing.

use std::time::{Duration, Instant};

/// One client's share of a global open-loop schedule of `rate` requests
/// per second, interleaved over `stride` clients: client `phase` sends the
/// global requests `phase, phase + stride, phase + 2·stride, …`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    rate: u64,
    stride: u64,
    phase: u64,
}

impl Schedule {
    /// # Panics
    ///
    /// On a zero rate or stride, or a phase outside `0..stride`.
    pub fn new(rate: u64, stride: u64, phase: u64) -> Schedule {
        assert!(rate > 0 && stride > 0 && phase < stride, "bad schedule");
        Schedule {
            rate,
            stride,
            phase,
        }
    }

    /// Offset from the start, in nanoseconds, at which request `k` of this
    /// client is due.
    pub fn due_ns(&self, k: u64) -> u64 {
        let global = u128::from(k) * u128::from(self.stride) + u128::from(self.phase);
        (global * 1_000_000_000 / u128::from(self.rate)) as u64
    }
}

/// The time source pacing runs against (a fake one in tests).
pub trait Clock {
    /// Nanoseconds since the run's start.
    fn now_ns(&self) -> u64;
    /// Sleeps roughly `ns` nanoseconds; may wake early or late.
    fn sleep_ns(&mut self, ns: u64);
}

/// The wall clock, measured from `start`.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_ns(&mut self, ns: u64) {
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

/// Blocks until `due_ns` has passed and returns the send time, which is
/// never earlier than `due_ns`.
pub fn wait_until(clock: &mut impl Clock, due_ns: u64) -> u64 {
    loop {
        let now = clock.now_ns();
        if now >= due_ns {
            return now;
        }
        clock.sleep_ns(due_ns - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_clients_cover_the_global_schedule_without_drift() {
        // 25,000 req/s over two clients: one request every 40 µs overall.
        let a = Schedule::new(25_000, 2, 0);
        let b = Schedule::new(25_000, 2, 1);
        assert_eq!(a.due_ns(0), 0);
        assert_eq!(b.due_ns(0), 40_000);
        assert_eq!(a.due_ns(1), 80_000);
        // One hour in, the offset is still exact.
        let k = 25_000 * 3600 / 2;
        assert_eq!(a.due_ns(k), 3600 * 1_000_000_000);
        let mut merged: Vec<u64> = (0..100).flat_map(|k| [a.due_ns(k), b.due_ns(k)]).collect();
        merged.sort_unstable();
        let expected: Vec<u64> = (0..200).map(|g| g * 40_000).collect();
        assert_eq!(merged, expected);
    }

    #[test]
    fn uneven_rates_round_each_offset_independently() {
        let s = Schedule::new(3, 1, 0);
        assert_eq!(s.due_ns(1), 333_333_333);
        assert_eq!(s.due_ns(2), 666_666_666);
        assert_eq!(s.due_ns(3), 1_000_000_000);
    }

    /// A clock whose sleeps wake up to `early_ns` before the request.
    struct EarlyClock {
        now: u64,
        early_ns: u64,
    }

    impl Clock for EarlyClock {
        fn now_ns(&self) -> u64 {
            self.now
        }

        fn sleep_ns(&mut self, ns: u64) {
            self.now += ns.saturating_sub(self.early_ns).max(1);
        }
    }

    #[test]
    fn pacing_never_sends_before_the_due_time() {
        let schedule = Schedule::new(12_500, 1, 0);
        let mut clock = EarlyClock {
            now: 0,
            early_ns: 30_000,
        };
        for k in 0..1000 {
            let due = schedule.due_ns(k);
            let sent = wait_until(&mut clock, due);
            assert!(sent >= due, "request {k} sent at {sent} < due {due}");
        }
        // A client already behind schedule sends at once.
        let mut late = EarlyClock {
            now: 5_000_000,
            early_ns: 0,
        };
        assert_eq!(wait_until(&mut late, 1_000), 5_000_000);
    }
}
