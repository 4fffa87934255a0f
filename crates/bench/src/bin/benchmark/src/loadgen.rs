//! Open-loop load generation: requests are due on a fixed schedule
//! whether or not the previous one has finished, and each is timed from
//! its due time, so a stall is charged to every request queued behind it.
//! Latencies are in reference-core seconds (see [`crate::pace`]);
//! lateness, the generator's own health, stays in wall-clock seconds.

use std::time::Instant;

/// Time source of the scheduler, in seconds.
pub trait Clock {
    /// The current time.
    fn now(&self) -> f64;
    /// Returns once `now() >= t`; at once if `t` has passed.
    fn wait_until(&self, t: f64);
    /// Reference-core seconds per clock second now; called between
    /// requests.
    fn scale(&self) -> f64;
}

/// Wall clock; waits by spinning, since a sleep overshoots by more than a
/// request takes.
pub struct WallClock(Instant);

impl WallClock {
    pub fn new() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn wait_until(&self, t: f64) {
        while self.now() < t {
            std::hint::spin_loop();
        }
    }

    fn scale(&self) -> f64 {
        crate::pace::scale()
    }
}

/// One open-loop request, in clock seconds, and the clock's scale when it
/// ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    pub due: f64,
    pub start: f64,
    pub end: f64,
    pub scale: f64,
}

impl Timed {
    /// Latency counted from the due time, in reference-core seconds.
    pub fn latency(&self) -> f64 {
        self.wall_latency() * self.scale
    }

    /// Latency counted from the due time, in clock seconds.
    pub fn wall_latency(&self) -> f64 {
        self.end - self.due
    }

    /// How late the generator started the request.
    pub fn lateness(&self) -> f64 {
        self.start - self.due
    }
}

/// Issues requests `0..n`, request `i` due `due(i)` seconds from now (a
/// non-decreasing schedule), stopping early once a due time reaches
/// `deadline`; `work(i)` serves request `i`.
pub fn run<C: Clock>(
    clock: &C,
    n: usize,
    due: impl Fn(usize) -> f64,
    deadline: f64,
    mut work: impl FnMut(usize),
) -> Vec<Timed> {
    let t0 = clock.now();
    let mut out = Vec::new();
    for i in 0..n {
        let due = t0 + due(i);
        if due >= deadline {
            break;
        }
        clock.wait_until(due);
        let start = clock.now();
        work(i);
        let end = clock.now();
        out.push(Timed {
            due,
            start,
            end,
            scale: clock.scale(),
        });
    }
    out
}

/// Backlog growth: the median lateness of the last tenth of the requests
/// exceeds that of the first tenth by more than `slack` seconds.
pub fn backlog_growing(timed: &[Timed], slack: f64) -> bool {
    let tenth = (timed.len() / 10).max(1);
    if timed.len() < 2 * tenth {
        return false;
    }
    let late = |part: &[Timed]| {
        crate::stats::median(&part.iter().map(Timed::lateness).collect::<Vec<_>>())
    };
    late(&timed[timed.len() - tenth..]) > late(&timed[..tenth]) + slack
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that moves only when told to, at the reference core's speed.
    struct FakeClock(Cell<f64>);

    impl FakeClock {
        fn advance(&self, dt: f64) {
            self.0.set(self.0.get() + dt);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }

        fn wait_until(&self, t: f64) {
            if self.0.get() < t {
                self.0.set(t);
            }
        }

        fn scale(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_behind_it() {
        let clock = FakeClock(Cell::new(0.0));
        let (interval, service, stall) = (200e-6, 100e-6, 1e-3);
        let every = |i: usize| i as f64 * interval;
        let timed = run(&clock, 40, every, f64::INFINITY, |i| {
            clock.advance(if i == 10 { service + stall } else { service });
        });
        assert_eq!(timed.len(), 40);
        let lat: Vec<f64> = timed.iter().map(Timed::latency).collect();
        assert!((lat[9] - service).abs() < 1e-12);
        assert!((lat[10] - (service + stall)).abs() < 1e-12);
        // The backlog drains by interval − service per request: request
        // 10 + k still carries stall − k·(interval − service).
        for k in 1..10 {
            let carried = stall - k as f64 * (interval - service);
            assert!(
                (lat[10 + k] - (service + carried)).abs() < 1e-12,
                "request {}",
                10 + k
            );
            assert!(timed[10 + k].lateness() > 0.0);
        }
        assert!((lat[21] - service).abs() < 1e-12);
        assert!(!backlog_growing(&timed, 50e-6));
    }

    #[test]
    fn overload_is_a_growing_backlog_and_deadline_stops_issue() {
        let clock = FakeClock(Cell::new(0.0));
        let every = |i: usize| i as f64 * 200e-6;
        let timed = run(&clock, 1000, every, 0.0499, |_| clock.advance(300e-6));
        assert_eq!(timed.len(), 250, "requests due before the deadline");
        assert!(backlog_growing(&timed, 1e-3));
    }
}
