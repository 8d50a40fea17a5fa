//! Open-loop arrivals: a seeded Poisson schedule and the sender that
//! follows it. A request's latency counts from the instant it was
//! *due*, so when the sender falls behind (a stall, a slow submit) the
//! wait is charged to every request it delayed instead of vanishing.

use crate::rng::Rng;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the phase starts at which the request is due.
    pub due_s: f64,
    /// Index into the workload's query pool.
    pub query: usize,
}

/// Poisson arrivals at `rate` per second over `duration_s` seconds,
/// cycling through a pool of `pool` queries starting at a seeded offset.
pub fn poisson(rate: f64, duration_s: f64, pool: usize, seed: u64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let first = rng.below(pool);
    let mut out = Vec::with_capacity((rate * duration_s * 1.1) as usize + 8);
    let mut t = rng.exponential(rate);
    while t < duration_s {
        out.push(Arrival {
            due_s: t,
            query: (first + out.len()) % pool,
        });
        t += rng.exponential(rate);
    }
    out
}

/// The sender's view of time, so tests can drive it without sleeping.
pub trait Clock {
    /// Seconds since the phase started.
    fn now_s(&self) -> f64;
    /// Blocks until `now_s() >= t` (returns at once when already past).
    fn sleep_until(&self, t: f64);
}

/// Wall-clock time from a fixed start.
#[derive(Debug)]
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, t: f64) {
        let gap = t - self.now_s();
        if gap > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(gap));
        }
    }
}

/// Sends every arrival at its due time or, when running late, at once.
/// `send(index, sent_s)` submits request `index`; it is told when it was
/// actually sent. Returns how late each send was, in seconds.
pub fn drive<C: Clock>(
    clock: &C,
    schedule: &[Arrival],
    mut send: impl FnMut(usize, f64),
) -> Vec<f64> {
    let mut late = Vec::with_capacity(schedule.len());
    for (i, a) in schedule.iter().enumerate() {
        clock.sleep_until(a.due_s);
        let sent = clock.now_s();
        late.push((sent - a.due_s).max(0.0));
        send(i, sent);
    }
    late
}

/// Latency of a request counted from its due time: how late it was sent
/// plus what the service took from submit to completion.
pub fn latency_from_due_s(due_s: f64, sent_s: f64, service_s: f64) -> f64 {
    (sent_s - due_s).max(0.0) + service_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FakeClock(Cell<f64>);

    impl Clock for FakeClock {
        fn now_s(&self) -> f64 {
            self.0.get()
        }
        fn sleep_until(&self, t: f64) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    #[test]
    fn schedules_repeat_per_seed_and_keep_the_rate() {
        let a = poisson(200.0, 10.0, 512, 42);
        assert_eq!(a, poisson(200.0, 10.0, 512, 42));
        assert_ne!(a, poisson(200.0, 10.0, 512, 43));
        assert!(
            (a.len() as f64 - 2000.0).abs() < 150.0,
            "{} arrivals",
            a.len()
        );
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(a.iter().all(|x| x.due_s < 10.0 && x.query < 512));
        assert!(a.windows(2).all(|w| w[1].query == (w[0].query + 1) % 512));
    }

    #[test]
    fn a_stalled_sender_charges_the_wait_to_later_requests() {
        let schedule: Vec<Arrival> = (0..5)
            .map(|i| Arrival {
                due_s: i as f64 * 0.010,
                query: i,
            })
            .collect();
        let clock = FakeClock(Cell::new(0.0));
        let mut sent_at = Vec::new();
        let late = drive(&clock, &schedule, |i, sent| {
            sent_at.push(sent);
            // Request 1 stalls the sender for 25 ms; the others cost 1 ms.
            clock
                .0
                .set(clock.0.get() + if i == 1 { 0.025 } else { 0.001 });
        });
        let expect_sent = [0.0, 0.010, 0.035, 0.036, 0.040];
        for (got, want) in sent_at.iter().zip(expect_sent) {
            assert!((got - want).abs() < 1e-12, "sent {got}, want {want}");
        }
        let expect_late = [0.0, 0.0, 0.015, 0.006, 0.0];
        for (got, want) in late.iter().zip(expect_late) {
            assert!((got - want).abs() < 1e-12, "late {got}, want {want}");
        }
        // With a 2 ms service time, request 2 took 17 ms from when it was
        // due, although the service itself saw only 2 ms.
        let l = latency_from_due_s(schedule[2].due_s, sent_at[2], 0.002);
        assert!((l - 0.017).abs() < 1e-12);
    }
}
