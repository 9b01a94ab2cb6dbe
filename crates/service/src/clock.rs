//! Time sources for the service event loop.
//!
//! The loop is written against the [`Clock`] trait so the *same* service
//! code is both property-testable (deterministic [`SimClock`] — virtual
//! time that jumps instantly, optionally with seeded decision lag) and
//! actually runnable as a daemon ([`WallClock`] — real time with a
//! configurable speedup for trace replay).

use mris_rng::Rng;
use mris_types::Time;

/// A monotonic time source the service advances between events.
pub trait Clock {
    /// The current service time (normalized instance time units).
    fn now(&self) -> Time;

    /// Advances to at least `t` (blocking on a wall clock, jumping on a
    /// simulated one) and returns the new now. Implementations may
    /// overshoot — the event loop processes everything due by the returned
    /// instant — but must never return less than `max(t, now)`.
    fn advance_to(&mut self, t: Time) -> Time;

    /// How long a wall-clock caller should sleep before `t` is reached;
    /// `None` means no real waiting is needed (simulated time).
    fn wait_hint(&self, _t: Time) -> Option<std::time::Duration> {
        None
    }
}

/// Deterministic virtual time: `advance_to` jumps instantly.
///
/// With a seeded *decision lag* ([`SimClock::with_lag`]) every advance
/// overshoots its target by `U[0, max_lag)` drawn from an [`mris_rng`]
/// sub-stream — modelling a decision loop that reacts late — while staying
/// bit-reproducible per seed. The default lag is zero, which is what the
/// conservativity suite relies on.
#[derive(Debug, Clone)]
pub struct SimClock {
    now: Time,
    lag: Option<(Rng, Time)>,
}

impl SimClock {
    /// A lag-free virtual clock starting at time 0.
    pub fn new() -> Self {
        SimClock {
            now: 0.0,
            lag: None,
        }
    }

    /// A virtual clock whose every advance overshoots by a seeded uniform
    /// draw from `[0, max_lag)` — deterministic decision latency.
    ///
    /// # Panics
    ///
    /// If `max_lag` is negative or not finite.
    pub fn with_lag(seed: u64, max_lag: Time) -> Self {
        assert!(
            max_lag.is_finite() && max_lag >= 0.0,
            "max_lag must be finite and non-negative, got {max_lag}"
        );
        SimClock {
            now: 0.0,
            lag: (max_lag > 0.0).then(|| (Rng::new(seed).substream("sim-clock-lag"), max_lag)),
        }
    }
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock::new()
    }
}

impl Clock for SimClock {
    fn now(&self) -> Time {
        self.now
    }

    fn advance_to(&mut self, t: Time) -> Time {
        let mut target = t.max(self.now);
        if let Some((rng, max_lag)) = &mut self.lag {
            target += rng.gen_f64() * *max_lag;
        }
        self.now = target;
        self.now
    }

    fn wait_hint(&self, _t: Time) -> Option<std::time::Duration> {
        None
    }
}

/// Real time: one normalized time unit lasts `1 / speedup` wall seconds.
///
/// `advance_to` sleeps until the target instant has actually passed, so a
/// service driven by a `WallClock` behaves like a daemon: completions and
/// epoch boundaries fire when their real moment arrives.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: std::time::Instant,
    speedup: f64,
}

impl WallClock {
    /// Starts the clock now; `speedup` normalized time units elapse per
    /// wall second.
    ///
    /// # Panics
    ///
    /// If `speedup` is not finite and positive.
    pub fn new(speedup: f64) -> Self {
        assert!(
            speedup.is_finite() && speedup > 0.0,
            "speedup must be finite and positive, got {speedup}"
        );
        WallClock {
            origin: std::time::Instant::now(),
            speedup,
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> Time {
        self.origin.elapsed().as_secs_f64() * self.speedup
    }

    fn advance_to(&mut self, t: Time) -> Time {
        if let Some(wait) = self.wait_hint(t) {
            std::thread::sleep(wait);
        }
        self.now().max(t)
    }

    fn wait_hint(&self, t: Time) -> Option<std::time::Duration> {
        // Saturates: a target too far out for a `Duration` waits forever
        // rather than panicking.
        let remaining = t - self.now();
        (remaining > 0.0).then(|| {
            std::time::Duration::try_from_secs_f64(remaining / self.speedup)
                .unwrap_or(std::time::Duration::MAX)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_jumps_and_is_monotone() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), 0.0);
        assert_eq!(c.advance_to(5.0), 5.0);
        // Backwards targets clamp to the current now.
        assert_eq!(c.advance_to(1.0), 5.0);
        assert_eq!(c.now(), 5.0);
        assert_eq!(c.wait_hint(100.0), None);
    }

    #[test]
    fn wall_clock_wait_hint_saturates() {
        let c = WallClock::new(1.0);
        let max = Some(std::time::Duration::MAX);
        assert_eq!(c.wait_hint(f64::INFINITY), max);
        assert_eq!(c.wait_hint(1e300), max);
        assert_eq!(c.wait_hint(f64::NAN), None);
    }

    #[test]
    fn lagged_sim_clock_overshoots_deterministically() {
        let mut a = SimClock::with_lag(7, 0.5);
        let mut b = SimClock::with_lag(7, 0.5);
        for t in [1.0, 2.0, 10.0] {
            let (na, nb) = (a.advance_to(t), b.advance_to(t));
            assert_eq!(na.to_bits(), nb.to_bits(), "lag must be seed-stable");
            assert!(na >= t && na < t + 0.5);
        }
        // Zero lag degenerates to the plain clock.
        let mut c = SimClock::with_lag(7, 0.0);
        assert_eq!(c.advance_to(3.0), 3.0);
    }

    #[test]
    fn wall_clock_tracks_real_time() {
        let mut c = WallClock::new(1_000.0); // 1000 units per wall second
        let t0 = c.now();
        let reached = c.advance_to(t0 + 10.0); // 10 ms of wall time
        assert!(reached >= t0 + 10.0);
        assert!(c.wait_hint(c.now() - 1.0).is_none());
        assert!(c.wait_hint(c.now() + 1_000.0).unwrap().as_millis() <= 1_000);
    }
}
