//! Deterministic time for the supervisor and the daemon runtime.
//!
//! The [`Supervisor`](crate::Supervisor) has always taken a caller-supplied
//! millisecond timestamp, which keeps its unit tests free of real sleeps.
//! The socket runtime (`sdx-runtime`) needs a source for those timestamps
//! that it can swap out under test: [`SystemClock`] reads a monotonic
//! `Instant`, [`MockClock`] is advanced by hand, and everything downstream
//! — hold timers, keepalive cadence, flap-damping decay — behaves
//! identically under either.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic millisecond clock. Implementations must be cheap to call
/// and safe to share across threads.
pub trait Clock: Send + Sync {
    /// Milliseconds since an arbitrary (per-clock) epoch. Must never go
    /// backwards.
    fn now_ms(&self) -> u64;
}

/// Real time: milliseconds since the clock was constructed, backed by a
/// monotonic [`Instant`] so wall-clock adjustments cannot run timers
/// backwards.
#[derive(Clone, Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        SystemClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

/// Virtual time for tests: starts at zero, moves only when told to. Clones
/// share the same underlying instant, so a test can hand one copy to the
/// runtime and keep another to advance.
#[derive(Clone, Debug, Default)]
pub struct MockClock {
    now: Arc<AtomicU64>,
}

impl MockClock {
    /// A mock clock at t=0 ms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances virtual time by `ms` milliseconds.
    pub fn advance(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::SeqCst);
    }

    /// Jumps virtual time to an absolute value. Panics if that would move
    /// time backwards — the `Clock` contract is monotonic.
    pub fn set(&self, ms: u64) {
        let prev = self.now.swap(ms, Ordering::SeqCst);
        assert!(prev <= ms, "MockClock::set would move time backwards");
    }
}

impl Clock for MockClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

impl<C: Clock + ?Sized> Clock for Arc<C> {
    fn now_ms(&self) -> u64 {
        (**self).now_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_clock_advances_and_shares_state() {
        let clock = MockClock::new();
        let other = clock.clone();
        assert_eq!(clock.now_ms(), 0);
        clock.advance(250);
        assert_eq!(other.now_ms(), 250);
        other.set(1000);
        assert_eq!(clock.now_ms(), 1000);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn mock_clock_rejects_time_travel() {
        let clock = MockClock::new();
        clock.advance(10);
        clock.set(5);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.now_ms();
        let b = clock.now_ms();
        assert!(b >= a);
    }

    #[test]
    fn arc_dyn_clock_works() {
        let mock = MockClock::new();
        mock.advance(7);
        let shared: Arc<dyn Clock> = Arc::new(mock);
        assert_eq!(shared.now_ms(), 7);
    }
}
