//! Per-process virtual clocks.
//!
//! Every simulated process owns a [`VirtualClock`] measured in seconds of
//! simulated execution.  Computation advances it explicitly (via the work
//! model of the application layer); communication advances it through the
//! transport layer, which stamps each message with its arrival time and
//! synchronises the receiver's clock to `max(own, arrival)` when the message
//! is consumed.  This is the standard "logical execution time" construction:
//! the reported parallel time of a process is the virtual time at which it
//! finishes, and speedup is sequential virtual time over the maximum finish
//! time across processes.
//!
//! Clocks are advanced only by their owning process; cross-process ordering
//! of clock-dependent actions is the job of the conservative virtual-time
//! arbiter in `crate::sched`, which makes the whole construction
//! deterministic (bit-identical times across runs).

use std::cell::Cell;

/// A monotone virtual clock, in seconds.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: Cell<f64>,
}

impl VirtualClock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        VirtualClock {
            now: Cell::new(0.0),
        }
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.now.get()
    }

    /// Advance the clock by `dt` seconds of local activity.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or not finite.
    pub fn advance(&self, dt: f64) {
        assert!(dt.is_finite() && dt >= 0.0, "invalid clock advance: {dt}");
        self.now.set(self.now.get() + dt);
    }

    /// Synchronise the clock forward to `t` if `t` is later than now.
    /// Returns the amount of time the clock was idle-waiting (0 if none).
    pub fn sync_to(&self, t: f64) -> f64 {
        let now = self.now.get();
        if t > now {
            self.now.set(t);
            t - now
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.25);
        c.advance(0.75);
        assert!((c.now() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sync_only_moves_forward() {
        let c = VirtualClock::new();
        c.advance(5.0);
        assert_eq!(c.sync_to(3.0), 0.0);
        assert_eq!(c.now(), 5.0);
        let idle = c.sync_to(7.5);
        assert!((idle - 2.5).abs() < 1e-12);
        assert_eq!(c.now(), 7.5);
    }

    #[test]
    #[should_panic]
    fn negative_advance_panics() {
        VirtualClock::new().advance(-1.0);
    }
}
