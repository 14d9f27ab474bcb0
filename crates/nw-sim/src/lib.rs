//! Deterministic cycle-stepped simulation kernel and statistics collectors.
//!
//! The nanowall platform simulator is *cycle-stepped*: every hardware
//! component implements [`Clocked`] and is advanced one clock cycle at a
//! time by its owner, in a fixed order. This gives bit-exact reproducibility
//! (the paper's exploration methodology depends on comparing configurations,
//! which is only meaningful when runs are deterministic) and makes
//! back-pressure between components trivial to express as bounded queues.
//!
//! For components whose behaviour is naturally "something completes N cycles
//! from now" (memory controllers, paced I/O), [`event::EventQueue`] provides
//! a deterministic time-ordered queue that is polled from the component's
//! `tick`.
//!
//! The [`stats`] module holds the measurement instruments every experiment
//! in the paper reproduction relies on: busy/idle [`stats::Utilization`],
//! latency [`stats::Histogram`]s and the sub-octave-resolution
//! [`stats::LatencyHistogram`] behind the per-invocation percentile
//! telemetry, throughput [`stats::Counter`]s and streaming means.
//!
//! [`pacer::Pacer`] is the exact integer rate accumulator behind line-rate
//! I/O and entry drives: `k` cycles in one jump equal `k` single ticks.
//!
//! # Examples
//!
//! ```
//! use nw_sim::{Clocked, Clock};
//! use nw_types::Cycles;
//!
//! struct Pulse { fired: u32 }
//! impl Clocked for Pulse {
//!     fn tick(&mut self, now: Cycles) {
//!         if now.0 % 10 == 0 { self.fired += 1; }
//!     }
//! }
//!
//! let mut clock = Clock::new();
//! let mut p = Pulse { fired: 0 };
//! for _ in 0..100 { p.tick(clock.now()); clock.advance(); }
//! assert_eq!(p.fired, 10);
//! ```

pub mod event;
pub mod pacer;
pub mod parallel;
pub mod pipeline;
pub mod stats;

pub use event::EventQueue;
pub use pacer::Pacer;
pub use parallel::{parallel_map, parallel_map_with, sweep_threads};
pub use pipeline::{PipelinedServer, ServerFull};
pub use stats::{
    summarize_replicas, Counter, Histogram, LatencyHistogram, OnlineMean, ReplicaSummary,
    Utilization,
};

use nw_types::Cycles;

/// A component advanced by the global platform clock.
///
/// Implementations must be *causal within a cycle*: during `tick(now)` a
/// component may consume inputs that were produced at cycles `< now` and
/// produce outputs that become visible at cycles `> now` (the platform
/// enforces this by ticking producers before consumers in a fixed order and
/// using queues between them).
pub trait Clocked {
    /// Advances the component by one clock cycle. `now` is the cycle that is
    /// currently executing.
    fn tick(&mut self, now: Cycles);
}

/// The global platform clock: a monotonically increasing cycle counter.
///
/// # Examples
///
/// ```
/// use nw_sim::Clock;
/// use nw_types::Cycles;
///
/// let mut c = Clock::new();
/// assert_eq!(c.now(), Cycles(0));
/// c.advance();
/// assert_eq!(c.now(), Cycles(1));
/// c.advance_by(Cycles(9));
/// assert_eq!(c.now(), Cycles(10));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: Cycles,
}

impl Clock {
    /// Creates a clock at cycle zero.
    pub fn new() -> Self {
        Clock { now: Cycles::ZERO }
    }

    /// The cycle currently executing.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Advances by one cycle.
    pub fn advance(&mut self) {
        self.now += Cycles(1);
    }

    /// Advances by `d` cycles.
    pub fn advance_by(&mut self, d: Cycles) {
        self.now += d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountUp(u64);
    impl Clocked for CountUp {
        fn tick(&mut self, _now: Cycles) {
            self.0 += 1;
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new();
        let mut last = c.now();
        for _ in 0..5 {
            c.advance();
            assert!(c.now() > last);
            last = c.now();
        }
    }

    #[test]
    fn clocked_trait_object_works() {
        let mut items: Vec<Box<dyn Clocked>> = vec![Box::new(CountUp(0)), Box::new(CountUp(10))];
        let mut clock = Clock::new();
        for _ in 0..3 {
            for it in items.iter_mut() {
                it.tick(clock.now());
            }
            clock.advance();
        }
        assert_eq!(clock.now(), Cycles(3));
    }
}
