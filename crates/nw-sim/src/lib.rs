//! Deterministic cycle-stepped simulation kernel and statistics collectors.
//!
//! The nanowall platform simulator is *cycle-stepped*: every hardware
//! component has a `tick(now)` that advances it one clock cycle, called by
//! its owner in a fixed order. This gives bit-exact reproducibility (the
//! paper's exploration methodology depends on comparing configurations,
//! which is only meaningful when runs are deterministic) and makes
//! back-pressure between components trivial to express as bounded queues.
//! A tick is *causal within a cycle*: during `tick(now)` a component
//! consumes inputs produced at cycles `< now` and produces outputs visible
//! at cycles `> now`.
//!
//! For components whose behaviour is naturally "something completes N cycles
//! from now" (memory controllers, pipelined servers), [`event::EventQueue`]
//! provides a deterministic time-ordered queue that is polled from the
//! component's `tick`; [`pipeline::PipelinedServer`] is the timing skeleton
//! of the eFPGA and hardwired service nodes.
//!
//! The [`stats`] module holds the measurement instruments every experiment
//! in the paper reproduction relies on: busy/idle [`stats::Utilization`],
//! exact latency [`stats::Moments`] (count, sum, min, max), the
//! sub-octave-resolution [`stats::LatencyHistogram`] behind the
//! per-invocation percentile telemetry, and the spread of a statistic
//! across replicas ([`stats::summarize_replicas`]). Event counts
//! are plain `u64` fields.
//!
//! [`pacer::Pacer`] is the exact integer rate accumulator behind line-rate
//! I/O: `k` cycles in one jump equal `k` single ticks.
//!
//! [`fnv::Fnv1a`] is the hash behind every recorded digest in the
//! workspace's golden tables.
//!
//! # Examples
//!
//! ```
//! use nw_sim::Utilization;
//! use nw_types::Cycles;
//!
//! struct Pulse { busy: Utilization }
//! impl Pulse {
//!     fn tick(&mut self, now: Cycles) {
//!         if now.0 % 10 == 0 { self.busy.busy() } else { self.busy.idle() }
//!     }
//! }
//!
//! let mut p = Pulse { busy: Utilization::new() };
//! for c in 0..100 { p.tick(Cycles(c)); }
//! assert_eq!(p.busy.busy_cycles(), 10);
//! assert!((p.busy.fraction() - 0.1).abs() < 1e-12);
//! ```

pub mod event;
pub mod fnv;
pub mod pacer;
pub mod parallel;
pub mod pipeline;
pub mod stats;

pub use event::EventQueue;
pub use fnv::Fnv1a;
pub use pacer::Pacer;
pub use parallel::{parallel_map_with, sweep_threads};
pub use pipeline::{PipelinedServer, ServerFull};
pub use stats::{summarize_replicas, LatencyHistogram, Moments, ReplicaSummary, Utilization};
