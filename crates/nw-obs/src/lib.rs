//! Observability for the platform simulator: deterministic trace events,
//! contention heatmaps, Chrome/Perfetto trace export, and a host-side
//! phase profiler.
//!
//! Two strictly separated domains live here:
//!
//! * **Sim-domain tracing** ([`TraceEvent`], [`TraceSink`],
//!   [`RingBufferSink`], [`NocHeatmap`]) — cycle-stamped structured events
//!   the platform emits while simulating. Everything in this half is a pure
//!   *observer*: events are derived from simulation state, never fed back
//!   into it, so a traced run is bit-identical to an untraced one (pinned
//!   by `expt parity`'s traced cells). Sinks are threaded as
//!   `Option<&mut dyn TraceSink>`; the disabled path is a single `None`
//!   check with no allocation.
//! * **Host-domain profiling** ([`HostProfiler`], [`HostPhase`]) — wall
//!   clock attribution of the scheduler main loop into named phases. This
//!   is the *only* non-bench code in the workspace allowed to read the
//!   wall clock: [`profile`] opens with an
//!   `#![expect(clippy::disallowed_methods)]` that grants it ND02 (the
//!   root `clippy.toml`'s wall-clock ban), because readings land
//!   exclusively in observability reports, never in simulation state.
//!
//! [`export_chrome_trace`] renders captured events as Chrome trace-event /
//! Perfetto JSON (one simulated cycle = one microsecond of trace time),
//! and [`validate_chrome_trace`] re-parses such a file with a
//! dependency-free JSON reader, checking timestamp monotonicity and
//! begin/end span pairing — the trace smoke tests' oracle.

pub mod event;
pub mod heatmap;
pub mod perfetto;
pub mod profile;

pub use event::{RingBufferSink, TraceEvent, TraceSink};
pub use heatmap::{LinkLoad, NocHeatmap, RouterLoad};
pub use perfetto::{export_chrome_trace, validate_chrome_trace, TraceCheck};
pub use profile::{HostPhase, HostProfiler, PhaseSlice, ProfileReport};
