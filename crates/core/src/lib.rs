//! nanowall — the FPPA platform of "System-on-Chip Beyond the Nanometer
//! Wall" (Magarshack & Paulin, DAC 2003), reproduced as a Rust library.
//!
//! The paper's Figure 2 sketches a *Field-Programmable Processor Array*
//! (FPPA): configurable multi-threaded processors, a network-on-chip, an
//! embedded FPGA, standardized hardware IP and line-rate I/O — programmed
//! through the DSOC distributed-object model and mapped automatically by
//! MultiFlex-style tools. This crate assembles exactly that system from the
//! workspace substrates:
//!
//! * [`config`] — [`FppaConfig`]: declare the platform (topology, technology
//!   node, PEs, memories, eFPGA, hardware IP, I/O channels).
//! * [`platform`] — [`FppaPlatform`]: the cycle-stepped machine, with every
//!   node class serviced behind the NoC.
//! * [`fabric`] — the §6.3 embedded FPGA: [`fabric::FabricSpec`], kernels
//!   mapped onto it and the cycle-stepped [`fabric::Efpga`] node. Line-rate
//!   I/O channels ([`IoChannel`](prelude::IoChannel), §6.4) and seeded
//!   [`FaultCampaign`]s live beside it.
//! * [`runtime`] — the DSOC runtime: installs an application + placement,
//!   synthesizes PE micro-op handler programs per invocation, marshals
//!   messages over the NoC, dispatches onto hardware threads, and services
//!   replies.
//! * [`report`] — [`PlatformReport`]: utilization, throughput, latency and
//!   energy after a run.
//! * [`scenarios`] — prebuilt rigs for the paper's experiments (the IPv4
//!   fast path at 10 Gb/s, the latency-hiding sweep, the Figure 2 tour,
//!   and the §7.1 application workloads from `nw-apps` — video codec,
//!   modem baseband, crypto offload), cataloged by name in the
//!   [`ScenarioRegistry`].
//!
//! # Quickstart
//!
//! ```
//! use nanowall::prelude::*;
//! use nw_types::BitsPerSec;
//!
//! // A small FPPA: 4 dual-threaded RISC cores on a mesh, and an I/O
//! // channel delivering a 40-byte packet every 100 cycles.
//! let mut cfg = FppaConfig::new("quickstart", TopologyKind::Mesh);
//! for _ in 0..4 {
//!     cfg.add_pe(PeConfig::new(PeClass::GpRisc, 2));
//! }
//! let clock_hz = cfg.tech.nominal_clock_hz();
//! cfg.add_io(IoChannelConfig {
//!     rate: BitsPerSec(40.0 * 8.0 * clock_hz / 100.0),
//!     clock_hz,
//!     ..IoChannelConfig::ten_gbe_worst_case() // 40-byte packets
//! });
//!
//! // A two-object ping-pong application.
//! let mut b = Application::builder("pingpong");
//! let ping = b.add_object(ObjectDef::new("ping").with_method(
//!     MethodDef::oneway("go", 16).with_compute(50),
//! ));
//! let pong = b.add_object(ObjectDef::new("pong").with_method(
//!     MethodDef::oneway("ack", 16).with_compute(50),
//! ));
//! b.connect(ping, 0, pong, 0, 1.0);
//! b.entry(ping, 0);
//! let app = b.build()?;
//!
//! let mut platform = FppaPlatform::new(cfg)?;
//! platform.install_app(&app, &[0, 3])?;           // ping on pe0, pong on pe3
//! platform.bind_io_entry(0, ping)?;              // 1 invocation per packet
//! let report = platform.run(20_000);
//! assert_eq!(report.io[0].generated, 200);
//! assert!(report.tasks_completed > 300);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod calls;
pub mod config;
mod controller;
pub mod fabric;
mod faults;
mod io;
pub mod platform;
pub mod report;
pub mod resilience;
pub mod runtime;
pub mod scenarios;
mod services;
pub mod tags;

pub use config::{BuildPlatformError, FppaConfig, HwIpConfig, MemoryBlockConfig};
/// Why an I/O channel cannot be paced ([`BuildPlatformError::Io`]).
pub use io::IoConfigError;
/// Why a NoC timing configuration cannot move traffic
/// ([`BuildPlatformError::Noc`]).
pub use nw_noc::NocConfigError;
/// The NoC's share of [`SchedulerStats`].
pub use nw_noc::NocWork;
pub use platform::{FppaPlatform, NodeRole, PlatformSnapshot, SchedulerMode, SchedulerStats};
pub use report::{ObjectLatency, PlatformReport};
pub use resilience::{ResilienceStats, RetryPolicy};
pub use runtime::{InstallError, ServiceBinding};
pub use scenarios::{ScenarioRegistry, ScenarioRig, ScenarioSpec};

/// Observability re-exports: the sim-domain trace taxonomy/sinks and the
/// host-domain phase profiler consumed through
/// [`FppaPlatform::set_trace_sink`] / [`FppaPlatform::set_host_profiler`].
pub use nw_obs::{
    export_chrome_trace, validate_chrome_trace, HostPhase, HostProfiler, NocHeatmap, PhaseSlice,
    ProfileReport, RingBufferSink, TraceEvent, TraceSink,
};

/// Fault-injection re-exports: deterministic campaign generation consumed
/// through [`FppaPlatform::install_fault_campaign`].
pub use faults::{FabricShape, FaultCampaign, FaultEvent, FaultKind, FaultRates};

/// The convenient single import for examples and experiments.
pub mod prelude {
    pub use crate::fabric::{FabricSpec, KernelSpec};
    pub use crate::io::{IoChannel, IoChannelConfig};
    pub use crate::{FppaConfig, FppaPlatform, NodeRole, PlatformReport, SchedulerMode};
    pub use nw_dsoc::{Application, Domain, MethodDef, ObjectDef};
    pub use nw_noc::{NocConfig, TopologyKind};
    pub use nw_pe::{PeClass, PeConfig, SchedPolicy};
    pub use nw_types::{Cycles, MemoryTechnology, NodeId, ObjectId, TechNode};
}
