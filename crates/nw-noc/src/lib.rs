//! Flit-accounted network-on-chip simulator.
//!
//! The paper (§6.1) names the NoC as "a key component of the MP-SoC
//! platform" and asks for characterization of "the various topologies —
//! ranging from bus, ring, tree to full-crossbar — and their effectiveness
//! for different application domains". This crate provides:
//!
//! * [`topology`] — graph builders for shared bus, ring, 2-D mesh, torus,
//!   fat tree (the SPIN network of §8 is a fat tree) and full crossbar,
//!   each routed deterministically by a function of its shape.
//! * [`engine`] — the cycle-stepped [`Noc`] engine: packet-granular virtual
//!   cut-through with credit back-pressure and bubble-rule injection.
//! * [`traffic`] — classical synthetic patterns (uniform, hotspot, neighbor,
//!   bit complement, transpose).
//! * [`sweep`] — open-loop load sweeps producing latency/throughput curves
//!   and saturation points (experiment F4).
//!
//! # Examples
//!
//! ```
//! use nw_noc::{Noc, NocConfig, Topology, TopologyKind};
//! use nw_types::{Cycles, NodeId, Payload};
//!
//! let topo = Topology::build(TopologyKind::FatTree, 16, 1)?;
//! assert_eq!(topo.hops(0, 15), 4); // leaf → root → leaf
//!
//! let mut noc = Noc::new(topo, NocConfig::default());
//! noc.try_inject(NodeId(0), NodeId(15), Payload::with_head(5, b"hello"), 0, Cycles(0)).unwrap();
//! for c in 0..100 { noc.tick(Cycles(c)); }
//! assert_eq!(noc.stats().delivered, 1);
//! # Ok::<(), nw_noc::topology::BuildTopologyError>(())
//! ```

pub mod engine;
pub mod packet;
pub mod sweep;
pub mod topology;
pub mod traffic;

pub use engine::{InjectError, Noc, NocConfig, NocConfigError, NocSpan, NocStats, NocWork};
pub use packet::{Packet, PacketId};
pub use sweep::{run_open_loop, saturation_load, OpenLoopConfig, OpenLoopResult};
pub use topology::{BuildTopologyError, Topology, TopologyKind};
pub use traffic::TrafficPattern;
