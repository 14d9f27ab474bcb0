//! What nw-noc's integration tests share: the executable specification of
//! the engine's timing model ([`spec::Spec`]), and the one interface a test
//! drives either through ([`Fabric`]), so that a drive written once runs
//! the engine and the spec alike.

// Each test binary compiles this module and uses a part of it.
#![allow(dead_code)]

pub mod spec;

use nw_noc::{InjectError, Noc, NocStats, Packet, PacketId, Topology};
use nw_types::{Cycles, NodeId, Payload};

/// Everything a run counted: what [`Noc::stats`] reports, the transfers
/// fired and the arrivals taken ([`nw_noc::NocWork`]'s `fires` and
/// `arrivals`), and the fault tallies. The engine and the spec must agree
/// on all of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    pub stats: NocStats,
    pub fires: u64,
    pub arrivals: u64,
    pub dropped_packets: u64,
    pub dropped_flits: u64,
    pub corrupted_packets: u64,
}

/// A NoC a test can drive: the engine's public surface that the spec
/// reproduces. The methods mean what the [`Noc`] methods of the same names
/// document.
pub trait Fabric {
    fn topology(&self) -> &Topology;
    fn try_inject(
        &mut self,
        src: NodeId,
        dst: NodeId,
        data: Payload,
        tag: u64,
        now: Cycles,
    ) -> Result<PacketId, InjectError>;
    /// One cycle of the fabric.
    fn tick(&mut self, now: Cycles);
    fn eject(&mut self, node: NodeId) -> Option<Packet>;
    fn eject_next(&mut self) -> Option<(NodeId, Packet)>;
    fn ni_free(&self, node: NodeId) -> usize;
    fn is_quiescent(&self) -> bool;
    fn tally(&self) -> Tally;
    fn stall_port(&mut self, router: usize, port: usize, until: u64);
    fn stall_router(&mut self, router: usize, until: u64);
    fn fail_link(&mut self, router: usize, port: usize, now: Cycles) -> bool;
    fn drop_next(&mut self, router: usize, now: Cycles) -> bool;
    fn corrupt_next(&mut self, node: usize) -> bool;
}

impl Fabric for Noc {
    fn topology(&self) -> &Topology {
        Noc::topology(self)
    }
    fn try_inject(
        &mut self,
        src: NodeId,
        dst: NodeId,
        data: Payload,
        tag: u64,
        now: Cycles,
    ) -> Result<PacketId, InjectError> {
        Noc::try_inject(self, src, dst, data, tag, now)
    }
    fn tick(&mut self, now: Cycles) {
        self.tick_traced(now, None);
    }
    fn eject(&mut self, node: NodeId) -> Option<Packet> {
        Noc::eject(self, node)
    }
    fn eject_next(&mut self) -> Option<(NodeId, Packet)> {
        Noc::eject_next(self)
    }
    fn ni_free(&self, node: NodeId) -> usize {
        Noc::ni_free(self, node)
    }
    fn is_quiescent(&self) -> bool {
        Noc::is_quiescent(self)
    }
    fn tally(&self) -> Tally {
        Tally {
            stats: self.stats(),
            fires: self.work().fires,
            arrivals: self.work().arrivals,
            dropped_packets: self.dropped_packets(),
            dropped_flits: self.dropped_flits(),
            corrupted_packets: self.corrupted_packets(),
        }
    }
    fn stall_port(&mut self, router: usize, port: usize, until: u64) {
        Noc::stall_port(self, router, port, until);
    }
    fn stall_router(&mut self, router: usize, until: u64) {
        Noc::stall_router(self, router, until);
    }
    fn fail_link(&mut self, router: usize, port: usize, now: Cycles) -> bool {
        Noc::fail_link(self, router, port, now)
    }
    fn drop_next(&mut self, router: usize, now: Cycles) -> bool {
        Noc::drop_next(self, router, now)
    }
    fn corrupt_next(&mut self, node: usize) -> bool {
        Noc::corrupt_next(self, node)
    }
}
