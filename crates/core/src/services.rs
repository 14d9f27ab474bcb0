//! The service endpoints behind the NoC — embedded memories, eFPGA fabrics,
//! hardwired IP (the paper's Figure 2, §6.3–§6.4) — as one table of
//! [`ServiceNode`]s: a request packet in, a reply packet out, whatever the
//! block. Memories and fabrics are the standalone models of
//! [`crate::controller`] and [`crate::fabric`]; a hardwired block is a bare
//! pipeline.

use crate::config::{FppaConfig, HwIpConfig};
use crate::controller::{MemRequest, MemoryController, ReqKind};
use crate::fabric::Efpga;
use crate::state::NEVER;
use crate::tags::RequestTag;
use nw_sim::PipelinedServer;
use nw_types::{Cycles, MemorySpec, NodeId};
use std::collections::{BTreeMap, VecDeque};

/// The substrate answering at one service endpoint.
#[derive(Debug, Clone)]
enum Block {
    Memory(MemoryController),
    Fabric(Efpga),
    /// A hardwired IP block (§6.4, the fixed-function end of Figure 1's
    /// continuum): its declaration and its pipeline.
    HwIp {
        cfg: HwIpConfig,
        server: PipelinedServer,
    },
}

impl Block {
    /// Offers request `id` to the block; `false` when it has no room (or,
    /// for a fabric, no kernel loaded).
    fn try_submit(&mut self, id: u64, tag: u64, now: Cycles) -> bool {
        match self {
            Block::Memory(m) => {
                let req = MemRequest {
                    id,
                    kind: ReqKind::Read,
                    addr: id.wrapping_mul(MemoryController::INTERLEAVE),
                    bytes: RequestTag::decode(tag).reply_bytes.max(1),
                };
                m.submit(req)
            }
            Block::Fabric(f) => f.try_submit(id, now).is_ok(),
            Block::HwIp { server, .. } => server.try_submit(id, now).is_ok(),
        }
    }

    /// Whether the block has room for request `id`: what
    /// [`Block::try_submit`] would answer.
    fn can_take(&self, id: u64) -> bool {
        match self {
            Block::Memory(m) => m.has_room(id.wrapping_mul(MemoryController::INTERLEAVE)),
            Block::Fabric(f) => f.can_take(),
            Block::HwIp { server, .. } => !server.is_full(),
        }
    }

    fn tick(&mut self, now: Cycles) {
        match self {
            Block::Memory(m) => m.tick(now),
            Block::Fabric(f) => f.tick(now),
            Block::HwIp { server, .. } => server.tick(now),
        }
    }

    fn take_done(&mut self) -> Option<u64> {
        match self {
            Block::Memory(m) => m.take_done(),
            Block::Fabric(f) => f.take_done(),
            Block::HwIp { server, .. } => server.take_done(),
        }
    }
}

/// One service endpoint: the block, the requests it holds and the ones
/// waiting in front of it.
#[derive(Debug, Clone)]
struct ServiceNode {
    node: NodeId,
    block: Block,
    /// Requests inside the block: request id → (tag, reply-to).
    inflight: BTreeMap<u64, (u64, NodeId)>,
    /// Requests in front of the block, in arrival order: (request id, tag,
    /// reply-to). Every request enters here and stays — parked — until a
    /// tick finds the block has room for it.
    parked: VecDeque<(u64, u64, NodeId)>,
}

impl ServiceNode {
    /// When the node must next be ticked, as of cycle `at`: every cycle
    /// while the block can take the oldest parked request, else at the
    /// block's own next event. Only that event makes room, or a kernel
    /// load, which re-posts the entry ([`Services::fabric_mut`]).
    fn due(&self, at: Cycles) -> u64 {
        let parked = self.parked.front();
        let event = match &self.block {
            b if parked.is_some_and(|&(id, ..)| b.can_take(id)) => return at.0,
            Block::Memory(m) => m.next_event_cycle(at),
            Block::Fabric(f) => f.next_event_cycle(at),
            Block::HwIp { server, .. } => server.next_event_cycle(at),
        };
        event.map_or(NEVER, |c| c.0)
    }

    /// Submits the parked requests the block has room for, oldest first,
    /// ticks it and hands every completion to `reply`.
    fn tick(&mut self, now: Cycles, reply: &mut impl FnMut(NodeId, NodeId, u64)) {
        while let Some(&(id, tag, reply_to)) = self.parked.front() {
            if !self.block.try_submit(id, tag, now) {
                break;
            }
            self.inflight.insert(id, (tag, reply_to));
            self.parked.pop_front();
        }
        self.block.tick(now);
        while let Some(id) = self.block.take_done() {
            if let Some((tag, reply_to)) = self.inflight.remove(&id) {
                reply(self.node, reply_to, tag);
            }
        }
    }
}

/// Every service node of a platform, the request-id counter and the
/// `Services` entry of the platform agenda.
#[derive(Debug, Clone)]
pub(crate) struct Services {
    /// Memories, then fabrics, then hardwired blocks — the order of their
    /// NoC endpoints, and the order retries and replies are issued in.
    nodes: Vec<ServiceNode>,
    next_id: u64,
    /// Agenda entry of the services phase: a cycle at or before every
    /// node's [`ServiceNode::due`]. Lowered by [`Services::accept`] and
    /// [`Services::fabric_mut`], recomputed by [`Services::tick`].
    due: u64,
}

impl Services {
    /// Builds the blocks `cfg` declares, on the NoC endpoints from `first` on.
    pub(crate) fn new(cfg: &FppaConfig, first: NodeId) -> Self {
        let mems = cfg.memories.iter().map(|m| {
            let spec = MemorySpec::at_node(m.technology, cfg.tech);
            Block::Memory(MemoryController::new(spec, m.banks, m.queue_depth))
        });
        let fabrics = cfg.fabrics.iter().map(|f| Block::Fabric(Efpga::new(*f)));
        let hwips = cfg.hwip.iter().map(|h| Block::HwIp {
            cfg: h.clone(),
            server: PipelinedServer::new(h.ii, h.latency, h.energy_per_item),
        });
        let blocks = mems.chain(fabrics).chain(hwips).enumerate();
        Services {
            nodes: blocks
                .map(|(i, block)| ServiceNode {
                    node: NodeId(first.0 + i),
                    block,
                    inflight: BTreeMap::new(),
                    parked: VecDeque::new(),
                })
                .collect(),
            next_id: 0,
            due: NEVER,
        }
    }

    /// Takes the request packet `(tag, reply_to)` that arrived at endpoint
    /// `node` at `now`. One rule for every block: the request draws its
    /// platform-unique id here, once (a memory derives the bank from it),
    /// keeps it however long it stays parked, and queues behind the node's
    /// earlier arrivals; the services phase of this same cycle submits it.
    pub(crate) fn accept(&mut self, node: NodeId, tag: u64, reply_to: NodeId, now: Cycles) {
        self.due = now.0;
        let request = (self.next_id, tag, reply_to);
        self.next_id += 1;
        let first = self.nodes[0].node.0;
        self.nodes[node.0 - first].parked.push_back(request);
    }

    /// Ticks the nodes that have something due at `now` — every node with
    /// the gates `open` — in endpoint order, handing `(node, reply-to, tag)`
    /// of each completion to `reply`, and posts the agenda entry for the
    /// cycles after `now` (an open step reads no entry and posts none). A
    /// node is ticked exactly on the cycles it answers, which the unit
    /// tests of `MemoryController`, [`Efpga`] and `PipelinedServer` pin as
    /// equivalent to ticking it every cycle.
    pub(crate) fn tick(
        &mut self,
        now: Cycles,
        open: bool,
        mut reply: impl FnMut(NodeId, NodeId, u64),
    ) {
        for n in &mut self.nodes {
            if open || n.due(now) <= now.0 {
                n.tick(now, &mut reply);
            }
        }
        if !open {
            self.post(Cycles(now.0 + 1));
        }
    }

    /// The earliest cycle `>= at` any node has something due ([`NEVER`]:
    /// all drained).
    pub(crate) fn next_event(&self, at: Cycles) -> u64 {
        self.nodes.iter().map(|n| n.due(at)).min().unwrap_or(NEVER)
    }

    /// The agenda entry.
    pub(crate) fn due(&self) -> u64 {
        self.due
    }

    /// Posts the agenda entry afresh from a walk over the nodes.
    pub(crate) fn post(&mut self, at: Cycles) {
        self.due = self.next_event(at);
    }

    /// The memories with their endpoints, in endpoint order.
    pub(crate) fn memories(&self) -> impl Iterator<Item = (NodeId, &MemoryController)> {
        self.nodes.iter().filter_map(|n| match &n.block {
            Block::Memory(m) => Some((n.node, m)),
            _ => None,
        })
    }

    /// The eFPGA fabrics with their endpoints, in endpoint order.
    pub(crate) fn fabrics(&self) -> impl Iterator<Item = (NodeId, &Efpga)> {
        self.nodes.iter().filter_map(|n| match &n.block {
            Block::Fabric(f) => Some((n.node, f)),
            _ => None,
        })
    }

    /// The hardwired blocks with their endpoints, in endpoint order: each
    /// one's declaration and pipeline.
    pub(crate) fn hwips(&self) -> impl Iterator<Item = (NodeId, &HwIpConfig, &PipelinedServer)> {
        self.nodes.iter().filter_map(|n| match &n.block {
            Block::HwIp { cfg, server } => Some((n.node, cfg, server)),
            _ => None,
        })
    }

    /// The fabric at endpoint `node`, for the caller to load a kernel into:
    /// the services phase looks at cycle `now`.
    pub(crate) fn fabric_mut(&mut self, node: NodeId, now: Cycles) -> &mut Efpga {
        self.due = now.0;
        let first = self.nodes[0].node.0;
        match &mut self.nodes[node.0 - first].block {
            Block::Fabric(f) => f,
            _ => unreachable!("{node:?} hosts no fabric"),
        }
    }
}
