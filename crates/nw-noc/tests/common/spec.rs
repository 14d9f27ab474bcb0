//! An executable specification of the NoC timing model, the reference the
//! engine ([`nw_noc::Noc`]) is diffed against.
//!
//! It is written from the rules below, not from the engine: whole packets
//! in plain `VecDeque`s, in-flight transfers in one ordered map, and every
//! router scanned every cycle. It shares with the engine only its inputs —
//! the [`Topology`] (links, the shared medium, `next_hop` and
//! `recompute_routes`), the [`NocConfig`] and [`Packet::flits`] — so a
//! wrong rule in the engine's credit ledger, packet slab, FIFOs, event
//! wheels or wake bookkeeping shows as a difference instead of moving both
//! alike.
//!
//! One cycle, in order:
//!
//! 1. **Arrivals** that are due, in `(due, schedule order)`. A packet at
//!    its destination frees its slot and is delivered. Any other queues on
//!    the port `next_hop` names or, with no route left, frees its slot and
//!    drops.
//! 2. **Network interfaces**, lowest endpoint first, each drained while its
//!    head can go. A local head is delivered. A remote head needs two free
//!    slots in its router's pool (the bubble rule), takes one and queues
//!    like an arrival.
//! 3. **Transmit**: every router once, by ascending index, and its ports
//!    once each, in ascending order. A port that holds a packet, is idle
//!    and whose downstream router has a free slot fires its head: the port
//!    is busy for `ser = ceil(flits / width)` cycles, the packet arrives at
//!    `now + ser + latency + router_delay`, and its slot here frees as it
//!    starts (cut-through). The bus fires at most one port per grant,
//!    searching round-robin from the port after the last grant, and holds
//!    the medium for `ser`.
//!
//! A router's slots are one pool: `input_buffer` per inbound link, and at
//! least `input_buffer`. A slot is held from admission or the upstream fire
//! until the packet fires onward, is delivered or drops.

use std::collections::{BTreeMap, VecDeque};

use nw_noc::{InjectError, NocConfig, Packet, PacketId, Topology};
use nw_types::{Cycles, NodeId, Payload};

use super::{Fabric, Tally};

/// Free slots an injection needs (the bubble rule).
const BUBBLE: usize = 2;

#[derive(Debug, Clone, Default)]
struct Port {
    queue: VecDeque<Packet>,
    /// The port fires again from this cycle on.
    busy_until: u64,
    /// Killed by [`Fabric::fail_link`].
    down: bool,
}

#[derive(Debug)]
struct Router {
    ports: Vec<Port>,
    /// Free slots of the router's pool.
    free: usize,
    /// The bus only: the medium grants again from this cycle on, searching
    /// from port `rr_next`.
    medium_busy_until: u64,
    rr_next: usize,
    /// Endpoints only: the NI injection queue and the delivered packets.
    ni: VecDeque<Packet>,
    eject: VecDeque<Packet>,
}

/// The NoC as the rules state it. Drive it through [`Fabric`].
#[derive(Debug)]
pub struct Spec {
    topo: Topology,
    cfg: NocConfig,
    routers: Vec<Router>,
    /// Transfers on the wire, keyed `(due cycle, schedule order)`: the
    /// router each reaches, and the packet.
    in_flight: BTreeMap<(u64, u64), (usize, Packet)>,
    scheduled: u64,
    next_id: u64,
    /// Dead links as `(router, port)`, in failure order.
    dead: Vec<(usize, usize)>,
    tally: Tally,
}

impl Spec {
    pub fn new(topo: Topology, cfg: NocConfig) -> Self {
        let mut inbound = vec![0; topo.n_routers()];
        for r in 0..topo.n_routers() {
            for link in topo.links_of(r) {
                inbound[link.to] += 1;
            }
        }
        let routers = (0..topo.n_routers())
            .map(|r| Router {
                ports: vec![Port::default(); topo.links_of(r).len()],
                free: inbound[r].max(1) * cfg.input_buffer,
                medium_busy_until: 0,
                rr_next: 0,
                ni: VecDeque::new(),
                eject: VecDeque::new(),
            })
            .collect();
        Spec {
            topo,
            cfg,
            routers,
            in_flight: BTreeMap::new(),
            scheduled: 0,
            next_id: 0,
            dead: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// True when no later tick can change anything without a new offer or
    /// fault hook: nothing is on the wire, no NI head can go, and every
    /// queued packet waits, at an idle port, for a slot that only a move of
    /// the fabric could free.
    pub fn is_stuck(&self, now: Cycles) -> bool {
        self.in_flight.is_empty()
            && (0..self.routers.len()).all(|r| {
                let rt = &self.routers[r];
                let ni_waits = rt
                    .ni
                    .front()
                    .is_none_or(|p| p.dst.0 != r && rt.free < BUBBLE);
                let ports_wait = rt.ports.iter().enumerate().all(|(p, port)| {
                    let to = self.topo.links_of(r)[p].to;
                    port.queue.is_empty()
                        || (port.busy_until <= now.0 && self.routers[to].free == 0)
                });
                ni_waits && ports_wait
            })
    }

    fn deliver(&mut self, r: usize, packet: Packet, now: Cycles) {
        self.tally.stats.delivered += 1;
        let latency = now.saturating_sub(packet.injected_at);
        self.tally.stats.latency.record(latency);
        self.routers[r].eject.push_back(packet);
    }

    fn discard(&mut self, packet: Packet) {
        self.tally.dropped_packets += 1;
        self.tally.dropped_flits += packet.flits(self.cfg.flit_bytes);
    }

    /// `packet`, holding a slot at router `r` and bound elsewhere, queues
    /// on its next hop's port; with no route left it frees the slot and
    /// drops.
    fn forward(&mut self, r: usize, packet: Packet) {
        match self.topo.next_hop(r, packet.dst.0) {
            Some(p) => self.routers[r].ports[p].queue.push_back(packet),
            None => {
                self.routers[r].free += 1;
                self.discard(packet);
            }
        }
    }

    /// Fires the head of port `p` of router `r` if there is one, the port
    /// is idle and the router it leads to has a free slot. Returns the
    /// cycle the port frees again.
    fn fire(&mut self, r: usize, p: usize, now: Cycles) -> Option<u64> {
        let link = self.topo.links_of(r)[p];
        let port = &self.routers[r].ports[p];
        if port.queue.is_empty() || port.busy_until > now.0 || self.routers[link.to].free == 0 {
            return None;
        }
        self.routers[link.to].free -= 1;
        let router = &mut self.routers[r];
        let packet = router.ports[p].queue.pop_front().expect("checked above");
        router.free += 1;
        let flits = packet.flits(self.cfg.flit_bytes);
        let ser = flits.div_ceil(link.width);
        router.ports[p].busy_until = now.0 + ser;
        self.tally.fires += 1;
        self.tally.stats.flit_hops += flits;
        let due = now.0 + ser + link.latency + self.cfg.router_delay;
        self.in_flight
            .insert((due, self.scheduled), (link.to, packet));
        self.scheduled += 1;
        Some(now.0 + ser)
    }

    /// The bus arbiter's turn: one grant, round-robin from `rr_next`.
    fn grant(&mut self, r: usize, now: Cycles) {
        let rt = &self.routers[r];
        if rt.medium_busy_until > now.0 {
            return;
        }
        let (n, from) = (rt.ports.len(), rt.rr_next);
        for p in (from..n).chain(0..from) {
            if let Some(free_at) = self.fire(r, p, now) {
                self.routers[r].medium_busy_until = free_at;
                self.routers[r].rr_next = (p + 1) % n;
                return;
            }
        }
    }
}

impl Fabric for Spec {
    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn try_inject(
        &mut self,
        src: NodeId,
        dst: NodeId,
        data: Payload,
        tag: u64,
        now: Cycles,
    ) -> Result<PacketId, InjectError> {
        let n = self.topo.n_endpoints();
        if src.0 >= n {
            return Err(InjectError::BadSource(src));
        }
        if dst.0 >= n {
            return Err(InjectError::BadDestination(dst));
        }
        if self.routers[src.0].ni.len() >= self.cfg.ni_capacity {
            self.tally.stats.refused += 1;
            return Err(InjectError::NiFull);
        }
        let id = PacketId(self.next_id);
        self.next_id += 1;
        let injected_at = now;
        let packet = Packet {
            id,
            src,
            dst,
            data,
            tag,
            injected_at,
        };
        self.routers[src.0].ni.push_back(packet);
        self.tally.stats.injected += 1;
        Ok(id)
    }

    fn tick(&mut self, now: Cycles) {
        while let Some(entry) = self.in_flight.first_entry() {
            if entry.key().0 > now.0 {
                break;
            }
            let (r, packet) = entry.remove();
            self.tally.arrivals += 1;
            if packet.dst.0 == r {
                self.routers[r].free += 1;
                self.deliver(r, packet, now);
            } else {
                self.forward(r, packet);
            }
        }
        for r in 0..self.topo.n_endpoints() {
            while let Some(head) = self.routers[r].ni.front() {
                let local = head.dst.0 == r;
                if !local {
                    if self.routers[r].free < BUBBLE {
                        break;
                    }
                    self.routers[r].free -= 1;
                }
                let packet = self.routers[r].ni.pop_front().expect("a head");
                if local {
                    self.deliver(r, packet, now);
                } else {
                    self.forward(r, packet);
                }
            }
        }
        for r in 0..self.routers.len() {
            if self.topo.is_shared(r) {
                self.grant(r, now);
            } else {
                for p in 0..self.routers[r].ports.len() {
                    self.fire(r, p, now);
                }
            }
        }
    }

    fn eject(&mut self, node: NodeId) -> Option<Packet> {
        self.routers.get_mut(node.0)?.eject.pop_front()
    }

    fn eject_next(&mut self) -> Option<(NodeId, Packet)> {
        let node = self.routers.iter().position(|r| !r.eject.is_empty())?;
        Some((NodeId(node), self.routers[node].eject.pop_front()?))
    }

    fn ni_free(&self, node: NodeId) -> usize {
        match node.0 < self.topo.n_endpoints() {
            true => self.cfg.ni_capacity - self.routers[node.0].ni.len(),
            false => 0,
        }
    }

    fn is_quiescent(&self) -> bool {
        self.in_flight.is_empty()
            && self.routers.iter().all(|r| {
                r.ni.is_empty() && r.eject.is_empty() && r.ports.iter().all(|p| p.queue.is_empty())
            })
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn stall_port(&mut self, router: usize, port: usize, until: u64) {
        let port = &mut self.routers[router].ports[port];
        port.busy_until = port.busy_until.max(until);
    }

    fn stall_router(&mut self, router: usize, until: u64) {
        let rt = &mut self.routers[router];
        for port in &mut rt.ports {
            port.busy_until = port.busy_until.max(until);
        }
        rt.medium_busy_until = rt.medium_busy_until.max(until);
    }

    /// The link dies, every route is recomputed around the dead ones, and
    /// the packets queued on it follow the new routes or drop.
    fn fail_link(&mut self, router: usize, port: usize, _now: Cycles) -> bool {
        let dying = &mut self.routers[router].ports[port];
        if dying.down {
            return false;
        }
        dying.down = true;
        let stranded = std::mem::take(&mut dying.queue);
        self.dead.push((router, port));
        self.topo.recompute_routes(&self.dead);
        for packet in stranded {
            self.forward(router, packet);
        }
        true
    }

    /// Drops the head of the lowest-numbered port holding a packet (its
    /// slot frees), else the NI head.
    fn drop_next(&mut self, router: usize, _now: Cycles) -> bool {
        let rt = &mut self.routers[router];
        let packet = match rt.ports.iter_mut().find(|p| !p.queue.is_empty()) {
            Some(port) => {
                rt.free += 1;
                port.queue.pop_front()
            }
            None => rt.ni.pop_front(),
        };
        packet.map(|p| self.discard(p)).is_some()
    }

    /// Flips the first payload byte of the NI head, if it has one.
    fn corrupt_next(&mut self, node: usize) -> bool {
        let head = self.routers[node].ni.front_mut();
        let Some(byte) = head.and_then(|p| p.data.first_mut()) else {
            return false;
        };
        *byte ^= 0xA5;
        self.tally.corrupted_packets += 1;
        true
    }
}
