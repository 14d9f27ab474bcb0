//! The cycle-stepped NoC engine.
//!
//! Timing model: packet-granular virtual cut-through. A packet crossing a
//! link occupies it for `ceil(flits / width)` cycles (serialization) plus
//! the link's wire latency and a fixed per-hop router pipeline delay. It
//! starts only when the downstream router has a free buffer (credit flow
//! control), so congestion back-pressures to the network interfaces. A
//! router's buffers are one pool, and injection needs *two* free (the
//! bubble rule): not deadlock freedom, as the channel dependency cycles
//! `crates/nw-noc/tests/deadlock_oracle.rs` prints for rings, meshes,
//! tori and fat trees show.
//!
//! Shared-medium routers (the bus arbiter) serialize all their ports through
//! a single round-robin grant — this is what makes [`TopologyKind::SharedBus`]
//! saturate at one transfer at a time while the crossbar core switches all
//! ports in parallel.
//!
//! Storage: a packet is written into one slab at [`Noc::try_inject`] and
//! read at [`Noc::eject`]; queues and in-flight transfers move its `u32`
//! handle (ARCHITECTURE.md, "Packet slab and port table").
//!
//! [`TopologyKind::SharedBus`]: crate::topology::TopologyKind::SharedBus

use crate::packet::{Packet, PacketId};
use crate::topology::Topology;
use nw_obs::{LinkLoad, NocHeatmap, RouterLoad, TraceEvent, TraceSink};
use nw_sim::{EventQueue, Moments};
use nw_types::{Cycles, NodeId, Payload};
use std::fmt;

/// Tuning knobs of the NoC timing model.
#[derive(Debug, Clone, Copy)]
pub struct NocConfig {
    /// Link width in bytes per flit (default 8: 64-bit links).
    pub flit_bytes: u64,
    /// Packet buffers per inbound link (default 8), pooled per router and
    /// at least this many, so a high-radix switch is not starved next to a
    /// low-radix one.
    pub input_buffer: usize,
    /// Network-interface injection queue depth per endpoint (default 64).
    pub ni_capacity: usize,
    /// Router pipeline delay added per hop, in cycles (default 1).
    pub router_delay: u64,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            flit_bytes: 8,
            input_buffer: 8,
            ni_capacity: 64,
            router_delay: 1,
        }
    }
}

impl NocConfig {
    /// Checks that an engine built from this configuration can move
    /// traffic at all.
    ///
    /// # Errors
    ///
    /// [`NocConfigError::ZeroFlitBytes`] when `flit_bytes` is zero (no
    /// packet has a flit count); [`NocConfigError::ZeroNiCapacity`] when
    /// `ni_capacity` is zero (every injection would be refused);
    /// [`NocConfigError::InputBufferUnderTwo`] when `input_buffer` is under
    /// 2 (a router with one inbound link would own a pool the bubble rule,
    /// two free slots to inject, can never pass).
    pub fn validate(&self) -> Result<(), NocConfigError> {
        if self.flit_bytes == 0 {
            return Err(NocConfigError::ZeroFlitBytes);
        }
        if self.ni_capacity == 0 {
            return Err(NocConfigError::ZeroNiCapacity);
        }
        if self.input_buffer < Credits::BUBBLE {
            return Err(NocConfigError::InputBufferUnderTwo(self.input_buffer));
        }
        Ok(())
    }
}

/// Why a [`NocConfig`] cannot drive an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocConfigError {
    /// `flit_bytes` is zero.
    ZeroFlitBytes,
    /// `ni_capacity` is zero.
    ZeroNiCapacity,
    /// `input_buffer` (carried) is under 2.
    InputBufferUnderTwo(usize),
}

impl fmt::Display for NocConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocConfigError::ZeroFlitBytes => write!(f, "flit width is zero bytes"),
            NocConfigError::ZeroNiCapacity => {
                write!(f, "NI queue depth is zero: every injection is refused")
            }
            NocConfigError::InputBufferUnderTwo(n) => write!(
                f,
                "{n} packet buffer(s) per input: injection needs two free slots"
            ),
        }
    }
}

impl std::error::Error for NocConfigError {}

/// Why an injection attempt was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectError {
    /// The endpoint's NI queue is full (back-pressure); retry later.
    NiFull,
    /// The source endpoint index is out of range.
    BadSource(NodeId),
    /// The destination endpoint index is out of range.
    BadDestination(NodeId),
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::NiFull => write!(f, "network interface queue full"),
            InjectError::BadSource(n) => write!(f, "source endpoint {n} out of range"),
            InjectError::BadDestination(n) => write!(f, "destination endpoint {n} out of range"),
        }
    }
}

impl std::error::Error for InjectError {}

/// Null link of the packet slab.
const NIL: u32 = u32::MAX;

/// What the tick reads of a packet on every hop, kept apart from the packet
/// itself so that a hop touches sixteen bytes of it, not eighty.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The packet behind this one in the FIFO it waits in; the next vacated
    /// cell while this one is on the free list.
    next: u32,
    /// The packet's destination endpoint.
    dst: u32,
    /// Its flits at the configured flit width, divided once at injection.
    flits: u64,
}

/// The engine-owned packet store. A handle indexes both vectors: `links`
/// is what moves a packet through the fabric, `packets` what `try_inject`
/// wrote and `eject` returns (`None` in a vacated cell). A vacated cell is
/// reused before the vectors grow, so their length is the peak number of
/// packets the engine ever held at once.
#[derive(Debug, Clone)]
struct Slab {
    links: Vec<Link>,
    packets: Vec<Option<Packet>>,
    /// Head of the free list threaded through vacated `links`.
    free: u32,
    /// Cells holding a packet.
    live: usize,
}

impl Slab {
    fn new() -> Self {
        Slab {
            links: Vec::new(),
            packets: Vec::new(),
            free: NIL,
            live: 0,
        }
    }

    fn insert(&mut self, packet: Packet, flits: u64) -> u32 {
        let link = Link {
            next: NIL,
            dst: u32::try_from(packet.dst.0).expect("endpoint indices fit 32 bits"),
            flits,
        };
        self.live += 1;
        if self.free != NIL {
            let h = self.free;
            self.free = std::mem::replace(&mut self.links[h as usize], link).next;
            self.packets[h as usize] = Some(packet);
            h
        } else {
            let h = u32::try_from(self.links.len())
                .ok()
                .filter(|&h| h != NIL)
                .expect("packet slab holds fewer than 2^32 - 1 packets");
            self.links.push(link);
            self.packets.push(Some(packet));
            h
        }
    }

    fn remove(&mut self, h: u32) -> Packet {
        let packet = self.packets[h as usize]
            .take()
            .expect("handle names a live packet");
        self.links[h as usize].next = self.free;
        self.free = h;
        self.live -= 1;
        packet
    }

    /// Destination endpoint of packet `h`.
    #[inline]
    fn dst(&self, h: u32) -> usize {
        self.links[h as usize].dst as usize
    }
}

/// A FIFO of packet handles threaded through [`Link::next`]. A packet sits
/// in exactly one FIFO, or is in flight (its handle in an arrival event).
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
    len: usize,
}

impl Fifo {
    const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
        len: 0,
    };

    #[inline]
    fn push_back(&mut self, slab: &mut Slab, h: u32) {
        slab.links[h as usize].next = NIL;
        if self.len == 0 {
            self.head = h;
        } else {
            slab.links[self.tail as usize].next = h;
        }
        self.tail = h;
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self, slab: &Slab) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let h = self.head;
        self.head = slab.links[h as usize].next;
        self.len -= 1;
        if self.len == 0 {
            self.tail = NIL;
        }
        Some(h)
    }
}

/// One directed output port. All ports of the fabric live in one table
/// ([`Noc::ports`]), a router's ports contiguous from its `first_port`.
#[derive(Debug, Clone)]
struct Port {
    busy_until: u64,
    queue: Fifo,
    to: u32,
    latency: u64,
    width: u64,
    /// Permanently dead (hard link fault). Routes are recomputed
    /// to avoid dead ports, so their queues stay empty; the flag makes
    /// [`Noc::fail_link`] idempotent and lets the audit pin the invariant.
    down: bool,
}

#[derive(Debug, Clone)]
struct Router {
    /// This router's ports are `ports[first_port..first_port + n_ports]`.
    first_port: usize,
    n_ports: usize,
    /// Its non-empty-port bits start at `port_bits[first_word]`, bit `p`
    /// set while port `p` holds queued packets ([`Router::words`]).
    first_word: usize,
    shared: bool,
    shared_busy_until: u64,
    rr_next: usize,
    ni_in: Fifo,
    eject: Fifo,
    /// Packets sitting in this router's output-port queues. Kept so the
    /// per-cycle transmit scan can skip quiescent routers without walking
    /// their ports (the dominant cost on large, mostly idle fabrics).
    queued: usize,
}

impl Router {
    /// This router's words of [`Noc::port_bits`], 64 ports to a word.
    #[inline]
    fn words(&self) -> std::ops::Range<usize> {
        self.first_word..self.first_word + self.n_ports.div_ceil(64)
    }
}

/// The credit ledger: the fabric's input-buffer slots and the one place the
/// flow-control policy lives. It pools each router's slots
/// ([`NocConfig::input_buffer`]); callers name the port or router they mean
/// all the same, so a per-input-port policy changes this type alone. A slot
/// is held from admission or the upstream fire ([`Credits::take`]) until
/// the packet fires onward, is delivered or drops ([`Credits::give`]).
/// Injection leaves one free (the bubble rule, [`Credits::admits`]), so a
/// full pool holds a packet that came in over a link: the channel
/// dependency graphs of `crates/nw-noc/tests/deadlock_oracle.rs` rest on
/// that, and print the cycles the rule leaves.
#[derive(Debug, Clone)]
struct Credits {
    /// Free slots per router.
    input_free: Vec<usize>,
}

impl Credits {
    /// Free slots an injection needs: the bubble rule.
    const BUBBLE: usize = 2;

    /// Every slot of `topo` free: `input_buffer` per inbound link, and at
    /// least `input_buffer` per router.
    fn new(topo: &Topology, input_buffer: usize) -> Self {
        let slots = |v| topo.links_into(v).len().max(1) * input_buffer;
        let input_free = (0..topo.n_routers()).map(slots).collect();
        Credits { input_free }
    }

    /// Takes the credit of the input that output port `_port` (of
    /// [`Noc::ports`]) feeds at router `to`, if one is free.
    #[inline(always)]
    fn take(&mut self, _port: usize, to: usize) -> bool {
        let free = self.input_free[to] > 0;
        self.input_free[to] -= usize::from(free);
        free
    }

    /// Hands back the slot a packet held at router `r`, returning whether
    /// predecessors must wake (free went 0 -> 1) and whether `r` admits.
    #[inline(always)]
    fn give(&mut self, r: usize) -> (bool, bool) {
        self.input_free[r] += 1;
        (self.input_free[r] == 1, self.admits(r))
    }

    /// Whether router `r` admits an injection.
    #[inline(always)]
    fn admits(&self, r: usize) -> bool {
        self.input_free[r] >= Self::BUBBLE
    }

    /// Takes the slot an injection at router `r` enters, if admitted.
    #[inline(always)]
    fn admit(&mut self, r: usize) -> bool {
        let admitted = self.admits(r);
        self.input_free[r] -= usize::from(admitted);
        admitted
    }

    /// Slots held across the fabric, checking that no router has more
    /// free than `topo` gives it.
    #[cfg(debug_assertions)]
    fn held(&self, topo: &Topology, input_buffer: usize) -> usize {
        let capacity = Credits::new(topo, input_buffer).input_free;
        let mut held = 0;
        for (r, (&free, &slots)) in self.input_free.iter().zip(&capacity).enumerate() {
            debug_assert!(free <= slots, "router {r}: {free} of {slots} slots free");
            held += slots - free;
        }
        held
    }
}

/// Packs an arrival event: the packet's handle and the router it reaches.
#[inline]
fn arrival_word(h: u32, router: u32) -> u64 {
    u64::from(h) | u64::from(router) << 32
}

/// The `(handle, router)` of an arrival event.
#[inline]
fn arrival_parts(word: u64) -> (u32, usize) {
    let h = u32::try_from(word & u64::from(u32::MAX)).expect("masked to 32 bits");
    let router = usize::try_from(word >> 32).expect("router indices fit 32 bits");
    (h, router)
}

/// Per-link load accumulators (indexed like [`Noc::ports`]).
#[derive(Debug, Clone, Copy, Default)]
struct LinkCounter {
    busy_cycles: u64,
    packets: u64,
    flits: u64,
}

/// Per-router occupancy accumulators. The queue integral is event-driven:
/// settled (occupancy x elapsed added) immediately before every `queued`
/// mutation, so it is exact under fast-forwarding schedulers that never
/// visit the skipped cycles.
#[derive(Debug, Clone, Copy, Default)]
struct RouterCounter {
    queue_integral: u64,
    last_settle: u64,
    peak_queue: usize,
    delivered: u64,
}

/// Opt-in heatmap accounting, kept apart from the tables the tick reads:
/// one link slot per port, one router slot per router. `None` until
/// [`Noc::enable_obs`] — the disabled cost on every hot path is a single
/// `Option` branch.
#[derive(Debug, Clone)]
struct ObsCounters {
    links: Vec<LinkCounter>,
    routers: Vec<RouterCounter>,
}

/// Aggregate NoC statistics: plain counts, no heap, so the engine keeps
/// one and [`Noc::stats`] hands it out by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NocStats {
    /// Packets accepted into NI queues.
    pub injected: u64,
    /// Packets delivered to their destination eject queue.
    pub delivered: u64,
    /// Injection attempts refused because the NI was full.
    pub refused: u64,
    /// Sum of flits × hops transported (link occupancy proxy).
    pub flit_hops: u64,
    /// End-to-end packet latency (NI entry to destination arrival) of the
    /// delivered packets, as exact moments: count, sum, min and max. Its
    /// mean is what the experiments report.
    pub latency: Moments,
}

/// Deterministic work counters of the engine: what its ticks did, not what
/// the network computed. A pure function of configuration, traffic and the
/// cycles ticked, so they repeat exactly; cumulative since construction and
/// carried by clones. They count this engine's bookkeeping, not the
/// network's traffic (a tick on a cycle `next_event_cycle` skips counts
/// and does nothing else), which is why these stay out of [`NocStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NocWork {
    /// Engine ticks run ([`Noc::tick_traced`], [`Noc::run_span`]).
    pub ticks: u64,
    /// In-flight transfers that reached their next router.
    pub arrivals: u64,
    /// Router wakes entered into the wheel for a future cycle. A queue push
    /// or credit free inside a tick costs none: it marks the transmit
    /// worklist of that tick directly.
    pub wakes_scheduled: u64,
    /// Routers examined by transmit passes.
    pub router_visits: u64,
    /// Link transfers started (packet-hops).
    pub fires: u64,
}

/// What one [`Noc::run_span`] did: the cycles it consumed and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocSpan {
    /// The cycle after the span's last tick (its `from` when none ran).
    pub end: Cycles,
    /// The last tick left a delivery pending ([`Noc::eject_pending`]).
    pub delivered: bool,
    /// Jumps over cycles with no engine event, one before each tick at a
    /// cycle later than the one after the previous tick (or `from`).
    pub hops: u64,
    /// Cycles those jumps skipped.
    pub cycles_hopped: u64,
    /// Ticks run, one per event cycle: `end - from - cycles_hopped`.
    pub ticks: u64,
}

/// A simulated network-on-chip: topology + routers + in-flight transfers.
///
/// # Examples
///
/// ```
/// use nw_noc::{Noc, NocConfig, Topology, TopologyKind};
/// use nw_types::{Cycles, NodeId, Payload};
///
/// let topo = Topology::build(TopologyKind::Mesh, 16, 1)?;
/// let mut noc = Noc::new(topo, NocConfig::default());
/// let payload = Payload::with_head(3, &[1, 2, 3]);
/// noc.try_inject(NodeId(0), NodeId(15), payload, 42, Cycles(0)).unwrap();
/// let mut now = Cycles(0);
/// let pkt = loop {
///     noc.tick(now);
///     if let Some(p) = noc.eject(NodeId(15)) { break p; }
///     now += Cycles(1);
///     assert!(now.0 < 1000, "packet should arrive quickly");
/// };
/// assert_eq!(pkt.data, payload);
/// assert_eq!(pkt.tag, 42);
/// # Ok::<(), nw_noc::topology::BuildTopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Noc {
    topo: Topology,
    cfg: NocConfig,
    /// Every packet the engine holds, from injection to ejection or drop.
    slab: Slab,
    routers: Vec<Router>,
    /// The port table of the whole fabric, router by router.
    ports: Vec<Port>,
    /// Non-empty-port bits, router by router ([`Router::first_word`]): a
    /// visit reads these words and touches only ports that hold traffic.
    port_bits: Vec<u64>,
    /// In-flight transfers as [`arrival_word`]s, due the cycle the packet
    /// reaches the router.
    arrivals: EventQueue<u64>,
    credits: Credits,
    next_id: u64,
    stats: NocStats,
    /// Packets waiting in NI queues across all endpoints.
    ni_pending: usize,
    /// Packets queued on output ports across all routers (sum of the
    /// per-router `queued` counters) — the transmit scan's global gate.
    queued_total: usize,
    /// Packets delivered but not yet taken via [`Noc::eject`].
    eject_pending: usize,
    /// One bit per endpoint, set while its eject queue holds a delivery:
    /// [`Noc::eject_next`] answers from here instead of polling endpoints.
    eject_ready: Vec<u64>,
    /// Timed router wakes, at the cycle a port or shared medium frees:
    /// future cycles only (whatever becomes possible inside a tick goes on
    /// `ready`), so `next_event_cycle` answers from its head.
    wakes: EventQueue<usize>,
    /// Due cycle of each router's one live wake (`u64::MAX` = none); an
    /// earlier wake supersedes it ([`Noc::schedule_wake`]).
    wake_at: Vec<u64>,
    /// Worklist of routers to visit this transmit pass: one bit per router,
    /// popped lowest index first, so credit contention resolves exactly as
    /// an ascending scan of every router does. All zero between ticks.
    ready: Vec<u64>,
    /// One bit per endpoint, set while its NI head can make progress right
    /// now (local destination, or admitted by the ledger). `drain_ni` pops
    /// it lowest bit first: ascending endpoints.
    ni_ready: Vec<u64>,
    /// Number of set bits in `ni_ready` — `drain_ni`'s gate and the NI
    /// contribution to `next_event_cycle`.
    ni_ready_count: usize,
    /// Heatmap accounting, present only after [`Noc::enable_obs`].
    obs: Option<ObsCounters>,
    /// Permanently dead directed links as `(router, port)` pairs, in
    /// failure order — the live input to route recomputation.
    dead_links: Vec<(usize, usize)>,
    /// Packets discarded by fault injection (explicit drops plus packets
    /// stranded by disconnection).
    dropped_packets: u64,
    /// Flits those discarded packets carried.
    dropped_flits: u64,
    /// Packets whose payload was corrupted in place by fault injection.
    corrupted_packets: u64,
    work: NocWork,
}

/// Sets bit `i` of a bitset stored as `u64` words.
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Clears bit `i` of a bitset stored as `u64` words.
#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// Lowest set bit of a bitset stored as `u64` words.
#[inline]
fn first_bit(words: &[u64]) -> Option<usize> {
    let w = words.iter().position(|&bits| bits != 0)?;
    Some(w * 64 + words[w].trailing_zeros() as usize)
}

/// Where the transmit pass stands when a buffer slot frees, which decides
/// how the predecessors it may unblock are woken ([`Noc::release_slot`]).
#[derive(Debug, Clone, Copy)]
enum Pass {
    /// Ahead of this tick's transmit pass (arrivals drain first): every
    /// predecessor joins the pass.
    Ahead,
    /// Inside the pass, at this router: predecessors above it join the
    /// pass, an ascending scan has already left the ones below, which wait
    /// for the next cycle.
    At(usize),
    /// Between ticks (a fault hook): predecessors are woken through the
    /// wheel at the hook's cycle.
    Outside,
}

impl Noc {
    /// Builds the engine for a topology.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`NocConfig::validate`]; callers holding an
    /// unchecked configuration validate it first.
    pub fn new(topo: Topology, cfg: NocConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid NocConfig: {e}");
        }
        let n_routers = topo.n_routers();
        let n_endpoints = topo.n_endpoints();
        let credits = Credits::new(&topo, cfg.input_buffer);
        let mut routers = Vec::with_capacity(n_routers);
        let mut ports = Vec::new();
        let mut n_words = 0;
        for r in 0..n_routers {
            let links = topo.links_of(r);
            routers.push(Router {
                first_port: ports.len(),
                n_ports: links.len(),
                first_word: n_words,
                shared: topo.is_shared(r),
                shared_busy_until: 0,
                rr_next: 0,
                ni_in: Fifo::EMPTY,
                eject: Fifo::EMPTY,
                queued: 0,
            });
            n_words += links.len().div_ceil(64);
            ports.extend(links.iter().map(|l| Port {
                busy_until: 0,
                queue: Fifo::EMPTY,
                to: u32::try_from(l.to).expect("router indices fit 32 bits"),
                latency: l.latency,
                width: l.width,
                down: false,
            }));
        }
        Noc {
            topo,
            cfg,
            slab: Slab::new(),
            routers,
            ports,
            port_bits: vec![0; n_words],
            arrivals: EventQueue::new(),
            credits,
            next_id: 0,
            stats: NocStats::default(),
            ni_pending: 0,
            queued_total: 0,
            eject_pending: 0,
            eject_ready: vec![0; n_endpoints.div_ceil(64)],
            wakes: EventQueue::new(),
            wake_at: vec![u64::MAX; n_routers],
            ready: vec![0; n_routers.div_ceil(64)],
            ni_ready: vec![0; n_endpoints.div_ceil(64)],
            ni_ready_count: 0,
            obs: None,
            dead_links: Vec::new(),
            dropped_packets: 0,
            dropped_flits: 0,
            corrupted_packets: 0,
            work: NocWork::default(),
        }
    }

    /// Turns on per-link utilization and per-router queue-occupancy
    /// accounting (counters start at zero from the current state). Pure
    /// observation: enabling it changes no routing or timing decision.
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(ObsCounters {
                links: vec![LinkCounter::default(); self.ports.len()],
                routers: vec![RouterCounter::default(); self.routers.len()],
            });
        }
    }

    /// Settles router `r`'s queue-occupancy integral up to `now`. Must run
    /// before every mutation of `routers[r].queued` so each occupancy level
    /// is weighted by exactly the cycles it persisted.
    #[inline]
    fn obs_settle(&mut self, r: usize, now: u64) {
        if let Some(obs) = self.obs.as_mut() {
            let c = &mut obs.routers[r];
            c.queue_integral += self.routers[r].queued as u64 * (now - c.last_settle);
            c.last_settle = now;
        }
    }

    /// Snapshot of the heatmap counters, with every router's occupancy
    /// integral extended to `now`. `None` until [`Noc::enable_obs`].
    pub fn heatmap(&self, now: Cycles) -> Option<NocHeatmap> {
        let obs = self.obs.as_ref()?;
        let mut links = Vec::new();
        for (r, rt) in self.routers.iter().enumerate() {
            for p in 0..rt.n_ports {
                let c = &obs.links[rt.first_port + p];
                if c.packets > 0 {
                    links.push(LinkLoad {
                        router: r,
                        port: p,
                        to: self.ports[rt.first_port + p].to as usize,
                        busy_cycles: c.busy_cycles,
                        packets: c.packets,
                        flits: c.flits,
                    });
                }
            }
        }
        let routers = obs
            .routers
            .iter()
            .enumerate()
            .filter_map(|(r, c)| {
                let pending = self.routers[r].queued as u64 * now.0.saturating_sub(c.last_settle);
                let integral = c.queue_integral + pending;
                (integral > 0 || c.delivered > 0).then_some(RouterLoad {
                    router: r,
                    queue_integral: integral,
                    peak_queue: c.peak_queue,
                    delivered: c.delivered,
                })
            })
            .collect();
        Some(NocHeatmap {
            window: now.0,
            links,
            routers,
        })
    }

    /// The topology this engine runs on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The timing configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Offers a packet for injection at endpoint `src`.
    ///
    /// On success the packet is queued at the source network interface and
    /// its latency clock starts at `now`.
    ///
    /// # Errors
    ///
    /// [`InjectError::NiFull`] when the NI queue is at capacity (the caller
    /// should stall and retry — this is the back-pressure interface);
    /// [`InjectError::BadSource`] / [`InjectError::BadDestination`] for
    /// out-of-range endpoints.
    #[inline]
    pub fn try_inject(
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
        let rt = &mut self.routers[src.0];
        if rt.ni_in.len >= self.cfg.ni_capacity {
            self.stats.refused += 1;
            return Err(InjectError::NiFull);
        }
        let id = PacketId(self.next_id);
        self.next_id += 1;
        let packet = Packet {
            id,
            src,
            dst,
            data,
            tag,
            injected_at: now,
        };
        let flits = packet.flits(self.cfg.flit_bytes);
        let was_empty = rt.ni_in.len == 0;
        let h = self.slab.insert(packet, flits);
        rt.ni_in.push_back(&mut self.slab, h);
        self.ni_pending += 1;
        // A push onto an empty NI creates a new head; readiness of a
        // non-empty NI is a property of its unchanged front.
        if was_empty && (dst == src || self.credits.admits(src.0)) {
            self.set_ni_ready(src.0, true);
        }
        self.stats.injected += 1;
        Ok(id)
    }

    /// Free slots in the NI queue of endpoint `node` (0 when out of range).
    #[inline]
    pub fn ni_free(&self, node: NodeId) -> usize {
        if node.0 >= self.topo.n_endpoints() {
            return 0;
        }
        self.cfg.ni_capacity - self.routers[node.0].ni_in.len
    }

    /// Takes the next delivered packet at endpoint `node`, if any.
    #[inline]
    pub fn eject(&mut self, node: NodeId) -> Option<Packet> {
        let rt = self.routers.get_mut(node.0)?;
        let h = rt.eject.pop_front(&self.slab)?;
        if rt.eject.len == 0 {
            clear_bit(&mut self.eject_ready, node.0);
        }
        self.eject_pending -= 1;
        Some(self.slab.remove(h))
    }

    /// Takes the next delivered packet of the lowest-numbered endpoint that
    /// holds one, with that endpoint. Calling it until `None` yields the
    /// order of a sweep that drains [`Noc::eject`] endpoint by endpoint in
    /// ascending order, without polling the endpoints that hold nothing.
    #[inline]
    pub fn eject_next(&mut self) -> Option<(NodeId, Packet)> {
        let node = NodeId(first_bit(&self.eject_ready)?);
        let packet = self.eject(node).expect("a set bit marks a delivery");
        Some((node, packet))
    }

    /// Packets delivered but not yet taken via [`Noc::eject`] — zero means
    /// an arrival-routing sweep over the endpoints would be a no-op.
    #[inline]
    pub fn eject_pending(&self) -> usize {
        self.eject_pending
    }

    /// The earliest cycle `>= now` at which ticking can change engine state,
    /// or `None` when no tick before the next external injection can move
    /// anything. Exact on the busy path: queued traffic that is stalled on
    /// multi-cycle link occupancy answers the cycle the earliest port frees
    /// (the event-wheel head) rather than `now`, so saturated fabrics
    /// fast-forward across serialization stalls. Traffic blocked purely on
    /// credit contributes nothing — the fire or delivery that frees the
    /// buffer is itself a tracked event that re-arms the wheel.
    #[inline]
    pub fn next_event_cycle(&self, now: Cycles) -> Option<Cycles> {
        let mut next: Option<Cycles> = None;
        let mut fold = |c: Cycles| {
            next = Some(next.map_or(c, |n: Cycles| n.min(c)));
        };
        if self.ni_ready_count > 0 {
            fold(now);
        }
        if let Some(d) = self.arrivals.next_due() {
            fold(d.max(now));
        }
        if self.queued_total > 0 {
            if let Some(d) = self.wakes.next_due() {
                fold(d.max(now));
            }
        }
        next
    }

    /// Whether ticking at `now` would change engine state: an arrival or
    /// router wake is due, or an NI head can inject. The platform's
    /// active-set scheduler uses this to skip the tick entirely on cycles
    /// where the fabric, though loaded, is provably stalled.
    #[inline]
    pub fn due_now(&self, now: Cycles) -> bool {
        self.ni_ready_count > 0
            || self.arrivals.next_due().is_some_and(|d| d <= now)
            || (self.queued_total > 0 && self.wakes.next_due().is_some_and(|d| d <= now))
    }

    /// The aggregate statistics so far.
    pub fn stats(&self) -> NocStats {
        self.stats
    }

    /// The engine's deterministic work counters so far.
    pub fn work(&self) -> NocWork {
        self.work
    }

    /// Packets the engine holds right now: in an NI, on a port queue, in
    /// flight, or delivered and not yet ejected.
    pub fn packets_held(&self) -> usize {
        self.slab.live
    }

    /// Slots the packet slab has grown to — the most packets the engine
    /// ever held at once, since vacated slots are reused before it grows.
    // nw-analyze: allow(PUB01): prop_event_core checks that the slab reuses vacated slots before it grows
    pub fn packet_slots(&self) -> usize {
        self.slab.links.len()
    }

    /// True when nothing is queued or in flight anywhere. O(1): answered
    /// from the same pending-work counters that gate the tick phases, not
    /// a walk of every router's ports.
    pub fn is_quiescent(&self) -> bool {
        self.arrivals.is_empty()
            && self.ni_pending == 0
            && self.queued_total == 0
            && self.eject_pending == 0
    }

    // --- Fault-injection hooks -------------------------------------------
    //
    // Deterministic entry points for `nanowall::FaultCampaign`s at exact
    // cycle boundaries: no clock, no entropy, and the active-set bookkeeping
    // (queues, credits, wake wheel) kept exact, so the event-driven tick
    // stays bit-identical to a scan of every router with faults applied.

    /// Index into the port table of `(router, port)`.
    ///
    /// # Panics
    ///
    /// Panics if `router` or `port` is out of range — in a flat table an
    /// unchecked `port` would name a port of the next router.
    fn port_index(&self, router: usize, port: usize) -> usize {
        let rt = &self.routers[router];
        assert!(port < rt.n_ports, "router {router} has no port {port}");
        rt.first_port + port
    }

    /// Transient link fault: port `(router, port)` transmits nothing before
    /// cycle `until`. Reuses the serialization-occupancy mechanism, so a
    /// stalled port re-arms the event wheel exactly like a long transfer.
    ///
    /// # Panics
    ///
    /// Panics if `router` or `port` is out of range.
    pub fn stall_port(&mut self, router: usize, port: usize, until: u64) {
        let pi = self.port_index(router, port);
        let p = &mut self.ports[pi];
        p.busy_until = p.busy_until.max(until);
        if self.routers[router].queued > 0 {
            self.schedule_wake(router, until);
        }
    }

    /// Whole-router stall: every output of `router` (and its shared medium,
    /// if any) is held busy until cycle `until`.
    ///
    /// # Panics
    ///
    /// Panics if `router` is out of range.
    pub fn stall_router(&mut self, router: usize, until: u64) {
        let rt = &mut self.routers[router];
        for p in &mut self.ports[rt.first_port..rt.first_port + rt.n_ports] {
            p.busy_until = p.busy_until.max(until);
        }
        rt.shared_busy_until = rt.shared_busy_until.max(until);
        if rt.queued > 0 {
            self.schedule_wake(router, until);
        }
    }

    /// Permanent hard fault on directed link `(router, port)`: the port is
    /// marked down, every route is recomputed around the dead set,
    /// and packets queued on the port are re-dispatched along the new
    /// routes (or deterministically dropped when the destination became
    /// unreachable). Idempotent. Returns `true` when this call newly
    /// killed the link.
    ///
    /// # Panics
    ///
    /// Panics if `router` or `port` is out of range.
    pub fn fail_link(&mut self, router: usize, port: usize, now: Cycles) -> bool {
        let pi = self.port_index(router, port);
        if self.ports[pi].down {
            return false;
        }
        self.ports[pi].down = true;
        self.dead_links.push((router, port));
        self.topo.recompute_routes(&self.dead_links);
        // Strand-and-redirect: traffic queued on the dead port follows the
        // recomputed routes or drops.
        let mut stranded = std::mem::replace(&mut self.ports[pi].queue, Fifo::EMPTY);
        clear_bit(
            &mut self.port_bits,
            self.routers[router].first_word * 64 + port,
        );
        while let Some(h) = stranded.pop_front(&self.slab) {
            self.obs_settle(router, now.0);
            self.routers[router].queued -= 1;
            self.queued_total -= 1;
            match self.topo.next_hop(router, self.slab.dst(h)) {
                Some(new_port) => {
                    debug_assert_ne!(new_port, port, "reroute must avoid the dead port");
                    self.enqueue(router, new_port, h, now.0);
                    self.schedule_wake(router, now.0);
                }
                None => {
                    // Unreachable: the reserved buffer slot frees.
                    self.release_slot(router, Pass::Outside, now.0);
                    self.drop_packet(h);
                }
            }
        }
        true
    }

    /// Drop the head-of-line packet at `router`: the first queued packet in
    /// port-index order, else the NI head. Returns whether anything was
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if `router` is out of range.
    pub fn drop_next(&mut self, router: usize, now: Cycles) -> bool {
        if let Some(p) = first_bit(&self.port_bits[self.routers[router].words()]) {
            self.obs_settle(router, now.0);
            let h = self.dequeue(router, p);
            self.release_slot(router, Pass::Outside, now.0);
            self.drop_packet(h);
            return true;
        }
        // No port queue held anything: take the NI head instead.
        if let Some(h) = self.routers[router].ni_in.pop_front(&self.slab) {
            self.ni_pending -= 1;
            // Readiness described the popped head; recompute for the new
            // front so `drain_ni`'s gate stays exact.
            let rt = &self.routers[router];
            let ready = rt.ni_in.len > 0
                && (self.slab.dst(rt.ni_in.head) == router || self.credits.admits(router));
            self.set_ni_ready(router, ready);
            self.drop_packet(h);
            return true;
        }
        false
    }

    /// Corrupt the payload of the packet at the head of endpoint `node`'s
    /// NI queue (XOR of the first byte — enough to break any header).
    /// Returns whether a payload was corrupted.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn corrupt_next(&mut self, node: usize) -> bool {
        let ni = &self.routers[node].ni_in;
        if ni.len == 0 {
            return false;
        }
        let packet = self.slab.packets[ni.head as usize].as_mut();
        if let Some(byte) = packet.and_then(|p| p.data.first_mut()) {
            *byte ^= 0xA5;
            self.corrupted_packets += 1;
            return true;
        }
        false
    }

    /// Packets discarded by fault injection (drops plus disconnection).
    pub fn dropped_packets(&self) -> u64 {
        self.dropped_packets
    }

    /// Flits those discarded packets carried.
    pub fn dropped_flits(&self) -> u64 {
        self.dropped_flits
    }

    /// Packets whose payload was corrupted in place.
    pub fn corrupted_packets(&self) -> u64 {
        self.corrupted_packets
    }

    /// Common drop accounting: count the packet and vacate its slot. The
    /// caller has taken the handle out of whatever queue held it.
    fn drop_packet(&mut self, h: u32) {
        self.dropped_packets += 1;
        self.dropped_flits += self.slab.links[h as usize].flits;
        self.slab.remove(h);
    }

    /// Appends packet `h` to output port `p` of router `r`. The caller
    /// wakes the router: through `ready` inside a tick, through the wheel
    /// from a fault hook.
    // Forced (as `dequeue` and `release_slot` are): the three run on every
    // hop, and left to the inliner they stayed calls, which measured 4 % of
    // `sim_cycles_per_s` on the saturated IPv4 rig.
    #[inline(always)]
    fn enqueue(&mut self, r: usize, p: usize, h: u32, now: u64) {
        self.obs_settle(r, now);
        let rt = &mut self.routers[r];
        self.ports[rt.first_port + p]
            .queue
            .push_back(&mut self.slab, h);
        set_bit(&mut self.port_bits, rt.first_word * 64 + p);
        rt.queued += 1;
        self.queued_total += 1;
        if let Some(obs) = self.obs.as_mut() {
            let c = &mut obs.routers[r];
            c.peak_queue = c.peak_queue.max(rt.queued);
        }
    }

    /// Takes the head packet of output port `p` of router `r`; the caller
    /// checked it is non-empty and settled the occupancy integral.
    #[inline(always)]
    fn dequeue(&mut self, r: usize, p: usize) -> u32 {
        let rt = &mut self.routers[r];
        let queue = &mut self.ports[rt.first_port + p].queue;
        let h = queue
            .pop_front(&self.slab)
            .expect("caller checked non-empty");
        if queue.len == 0 {
            clear_bit(&mut self.port_bits, rt.first_word * 64 + p);
        }
        rt.queued -= 1;
        self.queued_total -= 1;
        h
    }

    fn deliver(
        &mut self,
        router: usize,
        h: u32,
        now: Cycles,
        sink: &mut Option<&mut (dyn TraceSink + '_)>,
    ) {
        self.stats.delivered += 1;
        let packet = self.slab.packets[h as usize]
            .as_ref()
            .expect("handle names a live packet");
        let lat = now.saturating_sub(packet.injected_at);
        self.stats.latency.record(lat);
        if let Some(s) = sink.as_deref_mut() {
            s.emit(TraceEvent::FlitDeliver {
                cycle: now.0,
                src: packet.src.0,
                dst: packet.dst.0,
                latency: lat.0,
            });
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.routers[router].delivered += 1;
        }
        self.routers[router].eject.push_back(&mut self.slab, h);
        set_bit(&mut self.eject_ready, router);
        self.eject_pending += 1;
    }

    /// Puts router `r` on the worklist of this tick's transmit pass. Only
    /// a tick may: the pass empties the worklist before the tick returns.
    #[inline]
    fn mark_ready(&mut self, r: usize) {
        set_bit(&mut self.ready, r);
    }

    /// Enters a wake of router `r` at cycle `at` into the wheel unless its
    /// live wake is as early; the entry it supersedes stays in the wheel.
    /// From inside a tick `at` is a future cycle, from a fault hook its own.
    /// Later needs are rediscovered when the live wake's visit re-arms.
    fn schedule_wake(&mut self, r: usize, at: u64) {
        if at < self.wake_at[r] {
            self.wake_at[r] = at;
            self.wakes.schedule(Cycles(at), r);
            self.work.wakes_scheduled += 1;
        }
    }

    /// Hands back a slot at router `r` and wakes what it unblocks: the
    /// predecessors holding traffic, as `pass` says (`now` is the tick's or
    /// hook's cycle), and `r`'s NI head.
    #[inline(always)]
    fn release_slot(&mut self, r: usize, pass: Pass, now: u64) {
        let (wake_preds, admits) = self.credits.give(r);
        if wake_preds {
            // The routers with a link into `r`, by index: the wakes below
            // borrow the whole engine.
            for i in 0..self.topo.links_into(r).len() {
                let u = self.topo.links_into(r)[i].0 as usize;
                if self.routers[u].queued == 0 {
                    continue;
                }
                match pass {
                    Pass::Ahead => self.mark_ready(u),
                    Pass::At(at) if u > at => self.mark_ready(u),
                    Pass::At(_) => self.schedule_wake(u, now + 1),
                    Pass::Outside => self.schedule_wake(u, now),
                }
            }
        }
        // A blocked non-empty NI always has a remote head: `drain_ni` pops
        // local heads the tick they reach the front.
        if admits && self.routers[r].ni_in.len > 0 {
            self.set_ni_ready(r, true);
        }
    }

    /// Sets or clears endpoint `r`'s bit of `ni_ready`, keeping the count.
    #[inline]
    fn set_ni_ready(&mut self, r: usize, ready: bool) {
        let (word, bit) = (&mut self.ni_ready[r / 64], 1 << (r % 64));
        if (*word & bit != 0) != ready {
            *word ^= bit;
            if ready {
                self.ni_ready_count += 1;
            } else {
                self.ni_ready_count -= 1;
            }
        }
    }

    /// Queues packet `h` (arrived at router `r`, or from its NI) on port
    /// `p` and lists the router for this tick's pass, or, on a non-shared
    /// router whose port still serializes, wakes it when the port frees
    /// (ARCHITECTURE.md, "The busy-port rule").
    #[inline(always)]
    fn enqueue_arrival(&mut self, r: usize, p: usize, h: u32, now: u64) {
        let rt = &self.routers[r];
        let port = &self.ports[rt.first_port + p];
        let (shared, busy_until, was_empty) = (rt.shared, port.busy_until, port.queue.len == 0);
        self.enqueue(r, p, h, now);
        if shared || busy_until <= now {
            self.mark_ready(r);
        } else if was_empty {
            self.schedule_wake(r, busy_until);
        }
    }

    fn drain_arrivals(&mut self, now: Cycles, sink: &mut Option<&mut (dyn TraceSink + '_)>) {
        while let Some(word) = self.arrivals.pop_due(now) {
            self.work.arrivals += 1;
            let (h, router) = arrival_parts(word);
            let dst = self.slab.dst(h);
            if dst == router {
                // Delivered: the slot frees ahead of this tick's pass.
                self.release_slot(router, Pass::Ahead, now.0);
                self.deliver(router, h, now, sink);
            } else if let Some(port) = self.topo.next_hop(router, dst) {
                self.enqueue_arrival(router, port, h, now.0);
            } else {
                // Permanent link faults cut the route after the packet
                // left its source: a deterministic drop.
                self.release_slot(router, Pass::Ahead, now.0);
                self.drop_packet(h);
            }
        }
    }

    fn drain_ni(&mut self, now: Cycles, sink: &mut Option<&mut (dyn TraceSink + '_)>) {
        // No head can progress: every queued one is remote and waits for a
        // credit event, which sets its bit.
        if self.ni_ready_count == 0 {
            return;
        }
        // Ready heads only, lowest endpoint first. Draining an NI readies
        // no other, so each word is walked as it stands.
        for w in 0..self.ni_ready.len() {
            while self.ni_ready[w] != 0 {
                let r = w * 64 + self.ni_ready[w].trailing_zeros() as usize;
                while self.routers[r].ni_in.len > 0 {
                    let h = self.routers[r].ni_in.head;
                    let dst = self.slab.dst(h);
                    // Local delivery bypasses the fabric and its credits.
                    if dst != r && !self.credits.admit(r) {
                        break;
                    }
                    self.routers[r].ni_in.pop_front(&self.slab);
                    self.ni_pending -= 1;
                    if dst == r {
                        self.deliver(r, h, now, sink);
                    } else if let Some(port) = self.topo.next_hop(r, dst) {
                        self.enqueue_arrival(r, port, h, now.0);
                    } else {
                        // Unreachable after permanent link faults: drop at
                        // the NI and hand the slot back (no pool empties).
                        self.credits.give(r);
                        self.drop_packet(h);
                    }
                }
                // Empty or not admitted: the head can no longer progress.
                self.set_ni_ready(r, false);
            }
        }
    }

    /// Starts the transfer of the head packet of port `p` of router `r`,
    /// which is idle and whose downstream credit the caller took. Returns
    /// the cycle the port frees again.
    fn fire(
        &mut self,
        r: usize,
        p: usize,
        now: Cycles,
        sink: &mut Option<&mut (dyn TraceSink + '_)>,
    ) -> u64 {
        debug_assert!(self.routers[r].queued > 0, "fire on a quiescent router");
        self.work.fires += 1;
        self.obs_settle(r, now.0);
        let h = self.dequeue(r, p);
        let pi = self.routers[r].first_port + p;
        let flits = self.slab.links[h as usize].flits;
        let port = &mut self.ports[pi];
        // Every link but a fat tree's upper levels is one flit wide.
        let ser = if port.width == 1 {
            flits
        } else {
            flits.div_ceil(port.width).max(1)
        };
        // Serialization windows never overlap: a port fires only once
        // its previous transfer has drained, so busy_until moves
        // monotonically forward.
        debug_assert!(
            port.busy_until <= now.0,
            "router {r} port {p} fired at {} while busy until {}",
            now.0,
            port.busy_until
        );
        port.busy_until = now.0 + ser;
        let (to, arrive) = (port.to, now.0 + ser + port.latency + self.cfg.router_delay);
        self.stats.flit_hops += flits;
        if let Some(obs) = self.obs.as_mut() {
            let c = &mut obs.links[pi];
            c.busy_cycles += ser;
            c.packets += 1;
            c.flits += flits;
        }
        if let Some(s) = sink.as_deref_mut() {
            s.emit(TraceEvent::LinkTransfer {
                cycle: now.0,
                router: r,
                port: p,
                to: to as usize,
                flits,
                ser,
            });
        }
        // Cut-through: the slot at `r` frees as transmission starts.
        self.release_slot(r, Pass::At(r), now.0);
        self.arrivals.schedule(Cycles(arrive), arrival_word(h, to));
        now.0 + ser
    }

    /// One router's share of the transmit pass: the dense per-port scan
    /// over the ports that hold traffic, plus one wake for the earliest
    /// cycle a busy port or medium frees. A credit-blocked port waits for
    /// `release_slot` to list the router again.
    fn visit_router(
        &mut self,
        r: usize,
        now: Cycles,
        sink: &mut Option<&mut (dyn TraceSink + '_)>,
    ) {
        // Only a visit drains port queues, and every way onto the worklist
        // checks `queued > 0`, so a listed router still holds traffic.
        debug_assert!(self.routers[r].queued > 0, "visit of a quiescent router");
        self.work.router_visits += 1;
        let Router {
            first_port,
            n_ports,
            first_word,
            shared,
            shared_busy_until,
            rr_next,
            ..
        } = self.routers[r];
        if shared {
            // Bus arbiter: one transfer at a time, round-robin grant.
            if shared_busy_until > now.0 {
                self.schedule_wake(r, shared_busy_until);
                return;
            }
            // Ports from the grant pointer up, then the ones below it. The
            // medium's window covers every transfer the bus fired itself,
            // so a port still busy here was stalled by a fault hook: it is
            // passed over, and wakes the bus if nothing else is granted.
            let mut wake = u64::MAX;
            for (from, to) in [(rr_next, n_ports), (0, rr_next)] {
                let mut p = from;
                while p < to {
                    let bits = self.port_bits[first_word + p / 64] & (!0 << (p % 64));
                    if bits == 0 {
                        p = (p / 64 + 1) * 64;
                        continue;
                    }
                    p = p / 64 * 64 + bits.trailing_zeros() as usize;
                    if p >= to {
                        break;
                    }
                    let port = &self.ports[first_port + p];
                    let next = port.to as usize;
                    if port.busy_until > now.0 {
                        wake = wake.min(port.busy_until);
                    } else if self.credits.take(first_port + p, next) {
                        let busy_until = self.fire(r, p, now, sink);
                        self.routers[r].shared_busy_until = busy_until;
                        self.routers[r].rr_next = (p + 1) % n_ports;
                        if self.routers[r].queued > 0 {
                            self.schedule_wake(r, busy_until);
                        }
                        return;
                    }
                    p += 1;
                }
            }
            if wake != u64::MAX {
                self.schedule_wake(r, wake);
            }
        } else {
            let mut wake = u64::MAX;
            for w in 0..n_ports.div_ceil(64) {
                // A copy: `fire` clears only the bit of a port already met.
                let mut bits = self.port_bits[first_word + w];
                while bits != 0 {
                    let p = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let port = &self.ports[first_port + p];
                    if port.busy_until > now.0 {
                        wake = wake.min(port.busy_until);
                        continue;
                    }
                    if !self.credits.take(first_port + p, port.to as usize) {
                        continue;
                    }
                    let busy_until = self.fire(r, p, now, sink);
                    if self.ports[first_port + p].queue.len > 0 {
                        // More packets behind the one now serializing.
                        wake = wake.min(busy_until);
                    }
                }
            }
            if wake != u64::MAX {
                self.schedule_wake(r, wake);
            }
        }
    }

    /// The transmit pass: visits the routers a due wake or this tick's own
    /// pushes and credit frees put on the worklist, in ascending index
    /// order, so credit contention resolves as a scan of every router
    /// would.
    fn transmit(&mut self, now: Cycles, sink: &mut Option<&mut (dyn TraceSink + '_)>) {
        while let Some(r) = self.wakes.pop_due(now) {
            // An entry popping while the live wake lies ahead (or there is
            // none) was superseded, and its successor had the visit.
            if self.wake_at[r] <= now.0 {
                self.wake_at[r] = u64::MAX;
                if self.routers[r].queued > 0 {
                    self.mark_ready(r);
                }
            }
        }
        // Ascending pop: a visit may add routers above itself (`fire`),
        // in this word or a later one, and the scan meets them in order.
        for w in 0..self.ready.len() {
            while self.ready[w] != 0 {
                let r = w * 64 + self.ready[w].trailing_zeros() as usize;
                self.ready[w] &= self.ready[w] - 1;
                self.visit_router(r, now, sink);
            }
        }
    }

    /// Advances the engine by one clock cycle, untraced.
    pub fn tick(&mut self, now: Cycles) {
        self.tick_traced(now, None);
    }

    /// One engine tick with an optional trace sink: identical to
    /// [`Noc::tick`] (which delegates here with `None`), but packet
    /// deliveries and link transfers are reported to `sink` as they
    /// happen. The sink is write-only — nothing it does can change
    /// routing, timing, or statistics.
    #[inline]
    pub fn tick_traced(&mut self, now: Cycles, mut sink: Option<&mut (dyn TraceSink + '_)>) {
        self.run_tick(now, &mut sink);
    }

    /// Runs the engine alone from cycle `from` up to, not including,
    /// `limit`: ticks at `next` (its [`Noc::next_event_cycle`] from
    /// `from`), then at each next event cycle, until
    ///
    /// * a tick leaves a delivery pending — ejecting it is the caller's
    ///   move, on that tick's cycle;
    /// * a tick drops a packet ([`Noc::dropped_packets`] moved);
    /// * or no event comes before `limit`.
    ///
    /// Between ticks the cycles with no event are skipped: each skip is a
    /// hop, announced to `sink` as [`TraceEvent::FastForward`] ahead of
    /// the events of the tick it leads to, as a scheduler hopping there
    /// would announce it. The result is that of the loop "tick at the next
    /// event cycle, stop on any of the above" driven from outside, one
    /// [`Noc::tick_traced`] per event; this is that loop without a call
    /// per event. Every tick runs at a cycle [`Noc::due_now`] answers true
    /// for, so none is a no-op.
    ///
    /// The caller promises that nothing but the engine acts before
    /// `limit`: no injection, ejection, fault hook or other work source.
    #[inline]
    pub fn run_span(
        &mut self,
        from: Cycles,
        next: Cycles,
        limit: Cycles,
        mut sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> NocSpan {
        debug_assert_eq!(self.next_event_cycle(from), Some(next), "span entry");
        let mut span = NocSpan {
            end: from,
            delivered: false,
            hops: 0,
            cycles_hopped: 0,
            ticks: 0,
        };
        let mut next = next.0;
        while next < limit.0 {
            let skipped = next - span.end.0;
            if skipped > 0 {
                span.hops += 1;
                span.cycles_hopped += skipped;
                if let Some(s) = sink.as_deref_mut() {
                    s.emit(TraceEvent::FastForward {
                        cycle: span.end.0,
                        span: skipped,
                    });
                }
            }
            debug_assert!(
                self.due_now(Cycles(next)),
                "a span tick at {next} is a no-op"
            );
            let dropped = self.dropped_packets;
            self.run_tick(Cycles(next), &mut sink);
            span.ticks += 1;
            span.end = Cycles(next + 1);
            if self.eject_pending > 0 {
                span.delivered = true;
                break;
            }
            if self.dropped_packets != dropped {
                break;
            }
            match self.next_event_cycle(span.end) {
                Some(Cycles(c)) => next = c,
                None => break,
            }
        }
        span
    }

    fn run_tick(&mut self, now: Cycles, sink: &mut Option<&mut (dyn TraceSink + '_)>) {
        self.work.ticks += 1;
        self.drain_arrivals(now, sink);
        self.drain_ni(now, sink);
        self.transmit(now, sink);
        #[cfg(debug_assertions)]
        self.debug_audit(now);
    }

    /// Walks FIFO `q` of the packet slab: every link names a live packet,
    /// the walk is `q.len` long and ends at `q.tail`. Returns the length.
    #[cfg(debug_assertions)]
    fn audit_fifo(&self, q: &Fifo, what: fmt::Arguments<'_>) -> usize {
        let (mut h, mut last) = (q.head, NIL);
        for n in 0..q.len {
            debug_assert!(h != NIL, "{what} ends after {n} of {} packets", q.len);
            debug_assert!(
                self.slab.packets[h as usize].is_some(),
                "{what} links vacated slot {h}"
            );
            (last, h) = (h, self.slab.links[h as usize].next);
        }
        debug_assert!(
            h == NIL && last == q.tail,
            "{what} of length {} ends at {last} -> {h}, tail {}",
            q.len,
            q.tail
        );
        q.len
    }

    /// Debug-build audit of the bookkeeping against ground truth, after
    /// every tick.
    ///
    /// The event-driven fast path is only sound while the global counters
    /// mirror the per-router state exactly and the event wheel never holds
    /// an already-due live wake after a tick — the precise conditions under
    /// which `next_event_cycle` may fast-forward. The slab ledger pins the
    /// ownership rule of the storage: every live slot sits in exactly one
    /// FIFO or one arrival event, every other slot is on the free list.
    #[cfg(debug_assertions)]
    fn debug_audit(&self, now: Cycles) {
        let (mut queued, mut ni, mut eject) = (0, 0, 0);
        for (r, rt) in self.routers.iter().enumerate() {
            let mut on_ports = 0;
            for p in 0..rt.n_ports {
                let port = &self.ports[rt.first_port + p];
                let n = self.audit_fifo(&port.queue, format_args!("port queue {r}:{p}"));
                debug_assert!(
                    !port.down || n == 0,
                    "dead link {r}:{p} holds queued packets at {now:?}"
                );
                // A queue behind a port still serializing is covered by its
                // router's wake, which `enqueue_arrival` relies on (the bus
                // arbiter wakes on its medium instead).
                debug_assert!(
                    rt.shared
                        || n == 0
                        || port.busy_until <= now.0
                        || self.wake_at[r] <= port.busy_until,
                    "port {r}:{p} queues behind a transfer until {} with no wake by then at {now:?}",
                    port.busy_until
                );
                on_ports += n;
            }
            // Bit `p` set exactly when port `p` holds traffic, and no bit
            // beyond the router's last port.
            for (w, &word) in self.port_bits[rt.words()].iter().enumerate() {
                let walked = (0..rt.n_ports.saturating_sub(w * 64).min(64))
                    .filter(|b| self.ports[rt.first_port + w * 64 + b].queue.len > 0)
                    .fold(0u64, |acc, b| acc | 1 << b);
                debug_assert_eq!(
                    word, walked,
                    "non-empty-port word {w} of router {r} diverged from its queues at {now:?}"
                );
            }
            debug_assert_eq!(
                rt.queued, on_ports,
                "router {r} queued count diverged from its port queues at {now:?}"
            );
            queued += on_ports;
            ni += self.audit_fifo(&rt.ni_in, format_args!("NI queue {r}"));
            let ejects = self.audit_fifo(&rt.eject, format_args!("eject queue {r}"));
            if r < self.topo.n_endpoints() {
                let bit = self.eject_ready[r / 64] >> (r % 64) & 1 == 1;
                debug_assert_eq!(
                    bit,
                    ejects > 0,
                    "eject bit of endpoint {r} diverged from its queue at {now:?}"
                );
            } else {
                debug_assert_eq!(rt.ni_in.len + ejects, 0, "switch router {r} has no NI");
            }
            eject += ejects;
        }
        debug_assert_eq!(
            self.queued_total, queued,
            "queued_total diverged from per-router queues at {now:?}"
        );
        debug_assert_eq!(
            self.ni_pending, ni,
            "ni_pending diverged from NI queues at {now:?}"
        );
        debug_assert_eq!(
            self.eject_pending, eject,
            "eject_pending diverged from eject queues at {now:?}"
        );
        // Credit conservation: a slot is held by a packet on a port queue,
        // or in flight toward the router it reserved, and by nothing else.
        debug_assert_eq!(
            self.credits.held(&self.topo, self.cfg.input_buffer),
            queued + self.arrivals.len(),
            "credits held vs port queues + in flight at {now:?}"
        );
        // The slab ledger: a live slot is in one of the four places a
        // handle can sit; everything else is on the free list.
        let live = self.slab.packets.iter().filter(|p| p.is_some()).count();
        debug_assert_eq!(live, self.slab.live, "slab live count at {now:?}");
        debug_assert_eq!(
            live,
            ni + queued + self.arrivals.len() + eject,
            "live slots vs NI + port queues + in flight + eject queues at {now:?}"
        );
        let (mut h, mut free) = (self.slab.free, 0);
        while h != NIL && free <= self.slab.links.len() {
            debug_assert!(
                self.slab.packets[h as usize].is_none(),
                "free list links live slot {h}"
            );
            (h, free) = (self.slab.links[h as usize].next, free + 1);
        }
        debug_assert_eq!(self.slab.links.len(), self.slab.packets.len());
        debug_assert_eq!(
            live + free,
            self.slab.links.len(),
            "live + free slots vs slab length at {now:?}"
        );
        debug_assert!(
            self.ready.iter().all(|&w| w == 0),
            "transmit worklist not empty after tick {now:?}"
        );
        let ready: u32 = self.ni_ready.iter().map(|w| w.count_ones()).sum();
        debug_assert_eq!(
            self.ni_ready_count, ready as usize,
            "ni_ready_count diverged from ni_ready bits at {now:?}"
        );
        for (r, &at) in self.wake_at.iter().enumerate() {
            debug_assert!(
                at == u64::MAX || at > now.0,
                "router {r} holds a stale wake at {at} after tick {now:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;

    /// `len` bytes whose first (up to 16) are `byte`, zero after.
    fn filled(len: usize, byte: u8) -> Payload {
        Payload::with_head(len, &[byte; 16][..len.min(16)])
    }

    /// A default-configured engine on a `kind` fabric of `n` endpoints.
    fn noc(kind: TopologyKind, n: usize, link_latency: u64) -> Noc {
        Noc::new(
            Topology::build(kind, n, link_latency).unwrap(),
            NocConfig::default(),
        )
    }

    /// Injects at cycle 0, which must be accepted.
    fn inject(noc: &mut Noc, src: usize, dst: usize, payload: Payload, tag: u64) {
        let sent = noc.try_inject(NodeId(src), NodeId(dst), payload, tag, Cycles(0));
        sent.unwrap();
    }

    fn run_until_delivered(noc: &mut Noc, dst: NodeId, limit: u64) -> (Packet, Cycles) {
        let mut now = Cycles(0);
        loop {
            noc.tick(now);
            if let Some(p) = noc.eject(dst) {
                return (p, now);
            }
            now += Cycles(1);
            assert!(now.0 < limit, "packet not delivered within {limit} cycles");
        }
    }

    #[test]
    fn single_packet_crosses_mesh() {
        let mut noc = noc(TopologyKind::Mesh, 16, 1);
        inject(&mut noc, 0, 15, filled(24, 9), 7);
        let (p, _) = run_until_delivered(&mut noc, NodeId(15), 1000);
        assert_eq!(p.src, NodeId(0));
        assert_eq!(p.tag, 7);
        assert_eq!(p.data, filled(24, 9));
        let s = noc.stats();
        assert_eq!(s.injected, 1);
        assert_eq!(s.delivered, 1);
        assert!(s.latency.mean() > 0.0);
    }

    #[test]
    fn local_delivery_is_fast() {
        let mut noc = noc(TopologyKind::Ring, 4, 1);
        inject(&mut noc, 2, 2, filled(1, 1), 0);
        let (p, when) = run_until_delivered(&mut noc, NodeId(2), 10);
        assert_eq!(p.dst, NodeId(2));
        assert!(when.0 <= 1);
    }

    #[test]
    fn latency_grows_with_hops() {
        // On a large ring, a far destination takes longer than a neighbor.
        let mut near = noc(TopologyKind::Ring, 16, 1);
        inject(&mut near, 0, 1, Payload::zeroed(8), 0);
        let (_, t_near) = run_until_delivered(&mut near, NodeId(1), 1000);
        let mut far = noc(TopologyKind::Ring, 16, 1);
        inject(&mut far, 0, 8, Payload::zeroed(8), 0);
        let (_, t_far) = run_until_delivered(&mut far, NodeId(8), 1000);
        assert!(t_far > t_near, "far {t_far} should exceed near {t_near}");
    }

    #[test]
    fn bus_serializes_but_crossbar_switches_in_parallel() {
        // Four disjoint src->dst pairs, all crossing the center.
        let drive = |kind: TopologyKind| -> Cycles {
            let mut noc = noc(kind, 8, 1);
            for i in 0..4 {
                inject(&mut noc, i, i + 4, Payload::zeroed(56), 0);
            }
            let mut now = Cycles(0);
            let mut got = 0;
            while got < 4 {
                noc.tick(now);
                for i in 4..8 {
                    if noc.eject(NodeId(i)).is_some() {
                        got += 1;
                    }
                }
                now += Cycles(1);
                assert!(now.0 < 10_000);
            }
            now
        };
        let t_bus = drive(TopologyKind::SharedBus);
        let t_xbar = drive(TopologyKind::Crossbar);
        assert!(
            t_bus.0 > t_xbar.0 + 10,
            "bus {t_bus} should be much slower than crossbar {t_xbar}"
        );
    }

    #[test]
    fn ni_backpressure_refuses_when_full() {
        let topo = Topology::build(TopologyKind::Ring, 4, 1).unwrap();
        let cfg = NocConfig {
            ni_capacity: 2,
            ..NocConfig::default()
        };
        let mut noc = Noc::new(topo, cfg);
        assert!(noc
            .try_inject(NodeId(0), NodeId(2), Payload::EMPTY, 0, Cycles(0))
            .is_ok());
        assert!(noc
            .try_inject(NodeId(0), NodeId(2), Payload::EMPTY, 1, Cycles(0))
            .is_ok());
        assert_eq!(
            noc.try_inject(NodeId(0), NodeId(2), Payload::EMPTY, 2, Cycles(0)),
            Err(InjectError::NiFull)
        );
        assert_eq!(noc.stats().refused, 1);
        assert_eq!(noc.ni_free(NodeId(0)), 0);
    }

    #[test]
    fn bad_endpoints_are_rejected() {
        let mut noc = noc(TopologyKind::Ring, 4, 1);
        assert_eq!(
            noc.try_inject(NodeId(9), NodeId(0), Payload::EMPTY, 0, Cycles(0)),
            Err(InjectError::BadSource(NodeId(9)))
        );
        assert_eq!(
            noc.try_inject(NodeId(0), NodeId(9), Payload::EMPTY, 0, Cycles(0)),
            Err(InjectError::BadDestination(NodeId(9)))
        );
    }

    #[test]
    fn conservation_every_packet_delivered_exactly_once() {
        let mut noc = noc(TopologyKind::Mesh, 16, 1);
        let mut now = Cycles(0);
        let mut sent = 0u64;
        let mut got = 0u64;
        // Staggered all-to-one plus neighbor traffic for 200 cycles.
        while now.0 < 200 {
            let src = (now.0 % 16) as usize;
            let dst = ((now.0 * 7 + 3) % 16) as usize;
            if noc
                .try_inject(NodeId(src), NodeId(dst), Payload::zeroed(16), now.0, now)
                .is_ok()
            {
                sent += 1;
            }
            noc.tick(now);
            for e in 0..16 {
                while noc.eject(NodeId(e)).is_some() {
                    got += 1;
                }
            }
            now += Cycles(1);
        }
        // Drain.
        while !noc.is_quiescent() {
            noc.tick(now);
            for e in 0..16 {
                while noc.eject(NodeId(e)).is_some() {
                    got += 1;
                }
            }
            now += Cycles(1);
            assert!(now.0 < 100_000, "network failed to drain");
        }
        assert_eq!(sent, got);
        assert_eq!(noc.stats().delivered, sent);
        assert_eq!(noc.stats().latency.count(), sent);
    }

    #[test]
    fn latency_moments_equal_a_naive_fold_over_deliveries() {
        // Every delivery is taken the cycle it lands, so its latency is
        // `now - injected_at`; the engine's moments are exactly their fold.
        let mut noc = noc(TopologyKind::Mesh, 16, 2);
        let mut naive = Vec::new();
        let mut now = Cycles(0);
        while now.0 < 600 || !noc.is_quiescent() {
            if now.0 < 600 {
                let src = ((now.0 * 7) % 16) as usize;
                let dst = ((now.0 * 3 + 5) % 16) as usize;
                let _ = noc.try_inject(NodeId(src), NodeId(dst), Payload::zeroed(40), 0, now);
            }
            noc.tick(now);
            while let Some((_, p)) = noc.eject_next() {
                naive.push(now.0 - p.injected_at.0);
            }
            now += Cycles(1);
            assert!(now.0 < 100_000, "network failed to drain");
        }
        let s = noc.stats();
        let n = naive.len() as u64;
        assert!(n > 100, "only {n} deliveries");
        assert_eq!((s.delivered, s.latency.count()), (n, n));
        let sum: u128 = naive.iter().map(|&v| u128::from(v)).sum();
        assert_eq!(
            s.latency.mean().to_bits(),
            (sum as f64 / n as f64).to_bits()
        );
        let (min, max) = (naive.iter().min(), naive.iter().max());
        assert!(min < max, "latencies should differ under load");
        assert_eq!(s.latency.min(), min.map(|&v| Cycles(v)));
        assert_eq!(s.latency.max(), max.map(|&v| Cycles(v)));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut noc = noc(TopologyKind::Torus, 16, 2);
            let mut now = Cycles(0);
            while now.0 < 500 {
                let src = ((now.0 * 5) % 16) as usize;
                let dst = ((now.0 * 11 + 1) % 16) as usize;
                let _ = noc.try_inject(NodeId(src), NodeId(dst), Payload::zeroed(32), now.0, now);
                noc.tick(now);
                for e in 0..16 {
                    while noc.eject(NodeId(e)).is_some() {}
                }
                now += Cycles(1);
            }
            let s = noc.stats();
            (
                s.injected,
                s.delivered,
                s.flit_hops,
                s.latency.mean().to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn queued_counter_tracks_port_queues() {
        // Hammer a mesh with skewed traffic, checking the quiescent-skip
        // counter against the ground-truth queue lengths every cycle.
        let mut noc = noc(TopologyKind::Mesh, 16, 2);
        let mut now = Cycles(0);
        while now.0 < 400 {
            let src = ((now.0 * 3) % 16) as usize;
            let _ = noc.try_inject(NodeId(src), NodeId(5), Payload::zeroed(48), 0, now);
            noc.tick(now);
            for r in &noc.routers {
                let ports = &noc.ports[r.first_port..r.first_port + r.n_ports];
                let actual: usize = ports.iter().map(|p| p.queue.len).sum();
                assert_eq!(r.queued, actual);
            }
            // The active-set gate counters track the ground truth exactly.
            let ni_actual: usize = noc.routers.iter().map(|r| r.ni_in.len).sum();
            assert_eq!(noc.ni_pending, ni_actual);
            let queued_actual: usize = noc.routers.iter().map(|r| r.queued).sum();
            assert_eq!(noc.queued_total, queued_actual);
            let eject_actual: usize = noc.routers.iter().map(|r| r.eject.len).sum();
            assert_eq!(noc.eject_pending(), eject_actual);
            // Every packet held is in one of those places or in flight.
            assert_eq!(
                noc.packets_held(),
                ni_actual + queued_actual + eject_actual + noc.arrivals.len()
            );
            for e in 0..16 {
                while noc.eject(NodeId(e)).is_some() {}
            }
            assert_eq!(noc.eject_pending(), 0);
            now += Cycles(1);
        }
        // Drain and confirm the counters return to zero with quiescence.
        while !noc.is_quiescent() {
            noc.tick(now);
            for e in 0..16 {
                while noc.eject(NodeId(e)).is_some() {}
            }
            now += Cycles(1);
            assert!(now.0 < 100_000);
        }
        assert!(noc.routers.iter().all(|r| r.queued == 0));
        assert_eq!(noc.ni_pending, 0);
        assert_eq!(noc.queued_total, 0);
        assert_eq!(noc.next_event_cycle(now), None);
        assert_eq!(noc.packets_held(), 0, "every slab slot is free again");
    }

    #[test]
    fn next_event_follows_traffic() {
        let mut noc = noc(TopologyKind::Ring, 8, 7);
        assert_eq!(noc.next_event_cycle(Cycles(0)), None);
        inject(&mut noc, 0, 3, Payload::zeroed(16), 0);
        // Queued NI traffic: work due immediately.
        assert_eq!(noc.next_event_cycle(Cycles(0)), Some(Cycles(0)));
        noc.tick(Cycles(0));
        // Now the packet is serializing over a 7-cycle link: the next event
        // is its arrival, strictly in the future and never overshot.
        let next = noc
            .next_event_cycle(Cycles(1))
            .expect("a transfer is in flight");
        assert!(
            next > Cycles(1),
            "wire latency means a future event: {next}"
        );
        let mut now = Cycles(1);
        while noc.eject(NodeId(3)).is_none() {
            now += Cycles(1);
            noc.tick(now);
            assert!(now.0 < 1_000);
        }
        assert!(now >= next, "packet cannot arrive before the next event");
    }

    #[test]
    fn stalled_port_delays_delivery() {
        let deliver_at = |stall: Option<u64>| -> u64 {
            let mut noc = noc(TopologyKind::Ring, 8, 1);
            inject(&mut noc, 0, 2, Payload::zeroed(16), 0);
            if let Some(until) = stall {
                let port = noc.topology().next_hop(0, 2).unwrap();
                noc.stall_port(0, port, until);
            }
            run_until_delivered(&mut noc, NodeId(2), 10_000).1 .0
        };
        let clean = deliver_at(None);
        let stalled = deliver_at(Some(50));
        assert!(
            stalled >= 50 && stalled > clean,
            "stall must delay delivery: clean {clean}, stalled {stalled}"
        );
        // Router-wide stalls delay at least as much as a single port.
        let mut noc = noc(TopologyKind::Ring, 8, 1);
        inject(&mut noc, 0, 2, Payload::zeroed(16), 0);
        noc.stall_router(0, 80);
        let (_, t) = run_until_delivered(&mut noc, NodeId(2), 10_000);
        assert!(t.0 >= 80);
    }

    #[test]
    fn stalled_bus_port_waits_while_the_bus_grants_the_others() {
        // The arbiter of the shared router honours a port stall: the
        // stalled port's packet waits out the window, the other port is
        // granted meanwhile, and the window's end wakes the idle bus.
        let mut noc = noc(TopologyKind::SharedBus, 4, 1);
        let hub = noc.topology().n_endpoints();
        assert!(noc.topology().is_shared(hub));
        inject(&mut noc, 0, 2, Payload::zeroed(16), 0);
        inject(&mut noc, 1, 3, Payload::zeroed(16), 0);
        let port = noc.topology().next_hop(hub, 2).unwrap();
        noc.stall_port(hub, port, 50);
        let (mut at_2, mut at_3) = (None, None);
        for now in 0..1_000 {
            noc.tick(Cycles(now));
            at_2 = at_2.or(noc.eject(NodeId(2)).map(|_| now));
            at_3 = at_3.or(noc.eject(NodeId(3)).map(|_| now));
        }
        let (at_2, at_3) = (at_2.expect("stalled port"), at_3.expect("free port"));
        assert!(
            at_2 >= 50,
            "stalled port fired at {at_2}, inside its window"
        );
        assert!(
            at_3 < 50,
            "the free port waited for the stalled one: {at_3}"
        );
        assert!(noc.is_quiescent());
    }

    #[test]
    fn failed_link_reroutes_queued_traffic() {
        // 4x4 mesh, 0 -> 3 along row 0. Kill 0's east port after the
        // packet is queued on it; the packet must detour and still arrive.
        let mut noc = noc(TopologyKind::Mesh, 16, 1);
        inject(&mut noc, 0, 3, filled(16, 7), 9);
        // One tick moves the packet from the NI onto the east port queue,
        // which a stall keeps it from leaving.
        let east = noc.topology().next_hop(0, 3).unwrap();
        noc.stall_port(0, east, 5);
        noc.tick(Cycles(0));
        let east_port = noc.port_index(0, east);
        assert_eq!(noc.ports[east_port].queue.len, 1);
        assert!(noc.fail_link(0, east, Cycles(1)));
        assert!(!noc.fail_link(0, east, Cycles(1)), "idempotent");
        assert_eq!(noc.ports[east_port].queue.len, 0);
        assert_eq!(noc.routers[0].queued, 1, "requeued on the detour");
        let (p, _) = run_until_delivered(&mut noc, NodeId(3), 10_000);
        assert_eq!(p.data, filled(16, 7));
        assert_eq!(noc.dropped_packets(), 0);
    }

    #[test]
    fn disconnection_drops_deterministically() {
        // Crossbar endpoint 0 has exactly one outbound link; killing it
        // strands every remote packet from node 0.
        let mut noc = noc(TopologyKind::Crossbar, 4, 1);
        inject(&mut noc, 0, 2, filled(24, 1), 0);
        assert!(noc.fail_link(0, 0, Cycles(0)));
        let mut now = Cycles(0);
        while !noc.is_quiescent() {
            noc.tick(now);
            now += Cycles(1);
            assert!(now.0 < 1_000);
        }
        assert_eq!(noc.dropped_packets(), 1);
        assert!(noc.dropped_flits() > 0);
        assert!(noc.is_quiescent());
    }

    #[test]
    fn drop_next_takes_head_of_line() {
        let mut noc = noc(TopologyKind::Ring, 8, 1);
        assert!(!noc.drop_next(0, Cycles(0)), "nothing to drop yet");
        inject(&mut noc, 0, 3, filled(16, 2), 0);
        // Still in the NI: the NI head is dropped.
        assert!(noc.drop_next(0, Cycles(0)));
        assert_eq!(noc.dropped_packets(), 1);
        let mut now = Cycles(0);
        while !noc.is_quiescent() {
            noc.tick(now);
            now += Cycles(1);
        }
        assert!(noc.is_quiescent());
        assert_eq!(noc.stats().delivered, 0);
    }

    #[test]
    fn corrupt_next_flips_payload_in_place() {
        let mut noc = noc(TopologyKind::Ring, 8, 1);
        assert!(!noc.corrupt_next(0));
        inject(&mut noc, 0, 3, filled(16, 0x11), 0);
        assert!(noc.corrupt_next(0));
        assert_eq!(noc.corrupted_packets(), 1);
        let (p, _) = run_until_delivered(&mut noc, NodeId(3), 10_000);
        assert_eq!(p.data.head()[0], 0x11 ^ 0xA5);
        assert!(p.data.head()[1..].iter().all(|&b| b == 0x11));
    }

    #[test]
    fn fat_tree_delivers_cross_traffic() {
        let mut noc = noc(TopologyKind::FatTree, 16, 1);
        for i in 0..8 {
            inject(&mut noc, i, 15 - i, Payload::zeroed(40), i as u64);
        }
        let mut now = Cycles(0);
        let mut got = 0;
        while got < 8 {
            noc.tick(now);
            for e in 0..16 {
                while noc.eject(NodeId(e)).is_some() {
                    got += 1;
                }
            }
            now += Cycles(1);
            assert!(now.0 < 10_000);
        }
    }

    #[test]
    fn zero_flit_bytes_is_rejected() {
        let cfg = NocConfig {
            flit_bytes: 0,
            ..NocConfig::default()
        };
        assert_eq!(cfg.validate(), Err(NocConfigError::ZeroFlitBytes));
        assert_eq!(NocConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_ni_capacity_is_rejected() {
        let cfg = NocConfig {
            ni_capacity: 0,
            ..NocConfig::default()
        };
        assert_eq!(cfg.validate(), Err(NocConfigError::ZeroNiCapacity));
    }

    #[test]
    fn input_buffer_under_two_is_rejected() {
        for n in [0, 1] {
            let cfg = NocConfig {
                input_buffer: n,
                ..NocConfig::default()
            };
            let err = cfg.validate().unwrap_err();
            assert_eq!(err, NocConfigError::InputBufferUnderTwo(n));
            assert!(err.to_string().contains("two free slots"), "{err}");
        }
        let cfg = NocConfig {
            input_buffer: 2,
            ..NocConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "invalid NocConfig: flit width is zero bytes")]
    fn engine_refuses_an_unvalidated_bad_config() {
        let topo = Topology::build(TopologyKind::Ring, 4, 1).unwrap();
        let cfg = NocConfig {
            flit_bytes: 0,
            ..NocConfig::default()
        };
        let _ = Noc::new(topo, cfg);
    }

    #[test]
    #[should_panic(expected = "router 0 has no port 2")]
    fn fault_hooks_reject_a_port_of_the_next_router() {
        // Ring routers have two ports; in the flat table index 2 of router
        // 0 is port 0 of router 1.
        let mut noc = noc(TopologyKind::Ring, 4, 1);
        noc.stall_port(0, 2, 10);
    }

    #[test]
    fn eject_next_sweeps_endpoints_in_ascending_order() {
        // Two packets each for endpoints 6, 1 and 3 (injected in that
        // order), plus a self-addressed one at 1; nothing is ejected until
        // all have arrived.
        let mk = || {
            let mut noc = noc(TopologyKind::Crossbar, 8, 1);
            let mut tag = 0;
            for dst in [6, 1, 3] {
                for src in [0, 7] {
                    inject(&mut noc, src, dst, Payload::zeroed(8), tag);
                    tag += 1;
                }
            }
            inject(&mut noc, 1, 1, Payload::EMPTY, tag);
            let mut now = Cycles(0);
            while noc.eject_pending() < 7 {
                noc.tick(now);
                now += Cycles(1);
                assert!(now.0 < 1_000);
            }
            noc
        };
        let mut polled = mk();
        let mut by_polling = Vec::new();
        for e in 0..8 {
            while let Some(p) = polled.eject(NodeId(e)) {
                by_polling.push((NodeId(e), p));
            }
        }
        let mut swept = mk();
        let mut by_sweep = Vec::new();
        while let Some(x) = swept.eject_next() {
            by_sweep.push(x);
        }
        assert_eq!(by_sweep, by_polling);
        let order: Vec<usize> = by_sweep.iter().map(|(n, _)| n.0).collect();
        assert_eq!(order, [1, 1, 1, 3, 3, 6, 6]);
        assert_eq!(by_sweep[0].1.tag, 6, "the local delivery came first");
        assert_eq!(swept.eject_pending(), 0);
        assert_eq!(swept.eject_next(), None);
        assert!(swept.is_quiescent());
    }

    /// The cycle and router of every link transfer traced.
    #[derive(Debug, Default)]
    struct Transfers(Vec<(u64, usize)>);

    impl TraceSink for Transfers {
        fn emit(&mut self, ev: TraceEvent) {
            if let TraceEvent::LinkTransfer { cycle, router, .. } = ev {
                self.0.push((cycle, router));
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn arrival_on_a_busy_port_waits_for_it_without_a_visit() {
        // A long packet leaves router 1 toward 3 at cycle 0; a short one
        // from 0, bound for 3 as well, reaches router 1 while that port
        // still serializes it.
        let mut noc = noc(TopologyKind::Ring, 8, 1);
        inject(&mut noc, 1, 3, Payload::zeroed(200), 0);
        inject(&mut noc, 0, 3, Payload::EMPTY, 1);
        let mut sink = Transfers::default();
        noc.tick_traced(Cycles(0), Some(&mut sink));
        let port = noc.port_index(1, noc.topology().next_hop(1, 3).unwrap());
        let busy_until = noc.ports[port].busy_until;
        let arrival = noc.arrivals.next_due().unwrap();
        assert!(
            arrival.0 < busy_until,
            "arrives at {arrival}, port busy until {busy_until}"
        );
        // The arrival queues behind the transfer and enters the router's
        // wake for the cycle the port frees: no visit.
        let before = noc.work();
        assert!(noc.due_now(arrival));
        noc.tick_traced(arrival, Some(&mut sink));
        assert_eq!(noc.work().arrivals, before.arrivals + 1);
        assert_eq!(noc.work().router_visits, before.router_visits);
        assert_eq!(noc.work().wakes_scheduled, before.wakes_scheduled + 1);
        assert_eq!(noc.wake_at[1], busy_until);
        assert_eq!(noc.ports[port].queue.len, 1);
        // Nothing is due until then, and the packet leaves right then.
        assert_eq!(
            noc.next_event_cycle(arrival + Cycles(1)),
            Some(Cycles(busy_until))
        );
        let mut now = busy_until;
        while noc.stats().delivered < 2 {
            noc.tick_traced(Cycles(now), Some(&mut sink));
            now += 1;
            assert!(now < 1_000);
        }
        let from_1: Vec<u64> = (sink.0.iter())
            .filter(|&&(_, router)| router == 1)
            .map(|&(cycle, _)| cycle)
            .collect();
        assert_eq!(from_1, [0, busy_until]);
    }

    #[test]
    fn superseded_wake_is_dropped_without_a_visit() {
        // Two 26-flit packets queue on one ring port: the first serializes
        // until cycle 26 with the second behind it, so router 0's wake is
        // entered for 26.
        let mut noc = noc(TopologyKind::Ring, 8, 1);
        for tag in 0..2 {
            inject(&mut noc, 0, 2, Payload::zeroed(200), tag);
        }
        noc.tick(Cycles(0));
        assert_eq!(noc.wake_at[0], 26);
        // A stall ending earlier supersedes that wake with one for 10; a
        // longer stall then moves the port's release to 40, which the
        // visit at 10 finds and re-arms for. The entry for 26 is still in
        // the wheel.
        let port = noc.topology().next_hop(0, 2).unwrap();
        noc.stall_port(0, port, 10);
        noc.stall_port(0, port, 40);
        for c in 1..26 {
            noc.tick(Cycles(c));
        }
        assert_eq!(noc.wake_at[0], 40);
        assert_eq!(noc.wakes.len(), 2, "live wake and the superseded one");
        // It makes cycle 26 due (early is fine), pops there, and goes:
        // no visit, and the live wake is left alone.
        assert!(noc.due_now(Cycles(26)));
        let before = noc.work();
        noc.tick(Cycles(26));
        assert_eq!(noc.work().router_visits, before.router_visits);
        assert_eq!(noc.work().wakes_scheduled, before.wakes_scheduled);
        assert_eq!(noc.wake_at[0], 40);
        assert_eq!(noc.wakes.len(), 1);
        let mut now = Cycles(27);
        while noc.stats().delivered < 2 {
            noc.tick(now);
            now += Cycles(1);
            assert!(now.0 < 1_000, "second packet leaves at 40");
        }
    }
}
