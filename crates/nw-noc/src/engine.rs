//! The cycle-stepped NoC engine.
//!
//! Timing model: packet-granular virtual cut-through. Each router holds a
//! bounded pool of packet buffers; a packet crossing a link occupies the
//! link for `ceil(flits / width)` cycles (serialization) plus the link's
//! wire latency and a fixed per-hop router pipeline delay. Transfers start
//! only when the downstream router has a free buffer (credit flow control),
//! so congestion back-pressures all the way to the network interfaces.
//! Injection additionally requires *two* free slots at the local router
//! (bubble flow control), which keeps rings and tori deadlock-free.
//!
//! Shared-medium routers (the bus arbiter) serialize all their ports through
//! a single round-robin grant — this is what makes [`TopologyKind::SharedBus`]
//! saturate at one transfer at a time while the crossbar core switches all
//! ports in parallel.
//!
//! [`TopologyKind::SharedBus`]: crate::topology::TopologyKind::SharedBus

use crate::packet::{Packet, PacketId};
use crate::topology::Topology;
use nw_obs::{LinkLoad, NocHeatmap, RouterLoad, TraceEvent, TraceSink};
use nw_sim::{Clocked, Counter, EventQueue, Histogram};
use nw_types::{Cycles, NodeId};
use std::collections::VecDeque;
use std::fmt;

/// Tuning knobs of the NoC timing model.
#[derive(Debug, Clone, Copy)]
pub struct NocConfig {
    /// Link width in bytes per flit (default 8: 64-bit links).
    pub flit_bytes: u64,
    /// Packet buffers per router (default 8).
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

#[derive(Debug, Clone)]
struct OutPort {
    to: usize,
    latency: u64,
    width: u64,
    busy_until: u64,
    queue: VecDeque<Packet>,
    /// Permanently dead (hard link fault). Routing tables are recomputed
    /// to avoid dead ports, so their queues stay empty; the flag makes
    /// [`Noc::fail_link`] idempotent and lets the audit pin the invariant.
    down: bool,
}

#[derive(Debug, Clone)]
struct RouterState {
    ports: Vec<OutPort>,
    shared: bool,
    shared_busy_until: u64,
    rr_next: usize,
    input_free: usize,
    ni_in: VecDeque<Packet>,
    eject: VecDeque<Packet>,
    /// Packets sitting in this router's output-port queues. Kept so the
    /// per-cycle transmit scan can skip quiescent routers without walking
    /// their ports (the dominant cost on large, mostly idle fabrics).
    queued: usize,
}

#[derive(Debug, Clone)]
struct Arrival {
    router: usize,
    packet: Packet,
}

/// Per-link load accumulators (indexed like the router's ports).
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

/// Opt-in heatmap accounting, one slot per router. `None` until
/// [`Noc::enable_obs`] — the disabled cost on every hot path is a single
/// `Option` branch.
#[derive(Debug, Clone)]
struct ObsCounters {
    links: Vec<Vec<LinkCounter>>,
    routers: Vec<RouterCounter>,
}

/// Aggregate NoC statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct NocStats {
    /// Packets accepted into NI queues.
    pub injected: u64,
    /// Packets delivered to their destination eject queue.
    pub delivered: u64,
    /// Injection attempts refused because the NI was full.
    pub refused: u64,
    /// Sum of flits × hops transported (link occupancy proxy).
    pub flit_hops: u64,
    /// End-to-end packet latency (NI entry to destination arrival).
    pub latency: Histogram,
}

/// The scalar counters of [`NocStats`], without the latency histogram.
///
/// [`Noc::counts`] hands this out by value on hot paths (per-cycle harness
/// loops, assertions) where cloning the 65-bucket histogram that
/// [`Noc::stats`] snapshots would be pure overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocCounts {
    /// Packets accepted into NI queues.
    pub injected: u64,
    /// Packets delivered to their destination eject queue.
    pub delivered: u64,
    /// Injection attempts refused because the NI was full.
    pub refused: u64,
    /// Sum of flits × hops transported (link occupancy proxy).
    pub flit_hops: u64,
}

/// Deterministic work counters of the engine: what its ticks did, not what
/// the network computed. A pure function of configuration, traffic and the
/// cycles ticked, so they repeat exactly; cumulative since construction and
/// carried by clones. The dense reference scan visits more routers than the
/// event-driven pass, which is why these stay out of [`NocStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NocWork {
    /// Engine ticks run ([`Noc::tick_traced`] or [`Noc::tick_reference`]).
    pub ticks: u64,
    /// In-flight transfers that reached their next router.
    pub arrivals: u64,
    /// Router wakes entered into the event wheel.
    pub wakes_scheduled: u64,
    /// Routers examined by transmit passes.
    pub router_visits: u64,
    /// Link transfers started (packet-hops).
    pub fires: u64,
}

/// A simulated network-on-chip: topology + routers + in-flight transfers.
///
/// # Examples
///
/// ```
/// use nw_noc::{Noc, NocConfig, Topology, TopologyKind};
/// use nw_sim::Clocked;
/// use nw_types::{Cycles, NodeId};
///
/// let topo = Topology::build(TopologyKind::Mesh, 16, 1)?;
/// let mut noc = Noc::new(topo, NocConfig::default());
/// noc.try_inject(NodeId(0), NodeId(15), vec![1, 2, 3], 42, Cycles(0)).unwrap();
/// let mut now = Cycles(0);
/// let pkt = loop {
///     noc.tick(now);
///     if let Some(p) = noc.eject(NodeId(15)) { break p; }
///     now += Cycles(1);
///     assert!(now.0 < 1000, "packet should arrive quickly");
/// };
/// assert_eq!(pkt.data, vec![1, 2, 3]);
/// assert_eq!(pkt.tag, 42);
/// # Ok::<(), nw_noc::topology::BuildTopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Noc {
    topo: Topology,
    cfg: NocConfig,
    routers: Vec<RouterState>,
    arrivals: EventQueue<Arrival>,
    next_id: u64,
    injected: Counter,
    delivered: Counter,
    refused: Counter,
    flit_hops: Counter,
    latency: Histogram,
    /// Packets waiting in NI queues across all endpoints. Lets `drain_ni`
    /// skip the per-endpoint scan entirely on quiescent cycles (the same
    /// active-set treatment the transmit scan's `queued` counter provides).
    ni_pending: usize,
    /// Packets queued on output ports across all routers (sum of the
    /// per-router `queued` counters) — the transmit scan's global gate.
    queued_total: usize,
    /// Packets delivered but not yet taken via [`Noc::eject`].
    eject_pending: usize,
    /// Timed router wakes: `(cycle, router)` entries meaning "router may be
    /// able to fire at `cycle`" (a port or shared medium frees then). The
    /// event-wheel that lets `transmit` visit only routers with something to
    /// do, and `next_event_cycle` answer with the true next busy-path event.
    wakes: EventQueue<usize>,
    /// Earliest pending wake cycle per router (`u64::MAX` = none). Bounds
    /// the wheel: a wake is only scheduled when it precedes every pending
    /// wake of that router; later needs are rediscovered when the earlier
    /// wake fires and the router is re-examined.
    wake_at: Vec<u64>,
    /// Reverse adjacency: `preds[r]` lists routers with a link into `r`.
    /// When a buffer slot frees at `r` (credit appears), these are the
    /// routers whose blocked output ports may become able to fire.
    preds: Vec<Vec<usize>>,
    /// Worklist of routers to visit this transmit pass: one bit per router,
    /// popped lowest index first, so credit contention resolves exactly as
    /// the dense ascending scan does. All zero between ticks.
    ready: Vec<u64>,
    /// Whether endpoint `r`'s NI head can make progress right now (local
    /// destination, or remote with the bubble-rule two free slots).
    ni_ready: Vec<bool>,
    /// Number of `true` entries in `ni_ready` — `drain_ni`'s gate and the
    /// NI contribution to `next_event_cycle`.
    ni_ready_count: usize,
    /// Heatmap accounting, present only after [`Noc::enable_obs`].
    obs: Option<ObsCounters>,
    /// Permanently dead directed links as `(router, port)` pairs, in
    /// failure order — the live input to route recomputation.
    dead_links: Vec<(usize, usize)>,
    /// Payload buffers of fault-dropped packets, held for the platform to
    /// recycle into its payload pool (the engine does not own the pool).
    dropped_buffers: Vec<Vec<u8>>,
    /// Packets discarded by fault injection (explicit drops plus packets
    /// stranded by disconnection).
    dropped_packets: u64,
    /// Flits those discarded packets carried.
    dropped_flits: u64,
    /// Packets whose payload was corrupted in place by fault injection.
    corrupted_packets: u64,
    work: NocWork,
}

impl Noc {
    /// Builds the engine for a topology.
    ///
    /// Buffer pools are provisioned per *input port*: a router's credit pool
    /// is `input_buffer x in-degree`, so high-radix switches (the crossbar
    /// core) are not starved relative to low-radix mesh routers.
    pub fn new(topo: Topology, cfg: NocConfig) -> Self {
        let mut in_degree = vec![0usize; topo.n_routers()];
        for r in 0..topo.n_routers() {
            for l in topo.links_of(r) {
                in_degree[l.to] += 1;
            }
        }
        let mut preds = vec![Vec::new(); topo.n_routers()];
        for r in 0..topo.n_routers() {
            for l in topo.links_of(r) {
                if !preds[l.to].contains(&r) {
                    preds[l.to].push(r);
                }
            }
        }
        let routers = (0..topo.n_routers())
            .map(|r| RouterState {
                ports: topo
                    .links_of(r)
                    .iter()
                    .map(|l| OutPort {
                        to: l.to,
                        latency: l.latency,
                        width: l.width,
                        busy_until: 0,
                        queue: VecDeque::new(),
                        down: false,
                    })
                    .collect(),
                shared: topo.is_shared(r),
                shared_busy_until: 0,
                rr_next: 0,
                input_free: cfg.input_buffer * in_degree[r].max(1),
                ni_in: VecDeque::new(),
                eject: VecDeque::new(),
                queued: 0,
            })
            .collect();
        let n_routers = topo.n_routers();
        let n_endpoints = topo.n_endpoints();
        Noc {
            topo,
            cfg,
            routers,
            arrivals: EventQueue::new(),
            next_id: 0,
            injected: Counter::new(),
            delivered: Counter::new(),
            refused: Counter::new(),
            flit_hops: Counter::new(),
            latency: Histogram::new(),
            ni_pending: 0,
            queued_total: 0,
            eject_pending: 0,
            wakes: EventQueue::new(),
            wake_at: vec![u64::MAX; n_routers],
            preds,
            ready: vec![0; n_routers.div_ceil(64)],
            ni_ready: vec![false; n_endpoints],
            ni_ready_count: 0,
            obs: None,
            dead_links: Vec::new(),
            dropped_buffers: Vec::new(),
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
                links: self
                    .routers
                    .iter()
                    .map(|r| vec![LinkCounter::default(); r.ports.len()])
                    .collect(),
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
        for (r, ports) in obs.links.iter().enumerate() {
            for (p, c) in ports.iter().enumerate() {
                if c.packets > 0 {
                    links.push(LinkLoad {
                        router: r,
                        port: p,
                        to: self.routers[r].ports[p].to,
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
    pub fn try_inject(
        &mut self,
        src: NodeId,
        dst: NodeId,
        data: Vec<u8>,
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
        if self.routers[src.0].ni_in.len() >= self.cfg.ni_capacity {
            self.refused.incr();
            return Err(InjectError::NiFull);
        }
        let id = PacketId(self.next_id);
        self.next_id += 1;
        let was_empty = self.routers[src.0].ni_in.is_empty();
        self.routers[src.0].ni_in.push_back(Packet {
            id,
            src,
            dst,
            data,
            tag,
            injected_at: now,
        });
        self.ni_pending += 1;
        // A push onto an empty NI creates a new head; readiness of a
        // non-empty NI is a property of its unchanged front.
        if was_empty && !self.ni_ready[src.0] && (dst == src || self.routers[src.0].input_free >= 2)
        {
            self.ni_ready[src.0] = true;
            self.ni_ready_count += 1;
        }
        self.injected.incr();
        Ok(id)
    }

    /// Free slots in the NI queue of endpoint `node` (0 when out of range).
    pub fn ni_free(&self, node: NodeId) -> usize {
        if node.0 >= self.topo.n_endpoints() {
            return 0;
        }
        self.cfg.ni_capacity - self.routers[node.0].ni_in.len()
    }

    /// Takes the next delivered packet at endpoint `node`, if any.
    pub fn eject(&mut self, node: NodeId) -> Option<Packet> {
        let p = self.routers.get_mut(node.0)?.eject.pop_front();
        if p.is_some() {
            self.eject_pending -= 1;
        }
        p
    }

    /// Packets delivered but not yet taken via [`Noc::eject`] — zero means
    /// an arrival-routing sweep over the endpoints would be a no-op.
    pub fn eject_pending(&self) -> usize {
        self.eject_pending
    }

    /// Whether ticking the engine now could move anything: a timed transfer
    /// is in flight, an NI holds packets awaiting injection, or an output
    /// port holds queued packets. Eject queues don't count — draining them
    /// is the caller's move, not the tick's.
    pub fn has_work(&self) -> bool {
        !self.arrivals.is_empty() || self.ni_pending > 0 || self.queued_total > 0
    }

    /// The earliest cycle `>= now` at which ticking can change engine state,
    /// or `None` when no tick before the next external injection can move
    /// anything. Exact on the busy path: queued traffic that is stalled on
    /// multi-cycle link occupancy answers the cycle the earliest port frees
    /// (the event-wheel head) rather than `now`, so saturated fabrics
    /// fast-forward across serialization stalls. Traffic blocked purely on
    /// credit contributes nothing — the fire or delivery that frees the
    /// buffer is itself a tracked event that re-arms the wheel.
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
    pub fn due_now(&self, now: Cycles) -> bool {
        self.ni_ready_count > 0
            || self.arrivals.next_due().is_some_and(|d| d <= now)
            || (self.queued_total > 0 && self.wakes.next_due().is_some_and(|d| d <= now))
    }

    /// Packets accepted but not yet delivered to an eject queue.
    pub fn in_network(&self) -> u64 {
        self.injected.count() - self.delivered.count()
    }

    /// Snapshot of the aggregate statistics, including a clone of the
    /// latency histogram — report assembly only. Hot paths that need the
    /// scalar counters should use [`Noc::counts`], and the distribution can
    /// be read in place through [`Noc::latency_hist`].
    pub fn stats(&self) -> NocStats {
        NocStats {
            injected: self.injected.count(),
            delivered: self.delivered.count(),
            refused: self.refused.count(),
            flit_hops: self.flit_hops.count(),
            latency: self.latency.clone(),
        }
    }

    /// The scalar statistics counters, without cloning the histogram.
    pub fn counts(&self) -> NocCounts {
        NocCounts {
            injected: self.injected.count(),
            delivered: self.delivered.count(),
            refused: self.refused.count(),
            flit_hops: self.flit_hops.count(),
        }
    }

    /// The engine's deterministic work counters so far.
    pub fn work(&self) -> NocWork {
        self.work
    }

    /// The end-to-end latency distribution, borrowed.
    pub fn latency_hist(&self) -> &Histogram {
        &self.latency
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
    // Deterministic entry points for `nw-fault` campaigns, driven by the
    // platform at exact cycle boundaries. None of them consults any clock
    // or entropy source; all of them maintain the active-set bookkeeping
    // (queued/ni_pending/input_free/wake wheel) exactly, so the engine
    // stays bit-identical across the dense and event-driven tick paths
    // with faults applied.

    /// Transient link fault: port `(router, port)` transmits nothing before
    /// cycle `until`. Reuses the serialization-occupancy mechanism, so a
    /// stalled port re-arms the event wheel exactly like a long transfer.
    ///
    /// # Panics
    ///
    /// Panics if `router` or `port` is out of range.
    pub fn stall_port(&mut self, router: usize, port: usize, until: u64) {
        let p = &mut self.routers[router].ports[port];
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
        for p in &mut rt.ports {
            p.busy_until = p.busy_until.max(until);
        }
        rt.shared_busy_until = rt.shared_busy_until.max(until);
        if rt.queued > 0 {
            self.schedule_wake(router, until);
        }
    }

    /// Permanent hard fault on directed link `(router, port)`: the port is
    /// marked down, every routing table is recomputed around the dead set,
    /// and packets queued on the port are re-dispatched along the new
    /// routes (or deterministically dropped when the destination became
    /// unreachable). Idempotent. Returns `true` when this call newly
    /// killed the link.
    ///
    /// # Panics
    ///
    /// Panics if `router` or `port` is out of range.
    pub fn fail_link(&mut self, router: usize, port: usize, now: Cycles) -> bool {
        if self.routers[router].ports[port].down {
            return false;
        }
        self.routers[router].ports[port].down = true;
        self.dead_links.push((router, port));
        self.topo.recompute_routes(&self.dead_links);
        // Strand-and-redirect: traffic queued on the dead port follows the
        // recomputed tables or drops.
        let mut stranded: VecDeque<Packet> =
            std::mem::take(&mut self.routers[router].ports[port].queue);
        while let Some(pkt) = stranded.pop_front() {
            self.obs_settle(router, now.0);
            self.routers[router].queued -= 1;
            self.queued_total -= 1;
            match self.topo.next_hop(router, pkt.dst.0) {
                Some(new_port) => {
                    debug_assert_ne!(new_port, port, "reroute must avoid the dead port");
                    self.obs_settle(router, now.0);
                    self.routers[router].ports[new_port].queue.push_back(pkt);
                    self.routers[router].queued += 1;
                    self.queued_total += 1;
                    self.schedule_wake(router, now.0);
                }
                None => {
                    // Unreachable: the reserved buffer slot frees.
                    self.routers[router].input_free += 1;
                    if self.routers[router].input_free == 1 {
                        self.wake_preds(router, now.0);
                    }
                    self.ni_credit_check(router);
                    self.drop_packet(pkt);
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
        let nports = self.routers[router].ports.len();
        for p in 0..nports {
            if self.routers[router].ports[p].queue.is_empty() {
                continue;
            }
            self.obs_settle(router, now.0);
            let pkt = self.routers[router].ports[p]
                .queue
                .pop_front()
                .expect("checked non-empty");
            self.routers[router].queued -= 1;
            self.queued_total -= 1;
            self.routers[router].input_free += 1;
            if self.routers[router].input_free == 1 {
                self.wake_preds(router, now.0);
            }
            self.ni_credit_check(router);
            self.drop_packet(pkt);
            return true;
        }
        // No port queue held anything: take the NI head instead.
        if let Some(pkt) = self.routers[router].ni_in.pop_front() {
            self.ni_pending -= 1;
            // Readiness described the popped head; recompute for the new
            // front so `drain_ni`'s gate stays exact.
            if router < self.ni_ready.len() && self.ni_ready[router] {
                self.ni_ready[router] = false;
                self.ni_ready_count -= 1;
            }
            if router < self.ni_ready.len() {
                if let Some(front) = self.routers[router].ni_in.front() {
                    if front.dst.0 == router || self.routers[router].input_free >= 2 {
                        self.ni_ready[router] = true;
                        self.ni_ready_count += 1;
                    }
                }
            }
            self.drop_packet(pkt);
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
        if let Some(pkt) = self.routers[node].ni_in.front_mut() {
            if let Some(byte) = pkt.data.first_mut() {
                *byte ^= 0xA5;
                self.corrupted_packets += 1;
                return true;
            }
        }
        false
    }

    /// Hand the payload buffers of fault-dropped packets to the caller
    /// (the platform recycles them into its payload pool; the engine never
    /// owns the pool).
    pub fn take_dropped_buffers(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.dropped_buffers)
    }

    /// Whether dropped-packet buffers are waiting for
    /// [`take_dropped_buffers`](Self::take_dropped_buffers).
    pub fn has_dropped_buffers(&self) -> bool {
        !self.dropped_buffers.is_empty()
    }

    /// Permanently dead directed links, in failure order.
    pub fn dead_links(&self) -> &[(usize, usize)] {
        &self.dead_links
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

    /// Common drop accounting: count the packet and stash its buffer for
    /// the platform's payload pool.
    fn drop_packet(&mut self, mut pkt: Packet) {
        self.dropped_packets += 1;
        self.dropped_flits += pkt.flits(self.cfg.flit_bytes);
        self.dropped_buffers.push(std::mem::take(&mut pkt.data));
    }

    fn deliver(
        &mut self,
        router: usize,
        packet: Packet,
        now: Cycles,
        sink: &mut Option<&mut (dyn TraceSink + '_)>,
    ) {
        self.delivered.incr();
        let lat = now.saturating_sub(packet.injected_at);
        self.latency.record(lat);
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
        self.routers[router].eject.push_back(packet);
        self.eject_pending += 1;
    }

    /// Puts router `r` on the worklist of the transmit pass in flight.
    #[inline]
    fn mark_ready(&mut self, r: usize) {
        self.ready[r / 64] |= 1 << (r % 64);
    }

    /// Schedules a wake of router `r` at cycle `at` unless an earlier (or
    /// same-cycle) wake is already pending. Later needs than the pending
    /// wake are rediscovered when that wake fires: the visit re-examines
    /// every queued port and re-arms the wheel, so one pending entry per
    /// router is enough to chain to any future firing opportunity.
    fn schedule_wake(&mut self, r: usize, at: u64) {
        if at < self.wake_at[r] {
            self.wake_at[r] = at;
            self.wakes.schedule(Cycles(at), r);
            self.work.wakes_scheduled += 1;
        }
    }

    /// A buffer slot freed at router `r`: blocked output ports of its
    /// predecessors may now be able to fire. Predecessors with nothing
    /// queued are skipped — a later queue push wakes them itself.
    fn wake_preds(&mut self, r: usize, at: u64) {
        for i in 0..self.preds[r].len() {
            let u = self.preds[r][i];
            if self.routers[u].queued > 0 {
                self.schedule_wake(u, at);
            }
        }
    }

    /// Credit appeared at endpoint router `r`: a remote-bound NI head that
    /// was blocked on the bubble rule may now inject. (A blocked non-empty
    /// NI always has a remote head — local heads are popped unconditionally
    /// by `drain_ni` the tick they reach the front.)
    fn ni_credit_check(&mut self, r: usize) {
        if r < self.ni_ready.len()
            && !self.ni_ready[r]
            && !self.routers[r].ni_in.is_empty()
            && self.routers[r].input_free >= 2
        {
            self.ni_ready[r] = true;
            self.ni_ready_count += 1;
        }
    }

    fn drain_arrivals(&mut self, now: Cycles, sink: &mut Option<&mut (dyn TraceSink + '_)>) {
        while let Some(Arrival { router, packet }) = self.arrivals.pop_due(now) {
            self.work.arrivals += 1;
            if packet.dst.0 == router {
                // Destination reached: free the buffer slot and eject. The
                // freed credit may unblock upstream ports (this very cycle —
                // arrivals drain before transmit) and the local NI.
                self.routers[router].input_free += 1;
                if self.routers[router].input_free == 1 {
                    self.wake_preds(router, now.0);
                }
                self.ni_credit_check(router);
                self.deliver(router, packet, now, sink);
            } else if let Some(port) = self.topo.next_hop(router, packet.dst.0) {
                // The packet keeps its reserved buffer slot while queued.
                self.obs_settle(router, now.0);
                self.routers[router].ports[port].queue.push_back(packet);
                self.routers[router].queued += 1;
                self.queued_total += 1;
                if let Some(obs) = self.obs.as_mut() {
                    let c = &mut obs.routers[router];
                    c.peak_queue = c.peak_queue.max(self.routers[router].queued);
                }
                self.schedule_wake(router, now.0);
            } else {
                // No route: permanent link faults disconnected the pair
                // after this packet left its source. Deterministic drop —
                // the buffer slot frees like a delivery would.
                self.routers[router].input_free += 1;
                if self.routers[router].input_free == 1 {
                    self.wake_preds(router, now.0);
                }
                self.ni_credit_check(router);
                self.drop_packet(packet);
            }
        }
    }

    fn drain_ni(&mut self, now: Cycles, sink: &mut Option<&mut (dyn TraceSink + '_)>) {
        // Quiescent-NI skip: no endpoint holds a head that can progress —
        // every queued head is remote and bubble-blocked, which only a
        // tracked credit event can change, so the scan would be all no-ops.
        if self.ni_ready_count == 0 {
            return;
        }
        for r in 0..self.topo.n_endpoints() {
            if !self.ni_ready[r] {
                continue;
            }
            while let Some(front_dst) = self.routers[r].ni_in.front().map(|p| p.dst) {
                if front_dst.0 == r {
                    // Local delivery bypasses the fabric entirely.
                    let p = self.routers[r].ni_in.pop_front().expect("checked front");
                    self.ni_pending -= 1;
                    self.deliver(r, p, now, sink);
                    continue;
                }
                // Bubble rule: entering traffic must leave one slot free.
                if self.routers[r].input_free < 2 {
                    break;
                }
                let Some(port) = self.topo.next_hop(r, front_dst.0) else {
                    // Destination unreachable after permanent link faults:
                    // drop at the NI (the head never took a buffer slot).
                    let p = self.routers[r].ni_in.pop_front().expect("checked front");
                    self.ni_pending -= 1;
                    self.drop_packet(p);
                    continue;
                };
                let p = self.routers[r].ni_in.pop_front().expect("checked front");
                self.ni_pending -= 1;
                self.routers[r].input_free -= 1;
                self.obs_settle(r, now.0);
                self.routers[r].ports[port].queue.push_back(p);
                self.routers[r].queued += 1;
                self.queued_total += 1;
                if let Some(obs) = self.obs.as_mut() {
                    let c = &mut obs.routers[r];
                    c.peak_queue = c.peak_queue.max(self.routers[r].queued);
                }
                self.schedule_wake(r, now.0);
            }
            // The loop runs until this NI is empty or bubble-blocked;
            // either way its head can no longer progress.
            self.ni_ready[r] = false;
            self.ni_ready_count -= 1;
        }
    }

    /// Starts the transfer of the head packet of `routers[r].ports[p]`,
    /// assuming the caller verified readiness and downstream credit.
    ///
    /// The slot this fire frees at `r` is visible to higher-indexed routers
    /// in the same dense scan, so same-cycle predecessor wakes above `r`
    /// join the current pass (`ready`) while the rest wait for the next
    /// cycle.
    fn fire(
        &mut self,
        r: usize,
        p: usize,
        now: Cycles,
        sink: &mut Option<&mut (dyn TraceSink + '_)>,
    ) {
        debug_assert!(self.routers[r].queued > 0, "fire on a quiescent router");
        self.work.fires += 1;
        self.obs_settle(r, now.0);
        self.routers[r].queued -= 1;
        self.queued_total -= 1;
        let (packet, to, ser, wire_lat, flits) = {
            let port = &mut self.routers[r].ports[p];
            let packet = port.queue.pop_front().expect("caller checked non-empty");
            let flits = packet.flits(self.cfg.flit_bytes);
            let ser = flits.div_ceil(port.width).max(1);
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
            self.flit_hops.add(flits);
            (packet, port.to, ser, port.latency, flits)
        };
        if let Some(obs) = self.obs.as_mut() {
            let c = &mut obs.links[r][p];
            c.busy_cycles += ser;
            c.packets += 1;
            c.flits += flits;
        }
        if let Some(s) = sink.as_deref_mut() {
            s.emit(TraceEvent::LinkTransfer {
                cycle: now.0,
                router: r,
                port: p,
                to,
                flits,
                ser,
            });
        }
        // Cut-through: the slot at r frees as transmission starts, the slot
        // downstream was reserved by the caller.
        self.routers[r].input_free += 1;
        if self.routers[r].input_free == 1 {
            for i in 0..self.preds[r].len() {
                let u = self.preds[r][i];
                if self.routers[u].queued == 0 {
                    continue;
                }
                if u > r {
                    self.mark_ready(u);
                } else {
                    self.schedule_wake(u, now.0 + 1);
                }
            }
        }
        self.ni_credit_check(r);
        let arrive = Cycles(now.0 + ser + wire_lat + self.cfg.router_delay);
        self.arrivals
            .schedule(arrive, Arrival { router: to, packet });
    }

    /// One router's share of the transmit pass: exactly the dense per-port
    /// scan, plus event-wheel re-arming for every timed reason the router
    /// could fire later (port serialization, shared-medium occupancy).
    /// Credit-blocked ports schedule nothing — the fire or delivery that
    /// frees the buffer wakes this router through `wake_preds`.
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
        if self.routers[r].shared {
            // Bus arbiter: one transfer at a time, round-robin grant.
            if self.routers[r].shared_busy_until > now.0 {
                self.schedule_wake(r, self.routers[r].shared_busy_until);
                return;
            }
            let nports = self.routers[r].ports.len();
            let start = self.routers[r].rr_next;
            for k in 0..nports {
                let p = (start + k) % nports;
                let ready = {
                    let port = &self.routers[r].ports[p];
                    !port.queue.is_empty() && self.routers[port.to].input_free > 0
                };
                if ready {
                    let to = self.routers[r].ports[p].to;
                    self.routers[to].input_free -= 1;
                    self.fire(r, p, now, sink);
                    self.routers[r].shared_busy_until = self.routers[r].ports[p].busy_until;
                    self.routers[r].rr_next = (p + 1) % nports;
                    if self.routers[r].queued > 0 {
                        self.schedule_wake(r, self.routers[r].shared_busy_until);
                    }
                    break;
                }
            }
        } else {
            for p in 0..self.routers[r].ports.len() {
                if self.routers[r].ports[p].queue.is_empty() {
                    continue;
                }
                let busy_until = self.routers[r].ports[p].busy_until;
                if busy_until > now.0 {
                    self.schedule_wake(r, busy_until);
                    continue;
                }
                let to = self.routers[r].ports[p].to;
                if self.routers[to].input_free == 0 {
                    continue;
                }
                self.routers[to].input_free -= 1;
                self.fire(r, p, now, sink);
                if !self.routers[r].ports[p].queue.is_empty() {
                    // More packets behind the one now serializing.
                    self.schedule_wake(r, self.routers[r].ports[p].busy_until);
                }
            }
        }
    }

    /// The transmit pass. With `full_scan` every router holding queued
    /// traffic is visited (the dense reference); otherwise only routers
    /// the event wheel or a same-cycle push woke. Both orders are the
    /// ascending router-index order, so credit contention resolves
    /// identically and the two paths are bit-identical.
    fn transmit(
        &mut self,
        now: Cycles,
        full_scan: bool,
        sink: &mut Option<&mut (dyn TraceSink + '_)>,
    ) {
        while let Some(r) = self.wakes.pop_due(now) {
            self.wake_at[r] = u64::MAX;
            // A wake that outlived its router's queue has nothing to visit.
            if !full_scan && self.routers[r].queued > 0 {
                self.mark_ready(r);
            }
        }
        if full_scan {
            for r in 0..self.routers.len() {
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

    /// One engine tick with an optional trace sink: identical to
    /// [`Clocked::tick`] (which delegates here with `None`), but packet
    /// deliveries and link transfers are reported to `sink` as they
    /// happen. The sink is write-only — nothing it does can change
    /// routing, timing, or statistics.
    pub fn tick_traced(&mut self, now: Cycles, mut sink: Option<&mut (dyn TraceSink + '_)>) {
        self.run_tick(now, false, &mut sink);
    }

    /// The dense reference tick: identical phase order to [`Noc::tick`],
    /// but the transmit pass scans every router holding queued traffic
    /// instead of consulting the event wheel. Kept for differential
    /// testing — the event-driven path must be bit-identical to this.
    pub fn tick_reference(&mut self, now: Cycles) {
        self.run_tick(now, true, &mut None);
    }

    fn run_tick(
        &mut self,
        now: Cycles,
        full_scan: bool,
        sink: &mut Option<&mut (dyn TraceSink + '_)>,
    ) {
        self.work.ticks += 1;
        self.drain_arrivals(now, sink);
        self.drain_ni(now, sink);
        self.transmit(now, full_scan, sink);
        #[cfg(debug_assertions)]
        self.debug_audit(now);
    }

    /// Debug-build audit of the active-set bookkeeping against ground
    /// truth. The event-driven fast path is only sound while the global
    /// counters mirror the per-router state exactly and the event wheel
    /// never holds an already-due wake after a tick — the precise
    /// conditions under which `next_event_cycle` may fast-forward.
    #[cfg(debug_assertions)]
    fn debug_audit(&self, now: Cycles) {
        let queued: usize = self.routers.iter().map(|r| r.queued).sum();
        debug_assert_eq!(
            self.queued_total, queued,
            "queued_total diverged from per-router queues at {now:?}"
        );
        let ni: usize = self.routers.iter().map(|r| r.ni_in.len()).sum();
        debug_assert_eq!(
            self.ni_pending, ni,
            "ni_pending diverged from NI queues at {now:?}"
        );
        let eject: usize = self.routers.iter().map(|r| r.eject.len()).sum();
        debug_assert_eq!(
            self.eject_pending, eject,
            "eject_pending diverged from eject queues at {now:?}"
        );
        let ready = self.ni_ready.iter().filter(|&&b| b).count();
        debug_assert_eq!(
            self.ni_ready_count, ready,
            "ni_ready_count diverged from ni_ready flags at {now:?}"
        );
        for (r, &at) in self.wake_at.iter().enumerate() {
            debug_assert!(
                at == u64::MAX || at > now.0,
                "router {r} holds a stale wake at {at} after tick {now:?}"
            );
        }
        for (r, rt) in self.routers.iter().enumerate() {
            for (p, port) in rt.ports.iter().enumerate() {
                debug_assert!(
                    !port.down || port.queue.is_empty(),
                    "dead link {r}:{p} holds queued packets at {now:?}"
                );
            }
        }
    }
}

impl Clocked for Noc {
    fn tick(&mut self, now: Cycles) {
        self.tick_traced(now, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;

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
        let topo = Topology::build(TopologyKind::Mesh, 16, 1).unwrap();
        let mut noc = Noc::new(topo, NocConfig::default());
        noc.try_inject(NodeId(0), NodeId(15), vec![9; 24], 7, Cycles(0))
            .unwrap();
        let (p, _) = run_until_delivered(&mut noc, NodeId(15), 1000);
        assert_eq!(p.src, NodeId(0));
        assert_eq!(p.tag, 7);
        assert_eq!(p.data, vec![9; 24]);
        let s = noc.stats();
        assert_eq!(s.injected, 1);
        assert_eq!(s.delivered, 1);
        assert!(s.latency.mean() > 0.0);
    }

    #[test]
    fn local_delivery_is_fast() {
        let topo = Topology::build(TopologyKind::Ring, 4, 1).unwrap();
        let mut noc = Noc::new(topo, NocConfig::default());
        noc.try_inject(NodeId(2), NodeId(2), vec![1], 0, Cycles(0))
            .unwrap();
        let (p, when) = run_until_delivered(&mut noc, NodeId(2), 10);
        assert_eq!(p.dst, NodeId(2));
        assert!(when.0 <= 1);
    }

    #[test]
    fn latency_grows_with_hops() {
        // On a large ring, a far destination takes longer than a neighbor.
        let mk = || {
            let topo = Topology::build(TopologyKind::Ring, 16, 1).unwrap();
            Noc::new(topo, NocConfig::default())
        };
        let mut near = mk();
        near.try_inject(NodeId(0), NodeId(1), vec![0; 8], 0, Cycles(0))
            .unwrap();
        let (_, t_near) = run_until_delivered(&mut near, NodeId(1), 1000);
        let mut far = mk();
        far.try_inject(NodeId(0), NodeId(8), vec![0; 8], 0, Cycles(0))
            .unwrap();
        let (_, t_far) = run_until_delivered(&mut far, NodeId(8), 1000);
        assert!(t_far > t_near, "far {t_far} should exceed near {t_near}");
    }

    #[test]
    fn bus_serializes_but_crossbar_switches_in_parallel() {
        // Four disjoint src->dst pairs, all crossing the center.
        let drive = |kind: TopologyKind| -> Cycles {
            let topo = Topology::build(kind, 8, 1).unwrap();
            let mut noc = Noc::new(topo, NocConfig::default());
            for i in 0..4 {
                noc.try_inject(NodeId(i), NodeId(i + 4), vec![0; 56], 0, Cycles(0))
                    .unwrap();
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
            .try_inject(NodeId(0), NodeId(2), vec![], 0, Cycles(0))
            .is_ok());
        assert!(noc
            .try_inject(NodeId(0), NodeId(2), vec![], 1, Cycles(0))
            .is_ok());
        assert_eq!(
            noc.try_inject(NodeId(0), NodeId(2), vec![], 2, Cycles(0)),
            Err(InjectError::NiFull)
        );
        assert_eq!(noc.counts().refused, 1);
        assert_eq!(noc.ni_free(NodeId(0)), 0);
    }

    #[test]
    fn bad_endpoints_are_rejected() {
        let topo = Topology::build(TopologyKind::Ring, 4, 1).unwrap();
        let mut noc = Noc::new(topo, NocConfig::default());
        assert_eq!(
            noc.try_inject(NodeId(9), NodeId(0), vec![], 0, Cycles(0)),
            Err(InjectError::BadSource(NodeId(9)))
        );
        assert_eq!(
            noc.try_inject(NodeId(0), NodeId(9), vec![], 0, Cycles(0)),
            Err(InjectError::BadDestination(NodeId(9)))
        );
    }

    #[test]
    fn conservation_every_packet_delivered_exactly_once() {
        let topo = Topology::build(TopologyKind::Mesh, 16, 1).unwrap();
        let mut noc = Noc::new(topo, NocConfig::default());
        let mut now = Cycles(0);
        let mut sent = 0u64;
        let mut got = 0u64;
        // Staggered all-to-one plus neighbor traffic for 200 cycles.
        while now.0 < 200 {
            let src = (now.0 % 16) as usize;
            let dst = ((now.0 * 7 + 3) % 16) as usize;
            if noc
                .try_inject(NodeId(src), NodeId(dst), vec![0; 16], now.0, now)
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
        assert_eq!(noc.counts().delivered, sent);
        assert_eq!(noc.latency_hist().count(), sent);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let topo = Topology::build(TopologyKind::Torus, 16, 2).unwrap();
            let mut noc = Noc::new(topo, NocConfig::default());
            let mut now = Cycles(0);
            while now.0 < 500 {
                let src = ((now.0 * 5) % 16) as usize;
                let dst = ((now.0 * 11 + 1) % 16) as usize;
                let _ = noc.try_inject(NodeId(src), NodeId(dst), vec![0; 32], now.0, now);
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
        let topo = Topology::build(TopologyKind::Mesh, 16, 2).unwrap();
        let mut noc = Noc::new(topo, NocConfig::default());
        let mut now = Cycles(0);
        while now.0 < 400 {
            let src = ((now.0 * 3) % 16) as usize;
            let _ = noc.try_inject(NodeId(src), NodeId(5), vec![0; 48], 0, now);
            noc.tick(now);
            for r in &noc.routers {
                let actual: usize = r.ports.iter().map(|p| p.queue.len()).sum();
                assert_eq!(r.queued, actual);
            }
            // The active-set gate counters track the ground truth exactly.
            let ni_actual: usize = noc.routers.iter().map(|r| r.ni_in.len()).sum();
            assert_eq!(noc.ni_pending, ni_actual);
            let queued_actual: usize = noc.routers.iter().map(|r| r.queued).sum();
            assert_eq!(noc.queued_total, queued_actual);
            let eject_actual: usize = noc.routers.iter().map(|r| r.eject.len()).sum();
            assert_eq!(noc.eject_pending(), eject_actual);
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
        assert!(!noc.has_work(), "drained fabric reports no work");
        assert_eq!(noc.ni_pending, 0);
        assert_eq!(noc.queued_total, 0);
        assert_eq!(noc.next_event_cycle(now), None);
    }

    #[test]
    fn has_work_and_next_event_follow_traffic() {
        let topo = Topology::build(TopologyKind::Ring, 8, 7).unwrap();
        let mut noc = Noc::new(topo, NocConfig::default());
        assert!(!noc.has_work());
        assert_eq!(noc.next_event_cycle(Cycles(0)), None);
        noc.try_inject(NodeId(0), NodeId(3), vec![0; 16], 0, Cycles(0))
            .unwrap();
        // Queued NI traffic: work due immediately.
        assert!(noc.has_work());
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
            let topo = Topology::build(TopologyKind::Ring, 8, 1).unwrap();
            let mut noc = Noc::new(topo, NocConfig::default());
            noc.try_inject(NodeId(0), NodeId(2), vec![0; 16], 0, Cycles(0))
                .unwrap();
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
        let topo = Topology::build(TopologyKind::Ring, 8, 1).unwrap();
        let mut noc = Noc::new(topo, NocConfig::default());
        noc.try_inject(NodeId(0), NodeId(2), vec![0; 16], 0, Cycles(0))
            .unwrap();
        noc.stall_router(0, 80);
        let (_, t) = run_until_delivered(&mut noc, NodeId(2), 10_000);
        assert!(t.0 >= 80);
    }

    #[test]
    fn failed_link_reroutes_queued_traffic() {
        // 4x4 mesh, 0 -> 3 along row 0. Kill 0's east port after the
        // packet is queued on it; the packet must detour and still arrive.
        let topo = Topology::build(TopologyKind::Mesh, 16, 1).unwrap();
        let mut noc = Noc::new(topo, NocConfig::default());
        noc.try_inject(NodeId(0), NodeId(3), vec![7; 16], 9, Cycles(0))
            .unwrap();
        // One tick moves the packet from the NI onto the east port queue.
        let east = noc.topology().next_hop(0, 3).unwrap();
        noc.drain_arrivals(Cycles(0), &mut None);
        noc.drain_ni(Cycles(0), &mut None);
        assert!(!noc.routers[0].ports[east].queue.is_empty());
        assert!(noc.fail_link(0, east, Cycles(0)));
        assert!(!noc.fail_link(0, east, Cycles(0)), "idempotent");
        assert!(noc.routers[0].ports[east].queue.is_empty());
        assert_eq!(noc.dead_links(), &[(0, east)]);
        let (p, _) = run_until_delivered(&mut noc, NodeId(3), 10_000);
        assert_eq!(p.data, vec![7; 16]);
        assert_eq!(noc.dropped_packets(), 0);
    }

    #[test]
    fn disconnection_drops_deterministically() {
        // Crossbar endpoint 0 has exactly one outbound link; killing it
        // strands every remote packet from node 0.
        let topo = Topology::build(TopologyKind::Crossbar, 4, 1).unwrap();
        let mut noc = Noc::new(topo, NocConfig::default());
        noc.try_inject(NodeId(0), NodeId(2), vec![1; 24], 0, Cycles(0))
            .unwrap();
        assert!(noc.fail_link(0, 0, Cycles(0)));
        let mut now = Cycles(0);
        while noc.has_work() {
            noc.tick(now);
            now += Cycles(1);
            assert!(now.0 < 1_000);
        }
        assert_eq!(noc.dropped_packets(), 1);
        assert!(noc.dropped_flits() > 0);
        let bufs = noc.take_dropped_buffers();
        assert_eq!(bufs.len(), 1);
        assert!(!noc.has_dropped_buffers());
        assert!(noc.is_quiescent());
    }

    #[test]
    fn drop_next_takes_head_of_line() {
        let topo = Topology::build(TopologyKind::Ring, 8, 1).unwrap();
        let mut noc = Noc::new(topo, NocConfig::default());
        assert!(!noc.drop_next(0, Cycles(0)), "nothing to drop yet");
        noc.try_inject(NodeId(0), NodeId(3), vec![2; 16], 0, Cycles(0))
            .unwrap();
        // Still in the NI: the NI head is dropped.
        assert!(noc.drop_next(0, Cycles(0)));
        assert_eq!(noc.dropped_packets(), 1);
        assert_eq!(noc.take_dropped_buffers().len(), 1);
        let mut now = Cycles(0);
        while noc.has_work() {
            noc.tick(now);
            now += Cycles(1);
        }
        assert!(noc.is_quiescent());
        assert_eq!(noc.counts().delivered, 0);
    }

    #[test]
    fn corrupt_next_flips_payload_in_place() {
        let topo = Topology::build(TopologyKind::Ring, 8, 1).unwrap();
        let mut noc = Noc::new(topo, NocConfig::default());
        assert!(!noc.corrupt_next(0));
        noc.try_inject(NodeId(0), NodeId(3), vec![0x11; 16], 0, Cycles(0))
            .unwrap();
        assert!(noc.corrupt_next(0));
        assert_eq!(noc.corrupted_packets(), 1);
        let (p, _) = run_until_delivered(&mut noc, NodeId(3), 10_000);
        assert_eq!(p.data[0], 0x11 ^ 0xA5);
        assert!(p.data[1..].iter().all(|&b| b == 0x11));
    }

    #[test]
    fn fat_tree_delivers_cross_traffic() {
        let topo = Topology::build(TopologyKind::FatTree, 16, 1).unwrap();
        let mut noc = Noc::new(topo, NocConfig::default());
        for i in 0..8 {
            noc.try_inject(NodeId(i), NodeId(15 - i), vec![0; 40], i as u64, Cycles(0))
                .unwrap();
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
}
