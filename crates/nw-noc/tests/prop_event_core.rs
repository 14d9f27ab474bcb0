//! Property tests for the event-driven transmit core.
//!
//! The engine's busy path is driven by an event wheel (router wakes keyed
//! on port `busy_until`, credit frees, queue pushes) instead of a per-cycle
//! scan of every router. These properties pin the contract that makes that
//! safe: under random traffic bursts on every built-in topology, the engine
//! produces **bit-identical** `NocStats`, eject order, delivery cycles,
//! transfers and arrivals versus the executable spec
//! (`tests/common/spec.rs`), which scans every router every cycle and
//! shares no storage or scheduling code with the engine — and stays
//! bit-identical when ticks are skipped entirely on the cycles
//! `next_event_cycle` proves are dead. Two shapes get their own cases:
//! fabrics of 65 or more routers, whose transmit worklist spans two bitset
//! words, and payloads that serialize for longer than the calendar queue's
//! 256-cycle window, whose arrivals and wakes travel through its overflow
//! heap. Liveness is part of every property: both deliver every packet
//! wherever the modelled fabric cannot deadlock (`must_drain`).
//!
//! Another property is about the storage under the fault hooks: packets
//! live in an engine-owned slab and move as handles, so every way out of
//! the engine — ejected, dropped at an NI, on a port queue or on arrival,
//! stranded by a dead link — has to vacate the slot it leaves, while the
//! spec, run beside it, sees the same deliveries and drops.
//!
//! One property is metamorphic: the same offers made `k` cycles later are
//! delivered exactly `k` cycles later, for shifts that put the engine's
//! clock past the calendar window, into the overflow heap and across
//! `next_event_cycle` hops of up to 2⁴⁰ cycles.
//!
//! The last one pins [`Noc::run_span`], the engine running alone between
//! a scheduler's stepped cycles, to the per-event loop it replaces.

mod common;

use common::spec::Spec;
use common::Fabric;

use nw_noc::{Noc, NocConfig, NocSpan, NocStats, NocWork, Topology, TopologyKind};
use nw_obs::{TraceEvent, TraceSink};
use nw_types::{Cycles, NodeId, Payload};
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = TopologyKind> {
    prop_oneof![
        Just(TopologyKind::Ring),
        Just(TopologyKind::Mesh),
        // Wrap-around links: predecessors sit both above and below a router.
        Just(TopologyKind::Torus),
        Just(TopologyKind::Crossbar),
        // The shared-bus arbiter exercises the round-robin grant path.
        Just(TopologyKind::SharedBus),
        // Switch routers above the endpoints, upper links 2 and 4 flits wide.
        Just(TopologyKind::FatTree),
    ]
}

/// Cycles the ring of `nw_sim::EventQueue` covers; an event due further
/// ahead goes to its overflow heap.
const QUEUE_WINDOW: u64 = 256;

/// A randomized traffic burst: at `cycle`, offer a packet `src -> dst` of
/// `len` payload bytes (endpoints taken modulo the fabric size). The engine
/// and the spec see the identical offer sequence.
type Burst = (u8, usize, usize, usize);

/// Packet buffers per router input: the default, and pools small enough
/// that bursts exhaust them, so credit frees wake blocked predecessors —
/// into the pass in flight when they sit above the firing router.
fn input_buffer_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(2usize), Just(3usize), Just(8usize)]
}

fn bursts_strategy(max_len: usize, max_bursts: usize) -> impl Strategy<Value = Vec<Burst>> {
    prop::collection::vec(
        (0u8..200, 0usize..512, 0usize..512, 0usize..max_len),
        1..max_bursts,
    )
}

/// One delivered packet, as observed at the eject interface.
#[derive(Debug, PartialEq, Eq)]
struct Delivery {
    cycle: u64,
    endpoint: usize,
    tag: u64,
    len: usize,
}

fn drain_ejects(noc: &mut impl Fabric, n: usize, now: Cycles, out: &mut Vec<Delivery>) {
    for e in 0..n {
        while let Some(p) = noc.eject(NodeId(e)) {
            out.push(Delivery {
                cycle: now.0,
                endpoint: e,
                tag: p.tag,
                len: p.data.len(),
            });
        }
    }
}

fn inject_due(noc: &mut impl Fabric, bursts: &[Burst], n: usize, now: Cycles) {
    inject_shifted(noc, bursts, n, now, 0);
}

/// Offers at `now` the bursts due `shift` cycles earlier.
fn inject_shifted(noc: &mut impl Fabric, bursts: &[Burst], n: usize, now: Cycles, shift: u64) {
    for &(cycle, s, d, len) in bursts {
        if u64::from(cycle) + shift == now.0 {
            let _ = noc.try_inject(
                NodeId(s % n),
                NodeId(d % n),
                Payload::with_head(len, &[cycle; 16][..len.min(16)]),
                (cycle as u64) << 8 | (s as u64),
                now,
            );
        }
    }
}

/// Whether the modelled fabric itself is certain to drain `bursts`, so
/// that a packet left in either engine is a bug and not a deadlock of the
/// model. Routers share one input pool of `input_buffer` packets and there
/// are no virtual channels: multi-hop traffic that fills every pool around
/// a cycle of routers deadlocks, in the spec as well. It cannot
/// when
///
/// * the fabric is single-hop (crossbar, shared bus): every transfer ends
///   at an eject queue;
/// * all traffic heads for one endpoint: the next hops toward it form a
///   tree, and a tree has no cycle to fill;
/// * the pool is the default 8: no cycle of pools fills under the at most
///   400 packets offered here (no case in 4 000 per property did).
fn must_drain(kind: TopologyKind, n: usize, input_buffer: usize, bursts: &[Burst]) -> bool {
    let single_hop = matches!(kind, TopologyKind::Crossbar | TopologyKind::SharedBus);
    let one_sink = bursts.iter().all(|b| b.2 % n == bursts[0].2 % n);
    single_hop || one_sink || input_buffer == NocConfig::default().input_buffer
}

/// Remembers the longest serialization among the link transfers traced.
#[derive(Debug, Default)]
struct LongestTransfer(u64);

impl TraceSink for LongestTransfer {
    fn emit(&mut self, ev: TraceEvent) {
        if let TraceEvent::LinkTransfer { ser, .. } = ev {
            self.0 = self.0.max(ser);
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// What [`check_against_spec`] saw of the engine.
struct EventRun {
    noc: Noc,
    /// Longest link serialization fired, in cycles.
    longest_ser: u64,
}

/// Drives the engine and the spec through the same bursts until neither
/// can move again, and checks they ran the same simulation: same
/// deliveries at the same cycles in the same order, same statistics down to
/// the latency moments, same transfers fired and arrivals taken. Both must
/// drain wherever the model cannot deadlock ([`must_drain`]), and drain or
/// strand together elsewhere. The spec is ticked every cycle; with
/// `skip_dead` the engine is ticked only when `next_event_cycle` says a
/// tick can matter, and must have skipped some cycle.
fn check_against_spec(
    kind: TopologyKind,
    n: usize,
    link_latency: u64,
    input_buffer: usize,
    bursts: &[Burst],
    horizon: u64,
    skip_dead: bool,
) -> EventRun {
    let topo = Topology::build(kind, n, link_latency).expect("valid topology");
    let cfg = NocConfig {
        input_buffer,
        ..NocConfig::default()
    };
    let mut ev = Noc::new(topo.clone(), cfg);
    let mut spec = Spec::new(topo, cfg);
    let mut ev_seen = Vec::new();
    let mut spec_seen = Vec::new();
    let mut longest = LongestTransfer::default();
    let (mut now, mut spec_ticks) = (Cycles(0), 0);
    while now.0 < horizon {
        inject_due(&mut ev, bursts, n, now);
        inject_due(&mut spec, bursts, n, now);
        if !skip_dead || ev.next_event_cycle(now).is_some_and(|c| c <= now) {
            ev.tick_traced(now, Some(&mut longest));
        }
        spec.tick(now);
        spec_ticks += 1;
        drain_ejects(&mut ev, n, now, &mut ev_seen);
        drain_ejects(&mut spec, n, now, &mut spec_seen);
        // Every burst is offered before cycle 200: once neither can move,
        // nothing will again.
        if now.0 > 256 && ev.next_event_cycle(now).is_none() && spec.is_stuck(now) {
            break;
        }
        now += Cycles(1);
    }
    if must_drain(kind, n, input_buffer, bursts) {
        assert!(
            ev.is_quiescent(),
            "the engine must drain ({} packets left)",
            ev.packets_held()
        );
        assert!(spec.is_quiescent(), "the spec must drain");
    } else {
        // The modelled fabric may deadlock; a lost wake would strand the
        // engine alone.
        assert_eq!(
            ev.is_quiescent(),
            spec.is_quiescent(),
            "the engine drains iff the spec does ({} packets left)",
            ev.packets_held()
        );
    }
    assert_eq!(ev_seen, spec_seen, "eject order and delivery cycles");
    assert_eq!(
        Fabric::tally(&ev),
        spec.tally(),
        "statistics incl. latency moments, fires and arrivals"
    );
    if skip_dead {
        // Multi-cycle serialization and wire latency guarantee dead cycles.
        assert!(ev.work().ticks < spec_ticks, "some cycles are skipped");
    }
    EventRun {
        noc: ev,
        longest_ser: longest.0,
    }
}

/// One fault-hook call: `(cycle, hook, a, b)`, the operands taken modulo
/// whatever they index.
type Fault = (u8, u8, usize, usize);

fn apply_fault(noc: &mut impl Fabric, &(_, hook, a, b): &Fault, now: Cycles) {
    let n_routers = noc.topology().n_routers();
    let n = noc.topology().n_endpoints();
    let r = a % n_routers;
    let n_ports = noc.topology().links_of(r).len();
    let until = now.0 + 1 + b as u64 % 300;
    match hook % 6 {
        0 => noc.stall_router(r, until),
        1 if n_ports > 0 => {
            noc.stall_port(r, b % n_ports, until);
        }
        2 if n_ports > 0 => {
            noc.fail_link(r, b % n_ports, now);
        }
        3 => {
            noc.drop_next(r, now);
        }
        4 => {
            noc.corrupt_next(a % n);
        }
        5 => {
            // Cut endpoint `a % n` off: whatever is queued for it strands,
            // whatever is in flight toward it drops where it lands.
            let e = a % n;
            for from in 0..n_routers {
                for p in 0..noc.topology().links_of(from).len() {
                    if noc.topology().links_of(from)[p].to == e {
                        noc.fail_link(from, p, now);
                    }
                }
            }
        }
        _ => {}
    }
}

/// How late [`time_shift_delays_every_delivery_exactly`] offers its bursts:
/// across the calendar queue's window edge, and out to clocks past 2²⁰,
/// 2³² and 2⁴⁰ cycles, where its buckets, its overflow heap and
/// `next_event_cycle` meet offsets no rig reaches.
const SHIFTS: [u64; 7] = [
    1,
    QUEUE_WINDOW - 1,
    QUEUE_WINDOW,
    QUEUE_WINDOW + 1,
    1 << 20,
    (1 << 32) + 3,
    (1 << 40) + 5,
];

/// One delivery of [`shifted_run`], its cycles counted from the shift.
#[derive(Debug, PartialEq, Eq)]
struct ShiftedDelivery {
    cycle: u64,
    endpoint: usize,
    id: u64,
    tag: u64,
    injected_at: u64,
    len: usize,
}

/// What [`shifted_run`] saw: deliveries, statistics, work and packets left.
type ShiftedRun = (Vec<ShiftedDelivery>, NocStats, NocWork, usize);

/// Drives an engine through `bursts` offered `shift` cycles late, as a
/// fast-forwarding scheduler does: it starts at cycle `shift` and jumps
/// from each offer or event cycle straight to the next, ticking where
/// [`Noc::due_now`] holds, until no offer or event is left.
fn shifted_run(topo: &Topology, cfg: NocConfig, bursts: &[Burst], shift: u64) -> ShiftedRun {
    let n = topo.n_endpoints();
    let mut noc = Noc::new(topo.clone(), cfg);
    let mut offers: Vec<u64> = bursts.iter().map(|b| u64::from(b.0) + shift).collect();
    offers.sort_unstable();
    let mut log = Vec::new();
    let mut now = Cycles(shift);
    loop {
        inject_shifted(&mut noc, bursts, n, now, shift);
        if noc.due_now(now) {
            noc.tick(now);
        }
        while let Some((NodeId(endpoint), p)) = noc.eject_next() {
            log.push(ShiftedDelivery {
                cycle: now.0 - shift,
                endpoint,
                id: p.id.0,
                tag: p.tag,
                injected_at: p.injected_at.0 - shift,
                len: p.data.len(),
            });
        }
        let next_offer = offers.iter().copied().find(|&c| c > now.0);
        let next_event = noc.next_event_cycle(now + Cycles(1)).map(|c| c.0);
        match next_offer.into_iter().chain(next_event).min() {
            Some(next) => now = Cycles(next),
            None => break,
        }
    }
    (log, noc.stats(), noc.work(), noc.packets_held())
}

/// Every event traced, in order.
#[derive(Debug, Default)]
struct Recorder(Vec<TraceEvent>);

impl TraceSink for Recorder {
    fn emit(&mut self, ev: TraceEvent) {
        self.0.push(ev);
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The loop [`Noc::run_span`] replaces, driven from outside one event at a
/// time as a scheduler drives it: hop to the next event cycle below
/// `limit` (announcing the hop), tick there, and stop on a pending
/// delivery or a drop.
fn span_by_events(noc: &mut Noc, from: Cycles, limit: Cycles, trace: &mut Recorder) -> NocSpan {
    let mut span = NocSpan {
        end: from,
        delivered: false,
        hops: 0,
        cycles_hopped: 0,
        ticks: 0,
    };
    while let Some(next) = noc.next_event_cycle(span.end).filter(|&c| c < limit) {
        let skipped = next.0 - span.end.0;
        if skipped > 0 {
            span.hops += 1;
            span.cycles_hopped += skipped;
            trace.emit(TraceEvent::FastForward {
                cycle: span.end.0,
                span: skipped,
            });
        }
        let dropped = noc.dropped_packets();
        noc.tick_traced(next, Some(trace));
        span.ticks += 1;
        span.end = next + Cycles(1);
        if noc.eject_pending() > 0 {
            span.delivered = true;
            break;
        }
        if noc.dropped_packets() != dropped {
            break;
        }
    }
    span
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ticked every cycle, the engine and the spec run exactly the same
    /// simulation.
    #[test]
    fn event_path_matches_reference_scan(
        kind in kind_strategy(),
        n in 4usize..17,
        input_buffer in input_buffer_strategy(),
        bursts in bursts_strategy(64, 80),
    ) {
        check_against_spec(kind, n, 2, input_buffer, &bursts, 6_000, false);
    }

    /// Skipping every cycle the engine proves dead — ticking only when
    /// `next_event_cycle` answers `<= now` — changes nothing: deliveries
    /// land on the same cycles with the same statistics as the spec's,
    /// ticked every cycle. This is the contract the platform's fast-forward relies
    /// on; an overshooting `next_event_cycle` would delay a delivery here.
    #[test]
    fn fast_forward_skips_only_dead_cycles(
        kind in kind_strategy(),
        n in 4usize..17,
        input_buffer in input_buffer_strategy(),
        bursts in bursts_strategy(64, 80),
    ) {
        check_against_spec(kind, n, 3, input_buffer, &bursts, 6_000, true);
    }

    /// Fabrics of 65+ routers: the transmit worklist spans two bitset
    /// words. Half the traffic converges on one endpoint just below the
    /// word boundary, so buffers around it fill and a fire in the first
    /// word frees credit for a blocked predecessor in the second, which
    /// must join the pass in flight (mesh and torus rows, fat-tree
    /// switches above the leaves).
    #[test]
    fn wide_fabrics_span_two_worklist_words(
        kind in prop_oneof![
            Just(TopologyKind::Mesh),
            Just(TopologyKind::Torus),
            Just(TopologyKind::FatTree),
        ],
        n in 65usize..97,
        hot in 40usize..64,
        input_buffer in input_buffer_strategy(),
        mut bursts in bursts_strategy(64, 400),
        skip_dead in any::<bool>(),
    ) {
        for burst in bursts.iter_mut().step_by(2) {
            burst.2 = hot;
        }
        let ev = check_against_spec(kind, n, 1, input_buffer, &bursts, 40_000, skip_dead);
        prop_assert!(ev.noc.topology().n_routers() >= 65);
    }

    /// Pools of two and three packets on the multi-hop fabrics, with all
    /// traffic bound for one endpoint: the pools on the way fill and every
    /// hop waits on a credit free, yet nothing can deadlock, so the engine
    /// and the spec must deliver everything (the other properties accept a
    /// small-pool run that strands both alike).
    #[test]
    fn small_pools_drain_toward_one_sink(
        kind in prop_oneof![
            Just(TopologyKind::Ring),
            Just(TopologyKind::Mesh),
            Just(TopologyKind::Torus),
            Just(TopologyKind::FatTree),
        ],
        n in 4usize..17,
        sink in 0usize..512,
        input_buffer in prop_oneof![Just(2usize), Just(3usize)],
        mut bursts in bursts_strategy(64, 80),
        skip_dead in any::<bool>(),
    ) {
        for burst in &mut bursts {
            burst.2 = sink;
        }
        check_against_spec(kind, n, 2, input_buffer, &bursts, 20_000, skip_dead);
    }

    /// Jumbo payloads serialize for longer than the calendar queue's
    /// window (2 KiB at 8 bytes a cycle is the full 256), so their
    /// arrivals and port wakes cross the queue's overflow heap while the
    /// short packets around them take the ring. Every jumbo leaves its
    /// source over a link one flit wide; the property checks that one did
    /// fire a transfer that long.
    #[test]
    fn jumbo_payloads_cross_the_overflow_heap(
        kind in kind_strategy(),
        n in 4usize..17,
        jumbo in prop::collection::vec((0u8..200, 0usize..512, 0usize..512, 2_100usize..6_000), 1..12),
        input_buffer in input_buffer_strategy(),
        small in bursts_strategy(64, 40),
        skip_dead in any::<bool>(),
    ) {
        let jumbo = jumbo.into_iter().map(|(cycle, s, d, len)| {
            // Never self-addressed: a local delivery crosses no link.
            (cycle, s, s + 1 + d % (n - 1), len)
        });
        let bursts: Vec<Burst> = jumbo.chain(small).collect();
        let ev = check_against_spec(kind, n, 2, input_buffer, &bursts, 200_000, skip_dead);
        prop_assert!(
            ev.longest_ser >= QUEUE_WINDOW,
            "longest transfer serialized for {} cycles", ev.longest_ser
        );
    }

    /// No way out of the engine leaks a slab slot. Bursts with every fault
    /// hook interleaved run on an engine that is cloned mid-flight; the two
    /// halves then see the same calls and must stay identical (one is
    /// ejected by polling every endpoint, the other through `eject_next`).
    /// What a wedged fabric still holds is dropped router by router, so
    /// every run ends empty: all slots vacated, every packet accounted for
    /// as delivered or dropped, and the slab exactly as long as the most
    /// packets ever held (never more than the packets accepted and not yet
    /// delivered plus those awaiting ejection). The spec sees every call
    /// the engine sees, and must deliver, drop and corrupt the same
    /// packets at the same cycles.
    #[test]
    fn no_handle_leaks_through_any_exit(
        kind in kind_strategy(),
        n in 4usize..17,
        input_buffer in input_buffer_strategy(),
        hot in 0usize..512,
        mut bursts in bursts_strategy(600, 120),
        faults in prop::collection::vec((0u8..200, 0u8..6, 0usize..512, 0usize..512), 0..16),
        clone_at in 0u64..260,
    ) {
        // A hotspot, so that cutting it off catches traffic in flight.
        for burst in bursts.iter_mut().step_by(2) {
            burst.2 = hot;
        }
        let topo = Topology::build(kind, n, 2).expect("valid topology");
        let cfg = NocConfig { input_buffer, ni_capacity: 8, ..NocConfig::default() };
        let mut noc = Noc::new(topo.clone(), cfg);
        let mut spec = Spec::new(topo, cfg);
        let mut twin: Option<Noc> = None;
        let (mut seen, mut twin_seen, mut spec_seen) = (Vec::new(), Vec::new(), Vec::new());
        let mut peak = 0;
        let n_routers = noc.topology().n_routers();
        let mut now = Cycles(0);
        loop {
            if now.0 == clone_at {
                twin = Some(noc.clone());
            }
            // Past the offers: drop whatever a wedged or cut-off fabric
            // still holds, a router at a time, until nothing moves.
            let sweep = now.0 >= 600 && now.0.is_multiple_of(300);
            for half in [Some(&mut noc), twin.as_mut()].into_iter().flatten() {
                for f in faults.iter().filter(|f| f.0 as u64 == now.0) {
                    apply_fault(half, f, now);
                }
                if sweep {
                    for r in 0..n_routers {
                        while half.drop_next(r, now) {}
                    }
                }
                inject_due(half, &bursts, n, now);
                // Only an injection adds a packet, so this is the peak.
                peak = peak.max(half.packets_held());
                half.tick_traced(now, None);
                let NocStats { injected, delivered, .. } = half.stats();
                let bound = injected - delivered + half.eject_pending() as u64;
                prop_assert!(half.packets_held() as u64 <= bound);
            }
            for f in faults.iter().filter(|f| f.0 as u64 == now.0) {
                apply_fault(&mut spec, f, now);
            }
            if sweep {
                for r in 0..n_routers {
                    while spec.drop_next(r, now) {}
                }
            }
            inject_due(&mut spec, &bursts, n, now);
            spec.tick(now);
            // Eject queues are left to fill for a few cycles.
            if now.0.is_multiple_of(4) {
                drain_ejects(&mut noc, n, now, &mut seen);
                drain_ejects(&mut spec, n, now, &mut spec_seen);
                if let Some(twin) = twin.as_mut() {
                    while let Some((NodeId(endpoint), p)) = twin.eject_next() {
                        let (cycle, tag, len) = (now.0, p.tag, p.data.len());
                        twin_seen.push(Delivery { cycle, endpoint, tag, len });
                    }
                }
            }
            if now.0 > 600 && now.0.is_multiple_of(4) && noc.is_quiescent() {
                break;
            }
            now += Cycles(1);
            prop_assert!(now.0 < 20_000, "sweeps empty any fabric ({} held)", noc.packets_held());
        }
        let twin = twin.expect("cloned before the offers ended");
        for half in [&noc, &twin] {
            prop_assert!(half.is_quiescent());
            prop_assert_eq!(half.packets_held(), 0, "a slot outlived its packet");
            let NocStats { injected, delivered, .. } = half.stats();
            prop_assert_eq!(injected, delivered + half.dropped_packets());
            prop_assert_eq!(half.packet_slots(), peak, "slab length is the peak held");
        }
        prop_assert_eq!(seen.len() as u64, noc.stats().delivered);
        let since_clone = seen.iter().position(|d| d.cycle >= clone_at).unwrap_or(seen.len());
        prop_assert_eq!(&seen[since_clone..], &twin_seen[..], "the halves diverged");
        prop_assert_eq!(noc.stats(), twin.stats());
        prop_assert_eq!(noc.work(), twin.work());
        let faults_and_slab = |n: &Noc| {
            (n.dropped_packets(), n.dropped_flits(), n.corrupted_packets(), n.packet_slots())
        };
        prop_assert_eq!(faults_and_slab(&noc), faults_and_slab(&twin));
        prop_assert!(spec.is_quiescent());
        prop_assert_eq!(&seen, &spec_seen, "the engine and the spec diverged");
        prop_assert_eq!(Fabric::tally(&noc), spec.tally());
    }

    /// `Noc::run_span` is the per-event loop it replaces. Two engines see
    /// the same offers and fault hooks on stepped cycles, each followed by
    /// a span up to the next offer or hook, or a random number of cycles
    /// on: one engine runs it in one call, the other event by event. They
    /// must return the same span every time — where it ends, whether on a
    /// delivery, its hops and ticks — and trace the same events, deliver
    /// the same packets at the same cycles and do the same work. Cutting
    /// endpoints off drops packets in flight, inside spans.
    #[test]
    fn run_span_matches_the_event_loop(
        kind in kind_strategy(),
        n in 4usize..17,
        input_buffer in input_buffer_strategy(),
        hot in 0usize..512,
        mut bursts in bursts_strategy(600, 80),
        faults in prop::collection::vec((0u8..200, 0u8..6, 0usize..512, 0usize..512), 0..12),
        span_cap in 1u64..400,
    ) {
        for burst in bursts.iter_mut().step_by(2) {
            burst.2 = hot;
        }
        let mk = || {
            let topo = Topology::build(kind, n, 2).expect("valid topology");
            Noc::new(topo, NocConfig { input_buffer, ..NocConfig::default() })
        };
        let (mut one, mut each) = (mk(), mk());
        let (mut one_trace, mut each_trace) = (Recorder::default(), Recorder::default());
        let (mut one_seen, mut each_seen) = (Vec::new(), Vec::new());
        let mut inputs: Vec<u64> = bursts.iter().map(|b| u64::from(b.0)).collect();
        inputs.extend(faults.iter().map(|f| u64::from(f.0)));
        inputs.sort_unstable();
        let mut now = Cycles(0);
        while now.0 < 20_000 {
            // A stepped cycle: fault hooks, offers, the tick when due.
            for (noc, trace) in [(&mut one, &mut one_trace), (&mut each, &mut each_trace)] {
                for f in faults.iter().filter(|f| u64::from(f.0) == now.0) {
                    apply_fault(noc, f, now);
                }
                inject_due(noc, &bursts, n, now);
                if noc.due_now(now) {
                    noc.tick_traced(now, Some(trace));
                }
            }
            drain_ejects(&mut one, n, now, &mut one_seen);
            drain_ejects(&mut each, n, now, &mut each_seen);
            now += Cycles(1);
            // Then a span, which no offer or hook may fall inside.
            let next_input = inputs.iter().find(|&&c| c >= now.0).copied();
            let limit = Cycles(next_input.unwrap_or(u64::MAX).min(now.0 + span_cap));
            let Some(next) = one.next_event_cycle(now) else {
                if next_input.is_none() {
                    break;
                }
                continue;
            };
            let got = one.run_span(now, next, limit, Some(&mut one_trace));
            let want = span_by_events(&mut each, now, limit, &mut each_trace);
            prop_assert_eq!(got, want);
            prop_assert!(got.end <= limit);
            if got.ticks > 0 {
                let last = Cycles(got.end.0 - 1);
                drain_ejects(&mut one, n, last, &mut one_seen);
                drain_ejects(&mut each, n, last, &mut each_seen);
                now = got.end;
            }
        }
        prop_assert_eq!(one_seen, each_seen);
        prop_assert_eq!(one_trace.0, each_trace.0);
        prop_assert_eq!(one.stats(), each.stats());
        prop_assert_eq!(one.work(), each.work());
        prop_assert_eq!(one.dropped_packets(), each.dropped_packets());
    }
}

proptest! {
    // Each case makes eight runs of a few dozen packets: about 1 s of debug
    // build in all.
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Time-shift invariance: the same bursts offered `k` cycles later are
    /// delivered exactly `k` cycles later, the same packets at the same
    /// endpoints in the same order, with equal statistics and equal work,
    /// and the same packets left where the fabric wedges. `k` runs over
    /// [`SHIFTS`]. A few jumbo payloads serialize for longer than the
    /// calendar window, so their arrivals cross the overflow heap.
    #[test]
    fn time_shift_delays_every_delivery_exactly(
        kind in kind_strategy(),
        n in 4usize..17,
        link_latency in 0u64..4,
        input_buffer in input_buffer_strategy(),
        small in bursts_strategy(600, 40),
        jumbo in prop::collection::vec((0u8..200, 0usize..512, 0usize..512, 2_100usize..4_000), 0..3),
    ) {
        let bursts: Vec<Burst> = small.into_iter().chain(jumbo).collect();
        let topo = Topology::build(kind, n, link_latency).expect("valid topology");
        let cfg = NocConfig { input_buffer, ..NocConfig::default() };
        let unshifted = shifted_run(&topo, cfg, &bursts, 0);
        for shift in SHIFTS {
            prop_assert_eq!(&shifted_run(&topo, cfg, &bursts, shift), &unshifted, "shift {}", shift);
        }
    }
}
