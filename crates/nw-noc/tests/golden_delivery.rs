//! Golden delivery logs: what the engine delivered, when and in what order,
//! pinned as digests recorded at commit 2c5bd7f — the last one whose engine
//! kept whole packets in per-port `VecDeque`s and arrival events.
//!
//! The differential suites (`prop_event_core`) compare the event-driven tick
//! with the dense reference tick, but both share one storage layer, so a
//! mistake there (a FIFO threaded in the wrong order, a handle freed twice,
//! flits cached from the wrong packet) moves both alike and they still
//! agree. These constants come from a different implementation of that
//! layer and do not move with it.
//!
//! Each digest is FNV-1a over every ejected packet as
//! `(cycle, id, src, dst, tag, injected_at, data)` in eject order, then the
//! final [`NocCounts`] and the fault tallies. On a mismatch the test prints
//! the whole table as it reads now, ready to paste — which is only the
//! right thing to do for a change that means to alter the timing model.

use nw_noc::{Noc, NocConfig, NocCounts, Packet, Topology, TopologyKind};
use nw_types::{Cycles, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Endpoints of every fabric driven here.
const N: usize = 16;
/// Offers stop at this cycle; the fabric then drains.
const OFFER_UNTIL: u64 = 600;
/// Hard stop. Pools of two deadlock some multi-hop fabrics (ROADMAP, "NoC
/// liveness"); such a run is hashed as far as it got.
const HORIZON: u64 = 30_000;
/// Endpoint three offers in ten are addressed to.
const HOTSPOT: usize = 5;
/// Literal seed of the burst mix.
const SEED: u64 = 0x0DAC_2003_5EED_0017;

/// How the engine is driven: which tick, and which way out.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// `Noc::tick_traced(now, None)`, the event-driven pass; every endpoint
    /// polled with `Noc::eject`, as when the digests were recorded.
    Event,
    /// `Noc::tick_reference`, the dense scan; endpoints polled.
    Reference,
    /// The event-driven pass, emptied through `Noc::eject_next` (which the
    /// recording engine did not have): the same order without the polling.
    EventSwept,
}

const DRIVES: [Drive; 3] = [Drive::Event, Drive::Reference, Drive::EventSwept];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Up to three offers a cycle: one in ten self-addressed, three in ten to
/// the hotspot, the rest uniform; six in a hundred carry 2–3 KB (longer on
/// a one-flit link than the event queue's 256-cycle window), the rest under
/// 64 bytes. Refused offers still advance the sequence, so the payload
/// pattern of a packet does not depend on back-pressure.
fn offer(noc: &mut Noc, rng: &mut StdRng, seq: &mut u64, now: Cycles) {
    for _ in 0..3 {
        if !rng.gen_bool(0.25) {
            continue;
        }
        let src = rng.gen_range(0..N);
        let dst = match rng.gen_range(0..10u32) {
            0 => src,
            1..=3 => HOTSPOT,
            _ => rng.gen_range(0..N),
        };
        let len = if rng.gen_bool(0.06) {
            rng.gen_range(2048..3072usize)
        } else {
            rng.gen_range(0..64usize)
        };
        let data = (0..len).map(|k| (*seq as usize + 7 * k) as u8).collect();
        let tag = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let _ = noc.try_inject(NodeId(src), NodeId(dst), data, tag, now);
        *seq += 1;
    }
}

fn tick(noc: &mut Noc, how: Drive, now: Cycles) {
    match how {
        Drive::Event | Drive::EventSwept => noc.tick_traced(now, None),
        Drive::Reference => noc.tick_reference(now),
    }
}

/// Tag of the one packet [`faulted_run`] corrupts, and its payload byte.
const CORRUPTED: (u64, u8) = (0xC0DE, 0x11);

/// Empties the eject interface in ascending endpoint order.
fn ejects(noc: &mut Noc, how: Drive) -> Vec<(NodeId, Packet)> {
    if matches!(how, Drive::EventSwept) {
        return std::iter::from_fn(|| noc.eject_next()).collect();
    }
    let mut out = Vec::new();
    for e in 0..N {
        while let Some(p) = noc.eject(NodeId(e)) {
            out.push((NodeId(e), p));
        }
    }
    out
}

/// Hashes everything waiting at the eject interface; returns how many of
/// those packets were the corrupted one, arriving corrupted.
fn hash_ejects(noc: &mut Noc, how: Drive, now: Cycles, h: &mut Fnv) -> usize {
    let mut corrupted = 0;
    for (at, p) in ejects(noc, how) {
        assert_eq!(p.dst, at, "ejected at its destination");
        if p.tag == CORRUPTED.0 {
            assert_eq!(p.data[0], CORRUPTED.1 ^ 0xA5, "first byte flipped");
            assert!(p.data[1..].iter().all(|&b| b == CORRUPTED.1));
            corrupted += 1;
        }
        h.word(now.0);
        h.word(p.id.0);
        h.word(p.src.0 as u64);
        h.word(p.dst.0 as u64);
        h.word(p.tag);
        h.word(p.injected_at.0);
        h.word(p.data.len() as u64);
        h.bytes(&p.data);
    }
    corrupted
}

fn hash_totals(noc: &Noc, h: &mut Fnv) {
    let NocCounts {
        injected,
        delivered,
        refused,
        flit_hops,
    } = noc.counts();
    for v in [
        injected,
        delivered,
        refused,
        flit_hops,
        noc.dropped_packets(),
        noc.dropped_flits(),
        noc.corrupted_packets(),
    ] {
        h.word(v);
    }
}

fn build(kind: TopologyKind, pool: usize) -> Noc {
    let topo = Topology::build(kind, N, 2).expect("valid topology");
    // NI queues short enough that the hotspot's senders meet `NiFull`.
    let cfg = NocConfig {
        input_buffer: pool,
        ni_capacity: 8,
        ..NocConfig::default()
    };
    Noc::new(topo, cfg)
}

/// The burst mix on a healthy fabric.
fn clean_run(kind: TopologyKind, pool: usize, how: Drive) -> u64 {
    let mut noc = build(kind, pool);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut seq = 0u64;
    let mut h = Fnv::new();
    for c in 0..HORIZON {
        let now = Cycles(c);
        if c < OFFER_UNTIL {
            offer(&mut noc, &mut rng, &mut seq, now);
        } else if noc.is_quiescent() {
            break;
        }
        tick(&mut noc, how, now);
        hash_ejects(&mut noc, how, now, &mut h);
    }
    hash_totals(&noc, &mut h);
    h.0
}

/// Port of `router` whose link leads to `to`.
fn port_to(noc: &Noc, router: usize, to: usize) -> usize {
    noc.topology()
        .links_of(router)
        .iter()
        .position(|l| l.to == to)
        .expect("routers are adjacent")
}

/// The burst mix on a 4x4 mesh with every fault hook applied at a fixed
/// cycle, ahead of that cycle's offers and tick. The `assert!`s pin which
/// arm of each hook the schedule reaches, so an edit to the schedule cannot
/// quietly stop covering one.
fn faulted_run(how: Drive) -> u64 {
    let mut noc = build(TopologyKind::Mesh, 4);
    let ni_capacity = noc.config().ni_capacity;
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xFA17);
    let mut seq = 0u64;
    let mut h = Fnv::new();
    let mut corrupted_seen = 0;
    for c in 0..HORIZON {
        let now = Cycles(c);
        if c >= OFFER_UNTIL && noc.is_quiescent() {
            break;
        }
        match c {
            // Hold the hotspot's whole router, then one port of a neighbour.
            40 => noc.stall_router(HOTSPOT, 160),
            60 => {
                let p = port_to(&noc, 1, HOTSPOT);
                noc.stall_port(1, p, 220);
            }
            // Everything the stalled router holds is dropped, port queues
            // first. A packet then enters its emptied NI and, one tick
            // later, sits on a port queue it cannot leave.
            80 => {
                while noc.drop_next(HOTSPOT, now) {}
                noc.try_inject(NodeId(HOTSPOT), NodeId(7), vec![0x5A; 40], 0xD809, now)
                    .expect("emptied NI accepts");
            }
            81 => {
                assert_eq!(noc.ni_free(NodeId(HOTSPOT)), ni_capacity, "NI drained");
                let before = noc.dropped_packets();
                assert!(noc.drop_next(HOTSPOT, now), "port-queue head dropped");
                assert_eq!(noc.dropped_packets(), before + 1);
            }
            // Endpoint 12 is emptied so that the hooks meet exactly the
            // packets offered here: the first is corrupted as the NI head,
            // the second dropped as the NI head (nothing is left on a port
            // queue to be taken in its place).
            100 => {
                while noc.drop_next(12, now) {}
                assert!(!noc.corrupt_next(12), "nothing to corrupt");
                let payload = vec![CORRUPTED.1; 24];
                noc.try_inject(NodeId(12), NodeId(3), payload, CORRUPTED.0, now)
                    .expect("emptied NI accepts");
                assert!(noc.corrupt_next(12), "NI head corrupted");
            }
            110 => {
                while noc.drop_next(12, now) {}
                noc.try_inject(NodeId(12), NodeId(3), vec![0x22; 24], 0xD80A, now)
                    .expect("emptied NI accepts");
                assert!(noc.drop_next(12, now), "NI head dropped");
                assert_eq!(noc.ni_free(NodeId(12)), ni_capacity);
            }
            // A link into the hotspot dies: its queue follows the
            // recomputed routes.
            120 => {
                let p = port_to(&noc, 6, HOTSPOT);
                assert!(noc.fail_link(6, p, now));
                assert!(!noc.fail_link(6, p, now), "idempotent");
            }
            // Endpoint 15 loses both inbound links, one of them held busy
            // beforehand so that it dies loaded: traffic queued for 15
            // strands, traffic in flight toward it drops at its next router,
            // later offers drop at their NI.
            240 => {
                let p = port_to(&noc, 14, 15);
                noc.stall_port(14, p, 400);
                for tag in [0xDEAD, 0xDEAE] {
                    noc.try_inject(NodeId(14), NodeId(15), vec![0x33; 16], tag, now)
                        .expect("NI has room");
                }
            }
            300 => {
                let before = noc.dropped_packets();
                for from in [11, 14] {
                    let p = port_to(&noc, from, 15);
                    assert!(noc.fail_link(from, p, now));
                }
                assert!(noc.dropped_packets() >= before + 2, "queue stranded");
            }
            _ => {}
        }
        if c < OFFER_UNTIL {
            offer(&mut noc, &mut rng, &mut seq, now);
        }
        tick(&mut noc, how, now);
        corrupted_seen += hash_ejects(&mut noc, how, now, &mut h);
        if c.is_multiple_of(64) {
            h.word(noc.take_dropped_buffers().len() as u64);
        }
    }
    assert_eq!(corrupted_seen, 1, "the corrupted packet still arrives");
    assert_eq!(noc.corrupted_packets(), 1);
    assert!(noc.dropped_packets() > 8, "disconnection dropped traffic");
    hash_totals(&noc, &mut h);
    h.0
}

/// `(kind, pool, digest)` recorded at 2c5bd7f.
const GOLDEN_CLEAN: [(TopologyKind, usize, u64); 10] = [
    (TopologyKind::Mesh, 2, 0xea2f14b918c9844a),
    (TopologyKind::Mesh, 8, 0xaa85854ec6ca7565),
    (TopologyKind::Ring, 2, 0xda9bc5eda9cd4603),
    (TopologyKind::Ring, 8, 0xaa19e7208ec63a51),
    (TopologyKind::Crossbar, 2, 0x300d7024ec3558e8),
    (TopologyKind::Crossbar, 8, 0xc18ab68b62575391),
    (TopologyKind::FatTree, 2, 0x5e2d2752324d0c2c),
    (TopologyKind::FatTree, 8, 0xd6cddaa55f98c728),
    (TopologyKind::SharedBus, 2, 0xcb7e154edd574931),
    (TopologyKind::SharedBus, 8, 0xa270e2975edc6be7),
];

/// Digest of [`faulted_run`] recorded at 2c5bd7f.
const GOLDEN_FAULTED: u64 = 0xbab537db879c18e2;

#[test]
fn clean_runs_match_the_recorded_delivery_logs() {
    for how in DRIVES {
        let now: Vec<(TopologyKind, usize, u64)> = GOLDEN_CLEAN
            .iter()
            .map(|&(kind, pool, _)| (kind, pool, clean_run(kind, pool, how)))
            .collect();
        let table: String = now
            .iter()
            .map(|(kind, pool, d)| format!("    (TopologyKind::{kind:?}, {pool}, {d:#018x}),\n"))
            .collect();
        assert!(
            now == GOLDEN_CLEAN,
            "{how:?} tick left the recorded logs; the table reads now:\n{table}"
        );
    }
}

#[test]
fn faulted_run_matches_the_recorded_delivery_log() {
    for how in DRIVES {
        let d = faulted_run(how);
        assert!(
            d == GOLDEN_FAULTED,
            "{how:?} tick left the recorded log; the digest reads now: {d:#018x}"
        );
    }
}
