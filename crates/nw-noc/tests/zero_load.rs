//! The timing rule in closed form. The differential suites show that the
//! engine and the executable spec (`tests/common/spec.rs`) agree, which
//! they would also do if both held one wrong rule. Here a packet alone on
//! an idle fabric must be delivered at its zero-load latency, computed
//! without either: per hop along the route `next_hop` picks, its
//! serialization `ceil(flits / width)` plus the wire latency plus the
//! router delay.

mod common;

use common::spec::Spec;
use common::Fabric;
use nw_noc::{Noc, NocConfig, Packet, Topology, TopologyKind};
use nw_types::{Cycles, NodeId, Payload};

const KINDS: [TopologyKind; 6] = [
    TopologyKind::SharedBus,
    TopologyKind::Crossbar,
    TopologyKind::Ring,
    TopologyKind::Mesh,
    TopologyKind::Torus,
    TopologyKind::FatTree,
];

/// Cycles from injection to delivery of a packet of `flits` alone on
/// `topo`, from `src` to `dst`.
fn zero_load_latency(topo: &Topology, cfg: &NocConfig, src: usize, dst: usize, flits: u64) -> u64 {
    let (mut at, mut cycles) = (src, 0);
    while let Some(port) = topo.next_hop(at, dst) {
        let link = topo.links_of(at)[port];
        cycles += flits.div_ceil(link.width) + link.latency + cfg.router_delay;
        at = link.to;
    }
    assert_eq!(at, dst, "the route reaches its destination");
    cycles
}

/// Offers one packet at cycle `start` and ticks until it is delivered;
/// returns its latency.
fn lone_packet(noc: &mut dyn Fabric, src: usize, dst: usize, len: usize, start: u64) -> u64 {
    let sent = noc.try_inject(
        NodeId(src),
        NodeId(dst),
        Payload::zeroed(len),
        0,
        Cycles(start),
    );
    sent.expect("an idle NI accepts");
    for now in start..start + 10_000 {
        noc.tick(Cycles(now));
        if let Some(p) = noc.eject(NodeId(dst)) {
            assert_eq!(p.src, NodeId(src));
            return now - start;
        }
    }
    panic!("{src} -> {dst} not delivered");
}

#[test]
fn a_lone_packet_arrives_at_its_zero_load_latency() {
    let cfg = NocConfig::default();
    for kind in KINDS {
        for n in [4, 16] {
            for link_latency in [0, 1, 3] {
                let topo = Topology::build(kind, n, link_latency).expect("valid topology");
                for (src, dst) in (0..n).flat_map(|s| (0..n).map(move |d| (s, d))) {
                    // From the header alone (one flit) to 14 flits.
                    let len = (3 * src + 5 * dst) % 14 * 8;
                    let flits = (len as u64 + Packet::HEADER_BYTES).div_ceil(cfg.flit_bytes);
                    let want = zero_load_latency(&topo, &cfg, src, dst, flits);
                    let start = (src * n + dst) as u64;
                    let mut spec = Spec::new(topo.clone(), cfg);
                    let mut noc = Noc::new(topo.clone(), cfg);
                    for (what, fabric) in
                        [("spec", &mut spec as &mut dyn Fabric), ("engine", &mut noc)]
                    {
                        let got = lone_packet(fabric, src, dst, len, start);
                        assert_eq!(
                            got, want,
                            "{what}: {kind:?} n={n} latency {link_latency}, {src} -> {dst}, {flits} flits"
                        );
                    }
                }
            }
        }
    }
}
