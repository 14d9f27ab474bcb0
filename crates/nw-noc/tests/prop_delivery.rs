//! Property tests: the NoC never loses, duplicates or corrupts packets, on
//! any topology, and latency respects physics.

use nw_noc::{Noc, NocConfig, Topology, TopologyKind};
use nw_types::{Cycles, NodeId, Payload};
use proptest::prelude::*;
use std::collections::HashMap;

fn kind_strategy() -> impl Strategy<Value = TopologyKind> {
    prop_oneof![
        Just(TopologyKind::SharedBus),
        Just(TopologyKind::Ring),
        Just(TopologyKind::Mesh),
        Just(TopologyKind::Torus),
        Just(TopologyKind::FatTree),
        Just(TopologyKind::Crossbar),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every accepted packet is delivered exactly once with its payload
    /// intact, no matter the topology, size or traffic pattern.
    #[test]
    fn conservation_and_integrity(
        kind in kind_strategy(),
        n in 2usize..20,
        sends in prop::collection::vec((0usize..20, 0usize..20, 0usize..48), 1..60),
    ) {
        let topo = Topology::build(kind, n, 1).expect("valid topology");
        let mut noc = Noc::new(topo, NocConfig::default());
        let mut expected: HashMap<u64, (NodeId, Payload)> = HashMap::new();
        let mut accepted = 0u64;
        let mut now = Cycles(0);
        for (i, &(s, d, len)) in sends.iter().enumerate() {
            let src = NodeId(s % n);
            let dst = NodeId(d % n);
            let tag = i as u64;
            let data = Payload::with_head(len, &[i as u8; 16][..len.min(16)]);
            if noc.try_inject(src, dst, data, tag, now).is_ok() {
                expected.insert(tag, (dst, data));
                accepted += 1;
            }
            noc.tick(now);
            now += Cycles(1);
        }
        let mut got = 0u64;
        let deadline = now.0 + 50_000;
        while got < accepted {
            noc.tick(now);
            for e in 0..n {
                while let Some(p) = noc.eject(NodeId(e)) {
                    let (dst, data) = expected.remove(&p.tag)
                        .expect("no duplicate or unknown deliveries");
                    prop_assert_eq!(dst, NodeId(e), "delivered to the right endpoint");
                    prop_assert_eq!(p.data, data, "payload intact");
                    got += 1;
                }
            }
            now += Cycles(1);
            prop_assert!(now.0 < deadline, "network must drain ({got}/{accepted})");
        }
        prop_assert!(expected.is_empty());
        prop_assert!(noc.is_quiescent());
    }

    /// Delivered latency is at least the physical lower bound:
    /// hops x (link latency + router delay) + serialization.
    #[test]
    fn latency_lower_bound(
        kind in kind_strategy(),
        n in 2usize..17,
        link_latency in 1u64..8,
        payload in 0usize..64,
    ) {
        let topo = Topology::build(kind, n, link_latency).expect("valid topology");
        let hops = topo.hops(0, n - 1) as u64;
        let cfg = NocConfig::default();
        let mut noc = Noc::new(topo, cfg);
        noc.try_inject(NodeId(0), NodeId(n - 1), Payload::zeroed(payload), 0, Cycles(0))
            .expect("empty NI accepts");
        let mut now = Cycles(0);
        let p = loop {
            noc.tick(now);
            if let Some(p) = noc.eject(NodeId(n - 1)) { break p; }
            now += Cycles(1);
            prop_assert!(now.0 < 100_000);
        };
        let ser = p.flits(cfg.flit_bytes);
        let bound = hops * (link_latency + cfg.router_delay) + ser.min(1);
        prop_assert!(now.0 >= bound, "latency {} below physical bound {}", now.0, bound);
    }
}
