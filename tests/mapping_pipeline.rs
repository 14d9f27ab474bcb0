//! Integration of the MultiFlex toolchain: platform hop matrix → mapping
//! problem → mapper → runtime installation → simulated execution.

use nanowall::prelude::*;
use nanowall::scenarios::{ipv4_rig_with_placement, run_ipv4};
use nw_ipv4::app::{fast_path_app, FastPathWeights};
use nw_mapping::{
    GreedyLoadMapper, Mapper, MappingProblem, PeSlot, RandomMapper, SimulatedAnnealingMapper,
};

fn build_problem(n_pes: usize, replicas: usize, gbps: f64) -> (MappingProblem, usize) {
    let (app, _) = fast_path_app(replicas, &FastPathWeights::default()).unwrap();
    // Use the real platform's hop matrix, exactly as a user of the tool
    // chain would.
    let mut cfg = FppaConfig::new("probe", TopologyKind::Mesh);
    cfg.link_latency = Some(4);
    for _ in 0..n_pes {
        cfg.add_pe(PeConfig::new(PeClass::GpRisc, 8));
    }
    cfg.add_memory(nanowall::MemoryBlockConfig::new(
        MemoryTechnology::Sram,
        16.0,
    ));
    cfg.add_io(IoChannelConfig::ten_gbe_worst_case());
    let platform = FppaPlatform::new(cfg).unwrap();
    let hops = platform.hop_matrix();
    let clock = platform.clock_hz();
    let pps = gbps * 1e9 / 320.0;
    let per_entry = pps / clock / replicas as f64;
    let problem = MappingProblem::new(
        app,
        vec![per_entry; replicas],
        (0..n_pes)
            .map(|i| PeSlot::new(platform.pe_node(i), 1.0))
            .collect(),
        hops,
    )
    .unwrap();
    (problem, n_pes)
}

#[test]
fn mapped_placement_executes_on_the_simulator() {
    let replicas = 4;
    let gbps = 1.5;
    let (problem, n_pes) = build_problem(6, replicas, gbps);
    let mapping = GreedyLoadMapper.map(&problem);
    let mut rig = ipv4_rig_with_placement(
        replicas,
        n_pes,
        8,
        TopologyKind::Mesh,
        4,
        gbps,
        &mapping.placement,
    );
    let report = run_ipv4(&mut rig, 50_000);
    let io = &report.io[0];
    let forwarded = io.transmitted as f64 / io.generated.max(1) as f64;
    assert!(forwarded > 0.9, "greedy placement should hold 1.5G: {io:?}");
}

#[test]
fn analytic_cost_predicts_simulated_ranking() {
    let replicas = 4;
    let gbps = 1.8;
    let (problem, n_pes) = build_problem(6, replicas, gbps);

    let evaluate = |placement: &[usize]| {
        let mut rig =
            ipv4_rig_with_placement(replicas, n_pes, 8, TopologyKind::Mesh, 4, gbps, placement);
        let r = run_ipv4(&mut rig, 50_000);
        r.io[0].transmitted as f64 / r.io[0].generated.max(1) as f64
    };

    let bad = RandomMapper { seed: 13 }.map(&problem);
    let good = SimulatedAnnealingMapper {
        iterations: 10_000,
        ..Default::default()
    }
    .map(&problem);
    assert!(good.cost.total < bad.cost.total);
    let fwd_bad = evaluate(&bad.placement);
    let fwd_good = evaluate(&good.placement);
    assert!(
        fwd_good >= fwd_bad - 0.02,
        "analytic winner must not lose on silicon: good {fwd_good} vs bad {fwd_bad}"
    );
    assert!(
        fwd_good > 0.9,
        "optimized placement holds the rate: {fwd_good}"
    );
}

#[test]
fn broker_reflects_installed_placement() {
    let replicas = 2;
    let (problem, n_pes) = build_problem(4, replicas, 1.0);
    let mapping = GreedyLoadMapper.map(&problem);
    let rig = ipv4_rig_with_placement(
        replicas,
        n_pes,
        4,
        TopologyKind::Mesh,
        4,
        1.0,
        &mapping.placement,
    );
    let rt = rig.platform.runtime().unwrap();
    assert_eq!(
        rt.placement(),
        &mapping.placement[..],
        "the runtime must host every object on its mapped PE"
    );
}
