//! Integration tests across the whole stack: DSOC application → runtime →
//! PEs → NoC → I/O, on the assembled FPPA platform.

use nanowall::prelude::*;
use nanowall::scenarios::{fppa_tour_config, ipv4_rig};

#[test]
fn ipv4_pipeline_forwards_at_sustainable_rate() {
    let mut rig = ipv4_rig(8, 8, TopologyKind::Mesh, 4, 5.0);
    let report = rig.run(60_000);
    let io = &report.io[0];
    assert!(io.generated > 1_500, "line generated {}", io.generated);
    let forwarded = io.transmitted as f64 / io.generated as f64;
    assert!(forwarded > 0.9, "forwarded {forwarded}: {io:?}");
    // Every forwarded packet touched 4 objects = 4 tasks (+ lookup replies).
    assert!(report.tasks_completed as f64 >= io.transmitted as f64 * 3.0);
    // No protocol errors anywhere.
    assert_eq!(rig.platform.runtime().unwrap().decode_errors, 0);
}

#[test]
#[should_panic(
    expected = "run(18446744073709551615) at cycle 10 would take the clock past u64::MAX"
)]
fn a_run_past_the_end_of_the_clock_panics_in_every_profile() {
    let mut rig = ipv4_rig(4, 4, TopologyKind::Torus, 8, 5.0);
    let _ = rig.run(10);
    let _ = rig.run(u64::MAX);
}

#[test]
fn multithreading_lifts_throughput_under_noc_latency() {
    // Same platform, 1 vs 8 hardware threads, >100-cycle round trips.
    let measure = |threads: usize| {
        let mut rig = ipv4_rig(8, threads, TopologyKind::Mesh, 25, 10.0);
        let r = rig.run(40_000);
        r.io[0].transmitted
    };
    let one = measure(1);
    let eight = measure(8);
    assert!(
        eight as f64 > one as f64 * 2.0,
        "8 threads ({eight}) should far outrun 1 thread ({one})"
    );
}

#[test]
fn topology_choice_shows_up_in_end_to_end_throughput() {
    // A shared bus strangles the same workload a crossbar carries.
    let measure = |topology: TopologyKind| {
        let mut rig = ipv4_rig(8, 8, topology, 2, 10.0);
        let r = rig.run(40_000);
        r.io[0].transmitted
    };
    let bus = measure(TopologyKind::SharedBus);
    let xbar = measure(TopologyKind::Crossbar);
    assert!(
        xbar as f64 > bus as f64 * 1.2,
        "crossbar ({xbar}) should beat the shared bus ({bus})"
    );
}

#[test]
fn figure2_platform_assembles_and_serves_every_class() {
    let cfg = fppa_tour_config();
    let n = cfg.n_endpoints();
    let mut platform = FppaPlatform::new(cfg).expect("tour config valid");
    assert_eq!(n, 14);
    // Drive a compute+memory task on every PE directly.
    let sram = platform.memory_node(0);
    let prog =
        nw_pe::Program::straight_line([nw_pe::Op::Compute(20), nw_pe::Op::call(sram, 8, 32)]);
    for c in 0..5_000u64 {
        for pe in 0..8 {
            while platform.pe(pe).idle_threads() > 0 {
                platform.pe_mut(pe).spawn(prog.clone()).unwrap();
            }
        }
        platform.step();
        let _ = c;
    }
    let report = platform.report(Cycles(5_000));
    assert!(report.tasks_completed > 100);
    assert!(report.mem_accesses > 100);
    assert!(report.mean_pe_utilization() > 0.3);
    assert!(report.energy.0 > 0.0);
    assert!(platform.area().0 > 5.0);
}

#[test]
fn install_errors_are_reported_not_panicked() {
    let mut cfg = FppaConfig::new("tiny", TopologyKind::Ring);
    cfg.add_pe(PeConfig::new(PeClass::GpRisc, 1));
    let mut platform = FppaPlatform::new(cfg).unwrap();

    let mut b = Application::builder("one");
    let o = b.add_object(ObjectDef::new("o").with_method(MethodDef::oneway("m", 8)));
    b.entry(o, 0);
    let app = b.build().unwrap();

    // Wrong placement length.
    assert!(platform.install_app(&app, &[]).is_err());
    // PE out of range.
    assert!(platform.install_app(&app, &[5]).is_err());
    // Valid install, then binding a missing I/O channel fails cleanly.
    platform.install_app(&app, &[0]).unwrap();
    assert!(platform.bind_io_entry(0, o).is_err());
    assert!(platform.bind_egress(o, 0, 40).is_err());
}
