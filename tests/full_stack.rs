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

/// The largest message body and raw packet the wire carries: one payload.
const MAX_BODY: u64 = (nw_types::Payload::MAX_LEN - nw_dsoc::Message::HEADER_LEN) as u64;
const MAX_PACKET: u64 = nw_types::Payload::MAX_LEN as u64;

/// The quickstart's platform plus one hardwired IP block, whose replies
/// come back within cycles whatever their size.
fn sizes_platform() -> FppaPlatform {
    let mut cfg = FppaConfig::new("sizes", TopologyKind::Mesh);
    for _ in 0..4 {
        cfg.add_pe(PeConfig::new(PeClass::GpRisc, 2));
    }
    cfg.add_hwip(nanowall::HwIpConfig {
        name: "ip".into(),
        ii: 1,
        latency: 4,
        area: nw_types::AreaMm2(0.1),
        energy_per_item: nw_types::Picojoules(1.0),
    });
    let clock_hz = cfg.tech.nominal_clock_hz();
    cfg.add_io(IoChannelConfig {
        rate: nw_types::BitsPerSec(40.0 * 8.0 * clock_hz / 100.0),
        ..IoChannelConfig::ten_gbe_worst_case()
    });
    FppaPlatform::new(cfg).expect("valid config")
}

/// The quickstart's application with its call made twoway: `ping` (fed
/// from channel 0) calls `pong.ack` with `arg_bytes`, answered with
/// `reply_bytes`.
fn sizes_app(arg_bytes: u64, reply_bytes: u64) -> Application {
    let mut b = Application::builder("pingpong");
    let go = MethodDef::oneway("go", 16).with_compute(50);
    let ping = b.add_object(ObjectDef::new("ping").with_method(go));
    let ack = MethodDef::twoway("ack", arg_bytes, reply_bytes).with_compute(50);
    let pong = b.add_object(ObjectDef::new("pong").with_method(ack));
    b.connect(ping, 0, pong, 0, 1.0);
    b.entry(ping, 0);
    b.build().expect("valid app")
}

const PING: ObjectId = ObjectId(0);
const PONG: ObjectId = ObjectId(1);

/// Installs `app` on a fresh [`sizes_platform`], fed from channel 0.
fn install(app: &Application) -> Result<FppaPlatform, nanowall::InstallError> {
    let mut p = sizes_platform();
    p.install_app(app, &[0, 3])?;
    p.bind_io_entry(0, PING)?;
    Ok(p)
}

#[test]
fn a_message_size_the_wire_cannot_carry_is_an_install_error() {
    use nanowall::InstallError::MessageTooLarge;
    // A method's argument or reply at the limit installs and runs: the
    // first call and the first reply are marshalled and tagged.
    for (arg, reply) in [(MAX_BODY, 8), (16, MAX_BODY)] {
        let mut p = install(&sizes_app(arg, reply)).expect("at the limit");
        p.run(5_000);
        // A maximal argument is still on the wire; a maximal reply was sent.
        let dispatches = p.runtime().expect("installed").object_dispatches();
        assert_eq!(dispatches[PONG.0] > 0, arg < MAX_BODY, "{dispatches:?}");
        assert!(dispatches[PING.0] > 0);
    }
    // One byte past it, or the reply size that overflowed the tag, is
    // refused by name.
    let refused = [
        (MAX_BODY + 1, 8, "argument", MAX_BODY + 1),
        (16, MAX_BODY + 1, "reply", MAX_BODY + 1),
        (16, 1 << 32, "reply", 1 << 32),
    ];
    for (arg, reply, what, bytes) in refused {
        let err = install(&sizes_app(arg, reply)).err();
        let want = MessageTooLarge {
            object: PONG,
            method: Some(nw_dsoc::MethodId(0)),
            what,
            bytes,
            limit: MAX_BODY,
        };
        assert_eq!(err, Some(want.clone()));
        assert_eq!(
            want.to_string(),
            format!("obj1.m0: a {bytes}-byte {what}, past the {MAX_BODY} bytes the wire carries")
        );
    }
    // A binding's sizes likewise: a service request or reply and an
    // egress packet.
    type Bind = fn(&mut FppaPlatform, u64) -> Result<(), nanowall::InstallError>;
    let binds: [(Bind, &str); 3] = [
        (
            |p, n| p.bind_service(PING, p.hwip_node(0), n, 8, 1),
            "service request",
        ),
        (
            |p, n| p.bind_service(PING, p.hwip_node(0), 8, n, 1),
            "service reply",
        ),
        (|p, n| p.bind_egress(PONG, 0, n), "egress packet"),
    ];
    for (bind, what) in binds {
        let mut p = install(&sizes_app(16, 8)).expect("valid app");
        let want = MessageTooLarge {
            object: if what == "egress packet" { PONG } else { PING },
            method: None,
            what,
            bytes: MAX_PACKET + 1,
            limit: MAX_PACKET,
        };
        assert_eq!(bind(&mut p, MAX_PACKET + 1), Err(want));
        bind(&mut p, MAX_PACKET).expect("at the limit");
        p.run(5_000);
        let dispatches = p.runtime().expect("installed").object_dispatches();
        assert!(dispatches[PING.0] > 0, "{what}");
    }
}

/// A fabric reloaded while it holds calls — two issued into its pipeline,
/// two queued in front of it — answers every one of them: the issued ones
/// on the cycles the old kernel gave them, the queued ones once the new
/// bitstream has loaded. Every caller's thread retires, `served` counts
/// all four, and the platform drains, under both schedulers alike.
#[test]
fn reconfiguring_a_busy_fabric_answers_every_call_under_both_schedulers() {
    use nw_pe::{Op, Program};
    let first = KernelSpec::checksum_offload(); // ii 3, latency 12 on fabric
    let load = FabricSpec::default().reconfig_cycles(first.luts).0;
    let run = |mode: SchedulerMode| {
        let mut cfg = FppaConfig::new("busy-fabric", TopologyKind::Ring);
        cfg.add_pe(PeConfig::new(PeClass::GpRisc, 4));
        cfg.add_fabric(FabricSpec::default());
        let mut p = FppaPlatform::new(cfg).expect("valid config");
        p.set_scheduler_mode(mode);
        p.fabric_mut(0)
            .reconfigure(&first, Cycles(0))
            .expect("fits");
        let call = Program::straight_line([Op::call(p.fabric_node(0), 8, 8)]);
        for _ in 0..4 {
            p.pe_mut(0).spawn(call.clone()).expect("an idle thread");
        }
        // The four calls wait out the load, then issue on cycles
        // load + 0, 3, 6 and 9: at load + 4 two are in the pipeline.
        let _ = p.run(load + 4);
        assert_eq!(p.fabric_mut(0).served(), 0);
        let now = p.now();
        (p.fabric_mut(0))
            .reconfigure(&KernelSpec::header_classify(), now)
            .expect("fits");
        let _ = p.run(100);
        assert_eq!(p.fabric_mut(0).served(), 2, "the issued calls complete");
        let _ = p.run(10_000);
        assert_eq!(p.fabric_mut(0).served(), 4, "the queued calls complete");
        // Each call is charged at the kernel that issued it: 2 x 150 pJ
        // under the checksum kernel, 2 x 350 pJ under the classifier.
        assert_eq!(p.fabric_mut(0).energy(), nw_types::Picojoules(1_000.0));
        assert_eq!(p.pe(0).idle_threads(), 4, "every caller was answered");
        assert!(p.is_quiescent(), "{mode:?}: the platform drains");
        p.report(Cycles(10_000)).values()
    };
    assert_eq!(run(SchedulerMode::Dense), run(SchedulerMode::ActiveSet));
}

/// Keeps PE 0's threads busy with `task` and steps one cycle.
fn feed_and_step(p: &mut FppaPlatform, task: &nw_pe::Program) {
    while p.pe(0).idle_threads() > 0 {
        p.pe_mut(0).spawn(task.clone()).expect("an idle thread");
    }
    p.step();
}

/// §6.3's run-time reconfiguration on a running platform: a PE runs the
/// checksum kernel in software, the eFPGA is loaded mid-run, and the PE
/// then ships items to it. The fabric serves nothing while the bitstream
/// loads, serves items once it has, and both schedulers agree bit for bit.
#[test]
fn a_mid_run_efpga_reconfigure_stalls_then_serves_under_both_schedulers() {
    use nw_pe::{Op, Program};
    let kernel = KernelSpec::checksum_offload();
    let downtime = FabricSpec::default().reconfig_cycles(kernel.luts);
    let run = |mode: SchedulerMode| {
        let mut cfg = FppaConfig::new("offload", TopologyKind::Ring);
        cfg.add_pe(PeConfig::new(PeClass::GpRisc, 4));
        cfg.add_fabric(FabricSpec::default());
        let mut p = FppaPlatform::new(cfg).expect("valid config");
        p.set_scheduler_mode(mode);
        let software = Program::straight_line([Op::Compute(kernel.sw_cycles_per_item)]);
        let offload = Program::straight_line([Op::call(p.fabric_node(0), 8, 8)]);
        while p.now() < Cycles(3_000) {
            feed_and_step(&mut p, &software);
        }
        let now = p.now();
        p.fabric_mut(0).reconfigure(&kernel, now).expect("fits");
        while p.now() < now + downtime {
            feed_and_step(&mut p, &offload);
            assert_eq!(p.fabric_mut(0).served(), 0, "served at {:?}", p.now());
        }
        while p.now() < Cycles(21_000) {
            feed_and_step(&mut p, &offload);
        }
        let report = p.report(Cycles(21_000));
        assert!(report.fabric_served > 0, "{report:?}");
        report.values()
    };
    assert_eq!(run(SchedulerMode::Dense), run(SchedulerMode::ActiveSet));
}
