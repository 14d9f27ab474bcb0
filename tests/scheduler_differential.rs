//! Scheduler differential suite: the active-set event-driven scheduler must
//! be **bit-identical** to the dense reference scheduler on every registered
//! scenario — same `PlatformReport` down to the last f64 bit, same NoC
//! histogram buckets, same energy.
//!
//! The dense path ticks every component every cycle; the active-set path
//! lets PEs sleep through bursts, stalls and dormancy (settling in bulk),
//! skips quiescent service nodes and NoC scans, and fast-forwards quiet spans. Any divergence
//! between the two is a scheduler bug, so this suite runs every scenario
//! under both modes, including mid-run windows and manual stepping.

use nanowall::{ScenarioRegistry, SchedulerMode};

/// Runs `name` under one scheduler for `cycles` and returns the report.
fn run_mode(name: &str, mode: SchedulerMode, cycles: u64) -> nanowall::PlatformReport {
    let reg = ScenarioRegistry::standard();
    let mut rig = reg.build(name, true).expect("registered scenario");
    rig.platform.set_scheduler_mode(mode);
    rig.run(cycles)
}

#[test]
fn every_scenario_is_bit_identical_across_schedulers() {
    for name in ScenarioRegistry::standard().names() {
        let dense = run_mode(name, SchedulerMode::Dense, 20_000);
        let active = run_mode(name, SchedulerMode::ActiveSet, 20_000);
        assert_eq!(
            dense, active,
            "{name}: active-set scheduler diverged from the dense reference"
        );
        // Sanity: the comparison is not vacuous.
        assert!(dense.tasks_completed > 0, "{name} must do work");
    }
}

#[test]
fn windowed_runs_stay_identical() {
    // Reports taken at intermediate windows must agree too — the lazy
    // accounting settles exactly at every report boundary.
    for name in ["ipv4", "crypto"] {
        let reg = ScenarioRegistry::standard();
        let mut dense = reg.build(name, true).expect("registered");
        dense.platform.set_scheduler_mode(SchedulerMode::Dense);
        let mut active = reg.build(name, true).expect("registered");
        active.platform.set_scheduler_mode(SchedulerMode::ActiveSet);
        for window in [3_000u64, 5_000, 9_000] {
            let d = dense.run(window);
            let a = active.run(window);
            assert_eq!(d, a, "{name}: diverged in a {window}-cycle window");
        }
    }
}

#[test]
fn manual_stepping_matches_run() {
    // step() under the active-set scheduler must trace the same states as
    // the dense step; report() settles lazy accounting in both cases.
    let reg = ScenarioRegistry::standard();
    let mut dense = reg.build("modem", true).expect("registered");
    dense.platform.set_scheduler_mode(SchedulerMode::Dense);
    let mut active = reg.build("modem", true).expect("registered");
    active.platform.set_scheduler_mode(SchedulerMode::ActiveSet);
    for _ in 0..12_000 {
        dense.platform.step();
        active.platform.step();
    }
    let d = dense.platform.report(nw_types::Cycles(12_000));
    let a = active.platform.report(nw_types::Cycles(12_000));
    assert_eq!(d, a, "stepped modem rig diverged");
}

#[test]
fn large_idle_span_is_identical_and_fast_forwarded() {
    // A rig driven far below capacity spends most cycles idle — exactly the
    // case the fast-forward targets. 200k cycles of a low-rate modem rig.
    let mut dense = nanowall::scenarios::modem_rig(
        &nw_apps::ModemParams::default(),
        6,
        4,
        50,
        40.0, // 40 Mb/s: a burst only every few thousand cycles
    );
    dense.platform.set_scheduler_mode(SchedulerMode::Dense);
    let mut active =
        nanowall::scenarios::modem_rig(&nw_apps::ModemParams::default(), 6, 4, 50, 40.0);
    active.platform.set_scheduler_mode(SchedulerMode::ActiveSet);
    let d = dense.run(200_000);
    let a = active.run(200_000);
    assert_eq!(d, a, "large-idle modem run diverged");
    assert!(d.io[0].generated > 0, "the line must generate bursts");
}

#[test]
fn payload_pool_conserves_buffers_at_quiescence() {
    // Resource-hygiene half of the determinism contract (the static half is
    // nw-analyze rule RH01): every payload buffer the pool hands out —
    // request payloads padded at send, service replies — must come back
    // when its packet is consumed. Build a platform with no I/O channels so
    // a finite batch of tasks drives it fully quiescent, then check the
    // take/put ledger balances exactly, under both schedulers.
    use nanowall::prelude::*;
    use nanowall::MemoryBlockConfig;

    let run_mode = |mode: SchedulerMode| {
        let mut cfg = FppaConfig::new("pool-conservation", TopologyKind::Mesh);
        for _ in 0..4 {
            cfg.add_pe(PeConfig::new(PeClass::GpRisc, 2));
        }
        cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Sram, 2.0));
        let mut platform = FppaPlatform::new(cfg).expect("config valid");
        platform.set_scheduler_mode(mode);
        let sram = platform.memory_node(0);
        let prog = nw_pe::Program::straight_line([
            nw_pe::Op::Compute(10),
            nw_pe::Op::call(sram, 16, 48),
            nw_pe::Op::Compute(5),
            nw_pe::Op::call(sram, 8, 8),
        ]);
        for pe in 0..4 {
            while platform.pe(pe).idle_threads() > 0 {
                platform.pe_mut(pe).spawn(prog.clone()).unwrap();
            }
        }
        // A finite batch on an I/O-less platform quiesces well inside this
        // window. (The dense scheduler keeps every PE conservatively marked
        // active, so the event horizon can't certify quiescence there — a
        // fixed ample window covers both modes identically.)
        const WINDOW: u64 = 20_000;
        for _ in 0..WINDOW {
            platform.step();
        }
        if mode == SchedulerMode::ActiveSet {
            assert!(
                platform.next_event_cycle().is_none(),
                "active-set rig still holds work after the batch window"
            );
        }
        assert_eq!(
            platform.payload_outstanding(),
            0,
            "{mode:?}: payload buffers leaked (taken != returned at quiescence)"
        );
        let report = platform.report(Cycles(WINDOW));
        assert_eq!(report.tasks_completed, 8, "{mode:?}: one task per thread");
        report
    };

    let dense = run_mode(SchedulerMode::Dense);
    let active = run_mode(SchedulerMode::ActiveSet);
    assert_eq!(dense, active, "conservation rig diverged across schedulers");
}

#[test]
fn tracing_does_not_perturb_results() {
    // The observability contract: installing a trace sink changes what is
    // *recorded*, never what is *simulated*. Every registered scenario must
    // produce a bit-identical report with tracing on vs off, under both
    // schedulers — and the traced run must actually capture events, so the
    // comparison is not vacuous.
    use nanowall::RingBufferSink;
    for name in ScenarioRegistry::standard().names() {
        for mode in [SchedulerMode::Dense, SchedulerMode::ActiveSet] {
            let reg = ScenarioRegistry::standard();
            let mut plain = reg.build(name, true).expect("registered scenario");
            plain.platform.set_scheduler_mode(mode);
            let mut traced = reg.build(name, true).expect("registered scenario");
            traced.platform.set_scheduler_mode(mode);
            traced
                .platform
                .set_trace_sink(Box::new(RingBufferSink::new(1 << 14)));
            let p = plain.run(10_000);
            let t = traced.run(10_000);
            assert_eq!(p, t, "{name} under {mode:?}: tracing perturbed the run");
            let mut sink = traced.platform.take_trace_sink().expect("sink installed");
            let events = sink
                .as_any_mut()
                .downcast_mut::<RingBufferSink>()
                .expect("ring sink")
                .drain();
            assert!(
                !events.is_empty(),
                "{name} under {mode:?}: traced run captured nothing"
            );
        }
    }
}

#[test]
fn warmed_forks_anchor_to_the_original_seed_and_diverge_on_new_ones() {
    // The replica contract behind `expt t13`: one warmed-up platform fans
    // out into N measurement replicas via `fork(seed)`. Forking with the
    // *campaign's own* seed must be bit-identical to the run that was never
    // snapshotted (the reseed is a no-op at the drain boundary), while
    // distinct seeds redraw the undrained fault future and must diverge —
    // and forking must never mutate the parent.
    use nanowall::{FaultCampaign, FaultRates, RetryPolicy};

    const CAMPAIGN_SEED: u64 = 42;
    const WARM: u64 = 6_000;
    const MEASURE: u64 = 20_000;

    let arm = |platform: &mut nanowall::FppaPlatform| {
        let mut rates = FaultRates::scaled(3.0);
        rates.pe_crashes += 2;
        rates.pe_downtime = (200, 2_000);
        let shape = platform.fault_shape();
        platform.install_fault_campaign(FaultCampaign::generate(
            CAMPAIGN_SEED,
            WARM + MEASURE,
            &rates,
            &shape,
        ));
        platform.set_retry_policy(RetryPolicy::default());
    };

    for mode in [SchedulerMode::Dense, SchedulerMode::ActiveSet] {
        let reg = ScenarioRegistry::standard();

        // Never-snapshotted reference: warm, then measure.
        let mut reference = reg.build("ipv4", true).expect("registered");
        reference.platform.set_scheduler_mode(mode);
        arm(&mut reference.platform);
        let _ = reference.run(WARM);
        let want = reference.run(MEASURE);

        // Warmed parent that fans out.
        let mut parent = reg.build("ipv4", true).expect("registered");
        parent.platform.set_scheduler_mode(mode);
        arm(&mut parent.platform);
        let _ = parent.run(WARM);

        // Original-seed fork reproduces the uninterrupted run exactly.
        let mut anchor = parent.platform.fork(CAMPAIGN_SEED);
        let got = anchor.run(MEASURE);
        assert_eq!(
            got, want,
            "{mode:?}: original-seed fork diverged from the never-snapshotted run"
        );

        // Distinct seeds redraw the fault future: replicas diverge from the
        // anchor and from each other, and the same seed is reproducible.
        let mut replica_a = parent.platform.fork(1001);
        let mut replica_a2 = parent.platform.fork(1001);
        let mut replica_b = parent.platform.fork(2002);
        let rep_a = replica_a.run(MEASURE);
        let rep_a2 = replica_a2.run(MEASURE);
        let rep_b = replica_b.run(MEASURE);
        assert_eq!(rep_a, rep_a2, "{mode:?}: same-seed replicas must agree");
        assert_ne!(rep_a, want, "{mode:?}: reseeded replica failed to diverge");
        assert_ne!(
            rep_a, rep_b,
            "{mode:?}: distinct seeds produced one timeline"
        );

        // No state sharing through the PayloadPool or handler-plan cache:
        // running the forks left the parent untouched, so its own
        // continuation still matches the reference.
        let parent_tail = parent.run(MEASURE);
        assert_eq!(
            parent_tail, want,
            "{mode:?}: running forks perturbed the parent platform"
        );
    }
}

#[test]
fn mode_switch_and_snapshot_while_pes_sleep_mid_burst() {
    // Self-timed PEs sleep through compute bursts and stalls, so at almost
    // any cycle of a loaded rig some PE's state lags the clock. Switching
    // scheduler or checkpointing right then must not matter: the next tick
    // (under either mode, on the original or a restored copy) first
    // catches the PE up, and the wake table travels with the snapshot.
    use nanowall::FppaPlatform;
    use nw_types::Cycles;

    const TAIL: u64 = 6_000;

    /// Steps until some live PE slept through the cycle just stepped.
    fn step_until_a_live_pe_sleeps(p: &mut FppaPlatform) {
        let n = p.config().pes.len();
        for _ in 0..10_000 {
            let before = p.scheduler_stats().pe_ticks;
            p.step();
            let ticked = p.scheduler_stats().pe_ticks - before;
            let live = (0..n).filter(|&i| p.pe(i).is_live()).count() as u64;
            if ticked < live {
                return;
            }
        }
        panic!("no live PE ever slept: the case is vacuous");
    }

    for name in ["ipv4", "mix"] {
        for warm in [1_500u64, 4_000] {
            let reg = ScenarioRegistry::standard();
            let mut rig = reg.build(name, true).expect("registered");
            rig.platform.set_scheduler_mode(SchedulerMode::ActiveSet);
            let _ = rig.run(warm);
            step_until_a_live_pe_sleeps(&mut rig.platform);
            let cut = rig.platform.now().0;
            let snap = rig.platform.snapshot();

            // References: never switched, never snapshotted.
            let want = {
                let mut r = reg.build(name, true).expect("registered");
                r.platform.set_scheduler_mode(SchedulerMode::ActiveSet);
                let _ = r.run(cut + TAIL);
                r.platform.report(Cycles(TAIL))
            };
            let dense = {
                let mut r = reg.build(name, true).expect("registered");
                r.platform.set_scheduler_mode(SchedulerMode::Dense);
                let _ = r.run(cut + TAIL);
                r.platform.report(Cycles(TAIL))
            };
            assert_eq!(want, dense, "{name}@{cut}: references disagree");

            // A copy rebuilt from the checkpoint, left on the active set.
            let mut copy = FppaPlatform::from_snapshot(&snap);
            let _ = copy.run(TAIL);
            assert_eq!(
                copy.report(Cycles(TAIL)),
                want,
                "{name}@{cut}: snapshot taken mid-burst diverged"
            );

            // The original: to dense mid-burst, and back mid-tail.
            let p = &mut rig.platform;
            p.set_scheduler_mode(SchedulerMode::Dense);
            for _ in 0..TAIL / 3 {
                p.step();
            }
            p.set_scheduler_mode(SchedulerMode::ActiveSet);
            let _ = p.run(TAIL - TAIL / 3);
            assert_eq!(
                p.report(Cycles(TAIL)),
                want,
                "{name}@{cut}: mode switch mid-burst diverged"
            );

            // Rewind the (now far ahead) original in place, under dense.
            p.set_scheduler_mode(SchedulerMode::Dense);
            p.restore(&snap);
            assert_eq!(p.now().0, cut);
            p.set_scheduler_mode(SchedulerMode::Dense);
            let _ = p.run(TAIL);
            assert_eq!(
                p.report(Cycles(TAIL)),
                want,
                "{name}@{cut}: restore + dense tail diverged"
            );
        }
    }
}

#[test]
fn snapshot_and_fork_with_arrivals_in_ring_and_overflow() {
    // The NoC's in-flight transfers live in a calendar queue: arrivals due
    // within its 256-cycle window sit in ring buckets, later ones in an
    // overflow heap. A checkpoint taken while both hold arrivals must carry
    // both: 4 KiB requests serialize for 513 cycles (overflow), the small
    // calls around them for a few (ring). The cut is read off a traced
    // probe run, so the case cannot go vacuous silently.
    use nanowall::prelude::*;
    use nanowall::{MemoryBlockConfig, RingBufferSink, TraceEvent};

    const QUEUE_WINDOW: u64 = 256;
    const TAIL: u64 = 5_000;

    let build = || {
        let mut cfg = FppaConfig::new("jumbo-in-flight", TopologyKind::Mesh);
        for _ in 0..4 {
            cfg.add_pe(PeConfig::new(PeClass::GpRisc, 2));
        }
        cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Sram, 2.0));
        let mut platform = FppaPlatform::new(cfg).expect("config valid");
        let sram = platform.memory_node(0);
        for pe in 0..4 {
            let (request, calls) = if pe < 2 { (4096, 4) } else { (16, 120) };
            let ops = (0..calls).flat_map(|i| {
                [
                    nw_pe::Op::Compute(3 + 2 * pe as u64 + i % 5),
                    nw_pe::Op::call(sram, request, 8),
                ]
            });
            let prog = nw_pe::Program::straight_line(ops);
            while platform.pe(pe).idle_threads() > 0 {
                platform.pe_mut(pe).spawn(prog.clone()).unwrap();
            }
        }
        platform
    };

    // Probe: find a cycle with a jumbo and a short transfer both in flight.
    let mut probe = build();
    probe.set_trace_sink(Box::new(RingBufferSink::new(1 << 16)));
    let _ = probe.run(3_000);
    let mut sink = probe.take_trace_sink().expect("sink installed");
    let transfers: Vec<(u64, u64)> = sink
        .as_any_mut()
        .downcast_mut::<RingBufferSink>()
        .expect("ring sink")
        .drain()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::LinkTransfer { cycle, ser, .. } => Some((cycle, ser)),
            _ => None,
        })
        .collect();
    // A transfer fired at `cycle` arrives after `ser` cycles and more; one
    // with `ser >= QUEUE_WINDOW` was scheduled beyond the window.
    let in_flight = |at: u64, jumbo: bool| {
        transfers
            .iter()
            .any(|&(cycle, ser)| (ser >= QUEUE_WINDOW) == jumbo && cycle < at && at <= cycle + ser)
    };
    let cuts: Vec<u64> = (1..3_000)
        .filter(|&c| in_flight(c, true) && in_flight(c, false))
        .step_by(97)
        .take(4)
        .collect();
    assert_eq!(cuts.len(), 4, "jumbo and short transfers overlap in flight");

    for cut in cuts {
        for mode in [SchedulerMode::ActiveSet, SchedulerMode::Dense] {
            let want = {
                let mut p = build();
                p.set_scheduler_mode(mode);
                let _ = p.run(cut + TAIL);
                p.report(Cycles(TAIL))
            };
            let mut p = build();
            p.set_scheduler_mode(mode);
            let _ = p.run(cut);
            let noc = p.scheduler_stats().noc;
            assert!(noc.fires >= noc.arrivals + 2, "{cut}: transfers in flight");
            let snap = p.snapshot();
            let mut fork = p.fork(7);
            let mut copy = FppaPlatform::from_snapshot(&snap);
            for (what, platform) in [
                ("fork", &mut fork),
                ("copy", &mut copy),
                ("original", &mut p),
            ] {
                let _ = platform.run(TAIL);
                assert_eq!(
                    platform.report(Cycles(TAIL)),
                    want,
                    "{mode:?}@{cut}: {what} diverged from the uninterrupted run"
                );
            }
            p.restore(&snap);
            let _ = p.run(TAIL);
            assert_eq!(
                p.report(Cycles(TAIL)),
                want,
                "{mode:?}@{cut}: restore diverged"
            );
        }
    }
}

#[test]
fn scheduler_stats_repeat_and_pes_sleep_through_most_cycles() {
    // The work counters are a pure function of configuration and mode:
    // two runs agree exactly. And on the saturated IPv4 rig the self-timed
    // PEs tick on fewer than a quarter of the cycles the working PEs are
    // stepped through.
    let run = |mode| {
        let reg = ScenarioRegistry::standard();
        let mut rig = reg.build("ipv4", true).expect("registered");
        rig.platform.set_scheduler_mode(mode);
        let _ = rig.run(30_000);
        let p = &rig.platform;
        let n = p.config().pes.len();
        let working = (0..n).filter(|&i| p.pe(i).tasks_completed() > 0).count();
        (p.scheduler_stats(), n as u64, working as u64)
    };
    let (active, n_pes, working) = run(SchedulerMode::ActiveSet);
    assert_eq!(
        active,
        run(SchedulerMode::ActiveSet).0,
        "counts must repeat"
    );
    assert_eq!(active.cycles_stepped + active.cycles_hopped, 30_000);
    assert!(active.pe_external_wakes > 0);
    // Every stepped cycle either ticks the NoC or skips it; a fire is one
    // packet-hop and an arrival its other end.
    let noc = active.noc;
    assert_eq!(noc.ticks + active.noc_ticks_skipped, active.cycles_stepped);
    assert!(active.noc_ticks_skipped > 0, "a loaded fabric still stalls");
    assert!(noc.fires > 0 && noc.arrivals <= noc.fires);
    assert!(noc.router_visits > 0 && noc.wakes_scheduled > 0);

    assert!(working > 0);
    assert!(
        active.pe_ticks * 4 < working * active.cycles_stepped,
        "{} PE ticks over {} stepped cycles x {working} working PEs",
        active.pe_ticks,
        active.cycles_stepped
    );

    // A hop skips at least one cycle, and only some hops end on an arrival.
    assert!(active.hops > 0 && active.hops <= active.cycles_hopped);
    assert!(active.hops_ended_by_io <= active.hops);

    let (dense, _, _) = run(SchedulerMode::Dense);
    assert_eq!(dense.cycles_stepped, 30_000);
    assert_eq!(dense.cycles_hopped, 0);
    assert_eq!((dense.hops, dense.hops_ended_by_io), (0, 0));
    assert_eq!((dense.noc.ticks, dense.noc_ticks_skipped), (30_000, 0));
    // Same simulation, same packet-hops; only the scheduling work differs.
    assert_eq!(
        (dense.noc.fires, dense.noc.arrivals),
        (noc.fires, noc.arrivals)
    );
    assert_eq!(
        dense.pe_ticks,
        30_000 * n_pes,
        "dense ticks every PE every cycle"
    );
}

#[test]
fn next_event_cycle_never_overshoots() {
    // On an idle platform the platform-wide next event equals the earliest
    // component event; stepping to it must observe a state change while
    // every skipped cycle was provably a no-op (verified by the identical
    // reports above — here we check the bound itself on a quiet rig).
    let reg = ScenarioRegistry::standard();
    let mut rig = reg.build("crypto", true).expect("registered");
    rig.platform.set_scheduler_mode(SchedulerMode::ActiveSet);
    rig.run(2_000);
    if let Some(t) = rig.platform.next_event_cycle() {
        assert!(
            t >= rig.platform.now(),
            "next event {t} is in the past (now {})",
            rig.platform.now()
        );
    }
}

/// A small rig for the pacing cases: ping → pong on four RISC cores, ping
/// fed by channel 0 (40-byte packets at `bound_mbps`, at 40 Mb/s one every
/// 4000 cycles: long quiet gaps) and pong handing off to it; channel 1 is
/// bound to nothing and runs at 2.5 Gb/s into a FIFO of 8, so it fills in
/// the first 512 cycles and overflows from then on, hop or no hop.
fn paced_rig(mode: SchedulerMode, bound_mbps: f64) -> nanowall::FppaPlatform {
    use nanowall::prelude::*;
    use nw_types::BitsPerSec;

    let mut cfg = FppaConfig::new("paced", TopologyKind::Mesh);
    for _ in 0..4 {
        cfg.add_pe(PeConfig::new(PeClass::GpRisc, 2));
    }
    cfg.add_io(IoChannelConfig {
        rate: BitsPerSec::from_mbps(bound_mbps),
        ..IoChannelConfig::ten_gbe_worst_case()
    });
    cfg.add_io(IoChannelConfig {
        rate: BitsPerSec::from_gbps(2.5),
        rx_fifo: 8,
        ..IoChannelConfig::ten_gbe_worst_case()
    });
    let mut b = Application::builder("pingpong");
    let ping = b.add_object(
        ObjectDef::new("ping").with_method(MethodDef::oneway("go", 16).with_compute(50)),
    );
    let pong = b.add_object(
        ObjectDef::new("pong").with_method(MethodDef::oneway("ack", 16).with_compute(50)),
    );
    b.connect(ping, 0, pong, 0, 1.0);
    b.entry(ping, 0);
    let app = b.build().expect("valid test app");
    let mut platform = FppaPlatform::new(cfg).expect("config valid");
    platform.set_scheduler_mode(mode);
    platform
        .install_app(&app, &[0, 3])
        .expect("placement valid");
    platform.bind_io_entry(0, ping).expect("ping is an entry");
    platform.bind_egress(pong, 0, 40).expect("channel 0 exists");
    platform
}

/// Everything the two schedulers must agree on: the report of the last
/// `window` cycles and the full pacer/FIFO/counter state of both channels.
fn paced_state(p: &mut nanowall::FppaPlatform, window: u64) -> (nanowall::PlatformReport, String) {
    let report = p.report(nw_types::Cycles(window));
    (report, format!("{:?} {:?}", p.io(0), p.io(1)))
}

#[test]
fn unbound_channel_overflows_inside_hops_identically() {
    let mut dense = paced_rig(SchedulerMode::Dense, 40.0);
    let mut active = paced_rig(SchedulerMode::ActiveSet, 40.0);

    // Before the first bound arrival (cycle 3999) the platform is quiet:
    // the active set steps cycle 0 and hops the rest, while the unbound
    // channel receives 46 packets into its FIFO of 8.
    let _ = dense.run(3_000);
    let _ = active.run(3_000);
    let early = active.scheduler_stats();
    assert_eq!((early.cycles_stepped, early.cycles_hopped), (1, 2_999));
    assert_eq!(active.io(1).rx_backlog(), 8);
    assert_eq!(active.io(1).dropped(), 38, "the FIFO overflowed mid-hop");
    assert_eq!(
        paced_state(&mut dense, 3_000),
        paced_state(&mut active, 3_000)
    );

    let _ = dense.run(97_000);
    let _ = active.run(97_000);
    let (report, io) = paced_state(&mut active, 97_000);
    assert_eq!((report.clone(), io), paced_state(&mut dense, 97_000));
    assert!(report.io[0].generated >= 24 && report.io[0].transmitted >= 23);
    let stats = active.scheduler_stats();
    assert!(stats.cycles_hopped > 90_000, "{stats:?}");
    // Every bound arrival ends a hop; the others end on PE and NoC events.
    assert!(stats.hops_ended_by_io >= 24 && stats.hops > stats.hops_ended_by_io);
}

#[test]
fn a_hop_lands_on_the_arrival_cycle_and_not_one_beyond() {
    // The n-th coming tick emits, so the arrival cycle is n - 1 and the
    // last cycle a hop may skip is n - 2. Runs that end one cycle before
    // the arrival, on it and one after must all leave the dense state.
    let arrival = paced_rig(SchedulerMode::ActiveSet, 40.0)
        .io(0)
        .ticks_to_next_rx()
        - 1;
    assert_eq!(arrival, 3_999);
    for end in [arrival - 1, arrival, arrival + 1] {
        let mut dense = paced_rig(SchedulerMode::Dense, 40.0);
        let mut active = paced_rig(SchedulerMode::ActiveSet, 40.0);
        let _ = dense.run(end);
        let _ = active.run(end);
        assert_eq!(
            paced_state(&mut dense, end),
            paced_state(&mut active, end),
            "run to {end}"
        );
        let stats = active.scheduler_stats();
        assert_eq!(stats.cycles_stepped + stats.cycles_hopped, end);
        // The packet appears in the tick of the arrival cycle, which is
        // stepped: a run that stops on that cycle has not seen it yet.
        assert_eq!(
            active.io(0).generated(),
            u64::from(end > arrival),
            "run to {end}"
        );
        assert_eq!(
            stats.cycles_stepped,
            1 + end.saturating_sub(arrival),
            "run to {end}"
        );
        // A target that is both the end of the run and the arrival cycle
        // counts as ended by I/O (ties are included).
        assert_eq!(
            stats.hops_ended_by_io,
            u64::from(end >= arrival),
            "run to {end}"
        );
        // And the tails agree, whichever side of the arrival the cut fell.
        let _ = dense.run(5_000);
        let _ = active.run(5_000);
        assert_eq!(
            paced_state(&mut dense, 5_000),
            paced_state(&mut active, 5_000),
            "tail of {end}"
        );
    }
}

#[test]
fn retuned_io_rates_pace_identically_from_the_retune_cycle() {
    use nw_types::BitsPerSec;
    let mut dense = paced_rig(SchedulerMode::Dense, 40.0);
    let mut active = paced_rig(SchedulerMode::ActiveSet, 40.0);
    // Mid-gap retunes: up 30x, to a rate that divides nothing, to zero
    // (the wire goes dead, credit kept), and back.
    for (i, mbps) in [1_200.0, 333.3, 0.0, 40.0].into_iter().enumerate() {
        let _ = dense.run(6_100);
        let _ = active.run(6_100);
        assert_eq!(
            paced_state(&mut dense, 6_100),
            paced_state(&mut active, 6_100),
            "leg {i}"
        );
        for p in [&mut dense, &mut active] {
            p.set_io_rate(0, BitsPerSec::from_mbps(mbps))
                .expect("valid rate");
            p.set_io_rate(1, BitsPerSec::from_mbps(7.0 * mbps))
                .expect("valid rate");
        }
    }
    let _ = dense.run(20_000);
    let _ = active.run(20_000);
    let (report, io) = paced_state(&mut active, 20_000);
    assert_eq!((report.clone(), io), paced_state(&mut dense, 20_000));
    assert!(report.io[0].generated > 0);
    assert!(active.scheduler_stats().cycles_hopped > 20_000);
    assert!(active.set_io_rate(0, BitsPerSec(f64::NAN)).is_err());
}

#[test]
fn checkpoints_inside_a_quiet_gap_carry_the_pacing_credit() {
    use nanowall::FppaPlatform;
    const CUT: u64 = 6_000; // between the arrivals of cycles 3999 and 7999
    const TAIL: u64 = 30_000;
    let want = {
        let mut p = paced_rig(SchedulerMode::Dense, 40.0);
        let _ = p.run(CUT + TAIL);
        paced_state(&mut p, TAIL)
    };
    for mode in [SchedulerMode::ActiveSet, SchedulerMode::Dense] {
        let mut p = paced_rig(mode, 40.0);
        let _ = p.run(CUT);
        if mode == SchedulerMode::ActiveSet {
            // The cut is mid-gap: the next 1000 cycles are one hop.
            let mut probe = p.fork(0);
            let _ = probe.run(1_000);
            assert_eq!(
                probe.scheduler_stats().cycles_stepped,
                p.scheduler_stats().cycles_stepped
            );
        }
        let snap = p.snapshot();
        let mut fork = p.fork(7);
        let mut copy = FppaPlatform::from_snapshot(&snap);
        for (what, platform) in [
            ("fork", &mut fork),
            ("copy", &mut copy),
            ("original", &mut p),
        ] {
            let _ = platform.run(TAIL);
            assert_eq!(
                paced_state(platform, TAIL),
                want,
                "{mode:?}: {what} diverged"
            );
        }
        p.restore(&snap);
        let _ = p.run(TAIL);
        assert_eq!(
            paced_state(&mut p, TAIL),
            want,
            "{mode:?}: restore diverged"
        );
    }
}

#[test]
fn driven_rigs_hop_between_invocations() {
    // Entry drives used to veto every hop; now a drive posts its next
    // invocation like any other timed source.
    use nanowall::prelude::*;
    let build = |mode| {
        let mut p = paced_rig(mode, 0.0);
        p.set_io_rate(1, nw_types::BitsPerSec(0.0))
            .expect("zero is a valid rate");
        let ping = p.runtime().expect("app installed").app().entries()[0].0;
        p.drive_entry(ping, 0.01); // a tie every 100 cycles (rounded up)
        p.drive_entry(ping, 0.003); // no tie
        (p, ping)
    };
    let run = |mode| {
        let (mut p, ping) = build(mode);
        let report = p.run(60_000);
        let pings = p.runtime().expect("app installed").object_dispatches()[ping.0];
        (report, p.scheduler_stats(), pings)
    };
    let (dense, _, _) = run(SchedulerMode::Dense);
    let (active, stats, pings) = run(SchedulerMode::ActiveSet);
    assert_eq!(dense, active, "driven rig diverged across schedulers");
    // floor(60000 * round(rate * 2^32) / 2^32) per drive, exactly.
    assert_eq!(pings, 600 + 180);
    assert!(active.tasks_completed > 1_500);
    assert!(stats.cycles_hopped > 30_000, "{stats:?}");
    assert!(stats.hops_ended_by_io >= 700, "{stats:?}");

    // With everything else drained, the next drive invocation is the
    // platform's next event: the 100th tick, in cycle 99.
    let (mut p, _) = build(SchedulerMode::ActiveSet);
    let _ = p.run(50);
    assert_eq!(p.next_event_cycle(), Some(Cycles(99)));
}
