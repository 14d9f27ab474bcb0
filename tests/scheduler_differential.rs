//! Scheduler differential suite: the active-set event-driven scheduler must
//! be **bit-identical** to the dense reference scheduler on every registered
//! scenario — same `PlatformReport` down to the last f64 bit, same NoC
//! histogram buckets, same energy.
//!
//! Both run the same step function. The dense path enters every phase on
//! every cycle; the active-set path reads the platform agenda, hops to its
//! earliest entry and enters only the phases that are due — PEs sleep
//! through bursts, stalls and dormancy, I/O channels are paced lazily in
//! closed form, service nodes are ticked on the cycles they answer. Any
//! divergence between the two is a scheduler bug. The registry-wide
//! end-of-run comparison (every scenario, with and without faults, traced
//! and untraced, through snapshots) is `expt parity`'s matrix
//! (`nw_bench::parity`); this suite holds what a matrix of whole runs does
//! not reach: mid-run windows, manual stepping, checkpoints taken inside a
//! hop span, exact work counters and purpose-built rigs. In debug builds
//! every step and hop of these runs also audits the agenda against a walk
//! over the state (no entry late).

use nanowall::{ScenarioRegistry, SchedulerMode};

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
fn a_finite_batch_ends_quiescent_under_both_schedulers() {
    // Resource-hygiene half of the determinism contract: every request a
    // thread sends is answered and every thread retires. Build a platform
    // with no I/O channels so a finite batch of tasks drives it fully
    // quiescent — no packet in the NoC, every thread idle, no call tracked
    // — under both schedulers.
    use nanowall::prelude::*;
    use nanowall::MemoryBlockConfig;

    let run_mode = |mode: SchedulerMode| {
        let mut cfg = FppaConfig::new("batch-quiescence", TopologyKind::Mesh);
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
        assert!(
            platform.is_quiescent(),
            "{mode:?}: work left in flight after the batch"
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

        // No state sharing through the handler table:
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
    use nanowall::{MemoryBlockConfig, TraceEvent};

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
    let transfers: Vec<(u64, u64)> = traced_run(&mut build(), 3_000)
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
    // The wheel holds future cycles only: a push or credit free inside a
    // tick marks that tick's worklist, so a router costs a wheel entry when
    // it must wait out a busy port, not once per packet it forwards.
    assert!(
        noc.wakes_scheduled < noc.fires,
        "{} wakes entered for {} fires",
        noc.wakes_scheduled,
        noc.fires
    );

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

    // A stepped cycle enters only the phases that are due: the NoC phase
    // is its ticks, no phase runs more than once a cycle, the rig has no
    // service node, and most phases are skipped most of the time.
    let entered = active.phases_entered;
    assert_eq!(entered[nanowall::HostPhase::NocTick as usize], noc.ticks);
    assert_eq!(entered[nanowall::HostPhase::Services as usize], 0);
    assert!(entered.iter().all(|&n| n <= active.cycles_stepped));
    assert!(entered.iter().sum::<u64>() < 4 * active.cycles_stepped);

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
    assert_eq!(dense.phases_entered, [30_000; 7], "and enters every phase");
}

/// What a ping costs on the ping → pong rig, and how it gets there.
#[derive(Clone, Copy)]
struct Ping {
    /// Argument bytes of the marshalled invocation.
    arg_bytes: u64,
    /// Compute cycles of the handler.
    compute: u64,
    /// Bytes fetched from an SRAM before computing (0: no memory node).
    fetch_bytes: u64,
    /// Depth of every NI injection queue.
    ni_capacity: usize,
}

/// A small rig for the pacing cases: ping → pong on four RISC cores, ping
/// fed by channel 0 (a 40-byte packet every `bound_period` cycles; at 4000
/// there are long quiet gaps) and pong handing off to it; channel 1 is
/// bound to nothing and delivers a packet every 64 cycles into a FIFO of
/// 8, so it fills in the first 512 cycles and overflows from then on, hop
/// or no hop.
fn pingpong_rig(mode: SchedulerMode, bound_period: f64, ping_cost: Ping) -> nanowall::FppaPlatform {
    use nanowall::prelude::*;
    use nanowall::MemoryBlockConfig;
    use nw_types::BitsPerSec;

    let mut cfg = FppaConfig::new("paced", TopologyKind::Mesh);
    cfg.noc.ni_capacity = ping_cost.ni_capacity;
    for _ in 0..4 {
        cfg.add_pe(PeConfig::new(PeClass::GpRisc, 2));
    }
    if ping_cost.fetch_bytes > 0 {
        cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Sram, 2.0));
    }
    // A 40-byte packet every `period` cycles of the platform clock.
    let clock_hz = cfg.tech.nominal_clock_hz();
    let every = |period: f64| BitsPerSec(40.0 * 8.0 * clock_hz / period);
    cfg.add_io(IoChannelConfig {
        rate: every(bound_period),
        ..IoChannelConfig::ten_gbe_worst_case()
    });
    cfg.add_io(IoChannelConfig {
        rate: every(64.0),
        rx_fifo: 8,
        ..IoChannelConfig::ten_gbe_worst_case()
    });
    let mut b = Application::builder("pingpong");
    let go = MethodDef::oneway("go", ping_cost.arg_bytes).with_compute(ping_cost.compute);
    let ping = b.add_object(ObjectDef::new("ping").with_method(go));
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
    if ping_cost.fetch_bytes > 0 {
        let sram = platform.memory_node(0);
        platform
            .bind_service(ping, sram, 16, ping_cost.fetch_bytes, 1)
            .expect("the SRAM is a service node");
    }
    platform
}

/// [`pingpong_rig`] with a cheap ping: 16 bytes, 50 cycles, no fetch.
fn paced_rig(mode: SchedulerMode, bound_period: f64) -> nanowall::FppaPlatform {
    let cheap = Ping {
        arg_bytes: 16,
        compute: 50,
        fetch_bytes: 0,
        ni_capacity: 64,
    };
    pingpong_rig(mode, bound_period, cheap)
}

/// Everything the two schedulers must agree on: the report of the last
/// `window` cycles and the full pacer/FIFO/counter state of both channels.
fn paced_state(p: &mut nanowall::FppaPlatform, window: u64) -> (nanowall::PlatformReport, String) {
    let report = p.report(nw_types::Cycles(window));
    (report, format!("{:?} {:?}", p.io(0), p.io(1)))
}

/// Runs `p` for `cycles` under a ring sink that holds the whole run and
/// returns what the sink saw.
fn traced_run(p: &mut nanowall::FppaPlatform, cycles: u64) -> Vec<nanowall::TraceEvent> {
    use nanowall::RingBufferSink;
    p.set_trace_sink(Box::new(RingBufferSink::new(1 << 20)));
    let _ = p.run(cycles);
    let mut sink = p.take_trace_sink().expect("sink installed");
    let ring = sink
        .as_any_mut()
        .downcast_mut::<RingBufferSink>()
        .expect("ring sink");
    assert_eq!(ring.dropped(), 0, "the ring holds the whole run");
    ring.drain()
}

#[test]
fn unbound_channel_overflows_inside_hops_identically() {
    let mut dense = paced_rig(SchedulerMode::Dense, 4_000.0);
    let mut active = paced_rig(SchedulerMode::ActiveSet, 4_000.0);

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
    let arrival = paced_rig(SchedulerMode::ActiveSet, 4_000.0)
        .io(0)
        .ticks_to_next_rx()
        - 1;
    assert_eq!(arrival, 3_999);
    for end in [arrival - 1, arrival, arrival + 1] {
        let mut dense = paced_rig(SchedulerMode::Dense, 4_000.0);
        let mut active = paced_rig(SchedulerMode::ActiveSet, 4_000.0);
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
fn checkpoints_inside_a_quiet_gap_carry_the_pacing_credit() {
    use nanowall::FppaPlatform;
    const CUT: u64 = 6_000; // between the arrivals of cycles 3999 and 7999
    const TAIL: u64 = 30_000;
    let want = {
        let mut p = paced_rig(SchedulerMode::Dense, 4_000.0);
        let _ = p.run(CUT + TAIL);
        paced_state(&mut p, TAIL)
    };
    for mode in [SchedulerMode::ActiveSet, SchedulerMode::Dense] {
        let mut p = paced_rig(mode, 4_000.0);
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

/// [`pingpong_rig`] under load: ping is dear — a 2 KiB fetch from an SRAM
/// (258 cycles of bank time, 256 flits of reply), then 300 cycles on one
/// of two hardware threads — and channel 0 feeds it `arg_bytes` messages,
/// one every `bound_period` cycles, through an NI of `ni_capacity` packets.
fn loaded_rig(
    mode: SchedulerMode,
    bound_period: f64,
    ni_capacity: usize,
    arg_bytes: u64,
) -> nanowall::FppaPlatform {
    let dear = Ping {
        arg_bytes,
        compute: 300,
        fetch_bytes: 2_048,
        ni_capacity,
    };
    pingpong_rig(mode, bound_period, dear)
}

#[test]
fn an_overloaded_rig_hops_and_dispatches_the_cycle_after_a_retire() {
    // A 40-byte packet every 160 cycles, each a ping, against some
    // 800 cycles of fetch and compute each. Invocations pile up behind the
    // two busy threads. A waiting queue used to veto every hop ("dispatch has
    // work"); now the dispatcher is due only when a thread is free, so
    // the platform hops through the compute bursts and memory accesses
    // and steps the cycle after each retirement.
    use nanowall::TraceEvent;
    const WINDOW: u64 = 40_000;
    let run = |mode| {
        let mut p = loaded_rig(mode, 160.0, 64, 16);
        // (cycle, pe, started) of every handler start and retirement.
        let handlers: Vec<(u64, usize, bool)> = traced_run(&mut p, WINDOW)
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::HandlerStart { cycle, pe, .. } => Some((cycle, pe, true)),
                TraceEvent::HandlerEnd { cycle, pe, .. } => Some((cycle, pe, false)),
                _ => None,
            })
            .collect();
        let state = paced_state(&mut p, WINDOW);
        (state, handlers, p.scheduler_stats())
    };
    let (dense, dense_handlers, _) = run(SchedulerMode::Dense);
    let (active, handlers, stats) = run(SchedulerMode::ActiveSet);
    assert_eq!(dense, active, "overloaded rig diverged across schedulers");
    assert_eq!(
        dense_handlers, handlers,
        "handlers started or retired elsewhere"
    );
    assert_eq!(stats, run(SchedulerMode::ActiveSet).2, "counts must repeat");

    let queued = active.0.queued_invocations;
    assert!(queued > 50, "{queued} queued: two threads must not keep up");
    assert!(
        stats.cycles_hopped > WINDOW / 4,
        "a waiting queue must not veto the hops: {stats:?}"
    );
    // Once the queue stands, every retirement on ping's PE frees a thread
    // that is refilled on the very next cycle.
    let retired: Vec<u64> = handlers
        .iter()
        .filter(|&&(cycle, pe, started)| !started && pe == 0 && cycle > 5_000)
        .map(|&(cycle, _, _)| cycle)
        .collect();
    assert!(retired.len() > 30, "{} pings retired", retired.len());
    for cycle in retired {
        assert!(
            handlers.contains(&(cycle + 1, 0, true)),
            "a thread freed at {cycle} was not refilled at {}",
            cycle + 1
        );
    }
}

#[test]
fn a_memory_access_in_flight_across_a_hop_completes_on_its_cycle() {
    // One thread fetches 4 KiB from the SRAM: 514 cycles of bank time with
    // nothing else to do. A busy memory used to veto every hop; now it
    // posts its completion cycle and the platform hops there.
    use nanowall::prelude::*;
    use nanowall::MemoryBlockConfig;
    let build = |mode| {
        let mut cfg = FppaConfig::new("one-fetch", TopologyKind::Mesh);
        for _ in 0..2 {
            cfg.add_pe(PeConfig::new(PeClass::GpRisc, 1));
        }
        cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Sram, 2.0));
        let mut p = FppaPlatform::new(cfg).expect("config valid");
        p.set_scheduler_mode(mode);
        let sram = p.memory_node(0);
        let prog = nw_pe::Program::straight_line([
            nw_pe::Op::Compute(20),
            nw_pe::Op::call(sram, 16, 4_096),
            nw_pe::Op::Compute(5),
        ]);
        p.pe_mut(0).spawn(prog).expect("an idle thread");
        p
    };
    // The cycle whose services phase surfaces the completion.
    let completion = {
        let mut p = build(SchedulerMode::Dense);
        while p.report(Cycles(1)).mem_accesses == 0 {
            p.step();
            assert!(p.now().0 < 2_000, "the access never completed");
        }
        p.now().0 - 1
    };
    assert!(completion > 514);
    // Runs whose last cycle is the one before, the one of and the one
    // after the completion.
    for end in [completion, completion + 1, completion + 2] {
        let mut dense = build(SchedulerMode::Dense);
        let mut active = build(SchedulerMode::ActiveSet);
        let d = dense.run(end);
        let a = active.run(end);
        assert_eq!(d, a, "run of {end}");
        assert_eq!(a.mem_accesses, u64::from(end > completion), "run of {end}");
        let stats = active.scheduler_stats();
        assert_eq!(stats.cycles_stepped + stats.cycles_hopped, end);
        assert!(stats.cycles_hopped > 500, "run of {end}: {stats:?}");
        let services = stats.phases_entered[nanowall::HostPhase::Services as usize];
        assert_eq!(services, 1 + u64::from(end > completion), "run of {end}");
        assert_eq!(dense.run(3_000), active.run(3_000), "tail of {end}");
        assert_eq!(active.next_event_cycle(), None, "tail of {end}: drained");
    }
}

#[test]
fn a_bound_channel_backs_up_behind_a_full_ni_identically() {
    // A packet every 16 cycles, each becoming a 1 KiB message (130 flits)
    // through an NI of two: the NI is full almost always, the RX FIFO
    // backs up behind it, overflows, and drops at line rate. While the
    // backlog waits the I/O phase is due every cycle; it must drain into
    // the NI on exactly the cycles the dense scheduler does.
    let mut dense = loaded_rig(SchedulerMode::Dense, 16.0, 2, 1_024);
    let mut active = loaded_rig(SchedulerMode::ActiveSet, 16.0, 2, 1_024);
    for window in [1_000u64, 7_000, 12_000] {
        let _ = dense.run(window);
        let _ = active.run(window);
        assert_eq!(
            paced_state(&mut dense, window),
            paced_state(&mut active, window),
            "window of {window}"
        );
    }
    assert_eq!(active.io(0).rx_backlog(), 128, "the FIFO stands full");
    assert!(active.io(0).dropped() > 500);
    let next = active.next_event_cycle().expect("a backlog is waiting");
    assert_eq!(next, active.now(), "the backlog is due now");
}

#[test]
fn checkpoints_inside_a_hop_span_with_a_memory_busy_and_invocations_queued() {
    // The agenda's cached entries are simulation state: they must travel
    // with snapshot, fork and restore, and survive every between-runs
    // mutator — taken at the worst moment, inside a span the run loop
    // would hop, with the SRAM mid-access and pings waiting for a thread.
    use nanowall::{FppaPlatform, TraceEvent};
    use nw_types::Cycles;
    const TAIL: u64 = 8_000;
    let build = |mode| loaded_rig(mode, 160.0, 64, 16);

    // Requests reach the SRAM on these cycles (probe run); each keeps a
    // bank busy for the 258 cycles that follow.
    let mut probe = build(SchedulerMode::ActiveSet);
    let sram = probe.memory_node(0).0;
    let requests = traced_run(&mut probe, 12_000)
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::FlitDeliver { cycle, dst, .. } if dst == sram && cycle > 4_000 => {
                Some(cycle)
            }
            _ => None,
        });
    let cuts: Vec<u64> = requests
        .flat_map(|cycle| [cycle + 30, cycle + 120, cycle + 200])
        .filter(|&cut| {
            let mut p = build(SchedulerMode::ActiveSet);
            let _ = p.run(cut);
            let queued = p.runtime().expect("app installed").queued_invocations();
            queued > 2 && p.next_event_cycle().is_some_and(|t| t > p.now())
        })
        .step_by(5)
        .take(3)
        .collect();
    assert_eq!(
        cuts.len(),
        3,
        "cuts inside a hop span, memory busy, pings queued"
    );

    for cut in cuts {
        let want = {
            let mut p = build(SchedulerMode::Dense);
            let _ = p.run(cut + TAIL);
            paced_state(&mut p, TAIL)
        };
        let mut p = build(SchedulerMode::ActiveSet);
        let _ = p.run(cut);
        let at_cut = p.scheduler_stats();
        let snap = p.snapshot();
        let copy = || FppaPlatform::from_snapshot(&snap);

        // The first lap of a fork is the hop the parent would have made.
        let mut fork = p.fork(7);
        let _ = fork.run(1);
        assert_eq!(fork.scheduler_stats().cycles_stepped, at_cut.cycles_stepped);
        assert_eq!(fork.scheduler_stats().hops, at_cut.hops + 1);

        let mut switched = copy();
        switched.set_scheduler_mode(SchedulerMode::Dense);
        switched.set_scheduler_mode(SchedulerMode::ActiveSet);
        let mut touched = copy();
        let _ = touched.pe_mut(2); // hosts nothing: woken, ticked, dormant again
        let mut rest = fork.fork(8);
        for (what, platform, left) in [
            ("fork", &mut rest, TAIL - 1),
            ("copy", &mut copy(), TAIL),
            ("mode switch", &mut switched, TAIL),
            ("pe_mut", &mut touched, TAIL),
            ("original", &mut p, TAIL),
        ] {
            let _ = platform.run(left);
            assert_eq!(paced_state(platform, TAIL), want, "{cut}: {what} diverged");
        }
        p.restore(&snap);
        assert_eq!(p.now().0, cut);
        let _ = p.run(TAIL);
        assert_eq!(paced_state(&mut p, TAIL), want, "{cut}: restore diverged");

        // Manual steps from the cut: after each, the channels and the
        // agenda read settled, as under dense.
        let mut dense = copy();
        dense.set_scheduler_mode(SchedulerMode::Dense);
        let mut active = copy();
        for _ in 0..400 {
            dense.step();
            active.step();
            assert_eq!(
                format!("{:?} {:?}", dense.io(0), dense.io(1)),
                format!("{:?} {:?}", active.io(0), active.io(1)),
                "{cut}: channels after a step to {}",
                active.now()
            );
            let next = active.next_event_cycle().expect("the line keeps running");
            assert!(next >= active.now());
            assert!(
                next <= Cycles(active.now().0 + 160),
                "a ping every 160 cycles"
            );
        }
        let _ = dense.run(TAIL - 400);
        let _ = active.run(TAIL - 400);
        assert_eq!(paced_state(&mut dense, TAIL), want, "{cut}: dense steps");
        assert_eq!(paced_state(&mut active, TAIL), want, "{cut}: active steps");
    }
}

/// A mesh of nine 8-thread PEs — a crowd of 72 threads that can each hold
/// one synchronous call — and `readers` single-thread ones, with whatever
/// `attach` puts behind the NoC. No registered rig, experiment or nwbench
/// workload fills a service node (4 banks x 16 deep and 64-deep servers
/// against a few dozen callers), so requests standing parked in front of a
/// block are reached only by the tests built on this.
fn crowd_rig(
    name: &str,
    readers: usize,
    attach: impl FnOnce(&mut nanowall::FppaConfig),
) -> nanowall::FppaPlatform {
    use nanowall::prelude::*;
    let mut cfg = FppaConfig::new(name, TopologyKind::Mesh);
    for threads in [8; 9].into_iter().chain(vec![1; readers]) {
        cfg.add_pe(PeConfig::new(PeClass::GpRisc, threads));
    }
    attach(&mut cfg);
    FppaPlatform::new(cfg).expect("config valid")
}

/// Every thread of the crowd makes [`CROWD_CALLS`] back-to-back calls to
/// `node`.
fn crowd_calls(p: &mut nanowall::FppaPlatform, node: nw_types::NodeId, reply_bytes: u64) {
    for pe in 0..9 {
        for _ in 0..8 {
            let calls = (0..CROWD_CALLS).map(|_| nw_pe::Op::call(node, 16, reply_bytes));
            let prog = nw_pe::Program::straight_line(calls);
            p.pe_mut(pe).spawn(prog).expect("an idle thread");
        }
    }
}
const CROWD: u64 = 72;
const CROWD_CALLS: u64 = 2;

/// A hardwired block that accepts one item every 400 cycles: it holds 64
/// queued requests and one in service, the most any service node holds.
fn slow_hwip() -> nanowall::HwIpConfig {
    nanowall::HwIpConfig {
        name: "slow".to_owned(),
        ii: 400,
        latency: 400,
        area: nw_types::AreaMm2(0.1),
        energy_per_item: nw_types::Picojoules(10.0),
    }
}

#[test]
fn saturated_service_nodes_park_and_drain_in_arrival_order() {
    // One platform per kind of block, each under the crowd. The parked
    // queue must hand every request over in arrival order, keep the node
    // due every cycle its block has room under the active set (the agenda
    // audit runs inside these debug runs) and travel with a snapshot.
    use nanowall::prelude::*;
    use nanowall::{MemoryBlockConfig, TraceEvent};
    use nw_types::ThreadId;

    /// By now every first request has reached its node and none is
    /// answered; a node holds 65 of them at most.
    const CUT: u64 = 350;
    const HOLDS: usize = 65;
    /// By now every call has long completed.
    const FINISH: u64 = 80_000;
    const TAIL: u64 = FINISH - CUT;

    type Attach = fn(&mut FppaConfig);
    type Node = fn(&mut FppaPlatform) -> NodeId;
    let cases: [(&str, u64, Attach, Node); 3] = [
        // One bank with one queue slot, busy 514 cycles per 4 KiB read.
        (
            "memory",
            4_096,
            |cfg| {
                let mut sram = MemoryBlockConfig::new(MemoryTechnology::Sram, 2.0);
                (sram.banks, sram.queue_depth) = (1, 1);
                cfg.memories.push(sram);
            },
            |p| p.memory_node(0),
        ),
        (
            "hwip",
            16,
            |cfg| cfg.hwip.push(slow_hwip()),
            |p| p.hwip_node(0),
        ),
        // A configured fabric: its 64-deep server issues nothing during
        // the 13 500 cycles of bitstream load.
        (
            "fabric",
            16,
            |cfg| cfg.fabrics.push(FabricSpec::default()),
            |p| {
                let kernel = KernelSpec::crypto_round();
                let loaded = p.fabric_mut(0).reconfigure(&kernel, Cycles(0));
                loaded.expect("the kernel fits");
                p.fabric_node(0)
            },
        ),
    ];

    for (name, reply_bytes, attach, node) in cases {
        let build = |mode| {
            let mut p = crowd_rig(name, 0, attach);
            p.set_scheduler_mode(mode);
            let node = node(&mut p);
            crowd_calls(&mut p, node, reply_bytes);
            (p, node.0)
        };
        let served = |r: &PlatformReport| r.mem_accesses + r.hwip_served + r.fabric_served;

        // Dense reference, with the window reports of both halves.
        let (mut dense, _) = build(SchedulerMode::Dense);
        let want_cut = dense.run(CUT);
        let want = dense.run(TAIL);

        // At the cut every caller is blocked on a request the NoC has
        // delivered and the node has not answered: more than the block
        // holds, so the rest stand parked.
        let (mut active, _) = build(SchedulerMode::ActiveSet);
        let at_cut = active.run(CUT);
        assert_eq!(at_cut, want_cut, "{name}: dense and active at the cut");
        let threads = (0..9).flat_map(|pe| (0..8).map(move |t| (pe, ThreadId(t))));
        let blocked = threads
            .clone()
            .filter(|&(pe, t)| active.pe(pe).is_awaiting(t))
            .count();
        assert_eq!(blocked as u64, CROWD, "{name}: every caller is blocked");
        assert!(blocked > HOLDS, "{name}: some must stand parked");
        assert_eq!(at_cut.noc.delivered, CROWD, "{name}: all delivered");
        assert_eq!(served(&at_cut), 0, "{name}: none answered yet");
        let snap = active.snapshot();

        // Every caller completes, on the cycles dense completes them, and
        // the active set hops once the parked queue has drained.
        assert_eq!(active.run(TAIL), want, "{name}: dense and active");
        for (pe, t) in threads {
            let idle = active.pe(pe).thread_is_idle(t);
            assert!(idle, "{name}: caller {pe}.{} is left blocked", t.0);
        }
        assert_eq!(served(&want), CROWD * CROWD_CALLS, "{name}");
        assert_eq!(active.next_event_cycle(), None, "{name}: drained");
        let stats = active.scheduler_stats();
        assert!(stats.cycles_hopped > 0, "{name}: {stats:?}");
        assert!(
            stats.cycles_stepped >= CUT,
            "{name}: the crowd keeps it stepping to the cut"
        );

        // The parked requests travel with the snapshot, both ways.
        let mut copy = FppaPlatform::from_snapshot(&snap);
        assert_eq!(copy.run(TAIL), want, "{name}: from_snapshot diverged");
        active.restore(&snap);
        assert_eq!(active.now().0, CUT);
        assert_eq!(active.run(TAIL), want, "{name}: restore diverged");

        // Arrival order: the node answers the PEs in the order their
        // requests reached it, parked or not.
        let (mut traced, node) = build(SchedulerMode::ActiveSet);
        let (mut arrived, mut answered) = (Vec::new(), Vec::new());
        for e in traced_run(&mut traced, FINISH) {
            match e {
                TraceEvent::FlitDeliver { src, dst, .. } if dst == node => arrived.push(src),
                TraceEvent::FlitInject { src, dst, .. } if src == node => answered.push(dst),
                _ => {}
            }
        }
        assert_eq!(arrived.len() as u64, CROWD * CROWD_CALLS, "{name}");
        assert_eq!(answered, arrived, "{name}: answered out of arrival order");
    }
}

#[test]
fn a_call_to_an_unloaded_fabric_waits_without_pinning_the_services_phase() {
    // The call stands parked until a kernel loads. A block that cannot take
    // it leaves its node due at the block's own next event (none here), so
    // the active set hops over the wait; the load re-posts the node.
    use nanowall::prelude::*;
    const WAIT: u64 = 100_000;
    let run = |mode| {
        let mut p = crowd_rig("unloaded", 1, |cfg| cfg.fabrics.push(FabricSpec::default()));
        p.set_scheduler_mode(mode);
        let call = [nw_pe::Op::call(p.fabric_node(0), 8, 8)];
        let reader = p.pe_mut(9);
        reader
            .spawn(nw_pe::Program::straight_line(call))
            .expect("idle");
        let (waited, stats) = (p.run(WAIT).values(), p.scheduler_stats());
        let (now, kernel) = (p.now(), KernelSpec::checksum_offload());
        p.fabric_mut(0).reconfigure(&kernel, now).expect("fits");
        let answered = p.run(WAIT);
        assert_eq!(answered.fabric_served, 1, "{mode:?}: the call is answered");
        assert!(p.is_quiescent(), "{mode:?}");
        (waited, answered.values(), stats)
    };
    let (dense, active) = (run(SchedulerMode::Dense), run(SchedulerMode::ActiveSet));
    assert_eq!((dense.0, dense.1), (active.0, active.1));
    let stats = active.2;
    assert!(stats.cycles_hopped > WAIT * 9 / 10, "{stats:?}");
}

#[test]
fn parked_requests_keep_the_id_they_drew_on_arrival() {
    // The one id rule: a request draws its platform-unique id when it
    // arrives at a service node, in arrival order, and keeps it while it
    // stands parked. Ids are visible through the memories, which derive
    // the bank from them (`addr = id x INTERLEAVE`): two 4 KiB reads sent
    // to a two-bank SRAM while the crowd's block parks, retries and
    // re-parks its callers in between. Were a parked request to draw a
    // second id at its successful retry, the second read would land on
    // the other bank and be answered 514 cycles early.
    use nanowall::prelude::*;
    use nanowall::{MemoryBlockConfig, TraceEvent};

    const BANK_TIME: u64 = 514; // one 4 KiB SRAM read

    let mut p = crowd_rig("ids", 2, |cfg| {
        let mut sram = MemoryBlockConfig::new(MemoryTechnology::Sram, 2.0);
        sram.banks = 2;
        cfg.memories.push(sram);
        cfg.hwip.push(slow_hwip());
    });
    let (mem, hwip) = (p.memory_node(0), p.hwip_node(0));
    // Seven of the crowd stand parked, and every completion (one per 400
    // cycles) lets one in and brings the answered caller's second request
    // to the back of the queue.
    crowd_calls(&mut p, hwip, 16);
    // The two reads, either side of the block's second completion.
    for (pe, wait) in [(9, 650), (10, 950)] {
        let read = [nw_pe::Op::Compute(wait), nw_pe::Op::call(mem, 16, 4_096)];
        let prog = nw_pe::Program::straight_line(read);
        p.pe_mut(pe).spawn(prog).expect("an idle thread");
    }
    let (mut arrivals, mut answers, mut completions) = (Vec::new(), Vec::new(), Vec::new());
    for e in traced_run(&mut p, 3_000) {
        match e {
            TraceEvent::FlitDeliver { cycle, dst, .. } if dst == mem.0 || dst == hwip.0 => {
                arrivals.push((cycle, dst));
            }
            TraceEvent::FlitInject { cycle, src, .. } if src == mem.0 => answers.push(cycle),
            TraceEvent::FlitInject { cycle, src, .. } if src == hwip.0 => completions.push(cycle),
            _ => {}
        }
    }
    // Arrivals are routed cycle by cycle, endpoints ascending, each in
    // delivery order: a request's position in that order is its id.
    arrivals.sort_by_key(|&(cycle, dst)| (cycle, dst));
    let reads: Vec<usize> = (0..arrivals.len())
        .filter(|&id| arrivals[id].1 == mem.0)
        .collect();
    let [first, second] = reads[..] else {
        panic!("two reads, not {reads:?}");
    };
    let (sent_first, sent_second) = (arrivals[first].0, arrivals[second].0);
    assert!(sent_second - sent_first < BANK_TIME, "the reads overlap");
    // Between the reads the block completed a request — a parked one went
    // in, under its old id — and exactly one new request arrived.
    assert!(first as u64 >= CROWD, "every first request came before");
    let between = |&&c: &&u64| sent_first < c && c < sent_second;
    assert_eq!(completions.iter().filter(between).count(), 1);
    assert_eq!(second - first, 2, "ids {first} and {second}");
    // Same parity, same bank: the second read waits out the first.
    assert_eq!(answers.len(), 2);
    assert_eq!(
        answers[1] - answers[0],
        BANK_TIME,
        "answered at {answers:?}"
    );
}

#[test]
fn offloads_are_charged_to_the_handler_the_runtime_dispatched() {
    // A service call is charged to the handler the runtime dispatched onto
    // the thread; a manual program spawned there through `pe_mut`, before
    // or after a crash and restart, is charged to nobody.
    use nanowall::prelude::*;
    use nanowall::{FaultCampaign, FaultRates, MemoryBlockConfig};

    let mut cfg = FppaConfig::new("attribution", TopologyKind::Mesh);
    cfg.add_pe(PeConfig::new(PeClass::GpRisc, 1));
    cfg.add_memory(MemoryBlockConfig::new(MemoryTechnology::Sram, 2.0));
    let clock_hz = cfg.tech.nominal_clock_hz();
    cfg.add_io(IoChannelConfig {
        rate: nw_types::BitsPerSec(40.0 * 8.0 * clock_hz / 4_096.0),
        ..IoChannelConfig::ten_gbe_worst_case() // 40-byte packets
    });
    let mut p = FppaPlatform::new(cfg).expect("config valid");
    let mut b = Application::builder("attribution");
    let reader = b.add_object(ObjectDef::new("reader").with_method(MethodDef::oneway("go", 16)));
    b.entry(reader, 0);
    p.install_app(&b.build().expect("valid"), &[0])
        .expect("placed");
    let mem = p.memory_node(0);
    p.bind_service(reader, mem, 16, 64, 1).expect("a memory");
    // The packets arrive on cycles 4095, 8191 and 12287, and their
    // handlers are dispatched 14 cycles later, at 4109, 8205 and 12301.
    p.bind_io_entry(0, reader).expect("channel 0 exists");
    let charged = |p: &FppaPlatform| p.object_latency(reader).expect("installed").count();
    let manual_call = |p: &mut FppaPlatform| {
        let prog = nw_pe::Program::straight_line([nw_pe::Op::call(mem, 16, 64)]);
        p.pe_mut(0).spawn(prog).expect("the one thread is idle");
        // `mem_accesses` counts every access since the platform was built.
        p.run(1_000).mem_accesses
    };

    assert_eq!((p.run(5_000).mem_accesses, charged(&p)), (1, 1));
    assert_eq!((manual_call(&mut p), charged(&p)), (2, 1), "manual call");
    p.run(3_000);
    assert_eq!(charged(&p), 2, "the second handler");
    // A crash and its restart, one cycle later, drawn before cycle 9000:
    // both are due at the first stepped cycle after installing.
    let rates = FaultRates {
        pe_crashes: 1,
        pe_downtime: (1, 1),
        ..FaultRates::quiet()
    };
    let campaign = FaultCampaign::generate(1, p.now().0, &rates, &p.fault_shape());
    assert_eq!(campaign.events().len(), 2);
    p.install_fault_campaign(campaign);
    p.run(100);
    assert_eq!(p.resilience_stats().pe_restarts, 1);
    assert_eq!((manual_call(&mut p), charged(&p)), (4, 2), "after restart");
    p.run(3_000);
    assert_eq!(charged(&p), 3, "the handler after restart");
}
