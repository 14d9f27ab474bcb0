//! Property test: checkpointing is invisible to the simulation.
//!
//! For *any* cycle split `(a, b)`, scheduler mode and fault intensity,
//! `run(a); snapshot; run(b)` on a platform rebuilt from (or restored to)
//! the snapshot produces a byte-identical `PlatformReport` to the
//! uninterrupted `run(a); run(b)` — including splits that land mid
//! fault-campaign, so the campaign cursor and open retry deadlines must
//! survive the round trip. A trace sink on the snapshotted platform must
//! not perturb anything either, and a traced resumed run emits exactly
//! the uninterrupted run's events.

use nanowall::prelude::*;
use nanowall::{
    FaultCampaign, FaultRates, MemoryBlockConfig, RetryPolicy, RingBufferSink, TraceEvent,
};
use proptest::prelude::*;

/// The finite no-I/O rig of the fault-conservation suite: 4 dual-thread
/// PEs round-tripping against one SRAM controller, so arbitrary splits
/// land in a busy, retry-carrying window.
fn build_rig(mode: SchedulerMode) -> FppaPlatform {
    let mut cfg = FppaConfig::new("prop-snapshot", TopologyKind::Mesh);
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
    platform
}

/// Installs a ring large enough that no event of these short runs is
/// evicted.
fn trace(platform: &mut FppaPlatform) {
    platform.set_trace_sink(Box::new(RingBufferSink::new(1 << 20)));
}

/// Takes the installed ring and its events, checking that none was
/// evicted.
fn events(platform: &mut FppaPlatform) -> Vec<TraceEvent> {
    let mut sink = platform.take_trace_sink().expect("a sink is installed");
    let ring = (sink.as_any_mut().downcast_mut::<RingBufferSink>()).expect("a ring");
    assert_eq!(ring.dropped(), 0, "the ring evicted events");
    ring.drain()
}

/// Installs the standard faulted-run pair (campaign + retry policy) used
/// by every case below, identical across reference and snapshot paths.
fn arm_faults(platform: &mut FppaPlatform, seed: u64, level_tenths: u32, horizon: u64) {
    if level_tenths == 0 {
        return;
    }
    let mut rates = FaultRates::scaled(f64::from(level_tenths) / 10.0);
    rates.pe_crashes += 1;
    rates.pe_downtime = (200, 3_000);
    let shape = platform.fault_shape();
    platform.install_fault_campaign(FaultCampaign::generate(seed, horizon, &rates, &shape));
    platform.set_retry_policy(RetryPolicy {
        timeout: 600,
        max_attempts: 3,
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The headline contract, for arbitrary splits: a platform rebuilt
    /// from a mid-run snapshot — and the original platform restored back
    /// to it after running ahead — both finish byte-identical to the
    /// uninterrupted run, under both schedulers, with campaigns active or
    /// absent, traced or untraced. Traced, the restored original's own
    /// sink and a sink installed on the rebuilt platform receive exactly
    /// the uninterrupted run's events.
    #[test]
    fn snapshot_round_trip_is_bit_identical(
        seed in 0u64..10_000,
        level_tenths in 0u32..30,
        a in 1u64..4_000,
        b in 1u64..4_000,
        junk in 0u64..2_000,
        dense in any::<bool>(),
        traced in any::<bool>(),
    ) {
        let mode = if dense { SchedulerMode::Dense } else { SchedulerMode::ActiveSet };
        let horizon = 8_000;

        // Uninterrupted reference: the same windows, no snapshot anywhere.
        let mut reference = build_rig(mode);
        arm_faults(&mut reference, seed, level_tenths, horizon);
        if traced {
            trace(&mut reference);
        }
        let _ = reference.run(a);
        let mut window_a = Vec::new();
        if traced {
            window_a = events(&mut reference);
            trace(&mut reference);
        }
        let want = reference.run(b);

        // Snapshot path: identical rig, snapshot at the split.
        let mut original = build_rig(mode);
        arm_faults(&mut original, seed, level_tenths, horizon);
        if traced {
            trace(&mut original);
        }
        let _ = original.run(a);
        let snap = original.snapshot();

        // (1) A fresh platform rebuilt from the snapshot.
        let mut fresh = FppaPlatform::from_snapshot(&snap);
        if traced {
            trace(&mut fresh);
        }
        let got_fresh = fresh.run(b);
        prop_assert_eq!(&got_fresh, &want, "from_snapshot diverged (split {}+{})", a, b);

        // (2) The original, run ahead then restored in place. Its sink
        // sees window a, the junk window (which another copy of the
        // snapshot replays) and window b.
        let _ = original.run(junk);
        original.restore(&snap);
        let got_restored = original.run(b);
        prop_assert_eq!(&got_restored, &want, "restore diverged (junk {})", junk);
        if traced {
            let window_b = events(&mut reference);
            let ends = (window_a.iter().chain(&window_b))
                .filter(|e| matches!(e, TraceEvent::HandlerEnd { .. }))
                .count();
            prop_assert_eq!(ends as u64, want.tasks_completed, "a HandlerEnd per retired task");
            prop_assert_eq!(&events(&mut fresh), &window_b, "from_snapshot trace");
            let mut ahead = FppaPlatform::from_snapshot(&snap);
            trace(&mut ahead);
            let _ = ahead.run(junk);
            let mut want_all = window_a;
            want_all.extend(events(&mut ahead));
            want_all.extend(window_b);
            prop_assert_eq!(&events(&mut original), &want_all, "restored trace");
        }

        // Campaign cursor and retry bookkeeping survived the round trip.
        prop_assert_eq!(fresh.pending_retries(), reference.pending_retries());
        prop_assert_eq!(
            fresh.fault_campaign().map(FaultCampaign::remaining),
            reference.fault_campaign().map(FaultCampaign::remaining)
        );
        prop_assert_eq!(fresh.is_quiescent(), reference.is_quiescent());
        prop_assert_eq!(original.pending_retries(), reference.pending_retries());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The same contract on a line-rate I/O scenario rig (paced ingress,
    /// DSOC dispatch, latency telemetry): splits must also preserve the
    /// f64 pacing credit and the histogram state exactly.
    #[test]
    fn snapshot_round_trip_holds_on_an_io_scenario(
        a in 1u64..3_000,
        b in 1u64..3_000,
        dense in any::<bool>(),
    ) {
        let mode = if dense { SchedulerMode::Dense } else { SchedulerMode::ActiveSet };
        let registry = nanowall::ScenarioRegistry::standard();

        let mut reference = registry.build("ipv4", true).expect("registered").platform;
        reference.set_scheduler_mode(mode);
        let _ = reference.run(a);
        let want = reference.run(b);

        let mut original = registry.build("ipv4", true).expect("registered").platform;
        original.set_scheduler_mode(mode);
        let _ = original.run(a);
        let snap = original.snapshot();
        let mut fresh = FppaPlatform::from_snapshot(&snap);
        let got = fresh.run(b);
        prop_assert_eq!(&got, &want, "io rig split {}+{} diverged", a, b);
        prop_assert_eq!(fresh.is_quiescent(), reference.is_quiescent());
    }
}
