//! Golden scheduler counts: every [`SchedulerStats`] field, the NoC's
//! [`NocWork`] included, on the four nwbench rigs, recorded at commit
//! 257262d — the last one whose run loop read the whole agenda before every
//! stepped cycle and every hop.
//!
//! The counts say what the run loop *did*: cycles stepped and hopped, hops,
//! phases entered, PE ticks, NoC ticks skipped, routers visited. Reports,
//! digests and `expt parity` pin what the simulation *computed*, and a
//! change to the loop that does the same simulation with more or less work
//! leaves all of them alone. These constants do not move with it: a loop
//! change that means to be pure bookkeeping (a faster path to the same
//! steps and hops) must leave every one of them equal.
//!
//! The rigs are built from `nanowall::scenarios` exactly as
//! `benchmark/src/workloads.rs` builds them — `mix-fork-faults` with its
//! seed-11 campaign over nwbench's horizon and the default retry policy —
//! and run from cycle 0 under the default scheduler for a fixed window a
//! debug build covers in seconds. On a mismatch the test prints the table
//! as it reads now, ready to paste — which is only the right thing to do
//! for a change that means to alter what the scheduler visits.

use nanowall::scenarios::{ipv4_rig, mix_demo_params, mix_pe_pool, mix_rig, modem_rig, video_rig};
use nanowall::{FaultCampaign, FaultRates, FppaPlatform, NocWork, RetryPolicy, SchedulerStats};
use nw_apps::{ModemParams, VideoParams};
use nw_noc::TopologyKind;

/// The counts in [`counts`]' order.
const FIELDS: [&str; 19] = [
    "cycles_stepped",
    "cycles_hopped",
    "hops",
    "hops_ended_by_io",
    "pe_ticks",
    "pe_external_wakes",
    "noc_ticks_skipped",
    "phases_entered[IoPacing]",
    "phases_entered[NocTick]",
    "phases_entered[RouteArrivals]",
    "phases_entered[Services]",
    "phases_entered[Dispatch]",
    "phases_entered[PeStep]",
    "phases_entered[Outbox]",
    "noc.ticks",
    "noc.arrivals",
    "noc.wakes_scheduled",
    "noc.router_visits",
    "noc.fires",
];

/// Every field of `s`, flattened. The destructuring names each one, so a
/// new field is a compile error here until it is pinned or left out on
/// purpose.
fn counts(s: SchedulerStats) -> [u64; 19] {
    let SchedulerStats {
        cycles_stepped,
        cycles_hopped,
        hops,
        hops_ended_by_io,
        pe_ticks,
        pe_external_wakes,
        noc_ticks_skipped,
        // Which of the stepped cycles a NoC-only span ran: how the loop
        // got there, not what it did, so it is left out.
        span_cycles: _,
        phases_entered: [io, noc_tick, arrivals, services, dispatch, pe_step, outbox],
        noc:
            NocWork {
                ticks,
                arrivals: noc_arrivals,
                wakes_scheduled,
                router_visits,
                fires,
            },
    } = s;
    [
        cycles_stepped,
        cycles_hopped,
        hops,
        hops_ended_by_io,
        pe_ticks,
        pe_external_wakes,
        noc_ticks_skipped,
        io,
        noc_tick,
        arrivals,
        services,
        dispatch,
        pe_step,
        outbox,
        ticks,
        noc_arrivals,
        wakes_scheduled,
        router_visits,
        fires,
    ]
}

/// nwbench's `mix-fork-faults` campaign horizon: its warm-up plus one
/// replica window.
const MIX_CAMPAIGN_HORIZON: u64 = 900_000 + 600_000;

type Build = fn() -> FppaPlatform;

/// `(workload, cycles run from cycle 0, platform builder)`.
const RIGS: [(&str, u64, Build); 4] = [
    ("ipv4-sat", 50_000, || {
        ipv4_rig(16, 8, TopologyKind::Mesh, 4, 9.5).platform
    }),
    ("video-knee", 1_000_000, || {
        video_rig(&VideoParams::default(), 9, 4, 4, 8.0).platform
    }),
    ("modem-idle", 10_000_000, || {
        modem_rig(&ModemParams::default(), 6, 4, 50, 40.0).platform
    }),
    ("mix-fork-faults", 300_000, || {
        let params = mix_demo_params(false);
        let mut p = mix_rig(&params, mix_pe_pool(&params), 4, 4, 6.0, 3.0).platform;
        let shape = p.fault_shape();
        p.install_fault_campaign(FaultCampaign::generate(
            11,
            MIX_CAMPAIGN_HORIZON,
            &FaultRates::scaled(1.0),
            &shape,
        ));
        p.set_retry_policy(RetryPolicy::default());
        p
    }),
];

/// `(workload, counts)` recorded at 257262d.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 19]); 4] = [
    ("ipv4-sat", [49626, 374, 224, 31, 84746, 24087, 2023, 2704, 47603, 13943, 0, 9720, 45514, 12144, 47603, 101912, 28438, 98126, 101933]),
    ("video-knee", [282601, 717399, 163658, 1512, 82652, 32087, 49253, 1898, 233348, 30081, 15072, 11263, 79380, 27864, 233348, 156893, 72751, 156682, 156900]),
    ("modem-idle", [27967, 9972033, 18013, 474, 22284, 9954, 12325, 474, 15642, 6162, 0, 4266, 22279, 5688, 15642, 9480, 0, 9480, 9480]),
    ("mix-fork-faults", [113500, 186500, 46255, 3704, 78003, 27811, 44620, 5256, 68880, 21720, 1431, 11724, 71432, 16497, 68880, 52368, 1847, 52245, 52370]),
];

fn run(build: Build, cycles: u64) -> FppaPlatform {
    let mut p = build();
    let _ = p.run(cycles);
    p
}

#[test]
fn scheduler_counts_match_the_recorded_table() {
    let now: Vec<(&str, [u64; 19])> = RIGS
        .iter()
        .map(|&(name, cycles, build)| (name, counts(run(build, cycles).scheduler_stats())))
        .collect();
    let table: String = now
        .iter()
        .map(|(name, c)| format!("    (\"{name}\", {c:?}),\n"))
        .collect();
    let moved: Vec<String> = (now.iter().zip(&GOLDEN))
        .flat_map(|((name, c), (_, want))| {
            (FIELDS.iter().zip(c.iter().zip(want)))
                .filter(|(_, (c, w))| c != w)
                .map(move |(field, (c, w))| format!("{name} {field}: {w} -> {c}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "the scheduler left the recorded counts ({}); the table reads now:\n{table}",
        moved.join(", ")
    );
}

/// The counts would pin little if the windows never reached the work they
/// are there for: the mixed rig's faults and retries, service nodes on the
/// video rig, and hops carrying the idle one.
#[test]
fn windows_reach_what_they_pin() {
    let [ipv4, video, modem, mix] = RIGS.map(|(_, cycles, build)| run(build, cycles));
    let stats = |p: &FppaPlatform| p.scheduler_stats();
    assert!(stats(&ipv4).cycles_stepped > 10 * stats(&ipv4).cycles_hopped);
    assert!(stats(&video).phases_entered[nanowall::HostPhase::Services as usize] > 0);
    assert!(stats(&modem).cycles_hopped > 100 * stats(&modem).cycles_stepped);
    let faults = mix.resilience_stats();
    assert!(
        faults.faults_injected > 0 && faults.retries > 0,
        "{faults:?}"
    );
}
