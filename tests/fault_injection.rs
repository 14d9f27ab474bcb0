//! Fault-injection differential suite: the determinism contract with
//! faults **on**.
//!
//! The fault subsystem's hard invariant has two halves. Faults *off* must
//! be bit-identical to a build that has never heard of `nw-fault` — that
//! half is covered by `scheduler_differential.rs` running unchanged.
//! Faults *on* must be bit-identical (a) across `SchedulerMode::Dense`
//! and `SchedulerMode::ActiveSet`, and (b) across repeats of the same
//! campaign seed — a fault timeline is a pure function of
//! `(seed, horizon, rates, shape)` and its application is part of the
//! deterministic phase order, so nothing may depend on which scheduler
//! stepped the cycles. Half (a) over the whole registry is the faulted
//! half of `expt parity`'s matrix (`nw_bench::parity`); this suite keeps
//! repeat/divergence per seed, pool conservation and route invalidation.

use nanowall::{FaultCampaign, FaultRates, RetryPolicy, ScenarioRegistry};

/// Runs the `mix` scenario for 20 000 cycles under the level-2.0 campaign
/// `seed` draws, with a retry policy installed, and returns the report.
fn run_faulted(seed: u64) -> nanowall::PlatformReport {
    let reg = ScenarioRegistry::standard();
    let mut rig = reg.build("mix", true).expect("registered scenario");
    let shape = rig.platform.fault_shape();
    let campaign = FaultCampaign::generate(seed, 20_000, &FaultRates::scaled(2.0), &shape);
    rig.platform.install_fault_campaign(campaign);
    rig.platform.set_retry_policy(RetryPolicy {
        timeout: 2_000,
        max_attempts: 3,
    });
    rig.run(20_000)
}

#[test]
fn faulted_runs_repeat_bit_identically_per_seed() {
    let a = run_faulted(7);
    assert_eq!(a, run_faulted(7), "same seed must replay the same run");
    assert_ne!(
        a.resilience,
        run_faulted(8).resilience,
        "a different seed should schedule a different campaign"
    );
}

/// The crash-conservation rig: 4 dual-threaded RISC cores, every thread
/// running two calls to one SRAM, under the campaign `seed` draws from
/// `rates` over `horizon` cycles. Finite and I/O-less, so it quiesces. No
/// retry policy is installed.
fn crash_rig(
    mode: nanowall::SchedulerMode,
    seed: u64,
    horizon: u64,
    rates: &FaultRates,
) -> nanowall::FppaPlatform {
    use nanowall::prelude::*;
    use nanowall::MemoryBlockConfig;

    let mut cfg = FppaConfig::new("crash-conservation", TopologyKind::Mesh);
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
    let shape = platform.fault_shape();
    platform.install_fault_campaign(FaultCampaign::generate(seed, horizon, rates, &shape));
    platform
}

/// Crash/restart pairs only; the seeded draw picks the victims.
fn crashes(n: u32, downtime: (u64, u64)) -> FaultRates {
    FaultRates {
        pe_crashes: n,
        pe_downtime: downtime,
        ..FaultRates::quiet()
    }
}

#[test]
fn pe_crashes_do_not_leak_pooled_buffers() {
    // The crash path's resource-hygiene half: killing a PE mid-call
    // harvests its owned buffers, cancels its retry entries (recycling the
    // stored payload clones), and the dispatch queue backs up gracefully.
    // On a finite no-I/O rig the platform still quiesces with a balanced
    // pool ledger, under both schedulers, and the two runs stay identical.
    use nanowall::prelude::*;

    let run_mode = |mode: SchedulerMode| {
        let mut platform = crash_rig(mode, 11, 8_000, &crashes(2, (500, 2_000)));
        assert!(!platform.fault_campaign().unwrap().events().is_empty());
        platform.set_retry_policy(RetryPolicy {
            timeout: 1_000,
            max_attempts: 2,
        });
        const WINDOW: u64 = 40_000;
        for _ in 0..WINDOW {
            platform.step();
        }
        assert_eq!(
            platform.payload_outstanding(),
            0,
            "{mode:?}: crash path leaked payload buffers"
        );
        platform.report(Cycles(WINDOW))
    };

    let dense = run_mode(SchedulerMode::Dense);
    let active = run_mode(SchedulerMode::ActiveSet);
    assert_eq!(dense, active, "crash-conservation rig diverged");
    assert!(dense.resilience.pe_crashes > 0, "no crash fired");
}

#[test]
fn a_campaign_without_a_retry_policy_never_panics() {
    // With no policy nothing tracks a call, so the reply to a call whose
    // PE crashed (and maybe restarted) meanwhile finds a thread that is not
    // awaiting: a counted duplicate, under both schedulers alike.
    use nanowall::prelude::*;

    let mut duplicates = 0;
    for seed in 0..40 {
        let run_mode = |mode: SchedulerMode| {
            let mut platform = crash_rig(mode, seed, 200, &crashes(4, (0, 0)));
            for _ in 0..5_000 {
                platform.step();
            }
            platform.report(Cycles(5_000))
        };
        let dense = run_mode(SchedulerMode::Dense);
        assert_eq!(dense, run_mode(SchedulerMode::ActiveSet), "seed {seed}");
        assert_eq!(dense.resilience.retries, 0);
        duplicates += dense.resilience.duplicate_replies_dropped;
    }
    assert!(duplicates > 0, "no reply ever reached a crashed PE");
}

#[test]
fn a_second_retry_policy_keeps_the_pending_calls() {
    // Swapping the policy mid-run must not forget the calls in flight:
    // their stored payload clones are pool-accounted.
    use nanowall::prelude::*;

    let mut platform = crash_rig(
        SchedulerMode::ActiveSet,
        11,
        8_000,
        &crashes(2, (500, 2_000)),
    );
    let policy = RetryPolicy {
        timeout: 1_000,
        max_attempts: 2,
    };
    platform.set_retry_policy(policy);
    while platform.pending_retries() == 0 {
        platform.step();
        assert!(platform.now() < Cycles(1_000), "no call was ever tracked");
    }
    let pending = platform.pending_retries();
    platform.set_retry_policy(policy);
    assert_eq!(platform.pending_retries(), pending);
    for _ in 0..40_000 {
        platform.step();
    }
    assert_eq!(platform.pending_retries(), 0);
    assert_eq!(platform.payload_outstanding(), 0, "stored clones leaked");
}

#[test]
fn disconnection_drops_return_to_the_pool_on_the_next_stepped_cycle() {
    // Packets the NoC drops during a tick (here: PE 0's only crossbar link
    // is dead, so its requests and their retries die at the NI) park their
    // payload buffers in the engine until the platform recycles them at the
    // top of the next stepped cycle — every stepped cycle, not only the
    // ones a campaign event falls on: the campaign below has no event at
    // all. The pool ledger must read the same after every step under both
    // schedulers.
    use nanowall::prelude::*;
    use nanowall::MemoryBlockConfig;

    let build = |mode: SchedulerMode| {
        let mut cfg = FppaConfig::new("stranded", TopologyKind::Crossbar);
        for _ in 0..2 {
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
        for pe in 0..2 {
            while platform.pe(pe).idle_threads() > 0 {
                platform.pe_mut(pe).spawn(prog.clone()).unwrap();
            }
        }
        let shape = platform.fault_shape();
        let campaign = FaultCampaign::generate(3, 10_000, &FaultRates::quiet(), &shape);
        assert!(campaign.events().is_empty());
        platform.install_fault_campaign(campaign);
        platform.set_retry_policy(RetryPolicy {
            timeout: 300,
            max_attempts: 3,
        });
        assert!(platform.fail_noc_link(0, 0), "PE 0's outbound link");
        platform
    };
    let mut dense = build(SchedulerMode::Dense);
    let mut active = build(SchedulerMode::ActiveSet);
    for _ in 0..6_000 {
        dense.step();
        active.step();
        assert_eq!(
            dense.payload_outstanding(),
            active.payload_outstanding(),
            "pool ledgers apart after the step to {}",
            active.now()
        );
    }
    let report = active.report(Cycles(6_000));
    assert_eq!(dense.report(Cycles(6_000)), report);
    // Two threads, two calls each, three attempts per call, all dropped;
    // the ledger balances.
    assert_eq!(report.resilience.packets_dropped, 12);
    assert_eq!(report.resilience.retry_give_ups, 4);
    assert_eq!(active.payload_outstanding(), 0);
}

#[test]
fn hop_matrix_follows_dead_links() {
    // Killing a link changes the routes the mappers' hop matrix is read
    // from, and disconnected pairs must read infinite.
    let reg = ScenarioRegistry::standard();
    let rig = reg.build("ipv4", true).expect("registered scenario");
    let mut platform = rig.platform;
    let before = platform.hop_matrix();
    let n = before.len();
    assert!(n > 1);
    assert!(
        before.iter().flatten().all(|h| h.is_finite()),
        "healthy topology has finite hop counts"
    );

    // Kill every output of router 0: any endpoint pair routed through it
    // must change its hop count (or become unreachable).
    let shape = platform.fault_shape();
    let mut killed = 0;
    for port in 0..shape.router_ports[0] {
        if platform.fail_noc_link(0, port) {
            killed += 1;
        }
    }
    assert!(killed > 0, "router 0 must have links to kill");
    let after = platform.hop_matrix();
    assert_ne!(
        before, after,
        "hop matrix did not recompute after links died"
    );
    assert_eq!(platform.resilience_stats().links_failed, killed);

    // Idempotence: re-failing a dead link neither recounts nor reroutes.
    let repeat = platform.fail_noc_link(0, 0);
    assert!(!repeat, "re-failing a dead link must be a no-op");
    assert_eq!(platform.resilience_stats().links_failed, killed);
    assert_eq!(platform.hop_matrix(), after);
}
