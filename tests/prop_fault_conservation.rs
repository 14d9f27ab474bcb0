//! Property test: no seeded fault campaign can keep the platform busy.
//!
//! For *any* campaign seed, fault level and retry policy, a finite no-I/O
//! rig must end quiescent — dropped packets, corrupted replies, crashed PEs
//! and abandoned retries all resolve: no packet left in the NoC, every PE
//! thread idle, the retry table empty. The NoC's own debug-build audits
//! (active-set bookkeeping vs ground truth) run on every step, so a passing
//! case also certifies the router invariants under fire.

use nanowall::prelude::*;
use nanowall::{FaultCampaign, FaultRates, MemoryBlockConfig, RetryPolicy};
use proptest::prelude::*;

/// Builds the finite rig: 4 dual-thread PEs round-tripping against one
/// SRAM controller, no I/O channels, so a fixed batch of tasks drives the
/// platform fully quiescent.
fn build_rig(mode: SchedulerMode) -> FppaPlatform {
    let mut cfg = FppaConfig::new("prop-fault-conservation", TopologyKind::Mesh);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Quiescence under arbitrary seeded campaigns: the batch retires
    /// (give-ups release threads even when the callee never answers) and
    /// nothing is left in flight, under both schedulers.
    #[test]
    fn any_campaign_ends_quiescent(
        seed in 0u64..10_000,
        level_tenths in 0u32..40,
        timeout in 200u64..4_000,
        max_attempts in 1u8..5,
        dense in any::<bool>(),
    ) {
        let mode = if dense { SchedulerMode::Dense } else { SchedulerMode::ActiveSet };
        let mut platform = build_rig(mode);
        let mut rates = FaultRates::scaled(f64::from(level_tenths) / 10.0);
        // The rig is tiny; add crash pressure beyond what `scaled` gives so
        // low levels still exercise the crash path.
        rates.pe_crashes += 1;
        rates.pe_downtime = (200, 3_000);
        let shape = platform.fault_shape();
        platform.install_fault_campaign(FaultCampaign::generate(seed, 10_000, &rates, &shape));
        platform.set_retry_policy(RetryPolicy { timeout, max_attempts });
        // The window covers the worst case: the faults land in the first
        // 10 000 cycles, a crash keeps its PE down 3 000 more, and each of
        // a program's two calls may wait out `max_attempts` timeouts
        // doubling from `timeout` (seed 878 at level 3.3 drains at 94 469).
        // A case stops early once the platform is quiescent and the campaign
        // has no event left: nothing in this rig leaves that state.
        let window = 20_000 + 2 * timeout * ((1 << max_attempts) - 1);
        for _ in 0..window {
            let drained = platform.fault_campaign().is_none_or(|c| c.remaining() == 0);
            if drained && platform.is_quiescent() {
                break;
            }
            platform.step();
        }
        platform.settle();
        prop_assert!(
            platform.is_quiescent(),
            "seed {} level {} under {:?}: work left in flight",
            seed, level_tenths, mode
        );
        prop_assert_eq!(
            platform.pending_retries(),
            0,
            "seed {} under {:?}: retry table not drained at quiescence",
            seed, mode
        );
    }
}
