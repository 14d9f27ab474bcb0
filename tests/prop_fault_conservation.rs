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
    #![proptest_config(ProptestConfig::with_cases(24))]

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
        // Ample window: worst case is max_attempts retries at doubling
        // timeouts plus a full crash downtime, still far inside 60k.
        const WINDOW: u64 = 60_000;
        for _ in 0..WINDOW {
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
