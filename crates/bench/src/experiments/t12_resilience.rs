//! T12 — the resilience grid: graceful degradation under injected faults.
//!
//! The nanometer-wall argument cuts both ways: a platform justifies its
//! overhead not just by absorbing new applications but by *keeping them
//! running* as the underlying fabric becomes less reliable. This
//! experiment sweeps a seeded fault campaign's intensity (level 0 = the
//! faultless baseline every other table measures, rising to several times
//! the nominal "unreliable fabric" operating point) across three
//! registered workloads — the IPv4 fast path, the video codec, and the
//! mixed-tenancy rig — with the retry layer on. The observables are the
//! degradation curve: goodput (tasks retired per kilocycle), worst
//! per-object p99, deadline-miss rate, and the recovery work (retries,
//! give-ups, drops) the platform spent staying up.
//!
//! Every point is deterministic: one campaign seed, cycle-stamped fault
//! timelines, and the retry layer's token-correlated backoff — so the grid
//! is reproducible bit for bit, and `expt parity` separately asserts the
//! scheduler-mode parity of faulted runs on every registered scenario.

use super::Ctx;
use crate::{arm_faults, Table};
use nanowall::scenarios::ScenarioRegistry;
use nw_sim::parallel_map_with;

/// The workloads the grid sweeps (all from the standard registry).
const WORKLOADS: [&str; 3] = ["ipv4", "video", "mix"];

/// The campaign seed every point shares, so the level axis is the only
/// thing that varies within a workload column.
const SEED: u64 = 12;

/// One grid point.
#[derive(Debug, Clone)]
pub struct ResiliencePoint {
    /// Workload (registry scenario name).
    pub workload: String,
    /// Campaign intensity (0.0 = faultless baseline).
    pub level: f64,
    /// Campaign events applied in the window.
    pub faults: u64,
    /// Tasks retired per 1000 cycles — the goodput figure.
    pub goodput: f64,
    /// Worst per-object p99 round-trip latency in cycles (0 when no
    /// object recorded samples).
    pub p99: u64,
    /// Retries the resilience layer issued.
    pub retries: u64,
    /// Calls abandoned after the attempt budget.
    pub give_ups: u64,
    /// Packets the NoC dropped.
    pub dropped: u64,
    /// Deadline misses over recorded round trips, across all budgeted
    /// objects.
    pub miss_rate: f64,
}

/// Structured result.
#[derive(Debug)]
pub struct T12Result {
    /// The level × workload grid, level-major.
    pub grid: Vec<ResiliencePoint>,
    /// Rendered table.
    pub table: String,
}

fn measure(ctx: Ctx, workload: &str, level: f64, cycles: u64) -> ResiliencePoint {
    let reg = ScenarioRegistry::standard();
    let mut rig = reg.build(workload, true).expect("registered scenario");
    rig.platform.set_scheduler_mode(ctx.scheduler);
    arm_faults(&mut rig.platform, SEED, cycles, level);
    let report = rig.run(cycles);
    let p99 = report
        .latency
        .iter()
        .filter(|l| l.count > 0)
        .map(|l| l.p99.0)
        .max()
        .unwrap_or(0);
    let (misses, samples) = report
        .latency
        .iter()
        .filter(|l| l.deadline.is_some() && l.count > 0)
        .fold((0u64, 0u64), |(m, n), l| {
            (m + l.deadline_misses, n + l.count)
        });
    ResiliencePoint {
        workload: workload.to_owned(),
        level,
        faults: report.resilience.faults_injected,
        goodput: report.tasks_per_cycle() * 1_000.0,
        p99,
        retries: report.resilience.retries,
        give_ups: report.resilience.retry_give_ups,
        dropped: report.resilience.packets_dropped,
        miss_rate: if samples == 0 {
            0.0
        } else {
            misses as f64 / samples as f64
        },
    }
}

/// Runs T12: the fault-rate × workload degradation grid.
pub fn run(ctx: Ctx) -> T12Result {
    let fast = ctx.fast;
    let cycles = if fast { 20_000 } else { 80_000 };
    let levels: &[f64] = if fast {
        &[0.0, 2.0]
    } else {
        &[0.0, 1.0, 2.0, 4.0]
    };
    let points: Vec<(f64, &str)> = levels
        .iter()
        .flat_map(|&l| WORKLOADS.iter().map(move |&w| (l, w)))
        .collect();
    // Independent platforms per point; order-preserving fan-out keeps the
    // table byte-identical to a serial run.
    let grid: Vec<ResiliencePoint> = parallel_map_with(ctx.threads, points, |(level, w)| {
        measure(ctx, w, level, cycles)
    });

    let mut t = Table::new(&[
        "level",
        "workload",
        "faults",
        "goodput/kc",
        "p99",
        "retries",
        "give-ups",
        "dropped",
        "miss",
    ]);
    for p in &grid {
        t.row_owned(vec![
            format!("{:.1}", p.level),
            p.workload.clone(),
            p.faults.to_string(),
            format!("{:.2}", p.goodput),
            format!("{} cyc", p.p99),
            p.retries.to_string(),
            p.give_ups.to_string(),
            p.dropped.to_string(),
            format!("{:.1}%", p.miss_rate * 100.0),
        ]);
    }
    T12Result {
        table: format!(
            "T12  Resilience grid: seeded fault campaigns (seed {SEED}) vs workload, retry layer on\n{}",
            t.render()
        ),
        grid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_faultless_and_degradation_is_graceful() {
        let r = run(Ctx::new(true));
        assert_eq!(r.grid.len(), 2 * WORKLOADS.len());
        // Level 0 points are bit-for-bit the faultless platform: no
        // injections, no recovery work.
        for p in r.grid.iter().filter(|p| p.level == 0.0) {
            assert_eq!(p.faults, 0, "{p:?}");
            assert_eq!(p.retries + p.give_ups + p.dropped, 0, "{p:?}");
            assert!(p.goodput > 0.0, "{p:?}");
        }
        // Faulted points actually injected, and the platform kept working
        // (graceful degradation, not collapse).
        for p in r.grid.iter().filter(|p| p.level > 0.0) {
            assert!(p.faults > 0, "{p:?}");
            assert!(p.goodput > 0.0, "campaign must not wedge the rig: {p:?}");
        }
        assert!(r.table.contains("T12"), "{}", r.table);
    }

    #[test]
    fn grid_is_deterministic_across_reruns() {
        let a = run(Ctx::new(true));
        let b = run(Ctx::new(true));
        for (x, y) in a.grid.iter().zip(&b.grid) {
            assert_eq!(x.faults, y.faults, "{x:?} vs {y:?}");
            assert_eq!(x.retries, y.retries, "{x:?} vs {y:?}");
            assert!((x.goodput - y.goodput).abs() < 1e-12, "{x:?} vs {y:?}");
            assert_eq!(x.p99, y.p99, "{x:?} vs {y:?}");
        }
        assert_eq!(a.table, b.table, "rendered grid must be reproducible");
    }
}
