//! T13 — multi-seed statistical replicas from one warmed snapshot.
//!
//! Every other table in this harness reports a single deterministic
//! timeline per configuration. This experiment asks the follow-up
//! question the paper's methodology needs answered before comparing
//! configurations under *unreliable* fabric: how wide is the spread a
//! different fault draw would have produced? One platform per scenario is
//! warmed to steady state under a seeded campaign, snapshotted, and then
//! fanned out with [`FppaPlatform::fork`] into N measurement replicas —
//! each re-seeded so the *undrained* fault future is redrawn while the
//! warmed-up architectural state (caches, queues, pool ledger, pacing
//! credit) is shared bit-for-bit. The observables are the worst-object
//! latency percentiles per replica, aggregated across seeds as
//! min/median/max with a 95% CI half-width (`nw_sim::summarize_replicas`).
//!
//! Replica 0 always reuses the campaign's own seed, so its timeline is
//! bit-identical to the never-snapshotted run (the anchor the snapshot
//! differential suite pins); the spread columns therefore bracket the
//! deterministic figure every other table reports.

use super::Ctx;
use crate::{arm_faults, Table};
use nanowall::prelude::*;
use nanowall::scenarios::ScenarioRegistry;
use nw_sim::{parallel_map_with, summarize_replicas, ReplicaSummary};

/// The workloads that fan out (both from the standard registry).
const SCENARIOS: [&str; 2] = ["ipv4", "mix"];

/// The warmup campaign's seed; replica 0 re-uses it (the anchor).
const SEED: u64 = 13;

/// Fault intensity during warmup and measurement (the t12 "nominal
/// unreliable fabric" operating point).
const LEVEL: f64 = 1.0;

/// One aggregated statistic across all replicas of one scenario.
#[derive(Debug, Clone)]
pub struct ReplicaRow {
    /// Workload (registry scenario name).
    pub scenario: String,
    /// Which latency statistic this row aggregates (`p50`/`p95`/`p99`).
    pub stat: &'static str,
    /// The anchor replica's value (campaign-seed timeline), in cycles.
    pub anchor: f64,
    /// Spread across the N replica seeds.
    pub summary: ReplicaSummary,
}

/// Structured result.
#[derive(Debug)]
pub struct T13Result {
    /// Scenario-major rows: p50/p95/p99 per scenario.
    pub rows: Vec<ReplicaRow>,
    /// Rendered table.
    pub table: String,
}

/// Worst-object (p50, p95, p99) of one replica's report, in cycles.
fn worst_percentiles(report: &PlatformReport) -> (f64, f64, f64) {
    let worst = |pick: fn(&nanowall::ObjectLatency) -> u64| {
        report
            .latency
            .iter()
            .filter(|l| l.count > 0)
            .map(pick)
            .max()
            .unwrap_or(0) as f64
    };
    (worst(|l| l.p50.0), worst(|l| l.p95.0), worst(|l| l.p99.0))
}

/// Runs T13: warm once, fork N, aggregate the replica spread.
pub fn run(ctx: Ctx) -> T13Result {
    let fast = ctx.fast;
    let (warm, measure, n_replicas) = if fast {
        (8_000u64, 16_000u64, 5usize)
    } else {
        (30_000, 60_000, 9)
    };

    let mut rows = Vec::new();
    for scenario in SCENARIOS {
        let reg = ScenarioRegistry::standard();
        let mut parent = reg.build(scenario, fast).expect("registered scenario");
        parent.platform.set_scheduler_mode(ctx.scheduler);
        arm_faults(&mut parent.platform, SEED, warm + measure, LEVEL);
        let _ = parent.run(warm);

        // Replica 0 keeps the campaign seed (bit-identical to the run that
        // was never snapshotted); the rest redraw the fault future.
        let forks: Vec<FppaPlatform> = (0..n_replicas)
            .map(|i| {
                let seed = if i == 0 { SEED } else { SEED + 101 * i as u64 };
                parent.platform.fork(seed)
            })
            .collect();
        let percentiles: Vec<(f64, f64, f64)> =
            parallel_map_with(ctx.threads, forks, |mut replica| {
                let report = replica.run(measure);
                worst_percentiles(&report)
            });

        let anchor = percentiles[0];
        let column = |pick: fn(&(f64, f64, f64)) -> f64| -> Vec<f64> {
            percentiles.iter().map(pick).collect()
        };
        for (stat, anchor_value, values) in [
            ("p50", anchor.0, column(|p| p.0)),
            ("p95", anchor.1, column(|p| p.1)),
            ("p99", anchor.2, column(|p| p.2)),
        ] {
            rows.push(ReplicaRow {
                scenario: scenario.to_owned(),
                stat,
                anchor: anchor_value,
                summary: summarize_replicas(&values),
            });
        }
    }

    let mut t = Table::new(&[
        "scenario", "stat", "n", "anchor", "min", "median", "max", "ci95 ±",
    ]);
    for r in &rows {
        t.row_owned(vec![
            r.scenario.clone(),
            r.stat.to_owned(),
            r.summary.n.to_string(),
            format!("{:.0} cyc", r.anchor),
            format!("{:.0}", r.summary.min),
            format!("{:.0}", r.summary.median),
            format!("{:.0}", r.summary.max),
            format!("{:.1}", r.summary.ci_half_width),
        ]);
    }
    T13Result {
        table: format!(
            "T13  Replica spread: one warmed snapshot (seed {SEED}, level {LEVEL:.1}) forked \
             across {n_replicas} fault seeds, worst-object latency percentiles\n{}",
            t.render()
        ),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_spread_around_a_real_anchor() {
        let r = run(Ctx::new(true));
        assert_eq!(r.rows.len(), 3 * SCENARIOS.len());
        for row in &r.rows {
            assert_eq!(row.summary.n, 5, "{row:?}");
            assert!(row.summary.min <= row.summary.median, "{row:?}");
            assert!(row.summary.median <= row.summary.max, "{row:?}");
            // The anchor replica is one of the N, so the spread bounds it.
            assert!(
                row.summary.min <= row.anchor && row.anchor <= row.summary.max,
                "{row:?}"
            );
            assert!(row.anchor > 0.0, "anchor must record latency: {row:?}");
        }
        // Reseeded fault futures genuinely diverge somewhere in the grid —
        // the spread columns are not vacuous.
        assert!(
            r.rows.iter().any(|row| row.summary.max > row.summary.min),
            "all replicas identical: forks are not redrawing the fault future"
        );
        assert!(r.table.contains("T13"), "{}", r.table);
    }

    #[test]
    fn replica_grid_is_deterministic_across_reruns() {
        let a = run(Ctx::new(true));
        let b = run(Ctx::new(true));
        assert_eq!(a.table, b.table, "replica grid must be reproducible");
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.summary, y.summary, "{x:?} vs {y:?}");
        }
    }
}
