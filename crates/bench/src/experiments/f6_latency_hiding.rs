//! F6 — hardware multithreading hides NoC latency (claim C6, paper §6.2).
//!
//! "Multithreading lets the processor execute other streams while another
//! thread is blocked on a high latency operation." The matrix below sweeps
//! one-way link latency against hardware thread count; the ablation
//! compares scheduling policies and swap penalties.

use super::Ctx;
use crate::Table;
use nanowall::scenarios::{latency_hiding_under, LatencyHidingPoint};
use nw_pe::SchedPolicy;

/// Structured result.
#[derive(Debug)]
pub struct F6Result {
    /// utilization\[latency_idx\]\[thread_idx\].
    pub matrix: Vec<Vec<LatencyHidingPoint>>,
    /// Latencies swept.
    pub latencies: Vec<u64>,
    /// Thread counts swept.
    pub threads: Vec<usize>,
    /// Rendered table.
    pub table: String,
}

/// Runs F6: utilization vs link latency × thread count, plus the
/// scheduling-policy ablation.
pub fn run(ctx: Ctx) -> F6Result {
    let latencies: Vec<u64> = vec![5, 25, 50, 100, 200];
    let threads: Vec<usize> = vec![1, 2, 4, 8, 16];
    let compute = 40;
    let cycles = if ctx.fast { 15_000 } else { 60_000 };

    let mut t = Table::new(&[
        "one-way latency",
        "1 thr",
        "2 thr",
        "4 thr",
        "8 thr",
        "16 thr",
    ]);
    let mut matrix = Vec::new();
    for &lat in &latencies {
        let mut row = Vec::new();
        let mut cells = vec![format!("{lat} cyc")];
        for &thr in &threads {
            let p = latency_hiding_under(
                ctx.scheduler,
                thr,
                lat,
                compute,
                SchedPolicy::SwitchOnStall,
                1,
                cycles,
            );
            cells.push(format!("{:.0}%", p.utilization * 100.0));
            row.push(p);
        }
        t.row_owned(cells);
        matrix.push(row);
    }

    // Ablation at the paper's ">100 cycle" point.
    let mut ab = Table::new(&["scheduling", "swap penalty", "utilization @100cyc, 8 thr"]);
    for (policy, name, pen) in [
        (SchedPolicy::SwitchOnStall, "switch-on-stall", 1u64),
        (SchedPolicy::SwitchOnStall, "switch-on-stall", 0),
        (SchedPolicy::SwitchOnStall, "switch-on-stall", 4),
        (SchedPolicy::RoundRobin, "round-robin (barrel)", 0),
    ] {
        let p = latency_hiding_under(ctx.scheduler, 8, 100, compute, policy, pen, cycles);
        ab.row_owned(vec![
            name.into(),
            format!("{pen} cyc"),
            format!("{:.1}%", p.utilization * 100.0),
        ]);
    }

    F6Result {
        matrix,
        latencies,
        threads,
        table: format!(
            "F6  Core utilization vs NoC latency x HW threads (paper §6.2, 1-cycle swap)\n{}\nScheduling ablation:\n{}",
            t.render(),
            ab.render()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_recover_utilization_at_high_latency() {
        let r = run(Ctx::new(true));
        // Row for 100-cycle latency.
        let idx = r.latencies.iter().position(|&l| l == 100).unwrap();
        let row = &r.matrix[idx];
        // Monotone improvement with thread count.
        for w in row.windows(2) {
            assert!(
                w[1].utilization >= w[0].utilization - 0.02,
                "{:?} then {:?}",
                w[0],
                w[1]
            );
        }
        // Claim C6/C7 shape: 1 thread starves, 16 threads near-full.
        assert!(row[0].utilization < 0.4, "1 thread: {}", row[0].utilization);
        assert!(
            row.last().unwrap().utilization > 0.9,
            "16 threads: {}",
            row.last().unwrap().utilization
        );
        // More latency always hurts a single-thread core.
        let single: Vec<f64> = r.matrix.iter().map(|row| row[0].utilization).collect();
        for w in single.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }
}
