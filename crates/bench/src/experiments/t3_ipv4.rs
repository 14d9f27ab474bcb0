//! T3 — IPv4 fast path at 10 Gb/s worst case (claim C7, paper §7.2).
//!
//! "We achieved near 100% utilization of the embedded processors and
//! threads, even in presence of NoC interconnect latencies of over 100
//! cycles, while processing worst-case traffic at a 10 Gbit line rate."
//!
//! The sweep grows the worker-PE pool until the platform holds the line.
//! The per-hop link latency is set so that the classify→lookup round trip
//! comfortably exceeds 100 cycles, and hardware threads are what keep the
//! workers busy across it.

use super::Ctx;
use crate::Table;
use nanowall::scenarios::ipv4_rig;
use nw_noc::TopologyKind;
use nw_sim::parallel_map_with;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Ipv4Point {
    /// Worker-chain replicas (worker PEs; +1 lookup ASIP).
    pub replicas: usize,
    /// Hardware threads per PE.
    pub threads: usize,
    /// Fraction of generated packets forwarded.
    pub forwarded_ratio: f64,
    /// Achieved egress rate in Gb/s.
    pub egress_gbps: f64,
    /// Mean worker-PE utilization.
    pub worker_utilization: f64,
    /// Mean NoC packet latency in cycles.
    pub noc_latency: f64,
}

/// Structured result.
#[derive(Debug)]
pub struct T3Result {
    /// Sweep over replica counts at 8 threads.
    pub sweep: Vec<Ipv4Point>,
    /// Thread ablation at the line-rate replica count.
    pub thread_ablation: Vec<Ipv4Point>,
    /// Rendered table.
    pub table: String,
}

fn measure(ctx: Ctx, replicas: usize, threads: usize, link_latency: u64, cycles: u64) -> Ipv4Point {
    let mut rig = ipv4_rig(replicas, threads, TopologyKind::Mesh, link_latency, 10.0);
    rig.platform.set_scheduler_mode(ctx.scheduler);
    let report = rig.run(cycles);
    let io = &report.io[0];
    let forwarded_ratio = if io.generated == 0 {
        0.0
    } else {
        io.transmitted as f64 / io.generated as f64
    };
    let worker_utilization =
        report.pe_utilization[..replicas].iter().sum::<f64>() / replicas as f64;
    Ipv4Point {
        replicas,
        threads,
        forwarded_ratio,
        egress_gbps: report.egress_pps(0) * 40.0 * 8.0 / 1e9,
        worker_utilization,
        noc_latency: report.noc.latency.mean(),
    }
}

/// Runs T3: replica sweep at 8 threads, then a thread ablation at the
/// line-rate point.
pub fn run(ctx: Ctx) -> T3Result {
    let fast = ctx.fast;
    // Per-hop latency 25 on a mesh: multi-hop round trips well over 100 cyc.
    let link_latency = 25;
    let cycles = if fast { 40_000 } else { 150_000 };
    let replica_sweep: &[usize] = if fast {
        &[2, 4, 8, 12, 16]
    } else {
        &[2, 4, 8, 12, 16, 20]
    };

    let mut t = Table::new(&[
        "worker PEs",
        "threads",
        "forwarded",
        "egress",
        "worker util",
        "NoC latency",
    ]);
    // Every sweep point builds its own platform, so the points are
    // embarrassingly parallel; `parallel_map_with` keeps input order, so the
    // rendered table is byte-identical to the serial loop.
    let sweep: Vec<Ipv4Point> = parallel_map_with(ctx.threads, replica_sweep.to_vec(), |r| {
        measure(ctx, r, 8, link_latency, cycles)
    });
    for p in &sweep {
        t.row_owned(vec![
            p.replicas.to_string(),
            p.threads.to_string(),
            format!("{:.0}%", p.forwarded_ratio * 100.0),
            format!("{:.2} Gb/s", p.egress_gbps),
            format!("{:.0}%", p.worker_utilization * 100.0),
            format!("{:.0} cyc", p.noc_latency),
        ]);
    }

    let line_rate_replicas = sweep
        .iter()
        .find(|p| p.forwarded_ratio > 0.95)
        .map(|p| p.replicas)
        .unwrap_or(16);
    let mut at = Table::new(&["threads", "forwarded", "egress", "worker util"]);
    let thread_ablation: Vec<Ipv4Point> =
        parallel_map_with(ctx.threads, vec![1usize, 2, 4, 8], |threads| {
            measure(ctx, line_rate_replicas, threads, link_latency, cycles)
        });
    for p in &thread_ablation {
        at.row_owned(vec![
            p.threads.to_string(),
            format!("{:.0}%", p.forwarded_ratio * 100.0),
            format!("{:.2} Gb/s", p.egress_gbps),
            format!("{:.0}%", p.worker_utilization * 100.0),
        ]);
    }

    T3Result {
        sweep,
        thread_ablation,
        table: format!(
            "T3  IPv4 fast path, 40B worst case at 10 Gb/s, >100-cycle NoC round trips (paper §7.2)\n{}\nThread ablation at {line_rate_replicas} worker PEs:\n{}",
            t.render(),
            at.render()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rate_reached_with_enough_workers() {
        let r = run(Ctx::new(true));
        // Undersized pools drop below line rate with saturated workers...
        let small = &r.sweep[0];
        assert!(small.forwarded_ratio < 0.9, "{small:?}");
        assert!(small.worker_utilization > 0.85, "{small:?}");
        // ...and the big pool holds (near) line rate.
        let big = r.sweep.last().unwrap();
        assert!(big.forwarded_ratio > 0.9, "{big:?}");
        assert!(big.egress_gbps > 8.0, "{big:?}");
        // Throughput is monotone in pool size (within noise).
        for w in r.sweep.windows(2) {
            assert!(w[1].egress_gbps >= w[0].egress_gbps - 0.3);
        }
        // Thread ablation: single-thread workers cannot hold the rate the
        // multithreaded ones do (claim C6/C7 coupling).
        let one = &r.thread_ablation[0];
        let eight = r.thread_ablation.last().unwrap();
        assert!(
            eight.forwarded_ratio > one.forwarded_ratio + 0.15,
            "{one:?} vs {eight:?}"
        );
    }
}
