//! The paper's §7.2 headline scenario: an IPv4 fast path processing
//! worst-case (40-byte) traffic at a 10 Gbit/s line rate on a
//! multiprocessor, hardware-multithreaded FPPA with NoC round trips over
//! 100 cycles.
//!
//! ```text
//! cargo run --release --example ipv4_fastpath
//! ```

use nanowall::scenarios::ipv4_rig;
use nw_noc::TopologyKind;

fn main() {
    println!("IPv4 fast path, 40B packets at 10 Gb/s, per-hop link latency 25 cycles\n");
    println!(
        "{:>10} {:>8} {:>10} {:>11} {:>12} {:>12}",
        "worker PEs", "threads", "forwarded", "egress", "worker util", "NoC latency"
    );
    for replicas in [4usize, 8, 12, 16] {
        let mut rig = ipv4_rig(replicas, 8, TopologyKind::Mesh, 25, 10.0);
        let report = rig.run(60_000);
        let io = &report.io[0];
        let forwarded = io.transmitted as f64 / io.generated.max(1) as f64;
        let worker_util: f64 =
            report.pe_utilization[..replicas].iter().sum::<f64>() / replicas as f64;
        println!(
            "{replicas:>10} {:>8} {:>9.0}% {:>8.2} Gb/s {:>11.0}% {:>8.0} cyc",
            8,
            forwarded * 100.0,
            report.egress_pps(0) * 320.0 / 1e9,
            worker_util * 100.0,
            report.noc.latency.mean(),
        );
    }
    println!(
        "\nThe paper's claim C7: near-100% utilization of processors and threads at a\n\
         10 Gbit line rate despite >100-cycle NoC latencies — reached once the worker\n\
         pool covers the per-packet work (compare the undersized rows above)."
    );
}
