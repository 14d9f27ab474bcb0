//! F4 — NoC topology characterization (claim C4, paper §6.1).
//!
//! "There is still much remaining work to be done to characterize the
//! various topologies — ranging from bus, ring, tree to full-crossbar — and
//! their effectiveness for different application domains." This experiment
//! does that work: saturation throughput and low-load latency per topology
//! under uniform and hotspot traffic.

use super::Ctx;
use crate::Table;
use nw_noc::{run_open_loop, saturation_load, OpenLoopConfig, TopologyKind, TrafficPattern};
use nw_sim::parallel_map_with;
use nw_types::NodeId;

/// One topology's characterization row.
#[derive(Debug, Clone)]
pub struct TopologyRow {
    /// Topology family.
    pub kind: TopologyKind,
    /// Endpoints simulated.
    pub n: usize,
    /// Mean low-load latency (cycles).
    pub low_load_latency: f64,
    /// Saturation load under uniform traffic (flits/cycle/node).
    pub saturation_uniform: f64,
    /// Saturation load under 30% hotspot traffic.
    pub saturation_hotspot: f64,
}

/// Structured result.
#[derive(Debug)]
pub struct F4Result {
    /// One row per topology.
    pub rows: Vec<TopologyRow>,
    /// Rendered table.
    pub table: String,
}

/// Runs F4 at 16 endpoints (32 when `fast` is false adds a second sweep).
pub fn run(ctx: Ctx) -> F4Result {
    let fast = ctx.fast;
    let sizes: &[usize] = if fast { &[16] } else { &[16, 32] };
    let kinds = [
        TopologyKind::SharedBus,
        TopologyKind::Ring,
        TopologyKind::Mesh,
        TopologyKind::Torus,
        TopologyKind::FatTree,
        TopologyKind::Crossbar,
    ];
    let base = OpenLoopConfig {
        warmup: if fast { 500 } else { 2_000 },
        measure: if fast { 4_000 } else { 12_000 },
        ..OpenLoopConfig::default()
    };
    let tol = if fast { 0.04 } else { 0.02 };

    // Every (size, topology) point simulates an independent NoC, so the
    // sweep fans out over the scoped worker pool; results come back in
    // input order, keeping the table byte-identical to the serial loop.
    let points: Vec<(usize, TopologyKind)> = sizes
        .iter()
        .flat_map(|&n| kinds.iter().map(move |&k| (n, k)))
        .collect();
    let rows = parallel_map_with(ctx.threads, points, |(n, kind)| {
        let mut low = base.clone();
        low.offered_load = 0.02;
        let low_r = run_open_loop(kind, n, &low).expect("valid sweep config");
        let sat_u = saturation_load(kind, n, &base, tol).expect("valid sweep config");
        let mut hot = base.clone();
        hot.pattern = TrafficPattern::Hotspot {
            target: NodeId(0),
            fraction: 0.3,
        };
        let sat_h = saturation_load(kind, n, &hot, tol).expect("valid sweep config");
        TopologyRow {
            kind,
            n,
            low_load_latency: low_r.mean_latency(),
            saturation_uniform: sat_u,
            saturation_hotspot: sat_h,
        }
    });

    let mut t = Table::new(&[
        "topology",
        "n",
        "latency @2% load",
        "saturation (uniform)",
        "saturation (hotspot 30%)",
    ]);
    for row in &rows {
        t.row_owned(vec![
            row.kind.to_string(),
            row.n.to_string(),
            format!("{:.1} cyc", row.low_load_latency),
            format!("{:.3} flits/cyc/node", row.saturation_uniform),
            format!("{:.3}", row.saturation_hotspot),
        ]);
    }
    F4Result {
        rows,
        table: format!(
            "F4  Topology characterization (paper §6.1: bus, ring, tree, crossbar)\n{}",
            t.render()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_matches_interconnect_theory() {
        let r = run(Ctx::new(true));
        let sat = |k: TopologyKind| {
            r.rows
                .iter()
                .find(|row| row.kind == k && row.n == 16)
                .unwrap()
                .saturation_uniform
        };
        // The bus is the floor; the crossbar the ceiling.
        assert!(sat(TopologyKind::SharedBus) < sat(TopologyKind::Ring));
        assert!(sat(TopologyKind::Ring) <= sat(TopologyKind::Mesh) + 0.02);
        assert!(sat(TopologyKind::Mesh) < sat(TopologyKind::Crossbar));
        assert!(sat(TopologyKind::FatTree) > sat(TopologyKind::SharedBus) * 2.0);
        // Hotspot never helps.
        for row in &r.rows {
            assert!(
                row.saturation_hotspot <= row.saturation_uniform + 0.03,
                "{row:?}"
            );
        }
    }
}
