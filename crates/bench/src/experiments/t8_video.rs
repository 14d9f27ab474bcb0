//! T8 — the §7.1 video codec pipeline: frame-sliced, memory-bound.
//!
//! The paper's platform pitch names the video pipeline as the workload the
//! FPPA fabric must carry alongside packet processing. This experiment
//! drives the `nw-apps` codec pipeline (ingest → motion-estimate →
//! transform → entropy-code → pack per slice lane, reference-frame fetches
//! against a shared eDRAM store) across line rates, then runs a MultiFlex
//! design-space sweep over the PE pool and extracts the Pareto front —
//! the "rapid exploration and optimization" loop of §7.2 applied to a
//! memory-bound workload.

use super::Ctx;
use crate::Table;
use nanowall::scenarios::video_rig;
use nw_apps::VideoParams;
use nw_mapping::{pareto_front, DsePoint};
use nw_sim::parallel_map_with;

/// One line-rate sweep point.
#[derive(Debug, Clone)]
pub struct VideoPoint {
    /// Offered slice rate in Gb/s.
    pub gbps: f64,
    /// Fraction of generated slices that left as packed bitstream.
    pub delivered_ratio: f64,
    /// Frames per second (lanes slices per frame) at the core clock.
    pub frames_per_sec: f64,
    /// Energy per packed slice in picojoules.
    pub energy_per_slice_pj: f64,
    /// Frame-store accesses per delivered slice.
    pub mem_accesses_per_slice: f64,
    /// Mean PE utilization.
    pub mean_util: f64,
}

/// Structured result.
#[derive(Debug)]
pub struct T8Result {
    /// Line-rate sweep at the default 4-lane pipeline.
    pub sweep: Vec<VideoPoint>,
    /// PE-pool design points evaluated by the DSE pass.
    pub dse: Vec<DsePoint>,
    /// Indices of the Pareto-efficient design points.
    pub front: Vec<usize>,
    /// Rendered table.
    pub table: String,
}

fn measure(
    ctx: Ctx,
    params: &VideoParams,
    n_pes: usize,
    gbps: f64,
    cycles: u64,
) -> (VideoPoint, u64) {
    let mut rig = video_rig(params, n_pes, 4, 4, gbps);
    rig.platform.set_scheduler_mode(ctx.scheduler);
    let report = rig.run(cycles);
    let io = &report.io[0];
    let delivered_ratio = if io.generated == 0 {
        0.0
    } else {
        io.transmitted as f64 / io.generated as f64
    };
    let point = VideoPoint {
        gbps,
        delivered_ratio,
        frames_per_sec: report.egress_pps(0) / params.lanes as f64,
        energy_per_slice_pj: report.energy_per_transmitted(0).map_or(0.0, |e| e.0),
        mem_accesses_per_slice: if io.transmitted == 0 {
            0.0
        } else {
            report.mem_accesses as f64 / io.transmitted as f64
        },
        mean_util: report.mean_pe_utilization(),
    };
    (point, io.transmitted)
}

/// Runs T8: line-rate sweep, then the PE-pool DSE at the knee rate.
pub fn run(ctx: Ctx) -> T8Result {
    let params = VideoParams::default();
    let cycles = if ctx.fast { 40_000 } else { 120_000 };
    let n_pes = 2 * params.lanes + 1;

    // Each sweep point simulates its own platform: fan out over the scoped
    // worker pool (results return in input order — same table, faster).
    let sweep: Vec<VideoPoint> = parallel_map_with(ctx.threads, vec![2.0, 4.0, 6.0, 8.0], |gbps| {
        measure(ctx, &params, n_pes, gbps, cycles).0
    });
    let mut t = Table::new(&[
        "line rate",
        "delivered",
        "frames/s",
        "pJ/slice",
        "mem/slice",
        "PE util",
    ]);
    for p in &sweep {
        t.row_owned(vec![
            format!("{:.1} Gb/s", p.gbps),
            format!("{:.0}%", p.delivered_ratio * 100.0),
            format!("{:.0}", p.frames_per_sec),
            format!("{:.0}", p.energy_per_slice_pj),
            format!("{:.1}", p.mem_accesses_per_slice),
            format!("{:.0}%", p.mean_util * 100.0),
        ]);
    }

    // DSE over the PE pool at a demanding rate: how few PEs still hold the
    // line? Quality is inverse delivered throughput, resource is the pool.
    // Pool sizes are independent design points — the sweep pool evaluates
    // them concurrently.
    let dse_cycles = cycles / 2;
    let dse: Vec<DsePoint> = parallel_map_with(ctx.threads, vec![3usize, 5, 7, 9, 11], |pool| {
        let (_, transmitted) = measure(ctx, &params, pool, 6.0, dse_cycles);
        let quality = 1.0 / (transmitted.max(1) as f64);
        DsePoint::new(format!("video-{pool}pe"), pool as f64, quality)
    });
    let front = pareto_front(&dse);
    let mut ft = Table::new(&["design point", "PEs", "1/slices", "on front"]);
    for (i, d) in dse.iter().enumerate() {
        ft.row_owned(vec![
            d.label.clone(),
            format!("{:.0}", d.resource),
            format!("{:.2e}", d.quality),
            if front.contains(&i) {
                "*".into()
            } else {
                String::new()
            },
        ]);
    }

    T8Result {
        sweep,
        dse,
        front,
        table: format!(
            "T8  Video codec pipeline: {} slice lanes, memory-bound motion search (paper §7.1)\n{}\nPE-pool DSE at 6 Gb/s (MultiFlex greedy placement, Pareto front starred):\n{}",
            params.lanes,
            t.render(),
            ft.render()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_pipeline_is_nondegenerate_and_memory_bound() {
        let r = run(Ctx::new(true));
        // A sustainable rate delivers most slices with nonzero energy.
        let easy = &r.sweep[0];
        assert!(easy.delivered_ratio > 0.8, "{easy:?}");
        assert!(easy.energy_per_slice_pj > 0.0, "{easy:?}");
        // Every delivered slice hit the frame store at least ref_fetches
        // times (the memory-bound signature).
        assert!(easy.mem_accesses_per_slice >= 3.9, "{easy:?}");
        // Utilization grows with offered load.
        assert!(
            r.sweep.last().unwrap().mean_util > easy.mean_util,
            "{:?}",
            r.sweep
        );
        // The DSE front is non-empty and sorted by resource.
        assert!(!r.front.is_empty());
        for w in r.front.windows(2) {
            assert!(r.dse[w[0]].resource <= r.dse[w[1]].resource);
        }
    }
}
