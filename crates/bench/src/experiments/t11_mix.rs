//! T11 — mixed workloads on one fabric: the interference experiment.
//!
//! The paper's platform thesis is that heterogeneous applications share a
//! single FPPA under quantified budgets — not merely that each runs well
//! alone. This experiment installs the video codec and an IPv4 fast path
//! *together* (one application graph, one mapper run, one NoC, one frame
//! store) and sweeps both offered loads. The observable is per-workload
//! end-to-end latency: as the video half saturates its lanes, the packet
//! half's route-lookup round trips stretch and start blowing their
//! deadline budget, even while packet throughput still looks healthy —
//! exactly the interference that throughput-only reporting misses.
//!
//! A second section restates the modem rig's deadline behaviour with the
//! same telemetry: the channel-estimate p50/p95/p99 and the deadline-miss
//! rate with and without hardware multithreading.

use super::t9_modem::{self, ModemPoint};
use super::Ctx;
use crate::Table;
use nanowall::scenarios::{mix_demo_params, mix_pe_pool, mix_rig_detailed};
use nanowall::{FppaPlatform, PlatformReport};
use nw_apps::{MixParams, MixWorkload};
use nw_sim::{parallel_map_with, LatencyHistogram};
use nw_types::ObjectId;

/// One point of the interference grid.
#[derive(Debug, Clone)]
pub struct MixPoint {
    /// Offered video line rate (channel 0).
    pub video_gbps: f64,
    /// Offered IPv4 line rate (channel 1).
    pub ipv4_gbps: f64,
    /// Fraction of generated slices packed and transmitted.
    pub video_delivered: f64,
    /// Fraction of generated packets rewritten and transmitted.
    pub ipv4_delivered: f64,
    /// Video-workload end-to-end latency percentiles in cycles, merged
    /// across every video object with recorded round trips (frame-store
    /// fetches and rate-control queries): p50, p95, p99.
    pub video_p50: u64,
    /// 95th percentile (see `video_p50`).
    pub video_p95: u64,
    /// 99th percentile (see `video_p50`).
    pub video_p99: u64,
    /// Route-lookup round-trip percentiles in cycles: p50, p95, p99.
    pub lookup_p50: u64,
    /// 95th percentile (see `lookup_p50`).
    pub lookup_p95: u64,
    /// 99th percentile (see `lookup_p50`).
    pub lookup_p99: u64,
    /// The route-lookup deadline budget in cycles.
    pub lookup_deadline: u64,
    /// Raw count of lookup round trips that blew the budget — the same
    /// counter the trace layer emits as [`nanowall::TraceEvent::DeadlineMiss`]
    /// instants, so a Perfetto capture of a grid point and this table agree
    /// event for event.
    pub lookup_misses: u64,
    /// Fraction of lookup round trips that blew the budget.
    pub lookup_miss_rate: f64,
}

/// Structured result.
#[derive(Debug)]
pub struct T11Result {
    /// The video-rate × ipv4-rate interference grid.
    pub grid: Vec<MixPoint>,
    /// The modem deadline restatement (thread ablation under stress),
    /// measured by T9's own rig harness ([`t9_modem`]).
    pub modem: Vec<ModemPoint>,
    /// Rendered table.
    pub table: String,
}

/// Reads one grid point off a platform carrying the mix and the report of
/// the window it just ran. The video percentiles merge the latency
/// histograms of every video stage (stages without samples contribute
/// nothing); stage indices resolve to installed objects through the rig's
/// stage → object directory, which a forked replica shares with its parent.
fn point(
    platform: &FppaPlatform,
    report: &PlatformReport,
    workload: &MixWorkload,
    objects: &[ObjectId],
    (video_gbps, ipv4_gbps): (f64, f64),
) -> MixPoint {
    let mut video = LatencyHistogram::new();
    for &s in &workload.video_stages {
        if let Some(obj) = platform.object_latency(objects[s]) {
            video.merge(obj);
        }
    }
    let lookup = report
        .object_latency(objects[workload.route_lookup].0)
        .expect("lookup latency is tracked");
    let delivered = |ch: usize| {
        let r = &report.io[ch];
        if r.generated == 0 {
            0.0
        } else {
            r.transmitted as f64 / r.generated as f64
        }
    };
    MixPoint {
        video_gbps,
        ipv4_gbps,
        video_delivered: delivered(0),
        ipv4_delivered: delivered(1),
        video_p50: video.p50().0,
        video_p95: video.p95().0,
        video_p99: video.p99().0,
        lookup_p50: lookup.p50.0,
        lookup_p95: lookup.p95.0,
        lookup_p99: lookup.p99.0,
        lookup_deadline: lookup.deadline.expect("mix rig sets the budget"),
        lookup_misses: lookup.deadline_misses,
        lookup_miss_rate: lookup.miss_rate(),
    }
}

fn measure(ctx: Ctx, params: &MixParams, rates: (f64, f64), cycles: u64) -> MixPoint {
    let mut mix = mix_rig_detailed(params, mix_pe_pool(params), 4, 4, rates.0, rates.1);
    mix.rig.platform.set_scheduler_mode(ctx.scheduler);
    let report = mix.rig.run(cycles);
    point(
        &mix.rig.platform,
        &report,
        &mix.workload,
        &mix.objects,
        rates,
    )
}

/// The grid's (video, ipv4) rate axes.
///
/// The ipv4 axis stays within what the packet chains sustain alone
/// (40-byte worst-case packets), so rising tail latency and deadline
/// misses measure *interference* from the video half, not plain
/// single-workload overload.
fn grid_points(fast: bool) -> Vec<(f64, f64)> {
    let video_rates: &[f64] = if fast { &[1.0, 6.0] } else { &[1.0, 4.0, 8.0] };
    let ipv4_rates: &[f64] = if fast { &[0.3, 1.5] } else { &[0.5, 1.5, 2.5] };
    video_rates
        .iter()
        .flat_map(|&v| ipv4_rates.iter().map(move |&i| (v, i)))
        .collect()
}

/// The interference grid alone (no modem section), under either protocol.
///
/// Cold: every grid point simulates an independent platform from cycle 0,
/// so the whole surface fans out over the worker pool; order is preserved,
/// keeping the table byte-identical to a serial run.
///
/// Warm-fork: one platform is built at the calmest corner's rates, run to
/// the halfway point, and snapshotted; every grid point then forks from
/// that snapshot, retunes the two I/O channel rates, and measures the
/// second half only. Structure (placement, lanes) is pinned at the warmup
/// corner's, and the telemetry covers warmup + measurement — a different,
/// labeled protocol that pays the warmup cost once instead of per point.
fn grid(ctx: Ctx) -> Vec<MixPoint> {
    let cycles = if ctx.fast { 40_000 } else { 120_000 };
    let params = mix_demo_params(ctx.fast);
    let points = grid_points(ctx.fast);
    if !ctx.warm_fork {
        return parallel_map_with(ctx.threads, points, |rates| {
            measure(ctx, &params, rates, cycles)
        });
    }

    let warm = cycles / 2;
    let window = cycles - warm;
    let (v0, i0) = points[0];
    let mut parent = mix_rig_detailed(&params, mix_pe_pool(&params), 4, 4, v0, i0);
    parent.rig.platform.set_scheduler_mode(ctx.scheduler);
    let _ = parent.rig.run(warm);
    let snap = parent.rig.platform.snapshot();
    let forks: Vec<((f64, f64), FppaPlatform)> = points
        .iter()
        .map(|&(v, i)| {
            let mut p = FppaPlatform::from_snapshot(&snap);
            p.set_io_rate(0, nw_types::BitsPerSec::from_gbps(v))
                .expect("grid rates are positive");
            p.set_io_rate(1, nw_types::BitsPerSec::from_gbps(i))
                .expect("grid rates are positive");
            ((v, i), p)
        })
        .collect();
    parallel_map_with(ctx.threads, forks, |(rates, mut p)| {
        let report = p.run(window);
        point(&p, &report, &parent.workload, &parent.objects, rates)
    })
}

/// Runs T11: the interference grid, then the modem deadline restatement.
/// Under `ctx.warm_fork` the grid warms one platform to the halfway point
/// and forks it per grid point, rates retuned; the modem section is
/// unchanged (its thread-count axis is structural, so no warmup can be
/// shared).
pub fn run(ctx: Ctx) -> T11Result {
    let cycles = if ctx.fast { 40_000 } else { 120_000 };
    let grid = grid(ctx);

    let mut t = Table::new(&[
        "video Gb/s",
        "ipv4 Gb/s",
        "video del",
        "ipv4 del",
        "video p50/p95/p99",
        "lookup p50/p95/p99",
        "deadline",
        "misses",
        "miss",
    ]);
    for p in &grid {
        t.row_owned(vec![
            format!("{:.1}", p.video_gbps),
            format!("{:.1}", p.ipv4_gbps),
            format!("{:.0}%", p.video_delivered * 100.0),
            format!("{:.0}%", p.ipv4_delivered * 100.0),
            format!("{}/{}/{} cyc", p.video_p50, p.video_p95, p.video_p99),
            format!("{}/{}/{} cyc", p.lookup_p50, p.lookup_p95, p.lookup_p99),
            format!("{} cyc", p.lookup_deadline),
            p.lookup_misses.to_string(),
            format!("{:.1}%", p.lookup_miss_rate * 100.0),
        ]);
    }

    // A deliberate restatement of T9's stress ablation, measured by T9's
    // own harness so the two tables cannot drift: T11 is the latency
    // experiment, and its output must answer "does the modem meet its
    // deadline?" on its own.
    let modem: Vec<ModemPoint> = parallel_map_with(ctx.threads, vec![1usize, 2, 4], |threads| {
        t9_modem::measure(ctx, 50, threads, 1800.0, cycles)
    });
    let mut mt = Table::new(&["threads", "est p50/p95/p99", "miss"]);
    for p in &modem {
        mt.row_owned(vec![
            p.threads.to_string(),
            format!("{}/{}/{} cyc", p.est_p50, p.est_p95, p.est_p99),
            format!("{:.1}%", p.est_miss_rate * 100.0),
        ]);
    }

    let protocol = if ctx.warm_fork {
        " [warm-fork: one warmed snapshot, rates retuned per point, second half measured]"
    } else {
        ""
    };
    T11Result {
        table: format!(
            "T11  Mixed workloads on one fabric: video codec + IPv4 fast path, per-workload end-to-end latency{protocol}\n{}\nModem deadline under stress (50-cycle links, 1800 Mb/s): channel-estimate round trips vs budget\n{}",
            t.render(),
            mt.render()
        ),
        grid,
        modem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interference_shows_up_in_packet_latency() {
        let r = run(Ctx::new(true));
        assert_eq!(r.grid.len(), 4);
        // Every point measures both workloads.
        for p in &r.grid {
            assert!(p.video_p50 > 0, "{p:?}");
            assert!(p.lookup_p50 > 0, "{p:?}");
            assert!(
                p.lookup_p50 <= p.lookup_p95 && p.lookup_p95 <= p.lookup_p99,
                "{p:?}"
            );
        }
        // The gentle corner delivers both workloads and meets the budget.
        let calm = &r.grid[0];
        assert!(calm.video_delivered > 0.7, "{calm:?}");
        assert!(calm.ipv4_delivered > 0.7, "{calm:?}");
        assert!(calm.lookup_miss_rate < 0.05, "{calm:?}");
        // Cranking the video load stretches the packet tail: the hottest
        // corner's lookup p99 dominates the calm corner's.
        let hot = r.grid.last().unwrap();
        assert!(hot.lookup_p99 >= calm.lookup_p99, "{calm:?} vs {hot:?}");
        // The modem section reports live percentiles and recovers its
        // deadline with threads.
        assert_eq!(r.modem.len(), 3);
        let one = &r.modem[0];
        let four = r.modem.last().unwrap();
        assert!(one.est_p50 > 0, "{one:?}");
        assert!(
            one.est_miss_rate >= four.est_miss_rate,
            "{one:?} vs {four:?}"
        );
    }

    /// The warm-fork protocol measures the same interference physics on a
    /// shared warmed snapshot: every point still records both workloads,
    /// the retuned rates actually take (points diverge), and the whole
    /// grid is deterministic across reruns.
    #[test]
    fn warm_fork_grid_is_live_retuned_and_deterministic() {
        let warm = Ctx {
            warm_fork: true,
            ..Ctx::new(true)
        };
        let a = run(warm);
        assert_eq!(a.grid.len(), 4);
        for p in &a.grid {
            assert!(p.video_p50 > 0, "{p:?}");
            assert!(p.lookup_p50 > 0, "{p:?}");
            assert!(p.video_delivered > 0.0, "{p:?}");
        }
        // Retuning is real: the hot corner's offered video load dwarfs the
        // calm corner's generated traffic even though both share a warmup.
        let calm = &a.grid[0];
        let hot = a.grid.last().unwrap();
        assert!(
            hot.lookup_p99 >= calm.lookup_p99,
            "video pressure must stretch the packet tail: {calm:?} vs {hot:?}"
        );
        assert!(a.table.contains("warm-fork"), "{}", a.table);

        let b = run(warm);
        assert_eq!(a.table, b.table, "warm-fork grid must be reproducible");
    }

    /// The trace layer and the interference table count the same misses:
    /// rerun the grid's hottest corner with a trace sink installed and
    /// check the `DeadlineMiss` instants attributed to the route-lookup
    /// object match the report's `deadline_misses` exactly.
    #[test]
    fn trace_deadline_misses_agree_with_the_grid() {
        use nanowall::{RingBufferSink, TraceEvent};

        let cycles = 40_000;
        let params = mix_demo_params(true);
        let point = measure(Ctx::new(true), &params, (8.0, 2.5), cycles);

        let mut mix = mix_rig_detailed(&params, mix_pe_pool(&params), 4, 4, 8.0, 2.5);
        mix.rig
            .platform
            .set_trace_sink(Box::new(RingBufferSink::new(1 << 18)));
        mix.rig.run(cycles);
        let mut sink = mix.rig.platform.take_trace_sink().expect("sink installed");
        let ring = sink
            .as_any_mut()
            .downcast_mut::<RingBufferSink>()
            .expect("ring sink");
        assert_eq!(ring.dropped(), 0, "ring must hold the whole capture");
        let lookup_obj = mix.objects[mix.workload.route_lookup].0;
        let traced_misses = ring
            .drain()
            .iter()
            .filter(
                |e| matches!(e, TraceEvent::DeadlineMiss { object, .. } if *object == lookup_obj),
            )
            .count() as u64;
        assert_eq!(
            traced_misses, point.lookup_misses,
            "trace and table disagree on lookup deadline misses"
        );
        assert!(traced_misses > 0, "the hot corner must miss its budget");
    }
}
