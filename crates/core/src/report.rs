//! Post-run platform reports.

use crate::platform::FppaPlatform;
use crate::resilience::ResilienceStats;
use nw_noc::NocStats;
use nw_types::{Cycles, Picojoules};
use std::fmt;

/// End-to-end invocation-latency summary of one application object.
///
/// Samples are synchronous round trips measured request-issue →
/// reply-delivery and attributed to the object: the service-node offload
/// calls its handler performs (see [`FppaPlatform::bind_service`]) and the
/// twoway invocations it answers. Percentiles come from the object's
/// log-scale [`nw_sim::LatencyHistogram`] (≤ 6.25% above the
/// true order statistic); `max` and `mean` are exact.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectLatency {
    /// Round trips recorded.
    pub count: u64,
    /// Median end-to-end latency.
    pub p50: Cycles,
    /// 95th-percentile latency.
    pub p95: Cycles,
    /// 99th-percentile latency.
    pub p99: Cycles,
    /// Worst observed latency (exact).
    pub max: Cycles,
    /// Mean latency in cycles (exact).
    pub mean: f64,
    /// The object's deadline budget, if one was set
    /// ([`FppaPlatform::set_latency_deadline`]).
    pub deadline: Option<u64>,
    /// Recorded round trips that exceeded the deadline budget.
    pub deadline_misses: u64,
}

impl ObjectLatency {
    /// Fraction of recorded round trips that missed the deadline
    /// (0.0 without samples or without a deadline).
    pub fn miss_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.count as f64
        }
    }
}

/// Per-I/O-channel figures.
#[derive(Debug, Clone, PartialEq)]
pub struct IoReport {
    /// Packets the wire delivered (including dropped ones).
    pub generated: u64,
    /// Packets dropped at the RX FIFO (processing fell behind).
    pub dropped: u64,
    /// Packets transmitted on egress.
    pub transmitted: u64,
}

/// One value of a [`PlatformReport`], as [`PlatformReport::values`] lists
/// it.
///
/// Equality is bit-exact: two `F64`s are equal when their bits are, so
/// `-0.0` differs from `0.0` and a NaN equals itself. `Display` renders a
/// value so that it parses back to the same bits: an integer in decimal, a
/// float with Rust's shortest round-trip `{:?}` (`-0.0` apart from `0.0`),
/// and an absent value as `none`.
#[derive(Debug, Clone, Copy)]
pub enum ReportValue {
    /// An exact count: a `u64`, or the `u128` sum of a [`Moments`](nw_sim::Moments).
    Int(u128),
    /// A float, compared by its bits.
    F64(f64),
    /// An optional value that is not there: no deadline set, or no sample
    /// to take a minimum or maximum of.
    Absent,
}

impl PartialEq for ReportValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ReportValue::Int(a), ReportValue::Int(b)) => a == b,
            (ReportValue::F64(a), ReportValue::F64(b)) => a.to_bits() == b.to_bits(),
            (ReportValue::Absent, ReportValue::Absent) => true,
            _ => false,
        }
    }
}

impl Eq for ReportValue {}

impl fmt::Display for ReportValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportValue::Int(n) => write!(f, "{n}"),
            ReportValue::F64(x) => write!(f, "{x:?}"),
            ReportValue::Absent => f.write_str("none"),
        }
    }
}

impl From<u64> for ReportValue {
    fn from(n: u64) -> Self {
        ReportValue::Int(n.into())
    }
}

impl From<f64> for ReportValue {
    fn from(x: f64) -> Self {
        ReportValue::F64(x)
    }
}

impl From<Option<u64>> for ReportValue {
    fn from(n: Option<u64>) -> Self {
        n.map_or(ReportValue::Absent, ReportValue::from)
    }
}

/// Summary of one platform run.
///
/// Collected by [`FppaPlatform::run`] / [`FppaPlatform::report`].
///
/// `PartialEq` compares every field with `==`, which for the f64s is IEEE
/// equality, not bit equality: `-0.0 == 0.0` and `NaN != NaN`. Compare
/// [`PlatformReport::values`] for a bit-exact verdict that also names the
/// first value that differs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformReport {
    /// Cycles covered by the report.
    pub cycles: Cycles,
    /// Core clock at the configured node.
    pub clock_hz: f64,
    /// Tasks (invocations) run to completion across all PEs.
    pub tasks_completed: u64,
    /// Core utilization per PE (fraction of cycles issuing).
    pub pe_utilization: Vec<f64>,
    /// Mean per-thread task occupancy per PE.
    pub thread_occupancy: Vec<f64>,
    /// NoC statistics snapshot.
    pub noc: NocStats,
    /// Per-channel I/O figures.
    pub io: Vec<IoReport>,
    /// Total dynamic energy.
    pub energy: Picojoules,
    /// Invocations still queued at the dispatcher.
    pub queued_invocations: usize,
    /// Invocations dispatched per application object (empty when no
    /// application is installed) — the per-stage throughput input for the
    /// workload rigs.
    pub object_invocations: Vec<u64>,
    /// Per-object end-to-end latency summaries, indexed by object id
    /// (empty when no application is installed). Zero-count entries mean
    /// the object recorded no synchronous round trips in the window.
    pub latency: Vec<ObjectLatency>,
    /// Memory accesses served across all controllers.
    pub mem_accesses: u64,
    /// Items served by eFPGA fabrics.
    pub fabric_served: u64,
    /// Items served by hardwired IP blocks.
    pub hwip_served: u64,
    /// Fault-injection and recovery counters (all zeros when no fault
    /// campaign or retry policy is installed).
    pub resilience: ResilienceStats,
}

impl PlatformReport {
    pub(crate) fn collect(p: &FppaPlatform, cycles: Cycles) -> Self {
        let pe_stats: Vec<_> = p.sim.pes.iter().map(|pe| pe.stats()).collect();
        let services = &p.sim.services;
        PlatformReport {
            cycles,
            clock_hz: p.clock_hz(),
            tasks_completed: pe_stats.iter().map(|s| s.tasks_completed).sum(),
            pe_utilization: pe_stats.iter().map(|s| s.core_utilization).collect(),
            thread_occupancy: pe_stats
                .iter()
                .map(|s| {
                    if s.thread_occupancy.is_empty() {
                        0.0
                    } else {
                        s.thread_occupancy.iter().sum::<f64>() / s.thread_occupancy.len() as f64
                    }
                })
                .collect(),
            noc: p.sim.noc.stats(),
            io: p
                .sim
                .ios
                .iter()
                .map(|io| IoReport {
                    generated: io.generated(),
                    dropped: io.dropped(),
                    transmitted: io.transmitted(),
                })
                .collect(),
            energy: p.total_energy(),
            queued_invocations: p.runtime().map_or(0, |r| r.queued_invocations()),
            object_invocations: p
                .runtime()
                .map_or_else(Vec::new, |r| r.object_dispatches().to_vec()),
            latency: p
                .sim
                .calls
                .objects()
                .iter()
                .map(|o| ObjectLatency {
                    count: o.histogram.count(),
                    p50: o.histogram.p50(),
                    p95: o.histogram.p95(),
                    p99: o.histogram.p99(),
                    max: o.histogram.max().unwrap_or(Cycles::ZERO),
                    mean: o.histogram.mean(),
                    deadline: o.deadline,
                    deadline_misses: o.misses,
                })
                .collect(),
            mem_accesses: services.memories().map(|(_, m)| m.served()).sum(),
            fabric_served: services.fabrics().map(|(_, f)| f.served()).sum(),
            hwip_served: services.hwips().map(|(.., s)| s.served()).sum(),
            resilience: p.resilience_stats(),
        }
    }

    /// Every value of the report by name, in field declaration order: the
    /// report as `expt identity` pins it and `expt parity` compares it.
    ///
    /// Names follow the fields: `cycles`, `pe_utilization[3]`,
    /// `noc.latency.sum`, `io[0].transmitted`, `latency[7].p99`,
    /// `resilience.retries`. Each vector contributes one name per element.
    /// The list holds every value the derived `Debug` prints, with a
    /// [`Moments`](nw_sim::Moments)' minimum and maximum `none` while it has no sample. The
    /// report structs are destructured without `..`, so a new field does
    /// not compile until it is named here.
    pub fn values(&self) -> Vec<(String, ReportValue)> {
        let PlatformReport {
            cycles,
            clock_hz,
            tasks_completed,
            pe_utilization,
            thread_occupancy,
            noc:
                NocStats {
                    injected,
                    delivered,
                    refused,
                    flit_hops,
                    latency: noc_latency,
                },
            io,
            energy,
            queued_invocations,
            object_invocations,
            latency,
            mem_accesses,
            fabric_served,
            hwip_served,
            resilience:
                ResilienceStats {
                    faults_injected,
                    links_failed,
                    reroutes,
                    packets_dropped,
                    flits_dropped,
                    packets_corrupted,
                    pe_crashes,
                    pe_restarts,
                    retries,
                    retry_give_ups,
                    duplicate_replies_dropped,
                },
        } = self;
        let mut out = Vec::new();
        let mut put = |name: String, v: ReportValue| out.push((name, v));
        let cycle = |c: Option<Cycles>| ReportValue::from(c.map(|c| c.0));
        put("cycles".into(), cycles.0.into());
        put("clock_hz".into(), (*clock_hz).into());
        put("tasks_completed".into(), (*tasks_completed).into());
        for (i, &u) in pe_utilization.iter().enumerate() {
            put(format!("pe_utilization[{i}]"), u.into());
        }
        for (i, &o) in thread_occupancy.iter().enumerate() {
            put(format!("thread_occupancy[{i}]"), o.into());
        }
        put("noc.injected".into(), (*injected).into());
        put("noc.delivered".into(), (*delivered).into());
        put("noc.refused".into(), (*refused).into());
        put("noc.flit_hops".into(), (*flit_hops).into());
        put("noc.latency.count".into(), noc_latency.count().into());
        put(
            "noc.latency.sum".into(),
            ReportValue::Int(noc_latency.sum()),
        );
        put("noc.latency.min".into(), cycle(noc_latency.min()));
        put("noc.latency.max".into(), cycle(noc_latency.max()));
        for (i, channel) in io.iter().enumerate() {
            let IoReport {
                generated,
                dropped,
                transmitted,
            } = channel;
            put(format!("io[{i}].generated"), (*generated).into());
            put(format!("io[{i}].dropped"), (*dropped).into());
            put(format!("io[{i}].transmitted"), (*transmitted).into());
        }
        put("energy".into(), energy.0.into());
        put(
            "queued_invocations".into(),
            (*queued_invocations as u64).into(),
        );
        for (i, &n) in object_invocations.iter().enumerate() {
            put(format!("object_invocations[{i}]"), n.into());
        }
        for (i, object) in latency.iter().enumerate() {
            let ObjectLatency {
                count,
                p50,
                p95,
                p99,
                max,
                mean,
                deadline,
                deadline_misses,
            } = object;
            put(format!("latency[{i}].count"), (*count).into());
            put(format!("latency[{i}].p50"), p50.0.into());
            put(format!("latency[{i}].p95"), p95.0.into());
            put(format!("latency[{i}].p99"), p99.0.into());
            put(format!("latency[{i}].max"), max.0.into());
            put(format!("latency[{i}].mean"), (*mean).into());
            put(format!("latency[{i}].deadline"), (*deadline).into());
            put(
                format!("latency[{i}].deadline_misses"),
                (*deadline_misses).into(),
            );
        }
        put("mem_accesses".into(), (*mem_accesses).into());
        put("fabric_served".into(), (*fabric_served).into());
        put("hwip_served".into(), (*hwip_served).into());
        for (name, n) in [
            ("faults_injected", faults_injected),
            ("links_failed", links_failed),
            ("reroutes", reroutes),
            ("packets_dropped", packets_dropped),
            ("flits_dropped", flits_dropped),
            ("packets_corrupted", packets_corrupted),
            ("pe_crashes", pe_crashes),
            ("pe_restarts", pe_restarts),
            ("retries", retries),
            ("retry_give_ups", retry_give_ups),
            ("duplicate_replies_dropped", duplicate_replies_dropped),
        ] {
            put(format!("resilience.{name}"), (*n).into());
        }
        out
    }

    /// Mean core utilization across PEs.
    pub fn mean_pe_utilization(&self) -> f64 {
        if self.pe_utilization.is_empty() {
            0.0
        } else {
            self.pe_utilization.iter().sum::<f64>() / self.pe_utilization.len() as f64
        }
    }

    /// Completed tasks per cycle.
    pub fn tasks_per_cycle(&self) -> f64 {
        if self.cycles == Cycles::ZERO {
            0.0
        } else {
            self.tasks_completed as f64 / self.cycles.0 as f64
        }
    }

    /// Egress packet rate of channel `io` in packets per second.
    pub fn egress_pps(&self, io: usize) -> f64 {
        if self.cycles == Cycles::ZERO || io >= self.io.len() {
            return 0.0;
        }
        self.io[io].transmitted as f64 / self.cycles.to_seconds(self.clock_hz)
    }

    /// The latency summary of one application object, or `None` when no
    /// application is installed or the id is out of range.
    pub fn object_latency(&self, object: usize) -> Option<&ObjectLatency> {
        self.latency.get(object)
    }

    /// Total dynamic energy per item transmitted on channel `io` — the
    /// energy-per-frame / energy-per-payload figure of the workload rigs.
    /// `None` when nothing was transmitted.
    pub fn energy_per_transmitted(&self, io: usize) -> Option<Picojoules> {
        match self.io.get(io) {
            Some(r) if r.transmitted > 0 => Some(Picojoules(self.energy.0 / r.transmitted as f64)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ReportValue::{self, Absent, Int, F64};

    #[test]
    fn values_compare_by_bits_and_render_to_the_same_bits() {
        assert_ne!(F64(-0.0), F64(0.0));
        assert_eq!(F64(f64::NAN), F64(f64::NAN));
        assert_ne!(Int(0), Absent);
        assert_ne!(F64(0.0), Int(0));
        let shown = [
            F64(-0.0),
            F64(0.0),
            F64(0.1),
            F64(1e300),
            Int(u128::MAX),
            Absent,
        ];
        let shown = shown.map(|v| v.to_string());
        assert_eq!(
            shown,
            [
                "-0.0",
                "0.0",
                "0.1",
                "1e300",
                &u128::MAX.to_string(),
                "none"
            ]
        );
        for x in [-0.0, 0.1, 1.0 / 3.0, f64::MIN_POSITIVE / 3.0, f64::MAX] {
            let back: f64 = F64(x).to_string().parse().unwrap();
            assert_eq!(F64(back), F64(x));
        }
        assert_eq!(ReportValue::from(None), Absent);
        assert_eq!(ReportValue::from(Some(7)), Int(7));
    }
}
