//! Post-run platform reports.

use crate::platform::FppaPlatform;
use crate::resilience::ResilienceStats;
use nw_noc::NocStats;
use nw_types::{Cycles, Picojoules};

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

/// Summary of one platform run.
///
/// Collected by [`FppaPlatform::run`] / [`FppaPlatform::report`].
///
/// `PartialEq` compares every field exactly (f64s bit-for-bit via `==`), so
/// the scheduler differential tests can assert two runs are identical.
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
            hwip_served: services.hwips().map(|(_, _, s, _)| s.served()).sum(),
            resilience: p.resilience_stats(),
        }
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
