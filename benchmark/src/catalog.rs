//! Names, units and directions of every metric the benchmark prints.
//!
//! `BENCHMARK.json` lists the same entries; a unit test holds the two
//! together. A run fails instead of printing a result when it did not
//! measure every metric of the list it was asked for, so a metric cannot
//! silently go missing.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit of the printed value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// For end-to-end metrics: the share of the reference median by which
    /// the metric may worsen before it counts as a regression. `None` for
    /// per-layer metrics, which explain and are never judged.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, measured with tracing off.
///
/// `setup_s` and `sim_cycles_per_s` are host time at reference host speed
/// (see `calib`). The three `sim_*` metrics are simulated-domain: they
/// repeat exactly on the unseeded workloads and move with `--seed` only on
/// `mix-fork-faults`. Failed operations are not listed here: they are the
/// `failed` / `attempted` keys of the result line.
///
/// Each bound is at least three times the widest quartile spread seen over
/// six sets of ten seeds per workload: 6.4 % for `sim_cycles_per_s`, 1.8 %
/// for `peak_rss_mb`, 0.1 % for throughput and delivery on
/// `mix-fork-faults`; `sim_worst_p99_cycles` moves in histogram buckets of
/// about 9 %, and one bucket must not read as a regression.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sim_cycles_per_s", "1/s", Higher, 0.20),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("sim_tasks_per_kcycle", "1/kcycle", Higher, 0.02),
    e2e("sim_io_delivery_ratio", "ratio", Higher, 0.03),
    e2e("sim_worst_p99_cycles", "cycles", Lower, 0.15),
];

/// What single layers did, from the traced run. Layer = crate.
pub const PER_LAYER: [MetricDef; 92] = [
    // core: host seconds and laps per scheduler phase of the traced
    // repetition, and how much of its wall-clock the phases account for.
    layer("core.phase.io_pacing_s", "s", Lower),
    layer("core.phase.noc_tick_s", "s", Lower),
    layer("core.phase.route_arrivals_s", "s", Lower),
    layer("core.phase.services_s", "s", Lower),
    layer("core.phase.dispatch_s", "s", Lower),
    layer("core.phase.pe_step_s", "s", Lower),
    layer("core.phase.outbox_s", "s", Lower),
    layer("core.phase.fast_forward_s", "s", Lower),
    layer("core.phase.settle_s", "s", Lower),
    layer("core.phase.io_pacing_laps", "count", Lower),
    layer("core.phase.noc_tick_laps", "count", Lower),
    layer("core.phase.route_arrivals_laps", "count", Lower),
    layer("core.phase.services_laps", "count", Lower),
    layer("core.phase.dispatch_laps", "count", Lower),
    layer("core.phase.pe_step_laps", "count", Lower),
    layer("core.phase.outbox_laps", "count", Lower),
    layer("core.phase.fast_forward_laps", "count", Lower),
    layer("core.phase.settle_laps", "count", Lower),
    layer("core.attributed_share", "ratio", Higher),
    // obs: what observing costs.
    layer("obs.profiler_overhead_ratio", "ratio", Lower),
    layer("obs.trace_sink_overhead_ratio", "ratio", Lower),
    // core: set-up and checkpoint costs on the warmed platform.
    layer("core.build_us", "us", Lower),
    layer("core.snapshot_us", "us", Lower),
    layer("core.from_snapshot_us", "us", Lower),
    layer("core.restore_us", "us", Lower),
    layer("core.fork_us", "us", Lower),
    // core: the dense oracle against the active-set scheduler.
    layer("core.dense_cycles_per_s", "1/s", Higher),
    layer("core.active_over_dense", "ratio", Higher),
    // core / dsoc: exact counts over one repetition.
    layer("core.runtime.dispatches", "count", Higher),
    layer("core.runtime.queued_invocations", "count", Lower),
    layer("core.latency.deadline_misses", "count", Lower),
    layer("core.resilience.faults_injected", "count", Lower),
    layer("core.resilience.retries", "count", Lower),
    layer("core.resilience.retry_give_ups", "count", Lower),
    layer("core.resilience.duplicate_replies_dropped", "count", Lower),
    layer("core.resilience.reroutes", "count", Lower),
    layer("dsoc.phase_ns_per_dispatch", "ns", Lower),
    // noc: exact counts, wasted injection attempts, and host cost per hop.
    layer("noc.injected", "count", Higher),
    layer("noc.delivered", "count", Higher),
    layer("noc.refused", "count", Lower),
    layer("noc.flit_hops", "count", Higher),
    layer("noc.refused_share", "ratio", Lower),
    layer("noc.mean_latency_cycles", "cycles", Lower),
    layer("noc.phase_ns_per_flit_hop", "ns", Lower),
    // noc alone, open loop, 16 endpoints, idle (0.02) and saturated (0.60).
    layer("noc.openloop.mesh.idle.ns_per_flit", "ns", Lower),
    layer("noc.openloop.mesh.idle.ns_per_cycle", "ns", Lower),
    layer("noc.openloop.mesh.sat.ns_per_flit", "ns", Lower),
    layer("noc.openloop.mesh.sat.ns_per_cycle", "ns", Lower),
    layer("noc.openloop.ring.idle.ns_per_flit", "ns", Lower),
    layer("noc.openloop.ring.idle.ns_per_cycle", "ns", Lower),
    layer("noc.openloop.ring.sat.ns_per_flit", "ns", Lower),
    layer("noc.openloop.ring.sat.ns_per_cycle", "ns", Lower),
    layer("noc.openloop.crossbar.idle.ns_per_flit", "ns", Lower),
    layer("noc.openloop.crossbar.idle.ns_per_cycle", "ns", Lower),
    layer("noc.openloop.crossbar.sat.ns_per_flit", "ns", Lower),
    layer("noc.openloop.crossbar.sat.ns_per_cycle", "ns", Lower),
    layer("noc.openloop.fattree.idle.ns_per_flit", "ns", Lower),
    layer("noc.openloop.fattree.idle.ns_per_cycle", "ns", Lower),
    layer("noc.openloop.fattree.sat.ns_per_flit", "ns", Lower),
    layer("noc.openloop.fattree.sat.ns_per_cycle", "ns", Lower),
    layer("noc.openloop.bus.idle.ns_per_flit", "ns", Lower),
    layer("noc.openloop.bus.idle.ns_per_cycle", "ns", Lower),
    layer("noc.openloop.bus.sat.ns_per_flit", "ns", Lower),
    layer("noc.openloop.bus.sat.ns_per_cycle", "ns", Lower),
    // pe
    layer("pe.mean_utilization", "ratio", Higher),
    layer("pe.tasks_completed", "count", Higher),
    layer("pe.phase_ns_per_task", "ns", Lower),
    layer("pe.latency_hiding.ns_per_cycle", "ns", Lower),
    // mem / fabric / hwip: the service nodes.
    layer("mem.accesses", "count", Higher),
    layer("fabric.served", "count", Higher),
    layer("hwip.served", "count", Higher),
    layer("hwip.io.generated", "count", Higher),
    layer("hwip.io.dropped", "count", Lower),
    layer("hwip.io.transmitted", "count", Higher),
    layer("services.phase_ns_per_item", "ns", Lower),
    // dsoc wire format, 40-byte body.
    layer("dsoc.encode_ns", "ns", Lower),
    layer("dsoc.encode_zeroed_into_ns", "ns", Lower),
    layer("dsoc.decode_ns", "ns", Lower),
    layer("dsoc.view_decode_ns", "ns", Lower),
    // ipv4 data path and the mappers the rig constructors call.
    layer("ipv4.lpm.binary.lookup_ns", "ns", Lower),
    layer("ipv4.lpm.mb4.lookup_ns", "ns", Lower),
    layer("ipv4.lpm.mb8.lookup_ns", "ns", Lower),
    layer("ipv4.lpm.cam.lookup_ns", "ns", Lower),
    layer("ipv4.parse_ns", "ns", Lower),
    layer("ipv4.ttl_rewrite_ns", "ns", Lower),
    layer("mapping.greedy_us", "us", Lower),
    layer("mapping.sa5k_ms", "ms", Lower),
    // sim kernel and fault generation.
    layer("sim.eventqueue.ns_per_op", "ns", Lower),
    layer("sim.latency_hist.record_ns", "ns", Lower),
    layer("sim.parallel_map.speedup", "ratio", Higher),
    layer("fault.generate_us_per_kevent", "us", Lower),
    layer("fault.events", "count", Higher),
];

/// One measured value, with the arithmetic behind it when it is derived.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalog name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// For a derived value, its numerator and denominator.
    pub detail: Option<String>,
}

/// Collects metrics as they are measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records a directly measured value.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            value,
            detail: None,
        });
    }

    /// Records `num / den` and keeps both for the printout. A zero
    /// denominator (a layer that did nothing on this workload) gives 0.
    pub fn put_ratio(&mut self, name: impl Into<String>, num: f64, den: f64, what: &str) {
        self.0.push(Metric {
            name: name.into(),
            value: if den == 0.0 { 0.0 } else { num / den },
            detail: Some(format!("{num} / {den} {what}")),
        });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Orders the metrics as `catalog` lists them.
    ///
    /// # Errors
    ///
    /// Names the first catalog metric that was not measured, the first
    /// measured one the catalog does not know, or the first value that is
    /// not a finite number.
    pub fn in_catalog_order(
        &self,
        catalog: &[MetricDef],
    ) -> Result<Vec<(MetricDef, Metric)>, String> {
        if let Some(m) = self
            .0
            .iter()
            .find(|m| !catalog.iter().any(|d| d.name == m.name))
        {
            return Err(format!("metric `{}` is not in the catalog", m.name));
        }
        catalog
            .iter()
            .map(|d| {
                let m = self
                    .0
                    .iter()
                    .find(|m| m.name == d.name)
                    .ok_or(format!("metric `{}` was not measured", d.name))?;
                if !m.value.is_finite() {
                    return Err(format!("metric `{}` is {}", d.name, m.value));
                }
                Ok((*d, m.clone()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use nanowall::HostPhase;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_units_and_counts_fit_the_benchmark_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_name(d.name), "{}", d.name);
            assert!(is_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        for d in END_TO_END {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    }

    #[test]
    fn every_host_phase_has_its_seconds_and_laps() {
        for p in HostPhase::ALL {
            for suffix in ["s", "laps"] {
                let name = format!("core.phase.{}_{suffix}", p.name());
                assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
            }
        }
    }

    #[test]
    fn catalog_order_rejects_missing_unknown_and_non_finite() {
        let catalog = [layer("a", "s", Lower), layer("b", "s", Lower)];
        let mut m = Metrics::default();
        m.put("b", 2.0);
        assert!(m.in_catalog_order(&catalog).unwrap_err().contains("`a`"));
        m.put("a", 1.0);
        let ordered = m.in_catalog_order(&catalog).expect("complete");
        assert_eq!(ordered[0].1.value, 1.0);
        m.put("c", 3.0);
        assert!(m.in_catalog_order(&catalog).unwrap_err().contains("`c`"));
        let mut n = Metrics::default();
        n.put("a", f64::NAN);
        n.put("b", 1.0);
        assert!(n.in_catalog_order(&catalog).unwrap_err().contains("NaN"));
    }
}
