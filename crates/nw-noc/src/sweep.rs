//! Open-loop load sweeps: the harness behind experiment F4
//! (topology characterization, paper §6.1).
//!
//! Endpoints inject Bernoulli traffic at a configurable offered load and the
//! harness reports accepted throughput and the latency distribution. Sweeping
//! the offered load produces the classic latency/throughput curve whose knee
//! is the topology's saturation point.

use crate::engine::{Noc, NocConfig};
use crate::topology::{BuildTopologyError, Topology, TopologyKind};
use crate::traffic::TrafficPattern;
use nw_sim::{Clocked, Histogram};
use nw_types::{Cycles, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one open-loop measurement run.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Offered load in flits per cycle per endpoint (0.0..=1.0 is sensible).
    pub offered_load: f64,
    /// Payload size of generated packets.
    pub payload_bytes: usize,
    /// Destination selection policy.
    pub pattern: TrafficPattern,
    /// Warm-up cycles excluded from measurement.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
    /// NoC timing configuration.
    pub noc: NocConfig,
    /// Per-hop link latency in cycles.
    pub link_latency: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            offered_load: 0.1,
            payload_bytes: 32,
            pattern: TrafficPattern::Uniform,
            warmup: 2_000,
            measure: 10_000,
            seed: 0xD0C_5EED,
            noc: NocConfig::default(),
            link_latency: 1,
        }
    }
}

/// Results of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopResult {
    /// Topology that was driven.
    pub kind: TopologyKind,
    /// Endpoint count.
    pub n_endpoints: usize,
    /// Offered load (flits/cycle/endpoint) as configured.
    pub offered: f64,
    /// Accepted throughput (delivered flits/cycle/endpoint) in the
    /// measurement window.
    pub accepted: f64,
    /// Offered load actually generated (flits/cycle/endpoint) in the
    /// measurement window. The Bernoulli injection process only realizes
    /// `offered` in expectation, so saturation is judged against this.
    pub generated: f64,
    /// Latency distribution of packets delivered in the measurement window.
    pub latency: Histogram,
    /// True when the network failed to keep up: delivered flits fell below
    /// 95% of the flits generated in the measurement window.
    pub saturated: bool,
}

impl OpenLoopResult {
    /// Mean latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }
}

/// Runs one open-loop measurement on a freshly built topology.
///
/// # Errors
///
/// Propagates [`BuildTopologyError`] from topology construction.
///
/// # Examples
///
/// ```
/// use nw_noc::sweep::{run_open_loop, OpenLoopConfig};
/// use nw_noc::topology::TopologyKind;
///
/// let mut cfg = OpenLoopConfig::default();
/// cfg.offered_load = 0.05;
/// cfg.warmup = 200;
/// cfg.measure = 1_000;
/// let r = run_open_loop(TopologyKind::Mesh, 16, &cfg)?;
/// assert!(r.accepted > 0.0);
/// # Ok::<(), nw_noc::topology::BuildTopologyError>(())
/// ```
pub fn run_open_loop(
    kind: TopologyKind,
    n: usize,
    cfg: &OpenLoopConfig,
) -> Result<OpenLoopResult, BuildTopologyError> {
    let topo = Topology::build(kind, n, cfg.link_latency)?;
    let mut noc = Noc::new(topo, cfg.noc);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Offered load is stated in flits; convert to a packet generation
    // probability per endpoint per cycle.
    let probe = crate::packet::Packet {
        id: crate::packet::PacketId(0),
        src: NodeId(0),
        dst: NodeId(0),
        data: vec![0; cfg.payload_bytes],
        tag: 0,
        injected_at: Cycles::ZERO,
    };
    let flits_per_packet = probe.flits(cfg.noc.flit_bytes) as f64;
    let p_gen = (cfg.offered_load / flits_per_packet).clamp(0.0, 1.0);

    let total = cfg.warmup + cfg.measure;
    let mut latency = Histogram::new();
    let mut delivered_flits = 0u64;
    let mut generated_flits = 0u64;
    let mut now = Cycles(0);
    // Ejected payload buffers feed the next injections instead of the
    // allocator; contents stay `vec![0; payload_bytes]`-identical.
    let mut pool = crate::pool::PayloadPool::new();

    while now.0 < total {
        if n >= 2 {
            for src in 0..n {
                if rng.gen_bool(p_gen) {
                    if now.0 >= cfg.warmup {
                        generated_flits += flits_per_packet as u64;
                    }
                    let dst = cfg.pattern.pick_dst(NodeId(src), n, &mut rng);
                    // Refused injections are lost offered load — exactly what
                    // saturation means in an open-loop experiment.
                    let payload = pool.take_zeroed(cfg.payload_bytes);
                    let _ = noc.try_inject(NodeId(src), dst, payload, now.0, now);
                }
            }
        }
        noc.tick(now);
        while let Some((_, mut p)) = noc.eject_next() {
            if now.0 >= cfg.warmup {
                latency.record(now.saturating_sub(p.injected_at));
                delivered_flits += p.flits(cfg.noc.flit_bytes);
            }
            pool.put(std::mem::take(&mut p.data));
        }
        now += Cycles(1);
    }

    let accepted = delivered_flits as f64 / (cfg.measure as f64 * n as f64);
    let generated = generated_flits as f64 / (cfg.measure as f64 * n as f64);
    // Judging saturation against the *realized* offered load (not the
    // configured expectation) keeps the verdict free of Bernoulli sampling
    // noise at light loads and short measurement windows.
    let saturated = delivered_flits < (0.95 * generated_flits as f64) as u64;
    Ok(OpenLoopResult {
        kind,
        n_endpoints: n,
        offered: cfg.offered_load,
        accepted,
        generated,
        latency,
        saturated,
    })
}

/// Sweeps offered load and returns one result per point — the data behind a
/// latency/throughput curve.
///
/// # Errors
///
/// Propagates [`BuildTopologyError`] from topology construction.
pub fn sweep_load(
    kind: TopologyKind,
    n: usize,
    loads: &[f64],
    base: &OpenLoopConfig,
) -> Result<Vec<OpenLoopResult>, BuildTopologyError> {
    loads
        .iter()
        .map(|&l| {
            let mut cfg = base.clone();
            cfg.offered_load = l;
            run_open_loop(kind, n, &cfg)
        })
        .collect()
}

/// Finds the saturation load of a topology by bisection on the offered load:
/// the highest load (within `tol`) at which delivered flits stay ≥ 95% of
/// the flits actually generated in the measurement window.
///
/// # Errors
///
/// Propagates [`BuildTopologyError`] from topology construction.
pub fn saturation_load(
    kind: TopologyKind,
    n: usize,
    base: &OpenLoopConfig,
    tol: f64,
) -> Result<f64, BuildTopologyError> {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        let mut cfg = base.clone();
        cfg.offered_load = mid;
        let r = run_open_loop(kind, n, &cfg)?;
        if r.saturated {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> OpenLoopConfig {
        OpenLoopConfig {
            warmup: 500,
            measure: 3_000,
            ..OpenLoopConfig::default()
        }
    }

    #[test]
    fn light_load_is_unsaturated_with_low_latency() {
        let mut cfg = quick();
        cfg.offered_load = 0.02;
        let r = run_open_loop(TopologyKind::Mesh, 16, &cfg).unwrap();
        assert!(!r.saturated, "2% load must not saturate a mesh");
        assert!(r.accepted > 0.015, "accepted {}", r.accepted);
        assert!(r.mean_latency() < 60.0, "latency {}", r.mean_latency());
    }

    #[test]
    fn bus_saturates_before_crossbar() {
        let cfg = quick();
        let bus = saturation_load(TopologyKind::SharedBus, 16, &cfg, 0.02).unwrap();
        let xbar = saturation_load(TopologyKind::Crossbar, 16, &cfg, 0.02).unwrap();
        assert!(
            xbar > bus * 2.0,
            "crossbar saturation {xbar} should dwarf bus {bus}"
        );
    }

    #[test]
    fn latency_rises_with_load() {
        let cfg = quick();
        let rs = sweep_load(TopologyKind::Mesh, 16, &[0.02, 0.30], &cfg).unwrap();
        assert!(
            rs[1].mean_latency() > rs[0].mean_latency(),
            "latency must rise with load: {} vs {}",
            rs[0].mean_latency(),
            rs[1].mean_latency()
        );
    }

    #[test]
    fn results_are_deterministic() {
        let mut cfg = quick();
        cfg.offered_load = 0.1;
        let a = run_open_loop(TopologyKind::FatTree, 16, &cfg).unwrap();
        let b = run_open_loop(TopologyKind::FatTree, 16, &cfg).unwrap();
        assert_eq!(a.accepted.to_bits(), b.accepted.to_bits());
        assert_eq!(a.latency.count(), b.latency.count());
    }

    #[test]
    fn hotspot_saturates_earlier_than_uniform() {
        let mut cfg = quick();
        cfg.pattern = TrafficPattern::Uniform;
        let uni = saturation_load(TopologyKind::Mesh, 16, &cfg, 0.02).unwrap();
        cfg.pattern = TrafficPattern::Hotspot {
            target: NodeId(0),
            fraction: 0.5,
        };
        let hot = saturation_load(TopologyKind::Mesh, 16, &cfg, 0.02).unwrap();
        assert!(
            hot < uni,
            "hotspot {hot} must saturate before uniform {uni}"
        );
    }
}
