//! One module per reproduced table/figure. See `expt list` for the
//! mapping from experiment id to paper claim.

pub mod f1_continuum;
pub mod f2_fppa_tour;
pub mod f3_growth;
pub mod f4_topology;
pub mod f5_wire_delay;
pub mod f6_latency_hiding;
pub mod f7_productivity;
pub mod t10_crypto;
pub mod t11_mix;
pub mod t12_resilience;
pub mod t13_replicas;
pub mod t1_mask_nre;
pub mod t2_breakeven;
pub mod t3_ipv4;
pub mod t4_efpga;
pub mod t5_lpm;
pub mod t6_mapping;
pub mod t7_continuum_cost;
pub mod t8_video;
pub mod t9_modem;

/// One registered experiment: id and one-line title (`expt list` prints
/// both; `run_by_id` accepts the id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Experiment {
    /// Experiment id (`t1`, `f4`, …).
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
}

/// Every experiment, in the order `expt list` prints.
pub const EXPERIMENTS: [Experiment; 20] = [
    Experiment {
        id: "t1",
        title: "mask-set NRE by technology node",
    },
    Experiment {
        id: "t2",
        title: "hardwired vs programmable break-even volumes",
    },
    Experiment {
        id: "f3",
        title: "design-complexity growth vs productivity",
    },
    Experiment {
        id: "f4",
        title: "NoC topology characterization (bus/ring/mesh/torus/...)",
    },
    Experiment {
        id: "f5",
        title: "cross-chip wire delay by node",
    },
    Experiment {
        id: "f6",
        title: "multithreaded latency hiding (claim C6)",
    },
    Experiment {
        id: "f7",
        title: "platform productivity model",
    },
    Experiment {
        id: "t3",
        title: "IPv4 fast path at 10 Gb/s worst case (claim C7)",
    },
    Experiment {
        id: "t4",
        title: "eFPGA offload break-even",
    },
    Experiment {
        id: "t5",
        title: "LPM engine shootout",
    },
    Experiment {
        id: "t6",
        title: "MultiFlex mapping quality (claim C10)",
    },
    Experiment {
        id: "t7",
        title: "platform-continuum cost model",
    },
    Experiment {
        id: "t8",
        title: "video codec pipeline: frame-sliced, memory-bound (§7.1)",
    },
    Experiment {
        id: "t9",
        title: "modem baseband chain: latency-critical, twoway-heavy",
    },
    Experiment {
        id: "t10",
        title: "crypto offload: hwip-bound bulk transfer (§6.4)",
    },
    Experiment {
        id: "t11",
        title: "mixed workloads on one fabric: per-workload latency percentiles + deadlines",
    },
    Experiment {
        id: "t12",
        title: "resilience grid: goodput/p99/retries/misses vs injected fault rate",
    },
    Experiment {
        id: "t13",
        title:
            "replica spread: one warmed snapshot forked across fault seeds (min/median/max + CI)",
    },
    Experiment {
        id: "f1",
        title: "platform-continuum positioning",
    },
    Experiment {
        id: "f2",
        title: "Figure 2 FPPA tour",
    },
];

/// Runs one experiment by id and returns its rendered output.
///
/// `fast` shrinks simulation windows for CI-speed runs.
pub fn run_by_id(id: &str, fast: bool) -> Option<String> {
    let out = match id {
        "t1" => t1_mask_nre::run().table,
        "t2" => t2_breakeven::run().table,
        "f3" => f3_growth::run().table,
        "f4" => f4_topology::run(fast).table,
        "f5" => f5_wire_delay::run().table,
        "f6" => f6_latency_hiding::run(fast).table,
        "f7" => f7_productivity::run().table,
        "t3" => t3_ipv4::run(fast).table,
        "t4" => t4_efpga::run().table,
        "t5" => t5_lpm::run(fast).table,
        "t6" => t6_mapping::run(fast).table,
        "t7" => t7_continuum_cost::run().table,
        "t8" => t8_video::run(fast).table,
        "t9" => t9_modem::run(fast).table,
        "t10" => t10_crypto::run(fast).table,
        "t11" => t11_mix::run(fast).table,
        "t12" => t12_resilience::run(fast).table,
        "t13" => t13_replicas::run(fast).table,
        "f1" => f1_continuum::run().table,
        "f2" => f2_fppa_tour::run(fast).table,
        _ => return None,
    };
    Some(out)
}

/// Runs one experiment by id under the warm-fork protocol (`expt <id>
/// --warm-fork`): sweep grids that can share a warmed platform snapshot do
/// (`t11` forks one warmed rig per point, `t5` shares each size's prefix
/// set across engines); grids whose axes are structural run cold and label
/// themselves accordingly (`t3`). Every other experiment has no sweep to
/// warm, so the flag is a no-op and the standard protocol runs.
pub fn run_by_id_warm_fork(id: &str, fast: bool) -> Option<String> {
    match id {
        "t3" => Some(t3_ipv4::run_warm_fork(fast).table),
        "t5" => Some(t5_lpm::run_warm_fork(fast).table),
        "t11" => Some(t11_mix::run_warm_fork(fast).table),
        _ => run_by_id(id, fast),
    }
}

/// All experiment ids in `expt list` order (derived from [`EXPERIMENTS`]).
pub const ALL_IDS: [&str; EXPERIMENTS.len()] = {
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < EXPERIMENTS.len() {
        ids[i] = EXPERIMENTS[i].id;
        i += 1;
    }
    ids
};

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn every_experiment_is_titled_and_runnable_by_id() {
        for e in EXPERIMENTS {
            assert!(!e.title.is_empty(), "{}", e.id);
        }
        assert!(ALL_IDS.contains(&"t1") && ALL_IDS.contains(&"t10"));
    }
}
