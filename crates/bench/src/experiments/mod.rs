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

use nanowall::SchedulerMode;

/// What an experiment run is parameterised by, passed by value down to
/// every platform it builds and every sweep it fans out. `expt` fills the
/// first two from its flags and takes the other two as they come; the
/// parity harness varies `scheduler` and `threads` to show the tables do
/// not depend on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    /// Shrinks simulation windows and grids to CI size (`expt --fast`).
    pub fast: bool,
    /// Sweep grids that can share a warmed snapshot do (`expt --warm-fork`):
    /// `t11` forks one warmed rig per point, `t5` shares each size's prefix
    /// set across engines, `t3`'s axes are structural so it runs cold and
    /// says so. Every other experiment has no sweep to warm and ignores it.
    pub warm_fork: bool,
    /// Scheduler every platform of the run is put under.
    pub scheduler: SchedulerMode,
    /// Worker-pool size of every sweep of the run.
    pub threads: usize,
}

impl Ctx {
    /// The context of a plain `expt` run: cold protocol, default scheduler,
    /// the deployment's pool size ([`nw_sim::sweep_threads`]).
    pub fn new(fast: bool) -> Self {
        Ctx {
            fast,
            warm_fork: false,
            scheduler: SchedulerMode::default(),
            threads: nw_sim::sweep_threads(),
        }
    }
}

/// One registered experiment: what `expt list` prints, how to run it, and
/// which of the context's axes can reach its table.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Experiment id (`t1`, `f4`, …).
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Runs the experiment and renders its table.
    pub run: fn(Ctx) -> String,
    /// Builds an `FppaPlatform`, so `Ctx::scheduler` applies.
    pub platform: bool,
    /// Fans points out over a worker pool, so `Ctx::threads` applies.
    pub sweeps: bool,
}

/// Every experiment, in the order `expt list` prints.
pub const EXPERIMENTS: [Experiment; 20] = [
    Experiment {
        id: "t1",
        title: "mask-set NRE by technology node",
        run: |_| t1_mask_nre::run().table,
        platform: false,
        sweeps: false,
    },
    Experiment {
        id: "t2",
        title: "hardwired vs programmable break-even volumes",
        run: |_| t2_breakeven::run().table,
        platform: false,
        sweeps: false,
    },
    Experiment {
        id: "f3",
        title: "design-complexity growth vs productivity",
        run: |_| f3_growth::run().table,
        platform: false,
        sweeps: false,
    },
    Experiment {
        id: "f4",
        title: "NoC topology characterization (bus/ring/mesh/torus/...)",
        run: |ctx| f4_topology::run(ctx).table,
        platform: false,
        sweeps: true,
    },
    Experiment {
        id: "f5",
        title: "cross-chip wire delay by node",
        run: |_| f5_wire_delay::run().table,
        platform: false,
        sweeps: false,
    },
    Experiment {
        id: "f6",
        title: "multithreaded latency hiding (claim C6)",
        run: |ctx| f6_latency_hiding::run(ctx).table,
        platform: true,
        sweeps: false,
    },
    Experiment {
        id: "f7",
        title: "platform productivity model",
        run: |_| f7_productivity::run().table,
        platform: false,
        sweeps: false,
    },
    Experiment {
        id: "t3",
        title: "IPv4 fast path at 10 Gb/s worst case (claim C7)",
        run: |ctx| t3_ipv4::run(ctx).table,
        platform: true,
        sweeps: true,
    },
    Experiment {
        id: "t4",
        title: "eFPGA offload break-even",
        run: |_| t4_efpga::run().table,
        platform: false,
        sweeps: false,
    },
    Experiment {
        id: "t5",
        title: "LPM engine shootout",
        run: |ctx| t5_lpm::run(ctx).table,
        platform: false,
        sweeps: true,
    },
    Experiment {
        id: "t6",
        title: "MultiFlex mapping quality (claim C10)",
        run: |ctx| t6_mapping::run(ctx).table,
        platform: true,
        sweeps: true,
    },
    Experiment {
        id: "t7",
        title: "platform-continuum cost model",
        run: |_| t7_continuum_cost::run().table,
        platform: false,
        sweeps: false,
    },
    Experiment {
        id: "t8",
        title: "video codec pipeline: frame-sliced, memory-bound (§7.1)",
        run: |ctx| t8_video::run(ctx).table,
        platform: true,
        sweeps: true,
    },
    Experiment {
        id: "t9",
        title: "modem baseband chain: latency-critical, twoway-heavy",
        run: |ctx| t9_modem::run(ctx).table,
        platform: true,
        sweeps: true,
    },
    Experiment {
        id: "t10",
        title: "crypto offload: hwip-bound bulk transfer (§6.4)",
        run: |ctx| t10_crypto::run(ctx).table,
        platform: true,
        sweeps: true,
    },
    Experiment {
        id: "t11",
        title: "mixed workloads on one fabric: per-workload latency percentiles + deadlines",
        run: |ctx| t11_mix::run(ctx).table,
        platform: true,
        sweeps: true,
    },
    Experiment {
        id: "t12",
        title: "resilience grid: goodput/p99/retries/misses vs injected fault rate",
        run: |ctx| t12_resilience::run(ctx).table,
        platform: true,
        sweeps: true,
    },
    Experiment {
        id: "t13",
        title:
            "replica spread: one warmed snapshot forked across fault seeds (min/median/max + CI)",
        run: |ctx| t13_replicas::run(ctx).table,
        platform: true,
        sweeps: true,
    },
    Experiment {
        id: "f1",
        title: "platform-continuum positioning",
        run: |_| f1_continuum::run().table,
        platform: false,
        sweeps: false,
    },
    Experiment {
        id: "f2",
        title: "Figure 2 FPPA tour",
        run: |ctx| f2_fppa_tour::run(ctx).table,
        platform: true,
        sweeps: false,
    },
];

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<Experiment> {
    EXPERIMENTS.into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn every_experiment_is_titled_and_runnable_by_id() {
        for e in EXPERIMENTS {
            assert!(!e.title.is_empty(), "{}", e.id);
            assert_eq!(find(e.id).expect("registered").title, e.title);
        }
        assert!(find("t1").is_some() && find("t10").is_some());
        assert!(find("zz").is_none());
    }
}
