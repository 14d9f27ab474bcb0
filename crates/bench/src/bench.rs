//! `expt bench` — the recorded performance trajectory.
//!
//! Times the simulation core under both schedulers on the workloads where
//! the active-set scheduler matters (large-idle rigs: low-rate video /
//! modem / crypto / IPv4 points and the F6 latency-hiding rig), verifies
//! the runs are **bit-identical** across schedulers while timing them,
//! measures the parallel sweep runner's scaling on the F4 topology sweep
//! and the T8 PE-pool DSE, and wall-clocks every registered experiment.
//! Everything lands in `BENCH_platform.json` so each PR records the perf
//! trajectory instead of guessing at it.

use crate::experiments::{run_by_id, ALL_IDS};
use crate::obs::ProfileEntry;
use nanowall::scenarios::{self, latency_hiding};
use nanowall::{set_default_scheduler_mode, PlatformReport, SchedulerMode};
use nw_pe::SchedPolicy;
use std::fmt::Write as _;
use std::time::Instant;

/// One dense-vs-active measurement of a platform rig.
#[derive(Debug, Clone)]
pub struct SchedEntry {
    /// Rig label.
    pub name: String,
    /// Simulated window in cycles.
    pub cycles: u64,
    /// Wall-clock of the dense reference scheduler.
    pub dense_secs: f64,
    /// Wall-clock of the active-set scheduler.
    pub active_secs: f64,
    /// Simulated cycles per wall-clock second under the active scheduler.
    pub active_cycles_per_sec: f64,
    /// Whether the two runs produced bit-identical reports.
    pub bit_identical: bool,
}

impl SchedEntry {
    /// Dense time over active time.
    pub fn speedup(&self) -> f64 {
        if self.active_secs > 0.0 {
            self.dense_secs / self.active_secs
        } else {
            0.0
        }
    }
}

/// One serial-vs-parallel measurement of a sweep.
#[derive(Debug, Clone)]
pub struct SweepEntry {
    /// Sweep label.
    pub name: String,
    /// Wall-clock on one worker.
    pub serial_secs: f64,
    /// Wall-clock on the full pool.
    pub parallel_secs: f64,
    /// Workers in the pool.
    pub threads: usize,
    /// Whether serial and parallel produced identical tables.
    pub identical: bool,
}

impl SweepEntry {
    /// Serial time over parallel time.
    pub fn speedup(&self) -> f64 {
        if self.parallel_secs > 0.0 {
            self.serial_secs / self.parallel_secs
        } else {
            0.0
        }
    }
}

/// One cold-rewarmup vs warm-fork measurement of a sweep grid: the same
/// grid timed under its standard protocol (every point warmed from cycle
/// 0) and under `--warm-fork` (one warmed snapshot forked per point).
#[derive(Debug, Clone)]
pub struct WarmForkEntry {
    /// Grid label.
    pub name: String,
    /// Wall-clock of the full-rewarmup (cold) protocol.
    pub cold_secs: f64,
    /// Wall-clock of the warm-fork protocol.
    pub fork_secs: f64,
    /// Whether two warm-fork runs produced identical grids (the fork path
    /// must stay deterministic to be trustworthy).
    pub deterministic: bool,
}

impl WarmForkEntry {
    /// Cold time over fork time.
    pub fn speedup(&self) -> f64 {
        if self.fork_secs > 0.0 {
            self.cold_secs / self.fork_secs
        } else {
            0.0
        }
    }
}

/// Wall-clock of one registered experiment.
#[derive(Debug, Clone)]
pub struct ExptTiming {
    /// Experiment id.
    pub id: String,
    /// Wall-clock seconds.
    pub secs: f64,
}

/// Everything `expt bench` measured.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Whether the quick (CI-sized) windows were used.
    pub quick: bool,
    /// Worker-pool size the sweeps ran on.
    pub sweep_threads: usize,
    /// Scheduler comparisons.
    pub scheduler: Vec<SchedEntry>,
    /// Sweep-scaling comparisons.
    pub sweeps: Vec<SweepEntry>,
    /// Cold-rewarmup vs warm-fork grid timings.
    pub warm_fork: Vec<WarmForkEntry>,
    /// Per-experiment timings.
    pub experiments: Vec<ExptTiming>,
    /// Host-side phase profiles (`host_phase_breakdown` in the JSON).
    pub profile: Vec<ProfileEntry>,
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_owned()
    }
}

impl BenchReport {
    /// Renders the report as JSON (hand-rolled: the workspace is offline,
    /// and the schema is flat enough not to need a serializer).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"tool\": \"expt bench\",");
        let _ = writeln!(s, "  \"quick\": {},", self.quick);
        let _ = writeln!(s, "  \"sweep_threads\": {},", self.sweep_threads);
        s.push_str("  \"scheduler\": [\n");
        for (i, e) in self.scheduler.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"cycles\": {}, \"dense_secs\": {}, \"active_secs\": {}, \"speedup\": {}, \"active_cycles_per_sec\": {}, \"bit_identical\": {}}}{}",
                e.name,
                e.cycles,
                json_f(e.dense_secs),
                json_f(e.active_secs),
                json_f(e.speedup()),
                json_f(e.active_cycles_per_sec),
                e.bit_identical,
                if i + 1 < self.scheduler.len() { "," } else { "" }
            );
        }
        s.push_str("  ],\n  \"sweeps\": [\n");
        for (i, e) in self.sweeps.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"serial_secs\": {}, \"parallel_secs\": {}, \"speedup\": {}, \"threads\": {}, \"identical\": {}}}{}",
                e.name,
                json_f(e.serial_secs),
                json_f(e.parallel_secs),
                json_f(e.speedup()),
                e.threads,
                e.identical,
                if i + 1 < self.sweeps.len() { "," } else { "" }
            );
        }
        // Warm-fork grid rows are keyed "grid" (not "name") so the
        // delta-table line scanner below never mistakes them for
        // scheduler entries.
        s.push_str("  ],\n  \"warm_fork_grids\": [\n");
        for (i, e) in self.warm_fork.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"grid\": \"{}\", \"cold_secs\": {}, \"fork_secs\": {}, \"speedup\": {}, \"deterministic\": {}}}{}",
                e.name,
                json_f(e.cold_secs),
                json_f(e.fork_secs),
                json_f(e.speedup()),
                e.deterministic,
                if i + 1 < self.warm_fork.len() { "," } else { "" }
            );
        }
        s.push_str("  ],\n  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"id\": \"{}\", \"secs\": {}}}{}",
                e.id,
                json_f(e.secs),
                if i + 1 < self.experiments.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        // Host-side phase attribution. Keyed "rig" (not "name") so the
        // delta-table line scanner above never mistakes these rows for
        // scheduler entries.
        s.push_str("  ],\n  \"host_phase_breakdown\": [\n");
        for (i, e) in self.profile.iter().enumerate() {
            let mut phases = String::new();
            for (j, p) in e.report.phases.iter().enumerate() {
                let _ = write!(
                    phases,
                    "\"{}\": {}{}",
                    p.phase.name(),
                    json_f(p.secs),
                    if j + 1 < e.report.phases.len() {
                        ", "
                    } else {
                        ""
                    }
                );
            }
            let _ = writeln!(
                s,
                "    {{\"rig\": \"{}\", \"cycles\": {}, \"measured_secs\": {}, \"attributed_secs\": {}, \"phases\": {{{}}}}}{}",
                e.rig,
                e.cycles,
                json_f(e.measured_secs),
                json_f(e.report.total_secs),
                phases,
                if i + 1 < self.profile.len() { "," } else { "" }
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Renders a delta table of this report against a previously committed
    /// `BENCH_platform.json` (the exact format [`BenchReport::to_json`]
    /// emits). Purely informational: timing deltas never fail a run — CI
    /// machines are too noisy to gate on absolute numbers — only the
    /// bit-identity flags (checked elsewhere) can.
    ///
    /// Unknown rigs (added since the baseline was committed) and removed
    /// rigs are called out rather than silently dropped.
    pub fn delta_table(&self, baseline_json: &str) -> String {
        let baseline = parse_scheduler_entries(baseline_json);
        let mut s = String::new();
        let _ = writeln!(
            s,
            "BENCH  delta vs committed baseline (informational; identity is the only gate)"
        );
        for e in &self.scheduler {
            match baseline.iter().find(|(n, _)| n == &e.name) {
                Some((_, base_cps)) if *base_cps > 0.0 => {
                    let ratio = e.active_cycles_per_sec / base_cps;
                    let _ = writeln!(
                        s,
                        "  {:<22} {:>11.0} -> {:>11.0} cyc/s  {:>6.2}x  identical={}",
                        e.name, base_cps, e.active_cycles_per_sec, ratio, e.bit_identical
                    );
                }
                _ => {
                    let _ = writeln!(
                        s,
                        "  {:<22} {:>11} -> {:>11.0} cyc/s  (new rig)  identical={}",
                        e.name, "-", e.active_cycles_per_sec, e.bit_identical
                    );
                }
            }
        }
        for (name, _) in &baseline {
            if !self.scheduler.iter().any(|e| &e.name == name) {
                let _ = writeln!(s, "  {name:<22} removed since baseline");
            }
        }
        if !self.warm_fork.is_empty() {
            let base_wf = parse_warm_fork_entries(baseline_json);
            let _ = writeln!(
                s,
                "BENCH  warm-fork delta (fork-grid wall-clock vs committed baseline)"
            );
            for e in &self.warm_fork {
                match base_wf.iter().find(|(n, _)| n == &e.name) {
                    Some((_, base_fork)) if *base_fork > 0.0 => {
                        let _ = writeln!(
                            s,
                            "  {:<22} fork {:>8.4}s -> {:>8.4}s  (cold now {:.4}s, {:.1}x)  deterministic={}",
                            e.name,
                            base_fork,
                            e.fork_secs,
                            e.cold_secs,
                            e.speedup(),
                            e.deterministic
                        );
                    }
                    _ => {
                        let _ = writeln!(
                            s,
                            "  {:<22} fork {:>8.4}s  (new grid; cold {:.4}s, {:.1}x)  deterministic={}",
                            e.name,
                            e.fork_secs,
                            e.cold_secs,
                            e.speedup(),
                            e.deterministic
                        );
                    }
                }
            }
        }
        s
    }

    /// Human-readable summary for stdout.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "BENCH  scheduler dense vs active-set (bit-identical required)"
        );
        for e in &self.scheduler {
            let _ = writeln!(
                s,
                "  {:<22} {:>9} cyc  dense {:>8.4}s  active {:>8.4}s  {:>5.1}x  {:>11.0} cyc/s  identical={}",
                e.name,
                e.cycles,
                e.dense_secs,
                e.active_secs,
                e.speedup(),
                e.active_cycles_per_sec,
                e.bit_identical
            );
        }
        let _ = writeln!(
            s,
            "BENCH  sweep scaling on {} worker(s)",
            self.sweep_threads
        );
        for e in &self.sweeps {
            let _ = writeln!(
                s,
                "  {:<22} serial {:>8.4}s  parallel {:>8.4}s  {:>5.1}x  identical={}",
                e.name,
                e.serial_secs,
                e.parallel_secs,
                e.speedup(),
                e.identical
            );
        }
        if !self.warm_fork.is_empty() {
            let _ = writeln!(
                s,
                "BENCH  warm-fork grids (full rewarmup vs one warmed snapshot forked per point)"
            );
            for e in &self.warm_fork {
                let _ = writeln!(
                    s,
                    "  {:<22} cold {:>8.4}s  fork {:>8.4}s  {:>5.1}x  deterministic={}",
                    e.name,
                    e.cold_secs,
                    e.fork_secs,
                    e.speedup(),
                    e.deterministic
                );
            }
        }
        let _ = writeln!(s, "BENCH  experiment wall-clock");
        for e in &self.experiments {
            let _ = writeln!(s, "  {:<6} {:>8.4}s", e.id, e.secs);
        }
        if !self.profile.is_empty() {
            let _ = writeln!(s, "BENCH  host phase breakdown");
            s.push_str(&crate::obs::render_profile(&self.profile));
        }
        s
    }
}

/// Extracts `(name, active_cycles_per_sec)` pairs from the scheduler rows
/// of a `BENCH_platform.json`. A hand-rolled line scanner, not a JSON
/// parser: the workspace is offline and the input is our own emitter's
/// output, where every scheduler row sits on one line with both keys.
fn parse_scheduler_entries(json: &str) -> Vec<(String, f64)> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let start = line.find(key)? + key.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"'))
    }
    json.lines()
        .filter_map(|line| {
            let name = field(line, "\"name\": ")?;
            let cps: f64 = field(line, "\"active_cycles_per_sec\": ")?.parse().ok()?;
            Some((name.to_owned(), cps))
        })
        .collect()
}

/// Extracts `(grid, fork_secs)` pairs from the warm-fork rows of a
/// `BENCH_platform.json` — the same line-scanner idiom as
/// [`parse_scheduler_entries`], keyed on the fields only those rows carry.
fn parse_warm_fork_entries(json: &str) -> Vec<(String, f64)> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let start = line.find(key)? + key.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"'))
    }
    json.lines()
        .filter_map(|line| {
            let name = field(line, "\"grid\": ")?;
            let fork: f64 = field(line, "\"fork_secs\": ")?.parse().ok()?;
            Some((name.to_owned(), fork))
        })
        .collect()
}

/// Runs `build_and_run` under one scheduler, returning (report, secs).
fn timed_under(mode: SchedulerMode, run: &dyn Fn() -> PlatformReport) -> (PlatformReport, f64) {
    set_default_scheduler_mode(mode);
    let t = Instant::now();
    let report = run();
    let secs = t.elapsed().as_secs_f64();
    set_default_scheduler_mode(SchedulerMode::ActiveSet);
    (report, secs)
}

fn sched_case(name: &str, cycles: u64, run: &dyn Fn() -> PlatformReport) -> SchedEntry {
    let (dense_report, dense_secs) = timed_under(SchedulerMode::Dense, run);
    let (active_report, active_secs) = timed_under(SchedulerMode::ActiveSet, run);
    SchedEntry {
        name: name.to_owned(),
        cycles,
        dense_secs,
        active_secs,
        active_cycles_per_sec: if active_secs > 0.0 {
            cycles as f64 / active_secs
        } else {
            0.0
        },
        bit_identical: dense_report == active_report,
    }
}

fn sweep_case(name: &str, run: &dyn Fn() -> String) -> SweepEntry {
    // Serial: pin the pool to one worker; parallel: the configured pool.
    nw_sim::set_sweep_threads(Some(1));
    let t = Instant::now();
    let serial_out = run();
    let serial_secs = t.elapsed().as_secs_f64();
    nw_sim::set_sweep_threads(None);
    let threads = nw_sim::sweep_threads();
    let t = Instant::now();
    let parallel_out = run();
    let parallel_secs = t.elapsed().as_secs_f64();
    SweepEntry {
        name: name.to_owned(),
        serial_secs,
        parallel_secs,
        threads,
        identical: serial_out == parallel_out,
    }
}

fn warm_fork_case(
    name: &str,
    cold: &dyn Fn() -> String,
    fork: &dyn Fn() -> String,
) -> WarmForkEntry {
    let t = Instant::now();
    let _ = cold();
    let cold_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let first = fork();
    let fork_secs = t.elapsed().as_secs_f64();
    // The fork grid runs twice so determinism is measured, not assumed.
    let second = fork();
    WarmForkEntry {
        name: name.to_owned(),
        cold_secs,
        fork_secs,
        deterministic: first == second,
    }
}

/// Runs the benchmark suite. `quick` shrinks windows to CI size.
pub fn run_bench(quick: bool) -> BenchReport {
    let win = if quick { 300_000 } else { 1_000_000 };

    let scheduler = vec![
        // F6 latency-hiding rig at its most idle point: a single context
        // blocked on a 200-cycle link round trip most of the window.
        sched_case("f6-1thr-200cyc-link", win / 4, &|| {
            let p = latency_hiding(1, 200, 40, SchedPolicy::SwitchOnStall, 1, win / 4);
            // Pack the measurement into a comparable report shape: the
            // utilization/tasks pair is the experiment's observable.
            synthetic_report(p.utilization, p.tasks)
        }),
        // T9 modem at a low air rate: bursts arrive thousands of cycles
        // apart, so almost every cycle is idle.
        sched_case("t9-modem-40mbps", win, &|| {
            let mut rig = scenarios::modem_rig(&nw_apps::ModemParams::default(), 6, 4, 50, 40.0);
            rig.run(win)
        }),
        // T8 video far below the knee.
        sched_case("t8-video-1gbps", win / 2, &|| {
            let mut rig = scenarios::video_rig(&nw_apps::VideoParams::default(), 9, 4, 4, 1.0);
            rig.run(win / 2)
        }),
        // T10 crypto at an easy offered load.
        sched_case("t10-crypto-0.5gbps", win / 2, &|| {
            let mut rig = scenarios::crypto_rig(&nw_apps::CryptoParams::default(), 4, 8, 4, 0.5);
            rig.run(win / 2)
        }),
        // T3 IPv4 fast path far below line rate.
        sched_case("t3-ipv4-0.3gbps", win / 2, &|| {
            let mut rig = scenarios::ipv4_rig(4, 8, nw_noc::TopologyKind::Mesh, 4, 0.3);
            scenarios::run_ipv4(&mut rig, win / 2)
        }),
        // ---- Busy-path points: the regime the paper's platform argument
        // actually cares about. These rigs keep the fabric loaded — link
        // serialization, queued routers, issuing PEs — so they measure the
        // event-driven transmit path and compute fast-forward, not the
        // idle-span skip.
        // T8 video at 8 Gb/s: at the delivery knee, four lanes saturated.
        sched_case("t8-video-8gbps", win / 4, &|| {
            let mut rig = scenarios::video_rig(&nw_apps::VideoParams::default(), 9, 4, 4, 8.0);
            rig.run(win / 4)
        }),
        // T3 IPv4 near line rate: 16 worker PEs at 9.5 of 10 Gb/s offered.
        sched_case("t3-ipv4-9.5gbps", win / 4, &|| {
            let mut rig = scenarios::ipv4_rig(16, 8, nw_noc::TopologyKind::Mesh, 4, 9.5);
            scenarios::run_ipv4(&mut rig, win / 4)
        }),
        // T11 mix under cross-workload pressure: video + IPv4 sharing the
        // fabric. Exercises the latency telemetry (per-object histograms,
        // deadline misses) under both schedulers — the identity check now
        // covers every percentile row in the report.
        sched_case("t11-mix-6g-3g", win / 4, &|| {
            let params = scenarios::mix_demo_params(true);
            let mut rig =
                scenarios::mix_rig(&params, scenarios::mix_pe_pool(&params), 4, 4, 6.0, 3.0);
            rig.run(win / 4)
        }),
    ];

    let sweeps = vec![
        sweep_case("f4-topology-sweep", &|| {
            crate::experiments::f4_topology::run(true).table
        }),
        sweep_case("t8-pe-pool-dse", &|| {
            crate::experiments::t8_video::run(true).table
        }),
        sweep_case("t3-replica-sweep", &|| {
            crate::experiments::t3_ipv4::run(true).table
        }),
        sweep_case("t5-lpm-grid", &|| {
            crate::experiments::t5_lpm::run(true).table
        }),
        // T6's rendered table carries an informational mapper wall-clock
        // column, so identity is checked on the deterministic fields.
        sweep_case("t6-mapper-eval", &|| {
            crate::experiments::t6_mapping::run(true)
                .rows
                .iter()
                .map(|r| {
                    format!(
                        "{}|{:.9}|{:.9}|{:.9}",
                        r.mapper, r.analytic_cost, r.forwarded_ratio, r.egress_gbps
                    )
                })
                .collect::<Vec<_>>()
                .join("\n")
        }),
        sweep_case("t9-latency-sweep", &|| {
            crate::experiments::t9_modem::run(true).table
        }),
        sweep_case("t11-mix-grid", &|| {
            crate::experiments::t11_mix::run(true).table
        }),
    ];

    // The T11 grid under `--warm-fork` (one warmed snapshot, rates retuned
    // per point) timed against its full-rewarmup protocol. Same grid
    // points, same window; the fork path skips per-point warmup.
    let warm_fork = vec![warm_fork_case(
        "t11-mix-grid",
        &|| format!("{:?}", crate::experiments::t11_mix::bench_grid(true, false)),
        &|| format!("{:?}", crate::experiments::t11_mix::bench_grid(true, true)),
    )];

    let experiments = ALL_IDS
        .iter()
        .map(|id| {
            let t = Instant::now();
            let out = run_by_id(id, quick);
            assert!(out.is_some(), "registered id {id} must run");
            ExptTiming {
                id: (*id).to_owned(),
                secs: t.elapsed().as_secs_f64(),
            }
        })
        .collect();

    BenchReport {
        quick,
        sweep_threads: nw_sim::sweep_threads(),
        scheduler,
        sweeps,
        warm_fork,
        experiments,
        profile: crate::obs::run_profile(quick, None),
    }
}

/// Wraps a scalar measurement pair into a `PlatformReport`-shaped value so
/// the F6 rig (which reads PE stats directly rather than reporting) can be
/// compared across schedulers with the same equality check.
fn synthetic_report(utilization: f64, tasks: u64) -> PlatformReport {
    PlatformReport {
        cycles: nw_types::Cycles(0),
        clock_hz: 0.0,
        tasks_completed: tasks,
        pe_utilization: vec![utilization],
        thread_occupancy: Vec::new(),
        noc: nw_noc::NocStats {
            injected: 0,
            delivered: 0,
            refused: 0,
            flit_hops: 0,
            latency: nw_sim::Histogram::new(),
        },
        io: Vec::new(),
        energy: nw_types::Picojoules(0.0),
        queued_invocations: 0,
        object_invocations: Vec::new(),
        latency: Vec::new(),
        mem_accesses: 0,
        fabric_served: 0,
        hwip_served: 0,
        resilience: nanowall::ResilienceStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_enough() {
        let r = BenchReport {
            quick: true,
            sweep_threads: 4,
            scheduler: vec![SchedEntry {
                name: "x".into(),
                cycles: 100,
                dense_secs: 0.2,
                active_secs: 0.1,
                active_cycles_per_sec: 1000.0,
                bit_identical: true,
            }],
            sweeps: vec![SweepEntry {
                name: "y".into(),
                serial_secs: 0.4,
                parallel_secs: 0.1,
                threads: 4,
                identical: true,
            }],
            warm_fork: vec![WarmForkEntry {
                name: "wf".into(),
                cold_secs: 0.6,
                fork_secs: 0.2,
                deterministic: true,
            }],
            experiments: vec![ExptTiming {
                id: "t1".into(),
                secs: 0.01,
            }],
            profile: vec![ProfileEntry {
                rig: "mix".into(),
                cycles: 1_000,
                measured_secs: 0.5,
                report: nanowall::ProfileReport {
                    phases: vec![nanowall::PhaseSlice {
                        phase: nanowall::HostPhase::NocTick,
                        secs: 0.25,
                        laps: 10,
                    }],
                    total_secs: 0.25,
                },
                sched: nanowall::SchedulerStats::default(),
            }],
        };
        let j = r.to_json();
        assert!(j.contains("\"bit_identical\": true"));
        assert!(j.contains("\"speedup\": 2.000000"));
        assert!(j.contains("\"speedup\": 4.000000"));
        assert!(j.contains("\"id\": \"t1\""));
        assert!(j.contains("\"host_phase_breakdown\""));
        assert!(j.contains("\"rig\": \"mix\""));
        assert!(j.contains("\"noc_tick\": 0.250000"));
        assert!(j.contains("\"warm_fork_grids\""));
        assert!(j.contains("\"grid\": \"wf\""));
        assert!(j.contains("\"speedup\": 3.000000"));
        // Profile and warm-fork rows must never parse as scheduler
        // baseline entries.
        assert_eq!(parse_scheduler_entries(&j).len(), r.scheduler.len());
        assert_eq!(parse_warm_fork_entries(&j), vec![("wf".to_owned(), 0.2)]);
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces: {j}"
        );
        assert!(!r.render().is_empty());
    }

    #[test]
    fn delta_table_reads_own_json_format() {
        let base = BenchReport {
            quick: true,
            sweep_threads: 1,
            scheduler: vec![
                SchedEntry {
                    name: "riga".into(),
                    cycles: 100,
                    dense_secs: 0.2,
                    active_secs: 0.1,
                    active_cycles_per_sec: 1000.0,
                    bit_identical: true,
                },
                SchedEntry {
                    name: "gone".into(),
                    cycles: 100,
                    dense_secs: 0.2,
                    active_secs: 0.1,
                    active_cycles_per_sec: 500.0,
                    bit_identical: true,
                },
            ],
            sweeps: Vec::new(),
            warm_fork: vec![WarmForkEntry {
                name: "t11-mix-grid".into(),
                cold_secs: 0.8,
                fork_secs: 0.4,
                deterministic: true,
            }],
            experiments: Vec::new(),
            profile: Vec::new(),
        };
        let mut new = base.clone();
        new.scheduler[0].active_cycles_per_sec = 2500.0;
        new.scheduler[1].name = "fresh".into();
        new.warm_fork[0].fork_secs = 0.3;
        let table = new.delta_table(&base.to_json());
        assert!(table.contains("riga"), "{table}");
        assert!(table.contains("2.50x"), "2.5x speedup row: {table}");
        assert!(table.contains("(new rig)"), "{table}");
        assert!(
            table.contains("gone") && table.contains("removed"),
            "{table}"
        );
        assert!(
            table.contains("fork   0.4000s ->   0.3000s"),
            "warm-fork delta row: {table}"
        );

        let mut unseen = new.clone();
        unseen.warm_fork[0].name = "brand-new-grid".into();
        let table = unseen.delta_table(&base.to_json());
        assert!(table.contains("(new grid;"), "{table}");
    }

    #[test]
    fn speedup_handles_zero_division() {
        let e = SchedEntry {
            name: "z".into(),
            cycles: 1,
            dense_secs: 1.0,
            active_secs: 0.0,
            active_cycles_per_sec: 0.0,
            bit_identical: true,
        };
        assert_eq!(e.speedup(), 0.0);
    }
}
