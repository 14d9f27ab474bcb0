//! `expt trace` and `expt profile` — the observability subcommands.
//!
//! `trace` runs a registered scenario with a [`RingBufferSink`] installed,
//! exports the captured events as Chrome trace-event / Perfetto JSON
//! (open the file in `ui.perfetto.dev` or `chrome://tracing`), and appends
//! the NoC contention heatmap both inside the JSON and as a stdout table.
//!
//! `profile` runs a few representative rigs with a [`HostProfiler`]
//! installed and prints where the simulator process spends its wall-clock
//! time, phase by phase, with the invariant that the attributed phase
//! times sum to (almost all of) the measured loop wall-clock — lap-based
//! attribution leaves no gaps.

use crate::arm_faults;
use nanowall::scenarios::ScenarioRegistry;
use nanowall::{HostProfiler, ProfileReport, RingBufferSink};
use std::fmt::Write as _;
use std::time::Instant;

/// Every `expt` subcommand with its one-line description — the single
/// source for `expt --help`, `expt list`, and the smoke tests that pin
/// both.
pub const SUBCOMMANDS: &[(&str, &str)] = &[
    (
        "list",
        "registered experiments, scenarios, trace subcommands and lint rules",
    ),
    ("all", "run every experiment in `expt list` order"),
    (
        "<id>...",
        "run selected experiments (see `expt list` for ids; --fast shrinks windows, --warm-fork shares one warmed snapshot across sweep-grid points)",
    ),
    (
        "lint",
        "determinism audit via nw-analyze; non-zero on findings (--json, --rules)",
    ),
    (
        "parity",
        "bit-identity matrix: scenarios x faults x schedulers x trace x snapshot paths, plus every experiment table under the dense scheduler and on one worker; non-zero on divergence (--quick, --seed)",
    ),
    (
        "identity",
        "every recorded output (benchmark-rig counts, trace and report digests, experiment tables, the mix trace) against crates/bench/identity.tsv; non-zero on a moved row",
    ),
    (
        "trace",
        "run a scenario with tracing, write Perfetto JSON (--scenario <name> --out <file>, --seed injects faults)",
    ),
    (
        "profile",
        "host-side wall-clock phase breakdown of the main loop (--quick, --seed injects faults)",
    ),
];

/// Extracts the uniform `--seed <u64>` flag from `args`, removing both
/// tokens.
///
/// Every seed-taking subcommand (`parity`, `trace`, `profile`)
/// parses the flag through this one function, so the syntax and the
/// failure mode are identical everywhere: a missing or non-`u64` value is
/// a usage error (`expt` exits 2).
///
/// # Errors
///
/// `--seed` present without a value, or with a value that does not parse
/// as `u64`.
pub fn take_seed_flag(args: &mut Vec<String>) -> Result<Option<u64>, String> {
    let Some(i) = args.iter().position(|a| a == "--seed") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err("--seed needs a value".to_owned());
    }
    let raw = args.remove(i + 1);
    args.remove(i);
    raw.parse::<u64>()
        .map(Some)
        .map_err(|e| format!("bad --seed {raw:?}: {e}"))
}

/// Renders the subcommand table (the body of `expt --help`).
pub fn render_subcommands() -> String {
    let mut s = String::new();
    for (name, what) in SUBCOMMANDS {
        let _ = writeln!(s, "  {name:<10} {what}");
    }
    s
}

/// The outcome of one traced scenario run.
#[derive(Debug)]
pub struct TraceRun {
    /// The Chrome trace-event JSON (validated before being handed out).
    pub json: String,
    /// Events captured in the ring (after eviction).
    pub events: usize,
    /// Events evicted because the ring was full.
    pub dropped: u64,
    /// Rendered heatmap table for stdout.
    pub heatmap_table: String,
}

/// Runs registry scenario `name` for `cycles` cycles with a ring of
/// `buffer` events attached, and exports the capture as validated
/// Chrome/Perfetto JSON.
///
/// With `fault_seed`, a level-1.0 fault campaign (plus the default retry
/// policy) is installed first, so the exported timeline carries the fault
/// tracks — injections, retries and reroutes — alongside the traffic.
///
/// # Errors
///
/// An unknown scenario name, or (which would be a bug) the exporter
/// producing JSON its own validator rejects.
pub fn run_trace(
    name: &str,
    cycles: u64,
    buffer: usize,
    fault_seed: Option<u64>,
) -> Result<TraceRun, String> {
    let registry = ScenarioRegistry::standard();
    let mut rig = registry.build(name, true).ok_or_else(|| {
        let known: Vec<&str> = registry.specs().iter().map(|s| s.name).collect();
        format!("unknown scenario {name:?} (known: {})", known.join(", "))
    })?;
    if let Some(seed) = fault_seed {
        arm_faults(&mut rig.platform, seed, cycles, 1.0);
    }
    rig.platform
        .set_trace_sink(Box::new(RingBufferSink::new(buffer)));
    rig.run(cycles);
    let mut sink = rig
        .platform
        .take_trace_sink()
        .expect("sink was installed above");
    let ring = sink
        .as_any_mut()
        .downcast_mut::<RingBufferSink>()
        .expect("installed sink is a RingBufferSink");
    let dropped = ring.dropped();
    let events = ring.drain();
    let heatmap = rig.platform.noc_heatmap();
    let json = nanowall::export_chrome_trace(&events, dropped, heatmap.as_ref());
    nanowall::validate_chrome_trace(&json)
        .map_err(|e| format!("exporter produced an invalid trace: {e}"))?;
    Ok(TraceRun {
        json,
        events: events.len(),
        dropped,
        heatmap_table: heatmap.map(|h| h.render(8)).unwrap_or_default(),
    })
}

/// One profiled rig: the phase breakdown plus the independently measured
/// total wall-clock of the run it profiled.
#[derive(Debug, Clone)]
pub struct ProfileEntry {
    /// Rig label.
    pub rig: String,
    /// Simulated window in cycles.
    pub cycles: u64,
    /// Wall-clock of the whole `run` call, measured outside the profiler.
    pub measured_secs: f64,
    /// The profiler's per-phase attribution.
    pub report: ProfileReport,
    /// The scheduler's deterministic work counters over the same run: why
    /// the wall-clock above is what it is, without its noise.
    pub sched: nanowall::SchedulerStats,
}

/// Profiles the scheduler main loop on representative scenario rigs.
/// `quick` shrinks the windows to CI size. With `fault_seed`, the rigs run
/// under a seeded campaign so the breakdown includes the fault/retry
/// phase.
pub fn run_profile(quick: bool, fault_seed: Option<u64>) -> Vec<ProfileEntry> {
    let win = if quick { 200_000 } else { 1_000_000 };
    let registry = ScenarioRegistry::standard();
    // One busy rig (mix: telecom + IPv4 sharing the fabric) and one
    // mostly-idle rig (modem: bursts far apart) — the two regimes have
    // opposite phase profiles (step-dominated vs fast-forward-dominated) —
    // then the line-rate rig (ipv4: worker PEs kept full, so `pe_step` and
    // `noc_tick` carry it), the regime nwbench's `ipv4-sat` saturates.
    [("mix", win / 2), ("modem", win), ("ipv4", win / 2)]
        .iter()
        .map(|&(name, cycles)| {
            let mut rig = registry
                .build(name, true)
                .expect("standard registry scenario");
            if let Some(seed) = fault_seed {
                arm_faults(&mut rig.platform, seed, cycles, 1.0);
            }
            rig.platform.set_host_profiler(HostProfiler::new());
            let t = Instant::now();
            rig.run(cycles);
            let measured_secs = t.elapsed().as_secs_f64();
            let report = rig
                .platform
                .take_host_profiler()
                .expect("profiler was installed above")
                .report();
            ProfileEntry {
                rig: name.to_owned(),
                cycles,
                measured_secs,
                report,
                sched: rig.platform.scheduler_stats(),
            }
        })
        .collect()
}

/// Renders profile entries for stdout.
pub fn render_profile(entries: &[ProfileEntry]) -> String {
    let mut s = String::new();
    for e in entries {
        let _ = writeln!(
            s,
            "PROFILE  {}  {} cycles  measured {:.3}s  attributed {:.3}s ({:.1}%)",
            e.rig,
            e.cycles,
            e.measured_secs,
            e.report.total_secs,
            if e.measured_secs > 0.0 {
                e.report.total_secs / e.measured_secs * 100.0
            } else {
                0.0
            }
        );
        for line in e.report.render().lines().skip(1) {
            let _ = writeln!(s, "{line}");
        }
        let _ = writeln!(
            s,
            "  scheduler  stepped {}  hopped {}  hops {}  hops_ended_by_io {}  span_cycles {}  pe_ticks {}  pe_external_wakes {}",
            e.sched.cycles_stepped,
            e.sched.cycles_hopped,
            e.sched.hops,
            e.sched.hops_ended_by_io,
            e.sched.span_cycles,
            e.sched.pe_ticks,
            e.sched.pe_external_wakes
        );
        let entered = e.sched.phases_entered;
        let _ = write!(s, "  phases     entered {}:", entered.iter().sum::<u64>());
        for (phase, n) in nanowall::HostPhase::ALL.iter().zip(entered) {
            let _ = write!(s, "  {} {n}", phase.name());
        }
        let _ = writeln!(s);
        let noc = e.sched.noc;
        let _ = writeln!(
            s,
            "  noc        ticks {}  skipped {}  arrivals {}  wakes_scheduled {}  router_visits {}  fires {}",
            noc.ticks,
            e.sched.noc_ticks_skipped,
            noc.arrivals,
            noc.wakes_scheduled,
            noc.router_visits,
            noc.fires
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_rejects_unknown_scenario() {
        let err = run_trace("no-such-scenario", 1_000, 64, None).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        assert!(err.contains("mix"), "lists known scenarios: {err}");
    }

    #[test]
    fn trace_on_mix_validates_and_captures_events() {
        let run = run_trace("mix", 20_000, 4096, None).expect("mix traces cleanly");
        assert!(run.events > 0, "a loaded scenario emits events");
        assert!(run.json.contains("\"traceEvents\""));
        assert!(
            run.heatmap_table.contains("busiest links"),
            "{}",
            run.heatmap_table
        );
    }

    #[test]
    fn profile_attribution_covers_measured_wall_clock() {
        let entries = run_profile(true, None);
        assert_eq!(entries.len(), 3);
        for e in &entries {
            // Lap-based attribution leaves no gaps between arming (run
            // start) and pausing (run end), so the phase sum must land
            // within 5% of the independently measured run wall-clock.
            assert!(
                e.report.total_secs <= e.measured_secs * 1.05,
                "{}: attributed {} > measured {}",
                e.rig,
                e.report.total_secs,
                e.measured_secs
            );
            assert!(
                e.report.total_secs >= e.measured_secs * 0.95,
                "{}: attributed {} misses measured {}",
                e.rig,
                e.report.total_secs,
                e.measured_secs
            );
        }
        let text = render_profile(&entries);
        assert!(text.contains("PROFILE  mix"));
        assert!(text.contains("PROFILE  ipv4"));
        assert!(text.contains("scheduler  stepped"), "{text}");
        assert!(text.contains("phases     entered"), "{text}");
        for e in &entries {
            assert_eq!(e.sched.cycles_stepped + e.sched.cycles_hopped, e.cycles);
            assert!(e.sched.span_cycles <= e.sched.cycles_stepped);
            // A phase is entered at most once per stepped cycle, and its
            // profiler laps are those entries (I/O pacing laps every cycle).
            for (slice, entered) in e.report.phases.iter().zip(e.sched.phases_entered) {
                assert!(entered <= e.sched.cycles_stepped);
                if slice.phase == nanowall::HostPhase::IoPacing {
                    assert_eq!(slice.laps, e.sched.cycles_stepped);
                } else {
                    assert_eq!(slice.laps, entered, "{:?}", slice.phase);
                }
            }
        }
    }

    #[test]
    fn seed_flag_parses_uniformly() {
        let mut none = vec!["--quick".to_owned()];
        assert_eq!(take_seed_flag(&mut none), Ok(None));
        assert_eq!(none, vec!["--quick".to_owned()]);

        let mut ok = vec!["--seed".to_owned(), "42".to_owned(), "--quick".to_owned()];
        assert_eq!(take_seed_flag(&mut ok), Ok(Some(42)));
        assert_eq!(ok, vec!["--quick".to_owned()], "both tokens removed");

        let mut bad = vec!["--seed".to_owned(), "banana".to_owned()];
        assert!(take_seed_flag(&mut bad).is_err());
        let mut missing = vec!["--seed".to_owned()];
        assert!(take_seed_flag(&mut missing).is_err());
        let mut negative = vec!["--seed".to_owned(), "-1".to_owned()];
        assert!(take_seed_flag(&mut negative).is_err());
    }

    #[test]
    fn seeded_trace_captures_fault_events() {
        let run = run_trace("mix", 20_000, 1 << 16, Some(3)).expect("faulted mix traces cleanly");
        assert!(
            run.json.contains("\"faults\""),
            "fault track metadata missing from the export"
        );
        assert!(
            run.json.contains("\"retry\"") || run.json.contains("link-"),
            "no fault/retry instants captured"
        );
    }

    #[test]
    fn subcommand_table_mentions_every_subcommand() {
        let help = render_subcommands();
        for (name, _) in SUBCOMMANDS {
            assert!(help.contains(name), "missing {name} in:\n{help}");
        }
    }
}
