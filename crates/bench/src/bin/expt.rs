//! `expt` — regenerate the paper's tables and figures.
//!
//! ```text
//! expt all            # every experiment, `expt list` order
//! expt t3 f6          # selected experiments
//! expt --fast all     # smaller simulation windows
//! expt list           # registered experiments, scenarios and lint rules
//! expt bench          # time the simulator, write BENCH_platform.json
//! expt bench --quick  # CI-sized benchmark windows
//! expt lint           # determinism audit (nw-analyze); non-zero on findings
//! expt lint --json    # machine-readable findings for CI
//! expt lint --rules   # the rule registry (id + one-line contract)
//! expt faults [--quick] [--seed N]           # fault-injection parity harness
//! expt snapshot [--quick] [--seed N]         # checkpoint round-trip bit-identity matrix
//! expt trace --scenario mix --out mix.json   # Perfetto trace of a scenario
//! expt profile [--quick]                     # host-side phase breakdown
//! expt t11 --warm-fork                       # sweep grids off one warmed snapshot
//! expt --help         # the subcommand table
//! ```
//!
//! Exit codes follow one convention across every subcommand: `0` success,
//! `1` a check failed or output could not be written (lint findings,
//! scheduler/parity divergence, snapshot round-trip divergence, I/O
//! errors), `2` usage (unknown subcommand/experiment/scenario, malformed
//! flag values — including a bad `--seed`, which parses uniformly via
//! [`obs::take_seed_flag`] wherever it is accepted: `bench`, `trace`,
//! `profile`, `faults`, `snapshot`).

use nw_bench::experiments::{run_by_id, run_by_id_warm_fork, ALL_IDS, EXPERIMENTS};
use nw_bench::obs;

/// Parses the uniform `--seed` flag out of `args`, exiting 2 on a
/// malformed value (the shared usage failure mode).
fn take_seed_or_usage(args: &mut Vec<String>, subcommand: &str) -> Option<u64> {
    obs::take_seed_flag(args).unwrap_or_else(|e| {
        eprintln!("{subcommand}: {e}");
        std::process::exit(2);
    })
}

/// Prints the subcommand table (shared with `expt list` and pinned by the
/// smoke tests).
fn print_help() {
    println!("usage: expt [--fast] <subcommand> [args]");
    println!();
    println!("Subcommands:");
    print!("{}", obs::render_subcommands());
}

/// Prints the subcommand table, the experiment index, the
/// scenario-registry catalog and the determinism-audit rule registry.
fn print_list() {
    println!("Subcommands:");
    print!("{}", obs::render_subcommands());
    println!();
    println!("Experiments (run with `expt <id>`):");
    for e in EXPERIMENTS {
        println!("  {:<4} {}", e.id, e.title);
    }
    println!();
    println!("Scenario registry (nanowall::scenarios::ScenarioRegistry::standard):");
    for spec in nanowall::ScenarioRegistry::standard().specs() {
        println!("  {:<8} {}", spec.name, spec.summary);
    }
    println!();
    println!("Determinism-audit rules (run with `expt lint`):");
    for rule in nw_analyze::ALL_RULES {
        println!("  {:<8} {}", rule.id(), rule.description());
    }
}

/// `expt trace`: run a scenario traced, write the Perfetto JSON.
/// `--seed N` installs a seeded fault campaign so the trace shows the
/// fault tracks.
fn run_trace_cmd(args: &[String]) {
    let mut args = args.to_vec();
    let seed = take_seed_or_usage(&mut args, "trace");
    let mut scenario = "mix".to_owned();
    let mut out = "trace.json".to_owned();
    let mut cycles: u64 = 50_000;
    let mut buffer: usize = 1 << 16;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |what: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("trace: {what} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--scenario" => scenario = grab("--scenario"),
            "--out" => out = grab("--out"),
            "--cycles" => {
                cycles = grab("--cycles").parse().unwrap_or_else(|e| {
                    eprintln!("trace: bad --cycles: {e}");
                    std::process::exit(2);
                });
            }
            "--buffer" => {
                buffer = grab("--buffer").parse().unwrap_or_else(|e| {
                    eprintln!("trace: bad --buffer: {e}");
                    std::process::exit(2);
                });
            }
            bad => {
                eprintln!(
                    "usage: expt trace [--scenario <name>] [--out <file>] [--cycles <n>] [--buffer <n>] [--seed <u64>] (unknown argument: {bad})"
                );
                std::process::exit(2);
            }
        }
    }
    let run = obs::run_trace(&scenario, cycles, buffer, seed).unwrap_or_else(|e| {
        eprintln!("trace: {e}");
        std::process::exit(2);
    });
    std::fs::write(&out, &run.json).unwrap_or_else(|e| {
        eprintln!("trace: cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!(
        "TRACE  {scenario}  {cycles} cycles  {} events captured  {} dropped  -> {out}",
        run.events, run.dropped
    );
    print!("{}", run.heatmap_table);
}

/// `expt lint`: runs the determinism auditor over the workspace and exits
/// non-zero on any non-allowlisted finding (the CI gate).
fn run_lint(json: bool, rules: bool) {
    if rules {
        for rule in nw_analyze::ALL_RULES {
            println!("{:<8} {}", rule.id(), rule.description());
        }
        return;
    }
    let cwd = std::env::current_dir().unwrap_or_else(|e| {
        eprintln!("lint: cannot read the current directory: {e}");
        std::process::exit(2);
    });
    let root = nw_analyze::find_root(&cwd).unwrap_or_else(|| {
        eprintln!(
            "lint: no workspace root above {} (looked for {} or a [workspace] manifest)",
            cwd.display(),
            nw_analyze::ALLOWLIST_FILE
        );
        std::process::exit(2);
    });
    let report = nw_analyze::analyze(&root).unwrap_or_else(|e| {
        eprintln!("lint: cannot scan {}: {e}", root.display());
        std::process::exit(2);
    });
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render());
    }
    if !report.is_clean() {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    if args.first().map(String::as_str) == Some("trace") {
        run_trace_cmd(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("profile") {
        let mut rest = args[1..].to_vec();
        let seed = take_seed_or_usage(&mut rest, "profile");
        if let Some(bad) = rest.iter().find(|a| *a != "--quick") {
            eprintln!("usage: expt profile [--quick] [--seed <u64>] (unknown argument: {bad})");
            std::process::exit(2);
        }
        let quick = rest.iter().any(|a| a == "--quick");
        print!("{}", obs::render_profile(&obs::run_profile(quick, seed)));
        return;
    }
    if args.first().map(String::as_str) == Some("faults") {
        let mut rest = args[1..].to_vec();
        let seed = take_seed_or_usage(&mut rest, "faults").unwrap_or(1);
        if let Some(bad) = rest.iter().find(|a| *a != "--quick") {
            eprintln!("usage: expt faults [--quick] [--seed <u64>] (unknown argument: {bad})");
            std::process::exit(2);
        }
        let quick = rest.iter().any(|a| a == "--quick");
        let run = nw_bench::faults::run_faults(quick, seed);
        print!("{}", run.table);
        if !run.ok {
            std::process::exit(1);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("snapshot") {
        let mut rest = args[1..].to_vec();
        let seed = take_seed_or_usage(&mut rest, "snapshot");
        if let Some(bad) = rest.iter().find(|a| *a != "--quick") {
            eprintln!("usage: expt snapshot [--quick] [--seed <u64>] (unknown argument: {bad})");
            std::process::exit(2);
        }
        let quick = rest.iter().any(|a| a == "--quick");
        let check = nw_bench::snapshot::run_snapshot_check(quick, seed);
        print!("{}", check.table);
        if !check.ok {
            std::process::exit(1);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("lint") {
        let json = args.iter().any(|a| a == "--json");
        let rules = args.iter().any(|a| a == "--rules");
        if let Some(bad) = args[1..].iter().find(|a| *a != "--json" && *a != "--rules") {
            eprintln!("usage: expt lint [--json] [--rules] (unknown argument: {bad})");
            std::process::exit(2);
        }
        run_lint(json, rules);
        return;
    }
    let mut args = args;
    let seed = take_seed_or_usage(&mut args, "bench");
    let fast = args.iter().any(|a| a == "--fast");
    let quick = args.iter().any(|a| a == "--quick");
    let warm_fork = args.iter().any(|a| a == "--warm-fork");
    // `--baseline <path>`: after a bench run, print a delta table against a
    // previously committed BENCH_platform.json (informational; only
    // bit-identity divergence fails the run, never timing).
    let baseline = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut skip_next = false;
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--baseline" {
                skip_next = true;
                return false;
            }
            *a != "--fast" && *a != "--quick" && *a != "--warm-fork"
        })
        .map(String::as_str)
        .collect();
    if ids == ["list"] {
        print_list();
        return;
    }
    if ids == ["bench"] {
        let report = nw_bench::bench::run_bench(quick || fast);
        print!("{}", report.render());
        if let Some(base_path) = baseline {
            match std::fs::read_to_string(&base_path) {
                Ok(json) => print!("{}", report.delta_table(&json)),
                Err(e) => eprintln!("cannot read baseline {base_path}: {e} (skipping delta)"),
            }
        }
        let path = "BENCH_platform.json";
        std::fs::write(path, report.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
        // Timing is informational; correctness is not. Any scheduler or
        // sweep divergence fails the run.
        let diverged = report.scheduler.iter().any(|e| !e.bit_identical)
            || report.sweeps.iter().any(|e| !e.identical);
        if diverged {
            eprintln!("bench: dense/active or serial/parallel divergence detected");
            std::process::exit(1);
        }
        // `--seed N` extends the parity gate to faulted runs: the same
        // scheduler/repeat bit-identity checks, under a seeded campaign
        // (the JSON above stays fault-free and baseline-comparable).
        if let Some(seed) = seed {
            let faulted = nw_bench::faults::run_faults(quick || fast, seed);
            print!("{}", faulted.table);
            if !faulted.ok {
                eprintln!("bench: faulted scheduler parity diverged (seed {seed})");
                std::process::exit(1);
            }
        }
        return;
    }
    if ids.is_empty() {
        eprintln!(
            "usage: expt [--fast] [--warm-fork] <list | all | bench | lint | faults | snapshot | trace | profile | {}> (see `expt --help`)",
            ALL_IDS.join(" | ")
        );
        std::process::exit(2);
    }
    let selected: Vec<&str> = if ids.contains(&"all") {
        ALL_IDS.to_vec()
    } else {
        ids
    };
    for id in selected {
        let out = if warm_fork {
            run_by_id_warm_fork(id, fast)
        } else {
            run_by_id(id, fast)
        };
        match out {
            Some(out) => {
                println!("{out}");
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                std::process::exit(2);
            }
        }
    }
}
