//! `expt` — regenerate the paper's tables and figures.
//!
//! ```text
//! expt all            # every experiment, `expt list` order
//! expt t3 f6          # selected experiments
//! expt --fast all     # smaller simulation windows
//! expt list           # registered experiments, scenarios and lint rules
//! expt lint           # determinism audit (nw-analyze); non-zero on findings
//! expt lint --json    # machine-readable findings for CI
//! expt lint --rules   # the rule registry (id + one-line contract)
//! expt parity [--quick] [--seed N]           # the bit-identity matrix
//! expt trace --scenario mix --out mix.json   # Perfetto trace of a scenario
//! expt profile [--quick]                     # host-side phase breakdown
//! expt t11 --warm-fork                       # sweep grids off one warmed snapshot
//! expt --help         # the subcommand table
//! ```
//!
//! Exit codes follow one convention across every subcommand: `0` success,
//! `1` a check failed or output could not be written (lint findings, a
//! parity divergence, I/O errors), `2` usage (unknown
//! subcommand/experiment/scenario/flag, malformed flag values — including
//! a bad `--seed`, which parses uniformly via [`obs::take_seed_flag`]
//! wherever it is accepted: `parity`, `trace`, `profile`).

use nw_bench::experiments::{find, Ctx, EXPERIMENTS};
use nw_bench::obs;

/// Parses the uniform `--seed` flag out of `args`, exiting 2 on a
/// malformed value (the shared usage failure mode).
fn take_seed_or_usage(args: &mut Vec<String>, subcommand: &str) -> Option<u64> {
    obs::take_seed_flag(args).unwrap_or_else(|e| {
        eprintln!("{subcommand}: {e}");
        std::process::exit(2);
    })
}

/// Parses the `[--quick] [--seed <u64>]` tail `parity` and `profile` share;
/// anything else is a usage error.
fn quick_and_seed(args: &[String], subcommand: &str) -> (bool, Option<u64>) {
    let mut rest = args.to_vec();
    let seed = take_seed_or_usage(&mut rest, subcommand);
    if let Some(bad) = rest.iter().find(|a| *a != "--quick") {
        eprintln!("usage: expt {subcommand} [--quick] [--seed <u64>] (unknown argument: {bad})");
        std::process::exit(2);
    }
    (rest.iter().any(|a| a == "--quick"), seed)
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
    match args.first().map(String::as_str) {
        Some("trace") => return run_trace_cmd(&args[1..]),
        Some("profile") => {
            let (quick, seed) = quick_and_seed(&args[1..], "profile");
            print!("{}", obs::render_profile(&obs::run_profile(quick, seed)));
            return;
        }
        Some("parity") => {
            let (quick, seed) = quick_and_seed(&args[1..], "parity");
            let run = nw_bench::parity::run_parity(quick, seed.unwrap_or(1));
            print!("{}", run.render());
            if !run.ok() {
                std::process::exit(1);
            }
            return;
        }
        Some("lint") => {
            let json = args.iter().any(|a| a == "--json");
            let rules = args.iter().any(|a| a == "--rules");
            if let Some(bad) = args[1..].iter().find(|a| *a != "--json" && *a != "--rules") {
                eprintln!("usage: expt lint [--json] [--rules] (unknown argument: {bad})");
                std::process::exit(2);
            }
            return run_lint(json, rules);
        }
        _ => {}
    }

    // An experiment run: ids plus `--fast` / `--warm-fork`, nothing else.
    let (flags, ids): (Vec<&str>, Vec<&str>) =
        (args.iter().map(String::as_str)).partition(|a| a.starts_with("--"));
    if let Some(bad) = flags
        .iter()
        .find(|f| !["--fast", "--warm-fork"].contains(f))
    {
        eprintln!("unknown flag for an experiment run: {bad} (accepted: --fast, --warm-fork)");
        std::process::exit(2);
    }
    if ids == ["list"] {
        print_list();
        return;
    }
    if ids.is_empty() {
        eprintln!(
            "usage: expt [--fast] [--warm-fork] <list | all | lint | parity | trace | profile | {}> (see `expt --help`)",
            EXPERIMENTS.map(|e| e.id).join(" | ")
        );
        std::process::exit(2);
    }
    let selected = if ids.contains(&"all") {
        EXPERIMENTS.to_vec()
    } else {
        (ids.iter())
            .map(|id| {
                find(id).unwrap_or_else(|| {
                    eprintln!("unknown experiment id: {id}");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    let ctx = Ctx {
        warm_fork: flags.contains(&"--warm-fork"),
        ..Ctx::new(flags.contains(&"--fast"))
    };
    for e in selected {
        println!("{}", (e.run)(ctx));
    }
}
