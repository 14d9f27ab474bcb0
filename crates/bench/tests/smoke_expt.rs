//! End-to-end smoke tests for the `expt` binary and its experiment registry.
//! What the simulator must agree with itself on — schedulers, pool sizes,
//! faults, tracing, snapshots — is `expt parity`'s matrix, run here once,
//! in process; the reference tables that run renders are checked against
//! their `table.fast.<id>` rows of `crates/bench/identity.tsv`.

use nw_bench::experiments::EXPERIMENTS;
use nw_bench::parity::{run_parity, GROUP};
use std::process::Command;

/// `expt list` prints every experiment id and covers every entry of the
/// scenario registry — name *and* a non-empty one-line description — so
/// the CLI index can never silently fall behind the catalog.
#[test]
fn expt_list_covers_every_experiment_and_scenario() {
    let exe = env!("CARGO_BIN_EXE_expt");
    let out = Command::new(exe).arg("list").output().expect("spawns");
    assert!(out.status.success(), "expt list must exit 0: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in EXPERIMENTS.map(|e| e.id) {
        assert!(
            stdout.lines().any(|l| l.trim_start().starts_with(id)),
            "list must name {id}: {stdout}"
        );
    }
    let reg = nanowall::ScenarioRegistry::standard();
    assert!(
        reg.names().contains(&"mix"),
        "the mix family must be registered"
    );
    for spec in reg.specs() {
        assert!(
            !spec.summary.trim().is_empty(),
            "{} needs a description",
            spec.name
        );
        let listed = stdout.lines().any(|l| {
            let t = l.trim_start();
            t.starts_with(spec.name) && t.contains(spec.summary)
        });
        assert!(
            listed,
            "list must show scenario {} with its description: {stdout}",
            spec.name
        );
    }
}

/// The determinism-audit rule registry is pinned the same way as the
/// scenario catalog: `expt list` (and `expt lint --rules`) must name every
/// rule id with a non-empty one-line description, so a rule can never be
/// added to the auditor without surfacing in the CLI index.
#[test]
fn expt_list_covers_every_lint_rule() {
    let exe = env!("CARGO_BIN_EXE_expt");
    let list = Command::new(exe).arg("list").output().expect("spawns");
    assert!(list.status.success(), "expt list must exit 0: {list:?}");
    let list_out = String::from_utf8_lossy(&list.stdout);
    let rules = Command::new(exe)
        .args(["lint", "--rules"])
        .output()
        .expect("spawns");
    assert!(
        rules.status.success(),
        "lint --rules must exit 0: {rules:?}"
    );
    let rules_out = String::from_utf8_lossy(&rules.stdout);
    for rule in nw_analyze::ALL_RULES {
        assert!(
            !rule.description().trim().is_empty(),
            "{} needs a description",
            rule.id()
        );
        for (name, out) in [("list", &list_out), ("lint --rules", &rules_out)] {
            let shown = out.lines().any(|l| {
                let t = l.trim_start();
                t.starts_with(rule.id()) && t.contains(rule.description())
            });
            assert!(
                shown,
                "expt {name} must show {} with its description: {out}",
                rule.id()
            );
        }
    }
}

/// `expt lint` over this workspace: exits 0, reports a clean scan in both
/// human and JSON renderings, and rejects unknown flags with a usage error.
#[test]
fn expt_lint_passes_on_this_workspace() {
    let exe = env!("CARGO_BIN_EXE_expt");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("bench crate lives two levels under the workspace root");

    let clean = Command::new(exe)
        .arg("lint")
        .current_dir(root)
        .output()
        .expect("spawns");
    assert!(
        clean.status.success(),
        "expt lint must exit 0 on a clean tree: {}",
        String::from_utf8_lossy(&clean.stdout)
    );
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(stdout.contains("0 finding(s)"), "summary line: {stdout}");

    let json = Command::new(exe)
        .args(["lint", "--json"])
        .current_dir(root)
        .output()
        .expect("spawns");
    assert!(json.status.success(), "lint --json exits 0: {json:?}");
    let jout = String::from_utf8_lossy(&json.stdout);
    assert!(
        jout.contains("\"clean\": true"),
        "JSON report is clean: {jout}"
    );

    let bad = Command::new(exe)
        .args(["lint", "--frobnicate"])
        .output()
        .expect("spawns");
    assert_eq!(bad.status.code(), Some(2), "unknown flag is a usage error");
}

/// `expt --help` and `expt list` both pin the full subcommand table: every
/// entry of [`nw_bench::obs::SUBCOMMANDS`] appears with its one-line
/// description, so a subcommand can never be added without surfacing in
/// both indexes.
#[test]
fn help_and_list_cover_every_subcommand() {
    let exe = env!("CARGO_BIN_EXE_expt");
    let help = Command::new(exe).arg("--help").output().expect("spawns");
    assert!(help.status.success(), "expt --help must exit 0: {help:?}");
    let help_out = String::from_utf8_lossy(&help.stdout);
    let list = Command::new(exe).arg("list").output().expect("spawns");
    assert!(list.status.success(), "expt list must exit 0: {list:?}");
    let list_out = String::from_utf8_lossy(&list.stdout);
    for (name, what) in nw_bench::obs::SUBCOMMANDS {
        assert!(
            !what.trim().is_empty(),
            "subcommand {name} needs a description"
        );
        for (label, out) in [("--help", &help_out), ("list", &list_out)] {
            let shown = out.lines().any(|l| {
                let t = l.trim_start();
                t.starts_with(name) && t.contains(what)
            });
            assert!(
                shown,
                "expt {label} must show {name} with its description: {out}"
            );
        }
    }
    assert!(
        help_out.starts_with("usage: expt [--fast] <id>...\n       expt <subcommand> [args]\n"),
        "help leads with the invocations the parser accepts: {help_out}"
    );
    let names: Vec<&str> = (nw_bench::obs::SUBCOMMANDS.iter())
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(
        names,
        ["list", "all", "<id>...", "lint", "parity", "identity", "trace", "profile"],
        "one parity gate, one identity gate"
    );
}

/// `expt trace` end to end: runs the mix scenario, writes a file, and the
/// written JSON passes the Chrome-trace validator — parseable, timestamps
/// monotone non-decreasing, every B paired with an E.
#[test]
fn expt_trace_writes_valid_chrome_trace_json() {
    let exe = env!("CARGO_BIN_EXE_expt");
    let out_path =
        std::env::temp_dir().join(format!("expt_trace_smoke_{}.json", std::process::id()));
    let out = Command::new(exe)
        .args([
            "trace",
            "--scenario",
            "mix",
            "--cycles",
            "20000",
            "--out",
            out_path.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "expt trace must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("TRACE  mix"), "summary line: {stdout}");
    assert!(stdout.contains("NoC heatmap"), "heatmap table: {stdout}");
    let json = std::fs::read_to_string(&out_path).expect("trace file written");
    let _ = std::fs::remove_file(&out_path);
    let check = nanowall::validate_chrome_trace(&json).expect("written trace passes the validator");
    assert!(check.events > 0, "trace must carry events");
    assert!(
        check.spans > 0 && check.instants > 0,
        "mix trace has both spans and instants: {check:?}"
    );

    // Bad invocations are usage errors, not panics.
    let bad = Command::new(exe)
        .args(["trace", "--scenario", "nope"])
        .output()
        .expect("spawns");
    assert_eq!(bad.status.code(), Some(2), "unknown scenario is an error");
    let unknown = Command::new(exe)
        .args(["trace", "--frobnicate"])
        .output()
        .expect("spawns");
    assert_eq!(unknown.status.code(), Some(2), "unknown flag is an error");
    let empty_ring = Command::new(exe)
        .args(["trace", "--scenario", "mix", "--buffer", "0"])
        .output()
        .expect("spawns");
    assert_eq!(empty_ring.status.code(), Some(2), "--buffer 0 is an error");
    assert!(
        String::from_utf8_lossy(&empty_ring.stderr).contains("--buffer"),
        "names the bad flag"
    );
    assert!(empty_ring.stdout.is_empty(), "nothing ran first");
}

/// `expt parity --quick --seed 7` — the one run of the matrix in tier-1,
/// in process: nothing diverged or vacuous, every cell of the axes'
/// product once, scenario-major, each faulted cell and no other injecting
/// faults, a table row for every experiment on both axes, and every
/// reference table it rendered equal to its `table.fast.<id>` manifest
/// row. The tables are pure functions of the code (no wall-clock column,
/// no seed from the environment, pool-size invariant as the `threads=1`
/// rows show), so a refactor, a storage or a scheduling change
/// leaves every row alone, and a moved row names its experiment and
/// prints the line to paste — only for a model change named in CHANGES.md.
#[test]
fn expt_parity_passes_quick() {
    let run = run_parity(true, 7);
    let text = run.render();
    assert!(run.ok(), "{text}");
    assert!(text.starts_with("PARITY  seed 7 "), "{text}");
    assert!(text.ends_with("PARITY  bit-identical\n"), "{text}");
    assert!(run.split.0 + run.split.1 >= 20_000, "{:?}", run.split);

    // Distinct cells, GROUP to each (scenario, faults) half: each half
    // holds every (scheduler, trace, resume) coordinate once.
    let names = nanowall::ScenarioRegistry::standard().names();
    assert_eq!(run.cells.len(), names.len() * 2 * GROUP);
    for (i, r) in run.cells.iter().enumerate() {
        assert!(!run.cells[..i].iter().any(|o| o.cell == r.cell), "{r:?}");
        assert_eq!(r.cell.scenario, names[i / (2 * GROUP)], "{r:?}");
        assert_eq!(r.cell.faulted, i / GROUP % 2 == 1, "{r:?}");
        // The faulted half is a different run, not a repeat of the other.
        assert_eq!(r.faults > 0, r.cell.faulted, "{r:?}");
    }

    let axes: Vec<(&str, &str)> = run.tables.iter().map(|t| (t.id, t.axis)).collect();
    let both = EXPERIMENTS
        .iter()
        .flat_map(|e| [(e.id, "scheduler=Dense"), (e.id, "threads=1")]);
    assert_eq!(axes, both.collect::<Vec<_>>());

    assert_eq!(run.digests.len(), EXPERIMENTS.len());
    let (report, ok) =
        nw_bench::identity::check_manifest(&run.digests, |name| name.starts_with("table.fast."));
    assert!(ok, "{report}");

    let exe = env!("CARGO_BIN_EXE_expt");
    let unknown = Command::new(exe)
        .args(["parity", "--frobnicate"])
        .output()
        .expect("spawns");
    assert_eq!(unknown.status.code(), Some(2), "unknown flag is an error");
}

/// The uniform `--seed` contract: every seed-taking subcommand rejects a
/// malformed value with the usage exit code 2 — before doing any work.
#[test]
fn bad_seed_is_a_usage_error_everywhere() {
    let exe = env!("CARGO_BIN_EXE_expt");
    for sub in [
        vec!["parity", "--quick"],
        vec!["trace", "--scenario", "mix"],
        vec!["profile", "--quick"],
    ] {
        for seed in [&["--seed", "banana"][..], &["--seed"][..]] {
            let mut args: Vec<&str> = sub.clone();
            args.extend_from_slice(seed);
            let out = Command::new(exe).args(&args).output().expect("spawns");
            assert_eq!(
                out.status.code(),
                Some(2),
                "{args:?} must be a usage error: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                String::from_utf8_lossy(&out.stderr).contains("--seed"),
                "{args:?} names the bad flag"
            );
        }
    }
}

/// An experiment run takes `--fast` and no other flag: a flag it would
/// have to ignore is a usage error that names it, raised before any
/// experiment runs. A subcommand named in an experiment run is one too,
/// and the error says it is a subcommand. `bench`, `faults` and
/// `snapshot` are not subcommands but unknown ids like any other, so a
/// stale CI line fails loudly. `list` and `identity` take nothing after
/// them, and the usage an empty run prints lists every subcommand.
/// `expt --fast t1` and `expt t1 --fast` print the table.
#[test]
fn experiment_runs_reject_stray_flags_and_unknown_ids() {
    let exe = env!("CARGO_BIN_EXE_expt");
    let run = |args: &[&str]| {
        let out = Command::new(exe).args(args).output().expect("spawns");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    for (args, named) in [
        (&["--quick", "t3"][..], "--quick"),
        (&["--warm-fork", "t11"][..], "--warm-fork"),
        (&["--fast", "parity"][..], "parity is a subcommand"),
        (&["t1", "--seed", "5"][..], "--seed"),
        (&["bench"][..], "bench"),
        (&["bench", "--quick"][..], "--quick"),
        (&["faults"][..], "faults"),
        (&["snapshot"][..], "snapshot"),
        (&["t1", "nope"][..], "nope"),
        (&["list", "extra"][..], "list"),
        (&["identity", "--fast"][..], "--fast"),
        (&["--fast"][..], "identity"),
        (&[][..], "identity"),
    ] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?} is a usage error: {stderr}");
        assert!(stderr.contains(named), "{args:?} names {named}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran something first: {stdout}");
    }
    for args in [["--fast", "t1"], ["t1", "--fast"]] {
        let (code, stdout, _) = run(&args);
        assert_eq!(code, Some(0), "{args:?}: flags may follow the ids");
        assert!(stdout.contains("T1"), "{stdout}");
        assert!(stdout.lines().count() >= 5, "one row per node: {stdout}");
    }
}
