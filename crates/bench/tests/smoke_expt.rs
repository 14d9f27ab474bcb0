//! End-to-end smoke tests for the `expt` binary and its experiment registry.
//! What the simulator must agree with itself on — schedulers, pool sizes,
//! faults, tracing, snapshots — is `expt parity`'s matrix, run here once
//! through the binary.

use nw_bench::experiments::{find, Ctx, EXPERIMENTS};
use std::process::Command;

/// Renders a registered experiment's `--fast` table in-process.
fn table(id: &str) -> String {
    (find(id).expect("registered id").run)(Ctx::new(true))
}

/// The cheapest experiment (T1, mask-set NRE — pure arithmetic, no
/// simulation) runs through the library entry point and emits a table.
#[test]
fn t1_mask_nre_emits_a_table() {
    let out = table("t1");
    assert!(!out.trim().is_empty(), "t1 must emit a non-empty table");
    assert!(
        out.contains("T1"),
        "table header names the experiment: {out}"
    );
    assert!(out.contains("90nm"), "paper's headline node appears: {out}");
    let rows = out.lines().filter(|l| l.contains("nm")).count();
    assert!(rows >= 5, "one row per technology node: {out}");
}

/// Unknown ids are rejected, and every advertised id is runnable (checked
/// here only for the ids that complete in milliseconds).
#[test]
fn registry_is_consistent() {
    assert!(find("zz").is_none());
    for id in ["t1", "t2", "f3", "t4", "t7", "f1"] {
        assert!(!table(id).trim().is_empty(), "{id} must emit output");
    }
}

/// The three application-workload experiments run end-to-end and report
/// non-degenerate numbers: delivered items and nonzero per-item energy.
#[test]
fn workload_experiments_are_nondegenerate() {
    let tables = ["t8", "t9", "t10"].map(|id| (id, table(id)));
    for (id, out) in &tables {
        assert!(out.contains(&id.to_uppercase()), "{id} table header: {out}");
        // Every delivered-ratio cell is a percentage; at least one row must
        // deliver traffic.
        assert!(
            out.lines().any(|l| l.contains('%') && !l.contains(" 0%")),
            "{id} must deliver items: {out}"
        );
    }
    // Per-item energy shows up in the video and crypto tables.
    assert!(tables[0].1.contains("pJ/slice"), "{}", tables[0].1);
    assert!(tables[2].1.contains("pJ/payload"), "{}", tables[2].1);
}

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
        help_out.contains("usage: expt"),
        "help leads with usage: {help_out}"
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
}

/// `expt parity --quick` end to end — the one full run of the matrix in
/// tier-1: exit 0, the seed echoed, all 120 platform cells, one table row
/// per experiment and axis that reaches its table, nothing diverged.
#[test]
fn expt_parity_passes_quick() {
    let exe = env!("CARGO_BIN_EXE_expt");
    let out = Command::new(exe)
        .args(["parity", "--quick", "--seed", "7"])
        .output()
        .expect("spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "expt parity must exit 0: {stdout}");
    assert!(stdout.starts_with("PARITY  seed 7 "), "header: {stdout}");
    assert!(stdout.contains("120 platform cells"), "header: {stdout}");
    assert!(
        stdout.contains("PARITY  bit-identical"),
        "verdict: {stdout}"
    );
    assert!(!stdout.contains("DIVERGED"), "no diverging cell: {stdout}");
    assert!(!stdout.contains("VACUOUS"), "every fact holds: {stdout}");
    for name in nanowall::ScenarioRegistry::standard().names() {
        let groups = (stdout.lines()).filter(|l| l.starts_with(name) && l.contains("12/12"));
        assert_eq!(groups.count(), 2, "{name} with and without faults");
    }
    let row = |id: &str, axis: &str| {
        stdout.lines().any(|l| {
            let mut cells = l.split_whitespace();
            cells.next() == Some(id) && cells.next() == Some(axis)
        })
    };
    for e in EXPERIMENTS {
        assert_eq!(row(e.id, "scheduler=Dense"), e.platform, "{}", e.id);
        assert_eq!(row(e.id, "threads=1"), e.sweeps, "{}", e.id);
    }

    let unknown = Command::new(exe)
        .args(["parity", "--frobnicate"])
        .output()
        .expect("spawns");
    assert_eq!(unknown.status.code(), Some(2), "unknown flag is an error");
}

/// `expt --fast --warm-fork t5` end to end: the warm-fork sweep protocol
/// runs through the binary and labels its table as such.
#[test]
fn expt_warm_fork_flag_runs_a_sweep_grid() {
    let exe = env!("CARGO_BIN_EXE_expt");
    let out = Command::new(exe)
        .args(["--fast", "--warm-fork", "t5"])
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "expt --warm-fork t5 must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("T5"), "table header: {stdout}");
    assert!(
        stdout.contains("warm-fork"),
        "the protocol is labeled: {stdout}"
    );
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

/// The installed binary itself: `expt --fast t1` exits 0 and prints the
/// table; bad ids and empty invocations exit non-zero.
#[test]
fn expt_binary_runs_t1_end_to_end() {
    let exe = env!("CARGO_BIN_EXE_expt");

    let ok = Command::new(exe)
        .args(["--fast", "t1"])
        .output()
        .expect("expt binary spawns");
    assert!(ok.status.success(), "expt t1 must exit 0: {ok:?}");
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(stdout.contains("T1"), "stdout carries the table: {stdout}");
    assert!(stdout.lines().count() >= 5, "table has rows: {stdout}");

    let bad = Command::new(exe).arg("nope").output().expect("spawns");
    assert!(!bad.status.success(), "unknown id must exit non-zero");

    let none = Command::new(exe).output().expect("spawns");
    assert!(!none.status.success(), "no args must exit non-zero (usage)");
}

/// An experiment run takes `--fast` and `--warm-fork` and no other flag:
/// a flag it would have to ignore is a usage error that names it, raised
/// before any experiment runs. `bench`, `faults` and `snapshot` are not
/// subcommands but unknown ids like any other, so a stale CI line fails
/// loudly. `list` and `identity` take nothing after them, and the usage
/// line an empty run prints lists every subcommand.
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
        (&["t1", "--seed", "5"][..], "--seed"),
        (&["bench"][..], "bench"),
        (&["bench", "--quick"][..], "--quick"),
        (&["faults"][..], "faults"),
        (&["snapshot"][..], "snapshot"),
        (&["t1", "nope"][..], "nope"),
        (&["list", "extra"][..], "list"),
        (&["identity", "--fast"][..], "--fast"),
        (&["--fast"][..], "identity"),
    ] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?} is a usage error: {stderr}");
        assert!(stderr.contains(named), "{args:?} names {named}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran something first: {stdout}");
    }
    let (code, stdout, _) = run(&["t1", "--fast", "--warm-fork"]);
    assert_eq!(code, Some(0), "flags may follow the ids");
    assert!(stdout.contains("T1"), "{stdout}");
}

/// The `table.fast.*` rows of `crates/bench/identity.tsv`: the FNV-1a of
/// every registered experiment's `--fast` table, one row each. The tables
/// are pure functions of the code (no wall-clock column, no seed from the
/// environment; sweeps are pool-size invariant, `expt parity` checks
/// that), so a refactor, a storage or a scheduling change leaves every row
/// alone, and a moved row names its experiment and prints the line to
/// paste — only for a model change named in CHANGES.md.
#[test]
fn fast_tables_match_their_committed_digests() {
    let now = nw_bench::identity::table_rows(true);
    let (report, ok) =
        nw_bench::identity::check_manifest(&now, |name| name.starts_with("table.fast."));
    assert!(ok, "{report}");
}
