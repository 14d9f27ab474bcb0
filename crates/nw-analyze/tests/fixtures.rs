//! Per-rule fixture tests: every rule fires on a seeded violation and stays
//! silent on the idiomatic alternative, and both suppression channels
//! (in-source markers, the checked-in allowlist) are exercised end to end
//! through [`nw_analyze::analyze_sources`] — the same entry point `expt
//! lint` drives, minus the filesystem walk.

use nw_analyze::{analyze_sources, Allowlist, RuleId, SourceFile};

/// Runs the analyzer over inline sources with an empty allowlist.
fn scan(files: &[(&str, &str)]) -> nw_analyze::AnalysisReport {
    scan_with_allowlist(files, "")
}

/// Runs the analyzer over inline sources with an inline allowlist; a path
/// exists when a source's path begins with it.
fn scan_with_allowlist(files: &[(&str, &str)], allow: &str) -> nw_analyze::AnalysisReport {
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(path, text)| SourceFile::parse(*path, text))
        .collect();
    let allowlist = Allowlist::parse("nw-analyze.allow", allow);
    let exists = |p: &str| files.iter().any(|(f, _)| f.starts_with(p));
    analyze_sources(&sources, &allowlist, &exists)
}

/// The rule ids of every finding, in report order.
fn rules_of(report: &nw_analyze::AnalysisReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.rule.id()).collect()
}

#[test]
fn nd01_flags_hash_collections_only_in_sim_result_crates() {
    let hit = scan(&[(
        "crates/core/src/x.rs",
        "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n",
    )]);
    assert_eq!(rules_of(&hit), ["ND01", "ND01", "ND01"]);
    assert_eq!(hit.diagnostics[0].line, 1);

    // BTreeMap is the sanctioned replacement; bench crates are out of scope.
    let clean = scan(&[
        (
            "crates/core/src/x.rs",
            "use std::collections::BTreeMap;\nfn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }\n",
        ),
        (
            "crates/bench/src/x.rs",
            "use std::collections::HashMap;\n",
        ),
    ]);
    assert!(clean.is_clean(), "{}", clean.render());

    // Mentions inside strings and comments are not code.
    let quoted = scan(&[(
        "crates/nw-noc/src/x.rs",
        "// a HashMap would be wrong here\nfn f() -> &'static str { \"HashMap\" }\n",
    )]);
    assert!(quoted.is_clean(), "{}", quoted.render());
}

#[test]
fn nd02_flags_wall_clock_and_entropy_outside_the_bench_harness() {
    let hit = scan(&[(
        "crates/nw-sim/src/x.rs",
        "fn f() { let t = std::time::Instant::now(); let _ = t; }\n",
    )]);
    assert_eq!(rules_of(&hit), ["ND02"]);

    // The bench harness owns timing; a sim-crate Duration (no clock read)
    // is fine, and so is a type merely named like the std thread id.
    let clean = scan(&[
        (
            "crates/bench/src/x.rs",
            "fn f() { let t = std::time::Instant::now(); let _ = t; }\n",
        ),
        (
            "crates/core/src/x.rs",
            "use std::time::Duration;\nuse nw_types::ThreadId;\n",
        ),
    ]);
    assert!(clean.is_clean(), "{}", clean.render());
}

#[test]
fn nd03_flags_mutable_globals_in_sim_result_crates() {
    let hit = scan(&[(
        "crates/nw-dsoc/src/x.rs",
        "static mut COUNTER: u64 = 0;\nstatic CACHE: OnceLock<u64> = OnceLock::new();\n",
    )]);
    assert_eq!(rules_of(&hit), ["ND03", "ND03"]);

    // Const statics and `'static` lifetimes are not mutable globals.
    let clean = scan(&[(
        "crates/nw-dsoc/src/x.rs",
        "static NAMES: [&'static str; 2] = [\"a\", \"b\"];\nfn f(s: &'static str) -> &'static str { s }\n",
    )]);
    assert!(clean.is_clean(), "{}", clean.render());
}

#[test]
fn nd02_and_nd03_guard_the_fault_crate() {
    // The fault-injection contract: campaign generation must draw from the
    // seeded vendored RNG only. `thread_rng` (OS entropy) and mutable
    // globals inside `nw-fault` sources are exactly the bugs that would
    // break faulted bit-identity, so both rules must fire there.
    let hit = scan(&[(
        "crates/nw-fault/src/lib.rs",
        "fn gen() -> u64 { thread_rng().gen() }\n\
         static mut LAST_SEED: u64 = 0;\n\
         static CACHE: OnceLock<u64> = OnceLock::new();\n",
    )]);
    assert_eq!(rules_of(&hit), ["ND02", "ND03", "ND03"], "{}", hit.render());

    // The sanctioned idiom — a seeded StdRng threaded by value — is clean.
    let clean = scan(&[(
        "crates/nw-fault/src/lib.rs",
        "use rand::rngs::StdRng;\nuse rand::SeedableRng;\n\
         fn gen(seed: u64) -> StdRng { StdRng::seed_from_u64(seed) }\n",
    )]);
    assert!(clean.is_clean(), "{}", clean.render());
}

#[test]
fn nd01_and_nd03_guard_the_snapshot_layer() {
    // The checkpoint/fork contract: snapshots must be plain-old-data owned
    // by value. A global snapshot cache or a hash-keyed replica table in
    // `crates/core` are exactly the bugs that would let replicas share
    // state (or observe iteration order), so both rules must fire on them.
    let hit = scan(&[(
        "crates/core/src/platform.rs",
        "static LAST_SNAPSHOT: OnceLock<PlatformSnapshot> = OnceLock::new();\n\
         fn replicas() -> HashMap<u64, PlatformSnapshot> { HashMap::new() }\n",
    )]);
    assert_eq!(rules_of(&hit), ["ND03", "ND01", "ND01"], "{}", hit.render());

    // The shape that ships — the snapshot owns a boxed field-literal clone
    // of the platform, replica seed included, and thawing clones it again
    // — is clean with no exemptions.
    let clean = scan(&[(
        "crates/core/src/platform.rs",
        "pub struct PlatformSnapshot { state: Box<FppaPlatform> }\n\
         fn capture(p: &FppaPlatform) -> PlatformSnapshot {\n\
             PlatformSnapshot { state: Box::new(p.clone_state()) }\n\
         }\n\
         fn thaw(s: &PlatformSnapshot) -> FppaPlatform { s.state.clone_state() }\n\
         fn seed(s: &PlatformSnapshot) -> u64 { s.state.seed }\n",
    )]);
    assert!(clean.is_clean(), "{}", clean.render());

    // And the checked-in allowlist grants the snapshot layer nothing: the
    // shipped platform/runtime code passes on its own, so bit-identity of
    // restored runs is pinned by the lint gate, not excused from it.
    let committed = include_str!("../../../nw-analyze.allow");
    for file in ["platform.rs", "runtime.rs", "resilience.rs"] {
        assert!(
            !committed.contains(file),
            "nw-analyze.allow must not exempt the snapshot layer ({file})"
        );
    }
}

#[test]
fn rh01_flags_pool_acquires_with_no_release_in_the_module() {
    let hit = scan(&[(
        "crates/core/src/x.rs",
        "fn f(pool: &mut PayloadPool) -> Vec<u8> { pool.take_zeroed(64) }\n",
    )]);
    assert_eq!(rules_of(&hit), ["RH01"]);

    // A matching pool.put in the same module balances the ledger.
    let clean = scan(&[(
        "crates/core/src/x.rs",
        "fn f(pool: &mut PayloadPool) { let v = pool.take_zeroed(64); pool.put(v); }\n",
    )]);
    assert!(clean.is_clean(), "{}", clean.render());
}

#[test]
fn wr01_flags_truncating_casts_in_wire_modules_only() {
    let hit = scan(&[(
        "crates/nw-dsoc/src/wire.rs",
        "fn enc(len: usize) -> [u8; 4] { (len as u32).to_le_bytes() }\n",
    )]);
    assert_eq!(rules_of(&hit), ["WR01"]);

    let clean = scan(&[
        // try_from is the sanctioned conversion; widening casts are fine.
        (
            "crates/nw-dsoc/src/wire.rs",
            "fn enc(len: usize) -> u32 { u32::try_from(len).expect(\"fits\") }\n\
             fn dec(b: u8) -> usize { b as usize }\n",
        ),
        // The same truncation outside a wire module is another rule's
        // business (or nobody's), not WR01's.
        (
            "crates/core/src/x.rs",
            "fn f(x: usize) -> u32 { x as u32 }\n",
        ),
    ]);
    assert!(clean.is_clean(), "{}", clean.render());
}

#[test]
fn markers_suppress_the_annotated_site_and_are_counted() {
    let report = scan(&[(
        "crates/core/src/x.rs",
        "// nw-analyze: allow(ND03): config knob, read once at construction\n\
         static KNOB: AtomicU8 = AtomicU8::new(0);\n\
         static LEAK: AtomicU8 = AtomicU8::new(0);\n",
    )]);
    // The annotated static is suppressed; the unannotated one still fires.
    assert_eq!(rules_of(&report), ["ND03"]);
    assert_eq!(report.diagnostics[0].line, 3);
    assert_eq!(report.marker_suppressed, 1);
}

#[test]
fn marker_without_a_reason_is_an_al01_finding() {
    let report = scan(&[(
        "crates/core/src/x.rs",
        "// nw-analyze: allow(ND03)\nstatic KNOB: AtomicU8 = AtomicU8::new(0);\n",
    )]);
    // The malformed marker is itself flagged and suppresses nothing.
    assert_eq!(rules_of(&report), ["AL01", "ND03"]);
}

#[test]
fn allowlist_entries_suppress_matching_findings() {
    let report = scan_with_allowlist(
        &[("crates/core/src/x.rs", "use std::collections::HashMap;\n")],
        "ND01 crates/core/src/x.rs — per-key lookups only, order never observed\n",
    );
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.allowlisted, 1);
}

#[test]
fn stale_and_malformed_allowlist_entries_are_al01_findings() {
    // Entry matches nothing: stale. Entry without a reason: malformed.
    let report = scan_with_allowlist(
        &[("crates/core/src/x.rs", "fn f() {}\n")],
        "ND01 crates/core/src/gone.rs — converted to BTreeMap long ago\nWR01 crates/core/src/x.rs\n",
    );
    let rules = rules_of(&report);
    assert_eq!(rules, ["AL01", "AL01"], "{}", report.render());
    assert!(
        report.render().contains("stale") || report.render().contains("match"),
        "stale entries name the problem: {}",
        report.render()
    );
}

#[test]
fn reports_are_stably_sorted_and_render_both_ways() {
    // Two files given out of order, findings on different lines: the report
    // comes back sorted by (path, line, col, rule) so diffs are stable.
    let report = scan(&[
        (
            "crates/nw-sim/src/b.rs",
            "fn f() {}\nstatic mut X: u64 = 0;\n",
        ),
        ("crates/core/src/a.rs", "use std::collections::HashSet;\n"),
    ]);
    let paths: Vec<&str> = report.diagnostics.iter().map(|d| d.path.as_str()).collect();
    assert_eq!(paths, ["crates/core/src/a.rs", "crates/nw-sim/src/b.rs"]);
    // A seeded violation drives the non-zero exit in `expt lint`; both
    // renderings carry it.
    assert!(!report.is_clean());
    assert!(report.render().contains("crates/core/src/a.rs:1:"));
    assert!(report.render_json().contains("\"clean\": false"));
    assert_eq!(report.diagnostics[0].rule, RuleId::Nd01);
}

#[test]
fn doc01_flags_backticked_paths_that_name_nothing() {
    let code = ("crates/core/src/x.rs", "fn f() {}\n");
    let doc = "See `tests/gone.rs` and\n`crates/core/src/x.rs`.\n";
    let hit = scan(&[code, ("ARCHITECTURE.md", doc)]);
    assert_eq!(rules_of(&hit), ["DOC01"]);
    assert_eq!((hit.diagnostics[0].line, hit.diagnostics[0].col), (1, 6));

    // Directories, spans that are no path (one broken across lines), fenced
    // blocks and a marked line pass; Rust rules do not read Markdown.
    let doc = "`crates/core/` and `total / cost`, `Instant::now`, `a\nb/c`.\n\
               ```sh\ncat `tests/gone.rs`\n```\n\
               <!-- nw-analyze: allow(DOC01): the run writes it -->\nSee `out/trace.json`.\n";
    let clean = scan(&[code, ("README.md", doc)]);
    assert!(clean.is_clean(), "{}", clean.render());
    assert_eq!(clean.marker_suppressed, 1);
}
