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
    // globals inside the fault module are exactly the bugs that would
    // break faulted bit-identity, so both rules must fire there.
    let hit = scan(&[(
        "crates/core/src/faults.rs",
        "fn gen() -> u64 { thread_rng().gen() }\n\
         static mut LAST_SEED: u64 = 0;\n\
         static CACHE: OnceLock<u64> = OnceLock::new();\n",
    )]);
    assert_eq!(rules_of(&hit), ["ND02", "ND03", "ND03"], "{}", hit.render());

    // The sanctioned idiom — a seeded StdRng threaded by value — is clean.
    let clean = scan(&[(
        "crates/core/src/faults.rs",
        "use rand::rngs::StdRng;\nuse rand::SeedableRng;\n\
         fn gen(seed: u64) -> StdRng { StdRng::seed_from_u64(seed) }\n",
    )]);
    assert!(clean.is_clean(), "{}", clean.render());
}

#[test]
fn nd01_reaches_the_fabric_model_in_core() {
    // The eFPGA node answers requests behind the NoC, so its state reaches
    // the report: a hash-keyed kernel table in `crates/core/src/fabric.rs`
    // is a finding, while the same line in a substrate crate outside the
    // sim-result scope is not.
    let source = "use std::collections::HashMap;\n\
                  struct Efpga { kernels: HashMap<String, MappedKernel> }\n";
    let hit = scan(&[("crates/core/src/fabric.rs", source)]);
    assert_eq!(rules_of(&hit), ["ND01", "ND01"], "{}", hit.render());
    assert_eq!(hit.diagnostics[1].line, 2);

    let outside = scan(&[("crates/nw-pe/src/pe.rs", source)]);
    assert!(outside.is_clean(), "{}", outside.render());
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

#[test]
fn doc01_flags_example_names_with_no_example_file() {
    let example = ("examples/quickstart.rs", "fn main() {}\n");
    let doc = "```sh\ncargo run --example quickstart\ncargo run --example gone   # stale\n```\n";
    let hit = scan(&[example, ("README.md", doc)]);
    assert_eq!(rules_of(&hit), ["DOC01"]);
    assert_eq!((hit.diagnostics[0].line, hit.diagnostics[0].col), (3, 11));
    assert!(hit.diagnostics[0].message.contains("examples/gone.rs"));

    // An existing example, in a fence or a prose span, passes; so do
    // `--examples` (every example) and a name that is not a literal.
    let doc = "```sh\ncargo run --release --example quickstart\ncargo build --examples\n\
               cargo run --example \"$name\"\n```\nRun `cargo run --example quickstart`.\n";
    let clean = scan(&[example, ("ARCHITECTURE.md", doc)]);
    assert!(clean.is_clean(), "{}", clean.render());
}

#[test]
fn doc01_flags_rust_paths_whose_item_is_defined_nowhere() {
    let code = (
        "src/widget.rs",
        "pub struct Widget { pub size: u32 }\nimpl Widget {\n    const MAX: u32 = 9;\n    \
         pub fn grow(&mut self) {}\n}\npub enum Kind {\n    Small,\n    Big { weight: u8 },\n}\n",
    );
    let doc = "Grow with `Widget::grow()`, not\n`Widget::shrink()` or `Kind::Huge`.\n";
    let hit = scan(&[code, ("ARCHITECTURE.md", doc)]);
    assert_eq!(rules_of(&hit), ["DOC01", "DOC01"]);
    assert_eq!((hit.diagnostics[0].line, hit.diagnostics[0].col), (2, 2));
    assert!(hit.diagnostics[0].message.contains("`Widget::shrink()`"));

    // Fns, consts, fields and variants resolve; a type the sources do not
    // define, a module path, a brace group and a call with arguments are
    // not checked.
    let doc = "`Widget::grow`, `Widget::MAX`, `Widget::size`, `Kind::Small`, `Kind::Big`,\n\
               `Vec::shrink`, `widget::Widget::shrink`, `Widget::{grow, shrink}`, `Widget::shrink(2)`.\n";
    let clean = scan(&[code, ("README.md", doc)]);
    assert!(clean.is_clean(), "{}", clean.render());
}

/// A `pub fn` of `nw-sim` that its own unit test calls.
const PUB_FN: (&str, &str) = (
    "crates/nw-sim/src/stats.rs",
    "pub fn rate() -> u64 {\n    1\n}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
     fn t() {\n        assert_eq!(super::rate(), 1);\n    }\n}\n",
);

#[test]
fn pub01_flags_a_pub_item_only_its_own_crates_tests_name() {
    let own_tests = (
        "crates/nw-sim/tests/p.rs",
        "fn f() -> u64 { nw_sim::rate() }\n",
    );
    // Crate-private items are rustc's `dead_code` lint's business.
    let private = ("crates/nw-sim/src/x.rs", "pub(crate) fn helper() {}\n");
    let hit = scan(&[PUB_FN, own_tests, private]);
    assert_eq!(rules_of(&hit), ["PUB01"]);
    assert_eq!((hit.diagnostics[0].line, hit.diagnostics[0].col), (1, 8));
}

#[test]
fn pub01_counts_no_use_line_comment_string_or_same_named_field() {
    let not_uses = [
        PUB_FN,
        (
            "crates/nw-sim/src/lib.rs",
            "pub use stats::{\n    rate,\n};\n",
        ),
        (
            "crates/core/src/x.rs",
            "use nw_sim::rate;\n// rate()\nconst S: &str = \"rate()\";\n",
        ),
        (
            "crates/core/src/y.rs",
            "fn f(s: &S) -> u64 {\n    s.rate\n}\n",
        ),
    ];
    let hit = scan(&not_uses);
    assert_eq!(rules_of(&hit), ["PUB01"], "{}", hit.render());
}

#[test]
fn pub01_counts_code_outside_the_defining_crates_tests() {
    // Another crate's `src/`, the root `tests/`, `benchmark/src` (read,
    // never linted) and the crate's own non-test code.
    for user in [
        ("crates/core/src/x.rs", "fn f() -> u64 { nw_sim::rate() }\n"),
        ("tests/it.rs", "#[test]\nfn t() {\n    nw_sim::rate();\n}\n"),
        (
            "benchmark/src/main.rs",
            "fn main() {\n    let _t = std::time::Instant::now();\n    nw_sim::rate();\n}\n",
        ),
        (
            "crates/nw-sim/src/lib.rs",
            "fn twice() -> u64 { 2 * stats::rate() }\n",
        ),
    ] {
        let used = scan(&[PUB_FN, user]);
        assert!(used.is_clean(), "{}: {}", user.0, used.render());
    }
}

#[test]
fn pub01_yields_to_a_reasoned_marker() {
    let marked = (
        "crates/nw-sim/src/stats.rs",
        "// nw-analyze: allow(PUB01): the reference the prop tests compare against\n\
         pub fn rate() -> u64 {\n    1\n}\n",
    );
    let kept = scan(&[marked]);
    assert!(kept.is_clean(), "{}", kept.render());
    assert_eq!(kept.marker_suppressed, 1);
}
