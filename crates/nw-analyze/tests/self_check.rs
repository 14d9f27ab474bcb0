//! The auditor audits its own workspace: the tree this crate ships in
//! must be clean under every rule, with every surviving exemption
//! justified via a marker. This is the same check CI runs as `expt lint` —
//! kept here too so `cargo test -p nw-analyze` fails the moment a
//! nondeterminism hazard lands anywhere. The rules the compiler states
//! (ND01, ND02, WR01) run in CI's clippy steps; their configuration is
//! pinned here.

use nw_analyze::AnalysisReport;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// The workspace root: crates/nw-analyze -> crates -> root.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels under the workspace root")
}

/// One scan of the workspace, shared by every test.
fn report() -> &'static AnalysisReport {
    static REPORT: OnceLock<AnalysisReport> = OnceLock::new();
    REPORT.get_or_init(|| nw_analyze::analyze(root()).expect("workspace tree is readable"))
}

#[test]
fn workspace_is_clean_under_every_rule() {
    let report = report();
    assert!(
        report.is_clean(),
        "nw-analyze found violations:\n{}",
        report.render()
    );
    // The scan is not vacuous: it must have covered the whole tree.
    assert!(
        report.files_scanned > 80,
        "only {} files scanned — walker lost a source root?",
        report.files_scanned
    );
}

#[test]
fn workspace_exemptions_are_exercised() {
    // The repo carries real marker grants (the ND03 write-once cache of the
    // sweep pool size, and PUB01 exceptions). If these go to zero the
    // mechanism is untested in the wild and the docs are stale.
    let report = report();
    assert!(
        report.marker_suppressed >= 1,
        "expected marker-suppressed sites, got {}",
        report.marker_suppressed
    );
}

#[test]
fn clippy_config_states_nd01_nd02_and_wr01() {
    // ND01 and ND02 are the root clippy.toml's lists. Each banned path sits
    // in its list on one line with a reason that starts with its rule's id,
    // so the lint's message names the rule.
    let config = fs::read_to_string(root().join("clippy.toml")).expect("a root clippy.toml");
    let list = |name: &str| {
        let start = config
            .find(&format!("{name} = ["))
            .unwrap_or_else(|| panic!("clippy.toml lacks {name}"));
        let len = config[start..].find("\n]").expect("a closed list");
        &config[start..start + len]
    };
    let banned = [
        ("disallowed-types", "ND01", "std::collections::HashMap"),
        ("disallowed-types", "ND01", "std::collections::HashSet"),
        ("disallowed-types", "ND02", "std::time::SystemTime"),
        ("disallowed-types", "ND02", "std::thread::ThreadId"),
        ("disallowed-types", "ND02", "std::hash::RandomState"),
        ("disallowed-methods", "ND02", "std::time::Instant::now"),
        ("disallowed-methods", "ND02", "std::time::SystemTime::now"),
        ("disallowed-methods", "ND02", "std::thread::current"),
    ];
    for (name, id, path) in banned {
        let entry = format!("path = \"{path}\"");
        let reason = format!("reason = \"{id}: ");
        assert!(
            list(name)
                .lines()
                .any(|l| l.contains(&entry) && l.contains(&reason)),
            "clippy.toml's {name} must ban {path} with a reason starting {id}:"
        );
    }
    // A crate's own clippy.toml replaces the root one instead of extending
    // it, which would silently drop both lists for that crate.
    for krate in fs::read_dir(root().join("crates")).expect("crates/ is readable") {
        let dir = krate.expect("a crates/ entry").path();
        for name in ["clippy.toml", ".clippy.toml"] {
            assert!(
                !dir.join(name).exists(),
                "{} shadows the root config",
                dir.display()
            );
        }
    }
    // WR01 is clippy's truncation lint, denied in each wire module.
    for wire in ["crates/nw-dsoc/src/wire.rs", "crates/nw-econ/src/wire.rs"] {
        let text = fs::read_to_string(root().join(wire)).expect("the wire module");
        assert!(
            text.lines()
                .any(|l| l == "#![deny(clippy::cast_possible_truncation)]"),
            "{wire} must deny clippy::cast_possible_truncation (WR01)"
        );
    }
}
