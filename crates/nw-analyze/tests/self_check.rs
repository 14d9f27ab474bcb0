//! The auditor audits its own workspace: the tree this crate ships in
//! must be clean under every rule, with every surviving exemption
//! justified via a marker or allowlist entry. This is the same check CI
//! runs as `expt lint` — kept here too so `cargo test -p nw-analyze`
//! fails the moment a nondeterminism hazard lands anywhere.

use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/nw-analyze -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels under the workspace root")
}

#[test]
fn workspace_is_clean_under_every_rule() {
    let report = nw_analyze::analyze(workspace_root()).expect("workspace tree is readable");
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
    let report = nw_analyze::analyze(workspace_root()).expect("workspace tree is readable");
    // The repo carries real grandfathered sites: a marker (the ND03
    // write-once cache of the sweep pool size) and at least one allowlist
    // entry. If these go to zero the mechanisms are untested in the wild
    // and the docs are stale.
    assert!(
        report.marker_suppressed >= 1,
        "expected marker-suppressed sites, got {}",
        report.marker_suppressed
    );
    assert!(
        report.allowlisted >= 1,
        "expected allowlisted sites, got {}",
        report.allowlisted
    );
}

#[test]
fn profiler_wall_clock_is_allowlisted_not_invisible() {
    // nw-obs's host profiler reads `Instant::now` by design — wall-clock is
    // its measurand. That must surface as *allowlisted* ND02 findings (the
    // auditor sees the sites; the grant in nw-analyze.allow justifies
    // them), never as silence: if the allowlisted count here drops, either
    // the profiler moved (update the allowlist path) or the scanner
    // stopped seeing nw-obs at all.
    let report = nw_analyze::analyze(workspace_root()).expect("workspace tree is readable");
    assert!(
        report.is_clean(),
        "profiler wall-clock must be covered by the allowlist:\n{}",
        report.render()
    );
    assert!(
        report.allowlisted >= 4,
        "expected the nw-obs ND02 sites on top of the ND01 grant, got {}",
        report.allowlisted
    );
}
