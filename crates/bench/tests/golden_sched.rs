//! The scheduler rows of `crates/bench/identity.tsv`: every
//! `SchedulerStats` count and the report digest of each benchmark rig's
//! traced run (`nw_bench::identity`), checked in tier-1.
//!
//! The counts say what the run loop *did*, the report digest what the run
//! computed. A loop change that means to be bookkeeping (a faster path to
//! the same steps and hops) leaves every row equal. A moved row prints
//! `name  recorded → now` and the manifest line to paste, which is only
//! the right thing to do for a change that means to alter what the
//! scheduler visits.

use nanowall::HostPhase;
use nw_bench::identity::{self, RigRun};
use std::sync::OnceLock;

/// Every rig's traced run, in `BenchRig::ALL` order, shared by both tests.
fn runs() -> &'static [RigRun] {
    static RUNS: OnceLock<Vec<RigRun>> = OnceLock::new();
    RUNS.get_or_init(identity::rig_runs)
}

#[test]
fn scheduler_counts_match_the_recorded_table() {
    let now: Vec<_> = runs().iter().flat_map(identity::rig_rows).collect();
    let (report, ok) = identity::check_manifest(&now, |name| {
        name.starts_with("rig.") && !name.contains(".trace.")
    });
    assert!(ok, "{report}");
}

/// The counts would pin little if the windows never reached the work they
/// are there for: the mixed rig's faults and retries, service nodes on the
/// video rig, and hops carrying the idle one.
#[test]
fn windows_reach_what_they_pin() {
    let [ipv4, video, modem, mix] = [0, 1, 2, 3].map(|i| &runs()[i]);
    assert!(ipv4.stats.cycles_stepped > 10 * ipv4.stats.cycles_hopped);
    assert!(video.stats.phases_entered[HostPhase::Services as usize] > 0);
    assert!(modem.stats.cycles_hopped > 100 * modem.stats.cycles_stepped);
    let faults = &mix.report.resilience;
    assert!(
        faults.faults_injected > 0 && faults.retries > 0,
        "{faults:?}"
    );
}
