//! The rig rows of `crates/bench/identity.tsv`: every `SchedulerStats`
//! count, the trace's event count and FNV-1a digest, and every report value
//! of each benchmark rig's traced run (`nw_bench::identity`), checked in
//! tier-1 from one run of the four windows.
//!
//! The counts say what the run loop *did*, the trace rows what an observer
//! saw, the `report.<name>` rows (`PlatformReport::values`) what the run
//! computed. A loop change that means to be bookkeeping (a faster path to
//! the same steps and hops) leaves every row equal: observers stay inert,
//! and a change that moves where a hop is announced, which cycle a transfer
//! is stamped with, or the order of two events in one cycle moves the trace
//! rows even when every report is equal. A moved row prints
//! `name  recorded → now` and the manifest line to paste, which is only the
//! right thing to do for a change that means to alter what the scheduler
//! visits, what an observer sees or what the run computes.

use nanowall::{HostPhase, ReportValue};
use nw_bench::identity::{self, RigRun};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Every rig's traced run, in `BenchRig::ALL` order, shared by every test.
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

#[test]
fn trace_digests_match_the_recorded_table() {
    for run in runs() {
        let stats = run.stats;
        assert_eq!(
            run.fast_forwards(),
            (stats.hops, stats.cycles_hopped),
            "{}: one FastForward per hop, their spans summing to the cycles hopped",
            run.rig.name()
        );
    }
    let now: Vec<_> = runs().iter().flat_map(identity::rig_rows).collect();
    let (report, ok) = identity::check_manifest(&now, |name| {
        name.starts_with("rig.") && name.contains(".trace.")
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

/// One value moved by one moves one row, and the row names it.
#[test]
fn a_one_value_change_moves_exactly_its_named_row() {
    for run in runs() {
        let mut moved = run.clone();
        moved.report.noc.delivered += 1;
        let rows = identity::rig_rows(&moved);
        let w = run.rig.name();
        let prefix = format!("rig.{w}.");
        let (report, ok) = identity::check_manifest(&rows, |name| name.starts_with(&prefix));
        assert!(!ok);
        let d = run.report.noc.delivered;
        let want = format!("rig.{w}.report.noc.delivered  {d} → {}\n", d + 1);
        assert!(report.starts_with(&want), "{report}");
        assert!(report.contains("IDENTITY  1 of "), "{report}");
    }
}

/// Each row is a name the manifest can hold once, and each float row
/// reads back as the value it pins.
#[test]
fn report_values_have_unique_names_and_round_trip_their_bits() {
    for run in runs() {
        let values = run.report.values();
        let mut names = BTreeSet::new();
        for (name, value) in &values {
            assert!(names.insert(name), "{}: {name} twice", run.rig.name());
            if let ReportValue::F64(x) = *value {
                let back: f64 = value.to_string().parse().expect("a float");
                assert_eq!(back.to_bits(), x.to_bits(), "{name} = {value}");
            }
        }
        assert!(values.iter().any(|(_, v)| matches!(v, ReportValue::F64(_))));
    }
}
