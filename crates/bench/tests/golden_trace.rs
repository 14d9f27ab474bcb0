//! The trace rows of `crates/bench/identity.tsv`: the event count and
//! FNV-1a digest of every `TraceEvent` each benchmark rig's traced run
//! emits (`nw_bench::identity`), checked in tier-1.
//!
//! Observers stay inert, and the trace stream is itself an observable: a
//! change to the run loop that moves where a hop is announced, which cycle
//! a transfer is stamped with, or the order of two events in one cycle
//! changes what a trace consumer sees even when every report is equal.
//! The run must also account for every hop in its `FastForward` events.

use nw_bench::identity;

#[test]
fn trace_digests_match_the_recorded_table() {
    let runs = identity::rig_runs();
    for run in &runs {
        let stats = run.stats;
        assert_eq!(
            run.fast_forwards(),
            (stats.hops, stats.cycles_hopped),
            "{}: one FastForward per hop, their spans summing to the cycles hopped",
            run.rig.name()
        );
    }
    let now: Vec<_> = runs.iter().flat_map(identity::rig_rows).collect();
    let (report, ok) = identity::check_manifest(&now, |name| {
        name.starts_with("rig.") && name.contains(".trace.")
    });
    assert!(ok, "{report}");
}
