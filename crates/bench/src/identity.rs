//! `expt identity` — every recorded output of the simulator, computed now
//! and diffed against one committed manifest, `crates/bench/identity.tsv`,
//! which holds one `name<TAB>value` row per field:
//!
//! - `rig.<workload>.*`: each [`BenchRig`] run traced from cycle 0 under
//!   the default scheduler for a window a debug build covers in seconds.
//!   Every [`SchedulerStats`] count, which says what the run loop *did*
//!   (`span_cycles` is left out: which stepped cycles a NoC-only span ran
//!   is how the loop got there, not what it did); the trace's event count
//!   and FNV-1a digest, which say what an observer saw (each event hashed
//!   as its variant index followed by its fields, in declaration order);
//!   and the FNV-1a digest of the final report's `Debug` rendering,
//!   nwbench's report digest, which says what the run computed.
//! - `table.fast.<id>` / `table.full.<id>`: FNV-1a of every experiment's
//!   table as `expt --fast <id>` / `expt <id>` prints it.
//! - `trace.mix`: FNV-1a of the JSON `expt trace --scenario mix --cycles
//!   50000` writes.
//!
//! A refactor, a storage or a scheduling change moves none of these, so
//! none of them moves with the code. A moved row prints as
//! `name  recorded → now`, followed by the manifest line to paste: paste it
//! only for a change that means to move that output, and name the rows in
//! CHANGES.md. `expt parity` is the other half: the simulator's agreement
//! with itself, with nothing recorded.
//!
//! Tier-1 checks the rig and `--fast` rows, one slice per test:
//! `tests/golden_sched.rs` the counts and report digests,
//! `tests/golden_trace.rs` the trace rows, and `smoke_expt.rs` the
//! `--fast` tables. CI runs `expt identity` for every row.

use crate::experiments::{Ctx, Experiment, EXPERIMENTS};
use nanowall::scenarios::BenchRig;
use nanowall::{NocWork, PlatformReport, SchedulerStats, TraceEvent, TraceSink};
use std::fmt::Write as _;

/// The committed manifest: `name<TAB>value` rows; blank lines and `#`
/// comments are skipped.
const MANIFEST: &str = include_str!("../identity.tsv");

/// One manifest row: `(name, value)`.
pub type Row = (String, String);

/// nwbench's `mix-fork-faults` campaign horizon: its warm-up plus one
/// replica window.
const CAMPAIGN_HORIZON: u64 = 900_000 + 600_000;

/// Cycles each rig runs traced from cycle 0, in [`BenchRig::ALL`] order.
const WINDOWS: [u64; 4] = [50_000, 1_000_000, 10_000_000, 300_000];

/// FNV-1a's offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends FNV-1a hash `h` over `bytes`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    (bytes.iter()).fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of `text`, as a manifest value.
fn digest(text: &str) -> String {
    format!("{:#018x}", fnv1a(FNV_OFFSET, text.as_bytes()))
}

/// Every field of `s` but `span_cycles`, with its row name. The
/// destructuring names each one, so a new field is a compile error here
/// until it is pinned or left out on purpose.
fn counts(s: SchedulerStats) -> [(&'static str, u64); 19] {
    let SchedulerStats {
        cycles_stepped,
        cycles_hopped,
        hops,
        hops_ended_by_io,
        pe_ticks,
        pe_external_wakes,
        noc_ticks_skipped,
        span_cycles: _,
        phases_entered: [io, noc_tick, arrivals, services, dispatch, pe_step, outbox],
        noc:
            NocWork {
                ticks,
                arrivals: noc_arrivals,
                wakes_scheduled,
                router_visits,
                fires,
            },
    } = s;
    [
        ("cycles_stepped", cycles_stepped),
        ("cycles_hopped", cycles_hopped),
        ("hops", hops),
        ("hops_ended_by_io", hops_ended_by_io),
        ("pe_ticks", pe_ticks),
        ("pe_external_wakes", pe_external_wakes),
        ("noc_ticks_skipped", noc_ticks_skipped),
        ("phases_entered[IoPacing]", io),
        ("phases_entered[NocTick]", noc_tick),
        ("phases_entered[RouteArrivals]", arrivals),
        ("phases_entered[Services]", services),
        ("phases_entered[Dispatch]", dispatch),
        ("phases_entered[PeStep]", pe_step),
        ("phases_entered[Outbox]", outbox),
        ("noc.ticks", ticks),
        ("noc.arrivals", noc_arrivals),
        ("noc.wakes_scheduled", wakes_scheduled),
        ("noc.router_visits", router_visits),
        ("noc.fires", fires),
    ]
}

/// What the trace digest hashes of `ev`: its variant index, then its
/// fields in declaration order.
#[rustfmt::skip]
fn words(ev: TraceEvent) -> Vec<u64> {
    let u = |i: usize| i as u64;
    match ev {
        TraceEvent::FlitInject { cycle, src, dst, bytes } => vec![0, cycle, u(src), u(dst), u(bytes)],
        TraceEvent::FlitDeliver { cycle, src, dst, latency } => vec![1, cycle, u(src), u(dst), latency],
        TraceEvent::LinkTransfer { cycle, router, port, to, flits, ser } => {
            vec![2, cycle, u(router), u(port), u(to), flits, ser]
        }
        TraceEvent::HandlerStart { cycle, pe, thread, object } => vec![3, cycle, u(pe), u(thread), u(object)],
        TraceEvent::HandlerEnd { cycle, pe, thread } => vec![4, cycle, u(pe), u(thread)],
        TraceEvent::DeadlineMiss { cycle, object, latency, budget } => vec![5, cycle, u(object), latency, budget],
        TraceEvent::FastForward { cycle, span } => vec![6, cycle, span],
        TraceEvent::FaultInjected { cycle, kind, target, arg } => vec![7, cycle, u64::from(kind), u(target), arg],
        TraceEvent::RetryIssued { cycle, pe, thread, attempt } => vec![8, cycle, u(pe), u(thread), u64::from(attempt)],
        TraceEvent::Reroute { cycle, router, port } => vec![9, cycle, u(router), u(port)],
    }
}

/// Hashes every event it receives and tallies the `FastForward` ones.
#[derive(Debug, Clone, Copy, Default)]
struct DigestSink {
    fnv: u64,
    events: u64,
    fast_forwards: u64,
    cycles_fast_forwarded: u64,
}

impl TraceSink for DigestSink {
    fn emit(&mut self, ev: TraceEvent) {
        self.events += 1;
        if let TraceEvent::FastForward { span, .. } = ev {
            self.fast_forwards += 1;
            self.cycles_fast_forwarded += span;
        }
        for w in words(ev) {
            self.fnv = fnv1a(self.fnv, &w.to_le_bytes());
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One rig's traced run: what its rows are read from.
#[derive(Debug)]
pub struct RigRun {
    /// The rig that ran.
    pub rig: BenchRig,
    /// Its scheduler counts at the end of the window.
    pub stats: SchedulerStats,
    /// What its window computed.
    pub report: PlatformReport,
    sink: DigestSink,
}

impl RigRun {
    /// The trace's `FastForward` events: how many, and their spans summed.
    // nw-analyze: allow(PUB01): golden_trace checks that fast-forward hops cover every skipped cycle
    pub fn fast_forwards(&self) -> (u64, u64) {
        (self.sink.fast_forwards, self.sink.cycles_fast_forwarded)
    }
}

fn rig_run((rig, window): (BenchRig, u64)) -> RigRun {
    let mut p = rig.build(CAMPAIGN_HORIZON);
    p.set_trace_sink(Box::new(DigestSink {
        fnv: FNV_OFFSET,
        ..DigestSink::default()
    }));
    let report = p.run(window);
    let mut sink = p.take_trace_sink().expect("installed above");
    let sink = (sink.as_any_mut().downcast_mut::<DigestSink>()).expect("a DigestSink");
    RigRun {
        rig,
        stats: p.scheduler_stats(),
        report,
        sink: *sink,
    }
}

/// Every rig's traced run, in [`BenchRig::ALL`] order.
pub fn rig_runs() -> Vec<RigRun> {
    let rigs = BenchRig::ALL.into_iter().zip(WINDOWS).collect();
    nw_sim::parallel_map_with(nw_sim::sweep_threads(), rigs, rig_run)
}

/// The `rig.<workload>.*` rows of `run`.
// nw-analyze: allow(PUB01): golden_sched and golden_trace compare these rows with the manifest
pub fn rig_rows(run: &RigRun) -> Vec<Row> {
    let counts = counts(run.stats).map(|(field, n)| (field, n.to_string()));
    let digests = [
        ("trace.events", run.sink.events.to_string()),
        ("trace.fnv", format!("{:#018x}", run.sink.fnv)),
        ("report.fnv", digest(&format!("{:?}", run.report))),
    ];
    (counts.into_iter().chain(digests))
        .map(|(field, value)| (format!("rig.{}.{field}", run.rig.name()), value))
        .collect()
}

/// The `table.fast.*` or `table.full.*` rows, in `expt list` order.
pub fn table_rows(fast: bool) -> Vec<Row> {
    let label = if fast { "fast" } else { "full" };
    let row = |e: &Experiment| {
        (
            format!("table.{label}.{}", e.id),
            digest(&(e.run)(Ctx::new(fast))),
        )
    };
    EXPERIMENTS.iter().map(row).collect()
}

/// Every row, in manifest order.
fn rows() -> Vec<Row> {
    let mut rows: Vec<Row> = rig_runs().iter().flat_map(rig_rows).collect();
    rows.extend(table_rows(true));
    rows.extend(table_rows(false));
    let mix = crate::obs::run_trace("mix", 50_000, 1 << 16, None).expect("a registered scenario");
    rows.push(("trace.mix".to_owned(), digest(&mix.json)));
    rows
}

/// The rows of a manifest's text. A line without a tab is a row with no
/// value, which no computed row matches.
fn parse(manifest: &str) -> Vec<Row> {
    (manifest.lines())
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split_once('\t').unwrap_or((l, "")))
        .map(|(name, value)| (name.to_owned(), value.to_owned()))
        .collect()
}

/// Diffs the computed rows against the recorded ones. Returns the report
/// `expt identity` prints, and whether no row moved: each moved row as
/// `name  recorded → now` (`(none)` where one side has no row of that
/// name), the manifest lines to paste, then a one-line summary.
fn check(recorded: &[Row], now: &[Row]) -> (String, bool) {
    let value = |rows: &[Row], name: &str| rows.iter().find(|r| r.0 == name).map(|r| r.1.clone());
    let changed = (now.iter())
        .map(|(name, v)| (name, value(recorded, name), Some(v.clone())))
        .filter(|(_, was, is)| was != is);
    let gone = (recorded.iter())
        .filter(|(name, _)| value(now, name).is_none())
        .map(|(name, v)| (name, Some(v.clone()), None));
    let moved: Vec<_> = changed.chain(gone).collect();
    let shown = |v: &Option<String>| v.clone().unwrap_or_else(|| "(none)".to_owned());
    let mut s = String::new();
    for (name, was, is) in &moved {
        let _ = writeln!(s, "{name}  {} → {}", shown(was), shown(is));
    }
    if !moved.is_empty() {
        s.push_str("to re-record, paste into crates/bench/identity.tsv (and delete each row now (none)):\n");
        for (name, _, is) in &moved {
            if let Some(is) = is {
                let _ = writeln!(s, "{name}\t{is}");
            }
        }
    }
    let (n, rows) = (moved.len(), now.len());
    let _ = writeln!(
        s,
        "IDENTITY  {n} of {rows} rows moved against crates/bench/identity.tsv"
    );
    (s, moved.is_empty())
}

/// Diffs the rows of `now` whose names `keep` accepts against the
/// manifest rows it accepts: the report and whether no row moved. The
/// tier-1 tests each check one slice this way.
pub fn check_manifest(now: &[Row], keep: impl Fn(&str) -> bool) -> (String, bool) {
    let slice = |rows: &[Row]| {
        (rows.iter())
            .filter(|(name, _)| keep(name))
            .cloned()
            .collect::<Vec<_>>()
    };
    check(&slice(&parse(MANIFEST)), &slice(now))
}

/// Computes every row and diffs it against the manifest: the report and
/// whether no row moved.
pub fn run_identity() -> (String, bool) {
    check_manifest(&rows(), |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_moved_row_names_itself_and_prints_the_line_to_paste() {
        let recorded = parse("# comment\n\nsame\t1\nmoved\t2\ngone\t3\nbroken\n");
        let now = ["same\t1", "moved\t5", "new\t7"].map(|l| parse(l).remove(0));
        let (text, ok) = check(&recorded, &now);
        assert!(!ok);
        let want = "moved  2 → 5\nnew  (none) → 7\ngone  3 → (none)\nbroken   → (none)\n";
        assert!(text.starts_with(want), "{text}");
        assert!(
            text.contains("moved\t5\nnew\t7\nIDENTITY  4 of 3 rows moved"),
            "{text}"
        );
        assert!(check(&recorded[..1], &now[..1]).1);
    }
}
