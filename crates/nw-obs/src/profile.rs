//! Host-side phase profiler for the scheduler main loop.
//!
//! This is *host-domain* observability: it measures where the simulator
//! process spends wall-clock time, attributed to named phases of the
//! platform step. It never touches simulation state, so profiled runs
//! stay bit-identical to unprofiled ones.
//!
//! Timing is **lap-based**: the profiler keeps a single running mark and,
//! at each phase boundary, attributes the time since the previous mark to
//! the phase that just finished. One `Instant::now` read per boundary (a
//! stretch that runs many boundaries at once reads it once and books the
//! rest as laps without time), and every nanosecond between `arm` and
//! `pause` lands in exactly one phase — which is what lets `expt profile`'s tests and nwbench's
//! `core.attributed_share` assert that the phase breakdown sums to the
//! measured loop total (within noise). The cost of work that
//! happens between laps without its own phase (e.g. the active-set
//! quiet-span probe) folds into the next lap taken.
//!
//! Wall-clock reads live only in this file; the `nw-analyze` ND02 rule
//! exempts it via the audited allowlist because readings flow exclusively
//! into observability reports, never into simulation results.

use std::time::{Duration, Instant};

/// One named phase of the platform main loop.
///
/// The first seven are the numbered sub-steps of a platform step, in
/// execution order; `FastForward` and `Settle` belong to the run loop
/// around the steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HostPhase {
    /// Ingress pacing: paced packet injection into source NIs.
    IoPacing,
    /// NoC clock tick: wheel pop, NI drain, link transmit.
    NocTick,
    /// Moving ejected packets into runtime queues.
    RouteArrivals,
    /// Service endpoints consuming and replying.
    Services,
    /// Handler dispatch onto hardware threads.
    Dispatch,
    /// Stepping the processing elements.
    PeStep,
    /// Flushing PE outboxes back into the NoC.
    Outbox,
    /// Active-set quiet-span fast-forward hops.
    FastForward,
    /// End-of-run accounting settle and report collection.
    Settle,
}

impl HostPhase {
    /// All phases, in execution order.
    pub const ALL: [HostPhase; 9] = [
        HostPhase::IoPacing,
        HostPhase::NocTick,
        HostPhase::RouteArrivals,
        HostPhase::Services,
        HostPhase::Dispatch,
        HostPhase::PeStep,
        HostPhase::Outbox,
        HostPhase::FastForward,
        HostPhase::Settle,
    ];

    /// Stable snake_case name (used as the JSON key in bench reports).
    pub fn name(self) -> &'static str {
        match self {
            HostPhase::IoPacing => "io_pacing",
            HostPhase::NocTick => "noc_tick",
            HostPhase::RouteArrivals => "route_arrivals",
            HostPhase::Services => "services",
            HostPhase::Dispatch => "dispatch",
            HostPhase::PeStep => "pe_step",
            HostPhase::Outbox => "outbox",
            HostPhase::FastForward => "fast_forward",
            HostPhase::Settle => "settle",
        }
    }

    /// Hierarchy parent: per-step phases group under `step`, loop-level
    /// phases under `run`.
    pub fn group(self) -> &'static str {
        match self {
            HostPhase::FastForward | HostPhase::Settle => "run",
            _ => "step",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated wall-clock attribution for the scheduler main loop.
///
/// Usage: [`arm`](HostProfiler::arm) when the loop starts, call
/// [`lap`](HostProfiler::lap) at the end of each phase, and
/// [`pause`](HostProfiler::pause) when leaving the loop (so time spent
/// outside it is attributed to nothing). [`report`](HostProfiler::report)
/// snapshots the totals.
#[derive(Debug, Default)]
pub struct HostProfiler {
    mark: Option<Instant>,
    acc: [Duration; HostPhase::ALL.len()],
    laps: [u64; HostPhase::ALL.len()],
}

impl HostProfiler {
    /// A profiler with all phase accumulators at zero, not armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts (or restarts) the running mark. Time before `arm` is not
    /// attributed to anything.
    pub fn arm(&mut self) {
        self.mark = Some(Instant::now());
    }

    /// Closes the phase that just finished: attributes the time since the
    /// previous mark to `phase` and advances the mark. If the profiler is
    /// not armed this only arms it (nothing is attributed).
    pub fn lap(&mut self, phase: HostPhase) {
        let now = Instant::now();
        if let Some(prev) = self.mark {
            let i = phase.index();
            self.acc[i] += now - prev;
            self.laps[i] += 1;
        }
        self.mark = Some(now);
    }

    /// Counts `laps` more boundary crossings of `phase` that get no time of
    /// their own. A loop that runs many rounds of its phases in one stretch
    /// and laps the stretch once books the other rounds here, so lap counts
    /// still say how often each phase ran. Unarmed, it counts nothing (as
    /// [`lap`](HostProfiler::lap) attributes nothing).
    pub fn book(&mut self, phase: HostPhase, laps: u64) {
        if self.mark.is_some() {
            self.laps[phase.index()] += laps;
        }
    }

    /// Drops the running mark; the gap until the next `arm`/`lap` is not
    /// attributed to any phase.
    pub fn pause(&mut self) {
        self.mark = None;
    }

    /// Snapshot of the accumulated per-phase totals.
    pub fn report(&self) -> ProfileReport {
        let phases = HostPhase::ALL
            .iter()
            .map(|&p| PhaseSlice {
                phase: p,
                secs: self.acc[p.index()].as_secs_f64(),
                laps: self.laps[p.index()],
            })
            .collect::<Vec<_>>();
        let total_secs = phases.iter().map(|s| s.secs).sum();
        ProfileReport { phases, total_secs }
    }
}

/// Accumulated time for one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSlice {
    /// Which phase.
    pub phase: HostPhase,
    /// Total attributed wall-clock seconds.
    pub secs: f64,
    /// Number of laps (boundary crossings) attributed.
    pub laps: u64,
}

/// Per-phase wall-clock breakdown of one profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// One slice per [`HostPhase`], in execution order.
    pub phases: Vec<PhaseSlice>,
    /// Sum of all attributed phase time.
    pub total_secs: f64,
}

impl ProfileReport {
    /// Renders a hierarchical table: phases grouped under `step` / `run`
    /// parents, each with share-of-total, absolute time, and lap count.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let total = if self.total_secs > 0.0 {
            self.total_secs
        } else {
            1.0 // avoid 0/0 shares on an empty profile
        };
        let _ = writeln!(
            s,
            "host phase breakdown  (attributed total {:.3}s)",
            self.total_secs
        );
        for group in ["step", "run"] {
            let members: Vec<&PhaseSlice> = self
                .phases
                .iter()
                .filter(|p| p.phase.group() == group)
                .collect();
            let group_secs: f64 = members.iter().map(|p| p.secs).sum();
            let _ = writeln!(
                s,
                "  {group:<16} {:>6.1}%  {:>9.3}s",
                group_secs / total * 100.0,
                group_secs
            );
            for p in members {
                let _ = writeln!(
                    s,
                    "    {:<14} {:>6.1}%  {:>9.3}s  {:>10} laps",
                    p.phase.name(),
                    p.secs / total * 100.0,
                    p.secs,
                    p.laps
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seconds `rep` attributes to `phase`.
    fn secs(rep: &ProfileReport, phase: HostPhase) -> f64 {
        let slice = rep.phases.iter().find(|s| s.phase == phase);
        slice.map_or(0.0, |s| s.secs)
    }

    #[test]
    fn laps_attribute_all_time_between_arm_and_pause() {
        let mut prof = HostProfiler::new();
        let start = Instant::now();
        prof.arm();
        std::thread::sleep(Duration::from_millis(2));
        prof.lap(HostPhase::NocTick);
        std::thread::sleep(Duration::from_millis(2));
        prof.lap(HostPhase::PeStep);
        prof.pause();
        let elapsed = start.elapsed().as_secs_f64();
        let rep = prof.report();
        assert!(secs(&rep, HostPhase::NocTick) > 0.0);
        assert!(secs(&rep, HostPhase::PeStep) > 0.0);
        // Lap-based timing leaves no unattributed gaps inside arm..pause.
        assert!(
            rep.total_secs <= elapsed,
            "attributed {} > elapsed {elapsed}",
            rep.total_secs
        );
        assert!(
            rep.total_secs >= 0.004 * 0.5,
            "sleeps under-attributed: {}",
            rep.total_secs
        );
    }

    #[test]
    fn unarmed_lap_attributes_nothing() {
        let mut prof = HostProfiler::new();
        prof.lap(HostPhase::Settle); // arms only
        let rep = prof.report();
        assert_eq!(secs(&rep, HostPhase::Settle), 0.0);
        assert_eq!(rep.phases.iter().map(|p| p.laps).sum::<u64>(), 0);
    }

    #[test]
    fn paused_time_is_not_attributed() {
        let mut prof = HostProfiler::new();
        prof.arm();
        prof.lap(HostPhase::NocTick);
        prof.pause();
        let before = prof.report().total_secs;
        std::thread::sleep(Duration::from_millis(2));
        prof.arm();
        prof.lap(HostPhase::NocTick);
        let after = prof.report().total_secs;
        assert!(
            after - before < 0.002,
            "paused sleep leaked into attribution: {before} -> {after}"
        );
    }

    #[test]
    fn render_groups_phases_hierarchically() {
        let mut prof = HostProfiler::new();
        prof.arm();
        prof.lap(HostPhase::Dispatch);
        prof.lap(HostPhase::FastForward);
        let out = prof.report().render();
        let step = out.find("step").expect("step group");
        let dispatch = out.find("dispatch").expect("dispatch row");
        let run = out.find("run ").expect("run group");
        assert!(step < dispatch && dispatch < run, "hierarchy order:\n{out}");
        assert!(out.contains("laps"));
    }

    #[test]
    fn names_are_stable_snake_case() {
        for p in HostPhase::ALL {
            let n = p.name();
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
        assert_eq!(HostPhase::ALL.len(), 9);
    }
}
