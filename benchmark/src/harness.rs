//! What the untraced and the traced run share: set-up, one repetition, the
//! operation count and the simulated-domain arithmetic over a repetition.

use crate::stats::{digest, median, timed};
use crate::workloads::Workload;
use nanowall::{FppaPlatform, HostProfiler, PlatformReport, ProfileReport, SchedulerMode};

/// Operations attempted and failed. An operation is one replica of one
/// timed repetition, or one oracle check; it fails when a report digest is
/// not the expected one.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations counted so far.
    pub attempted: u64,
    /// Operations whose check did not hold.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; prints `what` when it failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAILED  {what}");
        }
    }
}

/// A platform run to the end of its warm-up.
#[derive(Debug)]
pub struct Warmed {
    /// The platform, at cycle `warmup`.
    pub platform: FppaPlatform,
    /// The report of the warm-up run: the base every repetition's
    /// cumulative counters are taken against.
    pub report: PlatformReport,
    /// Host seconds from nothing to here.
    pub secs: f64,
}

/// Everything before the measured window: rig construction, application
/// install, campaign generation, warm-up run.
pub fn set_up(w: &Workload) -> Warmed {
    let ((platform, report), secs) = timed(|| {
        let mut platform = w.build();
        let report = platform.run(w.warmup);
        (platform, report)
    });
    Warmed {
        platform,
        report,
        secs,
    }
}

/// One repetition: every replica's report, and the host seconds for
/// forking and running all of them.
#[derive(Debug)]
pub struct Rep {
    /// One report per replica, in seed order.
    pub reports: Vec<PlatformReport>,
    /// One profile per replica when the repetition was profiled.
    pub profiles: Vec<ProfileReport>,
    /// Host seconds of the repetition.
    pub secs: f64,
}

impl Rep {
    /// One digest per replica, in seed order.
    pub fn digests(&self) -> Vec<u64> {
        self.reports.iter().map(digest).collect()
    }
}

/// Forks `warmed` once per seed and runs each fork for the workload's
/// window, one after the other on this thread. Fork cost is inside the
/// timed span because replica grids pay it.
pub fn run_rep(w: &Workload, warmed: &FppaPlatform, seeds: &[u64], profiled: bool) -> Rep {
    let mut profiles = Vec::new();
    let (reports, secs) = timed(|| {
        seeds
            .iter()
            .map(|&seed| {
                let mut p = warmed.fork(seed);
                if profiled {
                    p.set_host_profiler(HostProfiler::new());
                }
                let report = p.run(w.window);
                profiles.extend(p.take_host_profiler().map(|prof| prof.report()));
                report
            })
            .collect::<Vec<_>>()
    });
    Rep {
        reports,
        profiles,
        secs,
    }
}

/// The dense ≡ active-set check on a prefix window from cycle 0, through
/// `set_scheduler_mode` on each platform (not the process-wide default).
/// Returns whether the reports are equal and the host seconds of the dense
/// and of the active-set run.
pub fn dense_vs_active(w: &Workload) -> (bool, f64, f64) {
    let run = |mode| {
        let mut p = w.build();
        p.set_scheduler_mode(mode);
        timed(|| p.run(w.oracle_prefix))
    };
    let (dense, dense_secs) = run(SchedulerMode::Dense);
    let (active, active_secs) = run(SchedulerMode::ActiveSet);
    (dense == active, dense_secs, active_secs)
}

/// Checks one repetition's replicas against the expected digests and
/// counts one operation per replica.
pub fn check_rep(ops: &mut Ops, rep: &Rep, expected: &[u64], label: &str) {
    for (i, (got, want)) in rep.digests().iter().zip(expected).enumerate() {
        ops.check(
            got == want,
            &format!("{label}: replica {i} digest {got:016x}, expected {want:016x}"),
        );
    }
}

/// Sum over replicas of a cumulative counter's growth since the warm-up.
pub fn grown(rep: &Rep, warm: &PlatformReport, f: impl Fn(&PlatformReport) -> u64) -> u64 {
    rep.reports.iter().map(|r| f(r) - f(warm)).sum()
}

/// Modelled throughput, I/O delivery and tail latency of one repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modelled {
    /// Tasks completed in the window, all replicas.
    pub tasks: u64,
    /// Items the I/O channels generated in the window, all channels of all
    /// replicas.
    pub io_generated: u64,
    /// Items they transmitted in the window.
    pub io_transmitted: u64,
    /// Largest p99 over the objects that recorded round trips, median
    /// across replicas.
    pub worst_p99_cycles: f64,
}

/// Reads the simulated-domain end-to-end figures off one repetition.
///
/// I/O delivery is pooled over channels and replicas and the tail is the
/// median across replicas, not the extreme: on the seeded workload a
/// minimum over eight replicas of a channel that passes ~55 items per
/// window moves by 2 % per item, which would measure the seed.
pub fn modelled(rep: &Rep, warm: &PlatformReport) -> Modelled {
    let worst: Vec<f64> = rep
        .reports
        .iter()
        .map(|r| {
            let p99s = r.latency.iter().filter(|l| l.count > 0).map(|l| l.p99.0);
            p99s.max().unwrap_or(0) as f64
        })
        .collect();
    Modelled {
        tasks: grown(rep, warm, |r| r.tasks_completed),
        io_generated: grown(rep, warm, |r| r.io.iter().map(|c| c.generated).sum()),
        io_transmitted: grown(rep, warm, |r| r.io.iter().map(|c| c.transmitted).sum()),
        worst_p99_cycles: median(&worst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(name: &str) -> Workload {
        Workload::named(name).expect("known workload").quick()
    }

    #[test]
    fn digests_are_stable_and_tell_reports_apart() {
        let w = quick("ipv4-sat");
        // No campaign: a fork never draws from its seed.
        let (a, b) = (set_up(&w), set_up(&w));
        let warm = digest(&a.report);
        assert_eq!(warm, digest(&b.report));
        let rep = run_rep(&w, &a.platform, &[1], false);
        assert_ne!(rep.digests(), [warm]);
        assert_eq!(
            rep.digests(),
            run_rep(&w, &b.platform, &[7], false).digests()
        );
    }

    #[test]
    fn the_seed_reaches_only_the_futures_of_the_reseeded_replicas() {
        let w = quick("mix-fork-faults");
        let (a, again) = (set_up(&w), set_up(&w));
        assert_eq!(a.report, again.report);
        let (seeds, other_seeds) = (w.replica_seeds(11), w.replica_seeds(29));
        assert_eq!(seeds.len(), 8);
        assert_eq!(seeds[0], other_seeds[0]);
        let rep = run_rep(&w, &a.platform, &seeds, false);
        let other = run_rep(&w, &a.platform, &other_seeds, false);
        assert_eq!(rep.reports[0], other.reports[0]);
        assert_ne!(rep.reports[1..], other.reports[1..]);
        let mut ops = Ops::default();
        let expected = rep.digests();
        check_rep(
            &mut ops,
            &run_rep(&w, &again.platform, &seeds, true),
            &expected,
            "test",
        );
        assert_eq!((ops.attempted, ops.failed), (8, 0));
        let wrong: Vec<u64> = expected.iter().rev().copied().collect();
        check_rep(&mut ops, &rep, &wrong, "expected to fail");
        assert!(ops.failed > 0);
    }

    #[test]
    fn modelled_figures_are_growth_since_the_warm_up() {
        let w = quick("video-knee");
        let warmed = set_up(&w);
        let rep = run_rep(&w, &warmed.platform, &[1], false);
        let m = modelled(&rep, &warmed.report);
        assert_eq!(
            m.tasks,
            rep.reports[0].tasks_completed - warmed.report.tasks_completed
        );
        assert!(m.tasks > 0 && m.io_generated > 0 && m.io_transmitted > 0);
        assert!(m.worst_p99_cycles > 0.0);
        let (same, dense_secs, active_secs) = dense_vs_active(&w);
        assert!(same && dense_secs > 0.0 && active_secs > 0.0);
    }
}
