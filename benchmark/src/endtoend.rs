//! The untraced run: what a user of the simulator sees.

use crate::calib::{at_reference_speed, Kernel};
use crate::catalog::Metrics;
use crate::harness::{check_rep, dense_vs_active, modelled, set_up, Ops, Rep};
use crate::stats::{digest, median, quartiles, timed};
use crate::workloads::Workload;
use nanowall::FppaPlatform;
use nw_types::Cycles;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not say.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One timed repetition with the calibration kernel run before every
/// slice. `rep.secs` is fork and simulation time only; the second value is
/// the kernel's seconds beside it.
fn calibrated_rep(
    w: &Workload,
    warmed: &FppaPlatform,
    seeds: &[u64],
    kernel: &mut Kernel,
) -> (Rep, f64) {
    let (mut secs, mut kernel_secs) = (0.0, 0.0);
    let reports = seeds
        .iter()
        .map(|&seed| {
            let (mut p, fork_secs) = timed(|| warmed.fork(seed));
            secs += fork_secs;
            for _ in 0..w.slices {
                kernel_secs += kernel.run();
                secs += timed(|| p.run(w.window / w.slices)).1;
            }
            // The whole window's report, as one unsliced `run` gives it.
            p.report(Cycles(w.window))
        })
        .collect();
    let rep = Rep {
        reports,
        profiles: Vec::new(),
        secs,
    };
    (rep, kernel_secs)
}

/// Sets the workload up [`SETUPS`] times, checks it, then times
/// repetitions until `seconds` have passed.
///
/// # Errors
///
/// Fails when the process's peak memory cannot be read.
pub fn run(w: &Workload, seed: u64, seconds: f64, ops: &mut Ops) -> Result<Metrics, String> {
    let mut kernel = Kernel::new();
    let mut kernel_secs = vec![kernel.run()];
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        setups.push(set_up(w));
        kernel_secs.push(kernel.run());
    }
    // Each set-up against the kernel runs on either side of it.
    let setup_raw: Vec<f64> = setups.iter().map(|s| s.secs).collect();
    let setup_secs: Vec<f64> = setup_raw
        .iter()
        .zip(kernel_secs.windows(2))
        .map(|(&s, k)| at_reference_speed(s, k[0] + k[1], 2))
        .collect();
    let warm_digest = digest(&setups[0].report);
    for s in &setups[1..] {
        ops.check(
            digest(&s.report) == warm_digest,
            "set-up: two set-ups ended in different warm-up reports",
        );
    }
    let warmed = setups.pop().expect("SETUPS >= 2");
    let mut unforked = setups.swap_remove(0).platform;
    drop(setups);

    let (same, _, _) = dense_vs_active(w);
    ops.check(
        same,
        "oracle: dense and active-set reports differ on the prefix window",
    );

    // The window in one `run` on a platform that was never forked or
    // snapshotted: the reference for replica 0 (forked, and run in
    // slices), and the repetition that warms the host's caches before
    // timing starts.
    let reference = unforked.run(w.window);
    drop(unforked);
    let reference_digest = digest(&reference);

    let seeds = w.replica_seeds(seed);
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let kernel_runs = (w.replicas * w.slices) as usize;
    let (first, first_kernel) = calibrated_rep(w, &warmed.platform, &seeds, &mut kernel);
    let expected = first.digests();
    ops.check(
        expected[0] == reference_digest,
        "fork: replica 0, forked and run in slices, differs from the unforked single run",
    );
    for (i, d) in expected.iter().enumerate().skip(1) {
        ops.check(
            *d != reference_digest,
            &format!("fork: replica {i} was reseeded and still equals the unforked run"),
        );
    }
    // Stop before the repetition that would overrun `--seconds`.
    let mut rep_raw = vec![first.secs];
    let mut rep_secs = vec![at_reference_speed(first.secs, first_kernel, kernel_runs)];
    while rep_secs.len() < MIN_REPS
        || started.elapsed().mul_f64(1.0 + 1.0 / rep_secs.len() as f64) <= budget
    {
        let (rep, rep_kernel) = calibrated_rep(w, &warmed.platform, &seeds, &mut kernel);
        check_rep(ops, &rep, &expected, "repetition");
        rep_raw.push(rep.secs);
        rep_secs.push(at_reference_speed(rep.secs, rep_kernel, kernel_runs));
    }

    let cycles = w.cycles_per_rep() as f64;
    let [q1, _, q3] = quartiles(&rep_secs);
    let listed: Vec<String> = expected.iter().map(|d| format!("{d:016x}")).collect();
    println!("report digests, one per replica: {}", listed.join(" "));
    println!(
        "reps {}  seconds at reference host speed: q1 {q1:.4} median {:.4} q3 {q3:.4}; \
         raw median {:.4} (sim_cycles_per_s raw {:.0})",
        rep_secs.len(),
        median(&rep_secs),
        median(&rep_raw),
        cycles / median(&rep_raw),
    );
    println!(
        "set-ups {SETUPS}  seconds at reference host speed: min {:.4} median {:.4} max {:.4}; raw median {:.4}",
        setup_secs.iter().copied().fold(f64::INFINITY, f64::min),
        median(&setup_secs),
        setup_secs.iter().copied().fold(0.0, f64::max),
        median(&setup_raw),
    );

    let sim = modelled(&first, &warmed.report);
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_secs));
    m.put_ratio(
        "sim_cycles_per_s",
        cycles,
        median(&rep_secs),
        "simulated cycles / median seconds of a repetition at reference host speed",
    );
    m.put(
        "peak_rss_mb",
        peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
    );
    m.put_ratio(
        "sim_tasks_per_kcycle",
        sim.tasks as f64,
        cycles / 1000.0,
        "tasks completed / simulated kilocycles",
    );
    m.put_ratio(
        "sim_io_delivery_ratio",
        sim.io_transmitted as f64,
        sim.io_generated as f64,
        "I/O items transmitted / generated in the window, all channels",
    );
    m.put("sim_worst_p99_cycles", sim.worst_p99_cycles);
    Ok(m)
}
