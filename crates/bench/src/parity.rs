//! `expt parity` — the simulator's agreement with itself, as one matrix.
//!
//! **Platform matrix.** Every [`ScenarioRegistry`] scenario × {no faults,
//! seeded campaign + retry policy} × {`Dense`, `ActiveSet`} × {untraced,
//! [`RingBufferSink`] installed} × the three [`Resume`] paths to cycle
//! `a + b`. Each cell builds its own platform and its final
//! [`PlatformReport`] must equal its scenario's reference — the `Dense`,
//! untraced, uninterrupted run with the same faults — to the last bit. The
//! cell at the reference's own coordinates is a second build of the same
//! run, which makes it the same-seed repeat check.
//!
//! **Experiment tables.** Every registered experiment's table is rendered
//! once as `expt` renders it, then under `Dense` if the experiment builds a
//! platform and on one worker if it sweeps (both read off its
//! [`Experiment`] entry), and compared byte for byte.
//!
//! A comparison that cannot fail proves nothing, so the verdict also
//! requires that every scenario completed tasks, every faulted cell
//! injected faults, some faulted cell retried, and every traced cell
//! captured events. Anything that diverges names itself: its coordinates
//! and the command that reproduces it.

use crate::experiments::{Ctx, Experiment, EXPERIMENTS};
use crate::{arm_faults, Table};
use nanowall::{FppaPlatform, PlatformReport, RingBufferSink, ScenarioRegistry, SchedulerMode};
use nw_sim::parallel_map_with;

/// How a cell gets from cycle 0 to cycle `a + b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// `run(a); run(b)` on one platform.
    Uninterrupted,
    /// `run(a)`, snapshot, then `run(b)` on a platform rebuilt with
    /// [`FppaPlatform::from_snapshot`].
    FromSnapshot,
    /// `run(a)`, snapshot, run ahead by `b / 2`, [`FppaPlatform::restore`],
    /// then `run(b)`.
    Restore,
}

/// The scheduler axis, reference first.
pub const SCHEDULERS: [SchedulerMode; 2] = [SchedulerMode::Dense, SchedulerMode::ActiveSet];

/// The resume axis, reference first.
pub const RESUMES: [Resume; 3] = [Resume::Uninterrupted, Resume::FromSnapshot, Resume::Restore];

/// Fault intensity of the faulted cells: twice the nominal operating point.
/// Permanent link kills and PE crashes are scheduled whatever the seed;
/// whether a call times out and retries within the window is up to the
/// seed, and a seed that retries nowhere is reported as vacuous.
const LEVEL: f64 = 2.0;

/// Coordinates of one platform-matrix cell (a diverged cell prints them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Registry scenario.
    pub scenario: &'static str,
    /// Whether the seeded campaign and the retry policy are installed.
    pub faulted: bool,
    /// Scheduler the platform runs under.
    pub scheduler: SchedulerMode,
    /// Whether a trace sink is installed.
    pub traced: bool,
    /// Path to cycle `a + b`.
    pub resume: Resume,
}

/// One cell's outcome: the verdict plus what makes it non-vacuous.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Which cell.
    pub cell: Cell,
    /// Final report equal to the scenario's reference.
    pub identical: bool,
    /// Tasks completed by cycle `a + b`.
    pub tasks: u64,
    /// Campaign events applied.
    pub faults: u64,
    /// Retries the resilience layer issued.
    pub retries: u64,
    /// Trace events the cell's sinks saw.
    pub events: u64,
}

/// One experiment-table comparison against the table `expt` prints.
#[derive(Debug, Clone)]
pub struct TableResult {
    /// Experiment id.
    pub id: &'static str,
    /// What was varied: `scheduler=Dense` or `threads=1`.
    pub axis: &'static str,
    /// Byte-identical tables.
    pub identical: bool,
}

/// Everything one `expt parity` run compared.
#[derive(Debug, Clone)]
pub struct ParityRun {
    /// CI-sized windows and `--fast` tables.
    pub quick: bool,
    /// Campaign seed of the faulted cells.
    pub seed: u64,
    /// The split `(a, b)`.
    pub split: (u64, u64),
    /// The platform matrix: scenario-major, [`GROUP`] cells for each of a
    /// scenario's unfaulted and faulted halves.
    pub cells: Vec<CellResult>,
    /// The experiment-table section, `expt list` order.
    pub tables: Vec<TableResult>,
}

/// Cells sharing one reference: scheduler × trace × resume.
pub const GROUP: usize = SCHEDULERS.len() * 2 * RESUMES.len();

impl ParityRun {
    /// Every way the matrix failed to exercise what it compares (empty on
    /// a healthy run).
    pub fn vacuities(&self) -> Vec<String> {
        let mut v = Vec::new();
        for scenario in self.cells.chunks(2 * GROUP) {
            // A campaign may wedge a faulted cell; the unfaulted ones run.
            if scenario.iter().all(|r| r.tasks == 0) {
                let name = scenario[0].cell.scenario;
                v.push(format!("scenario={name}: no cell completed a task"));
            }
        }
        for r in &self.cells {
            if r.cell.faulted && r.faults == 0 {
                v.push(format!("{:?}: the campaign injected nothing", r.cell));
            }
            if r.cell.traced && r.events == 0 {
                v.push(format!("{:?}: the sink captured nothing", r.cell));
            }
        }
        if !self.cells.iter().any(|r| r.retries > 0) {
            v.push("no cell retried a call (this seed never reaches the retry layer)".to_owned());
        }
        v
    }

    /// Every comparison identical and none of them vacuous.
    pub fn ok(&self) -> bool {
        self.cells.iter().all(|r| r.identical)
            && self.tables.iter().all(|t| t.identical)
            && self.vacuities().is_empty()
    }

    /// The stdout report: one row per group of cells and per table
    /// comparison, then every divergence and vacuity by name and the
    /// command that reruns exactly this matrix.
    pub fn render(&self) -> String {
        let (a, b) = self.split;
        let verdict = |same| if same { "identical" } else { "DIVERGED" };
        let mut s = format!(
            "PARITY  seed {}  split {a}+{b} cycles  {} platform cells, {} table rows\n",
            self.seed,
            self.cells.len(),
            self.tables.len()
        );
        let mut t = Table::new(&[
            "scenario", "faults", "tasks", "injected", "retries", "cells", "verdict",
        ]);
        for group in self.cells.chunks(GROUP) {
            let first = &group[0];
            let same = group.iter().filter(|r| r.identical).count();
            t.row_owned(vec![
                first.cell.scenario.to_owned(),
                if first.cell.faulted { "on" } else { "off" }.to_owned(),
                first.tasks.to_string(),
                first.faults.to_string(),
                first.retries.to_string(),
                format!("{same}/{}", group.len()),
                verdict(same == group.len()).to_owned(),
            ]);
        }
        s.push_str(&t.render());
        let mut t = Table::new(&["table", "axis", "verdict"]);
        for r in &self.tables {
            t.row(&[r.id, r.axis, verdict(r.identical)]);
        }
        s.push_str(&t.render());

        for r in self.cells.iter().filter(|r| !r.identical) {
            s.push_str(&format!("DIVERGED  {:?} split {a}+{b}\n", r.cell));
        }
        for r in self.tables.iter().filter(|r| !r.identical) {
            s.push_str(&format!("DIVERGED  table {} {}\n", r.id, r.axis));
        }
        for v in self.vacuities() {
            s.push_str(&format!("VACUOUS  {v}\n"));
        }
        if self.ok() {
            s.push_str("PARITY  bit-identical\n");
        } else {
            let quick = if self.quick { "--quick " } else { "" };
            let seed = self.seed;
            s.push_str(&format!(
                "PARITY  FAILED  reproduce: expt parity {quick}--seed {seed}\n"
            ));
        }
        s
    }
}

/// Ring size of the traced cells.
fn ring() -> Box<RingBufferSink> {
    Box::new(RingBufferSink::new(1 << 12))
}

/// Takes the platform's ring back and counts what it saw.
fn events_seen(p: &mut FppaPlatform) -> u64 {
    p.take_trace_sink().map_or(0, |mut sink| {
        let ring = (sink.as_any_mut().downcast_mut::<RingBufferSink>())
            .expect("the cell installed a RingBufferSink");
        ring.len() as u64 + ring.dropped()
    })
}

/// Runs one cell to cycle `a + b`: its final report and the trace events
/// its sinks saw. Observers stay with the platform they were installed on,
/// so the `from_snapshot` path installs a second ring on the rebuilt one.
fn run_cell(
    registry: &ScenarioRegistry,
    cell: Cell,
    seed: u64,
    (a, b): (u64, u64),
) -> (PlatformReport, u64) {
    let mut p = (registry.build(cell.scenario, true))
        .expect("registered scenario")
        .platform;
    p.set_scheduler_mode(cell.scheduler);
    if cell.faulted {
        arm_faults(&mut p, seed, a + b, LEVEL);
    }
    if cell.traced {
        p.set_trace_sink(ring());
    }
    let _ = p.run(a);
    let mut events = 0;
    let report = match cell.resume {
        Resume::Uninterrupted => p.run(b),
        Resume::FromSnapshot => {
            let mut fresh = FppaPlatform::from_snapshot(&p.snapshot());
            if cell.traced {
                fresh.set_trace_sink(ring());
            }
            let report = fresh.run(b);
            events += events_seen(&mut fresh);
            report
        }
        Resume::Restore => {
            let snap = p.snapshot();
            let _ = p.run(b / 2);
            p.restore(&snap);
            p.run(b)
        }
    };
    events += events_seen(&mut p);
    (report, events)
}

/// The platform matrix over `scenarios`, scenario-major, on `threads`
/// workers. A (scenario, faults) group's reference is the run at its first
/// cell's coordinates; that cell then runs it a second time.
fn platform_matrix(
    scenarios: &[&'static str],
    seed: u64,
    split: (u64, u64),
    threads: usize,
) -> Vec<CellResult> {
    let registry = ScenarioRegistry::standard();
    let mut cells = Vec::new();
    for &scenario in scenarios {
        for faulted in [false, true] {
            for scheduler in SCHEDULERS {
                for traced in [false, true] {
                    for resume in RESUMES {
                        cells.push(Cell {
                            scenario,
                            faulted,
                            scheduler,
                            traced,
                            resume,
                        });
                    }
                }
            }
        }
    }
    let firsts: Vec<Cell> = cells.iter().copied().step_by(GROUP).collect();
    let references: Vec<PlatformReport> = parallel_map_with(threads, firsts, |reference| {
        run_cell(&registry, reference, seed, split).0
    });
    let indexed: Vec<(usize, Cell)> = cells.into_iter().enumerate().collect();
    parallel_map_with(threads, indexed, |(i, cell)| {
        let (report, events) = run_cell(&registry, cell, seed, split);
        CellResult {
            cell,
            identical: report == references[i / GROUP],
            tasks: report.tasks_completed,
            faults: report.resilience.faults_injected,
            retries: report.resilience.retries,
            events,
        }
    })
}

/// The experiment-table section over `experiments`: each table is rendered
/// under `base` — what `expt` prints — and once more per axis that can
/// reach it, all renderings fanned out together, then compared. The caller
/// keeps `base.threads` at two or more so that a `threads=1` row never
/// compares a serial run with itself.
fn experiment_tables(experiments: &[Experiment], base: Ctx) -> Vec<TableResult> {
    let dense = Ctx {
        scheduler: SCHEDULERS[0],
        ..base
    };
    let serial = Ctx { threads: 1, ..base };
    let mut jobs = Vec::new();
    for (i, e) in experiments.iter().enumerate() {
        jobs.push((i, "", base));
        if e.platform {
            jobs.push((i, "scheduler=Dense", dense));
        }
        if e.sweeps {
            jobs.push((i, "threads=1", serial));
        }
    }
    let tables = parallel_map_with(base.threads, jobs.clone(), |(i, _, ctx)| {
        (experiments[i].run)(ctx)
    });
    let mut want = &tables[0];
    let mut rows = Vec::new();
    for ((i, axis, _), table) in jobs.into_iter().zip(&tables) {
        if axis.is_empty() {
            want = table;
        } else {
            rows.push(TableResult {
                id: experiments[i].id,
                axis,
                identical: table == want,
            });
        }
    }
    rows
}

/// The split `(a, b)` of the platform matrix; `--quick` still runs every
/// cell to cycle 20 000.
fn split(quick: bool) -> (u64, u64) {
    if quick {
        (8_000, 12_000)
    } else {
        (20_000, 40_000)
    }
}

/// Runs both sections. `quick` shrinks the split to CI size and renders the
/// `--fast` tables; `seed` draws the campaigns of the faulted cells.
pub fn run_parity(quick: bool, seed: u64) -> ParityRun {
    let mut base = Ctx::new(quick);
    base.threads = base.threads.max(2);
    let scenarios = ScenarioRegistry::standard().names();
    ParityRun {
        quick,
        seed,
        split: split(quick),
        cells: platform_matrix(&scenarios, seed, split(quick), base.threads),
        tables: experiment_tables(&EXPERIMENTS, base),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::find;

    /// `run_parity(true, 1)` with each section cut down to its cheapest rows
    /// that still reach everything: the one scenario whose calls retry at
    /// this seed, and below one experiment per combination of axes. The
    /// `expt parity --quick` smoke test runs all of both, once.
    #[test]
    fn the_quick_matrix_is_clean_complete_and_not_vacuous() {
        let run = ParityRun {
            quick: true,
            seed: 1,
            split: split(true),
            cells: platform_matrix(&["ipv4"], 1, split(true), 2),
            tables: Vec::new(),
        };
        assert!(run.ok(), "{}", run.render());
        assert_eq!(run.vacuities(), Vec::<String>::new());
        assert!(run.split.0 + run.split.1 >= 20_000);

        assert_eq!(run.cells.len(), 2 * GROUP, "the product of the axes");
        let has = |f: &dyn Fn(&Cell) -> bool| run.cells.iter().any(|r| f(&r.cell));
        for on in [false, true] {
            assert!(has(&|c| c.faulted == on) && has(&|c| c.traced == on));
        }
        assert!(SCHEDULERS.iter().all(|&m| has(&|c| c.scheduler == m)));
        assert!(RESUMES.iter().all(|&r| has(&|c| c.resume == r)));
        for (i, r) in run.cells.iter().enumerate() {
            assert!(!run.cells[..i].iter().any(|o| o.cell == r.cell));
            // The faulted half is a different run, not a repeat of the other.
            assert_eq!(r.faults > 0, r.cell.faulted, "{:?}", r.cell);
        }
        assert!(run.render().ends_with("PARITY  bit-identical\n"));
    }

    #[test]
    fn a_table_gets_one_row_per_axis_that_reaches_it() {
        // No axis, one axis, both: the cheapest experiment of each kind.
        let subset = ["t1", "f2", "t12"].map(|id| find(id).expect("registered"));
        let base = Ctx {
            threads: 2,
            ..Ctx::new(true)
        };
        let rows = experiment_tables(&subset, base);
        let got: Vec<(&str, &str)> = rows.iter().map(|r| (r.id, r.axis)).collect();
        let dense = "scheduler=Dense";
        assert_eq!(got, [("f2", dense), ("t12", dense), ("t12", "threads=1")]);
        assert!(rows.iter().all(|r| r.identical), "{rows:?}");
    }

    /// Two cells of one group and one table row, all healthy.
    fn hand_built() -> ParityRun {
        let cell = |scheduler| CellResult {
            cell: Cell {
                scenario: "ipv4",
                faulted: true,
                scheduler,
                traced: true,
                resume: Resume::Restore,
            },
            identical: true,
            tasks: 10,
            faults: 2,
            retries: 1,
            events: 5,
        };
        ParityRun {
            quick: true,
            seed: 9,
            split: (3, 4),
            cells: SCHEDULERS.map(cell).to_vec(),
            tables: vec![TableResult {
                id: "t8",
                axis: "scheduler=Dense",
                identical: true,
            }],
        }
    }

    #[test]
    fn a_divergence_fails_the_run_and_names_itself() {
        let clean = hand_built();
        assert!(clean.ok() && !clean.render().contains("DIVERGED"));

        let mut run = hand_built();
        run.cells[1].identical = false;
        assert!(!run.ok());
        let text = run.render();
        for coordinate in [
            "DIVERGED  Cell { scenario: \"ipv4\", faulted: true, scheduler: ActiveSet",
            "traced: true, resume: Restore } split 3+4",
            "1/2",
            "reproduce: expt parity --quick --seed 9\n",
        ] {
            assert!(text.contains(coordinate), "{coordinate}: {text}");
        }
        run.quick = false;
        assert!(run.render().contains("reproduce: expt parity --seed 9\n"));

        let mut run = hand_built();
        run.tables[0].identical = false;
        assert!(!run.ok());
        assert!(run.render().contains("DIVERGED  table t8 scheduler=Dense"));
    }

    #[test]
    fn a_vacuous_matrix_fails_the_run() {
        for starve in [
            (|run| run.cells[1].faults = 0) as fn(&mut ParityRun),
            |run| run.cells[1].events = 0,
            |run| run.cells.iter_mut().for_each(|r| r.tasks = 0),
            |run| run.cells.iter_mut().for_each(|r| r.retries = 0),
        ] {
            let mut run = hand_built();
            starve(&mut run);
            assert!(!run.ok());
            assert_eq!(run.vacuities().len(), 1, "{:?}", run.vacuities());
            assert!(run.render().contains("VACUOUS"));
        }
        let mut run = hand_built();
        run.cells[1].tasks = 0;
        assert!(run.ok(), "a campaign may wedge one cell of a scenario");
    }
}
