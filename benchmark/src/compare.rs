//! `nwbench compare`: two sets of runs judged against the bounds.
//!
//! Each input file holds one JSON object per line, as `run.sh` writes
//! them: `{"workload": "<name>", "seed": <n>, "result": <result line>}`.
//! For every workload × end-to-end metric the table shows both medians
//! with their quartiles (Python's `statistics.quantiles(values, n=4)`),
//! the wider of the two spreads as a share of its median, the bound, and a
//! verdict:
//!
//! * `unresolved` — a spread is wider than the bound, so the runs cannot
//!   tell a change of that size from noise;
//! * `regressed` — the second median is worse than the first by more than
//!   the bound;
//! * `ok` — neither.
//!
//! A workload whose second set has a larger failed share is `regressed`
//! whatever its metrics say.

use crate::catalog::{Better, END_TO_END};
use crate::json::{self, Value};
use crate::stats::quartiles;
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;

/// The runs of one file: per workload, per metric, one value per run, plus
/// operations attempted and failed per workload.
#[derive(Debug, Default)]
struct RunSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    ops: BTreeMap<String, (f64, f64)>,
}

fn parse_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("line {}: {what}", n + 1);
        let v = json::parse(line).map_err(|e| at(&e))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| at("no `workload`"))?;
        let result = v.get("result").ok_or_else(|| at("no `result`"))?;
        let number = |key: &str| {
            result
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| at(&format!("no `{key}`")))
        };
        let ops = set.ops.entry(workload.to_owned()).or_default();
        ops.0 += number("attempted")?;
        ops.1 += number("failed")?;
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| at("no `metrics`"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| at(&format!("metric `{name}` has no value")))?;
            set.values
                .entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// Verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the second set's quartiles against the first's. Returns the
/// verdict, the wider spread and the worsening of the median, both as
/// shares of a median.
fn judge(a: [f64; 3], b: [f64; 3], better: Better, bound: f64) -> (Verdict, f64, f64) {
    let spread = |q: [f64; 3]| {
        if q[1] == 0.0 {
            0.0
        } else {
            (q[2] - q[0]) / q[1].abs()
        }
    };
    let spread = spread(a).max(spread(b));
    let worse = match better {
        Better::Lower => b[1] - a[1],
        Better::Higher => a[1] - b[1],
    };
    let worse = if a[1] == 0.0 { 0.0 } else { worse / a[1].abs() };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, spread, worse)
}

/// Renders the table for two parsed sets; the flag says whether every row
/// is `ok`.
fn table(a: &RunSet, b: &RunSet) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "{:<16} {:<22} {:>13} {:>27} {:>13} {:>27} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median a",
        "quartiles a",
        "median b",
        "quartiles b",
        "spread",
        "worse",
        "bound"
    );
    for w in WORKLOADS {
        for d in END_TO_END {
            let key = (w.name.to_owned(), d.name.to_owned());
            let runs = |set: &RunSet, which: &str| {
                set.values
                    .get(&key)
                    .filter(|v| v.len() >= 2)
                    .map(|v| quartiles(v))
                    .ok_or(format!(
                        "set {which} has fewer than two runs of {} on {}",
                        d.name, w.name
                    ))
            };
            let (qa, qb) = (runs(a, "a")?, runs(b, "b")?);
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let (verdict, spread, worse) = judge(qa, qb, d.better, bound);
            all_ok &= verdict == Verdict::Ok;
            let _ = writeln!(
                out,
                "{:<16} {:<22} {:>13.6e} {:>27} {:>13.6e} {:>27} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                w.name,
                d.name,
                qa[1],
                format!("{:.5e}..{:.5e}", qa[0], qa[2]),
                qb[1],
                format!("{:.5e}..{:.5e}", qb[0], qb[2]),
                spread * 100.0,
                worse * 100.0,
                bound * 100.0,
                verdict.word()
            );
        }
        let ops = |set: &RunSet| set.ops.get(w.name).copied().unwrap_or((0.0, 0.0));
        let ((att_a, fail_a), (att_b, fail_b)) = (ops(a), ops(b));
        let share = |failed: f64, attempted: f64| {
            if attempted == 0.0 {
                0.0
            } else {
                failed / attempted
            }
        };
        let verdict = if share(fail_b, att_b) > share(fail_a, att_a) {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        all_ok &= verdict == Verdict::Ok;
        let _ = writeln!(
            out,
            "{:<16} {:<22} {fail_a} of {att_a} operations failed in a, {fail_b} of {att_b} in b  {}",
            w.name,
            "ops_failed",
            verdict.word()
        );
    }
    Ok((out, all_ok))
}

/// Reads both files and prints the table. `Ok(true)` when every row is
/// `ok`.
///
/// # Errors
///
/// Unreadable or malformed files, or a workload × metric with fewer than
/// two runs in either file.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| parse_set(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (text, all_ok) = table(&read(path_a)?, &read(path_b)?)?;
    print!("{text}");
    println!(
        "compare: {}",
        if all_ok {
            "every workload x metric agrees within its bound"
        } else {
            "not every row is ok"
        }
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_spread_and_direction() {
        // Steady, equal: ok.
        let q = [99.0, 100.0, 101.0];
        assert_eq!(judge(q, q, Better::Higher, 0.10).0, Verdict::Ok);
        // Higher-is-better dropping 20 %: regressed; rising 20 %: ok.
        let low = [79.0, 80.0, 81.0];
        assert_eq!(judge(q, low, Better::Higher, 0.10).0, Verdict::Regressed);
        assert_eq!(judge(low, q, Better::Higher, 0.10).0, Verdict::Ok);
        // The same move on a lower-is-better metric reads the other way.
        assert_eq!(judge(q, low, Better::Lower, 0.10).0, Verdict::Ok);
        assert_eq!(judge(low, q, Better::Lower, 0.10).0, Verdict::Regressed);
        // A spread wider than the bound decides nothing.
        let wide = [80.0, 100.0, 120.0];
        assert_eq!(judge(q, wide, Better::Higher, 0.10).0, Verdict::Unresolved);
        // Exactly repeating values have no spread and no change.
        let (v, spread, worse) = judge([5.0; 3], [5.0; 3], Better::Lower, 0.01);
        assert_eq!((v, spread, worse), (Verdict::Ok, 0.0, 0.0));
    }

    fn line(workload: &str, seed: u64, scale: f64, failed: u64) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    (10.0 + i as f64) * scale * (1.0 + seed as f64 / 1000.0),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"result\": {{\"correct\": true, \
             \"attempted\": 10, \"failed\": {failed}, \"metrics\": {{{}}}}}}}\n",
            metrics.join(", ")
        )
    }

    fn set(scale: f64, failed: u64) -> RunSet {
        let text: String = WORKLOADS
            .iter()
            .flat_map(|w| (0..4).map(move |seed| line(w.name, seed, scale, failed)))
            .collect();
        parse_set(&text).expect("well-formed lines")
    }

    #[test]
    fn equal_sets_are_ok_and_a_failed_operation_regresses() {
        let (text, ok) = table(&set(1.0, 0), &set(1.0, 0)).expect("complete sets");
        assert!(ok, "{text}");
        assert_eq!(
            text.lines().count(),
            1 + WORKLOADS.len() * (END_TO_END.len() + 1)
        );
        let (text, ok) = table(&set(1.0, 0), &set(1.0, 1)).expect("complete sets");
        assert!(!ok && text.contains("regressed"), "{text}");
        // Everything 30 % larger: the lower-is-better metrics regress.
        let (text, ok) = table(&set(1.0, 0), &set(1.3, 0)).expect("complete sets");
        assert!(!ok && text.contains("setup_s"), "{text}");
    }

    #[test]
    fn incomplete_or_malformed_sets_are_errors() {
        assert!(parse_set("{\"workload\": \"x\"}\n").is_err());
        assert!(parse_set("not json\n").is_err());
        let one_run = parse_set(&line("ipv4-sat", 1, 1.0, 0)).expect("well-formed");
        assert!(table(&one_run, &one_run).is_err());
    }
}
