//! `crates/bench/history.tsv`, the measured record: every nwbench number
//! the docs once gave in prose, one row per PR × workload × metric. Each
//! row must name a `BENCHMARK.json` workload (or `-`) and metric, each
//! value must be a finite number, a range `lo..hi` or `-`, and the rows
//! must run in PR order.

use std::collections::BTreeSet;

const HISTORY: &str = include_str!("../history.tsv");
const BENCHMARK: &str = include_str!("../../../BENCHMARK.json");

const COLUMNS: [&str; 7] = [
    "pr", "workload", "metric", "parent", "change", "ratio", "pairs",
];

/// Every `"name": "<value>"` in `json`, in order.
fn names(json: &str) -> Vec<&str> {
    json.split("\"name\":")
        .skip(1)
        .filter_map(|rest| rest.trim_start().strip_prefix('"')?.split('"').next())
        .collect()
}

/// The workload and metric names `BENCHMARK.json` declares.
fn declared() -> (BTreeSet<&'static str>, BTreeSet<&'static str>) {
    let (workloads, metrics) = BENCHMARK
        .split_once("\"end_to_end\"")
        .expect("BENCHMARK.json lists end-to-end metrics");
    (
        names(workloads).into_iter().collect(),
        names(metrics).into_iter().collect(),
    )
}

#[test]
fn every_row_names_a_benchmark_metric_in_pr_order() {
    let (workloads, metrics) = declared();
    assert_eq!(workloads.len(), 4, "{workloads:?}");
    assert!(metrics.contains("sim_cycles_per_s") && metrics.contains("core.fork_us"));

    let mut lines = HISTORY
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
    let (_, header) = lines.next().expect("history.tsv has a header");
    assert_eq!(header.split('\t').collect::<Vec<_>>(), COLUMNS);

    let mut last_pr = 0;
    let mut rows = 0;
    for (n, line) in lines {
        let at = format!("history.tsv:{}: {line}", n + 1);
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields.len(), COLUMNS.len(), "{at}");
        let pr: u32 = fields[0]
            .parse()
            .unwrap_or_else(|_| panic!("{at}: PR number"));
        assert!(pr >= last_pr, "{at}: PR {pr} after PR {last_pr}");
        last_pr = pr;
        let workload = fields[1];
        assert!(
            workload == "-" || workloads.contains(workload),
            "{at}: workload"
        );
        assert!(metrics.contains(fields[2]), "{at}: metric");
        let values = &fields[3..];
        for value in values.iter().filter(|v| **v != "-") {
            let (lo, hi) = value.split_once("..").unwrap_or((value, value));
            let number = |x: &str| x.parse::<f64>().ok().filter(|x| x.is_finite());
            let range = number(lo).zip(number(hi));
            assert!(range.is_some_and(|(lo, hi)| lo <= hi), "{at}: `{value}`");
        }
        assert!(values[..3].iter().any(|v| *v != "-"), "{at}: no value");
        rows += 1;
    }
    assert!(rows > 0 && last_pr >= 53, "{rows} rows, last PR {last_pr}");
}
