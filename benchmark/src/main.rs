//! nwbench — the benchmark of the nanowall simulator.
//!
//! ```text
//! nwbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! nwbench compare <a.jsonl> <b.jsonl>
//! nwbench manifest
//! ```
//!
//! A run sets one workload up, checks the simulator against itself, times
//! full-window repetitions for `--seconds` and prints every metric by name
//! with its unit; the last line of standard output is the result object
//! `BENCHMARK.json`'s contract asks for. `--trace 0` gives the end-to-end
//! metrics with every observer off, `--trace 1` the per-layer metrics from
//! a profiled run. `compare` judges two sets of result lines against the
//! bounds; `manifest` prints `BENCHMARK.json` from the catalog. See
//! `README.md` beside this package.

mod calib;
mod catalog;
mod compare;
mod endtoend;
mod harness;
mod json;
mod layers;
mod stats;
mod workloads;

use catalog::{MetricDef, Metrics, END_TO_END, PER_LAYER};
use harness::Ops;
use std::process::{Command, ExitCode};
use workloads::{Workload, WORKLOADS};

/// Seconds one run measures, as `BENCHMARK.json` records it.
const RUN_SECONDS: u64 = 15;

/// Seed of a run that names none. Seed 29 is held back: no window or bound
/// was sized on it.
const DEFAULT_SEED: u64 = 11;

const USAGE: &str =
    "usage: nwbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
       nwbench compare <a.jsonl> <b.jsonl>
       nwbench manifest";

/// Arguments of one measuring run.
#[derive(Debug)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::named(name).ok_or(format!(
                    "unknown workload `{name}`; known: {}",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunArgs {
        workload: if quick { workload.quick() } else { workload },
        seed,
        seconds,
        trace,
        quick,
    })
}

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The result object of one run: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_line(ops: &Ops, metrics: &[(MetricDef, catalog::Metric)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(d.name),
                m.value,
                json::quote(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}

/// Runs one workload and prints its metrics. `Ok(true)` when every
/// operation passed.
fn run(args: &RunArgs) -> Result<bool, String> {
    let w = &args.workload;
    println!(
        "nwbench  workload {}  seed {}  seconds {}  trace {}  nproc {}  rustc `{}`  cpu `{}`  git {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
        first_line_of("rustc", &["-V"]),
        cpu_model(),
        first_line_of("git", &["rev-parse", "HEAD"]),
    );
    println!(
        "windows  warm-up {} cycles, then {} x {} cycles per repetition; model unvalidated against silicon",
        w.warmup, w.replicas, w.window
    );
    if args.quick {
        println!("QUICK    windows / 20: smoke run, numbers not comparable with a full run");
    }
    let mut ops = Ops::default();
    let (metrics, catalog): (Metrics, &[MetricDef]) = if args.trace {
        (
            layers::run(w, args.seed, args.seconds, &mut ops),
            &PER_LAYER,
        )
    } else {
        (
            endtoend::run(w, args.seed, args.seconds, &mut ops)?,
            &END_TO_END,
        )
    };
    let ordered = metrics.in_catalog_order(catalog)?;
    for (d, m) in &ordered {
        let detail = m
            .detail
            .as_ref()
            .map_or(String::new(), |s| format!("  = {s}"));
        println!("{:<44} {:>18} {}{detail}", d.name, m.value, d.unit);
    }
    println!("ops_attempted {}  ops_failed {}", ops.attempted, ops.failed);
    println!("{}", result_line(&ops, &ordered));
    Ok(ops.failed == 0)
}

/// `BENCHMARK.json`, generated from the catalog so the two cannot drift.
fn manifest() -> String {
    let metric = |d: &MetricDef| {
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json::quote(d.name),
            json::quote(d.unit),
            json::quote(d.better.word())
        )
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(w.why)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        END_TO_END.iter().map(metric).collect::<Vec<_>>().join(",\n"),
        PER_LAYER.iter().map(metric).collect::<Vec<_>>().join(",\n"),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("manifest") if args.len() == 1 => {
            print!("{}", manifest());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => parse_run_args(&args).and_then(|a| run(&a)),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nwbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn run_arguments_parse_in_the_drivers_form() {
        let a = parse_run_args(&args(
            "--workload video-knee --seed 29 --seconds 2.5 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload.name, "video-knee");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (29, 2.5, true, false)
        );
        let d = parse_run_args(&args("--workload ipv4-sat")).expect("valid");
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, RUN_SECONDS as f64, false)
        );
        let q = parse_run_args(&args("--workload ipv4-sat --quick")).expect("valid");
        assert_eq!(q.workload.window * 20, d.workload.window);
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--workload ipv4-sat --seed x",
            "--workload ipv4-sat --seconds 0",
            "--workload ipv4-sat --seconds nan",
            "--workload ipv4-sat --trace 2",
            "--workload ipv4-sat --frobnicate",
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "`{bad}` was accepted");
        }
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `nwbench manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
        let v = json::parse(&on_disk).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            v.get("per_layer")
                .and_then(json::Value::as_arr)
                .map(<[_]>::len),
            Some(PER_LAYER.len())
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let mut m = Metrics::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            m.put(d.name, 1.5 + i as f64 / 3.0);
        }
        let ops = Ops {
            attempted: 12,
            failed: 1,
        };
        let line = result_line(&ops, &m.in_catalog_order(&END_TO_END).expect("complete"));
        assert!(!line.contains('\n'));
        let v = json::parse(&line).expect("result line parses");
        let keys: Vec<&str> = v
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(false)));
        assert_eq!(v.get("attempted").and_then(json::Value::as_f64), Some(12.0));
        let metrics = v
            .get("metrics")
            .and_then(json::Value::as_obj)
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, value), d) in metrics.iter().zip(&END_TO_END) {
            assert_eq!(name, d.name);
            assert_eq!(
                value.get("unit").and_then(json::Value::as_str),
                Some(d.unit)
            );
            assert_eq!(
                value.get("value").and_then(json::Value::as_f64),
                m.get(d.name)
            );
        }
    }

    /// The smoke run the issue asks for: every workload, windows / 20,
    /// both the untraced and the traced path, no failed operation.
    #[test]
    fn quick_runs_of_all_four_workloads_pass_every_check() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let a = RunArgs {
                    workload: w.quick(),
                    seed: DEFAULT_SEED,
                    seconds: 0.2,
                    trace,
                    quick: true,
                };
                assert_eq!(run(&a), Ok(true), "{} trace {trace}", w.name);
            }
        }
    }
}
