//! Experiment harness regenerating every table and figure of
//! "System-on-Chip Beyond the Nanometer Wall" (DAC 2003).
//!
//! Each submodule of [`experiments`] reproduces one claim of the paper (see
//! `expt list` for the experiment index). Every experiment exposes a
//! structured `run(fast) -> …Result` function plus a `table()` rendering,
//! so tests can assert the *shape* of the result (who wins, where the knee
//! falls) while the `expt` binary prints the paper-style table.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p nw_bench --bin expt -- all
//! ```
//!
//! or a single experiment by id (`t1`, `t2`, `f3`, `f4`, `f5`, `f6`, `t3`,
//! `t4`, `t5`, `t6`, `t7`, `f1`, `f2`). The Criterion timing benches live in
//! `benches/paper.rs`.

pub mod bench;
pub mod experiments;
pub mod faults;
pub mod obs;
pub mod snapshot;
pub mod table;

pub use table::Table;
