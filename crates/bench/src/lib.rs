//! Experiment harness regenerating every table and figure of
//! "System-on-Chip Beyond the Nanometer Wall" (DAC 2003).
//!
//! Each submodule of [`experiments`] reproduces one claim of the paper;
//! [`experiments::EXPERIMENTS`] is the index `expt list` prints and carries
//! each runner. An experiment exposes a structured `run(ctx) -> …Result`
//! whose result holds the rendered `table`, so tests can assert the *shape*
//! of the result (who wins, where the knee falls) while the `expt` binary
//! prints the paper-style table; the [`experiments::Ctx`] it takes by value
//! is the only configuration it reads.
//!
//! ```text
//! cargo run --release -p nw_bench --bin expt -- all
//! cargo run --release -p nw_bench --bin expt -- --fast t3 f6
//! ```
//!
//! [`parity`] is the simulator's agreement with itself as one matrix
//! (`expt parity`); [`obs`] holds `expt trace` and `expt profile`. Host time
//! is measured in `benchmark/` (nwbench), not here.

pub mod experiments;
pub mod obs;
pub mod parity;
pub mod table;

pub use table::Table;

use nanowall::{FaultCampaign, FaultRates, FppaPlatform, RetryPolicy};

/// Makes a run faulty: installs the campaign `seed` draws over `horizon`
/// cycles at intensity `level` for this platform's fabric shape, plus the
/// default retry policy. Every faulted run of this crate is armed here.
pub fn arm_faults(platform: &mut FppaPlatform, seed: u64, horizon: u64, level: f64) {
    let shape = platform.fault_shape();
    platform.install_fault_campaign(FaultCampaign::generate(
        seed,
        horizon,
        &FaultRates::scaled(level),
        &shape,
    ));
    platform.set_retry_policy(RetryPolicy::default());
}
