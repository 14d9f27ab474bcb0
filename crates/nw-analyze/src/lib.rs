//! Determinism auditor: static analysis over the workspace sources.
//!
//! The whole performance program rests on one contract: **a simulation
//! result is a pure function of its configuration** — the differential
//! suites pin the ActiveSet scheduler, the NoC event wheel and the
//! parallel sweep runner to bit-identical reports. That contract is
//! enforced dynamically, after a divergence already happened. This crate
//! enforces it *statically*: an offline pass over the sources rejects
//! the constructs that historically cause silent nondeterminism before
//! the simulator ever runs.
//!
//! # Rules
//!
//! | id | contract |
//! |------|----------|
//! | ND01 | no `HashMap`/`HashSet` in sim-result crates (`core`, `nw-noc`, `nw-sim`, `nw-dsoc`) |
//! | ND02 | no wall-clock/entropy sources outside the `nw_bench` timing harness |
//! | ND03 | no `static mut` / interior-mutable globals in sim-result crates |
//! | WR01 | no truncating `as` casts in `wire.rs` encode/decode paths |
//! | AL01 | allowlist and marker hygiene (stale entries, missing justifications) |
//! | DOC01 | back-ticked paths, `--example` names and `Type::item`s in README.md/ARCHITECTURE.md/the verify skill exist; ARCHITECTURE.md ≤ 36 KiB, README.md ≤ 20 KiB |
//! | PUB01 | every `pub` item in `crates/*/src` is named by code other than its own crate's tests |
//!
//! # Suppression
//!
//! Two mechanisms, both requiring a written justification:
//!
//! * **Marker comments** next to the site:
//!   `// nw-analyze: allow(ND03): <reason>` (covers that line and the
//!   next) or `// nw-analyze: allow-file(ND03): <reason>` (whole file).
//! * **The allowlist** `nw-analyze.allow` at the workspace root:
//!   `ND01 crates/nw-noc/tests/prop_delivery.rs — <reason>` lines.
//!   Entries that stop matching a finding become AL01 findings
//!   themselves, so grandfathered grants cannot outlive their sites.
//!
//! The scanner is comment- and string-aware (see [`SourceFile`]): a `HashMap`
//! in a doc comment or a test-fixture string never fires a rule. There
//! is deliberately no `syn`-style parsing — the build container is
//! offline and the rules key on tokens a line scanner resolves exactly.
//!
//! # Entry points
//!
//! [`analyze`] walks a workspace root; [`analyze_sources`] takes
//! pre-scanned [`SourceFile`]s (what the fixture tests use); the
//! `expt lint` subcommand in `nw_bench` wraps [`analyze`] with exit
//! codes and `--json` output for CI.

mod allowlist;
mod diag;
mod engine;
mod markers;
mod rules;
mod scan;

pub use allowlist::{AllowEntry, Allowlist};
pub use diag::{Diagnostic, RuleId, ALL_RULES};
pub use engine::{analyze, analyze_sources, find_root, AnalysisReport, ALLOWLIST_FILE};
pub use markers::Markers;
pub use scan::{Line, SourceFile};
