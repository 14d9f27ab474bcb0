//! Determinism auditor: static analysis over the workspace sources.
//!
//! The whole performance program rests on one contract: **a simulation
//! result is a pure function of its configuration** — `expt parity` pins
//! the schedulers, the NoC event wheel and the parallel sweep runner to
//! bit-identical reports. That contract is enforced dynamically, after a
//! divergence already happened. The compiler and this crate enforce it
//! *statically*: the constructs that historically cause silent
//! nondeterminism are rejected before the simulator ever runs.
//!
//! # Rules
//!
//! What the compiler can state, it states; this crate keeps the rest.
//!
//! | id | contract | lives in |
//! |------|----------|----------|
//! | ND01 | no `HashMap`/`HashSet` anywhere in the workspace | the root `clippy.toml`'s `disallowed-types` |
//! | ND02 | no wall clock, thread identity or per-process hasher seed | the root `clippy.toml`'s `disallowed-types` and `disallowed-methods` |
//! | ND03 | no `static mut` / interior-mutable globals in sim-result crates (`core`, `nw-noc`, `nw-sim`, `nw-dsoc`) | this crate |
//! | WR01 | no truncating `as` casts in `wire.rs` encode/decode paths | `#![deny(clippy::cast_possible_truncation)]` atop each `wire.rs` |
//! | AL01 | marker hygiene (known rule, a reason) | this crate |
//! | DOC01 | back-ticked paths, `--example` names and `Type::item`s in README.md/ARCHITECTURE.md/the verify skill exist; ARCHITECTURE.md ≤ 36 KiB, README.md ≤ 20 KiB | this crate |
//! | PUB01 | every `pub` item in `crates/*/src` is named by code other than its own crate's tests | this crate |
//!
//! CI's clippy steps (`-D warnings -D clippy::allow_attributes_without_reason`)
//! run the compiler's half; `expt lint` runs this crate's.
//!
//! # Suppression
//!
//! Both halves require a written reason at the site:
//!
//! * **A lint grant** is `#[expect(clippy::disallowed_types, reason =
//!   "ND01: …")]` on the item or statement. A grant that stops matching
//!   fails as `unfulfilled_lint_expectations`, so none can outlive its site.
//! * **A marker comment** covers this crate's rules:
//!   `// nw-analyze: allow(ND03): <reason>` (covers that line and the
//!   next) or `// nw-analyze: allow-file(ND03): <reason>` (whole file).
//!   A marker without a reason, or naming an unknown rule, is AL01.
//!
//! The scanner is comment- and string-aware (see [`SourceFile`]): a
//! `static mut` in a doc comment or a test-fixture string never fires a
//! rule. There is deliberately no `syn`-style parsing — the workspace builds
//! offline with no parser crate, and the rules key on tokens a line scanner
//! resolves exactly.
//!
//! # Entry points
//!
//! [`analyze`] walks a workspace root; [`analyze_sources`] takes
//! pre-scanned [`SourceFile`]s (what the fixture tests use); the
//! `expt lint` subcommand in `nw_bench` wraps [`analyze`] with exit
//! codes and `--json` output for CI.

mod diag;
mod engine;
mod markers;
mod rules;
mod scan;

pub use diag::{Diagnostic, RuleId, ALL_RULES};
pub use engine::{analyze, analyze_sources, find_root, AnalysisReport};
pub use markers::Markers;
pub use scan::{Line, SourceFile};
