//! The determinism and resource-hygiene rules, and the docs' path rule.
//!
//! Each rule is a lexical pass over a [`SourceFile`]'s code view (comments
//! and string contents already removed by [`crate::scan`]; for Markdown,
//! the prose outside fenced blocks and HTML comments). Rules return
//! *raw* findings; suppression markers and the allowlist are applied by
//! [`crate::engine`], so fixtures can assert on the unsuppressed set.

use crate::diag::{Diagnostic, RuleId};
use crate::scan::SourceFile;

/// Crates whose state can reach a `PlatformReport` or dispatch order —
/// the ND01/ND03 scope. Paths are repo-relative prefixes. `nw-fault` is
/// in scope because fault timelines steer everything downstream: a
/// non-deterministic campaign would break the faulted bit-identity
/// contract exactly like a non-deterministic NoC.
const SIM_RESULT_CRATES: [&str; 5] = [
    "crates/core/",
    "crates/nw-noc/",
    "crates/nw-sim/",
    "crates/nw-dsoc/",
    "crates/nw-fault/",
];

/// The timing harness: the only code allowed to read wall clocks (ND02).
const TIMING_CRATES: [&str; 1] = ["crates/bench/"];

fn in_sim_result_scope(path: &str) -> bool {
    SIM_RESULT_CRATES.iter().any(|p| path.starts_with(p))
}

fn in_timing_scope(path: &str) -> bool {
    TIMING_CRATES.iter().any(|p| path.starts_with(p))
}

/// Is the char a Rust identifier char (for whole-token matching)?
fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Every match of `token` in `code` at identifier boundaries, as 0-based
/// byte columns. Qualified prefixes are fine (`collections::HashMap`
/// matches `HashMap`); identifier continuations are not (`HashMapExt`
/// does not).
fn token_matches(code: &str, token: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(token) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident(code[..at].chars().next_back().unwrap_or(' '));
        let after_ok = !code[at + token.len()..]
            .chars()
            .next()
            .is_some_and(is_ident);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + token.len();
    }
    out
}

fn diag(rule: RuleId, file: &SourceFile, line0: usize, col0: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: file.path.clone(),
        line: line0 + 1,
        col: col0 + 1,
        message,
    }
}

/// ND01: unordered hash collections in sim-result crates.
fn nd01(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_sim_result_scope(&file.path) {
        return;
    }
    for (n, line) in file.lines.iter().enumerate() {
        for token in ["HashMap", "HashSet"] {
            for col in token_matches(&line.code, token) {
                out.push(diag(
                    RuleId::Nd01,
                    file,
                    n,
                    col,
                    format!(
                        "{token} in a sim-result crate: iteration order is per-process; \
                         use BTreeMap/BTreeSet or sorted iteration"
                    ),
                ));
            }
        }
    }
}

/// ND02: wall-clock and entropy sources outside the timing harness.
fn nd02(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if in_timing_scope(&file.path) {
        return;
    }
    // Qualified tokens: matching `thread::current`/`thread::ThreadId`
    // keeps the platform's own `nw_types::ThreadId` out of scope.
    const SOURCES: [(&str, &str); 6] = [
        ("Instant::now", "wall-clock read"),
        ("SystemTime", "wall-clock read"),
        ("thread_rng", "OS-seeded RNG"),
        ("thread::current", "thread identity"),
        ("thread::ThreadId", "thread identity"),
        ("RandomState", "per-process hasher seed"),
    ];
    for (n, line) in file.lines.iter().enumerate() {
        for (token, what) in SOURCES {
            for col in token_matches(&line.code, token) {
                out.push(diag(
                    RuleId::Nd02,
                    file,
                    n,
                    col,
                    format!(
                        "{token} ({what}) outside the nw_bench timing harness: \
                         simulation state must be a function of config and seed"
                    ),
                ));
            }
        }
    }
}

/// ND03: mutable global state in sim-result crates.
fn nd03(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_sim_result_scope(&file.path) {
        return;
    }
    const INTERIOR_MUT: [&str; 8] = [
        "AtomicU8",
        "AtomicU16",
        "AtomicU32",
        "AtomicU64",
        "AtomicUsize",
        "AtomicBool",
        "Mutex",
        "RwLock",
    ];
    const LAZY_MUT: [&str; 5] = ["OnceLock", "OnceCell", "LazyLock", "RefCell", "UnsafeCell"];
    for (n, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        for col in token_matches(code, "static") {
            // `&'static` and `'static` are lifetimes, not items.
            if code[..col].trim_end().ends_with('\'') {
                continue;
            }
            let rest = &code[col + "static".len()..];
            if rest.trim_start().starts_with("mut ") {
                out.push(diag(
                    RuleId::Nd03,
                    file,
                    n,
                    col,
                    "static mut in a sim-result crate: mutable globals outlive the \
                     platform and leak state across runs"
                        .into(),
                ));
                continue;
            }
            // `static NAME: Type = ...` with an interior-mutable type.
            if let Some(ty) = rest.split_once(':').map(|(_, t)| t) {
                if INTERIOR_MUT
                    .iter()
                    .chain(LAZY_MUT.iter())
                    .any(|t| !token_matches(ty, t).is_empty())
                {
                    out.push(diag(
                        RuleId::Nd03,
                        file,
                        n,
                        col,
                        "interior-mutable static in a sim-result crate: process-global \
                         state must not influence simulation results"
                            .into(),
                    ));
                }
            }
        }
    }
}

/// RH01: `PayloadPool` acquire-family calls with no recycle in the file.
fn rh01(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    // The pool's own module defines the API; pairing is meaningless there.
    if file.path.ends_with("nw-noc/src/pool.rs") {
        return;
    }
    const ACQUIRE: [&str; 3] = [".take_zeroed(", ".pad_zeroed(", "pool.take("];
    let mut first_acquire: Option<(usize, usize, &str)> = None;
    let mut acquires = 0usize;
    let mut releases = 0usize;
    for (n, line) in file.lines.iter().enumerate() {
        for token in ACQUIRE {
            if let Some(col) = line.code.find(token) {
                acquires += 1;
                if first_acquire.is_none() {
                    first_acquire = Some((n, col, token));
                }
            }
        }
        if line.code.contains("pool.put(") {
            releases += 1;
        }
    }
    if let Some((n, col, token)) = first_acquire {
        if releases == 0 {
            out.push(diag(
                RuleId::Rh01,
                file,
                n,
                col,
                format!(
                    "{acquires} PayloadPool acquire(s) (first: `{token}`) with no \
                     pool.put in this file: leak-prone unless ownership provably \
                     transfers (mark with nw-analyze: allow-file(RH01): <where \
                     buffers are recycled>)"
                ),
            ));
        }
    }
}

/// WR01: truncating `as` casts on wire encode/decode paths.
fn wr01(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !(file.path.ends_with("wire.rs") || file.path.ends_with("idl.rs")) {
        return;
    }
    // Casts to 64-bit/usize targets widen on every supported platform;
    // only the narrowing targets can silently drop wire bits.
    const NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
    for (n, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        for col in token_matches(code, "as") {
            let rest = code[col + 2..].trim_start();
            let Some(ty) = NARROW
                .iter()
                .find(|t| rest.starts_with(**t) && !rest[t.len()..].starts_with(is_ident))
            else {
                continue;
            };
            // `as` must follow an expression, not open a use-alias
            // (`use x as y`) — a narrow type name cannot be an alias
            // in this workspace, but keep imports out anyway.
            if code.trim_start().starts_with("use ") {
                continue;
            }
            out.push(diag(
                RuleId::Wr01,
                file,
                n,
                col,
                format!(
                    "`as {ty}` on a wire encode/decode path truncates silently; \
                     use {ty}::try_from(..) so an oversized value panics loudly"
                ),
            ));
        }
    }
}

/// A code span naming a repository path: a `/` and nothing but path
/// characters (so neither `total / cost` nor `chrome://tracing` is one).
fn looks_like_path(span: &str) -> bool {
    span.contains('/')
        && span.chars().any(|c| c.is_ascii_alphanumeric())
        && (span.chars()).all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
}

/// DOC01: back-ticked file paths in the Markdown docs that name nothing.
fn doc01(file: &SourceFile, exists: &dyn Fn(&str) -> bool, out: &mut Vec<Diagnostic>) {
    let mut in_span = false;
    for (n, line) in file.lines.iter().enumerate() {
        // A code span may break across lines (then it holds no path), not
        // across paragraphs.
        in_span &= !line.code.trim().is_empty();
        let pieces: Vec<&str> = line.code.split('`').collect();
        let mut col = 0;
        for (k, piece) in pieces.iter().enumerate() {
            in_span ^= k > 0;
            let whole = in_span && k > 0 && k + 1 < pieces.len();
            if whole && looks_like_path(piece) && !exists(piece) {
                let message = format!("`{piece}` names no file or directory in the repository");
                out.push(diag(RuleId::Doc01, file, n, col, message));
            }
            col += piece.len() + 1;
        }
    }
}

/// Runs every rule for the file's kind — the source rules over `.rs`
/// files, DOC01 over Markdown — returning *raw* (unsuppressed) findings in
/// stable order. `exists` answers whether a repo-relative path exists.
pub fn scan_file(file: &SourceFile, exists: &dyn Fn(&str) -> bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if file.path.ends_with(".md") {
        doc01(file, exists, &mut out);
    } else {
        nd01(file, &mut out);
        nd02(file, &mut out);
        nd03(file, &mut out);
        rh01(file, &mut out);
        wr01(file, &mut out);
    }
    out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    out
}
