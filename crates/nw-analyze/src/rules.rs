//! The mutable-global rule, the dead-`pub` rule and the docs' path rule.
//!
//! Each rule is a lexical pass over a [`SourceFile`]'s code view (comments
//! and string contents already removed by [`crate::scan`]; for Markdown,
//! every line outside HTML comments, fenced ones with their back-ticks
//! blanked). Rules return *raw* findings; suppression markers are applied
//! by [`crate::engine`], so fixtures can assert on the unsuppressed set.

use crate::diag::{Diagnostic, RuleId};
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose state can reach a `PlatformReport` or dispatch order —
/// the ND03 scope. Paths are repo-relative prefixes. `crates/core/`
/// covers the fault campaigns (`faults.rs`), whose timelines steer
/// everything downstream: a non-deterministic campaign would break the
/// faulted bit-identity contract exactly like a non-deterministic NoC.
const SIM_RESULT_CRATES: [&str; 4] = [
    "crates/core/",
    "crates/nw-noc/",
    "crates/nw-sim/",
    "crates/nw-dsoc/",
];

fn in_sim_result_scope(path: &str) -> bool {
    SIM_RESULT_CRATES.iter().any(|p| path.starts_with(p))
}

/// Is the char a Rust identifier char (for whole-token matching)?
fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Every match of `token` in `code` at identifier boundaries, as 0-based
/// byte columns. Qualified prefixes are fine (`sync::Mutex` matches
/// `Mutex`); identifier continuations are not (`MutexGuard` does not).
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

/// A code span naming a repository path: a `/` and nothing but path
/// characters (so neither `total / cost` nor `chrome://tracing` is one).
fn looks_like_path(span: &str) -> bool {
    span.contains('/')
        && span.chars().any(|c| c.is_ascii_alphanumeric())
        && (span.chars()).all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
}

/// The keywords of the items PUB01 checks: the next word is the name the
/// item defines, not a reference to it (nor is a module's name).
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// The crate a repo-relative path lies in: `crates/<name>/…`.
fn crate_of(path: &str) -> Option<&str> {
    Some(path.strip_prefix("crates/")?.split_once('/')?.0)
}

/// Per line of a `.rs` file, whether it is test code: every line of a
/// crate's `tests/` or `benches/`, and the item under a `#[cfg(test)]`
/// (to the line closing its braces, or its `;`).
fn test_lines(file: &SourceFile) -> Vec<bool> {
    let dir = file.path.split('/').nth(2);
    let whole = crate_of(&file.path).is_some() && matches!(dir, Some("tests" | "benches"));
    let mut out = vec![whole; file.lines.len()];
    let mut depth: Option<usize> = None;
    for (n, line) in file.lines.iter().enumerate() {
        let mut code = line.code.trim();
        if depth.is_none() {
            let Some(rest) = code.strip_prefix("#[cfg(test)]") else {
                continue;
            };
            (depth, code) = (Some(0), rest);
        }
        out[n] = true;
        let opened = depth.unwrap_or(0) + code.matches('{').count();
        let open = opened.saturating_sub(code.matches('}').count());
        depth = (open > 0 || !code.contains(['}', ';'])).then_some(open);
    }
    out
}

/// The `pub` item a line defines, as (column of its name, whether it is a
/// fn, its name): `pub` (not `pub(crate)`), then [`ITEM_KEYWORDS`] and
/// qualifiers (`pub const fn`, `pub static mut`), then the name.
fn pub_item(code: &str) -> Option<(usize, bool, &str)> {
    let rest = code.trim_start().strip_prefix("pub ")?;
    let mut kind = None;
    for word in rest.split(|c| !is_ident(c)).filter(|w| !w.is_empty()) {
        if ITEM_KEYWORDS.contains(&word) {
            kind = Some(word);
        } else if !["unsafe", "async", "extern", "mut"].contains(&word) {
            let col = word.as_ptr() as usize - code.as_ptr() as usize;
            return kind.map(|k| (col, k == "fn", word));
        }
    }
    None
}

/// Where one `pub` item name is referenced. An origin is `None` for code
/// that is no crate's tests, else the crate whose tests these are.
#[derive(Debug, Default)]
struct Uses {
    /// Origins of every mention outside a definition and a `use` line.
    named: BTreeSet<Option<String>>,
    /// Origins of the mentions shaped as a call or a path (`f(`, `::f`),
    /// the only ones that reach a fn rather than a field of its name.
    called: BTreeSet<Option<String>>,
}

/// What the scanned `.rs` files define, and where they name `pub` items. A
/// name after `struct`, `enum` or `trait` is a type; a name after `fn`,
/// `const` or `type` is an item, and so is one before a lone `:` (a field,
/// or a binding: over-counting only hides a finding) and an upper-case one
/// opening a line before `,`, `(`, `{` or nothing (a variant: rustfmt gives
/// each its own line).
#[derive(Debug, Default)]
pub(crate) struct Symbols {
    types: BTreeSet<String>,
    items: BTreeSet<String>,
    /// Per name some line defines `pub` ([`pub_item`]).
    uses: BTreeMap<String, Uses>,
}

impl Symbols {
    pub(crate) fn collect(files: &[SourceFile]) -> Symbols {
        let mut s = Symbols::default();
        let rust: Vec<&SourceFile> = files.iter().filter(|f| f.path.ends_with(".rs")).collect();
        for code in rust.iter().flat_map(|f| &f.lines).map(|l| l.code.as_str()) {
            if let Some((_, _, name)) = pub_item(code) {
                s.uses.entry(name.to_owned()).or_default();
            }
            let mut keyword = "";
            for word in code.split(|c| !is_ident(c)).filter(|w| !w.is_empty()) {
                // A piece of `code`: its column is the pointer difference.
                let at = word.as_ptr() as usize - code.as_ptr() as usize;
                let rest = code[at + word.len()..].trim_start();
                let variant = code[..at].trim().is_empty()
                    && word.starts_with(char::is_uppercase)
                    && (rest.is_empty() || rest.starts_with([',', '(', '{']));
                let field = rest.starts_with(':') && !rest.starts_with("::");
                match keyword {
                    "struct" | "enum" | "trait" => s.types.insert(word.to_owned()),
                    "fn" | "const" | "type" => s.items.insert(word.to_owned()),
                    _ if variant || field => s.items.insert(word.to_owned()),
                    _ => false,
                };
                keyword = word;
            }
        }
        for file in rust {
            let owner = crate_of(&file.path);
            let mut in_use = false;
            for (line, test) in file.lines.iter().zip(test_lines(file)) {
                let code = line.code.as_str();
                let head = code.trim_start();
                in_use |= ["use ", "pub use ", "pub(crate) use "]
                    .iter()
                    .any(|u| head.starts_with(u));
                if !in_use {
                    s.record_uses(code, owner.filter(|_| test));
                }
                in_use &= !code.contains(';');
            }
        }
        s
    }

    /// Records the mentions of `pub` item names in one line of code.
    fn record_uses(&mut self, code: &str, origin: Option<&str>) {
        let mut keyword = "";
        for word in code.split(|c| !is_ident(c)).filter(|w| !w.is_empty()) {
            let defined = ITEM_KEYWORDS.contains(&keyword) || keyword == "mod";
            keyword = word;
            let Some(uses) = self.uses.get_mut(word).filter(|_| !defined) else {
                continue;
            };
            let at = word.as_ptr() as usize - code.as_ptr() as usize;
            let after = code[at + word.len()..].trim_start();
            let called =
                code[..at].ends_with("::") || after.starts_with('(') || after.starts_with("::");
            let origin = origin.map(str::to_owned);
            if called {
                uses.called.insert(origin.clone());
            }
            uses.named.insert(origin);
        }
    }

    /// Whether code other than `owner`'s tests names the `pub` item `name`
    /// (as a call or a path when the item `is_fn`).
    fn referenced(&self, name: &str, is_fn: bool, owner: &str) -> bool {
        let Some(uses) = self.uses.get(name) else {
            return false;
        };
        let by = if is_fn { &uses.called } else { &uses.named };
        by.iter().any(|origin| origin.as_deref() != Some(owner))
    }

    /// Whether a back-ticked `name` names something: a `Type::item` whose
    /// type the sources define, an item they define; anything else, a
    /// repo-relative path that `exists`.
    pub(crate) fn resolve(&self, name: &str, exists: &dyn Fn(&str) -> bool) -> bool {
        match rust_path(name) {
            Some((ty, item)) => !self.types.contains(ty) || self.items.contains(item),
            None => exists(name),
        }
    }
}

/// PUB01: a `pub` item of a crate's `src/` that no code outside that
/// crate's tests names ([`Symbols::referenced`]).
fn pub01(file: &SourceFile, symbols: &Symbols, out: &mut Vec<Diagnostic>) {
    let Some(owner) = crate_of(&file.path) else {
        return;
    };
    if file.path.split('/').nth(2) != Some("src") {
        return;
    }
    for ((n, line), test) in file.lines.iter().enumerate().zip(test_lines(file)) {
        let Some((col, is_fn, name)) = pub_item(&line.code).filter(|_| !test) else {
            continue;
        };
        if !symbols.referenced(name, is_fn, owner) {
            let message = format!(
                "pub `{name}` is named by nothing outside {owner}'s tests: delete it, \
                 or mark a deliberate exception with its reason"
            );
            out.push(diag(RuleId::Pub01, file, n, col, message));
        }
    }
}

/// A code span naming a Rust item, `Type::item` or `Type::item()`: its
/// first and last segments.
fn rust_path(span: &str) -> Option<(&str, &str)> {
    let path = span.strip_suffix("()").unwrap_or(span);
    let ident =
        |s: &str| s.starts_with(|c: char| c.is_alphabetic() || c == '_') && s.chars().all(is_ident);
    let ((first, _), (_, last)) = (path.split_once("::")?, path.rsplit_once("::")?);
    path.split("::").all(ident).then_some((first, last))
}

/// Every `--example NAME` in `code`, as (0-based column, `NAME`).
fn example_names(code: &str) -> impl Iterator<Item = (usize, &str)> {
    code.match_indices("--example ").filter_map(|(at, flag)| {
        let rest = code[at + flag.len()..].trim_start();
        let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || "_-".contains(c)));
        let name = &rest[..end.unwrap_or(rest.len())];
        (!name.is_empty()).then_some((at, name))
    })
}

/// The byte budget of each document DOC01 sizes: ARCHITECTURE.md is the
/// map and README.md the front page; what outgrows them belongs in a
/// module's own docs.
const DOC_BUDGETS: [(&str, usize); 2] = [("ARCHITECTURE.md", 36 * 1024), ("README.md", 20 * 1024)];

/// DOC01: back-ticked file paths and `Type::item`s in the Markdown docs
/// that name nothing ([`Symbols::resolve`]), `--example NAME`s with no
/// `examples/NAME.rs`, and a document over its [`DOC_BUDGETS`] entry.
fn doc01(file: &SourceFile, exists: &dyn Fn(&str) -> bool, out: &mut Vec<Diagnostic>) {
    for (doc, budget) in DOC_BUDGETS {
        if file.path == doc && file.len > budget {
            let message = format!("{} bytes, over its {budget}-byte budget", file.len);
            out.push(diag(RuleId::Doc01, file, 0, 0, message));
        }
    }
    let mut in_span = false;
    for (n, line) in file.lines.iter().enumerate() {
        for (col, name) in example_names(&line.code) {
            let path = format!("examples/{name}.rs");
            if !exists(&path) {
                let message = format!("`--example {name}` names no `{path}`");
                out.push(diag(RuleId::Doc01, file, n, col, message));
            }
        }
        // A code span may break across lines (then it holds no path), not
        // across paragraphs.
        in_span &= !line.code.trim().is_empty();
        let pieces: Vec<&str> = line.code.split('`').collect();
        let mut col = 0;
        for (k, piece) in pieces.iter().enumerate() {
            in_span ^= k > 0;
            let whole = in_span && k > 0 && k + 1 < pieces.len();
            let named = looks_like_path(piece) || rust_path(piece).is_some();
            if whole && named && !exists(piece) {
                let message = format!("`{piece}` names nothing in the repository");
                out.push(diag(RuleId::Doc01, file, n, col, message));
            }
            col += piece.len() + 1;
        }
    }
}

/// Runs every rule for the file's kind — the source rules over `.rs`
/// files, DOC01 over Markdown — returning *raw* (unsuppressed) findings in
/// stable order. `exists` answers whether a repo-relative path names
/// something.
pub(crate) fn scan_file(
    file: &SourceFile,
    symbols: &Symbols,
    exists: &dyn Fn(&str) -> bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if file.path.ends_with(".md") {
        doc01(file, &|name| symbols.resolve(name, exists), &mut out);
    } else {
        nd03(file, &mut out);
        pub01(file, symbols, &mut out);
    }
    out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    out
}
