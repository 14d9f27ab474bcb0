//! Workspace walking and rule orchestration.

use crate::allowlist::Allowlist;
use crate::diag::{Diagnostic, RuleId};
use crate::markers::Markers;
use crate::rules::scan_file;
use crate::scan::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the checked-in allowlist at the workspace root.
pub const ALLOWLIST_FILE: &str = "nw-analyze.allow";

/// Directory names never descended into: build artifacts and the
/// vendored third-party stand-ins are not ours to audit.
const SKIP_DIRS: [&str; 3] = ["target", "vendor", ".git"];

/// Top-level entries of the workspace that hold first-party sources.
const SOURCE_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// The outcome of an [`analyze`] run.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Findings that survived markers and the allowlist, in stable
    /// (path, line, col, rule) order.
    pub diagnostics: Vec<Diagnostic>,
    /// `.rs` files and Markdown documents scanned.
    pub files_scanned: usize,
    /// Findings suppressed by in-source markers.
    pub marker_suppressed: usize,
    /// Findings suppressed by allowlist entries.
    pub allowlisted: usize,
}

impl AnalysisReport {
    /// True when the audit is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Human-readable report: one grep-able line per finding plus a
    /// one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "nw-analyze: {} finding(s) across {} file(s) ({} marker-suppressed, {} allowlisted)\n",
            self.diagnostics.len(),
            self.files_scanned,
            self.marker_suppressed,
            self.allowlisted
        ));
        out
    }

    /// Machine-readable report (`expt lint --json`).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&d.render_json());
            if i + 1 < self.diagnostics.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "  ],\n  \"files_scanned\": {},\n  \"marker_suppressed\": {},\n  \
             \"allowlisted\": {},\n  \"clean\": {}\n}}\n",
            self.files_scanned,
            self.marker_suppressed,
            self.allowlisted,
            self.is_clean()
        ));
        out
    }
}

/// Recursively collects `.rs` files under `dir`, sorted by path so the
/// scan order (and therefore the report) is independent of readdir order.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes already-scanned sources against an allowlist — the
/// fixture-testable core of the engine ([`analyze`] is the filesystem
/// wrapper around it). `exists` answers whether a repo-relative path names
/// a file or directory (DOC01).
pub fn analyze_sources(
    files: &[SourceFile],
    allowlist: &Allowlist,
    exists: &dyn Fn(&str) -> bool,
) -> AnalysisReport {
    let mut diagnostics: Vec<Diagnostic> = allowlist.problems.clone();
    let mut marker_suppressed = 0;
    let mut allowlisted = 0;
    let mut used_entries = vec![false; allowlist.entries.len()];
    for file in files {
        let markers = Markers::collect(file);
        diagnostics.extend(markers.problems.iter().cloned());
        for d in scan_file(file, exists) {
            if markers.suppresses(d.rule, d.line.saturating_sub(1)) {
                marker_suppressed += 1;
                continue;
            }
            let entry = allowlist
                .entries
                .iter()
                .position(|e| e.rule == d.rule && e.path == d.path);
            if let Some(i) = entry {
                used_entries[i] = true;
                allowlisted += 1;
                continue;
            }
            diagnostics.push(d);
        }
    }
    // Stale entries: the grandfathered finding is gone, so the grant
    // must go too (otherwise it would silently cover a future finding).
    for (i, used) in used_entries.iter().enumerate() {
        if !used {
            let e = &allowlist.entries[i];
            diagnostics.push(Diagnostic {
                rule: RuleId::Al01,
                path: ALLOWLIST_FILE.to_string(),
                line: e.line,
                col: 1,
                message: format!(
                    "stale allowlist entry: {} {} no longer matches any finding — delete it",
                    e.rule, e.path
                ),
            });
        }
    }
    diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    AnalysisReport {
        diagnostics,
        files_scanned: files.len(),
        marker_suppressed,
        allowlisted,
    }
}

/// Loads and scans every first-party `.rs` file under `root` and its
/// `README.md` and `ARCHITECTURE.md`, applies the allowlist at
/// `root/nw-analyze.allow` (absence is an empty allowlist, not an error),
/// and returns the surviving findings.
///
/// # Errors
///
/// Propagates I/O errors from walking the tree or reading files.
pub fn analyze(root: &Path) -> io::Result<AnalysisReport> {
    let mut paths = Vec::new();
    for top in SOURCE_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    // The documents whose back-ticked paths DOC01 resolves.
    paths.extend(["README.md", "ARCHITECTURE.md"].map(|doc| root.join(doc)));
    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        let text = fs::read_to_string(p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::parse(rel, &text));
    }
    let allow_path = root.join(ALLOWLIST_FILE);
    let allowlist = match fs::read_to_string(&allow_path) {
        Ok(text) => Allowlist::parse(ALLOWLIST_FILE, &text),
        Err(_) => Allowlist::default(),
    };
    let exists = |path: &str| root.join(path).exists();
    Ok(analyze_sources(&files, &allowlist, &exists))
}

/// Locates the workspace root: walks up from `start` looking for the
/// allowlist file or a `Cargo.toml` declaring `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join(ALLOWLIST_FILE).is_file() {
            return Some(dir);
        }
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
