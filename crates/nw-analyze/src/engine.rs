//! Workspace walking and rule orchestration.

use crate::diag::Diagnostic;
use crate::markers::Markers;
use crate::rules::{scan_file, Symbols};
use crate::scan::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build artifacts and the
/// vendored third-party stand-ins are not ours to audit.
const SKIP_DIRS: [&str; 3] = ["target", "vendor", ".git"];

/// Top-level entries of the workspace that hold first-party sources.
const SOURCE_ROOTS: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];

/// Sources read only for the `pub` items they name (PUB01), never linted:
/// the benchmark harness is its own package.
const REFERENCE_ONLY: &str = "benchmark/";

/// The outcome of an [`analyze`] run.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Findings that survived the markers, in stable (path, line, col,
    /// rule) order.
    pub diagnostics: Vec<Diagnostic>,
    /// `.rs` files and Markdown documents scanned.
    pub files_scanned: usize,
    /// Findings suppressed by in-source markers.
    pub marker_suppressed: usize,
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
            "nw-analyze: {} finding(s) across {} file(s) ({} marker-suppressed)\n",
            self.diagnostics.len(),
            self.files_scanned,
            self.marker_suppressed
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
            "  ],\n  \"files_scanned\": {},\n  \"marker_suppressed\": {},\n  \"clean\": {}\n}}\n",
            self.files_scanned,
            self.marker_suppressed,
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

/// Analyzes already-scanned sources — the fixture-testable core of the
/// engine ([`analyze`] is the filesystem wrapper around it). `exists`
/// answers whether a repo-relative path names a file or directory (DOC01);
/// the `.rs` files among `files` are what a back-ticked `Type::item`
/// resolves against (DOC01) and where `pub` items are named (PUB01). Files
/// under `benchmark/` are read, never linted.
pub fn analyze_sources(files: &[SourceFile], exists: &dyn Fn(&str) -> bool) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    let mut marker_suppressed = 0;
    let symbols = Symbols::collect(files);
    for file in files.iter().filter(|f| !f.path.starts_with(REFERENCE_ONLY)) {
        let markers = Markers::collect(file);
        diagnostics.extend(markers.problems.iter().cloned());
        for d in scan_file(file, &symbols, exists) {
            if markers.suppresses(d.rule, d.line.saturating_sub(1)) {
                marker_suppressed += 1;
            } else {
                diagnostics.push(d);
            }
        }
    }
    diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    AnalysisReport {
        diagnostics,
        files_scanned: files.len(),
        marker_suppressed,
    }
}

/// Loads and scans every first-party `.rs` file under `root` and its
/// `README.md`, `ARCHITECTURE.md` and `.claude/skills/verify/SKILL.md`, and
/// returns the findings the markers leave.
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
    let docs = [
        "README.md",
        "ARCHITECTURE.md",
        ".claude/skills/verify/SKILL.md",
    ];
    paths.extend(docs.map(|doc| root.join(doc)));
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
    let exists = |path: &str| root.join(path).exists();
    Ok(analyze_sources(&files, &exists))
}

/// Locates the workspace root: walks up from `start` looking for a
/// `Cargo.toml` declaring `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
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
