//! In-source suppression markers.
//!
//! A marker is a comment of the form:
//!
//! ```text
//! // nw-analyze: allow(PUB01): reason this site is safe
//! // nw-analyze: allow-file(ND03): reason the whole file is exempt
//! ```
//!
//! `allow(RULE)` suppresses findings of that rule on the marker's own
//! line and on the next line carrying code — intervening comment-only
//! or blank lines are skipped, so a multi-line justification still
//! covers the statement under it. `allow-file(RULE)` suppresses the
//! rule for the whole file. The reason text is mandatory: a
//! marker without one, or naming an unknown rule, is itself an
//! [`AL01`](crate::RuleId::Al01) finding.

use crate::diag::{Diagnostic, RuleId};
use crate::scan::SourceFile;

/// Suppression state extracted from one file's comments.
#[derive(Debug, Default)]
pub struct Markers {
    /// `(rule, 0-based line)` pairs of every line a marker covers: the
    /// marker's own line and the next line carrying code.
    pub line_allows: Vec<(RuleId, usize)>,
    /// Rules suppressed for the whole file.
    pub file_allows: Vec<RuleId>,
    /// AL01 findings for malformed markers.
    pub problems: Vec<Diagnostic>,
}

impl Markers {
    /// Scans a file's comment view for markers.
    pub fn collect(file: &SourceFile) -> Markers {
        let mut m = Markers::default();
        for (n, line) in file.lines.iter().enumerate() {
            let comment = &line.comment;
            let mut from = 0;
            while let Some(rel) = comment[from..].find("nw-analyze:") {
                let at = from + rel + "nw-analyze:".len();
                let rest = comment[at..].trim_start();
                from = at;
                let (file_wide, body) = if let Some(b) = rest.strip_prefix("allow-file(") {
                    (true, b)
                } else if let Some(b) = rest.strip_prefix("allow(") {
                    (false, b)
                } else {
                    m.problems.push(Diagnostic {
                        rule: RuleId::Al01,
                        path: file.path.clone(),
                        line: n + 1,
                        col: 1,
                        message: "nw-analyze marker must be allow(RULE): reason or \
                                  allow-file(RULE): reason"
                            .into(),
                    });
                    continue;
                };
                let Some((rule_txt, after)) = body.split_once(')') else {
                    m.problems.push(Diagnostic {
                        rule: RuleId::Al01,
                        path: file.path.clone(),
                        line: n + 1,
                        col: 1,
                        message: "unterminated nw-analyze marker (missing `)`)".into(),
                    });
                    continue;
                };
                let Some(rule) = RuleId::from_id(rule_txt.trim()) else {
                    m.problems.push(Diagnostic {
                        rule: RuleId::Al01,
                        path: file.path.clone(),
                        line: n + 1,
                        col: 1,
                        message: format!("unknown rule id `{}` in marker", rule_txt.trim()),
                    });
                    continue;
                };
                let reason = after.trim_start_matches(['—', '-', ':', ' ']).trim();
                if reason.is_empty() {
                    m.problems.push(Diagnostic {
                        rule: RuleId::Al01,
                        path: file.path.clone(),
                        line: n + 1,
                        col: 1,
                        message: format!(
                            "marker allow({rule}) has no reason — say why the site is safe"
                        ),
                    });
                    continue;
                }
                if file_wide {
                    m.file_allows.push(rule);
                } else {
                    m.line_allows.push((rule, n));
                    // Cover the statement the marker annotates: the next
                    // line with any code on it (justifications may span
                    // several comment lines).
                    if let Some(next) = file.lines[n + 1..]
                        .iter()
                        .position(|l| !l.code.trim().is_empty())
                    {
                        m.line_allows.push((rule, n + 1 + next));
                    }
                }
            }
        }
        m
    }

    /// Is a finding of `rule` at 0-based `line` suppressed by a marker?
    pub fn suppresses(&self, rule: RuleId, line: usize) -> bool {
        self.file_allows.contains(&rule)
            || self
                .line_allows
                .iter()
                .any(|&(r, at)| r == rule && line == at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_markers_cover_self_and_next_line() {
        let f = SourceFile::parse(
            "crates/core/src/x.rs",
            "// nw-analyze: allow(ND03): config knob, read once\n// spanning a second comment line\nstatic A: AtomicU8 = x;\nstatic B: AtomicU8 = y;\n",
        );
        let m = Markers::collect(&f);
        assert!(m.problems.is_empty());
        assert!(m.suppresses(RuleId::Nd03, 0));
        // Comment-only lines between the marker and the statement are
        // skipped; the statement itself is covered, its successor is not.
        assert!(m.suppresses(RuleId::Nd03, 2));
        assert!(!m.suppresses(RuleId::Nd03, 3));
        assert!(!m.suppresses(RuleId::Pub01, 2));
    }

    #[test]
    fn file_markers_cover_everything_and_reasons_are_required() {
        let f = SourceFile::parse(
            "x.rs",
            "// nw-analyze: allow-file(ND03): every global here is a write-once cache\n\
             // nw-analyze: allow(PUB01)\n\
             // nw-analyze: allow(ND99): what\n",
        );
        let m = Markers::collect(&f);
        assert!(m.suppresses(RuleId::Nd03, 500));
        assert!(!m.suppresses(RuleId::Pub01, 500));
        assert_eq!(m.problems.len(), 2, "{:?}", m.problems);
        assert!(m.problems[0].message.contains("no reason"));
        assert!(m.problems[1].message.contains("unknown rule"));
    }
}
