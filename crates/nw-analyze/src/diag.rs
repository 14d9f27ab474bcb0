//! Rule identities and span-level diagnostics.

use std::fmt;

/// Identity of one determinism/hygiene rule.
///
/// Rule ids are stable strings that appear in suppression markers and CI
/// output: an id is never renamed or reused (a retired rule's id stays
/// retired), since either would silently re-grant old findings. ND01, ND02
/// and WR01 retired into compiler lints: ND01 and ND02 are the root
/// `clippy.toml`'s `disallowed-types` and `disallowed-methods`, whose
/// reasons start with the id, and WR01 is the
/// `#![deny(clippy::cast_possible_truncation)]` atop each `wire.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Mutable global state in simulation crates.
    Nd03,
    /// Malformed suppression markers.
    Al01,
    /// Back-ticked file paths and `--example` names in the docs that name
    /// nothing.
    Doc01,
    /// `pub` items that nothing outside their own crate's tests names.
    Pub01,
}

/// Every registered rule, in report order.
pub const ALL_RULES: [RuleId; 4] = [RuleId::Nd03, RuleId::Al01, RuleId::Doc01, RuleId::Pub01];

impl RuleId {
    /// The stable textual id (`"ND03"`, ...).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::Nd03 => "ND03",
            RuleId::Al01 => "AL01",
            RuleId::Doc01 => "DOC01",
            RuleId::Pub01 => "PUB01",
        }
    }

    /// One-line description shown by `expt lint --rules` and `expt list`.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::Nd03 => {
                "no static mut or interior-mutable globals in sim-result crates: \
                 cross-run state breaks replayability"
            }
            RuleId::Al01 => "marker hygiene: a marker must name a known rule and carry a reason",
            RuleId::Doc01 => {
                "every back-ticked file path in README.md, ARCHITECTURE.md and \
                 .claude/skills/verify/SKILL.md names a file or directory that exists in the \
                 repository, every `--example NAME` an examples/NAME.rs"
            }
            RuleId::Pub01 => {
                "no dead public surface: a pub fn/struct/enum/trait/type/const/static in \
                 crates/*/src is named by code outside its own crate's tests (crates/, src/, \
                 tests/, examples/, benchmark/src), not counting use lines"
            }
        }
    }

    /// Parses a stable id back to the rule (markers).
    pub fn from_id(s: &str) -> Option<RuleId> {
        ALL_RULES.into_iter().find(|r| r.id() == s)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding: a rule firing at a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line number (0 for a file-level finding, such as a document
    /// over its DOC01 byte budget).
    pub line: usize,
    /// 1-based column of the match start (0 when not meaningful).
    pub col: usize,
    /// What was found and why it matters, one sentence.
    pub message: String,
}

impl Diagnostic {
    /// The stable sort key: path, then line, then column, then rule id —
    /// report order never depends on rule evaluation order.
    pub fn sort_key(&self) -> (String, usize, usize, &'static str) {
        (self.path.clone(), self.line, self.col, self.rule.id())
    }

    /// Renders as `path:line:col: RULE message` (the grep-able format).
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {} {}",
            self.path,
            self.line,
            self.col,
            self.rule.id(),
            self.message
        )
    }

    /// Renders as a JSON object (hand-rolled; the workspace has no serde).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            self.rule.id(),
            json_escape(&self.path),
            self.line,
            self.col,
            json_escape(&self.message)
        )
    }
}

/// Minimal JSON string escaping for the fields we emit.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_descriptions_are_non_empty() {
        for r in ALL_RULES {
            assert_eq!(RuleId::from_id(r.id()), Some(r));
            assert!(!r.description().trim().is_empty());
        }
        // Retired ids stay retired: a marker naming one is an AL01 finding.
        for gone in ["ND01", "ND02", "WR01", "ND99"] {
            assert_eq!(RuleId::from_id(gone), None);
        }
    }

    #[test]
    fn render_is_grep_able_and_json_escapes() {
        let d = Diagnostic {
            rule: RuleId::Nd03,
            path: "crates/core/src/platform.rs".into(),
            line: 30,
            col: 5,
            message: "std \"static\" mut".into(),
        };
        assert_eq!(
            d.render(),
            "crates/core/src/platform.rs:30:5: ND03 std \"static\" mut"
        );
        assert!(d.render_json().contains("\\\"static\\\""));
    }
}
