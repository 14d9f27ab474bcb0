//! Rule identities and span-level diagnostics.

use std::fmt;

/// Identity of one determinism/hygiene rule.
///
/// Rule ids are stable strings that appear in allowlist entries,
/// suppression markers and CI output: an id is never renamed or reused
/// (a retired rule's id stays retired), since either would silently
/// re-grandfather old findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Unordered hash collections in simulation-result crates.
    Nd01,
    /// Wall-clock or entropy sources outside the timing harness.
    Nd02,
    /// Mutable global state in simulation crates.
    Nd03,
    /// Truncating `as` casts on wire encode/decode paths.
    Wr01,
    /// Stale allowlist entries or malformed suppression markers.
    Al01,
    /// Back-ticked file paths and `--example` names in the docs that name
    /// nothing.
    Doc01,
    /// `pub` items that nothing outside their own crate's tests names.
    Pub01,
}

/// Every registered rule, in report order.
pub const ALL_RULES: [RuleId; 7] = [
    RuleId::Nd01,
    RuleId::Nd02,
    RuleId::Nd03,
    RuleId::Wr01,
    RuleId::Al01,
    RuleId::Doc01,
    RuleId::Pub01,
];

impl RuleId {
    /// The stable textual id (`"ND01"`, ...).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::Nd01 => "ND01",
            RuleId::Nd02 => "ND02",
            RuleId::Nd03 => "ND03",
            RuleId::Wr01 => "WR01",
            RuleId::Al01 => "AL01",
            RuleId::Doc01 => "DOC01",
            RuleId::Pub01 => "PUB01",
        }
    }

    /// One-line description shown by `expt lint --rules` and `expt list`.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::Nd01 => {
                "no HashMap/HashSet in sim-result crates (core, nw-noc, nw-sim, nw-dsoc): \
                 iteration order is seeded per process and can leak into reports"
            }
            RuleId::Nd02 => {
                "no wall-clock or entropy sources (Instant::now, SystemTime, thread_rng, \
                 std::thread identity) outside the nw_bench timing harness"
            }
            RuleId::Nd03 => {
                "no static mut or interior-mutable globals in sim-result crates: \
                 cross-run state breaks replayability"
            }
            RuleId::Wr01 => {
                "no truncating `as` casts to u8/u16/u32 (or signed) in wire.rs \
                 encode/decode paths: use try_from so overflow panics instead of wrapping"
            }
            RuleId::Al01 => {
                "allowlist hygiene: entries must parse, carry a justification, and still \
                 match a real finding; markers must name a known rule and a reason"
            }
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

    /// Parses a stable id back to the rule (markers, allowlist files).
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
    /// 1-based line number (0 for file-level findings such as stale
    /// allowlist entries pointing at files with no finding).
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
        assert_eq!(RuleId::from_id("ND99"), None);
    }

    #[test]
    fn render_is_grep_able_and_json_escapes() {
        let d = Diagnostic {
            rule: RuleId::Nd01,
            path: "crates/core/src/platform.rs".into(),
            line: 30,
            col: 5,
            message: "std \"hash\" map".into(),
        };
        assert_eq!(
            d.render(),
            "crates/core/src/platform.rs:30:5: ND01 std \"hash\" map"
        );
        assert!(d.render_json().contains("\\\"hash\\\""));
    }
}
