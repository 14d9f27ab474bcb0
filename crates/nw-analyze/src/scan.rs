//! Comment- and string-aware source scanning.
//!
//! The rule engine matches lexical patterns, so it must never fire on a
//! `HashMap` mentioned in a doc comment or embedded in a test-fixture
//! string literal. [`SourceFile::parse`] runs a small Rust-shaped lexer
//! over the text and splits every line into a *code view* (comments
//! removed, string/char literal contents blanked with spaces so columns
//! stay aligned) and a *comment view* (the concatenated comment text,
//! which is where suppression markers live — see [`crate::markers`]).
//!
//! The lexer understands line comments, nested block comments, string
//! and byte-string literals (including multi-line bodies and escapes),
//! raw strings with arbitrary `#` fences, and the char-literal versus
//! lifetime ambiguity (`'a'` is a literal, `'static` is not). It does
//! not need a full parser: rules key on tokens that survive this
//! stripping.
//!
//! A Markdown document (`.md`) splits by line: a `<!-- ... -->` line is
//! comment (markers work there too), fenced blocks neither, prose code.

/// One line of a scanned source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// Source text with comments removed and literal contents blanked.
    /// Byte offsets match the original line, so pattern columns are
    /// real columns.
    pub code: String,
    /// Concatenated text of every comment that touches this line.
    pub comment: String,
}

/// A scanned source file: repo-relative path plus per-line views.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators (the path rules scope on).
    pub path: String,
    /// The per-line code/comment split, in file order.
    pub lines: Vec<Line>,
}

/// Lexer mode carried across lines.
enum Mode {
    Code,
    /// Inside `/* ... */`, with the current nesting depth.
    Block(u32),
    /// Inside a `"..."` string literal.
    Str,
    /// Inside a raw string; the payload is the number of `#` fences.
    RawStr(u32),
}

impl SourceFile {
    /// Scans `text` into per-line code and comment views, as Markdown when
    /// `path` ends in `.md` and as Rust otherwise.
    pub fn parse(path: impl Into<String>, text: &str) -> SourceFile {
        let path = path.into();
        if path.ends_with(".md") {
            return SourceFile::markdown(path, text);
        }
        let mut lines = Vec::new();
        let mut mode = Mode::Code;
        for raw in text.lines() {
            let mut code = String::with_capacity(raw.len());
            let mut comment = String::new();
            let bytes: Vec<char> = raw.chars().collect();
            let mut i = 0;
            while i < bytes.len() {
                let c = bytes[i];
                let next = bytes.get(i + 1).copied();
                match mode {
                    Mode::Code => match c {
                        '/' if next == Some('/') => {
                            comment.push_str(&raw[byte_at(raw, i)..]);
                            i = bytes.len();
                        }
                        '/' if next == Some('*') => {
                            mode = Mode::Block(1);
                            code.push(' ');
                            code.push(' ');
                            i += 2;
                        }
                        '"' => {
                            mode = Mode::Str;
                            code.push('"');
                            i += 1;
                        }
                        'r' | 'b' if starts_raw(&bytes, i) => {
                            let (fences, consumed) = raw_open(&bytes, i);
                            mode = Mode::RawStr(fences);
                            for _ in 0..consumed {
                                code.push(' ');
                            }
                            i += consumed;
                        }
                        'b' if next == Some('"') => {
                            mode = Mode::Str;
                            code.push(' ');
                            code.push('"');
                            i += 2;
                        }
                        '\'' => {
                            // Char literal or lifetime? A literal closes
                            // within a few chars or starts with an escape.
                            if let Some(len) = char_literal_len(&bytes, i) {
                                for _ in 0..len {
                                    code.push(' ');
                                }
                                i += len;
                            } else {
                                code.push('\'');
                                i += 1;
                            }
                        }
                        _ => {
                            code.push(c);
                            i += 1;
                        }
                    },
                    Mode::Block(depth) => {
                        if c == '*' && next == Some('/') {
                            mode = if depth == 1 {
                                Mode::Code
                            } else {
                                Mode::Block(depth - 1)
                            };
                            comment.push_str("*/");
                            i += 2;
                        } else if c == '/' && next == Some('*') {
                            mode = Mode::Block(depth + 1);
                            comment.push_str("/*");
                            i += 2;
                        } else {
                            comment.push(c);
                            i += 1;
                        }
                    }
                    Mode::Str => {
                        if c == '\\' {
                            code.push(' ');
                            if next.is_some() {
                                code.push(' ');
                                i += 1;
                            }
                            i += 1;
                        } else if c == '"' {
                            mode = Mode::Code;
                            code.push('"');
                            i += 1;
                        } else {
                            code.push(' ');
                            i += 1;
                        }
                    }
                    Mode::RawStr(fences) => {
                        if c == '"' && closes_raw(&bytes, i, fences) {
                            mode = Mode::Code;
                            for _ in 0..(1 + fences as usize) {
                                code.push(' ');
                            }
                            i += 1 + fences as usize;
                        } else {
                            code.push(' ');
                            i += 1;
                        }
                    }
                }
            }
            // A multi-line string keeps its mode; a line comment does not.
            lines.push(Line { code, comment });
        }
        SourceFile { path, lines }
    }

    /// The Markdown split (module docs).
    fn markdown(path: String, text: &str) -> SourceFile {
        let mut fenced = false;
        let mut lines = Vec::new();
        for raw in text.lines() {
            let fence = raw.trim_start().starts_with("```");
            fenced ^= fence;
            let prose = if fence || fenced { "" } else { raw };
            let (code, comment) = match prose.trim_start().starts_with("<!--") {
                true => ("", prose),
                false => (prose, ""),
            };
            let (code, comment) = (code.to_string(), comment.to_string());
            lines.push(Line { code, comment });
        }
        SourceFile { path, lines }
    }
}

/// Byte offset of char index `i` in `s` (lines are short; linear is fine).
fn byte_at(s: &str, i: usize) -> usize {
    s.char_indices()
        .nth(i)
        .map(|(b, _)| b)
        .unwrap_or_else(|| s.len())
}

/// Does a raw (byte) string literal start at `i` (`r"`, `r#`, `br"`, ...)?
fn starts_raw(bytes: &[char], i: usize) -> bool {
    // Reject identifiers ending in r/b (e.g. `var"` cannot occur, but
    // `foo_r` followed by something else can): the previous char must
    // not be part of an identifier.
    if i > 0 {
        let p = bytes[i - 1];
        if p.is_alphanumeric() || p == '_' {
            return false;
        }
    }
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
        if bytes.get(j) != Some(&'r') {
            return false;
        }
    }
    if bytes.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// Length (in chars) of the raw-string opener at `i`, plus its fence count.
fn raw_open(bytes: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
    }
    j += 1; // the `r`
    let mut fences = 0;
    while bytes.get(j) == Some(&'#') {
        fences += 1;
        j += 1;
    }
    j += 1; // the opening quote
    (fences, j - i)
}

/// Does the `"` at `i` close a raw string with `fences` trailing `#`s?
fn closes_raw(bytes: &[char], i: usize, fences: u32) -> bool {
    (1..=fences as usize).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// Length of the char literal starting at the `'` at `i`, or `None` when
/// this apostrophe introduces a lifetime.
fn char_literal_len(bytes: &[char], i: usize) -> Option<usize> {
    match bytes.get(i + 1)? {
        '\\' => {
            // Escaped literal: scan to the closing quote.
            let mut j = i + 2;
            while j < bytes.len() {
                if bytes[j] == '\'' {
                    return Some(j - i + 1);
                }
                j += 1;
            }
            None
        }
        _ => (bytes.get(i + 2) == Some(&'\'')).then_some(3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        SourceFile::parse("x.rs", src)
            .lines
            .into_iter()
            .map(|l| l.code)
            .collect()
    }

    #[test]
    fn line_comments_are_stripped_and_kept_as_comment_text() {
        let f = SourceFile::parse("x.rs", "let a = 1; // uses HashMap\n");
        assert_eq!(f.lines[0].code, "let a = 1; ");
        assert!(f.lines[0].comment.contains("HashMap"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let c = code_of("a /* x /* y */ HashMap */ b\nstill /* open\nHashMap */ done");
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains('a') && c[0].contains('b'));
        assert!(!c[1].contains("HashMap"));
        assert!(!c[2].contains("HashMap"));
        assert!(c[2].contains("done"));
    }

    #[test]
    fn string_contents_are_blanked_columns_preserved() {
        let c = code_of(r#"let s = "HashMap"; let t = 2;"#);
        assert!(!c[0].contains("HashMap"));
        assert_eq!(c[0].len(), r#"let s = "HashMap"; let t = 2;"#.len());
        assert!(c[0].contains("let t = 2;"));
    }

    #[test]
    fn escaped_quotes_do_not_terminate_strings() {
        let c = code_of(r#"let s = "a\"HashMap\"b"; HashSet"#);
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains("HashSet"));
    }

    #[test]
    fn raw_strings_with_fences_are_blanked() {
        let c = code_of("let s = r#\"HashMap \" still\"#; HashSet");
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains("HashSet"));
    }

    #[test]
    fn char_literals_blank_but_lifetimes_survive() {
        let c = code_of("let q: &'static str = x; let c = '\"'; let d = 'h'; HashMap");
        assert!(c[0].contains("'static"));
        assert!(c[0].contains("HashMap"));
        // The quote char literal must not open a string that would
        // swallow the rest of the line.
        assert!(!c[0].contains('h') || c[0].contains("HashMap"));
    }

    #[test]
    fn multiline_strings_carry_state() {
        let c = code_of("let s = \"open\nHashMap\nend\"; HashSet");
        assert!(!c[1].contains("HashMap"));
        assert!(c[2].contains("HashSet"));
    }

    #[test]
    fn doc_comments_are_comments() {
        let f = SourceFile::parse("x.rs", "/// uses HashMap\nfn f() {}");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].comment.contains("HashMap"));
    }
}
