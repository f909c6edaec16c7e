//! Per-file analysis context: tokens plus the structural facts every rule
//! needs — which lines are test code, which tokens sit inside which `fn`
//! body, and where `recshard-lint: allow(...)` annotations point.

use crate::lexer::{lex, Comment, Token, TokenKind};
use std::cell::Cell;

/// How a file participates in the build, derived from its workspace path.
/// Rules declare which kinds they apply to: robustness rules only bind
/// library code, determinism rules also bind the bench binaries whose output
/// is committed, and test/example code is held to a looser standard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/*/src/**` (excluding `src/bin/`): library code.
    Lib,
    /// `crates/*/src/bin/**`, `src/main.rs`, `benches/**`: executable code.
    Bin,
    /// `crates/*/tests/**` and the workspace-level `tests/**`.
    Test,
    /// `examples/**`: demo code.
    Example,
}

/// One parsed `// recshard-lint: allow(rule, ...) -- reason` annotation.
#[derive(Debug)]
pub struct Allow {
    /// Rule names listed inside `allow(...)`.
    pub rules: Vec<String>,
    /// Whether a non-empty `-- reason` trailer was given.
    pub has_reason: bool,
    /// Line the comment itself is on.
    pub comment_line: u32,
    /// Line of code the annotation suppresses (the comment's own line for a
    /// trailing comment, the next code line for a standalone one).
    pub applies_to: u32,
    /// Set when the annotation suppressed at least one diagnostic; an allow
    /// that suppresses nothing is itself reported (`unused-allow`).
    pub used: Cell<bool>,
}

/// A lexed file plus derived structure, ready for rules to scan.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Build role of the file.
    pub kind: FileKind,
    /// Raw source lines (for diagnostics' code snippets).
    pub lines: Vec<String>,
    /// Code tokens.
    pub tokens: Vec<Token>,
    /// Comments, in source order.
    pub comments: Vec<Comment>,
    /// Parsed allow annotations.
    pub allows: Vec<Allow>,
    /// Malformed `recshard-lint:` comments (reported as `bad-allow`).
    pub bad_allows: Vec<(u32, String)>,
    /// Line ranges (inclusive) of `#[cfg(test)]` items and `mod tests`.
    test_ranges: Vec<(u32, u32)>,
    /// Token-index ranges (inclusive of braces) of `fn` bodies.
    fn_bodies: Vec<(usize, usize)>,
}

const ANNOTATION: &str = "recshard-lint:";

impl SourceFile {
    /// Lexes and analyses one file.
    pub fn parse(path: &str, kind: FileKind, src: &str) -> SourceFile {
        let lexed = lex(src);
        let lines: Vec<String> = src.lines().map(str::to_string).collect();
        let (allows, bad_allows) = parse_allows(&lexed.comments, &lexed.tokens);
        let test_ranges = find_test_ranges(&lexed.tokens);
        let fn_bodies = find_fn_bodies(&lexed.tokens);
        SourceFile {
            path: path.to_string(),
            kind,
            lines,
            tokens: lexed.tokens,
            comments: lexed.comments,
            allows,
            bad_allows,
            test_ranges,
            fn_bodies,
        }
    }

    /// Whether `line` falls inside `#[cfg(test)]`-gated code or a
    /// `mod tests` block.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(s, e)| s <= line && line <= e)
    }

    /// Whether a diagnostic of `rule` at `line` is suppressed by an allow
    /// annotation; marks the matching annotation used.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for a in &self.allows {
            if a.applies_to == line && a.rules.iter().any(|r| r == rule) {
                a.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// Trimmed source text of a 1-based line (empty when out of range).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim())
            .unwrap_or("")
    }

    /// Tokens of the innermost `fn` body containing token index `idx`.
    pub fn enclosing_fn_body(&self, idx: usize) -> Option<&[Token]> {
        self.fn_bodies
            .iter()
            .filter(|&&(s, e)| s <= idx && idx <= e)
            .min_by_key(|&&(s, e)| e - s)
            .map(|&(s, e)| &self.tokens[s..=e])
    }

    /// Whether a comment on `line` or the line directly above contains
    /// `needle` (used for justification-comment rules).
    pub fn comment_near(&self, line: u32, needle: &str) -> bool {
        self.comments
            .iter()
            .any(|c| (c.line == line || c.line + 1 == line) && c.text.contains(needle))
    }

    fn t(&self, idx: usize) -> Option<&Token> {
        self.tokens.get(idx)
    }

    /// Whether token `idx` is the identifier `text`.
    pub fn is_ident(&self, idx: usize, text: &str) -> bool {
        self.t(idx)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
    }

    /// Whether token `idx` is the punctuation `ch`.
    pub fn is_punct(&self, idx: usize, ch: char) -> bool {
        self.t(idx).is_some_and(|t| {
            t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(ch)
        })
    }
}

/// Parses `recshard-lint:` annotations out of the comment list. A trailing
/// comment applies to its own line; a standalone comment applies to the next
/// line carrying a code token (so annotations stack above long statements).
fn parse_allows(comments: &[Comment], tokens: &[Token]) -> (Vec<Allow>, Vec<(u32, String)>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        // Annotations live in plain `//` comments only: doc comments
        // (`///`, `//!`) describing the annotation *syntax* are prose.
        if !c.block && (c.text.starts_with('/') || c.text.starts_with('!')) {
            continue;
        }
        let Some(at) = c.text.find(ANNOTATION) else {
            continue;
        };
        let rest = c.text[at + ANNOTATION.len()..].trim();
        let parsed = parse_allow_body(rest);
        let applies_to = if tokens.iter().any(|t| t.line == c.line) {
            c.line
        } else {
            tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > c.line)
                .unwrap_or(c.line + 1)
        };
        match parsed {
            Some((rules, has_reason)) => allows.push(Allow {
                rules,
                has_reason,
                comment_line: c.line,
                applies_to,
                used: Cell::new(false),
            }),
            None => bad.push((
                c.line,
                format!("malformed annotation `{ANNOTATION} {rest}`"),
            )),
        }
    }
    (allows, bad)
}

/// Parses `allow(rule, ...) -- reason`; returns the rule list and whether a
/// non-empty reason was given. `None` means unparseable.
fn parse_allow_body(rest: &str) -> Option<(Vec<String>, bool)> {
    let body = rest.strip_prefix("allow(")?;
    let close = body.find(')')?;
    let rules: Vec<String> = body[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    let tail = body[close + 1..].trim();
    let has_reason = tail
        .strip_prefix("--")
        .map(|r| !r.trim().is_empty())
        .unwrap_or(false);
    Some((rules, has_reason))
}

/// Finds the matching `}` for the `{` at token index `open`, returning its
/// index (or the last token on unbalanced input).
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
    }
    tokens.len().saturating_sub(1)
}

fn is_p(tokens: &[Token], idx: usize, ch: char) -> bool {
    tokens
        .get(idx)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(ch))
}

fn is_i(tokens: &[Token], idx: usize, text: &str) -> bool {
    tokens
        .get(idx)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

/// Line ranges covered by `#[cfg(test)]` items and `mod tests { ... }`.
fn find_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_p(tokens, i, '#') && is_p(tokens, i + 1, '[') {
            let close = match_bracket(tokens, i + 1);
            let inside = &tokens[i + 2..close.min(tokens.len())];
            let is_cfg_test = inside.first().is_some_and(|t| t.text == "cfg")
                && inside.iter().any(|t| t.text == "test" || t.text == "tests")
                && !inside.iter().any(|t| t.text == "not");
            if is_cfg_test {
                if let Some((_, end)) = item_after_attributes(tokens, i, close + 1) {
                    ranges.push((tokens[i].line, end));
                }
            }
            i = close + 1;
            continue;
        }
        if is_i(tokens, i, "mod") && is_i(tokens, i + 1, "tests") && is_p(tokens, i + 2, '{') {
            let close = match_brace(tokens, i + 2);
            ranges.push((tokens[i].line, tokens[close].line));
            i = close + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Finds the matching `]` for the `[` at token index `open`.
fn match_bracket(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Starting at `from` (just past the attribute whose `#` is at `hash`),
/// skips further attributes and returns the `(start_line, end_line)` of
/// what they are attached to. An element of a comma-separated list in
/// braces (a struct field, struct-literal field, enum variant or match
/// arm) ends at its list's next `,` or before the list's close; a `let`
/// statement ends at its `;`, past any blocks in its initialiser; anything
/// else runs to its matching close brace, or to the terminating `;` for
/// brace-less items.
fn item_after_attributes(tokens: &[Token], hash: usize, mut from: usize) -> Option<(u32, u32)> {
    while is_p(tokens, from, '#') && is_p(tokens, from + 1, '[') {
        from = match_bracket(tokens, from + 1) + 1;
    }
    let start_line = tokens.get(from)?.line;
    let list = in_list(tokens, hash);
    if list || is_i(tokens, from, "let") {
        return Some((start_line, tokens[element_end(tokens, from, list)].line));
    }
    let mut i = from;
    while i < tokens.len() {
        if is_p(tokens, i, '{') {
            let close = match_brace(tokens, i);
            return Some((start_line, tokens[close].line));
        }
        if is_p(tokens, i, ';') {
            return Some((start_line, tokens[i].line));
        }
        i += 1;
    }
    Some((start_line, tokens.last()?.line))
}

/// Whether token `at` sits directly in braces that [`brace_opens_list`].
fn in_list(tokens: &[Token], at: usize) -> bool {
    let mut depth = 0usize;
    for i in (0..at).rev() {
        if tokens[i].kind != TokenKind::Punct {
            continue;
        }
        match tokens[i].text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" if depth > 0 => depth -= 1,
            "(" | "[" => return false,
            "{" => return brace_opens_list(tokens, i),
            _ => {}
        }
    }
    false
}

/// Keywords that, found first scanning back from a `{`, make it a struct,
/// enum or match body (`true`) or a fn, impl, trait, mod or block body
/// (`false`).
const LIST_HEADS: &[(&str, bool)] = &[
    ("struct", true),
    ("enum", true),
    ("union", true),
    ("match", true),
    ("fn", false),
    ("impl", false),
    ("trait", false),
    ("mod", false),
    ("macro_rules", false),
    ("if", false),
    ("while", false),
    ("for", false),
    ("loop", false),
    ("else", false),
    ("unsafe", false),
    ("extern", false),
    ("async", false),
    ("move", false),
];

/// Whether the `{` at `open` opens a comma-separated list: a struct or
/// enum body, a match body or a struct literal (a path then `{` with no
/// keyword before it in the statement), as against any other body or
/// block.
fn brace_opens_list(tokens: &[Token], open: usize) -> bool {
    // `= {`, `=> {`, `|| {`, `; {`: a block.
    let block = open.checked_sub(1).is_none_or(|prev| {
        let t = &tokens[prev];
        t.kind == TokenKind::Punct
            && (!matches!(t.text.as_str(), ")" | "]" | ">")
                || is_p(tokens, prev.wrapping_sub(1), '='))
    });
    if block {
        return false;
    }
    let mut depth = 0usize;
    for t in tokens[..open].iter().rev() {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, ")" | "]") => depth += 1,
            (TokenKind::Punct, "(" | "[") if depth > 0 => depth -= 1,
            (TokenKind::Punct, "(" | "[" | "{" | "}" | ";") => return true,
            (TokenKind::Ident, word) if depth == 0 => {
                if let Some(&(_, list)) = LIST_HEADS.iter().find(|(k, _)| *k == word) {
                    return list;
                }
            }
            _ => {}
        }
    }
    true
}

/// Index of the last token of the list element (`list`) or statement
/// starting at `from`: its trailing `;` or, in a list, `,`; the token
/// before the enclosing close; or for a match arm with a block body that
/// block's `}`.
fn element_end(tokens: &[Token], from: usize, list: bool) -> usize {
    let mut depth = 0usize;
    for i in from..tokens.len() {
        if tokens[i].kind != TokenKind::Punct {
            continue;
        }
        match tokens[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return i.saturating_sub(1).max(from),
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => return i,
            "," if depth == 0 && list => return i,
            "=" if depth == 0 && is_p(tokens, i + 1, '>') && is_p(tokens, i + 2, '{') => {
                return match_brace(tokens, i + 2);
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Token-index ranges of every `fn` body (brace-inclusive). Closures are not
/// tracked separately; they resolve to their enclosing `fn`.
fn find_fn_bodies(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut bodies = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_i(tokens, i, "fn") {
            // Scan ahead to the body `{`; a `;` first means a trait/extern
            // declaration without a body.
            let mut j = i + 1;
            while j < tokens.len() {
                if is_p(tokens, j, '{') {
                    let close = match_brace(tokens, j);
                    bodies.push((j, close));
                    break;
                }
                if is_p(tokens, j, ';') {
                    break;
                }
                j += 1;
            }
        }
        i += 1;
    }
    bodies
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(src: &str) -> SourceFile {
        SourceFile::parse("crates/demo/src/lib.rs", FileKind::Lib, src)
    }

    #[test]
    fn cfg_test_mod_is_excluded_to_its_close_brace() {
        let f =
            lib("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn tail() {}\n");
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(4));
        assert!(f.in_test_code(5));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn bare_mod_tests_is_excluded_too() {
        let f = lib("mod tests {\n    fn x() {}\n}\nfn live() {}\n");
        assert!(f.in_test_code(2));
        assert!(!f.in_test_code(4));
    }

    #[test]
    fn cfg_test_on_single_item_without_braces() {
        let f = lib("#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n");
        assert!(f.in_test_code(2));
        assert!(!f.in_test_code(3));
    }

    #[test]
    fn cfg_test_skips_interleaved_attributes() {
        let f = lib("#[cfg(test)]\n#[derive(Debug)]\nstruct T {\n    x: u32,\n}\nfn live() {}\n");
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn trailing_allow_applies_to_its_own_line() {
        let f = lib("fn f() {\n    x.unwrap(); // recshard-lint: allow(unwrap) -- invariant\n}\n");
        assert!(f.allowed("unwrap", 2));
        assert!(!f.allowed("unwrap", 1));
        assert!(f.allows[0].used.get());
    }

    #[test]
    fn standalone_allow_applies_to_next_code_line() {
        let f = lib(
            "fn f() {\n    // recshard-lint: allow(unwrap, wall-clock) -- both justified\n    x.unwrap();\n}\n",
        );
        assert!(f.allowed("unwrap", 3));
        assert!(f.allowed("wall-clock", 3));
    }

    #[test]
    fn allow_without_reason_or_rules_is_malformed() {
        let f = lib("// recshard-lint: allow(unwrap)\nfn f() {}\n");
        assert!(!f.allows[0].has_reason);
        let f = lib("// recshard-lint: allow() -- no rules\nfn f() {}\n");
        assert_eq!(f.allows.len(), 0);
        assert_eq!(f.bad_allows.len(), 1);
        let f = lib("// recshard-lint: disallow(x)\nfn f() {}\n");
        assert_eq!(f.bad_allows.len(), 1);
    }

    #[test]
    fn fn_bodies_nest_and_gate_lookups() {
        let f =
            lib("fn outer() {\n    let gate = \"RECSHARD_BENCH_TIMING\";\n    fn inner() {}\n}\n");
        // Token index of `gate` ident.
        let idx = f
            .tokens
            .iter()
            .position(|t| t.text == "gate")
            .expect("gate");
        let body = f.enclosing_fn_body(idx).expect("body");
        assert!(body
            .iter()
            .any(|t| t.text.contains("RECSHARD_BENCH_TIMING")));
    }

    #[test]
    fn comment_near_sees_same_and_previous_line() {
        let f = lib("// ordering: handoff pairs with the store\nlet x = 1;\nlet y = 2;\n");
        assert!(f.comment_near(1, "ordering:"));
        assert!(f.comment_near(2, "ordering:"));
        assert!(!f.comment_near(3, "ordering:"));
    }
}
