//! Diagnostics, deterministic rendering (human and JSON) and the committed
//! baseline of grandfathered violations.
//!
//! Everything here is bit-deterministic by construction: diagnostics sort by
//! `(path, line, rule, message)`, the baseline is a sorted multiset keyed by
//! `(path, rule, code)` — *content*, not line numbers, so unrelated edits
//! above a grandfathered site do not invalidate it — and the JSON export
//! escapes and orders fields identically on every run.

use std::collections::BTreeMap;

/// One finding, located in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name.
    pub rule: String,
    /// Explanation.
    pub message: String,
    /// Trimmed source line (tabs flattened), doubling as the baseline key.
    pub code: String,
}

impl Diagnostic {
    /// The baseline key: line numbers excluded on purpose.
    pub fn key(&self) -> (String, String, String) {
        (self.path.clone(), self.rule.clone(), self.code.clone())
    }
}

/// Sorts diagnostics into their canonical reporting order.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });
}

/// The committed multiset of grandfathered violations.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<(String, String, String), usize>,
}

/// Header written at the top of every generated baseline file.
pub const BASELINE_HEADER: &str = "\
# recshard-lint baseline: grandfathered violations, keyed path<TAB>rule<TAB>code.
# A violation not listed here fails `recshard-lint --check`; an entry listed
# here that no longer occurs is stale and also fails. Regenerate with:
#     cargo run -p recshard-lint -- --update-baseline
";

impl Baseline {
    /// Parses a baseline file. Lines are `path<TAB>rule<TAB>code`; `#`
    /// comments and blank lines are ignored. Duplicate lines accumulate
    /// (one per grandfathered occurrence).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut counts = BTreeMap::new();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, '\t');
            let (path, rule, code) = match (parts.next(), parts.next(), parts.next()) {
                (Some(p), Some(r), Some(c)) => (p, r, c),
                _ => {
                    return Err(format!(
                        "baseline line {}: expected path<TAB>rule<TAB>code, got `{line}`",
                        n + 1
                    ))
                }
            };
            *counts
                .entry((path.to_string(), rule.to_string(), code.to_string()))
                .or_insert(0) += 1;
        }
        Ok(Baseline { counts })
    }

    /// Renders the canonical baseline for a set of diagnostics: header plus
    /// one sorted line per occurrence. Byte-stable for a given scan.
    pub fn render(diags: &[Diagnostic]) -> String {
        let mut lines: Vec<String> = diags
            .iter()
            .map(|d| format!("{}\t{}\t{}", d.path, d.rule, d.code))
            .collect();
        lines.sort();
        let mut out = String::from(BASELINE_HEADER);
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }

    /// Number of grandfathered occurrences recorded for `key`.
    pub fn count(&self, key: &(String, String, String)) -> usize {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Splits `diags` into `(baselined, new)` and reports stale baseline
    /// entries (grandfathered occurrences that no longer exist). Within one
    /// key, the earliest occurrences are treated as the grandfathered ones.
    pub fn partition(
        &self,
        diags: &[Diagnostic],
    ) -> (Vec<Diagnostic>, Vec<Diagnostic>, Vec<String>) {
        let mut used: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        let mut baselined = Vec::new();
        let mut fresh = Vec::new();
        for d in diags {
            let key = d.key();
            let seen = used.entry(key.clone()).or_insert(0);
            if *seen < self.count(&key) {
                *seen += 1;
                baselined.push(d.clone());
            } else {
                fresh.push(d.clone());
            }
        }
        let mut stale = Vec::new();
        for (key, &count) in &self.counts {
            let present = used.get(key).copied().unwrap_or(0);
            if present < count {
                stale.push(format!(
                    "{}\t{}\t{} ({} grandfathered, {} present)",
                    key.0, key.1, key.2, count, present
                ));
            }
        }
        (baselined, fresh, stale)
    }
}

/// Renders one diagnostic for terminal output.
pub fn render_human(d: &Diagnostic) -> String {
    format!(
        "{}:{}: [{}] {}\n    | {}",
        d.path, d.line, d.rule, d.message, d.code
    )
}

/// Escapes a string for JSON embedding.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the full diagnostics report as deterministic JSON. `status` per
/// diagnostic is `"new"` or `"baselined"`.
pub fn render_json(new: &[Diagnostic], baselined: &[Diagnostic], stale: &[String]) -> String {
    let mut entries: Vec<(&Diagnostic, &str)> = new
        .iter()
        .map(|d| (d, "new"))
        .chain(baselined.iter().map(|d| (d, "baselined")))
        .collect();
    entries.sort_by(|(a, sa), (b, sb)| {
        (&a.path, a.line, &a.rule, &a.message, *sa)
            .cmp(&(&b.path, b.line, &b.rule, &b.message, *sb))
    });
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"new\": {},\n  \"baselined\": {},\n  \"stale_baseline_entries\": {},\n",
        new.len(),
        baselined.len(),
        stale.len()
    ));
    out.push_str("  \"diagnostics\": [\n");
    for (i, (d, status)) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"status\": \"{}\", \
             \"message\": \"{}\", \"code\": \"{}\"}}{}\n",
            json_escape(&d.path),
            d.line,
            json_escape(&d.rule),
            status,
            json_escape(&d.message),
            json_escape(&d.code),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"stale\": [\n");
    for (i, s) in stale.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\"{}\n",
            json_escape(s),
            if i + 1 < stale.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(path: &str, line: u32, rule: &str, code: &str) -> Diagnostic {
        Diagnostic {
            path: path.into(),
            line,
            rule: rule.into(),
            message: format!("msg for {rule}"),
            code: code.into(),
        }
    }

    #[test]
    fn baseline_round_trips_and_counts_duplicates() {
        let diags = vec![
            diag("a.rs", 3, "unwrap", "x.unwrap();"),
            diag("a.rs", 9, "unwrap", "x.unwrap();"),
            diag("b.rs", 1, "seqcst", "SeqCst"),
        ];
        let text = Baseline::render(&diags);
        let b = Baseline::parse(&text).expect("parse");
        assert_eq!(
            b.count(&("a.rs".into(), "unwrap".into(), "x.unwrap();".into())),
            2
        );
        assert_eq!(
            b.count(&("b.rs".into(), "seqcst".into(), "SeqCst".into())),
            1
        );
        // Round trip is byte-stable.
        let (baselined, fresh, stale) = b.partition(&diags);
        assert_eq!((baselined.len(), fresh.len(), stale.len()), (3, 0, 0));
        assert_eq!(Baseline::render(&baselined), text);
    }

    #[test]
    fn partition_flags_new_occurrences_beyond_the_grandfathered_count() {
        let base = Baseline::parse("a.rs\tunwrap\tx.unwrap();\n").expect("parse");
        let diags = vec![
            diag("a.rs", 3, "unwrap", "x.unwrap();"),
            diag("a.rs", 9, "unwrap", "x.unwrap();"),
        ];
        let (baselined, fresh, stale) = base.partition(&diags);
        assert_eq!(baselined.len(), 1);
        assert_eq!(baselined[0].line, 3, "earliest occurrence is grandfathered");
        assert_eq!(fresh.len(), 1);
        assert!(stale.is_empty());
    }

    #[test]
    fn deleted_violation_makes_its_baseline_entry_stale() {
        let base = Baseline::parse("a.rs\tunwrap\tx.unwrap();\n").expect("parse");
        let (_, fresh, stale) = base.partition(&[]);
        assert!(fresh.is_empty());
        assert_eq!(stale.len(), 1);
        assert!(stale[0].contains("1 grandfathered, 0 present"));
    }

    #[test]
    fn malformed_baseline_is_rejected() {
        assert!(Baseline::parse("not a tabbed line\n").is_err());
        let empty = Baseline::parse("# comment only\n\n").expect("ok");
        assert!(empty.partition(&[]).2.is_empty());
    }

    #[test]
    fn json_is_escaped_and_deterministic() {
        let d = diag("a.rs", 1, "unwrap", "let s = \"x\\y\";");
        let one = render_json(std::slice::from_ref(&d), &[], &[]);
        let two = render_json(&[d], &[], &[]);
        assert_eq!(one, two);
        assert!(one.contains("\\\"x\\\\y\\\""));
        assert!(one.contains("\"new\": 1"));
    }

    #[test]
    fn human_rendering_is_clickable() {
        let d = diag("crates/x/src/lib.rs", 42, "unwrap", "x.unwrap();");
        let text = render_human(&d);
        assert!(text.starts_with("crates/x/src/lib.rs:42: [unwrap]"));
    }
}
