//! Workspace walking and scan orchestration.

use crate::diag::{Baseline, Diagnostic};
use crate::file::{FileKind, SourceFile};
use crate::rules;
use std::fs;
use std::path::{Path, PathBuf};

/// Name of the committed baseline file at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.txt";

/// Directories scanned at the workspace root.
const ROOT_DIRS: &[&str] = &["crates", "examples", "tests"];

/// Path prefixes excluded from scanning: vendored stand-ins for crates.io
/// dependencies are external code, not ours to lint.
const EXCLUDED_PREFIXES: &[&str] = &["crates/vendor/"];

/// Classifies a workspace-relative path, or `None` to skip the file.
pub fn classify(rel: &str) -> Option<FileKind> {
    if !rel.ends_with(".rs") {
        return None;
    }
    if EXCLUDED_PREFIXES.iter().any(|p| rel.starts_with(p)) {
        return None;
    }
    if rel.starts_with("examples/") {
        return Some(FileKind::Example);
    }
    if rel.starts_with("tests/") {
        return Some(FileKind::Test);
    }
    if rel.starts_with("crates/") {
        // crates/<name>/<role>/...
        let mut parts = rel.splitn(3, '/');
        let (_, _, tail) = (parts.next()?, parts.next()?, parts.next()?);
        if tail.starts_with("tests/") {
            return Some(FileKind::Test);
        }
        if tail.starts_with("benches/") || tail.starts_with("src/bin/") || tail == "src/main.rs" {
            return Some(FileKind::Bin);
        }
        if tail.starts_with("examples/") {
            return Some(FileKind::Example);
        }
        if tail.starts_with("src/") {
            return Some(FileKind::Lib);
        }
    }
    None
}

/// Directories read only for the callers `test-only-pub` counts: the
/// benchmark harness builds on the library crates but is not itself linted.
const CALLER_ROOTS: &[&str] = &["perfbench/src"];

/// Recursively lists the `.rs` files under the scanned roots, sorted by
/// path for deterministic diagnostic order.
pub fn workspace_files(root: &Path) -> Result<Vec<(PathBuf, String, FileKind)>, String> {
    let mut out = Vec::new();
    for p in files_under(root, ROOT_DIRS)? {
        if let Some(rel) = relative(root, &p) {
            if let Some(kind) = classify(&rel) {
                out.push((p, rel, kind));
            }
        }
    }
    out.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(out)
}

/// Every file under the existing `dirs` of `root`, recursively.
fn files_under(root: &Path, dirs: &[&str]) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for dir in dirs {
        let abs = root.join(dir);
        if abs.is_dir() {
            walk(&abs, &mut out)?;
        }
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk(&p, out)?;
        } else {
            out.push(p);
        }
    }
    Ok(())
}

fn relative(root: &Path, p: &Path) -> Option<String> {
    let rel = p.strip_prefix(root).ok()?;
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    Some(s)
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Runs every rule over in-memory sources that stand for a whole workspace:
/// `files` as `(path, kind, source)`, and `callers` read only for the
/// callers `test-only-pub` counts, as `perfbench/src` is. Diagnostics come
/// out sorted. This is the seam the fixture tests drive.
pub fn analyze_sources(files: &[(&str, FileKind, &str)], callers: &[&str]) -> Vec<Diagnostic> {
    let files: Vec<SourceFile> = files
        .iter()
        .map(|&(rel, kind, src)| SourceFile::parse(rel, kind, src))
        .collect();
    let callers: Vec<SourceFile> = callers
        .iter()
        .map(|src| SourceFile::parse("", FileKind::Bin, src))
        .collect();
    let mut diags = Vec::new();
    for (file, violations) in files.iter().zip(rules::run_all(&files, &callers)) {
        diags.extend(violations.into_iter().map(|v| Diagnostic {
            path: file.path.clone(),
            line: v.line,
            rule: v.rule.to_string(),
            message: v.message,
            code: file.line_text(v.line).replace('\t', " "),
        }));
    }
    crate::diag::sort(&mut diags);
    diags
}

/// Scans the whole workspace under `root`.
pub fn scan_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut files = Vec::new();
    for (abs, rel, kind) in workspace_files(root)? {
        files.push((rel, kind, read(&abs)?));
    }
    let mut callers = Vec::new();
    for p in files_under(root, CALLER_ROOTS)? {
        if p.extension().is_some_and(|e| e == "rs") {
            callers.push(read(&p)?);
        }
    }
    let files: Vec<(&str, FileKind, &str)> = files
        .iter()
        .map(|(rel, kind, src)| (rel.as_str(), *kind, src.as_str()))
        .collect();
    let callers: Vec<&str> = callers.iter().map(String::as_str).collect();
    Ok(analyze_sources(&files, &callers))
}

/// Outcome of a `--check` run.
#[derive(Debug)]
pub struct CheckReport {
    /// Violations not covered by the baseline: these fail the build.
    pub new: Vec<Diagnostic>,
    /// Grandfathered violations (present and baselined).
    pub baselined: Vec<Diagnostic>,
    /// Baseline entries whose violation no longer exists: also a failure —
    /// the baseline must be regenerated so it only ever shrinks for a reason.
    pub stale: Vec<String>,
}

impl CheckReport {
    /// Whether the check passes.
    pub fn ok(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }
}

/// Scans the workspace and partitions the findings against the committed
/// baseline (an absent baseline file is an empty baseline).
pub fn check(root: &Path) -> Result<CheckReport, String> {
    let diags = scan_workspace(root)?;
    let baseline_path = root.join(BASELINE_FILE);
    let baseline = if baseline_path.is_file() {
        let text = fs::read_to_string(&baseline_path)
            .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
        Baseline::parse(&text)?
    } else {
        Baseline::default()
    };
    let (baselined, new, stale) = baseline.partition(&diags);
    Ok(CheckReport {
        new,
        baselined,
        stale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_workspace_layout() {
        assert_eq!(classify("crates/des/src/cluster.rs"), Some(FileKind::Lib));
        assert_eq!(
            classify("crates/bench/src/bin/des_bench.rs"),
            Some(FileKind::Bin)
        );
        assert_eq!(classify("crates/lint/src/main.rs"), Some(FileKind::Bin));
        assert_eq!(
            classify("crates/bench/benches/des_core.rs"),
            Some(FileKind::Bin)
        );
        assert_eq!(
            classify("crates/stats/tests/p2_accuracy.rs"),
            Some(FileKind::Test)
        );
        assert_eq!(classify("tests/des_cluster.rs"), Some(FileKind::Test));
        assert_eq!(classify("examples/quickstart.rs"), Some(FileKind::Example));
        assert_eq!(classify("crates/vendor/rand/src/lib.rs"), None);
        assert_eq!(classify("README.md"), None);
        assert_eq!(classify("crates/des/Cargo.toml"), None);
    }

    #[test]
    fn analyze_source_locates_and_snips() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let diags = analyze_sources(&[("crates/demo/src/lib.rs", FileKind::Lib, src)], &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[0].rule, "unwrap");
        assert_eq!(diags[0].code, "x.unwrap()");
    }
}
