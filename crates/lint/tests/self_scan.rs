//! The self-scan golden: runs the real workspace scan and pins three
//! properties of the committed state — `--check` passes, the committed
//! `lint-baseline.txt` regenerates byte-identically, and the gate actually
//! bites (removing an allow annotation or a baseline entry fails the check).

use recshard_lint::diag::sort;
use recshard_lint::{
    analyze_sources, check, scan_workspace, Baseline, Diagnostic, FileKind, BASELINE_FILE,
};
use std::path::PathBuf;

/// The workspace root, two levels up from this crate's manifest.
fn root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or_else(|| PathBuf::from("."))
}

/// The per-file rules' findings for one file on its own: `test-only-pub`,
/// which needs the rest of the workspace for its callers, is left out.
fn per_file(rel: &str, kind: FileKind, src: &str) -> Vec<Diagnostic> {
    analyze_sources(&[(rel, kind, src)], &[])
        .into_iter()
        .filter(|d| d.rule != "test-only-pub")
        .collect()
}

#[test]
fn check_passes_on_the_committed_workspace() {
    let report = check(&root()).unwrap();
    assert!(
        report.ok(),
        "recshard-lint --check must pass on a committed tree; new: {:#?}, stale: {:#?}",
        report.new,
        report.stale
    );
    assert!(report.stale.is_empty());
}

#[test]
fn committed_baseline_grandfathers_no_test_only_pub_entry() {
    // A public item only tests reach is deleted or annotated with the
    // reason a test needs it, never grandfathered.
    let committed = std::fs::read_to_string(root().join(BASELINE_FILE)).unwrap();
    let grandfathered: Vec<&str> = committed
        .lines()
        .filter(|l| !l.starts_with('#') && l.split('\t').nth(1) == Some("test-only-pub"))
        .collect();
    assert!(grandfathered.is_empty(), "{grandfathered:#?}");
}

#[test]
fn committed_baseline_regenerates_byte_identically() {
    let root = root();
    let diags = scan_workspace(&root).unwrap();
    let regenerated = Baseline::render(&diags);
    let committed = std::fs::read_to_string(root.join(BASELINE_FILE)).unwrap();
    assert_eq!(
        regenerated, committed,
        "lint-baseline.txt drifted from `--update-baseline` output"
    );
}

#[test]
fn scan_is_deterministic_across_runs() {
    let root = root();
    let a = scan_workspace(&root).unwrap();
    let b = scan_workspace(&root).unwrap();
    assert_eq!(a, b);
    let mut sorted = a.clone();
    sort(&mut sorted);
    assert_eq!(a, sorted, "scan output must come out sorted");
}

#[test]
fn removing_a_baseline_entry_fails_the_check() {
    let root = root();
    let diags = scan_workspace(&root).unwrap();
    let committed = std::fs::read_to_string(root.join(BASELINE_FILE)).unwrap();
    // Drop the first non-comment entry and re-partition: the diagnostic it
    // covered must resurface as new.
    let victim = committed
        .lines()
        .find(|l| !l.starts_with('#') && !l.trim().is_empty())
        .expect("committed baseline has at least one grandfathered entry");
    let shrunk: String = committed
        .lines()
        .filter(|l| *l != victim)
        .map(|l| format!("{l}\n"))
        .collect();
    let baseline = Baseline::parse(&shrunk).unwrap();
    let (_, new, stale) = baseline.partition(&diags);
    assert_eq!(
        new.len(),
        1,
        "shrinking the baseline by one entry must surface exactly one new violation"
    );
    assert!(stale.is_empty());
}

#[test]
fn removing_an_allow_annotation_fails_the_check() {
    // Strip the allow annotations from a real, committed library file and
    // re-analyze it: suppressed diagnostics must resurface, and none of them
    // may be covered by the committed baseline (annotated sites are fixed
    // sites, not grandfathered ones).
    let root = root();
    let rel = "crates/des/src/time.rs";
    let src = std::fs::read_to_string(root.join(rel)).unwrap();
    assert!(src.contains("recshard-lint: allow("), "fixture went stale");
    let stripped: String = src
        .lines()
        .filter(|l| !l.trim_start().starts_with("// recshard-lint:"))
        .map(|l| format!("{l}\n"))
        .collect();

    let before = per_file(rel, FileKind::Lib, &src);
    assert!(
        before.is_empty(),
        "the committed file must scan clean: {before:#?}"
    );
    let after = per_file(rel, FileKind::Lib, &stripped);
    assert!(
        !after.is_empty(),
        "deleting the allow annotation must resurface the violation"
    );

    let committed = std::fs::read_to_string(root.join(BASELINE_FILE)).unwrap();
    let baseline = Baseline::parse(&committed).unwrap();
    for d in &after {
        assert_eq!(
            baseline.count(&d.key()),
            0,
            "annotated site must not also be grandfathered: {d:#?}"
        );
    }
}

#[test]
fn committed_tree_has_no_stray_annotation_spellings() {
    // A typo like `recshard_lint:` or `allow (` would silently not suppress;
    // cheap guard that every annotation in the tree parsed as an annotation.
    let root = root();
    for (abs, rel, kind) in recshard_lint::scan::workspace_files(&root).unwrap() {
        let src = std::fs::read_to_string(&abs).unwrap();
        if !src.contains("recshard-lint:") {
            continue;
        }
        let diags = per_file(&rel, kind, &src);
        for d in diags {
            assert_ne!(d.rule, "bad-allow", "{rel}:{} {}", d.line, d.message);
        }
    }
}

#[test]
fn library_and_binary_sources_read_only_the_kept_environment_variables() {
    // Every `RECSHARD_*` name a crate's `src/` spells as a whole string
    // literal: the bench timing, baseline and drift switches, the
    // observability export directory, and fig13's measurement backend. A
    // run's size and seed are constants of its binary, not env overrides.
    let root = root();
    let mut names = std::collections::BTreeSet::new();
    for (abs, rel, _) in recshard_lint::scan::workspace_files(&root).unwrap() {
        if !(rel.starts_with("crates/") && rel.split('/').nth(2) == Some("src")) {
            continue;
        }
        let src = std::fs::read_to_string(&abs).unwrap();
        for token in recshard_lint::lexer::lex(&src).tokens {
            let is_name = token.text.starts_with("RECSHARD_")
                && token
                    .text
                    .bytes()
                    .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_');
            if token.kind == recshard_lint::lexer::TokenKind::Str && is_name {
                names.insert(token.text);
            }
        }
    }
    let kept = [
        "RECSHARD_BACKEND",
        "RECSHARD_BENCH_ALLOW_DRIFT",
        "RECSHARD_BENCH_BASELINE",
        "RECSHARD_BENCH_TIMING",
        "RECSHARD_OBS_DIR",
    ];
    assert_eq!(names.iter().map(String::as_str).collect::<Vec<_>>(), kept);
}
