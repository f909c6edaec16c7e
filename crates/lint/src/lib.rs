//! `recshard-lint` — the workspace's determinism & robustness static
//! analysis.
//!
//! Every claim this reproduction makes — golden fingerprints, the
//! `BENCH_*.json` drift gates, traced ≡ untraced replays — rests on two
//! source-level invariants: results are *bit-deterministic* functions of
//! `(spec, seed)`, and library code is *panic-free* on config- and
//! data-driven paths. Golden tests catch violations after the fact; this
//! tool encodes the invariants as declarative, checkable rules so they fail
//! at review time instead.
//!
//! A third invariant keeps the workspace small: every public item in a
//! library crate has a caller outside tests (`test-only-pub`, the one rule
//! that looks across files; `perfbench/src` is read for its callers only).
//!
//! The tool is dependency-free (the build environment has no crates.io
//! access, so no `syn`): a hand-rolled [`lexer`] feeds token-pattern
//! [`rules`], orchestrated per file by [`file::SourceFile`] and across the
//! workspace by [`scan`]. Diagnostics ([`diag`]) are deterministic — sorted
//! by `(path, line, rule)`, rendered human-readable and as canonical JSON —
//! and suppressable two ways:
//!
//! * `// recshard-lint: allow(rule, ...) -- reason` on (or directly above)
//!   the offending line. The reason is mandatory, unknown rules are
//!   rejected, and an annotation that suppresses nothing is itself a
//!   violation (`unused-allow`) — so annotations stay an honest audit trail.
//! * the committed `lint-baseline.txt` for grandfathered sites, a sorted
//!   multiset keyed by `(path, rule, code-line)`. `--check` fails on any
//!   violation beyond the baseline *and* on stale baseline entries, so the
//!   baseline can only ratchet down deliberately.
//!
//! Run `cargo run -p recshard-lint -- --list-rules` for the rule table, or
//! see the README's "Static analysis" section.

pub mod diag;
pub mod file;
pub mod lexer;
pub mod rules;
pub mod scan;

pub use diag::{Baseline, Diagnostic};
pub use file::{FileKind, SourceFile};
pub use scan::{analyze_sources, check, scan_workspace, CheckReport, BASELINE_FILE};
