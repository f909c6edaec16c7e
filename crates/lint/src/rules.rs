//! The lint rules: repo-specific determinism and robustness invariants that
//! `clippy` cannot express.
//!
//! Every rule but one is a pattern match over the token stream of one
//! [`SourceFile`]; `test-only-pub` runs after them, across every file of the
//! workspace at once. Rules are deliberately *syntactic* — there is no type
//! inference — so each one documents the approximation it makes and errs
//! toward flagging; the `// recshard-lint: allow(rule) -- reason` annotation
//! is the pressure valve, and an annotation is itself an auditable artifact
//! (it must carry a reason, and must suppress something).

use crate::file::{FileKind, SourceFile};
use crate::lexer::{Token, TokenKind};
use std::collections::BTreeSet;

/// A single finding, before path/baseline bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Static description of one rule, for `--list-rules`, allow-annotation
/// validation and the README table.
pub struct RuleMeta {
    /// Identifier used in diagnostics, annotations and the baseline.
    pub name: &'static str,
    /// One-line description of what the rule flags.
    pub summary: &'static str,
    /// The repo invariant the rule protects.
    pub invariant: &'static str,
    /// File kinds the rule scans.
    pub applies_to: &'static [FileKind],
    /// Whether the rule also applies inside `#[cfg(test)]` / `mod tests`.
    pub include_tests: bool,
}

use FileKind::{Bin, Example, Lib, Test};

/// All rules, in diagnostic order.
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        name: "hash-iter",
        summary: "iteration over a std HashMap/HashSet binding",
        invariant: "iteration order of the std hash containers is randomized per process; \
                    anything that feeds a fingerprint, snapshot, JSON export or float \
                    accumulation must iterate in a defined order (BTreeMap/BTreeSet, or \
                    collect-and-sort)",
        applies_to: &[Lib, Bin, Example],
        include_tests: false,
    },
    RuleMeta {
        name: "float-acc",
        summary: "float accumulation over an unordered hash-container iteration",
        invariant: "float addition is not associative, so summing f32/f64 values in hash \
                    order produces run-dependent low bits that golden fingerprints and \
                    BENCH_*.json gates then trip on",
        applies_to: &[Lib, Bin, Example],
        include_tests: false,
    },
    RuleMeta {
        name: "wall-clock",
        summary: "Instant/SystemTime read outside RECSHARD_BENCH_TIMING-gated code",
        invariant: "simulation and solver results are pure functions of (spec, seed); wall \
                    clocks may only feed the env-gated timing fields of bench reports, \
                    which the fingerprints deliberately blank",
        applies_to: &[Lib, Bin, Example],
        include_tests: false,
    },
    RuleMeta {
        name: "thread-fanin",
        summary: "thread spawn without an audited deterministic fan-in",
        invariant: "worker results must be merged in a schedule-independent order (join in \
                    index order, or sort by (worker, seq)); each spawn site carries an \
                    annotation saying which idiom it uses",
        applies_to: &[Lib, Bin],
        include_tests: false,
    },
    RuleMeta {
        name: "unwrap",
        summary: "unwrap()/expect() in non-test library code",
        invariant: "library code must not panic on config- or data-driven paths; convert to \
                    typed errors, or annotate internal invariants with the reason they \
                    cannot fire",
        applies_to: &[Lib],
        include_tests: false,
    },
    RuleMeta {
        name: "narrowing-cast",
        summary: "narrowing `as` cast on a time/byte quantity",
        invariant: "times and byte counts are u64/u128 domain values; narrowing them with \
                    `as` silently truncates at scale — use the audited SimTime helpers \
                    (crates/des/src/time.rs) or a checked conversion",
        applies_to: &[Lib],
        include_tests: false,
    },
    RuleMeta {
        name: "seqcst",
        summary: "SeqCst atomic ordering",
        invariant: "nothing in this workspace needs a global total order over atomics; \
                    SeqCst hides the actual required ordering and costs a fence on weak \
                    hardware — state the real ordering instead",
        applies_to: &[Lib, Bin, Test, Example],
        include_tests: true,
    },
    RuleMeta {
        name: "obs-ordering",
        summary: "non-Relaxed atomic ordering in recshard-obs without a justification",
        invariant: "the metrics hot path is intentionally Relaxed (per-counter monotonic \
                    increments, read quiesced); any Acquire/Release there must carry an \
                    `// ordering:` comment explaining the happens-before edge it builds",
        applies_to: &[Lib],
        include_tests: false,
    },
    RuleMeta {
        name: "test-only-pub",
        summary: "pub item in a library crate that only test code names",
        invariant: "every public item has a caller outside tests (in a library, bin, bench, \
                    example or perfbench); code only its own tests reach is dead weight — \
                    delete it with its tests, or annotate why a test needs it",
        applies_to: &[Lib],
        include_tests: false,
    },
    RuleMeta {
        name: "bad-allow",
        summary: "malformed recshard-lint annotation",
        invariant: "annotations are part of the audit trail: they must parse, name known \
                    rules, and carry a `-- reason`",
        applies_to: &[Lib, Bin, Test, Example],
        include_tests: true,
    },
    RuleMeta {
        name: "unused-allow",
        summary: "allow annotation that suppresses nothing",
        invariant: "a stale allow annotation reads as if a hazard were present and audited; \
                    delete annotations the code has outgrown",
        applies_to: &[Lib, Bin, Test, Example],
        include_tests: true,
    },
];

/// Looks up a rule by name.
pub fn rule(name: &str) -> Option<&'static RuleMeta> {
    RULES.iter().find(|r| r.name == name)
}

/// Runs every applicable rule over `files`, which stand for the whole
/// workspace, returning each file's unsuppressed violations (allow
/// annotations and test regions already applied) plus its
/// annotation-hygiene findings, aligned with `files`. The per-file rules run
/// first, then `test-only-pub` across `files` and the caller-only sources.
pub fn run_all(files: &[SourceFile], callers: &[SourceFile]) -> Vec<Vec<Violation>> {
    let mut raw: Vec<Vec<Violation>> = files.iter().map(per_file).collect();
    for (i, v) in test_only_pub(files, callers) {
        raw[i].push(v);
    }
    files
        .iter()
        .zip(raw)
        .map(|(file, raw)| finish(file, raw))
        .collect()
}

/// Every per-file rule's raw findings for `file`.
fn per_file(file: &SourceFile) -> Vec<Violation> {
    let mut raw: Vec<Violation> = Vec::new();
    hash_iter_and_float_acc(file, &mut raw);
    wall_clock(file, &mut raw);
    thread_fanin(file, &mut raw);
    unwrap_expect(file, &mut raw);
    narrowing_cast(file, &mut raw);
    seqcst(file, &mut raw);
    obs_ordering(file, &mut raw);
    raw
}

/// Applies rule scopes, test regions and allow annotations to `raw`, then
/// adds the annotation-hygiene findings.
fn finish(file: &SourceFile, raw: Vec<Violation>) -> Vec<Violation> {
    let mut out = Vec::new();
    for v in raw {
        let Some(meta) = rule(v.rule) else {
            // Unreachable by construction (every emitter names a registered
            // rule); dropping beats panicking in the tool that bans panics.
            continue;
        };
        if !meta.applies_to.contains(&file.kind) {
            continue;
        }
        if !meta.include_tests && file.in_test_code(v.line) {
            continue;
        }
        if file.allowed(v.rule, v.line) {
            continue;
        }
        out.push(v);
    }
    annotation_hygiene(file, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// `bad-allow` + `unused-allow`: annotations must parse, name known rules,
/// carry a reason, and suppress at least one diagnostic.
fn annotation_hygiene(file: &SourceFile, out: &mut Vec<Violation>) {
    for (line, msg) in &file.bad_allows {
        out.push(Violation {
            rule: "bad-allow",
            line: *line,
            message: format!("{msg}; expected `recshard-lint: allow(rule, ...) -- reason`"),
        });
    }
    for a in &file.allows {
        for r in &a.rules {
            if rule(r).is_none() {
                out.push(Violation {
                    rule: "bad-allow",
                    line: a.comment_line,
                    message: format!("annotation names unknown rule `{r}`"),
                });
            }
        }
        if !a.has_reason {
            out.push(Violation {
                rule: "bad-allow",
                line: a.comment_line,
                message: "annotation is missing its `-- reason` trailer".to_string(),
            });
        }
        if !a.used.get() && !file.in_test_code(a.applies_to) {
            out.push(Violation {
                rule: "unused-allow",
                line: a.comment_line,
                message: format!(
                    "allow({}) suppresses no diagnostic on line {}",
                    a.rules.join(", "),
                    a.applies_to
                ),
            });
        }
    }
}

/// Methods whose call on a hash container observes its iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Accumulators that collapse an iterator into one value, order-sensitively
/// for floats.
const ACCUMULATORS: &[&str] = &["sum", "product", "fold"];

/// One binding (local, field or param) whose declared or constructed type
/// is a std hash container.
#[derive(Debug)]
struct HashBinding {
    name: String,
    /// Whether the container's generic arguments mention f32/f64.
    float_valued: bool,
}

/// Collects identifiers bound to `HashMap`/`HashSet` in this file: type
/// ascriptions (`name: HashMap<..>`, covering fields, params and typed
/// lets) and untyped constructions (`let name = HashMap::new()`).
/// Per-file and name-based — shadowing across functions is conflated, which
/// over-approximates; allow annotations resolve false positives.
fn hash_bindings(file: &SourceFile) -> Vec<HashBinding> {
    let toks = &file.tokens;
    let mut out: Vec<HashBinding> = Vec::new();
    let mut record = |name: &str, float_valued: bool| match out.iter_mut().find(|b| b.name == name)
    {
        Some(b) => b.float_valued |= float_valued,
        None => out.push(HashBinding {
            name: name.to_string(),
            float_valued,
        }),
    };
    for idx in 0..toks.len() {
        let t = &toks[idx];
        if t.kind != TokenKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        let float_valued = generic_args_mention_float(file, idx);
        // Walk back over a `std :: collections ::`-style path prefix.
        let mut k = idx;
        while k >= 3
            && file.is_punct(k - 1, ':')
            && file.is_punct(k - 2, ':')
            && toks[k - 3].kind == TokenKind::Ident
        {
            k -= 3;
        }
        // Type-ascription position: `name : [&mut] [path::]Hash{Map,Set}`.
        {
            let mut b = k;
            while b > 0 && (file.is_punct(b - 1, '&') || file.is_ident(b - 1, "mut")) {
                b -= 1;
            }
            if b >= 2
                && file.is_punct(b - 1, ':')
                && !file.is_punct(b - 2, ':')
                && toks[b - 2].kind == TokenKind::Ident
            {
                record(&toks[b - 2].text, float_valued);
                continue;
            }
        }
        // Construction position: `let [mut] name = [path::]HashMap::new()`.
        let constructed = file.is_punct(idx + 1, ':')
            && file.is_punct(idx + 2, ':')
            && toks.get(idx + 3).is_some_and(|m| {
                matches!(
                    m.text.as_str(),
                    "new" | "with_capacity" | "default" | "from"
                )
            });
        if constructed
            && k >= 2
            && file.is_punct(k - 1, '=')
            && toks[k - 2].kind == TokenKind::Ident
        {
            record(&toks[k - 2].text, float_valued);
        }
    }
    out
}

/// Whether the generic argument list following token `idx` mentions a float
/// type (closes over nested angle brackets).
fn generic_args_mention_float(file: &SourceFile, idx: usize) -> bool {
    if !file.is_punct(idx + 1, '<') {
        return false;
    }
    let mut depth = 0i32;
    for j in (idx + 1)..file.tokens.len() {
        let t = &file.tokens[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        return false;
                    }
                }
                _ => {}
            }
        } else if t.kind == TokenKind::Ident && (t.text == "f64" || t.text == "f32") {
            return true;
        }
    }
    false
}

/// `hash-iter`: flags `binding.iter()` / `for .. in &binding` where
/// `binding` is a hash container, and `float-acc` when the same statement
/// then accumulates floats out of that iteration.
fn hash_iter_and_float_acc(file: &SourceFile, out: &mut Vec<Violation>) {
    let bindings = hash_bindings(file);
    if bindings.is_empty() {
        return;
    }
    let toks = &file.tokens;
    let find = |name: &str| bindings.iter().find(|b| b.name == name);
    for idx in 0..toks.len() {
        // Method-call form: `name . iter (`.
        if toks[idx].kind == TokenKind::Ident
            && file.is_punct(idx + 1, '.')
            && toks
                .get(idx + 2)
                .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
            && file.is_punct(idx + 3, '(')
        {
            let Some(b) = find(&toks[idx].text) else {
                continue;
            };
            let method = &toks[idx + 2];
            out.push(Violation {
                rule: "hash-iter",
                line: method.line,
                message: format!(
                    "`{}.{}()` iterates a std hash container in randomized order; use \
                     BTreeMap/BTreeSet or collect-and-sort before the order can escape",
                    b.name, method.text
                ),
            });
            float_acc_after(file, idx + 3, b, out);
        }
        // For-loop form: `for pat in [&] [self.] name {`.
        if file.is_ident(idx, "for") {
            if let Some((name, line)) = for_loop_hash_source(file, idx, &bindings) {
                out.push(Violation {
                    rule: "hash-iter",
                    line,
                    message: format!(
                        "`for .. in {name}` iterates a std hash container in randomized \
                         order; use BTreeMap/BTreeSet or collect-and-sort first"
                    ),
                });
            }
        }
    }
}

/// For a `for` keyword at `idx`, returns the hash binding iterated over, if
/// the loop source is a bare (possibly borrowed / field-accessed) tracked
/// binding. A call in the source expression disqualifies it — the loop then
/// iterates whatever the call returned.
fn for_loop_hash_source<'a>(
    file: &SourceFile,
    idx: usize,
    bindings: &'a [HashBinding],
) -> Option<(&'a str, u32)> {
    let toks = &file.tokens;
    // Find `in` at bracket depth 0, then the loop-body `{`.
    let mut depth = 0i32;
    let mut j = idx + 1;
    let mut in_at = None;
    while j < toks.len() && j < idx + 64 {
        let t = &toks[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                _ => {}
            }
        }
        if depth == 0 && file.is_ident(j, "in") {
            in_at = Some(j);
            break;
        }
        j += 1;
    }
    let in_at = in_at?;
    let mut last_ident: Option<&'a HashBinding> = None;
    let mut k = in_at + 1;
    while k < toks.len() {
        let t = &toks[k];
        match t.kind {
            TokenKind::Punct if t.text == "{" => break,
            // Borrows and field paths are transparent.
            TokenKind::Punct if matches!(t.text.as_str(), "&" | ".") => {}
            TokenKind::Ident if t.text == "mut" || t.text == "self" => {}
            // The *final* path segment must be a tracked binding; unknown
            // intermediate segments (e.g. `other.counts`) are fine.
            TokenKind::Ident => last_ident = bindings.iter().find(|b| b.name == t.text),
            // A call, index or literal: the loop iterates whatever that
            // expression produced, not the container itself.
            _ => return None,
        }
        k += 1;
    }
    let b = last_ident?;
    Some((&b.name, toks.get(in_at)?.line))
}

/// `float-acc`: from the token just past an iteration call, scans the rest
/// of the statement for `.sum(` / `.product(` / `.fold(` and flags when the
/// element type is (or plausibly is) floating point.
fn float_acc_after(file: &SourceFile, from: usize, b: &HashBinding, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    let mut saw_float_hint = b.float_valued;
    let mut j = from;
    while j < toks.len() && j < from + 96 {
        let t = &toks[j];
        if t.kind == TokenKind::Punct && t.text == ";" {
            break;
        }
        if t.kind == TokenKind::Ident && (t.text == "f64" || t.text == "f32") {
            saw_float_hint = true;
        }
        if file.is_punct(j, '.')
            && toks
                .get(j + 1)
                .is_some_and(|m| ACCUMULATORS.contains(&m.text.as_str()))
            && saw_float_hint
        {
            out.push(Violation {
                rule: "float-acc",
                line: toks[j + 1].line,
                message: format!(
                    "float `{}()` over the unordered iteration of `{}`: float addition is \
                     order-sensitive, so the low bits depend on hash order",
                    toks[j + 1].text,
                    b.name
                ),
            });
            return;
        }
        j += 1;
    }
}

/// `wall-clock`: `Instant::..` / `SystemTime::..` outside functions that
/// visibly gate on bench timing (their body mentions `RECSHARD_BENCH_TIMING`
/// or the `include_timing` config flag).
fn wall_clock(file: &SourceFile, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    for idx in 0..toks.len() {
        let t = &toks[idx];
        if t.kind != TokenKind::Ident || (t.text != "Instant" && t.text != "SystemTime") {
            continue;
        }
        // Require a path use (`Instant::now`), so type ascriptions and
        // `use std::time::Instant;` imports stay silent.
        if !(file.is_punct(idx + 1, ':') && file.is_punct(idx + 2, ':')) {
            continue;
        }
        let gated = file.enclosing_fn_body(idx).is_some_and(|body| {
            body.iter().any(|b| {
                (b.kind == TokenKind::Str && b.text.contains("RECSHARD_BENCH_TIMING"))
                    || (b.kind == TokenKind::Ident && b.text == "include_timing")
            })
        });
        if !gated {
            out.push(Violation {
                rule: "wall-clock",
                line: t.line,
                message: format!(
                    "`{}::{}` outside RECSHARD_BENCH_TIMING-gated code: results must be \
                     pure functions of (spec, seed)",
                    t.text,
                    toks.get(idx + 3).map(|n| n.text.as_str()).unwrap_or("..")
                ),
            });
        }
    }
}

/// `thread-fanin`: every `thread::spawn` / `scope.spawn` call site must be
/// annotated with the deterministic merge idiom it relies on.
fn thread_fanin(file: &SourceFile, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    for idx in 0..toks.len() {
        if !file.is_ident(idx, "spawn") || !file.is_punct(idx + 1, '(') {
            continue;
        }
        let method_call = idx >= 1 && file.is_punct(idx - 1, '.');
        let path_call = idx >= 3
            && file.is_punct(idx - 1, ':')
            && file.is_punct(idx - 2, ':')
            && file.is_ident(idx - 3, "thread");
        if method_call || path_call {
            out.push(Violation {
                rule: "thread-fanin",
                line: toks[idx].line,
                message: "thread spawn without an audited fan-in: state (via an allow \
                          annotation) how results are merged deterministically — join in \
                          index order or sort by (worker, seq)"
                    .to_string(),
            });
        }
    }
}

/// Panicking extractors flagged by `unwrap`.
const PANICKING: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// `unwrap`: `.unwrap()` / `.expect(..)` in non-test library code.
fn unwrap_expect(file: &SourceFile, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    for idx in 0..toks.len() {
        let t = &toks[idx];
        if t.kind == TokenKind::Ident
            && PANICKING.contains(&t.text.as_str())
            && idx >= 1
            && file.is_punct(idx - 1, '.')
            && file.is_punct(idx + 1, '(')
        {
            out.push(Violation {
                rule: "unwrap",
                line: t.line,
                message: format!(
                    "`.{}()` in library code: return a typed error, or annotate the \
                     internal invariant that makes this unreachable",
                    t.text
                ),
            });
        }
    }
}

/// Integer types an `as` cast can silently truncate a u64 quantity into.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier shapes treated as time/byte quantities.
fn is_quantity_name(name: &str) -> bool {
    const SUFFIXES: &[&str] = &[
        "_ns", "_ms", "_us", "_sec", "_secs", "_bytes", "_nanos", "_millis", "_time",
    ];
    const EXACT: &[&str] = &[
        "ns", "ms", "us", "secs", "bytes", "time", "duration", "elapsed", "nanos", "millis",
    ];
    EXACT.contains(&name) || SUFFIXES.iter().any(|s| name.ends_with(s))
}

/// Paths exempt from `narrowing-cast`: the audited SimTime conversion
/// helpers, whose whole job is checked/saturating narrowing.
const NARROWING_EXEMPT: &[&str] = &["crates/des/src/time.rs"];

/// `narrowing-cast`: `<quantity> as u32`-style truncations outside the
/// audited SimTime helpers.
fn narrowing_cast(file: &SourceFile, out: &mut Vec<Violation>) {
    if NARROWING_EXEMPT.contains(&file.path.as_str()) {
        return;
    }
    let toks = &file.tokens;
    for idx in 0..toks.len() {
        if !file.is_ident(idx, "as")
            || !toks
                .get(idx + 1)
                .is_some_and(|t| NARROW_TARGETS.contains(&t.text.as_str()))
        {
            continue;
        }
        // A quantity-named identifier in the preceding expression window —
        // unless a cardinality method (`.len()`, `.count()`) sits closer to
        // the cast, in which case the value being narrowed is a count of
        // elements, not the quantity itself.
        let lo = idx.saturating_sub(8);
        let quantity = toks[lo..idx].iter().rev().find_map(|t| {
            if t.kind != TokenKind::Ident {
                return None;
            }
            if t.text == "len" || t.text == "count" {
                return Some(None);
            }
            if is_quantity_name(&t.text) {
                return Some(Some(t));
            }
            None
        });
        if let Some(Some(q)) = quantity {
            out.push(Violation {
                rule: "narrowing-cast",
                line: toks[idx].line,
                message: format!(
                    "`{} as {}` narrows a time/byte quantity; use the audited SimTime \
                     helpers or a checked conversion",
                    q.text,
                    toks[idx + 1].text
                ),
            });
        }
    }
}

/// `seqcst`: flat ban on `SeqCst`, everywhere including tests.
fn seqcst(file: &SourceFile, out: &mut Vec<Violation>) {
    for t in &file.tokens {
        if t.kind == TokenKind::Ident && t.text == "SeqCst" {
            out.push(Violation {
                rule: "seqcst",
                line: t.line,
                message: "SeqCst ordering: state the actual required ordering (Relaxed for \
                          the obs counters; Acquire/Release for handoffs) instead of a \
                          global fence"
                    .to_string(),
            });
        }
    }
}

/// `obs-ordering`: in `crates/obs`, Acquire/Release/AcqRel must carry an
/// `// ordering:` justification comment on the same or previous line.
fn obs_ordering(file: &SourceFile, out: &mut Vec<Violation>) {
    if !file.path.starts_with("crates/obs/") {
        return;
    }
    let toks = &file.tokens;
    for idx in 0..toks.len() {
        let t = &toks[idx];
        let is_ordering = t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "Acquire" | "Release" | "AcqRel")
            && idx >= 3
            && file.is_punct(idx - 1, ':')
            && file.is_punct(idx - 2, ':')
            && file.is_ident(idx - 3, "Ordering");
        if is_ordering && !file.comment_near(t.line, "ordering:") {
            out.push(Violation {
                rule: "obs-ordering",
                line: t.line,
                message: format!(
                    "`Ordering::{}` in the relaxed-atomics obs hot path without an \
                     `// ordering:` comment naming the happens-before edge it builds",
                    t.text
                ),
            });
        }
    }
}

/// Item keywords whose next identifier names the item being defined.
const DEFINERS: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod",
];

/// Whether the identifier at `idx` is the name in an item definition
/// (`fn name`, `static mut NAME`, ...) rather than a use of that name.
fn defines(file: &SourceFile, idx: usize) -> bool {
    let toks = &file.tokens;
    let mut k = idx;
    if k >= 2 && file.is_ident(k - 1, "mut") && file.is_ident(k - 2, "static") {
        k -= 1;
    }
    k >= 1
        && toks[k - 1].kind == TokenKind::Ident
        && DEFINERS.contains(&toks[k - 1].text.as_str())
        // `*const T` is a pointer type, not a const item.
        && !(toks[k - 1].text == "const" && k >= 2 && file.is_punct(k - 2, '*'))
}

/// The name token of the item a bare `pub` at `idx` introduces, when that
/// item is a fn, const, static or type; `None` for `pub use`, `pub mod`,
/// fields and restricted visibility (`pub(crate)`, which rustc's own
/// dead-code lint already covers).
fn pub_item_name(file: &SourceFile, idx: usize) -> Option<&Token> {
    let toks = &file.tokens;
    if file.is_punct(idx + 1, '(') {
        return None;
    }
    let mut j = idx + 1;
    // Qualifiers: `unsafe`, `async`, `extern "C"`, and `const` when a `fn`
    // follows it (`pub const fn`, as against `pub const NAME`).
    while let Some(t) = toks.get(j) {
        let qualifier = t.kind == TokenKind::Str
            || (t.kind == TokenKind::Ident
                && (matches!(t.text.as_str(), "unsafe" | "async" | "extern")
                    || (t.text == "const"
                        && toks.get(j + 1).is_some_and(|n| {
                            matches!(n.text.as_str(), "fn" | "unsafe" | "async" | "extern")
                        }))));
        if !qualifier {
            break;
        }
        j += 1;
    }
    let keyword = toks.get(j)?;
    if keyword.kind != TokenKind::Ident
        || keyword.text == "mod"
        || !DEFINERS.contains(&keyword.text.as_str())
    {
        return None;
    }
    j += 1;
    if keyword.text == "static" && file.is_ident(j, "mut") {
        j += 1;
    }
    toks.get(j).filter(|t| t.kind == TokenKind::Ident)
}

/// `test-only-pub`: a bare-`pub` fn, method, const, static or type in
/// non-test library code whose name no non-test token names outside a
/// definition. Callers are the identifiers of every non-test file and of
/// the caller-only sources, minus `#[cfg(test)]` items, `use` declarations
/// (a re-export is not a caller) and definition names. Name-based: any two
/// items sharing a name count each other's callers, so the rule errs toward
/// silence on common names like `new`.
fn test_only_pub(files: &[SourceFile], callers: &[SourceFile]) -> Vec<(usize, Violation)> {
    let mut used: BTreeSet<&str> = BTreeSet::new();
    for file in files.iter().filter(|f| f.kind != Test).chain(callers) {
        let mut in_use = false;
        for (idx, t) in file.tokens.iter().enumerate() {
            if in_use {
                in_use = !file.is_punct(idx, ';');
            } else if file.is_ident(idx, "use") {
                in_use = true;
            } else if t.kind == TokenKind::Ident
                && !file.in_test_code(t.line)
                && !defines(file, idx)
            {
                used.insert(&t.text);
            }
        }
    }
    let mut out = Vec::new();
    for (i, file) in files.iter().enumerate().filter(|(_, f)| f.kind == Lib) {
        for idx in 0..file.tokens.len() {
            if !file.is_ident(idx, "pub") {
                continue;
            }
            let Some(name) = pub_item_name(file, idx) else {
                continue;
            };
            if file.in_test_code(name.line) || used.contains(name.text.as_str()) {
                continue;
            }
            out.push((
                i,
                Violation {
                    rule: "test-only-pub",
                    line: name.line,
                    message: format!(
                        "`{}` is public but only test code names it: delete it with its \
                         tests, or annotate why a test needs it",
                        name.text
                    ),
                },
            ));
        }
    }
    out
}
