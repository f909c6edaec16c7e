//! Per-rule positive/negative fixtures, driven through the same
//! [`analyze_sources`] seam the workspace scan uses. Every fixture is an
//! in-memory source string, so these tests pin the *behaviour* of each rule
//! — what it must flag and, just as important, what it must stay silent on.

use recshard_lint::{analyze_sources, FileKind};

/// Rules fired for `src` as a library file, as `(line, rule)` pairs.
fn lib(src: &str) -> Vec<(u32, String)> {
    at("crates/demo/src/lib.rs", FileKind::Lib, src)
}

fn at(path: &str, kind: FileKind, src: &str) -> Vec<(u32, String)> {
    analyze_sources(&[(path, kind, src)], &[])
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

fn rules_of(found: &[(u32, String)]) -> Vec<&str> {
    found.iter().map(|(_, r)| r.as_str()).collect()
}

// ---------------------------------------------------------------- hash-iter

#[test]
fn hash_iter_flags_method_iteration_of_declared_map() {
    let src = "use std::collections::HashMap;\n\
               fn f(m: HashMap<u64, u64>) -> Vec<u64> {\n    \
                   m.keys().copied().collect()\n\
               }\n";
    assert_eq!(lib(src), vec![(3, "hash-iter".to_string())]);
}

#[test]
fn hash_iter_flags_for_loop_over_constructed_set() {
    let src = "fn f() {\n    \
                   let s = std::collections::HashSet::new();\n    \
                   for x in &s {\n        let _ = x;\n    }\n\
               }\n";
    assert_eq!(lib(src), vec![(3, "hash-iter".to_string())]);
}

#[test]
fn hash_iter_flags_struct_field_iteration() {
    let src = "struct S {\n    counts: std::collections::HashMap<u64, u64>,\n}\n\
               impl S {\n    fn dump(&self) {\n        \
                   for (k, v) in &self.counts {\n            let _ = (k, v);\n        }\n    \
               }\n}\n";
    assert_eq!(lib(src), vec![(6, "hash-iter".to_string())]);
}

#[test]
fn hash_iter_ignores_btreemap_and_point_access() {
    let src = "use std::collections::{BTreeMap, HashMap};\n\
               fn f(b: BTreeMap<u64, u64>, h: HashMap<u64, u64>) -> u64 {\n    \
                   let _ = b.iter().count();\n    \
                   *h.get(&1).unwrap_or(&0)\n\
               }\n";
    assert_eq!(lib(src), vec![]);
}

#[test]
fn hash_iter_ignores_loops_over_call_results() {
    // `for x in m.ranked()` iterates whatever the call returned, not the map.
    let src = "fn f(m: std::collections::HashMap<u64, u64>) {\n    \
                   for x in ranked(&m) {\n        let _ = x;\n    }\n\
               }\n";
    assert_eq!(lib(src), vec![]);
}

#[test]
fn hash_iter_is_suppressed_by_trailing_allow() {
    let src = "fn f(m: std::collections::HashMap<u64, u64>) -> u64 {\n    \
                   // recshard-lint: allow(hash-iter) -- order-insensitive max\n    \
                   m.values().copied().max().unwrap_or(0)\n\
               }\n";
    assert_eq!(lib(src), vec![]);
}

// ---------------------------------------------------------------- float-acc

#[test]
fn float_acc_flags_float_sum_over_hash_values() {
    let src = "fn f(m: std::collections::HashMap<u64, f64>) -> f64 {\n    \
                   m.values().sum()\n\
               }\n";
    let found = lib(src);
    // Same line, so the (line, rule) sort puts float-acc first.
    assert_eq!(rules_of(&found), vec!["float-acc", "hash-iter"]);
}

#[test]
fn float_acc_flags_turbofish_float_sum() {
    let src = "fn f(m: std::collections::HashMap<u64, u64>) -> f64 {\n    \
                   m.values().map(|&v| v as f64).sum::<f64>()\n\
               }\n";
    let found = lib(src);
    assert!(rules_of(&found).contains(&"float-acc"), "{found:?}");
}

#[test]
fn float_acc_ignores_integer_sums() {
    // Integer addition commutes, so hash order cannot leak into the result
    // — only hash-iter itself fires.
    let src = "fn f(m: std::collections::HashMap<u64, u64>) -> u64 {\n    \
                   m.values().sum()\n\
               }\n";
    assert_eq!(rules_of(&lib(src)), vec!["hash-iter"]);
}

// ---------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_flags_ungated_instant_now() {
    let src = "use std::time::Instant;\n\
               fn f() -> std::time::Duration {\n    \
                   let t = Instant::now();\n    t.elapsed()\n\
               }\n";
    assert_eq!(lib(src), vec![(3, "wall-clock".to_string())]);
}

#[test]
fn wall_clock_accepts_bench_timing_gated_code() {
    let src = "fn f(include_timing: bool) -> u64 {\n    \
                   if include_timing {\n        \
                       let _ = std::time::Instant::now();\n    \
                   }\n    0\n\
               }\n";
    assert_eq!(lib(src), vec![]);
}

#[test]
fn wall_clock_accepts_env_var_gated_code() {
    let src = "fn f() {\n    \
                   if std::env::var(\"RECSHARD_BENCH_TIMING\").is_ok() {\n        \
                       let _ = std::time::Instant::now();\n    \
                   }\n\
               }\n";
    assert_eq!(lib(src), vec![]);
}

#[test]
fn wall_clock_ignores_bare_imports_and_types() {
    let src = "use std::time::Instant;\n\
               struct S {\n    started: Instant,\n}\n";
    assert_eq!(lib(src), vec![]);
}

// -------------------------------------------------------------- thread-fanin

#[test]
fn thread_fanin_flags_unannotated_spawn() {
    let src = "fn f() {\n    \
                   let h = std::thread::spawn(|| 1);\n    \
                   let _ = h.join();\n\
               }\n";
    assert_eq!(lib(src), vec![(2, "thread-fanin".to_string())]);
}

#[test]
fn thread_fanin_flags_scoped_spawn() {
    let src = "fn f() {\n    \
                   std::thread::scope(|scope| {\n        \
                       scope.spawn(|| 1);\n    \
                   });\n\
               }\n";
    let found = lib(src);
    assert!(
        found.contains(&(3, "thread-fanin".to_string())),
        "{found:?}"
    );
}

#[test]
fn thread_fanin_accepts_annotated_spawn() {
    let src = "fn f() {\n    \
                   // recshard-lint: allow(thread-fanin) -- joined in index order\n    \
                   let h = std::thread::spawn(|| 1);\n    \
                   let _ = h.join();\n\
               }\n";
    assert_eq!(lib(src), vec![]);
}

// ------------------------------------------------------------------- unwrap

#[test]
fn unwrap_flags_unwrap_and_expect_in_lib_code() {
    let src = "fn f(x: Option<u32>, y: Option<u32>) -> u32 {\n    \
                   x.unwrap() + y.expect(\"y\")\n\
               }\n";
    let found = lib(src);
    assert_eq!(rules_of(&found), vec!["unwrap", "unwrap"]);
}

#[test]
fn unwrap_ignores_non_panicking_relatives() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   x.unwrap_or(0).max(x.unwrap_or_default())\n\
               }\n";
    assert_eq!(lib(src), vec![]);
}

#[test]
fn unwrap_ignores_test_files_and_cfg_test_blocks() {
    let src = "fn prod(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n\
               #[cfg(test)]\n\
               mod tests {\n    \
                   #[test]\n    fn t() {\n        \
                       assert_eq!(super::prod(Some(3)).checked_add(1).unwrap(), 4);\n    \
                   }\n\
               }\n";
    assert_eq!(lib(src), vec![]);
    let src_test = "fn helper(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(
        at("crates/demo/tests/it.rs", FileKind::Test, src_test),
        vec![]
    );
}

// A `#[cfg(test)]` on one element of a comma-separated list covers that
// element only: a violation inside it is test code, one after it is not.

#[test]
fn cfg_test_on_a_struct_field_ends_at_the_field() {
    let src = "struct S {\n    \
                   #[cfg(test)]\n    \
                   probe: [u8; Some(4).unwrap()],\n    \
                   #[cfg(test)]\n    \
                   serial: Option<u8>,\n\
               }\n\
               impl S {\n    \
                   fn f(o: Option<u8>) -> u8 {\n        \
                       o.unwrap()\n    \
                   }\n\
               }\n";
    assert_eq!(lib(src), vec![(9, "unwrap".to_string())]);
}

#[test]
fn cfg_test_on_a_struct_literal_field_ends_at_the_field() {
    let src = "fn build(o: Option<u8>) -> S {\n    \
                   S {\n        \
                       #[cfg(test)]\n        \
                       probe: o.unwrap(),\n        \
                       live: o.unwrap(),\n    \
                   }\n\
               }\n";
    assert_eq!(lib(src), vec![(5, "unwrap".to_string())]);
}

#[test]
fn cfg_test_on_a_match_arm_ends_at_the_arm() {
    let src = "fn pick(k: u8, o: Option<u8>) -> u8 {\n    \
                   match k {\n        \
                       #[cfg(test)]\n        \
                       1 => {\n            \
                           o.unwrap()\n        \
                       }\n        \
                       #[cfg(test)]\n        \
                       0 => o.unwrap(),\n        \
                       _ => o.expect(\"set\"),\n    \
                   }\n\
               }\n";
    assert_eq!(lib(src), vec![(9, "unwrap".to_string())]);
}

#[test]
fn cfg_test_on_a_statement_ends_at_its_semicolon() {
    let src = "fn f(c: bool, o: Option<u8>) -> u8 {\n    \
                   #[cfg(test)]\n    \
                   let v = if c {\n        \
                       o.unwrap()\n    \
                   } else {\n        \
                       o.unwrap()\n    \
                   };\n    \
                   o.unwrap()\n\
               }\n";
    assert_eq!(lib(src), vec![(8, "unwrap".to_string())]);
}

#[test]
fn cfg_test_on_an_expression_block_ends_at_its_close_brace() {
    let src = "fn f(o: Option<u8>) -> u8 {\n    \
                   #[cfg(test)]\n    \
                   {\n        \
                       o.unwrap();\n    \
                   }\n    \
                   o.unwrap()\n\
               }\n";
    assert_eq!(lib(src), vec![(6, "unwrap".to_string())]);
}

#[test]
fn unwrap_ignores_bins_and_examples() {
    let src = "fn main() {\n    let x: Option<u32> = Some(1);\n    x.unwrap();\n}\n";
    assert_eq!(at("crates/demo/src/main.rs", FileKind::Bin, src), vec![]);
    assert_eq!(at("examples/demo.rs", FileKind::Example, src), vec![]);
}

// ----------------------------------------------------------- narrowing-cast

#[test]
fn narrowing_cast_flags_quantity_truncation() {
    let src = "fn f(elapsed_ns: u64) -> u32 {\n    elapsed_ns as u32\n}\n";
    assert_eq!(lib(src), vec![(2, "narrowing-cast".to_string())]);
}

#[test]
fn narrowing_cast_ignores_widening_and_counts() {
    let src = "fn f(arrivals_ns: &[u64], t_ns: u64) -> (u64, u32, u32) {\n    \
                   let widened = t_ns as u64;\n    \
                   let n = arrivals_ns.len() as u32;\n    \
                   let k = arrivals_ns.iter().filter(|&&a| a < t_ns).count() as u32;\n    \
                   (widened, n, k)\n\
               }\n";
    assert_eq!(lib(src), vec![]);
}

#[test]
fn narrowing_cast_exempts_the_simtime_helpers() {
    let src = "fn f(elapsed_ns: u64) -> u32 {\n    elapsed_ns as u32\n}\n";
    assert_eq!(at("crates/des/src/time.rs", FileKind::Lib, src), vec![]);
}

// ------------------------------------------------------------------- seqcst

#[test]
fn seqcst_flags_everywhere_including_tests() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::SeqCst)\n}\n";
    assert_eq!(lib(src), vec![(3, "seqcst".to_string())]);
    assert_eq!(
        at("crates/demo/tests/it.rs", FileKind::Test, src),
        vec![(3, "seqcst".to_string())]
    );
}

#[test]
fn seqcst_ignores_relaxed() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Relaxed)\n}\n";
    assert_eq!(lib(src), vec![]);
}

// ------------------------------------------------------------- obs-ordering

#[test]
fn obs_ordering_requires_justification_in_obs_crate() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               fn publish(a: &AtomicU64) {\n    a.store(1, Ordering::Release);\n}\n";
    assert_eq!(
        at("crates/obs/src/registry.rs", FileKind::Lib, src),
        vec![(3, "obs-ordering".to_string())]
    );
    // The same code outside crates/obs is not this rule's business.
    assert_eq!(lib(src), vec![]);
}

#[test]
fn obs_ordering_accepts_a_justified_edge() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               fn publish(a: &AtomicU64) {\n    \
                   // ordering: publishes the snapshot the reader Acquires.\n    \
                   a.store(1, Ordering::Release);\n\
               }\n";
    assert_eq!(at("crates/obs/src/registry.rs", FileKind::Lib, src), vec![]);
}

// ------------------------------------------------------------ test-only-pub

const LIB: &str = "crates/demo/src/lib.rs";

/// `(path, line, rule)` of every finding in a workspace made of `files`,
/// with `callers` read for their callers only (as `perfbench/src` is).
fn workspace(files: &[(&str, FileKind, &str)], callers: &[&str]) -> Vec<(String, u32, String)> {
    analyze_sources(files, callers)
        .into_iter()
        .map(|d| (d.path, d.line, d.rule))
        .collect()
}

fn finding(path: &str, line: u32, rule: &str) -> (String, u32, String) {
    (path.to_string(), line, rule.to_string())
}

#[test]
fn test_only_pub_flags_a_re_added_test_only_function() {
    let profiler = "pub struct DatasetProfiler;\n\
                    impl DatasetProfiler {\n    \
                        pub fn profile(&mut self) {}\n    \
                        pub fn offer(&mut self) {}\n\
                    }\n";
    let test = "fn t(p: &mut DatasetProfiler) {\n    p.offer();\n    p.profile();\n}\n";
    let bin = "fn main() {\n    let mut p = DatasetProfiler;\n    p.profile();\n}\n";
    let path = "crates/stats/src/profiler.rs";
    let found = workspace(
        &[
            (path, FileKind::Lib, profiler),
            ("tests/profiler.rs", FileKind::Test, test),
            ("crates/bench/src/bin/profile.rs", FileKind::Bin, bin),
        ],
        &[],
    );
    assert_eq!(found, vec![finding(path, 4, "test-only-pub")]);
}

#[test]
fn test_only_pub_covers_consts_statics_and_types_but_not_restricted_items() {
    let src = "pub const A: u32 = 1;\n\
               pub static mut B: u32 = 2;\n\
               pub struct C;\n\
               pub type D = u32;\n\
               pub trait E {}\n\
               pub enum F {}\n\
               pub const unsafe fn g() {}\n\
               pub(crate) fn h() {}\n\
               pub struct Used {\n    pub field: *const u32,\n}\n\
               pub mod m {}\n\
               pub use m::*;\n";
    let bin = "fn main() {\n    let _: Option<Used> = None;\n}\n";
    let found = workspace(
        &[
            (LIB, FileKind::Lib, src),
            ("examples/demo.rs", FileKind::Example, bin),
        ],
        &[],
    );
    let lines: Vec<u32> = found.iter().map(|(_, line, _)| *line).collect();
    assert_eq!(lines, vec![1, 2, 3, 4, 5, 6, 7], "{found:?}");
}

#[test]
fn test_only_pub_counts_a_caller_below_a_cfg_test_item() {
    // `EventQueue::peek_time`'s shape: its one caller follows a
    // `#[cfg(test)]` item, and only that item is test code.
    let engine = "pub struct EventQueue;\n\
                  impl EventQueue {\n    \
                      pub fn peek_time(&self) -> u64 {\n        0\n    }\n\
                  }\n";
    let test_only = "#[cfg(test)]\n\
                     fn probe(q: &EventQueue) -> u64 {\n    q.peek_time()\n}\n";
    let cluster =
        format!("{test_only}\nfn step(q: &EventQueue) -> u64 {{\n    q.peek_time()\n}}\n");
    let path = "crates/des/src/engine.rs";
    let with = |cluster: &str| {
        workspace(
            &[
                (path, FileKind::Lib, engine),
                ("crates/des/src/cluster.rs", FileKind::Lib, cluster),
            ],
            &[],
        )
    };
    assert_eq!(with(test_only), vec![finding(path, 3, "test-only-pub")]);
    assert_eq!(with(&cluster), vec![]);
}

#[test]
fn test_only_pub_does_not_count_use_or_re_exports() {
    let scenario = "pub fn parse_trace_csv(csv: &str) -> usize {\n    csv.len()\n}\n";
    let lib = "pub mod scenario;\npub use scenario::parse_trace_csv;\n";
    let other = "use crate::scenario::{parse_trace_csv};\n";
    let test = "fn t() {\n    assert_eq!(parse_trace_csv(\"\"), 0);\n}\n";
    let path = "crates/data/src/scenario.rs";
    let found = workspace(
        &[
            (path, FileKind::Lib, scenario),
            ("crates/data/src/lib.rs", FileKind::Lib, lib),
            ("crates/data/src/other.rs", FileKind::Lib, other),
            ("crates/data/tests/scenario.rs", FileKind::Test, test),
        ],
        &[],
    );
    assert_eq!(found, vec![finding(path, 1, "test-only-pub")]);
}

#[test]
fn test_only_pub_counts_perfbench_callers_without_linting_them() {
    let src = "pub fn total_counters() -> u64 {\n    0\n}\n";
    assert_eq!(
        workspace(&[(LIB, FileKind::Lib, src)], &[]),
        vec![finding(LIB, 1, "test-only-pub")]
    );
    // The caller-only source breaks the per-file rules and has an uncalled
    // `pub fn` of its own; none of that is reported.
    let perfbench = "pub fn main() {\n    \
                         let t = std::time::Instant::now();\n    \
                         let _ = Some(total_counters()).unwrap();\n    \
                         let _ = t;\n\
                     }\n";
    assert_eq!(
        workspace(&[(LIB, FileKind::Lib, src)], &[perfbench]),
        vec![]
    );
}

#[test]
fn test_only_pub_does_not_count_a_field_local_or_key_as_a_fn_caller() {
    // `GpuStation::jobs_served`'s shape: a field, a local and a
    // struct-literal key share the method's name; only a test calls it.
    let station = "pub struct Station {\n    \
                       jobs_served: u64,\n\
                   }\n\
                   impl Station {\n    \
                       pub fn jobs_served(&self) -> u64 {\n        \
                           self.jobs_served\n    \
                       }\n\
                   }\n\
                   pub fn open() -> Station {\n    \
                       let jobs_served = 0;\n    \
                       Station { jobs_served: jobs_served + 1 }\n\
                   }\n";
    let test = "fn t() {\n    assert_eq!(open().jobs_served(), 1);\n}\n";
    let bin = "fn main() {\n    let _ = open();\n}\n";
    let path = "crates/des/src/station.rs";
    let found = workspace(
        &[
            (path, FileKind::Lib, station),
            ("crates/des/tests/station.rs", FileKind::Test, test),
            ("crates/des/src/main.rs", FileKind::Bin, bin),
        ],
        &[],
    );
    assert_eq!(found, vec![finding(path, 5, "test-only-pub")]);
}

#[test]
fn test_only_pub_counts_calls_and_paths_as_fn_callers() {
    let src = "pub fn count() -> u64 {\n    0\n}\n\
               pub fn size_of<T>() -> usize {\n    0\n}\n";
    let callers = [
        "fn f(s: &S) -> u64 {\n    s.count()\n}\n",
        "fn f() -> u64 {\n    count()\n}\n",
        "fn f() -> u64 {\n    Self::count()\n}\n",
        "fn f() -> Vec<u64> {\n    [1].iter().map(|_| 0).chain(None.map(demo::count)).collect()\n}\n",
    ];
    let turbofish = "fn g() -> usize {\n    size_of::<u8>()\n}\n";
    for caller in callers {
        let with_size = format!("{caller}{turbofish}");
        let found = workspace(
            &[
                (LIB, FileKind::Lib, src),
                ("crates/demo/src/user.rs", FileKind::Lib, &with_size),
            ],
            &[],
        );
        assert_eq!(found, vec![], "{caller}");
        assert_eq!(
            workspace(&[(LIB, FileKind::Lib, src)], &[&with_size]),
            vec![]
        );
    }
    // A type keeps the bare-name rule: naming it in type position reaches it.
    let used = "pub struct Used;\n";
    let user = "fn h(_: Option<Used>) {}\n";
    assert_eq!(
        workspace(
            &[
                (LIB, FileKind::Lib, used),
                ("crates/demo/src/user.rs", FileKind::Lib, user),
            ],
            &[],
        ),
        vec![]
    );
}

#[test]
fn test_only_pub_allow_needs_a_reason_and_an_uncalled_item() {
    let annotated = |reason: &str| {
        format!("// recshard-lint: allow(test-only-pub){reason}\npub fn oracle() {{}}\n")
    };
    let kept = annotated(" -- the reference search");
    assert_eq!(workspace(&[(LIB, FileKind::Lib, &kept)], &[]), vec![]);
    let no_reason = annotated("");
    assert_eq!(
        workspace(&[(LIB, FileKind::Lib, &no_reason)], &[]),
        vec![finding(LIB, 1, "bad-allow")]
    );
    let bin = "fn main() {\n    oracle();\n}\n";
    assert_eq!(
        workspace(
            &[
                (LIB, FileKind::Lib, &kept),
                ("crates/demo/src/main.rs", FileKind::Bin, bin)
            ],
            &[]
        ),
        vec![finding(LIB, 1, "unused-allow")]
    );
}

// ------------------------------------------------------- annotation hygiene

#[test]
fn bad_allow_flags_missing_reason_and_unknown_rule() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   // recshard-lint: allow(unwrap)\n    \
                   x.unwrap()\n\
               }\n";
    let found = lib(src);
    assert_eq!(rules_of(&found), vec!["bad-allow"], "{found:?}");

    let src = "fn f() {\n    // recshard-lint: allow(no-such-rule) -- why\n    let _ = 1;\n}\n";
    let found = lib(src);
    assert!(rules_of(&found).contains(&"bad-allow"), "{found:?}");
}

#[test]
fn bad_allow_flags_unparseable_annotation() {
    let src = "fn f() {\n    // recshard-lint: allowing everything\n    let _ = 1;\n}\n";
    assert_eq!(rules_of(&lib(src)), vec!["bad-allow"]);
}

#[test]
fn unused_allow_flags_annotation_that_suppresses_nothing() {
    let src = "fn f() {\n    \
                   // recshard-lint: allow(unwrap) -- stale claim\n    \
                   let _ = 1;\n\
               }\n";
    assert_eq!(lib(src), vec![(2, "unused-allow".to_string())]);
}

#[test]
fn one_annotation_can_cover_multiple_rules() {
    let src = "fn f(m: std::collections::HashMap<u64, f64>) -> f64 {\n    \
                   // recshard-lint: allow(hash-iter, float-acc) -- tolerance-checked\n    \
                   m.values().sum()\n\
               }\n";
    assert_eq!(lib(src), vec![]);
}

// ----------------------------------------------------------- lexer plumbing

#[test]
fn code_inside_strings_and_comments_does_not_fire() {
    let src = "fn f() -> &'static str {\n    \
                   // example: m.values().sum::<f64>() over a HashMap\n    \
                   \"let t = Instant::now(); x.unwrap(); Ordering::SeqCst\"\n\
               }\n";
    assert_eq!(lib(src), vec![]);
}

#[test]
fn raw_strings_with_hashes_are_opaque() {
    let src = "fn f(m: std::collections::HashMap<u64, u64>) -> &'static str {\n    \
                   let _ = m.len();\n    \
                   r#\"m.iter() \"quoted\" Ordering::SeqCst\"#\n\
               }\n";
    assert_eq!(lib(src), vec![]);
}

#[test]
fn nested_block_comments_are_skipped_entirely() {
    let src = "/* outer /* inner x.unwrap() */ still comment Ordering::SeqCst */\n\
               fn f() -> u32 {\n    0\n}\n";
    assert_eq!(lib(src), vec![]);
}

#[test]
fn diagnostics_are_sorted_by_line_then_rule() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               fn f(m: std::collections::HashMap<u64, u64>, x: Option<u32>, a: &AtomicU64) -> u64 {\n    \
                   let _ = x.unwrap();\n    \
                   let _ = a.load(Ordering::SeqCst);\n    \
                   m.values().copied().sum::<u64>()\n\
               }\n";
    let found = lib(src);
    let mut sorted = found.clone();
    sorted.sort();
    assert_eq!(found, sorted);
    assert_eq!(
        rules_of(&found),
        vec!["unwrap", "seqcst", "hash-iter"],
        "{found:?}"
    );
}
