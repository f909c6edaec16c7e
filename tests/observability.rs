//! Observability determinism contract, end to end.
//!
//! Three guarantees, asserted at integration level:
//!
//! 1. **Tracing is deterministic** — a seeded run exports byte-identical
//!    JSONL traces, Chrome `trace_event` JSON and metrics snapshots on
//!    every replay.
//! 2. **Observation never perturbs** — attaching a full collector leaves
//!    the serving report bit-identical, and a no-op sink leaves the skewed
//!    DES run on its golden fingerprint. The DES collector check sits in
//!    `recshard_bench::des_bench`'s tests.
//! 3. **Exports are well-formed** — the Chrome export is loadable
//!    `trace_event` JSON (metadata + spans + instants), and the metrics
//!    snapshot agrees with the run summary it was collected from.

use recshard_bench::des_bench::{traced_smoke, DesBenchConfig};
use recshard_bench::{skewed_model, Strategy};
use recshard_des::RunSummary;
use recshard_obs::{MetricValue, NoopSink, ObsBundle};
use recshard_serve::{ArrivalModel, InferenceServer, PolicyKind, ServeConfig};
use recshard_sharding::SystemSpec;
use recshard_stats::DatasetProfiler;

mod common;
use common::{skewed_des_simulator, SKEWED_DES_GOLDEN};

fn smoke_config() -> DesBenchConfig {
    let mut cfg = DesBenchConfig::tiny();
    cfg.iterations = 60;
    cfg
}

fn smoke_bundle() -> (RunSummary, ObsBundle) {
    traced_smoke(&smoke_config())
}

#[test]
fn noop_sink_leaves_the_golden_des_fingerprint_unchanged() {
    let plain = skewed_des_simulator(Strategy::RecShard).run();
    let mut noop = NoopSink;
    let traced = skewed_des_simulator(Strategy::RecShard)
        .with_obs(&mut noop)
        .run();
    assert_eq!(
        plain, traced,
        "a no-op sink must not perturb the run summary in any field"
    );
    assert_eq!(
        traced.fingerprint, SKEWED_DES_GOLDEN[3],
        "no-op-sink run drifted off the committed golden fingerprint \
         (actual {:#018x}, golden {:#018x})",
        traced.fingerprint, SKEWED_DES_GOLDEN[3]
    );
}

#[test]
fn traced_des_exports_are_byte_identical_across_replays() {
    let (summary_a, bundle_a) = smoke_bundle();
    let (summary_b, bundle_b) = smoke_bundle();
    assert_eq!(summary_a, summary_b);
    assert_eq!(
        bundle_a.trace.to_jsonl(),
        bundle_b.trace.to_jsonl(),
        "same seed must export a byte-identical JSONL trace"
    );
    assert_eq!(
        bundle_a.metrics.to_json(),
        bundle_b.metrics.to_json(),
        "same seed must export a byte-identical metrics snapshot"
    );
    assert_eq!(bundle_a.trace.to_chrome(), bundle_b.trace.to_chrome());
    assert_eq!(bundle_a.trace.fingerprint(), bundle_b.trace.fingerprint());
    assert_eq!(
        bundle_a.metrics.fingerprint(),
        bundle_b.metrics.fingerprint()
    );
}

#[test]
fn traced_des_metrics_agree_with_the_run_summary() {
    let cfg = smoke_config();
    let (summary, bundle) = smoke_bundle();
    let metric = |name: &str| -> &MetricValue {
        &bundle
            .metrics
            .entries
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .1
    };
    assert_eq!(
        metric("des.iterations"),
        &MetricValue::Counter(cfg.iterations)
    );
    assert_eq!(
        metric("des.exchanges"),
        &MetricValue::Counter(cfg.iterations)
    );
    assert_eq!(
        metric("des.events"),
        &MetricValue::Gauge(summary.events as f64)
    );
    match metric("des.sojourn_ms") {
        MetricValue::Quantile(q) => {
            assert_eq!(q.count, cfg.iterations);
            assert!(
                (q.summary.max - summary.iteration_time.max).abs() < 1e-9,
                "the sojourn quantile sink must see the same samples the \
                 summary reports"
            );
        }
        other => panic!("expected quantile, got {other:?}"),
    }
}

#[test]
fn chrome_trace_export_is_valid_trace_event_json() {
    let (_, bundle) = smoke_bundle();
    let chrome = bundle.trace.to_chrome();
    assert!(chrome.starts_with("{\"traceEvents\":[\n"));
    assert!(chrome.trim_end().ends_with("]}"));
    let body = chrome
        .trim_start_matches("{\"traceEvents\":[\n")
        .trim_end()
        .trim_end_matches("]}")
        .trim_end();
    let mut metadata = 0;
    let mut spans = 0;
    let mut instants = 0;
    for line in body.lines() {
        let event = line.trim().trim_end_matches(',');
        assert!(
            event.starts_with('{') && event.ends_with('}'),
            "malformed trace_event line: {event}"
        );
        if event.contains("\"ph\":\"M\"") {
            metadata += 1;
        } else if event.contains("\"ph\":\"X\"") {
            spans += 1;
            assert!(event.contains("\"dur\":"), "spans carry a duration");
        } else if event.contains("\"ph\":\"i\"") {
            instants += 1;
        } else {
            panic!("unexpected phase in trace_event line: {event}");
        }
        if metadata == 0 || !event.contains("\"ph\":\"M\"") {
            assert!(event.contains("\"ts\":"), "events carry a timestamp");
        }
    }
    assert!(
        metadata >= 4,
        "per-GPU + barrier/exchange/control lanes named"
    );
    assert!(spans > 0, "station service renders as complete spans");
    assert!(instants > 0, "iteration completions render as instants");
    // Metadata lines match the GPU lanes: a 4-GPU run names gpu 0..=3.
    for gpu in 0..4 {
        assert!(
            chrome.contains(&format!("\"args\":{{\"name\":\"gpu {gpu}\"}}")),
            "lane metadata for gpu {gpu} missing"
        );
    }
}

#[test]
fn traced_serve_run_matches_untraced_and_replays_byte_identically() {
    let model = skewed_model(24);
    let shards = 2;
    let system = SystemSpec::uniform(
        shards,
        model.total_bytes() / (24 * shards as u64),
        model.total_bytes(),
        1555.0,
        16.0,
    );
    let profile = DatasetProfiler::profile_model(&model, 4_000, 0x5E21);
    let plan = Strategy::SizeBased.plan(&model, &profile, &system);
    let config = ServeConfig {
        queries: 400,
        warmup: 100,
        batch_size: 8,
        seed: 0x5E21,
        policy: PolicyKind::StatGuided,
        arrival: ArrivalModel::FixedRate { interval_us: 50.0 },
        ..ServeConfig::default()
    };
    let plain = InferenceServer::run(&model, &plan, &profile, &system, config);
    let (traced, bundle_a) = InferenceServer::run_traced(&model, &plan, &profile, &system, config);
    assert_eq!(
        plain, traced,
        "tracing must not perturb the serving report, fingerprint included"
    );
    let (_, bundle_b) = InferenceServer::run_traced(&model, &plan, &profile, &system, config);
    assert_eq!(bundle_a.trace.to_jsonl(), bundle_b.trace.to_jsonl());
    assert_eq!(bundle_a.metrics.to_json(), bundle_b.metrics.to_json());
    let names: std::collections::HashSet<&str> = bundle_a
        .trace
        .records()
        .iter()
        .map(|r| r.event.name())
        .collect();
    for expected in ["query_served", "query_latency", "cache_shard"] {
        assert!(names.contains(expected), "{expected} records missing");
    }
}
