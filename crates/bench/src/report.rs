//! Shared reporting for the bench binaries, built on the `recshard-obs`
//! run-report layer.
//!
//! Every seeded bench binary prints the same determinism footer, asserting
//! that a same-seed replay reproduced the first run's fingerprint. It comes
//! from here, rendered through [`RunReport`] so the output format is
//! uniform across `des_bench`, `scenario_bench`, `serve_qps` and
//! `solver_scaling`.

pub use recshard_obs::RunReport;

/// The determinism footer every seeded bench binary prints: a same-seed
/// replay must reproduce the first run's fingerprint exactly.
///
/// # Panics
///
/// Panics if the fingerprints differ — a seeded run that fails to replay
/// byte-identically is a determinism bug, not a reportable result.
pub fn determinism_report(label: &str, first: u64, replay: u64) -> RunReport {
    assert_eq!(
        first, replay,
        "{label}: same-seed replay fingerprint {replay:#018x} must \
         reproduce the first run's {first:#018x}"
    );
    let mut report = RunReport::new(format!("determinism: {label}"));
    report
        .push_fingerprint("first run", first)
        .push_fingerprint("replay", replay)
        .push("byte-identical", true);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_report_renders_matching_fingerprints() {
        let report = determinism_report("demo", 0xABCD, 0xABCD);
        let text = report.render();
        assert!(text.starts_with("== determinism: demo ==\n"));
        assert!(text.contains("0x000000000000abcd"));
        assert!(text.contains("byte-identical: true"));
    }

    #[test]
    #[should_panic(expected = "must reproduce")]
    fn determinism_report_panics_on_drift() {
        determinism_report("demo", 1, 2);
    }
}
