//! Bench binaries parse `RECSHARD_BENCH_BASELINE` before their sweep and
//! exit non-zero on a wrong or garbled file instead of passing every gate.

use std::process::Command;

#[test]
fn bench_binaries_exit_non_zero_on_a_wrong_or_garbled_baseline() {
    let dir = std::env::temp_dir().join(format!("recshard-baseline-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let garbled = dir.join("garbled.json");
    std::fs::write(&garbled, "{\n  \"bench\": ").expect("write garbled baseline");
    let committed = |name: &str| format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    for (bin, wrong_bench) in [
        (
            env!("CARGO_BIN_EXE_des_bench"),
            committed("BENCH_solver.json"),
        ),
        (
            env!("CARGO_BIN_EXE_scenario_bench"),
            committed("BENCH_des.json"),
        ),
        (
            env!("CARGO_BIN_EXE_solver_scaling"),
            committed("BENCH_scenarios.json"),
        ),
        (env!("CARGO_BIN_EXE_serve_qps"), committed("BENCH_des.json")),
    ] {
        let garbled = garbled.to_str().unwrap();
        for (baseline, error) in [(&*wrong_bench, "artifact of bench"), (garbled, "line 2")] {
            let out = Command::new(bin)
                .current_dir(&dir)
                .env("RECSHARD_BENCH_BASELINE", baseline)
                .output()
                .expect("spawn bench binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{bin} accepted {baseline}");
            assert!(stderr.contains(error), "{bin} on {baseline}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
