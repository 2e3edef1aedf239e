//! The benchmark's exact counters, statistics digests and simulated-time
//! metrics repeat across runs of the same seed, and a traced run (timing
//! wrappers installed) reports the same ones as an untraced run — the
//! wrappers are pure observers.
//!
//! Each case runs the built benchmark with `--seconds 1`; run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml` (the
//! `repro-quick` case trains two small networks, ~20 s per run).

use std::process::Command;

/// The `perfbench-detail` and result lines of one run.
struct Run {
    detail: String,
    result: String,
}

fn run(workload: &str, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().rev();
    let result = lines.next().expect("result line").to_string();
    let detail = lines.next().expect("detail line");
    let detail = detail
        .strip_prefix("perfbench-detail ")
        .expect("detail prefix")
        .to_string();
    Run { detail, result }
}

/// The text of the flat JSON object or scalar after `"key": `.
fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let start = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pat.len();
    let rest = &json[start..];
    let end = if rest.starts_with('{') {
        rest.find('}').expect("object end") + 1
    } else {
        rest.find([',', '}']).expect("scalar end")
    };
    &rest[..end]
}

/// Everything that must repeat exactly: digest, counters of the simulated
/// work (not the wrappers' own call counts), and the simulated-time
/// metrics.
fn exact(r: &Run, sim_metrics: &[&str]) -> Vec<String> {
    let counters = field(&r.detail, "counters");
    let mut v = vec![field(&r.detail, "digest").to_string()];
    let keys = [
        "simulated_cycles",
        "grants",
        "arbiter_queries",
        "flit_hops",
        "delivered",
    ];
    for key in keys
        .into_iter()
        .chain(["ops_completed", "train_epochs", "cells"])
    {
        if counters.contains(&format!("\"{key}\"")) {
            v.push(format!("{key}={}", field(counters, key)));
        }
    }
    let values = field(&r.detail, "values");
    v.extend(
        sim_metrics
            .iter()
            .map(|m| format!("{m}={}", field(values, m))),
    );
    v
}

fn check(workload: &str, sim_metrics: &[&str]) {
    let a = run(workload, false);
    let b = run(workload, false);
    let traced = run(workload, true);
    for r in [&a, &b, &traced] {
        assert_eq!(
            field(&r.result, "correct"),
            "true",
            "{workload}: {}",
            r.detail
        );
        assert_eq!(field(&r.result, "failed"), "0", "{workload}: {}", r.detail);
    }
    let expected = exact(&a, sim_metrics);
    assert!(
        expected.len() > 2,
        "{workload}: no counters in {}",
        a.detail
    );
    assert_eq!(
        exact(&b, sim_metrics),
        expected,
        "{workload}: two untraced runs differ"
    );
    assert_eq!(
        exact(&traced, sim_metrics),
        expected,
        "{workload}: traced run differs"
    );
}

#[test]
fn mesh8_rl_repeats_and_tracing_observes_only() {
    check("mesh8-rl", &["lat_avg_cycles", "lat_p99_cycles"]);
}

#[test]
fn mesh8_nn_repeats_and_tracing_observes_only() {
    check("mesh8-nn", &["lat_avg_cycles", "lat_p99_cycles"]);
}

#[test]
fn apu_table1_repeats_and_tracing_observes_only() {
    check(
        "apu-table1",
        &["lat_avg_cycles", "lat_p99_cycles", "apu-sim.exec_cycles"],
    );
}

#[test]
fn repro_quick_repeats_and_tracing_observes_only() {
    check("repro-quick", &["lat_avg_cycles", "lat_p99_cycles"]);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "mesh8-rl", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
