//! The unified `repro` driver must reproduce the retired per-figure
//! binaries exactly — same text, same numbers — and be invisible to the
//! worker count: every check runs at 1 and at 8 threads.
//!
//! The references are goldens frozen from the binaries' report cores —
//! the Fig. 5 report and the APU seed sweep behind Figs. 9–11 — before
//! those cores were deleted, at the shapes below; CHANGES.md records the
//! command that wrote them. Budgets are the `--quick` shapes scaled down ~10× so the
//! double runs stay test-suite friendly; the sweep *structure* — scenario
//! order, line-up order, seed order, NN training calls — is exactly the
//! binaries'.

use std::path::PathBuf;

use bench::exp::driver::run_matrix;
use bench::exp::figures::{self, FigureKind};
use bench::exp::spec::{ExperimentSpec, Lineup, ScenarioSpec, TierParams};
use bench::CliArgs;

/// The legacy Fig. 5 report at warmup 200, measure 800, 2 NN training
/// epochs of 250 cycles, seed 42.
const LEGACY_FIG05: &str = include_str!("golden/legacy_fig05.txt");

/// The legacy APU seed sweep on bfs at scale 0.02, seeds [42, 43],
/// max_cycles 300,000, without the NN column: `policy, avg_exec,
/// tail_exec` rows with the seed means in Rust's round-trip float form.
const LEGACY_APU_BFS: &str = include_str!("golden/legacy_apu_bfs.tsv");

fn args(threads: usize) -> CliArgs {
    CliArgs {
        quick: true,
        seed: 42,
        threads,
        out_dir: PathBuf::from("results"),
        // A per-process, per-thread-count store: each run trains its own
        // NN, independent of whatever `results/artifacts/` holds.
        artifacts_dir: std::env::temp_dir().join(format!(
            "bench-determinism-artifacts-{}-t{threads}",
            std::process::id()
        )),
        ..CliArgs::default()
    }
}

/// The matrix spec of a registered figure.
fn matrix_spec(name: &str) -> ExperimentSpec {
    let FigureKind::Matrix { spec, .. } = &figures::find(name).unwrap().kind else {
        panic!("{name} must be a matrix figure")
    };
    spec()
}

/// Driver text output for fig05 is byte-identical to the legacy
/// `fig05_synthetic` binary's report, and the full cell set (raw values,
/// not just the rounded table) is identical for 1 and 8 threads.
#[test]
fn fig05_driver_matches_legacy_golden_at_1_and_8_threads() {
    let spec = matrix_spec("fig05");
    let params = TierParams {
        warmup: 200,
        measure: 800,
        nn_epochs: 2,
        nn_epoch_cycles: 250,
        ..spec.quick
    };
    let FigureKind::Matrix { render, .. } = &figures::find("fig05").unwrap().kind else {
        unreachable!()
    };
    let legacy_text = format!(
        "== Fig. 5: message latency, uniform random (normalized to Global-age) ==\n\n{LEGACY_FIG05}"
    );
    let runs: Vec<_> = [1, 8]
        .into_iter()
        .map(|threads| {
            let data = run_matrix(&spec, &params, &[42], &args(threads));
            let text = render(&spec, &params, &data).text;
            assert_eq!(
                text, legacy_text,
                "driver fig05 text (threads {threads}) diverged from the legacy golden"
            );
            data.all_cells()
        })
        .collect();
    assert_eq!(runs[0], runs[1], "thread count changed driver cells");
}

/// The driver's seed-mean accumulation on the fig09 path reproduces the
/// legacy sweep's numbers bit-for-bit (same policy order, same
/// increasing-seed summation), for serial and parallel dispatch.
#[test]
fn fig09_driver_matches_legacy_golden_at_1_and_8_threads() {
    let mut spec = matrix_spec("fig09");
    // Tiny-budget shape: one workload, the six untrained policies.
    spec.scenarios = vec![ScenarioSpec::ApuWorkload {
        benchmark: "bfs".into(),
    }];
    spec.lineup = Lineup::parse(&[
        "round-robin",
        "islip",
        "fifo",
        "probdist",
        "rl-apu",
        "global-age",
    ]);
    spec.nn = None;
    let params = TierParams {
        max_cycles: 300_000,
        apu_scale: 0.02,
        ..spec.quick
    };

    let legacy: Vec<(&str, f64, f64)> = LEGACY_APU_BFS
        .lines()
        .skip(1)
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            (f[0], f[1].parse().unwrap(), f[2].parse().unwrap())
        })
        .collect();
    assert_eq!(legacy.len(), spec.lineup.entries.len());

    for threads in [1, 8] {
        let data = run_matrix(&spec, &params, &[42, 43], &args(threads));
        let sc = &data.scenarios[0];
        let avgs = sc.means("avg_exec");
        let tails = sc.means("tail_exec");
        for (p, (name, legacy_avg, legacy_tail)) in legacy.iter().enumerate() {
            assert_eq!(
                sc.display[p], *name,
                "line-up order differs from the legacy sweep"
            );
            assert_eq!(
                avgs[p].to_bits(),
                legacy_avg.to_bits(),
                "{name} (threads {threads}): avg-exec mean diverged from the legacy golden"
            );
            assert_eq!(
                tails[p].to_bits(),
                legacy_tail.to_bits(),
                "{name} (threads {threads}): tail-exec mean diverged from the legacy golden"
            );
        }
    }
}
