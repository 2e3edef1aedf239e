//! Artifact-cache equivalence: a figure run against a warm
//! content-addressed store performs **zero** training steps (pinned by
//! the process-wide trainer epoch counter) and still produces
//! byte-identical text tables and table rows (hence CSVs) to the cold
//! run that populated the store — and every NN cell records the recipe
//! hash of the checkpoint it was evaluated with.
//!
//! Budgets follow the `determinism.rs` convention: the fig09 quick
//! shape shrunk to one workload and two policies so the double run stays
//! test-suite friendly.

use std::path::PathBuf;

use bench::exp::driver::run_matrix;
use bench::exp::figures::{self, FigureKind};
use bench::exp::spec::{Lineup, ScenarioSpec, TierParams};
use bench::CliArgs;
use rl_arb::training_epochs;

fn temp_store_dir() -> PathBuf {
    std::env::temp_dir().join(format!("bench-artifact-cache-{}", std::process::id()))
}

#[test]
fn warm_store_fig09_run_trains_zero_epochs_and_matches_cold_run_bytewise() {
    let FigureKind::Matrix { spec, render, .. } = &figures::find("fig09").unwrap().kind
    else {
        panic!("fig09 must be a matrix figure")
    };
    let mut spec = spec();
    spec.scenarios = vec![ScenarioSpec::ApuWorkload { benchmark: "bfs".into() }];
    spec.lineup = Lineup::parse(&["global-age", "nn"]);
    let params = TierParams {
        max_cycles: 300_000,
        apu_scale: 0.02,
        nn_repeats: 1,
        ..spec.quick
    };
    let seeds = [42u64, 43];
    let artifacts_dir = temp_store_dir();
    let _ = std::fs::remove_dir_all(&artifacts_dir);
    let args = CliArgs {
        quick: true,
        seed: 42,
        threads: 2,
        out_dir: PathBuf::from("results"),
        artifacts_dir: artifacts_dir.clone(),
        ..CliArgs::default()
    };

    // Cold store: the NN slot trains and the checkpoint is written.
    let before_cold = training_epochs();
    let cold = run_matrix(&spec, &params, &seeds, &args);
    assert!(
        training_epochs() > before_cold,
        "cold store must train the NN slot"
    );

    // Warm store: the exact same matrix, zero training steps.
    let before_warm = training_epochs();
    let warm = run_matrix(&spec, &params, &seeds, &args);
    assert_eq!(
        training_epochs() - before_warm,
        0,
        "warm store re-run must perform zero training steps"
    );

    // Byte-identical results: raw cells, rendered text, and the table the
    // CSV is generated from.
    assert_eq!(cold.all_cells(), warm.all_cells(), "warm cells diverged");
    let cold_rendered = render(&spec, &params, &cold);
    let warm_rendered = render(&spec, &params, &warm);
    assert_eq!(cold_rendered.text, warm_rendered.text, "warm text diverged");
    assert_eq!(cold_rendered.table, warm_rendered.table, "warm table diverged");

    // Every NN cell carries the checkpoint's recipe hash, which addresses
    // a real artifact file; untrained policies carry none.
    let cells = warm.all_cells();
    let nn_cells: Vec<_> = cells.iter().filter(|c| c.policy == "nn").collect();
    assert_eq!(nn_cells.len(), seeds.len(), "one NN cell per seed");
    let hash = nn_cells[0]
        .artifact
        .as_deref()
        .expect("NN cell records its artifact hash");
    assert_eq!(hash.len(), 16, "FNV-1a 64 recipe hash");
    assert!(
        nn_cells.iter().all(|c| c.artifact.as_deref() == Some(hash)),
        "all NN cells share the one resolved artifact"
    );
    assert!(
        artifacts_dir.join(format!("{hash}.ckpt.json")).exists(),
        "recorded hash addresses a checkpoint in the store"
    );
    assert!(
        cells.iter().filter(|c| c.policy != "nn").all(|c| c.artifact.is_none()),
        "untrained policies must not claim an artifact"
    );

    let _ = std::fs::remove_dir_all(&artifacts_dir);
}
