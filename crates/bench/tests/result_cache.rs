//! Result-cache equivalence: a figure run against a warm
//! content-addressed result cache performs **zero** simulated cycles
//! (pinned by the process-wide simulator cycle counter) and zero
//! training steps, and still produces cells and rendered text identical
//! to the cold run that populated the cache — the only permitted
//! difference is the `cache` provenance field flipping `"miss"` →
//! `"hit"`. A corrupted cache entry silently degrades to a re-simulated
//! miss and is repaired in place.
//!
//! Budgets follow the `determinism.rs` convention: quick shapes
//! shrunk (one scenario, small line-up, tiny budgets) so the repeated
//! runs stay test-suite friendly.

use std::path::PathBuf;
use std::sync::Mutex;

use bench::exp::backend::CellRecord;
use bench::exp::cache::{CacheStats, ResultCache};
use bench::exp::driver::run_matrix_cached;
use bench::exp::figures::{self, FigureKind};
use bench::exp::spec::{ExperimentSpec, Lineup, ScenarioSpec, TierParams};
use bench::CliArgs;
use rl_arb::training_epochs;

/// The simulator cycle counter is process-wide; tests measuring deltas
/// against it must not overlap. (Poisoning is irrelevant — a panicking
/// holder already failed the suite.)
static SIM_COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-result-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn args_for(tag: &str) -> CliArgs {
    CliArgs {
        quick: true,
        seed: 42,
        threads: 2,
        out_dir: PathBuf::from("results"),
        artifacts_dir: temp_dir(&format!("{tag}-artifacts")),
        ..CliArgs::default()
    }
}

/// Cells must match bit-for-bit once the hit/miss provenance stamp is
/// ignored.
fn strip_cache(cells: &[CellRecord]) -> Vec<CellRecord> {
    cells
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.cache = None;
            c
        })
        .collect()
}

fn scaled_fig05() -> (ExperimentSpec, TierParams) {
    let FigureKind::Matrix { spec, .. } = &figures::find("fig05").unwrap().kind else {
        panic!("fig05 must be a matrix figure")
    };
    let mut spec = spec();
    spec.scenarios.truncate(1); // the 4x4 mesh row
    spec.lineup = Lineup::parse(&["fifo", "nn", "global-age"]);
    let params = TierParams {
        warmup: 200,
        measure: 800,
        nn_epochs: 2,
        nn_epoch_cycles: 200,
        ..spec.quick
    };
    (spec, params)
}

fn scaled_routing() -> (ExperimentSpec, TierParams) {
    let FigureKind::Matrix { spec, .. } = &figures::find("routing").unwrap().kind else {
        panic!("routing must be a matrix figure")
    };
    let mut spec = spec();
    // Keep one mesh row and the degraded-mesh row (table routing around
    // missing links) so fault plans over distinct link sets stay covered.
    spec.scenarios.retain(|s| {
        let ScenarioSpec::Synthetic { label, .. } = s else { return false };
        label == "xy@mesh" || label == "table@degraded"
    });
    let params = TierParams { warmup: 100, measure: 600, ..spec.quick };
    (spec, params)
}

/// Runs the full cold/warm contract for one spec: cold populates the
/// cache (all misses), warm answers entirely from it with zero simulated
/// cycles, and both produce identical cells modulo the provenance stamp.
fn assert_cold_warm_contract(
    spec: &ExperimentSpec,
    params: &TierParams,
    seeds: &[u64],
    args: &CliArgs,
    cache_dir: &PathBuf,
) {
    let FigureKind::Matrix { render, .. } = &figures::find(&spec.figure).unwrap().kind else {
        panic!("matrix figure")
    };
    let cache = ResultCache::new(cache_dir);

    let mut cold_stats = CacheStats::default();
    let cold = run_matrix_cached(spec, params, seeds, args, &cache, &mut cold_stats);
    assert_eq!(cold_stats.hits, 0, "empty cache cannot hit");
    assert_eq!(cold_stats.misses, cold_stats.cells, "cold run misses every cell");
    assert!(
        cold.all_cells().iter().all(|c| {
            c.cache.as_deref() == Some("miss") && c.cell_hash.is_some()
        }),
        "cold cells carry miss provenance and a content hash"
    );

    let sim_before = noc_sim::simulated_cycles();
    let train_before = training_epochs();
    let mut warm_stats = CacheStats::default();
    let warm = run_matrix_cached(spec, params, seeds, args, &cache, &mut warm_stats);
    assert_eq!(
        noc_sim::simulated_cycles() - sim_before,
        0,
        "a fully warm cache must simulate zero cycles"
    );
    assert_eq!(
        training_epochs() - train_before,
        0,
        "a fully warm cache must train zero epochs"
    );
    assert_eq!(warm_stats.hits, warm_stats.cells, "warm run hits every cell");
    assert_eq!(warm_stats.misses, 0);
    assert_eq!(warm_stats.cells, cold_stats.cells);
    assert!(
        warm.all_cells().iter().all(|c| c.cache.as_deref() == Some("hit")),
        "warm cells carry hit provenance"
    );

    assert_eq!(
        strip_cache(&cold.all_cells()),
        strip_cache(&warm.all_cells()),
        "warm cells diverged from the cold run"
    );
    let cold_rendered = render(spec, params, &cold);
    let warm_rendered = render(spec, params, &warm);
    assert_eq!(cold_rendered.text, warm_rendered.text, "warm text diverged");
    assert_eq!(cold_rendered.table, warm_rendered.table, "warm table diverged");
}

#[test]
fn warm_cache_fig05_simulates_zero_cycles_and_matches_cold_run() {
    let _guard = SIM_COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (spec, params) = scaled_fig05();
    let args = args_for("fig05");
    let cache_dir = temp_dir("fig05");
    assert_cold_warm_contract(&spec, &params, &[42, 43], &args, &cache_dir);
}

#[test]
fn warm_cache_routing_with_faults_simulates_zero_cycles_and_matches_cold_run() {
    let _guard = SIM_COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (spec, params) = scaled_routing();
    let args = args_for("routing");
    let cache_dir = temp_dir("routing");
    assert_cold_warm_contract(&spec, &params, &[42], &args, &cache_dir);
}

/// A corrupted entry is indistinguishable from a missing one: the cell
/// silently re-simulates (a `"miss"`, same value), the rest of the
/// matrix still answers from the cache, and the store step repairs the
/// damaged file so the next run is fully warm again.
#[test]
fn corrupt_cache_entry_falls_back_to_simulation_and_is_repaired() {
    let _guard = SIM_COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (spec, params) = scaled_routing();
    let args = args_for("corrupt");
    let cache = ResultCache::new(temp_dir("corrupt"));
    let seeds = [42u64];

    let mut stats = CacheStats::default();
    let cold = run_matrix_cached(&spec, &params, &seeds, &args, &cache, &mut stats);
    let cold_cells = cold.all_cells();
    let victim = cold_cells[0].cell_hash.clone().expect("cached cells carry a hash");
    std::fs::write(cache.path_for(&victim), "{\"cache_schema_version\": garbage").unwrap();

    let mut stats = CacheStats::default();
    let retry = run_matrix_cached(&spec, &params, &seeds, &args, &cache, &mut stats);
    assert_eq!(stats.misses, 1, "only the corrupted cell re-simulates");
    assert_eq!(stats.hits, stats.cells - 1);
    let retry_cells = retry.all_cells();
    assert_eq!(
        retry_cells
            .iter()
            .filter(|c| c.cache.as_deref() == Some("miss"))
            .count(),
        1
    );
    assert_eq!(
        strip_cache(&cold_cells),
        strip_cache(&retry_cells),
        "re-simulated cell diverged from the cold run"
    );

    // The store step rewrote the damaged entry: fully warm again.
    let mut stats = CacheStats::default();
    run_matrix_cached(&spec, &params, &seeds, &args, &cache, &mut stats);
    assert_eq!(stats.misses, 0, "corrupt entry was repaired in place");
    assert_eq!(stats.hits, stats.cells);
}
