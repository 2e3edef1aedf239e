//! `repro-quick`: the user-facing driver path, called in process through
//! `bench::exp::driver` with one worker thread: train `fig05` and
//! `selfheal` into an empty artifact store, run both figures once against
//! an empty result cache, then re-run them against the warm cache.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bench::exp::driver::{run_figures_queued, train_figure};
use bench::exp::{ResultCache, RunRecord};
use bench::CliArgs;

use crate::calib::{probe, sampled, time_ref, to_ref};
use crate::report::{digest_into, median, peak_rss_mb, report_windows, time, Fnv, Report};

const FIGURES: [&str; 2] = ["fig05", "selfheal"];
/// Worker threads of the driver: one, so the reference clock's probing
/// thread has the second core of a 2-core host to itself (with two, the
/// cold path's spread in host seconds reached 0.26 of its median and the
/// probing thread competed with the workers).
const THREADS: usize = 1;
/// Set-ups timed per run for `setup_s` (one takes ~0.1 ms).
const SETUP_REPS: usize = 301;
/// Timed windows per requested second (at least 10 beyond p95 from five
/// seconds on).
const WINDOWS_PER_SECOND: u64 = 40;
/// Warm passes per window: one pass (~6 ms) spawns `git describe` and
/// writes two records, so single passes are too spiky to give a steady p95.
const PASSES_PER_WINDOW: u64 = 4;
/// Repetitions of the traced cache and record-codec probes.
const PROBE_REPS: usize = 20;

/// A run-private scratch tree inside the benchmark's directory, removed on
/// drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path) -> std::io::Result<Self> {
        let dir = WorkDir(root.to_path_buf());
        for sub in ["artifacts", "cache", "out"] {
            std::fs::create_dir_all(dir.0.join(sub))?;
        }
        Ok(dir)
    }

    fn args(&self, seed: u64) -> CliArgs {
        CliArgs {
            quick: true,
            seed,
            threads: THREADS,
            out_dir: self.0.join("out"),
            artifacts_dir: self.0.join("artifacts"),
            cache_dir: self.0.join("cache"),
            quiet: true,
            ..CliArgs::default()
        }
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover tree only costs disk space. The parent
        // goes too once no concurrent run still uses it.
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("repro-{}", std::process::id()))
}

fn io(e: std::io::Error) -> String {
    format!("work directory: {e}")
}

/// Runs the workload; `seconds` sets the number of warm windows.
///
/// # Errors
///
/// Returns driver errors (unknown figure, unwritable directories).
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let mut r = Report::default();
    // Every RunRecord is stamped with `git describe`, an external process.
    // Searching PATH inside the work tree finds no `git`, so the stamp reads
    // "unknown" (as in any checkout without git) and process-spawn time
    // stays out of the measurement.
    let root = work_root();
    std::env::set_var("PATH", &root);
    let (mut setup, mut setup_ref) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (s, rs, dir) = time_ref(|| {
            let dir = WorkDir::create(&root)?;
            rl_arb::set_quiet(true);
            Ok::<_, std::io::Error>((dir.args(seed), dir))
        });
        setup.push(s);
        setup_ref.push(rs);
        drop(dir.map_err(io)?);
    }
    r.timed("setup_s", median(&setup_ref), SETUP_REPS);
    r.timed("host_setup_s", median(&setup), SETUP_REPS);
    let dir = WorkDir::create(&root).map_err(io)?;
    let args = dir.args(seed);

    let (epochs0, cycles0) = (rl_arb::training_epochs(), noc_sim::simulated_cycles());
    let (train_s, train_ref_s, trained) = sampled(|| {
        FIGURES
            .iter()
            .try_for_each(|f| train_figure(f, &args).map(drop))
    });
    trained?;
    let epochs = rl_arb::training_epochs() - epochs0;
    r.timed("rl-arb.train_s", train_s, 1);
    r.set("rl-arb.train_epochs", epochs as f64);
    r.timed(
        "rl-arb.train_ms_per_epoch",
        train_s * 1e3 / epochs.max(1) as f64,
        epochs as usize,
    );
    r.count("train_epochs", epochs);
    let train_cycles = noc_sim::simulated_cycles() - cycles0;
    r.count("train_cycles", train_cycles);

    let (cold_s, cold_ref_s, cold) = sampled(|| run_figures_queued(&FIGURES, &args));
    let cold = cold?;
    let cycles = noc_sim::simulated_cycles() - cycles0 - train_cycles;
    let cells: usize = cold.iter().map(|rec| rec.cells.len()).sum();
    r.timed("bench.cold_s", cold_s, 1);
    // Over the whole cold path (training simulates too): the cold pass
    // alone swings by more than the bound from run to run.
    let cold_path = (train_cycles + cycles) as f64;
    r.timed("cycles_per_s", cold_path / (train_ref_s + cold_ref_s), 2);
    r.timed("host_cycles_per_s", cold_path / (train_s + cold_s), 2);
    r.set("noc-sim.simulated_cycles", cycles as f64);
    r.set("bench.cells", cells as f64);
    r.count("simulated_cycles", cycles);
    r.count("cells", cells as u64);
    for rec in &cold {
        let missed = rec.cells.iter().all(|c| c.cache.as_deref() == Some("miss"));
        r.checks.check(missed, || {
            format!("{}: cold pass hit a cache entry", rec.figure)
        });
    }
    // Sim latency: fig05's 8x8 row, averaged over its four policies (the
    // trained NN cell alone varies too much from seed to seed).
    let row: Vec<_> = cold[0]
        .cells
        .iter()
        .filter(|c| c.scenario == "8x8")
        .collect();
    r.checks.check(row.len() == 4, || {
        format!("fig05 8x8 row has {} cells", row.len())
    });
    let mean = |m: &str| row.iter().map(|c| c.metric(m)).sum::<f64>() / row.len().max(1) as f64;
    r.set("lat_avg_cycles", mean("avg_latency"));
    r.set("lat_p99_cycles", mean("p99_latency"));

    let windows = seconds * WINDOWS_PER_SECOND;
    let (mut ms, mut rates) = (Vec::new(), Vec::new());
    for window in 0..windows {
        let mut window_s = 0.0;
        for pass in 0..PASSES_PER_WINDOW {
            let (c0, e0) = (noc_sim::simulated_cycles(), rl_arb::training_epochs());
            let (s, warm) = time(|| run_figures_queued(&FIGURES, &args));
            window_s += s;
            let warm = warm?;
            let simulated = noc_sim::simulated_cycles() - c0;
            let trained = rl_arb::training_epochs() - e0;
            let at = format!("warm pass {}", window * PASSES_PER_WINDOW + pass);
            r.checks.check(simulated == 0, || {
                format!("{at} simulated {simulated} cycles")
            });
            r.checks
                .check(trained == 0, || format!("{at} trained {trained} epochs"));
            for (w, c) in warm.iter().zip(&cold) {
                let hit = w.cells.iter().all(|c| c.cache.as_deref() == Some("hit"));
                r.checks.check(hit && w.table == c.table, || {
                    format!("{at}: {} differs from the cold pass", c.figure)
                });
            }
        }
        ms.push(window_s * 1e3);
        rates.push(probe());
        if !r.checks.failures.is_empty() {
            // A warm pass that simulates or trains takes as long as the cold
            // one; stop rather than run for many minutes.
            break;
        }
    }
    let warm_s: f64 = ms.iter().sum::<f64>() / 1e3;
    let passes = ms.len() * PASSES_PER_WINDOW as usize;
    report_windows(&mut r, &ms, &to_ref(&ms, &rates));
    r.timed(
        "bench.warm_cells_per_s",
        (cells * passes) as f64 / warm_s,
        passes,
    );
    r.set("peak_rss_mb", peak_rss_mb()?);

    let mut digest = Fnv::default();
    for rec in &cold {
        digest_into(
            &mut digest,
            &(
                &rec.table,
                &rec.cells.iter().map(|c| &c.metrics).collect::<Vec<_>>(),
            ),
        );
    }
    r.digest = digest.0;

    if trace {
        probe_bench_layer(&mut r, &cold, &args, &dir.0)?;
    }
    Ok(r)
}

/// Times the `bench` layer's storage calls over the run's own cells:
/// `ResultCache::store` into a fresh cache, `ResultCache::load` from the
/// run's cache, and `RunRecord::to_json` / `from_json` on its records.
fn probe_bench_layer(
    r: &mut Report,
    cold: &[RunRecord],
    args: &CliArgs,
    work: &Path,
) -> Result<(), String> {
    let cells: Vec<_> = cold.iter().flat_map(|rec| &rec.cells).collect();
    let hashes: Vec<&str> = cells
        .iter()
        .map(|c| {
            c.cell_hash
                .as_deref()
                .ok_or("cold cell without a cache hash")
        })
        .collect::<Result<_, _>>()?;

    let fresh = ResultCache::new(work.join("cache-probe"));
    let t0 = Instant::now();
    for _ in 0..PROBE_REPS {
        for (c, h) in cells.iter().zip(&hashes) {
            fresh.store(h, c).map_err(|e| format!("cache store: {e}"))?;
        }
    }
    let store_us = t0.elapsed().as_secs_f64() * 1e6 / (PROBE_REPS * cells.len()) as f64;

    let cache = ResultCache::from_args(args);
    let t0 = Instant::now();
    let mut loaded = 0;
    for _ in 0..PROBE_REPS {
        for h in &hashes {
            loaded += usize::from(black_box(cache.load(h)).is_some());
        }
    }
    let load_us = t0.elapsed().as_secs_f64() * 1e6 / (PROBE_REPS * hashes.len()) as f64;
    let expected = PROBE_REPS * hashes.len();
    r.checks.check(loaded == expected, || {
        format!("cache loaded {loaded} of {expected} cells")
    });

    let t0 = Instant::now();
    let mut texts = Vec::new();
    for _ in 0..PROBE_REPS {
        texts = cold.iter().map(RunRecord::to_json).collect();
    }
    let encode_ms = t0.elapsed().as_secs_f64() * 1e3 / (PROBE_REPS * cold.len()) as f64;
    let t0 = Instant::now();
    let mut decoded = Vec::new();
    for _ in 0..PROBE_REPS {
        decoded = texts
            .iter()
            .map(|t| RunRecord::from_json(t))
            .collect::<Result<Vec<_>, _>>()?;
    }
    let decode_ms = t0.elapsed().as_secs_f64() * 1e3 / (PROBE_REPS * cold.len()) as f64;
    r.checks.check(decoded == cold, || {
        "RunRecord JSON round trip changed a record".into()
    });

    let n = PROBE_REPS * cells.len();
    r.timed("bench.cache_store_us", store_us, n);
    r.timed("bench.cache_load_us", load_us, n);
    r.timed("bench.record_encode_ms", encode_ms, PROBE_REPS * cold.len());
    r.timed("bench.record_decode_ms", decode_ms, PROBE_REPS * cold.len());
    Ok(())
}
