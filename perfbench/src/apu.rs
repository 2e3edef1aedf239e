//! `apu-table1`: the nine Table-1 benchmarks, four quadrant copies each,
//! run closed-loop to completion on the APU chip under the `rl-apu`
//! arbiter. Every program starts on an empty network.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use apu_sim::{run_apu_checked, ApuEngine, ApuTopology, EngineConfig, APU_MESH, NUM_QUADRANTS};
use apu_workloads::Benchmark;
use noc_arbiters::{make_arbiter, PolicyKind};
use noc_sim::{Arbiter, SimConfig, SimStats, Simulator, TrafficSource};

use crate::calib::{probe, time_ref, to_ref};
use crate::layers::{count_sim, report_sim_layers, ArbLayer, TracedTime};
use crate::probe::{ArbTally, TimedArbiter, TimedTraffic};
use crate::report::{digest_into, median, peak_rss_mb, report_windows, Fnv, Report};

/// Operation-count scale of every program (bfs runs ~19k cycles at 4).
const SCALE: f64 = 4.0;
/// Simulated cycles per timed window.
const WINDOW: u64 = 1_000;
/// Safety cap per program; a program still running here fails its check.
const MAX_CYCLES: u64 = 300_000;
/// Constructions of one nine-program pass timed for `setup_s`.
const SETUP_REPS: usize = 51;
/// Host seconds one nine-program pass takes on a 2-core x86-64 host.
const SECONDS_PER_PASS: u64 = 2;

/// The program seed of benchmark `bench`. Every pass repeats the same nine
/// programs: a pass must reproduce the first exactly, so only the first
/// needs the checked rerun.
fn program_seed(seed: u64, bench: usize) -> u64 {
    seed.wrapping_add((bench as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn arbiter(seed: u64) -> Box<dyn Arbiter> {
    make_arbiter(PolicyKind::RlApu, seed)
}

fn build<T: TrafficSource>(
    bench: Benchmark,
    seed: u64,
    arb: Box<dyn Arbiter>,
    wrap: impl FnOnce(ApuEngine) -> T,
) -> Result<Simulator<T>, String> {
    let apu = ApuTopology::build();
    let topo = apu.clone_topology();
    let specs = vec![bench.spec_scaled(SCALE); NUM_QUADRANTS];
    let engine = ApuEngine::new(apu, specs, EngineConfig::default(), seed);
    Simulator::new(topo, SimConfig::apu(APU_MESH, APU_MESH), arb, wrap(engine))
        .map_err(|e| e.to_string())
}

/// Every window of a run, in order, with the probe after it.
#[derive(Debug, Default)]
struct Windows {
    host_ms: Vec<f64>,
    rates: Vec<f64>,
    /// Whether the window ran all [`WINDOW`] cycles (a program's last
    /// window is usually shorter).
    full: Vec<bool>,
}

/// Runs `sim` to completion in windows of [`WINDOW`] cycles, recording
/// each in `windows` (with a probe after it) when given. Returns whether
/// the program completed and the host nanoseconds spent.
fn run_windows<T: TrafficSource>(
    sim: &mut Simulator<T>,
    mut windows: Option<&mut Windows>,
) -> (bool, u64) {
    let mut ns = 0;
    loop {
        let start = sim.cycle();
        let t0 = Instant::now();
        let done = sim.run_until_done(start + WINDOW);
        let dt = t0.elapsed();
        ns += dt.as_nanos() as u64;
        if let Some(w) = windows.as_deref_mut() {
            w.host_ms.push(dt.as_secs_f64() * 1e3);
            w.rates.push(probe());
            w.full.push(sim.cycle() - start == WINDOW);
        }
        if done || sim.cycle() >= MAX_CYCLES {
            return (done, ns);
        }
    }
}

/// Totals of the measured programs.
#[derive(Debug, Default)]
struct Totals {
    /// Summed counters (`latencies` stays empty: see `latency_counts`).
    stats: SimStats,
    /// Delivered packets per latency, for the pooled p99 without keeping
    /// a second copy of every sample.
    latency_counts: BTreeMap<u64, u64>,
    /// Mean completion cycle of each benchmark, summed over passes.
    exec_sum: Vec<f64>,
    ops_completed: u64,
    digest: Fnv,
}

/// FNV-1a digest of one program's statistics.
fn stats_digest(s: &SimStats) -> u64 {
    let mut h = Fnv::default();
    digest_into(&mut h, s);
    h.0
}

impl Totals {
    /// Adds one finished program; returns the digest of its statistics.
    fn absorb(&mut self, bench: usize, s: &SimStats, engine: &ApuEngine) -> u64 {
        let t = &mut self.stats;
        t.cycles += s.cycles;
        t.delivered += s.delivered;
        t.total_latency += s.total_latency;
        t.flits_on_links += s.flits_on_links;
        t.grants += s.grants;
        t.arbiter_queries += s.arbiter_queries;
        for &l in &s.latencies {
            *self.latency_counts.entry(l).or_default() += 1;
        }
        self.exec_sum.resize(Benchmark::ALL.len(), 0.0);
        self.exec_sum[bench] += engine.avg_execution_time(MAX_CYCLES);
        self.ops_completed += engine.total_ops_completed();
        let digest = stats_digest(s);
        digest_into(&mut self.digest, &(digest, engine.execution_times()));
        digest
    }

    /// Nearest-rank p99 of the pooled latencies (`SimStats`'s rule).
    fn latency_p99(&self) -> u64 {
        let rank = (0.99 * self.stats.delivered as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&latency, &count) in &self.latency_counts {
            seen += count;
            if seen >= rank {
                return latency;
            }
        }
        0
    }

    fn report(&self, r: &mut Report, passes: u64) {
        let s = &self.stats;
        r.set("lat_avg_cycles", s.avg_latency());
        r.set("lat_p99_cycles", self.latency_p99() as f64);
        let per_bench: Vec<f64> = self.exec_sum.iter().map(|e| e / passes as f64).collect();
        r.set("apu-sim.exec_cycles", bench::geomean(&per_bench));
        r.set("apu-sim.ops_completed", self.ops_completed as f64);
        r.count("ops_completed", self.ops_completed);
        count_sim(r, s);
        r.digest = self.digest.0;
    }
}

/// Runs the Table-1 set `seconds / 2` times (at least once), with program
/// seeds derived from `seed`.
///
/// # Errors
///
/// Returns an error if the static APU configuration is rejected.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let passes = (seconds / SECONDS_PER_PASS).max(1);
    if trace {
        traced(seed, passes)
    } else {
        untraced(seed, passes)
    }
}

fn programs(passes: u64) -> impl Iterator<Item = (u64, usize, Benchmark)> {
    (0..passes).flat_map(|p| {
        Benchmark::ALL
            .iter()
            .enumerate()
            .map(move |(i, &b)| (p, i, b))
    })
}

fn untraced(seed: u64, passes: u64) -> Result<Report, String> {
    let mut r = Report::default();
    let (mut setup, mut setup_ref) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (s, rs, sims) = time_ref(|| {
            programs(1)
                .map(|(_, i, b)| build(b, program_seed(seed, i), arbiter(seed), |e| e))
                .collect::<Result<Vec<_>, _>>()
        });
        sims?;
        setup.push(s);
        setup_ref.push(rs);
    }

    let mut totals = Totals::default();
    let mut windows = Windows::default();
    let mut ns = 0;
    let mut timed = Vec::new();
    for (p, i, b) in programs(passes) {
        let mut sim = build(b, program_seed(seed, i), arbiter(seed), |e| e)?;
        let (done, dt) = run_windows(&mut sim, Some(&mut windows));
        ns += dt;
        r.checks
            .check(done, || format!("{} pass {p} did not complete", b.name()));
        let digest = totals.absorb(i, sim.stats(), sim.traffic());
        if p == 0 {
            timed.push((digest, sim.traffic().execution_times()));
        } else {
            // Every pass repeats pass 0's programs exactly.
            let first = timed[i].0;
            r.checks.check(digest == first, || {
                format!("{} pass {p}: stats differ from pass 0", b.name())
            });
        }
    }
    r.set("peak_rss_mb", peak_rss_mb()?);
    r.timed("setup_s", median(&setup_ref), SETUP_REPS);
    r.timed("host_setup_s", median(&setup), SETUP_REPS);
    let ref_ms = to_ref(&windows.host_ms, &windows.rates);
    let cycles = totals.stats.cycles as f64;
    let n = windows.host_ms.len();
    r.timed(
        "cycles_per_s",
        cycles / (ref_ms.iter().sum::<f64>() / 1e3),
        n,
    );
    r.timed("host_cycles_per_s", cycles / (ns as f64 / 1e9), n);
    let full = |v: &[f64]| -> Vec<f64> {
        v.iter()
            .zip(&windows.full)
            .filter_map(|(&x, &f)| f.then_some(x))
            .collect()
    };
    report_windows(&mut r, &full(&windows.host_ms), &full(&ref_ms));
    totals.report(&mut r, passes);

    // Output check: each program rerun with the network and protocol
    // checkers on is clean and completes at the same cycles.
    for ((_, i, b), (digest, exec)) in programs(1).zip(timed) {
        let specs = vec![b.spec_scaled(SCALE); NUM_QUADRANTS];
        let c = run_apu_checked(
            specs,
            arbiter(seed),
            EngineConfig::default(),
            program_seed(seed, i),
            MAX_CYCLES,
            None,
        );
        let n = c.violations.len();
        r.checks
            .check(n == 0, || format!("{}: {n} violations", b.name()));
        let exec: Vec<u64> = exec.iter().map(|t| t.unwrap_or(MAX_CYCLES)).collect();
        r.checks.check(c.result.exec_times == exec, || {
            format!(
                "{}: checked exec times {:?} != {exec:?}",
                b.name(),
                c.result.exec_times
            )
        });
        let same = stats_digest(&c.result.stats) == digest;
        r.checks
            .check(same, || format!("{}: checked stats differ", b.name()));
    }
    Ok(r)
}

fn traced(seed: u64, passes: u64) -> Result<Report, String> {
    let mut r = Report::default();
    let tally = Rc::new(RefCell::new(ArbTally::default()));
    let mut totals = Totals::default();
    let mut plain_totals = Totals::default();
    let (mut plain_ns, mut probed_ns) = (0, 0);
    let (mut pull_ns, mut delivered_ns, mut delivered_calls) = (0, 0, 0);
    for (p, i, b) in programs(passes) {
        let seed_i = program_seed(seed, i);
        let mut sim = build(b, seed_i, arbiter(seed), |e| e)?;
        let timed = Box::new(TimedArbiter::new(arbiter(seed), Rc::clone(&tally), false));
        let mut probed = build(b, seed_i, timed, TimedTraffic::new)?;
        plain_ns += run_windows(&mut sim, None).1;
        let (done, dt) = run_windows(&mut probed, None);
        probed_ns += dt;
        r.checks
            .check(done, || format!("{} pass {p} did not complete", b.name()));
        let engine = probed.traffic();
        pull_ns += engine.pull_ns;
        delivered_ns += engine.delivered_ns;
        delivered_calls += engine.delivered_calls;
        totals.absorb(i, probed.stats(), &engine.inner);
        plain_totals.absorb(i, sim.stats(), sim.traffic());
    }
    totals.report(&mut r, passes);
    let (a, b) = (plain_totals.digest.0, r.digest);
    r.checks.check(a == b, || {
        format!("traced digest {b:016x} != untraced {a:016x}")
    });

    let cycles = totals.stats.cycles as f64;
    let time = TracedTime {
        step_ns: probed_ns as f64,
        noc_traffic_ns: 0.0,
        engine_ns: (pull_ns + delivered_ns) as f64,
    };
    report_sim_layers(
        &mut r,
        ArbLayer::NocArbiters,
        &tally.borrow(),
        &totals.stats,
        time,
    );
    r.set("apu-sim.pull_ns_per_cycle", pull_ns as f64 / cycles);
    r.set(
        "apu-sim.on_delivered_ns",
        delivered_ns as f64 / delivered_calls.max(1) as f64,
    );
    r.timed(
        "trace.overhead",
        probed_ns as f64 / plain_ns as f64,
        9 * passes as usize,
    );
    Ok(r)
}
