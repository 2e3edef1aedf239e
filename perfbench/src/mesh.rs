//! `mesh8-rl` and `mesh8-nn`: the Fig. 5 operating point (8×8 mesh,
//! uniform-random traffic at 0.20 packets/node/cycle), timed in steady
//! state after a warm-up, under the distilled `rl-synth-8x8` arbiter or
//! the frozen NN policy.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use nn_mlp::{Checkpoint, Scratch};
use noc_arbiters::{make_arbiter, PolicyKind};
use noc_sim::{
    Arbiter, OutputCtx, Pattern, SimConfig, Simulator, SyntheticTraffic, Topology, TrafficSource,
};

use crate::calib::{probe, time_ref, to_ref};
use crate::layers::{count_sim, report_sim_layers, ArbLayer, TracedTime};
use crate::probe::{ArbTally, SampledRouter, TimedArbiter, TimedTraffic};
use crate::report::{digest_into, median, peak_rss_mb, report_windows, time, Fnv, Report};

/// Mesh side.
const SIDE: u16 = 8;
/// Offered load, packets/node/cycle (Fig. 5's 8×8 point).
const RATE: f64 = 0.20;
/// Cycles run (and discarded) before measuring.
const WARMUP: u64 = 2_000;
/// Constructions timed per run for `setup_s`.
const SETUP_REPS: usize = 9;
/// Timed windows per requested second.
const WINDOWS_PER_SECOND: u64 = 150;
/// Passes over the captured routers in the NN attribution replay.
const REPLAY_PASSES: usize = 40;

/// The arbiter a mesh workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The paper's distilled 8×8 policy (`rl-synth-8x8`).
    Distilled,
    /// The frozen NN policy, f32 batched, from the stored checkpoint.
    Nn,
}

impl Policy {
    /// Simulated cycles per timed window, sized so one window takes about
    /// 6 ms on a 2-core x86-64 host: short enough that the reference probe
    /// after it sees the same host conditions.
    fn window(self) -> u64 {
        match self {
            Policy::Distilled => 250,
            Policy::Nn => 100,
        }
    }

    fn layer(self) -> ArbLayer {
        match self {
            Policy::Distilled => ArbLayer::NocArbiters,
            Policy::Nn => ArbLayer::RlArb,
        }
    }
}

/// Path of the stored 8×8 checkpoint (`repro train fig05 --quick`,
/// seed 42). Stored weights keep training-code changes out of `mesh8-nn`.
fn checkpoint_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("data/fig05-8x8-quick.ckpt.json")
}

fn load_checkpoint() -> Result<Checkpoint, String> {
    let path = checkpoint_path();
    Checkpoint::load(&path).map_err(|e| format!("loading {}: {e}", path.display()))
}

fn make_policy(policy: Policy, seed: u64) -> Result<Box<dyn Arbiter>, String> {
    Ok(match policy {
        Policy::Distilled => make_arbiter(PolicyKind::RlSynth8x8, seed),
        Policy::Nn => Box::new(rl_arb::policy_from_checkpoint(&load_checkpoint()?)?),
    })
}

/// Builds the simulator with the arbiter and traffic source passed
/// through `wrap_arb` / `wrap_traffic`, and runs the warm-up.
fn build<T: TrafficSource>(
    policy: Policy,
    seed: u64,
    wrap_arb: impl FnOnce(Box<dyn Arbiter>) -> Box<dyn Arbiter>,
    wrap_traffic: impl FnOnce(SyntheticTraffic) -> T,
    checked: bool,
) -> Result<Simulator<T>, String> {
    let topo = Topology::uniform_mesh(SIDE, SIDE).map_err(|e| e.to_string())?;
    let cfg = SimConfig::synthetic(SIDE, SIDE);
    let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, RATE, cfg.num_vnets, seed);
    let arb = wrap_arb(make_policy(policy, seed)?);
    let mut sim =
        Simulator::new(topo, cfg, arb, wrap_traffic(traffic)).map_err(|e| e.to_string())?;
    if checked {
        sim.enable_invariant_checker();
    }
    sim.run(WARMUP);
    sim.reset_stats();
    Ok(sim)
}

fn plain(policy: Policy, seed: u64, checked: bool) -> Result<Simulator<SyntheticTraffic>, String> {
    build(policy, seed, |a| a, |t| t, checked)
}

fn digest<T: TrafficSource>(sim: &Simulator<T>) -> u64 {
    let mut h = Fnv::default();
    digest_into(&mut h, sim.stats());
    h.0
}

/// Sim-time metrics and exact counts of the measured window.
fn report_sim<T: TrafficSource>(r: &mut Report, sim: &Simulator<T>) {
    let s = sim.stats();
    r.set("lat_avg_cycles", s.avg_latency());
    r.set("lat_p99_cycles", s.latency_percentile(99.0) as f64);
    count_sim(r, s);
    r.digest = digest(sim);
}

/// Runs a mesh workload for about `seconds` seconds of host time.
///
/// # Errors
///
/// Returns an error when the checkpoint cannot be loaded or the
/// configuration is rejected.
pub fn run(policy: Policy, seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let windows = seconds * WINDOWS_PER_SECOND;
    if trace {
        traced(policy, seed, windows)
    } else {
        untraced(policy, seed, windows)
    }
}

fn untraced(policy: Policy, seed: u64, windows: u64) -> Result<Report, String> {
    let mut r = Report::default();
    let (mut setup, mut setup_ref) = (Vec::new(), Vec::new());
    let mut sim = None;
    for _ in 0..SETUP_REPS {
        let (s, rs, built) = time_ref(|| plain(policy, seed, false));
        setup.push(s);
        setup_ref.push(rs);
        sim = Some(built?);
    }
    let mut sim = sim.expect("SETUP_REPS > 0");
    let (mut ms, mut rates) = (Vec::new(), Vec::new());
    for _ in 0..windows {
        let (s, ()) = time(|| sim.run(policy.window()));
        ms.push(s * 1e3);
        rates.push(probe());
    }
    let ref_ms = to_ref(&ms, &rates);
    r.set("peak_rss_mb", peak_rss_mb()?);
    r.timed("setup_s", median(&setup_ref), SETUP_REPS);
    r.timed("host_setup_s", median(&setup), SETUP_REPS);
    let cycles = sim.stats().cycles as f64;
    let sum_s = |v: &[f64]| v.iter().sum::<f64>() / 1e3;
    r.timed("cycles_per_s", cycles / sum_s(&ref_ms), ms.len());
    r.timed("host_cycles_per_s", cycles / sum_s(&ms), ms.len());
    report_windows(&mut r, &ms, &ref_ms);
    report_sim(&mut r, &sim);

    // Output check: the same run with the invariant checker on is clean
    // and bit-identical.
    let mut checked = plain(policy, seed, true)?;
    checked.run(windows * policy.window());
    let violations = checked.total_invariant_violations();
    r.checks.check(violations == 0, || {
        format!("{violations} invariant violations")
    });
    let (a, b) = (r.digest, digest(&checked));
    r.checks.check(a == b, || {
        format!("checked rerun digest {b:016x} != timed {a:016x}")
    });
    Ok(r)
}

fn traced(policy: Policy, seed: u64, windows: u64) -> Result<Report, String> {
    let mut r = Report::default();
    let tally = Rc::new(RefCell::new(ArbTally::default()));
    let sample = policy == Policy::Nn;
    let t = Rc::clone(&tally);
    let mut probed = build(
        policy,
        seed,
        move |a| Box::new(TimedArbiter::new(a, t, sample)),
        TimedTraffic::new,
        false,
    )?;
    let mut sim = plain(policy, seed, false)?;
    *tally.borrow_mut() = ArbTally::default();
    probed.traffic_mut().reset_counts();

    // Alternate untraced and traced windows so host drift hits both.
    let (mut plain_s, mut probed_ns) = (0.0, 0u64);
    for _ in 0..windows {
        plain_s += time(|| sim.run(policy.window())).0;
        let t0 = Instant::now();
        probed.run(policy.window());
        probed_ns += t0.elapsed().as_nanos() as u64;
    }
    report_sim(&mut r, &probed);
    let (a, b) = (digest(&sim), r.digest);
    r.checks.check(a == b, || {
        format!("traced digest {b:016x} != untraced {a:016x}")
    });

    let tally = tally.borrow();
    let cycles = probed.stats().cycles;
    let time = TracedTime {
        step_ns: probed_ns as f64,
        noc_traffic_ns: probed.traffic().busy_ns() as f64,
        engine_ns: 0.0,
    };
    report_sim_layers(&mut r, policy.layer(), &tally, probed.stats(), time);
    let overhead = (probed_ns as f64 / 1e9) / plain_s;
    r.timed("trace.overhead", overhead, windows as usize);
    if policy == Policy::Nn {
        r.set(
            "nn-mlp.rows_per_cycle",
            tally.nn_rows as f64 / cycles as f64,
        );
        r.count("nn_rows", tally.nn_rows);
        replay(&mut r, &tally.samples)?;
    }
    Ok(r)
}

/// NN attribution replay: re-runs captured contended routers through the
/// policy's two stages — `StateEncoder::encode_append` into one row-major
/// batch per router, then `Mlp::forward_batch_into` — timing each stage.
fn replay(r: &mut Report, samples: &[SampledRouter]) -> Result<(), String> {
    let ckpt = load_checkpoint()?;
    let encoder = rl_arb::encoder_from_checkpoint(&ckpt)?;
    let net = &ckpt.model;
    let rows: usize = samples.iter().map(|s| s.outputs.len()).sum();
    r.checks.check(rows > 0, || {
        "no contended routers captured for replay".into()
    });
    if rows == 0 {
        return Ok(());
    }
    let mut batches = vec![Vec::new(); samples.len()];
    let t0 = Instant::now();
    for _ in 0..REPLAY_PASSES {
        for (s, batch) in samples.iter().zip(&mut batches) {
            batch.clear();
            for (out_port, candidates) in &s.outputs {
                let ctx = OutputCtx {
                    router: s.router,
                    out_port: *out_port,
                    cycle: s.cycle,
                    num_ports: s.num_ports,
                    num_vnets: s.num_vnets,
                    candidates,
                    net: &s.net,
                };
                encoder.encode_append(&ctx, batch);
            }
        }
        black_box(&mut batches);
    }
    let encode_ns = t0.elapsed().as_nanos() as f64;
    let mut scratch = Scratch::for_net(net);
    let t0 = Instant::now();
    for _ in 0..REPLAY_PASSES {
        for (s, batch) in samples.iter().zip(&batches) {
            black_box(net.forward_batch_into(black_box(batch), s.outputs.len(), &mut scratch));
        }
    }
    let forward_ns = t0.elapsed().as_nanos() as f64;
    let evaluated = (rows * REPLAY_PASSES) as f64;
    r.timed("rl-arb.encode_ns_per_row", encode_ns / evaluated, rows);
    r.timed("nn-mlp.forward_ns_per_row", forward_ns / evaluated, rows);
    r.count("replay_routers", samples.len() as u64);
    r.count("replay_rows", rows as u64);
    Ok(())
}
