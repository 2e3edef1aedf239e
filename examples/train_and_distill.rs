//! The paper's full methodology in one runnable example:
//!
//! 1. train a deep-Q-learning agent to arbitrate a 4×4 mesh (reward: did it
//!    grant the globally oldest message?),
//! 2. inspect the trained network's first-layer weights as a Fig.-4-style
//!    heatmap to see *which features the agent relies on*, and
//! 3. compare the hand-distilled "RL-inspired" policy built from those
//!    observations against FIFO and the global-age oracle.
//!
//! Run with: `cargo run --release --example train_and_distill`

use ml_noc::noc_arbiters::{make_arbiter, PolicyKind};
use ml_noc::noc_sim::{Arbiter, Pattern, SimConfig, Simulator, SyntheticTraffic, Topology};
use ml_noc::rl_arb::{train_synthetic, weight_heatmap, TrainSpec};

fn evaluate(arbiter: Box<dyn Arbiter>, name: &str, rate: f64) {
    let topo = Topology::uniform_mesh(4, 4).expect("valid mesh");
    let cfg = SimConfig::synthetic(4, 4);
    let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, rate, cfg.num_vnets, 7);
    let mut sim = Simulator::new(topo, cfg, arbiter, traffic).expect("valid configuration");
    sim.run(3_000);
    sim.reset_stats();
    sim.run(20_000);
    let s = sim.stats();
    println!(
        "{name:>12}: avg {:6.1} | p99 {:5} | max {:5}",
        s.avg_latency(),
        s.latency_percentile(99.0),
        s.max_latency()
    );
}

fn main() {
    // --- 1. Train ----------------------------------------------------
    let rate = 0.40;
    let mut spec = TrainSpec::tuned_synthetic(4, rate, 42);
    spec.epochs = 30; // keep the example snappy; the Fig. 4 binary trains longer
    println!("training DQN agent on a 4x4 mesh ({} epochs)...", spec.epochs);
    let outcome = train_synthetic(&spec);
    println!(
        "  training curve (avg latency): first epoch {:.1} -> last epoch {:.1}",
        outcome.curve.first().unwrap(),
        outcome.curve.last().unwrap()
    );
    println!(
        "  {} arbitration decisions, {:.1}% matched the global-age oracle\n",
        outcome.agent.decisions(),
        100.0 * outcome.agent.cumulative_reward() / outcome.agent.decisions() as f64
    );

    // --- 2. Interpret -------------------------------------------------
    let hm = weight_heatmap(outcome.agent.network(), outcome.agent.encoder());
    println!("first-layer |weight| heatmap (rows: features, cols: buffers):");
    println!("{}", hm.to_ascii());
    println!("feature ranking (mean |w|):");
    for (row, mean) in hm.ranked_rows() {
        println!("  {:>12}: {:.4}", hm.row_labels[row], mean);
    }

    // --- 3. Distill & compare -----------------------------------------
    println!("\ncomparing policies at injection rate {rate}:");
    evaluate(make_arbiter(PolicyKind::Fifo, 1), "FIFO", rate);
    evaluate(make_arbiter(PolicyKind::RlSynth4x4, 1), "RL-inspired", rate);
    evaluate(Box::new(outcome.agent.freeze()), "NN (agent)", rate);
    evaluate(make_arbiter(PolicyKind::GlobalAge, 1), "global-age", rate);
    println!("\nThe RL-inspired policy — two saturating counters and an adder —");
    println!("captures most of the oracle's tail-latency benefit in hardware");
    println!("that fits a single cycle (see `cargo run -p bench --bin repro -- table3`).");
}
