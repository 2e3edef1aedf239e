//! The metric catalogue (mirrored in `BENCHMARK.json`) and the per-layer
//! arithmetic shared by the simulator workloads.

use noc_sim::SimStats;

use crate::probe::ArbTally;
use crate::report::Report;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them
/// on an untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cycles_per_s", "1/s"),
    ("window_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
    ("lat_avg_cycles", "cycles"),
    ("lat_p99_cycles", "cycles"),
];

/// Per-layer metrics: `(name, unit)`, reported by a traced run. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("noc-sim.ns_per_cycle", "ns"),
    ("noc-sim.self_ns_per_cycle", "ns"),
    ("noc-sim.traffic_ns_per_cycle", "ns"),
    ("noc-sim.grants_per_cycle", "1/cycle"),
    ("noc-sim.arbiter_queries_per_cycle", "1/cycle"),
    ("noc-sim.flit_hops_per_cycle", "1/cycle"),
    ("noc-sim.delivered_per_cycle", "1/cycle"),
    ("noc-sim.simulated_cycles", "count"),
    ("noc-arbiters.select_ns", "ns"),
    ("noc-arbiters.plan_ns", "ns"),
    ("noc-arbiters.select_calls_per_cycle", "1/cycle"),
    ("noc-arbiters.plan_calls_per_cycle", "1/cycle"),
    ("noc-arbiters.candidates_per_select", "count"),
    ("noc-arbiters.ns_per_cycle", "ns"),
    ("rl-arb.select_ns", "ns"),
    ("rl-arb.plan_ns", "ns"),
    ("rl-arb.select_calls_per_cycle", "1/cycle"),
    ("rl-arb.plan_calls_per_cycle", "1/cycle"),
    ("rl-arb.candidates_per_select", "count"),
    ("rl-arb.ns_per_cycle", "ns"),
    ("rl-arb.encode_ns_per_row", "ns"),
    ("nn-mlp.forward_ns_per_row", "ns"),
    ("nn-mlp.rows_per_cycle", "1/cycle"),
    ("apu-sim.pull_ns_per_cycle", "ns"),
    ("apu-sim.on_delivered_ns", "ns"),
    ("apu-sim.ops_completed", "count"),
    ("apu-sim.exec_cycles", "cycles"),
    ("rl-arb.train_epochs", "count"),
    ("rl-arb.train_ms_per_epoch", "ms"),
    ("rl-arb.train_s", "s"),
    ("bench.cells", "count"),
    ("bench.cache_store_us", "us"),
    ("bench.cache_load_us", "us"),
    ("bench.record_encode_ms", "ms"),
    ("bench.record_decode_ms", "ms"),
    ("bench.cold_s", "s"),
    ("bench.warm_cells_per_s", "1/s"),
    ("trace.overhead", "ratio"),
];

/// Which crate implements the arbiter under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbLayer {
    /// Hand-written policies (`noc-arbiters`).
    NocArbiters,
    /// The frozen NN policy (`rl-arb`, running `nn-mlp`).
    RlArb,
}

impl ArbLayer {
    fn names(self) -> [&'static str; 6] {
        match self {
            ArbLayer::NocArbiters => [
                "noc-arbiters.select_ns",
                "noc-arbiters.plan_ns",
                "noc-arbiters.select_calls_per_cycle",
                "noc-arbiters.plan_calls_per_cycle",
                "noc-arbiters.candidates_per_select",
                "noc-arbiters.ns_per_cycle",
            ],
            ArbLayer::RlArb => [
                "rl-arb.select_ns",
                "rl-arb.plan_ns",
                "rl-arb.select_calls_per_cycle",
                "rl-arb.plan_calls_per_cycle",
                "rl-arb.candidates_per_select",
                "rl-arb.ns_per_cycle",
            ],
        }
    }
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// The exact simulator counts of a measured window, as counters.
pub fn count_sim(r: &mut Report, s: &SimStats) {
    r.count("simulated_cycles", s.cycles);
    r.count("grants", s.grants);
    r.count("arbiter_queries", s.arbiter_queries);
    r.count("flit_hops", s.flits_on_links);
    r.count("delivered", s.delivered);
}

/// Host time of one traced run, split by layer.
#[derive(Debug, Clone, Copy)]
pub struct TracedTime {
    /// Nanoseconds inside `Simulator::run*` over the measured windows.
    pub step_ns: f64,
    /// Nanoseconds inside the synthetic traffic source (`noc-sim`'s own).
    pub noc_traffic_ns: f64,
    /// Nanoseconds inside a closed-loop engine's `pull`/`on_delivered`.
    pub engine_ns: f64,
}

/// The `noc-sim` and arbiter-layer metrics of a traced run over
/// `cycles` measured cycles with statistics `s`.
pub fn report_sim_layers(
    r: &mut Report,
    layer: ArbLayer,
    tally: &ArbTally,
    s: &SimStats,
    time: TracedTime,
) {
    let cycles = s.cycles;
    let arb_ns = (tally.select_ns + tally.plan_ns) as f64;
    let self_ns = time.step_ns - arb_ns - time.noc_traffic_ns - time.engine_ns;
    r.set("noc-sim.ns_per_cycle", ratio(time.step_ns, cycles));
    r.set("noc-sim.self_ns_per_cycle", ratio(self_ns, cycles));
    r.set(
        "noc-sim.traffic_ns_per_cycle",
        ratio(time.noc_traffic_ns, cycles),
    );
    r.set("noc-sim.grants_per_cycle", ratio(s.grants as f64, cycles));
    r.set(
        "noc-sim.arbiter_queries_per_cycle",
        ratio(s.arbiter_queries as f64, cycles),
    );
    r.set(
        "noc-sim.flit_hops_per_cycle",
        ratio(s.flits_on_links as f64, cycles),
    );
    r.set(
        "noc-sim.delivered_per_cycle",
        ratio(s.delivered as f64, cycles),
    );
    r.set("noc-sim.simulated_cycles", cycles as f64);

    let [select_ns, plan_ns, select_calls, plan_calls, cands, ns_per_cycle] = layer.names();
    r.set(select_ns, ratio(tally.select_ns as f64, tally.select_calls));
    r.set(plan_ns, ratio(tally.plan_ns as f64, tally.plan_calls));
    r.set(select_calls, ratio(tally.select_calls as f64, cycles));
    r.set(plan_calls, ratio(tally.plan_calls as f64, cycles));
    r.set(cands, ratio(tally.candidates as f64, tally.select_calls));
    r.set(ns_per_cycle, ratio(arb_ns, cycles));
    r.count("select_calls", tally.select_calls);
    r.count("plan_calls", tally.plan_calls);
    r.count("candidates", tally.candidates);
}
