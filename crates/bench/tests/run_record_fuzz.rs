//! Fuzz-style robustness tests for the decoders of on-disk JSON: the
//! shared `codec::Json` reader itself, the `RunRecord` reader, and the
//! simulator's `FaultPlan` and `SimCheckpoint` + `Simulator::restore`
//! decoders.
//!
//! The readers ingest files written by older versions of the tool, by
//! other machines, and — in regression tooling — by hand. The contract
//! under byte-level damage is *structured failure*: every mutated or
//! truncated document either parses or returns an `Err`, and never
//! panics, loops, or aborts the process. Every strict prefix of a
//! document's content (the text before its trailing newline) is an
//! error.

use std::sync::OnceLock;

use proptest::prelude::*;

use bench::exp::record::RunRecord;
use codec::Json;
use noc_sim::arbiters::RoundRobinArbiter;
use noc_sim::{
    FaultPlan, Pattern, SimCheckpoint, SimConfig, Simulator, SplitMix64, SyntheticTraffic, Topology,
};

/// The checked-in current-schema golden document.
const GOLDEN: &str = include_str!("golden/run_record_v2.json");

/// Applies `n` seeded single-byte mutations (printable ASCII, so the
/// result stays valid UTF-8 — the golden file is pure ASCII).
fn mutate(doc: &str, seed: u64, n: usize) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let mut rng = SplitMix64::new(seed);
    for _ in 0..n {
        let pos = rng.next_bounded(bytes.len() as u64) as usize;
        bytes[pos] = 0x20 + rng.next_bounded(0x5f) as u8;
    }
    String::from_utf8(bytes).expect("ascii mutations keep ascii")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary single- and multi-byte corruptions never panic the
    /// reader.
    #[test]
    fn mutated_documents_never_panic(seed in any::<u64>(), burst in any::<u32>()) {
        let n = 1 + (burst as usize % 8);
        let doc = mutate(GOLDEN, seed, n);
        // Ok (mutation hit insignificant whitespace / a value that still
        // validates) and Err are both acceptable; a panic fails the test.
        let _ = RunRecord::from_json(&doc);
    }

    /// Truncation at every prefix length yields a structured error, not
    /// a panic.
    #[test]
    fn truncated_documents_never_panic(cut in any::<u64>()) {
        prop_assert!(
            RunRecord::from_json(prefix(GOLDEN, cut)).is_err(),
            "a strict prefix of the golden record must not parse"
        );
    }
}

/// A generated fault plan on the 4×4 mesh, as JSON.
fn fault_plan_doc(seed: u64) -> String {
    let topo = Topology::uniform_mesh(4, 4).unwrap();
    FaultPlan::generate(seed, 0.6, &topo, 2_000).to_json()
}

/// A fresh 4×4 simulator's construction inputs: `(topology, config,
/// traffic)`, the same for the checkpointed run and every restore.
fn mesh_parts() -> (Topology, SimConfig, SyntheticTraffic) {
    let topo = Topology::uniform_mesh(4, 4).unwrap();
    let cfg = SimConfig::synthetic(4, 4);
    let traffic = SyntheticTraffic::new(&topo, Pattern::UniformRandom, 0.2, cfg.num_vnets, 7);
    (topo, cfg, traffic)
}

/// A checkpoint of a short faulted run with the invariant checker on, so
/// every section `Simulator::restore` reads is present: queues, in-flight
/// arrivals, buffers, fault runtime and checker books.
fn checkpoint_doc() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let (topo, cfg, traffic) = mesh_parts();
        let plan = FaultPlan::generate(11, 0.6, &topo, 2_000);
        let mut sim =
            Simulator::new(topo, cfg, Box::new(RoundRobinArbiter::new()), traffic).unwrap();
        sim.enable_invariant_checker();
        sim.set_fault_plan(&plan);
        sim.run(400);
        sim.checkpoint().unwrap().to_json().to_string()
    })
}

/// Decodes checkpoint text and restores it onto a fresh simulator.
fn restore(text: &str) -> Result<(), String> {
    let ck = SimCheckpoint::from_json(text)?;
    let (topo, cfg, traffic) = mesh_parts();
    Simulator::restore(topo, cfg, Box::new(RoundRobinArbiter::new()), traffic, &ck).map(drop)
}

/// A strict prefix of `doc` that cuts into its content.
fn prefix(doc: &str, cut: u64) -> &str {
    &doc[..(cut % doc.trim_end().len() as u64) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The shared reader survives damage to every corpus.
    #[test]
    fn codec_never_panics_on_mutated_documents(seed in any::<u64>(), burst in any::<u32>()) {
        let n = 1 + (burst as usize % 8);
        for doc in [GOLDEN, &fault_plan_doc(seed), checkpoint_doc()] {
            let _ = Json::parse(&mutate(doc, seed, n));
        }
    }

    /// The shared reader rejects every strict prefix of every corpus.
    #[test]
    fn codec_rejects_truncated_documents(seed in any::<u64>(), cut in any::<u64>()) {
        for doc in [GOLDEN, &fault_plan_doc(seed), checkpoint_doc()] {
            let doc = prefix(doc, cut);
            prop_assert!(Json::parse(doc).is_err(), "a strict prefix parsed: {doc:?}");
        }
    }

    /// Damaged fault plans decode or fail, never panic.
    #[test]
    fn fault_plan_never_panics_on_mutated_documents(seed in any::<u64>(), burst in any::<u32>()) {
        let n = 1 + (burst as usize % 8);
        let _ = FaultPlan::from_json(&mutate(&fault_plan_doc(seed), seed, n));
    }

    /// Every strict prefix of a fault plan is an error.
    #[test]
    fn fault_plan_rejects_truncated_documents(seed in any::<u64>(), cut in any::<u64>()) {
        let doc = fault_plan_doc(seed);
        prop_assert!(FaultPlan::from_json(prefix(&doc, cut)).is_err());
    }

    /// Damaged checkpoints decode and restore, or fail, never panic.
    #[test]
    fn checkpoint_restore_never_panics_on_mutated_documents(
        seed in any::<u64>(),
        burst in any::<u32>(),
    ) {
        let n = 1 + (burst as usize % 8);
        let _ = restore(&mutate(checkpoint_doc(), seed, n));
    }

    /// Every strict prefix of a checkpoint is an error.
    #[test]
    fn checkpoint_restore_rejects_truncated_documents(cut in any::<u64>()) {
        prop_assert!(restore(prefix(checkpoint_doc(), cut)).is_err());
    }
}

/// The unmutated corpora decode — the fuzz corpus is live.
#[test]
fn simulator_corpora_decode() {
    assert!(!FaultPlan::from_json(&fault_plan_doc(3)).unwrap().is_empty());
    restore(checkpoint_doc()).expect("checkpoint restores");
}

/// The unmutated golden document still parses — the fuzz corpus is live.
#[test]
fn golden_document_parses() {
    let rec = RunRecord::from_json(GOLDEN).expect("golden record parses");
    assert!(!rec.cells.is_empty());
}
