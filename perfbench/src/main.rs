//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mesh8-rl|mesh8-nn|apu-table1|repro-quick> \
//!     [--seed 42] [--seconds 10] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with every end-to-end
//! metric on an untraced run (`--trace 0`) and every per-layer metric on a
//! traced one (`--trace 1`). The line before it, prefixed `perfbench-detail`,
//! carries everything else the run measured: exact counters, the digest of
//! the simulated statistics, sample counts and failed checks. See
//! `README.md` beside this file for the design.

mod apu;
mod calib;
mod layers;
mod mesh;
mod probe;
mod report;
mod repro;

use std::process::ExitCode;

use layers::{END_TO_END, PER_LAYER};
use report::{json_num, json_str, Report};

const WORKLOADS: [&str; 4] = ["mesh8-rl", "mesh8-nn", "apu-table1", "repro-quick"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?;
                if args.seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got '{v}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Report, String> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "mesh8-rl" => mesh::run(mesh::Policy::Distilled, seed, seconds, trace),
        "mesh8-nn" => mesh::run(mesh::Policy::Nn, seed, seconds, trace),
        "apu-table1" => apu::run(seed, seconds, trace),
        "repro-quick" => repro::run(seed, seconds, trace),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn object<T>(items: &[(&str, T)], value: impl Fn(&T) -> String) -> String {
    let fields: Vec<String> = items
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), value(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The `perfbench-detail` line: every measured value and exact count.
fn detail(args: &Args, r: &Report) -> String {
    let failures: Vec<String> = r.checks.failures.iter().map(|f| json_str(f)).collect();
    format!(
        "perfbench-detail {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"digest\": \"{:016x}\", \"counters\": {}, \"values\": {}, \"samples\": {}, \"failures\": [{}]}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        r.digest,
        object(&r.counters, |v| v.to_string()),
        object(&r.values, |v| json_num(*v)),
        object(&r.samples, |v| v.to_string()),
        failures.join(", "),
    )
}

/// The result line. An end-to-end metric the workload did not measure, or
/// a non-finite value, is a bug and fails the run; a per-layer metric of a
/// layer the workload does not exercise reads 0.
fn result(args: &Args, r: &Report) -> Result<String, String> {
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = match r.get(name) {
            Some(v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("{} did not measure {name}", args.workload)),
        };
        if !value.is_finite() {
            return Err(format!("{} measured {name} = {value}", args.workload));
        }
        metrics.push((
            name,
            format!(
                "{{\"value\": {}, \"unit\": {}}}",
                json_num(value),
                json_str(unit)
            ),
        ));
    }
    let failed = r.checks.failures.len();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        r.checks.attempted,
        failed,
        object(&metrics, String::clone),
    ))
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let report = run(&args)?;
        for f in &report.checks.failures {
            eprintln!("check failed: {f}");
        }
        Ok((detail(&args, &report), result(&args, &report)?))
    });
    match outcome {
        Ok((detail, result)) => {
            println!("{detail}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
