//! The reference clock. Every host time the benchmark reports under a
//! bound is in reference seconds: the interval in host seconds, scaled by
//! how fast a fixed reference loop ran right after it or beside it.
//!
//! The reference loop is integer arithmetic owned by the benchmark: eight
//! independent multiply-add lanes, so it needs the core's full issue
//! width, as the simulator does. It touches no memory, so no change to the
//! program under test can change its cost; only the host can. On a shared
//! host the other tenants take part of the core for seconds at a time,
//! which slows the loop and the program alike, so an interval in reference
//! seconds repeats from run to run where the same interval in host seconds
//! does not. The host seconds stay in the detail line. See `README.md`,
//! "Reference clock".

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::report::median;

/// Iterations of one probe (about 0.04 ms on a 2.1 GHz x86-64 core).
const ITERS: u64 = 10_000;

/// The reference rate in iterations per second: the loop's speed on an
/// idle 2.1 GHz x86-64 core. A reference second is the time this many
/// iterations take.
const REF_ITERS_PER_S: f64 = 3.0e8;

/// Probes in the burst after each set-up.
const SETUP_BURST: usize = 25;

/// Half-width, in windows, of the running median that smooths the probe
/// rates of consecutive windows.
const SMOOTH: usize = 12;

/// Times one probe: reference seconds per host second, below 1 when the
/// host runs slower than the reference.
pub fn probe() -> f64 {
    let t0 = Instant::now();
    let mut lanes = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    for i in 0..black_box(ITERS) {
        for (k, x) in lanes.iter_mut().enumerate() {
            *x = x
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(i ^ k as u64);
        }
    }
    black_box(lanes);
    ITERS as f64 / REF_ITERS_PER_S / t0.elapsed().as_secs_f64()
}

/// The median rate of `n` probes in a row.
fn burst(n: usize) -> f64 {
    let rates: Vec<f64> = (0..n).map(|_| probe()).collect();
    median(&rates)
}

/// Runs `f`, then a burst of probes. Returns the host seconds `f` took,
/// the same interval in reference seconds, and `f`'s result.
pub fn time_ref<R>(f: impl FnOnce() -> R) -> (f64, f64, R) {
    let t0 = Instant::now();
    let r = f();
    let host_s = t0.elapsed().as_secs_f64();
    (host_s, host_s * burst(SETUP_BURST), r)
}

/// Converts consecutive windows' host times to reference times. Window
/// `i` was followed by a probe of rate `rates[i]`; it is scaled by the
/// median rate over the windows within [`SMOOTH`] of it, so one disturbed
/// probe does not distort its window while a change of host speed lasting
/// longer than a few dozen windows is followed.
pub fn to_ref(host: &[f64], rates: &[f64]) -> Vec<f64> {
    assert_eq!(host.len(), rates.len(), "one probe per window");
    (0..host.len())
        .map(|i| {
            let lo = i.saturating_sub(SMOOTH);
            let hi = (i + SMOOTH + 1).min(rates.len());
            host[i] * median(&rates[lo..hi])
        })
        .collect()
}

/// Interval between the probe bursts of [`sampled`].
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// Probes per burst of [`sampled`]; the first after a sleep runs slow.
const SAMPLE_BURST: usize = 5;

/// Runs `f` while a thread of its own probes the host every
/// [`SAMPLE_EVERY`], for phases that run for seconds inside library calls
/// and cannot be probed window by window. The probing thread runs on the
/// core `f` leaves idle: the host's other tenants load both cores of the
/// machine alike, so it tracks the host speed `f` sees. Returns the host
/// seconds `f` took, the same interval in reference seconds (scaled by the
/// median probe rate), and `f`'s result. The probing thread has ended when
/// this returns.
pub fn sampled<R>(f: impl FnOnce() -> R) -> (f64, f64, R) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut rates = Vec::new();
            loop {
                rates.push(burst(SAMPLE_BURST));
                if stop.load(Ordering::Relaxed) {
                    return rates;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        let t0 = Instant::now();
        let r = f();
        let host_s = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let rates = sampler.join().expect("probing thread panicked");
        (host_s, host_s * median(&rates), r)
    })
}
