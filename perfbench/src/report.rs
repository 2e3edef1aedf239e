//! What a workload run produces, plus the small statistics and encoding
//! helpers the workloads share.

use std::fmt::Write as _;
use std::time::Instant;

/// Output checks of one run: every check is one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks performed.
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Measured values by metric name (end-to-end and per-layer alike).
    pub values: Vec<(&'static str, f64)>,
    /// Sample count behind each host timing, by metric name.
    pub samples: Vec<(&'static str, u64)>,
    /// Exact, hardware-independent counts; identical for equal inputs.
    pub counters: Vec<(&'static str, u64)>,
    /// FNV-1a digest of the run's simulated statistics.
    pub digest: u64,
    /// Output checks.
    pub checks: Checks,
}

impl Report {
    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Sets a host timing together with its sample count.
    pub fn timed(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.push((name, samples as u64));
    }

    /// Records an exact count.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counters.push((name, value));
    }

    /// The value of metric `name`, if the workload measured it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Nearest-rank percentile `p` (0–100) of `values` (the same rule as
/// `SimStats::latency_percentile`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Records the median and p95 of window times: `window_ms_*` from the
/// reference-clock times `ref_ms`, `host_window_ms_*` from the host times
/// `ms`. Only the median is an end-to-end metric: the p95 spreads too
/// widely from run to run to hold a bound, so it is in the detail line.
pub fn report_windows(r: &mut Report, ms: &[f64], ref_ms: &[f64]) {
    let n = ms.len();
    r.timed("window_ms_p50", percentile(ref_ms, 50.0), n);
    r.timed("window_ms_p95", percentile(ref_ms, 95.0), n);
    r.timed("host_window_ms_p50", percentile(ms, 50.0), n);
    r.timed("host_window_ms_p95", percentile(ms, 95.0), n);
}

/// Seconds taken by `f`, with its result.
pub fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// FNV-1a over everything written to it, so a `Debug` rendering can be
/// digested without materialising the string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Folds the `Debug` rendering of `value` into `h`.
pub fn digest_into(h: &mut Fnv, value: &impl std::fmt::Debug) {
    write!(h, "{value:?};").expect("hashing never fails");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A JSON number; a non-finite value (a bug the result line rejects) is
/// written as `null` so the detail line stays valid JSON.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string literal (the benchmark's strings are plain ASCII, but
/// escape the two characters that could break the line anyway).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
