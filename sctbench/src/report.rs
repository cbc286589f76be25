//! Result assembly: quantiles, the metric map, the host block and the two
//! output lines every run prints.

use sct_core::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// The `q`-quantile (0..=1) of `sorted` by linear interpolation between
/// closest ranks; `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Sorts a copy of `xs` and returns its `q`-quantile.
pub fn quantile_of(xs: &[f64], q: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// Median of durations, in seconds.
pub fn median_secs(xs: &[Duration]) -> f64 {
    let v: Vec<f64> = xs.iter().map(Duration::as_secs_f64).collect();
    quantile_of(&v, 0.5).unwrap_or(0.0)
}

/// Metric name → (value, unit), in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.to_string(), (value, unit));
    }

    /// The `{"name":{"value":v,"unit":u},…}` object.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, (v, u))| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Float(*v)),
                            ("unit".into(), Json::str(*u)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `"none"` outside a git checkout.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

/// Where and how the run happened, recorded with every result.
#[derive(Debug, Clone)]
pub struct Host {
    nproc: usize,
    cpu: String,
    rustc: String,
    git: String,
    load_start: String,
}

impl Host {
    /// Samples the host at the start of a run.
    pub fn sample() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            rustc: rustc_version(),
            git: git_revision(),
            load_start: load_average(),
        }
    }

    /// The host block, with the load average sampled again now.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".into(), Json::Int(self.nproc as i64)),
            ("cpu".into(), Json::str(&self.cpu)),
            ("rustc".into(), Json::str(&self.rustc)),
            (
                "profile".into(),
                Json::str(if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }),
            ),
            ("git".into(), Json::str(&self.git)),
            ("load_start".into(), Json::str(&self.load_start)),
            ("load_end".into(), Json::str(load_average())),
        ])
    }
}

/// The CPU times of one phase of a run — the set-ups or the timed loop —
/// with what it takes to bring them to the reference host speed.
#[derive(Debug, Clone, Copy)]
pub struct Phase<'a> {
    /// CPU time of each set-up or each operation, in µs.
    pub cpu_us: &'a [f64],
    /// User share of the measured threads' CPU ticks over the phase.
    pub user_share: f64,
    /// Median [`crate::cpu::probe`] time during the phase.
    pub probe: Duration,
}

impl Phase<'_> {
    /// User-mode CPU at the reference speed of one µs of measured CPU.
    fn scale(&self) -> f64 {
        self.user_share * crate::cpu::PROBE_REFERENCE.as_secs_f64()
            / self.probe.as_secs_f64().max(1e-9)
    }

    fn q(&self, p: f64) -> f64 {
        quantile_of(self.cpu_us, p).unwrap_or(0.0)
    }
}

/// Sets the bounded end-to-end metrics of a run: the median set-up's and
/// each operation's user-mode CPU time at the reference host speed, plus
/// peak RSS. User-mode, because the kernel time of the same file-system
/// calls moves by several times over minutes on a shared host; the raw
/// CPU times, user shares and probe times go to the record line.
pub fn cpu_metrics(out: &mut Outcome, setups: Phase, ops: Phase) {
    let mean = ops.cpu_us.iter().sum::<f64>() / ops.cpu_us.len().max(1) as f64;
    let m = &mut out.metrics;
    m.set("setup_s", setups.q(0.5) * setups.scale() / 1e6, "s");
    m.set("ref_user_per_op_us", mean * ops.scale(), "us");
    m.set("ref_user_p90_us", ops.q(0.9) * ops.scale(), "us");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    let x = &mut out.extra;
    // Not bounded: the one user share of the phase scales every operation,
    // and a cheap request spends more of its time in the kernel than the
    // phase does, so the median drifts with kernel time (on serve-edit it
    // moved by 0.21 of itself across ten seeds).
    x.set("ref_user_p50_us", ops.q(0.5) * ops.scale(), "us");
    x.set("setup_cpu_s", setups.q(0.5) / 1e6, "s");
    x.set("setup_user_share", setups.user_share, "share");
    x.set("cpu_per_op_us", mean, "us");
    x.set("cpu_p50_us", ops.q(0.5), "us");
    x.set("cpu_p90_us", ops.q(0.9), "us");
    x.set("user_share", ops.user_share, "share");
    x.set("probe_us", ops.probe.as_secs_f64() * 1e6, "us");
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Answers checked (requests, executions, reconciliations).
    pub attempted: u64,
    /// Answers that did not match, each printed to stderr when found.
    pub failed: u64,
    /// The metrics the result line carries (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Further workload-specific figures, printed in the record line only.
    pub extra: Metrics,
}

impl Outcome {
    /// Counts one checked answer; prints and counts it when it failed.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("sctbench: MISMATCH {what}: {e}");
        }
    }
}

/// Prints the record line (workload, seed, host, every figure) and then,
/// last, the result line the contract asks for.
pub fn print(workload: &str, seed: u64, trace: bool, host: &Host, out: &Outcome) {
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    let mut all = out.metrics.clone();
    all.0.extend(out.extra.0.clone());
    all.set("error_rate", error_rate, "share");
    let record = Json::Obj(vec![
        ("record".into(), Json::str("sctbench/1")),
        ("workload".into(), Json::str(workload)),
        ("seed".into(), Json::Int(seed as i64)),
        ("trace".into(), Json::Bool(trace)),
        ("host".into(), host.to_json()),
        ("attempted".into(), Json::Int(out.attempted as i64)),
        ("failed".into(), Json::Int(out.failed as i64)),
        ("metrics".into(), all.to_json()),
    ]);
    println!("{record}");
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.failed == 0)),
        ("attempted".into(), Json::Int(out.attempted.max(1) as i64)),
        ("failed".into(), Json::Int(out.failed as i64)),
        ("metrics".into(), out.metrics.to_json()),
    ]);
    println!("{result}");
}
