//! The run record: host facts, the result line, and a copy on disk.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::workloads::Round;
use crate::{Args, Metric};

/// The seed claims are checked on, besides the one they were made on.
pub const CHECK_SEED: u64 = 2;

/// What a run measured and found.
pub struct Outcome {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
    /// Rounds measured.
    pub rounds: usize,
    /// Failed correctness checks.
    pub violations: Vec<String>,
    /// Human-readable lines printed ahead of the metrics.
    pub notes: Vec<String>,
    /// Share of CPU time the hypervisor took from this machine during
    /// the run, in percent (`/proc/stat` steal), when known.
    pub steal_pct: Option<f64>,
}

impl Outcome {
    /// The outcome of `rounds` with `metrics`.
    pub fn of(rounds: &[Round], metrics: Vec<Metric>) -> Outcome {
        Outcome {
            metrics,
            attempted: rounds.iter().map(|r| r.attempted).sum(),
            failed: rounds.iter().map(|r| r.failed).sum(),
            rounds: rounds.len(),
            violations: rounds.iter().flat_map(|r| r.violations.clone()).collect(),
            notes: Vec::new(),
            steal_pct: None,
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Total and steal jiffies of all CPUs so far, from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// The share of all CPU time stolen by the hypervisor since `since`, a
/// [`cpu_jiffies`] reading.
pub fn steal_since(since: Option<(u64, u64)>) -> Option<f64> {
    let ((t0, s0), (t1, s1)) = since.zip(cpu_jiffies())?;
    Some((s1 - s0) as f64 / (t1 - t0).max(1) as f64)
}

/// Runs `program args`, waits for it, and returns its trimmed stdout.
fn output_of(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The checkout's commit, when the checkout is itself a git work tree.
fn commit(root: &Path) -> String {
    let top = output_of("git", &["rev-parse", "--show-toplevel"], root);
    let ours = top
        .as_deref()
        .and_then(|t| Path::new(t).canonicalize().ok())
        .zip(root.canonicalize().ok())
        .is_some_and(|(t, r)| t == r);
    ours.then(|| output_of("git", &["rev-parse", "HEAD"], root))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git work tree)".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Prints the run record, the notes, every metric with its unit, and
/// the result line last; writes the same under `perfbench/runs/`.
pub fn emit(args: &Args, outcome: &Outcome) {
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir.parent().unwrap_or(&bench_dir).to_path_buf();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = output_of("rustc", &["--version"], &root).unwrap_or_else(|| "unknown".into());
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"check_seed\": {CHECK_SEED}, \"seconds\": {}, \
         \"trace\": {}, \"rounds\": {}, \"nproc\": {nproc}, \"kernel\": {}, \"rustc\": {}, \
         \"steal_pct\": {}, \"traffic\": \"loopback only (127.0.0.1)\", \"commit\": {}, \
         \"violations\": [{}], \"notes\": [{}], \"metrics\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace as u8,
        outcome.rounds,
        json_str(&kernel),
        json_str(&rustc),
        outcome
            .steal_pct
            .map_or("null".to_string(), |s| format!("{s:.1}")),
        json_str(&commit(&root)),
        outcome
            .violations
            .iter()
            .map(|v| json_str(v))
            .collect::<Vec<_>>()
            .join(", "),
        outcome
            .notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(", "),
        metrics_json(&outcome.metrics),
    );
    println!("run-record {record}");
    let runs = bench_dir.join("runs");
    let file = runs.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(&runs).and_then(|_| std::fs::write(&file, &record)) {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for v in &outcome.violations {
        println!("CHECK FAILED: {v}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.violations.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
}
