//! End-to-end benchmark of the LGFI pipeline: faults are detected, labeling
//! converges, blocks and boundaries are distributed, and packets and route
//! queries are routed with that information.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn64 --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Workloads: `churn64`, `wormhole64`, `query_churn64` (see `README.md`).
//! With `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
//! times the calls into each layer and prints the per-layer metrics, and the
//! spans go to `perfbench/out/trace-<workload>.tsv`.  Human-readable progress
//! goes to stderr; the last line of stdout is one JSON object.  A failed
//! correctness check makes `correct` false and the exit code 1.

mod query;
mod trace;
mod traffic;

use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;

use trace::Tracer;

/// Outcome of the correctness checks of a run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: u64,
}

impl Checks {
    /// Records one check and reports it on stderr.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Display) {
        let verdict = if ok { "ok" } else { "FAILED" };
        eprintln!("[check] {name}: {verdict} ({detail})");
        if !ok {
            self.failures += 1;
        }
    }
}

/// Named metrics with units, in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// What a workload run hands back.
pub struct Run {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Operations the run attempted: measured simulation steps plus route
    /// queries.  None can fail short of a failed check.
    pub attempted: u64,
    /// The spans recorded (empty when untraced).
    pub tracer: Tracer,
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 35.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit of the checkout, if it is a git repository.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown (not a git checkout)".into()
        } else {
            head.into()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().into();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host, commit and compiler of this run.
fn stamp() -> Vec<String> {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        format!("host: {cpus} CPUs, {model}"),
        format!("commit: {}", commit()),
        format!("rustc: {}", env!("PERFBENCH_RUSTC")),
    ]
}

/// The result line.  A metric that is not a finite number has already failed
/// its check; it prints as 0 so the line stays valid JSON.
fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload churn64|wormhole64|query_churn64 \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let header = stamp();
    for line in &header {
        eprintln!("[stamp] {line}");
    }
    eprintln!(
        "[run] workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut checks = Checks::default();
    let run = match args.workload.as_str() {
        "churn64" => traffic::run(
            &traffic::churn64(),
            args.seed,
            args.seconds,
            args.trace,
            &mut checks,
        ),
        "wormhole64" => traffic::run(
            &traffic::wormhole64(),
            args.seed,
            args.seconds,
            args.trace,
            &mut checks,
        ),
        "query_churn64" => query::run(args.seed, args.seconds, args.trace, &mut checks),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    for (name, value, unit) in &run.metrics.0 {
        checks.check(
            &format!("{name} is a finite number"),
            value.is_finite(),
            format!("{value} {unit}"),
        );
        eprintln!("[metric] {name} = {value} {unit}");
    }
    if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.tsv", args.workload));
        let mut header = header;
        header.push(format!("workload: {} seed: {}", args.workload, args.seed));
        match run.tracer.write(&path, &header) {
            Ok(()) => eprintln!("[trace] spans written to {}", path.display()),
            Err(e) => checks.check("trace written", false, e),
        }
    }
    let correct = checks.failures == 0;
    println!(
        "{}",
        json(correct, run.attempted.max(1), checks.failures, &run.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
