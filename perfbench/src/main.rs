//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-solve|warm-hits|graph-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, drives a real
//! `dsa_service::Service` through its TCP and HTTP frontends from two
//! client threads, checks every served body against a from-scratch
//! solve, and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end set ([`E2E`]); with `--trace 1` the
//! run repeats the timed pass with client spans (the difference is the
//! tracing overhead), serves the first requests of every client
//! in-process with a span around each layer call, and reports the
//! per-layer set ([`layers::names`]). The line before the result is a
//! JSON object of details: tail percentile and sample count, open-loop
//! rungs, exact work counts and their digest. Spans are written to
//! `.bench_work/traces/`. A failed correctness check prints the result
//! with `"correct": false` and exits 1; a run that cannot be set up
//! exits non-zero without a result line.

#![forbid(unsafe_code)]

mod churn;
mod cold;
mod common;
mod jobs;
mod layers;
mod reference;
mod stats;
mod trace;
mod warm;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every workload reports, with their units.
pub const E2E: [(&str, &str); 6] = [
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("throughput_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("spanner_edges", "count"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch and trace output, under the working directory.
    pub work_root: PathBuf,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<String, f64>,
    /// Extra JSON fields for the detail line.
    pub detail: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        work_root: PathBuf::from(".bench_work"),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "cold-solve" => cold::run(&args),
        "warm-hits" => warm::run(&args),
        "graph-churn" => churn::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (cold-solve, warm-hits, graph-churn)"
        )),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut metrics = Vec::new();
    if args.trace {
        for (name, unit) in layers::names() {
            let Some(v) = outcome.layers.get(&name) else {
                eprintln!("perfbench: per-layer metric {name} missing");
                return ExitCode::from(1);
            };
            metrics.push((name, *v, unit));
        }
    } else {
        for (name, unit) in E2E {
            let Some(v) = outcome.e2e.get(name) else {
                eprintln!("perfbench: end-to-end metric {name} missing");
                return ExitCode::from(1);
            };
            metrics.push((name.to_string(), *v, unit));
        }
    }
    for p in &outcome.problems {
        eprintln!("perfbench: INCORRECT: {p}");
    }
    let detail: Vec<String> = outcome
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},{}}}",
        args.workload,
        args.seed,
        detail.join(",")
    );
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v)))
        .collect();
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
