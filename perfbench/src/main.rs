//! End-to-end and per-layer benchmark of the Souffle reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! One run sets up the workload (several times, reporting the median set-up
//! time), measures it for `--seconds`, checks every result against a
//! reference that does not come from the compiler under test, and prints a
//! human-readable report followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` re-runs the same work timing each public
//! call into each layer and reports the per-layer metrics. `--smoke` runs
//! every workload briefly in both modes and checks that every registered
//! metric is emitted with its unit. See `perfbench/README.md`.

mod compile;
mod infer;
mod metrics;
mod serve;
mod stats;

use metrics::{Outcome, Spec};
use souffle::te::TensorId;
use souffle::tensor::Tensor;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Command-line arguments of one measured run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// The workloads, by name.
const WORKLOADS: [&str; 2] = ["infer-full", "serve-overload"];

fn run_workload(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "infer-full" => infer::run(args),
        "serve-overload" => serve::run(args),
        other => unreachable!("workload {other} validated at parse time"),
    }
}

/// Runs `setup` `repeats` times and returns the last result with each
/// run's wall time in seconds. Workloads set up both before and after
/// their timed window and report the median as `setup_s`, so one slow
/// phase of a shared machine does not set it.
pub fn timed_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Whether `got` holds exactly the tensors of `want`, each bit-identical.
pub fn bit_identical(want: &HashMap<TensorId, Tensor>, got: &HashMap<TensorId, Tensor>) -> bool {
    want.len() == got.len()
        && want.iter().all(|(id, w)| {
            got.get(id).is_some_and(|g| {
                w.shape() == g.shape()
                    && w.data()
                        .iter()
                        .zip(g.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        })
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The JSON result line: every metric of `specs`, by name, with its unit.
fn result_line(outcome: &Outcome, specs: &[Spec]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for s in specs {
        let value = match outcome.values.get(&s.name) {
            Some(v) => *v,
            None => return Err(format!("metric {} was not measured", s.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", s.name));
        }
        if !stats::valid_name(&s.name) || !stats::valid_unit(s.unit) {
            return Err(format!("metric {} has an invalid name or unit", s.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            s.name, s.unit
        ));
    }
    let correct = outcome.failed == 0 && outcome.checks_failed.is_empty();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

/// Runs one workload in one mode and renders its result line.
fn measure(args: &Args) -> Result<String, String> {
    let mut outcome = run_workload(args);
    if outcome.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    for c in &outcome.checks_failed {
        println!("CHECK FAILED: {c}");
    }
    let specs = if args.trace {
        // Layers the workload's timed operations never enter report 0.
        for s in metrics::per_layer() {
            outcome.values.entry(s.name).or_insert(0.0);
        }
        metrics::per_layer()
    } else {
        outcome.set("peak_rss_mb", peak_rss_mb()?);
        metrics::end_to_end()
    };
    result_line(&outcome, &specs)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--workload" => return Err(format!("unknown workload {value:?}: {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every workload, briefly, in both modes: each result line must parse
/// and carry exactly the registered metrics with their units.
fn smoke() -> Result<(), String> {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                seed: 1,
                // Long enough for twenty evaluations of each `infer-full`
                // program in a traced run, the fewest a tail is taken from.
                seconds: 10.0,
                trace,
            };
            let line = measure(&args)?;
            let doc = souffle::trace::json::parse(&line)?;
            let metrics = doc.get("metrics").ok_or("no metrics object")?;
            let specs = if trace {
                metrics::per_layer()
            } else {
                metrics::end_to_end()
            };
            for s in &specs {
                let m = metrics
                    .get(&s.name)
                    .ok_or_else(|| format!("{workload}: {} missing", s.name))?;
                if m.get("unit").and_then(|u| u.as_str()) != Some(s.unit) {
                    return Err(format!("{workload}: {} lacks unit {}", s.name, s.unit));
                }
            }
            let emitted = metrics.as_obj().map_or(0, |o| o.len());
            if emitted != specs.len() {
                return Err(format!(
                    "{workload}: {emitted} metrics emitted, {} registered",
                    specs.len()
                ));
            }
            if !matches!(
                doc.get("correct"),
                Some(souffle::trace::json::Value::Bool(true))
            ) {
                return Err(format!("{workload} trace={trace}: not correct: {line}"));
            }
            println!("smoke {workload} trace={trace}: {} metrics OK", specs.len());
        }
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--smoke") {
        if let Err(e) = smoke() {
            eprintln!("smoke failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match measure(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
