//! Command-line entry of the benchmark; see the crate docs and METRICS.md.

mod common;
mod fine;
mod offline;
mod paper;
mod serve;

use std::process::ExitCode;

use common::Args;
use perfbench::{host, result_json, Report, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<(String, Args), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok((
        workload,
        Args {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}

fn run(workload: &str, args: &Args) -> Result<Report, String> {
    match workload {
        "paper_batch" => paper::run(args),
        "fine_grain" => fine::run(args),
        "offline_tune" => offline::run(args),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn main() -> ExitCode {
    let (workload, args) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&workload, &args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.e2e.insert("peak_rss_mb", host::peak_rss_mb());
    for (name, _) in END_TO_END {
        let v = report.e2e.get(name).copied().unwrap_or(f64::NAN);
        report.checks.check(v.is_finite() && v > 0.0, || {
            format!("end-to-end metric {name} = {v}")
        });
    }
    println!("host: {}", host::host_json(report.capacity));
    println!(
        "workload: {workload} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace
    );
    for (name, value, unit) in &report.summary {
        println!("  {name} = {value} {unit}");
    }
    println!(
        "  failure_frac = {} ({} of {} checks)",
        report.checks.failure_frac(),
        report.checks.failed,
        report.checks.attempted
    );
    for f in &report.checks.failures {
        println!("  FAILED: {f}");
    }
    let line = if args.trace {
        report.layers.insert("host.capacity", report.capacity);
        result_json(&report.checks, PER_LAYER, &report.layers)
    } else {
        result_json(&report.checks, &END_TO_END, &report.e2e)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
