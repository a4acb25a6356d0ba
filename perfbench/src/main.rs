//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <terasort_churn|encrypt_feed|pi_tenants> \
//!     [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One single-threaded process runs one workload as a closed loop: each
//! run is a fixed-size batch that deploys a fresh cluster, and the next
//! run starts only when the previous one has ended. Runs repeat until
//! `--seconds` of host time have passed; timings are reported as medians
//! over the runs, scaled to a reference machine speed measured between
//! runs ([`calibrate`]). With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` three more runs follow with the
//! engine's per-actor profiling on, and the last line carries the
//! per-layer split of the median one. Every run's outputs are checked,
//! and every run of one seed must reproduce the same simulated counts.

mod calibrate;
mod metrics;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use calibrate::{Calibration, REFERENCE_S};
use metrics::Metric;
use workloads::{Run, Workload};

/// Profiled runs after the timed ones under `--trace 1`; the one with the
/// median wall time is reported, so its layer times still sum to its wall.
const TRACED_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <terasort_churn|encrypt_feed|pi_tenants> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// The seed every workload runs with unless `--seed` says otherwise.
const DEFAULT_SEED: u64 = 2009;

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
                }
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                        return Err(bad(&"must be a non-negative number"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (w, seed) = (args.workload, args.seed);

    let started = Instant::now();
    let mut timed: Vec<Run> = vec![w.run(seed, false)];
    // Read after one run, before the calibration's data and later runs'
    // allocator leftovers add to it.
    let peak_rss_mb = metrics::peak_rss_mb();
    let mut calibration = Calibration::new();
    let mut before = calibration.measure();
    timed[0].scale = REFERENCE_S / before;
    // Each later run is scaled by the mean of the calibrations around it.
    let mut calibrated = |profile: bool| {
        let mut run = w.run(seed, profile);
        let after = calibration.measure();
        run.scale = 2.0 * REFERENCE_S / (before + after);
        before = after;
        run
    };
    while started.elapsed().as_secs_f64() < args.seconds {
        timed.push(calibrated(false));
    }
    let traced: Vec<Run> = if args.trace {
        (0..TRACED_RUNS).map(|_| calibrated(true)).collect()
    } else {
        Vec::new()
    };

    let all = || timed.iter().chain(&traced);
    let attempted: usize = all().map(|r| r.jobs).sum();
    let failed: usize = all().map(Run::failed_jobs).sum();
    for (job, reason) in all().flat_map(|r| &r.failures) {
        println!(
            "FAILED output check: workload {} seed {seed} job '{job}': {reason}",
            w.name()
        );
    }
    let reference = &timed[0].fingerprint;
    let mut deterministic = true;
    for (i, r) in all().enumerate().skip(1) {
        if r.fingerprint != *reference {
            deterministic = false;
            println!(
                "FAILED determinism: workload {} seed {seed} run {i} simulated {:?}, run 0 simulated {reference:?}",
                w.name(),
                r.fingerprint
            );
        }
    }

    let metrics: Vec<Metric> = if args.trace {
        metrics::per_layer(&timed, &traced)
    } else {
        metrics::end_to_end(&timed, peak_rss_mb)
    };

    println!(
        "# perfbench {} seed {seed}: {} timed run(s), {} traced run(s), {attempted} job(s) checked",
        w.name(),
        timed.len(),
        traced.len()
    );
    println!("# machine: {}", machine_note());
    for m in &metrics {
        println!(
            "{:<32} {:>20} {:<6} ({})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let correct = failed == 0 && deterministic;
    println!(
        "{}",
        metrics::result_json(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `nproc`, CPU model, compiler and source revision, so a result can be
/// matched to the machine and code that produced it.
fn machine_note() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let output = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            // Only this checkout's own history, never an enclosing one.
            .env("GIT_DIR", ".git")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let rustc = output("rustc", &["-V"]);
    let rev = output("git", &["rev-parse", "--short=12", "HEAD"]);
    format!("nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" rev={rev}")
}
