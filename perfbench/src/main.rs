//! Benchmark of the laqa simulator: runs one workload (`tables`,
//! `hostile` or `live`) and prints, as the last line of standard output,
//! one JSON object with the correctness verdict and the metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tables --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` times the workload with obs off and reports the end-to-end
//! metrics; `--trace 1` runs it traced and reports the per-layer metrics.
//! `GLOSSARY.md` beside this package defines every metric.

mod alloc;
mod check;
mod e2e;
mod layers;
mod replay;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;

use check::Tally;
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 40.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse::<u64>().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload tables|hostile|live is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload tables|hostile|live --seed N --seconds S --trace 0|1\n{e}"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} trace {} on {} cores",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut tally = Tally::new();
    check::fp0(&mut tally);
    let mut metrics = if args.trace {
        layers::measure(args.workload, args.seed, &mut tally)
    } else {
        e2e::measure(args.workload, args.seed, args.seconds, &mut tally)
    };
    if !args.trace {
        let passed = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
        metrics.push(Metric::new("pass_frac", "frac", passed));
    }
    for m in &metrics {
        tally.require(m.name, m.value.is_finite());
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = tally.ok && tally.failed == 0 && tally.attempted > 0 && !metrics.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
