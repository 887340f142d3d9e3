//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the time-to-certificate benchmark from the root
//! of a checkout and prints a report; the last line of standard output
//! is the result as one JSON object. Campaign stores live under
//! `.bench_work/` in the current directory and are removed on exit.

use optassign_perfbench::{run, RunArgs, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <secs> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got \"{value}\"");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{}", usage());
    let workload = workload.ok_or_else(|| missing("--workload"))?;
    Ok(RunArgs {
        work_dir: PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id())),
        workload,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        workers: std::thread::available_parallelism().map_or(1, usize::from),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} trace {} workers {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.workers
    );
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_rate = {} ({} failed of {} attempted)",
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
