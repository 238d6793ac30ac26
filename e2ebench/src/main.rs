//! `mc2ls-e2ebench --workload <solve-c|query-n|live-n|all> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs the workload pinned to one CPU, then prints a readable table, a
//! `context` line (host steal ticks, the pinned CPU, spin-probe effective
//! cores, nproc, seed and the request mix) and, last, one JSON result
//! line. Exits 1 when any answer fails its check, 2 on bad usage.
//! `--workload all` runs each workload in a child process of its own, so
//! each reports its own peak resident set.

use mc2ls_e2ebench::common::{self, Budget};
use mc2ls_e2ebench::{live_n, query_n, report, solve_c, WORKLOADS};
use std::process::{Command, ExitCode};
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs every workload in a child process, in turn.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: mc2ls-e2ebench --workload <solve-c|query-n|live-n|all> --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let pinned = common::pin_to_one_cpu();
    let steal_before = common::steal_ticks();
    let budget = Budget {
        seconds: args.seconds,
        traced: args.trace,
    };
    let outcome = match args.workload.as_str() {
        "solve-c" => solve_c::run(args.seed, budget, process_start),
        "query-n" => query_n::run(args.seed, budget, process_start),
        _ => live_n::run(args.seed, budget, process_start),
    };
    let steal = common::steal_ticks().saturating_sub(steal_before);
    // The spin probe needs every CPU back; the workload's threads are gone.
    if let Some((_, before)) = &pinned {
        common::set_affinity(before);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let context = vec![
        ("seed", args.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("steal_ticks", steal.to_string()),
        (
            "pinned_cpu",
            pinned.map_or("null".to_string(), |(cpu, _)| cpu.to_string()),
        ),
        (
            "effective_cores",
            format!("{:.3}", common::effective_cores()),
        ),
    ];
    if let Some(tracer) = &outcome.tracer {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-{}.jsonl", outcome.workload, args.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
        match written {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => eprintln!("could not write spans to {path}: {e}"),
        }
    }
    if report::print(&outcome, args.seed, args.trace, &context) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
