//! `odybench` — the benchmark every performance or simplicity claim in
//! this repository is measured with. See `README.md` next to this
//! package for the workloads, the metrics and how to read a comparison.
//!
//! ```text
//! odybench --seed <u64> [--workload <name>] [--seconds <s>] [--trace [0|1]]
//!          [--out <file>] [--trace-out <file>] [--inject-wrong]
//! odybench --compare <baseline> <change>
//! odybench --calibrate-service [--seed <u64>] [--seconds <s>]
//! ```
//!
//! One run generates its inputs from the seed, sets the program up,
//! verifies every answer against a scalar scan, measures for the given
//! seconds and prints every metric by name with its unit. The last line
//! of standard output is one JSON object with the run's verdict and the
//! metrics `BENCHMARK.json` lists for the mode (end-to-end metrics
//! untraced, per-layer metrics traced).

#![forbid(unsafe_code)]

mod compare;
mod gen;
mod harness;
mod json;
mod layers;
mod machine;
mod report;
mod rng;
mod schedule;
mod stats;
mod trace;
mod verify;
mod workloads;

use harness::Ctx;
use machine::Machine;
use std::io::Write;
use std::process::ExitCode;
use trace::Tracer;

/// Seconds one run measures unless told otherwise (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str = "usage: odybench --seed <u64> [--workload <name>] [--seconds <s>] [--trace [0|1]] \
[--out <file>] [--trace-out <file>] [--inject-wrong]\n       odybench --compare <baseline> <change>\n       \
odybench --calibrate-service [--seed <u64>] [--seconds <s>]";

struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    trace_out: String,
    inject_wrong: bool,
    compare: Option<(String, String)>,
    calibrate_service: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        workload: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        trace_out: "trace.jsonl".to_string(),
        inject_wrong: false,
        compare: None,
        calibrate_service: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--seed" => {
                a.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--workload" => a.workload = Some(value(&mut i, "--workload")?),
            "--seconds" => {
                a.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                // A bare flag, or followed by 0 or 1.
                a.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--out" => a.out = Some(value(&mut i, "--out")?),
            "--trace-out" => a.trace_out = value(&mut i, "--trace-out")?,
            "--inject-wrong" => a.inject_wrong = true,
            "--calibrate-service" => a.calibrate_service = true,
            "--compare" => {
                let base = value(&mut i, "--compare")?;
                a.compare = Some((base, value(&mut i, "--compare")?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if let Some(name) = &a.workload {
        if !workloads::ALL.iter().any(|w| w.name == name) {
            let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; the workloads are {}",
                names.join(", ")
            ));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("odybench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, change)) = &args.compare {
        return match compare::run(base, change) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("odybench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let machine = Machine::detect();
    if machine.oversubscribed() {
        eprintln!(
            "odybench: oversubscribed: {} worker threads on {} core(s) would time the scheduler, not the program",
            machine.worker_threads, machine.nproc
        );
        return ExitCode::from(3);
    }

    if args.calibrate_service {
        workloads::service_open::calibrate(args.seed, args.seconds);
        return ExitCode::SUCCESS;
    }

    let mut all_correct = true;
    let mut trace_text = String::new();
    for w in workloads::ALL
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|n| n == w.name))
    {
        let mut ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            tracer: Tracer::new(args.trace),
            inject_wrong: args.inject_wrong,
        };
        let record = (w.run)(&mut ctx);
        println!("## {}: {}", w.name, w.why);
        record.print_table();
        if args.trace {
            trace::print_self_times(ctx.tracer.spans());
            trace_text.push_str(&ctx.tracer.jsonl());
        }
        if let Some(path) = &args.out {
            let line = record.json().encode();
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if let Err(e) = appended {
                eprintln!("odybench: cannot append to {path}: {e}");
                return ExitCode::from(2);
            }
        }
        all_correct &= record.correct();
        println!("{}", record.driver_line().encode());
    }
    if args.trace {
        if let Err(e) = std::fs::write(&args.trace_out, trace_text) {
            eprintln!("odybench: cannot write {}: {e}", args.trace_out);
            return ExitCode::from(2);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_accepting_driver_s_command_line_parses() {
        let a = args(&[
            "--workload",
            "node_scan",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("node_scan"), 7, 10.0, false)
        );
        assert!(args(&["--trace", "1", "--seed", "3"]).unwrap().trace);
        let bare = args(&["--trace", "--seed", "3"]).unwrap();
        assert!(bare.trace && bare.seed == 3);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        let c = args(&["--compare", "a.json", "b.json"]).unwrap();
        assert_eq!(
            c.compare,
            Some(("a.json".to_string(), "b.json".to_string()))
        );
    }
}
