//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. Exits
//! non-zero when any output failed its check.

use std::path::PathBuf;
use std::process::ExitCode;

use clue_perfbench::host::{serving_workers, Host};
use clue_perfbench::{line, run, Fault, RunConfig, Workload, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload <paper-40k|rs-40k> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let spec = args.workload.spec(serving_workers());
    let outcome = run(&RunConfig {
        spec,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        fault: Fault::None,
    });

    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", host.json(args.seed, outcome.workers));
    for l in &outcome.report {
        println!("{l}");
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        let v = outcome.metrics.get(d.name).copied().unwrap_or(0.0);
        println!("{}", line(d.name, v, d.unit, ""));
    }
    if let Some(tr) = &outcome.tracer {
        println!("span self times (median per span, total):");
        for (key, st) in tr.self_times() {
            println!(
                "  {key:<28} n={:<7} median {:>12.3} us  total {:>12.3} ms",
                st.count,
                st.median_ns / 1e3,
                st.total_ns as f64 / 1e6
            );
        }
        let path: PathBuf = [
            ".perfbench_trace",
            &format!("{}-seed{}.csv", args.workload.name(), args.seed),
        ]
        .iter()
        .collect();
        match tr.write_csv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.json(args.trace));
    ExitCode::from(outcome.exit_code() as u8)
}
