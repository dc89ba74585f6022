//! Benchmark entry point:
//!
//! ```text
//! perfbench --workload <solve-sparse-16k|solve-dense-4k|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary on standard error, writes a result
//! file with provenance (and, traced, the spans) under the build
//! directory, and prints the result as one JSON object on the last line
//! of standard output. Exits non-zero if any correctness check failed.

use perfbench::report::{self, Outcome, END_TO_END, PER_LAYER};
use perfbench::{run_solve, serve, Family};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let secs = args.seconds as f64;
    Ok(match args.workload.as_str() {
        "solve-sparse-16k" => run_solve(Family::GnpWindow, 16_384, args.seed, secs, args.trace),
        "solve-dense-4k" => run_solve(Family::BlendWindow, 4_096, args.seed, secs, args.trace),
        "serve-mix" => serve::run_serve(&serve::SERVE_MIX, args.seed, secs, args.trace),
        other => return Err(format!("unknown workload {other}")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in names {
        let v = out.metrics.0.get(name);
        eprintln!(
            "{name:>32} {:>14.4} {unit:<7} n={}",
            v.map_or(0.0, |v| v.value),
            v.map_or(0, |v| v.samples)
        );
    }
    for m in &out.mismatches {
        eprintln!("FAILED: {m}");
    }
    let provenance = report::provenance(&args.workload, args.seed, args.seconds as f64, args.trace);
    let dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("perfbench");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, report::result_file(&provenance, &out)))
    {
        Ok(()) => eprintln!("result file: {}", file.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", file.display()),
    }
    println!("{}", report::result_line(&out, names));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
