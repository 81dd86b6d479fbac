//! SnapBPF fleet-simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-warm --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one workload, measured
//! untraced; `--trace 1` prints the per-layer metrics, timed from this
//! package's own calls into each layer. The last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. `--digests` prints the digests to record in
//! `digests.json` for the given seed. See `README.md` for the metrics.

mod digest;
mod e2e;
#[cfg(test)]
mod harness_tests;
mod layers;
mod report;
mod stats;
mod workload;

use std::process::ExitCode;

use workload::{Kind, Size};

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    digests: bool,
}

const USAGE: &str = "usage: snapbpf-perfbench --workload fleet-warm|fleet-cold|cluster-azure \
[--seed N] [--seconds S] [--trace 0|1] [--digests]";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut digests) = (42, 10.0, false, false);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--digests" => digests = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        digests,
    })
}

fn run(args: &Args) -> Result<(), e2e::Error> {
    if args.digests {
        let (configs, _) = workload::build_all(args.workload, args.seed, Size::Full);
        let reference = e2e::reference(&configs, false)?;
        if !reference.consistent {
            return Err("the reference pass failed its consistency checks".into());
        }
        println!(
            "\"{}\": {{\"{}\": \"{}\"}}",
            args.workload.name(),
            args.seed,
            digest::hex(digest::combine(&reference.digests))
        );
        return Ok(());
    }
    let report = if args.trace {
        layers::measure(args.workload, args.seed, args.seconds, Size::Full)?
    } else {
        e2e::measure(args.workload, args.seed, args.seconds, Size::Full)?
    };
    println!("{}", report.json_line());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("snapbpf-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload cluster-azure --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Kind::ClusterAzure);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.digests),
            (7, 10.0, true, false)
        );
        let d = args("--workload fleet-cold").unwrap();
        assert_eq!((d.seed, d.trace), (42, false), "defaults");
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--seed 1").is_err(), "workload required");
        assert!(args("--workload nope").is_err());
        assert!(args("--workload fleet-warm --trace 2").is_err());
        assert!(args("--workload fleet-warm --seconds 0").is_err());
        assert!(args("--workload fleet-warm --bogus").is_err());
    }
}
