//! The ADN benchmark. See `README.md` beside this package for what is
//! measured and why; `BENCHMARK.json` at the repository root for the
//! contract this binary answers to.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, here
//! benchmark run    [--seed N] [--seconds S] [--quick]       every workload, untraced
//! benchmark trace  [--workload W] [--seed N] [--quick]      per-layer numbers and span files
//! benchmark repeat [--sets 2]                               medians of run sets against the bounds
//! ```

mod alloc;
mod chains;
mod corpus;
mod forward;
mod load;
mod metrics;
mod probes;
mod report;
mod rpcload;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub mode: Mode,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One short repetition and a tenth of the probe work, for smoke use.
    pub quick: bool,
    /// Sets of runs `repeat` compares.
    pub sets: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One workload in this process; the last line of stdout is the result.
    Single,
    Run,
    Trace,
    Repeat,
}

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
  benchmark run    [--seed N] [--seconds S] [--quick]
  benchmark trace  [--workload W] [--seed N] [--seconds S] [--quick]
  benchmark repeat [--sets N] [--seed N] [--seconds S]
workloads: fwd_small chain_rpc fwd_small_tcp bulk_mutate";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Single,
        workload: None,
        seed: 42,
        seconds: 0.0,
        trace: false,
        quick: false,
        sets: 2,
    };
    let mut seconds = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "run" => args.mode = Mode::Run,
            "trace" => args.mode = Mode::Trace,
            "repeat" => args.mode = Mode::Repeat,
            "--workload" => {
                let name = value("a workload name")?;
                if corpus::workload(&name).is_none() {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--sets" => {
                args.sets = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.seconds = seconds.unwrap_or(if args.quick {
        1.0
    } else {
        metrics::RUN_SECONDS
    });
    if args.mode == Mode::Single && args.workload.is_none() {
        return Err("--workload is required".to_owned());
    }
    if args.sets < 2 {
        return Err("repeat compares at least 2 sets".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A run under a forced execution tier or the old harness's window
    // override is not this benchmark.
    for var in ["ADN_JIT", "ADN_BENCH_SECS"] {
        if std::env::var_os(var).is_some() {
            eprintln!("{var} is set; unset it: the benchmark measures the default configuration");
            return ExitCode::from(2);
        }
    }
    let ok = match args.mode {
        Mode::Single => workload::run_single(&args),
        Mode::Run | Mode::Trace => report::run_all(&args),
        Mode::Repeat => report::repeat(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&argv(
            "--workload chain_rpc --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.mode, Mode::Single);
        assert_eq!(a.workload.as_deref(), Some("chain_rpc"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 12.0, true, false)
        );
    }

    #[test]
    fn quick_shortens_the_default_run_only() {
        assert_eq!(parse(&argv("run --quick")).unwrap().seconds, 1.0);
        assert_eq!(parse(&argv("run")).unwrap().seconds, metrics::RUN_SECONDS);
        assert_eq!(
            parse(&argv("run --quick --seconds 3")).unwrap().seconds,
            3.0
        );
    }

    #[test]
    fn rejects_what_it_cannot_run() {
        assert!(parse(&argv("--seed 1")).is_err());
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload fwd_small --trace 2")).is_err());
        assert!(parse(&argv("--workload fwd_small --seconds 0")).is_err());
        assert!(parse(&argv("--workload fwd_small --seconds 61")).is_err());
        assert!(parse(&argv("repeat --sets 1")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
    }
}
