//! The benchmark binary: one named workload per invocation, the contract's
//! JSON object as the last line of standard output.
//!
//! ```text
//! ho-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ho-benchmark --list                      names and units, as JSON
//! ho-benchmark --smoke                     every workload at 1/20 size, validated against BENCHMARK.json
//! ho-benchmark --workload <name> --repeat K [--baseline FILE]   one seed, K fresh processes
//! ho-benchmark --workload <name> --spread K [--baseline FILE]   seeds N, N+1, … N+K-1
//! ```

use std::process::ExitCode;
use std::time::Instant;

use ho_benchmark::alloc::CountingAlloc;
use ho_benchmark::protocol::{self, RunOptions, Scale};
use ho_benchmark::repeat;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: ho-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
                     [--repeat K | --spread K [--baseline FILE]] | --list | --smoke";

struct Args {
    run: RunOptions,
    list: bool,
    smoke: bool,
    /// `(runs, whether the seed varies from run to run)`.
    repeat: Option<(usize, bool)>,
    baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        run: RunOptions {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            scale: Scale::FULL,
        },
        list: false,
        smoke: false,
        repeat: None,
        baseline: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.run.workload = value("a name")?,
            "--seed" => {
                args.run.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.run.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.run.seconds > 0.0 && args.run.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.run.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--repeat" | "--spread" => {
                let k: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("{flag}: {e}"))?;
                if k < 2 {
                    return Err(format!("{flag} needs at least 2 runs"));
                }
                args.repeat = Some((k, flag == "--spread"));
            }
            "--baseline" => args.baseline = Some(value("a file")?),
            "--smoke" => args.smoke = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !args.list && !args.smoke && args.run.workload.is_empty() {
        return Err(USAGE.into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let outcome = parse_args().and_then(|args| {
        if args.list {
            println!("{}", repeat::list_json());
            Ok(())
        } else if args.smoke {
            repeat::smoke()
        } else if let Some((k, vary_seed)) = args.repeat {
            repeat::repeat(&args.run, k, vary_seed, args.baseline.as_deref())
        } else {
            protocol::run(&args.run, process_start).map(|result| {
                println!("{}", result.to_json_line());
            })
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ho-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
