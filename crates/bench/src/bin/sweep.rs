//! SW — the scenario sweep's verdicts.
//!
//! `sweep --check` runs every canonical grid once at full size, prints one
//! verdict line per section and applies every gate to the typed reports
//! (see `bench::sweep`). It writes no file and reads no clock. On a failed
//! gate it prints the failing scenario ids with their `--scenario` repro
//! lines and exits 1.
//!
//! `sweep --scenario <id> [PATH]` — single-scenario repro mode, the
//! command every forensic artifact embeds: reruns exactly one scenario
//! from any canonical grid with the flight recorder on and prints (or
//! writes, when PATH is given) the self-contained result document —
//! verdict, telemetry digest, and the forensic artifact when the run
//! ends in a violation. Exits 2 when no grid produces the id.
//!
//! Any other arguments exit 2 with the usage line.

use bench::sweep::{parse_args, run_scenario_by_id, Grids, Mode, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_args(&args).unwrap_or_else(|err| {
        eprintln!("sweep: {err}\n{USAGE}");
        std::process::exit(2);
    });
    match mode {
        Mode::Check => {
            let report = Grids::canonical().run();
            let failures = report.failures();
            print!("{}", report.table(&failures));
            for failure in &failures {
                eprintln!("{failure}");
            }
            if !failures.is_empty() {
                std::process::exit(1);
            }
        }
        Mode::Scenario { id, path } => {
            let Some(doc) = run_scenario_by_id(&id) else {
                eprintln!("no canonical grid produces scenario id {id:?}");
                std::process::exit(2);
            };
            let text = format!("{}\n", doc.pretty());
            if let Some(path) = path {
                std::fs::write(&path, &text).expect("write repro document");
                println!("wrote {path}");
            } else {
                print!("{text}");
            }
        }
    }
}
