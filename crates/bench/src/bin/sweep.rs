//! SW — scenario sweep baseline: writes `BENCH_sweep.json`.
//!
//! `sweep [--smoke | --rsm] [PATH]` — runs the canonical grid (single-core,
//! all-core, and monitored passes, plus the sim and rsm layers) and writes
//! the report. With `--smoke` a thinned grid runs instead (the CI job), the
//! emitted JSON is parsed back to prove it round-trips — predicate, sim and
//! rsm statistics included — and a non-zero exit reports any safety
//! violation, any prefix-agreement or exactly-once violation in the rsm
//! layer, any disagreement between a monitored safety-environment
//! predicate and the safety verdict (e.g. an empty kernel under the
//! `kernel_only` adversary), any contact-plan predicate window landing
//! after its guaranteed-good bound, *or* a lease-on full-delivery cell
//! whose requeue ratio exceeds 0.1 (the flow-control acceptance gate).
//! With `--rsm` only the replicated-log grid runs (full size,
//! per-scenario verdicts embedded) — the fast iteration loop for
//! service-level tuning.
//!
//! `sweep --scenario <id> [PATH]` — single-scenario repro mode, the
//! command every forensic artifact embeds: reruns exactly one scenario
//! from any canonical grid with the flight recorder on and prints (or
//! writes, when PATH is given) the self-contained result document —
//! verdict, telemetry digest, and the forensic artifact when the run
//! ends in a violation. Exits 2 when no grid produces the id.

use ho_harness::{rsm_report_json, Json};

fn main() {
    let mut smoke = false;
    let mut rsm_only = false;
    let mut scenario: Option<String> = None;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--rsm" => rsm_only = true,
            "--scenario" => {
                scenario = Some(args.next().unwrap_or_else(|| {
                    eprintln!(
                        "--scenario needs an id (e.g. uniform_voting/random_loss_0p40/n4/s0)"
                    );
                    std::process::exit(2);
                }));
            }
            _ => path = Some(arg),
        }
    }

    if let Some(id) = scenario {
        let Some(doc) = bench::sweep::run_scenario_by_id(&id) else {
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
        return;
    }

    if rsm_only {
        let path = path.unwrap_or_else(|| "BENCH_rsm.json".to_owned());
        let report = bench::sweep::run_rsm_layer(false);
        let sharded = bench::sweep::run_sharded_rsm(false);
        let doc = Json::obj([
            ("benchmark", Json::Str("rsm_sweep".into())),
            ("rsm_layer", rsm_report_json(&report, true)),
            ("sharded_rsm", bench::sweep::sharded_rsm_json(&sharded)),
        ]);
        std::fs::write(&path, format!("{doc}\n")).expect("write rsm report");
        println!(
            "wrote {path}: {} scenarios, {} violations, {:.0} commands/sec, {:.2} rounds/slot",
            report.scenarios,
            report.violations,
            report.commands_per_sec,
            report.rounds_per_slot()
        );
        println!(
            "sharded: {} scenarios, {} violations, requeue ratio {:.2}",
            sharded.scenarios,
            sharded.violations,
            sharded.totals.requeue_ratio()
        );
        if report.violations > 0 || sharded.violations > 0 {
            for v in report.violating().into_iter().chain(sharded.violating()) {
                eprintln!("rsm FAILED: {}: {:?}", v.id(), v.violation);
            }
            std::process::exit(1);
        }
        return;
    }

    let path = path.unwrap_or_else(|| "BENCH_sweep.json".to_owned());
    let doc = bench::sweep::run_baseline(smoke);
    let text = format!("{doc}\n");
    std::fs::write(&path, &text).expect("write sweep report");
    println!("wrote {path}");

    if smoke {
        // The smoke contract: the report parses back (with its predicate
        // fields), the safe grid stayed safe, and the online predicate
        // monitor agreed with every safety verdict.
        let parsed = Json::parse(&text).expect("sweep report must parse back");
        let Json::Obj(map) = parsed else {
            panic!("sweep report must be a JSON object");
        };
        match map.get("violations") {
            Some(Json::UInt(0)) => {}
            other => {
                eprintln!("smoke FAILED: violations = {other:?}");
                std::process::exit(1);
            }
        }
        let Some(Json::Obj(predicates)) = map.get("predicates") else {
            eprintln!("smoke FAILED: no predicate statistics in the report");
            std::process::exit(1);
        };
        match predicates.get("monitored_scenarios") {
            Some(Json::UInt(n)) if *n > 0 => {}
            other => {
                eprintln!("smoke FAILED: monitored_scenarios = {other:?}");
                std::process::exit(1);
            }
        }
        match predicates.get("check") {
            Some(Json::Str(status)) if status == "ok" => {}
            other => {
                eprintln!("smoke FAILED: predicate/safety cross-check: {other:?}");
                std::process::exit(1);
            }
        }
        // The sim layer's contract: every scenario delivered the predicate
        // window its implementation (Algorithm 2/3) promises, within the
        // theorem bound.
        let Some(Json::Obj(sim)) = map.get("sim_layer") else {
            eprintln!("smoke FAILED: no sim_layer section in the report");
            std::process::exit(1);
        };
        match sim.get("violations") {
            Some(Json::UInt(0)) => {}
            other => {
                eprintln!("smoke FAILED: sim_layer violations = {other:?}");
                std::process::exit(1);
            }
        }
        match sim.get("scenarios") {
            Some(Json::UInt(n)) if *n > 0 => {}
            other => {
                eprintln!("smoke FAILED: sim_layer scenarios = {other:?}");
                std::process::exit(1);
            }
        }
        // The event-throughput field round-trips.
        match sim.get("events_per_sec") {
            Some(Json::Float(e)) if *e > 0.0 => {}
            other => {
                eprintln!("smoke FAILED: sim_layer events_per_sec = {other:?}");
                std::process::exit(1);
            }
        }
        // The rsm layer's contract: all replicas applied identical log
        // prefixes, every command at most once — across the whole grid.
        let Some(Json::Obj(rsm)) = map.get("rsm_layer") else {
            eprintln!("smoke FAILED: no rsm_layer section in the report");
            std::process::exit(1);
        };
        match rsm.get("violations") {
            Some(Json::UInt(0)) => {}
            other => {
                eprintln!("smoke FAILED: rsm_layer violations = {other:?}");
                std::process::exit(1);
            }
        }
        match rsm.get("scenarios") {
            Some(Json::UInt(n)) if *n > 0 => {}
            other => {
                eprintln!("smoke FAILED: rsm_layer scenarios = {other:?}");
                std::process::exit(1);
            }
        }
        match rsm.get("service") {
            Some(Json::Obj(service)) if matches!(service.get("commands"), Some(Json::UInt(n)) if *n > 0) =>
                {}
            other => {
                eprintln!("smoke FAILED: rsm_layer service aggregates = {other:?}");
                std::process::exit(1);
            }
        }
        // The flow-control contract: the lease axis round-trips (`lease`,
        // `noop_slots`, `lease_takeovers` in every cell), both settings
        // are present, and every lease-on full-delivery cell clears the
        // requeue gate (requeued/applied ≤ 0.1 under symmetric delivery).
        let Some(Json::Arr(rsm_cells)) = rsm.get("cells") else {
            eprintln!("smoke FAILED: no rsm_layer cell table in the report");
            std::process::exit(1);
        };
        let mut saw_lease = [false, false];
        for cell in rsm_cells {
            let Json::Obj(cell) = cell else {
                eprintln!("smoke FAILED: rsm_layer cell is not an object");
                std::process::exit(1);
            };
            let Some(Json::Bool(lease)) = cell.get("lease") else {
                eprintln!("smoke FAILED: rsm_layer cell missing lease flag: {cell:?}");
                std::process::exit(1);
            };
            saw_lease[usize::from(*lease)] = true;
            if !cell.contains_key("noop_slots") || !cell.contains_key("lease_takeovers") {
                eprintln!("smoke FAILED: rsm_layer cell missing flow-control fields: {cell:?}");
                std::process::exit(1);
            }
            if *lease && cell.get("adversary") == Some(&Json::Str("full_delivery".into())) {
                let ratio = match cell.get("requeue_ratio") {
                    Some(Json::Float(r)) => *r,
                    Some(Json::UInt(n)) => *n as f64,
                    Some(Json::Null) => 0.0,
                    other => {
                        eprintln!("smoke FAILED: rsm_layer requeue_ratio = {other:?}");
                        std::process::exit(1);
                    }
                };
                if ratio > 0.1 {
                    eprintln!(
                        "smoke FAILED: lease-on full-delivery requeue ratio {ratio} > 0.1: {cell:?}"
                    );
                    std::process::exit(1);
                }
            }
        }
        if saw_lease != [true, true] {
            eprintln!("smoke FAILED: the rsm grid must sweep lease off AND on ({saw_lease:?})");
            std::process::exit(1);
        }
        // The sharded layer's contract: the partitioned service kept the
        // sharded oracle (per-shard prefix agreement + exactly-once,
        // namespace containment, cross-shard disjointness) and the per-S
        // scaling table round-trips with its requeue ratios.
        let Some(Json::Obj(sharded)) = map.get("sharded_rsm") else {
            eprintln!("smoke FAILED: no sharded_rsm section in the report");
            std::process::exit(1);
        };
        match sharded.get("violations") {
            Some(Json::UInt(0)) => {}
            other => {
                eprintln!("smoke FAILED: sharded_rsm violations = {other:?}");
                std::process::exit(1);
            }
        }
        match sharded.get("scaling") {
            Some(Json::Arr(rows)) if !rows.is_empty() => {
                for row in rows {
                    let Json::Obj(row) = row else {
                        eprintln!("smoke FAILED: sharded_rsm scaling row is not an object");
                        std::process::exit(1);
                    };
                    if !matches!(row.get("shards"), Some(Json::UInt(s)) if *s >= 1)
                        || !row.contains_key("requeue_ratio")
                    {
                        eprintln!("smoke FAILED: sharded_rsm scaling row incomplete: {row:?}");
                        std::process::exit(1);
                    }
                }
            }
            other => {
                eprintln!("smoke FAILED: sharded_rsm scaling table = {other:?}");
                std::process::exit(1);
            }
        }
        // The telemetry contract: the flight-recorder A/B section
        // round-trips (event census, measured overhead), the injected
        // counterexample produced a forensic artifact with a repro line,
        // and the repro line's scenario lookup reproduces the verdict.
        let Some(Json::Obj(telemetry)) = map.get("telemetry") else {
            eprintln!("smoke FAILED: no telemetry section in the report");
            std::process::exit(1);
        };
        match telemetry.get("events_recorded") {
            Some(Json::UInt(n)) if *n > 0 => {}
            other => {
                eprintln!("smoke FAILED: telemetry events_recorded = {other:?}");
                std::process::exit(1);
            }
        }
        match telemetry.get("overhead_vs_off") {
            Some(Json::Float(r)) if *r > 0.0 => {}
            other => {
                eprintln!("smoke FAILED: telemetry overhead_vs_off = {other:?}");
                std::process::exit(1);
            }
        }
        if !matches!(telemetry.get("events"), Some(Json::Obj(kinds)) if !kinds.is_empty())
            || !matches!(telemetry.get("phases"), Some(Json::Obj(phases)) if !phases.is_empty())
        {
            eprintln!("smoke FAILED: telemetry event/phase tables missing");
            std::process::exit(1);
        }
        let Some(Json::Obj(forensic)) = telemetry.get("forensic_sample") else {
            eprintln!("smoke FAILED: no forensic artifact from the counterexample grid");
            std::process::exit(1);
        };
        let (Some(Json::Str(forensic_id)), Some(Json::Str(repro))) =
            (forensic.get("scenario"), forensic.get("repro"))
        else {
            eprintln!("smoke FAILED: forensic artifact missing scenario/repro: {forensic:?}");
            std::process::exit(1);
        };
        if !repro.contains("--scenario") || !repro.contains(forensic_id.as_str()) {
            eprintln!("smoke FAILED: forensic repro line malformed: {repro:?}");
            std::process::exit(1);
        }
        if !matches!(forensic.get("events"), Some(Json::Arr(events)) if !events.is_empty()) {
            eprintln!("smoke FAILED: forensic artifact carries no events");
            std::process::exit(1);
        }
        // Execute what the repro line executes, in process: the lookup
        // must find the id and the rerun must flag the same violation.
        match bench::sweep::run_scenario_by_id(forensic_id) {
            Some(Json::Obj(repro_doc)) => {
                let reproduced = matches!(
                    repro_doc.get("verdict"),
                    Some(Json::Obj(v)) if matches!(v.get("violation"), Some(Json::Str(_)))
                ) && repro_doc.contains_key("forensic");
                if !reproduced {
                    eprintln!(
                        "smoke FAILED: repro of {forensic_id} did not reproduce the violation"
                    );
                    std::process::exit(1);
                }
            }
            other => {
                eprintln!("smoke FAILED: repro lookup of {forensic_id} returned {other:?}");
                std::process::exit(1);
            }
        }
        // The contact-plan layer's contract: disruption-tolerant link
        // schedules stayed safe on every axis, every predicate window
        // landed by the guaranteed-good bound, and the degradation
        // metrics (dark rounds, backfill, catch-up) round-trip.
        let Some(Json::Obj(contact)) = map.get("contact_plan") else {
            eprintln!("smoke FAILED: no contact_plan section in the report");
            std::process::exit(1);
        };
        match contact.get("violations") {
            Some(Json::UInt(0)) => {}
            other => {
                eprintln!("smoke FAILED: contact_plan violations = {other:?}");
                std::process::exit(1);
            }
        }
        match contact.get("late_predicate_windows") {
            Some(Json::UInt(0)) => {}
            other => {
                eprintln!("smoke FAILED: contact_plan late predicate windows = {other:?}");
                std::process::exit(1);
            }
        }
        match contact.get("degradation") {
            Some(Json::Obj(deg))
                if matches!(deg.get("dark_rounds"), Some(Json::UInt(n)) if *n > 0)
                    && matches!(deg.get("backfill_entries"), Some(Json::UInt(n)) if *n > 0)
                    && deg.contains_key("worst_catch_up_rounds") => {}
            other => {
                eprintln!("smoke FAILED: contact_plan degradation aggregates = {other:?}");
                std::process::exit(1);
            }
        }
        // The per-cell dark-round and catch-up fields survive the JSON
        // round-trip through the contact rsm table.
        let cells_ok = matches!(
            contact.get("rsm_layer"),
            Some(Json::Obj(rsm)) if matches!(
                rsm.get("cells"),
                Some(Json::Arr(cells)) if !cells.is_empty() && cells.iter().all(|c| matches!(
                    c,
                    Json::Obj(cell) if cell.contains_key("dark_rounds")
                        && cell.contains_key("worst_catch_up_rounds")
                        && cell.contains_key("backfill_entries")
                ))
            )
        );
        if !cells_ok {
            eprintln!("smoke FAILED: contact_plan rsm cells missing degradation fields");
            std::process::exit(1);
        }
        println!(
            "smoke ok: 0 violations, predicate fields round-trip, cross-check ok, \
             sim layer kept every Alg2/Alg3 promise, rsm layer ordered its logs \
             without a fork, sharded layer kept every shard disjoint, contact \
             plans degraded gracefully, every predicate window was on time, and \
             the forensic repro reproduced its violation"
        );
    }
}
