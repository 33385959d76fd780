//! The self-checks around single runs: `--list`, `--smoke`, `--repeat K`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use ho_harness::Json;

use crate::metrics::{MetricDef, RunResult, END_TO_END, EXACT, PER_LAYER, WORKLOADS};
use crate::protocol::{self, RunOptions, Scale};
use crate::stats;

fn metric_json(def: &MetricDef, bound: Option<f64>) -> Json {
    let mut fields = BTreeMap::from([
        ("name".to_owned(), Json::Str(def.name.into())),
        ("unit".to_owned(), Json::Str(def.unit.into())),
        ("better".to_owned(), Json::Str(def.better.as_str().into())),
    ]);
    if let Some(bound) = bound {
        fields.insert("bound".to_owned(), Json::Float(bound));
    }
    Json::Obj(fields)
}

/// `--list`: the workload and metric tables in `BENCHMARK.json`'s shape.
#[must_use]
pub fn list_json() -> String {
    Json::obj([
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([
                            ("name", Json::Str((*name).into())),
                            ("why", Json::Str((*why).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(def, bound)| metric_json(def, Some(*bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|def| metric_json(def, None)).collect()),
        ),
    ])
    .pretty()
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    match doc {
        Json::Obj(map) => map.get(key).ok_or_else(|| format!("missing key {key:?}")),
        _ => Err(format!("expected an object around {key:?}")),
    }
}

fn number(value: &Json) -> Result<f64, String> {
    match value {
        Json::UInt(u) => Ok(*u as f64),
        Json::Float(x) => Ok(*x),
        other => Err(format!("expected a number, found {other:?}")),
    }
}

/// The `name` of every entry of the array under `key`.
fn names(doc: &Json, key: &str) -> Result<Vec<String>, String> {
    match field(doc, key)? {
        Json::Arr(items) => items
            .iter()
            .map(|item| match field(item, "name")? {
                Json::Str(s) => Ok(s.clone()),
                other => Err(format!("{key}: name is {other:?}")),
            })
            .collect(),
        _ => Err(format!("{key} is not an array")),
    }
}

/// `BENCHMARK.json`: in the working directory when run as the contract's
/// command (from the repository root), else beside this package.
fn benchmark_json() -> Result<Json, String> {
    let candidates = [
        PathBuf::from("BENCHMARK.json"),
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    ];
    let path = candidates
        .iter()
        .find(|p| p.is_file())
        .ok_or("BENCHMARK.json not found in the working directory or beside benchmark/")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn expect_same(what: &str, ours: &[&str], theirs: &[String]) -> Result<(), String> {
    let ours: Vec<String> = ours.iter().map(|s| (*s).to_owned()).collect();
    if ours == theirs {
        Ok(())
    } else {
        let missing: Vec<_> = ours.iter().filter(|n| !theirs.contains(n)).collect();
        let extra: Vec<_> = theirs.iter().filter(|n| !ours.contains(n)).collect();
        Err(format!(
            "{what}: BENCHMARK.json and --list disagree (only in --list: {missing:?}; only in BENCHMARK.json: {extra:?}; or the order differs)"
        ))
    }
}

fn value_of(result: &RunResult, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .map_or(f64::NAN, |(_, v, _)| *v)
}

/// `--smoke`: every workload at 1/20 size, untraced and traced, with the
/// names checked against `BENCHMARK.json` and the committed invariants
/// checked on every result.
///
/// # Errors
///
/// A name present on one side only, an oracle failure, a failed op, a late
/// predicate window, or traced self times that do not add up.
pub fn smoke() -> Result<(), String> {
    let started = Instant::now();
    let contract = benchmark_json()?;
    let workloads: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|(d, _)| d.name).collect();
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    expect_same("workloads", &workloads, &names(&contract, "workloads")?)?;
    expect_same("end_to_end", &end_to_end, &names(&contract, "end_to_end")?)?;
    expect_same("per_layer", &per_layer, &names(&contract, "per_layer")?)?;

    for workload in workloads {
        for trace in [false, true] {
            let opts = RunOptions {
                workload: workload.to_owned(),
                seed: 1,
                seconds: 0.05,
                trace,
                scale: Scale::SMOKE,
            };
            let result = protocol::run(&opts, Instant::now())
                .map_err(|e| format!("{workload} (trace {}): {e}", u8::from(trace)))?;
            let line = result.to_json_line();
            let parsed = Json::parse(&line).map_err(|e| format!("{workload}: result line: {e}"))?;
            let reported: Vec<String> = match field(&parsed, "metrics")? {
                Json::Obj(map) => map.keys().cloned().collect(),
                _ => return Err(format!("{workload}: metrics is not an object")),
            };
            let mut expected: Vec<String> = if trace { &per_layer } else { &end_to_end }
                .iter()
                .map(|s| (*s).to_owned())
                .collect();
            expected.sort();
            if reported != expected {
                return Err(format!(
                    "{workload}: result metrics {reported:?} != {expected:?}"
                ));
            }
            if result.failed != 0 {
                return Err(format!("{workload}: {} failed ops", result.failed));
            }
            if trace {
                let late = value_of(&result, "pred.late_windows");
                let tightness = value_of(&result, "pred.bound_tightness_worst");
                let sum = value_of(&result, "layer.sum_over_wall");
                if late != 0.0 || tightness > 1.0 {
                    return Err(format!(
                        "{workload}: {late} late predicate windows, worst tightness {tightness}"
                    ));
                }
                if (sum - 1.0).abs() > 0.02 {
                    return Err(format!(
                        "{workload}: traced self times sum to {sum:.4} of the pass wall"
                    ));
                }
            }
            println!("{line}");
        }
    }
    println!(
        "# smoke: {} workloads x (untraced, traced) ok in {:.1} s",
        WORKLOADS.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// `--repeat K`: the workload `K` times in fresh child processes; prints
/// each end-to-end metric's median and quartiles and, with `baseline`,
/// appends the set to that JSON file. With `vary_seed` (`--spread K`) run
/// `i` uses seed `--seed + i`: the acceptance rule's seed-to-seed spread.
///
/// # Errors
///
/// A failing child; on one seed, a simulated metric that differs between
/// runs; a metric whose interquartile spread exceeds its bound (`setup_s`
/// is reported but, as in the acceptance rule, not judged by its spread
/// across seeds).
pub fn repeat(
    opts: &RunOptions,
    k: usize,
    vary_seed: bool,
    baseline: Option<&str>,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut columns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut attempted = 0;
    for run in 0..k {
        let output = Command::new(&exe)
            .args(["--workload", &opts.workload])
            .args([
                "--seed",
                &(opts.seed + if vary_seed { run as u64 } else { 0 }).to_string(),
            ])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", "0"])
            .output()
            .map_err(|e| format!("spawning run {run}: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "run {run} exited with {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().ok_or("a run printed nothing")?;
        let doc = Json::parse(line).map_err(|e| format!("run {run}: {e}"))?;
        if number(field(&doc, "failed")?)? != 0.0 {
            return Err(format!("run {run} reported failed ops: {line}"));
        }
        attempted = number(field(&doc, "attempted")?)? as u64;
        let metrics = field(&doc, "metrics")?;
        for (def, _) in &END_TO_END {
            let value = number(field(field(metrics, def.name)?, "value")?)?;
            columns.entry(def.name).or_default().push(value);
        }
        eprintln!("run {}/{k}: {line}", run + 1);
    }

    let mut problems = Vec::new();
    let mut set = BTreeMap::new();
    println!(
        "{} · seed{} {} · {k} runs · {} s each",
        opts.workload,
        if vary_seed { "s from" } else { "" },
        opts.seed,
        opts.seconds
    );
    for (def, bound) in &END_TO_END {
        let values = &columns[def.name];
        let [q1, median, q3] = stats::quartiles(&mut values.clone());
        let spread = (q3 - q1) / median;
        println!(
            "  {:<18} median {median:<14.6} q1 {q1:<14.6} q3 {q3:<14.6} spread {:.2} % of median (bound {:.0} %) [{}]",
            def.name,
            spread * 100.0,
            bound * 100.0,
            def.unit
        );
        if !vary_seed && EXACT.contains(&def.name) {
            if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                problems.push(format!("{} is not exact: {values:?}", def.name));
            }
        } else if spread > *bound && !(vary_seed && def.name == "setup_s") {
            problems.push(format!(
                "{} spread {:.2} % exceeds its bound {:.0} %",
                def.name,
                spread * 100.0,
                bound * 100.0
            ));
        }
        set.insert(
            def.name.to_owned(),
            Json::obj([
                ("unit", Json::Str(def.unit.into())),
                ("median", Json::Float(median)),
                ("q1", Json::Float(q1)),
                ("q3", Json::Float(q3)),
                (
                    "values",
                    Json::Arr(values.iter().map(|v| Json::Float(*v)).collect()),
                ),
            ]),
        );
    }
    if let Some(path) = baseline {
        append_set(path, opts, k, vary_seed, attempted, set)?;
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// Appends one `--repeat` set under `sets.<workload>` of the baseline file.
fn append_set(
    path: &str,
    opts: &RunOptions,
    runs: usize,
    vary_seed: bool,
    attempted: u64,
    metrics: BTreeMap<String, Json>,
) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("{path}: {e}"))?,
        Err(_) => Json::obj([("sets", Json::Obj(BTreeMap::new()))]),
    };
    let Json::Obj(root) = &mut doc else {
        return Err(format!("{path}: not a JSON object"));
    };
    let Json::Obj(sets) = root
        .entry("sets".to_owned())
        .or_insert_with(|| Json::Obj(BTreeMap::new()))
    else {
        return Err(format!("{path}: sets is not an object"));
    };
    let Json::Arr(list) = sets
        .entry(opts.workload.clone())
        .or_insert_with(|| Json::Arr(Vec::new()))
    else {
        return Err(format!("{path}: sets.{} is not an array", opts.workload));
    };
    list.push(Json::obj([
        ("seed", Json::UInt(opts.seed)),
        ("seed_varies", Json::Bool(vary_seed)),
        ("runs", Json::UInt(runs as u64)),
        ("seconds", Json::Float(opts.seconds)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(0)),
        ("metrics", Json::Obj(metrics)),
    ]));
    std::fs::write(path, doc.pretty() + "\n").map_err(|e| format!("{path}: {e}"))
}
