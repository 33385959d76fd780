//! SW — the scenario sweep: the harness baseline behind `BENCH_sweep.json`.
//!
//! Defines the canonical scenario grid (every algorithm, the full fault
//! zoo, three system sizes, forty seeds) and the report document that
//! tracks the round loop's cost model release over release:
//!
//! * the SendPlan kernel's message economy (`clones_per_round_before` is
//!   what the per-destination `S_p^r` scheme deep-cloned,
//!   `allocs_per_round_after` is what the plan kernel constructs);
//! * the scratch-buffer reuse rate (`fresh_allocs_per_round` is what
//!   actually reaches the allocator — ~0 for broadcast algorithms in
//!   steady state);
//! * throughput, measured twice: a single-core pass (comparable across
//!   releases) and an all-core pass with the chunked work-stealing pool,
//!   plus the scaling efficiency between them.
//!
//! Regenerate with `cargo run --release -p bench --bin sweep` and diff the
//! trajectory; `--smoke` runs a thinned grid for CI (asserting zero safety
//! violations and that the emitted JSON parses back).

use std::time::Instant;

use ho_core::adversary::Adversary as _;
use ho_core::{ContactPlan, ContactPlanAdversary, ProcessSet, Round};
use ho_harness::{
    chunk_policy_json, default_threads, forensic_artifact_json, predicate_totals_json,
    repro_command, rsm_report_json, rsm_verdict_json, sim_report_json, sim_verdict_json,
    telemetry_summary_json, verdict_json, AdversarySpec, AlgorithmSpec, ChunkPolicy,
    ImplementationSpec, Json, LinkFaultSpec, PredicateTotals, RsmReport, RsmSweep, SimSweep, Sweep,
    SweepReport, TelemetrySummary, WorkloadSpec,
};
use ho_predicates::monitor::WindowMonitor;

/// The canonical *safe* baseline grid: every cell must finish with zero
/// violations.
///
/// UniformVoting is swept only under environments that respect its safety
/// predicate `P_nek` (a non-empty kernel every round — a single down
/// process empties the kernel, so even crash-recovery is out of bounds);
/// OneThirdRule and LastVoting are swept under everything, including
/// partitions and empty-kernel chaos, because their safety needs no
/// communication predicate at all.
#[must_use]
pub fn baseline_sweeps() -> Vec<Sweep> {
    let unrestricted = [
        AdversarySpec::FullDelivery,
        AdversarySpec::RandomLoss { loss: 0.2 },
        AdversarySpec::RandomLoss { loss: 0.4 },
        AdversarySpec::Partition { blocks: 2 },
        AdversarySpec::CrashRecovery,
        AdversarySpec::KernelOnly { loss: 0.8 },
        AdversarySpec::EventuallyGood {
            bad_rounds: 6,
            loss: 0.5,
        },
    ];
    let kernel_preserving = [
        AdversarySpec::FullDelivery,
        AdversarySpec::KernelOnly { loss: 0.8 },
    ];
    vec![
        Sweep::new()
            .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
            .adversaries(unrestricted)
            .sizes([4, 7, 10])
            .seeds(0..40)
            .max_rounds(120),
        Sweep::new()
            .algorithms([AlgorithmSpec::UniformVoting])
            .adversaries(kernel_preserving)
            .sizes([4, 7, 10])
            .seeds(0..40)
            .max_rounds(120),
    ]
}

/// The `P_nek` counterexample sweep: UniformVoting outside its safety
/// predicate. The harness is expected to *catch* agreement violations here
/// (empty kernels let disjoint groups — in space or, with staggered
/// outages, in time — confirm different votes); the report records how
/// many were detected so the checker's sensitivity is itself tracked.
#[must_use]
pub fn pnek_counterexample_sweep() -> Sweep {
    Sweep::new()
        .algorithms([AlgorithmSpec::UniformVoting])
        .adversaries([
            AdversarySpec::RandomLoss { loss: 0.4 },
            AdversarySpec::Partition { blocks: 2 },
            AdversarySpec::CrashRecovery,
        ])
        .sizes([4, 7, 10])
        .seeds(0..40)
        .max_rounds(120)
}

/// The canonical **sim-layer** grid: the predicate *implementation* stack
/// (Algorithms 2 and 3 over the system-level simulator) swept across
/// (implementation × link-fault model × n × seed), each scenario's verdict
/// checking the *delivered* predicate — the `P_su` / `P_k` window the
/// theorems promise — against the theorem bound. Every cell must finish
/// with zero violations: a violation here means an implementation broke
/// its own paper-proved guarantee.
#[must_use]
pub fn sim_layer_sweep() -> SimSweep {
    SimSweep::new()
        .implementations([ImplementationSpec::Alg2, ImplementationSpec::Alg3 { f: 1 }])
        .faults([
            LinkFaultSpec::GoodFromStart,
            LinkFaultSpec::LossyThenGood {
                bad_len: 40.0,
                loss: 0.5,
            },
            LinkFaultSpec::CrashyThenGood { bad_len: 40.0 },
            LinkFaultSpec::OmissiveThenGood {
                bad_len: 40.0,
                send: 0.3,
                recv: 0.3,
            },
        ])
        .sizes([4, 6])
        .seeds(0..10)
        .window(2)
}

/// The canonical **rsm-layer** grids: the replicated-log service
/// (`ho-rsm`'s pipelined `LogDriver`) swept across (inner algorithm ×
/// adversary × n × pipeline depth × workload × lease × seed). Every cell
/// must finish with **zero** prefix-agreement / exactly-once violations;
/// the per-cell table carries the service numbers (commands/sec,
/// rounds/slot, worst p99 apply latency in rounds) that future scaling
/// PRs move. The lease axis runs every cell twice — flow control off
/// (the requeue-churn baseline) and on (slot leases, adaptive batching,
/// admission backpressure) — so the document is its own before/after
/// table for the flow-control work.
///
/// OneThirdRule and LastVoting run the full fault zoo — their safety
/// needs no communication predicate, so even chaos may only slow the log,
/// never fork it. UniformVoting runs under full delivery only: pipelined
/// slots open at different rounds on different replicas, so no adversary
/// can guarantee a per-instance non-empty kernel out of lockstep (see
/// `ho_harness::rsm`).
#[must_use]
pub fn rsm_layer_sweeps() -> Vec<RsmSweep> {
    let workloads = [
        WorkloadSpec::FixedRate { per_round: 2 },
        WorkloadSpec::ClosedLoop { clients: 8 },
        WorkloadSpec::Bursty {
            burst: 8,
            period: 4,
        },
        WorkloadSpec::SkewedKey { per_round: 2 },
    ];
    vec![
        RsmSweep::new()
            .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
            .adversaries([
                AdversarySpec::FullDelivery,
                AdversarySpec::RandomLoss { loss: 0.3 },
                AdversarySpec::CrashRecovery,
                AdversarySpec::EventuallyGood {
                    bad_rounds: 6,
                    loss: 0.5,
                },
            ])
            .sizes([4, 7])
            .depths([1, 4, 16])
            .workloads(workloads)
            .leases([false, true])
            .seeds(0..3)
            .rounds(80),
        RsmSweep::new()
            .algorithms([AlgorithmSpec::UniformVoting])
            .adversaries([AdversarySpec::FullDelivery])
            .sizes([4, 7])
            .depths([1, 4, 16])
            .workloads(workloads)
            .leases([false, true])
            .seeds(0..3)
            .rounds(80),
    ]
}

/// Runs the rsm-layer grids and merges them into one report. Pass
/// `smoke = true` for the thinned CI variant.
#[must_use]
pub fn run_rsm_layer(smoke: bool) -> RsmReport {
    let sweeps: Vec<RsmSweep> = if smoke {
        rsm_layer_sweeps()
            .into_iter()
            .map(|s| {
                s.seeds(0..1).workloads([
                    WorkloadSpec::FixedRate { per_round: 2 },
                    WorkloadSpec::ClosedLoop { clients: 8 },
                ])
            })
            .collect()
    } else {
        rsm_layer_sweeps()
    };
    let start = Instant::now();
    let mut verdicts = Vec::new();
    let mut threads = 1;
    let mut chunk = ChunkPolicy::from_env();
    for sweep in sweeps {
        let report = sweep.run();
        threads = report.threads;
        chunk = report.chunk;
        verdicts.extend(report.verdicts);
    }
    RsmReport::aggregate(verdicts, start.elapsed().as_secs_f64(), threads, chunk)
}

/// The canonical **sharded-rsm** grid: the partitioned log service
/// (`ho-rsm`'s `ShardedLogDriver`) swept across shard counts
/// S ∈ {1, 2, 4, 8, 16} under clean and lossy delivery, on uniform and
/// hot-key workloads. Every cell must finish with zero violations of the
/// *sharded* oracle (per-shard prefix agreement + exactly-once, namespace
/// containment, cross-shard disjointness); the scaling table behind the
/// `sharded_rsm` section of `BENCH_sweep.json` comes from here.
///
/// S = 1 is deliberately in the grid: `shard_seed(seed, 0) == seed` makes
/// that column bit-identical to the unsharded `rsm_layer` service, so the
/// router's own overhead is directly readable as (S=1 here) vs
/// (`rsm_layer` there) on the same workload cells.
#[must_use]
pub fn sharded_rsm_sweeps() -> Vec<RsmSweep> {
    vec![RsmSweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule])
        .adversaries([
            AdversarySpec::FullDelivery,
            AdversarySpec::RandomLoss { loss: 0.3 },
        ])
        .sizes([4])
        .depths([4])
        .shards([1, 2, 4, 8, 16])
        .workloads([
            WorkloadSpec::FixedRate { per_round: 2 },
            WorkloadSpec::SkewedKey { per_round: 2 },
        ])
        .leases([false, true])
        .seeds(0..3)
        .rounds(80)]
}

/// Runs the sharded-rsm grids and merges them into one report. Pass
/// `smoke = true` for the thinned CI variant (S ∈ {1, 4}, 2 seeds).
#[must_use]
pub fn run_sharded_rsm(smoke: bool) -> RsmReport {
    let sweeps: Vec<RsmSweep> = if smoke {
        sharded_rsm_sweeps()
            .into_iter()
            .map(|s| s.shards([1, 4]).seeds(0..2))
            .collect()
    } else {
        sharded_rsm_sweeps()
    };
    let start = Instant::now();
    let mut verdicts = Vec::new();
    let mut threads = 1;
    let mut chunk = ChunkPolicy::from_env();
    for sweep in sweeps {
        let report = sweep.run();
        threads = report.threads;
        chunk = report.chunk;
        verdicts.extend(report.verdicts);
    }
    RsmReport::aggregate(verdicts, start.elapsed().as_secs_f64(), threads, chunk)
}

/// The `sharded_rsm` section: the standard rsm report plus a `scaling`
/// table — one row per (shard count, lease setting), aggregated over the
/// rest of the grid, carrying the numbers the sharding and flow-control
/// tentpoles are judged by (aggregate commands/sec and the requeue ratio
/// as S grows, before and after leases).
#[must_use]
pub fn sharded_rsm_json(report: &RsmReport) -> Json {
    let Json::Obj(mut map) = rsm_report_json(report, false) else {
        unreachable!("rsm reports serialize to an object");
    };
    let mut by_shards: std::collections::BTreeMap<(usize, bool), Vec<&ho_harness::RsmVerdict>> =
        std::collections::BTreeMap::new();
    for v in &report.verdicts {
        by_shards.entry((v.shards, v.lease)).or_default().push(v);
    }
    let scaling: Vec<Json> = by_shards
        .into_iter()
        .map(|((shards, lease), vs)| {
            let commands: u64 = vs.iter().map(|v| v.commands).sum();
            let generated: u64 = vs.iter().map(|v| v.generated_commands).sum();
            let requeued: u64 = vs.iter().map(|v| v.requeued_commands).sum();
            let wall: u64 = vs.iter().map(|v| v.wall_nanos).sum();
            let violations = vs.iter().filter(|v| !v.is_safe()).count();
            Json::obj([
                ("shards", Json::UInt(shards as u64)),
                ("lease", Json::Bool(lease)),
                ("scenarios", Json::UInt(vs.len() as u64)),
                ("violations", Json::UInt(violations as u64)),
                ("commands", Json::UInt(commands)),
                ("generated_commands", Json::UInt(generated)),
                ("requeued_commands", Json::UInt(requeued)),
                (
                    "requeue_ratio",
                    if commands == 0 {
                        Json::Null
                    } else {
                        Json::Float(requeued as f64 / commands as f64)
                    },
                ),
                ("wall_nanos", Json::UInt(wall)),
                (
                    "commands_per_sec",
                    Json::Float(if wall == 0 {
                        0.0
                    } else {
                        commands as f64 * 1e9 / wall as f64
                    }),
                ),
                (
                    "worst_p99_latency_rounds",
                    Json::UInt(vs.iter().filter_map(|v| v.latency_p99).max().unwrap_or(0)),
                ),
            ])
        })
        .collect();
    map.insert("scaling".into(), Json::Arr(scaling));
    Json::Obj(map)
}

/// The canonical contact-plan shapes: an episodic partition, a rotating
/// two-process contact window, and a store-and-forward gap. Sized so the
/// guaranteed-good suffix starts by round 19 — comfortably inside every
/// grid's round budget, leaving the bulk of the run to measure recovery,
/// not just survival.
#[must_use]
pub fn contact_plans() -> [ContactPlan; 3] {
    [
        ContactPlan::Episodic {
            dark: 3,
            bright: 2,
            cycles: 4,
        },
        ContactPlan::Rotating {
            window: 3,
            windows: 6,
        },
        ContactPlan::StoreAndForward { dark: 16 },
    ]
}

/// The **model-layer** contact grid: OneThirdRule and LastVoting driven
/// by [`ContactPlanAdversary`] HO sets. UniformVoting is excluded by
/// design: every contact phase (disjoint blocks, a two-process window,
/// an isolated replica) empties the global kernel, so `P_nek` cannot
/// hold under any contact plan.
#[must_use]
pub fn contact_model_sweep() -> Sweep {
    Sweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
        .adversaries(contact_plans().map(|plan| AdversarySpec::ContactPlan { plan }))
        .sizes([4, 7])
        .seeds(0..40)
        .max_rounds(120)
}

/// The **sim-layer** contact grid: Algorithms 2 and 3 over real-valued
/// time, the plan mapped onto rounds of fixed length by the engine's
/// link schedule. The store-and-forward plan runs at two round lengths
/// so the time→round mapping itself is exercised, not just one scaling
/// of it.
#[must_use]
pub fn contact_sim_sweep() -> SimSweep {
    let [episodic, rotating, store_forward] = contact_plans();
    SimSweep::new()
        .implementations([ImplementationSpec::Alg2, ImplementationSpec::Alg3 { f: 1 }])
        .faults([
            LinkFaultSpec::ContactPlanThenGood {
                plan: episodic,
                round_len: 5.0,
            },
            LinkFaultSpec::ContactPlanThenGood {
                plan: rotating,
                round_len: 5.0,
            },
            LinkFaultSpec::ContactPlanThenGood {
                plan: store_forward,
                round_len: 5.0,
            },
            LinkFaultSpec::ContactPlanThenGood {
                plan: store_forward,
                round_len: 2.5,
            },
        ])
        .sizes([4, 6])
        .seeds(0..6)
        .window(2)
}

/// The **rsm-layer** contact grid: the replicated-log service riding out
/// every plan shape, with the degradation metrics (dark rounds, log
/// divergence, backfill volume, catch-up latency) flowing into the
/// per-cell table.
#[must_use]
pub fn contact_rsm_sweep() -> RsmSweep {
    RsmSweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
        .adversaries(contact_plans().map(|plan| AdversarySpec::ContactPlan { plan }))
        .sizes([4])
        .depths([1, 4])
        .workloads([
            WorkloadSpec::FixedRate { per_round: 2 },
            WorkloadSpec::ClosedLoop { clients: 8 },
        ])
        .leases([false, true])
        .seeds(0..3)
        .rounds(80)
}

/// The **sharded** contact sub-grid: each shard group's plan derives
/// from its own `shard_seed`, so dark intervals and dark replicas differ
/// per shard — the router must survive shards degrading out of phase
/// with each other.
#[must_use]
pub fn contact_sharded_sweep() -> RsmSweep {
    let [episodic, _, store_forward] = contact_plans();
    RsmSweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule])
        .adversaries([
            AdversarySpec::ContactPlan { plan: episodic },
            AdversarySpec::ContactPlan {
                plan: store_forward,
            },
        ])
        .sizes([4])
        .depths([4])
        .shards([1, 4])
        .workloads([WorkloadSpec::FixedRate { per_round: 2 }])
        .leases([false, true])
        .seeds(0..3)
        .rounds(80)
}

/// Measures predicate lateness directly on the adversary's HO rows: for
/// each plan, how late the first `P_k` / `P_su` window of length `x`
/// completes relative to the fault-free ideal (round `x`), and whether
/// it lands by the hard bound `good_from + x − 1` that the permanently
/// fully-connected suffix guarantees. One row per (plan, predicate),
/// aggregated over (n × seed); a row with `within_bound: false` fails
/// the CI smoke job.
#[must_use]
pub fn predicate_lateness_json(sizes: &[usize], seeds: std::ops::Range<u64>, x: u64) -> Json {
    type Make = fn(ProcessSet, u64, f64) -> WindowMonitor;
    let mut rows = Vec::new();
    for plan in contact_plans() {
        let bound = plan.good_from() + x - 1;
        for (predicate, make) in [
            ("kernel", WindowMonitor::kernel as Make),
            ("space_uniform", WindowMonitor::space_uniform as Make),
        ] {
            let mut scenarios = 0u64;
            let mut achieved = 0u64;
            let mut worst_witness = 0u64;
            for &n in sizes {
                for seed in seeds.clone() {
                    scenarios += 1;
                    let mut adversary = ContactPlanAdversary::new(plan, seed);
                    let mut monitor = make(ProcessSet::full(n), x, 0.0);
                    let mut ho = vec![ProcessSet::full(n); n];
                    for r in 1..=bound {
                        adversary.fill_ho_sets(Round(r), &mut ho);
                        monitor.observe_row(r, &ho, r as f64);
                        if let Some((_, t)) = monitor.witness() {
                            achieved += 1;
                            worst_witness = worst_witness.max(t as u64);
                            break;
                        }
                    }
                }
            }
            rows.push(Json::obj([
                ("plan", Json::Str(plan.label())),
                ("predicate", Json::Str(predicate.into())),
                ("window", Json::UInt(x)),
                ("scenarios", Json::UInt(scenarios)),
                ("good_from", Json::UInt(plan.good_from())),
                ("bound_round", Json::UInt(bound)),
                ("worst_witness_round", Json::UInt(worst_witness)),
                (
                    "worst_lateness_rounds",
                    Json::UInt(worst_witness.saturating_sub(x)),
                ),
                ("within_bound", Json::Bool(achieved == scenarios)),
            ]));
        }
    }
    Json::Arr(rows)
}

/// Runs the contact-plan grids on all three axes and assembles the
/// `contact_plan` section of `BENCH_sweep.json`: per-layer reports, the
/// predicate-lateness table, and the graceful-degradation aggregates the
/// DTN roadmap item is judged by. Pass `smoke = true` for the thinned CI
/// variant.
#[must_use]
pub fn run_contact_plan(smoke: bool) -> Json {
    let model = if smoke {
        contact_model_sweep().seeds(0..8)
    } else {
        contact_model_sweep()
    }
    .run();
    let sim = if smoke {
        contact_sim_sweep().seeds(0..2)
    } else {
        contact_sim_sweep()
    }
    .run();
    let rsm = if smoke {
        contact_rsm_sweep().seeds(0..1)
    } else {
        contact_rsm_sweep()
    }
    .run();
    let sharded = if smoke {
        contact_sharded_sweep().seeds(0..1)
    } else {
        contact_sharded_sweep()
    }
    .run();
    let lateness = predicate_lateness_json(&[4, 7], if smoke { 0..4 } else { 0..16 }, 2);

    let late_windows = match &lateness {
        Json::Arr(rows) => rows
            .iter()
            .filter(|row| {
                !matches!(row, Json::Obj(m) if m.get("within_bound") == Some(&Json::Bool(true)))
            })
            .count() as u64,
        _ => unreachable!("the lateness table is an array"),
    };

    let service = rsm.verdicts.iter().chain(&sharded.verdicts);
    let dark_rounds: u64 = service.clone().map(|v| v.dark_rounds).sum();
    let backfill_entries: u64 = service.clone().map(|v| v.backfill_entries).sum();
    let divergent_rounds: u64 = service.clone().map(|v| v.divergent_rounds).sum();
    let recovered = service
        .clone()
        .filter(|v| v.catch_up_rounds.is_some())
        .count() as u64;
    let worst_catch_up = service.filter_map(|v| v.catch_up_rounds).max().unwrap_or(0);

    let violations = model.violations as u64
        + sim.violations as u64
        + rsm.violations as u64
        + sharded.violations as u64
        + late_windows;

    Json::obj([
        (
            "scenarios",
            Json::UInt(
                model.scenarios as u64
                    + sim.scenarios as u64
                    + rsm.scenarios as u64
                    + sharded.scenarios as u64,
            ),
        ),
        ("violations", Json::UInt(violations)),
        ("late_predicate_windows", Json::UInt(late_windows)),
        (
            "degradation",
            Json::obj([
                ("dark_rounds", Json::UInt(dark_rounds)),
                ("backfill_entries", Json::UInt(backfill_entries)),
                ("divergent_rounds", Json::UInt(divergent_rounds)),
                ("recovered_scenarios", Json::UInt(recovered)),
                ("worst_catch_up_rounds", Json::UInt(worst_catch_up)),
            ]),
        ),
        ("predicate_lateness", lateness),
        ("model_layer", model.to_json(false)),
        ("sim_layer", sim_report_json(&sim, false)),
        ("rsm_layer", rsm_report_json(&rsm, false)),
        ("sharded_rsm", sharded_rsm_json(&sharded)),
    ])
}

/// Every model-layer grid a `--scenario <id>` repro can come from,
/// in document order: the safe baseline, the `P_nek` counterexamples,
/// and the contact-plan cells.
fn all_model_sweeps() -> Vec<Sweep> {
    let mut sweeps = baseline_sweeps();
    sweeps.push(pnek_counterexample_sweep());
    sweeps.push(contact_model_sweep());
    sweeps
}

/// The result document of one repro run: which grid layer matched, the
/// full verdict, and — when the run ended in a violation — the
/// self-contained forensic artifact.
fn repro_doc(layer: &str, id: &str, verdict: Json, forensic: Option<Json>) -> Json {
    let mut map = std::collections::BTreeMap::new();
    map.insert("scenario".to_owned(), Json::Str(id.to_owned()));
    map.insert("layer".to_owned(), Json::Str(layer.to_owned()));
    map.insert("repro".to_owned(), Json::Str(repro_command(id)));
    map.insert("verdict".to_owned(), verdict);
    if let Some(f) = forensic {
        map.insert("forensic".to_owned(), f);
    }
    Json::Obj(map)
}

/// Single-scenario repro mode — what the `repro` line inside every
/// forensic artifact executes (`cargo run --release -p bench --bin sweep
/// -- --scenario <id>`).
///
/// Looks the id up in every canonical grid (model baseline, `P_nek`
/// counterexamples, sim layer, rsm layer, sharded rsm, and all four
/// contact-plan variants), reruns exactly that scenario with the flight
/// recorder on, and returns a self-contained result document: the
/// verdict, its telemetry digest, and — when the run ends in a safety
/// violation — the full forensic artifact with the drained event ring.
/// Scenarios are deterministic in (grid cell, seed), so the rerun
/// reproduces the original sweep's verdict bit for bit. Returns `None`
/// for an id no grid produces.
#[must_use]
pub fn run_scenario_by_id(id: &str) -> Option<Json> {
    if let Some(mut scenario) = all_model_sweeps()
        .into_iter()
        .flat_map(|s| s.scenarios())
        .find(|s| s.id() == id)
    {
        scenario.telemetry = true;
        let v = scenario.run();
        let forensic = v.forensic_events.as_deref().map(|events| {
            forensic_artifact_json(
                id,
                v.seed,
                v.violation.as_deref().unwrap_or("violation"),
                v.telemetry.as_ref(),
                events,
            )
        });
        return Some(repro_doc("model", id, verdict_json(&v), forensic));
    }

    if let Some(mut scenario) = [sim_layer_sweep(), contact_sim_sweep()]
        .into_iter()
        .flat_map(|s| s.scenarios())
        .find(|s| s.id() == id)
    {
        scenario.telemetry = true;
        let v = scenario.run();
        let forensic = v.forensic_events.as_deref().map(|events| {
            forensic_artifact_json(
                id,
                v.seed,
                v.violation.as_deref().unwrap_or("violation"),
                v.telemetry.as_ref(),
                events,
            )
        });
        return Some(repro_doc("sim", id, sim_verdict_json(&v), forensic));
    }

    let mut rsm_grids = rsm_layer_sweeps();
    rsm_grids.push(contact_rsm_sweep());
    rsm_grids.extend(sharded_rsm_sweeps());
    rsm_grids.push(contact_sharded_sweep());
    if let Some(mut scenario) = rsm_grids
        .into_iter()
        .flat_map(|s| s.scenarios())
        .find(|s| s.id() == id)
    {
        scenario.telemetry = true;
        let v = scenario.run();
        let forensic = v.forensic_events.as_deref().map(|events| {
            forensic_artifact_json(
                id,
                v.seed,
                v.violation.as_deref().unwrap_or("violation"),
                v.telemetry.as_ref(),
                events,
            )
        });
        return Some(repro_doc("rsm", id, rsm_verdict_json(&v), forensic));
    }

    None
}

/// One timed pass over the whole baseline grid at a fixed worker count.
struct Pass {
    reports: Vec<SweepReport>,
    wall: f64,
    scenarios: u64,
    threads: usize,
}

fn run_pass(sweeps: &[Sweep], threads: usize) -> Pass {
    let start = Instant::now();
    let reports: Vec<SweepReport> = sweeps
        .iter()
        .map(|s| s.clone().threads(threads).run())
        .collect();
    let wall = start.elapsed().as_secs_f64();
    Pass {
        scenarios: reports.iter().map(|r| r.scenarios as u64).sum(),
        wall,
        threads,
        reports,
    }
}

/// The fastest of `k` repetitions of a pass. The grids measure in tens
/// of milliseconds, so a single pass is at the mercy of the scheduler;
/// the minimum wall across repetitions is the standard estimator for
/// "what the code costs" on a noisy host.
fn best_pass(sweeps: &[Sweep], threads: usize, k: usize) -> Pass {
    let mut best: Option<Pass> = None;
    for _ in 0..k {
        let pass = run_pass(sweeps, threads);
        if best.as_ref().is_none_or(|b| pass.wall < b.wall) {
            best = Some(pass);
        }
    }
    best.expect("at least one repetition")
}

impl Pass {
    fn scenarios_per_sec(&self) -> f64 {
        if self.wall > 0.0 {
            self.scenarios as f64 / self.wall
        } else {
            0.0
        }
    }

    fn throughput_json(&self) -> Json {
        Json::obj([
            ("threads", Json::UInt(self.threads as u64)),
            ("wall_seconds", Json::Float(self.wall)),
            ("scenarios_per_sec", Json::Float(self.scenarios_per_sec())),
        ])
    }
}

/// Checks the monitored predicate statistics against the safety verdicts
/// — the cross-check behind the CI smoke job's exit code.
///
/// Two invariants tie the paper's predicate story to the sweep:
///
/// * **Safety environments hold by construction.** The `kernel_only`
///   adversary exists to preserve `P_nek`; a monitored `kernel_only`
///   scenario reporting an empty-kernel round means the monitor and the
///   adversary disagree about the safety environment. The check applies
///   to the *broadcast* algorithms only: the monitor observes effective
///   HO sets (mailbox support), and a unicast-heavy algorithm like
///   LastVoting leaves most recipients empty-handed by design, emptying
///   the effective kernel no matter what the adversary authorised.
/// * **Predicates explain violations.** UniformVoting is safe whenever
///   `P_nek` holds, so a UV agreement violation in a run whose monitor
///   saw no empty kernel — in either grid — contradicts the theorem.
///
/// # Errors
///
/// Returns the first disagreement, identifying the scenario.
pub fn predicate_cross_check(
    safe_grid: &[SweepReport],
    counterexamples: &SweepReport,
) -> Result<(), String> {
    let verdicts = safe_grid
        .iter()
        .flat_map(|r| &r.verdicts)
        .chain(&counterexamples.verdicts);
    for v in verdicts {
        let Some(p) = &v.predicates else {
            return Err(format!("{}: monitored verdict missing predicates", v.id()));
        };
        let broadcasts_every_round = v.algorithm != "last_voting";
        if v.adversary.starts_with("kernel_only") && broadcasts_every_round {
            if let Some(r0) = p.first_empty_kernel {
                return Err(format!(
                    "{}: kernel_only adversary emptied the kernel at round {r0}",
                    v.id()
                ));
            }
        }
        if v.algorithm == "uniform_voting" && !v.is_safe() && p.first_empty_kernel.is_none() {
            return Err(format!(
                "{}: UniformVoting violated safety although P_nek held all run",
                v.id()
            ));
        }
    }
    Ok(())
}

/// Runs the baseline grid and merges the reports into the
/// `BENCH_sweep.json` document. The grid runs three times — single-core,
/// all-core, and single-core with online predicate monitoring — so the
/// file tracks the round loop's raw speed, the harness's scaling, and the
/// monitoring overhead. Pass `smoke = true` for the thinned CI variant
/// (8 seeds).
#[must_use]
pub fn run_baseline(smoke: bool) -> Json {
    let sweeps: Vec<Sweep> = if smoke {
        baseline_sweeps()
            .into_iter()
            .map(|s| s.seeds(0..8))
            .collect()
    } else {
        baseline_sweeps()
    };

    // Untimed warm-up: the whole grid is tens of milliseconds of wall,
    // so first-touch costs (page faults, lazy allocator arenas) would
    // dominate a cold first pass and poison every overhead ratio built
    // on it. All measured passes then start from the same warm state.
    let _ = run_pass(&sweeps, 1);
    // Single-core pass: the release-over-release comparable number.
    // Best-of-three, same reason: one scheduler hiccup inside a 60 ms
    // window is tens of percent of noise.
    let single = best_pass(&sweeps, 1, 3);
    // All-core pass (on a single-core host this measures the same
    // configuration and the efficiency is trivially ~1).
    let threads = default_threads();
    let multi = best_pass(&sweeps, threads, 3);
    // Near-linear scaling ⇔ efficiency ≈ 1.
    let efficiency = multi.scenarios_per_sec() / (single.scenarios_per_sec() * threads as f64);

    // Monitored single-core pass: the same grid as a predicate
    // observatory, and the measured cost of watching.
    let monitored_sweeps: Vec<Sweep> = sweeps
        .iter()
        .map(|s| s.clone().monitor_predicates(true))
        .collect();
    let monitored = best_pass(&monitored_sweeps, 1, 3);
    let monitor_overhead = single.scenarios_per_sec() / monitored.scenarios_per_sec();
    let mut predicate_totals = PredicateTotals::default();
    for report in &monitored.reports {
        predicate_totals.merge(&report.predicate_totals);
    }

    // Telemetry A/B: the same single-core grid with the flight recorder
    // and metrics registry on. Off/on passes are *interleaved* — host
    // load drifts on the tens-of-milliseconds scale these grids measure
    // in, so pairing adjacent passes and keeping the quietest pair (the
    // least combined wall) makes the ratio a property of the code rather
    // than of the moment.
    let telemetry_sweeps: Vec<Sweep> = sweeps.iter().map(|s| s.clone().telemetry(true)).collect();
    let mut ab_best: Option<(Pass, Pass)> = None;
    for _ in 0..3 {
        let off = run_pass(&sweeps, 1);
        let on = run_pass(&telemetry_sweeps, 1);
        if ab_best
            .as_ref()
            .is_none_or(|(o, t)| off.wall + on.wall < o.wall + t.wall)
        {
            ab_best = Some((off, on));
        }
    }
    let (recorder_off_pass, telemetry_pass) = ab_best.expect("three A/B repetitions ran");
    let telemetry_overhead =
        recorder_off_pass.scenarios_per_sec() / telemetry_pass.scenarios_per_sec();
    let mut telemetry_totals = TelemetrySummary::default();
    for report in &telemetry_pass.reports {
        if let Some(t) = &report.telemetry_totals {
            telemetry_totals.merge(t);
        }
    }

    // The counterexample grid runs with the recorder on so every caught
    // violation drains its ring into a forensic artifact.
    let counterexamples = if smoke {
        pnek_counterexample_sweep().seeds(0..8)
    } else {
        pnek_counterexample_sweep()
    }
    .monitor_predicates(true)
    .telemetry(true)
    .run();
    let check = predicate_cross_check(&monitored.reports, &counterexamples);

    // One forensic artifact from the first caught violation — the
    // document's worked example of the on-violation dump, repro line
    // included.
    let forensic_sample = counterexamples.verdicts.iter().find_map(|v| {
        let events = v.forensic_events.as_deref()?;
        Some(forensic_artifact_json(
            &v.id(),
            v.seed,
            v.violation.as_deref().unwrap_or("violation"),
            v.telemetry.as_ref(),
            events,
        ))
    });

    // The sim layer: the implementation stack under systematic link
    // faults, verdicts checking the delivered predicate.
    let sim_sweep = if smoke {
        sim_layer_sweep().seeds(0..3)
    } else {
        sim_layer_sweep()
    };
    // Untimed warm-up: the whole grid is milliseconds of wall, so first-
    // touch costs (page faults, lazy allocator arenas) would dominate a
    // cold timing.
    let _ = sim_sweep.run();
    let sim_layer = sim_sweep.run();

    // The rsm layer: the replicated-log service over the same fault zoo,
    // verdicts checking prefix agreement and exactly-once apply.
    let rsm_layer = run_rsm_layer(smoke);

    // The sharded rsm layer: the same service partitioned across S
    // MultiSlot groups, verdicts checking the sharded oracle; the scaling
    // table tracks aggregate commands/sec and requeue churn as S grows.
    let sharded_rsm = run_sharded_rsm(smoke);

    // The contact-plan layer: DTN-style intermittent links across all
    // three axes, plus predicate lateness measured straight off the
    // adversary's HO rows.
    let contact_plan = run_contact_plan(smoke);

    let reports = &single.reports;
    let scenarios: u64 = single.scenarios;
    let decided: u64 = reports.iter().map(|r| r.decided as u64).sum();
    let violations: u64 = reports.iter().map(|r| r.violations as u64).sum();
    let rounds: u64 = reports.iter().map(|r| r.totals.rounds).sum();
    let allocs: u64 = reports.iter().map(|r| r.totals.payload_allocs).sum();
    let reuses: u64 = reports.iter().map(|r| r.totals.payload_reuses).sum();
    let fresh: u64 = reports.iter().map(|r| r.totals.fresh_allocs()).sum();
    let delivered: u64 = reports.iter().map(|r| r.totals.delivered).sum();

    let cells: Vec<Json> = reports
        .iter()
        .flat_map(|r| match r.to_json(false) {
            Json::Obj(mut map) => match map.remove("cells") {
                Some(Json::Arr(cells)) => cells,
                _ => Vec::new(),
            },
            _ => Vec::new(),
        })
        .collect();

    Json::obj([
        (
            "benchmark",
            Json::Str(if smoke {
                "sweep_smoke".into()
            } else {
                "sweep_baseline".into()
            }),
        ),
        ("scenarios", Json::UInt(scenarios)),
        ("decided", Json::UInt(decided)),
        ("violations", Json::UInt(violations)),
        ("wall_seconds", Json::Float(single.wall)),
        ("scenarios_per_sec", Json::Float(single.scenarios_per_sec())),
        ("threads", Json::UInt(1)),
        (
            "throughput",
            Json::obj([
                ("single_core", single.throughput_json()),
                ("all_cores", multi.throughput_json()),
                ("threads_available", Json::UInt(threads as u64)),
                ("scaling_efficiency", Json::Float(efficiency)),
                // The chunk policy the measured sweeps actually ran under
                // — what a multi-core tuning run varies.
                (
                    "chunk",
                    chunk_policy_json(
                        &multi
                            .reports
                            .first()
                            .map_or_else(ChunkPolicy::default, |r| r.chunk),
                    ),
                ),
            ]),
        ),
        (
            "sendplan",
            Json::obj([
                ("rounds", Json::UInt(rounds)),
                ("payload_allocs", Json::UInt(allocs)),
                ("payload_reuses", Json::UInt(reuses)),
                ("fresh_allocs", Json::UInt(fresh)),
                ("delivered", Json::UInt(delivered)),
                ("allocs_per_round_after", Json::Float(ratio(allocs, rounds))),
                ("fresh_allocs_per_round", Json::Float(ratio(fresh, rounds))),
                (
                    "clones_per_round_before",
                    Json::Float(ratio(delivered, rounds)),
                ),
                ("reduction_factor", Json::Float(ratio(delivered, allocs))),
            ]),
        ),
        (
            "baseline_prev",
            // The figures committed in the pre-optimisation
            // BENCH_sweep.json (single core, SendPlan kernel but per-round
            // allocating executor), kept here so the file itself reads as
            // a before/after table. `speedup_single_core` is this run
            // against that reference; an interleaved same-machine A/B of
            // the two binaries shows the same factor.
            Json::obj([
                ("scenarios_per_sec", Json::Float(PREV_SCENARIOS_PER_SEC)),
                ("allocs_per_round", Json::Float(PREV_ALLOCS_PER_ROUND)),
                (
                    "speedup_single_core",
                    Json::Float(single.scenarios_per_sec() / PREV_SCENARIOS_PER_SEC),
                ),
                (
                    "fresh_allocs_per_round_now",
                    Json::Float(ratio(fresh, rounds)),
                ),
            ]),
        ),
        ("cells", Json::Arr(cells)),
        ("predicates", {
            // The shared totals serializer, extended with the bench-only
            // throughput and cross-check fields.
            let Json::Obj(mut map) = predicate_totals_json(&predicate_totals) else {
                unreachable!("predicate totals serialize to an object");
            };
            map.insert(
                "scenarios_per_sec".into(),
                Json::Float(monitored.scenarios_per_sec()),
            );
            map.insert("overhead_vs_off".into(), Json::Float(monitor_overhead));
            map.insert(
                "check".into(),
                Json::Str(match &check {
                    Ok(()) => "ok".into(),
                    Err(reason) => reason.clone(),
                }),
            );
            Json::Obj(map)
        }),
        ("telemetry", {
            // The flight-recorder A/B: the merged event census of the
            // recorder-on pass, extended with the measured overhead
            // against the recorder-off single-core pass and the worked
            // forensic example.
            let Json::Obj(mut map) = telemetry_summary_json(&telemetry_totals) else {
                unreachable!("telemetry summaries serialize to an object");
            };
            map.insert(
                "recorder_off_scenarios_per_sec".into(),
                Json::Float(recorder_off_pass.scenarios_per_sec()),
            );
            map.insert(
                "recorder_on_scenarios_per_sec".into(),
                Json::Float(telemetry_pass.scenarios_per_sec()),
            );
            map.insert("overhead_vs_off".into(), Json::Float(telemetry_overhead));
            if let Some(f) = forensic_sample {
                map.insert("forensic_sample".into(), f);
            }
            Json::Obj(map)
        }),
        ("sim_layer", sim_report_json(&sim_layer, false)),
        ("rsm_layer", rsm_report_json(&rsm_layer, false)),
        ("sharded_rsm", sharded_rsm_json(&sharded_rsm)),
        ("contact_plan", contact_plan),
        (
            "pnek_counterexamples",
            Json::obj([
                ("scenarios", Json::UInt(counterexamples.scenarios as u64)),
                (
                    "violations_detected",
                    Json::UInt(counterexamples.violations as u64),
                ),
                (
                    "violations_with_empty_kernel",
                    Json::UInt(
                        counterexamples
                            .verdicts
                            .iter()
                            .filter(|v| {
                                !v.is_safe()
                                    && v.predicates
                                        .as_ref()
                                        .is_some_and(|p| p.first_empty_kernel.is_some())
                            })
                            .count() as u64,
                    ),
                ),
            ]),
        ),
    ])
}

/// Single-core throughput of the previous committed `BENCH_sweep.json`
/// (the PR that introduced the SendPlan kernel and this harness).
const PREV_SCENARIOS_PER_SEC: f64 = 21_600.37;

/// Payload allocations per round in that baseline — every construction hit
/// the allocator (no scratch-buffer reuse existed).
const PREV_ALLOCS_PER_ROUND: f64 = 5.19;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_grid_shape() {
        let sweeps = baseline_sweeps();
        assert_eq!(sweeps.len(), 2);
        // 2 algs × 7 adversaries × 3 sizes × 40 seeds, plus
        // 1 alg × 2 adversaries × 3 sizes × 40 seeds.
        assert_eq!(sweeps[0].scenarios().len(), 2 * 7 * 3 * 40);
        assert_eq!(sweeps[1].scenarios().len(), 2 * 3 * 40);
    }

    #[test]
    fn safe_grid_is_safe_and_counterexamples_are_caught() {
        // A thinned replica of the baseline grid (8 seeds instead of 40)
        // so the invariants behind BENCH_sweep.json are enforced in CI.
        for sweep in baseline_sweeps() {
            let report = sweep.seeds(0..8).run();
            assert_eq!(report.violations, 0, "safe grid must stay safe");
        }
        let report = pnek_counterexample_sweep().seeds(0..8).run();
        assert!(
            report.violations > 0,
            "the checker must catch UV outside P_nek"
        );
    }

    #[test]
    fn rsm_layer_grid_orders_logs_safely() {
        // The thinned rsm grid (the CI variant): ≥ 100 log-service
        // scenarios, zero prefix-agreement / exactly-once violations, and
        // no dead cell — every (algorithm, adversary, depth, workload)
        // combination must actually order slots.
        let report = run_rsm_layer(true);
        assert!(report.scenarios >= 100, "{} scenarios", report.scenarios);
        assert_eq!(report.violations, 0, "{:?}", report.violating());
        assert!(report.totals.commands > 0);
        assert!(report.rounds_per_slot() > 0.0);
        for ((alg, adv, depth, _shards, wl, lease), cell) in report.by_cell() {
            assert!(
                cell.slots > 0,
                "dead cell: {alg}/{adv}/d{depth}/{wl}/lease{lease} ordered nothing"
            );
            // The flow-control acceptance gate: under symmetric delivery
            // the leaseholder always wins its slot, so lease-on cells must
            // be (near-)requeue-free.
            if lease && adv == "full_delivery" {
                let ratio = cell.requeue_ratio().unwrap_or(0.0);
                assert!(
                    ratio <= 0.1,
                    "lease-on {alg}/d{depth}/{wl} requeue ratio {ratio} exceeds 0.1"
                );
            }
        }
        // Deeper pipelines must raise per-round throughput under full
        // delivery (the whole point of the depth axis).
        let per_round = |depth: usize| {
            let (commands, rounds) = report
                .verdicts
                .iter()
                .filter(|v| {
                    v.depth == depth
                        && v.algorithm == "one_third_rule"
                        && v.adversary == "full_delivery"
                })
                .fold((0, 0), |(c, r), v| (c + v.commands, r + v.rounds_run));
            commands as f64 / rounds as f64
        };
        assert!(per_round(16) > per_round(1));
    }

    #[test]
    fn sharded_rsm_grid_is_safe() {
        // The thinned sharded grid (the CI variant): every cell clean
        // under the sharded oracle, every shard count represented, and
        // the scaling table derivable — per-S command totals sum to the
        // report total.
        let report = run_sharded_rsm(true);
        assert!(report.scenarios > 0);
        assert_eq!(report.violations, 0, "{:?}", report.violating());
        let mut seen: Vec<usize> = report.verdicts.iter().map(|v| v.shards).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![1, 4], "thinned grid sweeps S ∈ {{1, 4}}");
        let per_s: u64 = report.verdicts.iter().map(|v| v.commands).sum();
        assert_eq!(per_s, report.totals.commands);
        // Sharding must not change the total generated load: the S=4
        // cells route the same client stream across four groups.
        for ((_, adv, _, shards, wl, lease), cell) in report.by_cell() {
            assert!(
                cell.commands > 0,
                "dead cell: {adv}/S{shards}/{wl}/lease{lease}"
            );
            if lease && adv == "full_delivery" {
                let ratio = cell.requeue_ratio().unwrap_or(0.0);
                assert!(
                    ratio <= 0.1,
                    "lease-on S{shards}/{wl} requeue ratio {ratio} exceeds 0.1"
                );
            }
        }
    }

    #[test]
    fn sim_layer_grid_keeps_every_promise() {
        // A thinned replica of the sim-layer grid: every scenario must
        // deliver its predicate window within the theorem bound.
        let report = sim_layer_sweep().seeds(0..2).run();
        assert!(report.scenarios > 0);
        assert_eq!(
            report.achieved,
            report.scenarios,
            "{:?}",
            report.violating()
        );
        assert_eq!(report.violations, 0, "{:?}", report.violating());
        assert!(report.events_dispatched > 0, "queue diagnostics flow");
        assert!(report.peak_queue_depth > 0);
    }

    #[test]
    fn smoke_document_parses_and_is_safe() {
        let doc = run_baseline(true);
        let text = format!("{doc}\n");
        let parsed = Json::parse(&text).expect("report round-trips");
        let Json::Obj(map) = parsed else {
            panic!("top level must be an object");
        };
        assert_eq!(map.get("violations"), Some(&Json::UInt(0)));
        assert!(map.contains_key("throughput"));
        assert!(map.contains_key("sendplan"));
        // The sim-layer section is present, round-trips, and reports zero
        // delivered-predicate violations.
        let Some(Json::Obj(sim)) = map.get("sim_layer") else {
            panic!("sim_layer section missing");
        };
        assert_eq!(sim.get("violations"), Some(&Json::UInt(0)));
        assert!(
            matches!(sim.get("scenarios"), Some(Json::UInt(n)) if *n > 0),
            "sim scenarios recorded"
        );
        assert!(sim.contains_key("chunk"), "chunk policy recorded");
        // The queue diagnostics round-trip: event throughput and count.
        assert!(
            matches!(sim.get("events_per_sec"), Some(Json::Float(e)) if *e > 0.0),
            "event throughput recorded"
        );
        assert!(
            matches!(sim.get("events_dispatched"), Some(Json::UInt(n)) if *n > 0),
            "events dispatched recorded"
        );
        // The rsm-layer section round-trips with its service aggregates
        // and per-cell throughput table, and reports zero log violations.
        let Some(Json::Obj(rsm)) = map.get("rsm_layer") else {
            panic!("rsm_layer section missing");
        };
        assert_eq!(rsm.get("violations"), Some(&Json::UInt(0)));
        assert!(
            matches!(rsm.get("scenarios"), Some(Json::UInt(n)) if *n >= 100),
            "rsm grid is at least 100 scenarios"
        );
        let Some(Json::Obj(service)) = rsm.get("service") else {
            panic!("rsm service aggregates missing");
        };
        assert!(
            matches!(service.get("commands"), Some(Json::UInt(n)) if *n > 0),
            "the service ordered commands"
        );
        assert!(service.contains_key("rounds_per_slot"));
        assert!(
            matches!(rsm.get("cells"), Some(Json::Arr(cells)) if !cells.is_empty()),
            "per-cell throughput table present"
        );
        // The flow-control fields survive a parse round-trip, both lease
        // settings are present, and every lease-on full-delivery cell
        // clears the requeue gate.
        let Some(Json::Arr(rsm_cells)) = rsm.get("cells") else {
            panic!("rsm cells missing");
        };
        let mut lease_settings = std::collections::HashSet::new();
        for cell in rsm_cells {
            let Json::Obj(cell) = cell else {
                panic!("rsm cells are objects");
            };
            let Some(Json::Bool(lease)) = cell.get("lease") else {
                panic!("cell missing lease flag");
            };
            lease_settings.insert(*lease);
            assert!(cell.contains_key("noop_slots"), "noop_slots round-trips");
            assert!(
                cell.contains_key("lease_takeovers"),
                "lease_takeovers round-trips"
            );
            assert!(cell.contains_key("requeue_ratio"));
            if *lease && cell.get("adversary") == Some(&Json::Str("full_delivery".into())) {
                match cell.get("requeue_ratio") {
                    Some(Json::Float(r)) => {
                        assert!(
                            *r <= 0.1,
                            "lease-on requeue ratio {r} exceeds 0.1: {cell:?}"
                        );
                    }
                    Some(Json::UInt(0)) | Some(Json::Null) => {}
                    other => panic!("unexpected requeue_ratio {other:?}"),
                }
            }
        }
        assert_eq!(
            lease_settings.len(),
            2,
            "both lease settings appear in the rsm cells"
        );
        // The sharded-rsm section round-trips with its per-S scaling
        // table, zero sharded-oracle violations, and the requeue ratio
        // surfaced per row.
        let Some(Json::Obj(sharded)) = map.get("sharded_rsm") else {
            panic!("sharded_rsm section missing");
        };
        assert_eq!(sharded.get("violations"), Some(&Json::UInt(0)));
        let Some(Json::Arr(scaling)) = sharded.get("scaling") else {
            panic!("sharded scaling table missing");
        };
        assert!(!scaling.is_empty(), "scaling table has rows");
        for row in scaling {
            let Json::Obj(row) = row else {
                panic!("scaling rows are objects");
            };
            assert!(
                matches!(row.get("shards"), Some(Json::UInt(s)) if *s >= 1),
                "each row names its shard count"
            );
            assert_eq!(row.get("violations"), Some(&Json::UInt(0)));
            assert!(row.contains_key("requeue_ratio"));
            assert!(row.contains_key("commands_per_sec"));
        }
        // The contact-plan section round-trips with zero violations and
        // its lateness table (its internals are covered by
        // `contact_plan_section_is_safe_and_degrades_gracefully`).
        let Some(Json::Obj(contact)) = map.get("contact_plan") else {
            panic!("contact_plan section missing");
        };
        assert_eq!(contact.get("violations"), Some(&Json::UInt(0)));
        assert!(
            matches!(contact.get("predicate_lateness"), Some(Json::Arr(rows)) if !rows.is_empty()),
            "lateness table present"
        );
        // Predicate statistics are present, round-trip, and agree with the
        // safety verdicts.
        let Some(Json::Obj(predicates)) = map.get("predicates") else {
            panic!("predicate statistics missing");
        };
        assert_eq!(predicates.get("check"), Some(&Json::Str("ok".into())));
        assert!(
            matches!(predicates.get("monitored_scenarios"), Some(Json::UInt(n)) if *n > 0),
            "monitored scenarios recorded"
        );
        assert!(
            matches!(predicates.get("p2otr_scenarios"), Some(Json::UInt(n)) if *n > 0),
            "full-delivery cells achieve P2otr"
        );
        // The telemetry A/B section round-trips: the event census, the
        // per-phase time table, the measured recorder-on overhead, and a
        // forensic sample from the counterexample grid whose repro line
        // names a real scenario.
        let Some(Json::Obj(telemetry)) = map.get("telemetry") else {
            panic!("telemetry section missing");
        };
        assert!(
            matches!(telemetry.get("events_recorded"), Some(Json::UInt(n)) if *n > 0),
            "the recorder-on pass recorded events"
        );
        assert!(telemetry.contains_key("events_dropped"));
        assert!(
            matches!(telemetry.get("overhead_vs_off"), Some(Json::Float(r)) if *r > 0.0),
            "recorder overhead measured"
        );
        assert!(matches!(
            telemetry.get("recorder_off_scenarios_per_sec"),
            Some(Json::Float(_))
        ));
        assert!(matches!(
            telemetry.get("recorder_on_scenarios_per_sec"),
            Some(Json::Float(_))
        ));
        let Some(Json::Obj(kinds)) = telemetry.get("events") else {
            panic!("event census missing");
        };
        assert!(
            matches!(kinds.get("round_start"), Some(Json::UInt(n)) if *n > 0),
            "every round records a round_start event"
        );
        assert!(
            matches!(kinds.get("decide"), Some(Json::UInt(n)) if *n > 0),
            "decisions are recorded"
        );
        let Some(Json::Obj(phases)) = telemetry.get("phases") else {
            panic!("phase table missing");
        };
        for phase in ["ho_fill", "send", "deliver", "monitor", "oracle"] {
            assert!(phases.contains_key(phase), "phase {phase} missing");
        }
        let Some(Json::Obj(forensic)) = telemetry.get("forensic_sample") else {
            panic!("the counterexample grid must yield a forensic artifact");
        };
        assert!(
            matches!(forensic.get("repro"), Some(Json::Str(r)) if r.contains("--scenario")),
            "the artifact embeds its repro command"
        );
        assert!(
            matches!(forensic.get("violation"), Some(Json::Str(_))),
            "the artifact names the violation"
        );
        assert!(
            matches!(forensic.get("events"), Some(Json::Arr(e)) if !e.is_empty()),
            "the artifact carries the drained event ring"
        );
    }

    #[test]
    fn scenario_repro_reproduces_the_sweeps_verdict() {
        // A violating counterexample's id, looked up through the
        // `--scenario` repro path, must rerun to the *same* verdict and
        // carry a self-contained forensic artifact.
        let report = pnek_counterexample_sweep()
            .seeds(0..8)
            .telemetry(true)
            .run();
        let victim = report
            .verdicts
            .iter()
            .find(|v| !v.is_safe())
            .expect("UV violates agreement outside P_nek");
        let doc = run_scenario_by_id(&victim.id()).expect("counterexample ids are canonical");
        let Json::Obj(map) = doc else {
            panic!("repro doc is an object");
        };
        assert_eq!(map.get("scenario"), Some(&Json::Str(victim.id())));
        assert_eq!(map.get("layer"), Some(&Json::Str("model".into())));
        assert_eq!(
            map.get("repro"),
            Some(&Json::Str(ho_harness::repro_command(&victim.id())))
        );
        let Some(Json::Obj(verdict)) = map.get("verdict") else {
            panic!("repro doc embeds the verdict");
        };
        assert_eq!(
            verdict.get("violation"),
            Some(&Json::Str(
                victim.violation.clone().expect("victim violated")
            )),
            "the rerun reproduces the sweep's verdict"
        );
        let Some(Json::Obj(forensic)) = map.get("forensic") else {
            panic!("a violating rerun must produce a forensic artifact");
        };
        assert!(
            matches!(forensic.get("events"), Some(Json::Arr(e)) if !e.is_empty()),
            "the artifact carries the drained ring"
        );
        assert_eq!(forensic.get("seed"), Some(&Json::UInt(victim.seed)));

        // Unknown ids are rejected, not misattributed.
        assert!(run_scenario_by_id("model/no_such_adversary/n0/s0").is_none());

        // The same entry point resolves sim- and rsm-layer ids.
        let sim_id = sim_layer_sweep().scenarios()[0].id();
        let Some(Json::Obj(sim_doc)) = run_scenario_by_id(&sim_id) else {
            panic!("sim ids are canonical");
        };
        assert_eq!(sim_doc.get("layer"), Some(&Json::Str("sim".into())));
        assert_eq!(sim_doc.get("scenario"), Some(&Json::Str(sim_id)));
        let rsm_id = rsm_layer_sweeps()[0].scenarios()[0].id();
        let Some(Json::Obj(rsm_doc)) = run_scenario_by_id(&rsm_id) else {
            panic!("rsm ids are canonical");
        };
        assert_eq!(rsm_doc.get("layer"), Some(&Json::Str("rsm".into())));
    }

    #[test]
    fn contact_plan_section_is_safe_and_degrades_gracefully() {
        // The thinned contact section (the CI variant): zero violations
        // on every axis, every predicate window inside the good-suffix
        // bound (but measurably late — the plans must actually disrupt),
        // and the service-level degradation metrics present and non-zero.
        let doc = run_contact_plan(true);
        let text = format!("{doc}\n");
        let Json::Obj(map) = Json::parse(&text).expect("contact section round-trips") else {
            panic!("contact section must be an object");
        };
        assert_eq!(map.get("violations"), Some(&Json::UInt(0)));
        assert_eq!(map.get("late_predicate_windows"), Some(&Json::UInt(0)));
        let Some(Json::Arr(rows)) = map.get("predicate_lateness") else {
            panic!("lateness table missing");
        };
        assert_eq!(rows.len(), 6, "3 plans × {{P_k, P_su}}");
        for row in rows {
            let Json::Obj(row) = row else {
                panic!("lateness rows are objects");
            };
            assert_eq!(row.get("within_bound"), Some(&Json::Bool(true)), "{row:?}");
            assert!(
                matches!(row.get("worst_lateness_rounds"), Some(Json::UInt(l)) if *l > 0),
                "a contact plan must delay its predicate window: {row:?}"
            );
        }
        let Some(Json::Obj(deg)) = map.get("degradation") else {
            panic!("degradation aggregates missing");
        };
        assert!(matches!(deg.get("dark_rounds"), Some(Json::UInt(n)) if *n > 0));
        assert!(matches!(deg.get("backfill_entries"), Some(Json::UInt(n)) if *n > 0));
        assert!(matches!(deg.get("divergent_rounds"), Some(Json::UInt(n)) if *n > 0));
        // Every contact rsm scenario reconnects and converges inside its
        // round budget — recovery, not just survival.
        let rsm_scenarios = |section: &str| match map.get(section) {
            Some(Json::Obj(m)) => match m.get("scenarios") {
                Some(Json::UInt(n)) => *n,
                _ => panic!("{section} has no scenario count"),
            },
            _ => panic!("{section} section missing"),
        };
        let service_total = rsm_scenarios("rsm_layer") + rsm_scenarios("sharded_rsm");
        assert_eq!(
            deg.get("recovered_scenarios"),
            Some(&Json::UInt(service_total)),
            "every disrupted log must catch back up"
        );
        assert!(
            matches!(deg.get("worst_catch_up_rounds"), Some(Json::UInt(n)) if *n <= 80),
            "catch-up fits in the round budget"
        );
    }

    #[test]
    fn scenario_ids_are_unique_within_each_section() {
        use std::collections::HashSet;
        fn assert_unique(section: &str, ids: &[String]) {
            let mut seen = HashSet::new();
            for id in ids {
                assert!(seen.insert(id), "{section}: duplicate scenario id {id}");
            }
        }
        // Model layer: the safe grid, the P_nek counterexamples, and the
        // contact grid never collide — adversary names are injective now
        // that float parameters format as integers (p200, never 0.2).
        let model: Vec<String> = baseline_sweeps()
            .iter()
            .flat_map(Sweep::scenarios)
            .chain(pnek_counterexample_sweep().scenarios())
            .chain(contact_model_sweep().scenarios())
            .map(|s| s.id())
            .collect();
        assert_unique("model", &model);
        let sim: Vec<String> = sim_layer_sweep()
            .scenarios()
            .into_iter()
            .chain(contact_sim_sweep().scenarios())
            .map(|s| s.id())
            .collect();
        assert_unique("sim", &sim);
        let rsm: Vec<String> = rsm_layer_sweeps()
            .iter()
            .flat_map(RsmSweep::scenarios)
            .chain(contact_rsm_sweep().scenarios())
            .map(|s| s.id())
            .collect();
        assert_unique("rsm_layer", &rsm);
        let sharded: Vec<String> = sharded_rsm_sweeps()
            .iter()
            .flat_map(RsmSweep::scenarios)
            .chain(contact_sharded_sweep().scenarios())
            .map(|s| s.id())
            .collect();
        assert_unique("sharded_rsm", &sharded);
        // Across the two rsm *sections* the S=1 overlap is deliberate:
        // shard_seed(seed, 0) == seed makes those cells bit-identical
        // anchors for reading the router's overhead, not id accidents.
        let rsm_ids: HashSet<&String> = rsm.iter().collect();
        assert!(
            sharded.iter().any(|id| rsm_ids.contains(id)),
            "the S=1 anchor cells must appear in both rsm sections"
        );
    }

    #[test]
    fn cross_check_accepts_the_monitored_grid_and_catches_contradictions() {
        let safe: Vec<_> = baseline_sweeps()
            .into_iter()
            .map(|s| s.seeds(0..4).monitor_predicates(true).run())
            .collect();
        let counterexamples = pnek_counterexample_sweep()
            .seeds(0..4)
            .monitor_predicates(true)
            .run();
        assert!(counterexamples.violations > 0, "UV caught outside P_nek");
        predicate_cross_check(&safe, &counterexamples).expect("grid is consistent");

        // A violating UV verdict whose monitor claims P_nek held all run
        // must be flagged.
        let mut forged = counterexamples.clone();
        let victim = forged
            .verdicts
            .iter_mut()
            .find(|v| !v.is_safe())
            .expect("a violation exists");
        victim.predicates.as_mut().unwrap().first_empty_kernel = None;
        let err = predicate_cross_check(&safe, &forged).unwrap_err();
        assert!(err.contains("P_nek held"), "{err}");

        // An unmonitored verdict in a monitored grid is also a failure.
        let mut missing = counterexamples.clone();
        missing.verdicts[0].predicates = None;
        assert!(predicate_cross_check(&safe, &missing).is_err());
    }
}
