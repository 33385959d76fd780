//! SW — the scenario sweep: the canonical grids and the gates that
//! `sweep --check` applies to their verdicts.
//!
//! [`Grids::canonical`] is every grid at full size; [`Grids::run`] runs
//! each once into a typed [`CheckReport`], whose [`CheckReport::failures`]
//! are the gates and whose [`CheckReport::table`] is the one-line-per-
//! section verdict table. Nothing here reads a clock: two runs print the
//! same table. [`run_scenario_by_id`] is the `--scenario <id>` repro that
//! every forensic artifact embeds.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

use ho_core::adversary::Adversary as _;
use ho_core::{ContactPlan, ContactPlanAdversary, ProcessSet, Round};
use ho_harness::{
    forensic_artifact_json, repro_command, rsm_verdict_json, sim_verdict_json, verdict_json,
    AdversarySpec, AlgorithmSpec, Event, ImplementationSpec, Json, LinkFaultSpec, RsmReport,
    RsmSweep, RsmVerdict, SimReport, SimSweep, Sweep, SweepReport, Verdict, WorkloadSpec,
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
/// must finish with **zero** prefix-agreement / exactly-once violations.
/// The lease axis runs every cell twice — flow control off (the
/// requeue-churn baseline) and on (slot leases, adaptive batching,
/// admission backpressure) — and the flow-control gate holds every
/// lease-on full-delivery cell to a requeue ratio of at most 0.1.
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

/// The canonical **sharded-rsm** grid: the partitioned log service
/// (`ho-rsm`'s `ShardedLogDriver`) swept across shard counts
/// S ∈ {1, 2, 4, 8, 16} under clean and lossy delivery, on uniform and
/// hot-key workloads. Every cell must finish with zero violations of the
/// *sharded* oracle (per-shard prefix agreement + exactly-once, namespace
/// containment, cross-shard disjointness).
///
/// S = 1 is deliberately in the grid: `shard_seed(seed, 0) == seed` makes
/// that column bit-identical to the unsharded rsm-layer service on the
/// same workload cells.
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
/// divergence, backfill volume, catch-up latency) summed into the
/// `contact` line of the verdict table.
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

/// One row of the predicate-lateness table: for one contact plan and one
/// predicate, how late the first window of length `window` completed,
/// measured straight on the adversary's HO rows over (n × seed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lateness {
    /// The contact plan's label.
    pub plan: String,
    /// `"kernel"` (`P_k`) or `"space_uniform"` (`P_su`).
    pub predicate: &'static str,
    /// The window length.
    pub window: u64,
    /// (n × seed) runs measured.
    pub scenarios: u64,
    /// Runs whose window completed by `bound_round`.
    pub achieved: u64,
    /// The hard bound `good_from + window − 1` that the permanently
    /// fully-connected suffix guarantees.
    pub bound_round: u64,
    /// The latest round at which some run's first window completed.
    pub worst_witness_round: u64,
}

impl Lateness {
    /// Whether every run's window landed by the bound.
    #[must_use]
    pub fn within_bound(&self) -> bool {
        self.achieved == self.scenarios
    }
}

/// Measures predicate lateness directly on the adversary's HO rows: for
/// each plan, when the first `P_k` / `P_su` window of length `x`
/// completes, against the hard bound `good_from + x − 1`. One row per
/// (plan, predicate), aggregated over (n × seed).
#[must_use]
pub fn predicate_lateness(sizes: &[usize], seeds: Range<u64>, x: u64) -> Vec<Lateness> {
    type Make = fn(ProcessSet, u64, f64) -> WindowMonitor;
    let mut rows = Vec::new();
    for plan in contact_plans() {
        let bound_round = plan.good_from() + x - 1;
        for (predicate, make) in [
            ("kernel", WindowMonitor::kernel as Make),
            ("space_uniform", WindowMonitor::space_uniform as Make),
        ] {
            let mut row = Lateness {
                plan: plan.label(),
                predicate,
                window: x,
                scenarios: 0,
                achieved: 0,
                bound_round,
                worst_witness_round: 0,
            };
            for &n in sizes {
                for seed in seeds.clone() {
                    row.scenarios += 1;
                    let mut adversary = ContactPlanAdversary::new(plan, seed);
                    let mut monitor = make(ProcessSet::full(n), x, 0.0);
                    let mut ho = vec![ProcessSet::full(n); n];
                    for r in 1..=bound_round {
                        adversary.fill_ho_sets(Round(r), &mut ho);
                        monitor.observe_row(r, &ho, r as f64);
                        if let Some((_, t)) = monitor.witness() {
                            row.achieved += 1;
                            row.worst_witness_round = row.worst_witness_round.max(t as u64);
                            break;
                        }
                    }
                }
            }
            rows.push(row);
        }
    }
    rows
}

/// Every grid `sweep --check` runs, one field per section.
/// [`Grids::canonical`] is the full set; a test thins it through the
/// builders (`.seeds(..)`, `.workloads(..)`, `.shards(..)`).
#[derive(Clone, Debug)]
pub struct Grids {
    /// The safe model-layer grid.
    pub model: Vec<Sweep>,
    /// UniformVoting outside `P_nek`.
    pub pnek: Sweep,
    /// Algorithms 2 and 3 over the simulator.
    pub sim: SimSweep,
    /// The replicated log.
    pub rsm: Vec<RsmSweep>,
    /// The sharded replicated log.
    pub sharded: Vec<RsmSweep>,
    /// The contact plans on the model layer.
    pub contact_model: Sweep,
    /// The contact plans on the sim layer.
    pub contact_sim: SimSweep,
    /// The contact plans on the replicated log.
    pub contact_rsm: RsmSweep,
    /// The contact plans on the sharded log.
    pub contact_sharded: RsmSweep,
    /// Seeds of the predicate-lateness table (n ∈ {4, 7}, window 2).
    pub lateness_seeds: Range<u64>,
}

impl Grids {
    /// Every canonical grid at full size.
    #[must_use]
    pub fn canonical() -> Self {
        Grids {
            model: baseline_sweeps(),
            pnek: pnek_counterexample_sweep(),
            sim: sim_layer_sweep(),
            rsm: rsm_layer_sweeps(),
            sharded: sharded_rsm_sweeps(),
            contact_model: contact_model_sweep(),
            contact_sim: contact_sim_sweep(),
            contact_rsm: contact_rsm_sweep(),
            contact_sharded: contact_sharded_sweep(),
            lateness_seeds: 0..16,
        }
    }

    /// Runs every grid once, except the safe grid, which runs twice: with
    /// the predicate monitor and with the flight recorder. A monitored run
    /// stamps its `P2_otr` witness into the recorder's ring, so one run
    /// with both would make the event census depend on the monitor. The
    /// counterexample grid runs with both, so every caught violation
    /// carries its forensic ring.
    #[must_use]
    pub fn run(&self) -> CheckReport {
        let run_all = |instrument: fn(Sweep) -> Sweep| -> Vec<SweepReport> {
            self.model
                .iter()
                .map(|s| instrument(s.clone()).run())
                .collect()
        };
        CheckReport {
            model: run_all(|s| s.monitor_predicates(true)),
            recorded: run_all(|s| s.telemetry(true)),
            pnek: self
                .pnek
                .clone()
                .monitor_predicates(true)
                .telemetry(true)
                .run(),
            sim: self.sim.run(),
            rsm: self.rsm.iter().map(RsmSweep::run).collect(),
            sharded: self.sharded.iter().map(RsmSweep::run).collect(),
            contact_model: self.contact_model.run(),
            contact_sim: self.contact_sim.run(),
            contact_rsm: self.contact_rsm.run(),
            contact_sharded: self.contact_sharded.run(),
            lateness: predicate_lateness(&[4, 7], self.lateness_seeds.clone(), 2),
        }
    }
}

/// The typed outcome of [`Grids::run`]. Every count and every gate reads
/// the verdicts, never the reports' aggregates, so a forged verdict moves
/// both.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The safe grid, predicate monitor on.
    pub model: Vec<SweepReport>,
    /// The safe grid, flight recorder on.
    pub recorded: Vec<SweepReport>,
    /// The counterexample grid, monitor and recorder on.
    pub pnek: SweepReport,
    /// The sim-layer grid.
    pub sim: SimReport,
    /// The replicated-log grids.
    pub rsm: Vec<RsmReport>,
    /// The sharded-log grids.
    pub sharded: Vec<RsmReport>,
    /// The contact plans on the model layer.
    pub contact_model: SweepReport,
    /// The contact plans on the sim layer.
    pub contact_sim: SimReport,
    /// The contact plans on the replicated log.
    pub contact_rsm: RsmReport,
    /// The contact plans on the sharded log.
    pub contact_sharded: RsmReport,
    /// The predicate-lateness table.
    pub lateness: Vec<Lateness>,
}

/// The sections of the verdict table, in print order.
const SECTIONS: [&str; 8] = [
    "model",
    "p_nek",
    "monitoring",
    "sim",
    "rsm",
    "sharded",
    "contact",
    "telemetry",
];

/// One failed gate: its section, what failed, and the scenarios that show
/// it, each rerunnable with `sweep --scenario <id>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// The verdict-table section the gate belongs to.
    pub section: &'static str,
    /// What failed.
    pub reason: String,
    /// The scenario ids that show it (empty for a grid-wide failure).
    pub scenarios: Vec<String>,
}

impl Failure {
    fn grid(section: &'static str, reason: impl Into<String>) -> Self {
        Failure {
            section,
            reason: reason.into(),
            scenarios: Vec::new(),
        }
    }

    /// A failure naming `ids`, or `None` when there are none.
    fn scenarios(
        section: &'static str,
        reason: impl Into<String>,
        ids: impl IntoIterator<Item = String>,
    ) -> Option<Self> {
        let scenarios: Vec<String> = ids
            .into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        (!scenarios.is_empty()).then(|| Failure {
            section,
            reason: reason.into(),
            scenarios,
        })
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// A grid-wide break would otherwise list every scenario.
        const SHOWN: usize = 10;
        write!(f, "FAILED {}: {}", self.section, self.reason)?;
        for id in self.scenarios.iter().take(SHOWN) {
            write!(f, "\n  {id}\n    {}", repro_command(id))?;
        }
        if self.scenarios.len() > SHOWN {
            write!(f, "\n  … and {} more", self.scenarios.len() - SHOWN)?;
        }
        Ok(())
    }
}

/// Flight-recorder events recorded and dropped over `verdicts`.
fn recorder_totals<'a>(verdicts: impl Iterator<Item = &'a Verdict>) -> (u64, u64) {
    verdicts
        .filter_map(|v| v.telemetry.as_ref())
        .fold((0, 0), |(recorded, dropped), t| {
            (recorded + t.events_recorded, dropped + t.events_dropped)
        })
}

/// The replicated-log gates, shared by the `rsm` and `sharded` sections:
/// no fork or double apply, real work ordered, both lease settings swept,
/// and the flow-control gate — under symmetric delivery the leaseholder
/// always wins its slot, so a lease-on full-delivery cell requeues at
/// most 0.1 commands per ordered one.
fn rsm_gates(section: &'static str, reports: &[RsmReport], out: &mut Vec<Failure>) {
    let verdicts = || reports.iter().flat_map(|r| &r.verdicts);
    if verdicts().map(|v| v.commands).sum::<u64>() == 0 {
        out.push(Failure::grid(section, "the log ordered no command"));
    }
    out.extend(Failure::scenarios(
        section,
        "replicas forked their logs or applied a command twice",
        verdicts().filter(|v| !v.is_safe()).map(RsmVerdict::id),
    ));
    if verdicts().map(|v| v.lease).collect::<BTreeSet<_>>().len() != 2 {
        out.push(Failure::grid(
            section,
            "the grid must sweep leases off and on",
        ));
    }
    for report in reports {
        for ((algorithm, adversary, depth, shards, workload, lease), cell) in report.by_cell() {
            let ratio = cell.requeue_ratio().unwrap_or(0.0);
            if lease && adversary == "full_delivery" && ratio > 0.1 {
                out.extend(Failure::scenarios(
                    section,
                    format!(
                        "lease-on full-delivery cell {algorithm}/d{depth}/S{shards}/{workload} \
                         requeued {ratio:.3} commands per ordered one (gate: 0.1)"
                    ),
                    report
                        .verdicts
                        .iter()
                        .filter(|v| {
                            v.lease
                                && v.requeued_commands > 0
                                && (v.algorithm, v.adversary.as_str(), v.depth, v.shards)
                                    == (algorithm.as_str(), adversary.as_str(), depth, shards)
                                && v.workload == workload
                        })
                        .map(RsmVerdict::id),
                ));
            }
        }
    }
}

impl CheckReport {
    /// Every gate, applied to the verdicts. Empty means `--check` passes.
    #[must_use]
    pub fn failures(&self) -> Vec<Failure> {
        let mut out = Vec::new();

        if self.model.iter().all(|r| r.verdicts.is_empty()) {
            out.push(Failure::grid("model", "the safe grid ran no scenario"));
        }
        out.extend(Failure::scenarios(
            "model",
            "safety violated in the safe grid",
            (self.model.iter().chain(&self.recorded))
                .flat_map(|r| &r.verdicts)
                .filter(|v| !v.is_safe())
                .map(Verdict::id),
        ));

        if self.pnek.verdicts.iter().all(Verdict::is_safe) {
            out.push(Failure::grid(
                "p_nek",
                "no UniformVoting violation caught outside P_nek: the checker is blind",
            ));
        }
        if let Err(f) = self.repro() {
            out.push(f);
        }

        if let Err(f) = predicate_cross_check(&self.model, &self.pnek) {
            out.push(f);
        }

        if self.sim.verdicts.is_empty() {
            out.push(Failure::grid("sim", "the sim grid ran no scenario"));
        }
        out.extend(Failure::scenarios(
            "sim",
            "an Alg2/Alg3 run broke its theorem bound or never delivered its window",
            self.sim
                .verdicts
                .iter()
                .filter(|v| !v.is_ok() || !v.achieved)
                .map(|v| v.id()),
        ));

        rsm_gates("rsm", &self.rsm, &mut out);
        rsm_gates("sharded", &self.sharded, &mut out);

        out.extend(Failure::scenarios(
            "contact",
            "a violation under a contact plan",
            self.contact_violations(),
        ));
        for row in self.lateness.iter().filter(|row| !row.within_bound()) {
            out.push(Failure::grid(
                "contact",
                format!(
                    "{} {} window of length {} missed round {} in {} of {} runs",
                    row.plan,
                    row.predicate,
                    row.window,
                    row.bound_round,
                    row.scenarios - row.achieved,
                    row.scenarios
                ),
            ));
        }
        let dark: u64 = self.contact_service().map(|v| v.dark_rounds).sum();
        let backfill: u64 = self.contact_service().map(|v| v.backfill_entries).sum();
        if dark == 0 || backfill == 0 {
            out.push(Failure::grid(
                "contact",
                format!("the contact plans disrupted nothing (dark {dark}, backfill {backfill})"),
            ));
        }

        if recorder_totals(self.recorded.iter().flat_map(|r| &r.verdicts)).0 == 0 {
            out.push(Failure::grid(
                "telemetry",
                "the recorder-on safe grid recorded no event",
            ));
        }
        out.extend(Failure::scenarios(
            "telemetry",
            "the recorder's ring wrapped, cutting the forensic trail short",
            self.recorded
                .iter()
                .flat_map(|r| &r.verdicts)
                .chain(&self.pnek.verdicts)
                .filter(|v| v.telemetry.is_some_and(|t| t.events_dropped > 0))
                .map(Verdict::id),
        ));
        out
    }

    /// The ids of every violating contact-plan scenario, on every layer.
    fn contact_violations(&self) -> Vec<String> {
        let model = self.contact_model.verdicts.iter();
        let sim = self.contact_sim.verdicts.iter();
        (model.filter(|v| !v.is_safe()).map(Verdict::id))
            .chain(sim.filter(|v| !v.is_ok()).map(|v| v.id()))
            .chain(
                self.contact_service()
                    .filter(|v| !v.is_safe())
                    .map(RsmVerdict::id),
            )
            .collect()
    }

    fn contact_service(&self) -> impl Iterator<Item = &RsmVerdict> + Clone {
        self.contact_rsm
            .verdicts
            .iter()
            .chain(&self.contact_sharded.verdicts)
    }

    /// The forensic round trip: the first caught counterexample that
    /// carries its drained ring must be found by [`run_scenario_by_id`],
    /// and the rerun must flag the same violation with its own artifact.
    fn repro(&self) -> Result<(), Failure> {
        let Some(victim) =
            self.pnek.verdicts.iter().find(|v| {
                !v.is_safe() && v.forensic_events.as_ref().is_some_and(|e| !e.is_empty())
            })
        else {
            return Err(Failure::grid(
                "p_nek",
                "no caught violation carries a forensic artifact",
            ));
        };
        let id = victim.id();
        let expected = victim.violation.clone().map(Json::Str);
        let reproduced = matches!(
            run_scenario_by_id(&id),
            Some(Json::Obj(doc)) if doc.contains_key("forensic")
                && matches!(doc.get("verdict"), Some(Json::Obj(v)) if v.get("violation") == expected.as_ref())
        );
        if reproduced {
            Ok(())
        } else {
            Err(Failure {
                section: "p_nek",
                reason: "the --scenario rerun did not reproduce the violation".into(),
                scenarios: vec![id],
            })
        }
    }

    /// The verdict table: one line per section, its status (`ok` unless a
    /// gate in `failures` names the section) and its counts. No line holds
    /// a wall-clock quantity.
    #[must_use]
    pub fn table(&self, failures: &[Failure]) -> String {
        let model: Vec<&Verdict> = self.model.iter().flat_map(|r| &r.verdicts).collect();
        let caught: Vec<&Verdict> = self.pnek.verdicts.iter().filter(|v| !v.is_safe()).collect();
        let rsm: Vec<&RsmVerdict> = self.rsm.iter().flat_map(|r| &r.verdicts).collect();
        let sharded: Vec<&RsmVerdict> = self.sharded.iter().flat_map(|r| &r.verdicts).collect();
        let sim = &self.sim.verdicts;
        let late = self.lateness.iter().filter(|r| !r.within_bound()).count();
        let service = self.contact_service();
        let contact_scenarios = self.contact_model.verdicts.len()
            + self.contact_sim.verdicts.len()
            + service.clone().count();
        let contact_violations = self.contact_violations().len() + late;
        let (recorded, dropped) = recorder_totals(self.recorded.iter().flat_map(|r| &r.verdicts));
        let (pnek_recorded, pnek_dropped) = recorder_totals(self.pnek.verdicts.iter());
        let rows = [
            format!(
                "{} scenarios, {} decided, {} violations",
                model.len(),
                model.iter().filter(|v| v.all_decided()).count(),
                model.iter().filter(|v| !v.is_safe()).count(),
            ),
            format!(
                "{} scenarios, {} caught, {} with an empty kernel",
                self.pnek.verdicts.len(),
                caught.len(),
                caught
                    .iter()
                    .filter(|v| v.predicates.is_some_and(|p| p.first_empty_kernel.is_some()))
                    .count(),
            ),
            format!(
                "{} monitored, {} P2otr, cross-checked against the safety verdicts",
                model.iter().filter(|v| v.predicates.is_some()).count(),
                model
                    .iter()
                    .filter(|v| v.predicates.is_some_and(|p| p.first_p2otr.is_some()))
                    .count(),
            ),
            format!(
                "{} scenarios, {} achieved, {} violations",
                sim.len(),
                sim.iter().filter(|v| v.achieved).count(),
                sim.iter().filter(|v| !v.is_ok()).count(),
            ),
            format!(
                "{} scenarios, {} violations, {} commands",
                rsm.len(),
                rsm.iter().filter(|v| !v.is_safe()).count(),
                rsm.iter().map(|v| v.commands).sum::<u64>(),
            ),
            format!(
                "{} scenarios, {} violations",
                sharded.len(),
                sharded.iter().filter(|v| !v.is_safe()).count(),
            ),
            format!(
                "{contact_scenarios} scenarios, {contact_violations} violations, {late} late \
                 windows; dark {}, backfill {}, divergent {}, recovered {}, worst catch-up {}",
                service.clone().map(|v| v.dark_rounds).sum::<u64>(),
                service.clone().map(|v| v.backfill_entries).sum::<u64>(),
                service.clone().map(|v| v.divergent_rounds).sum::<u64>(),
                service
                    .clone()
                    .filter(|v| v.catch_up_rounds.is_some())
                    .count(),
                service.filter_map(|v| v.catch_up_rounds).max().unwrap_or(0),
            ),
            format!(
                "{recorded} events, {dropped} dropped; counterexamples {pnek_recorded} events, \
                 {pnek_dropped} dropped"
            ),
        ];
        SECTIONS
            .iter()
            .zip(rows)
            .map(|(section, row)| {
                let status = if failures.iter().any(|f| f.section == *section) {
                    "FAILED"
                } else {
                    "ok"
                };
                format!("{section:<11} {status:<6} {row}\n")
            })
            .collect()
    }
}

/// Checks the monitored predicate statistics against the safety verdicts.
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
/// Returns the first disagreement, naming the scenario.
pub fn predicate_cross_check(
    safe_grid: &[SweepReport],
    counterexamples: &SweepReport,
) -> Result<(), Failure> {
    let verdicts = safe_grid
        .iter()
        .flat_map(|r| &r.verdicts)
        .chain(&counterexamples.verdicts);
    for v in verdicts {
        let fail = |reason: String| Failure {
            section: "monitoring",
            reason,
            scenarios: vec![v.id()],
        };
        let Some(p) = &v.predicates else {
            return Err(fail("monitored verdict missing predicates".into()));
        };
        let broadcasts_every_round = v.algorithm != "last_voting";
        if v.adversary.starts_with("kernel_only") && broadcasts_every_round {
            if let Some(r0) = p.first_empty_kernel {
                return Err(fail(format!(
                    "kernel_only adversary emptied the kernel at round {r0}"
                )));
            }
        }
        if v.algorithm == "uniform_voting" && !v.is_safe() && p.first_empty_kernel.is_none() {
            return Err(fail(
                "UniformVoting violated safety although P_nek held all run".into(),
            ));
        }
    }
    Ok(())
}

/// What one `sweep` invocation does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `--check`: run every canonical grid once and apply every gate.
    Check,
    /// `--scenario <id> [PATH]`: rerun one scenario with the flight
    /// recorder on; print its document, or write it to `PATH`.
    Scenario {
        /// The scenario id.
        id: String,
        /// Where to write the document (stdout when absent).
        path: Option<String>,
    },
}

/// The one accepted command-line shape.
pub const USAGE: &str = "usage: sweep --check | sweep --scenario <id> [PATH]";

/// Parses `sweep`'s arguments (program name excluded).
///
/// # Errors
///
/// Anything but `--check` or `--scenario <id> [PATH]` — an unknown flag
/// never becomes an output path.
pub fn parse_args(args: &[String]) -> Result<Mode, String> {
    let operand = |s: &String| !s.starts_with('-');
    match args {
        [flag] if flag == "--check" => Ok(Mode::Check),
        [flag, id, path @ ..]
            if flag == "--scenario" && path.len() <= 1 && path.iter().chain([id]).all(operand) =>
        {
            Ok(Mode::Scenario {
                id: id.clone(),
                path: path.first().cloned(),
            })
        }
        [flag] if flag == "--scenario" => {
            Err("--scenario needs an id (e.g. uniform_voting/random_loss_p400/n4/s0)".into())
        }
        [] => Err("no mode given".into()),
        _ => Err(format!("unrecognised arguments {args:?}")),
    }
}

/// Every model-layer grid a `--scenario <id>` repro can come from: the
/// safe baseline, the `P_nek` counterexamples, and the contact-plan cells.
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
    let forensic = |seed, violation: &Option<String>, telemetry, events: &Option<Vec<Event>>| {
        events.as_deref().map(|events| {
            let violation = violation.as_deref().unwrap_or("violation");
            forensic_artifact_json(id, seed, violation, telemetry, events)
        })
    };

    if let Some(mut scenario) = all_model_sweeps()
        .into_iter()
        .flat_map(|s| s.scenarios())
        .find(|s| s.id() == id)
    {
        scenario.telemetry = true;
        let v = scenario.run();
        let artifact = forensic(
            v.seed,
            &v.violation,
            v.telemetry.as_ref(),
            &v.forensic_events,
        );
        return Some(repro_doc("model", id, verdict_json(&v), artifact));
    }

    if let Some(mut scenario) = [sim_layer_sweep(), contact_sim_sweep()]
        .into_iter()
        .flat_map(|s| s.scenarios())
        .find(|s| s.id() == id)
    {
        scenario.telemetry = true;
        let v = scenario.run();
        let artifact = forensic(
            v.seed,
            &v.violation,
            v.telemetry.as_ref(),
            &v.forensic_events,
        );
        return Some(repro_doc("sim", id, sim_verdict_json(&v), artifact));
    }

    let mut rsm_grids = rsm_layer_sweeps();
    rsm_grids.push(contact_rsm_sweep());
    rsm_grids.extend(sharded_rsm_sweeps());
    rsm_grids.push(contact_sharded_sweep());
    let mut scenario = rsm_grids
        .into_iter()
        .flat_map(|s| s.scenarios())
        .find(|s| s.id() == id)?;
    scenario.telemetry = true;
    let v = scenario.run();
    let artifact = forensic(
        v.seed,
        &v.violation,
        v.telemetry.as_ref(),
        &v.forensic_events,
    );
    Some(repro_doc("rsm", id, rsm_verdict_json(&v), artifact))
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// The canonical grids thinned through their builders: 8 seeds on the
    /// model layer, 3 on the sim layer, one seed and two workloads on the
    /// log, S ∈ {1, 4} and 2 seeds on the sharded log.
    fn thinned() -> Grids {
        Grids {
            model: baseline_sweeps()
                .into_iter()
                .map(|s| s.seeds(0..8))
                .collect(),
            pnek: pnek_counterexample_sweep().seeds(0..8),
            sim: sim_layer_sweep().seeds(0..3),
            rsm: rsm_layer_sweeps()
                .into_iter()
                .map(|s| {
                    s.seeds(0..1).workloads([
                        WorkloadSpec::FixedRate { per_round: 2 },
                        WorkloadSpec::ClosedLoop { clients: 8 },
                    ])
                })
                .collect(),
            sharded: sharded_rsm_sweeps()
                .into_iter()
                .map(|s| s.shards([1, 4]).seeds(0..2))
                .collect(),
            contact_model: contact_model_sweep().seeds(0..8),
            contact_sim: contact_sim_sweep().seeds(0..2),
            contact_rsm: contact_rsm_sweep().seeds(0..1),
            contact_sharded: contact_sharded_sweep().seeds(0..1),
            lateness_seeds: 0..4,
        }
    }

    /// The thinned grids' report, run once and shared by every test.
    fn report() -> &'static CheckReport {
        static REPORT: OnceLock<CheckReport> = OnceLock::new();
        REPORT.get_or_init(|| thinned().run())
    }

    /// The failures of a forged copy of [`report`]; asserts that every one
    /// of them is in `section` and returns them.
    fn forged(section: &str, forge: impl FnOnce(&mut CheckReport)) -> Vec<Failure> {
        let mut report = report().clone();
        forge(&mut report);
        let failures = report.failures();
        assert!(!failures.is_empty(), "the forged {section} report passed");
        for f in &failures {
            assert_eq!(f.section, section, "{f}");
        }
        failures
    }

    #[test]
    fn thinned_grid_passes_and_its_counts_are_pinned() {
        // Every count is deterministic, so any change here means the
        // simulated behaviour changed. (The timed sweep that preceded
        // `--check` printed the same numbers for this thinning.)
        let report = report();
        let failures = report.failures();
        assert!(failures.is_empty(), "{failures:#?}");
        assert_eq!(
            report.table(&failures),
            "\
model       ok     384 scenarios, 303 decided, 0 violations
p_nek       ok     72 scenarios, 17 caught, 17 with an empty kernel
monitoring  ok     384 monitored, 52 P2otr, cross-checked against the safety verdicts
sim         ok     48 scenarios, 48 achieved, 0 violations
rsm         ok     216 scenarios, 0 violations, 74905 commands
sharded     ok     32 scenarios, 0 violations
contact     ok     184 scenarios, 0 violations, 0 late windows; dark 992, backfill 28608, divergent 508, recovered 56, worst catch-up 17
telemetry   ok     15724 events, 0 dropped; counterexamples 965 events, 0 dropped
"
        );
    }

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
    fn model_gate_fails_on_a_forged_violation() {
        let failures = forged("model", |r| {
            r.recorded[1].verdicts[3].violation = Some("forged".into());
        });
        assert_eq!(
            failures[0].scenarios,
            [report().recorded[1].verdicts[3].id()]
        );
    }

    #[test]
    fn pnek_gate_fails_when_nothing_is_caught() {
        let failures = forged("p_nek", |r| {
            for v in &mut r.pnek.verdicts {
                v.violation = None;
            }
        });
        assert!(failures
            .iter()
            .any(|f| f.reason.contains("checker is blind")));
    }

    #[test]
    fn repro_gate_fails_when_the_rerun_disagrees() {
        let failures = forged("p_nek", |r| {
            let victim = r
                .pnek
                .verdicts
                .iter_mut()
                .find(|v| !v.is_safe())
                .expect("UV violates agreement outside P_nek");
            victim.violation = Some("a violation the rerun will not see".into());
        });
        assert!(
            failures[0].reason.contains("did not reproduce"),
            "{}",
            failures[0]
        );
        assert_eq!(failures[0].scenarios.len(), 1);
    }

    #[test]
    fn cross_check_accepts_the_monitored_grid_and_catches_contradictions() {
        let report = report();
        predicate_cross_check(&report.model, &report.pnek).expect("grid is consistent");

        // A violating UV verdict whose monitor claims P_nek held all run
        // must be flagged.
        let failures = forged("monitoring", |r| {
            let victim = r
                .pnek
                .verdicts
                .iter_mut()
                .find(|v| !v.is_safe())
                .expect("a violation exists");
            victim.predicates.as_mut().unwrap().first_empty_kernel = None;
        });
        assert!(failures[0].reason.contains("P_nek held"), "{}", failures[0]);

        // So must an empty kernel under the kernel-preserving adversary.
        forged("monitoring", |r| {
            let victim = r.model[0]
                .verdicts
                .iter_mut()
                .find(|v| v.adversary.starts_with("kernel_only") && v.algorithm != "last_voting")
                .expect("the safe grid runs kernel_only");
            victim.predicates.as_mut().unwrap().first_empty_kernel = Some(3);
        });

        // An unmonitored verdict in a monitored grid is also a failure.
        forged("monitoring", |r| r.model[1].verdicts[0].predicates = None);
    }

    #[test]
    fn sim_gate_fails_on_a_violation_and_on_an_undelivered_window() {
        forged("sim", |r| {
            r.sim.verdicts[5].violation = Some("forged".into())
        });
        forged("sim", |r| r.sim.verdicts[5].achieved = false);
    }

    #[test]
    fn rsm_and_sharded_gates_fail_on_a_forged_fork() {
        forged("rsm", |r| {
            r.rsm[1].verdicts[0].violation = Some("forged fork".into());
        });
        forged("sharded", |r| {
            r.sharded[0].verdicts[7].violation = Some("forged fork".into());
        });
    }

    #[test]
    fn flow_control_gate_fails_on_a_forged_requeue_ratio() {
        for section in ["rsm", "sharded"] {
            let failures = forged(section, |r| {
                let reports = if section == "rsm" {
                    &mut r.rsm
                } else {
                    &mut r.sharded
                };
                let victim = reports[0]
                    .verdicts
                    .iter_mut()
                    .find(|v| v.lease && v.adversary == "full_delivery" && v.commands > 0)
                    .expect("the grid runs lease-on full-delivery cells");
                victim.requeued_commands = victim.commands;
            });
            assert!(
                failures[0].reason.contains("(gate: 0.1)"),
                "{}",
                failures[0]
            );
        }
    }

    #[test]
    fn contact_gate_fails_on_a_late_window_and_a_violation() {
        let failures = forged("contact", |r| r.lateness[2].achieved -= 1);
        assert!(
            failures[0].reason.contains("missed round"),
            "{}",
            failures[0]
        );
        forged("contact", |r| {
            r.contact_sharded.verdicts[0].violation = Some("forged".into());
        });
    }

    #[test]
    fn telemetry_gate_fails_on_a_dropped_event() {
        let failures = forged("telemetry", |r| {
            r.pnek.verdicts[2]
                .telemetry
                .as_mut()
                .unwrap()
                .events_dropped = 1;
        });
        assert_eq!(failures[0].scenarios, [report().pnek.verdicts[2].id()]);
        forged("telemetry", |r| {
            r.recorded[0].verdicts[0]
                .telemetry
                .as_mut()
                .unwrap()
                .events_dropped = 4;
        });
    }

    #[test]
    fn grid_shape_gates_fail_on_forged_reports() {
        // A grid that ran nothing, a log that ordered nothing, a lease
        // axis swept one way, plans that disrupted nothing, a silent
        // recorder and a counterexample without its ring all fail.
        forged("sim", |r| r.sim.verdicts.clear());
        forged("rsm", |r| r.rsm.iter_mut().for_each(|g| g.verdicts.clear()));
        forged("sharded", |r| {
            for v in r.sharded.iter_mut().flat_map(|g| &mut g.verdicts) {
                v.lease = false;
            }
        });
        forged("contact", |r| {
            for v in r.contact_rsm.verdicts.iter_mut() {
                v.dark_rounds = 0;
            }
            for v in r.contact_sharded.verdicts.iter_mut() {
                v.dark_rounds = 0;
            }
        });
        forged("telemetry", |r| {
            for v in r.recorded.iter_mut().flat_map(|g| &mut g.verdicts) {
                v.telemetry = None;
            }
        });
        let failures = forged("p_nek", |r| {
            for v in r.pnek.verdicts.iter_mut() {
                v.forensic_events = None;
            }
        });
        assert!(
            failures[0].reason.contains("forensic artifact"),
            "{}",
            failures[0]
        );
    }

    #[test]
    fn a_failure_prints_its_repro_lines() {
        let failure = Failure::scenarios("sim", "forged", (0..12).map(|i| format!("x/y/n4/s{i}")))
            .expect("ids given");
        let text = failure.to_string();
        assert!(text.starts_with("FAILED sim: forged"), "{text}");
        assert!(text.contains(&repro_command("x/y/n4/s0")), "{text}");
        assert!(text.ends_with("… and 2 more"), "{text}");
        assert!(Failure::scenarios("sim", "none", Vec::new()).is_none());
    }

    #[test]
    fn rsm_layer_grid_orders_logs_safely() {
        // No dead cell: every (algorithm, adversary, depth, workload,
        // lease) combination orders slots.
        let report = report();
        for rsm in &report.rsm {
            for ((alg, adv, depth, _shards, wl, lease), cell) in rsm.by_cell() {
                assert!(
                    cell.slots > 0,
                    "dead cell: {alg}/{adv}/d{depth}/{wl}/lease{lease} ordered nothing"
                );
            }
        }
        // Deeper pipelines must raise per-round throughput under full
        // delivery (the whole point of the depth axis).
        let per_round = |depth: usize| {
            let (commands, rounds) = report.rsm[0]
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
    fn sharded_rsm_grid_sweeps_every_shard_count() {
        let report = &report().sharded[0];
        let mut seen: Vec<usize> = report.verdicts.iter().map(|v| v.shards).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![1, 4], "thinned grid sweeps S ∈ {{1, 4}}");
        for ((_, adv, _, shards, wl, lease), cell) in report.by_cell() {
            assert!(
                cell.commands > 0,
                "dead cell: {adv}/S{shards}/{wl}/lease{lease}"
            );
        }
    }

    #[test]
    fn sim_layer_queue_diagnostics_flow() {
        let sim = &report().sim;
        assert!(sim.verdicts.iter().any(|v| v.events_dispatched > 0));
        assert!(sim.verdicts.iter().any(|v| v.peak_queue_depth > 0));
    }

    #[test]
    fn contact_plans_delay_every_window_and_every_log_recovers() {
        let report = report();
        assert_eq!(report.lateness.len(), 6, "3 plans × {{P_k, P_su}}");
        for row in &report.lateness {
            assert!(
                row.worst_witness_round > row.window,
                "a contact plan must delay its predicate window: {row:?}"
            );
        }
        // Every contact rsm scenario reconnects and converges inside its
        // round budget — recovery, not just survival.
        for v in report.contact_service() {
            assert!(
                v.catch_up_rounds.is_some_and(|r| r <= 80),
                "{} did not catch up",
                v.id()
            );
        }
    }

    #[test]
    fn scenario_repro_reproduces_the_sweeps_verdict() {
        // The repro gate checks that a caught counterexample reruns to
        // the same violation; here, the document around it.
        let victim = report()
            .pnek
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
            Some(&Json::Str(repro_command(&victim.id())))
        );
        let Some(Json::Obj(forensic)) = map.get("forensic") else {
            panic!("a violating rerun must produce a forensic artifact");
        };
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
    fn arguments_parse_to_a_mode_or_an_error() {
        let parse =
            |args: &[&str]| parse_args(&args.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>());
        assert_eq!(parse(&["--check"]), Ok(Mode::Check));
        assert_eq!(
            parse(&["--scenario", "a/b/n4/s0"]),
            Ok(Mode::Scenario {
                id: "a/b/n4/s0".into(),
                path: None
            })
        );
        assert_eq!(
            parse(&["--scenario", "a/b/n4/s0", "out.json"]),
            Ok(Mode::Scenario {
                id: "a/b/n4/s0".into(),
                path: Some("out.json".into())
            })
        );
        for bad in [
            &[][..],
            &["--smok"],
            &["--smoke"],
            &["--rsm"],
            &["out.json"],
            &["--check", "out.json"],
            &["--scenario"],
            &["--scenario", "--check"],
            &["--scenario", "a/b/n4/s0", "--smok"],
            &["--scenario", "a/b/n4/s0", "out.json", "extra"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
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
}
