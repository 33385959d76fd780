//! The rsm layer of the sweep: replicated-log scenarios on the
//! [`LogDriver`](ho_rsm::LogDriver).
//!
//! Where the model-layer [`Sweep`](crate::Sweep) asks "does one consensus
//! instance stay safe and decide?", the rsm sweep asks the *service*
//! question: under a fault environment, how many client commands does the
//! replicated log order per round, at what latency-in-rounds, with how
//! many rounds per slot — and do all replicas apply identical prefixes
//! with every command exactly once? The grid therefore gains two axes:
//! the **pipeline depth** (slots in flight) and the **workload** (command
//! generator shape).
//!
//! UniformVoting needs care here: pipelined slots open at different
//! global rounds on different replicas, so even a kernel-preserving
//! adversary cannot guarantee a per-instance non-empty kernel — a late
//! joiner is silent for the instance's early rounds. The canonical grids
//! (see `crates/bench`) sweep UV only under full delivery, where replicas
//! run in lockstep; OTR and LastVoting are safe under everything.

use ho_core::adversary::Adversary;
use ho_core::executor::{RoundScratch, RunError};
use ho_core::telemetry::{Event, Telemetry, TelemetrySummary};
use ho_rsm::{shard_seed, FlowControl, RsmConfig, ShardedLogDriver, WorkloadSpec};

use crate::par::{default_threads, par_map};
use crate::scenario::{AdversarySpec, AlgorithmSpec, ScenarioScratch};
use ho_core::algorithms::{LastVoting, OneThirdRule, UniformVoting};
use ho_core::HoAlgorithm;

/// One cell of the rsm grid: a fully determined log-service run.
#[derive(Clone, Debug)]
pub struct RsmScenario {
    /// The inner consensus algorithm driving every slot.
    pub algorithm: AlgorithmSpec,
    /// The fault environment.
    pub adversary: AdversarySpec,
    /// Number of replicas (per shard group).
    pub n: usize,
    /// Pipeline depth (slots in flight per replica).
    pub depth: usize,
    /// Number of independent consensus groups the keyspace is partitioned
    /// across (1 = the unsharded service).
    pub shards: usize,
    /// The client workload shape.
    pub workload: WorkloadSpec,
    /// Whether the flow-control stack (slot leases, adaptive batching,
    /// admission backpressure — [`FlowControl::on`]) is enabled.
    pub lease: bool,
    /// The seed deriving workloads and adversary randomness.
    pub seed: u64,
    /// Rounds to run (fixed budget — a log service never "terminates").
    pub rounds: u64,
    /// Runs the scenario with the flight recorder + metrics registry
    /// active on the anchor group (shard 0). Recording only observes —
    /// the verdict is bit-identical to an unrecorded run.
    pub telemetry: bool,
}

impl RsmScenario {
    /// A stable identifier for reports.
    #[must_use]
    pub fn id(&self) -> String {
        format!(
            "rsm/{}/{}/n{}/d{}/S{}/{}/lease{}/s{}",
            self.algorithm.name(),
            self.adversary.name(),
            self.n,
            self.depth,
            self.shards.max(1),
            self.workload.name(),
            u8::from(self.lease),
            self.seed
        )
    }

    /// Executes the scenario to completion and reports the verdict.
    #[must_use]
    pub fn run(&self) -> RsmVerdict {
        self.run_reusing(&mut ScenarioScratch::default())
    }

    /// Executes the scenario reusing a worker-owned scratch (the executor's
    /// type-independent round buffers survive from scenario to scenario).
    #[must_use]
    pub fn run_reusing(&self, scratch: &mut ScenarioScratch) -> RsmVerdict {
        match self.algorithm {
            AlgorithmSpec::OneThirdRule => self.run_with(|_| OneThirdRule::new(self.n), scratch),
            AlgorithmSpec::UniformVoting => self.run_with(|_| UniformVoting::new(self.n), scratch),
            AlgorithmSpec::LastVoting => self.run_with(|_| LastVoting::new(self.n), scratch),
        }
    }

    fn run_with<A>(&self, make: impl FnMut(usize) -> A, scratch: &mut ScenarioScratch) -> RsmVerdict
    where
        A: HoAlgorithm<Value = u64>,
    {
        let shards = self.shards.max(1);
        // One independent fault schedule per group, derived from the
        // scenario seed by the same stream split as the workloads
        // (`shard_seed(seed, 0) == seed`, so S=1 reproduces the unsharded
        // adversary exactly).
        let mut adversaries: Vec<Box<dyn Adversary + Send>> = (0..shards)
            .map(|s| self.adversary.build(self.n, shard_seed(self.seed, s)))
            .collect();
        let mut scratches = std::mem::take(&mut scratch.shard_rounds);
        scratches.resize_with(shards, RoundScratch::default);
        let mut cfg = RsmConfig::with_depth(self.depth);
        cfg.flow = if self.lease {
            FlowControl::on()
        } else {
            FlowControl::off()
        };
        let mut driver = ShardedLogDriver::with_scratches(
            make,
            self.workload,
            cfg,
            shards,
            self.seed,
            scratches,
        );
        // The recorder ring lives in the worker scratch and rides the
        // anchor group (shard 0): reset retains the allocation, so a
        // telemetry-on batch allocates the ring exactly once per worker.
        if self.telemetry {
            let mut telemetry = std::mem::take(&mut scratch.telemetry);
            if !telemetry.is_on() {
                telemetry = Telemetry::on();
            }
            telemetry.reset();
            driver.set_telemetry(telemetry);
        }
        // The executor's consensus checker guards slot 0 online; the
        // applied-log oracle checks the whole log afterwards.
        let mut violation = match driver.run(&mut adversaries, self.rounds) {
            Ok(()) => None,
            Err(RunError::Violation(v)) => Some(v.to_string()),
            Err(e @ RunError::MaxRoundsExceeded { .. }) => Some(e.to_string()),
        };
        let check = driver.check();
        violation = violation.or_else(|| check.violation.clone());
        let stats = driver.service_stats();
        let messages = driver.message_stats();
        // Graceful-degradation accounting for contact-plan scenarios:
        // how many process-rounds the plan kept replicas dark, and how
        // long after the last reconnection the logs took to re-converge.
        let plan = self.adversary.contact_plan();
        let dark_rounds = plan.map_or(0, |p| {
            (0..shards)
                .map(|s| p.dark_rounds(shard_seed(self.seed, s), self.n, self.rounds))
                .sum()
        });
        let converged = stats.min_applied_slots == stats.applied_slots;
        let catch_up_rounds = match plan {
            Some(p) if converged => Some(
                stats
                    .last_convergence_round
                    .map_or(0, |r| r.saturating_sub(p.good_from() - 1)),
            ),
            _ => None,
        };
        // Take the ring back before the driver is consumed; a violated
        // invariant drains it for the forensic artifact.
        let telemetry_handle = driver.take_telemetry();
        let telemetry = telemetry_handle.summary();
        let forensic_events = (violation.is_some() && telemetry_handle.is_on())
            .then(|| telemetry_handle.events().copied().collect());
        let verdict = RsmVerdict {
            algorithm: self.algorithm.name(),
            adversary: self.adversary.name(),
            n: self.n,
            depth: self.depth,
            shards,
            workload: self.workload.name(),
            lease: self.lease,
            seed: self.seed,
            rounds_run: driver.rounds_run(),
            violation,
            slots: check.slots,
            min_slots: check.min_slots,
            noop_slots: check.noop_slots,
            commands: check.commands,
            generated_commands: stats.generated_commands,
            requeued_commands: stats.requeued_commands,
            lease_takeovers: stats.lease_takeovers,
            deferred_commands: stats.deferred_commands,
            hot_generated: stats.hot_generated,
            backfill_entries: stats.backfill_entries,
            divergent_rounds: stats.divergent_rounds,
            dark_rounds,
            catch_up_rounds,
            latency_samples: stats.latencies.len() as u64,
            latency_p50: stats.latency_percentile(50),
            latency_p90: stats.latency_percentile(90),
            latency_p99: stats.latency_percentile(99),
            latency_max: stats.latencies.last().copied(),
            payload_allocs: messages.payload_allocs,
            payload_reuses: messages.payload_reuses,
            delivered_messages: messages.delivered,
            telemetry,
            forensic_events,
        };
        scratch.telemetry = telemetry_handle;
        scratch.shard_rounds = driver.into_scratches();
        verdict
    }
}

/// The outcome of one rsm scenario.
#[derive(Clone, Debug)]
pub struct RsmVerdict {
    /// Inner algorithm name.
    pub algorithm: &'static str,
    /// Adversary name.
    pub adversary: String,
    /// Number of replicas (per shard group).
    pub n: usize,
    /// Pipeline depth.
    pub depth: usize,
    /// Number of consensus groups (1 = unsharded).
    pub shards: usize,
    /// Workload name.
    pub workload: String,
    /// Whether the flow-control stack was enabled for this scenario.
    pub lease: bool,
    /// The scenario seed.
    pub seed: u64,
    /// Rounds executed.
    pub rounds_run: u64,
    /// A safety violation — slot-0 consensus (agreement, integrity,
    /// irrevocability) or applied-log (prefix agreement, exactly-once,
    /// batch integrity) — if one was caught.
    pub violation: Option<String>,
    /// Slots in the longest replica log.
    pub slots: u64,
    /// Slots in the shortest replica log.
    pub min_slots: u64,
    /// No-op slots (decided with an empty batch) in the longest log.
    pub noop_slots: u64,
    /// Client commands ordered by the longest log.
    pub commands: u64,
    /// Commands generated across replicas.
    pub generated_commands: u64,
    /// Commands requeued after losing their slot.
    pub requeued_commands: u64,
    /// Slots batched past the lease by the timeout fallback (0 with
    /// leases off).
    pub lease_takeovers: u64,
    /// Arrivals deferred by workload backpressure (0 without an
    /// admission window).
    pub deferred_commands: u64,
    /// Commands generated on hot keys (skew realisation).
    pub hot_generated: u64,
    /// Backfill entries delivered into replicas' mailboxes — the catch-up
    /// traffic volume.
    pub backfill_entries: u64,
    /// Rounds in which some replica's log trailed the longest (degraded
    /// service rounds).
    pub divergent_rounds: u64,
    /// Process-rounds the contact plan kept replicas dark, summed over
    /// shards (0 for non-contact adversaries).
    pub dark_rounds: u64,
    /// Rounds from the contact plan's permanent reconnection to log
    /// convergence; `None` for non-contact adversaries or when the logs
    /// were still unequal at the end of the run.
    pub catch_up_rounds: Option<u64>,
    /// Latency sample count (one per applied own command).
    pub latency_samples: u64,
    /// Median apply latency in rounds.
    pub latency_p50: Option<u64>,
    /// 90th-percentile apply latency in rounds.
    pub latency_p90: Option<u64>,
    /// 99th-percentile apply latency in rounds.
    pub latency_p99: Option<u64>,
    /// Worst apply latency in rounds.
    pub latency_max: Option<u64>,
    /// Payload constructions under the SendPlan kernel.
    pub payload_allocs: u64,
    /// Constructions served from recycled buffers.
    pub payload_reuses: u64,
    /// Messages delivered into mailboxes.
    pub delivered_messages: u64,
    /// Telemetry digest from the anchor group (`Some` iff the scenario
    /// ran with the recorder on). A diagnostic — never part of
    /// equivalence comparisons.
    pub telemetry: Option<TelemetrySummary>,
    /// The drained flight-recorder ring, captured only when a
    /// telemetry-on run violated a log invariant.
    pub forensic_events: Option<Vec<Event>>,
}

impl RsmVerdict {
    /// The scenario identifier.
    #[must_use]
    pub fn id(&self) -> String {
        format!(
            "rsm/{}/{}/n{}/d{}/S{}/{}/lease{}/s{}",
            self.algorithm,
            self.adversary,
            self.n,
            self.depth,
            self.shards,
            self.workload,
            u8::from(self.lease),
            self.seed
        )
    }

    /// Whether every log invariant held.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.violation.is_none()
    }

    /// Rounds per ordered slot (lower = better pipelining); 0 when no slot
    /// was ordered.
    #[must_use]
    pub fn rounds_per_slot(&self) -> f64 {
        ratio(self.rounds_run, self.slots)
    }

    /// Commands ordered per executed round.
    #[must_use]
    pub fn commands_per_round(&self) -> f64 {
        ratio(self.commands, self.rounds_run)
    }

    /// Requeued commands per ordered command — the slot-competition churn
    /// (the ROADMAP's admission-control baseline; leases drive it to ~0,
    /// sharding lowers it by cutting per-group contention). `None` when
    /// the scenario ordered nothing, so a stalled cell reports `null`
    /// instead of a misleading 0 (or a NaN from a naive division).
    #[must_use]
    pub fn requeue_ratio(&self) -> Option<f64> {
        opt_ratio(self.requeued_commands, self.commands)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Like [`ratio`], but distinguishes "no denominator" from "ratio 0":
/// `None` means the quantity is undefined (nothing ordered), not zero.
fn opt_ratio(num: u64, den: u64) -> Option<f64> {
    (den != 0).then(|| num as f64 / den as f64)
}

/// A builder for (algorithm × adversary × n × depth × shards × workload ×
/// lease × seed) log-service sweeps.
///
/// ```
/// use ho_harness::{AdversarySpec, AlgorithmSpec, RsmSweep, WorkloadSpec};
///
/// let report = RsmSweep::new()
///     .algorithms([AlgorithmSpec::OneThirdRule])
///     .adversaries([AdversarySpec::RandomLoss { loss: 0.3 }])
///     .sizes([4])
///     .depths([1, 4])
///     .workloads([WorkloadSpec::FixedRate { per_round: 2 }])
///     .seeds(0..5)
///     .rounds(60)
///     .run();
/// assert_eq!(report.scenarios, 10);
/// assert_eq!(report.violations, 0, "logs never fork");
/// ```
#[derive(Clone, Debug)]
pub struct RsmSweep {
    algorithms: Vec<AlgorithmSpec>,
    adversaries: Vec<AdversarySpec>,
    sizes: Vec<usize>,
    depths: Vec<usize>,
    shards: Vec<usize>,
    workloads: Vec<WorkloadSpec>,
    leases: Vec<bool>,
    seeds: Vec<u64>,
    rounds: u64,
    telemetry: bool,
    threads: Option<usize>,
}

impl Default for RsmSweep {
    fn default() -> Self {
        RsmSweep {
            algorithms: vec![AlgorithmSpec::OneThirdRule],
            adversaries: vec![AdversarySpec::FullDelivery],
            sizes: vec![4],
            depths: vec![4],
            shards: vec![1],
            workloads: vec![WorkloadSpec::FixedRate { per_round: 2 }],
            leases: vec![false],
            seeds: (0..5).collect(),
            rounds: 60,
            telemetry: false,
            threads: None,
        }
    }
}

impl RsmSweep {
    /// A sweep with defaults (OTR, full delivery, n = 4, depth 4,
    /// fixed-rate 2, 5 seeds, 60 rounds).
    #[must_use]
    pub fn new() -> Self {
        RsmSweep::default()
    }

    /// Sets the inner-algorithm axis.
    #[must_use]
    pub fn algorithms(mut self, algorithms: impl IntoIterator<Item = AlgorithmSpec>) -> Self {
        self.algorithms = algorithms.into_iter().collect();
        self
    }

    /// Sets the adversary axis.
    #[must_use]
    pub fn adversaries(mut self, adversaries: impl IntoIterator<Item = AdversarySpec>) -> Self {
        self.adversaries = adversaries.into_iter().collect();
        self
    }

    /// Sets the replica-count axis.
    #[must_use]
    pub fn sizes(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.sizes = sizes.into_iter().collect();
        self
    }

    /// Sets the pipeline-depth axis.
    #[must_use]
    pub fn depths(mut self, depths: impl IntoIterator<Item = usize>) -> Self {
        self.depths = depths.into_iter().collect();
        self
    }

    /// Sets the shard-count axis (consensus groups per scenario).
    #[must_use]
    pub fn shards(mut self, shards: impl IntoIterator<Item = usize>) -> Self {
        self.shards = shards.into_iter().collect();
        self
    }

    /// Sets the workload axis.
    #[must_use]
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads = workloads.into_iter().collect();
        self
    }

    /// Sets the flow-control axis: each entry runs the grid with the
    /// lease/backpressure stack off (`false`, today's driver bit-for-bit)
    /// or on (`true`, [`FlowControl::on`]). Default `[false]`.
    #[must_use]
    pub fn leases(mut self, leases: impl IntoIterator<Item = bool>) -> Self {
        self.leases = leases.into_iter().collect();
        self
    }

    /// Sets the seed axis.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the per-scenario round budget.
    #[must_use]
    pub fn rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// Runs every scenario with the flight recorder + metrics registry
    /// active (see [`Sweep::telemetry`](crate::Sweep::telemetry)).
    #[must_use]
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Pins the worker count (default: all cores).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker");
        self.threads = Some(threads);
        self
    }

    /// Materialises the scenario grid in axis order
    /// (algorithm, adversary, size, depth, shards, workload, lease, seed).
    #[must_use]
    pub fn scenarios(&self) -> Vec<RsmScenario> {
        let mut out = Vec::with_capacity(
            self.algorithms.len()
                * self.adversaries.len()
                * self.sizes.len()
                * self.depths.len()
                * self.shards.len()
                * self.workloads.len()
                * self.leases.len()
                * self.seeds.len(),
        );
        for &algorithm in &self.algorithms {
            for adversary in &self.adversaries {
                for &n in &self.sizes {
                    for &depth in &self.depths {
                        for &shards in &self.shards {
                            for &workload in &self.workloads {
                                for &lease in &self.leases {
                                    for &seed in &self.seeds {
                                        out.push(RsmScenario {
                                            algorithm,
                                            adversary: *adversary,
                                            n,
                                            depth,
                                            shards,
                                            workload,
                                            lease,
                                            seed,
                                            rounds: self.rounds,
                                            telemetry: self.telemetry,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Runs every scenario across the worker pool and aggregates.
    ///
    /// An S-shard scenario runs S independent group loops, so it costs ~S×
    /// a 1-shard one; workers claim one scenario at a time, so a mixed-S
    /// grid stays balanced with no cost model — a worker's tail is at most
    /// one scenario.
    #[must_use]
    pub fn run(&self) -> RsmReport {
        let verdicts: Vec<RsmVerdict> = par_map(
            &self.scenarios(),
            self.threads.unwrap_or_else(default_threads),
            ScenarioScratch::default,
            |scratch, s| s.run_reusing(scratch),
        );
        RsmReport::aggregate(verdicts)
    }
}

/// Grid-wide rsm totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RsmTotals {
    /// Rounds executed across scenarios.
    pub rounds: u64,
    /// Slots ordered (longest logs) across scenarios.
    pub slots: u64,
    /// Commands ordered across scenarios.
    pub commands: u64,
    /// Commands generated across scenarios.
    pub generated: u64,
    /// Commands requeued across scenarios.
    pub requeued: u64,
    /// The worst p99 apply latency (rounds) over all scenarios.
    pub worst_p99_latency: u64,
}

impl RsmTotals {
    /// Requeued commands per ordered command across the grid.
    #[must_use]
    pub fn requeue_ratio(&self) -> f64 {
        ratio(self.requeued, self.commands)
    }
}

/// One row of the per-cell table: a (algorithm, adversary, depth, shards,
/// workload, lease) aggregate.
#[derive(Clone, Debug, Default)]
pub struct RsmCell {
    /// Scenarios in the cell.
    pub scenarios: usize,
    /// Scenarios with a violated invariant.
    pub violations: usize,
    /// Rounds executed.
    pub rounds: u64,
    /// Slots ordered.
    pub slots: u64,
    /// Commands ordered.
    pub commands: u64,
    /// Commands generated.
    pub generated: u64,
    /// Commands requeued after losing their slot.
    pub requeued: u64,
    /// No-op slots (decided with an empty batch) in the cell's longest
    /// logs — with leases on, slots the non-holders conceded.
    pub noop_slots: u64,
    /// Slots batched past the lease by the timeout fallback.
    pub lease_takeovers: u64,
    /// Arrivals deferred by workload backpressure.
    pub deferred_commands: u64,
    /// Worst p99 apply latency (rounds) in the cell.
    pub worst_p99_latency: u64,
    /// Backfill entries delivered across the cell's scenarios.
    pub backfill_entries: u64,
    /// Degraded (log-divergent) rounds across the cell's scenarios.
    pub divergent_rounds: u64,
    /// Contact-plan dark process-rounds across the cell's scenarios.
    pub dark_rounds: u64,
    /// Worst reconnection-to-convergence latency (rounds) in the cell.
    pub worst_catch_up: u64,
    /// Flight-recorder events lost to ring wrap across the cell's
    /// scenarios (0 with the recorder off) — truncation is never silent.
    pub events_dropped: u64,
}

impl RsmCell {
    /// Rounds per ordered slot in the cell.
    #[must_use]
    pub fn rounds_per_slot(&self) -> f64 {
        ratio(self.rounds, self.slots)
    }

    /// Requeued commands per ordered command in the cell; `None` when the
    /// cell ordered nothing (reported as `null`, not 0).
    #[must_use]
    pub fn requeue_ratio(&self) -> Option<f64> {
        opt_ratio(self.requeued, self.commands)
    }
}

/// The aggregated outcome of an [`RsmSweep`] run.
#[derive(Clone, Debug)]
pub struct RsmReport {
    /// Per-scenario verdicts, in grid order.
    pub verdicts: Vec<RsmVerdict>,
    /// Number of scenarios executed.
    pub scenarios: usize,
    /// Scenarios that violated a log invariant.
    pub violations: usize,
    /// Grid-wide totals.
    pub totals: RsmTotals,
}

impl RsmReport {
    /// Folds verdicts into a report.
    #[must_use]
    pub fn aggregate(verdicts: Vec<RsmVerdict>) -> Self {
        let scenarios = verdicts.len();
        let violations = verdicts.iter().filter(|v| !v.is_safe()).count();
        let totals = RsmTotals {
            rounds: verdicts.iter().map(|v| v.rounds_run).sum(),
            slots: verdicts.iter().map(|v| v.slots).sum(),
            commands: verdicts.iter().map(|v| v.commands).sum(),
            generated: verdicts.iter().map(|v| v.generated_commands).sum(),
            requeued: verdicts.iter().map(|v| v.requeued_commands).sum(),
            worst_p99_latency: verdicts
                .iter()
                .filter_map(|v| v.latency_p99)
                .max()
                .unwrap_or(0),
        };
        RsmReport {
            scenarios,
            violations,
            totals,
            verdicts,
        }
    }

    /// The verdicts that violated an invariant.
    #[must_use]
    pub fn violating(&self) -> Vec<&RsmVerdict> {
        self.verdicts.iter().filter(|v| !v.is_safe()).collect()
    }

    /// Rounds per ordered slot grid-wide.
    #[must_use]
    pub fn rounds_per_slot(&self) -> f64 {
        ratio(self.totals.rounds, self.totals.slots)
    }

    /// Per-(algorithm, adversary, depth, shards, workload, lease)
    /// aggregates — the throughput/latency table the rsm sweep exists to
    /// produce.
    #[must_use]
    pub fn by_cell(&self) -> std::collections::BTreeMap<RsmCellKey, RsmCell> {
        let mut cells: std::collections::BTreeMap<RsmCellKey, RsmCell> =
            std::collections::BTreeMap::new();
        for v in &self.verdicts {
            let cell = cells
                .entry((
                    v.algorithm.to_owned(),
                    v.adversary.clone(),
                    v.depth,
                    v.shards,
                    v.workload.clone(),
                    v.lease,
                ))
                .or_default();
            cell.scenarios += 1;
            if !v.is_safe() {
                cell.violations += 1;
            }
            cell.rounds += v.rounds_run;
            cell.slots += v.slots;
            cell.commands += v.commands;
            cell.generated += v.generated_commands;
            cell.requeued += v.requeued_commands;
            cell.noop_slots += v.noop_slots;
            cell.lease_takeovers += v.lease_takeovers;
            cell.deferred_commands += v.deferred_commands;
            cell.worst_p99_latency = cell.worst_p99_latency.max(v.latency_p99.unwrap_or(0));
            cell.backfill_entries += v.backfill_entries;
            cell.divergent_rounds += v.divergent_rounds;
            cell.dark_rounds += v.dark_rounds;
            cell.worst_catch_up = cell.worst_catch_up.max(v.catch_up_rounds.unwrap_or(0));
            cell.events_dropped += v.telemetry.map_or(0, |t| t.events_dropped);
        }
        cells
    }
}

/// The cell-table key: (algorithm, adversary, depth, shards, workload,
/// lease).
pub type RsmCellKey = (String, String, usize, usize, String, bool);

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(algorithm: AlgorithmSpec, adversary: AdversarySpec) -> RsmScenario {
        RsmScenario {
            algorithm,
            adversary,
            n: 4,
            depth: 4,
            shards: 1,
            workload: WorkloadSpec::FixedRate { per_round: 2 },
            lease: false,
            seed: 7,
            rounds: 60,
            telemetry: false,
        }
    }

    #[test]
    fn healthy_scenario_orders_commands() {
        let v = scenario(AlgorithmSpec::OneThirdRule, AdversarySpec::FullDelivery).run();
        assert!(v.is_safe(), "{:?}", v.violation);
        assert!(v.slots > 0);
        assert!(v.commands > 0);
        assert!(v.rounds_per_slot() > 0.0);
        assert!(v.latency_p50 <= v.latency_p99);
        assert_eq!(v.rounds_run, 60);
        assert_eq!(v.min_slots, v.slots, "lockstep replicas stay level");
    }

    #[test]
    fn verdicts_are_deterministic() {
        let s = scenario(
            AlgorithmSpec::OneThirdRule,
            AdversarySpec::RandomLoss { loss: 0.3 },
        );
        let (a, b) = (s.run(), s.run());
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.commands, b.commands);
        assert_eq!(a.latency_p99, b.latency_p99);
        assert_eq!(a.delivered_messages, b.delivered_messages);
    }

    #[test]
    fn scratch_reuse_is_verdict_neutral() {
        let mut scratch = ScenarioScratch::default();
        for (algorithm, n) in [
            (AlgorithmSpec::OneThirdRule, 7),
            (AlgorithmSpec::LastVoting, 4),
            (AlgorithmSpec::OneThirdRule, 4),
        ] {
            let mut s = scenario(algorithm, AdversarySpec::RandomLoss { loss: 0.3 });
            s.n = n;
            let fresh = s.run();
            let reused = s.run_reusing(&mut scratch);
            assert_eq!(fresh.slots, reused.slots);
            assert_eq!(fresh.commands, reused.commands);
            assert_eq!(fresh.violation, reused.violation);
            assert_eq!(fresh.delivered_messages, reused.delivered_messages);
        }
    }

    #[test]
    fn grid_is_cartesian_and_parallel_agrees() {
        let sweep = RsmSweep::new()
            .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
            .adversaries([AdversarySpec::RandomLoss { loss: 0.3 }])
            .sizes([4])
            .depths([1, 4])
            .workloads([
                WorkloadSpec::FixedRate { per_round: 2 },
                WorkloadSpec::ClosedLoop { clients: 8 },
            ])
            .seeds(0..3)
            .rounds(40);
        assert_eq!(sweep.scenarios().len(), 2 * 2 * 2 * 3);
        let seq = sweep.clone().threads(1).run();
        let par = sweep.threads(4).run();
        let key = |r: &RsmReport| {
            r.verdicts
                .iter()
                .map(|v| (v.id(), v.slots, v.commands))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&seq), key(&par), "outcomes are deterministic");
        assert_eq!(seq.violations, 0);
    }

    #[test]
    fn report_aggregates_match_verdicts() {
        let report = RsmSweep::new().seeds(0..4).run();
        assert_eq!(report.scenarios, 4);
        assert_eq!(report.violations, 0);
        let commands: u64 = report.verdicts.iter().map(|v| v.commands).sum();
        assert_eq!(report.totals.commands, commands);
        assert!(report.rounds_per_slot() > 0.0);
        let cells = report.by_cell();
        assert_eq!(cells.len(), 1);
        let cell = cells.values().next().unwrap();
        assert_eq!(cell.scenarios, 4);
        assert_eq!(cell.commands, commands);
        assert!(cell.rounds_per_slot() > 0.0);
    }

    #[test]
    fn shards_axis_expands_the_grid_and_stays_safe() {
        let sweep = RsmSweep::new()
            .adversaries([AdversarySpec::RandomLoss { loss: 0.3 }])
            .shards([1, 2, 4])
            .seeds(0..2)
            .rounds(40);
        assert_eq!(sweep.scenarios().len(), 3 * 2);
        let report = sweep.run();
        assert_eq!(report.violations, 0);
        let cells = report.by_cell();
        assert_eq!(cells.len(), 3, "one cell per shard count");
        for ((_, _, _, shards, _, _), cell) in &cells {
            assert!(*shards >= 1);
            assert!(cell.commands > 0, "S={shards} ordered nothing");
        }
    }

    #[test]
    fn scratch_reuse_across_shard_counts_is_verdict_neutral() {
        // One worker scratch dragged through S = 4, 1, 8, 2 scenarios:
        // the per-shard round-buffer vector grows and shrinks, and no
        // verdict may differ from a fresh-scratch run.
        let mut scratch = ScenarioScratch::default();
        for shards in [4, 1, 8, 2] {
            let mut s = scenario(
                AlgorithmSpec::OneThirdRule,
                AdversarySpec::RandomLoss { loss: 0.3 },
            );
            s.shards = shards;
            let fresh = s.run();
            let reused = s.run_reusing(&mut scratch);
            assert_eq!(fresh.slots, reused.slots, "S={shards}");
            assert_eq!(fresh.commands, reused.commands, "S={shards}");
            assert_eq!(fresh.violation, reused.violation, "S={shards}");
            assert_eq!(fresh.latency_p99, reused.latency_p99, "S={shards}");
            assert!(fresh.id().contains(&format!("/S{shards}/")));
        }
    }

    #[test]
    fn store_and_forward_scenarios_report_degradation_metrics() {
        use ho_core::contact::ContactPlan;
        let plan = ContactPlan::StoreAndForward { dark: 30 };
        let mut s = scenario(
            AlgorithmSpec::OneThirdRule,
            AdversarySpec::ContactPlan { plan },
        );
        s.rounds = 80;
        let v = s.run();
        assert!(v.is_safe(), "{:?}", v.violation);
        assert_eq!(v.dark_rounds, 30, "one replica dark for 30 rounds");
        assert!(v.divergent_rounds > 0, "the dark replica trailed");
        assert!(v.backfill_entries > 0, "catch-up ran through backfill");
        let catch_up = v.catch_up_rounds.expect("service re-converged");
        assert!(
            catch_up <= v.rounds_run - plan.good_from(),
            "catch-up {catch_up} exceeds the post-reconnection budget"
        );
        // Non-contact scenarios keep the contact metrics inert.
        let plain = scenario(AlgorithmSpec::OneThirdRule, AdversarySpec::FullDelivery).run();
        assert_eq!(plain.dark_rounds, 0);
        assert_eq!(plain.catch_up_rounds, None);
    }

    #[test]
    fn lease_axis_expands_the_grid_and_kills_full_delivery_requeues() {
        let sweep = RsmSweep::new().leases([false, true]).seeds(0..3).rounds(60);
        assert_eq!(sweep.scenarios().len(), 2 * 3);
        let report = sweep.run();
        assert_eq!(report.violations, 0);
        let cells = report.by_cell();
        assert_eq!(cells.len(), 2, "one cell per lease setting");
        let requeued = |lease: bool| {
            cells
                .iter()
                .find(|((_, _, _, _, _, l), _)| *l == lease)
                .map(|(_, c)| c)
                .unwrap()
        };
        let off = requeued(false);
        let on = requeued(true);
        assert!(off.requeued > 0, "lease-off full delivery churns");
        assert_eq!(on.requeued, 0, "leases end slot competition");
        assert_eq!(on.lease_takeovers, 0, "no timeouts under full delivery");
        assert!(on.commands > 0);
        assert!(
            on.noop_slots > 0,
            "non-holders concede their slots as noops"
        );
        // Ids carry the axis, so both settings coexist in one report.
        assert!(report.verdicts.iter().any(|v| v.id().contains("/lease0/")));
        assert!(report.verdicts.iter().any(|v| v.id().contains("/lease1/")));
    }

    #[test]
    fn requeue_ratio_is_null_not_nan_when_nothing_was_ordered() {
        // A partitioned minority orders nothing: the ratio must be None
        // (JSON null), never NaN or a misleading 0/0 = 0.
        let mut s = scenario(
            AlgorithmSpec::OneThirdRule,
            AdversarySpec::KernelOnly { loss: 0.8 },
        );
        s.rounds = 0; // zero budget: guaranteed empty logs
        let v = s.run();
        assert_eq!(v.commands, 0);
        assert_eq!(v.requeue_ratio(), None);
        let healthy = scenario(AlgorithmSpec::OneThirdRule, AdversarySpec::FullDelivery).run();
        assert!(healthy.requeue_ratio().is_some());
    }

    #[test]
    fn deeper_pipelines_raise_cell_throughput() {
        let report = RsmSweep::new().depths([1, 8]).seeds(0..3).rounds(60).run();
        let cells = report.by_cell();
        let per_round = |depth: usize| {
            let cell = cells
                .iter()
                .find(|((_, _, d, _, _, _), _)| *d == depth)
                .map(|(_, c)| c)
                .unwrap();
            ratio(cell.commands, cell.rounds)
        };
        assert!(
            per_round(8) > per_round(1),
            "depth 8 must order more commands per round than depth 1"
        );
    }
}
