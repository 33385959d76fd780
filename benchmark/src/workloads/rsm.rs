//! `rsm_steady` and `rsm_recovery`: the replicated log on the round
//! executor, lock-step rounds (latency unit = rounds, zero host delay).
//!
//! An op is a client command applied in the longest replica log. The
//! simulated latency of a command is its apply latency in rounds at its
//! own replica (`ServiceStats::latencies`): arrival round → apply round,
//! requeues included; open-loop arrivals are stamped with the round they
//! were due, closed-loop ones with the round their client was free again.
//!
//! **Failed ops.** A command is *attempted* once the service admitted it
//! at least [`DRAIN_ROUNDS`] before the end of the run, and *failed* if it
//! is then missing from the longest log at the end — an accepted command
//! the service lost or sat on. Arrivals the admission gate refused
//! (open-loop shedding under `FlowControl::on()`) never entered the
//! service; they are reported as `rsm.shed_share` and decide
//! `rsm.sustained_rate_cmds_round`, not `failed`.

use std::time::Instant;

use ho_core::adversary::{Adversary, CrashRecovery, FullDelivery, RandomLoss};
use ho_core::algorithms::{LastVoting, OneThirdRule};
use ho_core::executor::RoundExecutor;
use ho_core::trace::TraceMode;
use ho_core::HoAlgorithm;
use ho_rsm::{
    check_logs, decode_slot_value, shard_seed, FlowControl, LogCheck, LogDriver, MultiSlot,
    RsmConfig, RsmState, ServiceStats, ShardSpec, ShardedLogCheck, ShardedLogDriver, WorkloadSpec,
    SHARD_SHIFT,
};

use crate::outage::{rolling_outages, Outages};
use crate::protocol::{CellDigest, Layers, Observation, Pass, Scale, Workload};
use crate::stats::{self, Fingerprint};
use crate::timed::Timed;
use crate::workloads::cell_seed;
use crate::workloads::simcell::Lap;

/// Rounds per cell at full size: `rsm_steady`, and `rsm_recovery` (whose
/// cells are cheaper per round, and whose p99 steadies with more outages).
pub const STEADY_ROUNDS: u64 = 4000;
pub const RECOVERY_ROUNDS: u64 = 10_000;
/// A command admitted at least this many rounds before the end of a run
/// must be in the longest log by the end (four times the latency limit).
pub const DRAIN_ROUNDS: u64 = 128;
/// The open-loop latency limit: a ladder rate is sustained only while its
/// p99 apply latency stays within this many rounds …
pub const LATENCY_LIMIT_ROUNDS: f64 = 32.0;
/// … and the admission gate refuses at most this share of arrivals.
pub const SHED_LIMIT: f64 = 0.01;
/// The open-loop rate ladder, commands per round per replica.
pub const LADDER: [u32; 4] = [1, 2, 4, 8];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Alg {
    Otr,
    Lv,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Env {
    Full,
    Loss(f64),
    /// The benchmark's rolling-outage crash-recovery schedule.
    Rolling,
}

#[derive(Clone, Debug)]
struct CellSpec {
    alg: Alg,
    n: usize,
    depth: usize,
    workload: WorkloadSpec,
    env: Env,
    shards: usize,
    /// `Some(rate)` for the cells of the open-loop ladder.
    ladder: Option<u32>,
}

impl CellSpec {
    fn new(alg: Alg, n: usize, depth: usize, workload: WorkloadSpec, env: Env) -> Self {
        CellSpec {
            alg,
            n,
            depth,
            workload,
            env,
            shards: 1,
            ladder: None,
        }
    }

    fn name(&self) -> String {
        let alg = match self.alg {
            Alg::Otr => "otr",
            Alg::Lv => "lv",
        };
        let env = match self.env {
            Env::Full => "full".to_owned(),
            Env::Loss(p) => format!("loss{}", (p * 100.0).round()),
            Env::Rolling => "rolling".to_owned(),
        };
        let shards = if self.shards > 1 {
            format!("/S{}", self.shards)
        } else {
            String::new()
        };
        format!(
            "{alg}/n{}/d{}/{}/{env}{shards}",
            self.n,
            self.depth,
            self.workload.name()
        )
    }

    fn open_loop(&self) -> bool {
        matches!(self.workload, WorkloadSpec::FixedRate { .. })
    }
}

pub const CLOSED: WorkloadSpec = WorkloadSpec::ClosedLoop { clients: 8 };
const OPEN: WorkloadSpec = WorkloadSpec::FixedRate { per_round: 2 };

fn sharded(mut cell: CellSpec, shards: usize) -> CellSpec {
    cell.shards = shards;
    cell
}

fn steady_cells() -> Vec<CellSpec> {
    let mut cells = vec![
        CellSpec::new(Alg::Otr, 4, 4, CLOSED, Env::Full),
        CellSpec::new(Alg::Lv, 4, 4, CLOSED, Env::Full),
        CellSpec::new(Alg::Otr, 7, 16, OPEN, Env::Full),
        CellSpec::new(Alg::Lv, 7, 16, OPEN, Env::Full),
        CellSpec::new(Alg::Otr, 7, 16, OPEN, Env::Loss(0.1)),
        CellSpec::new(Alg::Otr, 13, 8, CLOSED, Env::Full),
        sharded(CellSpec::new(Alg::Otr, 4, 4, CLOSED, Env::Full), 4),
    ];
    cells[2].ladder = Some(2);
    for rate in LADDER {
        if rate != 2 {
            let mut cell = CellSpec::new(
                Alg::Otr,
                7,
                16,
                WorkloadSpec::FixedRate { per_round: rate },
                Env::Full,
            );
            cell.ladder = Some(rate);
            cells.push(cell);
        }
    }
    cells
}

/// Shapes whose pipeline a laggard can outrun: bounded backfill catches up
/// about 4 slots per round, an OTR log grows `depth / 2` slots per round,
/// so under rolling outages only depth-4 logs ever re-converge (deeper
/// ones leave the first replica that went dark behind for good, with the
/// commands it had admitted — see the README). The lossy cells keep the
/// deep pipeline: there nobody falls a whole window behind.
fn recovery_cells() -> Vec<CellSpec> {
    let open_1 = WorkloadSpec::FixedRate { per_round: 1 };
    vec![
        CellSpec::new(Alg::Otr, 4, 4, CLOSED, Env::Rolling),
        CellSpec::new(Alg::Lv, 4, 4, CLOSED, Env::Rolling),
        CellSpec::new(Alg::Otr, 7, 4, open_1, Env::Rolling),
        CellSpec::new(Alg::Lv, 7, 4, open_1, Env::Rolling),
        CellSpec::new(Alg::Otr, 13, 4, CLOSED, Env::Rolling),
        sharded(CellSpec::new(Alg::Otr, 4, 4, CLOSED, Env::Rolling), 4),
        CellSpec::new(Alg::Otr, 4, 4, CLOSED, Env::Loss(0.3)),
        CellSpec::new(Alg::Otr, 7, 16, OPEN, Env::Loss(0.3)),
    ]
}

/// `RsmConfig` for a pipeline depth, flow control stated explicitly.
#[must_use]
pub fn rsm_config(depth: usize) -> RsmConfig {
    let mut cfg = RsmConfig::with_depth(depth);
    cfg.flow = FlowControl::on();
    cfg
}

/// A cell with its generated inputs: per consensus group, the seed and the
/// rolling-outage schedule (empty unless the environment is `Rolling`).
struct Cell {
    spec: CellSpec,
    seed: u64,
    groups: Vec<(u64, Outages)>,
}

impl Cell {
    fn new(spec: CellSpec, seed: u64, rounds: u64) -> Self {
        let groups = (0..spec.shards)
            .map(|s| {
                let group_seed = shard_seed(seed, s);
                let outages = if spec.env == Env::Rolling {
                    rolling_outages(spec.n, rounds, group_seed)
                } else {
                    Vec::new()
                };
                (group_seed, outages)
            })
            .collect();
        Cell { spec, seed, groups }
    }

    fn adversary(&self, group: usize) -> Box<dyn Adversary + Send> {
        let (seed, outages) = &self.groups[group];
        match self.spec.env {
            Env::Full => Box::new(FullDelivery),
            Env::Loss(p) => Box::new(RandomLoss::new(p, *seed)),
            Env::Rolling => Box::new(CrashRecovery::new(self.spec.n, outages)),
        }
    }
}

/// What one consensus group looked like after a run (read outside the
/// timed region).
struct GroupEnd {
    /// Every replica's applied log.
    logs: Vec<Vec<u64>>,
    /// Commands each replica had admitted `DRAIN_ROUNDS` before the end.
    admitted_early: Vec<u64>,
    /// Commands queued at the replicas at the end.
    backlog: u64,
}

fn group_end<A: HoAlgorithm<Value = u64>>(
    states: &[RsmState<A>],
    admitted_early: Vec<u64>,
) -> GroupEnd {
    GroupEnd {
        logs: states.iter().map(|s| s.applied().to_vec()).collect(),
        admitted_early,
        backlog: states.iter().map(|s| s.pending_commands() as u64).sum(),
    }
}

fn admitted<A: HoAlgorithm<Value = u64>>(states: &[RsmState<A>]) -> Vec<u64> {
    states.iter().map(|s| s.workload().generated()).collect()
}

/// The untraced run of one cell through `LogDriver` / `ShardedLogDriver`.
struct CellRun {
    timed_ns: u64,
    groups: Vec<GroupEnd>,
    delivered: u64,
    fresh_allocs: u64,
    /// `check()` and `service_stats()`, with their host time.
    commands: u64,
    slots: u64,
    noop_slots: u64,
    oracle_ns: u64,
    stats: ServiceStats,
    stats_ns: u64,
}

fn run_cell(cell: &Cell, rounds: u64) -> Result<CellRun, String> {
    match cell.spec.alg {
        Alg::Otr => run_cell_with(cell, rounds, OneThirdRule::new),
        Alg::Lv => run_cell_with(cell, rounds, LastVoting::new),
    }
}

/// What `check()` found, whichever driver ran it.
struct Oracle {
    violation: Option<String>,
    commands: u64,
    slots: u64,
    noop_slots: u64,
}

impl From<LogCheck> for Oracle {
    fn from(c: LogCheck) -> Self {
        Oracle {
            violation: c.violation,
            commands: c.commands,
            slots: c.slots,
            noop_slots: c.noop_slots,
        }
    }
}

impl From<ShardedLogCheck> for Oracle {
    fn from(c: ShardedLogCheck) -> Self {
        Oracle {
            violation: c.violation,
            commands: c.commands,
            slots: c.slots,
            noop_slots: c.noop_slots,
        }
    }
}

/// `f`'s result and the host nanoseconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

fn run_cell_with<A: HoAlgorithm<Value = u64>>(
    cell: &Cell,
    rounds: u64,
    make: impl Fn(usize) -> A,
) -> Result<CellRun, String> {
    let spec = &cell.spec;
    let cfg = rsm_config(spec.depth);
    let fail = |e: ho_core::RunError<u64>| format!("cell {}: {e}", spec.name());
    let head = rounds.saturating_sub(DRAIN_ROUNDS);
    // The timed region is construction + run; the oracles come after it.
    let start = Instant::now();
    let (timed_ns, groups, messages, (check, oracle_ns), (stats, stats_ns)) = if spec.shards == 1 {
        let mut adversary = cell.adversary(0);
        let mut driver = LogDriver::new(make(spec.n), spec.workload, cfg, cell.seed);
        driver.run(&mut adversary, head).map_err(fail)?;
        let early = admitted(driver.states());
        driver.run(&mut adversary, rounds - head).map_err(fail)?;
        (
            start.elapsed().as_nanos() as u64,
            vec![group_end(driver.states(), early)],
            driver.message_stats(),
            timed(|| Oracle::from(driver.check())),
            timed(|| driver.service_stats()),
        )
    } else {
        let mut adversaries: Vec<_> = (0..spec.shards).map(|s| cell.adversary(s)).collect();
        let mut driver =
            ShardedLogDriver::new(|_| make(spec.n), spec.workload, cfg, spec.shards, cell.seed);
        driver.run(&mut adversaries, head).map_err(fail)?;
        let early: Vec<Vec<u64>> = (0..spec.shards)
            .map(|s| admitted(driver.group(s).states()))
            .collect();
        driver.run(&mut adversaries, rounds - head).map_err(fail)?;
        (
            start.elapsed().as_nanos() as u64,
            early
                .into_iter()
                .enumerate()
                .map(|(s, early)| group_end(driver.group(s).states(), early))
                .collect(),
            driver.message_stats(),
            timed(|| Oracle::from(driver.check())),
            timed(|| driver.service_stats()),
        )
    };
    if let Some(v) = check.violation {
        return Err(format!("cell {}: {v}", spec.name()));
    }
    Ok(CellRun {
        timed_ns,
        groups,
        delivered: messages.delivered,
        fresh_allocs: messages.fresh_allocs(),
        commands: check.commands,
        slots: check.slots,
        noop_slots: check.noop_slots,
        oracle_ns,
        stats,
        stats_ns,
    })
}

/// The fingerprint of a cell: every group's longest log, and how far each
/// replica had applied it.
fn digest(name: String, groups: &[GroupEnd], rounds: u64, commands: u64) -> CellDigest {
    let mut fp = Fingerprint::default();
    for group in groups {
        fp.words(group.longest());
        for log in &group.logs {
            fp.word(log.len() as u64);
        }
    }
    CellDigest {
        name,
        fingerprint: fp.0,
        work: rounds * groups.len() as u64,
        ops: commands,
    }
}

/// `(attempted, failed)`: the commands the `counted` replicas had admitted
/// early (`admitted_early[p]` of replica `p`'s command indices), and how
/// many of those the log `longest` does not cover. `base` undoes a shard's
/// index namespace (`idx = shard << SHARD_SHIFT | local`; 0 unsharded).
#[must_use]
pub fn early_commands_lost(
    longest: &[u64],
    admitted_early: &[u64],
    base: u64,
    counted: impl Fn(usize) -> bool,
) -> (u64, u64) {
    let mut covered = vec![0u64; admitted_early.len()];
    for (slot, &value) in longest.iter().enumerate() {
        let batch = decode_slot_value(slot as u64, value);
        if batch.count > 0 {
            let first = batch.first - base;
            covered[batch.proposer] += (first + batch.count)
                .min(admitted_early[batch.proposer])
                .saturating_sub(first);
        }
    }
    let mut attempted = 0;
    let mut applied = 0;
    for p in (0..admitted_early.len()).filter(|&p| counted(p)) {
        attempted += admitted_early[p];
        applied += covered[p];
    }
    (attempted, attempted - applied)
}

impl GroupEnd {
    fn longest(&self) -> &[u64] {
        self.logs
            .iter()
            .max_by_key(|l| l.len())
            .expect("a group has replicas")
    }
}

pub struct RsmWorkload {
    cells: Vec<Cell>,
    rounds: u64,
    steady: bool,
}

impl RsmWorkload {
    fn new(specs: Vec<CellSpec>, seed: u64, scale: Scale, steady: bool) -> Self {
        let full = if steady {
            STEADY_ROUNDS
        } else {
            RECOVERY_ROUNDS
        };
        // The smoke size keeps the drain allowance and a few outages.
        let rounds = scale.down(full, 4 * DRAIN_ROUNDS);
        let cells = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Cell::new(spec, cell_seed(seed, i as u64), rounds))
            .collect();
        RsmWorkload {
            cells,
            rounds,
            steady,
        }
    }

    #[must_use]
    pub fn steady(seed: u64, scale: Scale) -> Self {
        Self::new(steady_cells(), seed, scale, true)
    }

    #[must_use]
    pub fn recovery(seed: u64, scale: Scale) -> Self {
        Self::new(recovery_cells(), seed, scale, false)
    }

    fn run_all(&self) -> Result<(Pass, Vec<CellRun>), String> {
        let mut timed_ns = 0;
        let mut cells = Vec::with_capacity(self.cells.len());
        let mut runs = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let run = run_cell(cell, self.rounds)?;
            timed_ns += run.timed_ns;
            cells.push(digest(
                cell.spec.name(),
                &run.groups,
                self.rounds,
                run.commands,
            ));
            runs.push(run);
        }
        Ok((Pass { timed_ns, cells }, runs))
    }
}

impl Workload for RsmWorkload {
    fn pass(&mut self) -> Result<Pass, String> {
        self.run_all().map(|(pass, _)| pass)
    }

    fn observe(&mut self) -> Result<(Pass, Observation), String> {
        let (pass, runs) = self.run_all()?;
        let mut obs = Observation {
            clock: "rounds",
            ..Observation::default()
        };
        let mut shed = 0;
        for (cell, run) in self.cells.iter().zip(&runs) {
            for (s, group) in run.groups.iter().enumerate() {
                let (attempted, failed) = early_commands_lost(
                    group.longest(),
                    &group.admitted_early,
                    (s as u64) << SHARD_SHIFT,
                    |_| true,
                );
                obs.attempted += attempted;
                obs.failed += failed;
            }
            if cell.spec.open_loop() {
                shed += run.stats.deferred_commands;
            }
            obs.latencies
                .extend(run.stats.latencies.iter().map(|&l| l as f64));
        }
        obs.notes.push(format!(
            "latency sample = apply latency in rounds at the command's own replica, pooled over {} cells of {} rounds; attempted = commands admitted at least {DRAIN_ROUNDS} rounds before the end; the admission gate refused {shed} open-loop arrivals (reported as rsm.shed_share, not as failed)",
            self.cells.len(),
            self.rounds
        ));
        Ok((pass, obs))
    }

    fn trace(&mut self) -> Result<(Layers, Vec<CellDigest>), String> {
        let mut layers = Layers::new();

        // The untraced pass once more, for the service-level counters and
        // the host time of the two oracles.
        let (_, runs) = self.run_all()?;
        let total = |f: &dyn Fn(&CellRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
        let commands = total(&|r| r.commands);
        let slots = total(&|r| r.slots);
        let group_rounds: f64 = self
            .cells
            .iter()
            .map(|c| (self.rounds * c.spec.shards as u64) as f64)
            .sum();
        let shed: f64 = self
            .cells
            .iter()
            .zip(&runs)
            .filter(|(c, _)| c.spec.open_loop())
            .map(|(_, r)| r.stats.deferred_commands as f64)
            .sum();
        let generated = total(&|r| r.stats.generated_commands);
        layers.insert("rsm.oracle_ms", total(&|r| r.oracle_ns) * 1e-6);
        layers.insert("rsm.stats_ms", total(&|r| r.stats_ns) * 1e-6);
        layers.insert("rsm.rounds_per_slot", group_rounds / slots);
        layers.insert("rsm.cmds_per_slot", commands / slots);
        layers.insert("rsm.noop_slot_share", total(&|r| r.noop_slots) / slots);
        layers.insert(
            "rsm.requeued_per_applied",
            total(&|r| r.stats.requeued_commands) / commands,
        );
        layers.insert("rsm.lease_takeovers", total(&|r| r.stats.lease_takeovers));
        layers.insert(
            "rsm.backfill_per_applied",
            total(&|r| r.stats.backfill_entries) / commands,
        );
        layers.insert(
            "rsm.delivered_msgs_per_cmd",
            total(&|r| r.delivered) / commands,
        );
        layers.insert("rsm.shed_share", shed / (generated + shed));
        layers.insert(
            "core.delivered_per_round",
            total(&|r| r.delivered) / group_rounds,
        );
        layers.insert(
            "core.fresh_payload_allocs_per_round",
            total(&|r| r.fresh_allocs) / group_rounds,
        );

        let mut sustained = 0.0f64;
        for (cell, run) in self.cells.iter().zip(&runs) {
            let Some(rate) = cell.spec.ladder else {
                continue;
            };
            let mut latencies: Vec<f64> = run.stats.latencies.iter().map(|&l| l as f64).collect();
            stats::sort(&mut latencies);
            let p99 = stats::quantile(&latencies, 0.99);
            let offered = (run.stats.generated_commands + run.stats.deferred_commands) as f64;
            let shed_share = run.stats.deferred_commands as f64 / offered;
            let cfg = rsm_config(cell.spec.depth);
            let backlog_limit = (2 * cfg.depth * cfg.max_batch) as u64;
            let backlog: u64 = run.groups.iter().map(|g| g.backlog).sum();
            layers.insert(
                match rate {
                    1 => "rsm.ladder_p99_rounds_r1",
                    2 => "rsm.ladder_p99_rounds_r2",
                    4 => "rsm.ladder_p99_rounds_r4",
                    _ => "rsm.ladder_p99_rounds_r8",
                },
                p99,
            );
            if p99 <= LATENCY_LIMIT_ROUNDS && shed_share <= SHED_LIMIT && backlog <= backlog_limit {
                sustained = sustained.max(f64::from(rate));
            }
        }
        layers.insert("rsm.sustained_rate_cmds_round", sustained);

        // The single-node baseline: the same log with nobody to agree with.
        if self.steady {
            let baseline = Cell::new(
                CellSpec::new(Alg::Otr, 1, 4, CLOSED, Env::Full),
                cell_seed(0, 0),
                self.rounds,
            );
            let run = run_cell(&baseline, self.rounds)?;
            layers.insert(
                "rsm.single_node_cmds_s",
                run.commands as f64 / (run.timed_ns as f64 * 1e-9),
            );
        }

        // The traced pass: the same cells on a RoundExecutor the benchmark
        // steps itself, with MultiSlot, the inner consensus algorithm and
        // the adversary under timing wrappers.
        let wall = Instant::now();
        let mut lap = Lap::start();
        let ticks_start = ho_core::telemetry::now_ticks();
        let mut t = TraceTotals::default();
        let mut cells = Vec::with_capacity(self.cells.len());
        for (cell, run) in self.cells.iter().zip(&runs) {
            let groups = match cell.spec.alg {
                Alg::Otr => trace_cell(cell, self.rounds, OneThirdRule::new, &mut lap, &mut t)?,
                Alg::Lv => trace_cell(cell, self.rounds, LastVoting::new, &mut lap, &mut t)?,
            };
            if t.cell_divergent != run.stats.divergent_rounds {
                return Err(format!(
                    "cell {}: the traced pass saw {} divergent rounds, LogDriver {}",
                    cell.spec.name(),
                    t.cell_divergent,
                    run.stats.divergent_rounds
                ));
            }
            cells.push(digest(cell.spec.name(), &groups, self.rounds, run.commands));
            t.bench += lap.lap();
        }
        let ticks = ho_core::telemetry::now_ticks() - ticks_start;
        let wall_ns = wall.elapsed().as_nanos() as f64;

        let ns = wall_ns / ticks as f64;
        let rounds = t.rounds as f64;
        let ms = |ticks: u64| ticks as f64 * ns * 1e-6;
        let executor_self = t.executor_built + t.step - t.adversary - t.outer_run;
        let core = executor_self + t.adversary + t.inner;
        let rsm = t.log_built + (t.outer_init + t.outer_run - t.inner) + t.oracle;
        layers.insert("core.rounds", rounds);
        layers.insert("core.step_ns", t.step as f64 * ns / rounds);
        layers.insert("core.adversary_ns", t.adversary as f64 * ns / rounds);
        layers.insert("core.algorithm_ns", t.outer_run as f64 * ns / rounds);
        layers.insert(
            "core.executor_self_ns",
            (t.step - t.adversary - t.outer_run) as f64 * ns / rounds,
        );
        layers.insert(
            "rsm.multislot_self_ns_per_round",
            (t.outer_init + t.outer_run - t.inner) as f64 * ns / rounds,
        );
        layers.insert(
            "rsm.inner_consensus_ns_per_round",
            t.inner as f64 * ns / rounds,
        );
        layers.insert("rsm.divergent_round_share", t.divergent as f64 / rounds);
        layers.insert("rsm.catch_up_rounds_max", t.catch_up_max as f64);
        layers.insert("rsm.apply_gap_max_rounds", t.apply_gap_max as f64);
        layers.insert("layer.core_self_ms", ms(core));
        layers.insert("layer.rsm_self_ms", ms(rsm));
        let bench = t.bench + t.scan;
        layers.insert("layer.bench_self_ms", ms(bench));
        layers.insert(
            "layer.sum_over_wall",
            (ms(core) + ms(rsm) + ms(bench)) / (wall_ns * 1e-6),
        );
        layers.insert("trace.pass_wall_ms", wall_ns * 1e-6);
        layers.insert(
            "trace.timed_region_ms",
            ms(t.log_built + t.executor_built + t.step + t.scan),
        );
        layers.insert("trace.timer_calls", t.timer_calls as f64);
        Ok((layers, cells))
    }
}

/// Tick totals of the traced pass. `log_built`, `executor_built`, `step`,
/// `scan`, `oracle` and `bench` are chained top-level spans; `adversary`,
/// `outer_*` and `inner` are enclosed by them.
#[derive(Default)]
struct TraceTotals {
    log_built: u64,
    executor_built: u64,
    step: u64,
    scan: u64,
    oracle: u64,
    bench: u64,
    adversary: u64,
    /// `Timed<MultiSlot>` during construction (`init`) and during rounds.
    outer_init: u64,
    outer_run: u64,
    /// `Timed<inner consensus>`, construction and rounds.
    inner: u64,
    timer_calls: u64,
    rounds: u64,
    divergent: u64,
    /// Divergent rounds of the cell traced last (all its groups: the worst).
    cell_divergent: u64,
    catch_up_max: u64,
    apply_gap_max: u64,
}

/// One cell of the traced pass; returns each group's end state.
fn trace_cell<A: HoAlgorithm<Value = u64>>(
    cell: &Cell,
    rounds: u64,
    make: impl Fn(usize) -> A,
    lap: &mut Lap,
    t: &mut TraceTotals,
) -> Result<Vec<GroupEnd>, String> {
    let spec = &cell.spec;
    let max_batch = rsm_config(spec.depth).max_batch as u64;
    t.cell_divergent = 0;
    let mut groups = Vec::with_capacity(spec.shards);
    for s in 0..spec.shards {
        t.bench += lap.lap();
        let mut cfg = rsm_config(spec.depth);
        if spec.shards > 1 {
            cfg.shard = ShardSpec::new(s, spec.shards);
        }
        let log = MultiSlot::new(
            Timed::new(make(spec.n)),
            spec.workload,
            cfg,
            cell.groups[s].0,
        );
        let initial = log.initial_checker_values();
        t.log_built += lap.lap();
        let mut adversary = Timed::new(cell.adversary(s));
        let mut exec = RoundExecutor::with_trace_mode(Timed::new(log), initial, TraceMode::Off);
        t.executor_built += lap.lap();
        let outer_init = exec.algorithm().ticks();
        t.executor_built -= outer_init;
        t.outer_init += outer_init;

        // What `LogDriver::run` tracks per round, plus the two episode
        // lengths it does not: the longest divergence (catch-up) and the
        // longest stretch without an apply anywhere (no service).
        let mut divergent = 0;
        let mut episode = 0;
        let mut longest_log = 0;
        let mut gap = 0;
        for _ in 0..rounds {
            exec.step(&mut adversary)
                .map_err(|e| format!("cell {}: {e}", spec.name()))?;
            t.step += lap.lap();
            let mut min = usize::MAX;
            let mut max = 0;
            for state in exec.states() {
                let len = state.applied().len();
                min = min.min(len);
                max = max.max(len);
            }
            if min != max {
                divergent += 1;
                episode += 1;
                t.catch_up_max = t.catch_up_max.max(episode);
            } else {
                episode = 0;
            }
            if max > longest_log {
                longest_log = max;
                gap = 0;
            } else {
                gap += 1;
                t.apply_gap_max = t.apply_gap_max.max(gap);
            }
            t.scan += lap.lap();
        }

        let logs: Vec<&[u64]> = exec.states().iter().map(RsmState::applied).collect();
        let check = check_logs(&logs, spec.n, max_batch);
        t.oracle += lap.lap();
        if let Some(v) = check.violation {
            return Err(format!("cell {} (traced): {v}", spec.name()));
        }
        let outer = exec.algorithm();
        t.rounds += rounds;
        t.divergent += divergent;
        t.cell_divergent = t.cell_divergent.max(divergent);
        t.adversary += adversary.ticks();
        t.outer_run += outer.ticks() - outer_init;
        t.inner += outer.inner().inner().ticks();
        t.timer_calls += adversary.calls() + outer.calls() + outer.inner().inner().calls();
        groups.push(group_end(exec.states(), Vec::new()));
    }
    Ok(groups)
}
