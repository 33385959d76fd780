//! `model_grid`: the model-layer consensus grid through the `Sweep` facade.
//!
//! {OneThirdRule, LastVoting} × seven adversaries × n ∈ {4, 7, 10}, plus
//! UniformVoting in its safety environment (full delivery, kernel-only),
//! `max_rounds(120)`, one thread. An op is a scenario; the simulated
//! latency of a scenario is the round by which every process had decided.
//! `ho-sim`, Algorithms 2/3 and `ho-rsm` do no work here.

use std::time::Instant;

use ho_core::algorithms::{LastVoting, OneThirdRule, UniformVoting};
use ho_core::executor::{RoundExecutor, RoundScratch};
use ho_core::telemetry::now_ticks;
use ho_core::trace::TraceMode;
use ho_core::HoAlgorithm;
use ho_harness::{AdversarySpec, AlgorithmSpec, Scenario, Sweep};

use crate::protocol::{CellDigest, Layers, Observation, Pass, Scale, Workload};
use crate::stats::Fingerprint;
use crate::timed::Timed;
use crate::workloads::cell_seed;
use crate::workloads::simcell::{harness_layers, Lap};

/// Round budget per scenario.
pub const MAX_ROUNDS: u64 = 120;
/// Seeds per (algorithm × adversary × n) cell at full size.
pub const SEEDS_PER_CELL: u64 = 600;
const SIZES: [usize; 3] = [4, 7, 10];

fn zoo() -> [AdversarySpec; 7] {
    [
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
    ]
}

/// Environments in which the algorithms' liveness predicate eventually
/// holds: an undecided scenario there is a failed op.
fn must_decide(adversary: &AdversarySpec) -> bool {
    matches!(
        adversary,
        AdversarySpec::FullDelivery
            | AdversarySpec::CrashRecovery
            | AdversarySpec::EventuallyGood { .. }
    )
}

/// One `Sweep` of the grid with the axis values it was built from.
struct Grid {
    algorithms: Vec<AlgorithmSpec>,
    adversaries: Vec<AdversarySpec>,
    sweep: Sweep,
}

impl Grid {
    fn new(algorithms: Vec<AlgorithmSpec>, adversaries: Vec<AdversarySpec>, seeds: &[u64]) -> Self {
        let sweep = Sweep::new()
            .algorithms(algorithms.iter().copied())
            .adversaries(adversaries.iter().copied())
            .sizes(SIZES)
            .seeds(seeds.iter().copied())
            .max_rounds(MAX_ROUNDS)
            .threads(1);
        Grid {
            algorithms,
            adversaries,
            sweep,
        }
    }

    /// `(cell name, adversary)` in the facade's grid order (algorithm,
    /// adversary, size); each cell spans `seeds` consecutive verdicts.
    fn cells(&self) -> Vec<(String, AdversarySpec)> {
        let mut out = Vec::new();
        for algorithm in &self.algorithms {
            for adversary in &self.adversaries {
                for n in SIZES {
                    out.push((
                        format!("{}/{}/n{n}", algorithm.name(), adversary.name()),
                        *adversary,
                    ));
                }
            }
        }
        out
    }
}

/// What the workload keeps of one scenario's verdict.
#[derive(Clone, Copy)]
struct Outcome {
    decided_round: Option<u64>,
    rounds_run: u64,
    violated: bool,
    wall_nanos: u64,
}

pub struct ModelGrid {
    grids: [Grid; 2],
    seeds: usize,
}

impl ModelGrid {
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        let seeds: Vec<u64> = (0..scale.down(SEEDS_PER_CELL, 10))
            .map(|i| cell_seed(seed, i))
            .collect();
        ModelGrid {
            grids: [
                Grid::new(
                    vec![AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting],
                    zoo().to_vec(),
                    &seeds,
                ),
                Grid::new(
                    vec![AlgorithmSpec::UniformVoting],
                    vec![
                        AdversarySpec::FullDelivery,
                        AdversarySpec::KernelOnly { loss: 0.8 },
                    ],
                    &seeds,
                ),
            ],
            seeds: seeds.len(),
        }
    }

    /// Runs both sweeps; the timed region is exactly the two `run()` calls.
    fn run_facade(&self) -> (u64, Vec<Vec<Outcome>>) {
        let start = Instant::now();
        let reports: Vec<_> = self.grids.iter().map(|g| g.sweep.run()).collect();
        let timed_ns = start.elapsed().as_nanos() as u64;
        let outcomes = reports
            .iter()
            .map(|report| {
                assert_eq!(report.scenarios, report.verdicts.len());
                report
                    .verdicts
                    .iter()
                    .map(|v| Outcome {
                        decided_round: v.decided_round,
                        rounds_run: v.rounds_run,
                        violated: v.violation.is_some(),
                        wall_nanos: v.wall_nanos,
                    })
                    .collect()
            })
            .collect();
        (timed_ns, outcomes)
    }

    /// Folds per-scenario outcomes into per-cell digests and runs the
    /// oracle: no safety violation anywhere.
    fn digest(&self, outcomes: &[Vec<Outcome>]) -> Result<Vec<CellDigest>, String> {
        let mut cells = Vec::new();
        for (grid, outcomes) in self.grids.iter().zip(outcomes) {
            for ((name, _), chunk) in grid.cells().into_iter().zip(outcomes.chunks(self.seeds)) {
                if let Some(i) = chunk.iter().position(|o| o.violated) {
                    return Err(format!("cell {name}: safety violation at seed index {i}"));
                }
                cells.push(cell_digest(name, chunk));
            }
        }
        Ok(cells)
    }
}

fn cell_digest(name: String, chunk: &[Outcome]) -> CellDigest {
    let mut fp = Fingerprint::default();
    for o in chunk {
        fp.word(o.decided_round.unwrap_or(0));
        fp.word(o.rounds_run);
    }
    CellDigest {
        name,
        fingerprint: fp.0,
        work: chunk.iter().map(|o| o.rounds_run).sum(),
        ops: chunk.len() as u64,
    }
}

impl Workload for ModelGrid {
    fn pass(&mut self) -> Result<Pass, String> {
        let (timed_ns, outcomes) = self.run_facade();
        Ok(Pass {
            timed_ns,
            cells: self.digest(&outcomes)?,
        })
    }

    fn observe(&mut self) -> Result<(Pass, Observation), String> {
        let (timed_ns, outcomes) = self.run_facade();
        let cells = self.digest(&outcomes)?;
        let mut obs = Observation {
            clock: "rounds",
            ..Observation::default()
        };
        let mut undecided = 0u64;
        for (grid, outcomes) in self.grids.iter().zip(&outcomes) {
            for ((_, adversary), chunk) in grid.cells().iter().zip(outcomes.chunks(self.seeds)) {
                for o in chunk {
                    obs.attempted += 1;
                    match o.decided_round {
                        Some(r) => obs.latencies.push(r as f64),
                        None => {
                            undecided += 1;
                            if must_decide(adversary) {
                                obs.failed += 1;
                            }
                        }
                    }
                }
            }
        }
        obs.notes.push(format!(
            "latency sample = round by which all processes decided; {undecided} of {} scenarios ran out of their {MAX_ROUNDS} rounds undecided under lossy, partitioned or kernel-only delivery (allowed there, no sample)",
            obs.attempted
        ));
        Ok((Pass { timed_ns, cells }, obs))
    }

    fn trace(&mut self) -> Result<(Layers, Vec<CellDigest>), String> {
        let mut layers = Layers::new();

        // The facade once more, for the harness's own numbers.
        let (facade_ns, outcomes) = self.run_facade();
        let scenario_ns = outcomes
            .iter()
            .flatten()
            .map(|o| o.wall_nanos as f64)
            .collect();
        harness_layers(&mut layers, facade_ns, scenario_ns);

        // The probe: the same scenarios driven directly on ho-core with
        // the wrappers in place.
        let wall = Instant::now();
        let ticks_start = now_ticks();
        let mut probe = Probe::new();
        let mut cells = Vec::new();
        for (grid, facade) in self.grids.iter().zip(&outcomes) {
            let scenarios = grid.sweep.scenarios();
            let mut probed = Vec::with_capacity(scenarios.len());
            for (s, f) in scenarios.iter().zip(facade) {
                let o = probe.run(s);
                if (o.decided_round, o.rounds_run) != (f.decided_round, f.rounds_run) {
                    return Err(format!(
                        "probe of {} ran {} rounds (decided {:?}), the facade {} (decided {:?})",
                        s.id(),
                        o.rounds_run,
                        o.decided_round,
                        f.rounds_run,
                        f.decided_round
                    ));
                }
                probed.push(o);
            }
            for ((name, _), chunk) in grid.cells().into_iter().zip(probed.chunks(self.seeds)) {
                cells.push(cell_digest(name, chunk));
            }
        }
        let ticks = now_ticks() - ticks_start;
        let wall_ns = wall.elapsed().as_nanos() as f64;

        let ns = wall_ns / ticks as f64;
        let rounds = probe.rounds as f64;
        let core_ticks = probe.construct_ticks + probe.run_ticks;
        layers.insert("core.rounds", rounds);
        layers.insert("core.step_ns", probe.run_ticks as f64 * ns / rounds);
        layers.insert(
            "core.adversary_ns",
            probe.adversary_ticks as f64 * ns / rounds,
        );
        layers.insert(
            "core.algorithm_ns",
            probe.algorithm_ticks as f64 * ns / rounds,
        );
        layers.insert(
            "core.executor_self_ns",
            (core_ticks - probe.adversary_ticks - probe.algorithm_ticks) as f64 * ns / rounds,
        );
        layers.insert("core.delivered_per_round", probe.delivered as f64 / rounds);
        layers.insert(
            "core.fresh_payload_allocs_per_round",
            probe.fresh_allocs as f64 / rounds,
        );
        let core_ms = core_ticks as f64 * ns * 1e-6;
        let bench_ms = probe.bench_ticks as f64 * ns * 1e-6;
        layers.insert("layer.core_self_ms", core_ms);
        layers.insert("layer.bench_self_ms", bench_ms);
        layers.insert(
            "layer.sum_over_wall",
            (core_ms + bench_ms) / (wall_ns * 1e-6),
        );
        layers.insert("trace.pass_wall_ms", wall_ns * 1e-6);
        layers.insert("trace.timed_region_ms", core_ms);
        layers.insert("trace.timer_calls", probe.timer_calls as f64);
        Ok((layers, cells))
    }
}

/// Tick totals of the probe pass. Spans are chained — every tick between
/// the first and the last clock read belongs to exactly one of
/// `construct`, `run` or `bench`.
struct Probe {
    scratch: RoundScratch,
    lap: Lap,
    construct_ticks: u64,
    run_ticks: u64,
    bench_ticks: u64,
    adversary_ticks: u64,
    algorithm_ticks: u64,
    timer_calls: u64,
    rounds: u64,
    delivered: u64,
    fresh_allocs: u64,
}

impl Probe {
    fn new() -> Self {
        Probe {
            scratch: RoundScratch::default(),
            lap: Lap::start(),
            construct_ticks: 0,
            run_ticks: 0,
            bench_ticks: 0,
            adversary_ticks: 0,
            algorithm_ticks: 0,
            timer_calls: 0,
            rounds: 0,
            delivered: 0,
            fresh_allocs: 0,
        }
    }

    fn run(&mut self, s: &Scenario) -> Outcome {
        match s.algorithm {
            AlgorithmSpec::OneThirdRule => self.run_with(OneThirdRule::new(s.n), s),
            AlgorithmSpec::UniformVoting => self.run_with(UniformVoting::new(s.n), s),
            AlgorithmSpec::LastVoting => self.run_with(LastVoting::new(s.n), s),
        }
    }

    fn run_with<A: HoAlgorithm<Value = u64>>(&mut self, alg: A, s: &Scenario) -> Outcome {
        // Whatever lay between two scenarios (comparisons, digests) is the
        // benchmark's own time.
        self.bench_ticks += self.lap.lap();
        let mut adversary = Timed::new(s.adversary.build(s.n, s.seed));
        let mut exec = RoundExecutor::with_scratch(
            Timed::new(alg),
            s.initial_values(),
            TraceMode::Off,
            std::mem::take(&mut self.scratch),
        );
        self.construct_ticks += self.lap.lap();
        let result = exec.run_until_all_decided(&mut adversary, s.max_rounds);
        self.run_ticks += self.lap.lap();
        let outcome = Outcome {
            decided_round: result.as_ref().ok().map(|r| r.get()),
            rounds_run: exec.current_round().get(),
            violated: matches!(result, Err(ho_core::RunError::Violation(_))),
            wall_nanos: 0,
        };
        let messages = exec.message_stats();
        self.rounds += outcome.rounds_run;
        self.delivered += messages.delivered;
        self.fresh_allocs += messages.fresh_allocs();
        self.adversary_ticks += adversary.ticks();
        self.algorithm_ticks += exec.algorithm().ticks();
        self.timer_calls += adversary.calls() + exec.algorithm().calls();
        self.scratch = exec.into_scratch();
        self.bench_ticks += self.lap.lap();
        outcome
    }
}
