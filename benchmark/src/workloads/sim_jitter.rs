//! `sim_jitter`: the simulator driven directly, with jittered step and
//! delay timing.
//!
//! `Alg2Program<OneThirdRule>` (π0 = Π, π0-down) and
//! `Alg3Program<Translated<OneThirdRule>>` (f = 1, π0-arbitrary) for
//! n ∈ {7, 10, 16}, a lossy bad period (40 tu, loss 0.5) then good, run to
//! a fixed horizon. An op is a scenario; its simulated latency is the time
//! from the start of the good period until every π0 process has decided.
//! Jittered delays scatter each broadcast into up to n distinct engine
//! events — the regime the README says favours a heap over the calendar
//! wheel — where `sim_grid`'s worst-case timing coalesces them into one.

use std::time::Instant;

use ho_core::algorithms::OneThirdRule;
use ho_core::process::{ProcessId, ProcessSet};
use ho_core::telemetry::now_ticks;
use ho_core::translation::Translated;
use ho_core::HoAlgorithm;
use ho_predicates::bounds::BoundParams;
use ho_predicates::{Alg2Program, Alg3Program};
use ho_sim::{
    BadPeriodConfig, DelayTiming, GoodKind, Schedule, SimConfig, SimScratch, Simulator, StepTiming,
    TimePoint,
};

use crate::protocol::{CellDigest, Layers, Observation, Pass, Scale, Workload};
use crate::stats::Fingerprint;
use crate::timed::Timed;
use crate::workloads::cell_seed;
use crate::workloads::sim_grid::{DELTA, PHI};
use crate::workloads::simcell::{core_upper, Lap, PredProgram, SimAccount};

/// Seeds per cell at full size. Within a cell shape the decision time is
/// set by round timeouts and barely varies with the seed, so the pooled
/// latencies form one tight cluster per shape; the unequal counts put the
/// pooled median and p99 inside a cluster (Algorithm 2 at n = 16, and
/// Algorithm 3 at n = 16) instead of on the gap between two, where a
/// single scenario would move them by a cluster's distance.
pub const ALG2_SEEDS: u64 = 260;
pub const ALG3_SEEDS: u64 = 110;
/// Length and loss of the bad period.
pub const BAD_LEN: f64 = 40.0;
pub const BAD_LOSS: f64 = 0.5;
/// Every scenario runs to `BAD_LEN + HORIZON_FACTOR × bound`: all of π0
/// must have decided by then, where `bound` is the paper's good-period
/// bound for consensus on this stack (Corollary 4 for Algorithm 2 with
/// OneThirdRule, §4.2.2(c) for Algorithm 3 + translation).
pub const HORIZON_FACTOR: f64 = 1.5;
const SIZES: [usize; 3] = [7, 10, 16];
const F: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Stack {
    Alg2,
    Alg3,
}

#[derive(Clone, Copy, Debug)]
struct Shape {
    stack: Stack,
    n: usize,
}

impl Shape {
    fn name(&self) -> String {
        match self.stack {
            Stack::Alg2 => format!("alg2_otr/lossy_then_good/jittered/n{}", self.n),
            Stack::Alg3 => format!(
                "alg3_f{F}_translated_otr/lossy_then_good/jittered/n{}",
                self.n
            ),
        }
    }

    fn params(&self) -> BoundParams {
        BoundParams::new(self.n, PHI, DELTA)
    }

    fn pi0(&self) -> ProcessSet {
        match self.stack {
            Stack::Alg2 => ProcessSet::full(self.n),
            Stack::Alg3 => ProcessSet::from_indices(0..self.n - F),
        }
    }

    fn bound(&self) -> f64 {
        match self.stack {
            Stack::Alg2 => self.params().corollary4_p2otr(),
            Stack::Alg3 => self.params().full_stack(F),
        }
    }

    fn horizon(&self) -> TimePoint {
        TimePoint::new(BAD_LEN + HORIZON_FACTOR * self.bound())
    }

    fn config(&self, seed: u64) -> SimConfig {
        SimConfig::normalized(self.n, PHI, DELTA)
            .with_seed(seed)
            .with_step_timing(StepTiming::Jittered)
            .with_delay_timing(DelayTiming::Jittered)
    }

    fn schedule(&self) -> Schedule {
        Schedule::bad_then_good(
            BadPeriodConfig::lossy(BAD_LOSS),
            TimePoint::new(BAD_LEN),
            self.pi0(),
            match self.stack {
                Stack::Alg2 => GoodKind::PiDown,
                Stack::Alg3 => GoodKind::PiArbitrary,
            },
        )
    }
}

fn shapes() -> Vec<Shape> {
    let mut out = Vec::new();
    for stack in [Stack::Alg2, Stack::Alg3] {
        for n in SIZES {
            out.push(Shape { stack, n });
        }
    }
    out
}

/// What one scenario produced.
#[derive(Clone, Debug)]
struct Outcome {
    /// When the last π0 process decided (observed passes only).
    decided_at: Option<f64>,
    decisions: Vec<Option<u64>>,
    events: u64,
    send_steps: u64,
    /// Host time of the timed region: construction + run.
    timed_ns: u64,
}

/// Builds, runs to the horizon and retires one scenario. With `observe`
/// the run first stops at the event that completes π0's decisions (a stop
/// closure polled after every event) and then continues — the final state
/// is the same either way. `inspect` sees the simulator before it retires.
/// Returns the outcome and the ticks of the five chained spans: programs
/// built, simulator built, run, inspected, retired.
fn run_scenario<P>(
    lap: &mut Lap,
    shape: &Shape,
    seed: u64,
    scratch: &mut SimScratch<P>,
    make: impl Fn(usize) -> P,
    observe: bool,
    inspect: impl FnOnce(&Simulator<P>),
) -> (Outcome, [u64; 5])
where
    P: PredProgram,
    P::Upper: HoAlgorithm<Value = u64>,
{
    // Whatever preceded the scenario is the caller's to account for.
    lap.lap();
    let start = Instant::now();
    let programs: Vec<P> = (0..shape.n).map(&make).collect();
    let programs_built = lap.lap();
    let mut sim = Simulator::with_scratch(shape.config(seed), shape.schedule(), programs, scratch);
    let sim_built = lap.lap();
    let pi0 = shape.pi0();
    let mut decided_at = None;
    if observe
        && sim.run_until(shape.horizon(), |s| {
            pi0.iter().all(|p| s.program(p).decision().is_some())
        })
    {
        decided_at = Some(sim.now().get());
    }
    sim.run_for(shape.horizon());
    let run = lap.lap();
    let outcome = Outcome {
        timed_ns: start.elapsed().as_nanos() as u64,
        decided_at,
        decisions: sim.programs().iter().map(PredProgram::decision).collect(),
        events: sim.stats().events_dispatched,
        send_steps: sim.stats().send_steps,
    };
    inspect(&sim);
    let inspected = lap.lap();
    sim.retire(scratch);
    let retired = lap.lap();
    (
        outcome,
        [programs_built, sim_built, run, inspected, retired],
    )
}

fn alg2<A: HoAlgorithm<Value = u64>>(shape: &Shape, alg: A, p: usize) -> Alg2Program<A> {
    Alg2Program::new(
        alg,
        ProcessId::new(p),
        p as u64,
        shape.params().alg2_timeout(),
    )
    .with_record_window(1)
}

fn alg3<A: HoAlgorithm<Value = u64>>(shape: &Shape, alg: A, p: usize) -> Alg3Program<A> {
    Alg3Program::new(
        alg,
        ProcessId::new(p),
        p as u64,
        F,
        shape.params().alg3_timeout(),
    )
    .with_record_window(1)
}

/// The oracle of one scenario: every π0 process decided, on one value,
/// which some process proposed.
fn check(shape: &Shape, seed: u64, outcome: &Outcome) -> Result<(), String> {
    let mut agreed = None;
    for p in shape.pi0().iter() {
        let Some(v) = outcome.decisions[p.index()] else {
            return Err(format!(
                "cell {} seed {seed}: {p} undecided at the horizon ({} bounds into the good period)",
                shape.name(),
                HORIZON_FACTOR
            ));
        };
        if *agreed.get_or_insert(v) != v || v >= shape.n as u64 {
            return Err(format!(
                "cell {} seed {seed}: decisions {:?} break agreement or validity",
                shape.name(),
                outcome.decisions
            ));
        }
    }
    Ok(())
}

fn cell_digest(name: String, outcomes: &[Outcome]) -> CellDigest {
    let mut fp = Fingerprint::default();
    for o in outcomes {
        for d in &o.decisions {
            fp.word(d.map_or(u64::MAX, |v| v));
        }
        fp.word(o.events);
        fp.word(o.send_steps);
    }
    CellDigest {
        name,
        fingerprint: fp.0,
        work: outcomes.iter().map(|o| o.events).sum(),
        ops: outcomes.len() as u64,
    }
}

pub struct SimJitter {
    /// Cell seeds; Algorithm 3 cells use the first `alg3_seeds` of them.
    seeds: Vec<u64>,
    alg3_seeds: usize,
}

impl SimJitter {
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        SimJitter {
            seeds: (0..scale.down(ALG2_SEEDS, 4))
                .map(|i| cell_seed(seed, i))
                .collect(),
            alg3_seeds: scale.down(ALG3_SEEDS, 2) as usize,
        }
    }

    fn seeds_of(&self, shape: &Shape) -> &[u64] {
        match shape.stack {
            Stack::Alg2 => &self.seeds,
            Stack::Alg3 => &self.seeds[..self.alg3_seeds],
        }
    }

    /// One untraced pass; `observe` adds the decision-time polling.
    fn run_all(&self, observe: bool) -> Result<(Pass, Vec<Vec<Outcome>>), String> {
        let mut lap = Lap::start();
        let mut alg2_scratch = SimScratch::new();
        let mut alg3_scratch = SimScratch::new();
        let mut timed_ns = 0;
        let mut cells = Vec::new();
        let mut all = Vec::new();
        for shape in shapes() {
            let mut outcomes = Vec::new();
            for &seed in self.seeds_of(&shape) {
                let (outcome, _) = match shape.stack {
                    Stack::Alg2 => run_scenario(
                        &mut lap,
                        &shape,
                        seed,
                        &mut alg2_scratch,
                        |p| alg2(&shape, OneThirdRule::new(shape.n), p),
                        observe,
                        |_| (),
                    ),
                    Stack::Alg3 => run_scenario(
                        &mut lap,
                        &shape,
                        seed,
                        &mut alg3_scratch,
                        |p| alg3(&shape, Translated::new(OneThirdRule::new(shape.n), F), p),
                        observe,
                        |_| (),
                    ),
                };
                timed_ns += outcome.timed_ns;
                check(&shape, seed, &outcome)?;
                outcomes.push(outcome);
            }
            cells.push(cell_digest(shape.name(), &outcomes));
            all.push(outcomes);
        }
        Ok((Pass { timed_ns, cells }, all))
    }
}

impl Workload for SimJitter {
    fn pass(&mut self) -> Result<Pass, String> {
        self.run_all(false).map(|(pass, _)| pass)
    }

    fn observe(&mut self) -> Result<(Pass, Observation), String> {
        let (pass, all) = self.run_all(true)?;
        let mut obs = Observation {
            clock: "tu",
            ..Observation::default()
        };
        for outcome in all.iter().flatten() {
            obs.attempted += 1;
            match outcome.decided_at {
                // Deciding inside the bad period is possible (loss is 0.5,
                // not 1) and counts from the period's start like the rest.
                Some(t) => obs.latencies.push((t - BAD_LEN).max(0.0)),
                None => obs.failed += 1,
            }
        }
        obs.notes.push(format!(
            "latency sample = time units from the start of the good period (t = {BAD_LEN}) until every π0 process has decided"
        ));
        Ok((pass, obs))
    }

    fn trace(&mut self) -> Result<(Layers, Vec<CellDigest>), String> {
        let wall = Instant::now();
        let ticks_start = now_ticks();
        let mut lap = Lap::start();
        let mut account = SimAccount::default();
        let mut alg2_scratch = SimScratch::new();
        let mut alg3_scratch = SimScratch::new();
        let mut cells = Vec::new();
        for shape in shapes() {
            let mut outcomes = Vec::new();
            for &seed in self.seeds_of(&shape) {
                account.bench += lap.lap();
                let (outcome, spans) = match shape.stack {
                    Stack::Alg2 => run_scenario(
                        &mut lap,
                        &shape,
                        seed,
                        &mut alg2_scratch,
                        |p| Timed::new(alg2(&shape, Timed::new(OneThirdRule::new(shape.n)), p)),
                        false,
                        |sim| absorb(&mut account, sim),
                    ),
                    Stack::Alg3 => run_scenario(
                        &mut lap,
                        &shape,
                        seed,
                        &mut alg3_scratch,
                        |p| {
                            let upper = Translated::new(OneThirdRule::new(shape.n), F);
                            Timed::new(alg3(&shape, Timed::new(upper), p))
                        },
                        false,
                        |sim| absorb(&mut account, sim),
                    ),
                };
                account.programs_built += spans[0];
                account.sim_built += spans[1];
                account.run += spans[2];
                account.bench += spans[3];
                account.retired += spans[4];
                check(&shape, seed, &outcome)?;
                outcomes.push(outcome);
            }
            cells.push(cell_digest(shape.name(), &outcomes));
        }
        account.bench += lap.lap();
        let ticks = now_ticks() - ticks_start;
        let wall_ns = wall.elapsed().as_nanos() as f64;
        account.ops = cells.iter().map(|c| c.ops).sum();
        let mut layers = Layers::new();
        account.write(&mut layers, wall_ns / ticks as f64, wall_ns * 1e-6);
        Ok((layers, cells))
    }
}

/// Folds a finished traced scenario into the account.
fn absorb<P, U>(account: &mut SimAccount, sim: &Simulator<Timed<P>>)
where
    P: PredProgram<Upper = Timed<U>>,
    U: HoAlgorithm,
{
    account.absorb(sim.stats(), sim.programs(), |p| core_upper(p.upper()));
}
