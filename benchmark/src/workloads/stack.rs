//! `stack_e2e` and `stack_soak`: the full path, wired from public types.
//!
//! A client command enters a replica's `MultiSlot` queue, is batched into a
//! slot, decided by OneThirdRule rounds that Algorithm 2 (π0-down good
//! periods) or Algorithm 3 + the `P_k → P_su` translation (π0-arbitrary)
//! build out of timed send/receive steps, over `ho-sim`'s links with
//! real-valued delay — normalized units `Φ− = Φ+ = 1`, `Δ = 2`.
//!
//! An op is a command applied in the longest π0 log. Its simulated latency
//! is the time from admission at the origin replica to apply at the origin
//! replica, in time units, reconstructed in the warm-up pass (see
//! [`crate::simtime`]). Attempted and failed ops are defined as in
//! [`crate::workloads::rsm`], over π0 replicas, with a drain allowance of
//! [`DRAIN_TU`] time units.

use std::time::Instant;

use ho_core::algorithms::OneThirdRule;
use ho_core::process::{ProcessId, ProcessSet};
use ho_core::telemetry::now_ticks;
use ho_core::translation::Translated;
use ho_core::HoAlgorithm;
use ho_predicates::bounds::BoundParams;
use ho_predicates::{Alg2Program, Alg3Program};
use ho_rsm::{check_logs, count_commands, decode_slot_value, MultiSlot, RsmState, WorkloadSpec};
use ho_sim::{
    BadPeriodConfig, DelayTiming, GoodKind, Schedule, SimConfig, Simulator, StepTiming, TimePoint,
};

use crate::alloc;
use crate::protocol::{CellDigest, Layers, Observation, Pass, Scale, Workload};
use crate::simtime::{pair_samples, RoundClock};
use crate::stats::{self, Fingerprint};
use crate::timed::Timed;
use crate::workloads::cell_seed;
use crate::workloads::rsm::{early_commands_lost, rsm_config, CLOSED};
use crate::workloads::sim_grid::{DELTA, PHI};
use crate::workloads::simcell::{Lap, PredProgram, SimAccount, UpperTicks};

/// Simulated horizon of a `stack_e2e` cell and of the `stack_soak` cell at
/// full size, in time units.
pub const E2E_HORIZON: f64 = 20_000.0;
pub const SOAK_HORIZON: f64 = 160_000.0;
/// A command admitted at least this long before the horizon must be in the
/// longest π0 log at the horizon; fault schedules turn good for good twice
/// this long before the horizon.
pub const DRAIN_TU: f64 = 2000.0;
/// The alternating fault schedule: 40 tu bad, 400 tu good.
pub const BAD_LEN: f64 = 40.0;
pub const GOOD_LEN: f64 = 400.0;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Lower {
    /// Algorithm 2, π0 = Π, π0-down good periods.
    Alg2,
    /// Algorithm 3 + translation, π0 = the first n − f, π0-arbitrary.
    Alg3 { f: usize },
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Faults {
    AlwaysGood,
    /// Alternating bad/good periods, message loss in the bad ones.
    Lossy(f64),
    /// Alternating, the default chaotic bad period (loss, crashes, delay).
    Crashy,
}

#[derive(Clone, Copy, Debug)]
struct Shape {
    lower: Lower,
    n: usize,
    depth: usize,
    workload: WorkloadSpec,
    faults: Faults,
    jittered: bool,
    horizon: f64,
}

impl Shape {
    fn name(&self) -> String {
        let lower = match self.lower {
            Lower::Alg2 => "alg2".to_owned(),
            Lower::Alg3 { f } => format!("alg3_f{f}"),
        };
        let faults = match self.faults {
            Faults::AlwaysGood => "always_good".to_owned(),
            Faults::Lossy(p) => format!("alternating_lossy{}", (p * 100.0).round()),
            Faults::Crashy => "alternating_crashy".to_owned(),
        };
        format!(
            "{lower}/n{}/d{}/{}/{faults}/{}",
            self.n,
            self.depth,
            self.workload.name(),
            if self.jittered {
                "jittered"
            } else {
                "worst_case"
            }
        )
    }

    fn params(&self) -> BoundParams {
        BoundParams::new(self.n, PHI, DELTA)
    }

    fn pi0(&self) -> ProcessSet {
        match self.lower {
            Lower::Alg2 => ProcessSet::full(self.n),
            Lower::Alg3 { f } => ProcessSet::from_indices(0..self.n - f),
        }
    }

    fn config(&self, seed: u64) -> SimConfig {
        let cfg = SimConfig::normalized(self.n, PHI, DELTA).with_seed(seed);
        if self.jittered {
            cfg.with_step_timing(StepTiming::Jittered)
                .with_delay_timing(DelayTiming::Jittered)
        } else {
            cfg.with_step_timing(StepTiming::WorstCase)
                .with_delay_timing(DelayTiming::WorstCase)
        }
    }

    fn schedule(&self) -> Schedule {
        let kind = match self.lower {
            Lower::Alg2 => GoodKind::PiDown,
            Lower::Alg3 { .. } => GoodKind::PiArbitrary,
        };
        let bad = match self.faults {
            Faults::AlwaysGood => return Schedule::always_good(self.pi0(), kind),
            Faults::Lossy(p) => BadPeriodConfig::lossy(p),
            Faults::Crashy => BadPeriodConfig::default(),
        };
        // `alternating` ends with one more bad period after its cycles;
        // the last good period must start 2·DRAIN_TU before the horizon.
        let cycles = ((self.horizon - 2.0 * DRAIN_TU - BAD_LEN) / (BAD_LEN + GOOD_LEN)).floor();
        Schedule::alternating(
            bad,
            BAD_LEN,
            GOOD_LEN,
            cycles.max(0.0) as usize,
            self.pi0(),
            kind,
        )
    }

    fn log(&self, seed: u64) -> MultiSlot<OneThirdRule> {
        self.log_over(OneThirdRule::new(self.n), seed)
    }

    fn log_over<A: HoAlgorithm<Value = u64>>(&self, consensus: A, seed: u64) -> MultiSlot<A> {
        MultiSlot::new(consensus, self.workload, rsm_config(self.depth), seed)
    }
}

const OPEN_2: WorkloadSpec = WorkloadSpec::FixedRate { per_round: 2 };
/// n = 7 at depth 4 orders at most 16 commands per round; two per replica
/// per round would offer 14 of them and mostly measure the admission gate.
const OPEN_1: WorkloadSpec = WorkloadSpec::FixedRate { per_round: 1 };

/// The sixteen `stack_e2e` shapes. Two restrictions keep every accepted
/// command completing (the README's "known limitation"): depth 8 appears
/// only under always-good schedules, because bounded backfill cannot
/// outrun a depth-8 log once a replica has fallen a window behind (see
/// `rsm::recovery_cells`); and f = 2 appears only there too, because one
/// log round of Algorithm 3 + translation at n = 7, f = 2 takes ~100 tu,
/// too slow for a faulty run to drain within this horizon.
fn e2e_shapes(horizon: f64) -> Vec<Shape> {
    let shape = |lower, n, depth, workload, faults, jittered| Shape {
        lower,
        n,
        depth,
        workload,
        faults,
        jittered,
        horizon,
    };
    let a2 = Lower::Alg2;
    let a3 = |f| Lower::Alg3 { f };
    vec![
        shape(a2, 4, 4, CLOSED, Faults::AlwaysGood, false),
        shape(a2, 4, 8, OPEN_2, Faults::AlwaysGood, true),
        shape(a2, 7, 8, CLOSED, Faults::AlwaysGood, true),
        shape(a2, 7, 4, OPEN_1, Faults::AlwaysGood, false),
        shape(a2, 4, 4, OPEN_2, Faults::Lossy(0.5), true),
        shape(a2, 7, 4, CLOSED, Faults::Lossy(0.5), false),
        shape(a2, 4, 4, CLOSED, Faults::Crashy, true),
        shape(a2, 7, 4, OPEN_1, Faults::Crashy, false),
        shape(a3(1), 4, 4, CLOSED, Faults::AlwaysGood, false),
        shape(a3(1), 7, 8, OPEN_2, Faults::AlwaysGood, true),
        shape(a3(2), 7, 4, CLOSED, Faults::AlwaysGood, false),
        shape(a3(1), 4, 4, OPEN_2, Faults::Lossy(0.5), true),
        shape(a3(1), 7, 4, CLOSED, Faults::Lossy(0.5), false),
        shape(a3(1), 7, 4, OPEN_1, Faults::Lossy(0.5), true),
        shape(a3(1), 4, 4, CLOSED, Faults::Crashy, false),
        shape(a3(1), 7, 4, OPEN_1, Faults::Crashy, true),
    ]
}

/// The soak cell. Depth 4, not 8: its schedule has bad periods (see above).
fn soak_shape(horizon: f64) -> Shape {
    Shape {
        lower: Lower::Alg2,
        n: 5,
        depth: 4,
        workload: CLOSED,
        faults: Faults::Lossy(0.3),
        jittered: false,
        horizon,
    }
}

/// An upper algorithm with a `MultiSlot` log somewhere inside.
pub trait LogUpper: HoAlgorithm<Value = u64> {
    /// The consensus algorithm the log repeats.
    type Consensus: HoAlgorithm<Value = u64>;
    fn log_state<'a>(&self, state: &'a Self::State) -> &'a RsmState<Self::Consensus>;
    /// Rounds of this algorithm per round of the log.
    fn rounds_per_log_round(&self) -> u64;
}

impl<A: HoAlgorithm<Value = u64>> LogUpper for MultiSlot<A> {
    type Consensus = A;
    fn log_state<'a>(&self, state: &'a RsmState<A>) -> &'a RsmState<A> {
        state
    }
    fn rounds_per_log_round(&self) -> u64 {
        1
    }
}

impl<U: LogUpper> LogUpper for Translated<U> {
    type Consensus = U::Consensus;
    fn log_state<'a>(&self, state: &'a Self::State) -> &'a RsmState<U::Consensus> {
        self.inner().log_state(&state.inner)
    }
    fn rounds_per_log_round(&self) -> u64 {
        self.rounds_per_macro() * self.inner().rounds_per_log_round()
    }
}

impl<U: LogUpper> LogUpper for Timed<U> {
    type Consensus = U::Consensus;
    fn log_state<'a>(&self, state: &'a Self::State) -> &'a RsmState<U::Consensus> {
        self.inner().log_state(state)
    }
    fn rounds_per_log_round(&self) -> u64 {
        self.inner().rounds_per_log_round()
    }
}

fn log_state<P>(program: &P) -> &RsmState<<P::Upper as LogUpper>::Consensus>
where
    P: PredProgram,
    P::Upper: LogUpper,
{
    program.upper().log_state(program.upper_state())
}

/// Log rounds whose transition the program has executed.
fn log_rounds_done<P>(program: &P) -> u64
where
    P: PredProgram,
    P::Upper: LogUpper,
{
    (program.current_round() - 1) / program.upper().rounds_per_log_round()
}

/// What the warm-up pass learns by polling after every simulator event.
struct Observer {
    pi0: ProcessSet,
    clocks: Vec<RoundClock>,
    seen_latencies: Vec<usize>,
    /// `apply_time[p][slot]`: when replica `p` applied the slot.
    apply_time: Vec<Vec<f64>>,
    /// One per own applied command of a π0 replica.
    samples: Vec<Sample>,
    last_apply: Option<f64>,
    service_gap_max: f64,
}

struct Sample {
    origin: usize,
    slot: u64,
    admitted_at: f64,
    /// Admission → apply at the origin, from the round clock.
    to_origin: f64,
}

impl Observer {
    fn new(shape: &Shape) -> Self {
        Observer {
            pi0: shape.pi0(),
            clocks: vec![RoundClock::new(); shape.n],
            seen_latencies: vec![0; shape.n],
            apply_time: vec![Vec::new(); shape.n],
            samples: Vec::new(),
            last_apply: None,
            service_gap_max: 0.0,
        }
    }

    fn poll<P>(&mut self, sim: &Simulator<P>) -> Result<(), String>
    where
        P: PredProgram,
        P::Upper: LogUpper,
    {
        let now = sim.now().get();
        for (p, program) in sim.programs().iter().enumerate() {
            let Some(first_new) = self.clocks[p].advance(log_rounds_done(program), now) else {
                continue;
            };
            let state = log_state(program);
            let applied = state.applied();
            let was = self.apply_time[p].len();
            let in_pi0 = self.pi0.contains(ProcessId::new(p));
            if applied.len() > was && in_pi0 {
                if let Some(last) = self.last_apply {
                    self.service_gap_max = self.service_gap_max.max(now - last);
                }
                self.last_apply = Some(now);
            }
            let own_batches: Vec<(u64, u64)> = (was..applied.len())
                .filter_map(|slot| {
                    let batch = decode_slot_value(slot as u64, applied[slot]);
                    (batch.proposer == p && batch.count > 0).then_some((slot as u64, batch.count))
                })
                .collect();
            self.apply_time[p].resize(applied.len(), now);
            let latencies = &state.stats().latencies;
            let new = &latencies[self.seen_latencies[p]..];
            self.seen_latencies[p] = latencies.len();
            let pairs = pair_samples(&own_batches, new).ok_or_else(|| {
                format!(
                    "replica {p} logged {} latency samples for own batches {own_batches:?} at t = {now}",
                    new.len()
                )
            })?;
            if in_pi0 {
                for (slot, rounds) in pairs {
                    self.samples.push(Sample {
                        origin: p,
                        slot,
                        admitted_at: self.clocks[p].time_of(first_new - rounds),
                        to_origin: self.clocks[p].latency_tu(first_new, rounds),
                    });
                }
            }
        }
        Ok(())
    }

    /// Origin → everywhere segments for every sample whose slot all of π0
    /// applied, after checking that the two segments add up to the
    /// admitted → applied-everywhere latency measured from the slot-apply
    /// times alone.
    fn to_everywhere(&self, cell: &str) -> Result<Vec<f64>, String> {
        let everywhere = self
            .pi0
            .iter()
            .map(|q| self.apply_time[q.index()].len())
            .min()
            .unwrap_or(0) as u64;
        let mut out = Vec::new();
        for s in self.samples.iter().filter(|s| s.slot < everywhere) {
            let all = self
                .pi0
                .iter()
                .map(|q| self.apply_time[q.index()][s.slot as usize])
                .fold(f64::MIN, f64::max);
            let from_origin = all - self.apply_time[s.origin][s.slot as usize];
            let whole = all - s.admitted_at;
            if (s.to_origin + from_origin - whole).abs() > 1e-6 {
                return Err(format!(
                    "cell {cell}: slot {} of replica {}: {} + {from_origin} tu do not add up to {whole} tu",
                    s.slot, s.origin, s.to_origin
                ));
            }
            out.push(from_origin);
        }
        Ok(out)
    }
}

/// How a cell's simulated time is cut into `run` calls.
enum Drive<'a> {
    /// Two `run_for`s: to the drain point, then to the horizon.
    Plain,
    /// The same two stretches with the observer polled after every event.
    Observed(&'a mut Observer),
    /// Ten equal `run_for` slices, each with its host time.
    Sliced(&'a mut [u64; 10]),
}

/// What a finished cell looked like.
struct CellEnd {
    logs: Vec<Vec<u64>>,
    /// Commands each replica had admitted `DRAIN_TU` before the horizon
    /// (empty for a sliced run).
    admitted_early: Vec<u64>,
    shed: u64,
    generated: u64,
    events: u64,
    /// Heap bytes allocated when the run ended, the simulator still alive.
    heap_live: u64,
    /// Host time of the timed region: construction + run.
    timed_ns: u64,
}

/// Builds and runs one cell. Returns its end state and the ticks of the
/// chained spans: programs built, simulator built, run, inspected.
fn run_cell<P>(
    lap: &mut Lap,
    shape: &Shape,
    seed: u64,
    make: impl Fn(usize) -> P,
    drive: Drive<'_>,
    inspect: impl FnOnce(&Simulator<P>),
) -> Result<(CellEnd, [u64; 4]), String>
where
    P: PredProgram,
    P::Upper: LogUpper,
{
    lap.lap();
    let start = Instant::now();
    let programs: Vec<P> = (0..shape.n).map(&make).collect();
    let programs_built = lap.lap();
    let mut sim = Simulator::new(shape.config(seed), shape.schedule(), programs);
    let sim_built = lap.lap();
    let horizon = TimePoint::new(shape.horizon);
    let drain_point = TimePoint::new(shape.horizon - DRAIN_TU);
    let admitted = |sim: &Simulator<P>| -> Vec<u64> {
        sim.programs()
            .iter()
            .map(|p| log_state(p).workload().generated())
            .collect()
    };
    let mut admitted_early = Vec::new();
    match drive {
        Drive::Plain => {
            sim.run_for(drain_point);
            admitted_early = admitted(&sim);
            sim.run_for(horizon);
        }
        Drive::Observed(observer) => {
            let mut failure = None;
            let mut poll = |s: &Simulator<P>| {
                if failure.is_none() {
                    failure = observer.poll(s).err();
                }
                failure.is_some()
            };
            sim.run_until(drain_point, &mut poll);
            admitted_early = admitted(&sim);
            sim.run_until(horizon, &mut poll);
            if let Some(e) = failure {
                return Err(format!("cell {}: {e}", shape.name()));
            }
        }
        Drive::Sliced(slices) => {
            let mut inner = Lap::start();
            for (k, slice) in slices.iter_mut().enumerate() {
                sim.run_for(TimePoint::new(shape.horizon * (k + 1) as f64 / 10.0));
                *slice += inner.lap();
            }
        }
    }
    let run = lap.lap();
    let timed_ns = start.elapsed().as_nanos() as u64;
    let heap_live = alloc::live_bytes();
    let states: Vec<_> = sim.programs().iter().map(|p| log_state(p)).collect();
    let open_loop = matches!(shape.workload, WorkloadSpec::FixedRate { .. });
    let end = CellEnd {
        logs: states.iter().map(|s| s.applied().to_vec()).collect(),
        admitted_early,
        shed: if open_loop {
            states.iter().map(|s| s.workload().deferred()).sum()
        } else {
            0
        },
        generated: states.iter().map(|s| s.workload().generated()).sum(),
        events: sim.stats().events_dispatched,
        heap_live,
        timed_ns,
    };
    inspect(&sim);
    let inspected = lap.lap();
    Ok((end, [programs_built, sim_built, run, inspected]))
}

fn alg2<U: LogUpper>(shape: &Shape, upper: U, p: usize) -> Alg2Program<U> {
    Alg2Program::new(upper, ProcessId::new(p), 0, shape.params().alg2_timeout())
        .with_record_window(1)
}

fn alg3<U: LogUpper>(shape: &Shape, f: usize, upper: U, p: usize) -> Alg3Program<U> {
    Alg3Program::new(
        upper,
        ProcessId::new(p),
        0,
        f,
        shape.params().alg3_timeout(),
    )
    .with_record_window(1)
}

/// The longest log among π0's.
fn longest_pi0<'a>(shape: &Shape, logs: &'a [Vec<u64>]) -> &'a [u64] {
    shape
        .pi0()
        .iter()
        .map(|p| logs[p.index()].as_slice())
        .max_by_key(|l| l.len())
        .expect("π0 is not empty")
}

/// The applied-log oracle over every replica, then the cell's digest.
fn check_and_digest(shape: &Shape, end: &CellEnd) -> Result<CellDigest, String> {
    let logs: Vec<&[u64]> = end.logs.iter().map(Vec::as_slice).collect();
    let max_batch = rsm_config(shape.depth).max_batch as u64;
    if let Some(v) = check_logs(&logs, shape.n, max_batch).violation {
        return Err(format!("cell {}: {v}", shape.name()));
    }
    let longest = longest_pi0(shape, &end.logs);
    let mut fp = Fingerprint::default();
    fp.words(longest);
    for log in &end.logs {
        fp.word(log.len() as u64);
    }
    Ok(CellDigest {
        name: shape.name(),
        fingerprint: fp.0,
        work: end.events,
        ops: count_commands(longest),
    })
}

pub struct Stack {
    shapes: Vec<Shape>,
    seeds: Vec<u64>,
}

/// What the observed pass adds to the plain one.
struct Observed {
    to_origin: Vec<f64>,
    to_everywhere: Vec<f64>,
    service_gap_max: f64,
    attempted: u64,
    failed: u64,
    shed: u64,
    generated: u64,
}

impl Stack {
    fn new(shapes: Vec<Shape>, seed: u64) -> Self {
        let seeds = (0..shapes.len() as u64)
            .map(|i| cell_seed(seed, i))
            .collect();
        Stack { shapes, seeds }
    }

    #[must_use]
    pub fn e2e(seed: u64, scale: Scale) -> Self {
        let horizon = scale.down(E2E_HORIZON as u64, 5000) as f64;
        Self::new(e2e_shapes(horizon), seed)
    }

    #[must_use]
    pub fn soak(seed: u64, scale: Scale) -> Self {
        let horizon = scale.down(SOAK_HORIZON as u64, 5000) as f64;
        Self::new(vec![soak_shape(horizon)], seed)
    }

    /// One untraced pass, optionally observed.
    fn run_all(&self, observe: bool) -> Result<(Pass, Option<Observed>), String> {
        let mut lap = Lap::start();
        let mut timed_ns = 0;
        let mut cells = Vec::with_capacity(self.shapes.len());
        let mut observed = observe.then(|| Observed {
            to_origin: Vec::new(),
            to_everywhere: Vec::new(),
            service_gap_max: 0.0,
            attempted: 0,
            failed: 0,
            shed: 0,
            generated: 0,
        });
        for (shape, &seed) in self.shapes.iter().zip(&self.seeds) {
            let mut observer = observe.then(|| Observer::new(shape));
            let drive = match &mut observer {
                Some(observer) => Drive::Observed(observer),
                None => Drive::Plain,
            };
            let (end, _) = match shape.lower {
                Lower::Alg2 => run_cell(
                    &mut lap,
                    shape,
                    seed,
                    |p| alg2(shape, shape.log(seed), p),
                    drive,
                    |_| (),
                ),
                Lower::Alg3 { f } => run_cell(
                    &mut lap,
                    shape,
                    seed,
                    |p| alg3(shape, f, Translated::new(shape.log(seed), f), p),
                    drive,
                    |_| (),
                ),
            }?;
            timed_ns += end.timed_ns;
            cells.push(check_and_digest(shape, &end)?);
            if let (Some(total), Some(observer)) = (&mut observed, &observer) {
                let pi0 = shape.pi0();
                let (attempted, failed) = early_commands_lost(
                    longest_pi0(shape, &end.logs),
                    &end.admitted_early,
                    0,
                    |p| pi0.contains(ProcessId::new(p)),
                );
                total.attempted += attempted;
                total.failed += failed;
                total.shed += end.shed;
                total.generated += end.generated;
                total.service_gap_max = total.service_gap_max.max(observer.service_gap_max);
                total
                    .to_origin
                    .extend(observer.samples.iter().map(|s| s.to_origin));
                total
                    .to_everywhere
                    .extend(observer.to_everywhere(&shape.name())?);
            }
        }
        Ok((Pass { timed_ns, cells }, observed))
    }
}

impl Workload for Stack {
    fn pass(&mut self) -> Result<Pass, String> {
        self.run_all(false).map(|(pass, _)| pass)
    }

    fn observe(&mut self) -> Result<(Pass, Observation), String> {
        let (pass, observed) = self.run_all(true)?;
        let observed = observed.expect("observed pass");
        let notes = vec![format!(
            "latency sample = time units from admission at the origin replica to apply at the origin replica, over π0 replicas of {} cells; attempted = commands admitted at least {DRAIN_TU} tu before the horizon; the admission gate refused {} open-loop arrivals (rsm.shed_share)",
            self.shapes.len(),
            observed.shed
        )];
        Ok((
            pass,
            Observation {
                latencies: observed.to_origin,
                clock: "tu",
                attempted: observed.attempted,
                failed: observed.failed,
                notes,
            },
        ))
    }

    fn trace(&mut self) -> Result<(Layers, Vec<CellDigest>), String> {
        let mut layers = Layers::new();

        // The observed pass once more, for the second latency segment.
        let (_, observed) = self.run_all(true)?;
        let mut observed = observed.expect("observed pass");
        stats::sort(&mut observed.to_everywhere);
        layers.insert(
            "stack.origin_to_all_apply_p50",
            stats::quantile(&observed.to_everywhere, 0.5),
        );
        layers.insert(
            "stack.origin_to_all_apply_p99",
            stats::quantile(&observed.to_everywhere, 0.99),
        );
        layers.insert("stack.service_gap_max_tu", observed.service_gap_max);
        layers.insert(
            "rsm.shed_share",
            observed.shed as f64 / (observed.generated + observed.shed) as f64,
        );

        // The traced pass: wrappers on every program, on MultiSlot, on the
        // translation and on the consensus algorithm; ten run_for slices.
        let wall = Instant::now();
        let ticks_start = now_ticks();
        let mut lap = Lap::start();
        let mut account = SimAccount::default();
        let mut slices = [0u64; 10];
        let mut log_rounds = 0;
        let mut slots = 0;
        let mut noop_slots = 0;
        let mut heap_growth = 0;
        let mut cells = Vec::with_capacity(self.shapes.len());
        for (shape, &seed) in self.shapes.iter().zip(&self.seeds) {
            account.bench += lap.lap();
            let heap_before = alloc::live_bytes();
            let mut rounds_here = 0;
            let consensus = || Timed::new(OneThirdRule::new(shape.n));
            let (end, spans) = match shape.lower {
                Lower::Alg2 => run_cell(
                    &mut lap,
                    shape,
                    seed,
                    |p| {
                        let log = Timed::new(shape.log_over(consensus(), seed));
                        Timed::new(alg2(shape, log, p))
                    },
                    Drive::Sliced(&mut slices),
                    |sim| {
                        rounds_here = pi0_log_rounds(shape, sim);
                        account.absorb(sim.stats(), sim.programs(), |p| {
                            let log = p.upper();
                            log_ticks(log.ticks(), 0, log, log.inner().inner())
                        });
                    },
                ),
                Lower::Alg3 { f } => run_cell(
                    &mut lap,
                    shape,
                    seed,
                    |p| {
                        let log = Timed::new(shape.log_over(consensus(), seed));
                        Timed::new(alg3(shape, f, Timed::new(Translated::new(log, f)), p))
                    },
                    Drive::Sliced(&mut slices),
                    |sim| {
                        rounds_here = pi0_log_rounds(shape, sim);
                        account.absorb(sim.stats(), sim.programs(), |p| {
                            let translated = p.upper();
                            let log = translated.inner().inner();
                            log_ticks(
                                translated.ticks(),
                                translated.calls(),
                                log,
                                log.inner().inner(),
                            )
                        });
                    },
                ),
            }?;
            account.programs_built += spans[0];
            account.sim_built += spans[1];
            account.run += spans[2];
            account.bench += spans[3];
            heap_growth += end.heap_live.saturating_sub(heap_before);
            // The oracle and the digest share this span; it is booked to the
            // benchmark (rsm.oracle_ms is an `rsm_*` workload number).
            let digest = check_and_digest(shape, &end)?;
            account.bench += lap.lap();
            let longest = longest_pi0(shape, &end.logs);
            log_rounds += rounds_here;
            slots += longest.len() as u64;
            noop_slots += longest
                .iter()
                .enumerate()
                .filter(|(slot, &v)| decode_slot_value(*slot as u64, v).count == 0)
                .count() as u64;
            cells.push(digest);
        }
        account.bench += lap.lap();
        let ticks = now_ticks() - ticks_start;
        let wall_ns = wall.elapsed().as_nanos() as f64;
        let commands: u64 = cells.iter().map(|c| c.ops).sum();
        account.ops = commands;
        let ns = wall_ns / ticks as f64;
        account.write(&mut layers, ns, wall_ns * 1e-6);
        let upper = account.upper;
        layers.insert(
            "rsm.multislot_self_ns_per_round",
            upper.rsm as f64 * ns / log_rounds as f64,
        );
        layers.insert(
            "rsm.inner_consensus_ns_per_round",
            upper.core as f64 * ns / log_rounds as f64,
        );
        layers.insert("rsm.rounds_per_slot", log_rounds as f64 / slots as f64);
        layers.insert("rsm.cmds_per_slot", commands as f64 / slots as f64);
        layers.insert("rsm.noop_slot_share", noop_slots as f64 / slots as f64);
        layers.insert(
            "stack.cmds_per_event",
            commands as f64 / account.events as f64,
        );
        layers.insert(
            "stack.slice_wall_ratio_last_first",
            slices[9] as f64 / slices[0] as f64,
        );
        layers.insert(
            "stack.heap_bytes_per_cmd",
            heap_growth as f64 / commands as f64,
        );
        Ok((layers, cells))
    }
}

/// Log rounds the furthest π0 replica completed.
fn pi0_log_rounds<P>(shape: &Shape, sim: &Simulator<P>) -> u64
where
    P: PredProgram,
    P::Upper: LogUpper,
{
    shape
        .pi0()
        .iter()
        .map(|p| log_rounds_done(sim.program(p)))
        .max()
        .unwrap_or(0)
}

/// Splits an upper algorithm's ticks: `outer` is everything the program
/// called (the translation around the log, or the log itself), `log` the
/// `Timed<MultiSlot>` inside it, `consensus` the `Timed<OneThirdRule>`
/// inside that. `MultiSlot`'s self time is ho-rsm; the rest is ho-core.
/// `wrapper_calls` counts the timed calls of a wrapper around the log
/// (0 when the log is the outermost).
fn log_ticks<L, C>(
    outer: u64,
    wrapper_calls: u64,
    log: &Timed<L>,
    consensus: &Timed<C>,
) -> UpperTicks {
    UpperTicks {
        core: outer - log.ticks() + consensus.ticks(),
        rsm: log.ticks() - consensus.ticks(),
        calls: wrapper_calls + log.calls() + consensus.calls(),
    }
}
