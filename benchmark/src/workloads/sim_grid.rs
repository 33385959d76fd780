//! `sim_grid`: Algorithms 2/3 in the simulator through the `SimSweep`
//! facade, worst-case step and delay timing.
//!
//! {Alg2, Alg3 f=1} × {good from start, lossy / crashy / omissive then
//! good} × n ∈ {4, 6}, `window(2)`, one thread. An op is a scenario; its
//! simulated latency is the time from the start of the good period to the
//! `P_su` / `P_k` witness. Worst-case timing makes every broadcast one
//! coalesced engine event. `ho-rsm` does no work here.

use std::time::Instant;

use ho_core::algorithms::OneThirdRule;
use ho_core::process::{ProcessId, ProcessSet};
use ho_core::telemetry::now_ticks;
use ho_harness::{ImplementationSpec, LinkFaultSpec, SimSweep};
use ho_predicates::bounds::BoundParams;
use ho_predicates::monitor::{LogCursor, WindowMonitor};
use ho_predicates::{Alg2Program, Alg3Program};
use ho_sim::{BadPeriodConfig, GoodKind, Schedule, SimConfig, SimScratch, Simulator, TimePoint};

use crate::protocol::{CellDigest, Layers, Observation, Pass, Scale, Workload};
use crate::stats::Fingerprint;
use crate::timed::Timed;
use crate::workloads::cell_seed;
use crate::workloads::simcell::{core_upper, harness_layers, Lap, PredProgram, SimAccount};

/// Normalized units of every sim-layer workload: `Φ− = 1`, `Φ+ = φ`,
/// `Δ = δ`.
pub const PHI: f64 = 1.0;
pub const DELTA: f64 = 2.0;
/// The predicate window every scenario must deliver.
pub const WINDOW: u64 = 2;
/// Seeds per (implementation × fault × n) cell at full size.
pub const SEEDS_PER_CELL: u64 = 1200;
const SIZES: [usize; 2] = [4, 6];
const IMPLEMENTATIONS: [ImplementationSpec; 2] =
    [ImplementationSpec::Alg2, ImplementationSpec::Alg3 { f: 1 }];
/// The facade gives a scenario this many theorem bounds of good period
/// before calling the window undelivered, and its programs keep this many
/// round records; the probe mirrors both and is checked against the
/// facade's `events_dispatched`, so a drift shows as a probe mismatch.
const DEADLINE_FACTOR: f64 = 6.0;
const RECORD_WINDOW: usize = 64;

fn faults() -> [LinkFaultSpec; 4] {
    [
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
    ]
}

/// The bad-period rules and length a fault model stands for (`None`: the
/// good period is initial).
fn bad_period(fault: &LinkFaultSpec) -> Option<(BadPeriodConfig, f64)> {
    match *fault {
        LinkFaultSpec::GoodFromStart => None,
        LinkFaultSpec::LossyThenGood { bad_len, loss } => {
            Some((BadPeriodConfig::lossy(loss), bad_len))
        }
        LinkFaultSpec::CrashyThenGood { bad_len } => Some((BadPeriodConfig::default(), bad_len)),
        LinkFaultSpec::OmissiveThenGood {
            bad_len,
            send,
            recv,
        } => Some((BadPeriodConfig::omissive(send, recv), bad_len)),
        LinkFaultSpec::ContactPlanThenGood { .. } => {
            unreachable!("the benchmark grid has no contact-plan cell")
        }
    }
}

/// The schedule of a fault model and the start of its good period.
pub fn schedule(fault: &LinkFaultSpec, pi0: ProcessSet, kind: GoodKind) -> (Schedule, f64) {
    match bad_period(fault) {
        None => (Schedule::always_good(pi0, kind), 0.0),
        Some((bad, len)) => (
            Schedule::bad_then_good(bad, TimePoint::new(len), pi0, kind),
            len,
        ),
    }
}

/// Theorem bound and observation slack of one cell shape: Theorems 5/7 for
/// an initial good period, 3/6 after a bad one.
fn bound_and_slack(
    implementation: ImplementationSpec,
    fault: &LinkFaultSpec,
    n: usize,
) -> (f64, f64) {
    let params = BoundParams::new(n, PHI, DELTA);
    let initial = bad_period(fault).is_none();
    match implementation {
        ImplementationSpec::Alg2 => (
            if initial {
                params.theorem5(WINDOW)
            } else {
                params.theorem3(WINDOW)
            },
            params.alg2_slack(),
        ),
        ImplementationSpec::Alg3 { .. } => (
            if initial {
                params.theorem7(WINDOW)
            } else {
                params.theorem6(WINDOW)
            },
            params.alg3_slack(),
        ),
    }
}

#[derive(Clone, Copy)]
struct Outcome {
    empirical_length: Option<f64>,
    within_bound: bool,
    events: u64,
    wall_nanos: u64,
}

struct Shape {
    implementation: ImplementationSpec,
    fault: LinkFaultSpec,
    n: usize,
}

impl Shape {
    fn name(&self) -> String {
        format!(
            "{}/{}/n{}",
            self.implementation.name(),
            self.fault.name(),
            self.n
        )
    }
}

pub struct SimGrid {
    sweep: SimSweep,
    seeds: Vec<u64>,
}

impl SimGrid {
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        let seeds: Vec<u64> = (0..scale.down(SEEDS_PER_CELL, 8))
            .map(|i| cell_seed(seed, i))
            .collect();
        let sweep = SimSweep::new()
            .implementations(IMPLEMENTATIONS)
            .faults(faults())
            .sizes(SIZES)
            .seeds(seeds.iter().copied())
            .window(WINDOW)
            .threads(1);
        SimGrid { sweep, seeds }
    }

    /// Cell shapes in the facade's grid order (implementation, fault, n).
    fn shapes() -> Vec<Shape> {
        let mut out = Vec::new();
        for implementation in IMPLEMENTATIONS {
            for fault in faults() {
                for n in SIZES {
                    out.push(Shape {
                        implementation,
                        fault,
                        n,
                    });
                }
            }
        }
        out
    }

    fn run_facade(&self) -> (u64, Vec<Outcome>) {
        let start = Instant::now();
        let report = self.sweep.run();
        let timed_ns = start.elapsed().as_nanos() as u64;
        assert_eq!(report.scenarios, report.verdicts.len());
        let outcomes = report
            .verdicts
            .iter()
            .map(|v| Outcome {
                empirical_length: v.empirical_length,
                within_bound: v.within_bound,
                events: v.events_dispatched,
                wall_nanos: v.wall_nanos,
            })
            .collect();
        (timed_ns, outcomes)
    }

    /// Per-cell digests plus the oracle: every window delivered, none late.
    fn digest(&self, outcomes: &[Outcome]) -> Result<Vec<CellDigest>, String> {
        let shapes = Self::shapes();
        assert_eq!(outcomes.len(), shapes.len() * self.seeds.len());
        shapes
            .iter()
            .zip(outcomes.chunks(self.seeds.len()))
            .map(|(shape, chunk)| {
                if let Some(i) = chunk.iter().position(|o| !o.within_bound) {
                    return Err(format!(
                        "cell {}: window {} at seed {}",
                        shape.name(),
                        if chunk[i].empirical_length.is_some() {
                            "delivered past the theorem bound + slack"
                        } else {
                            "never delivered"
                        },
                        self.seeds[i]
                    ));
                }
                Ok(cell_digest(shape.name(), chunk))
            })
            .collect()
    }
}

fn cell_digest(name: String, chunk: &[Outcome]) -> CellDigest {
    let mut fp = Fingerprint::default();
    for o in chunk {
        fp.word(o.empirical_length.map_or(0, f64::to_bits));
        fp.word(o.events);
    }
    CellDigest {
        name,
        fingerprint: fp.0,
        work: chunk.iter().map(|o| o.events).sum(),
        ops: chunk.len() as u64,
    }
}

impl Workload for SimGrid {
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
        let latencies: Vec<f64> = outcomes.iter().filter_map(|o| o.empirical_length).collect();
        let obs = Observation {
            clock: "tu",
            attempted: outcomes.len() as u64,
            failed: (outcomes.len() - latencies.len()) as u64,
            latencies,
            notes: vec![
                "latency sample = time units from the start of the good period to the P_su / P_k window's witness".into(),
            ],
        };
        Ok((Pass { timed_ns, cells }, obs))
    }

    fn trace(&mut self) -> Result<(Layers, Vec<CellDigest>), String> {
        let mut layers = Layers::new();

        let (facade_ns, outcomes) = self.run_facade();
        let scenario_ns = outcomes.iter().map(|o| o.wall_nanos as f64).collect();
        harness_layers(&mut layers, facade_ns, scenario_ns);

        // The probe: the same cells rebuilt from ho-sim / ho-predicates
        // types with the wrappers in place.
        let wall = Instant::now();
        let ticks_start = now_ticks();
        let mut probe = Probe {
            lap: Lap::start(),
            account: SimAccount::default(),
            alg2: SimScratch::new(),
            alg3: SimScratch::new(),
            tightness_worst: 0.0,
            late: 0,
        };
        let mut cells = Vec::new();
        for (shape, facade) in Self::shapes().iter().zip(outcomes.chunks(self.seeds.len())) {
            let mut probed = Vec::with_capacity(self.seeds.len());
            for (&seed, f) in self.seeds.iter().zip(facade) {
                let o = probe.run(shape, seed);
                if o.events != f.events
                    || o.empirical_length.map(f64::to_bits) != f.empirical_length.map(f64::to_bits)
                {
                    return Err(format!(
                        "probe of {}/s{seed} dispatched {} events (window after {:?}), the facade {} ({:?})",
                        shape.name(),
                        o.events,
                        o.empirical_length,
                        f.events,
                        f.empirical_length
                    ));
                }
                probed.push(o);
            }
            cells.push(cell_digest(shape.name(), &probed));
            probe.account.bench += probe.lap.lap();
        }
        let ticks = now_ticks() - ticks_start;
        let wall_ns = wall.elapsed().as_nanos() as f64;
        probe.account.ops = outcomes.len() as u64;
        probe
            .account
            .write(&mut layers, wall_ns / ticks as f64, wall_ns * 1e-6);
        layers.insert("pred.bound_tightness_worst", probe.tightness_worst);
        layers.insert("pred.late_windows", probe.late as f64);
        Ok((layers, cells))
    }
}

type Alg2 = Timed<Alg2Program<Timed<OneThirdRule>>>;
type Alg3 = Timed<Alg3Program<Timed<OneThirdRule>>>;

struct Probe {
    lap: Lap,
    account: SimAccount,
    alg2: SimScratch<Alg2>,
    alg3: SimScratch<Alg3>,
    tightness_worst: f64,
    late: u64,
}

impl Probe {
    fn run(&mut self, shape: &Shape, seed: u64) -> Outcome {
        let n = shape.n;
        let params = BoundParams::new(n, PHI, DELTA);
        let (bound, slack) = bound_and_slack(shape.implementation, &shape.fault, n);
        self.account.bench += self.lap.lap();
        let outcome = match shape.implementation {
            ImplementationSpec::Alg2 => {
                let pi0 = ProcessSet::full(n);
                let (schedule, good_start) = schedule(&shape.fault, pi0, GoodKind::PiDown);
                let programs: Vec<Alg2> = (0..n)
                    .map(|p| {
                        Timed::new(
                            Alg2Program::new(
                                Timed::new(OneThirdRule::new(n)),
                                ProcessId::new(p),
                                p as u64,
                                params.alg2_timeout(),
                            )
                            .with_record_window(RECORD_WINDOW),
                        )
                    })
                    .collect();
                let monitor = WindowMonitor::space_uniform(pi0, WINDOW, good_start);
                run_cell(
                    &mut self.lap,
                    &mut self.account,
                    &mut self.alg2,
                    SimConfig::normalized(n, PHI, DELTA).with_seed(seed),
                    schedule,
                    programs,
                    monitor,
                    good_start,
                    bound,
                )
            }
            ImplementationSpec::Alg3 { f } => {
                let pi0 = ProcessSet::from_indices(0..n - f);
                let (schedule, good_start) = schedule(&shape.fault, pi0, GoodKind::PiArbitrary);
                let programs: Vec<Alg3> = (0..n)
                    .map(|p| {
                        Timed::new(
                            Alg3Program::new(
                                Timed::new(OneThirdRule::new(n)),
                                ProcessId::new(p),
                                p as u64,
                                f,
                                params.alg3_timeout(),
                            )
                            .with_record_window(RECORD_WINDOW),
                        )
                    })
                    .collect();
                let monitor = WindowMonitor::kernel(pi0, WINDOW, good_start);
                run_cell(
                    &mut self.lap,
                    &mut self.account,
                    &mut self.alg3,
                    SimConfig::normalized(n, PHI, DELTA).with_seed(seed),
                    schedule,
                    programs,
                    monitor,
                    good_start,
                    bound,
                )
            }
        };
        match outcome.empirical_length {
            Some(len) => {
                self.tightness_worst = self.tightness_worst.max(len / (bound + slack));
                if len > bound + slack {
                    self.late += 1;
                }
            }
            None => self.late += 1,
        }
        Outcome {
            within_bound: outcome.empirical_length.is_some_and(|l| l <= bound + slack),
            ..outcome
        }
    }
}

/// One probed scenario: build, run until the monitor latches its window
/// (or the deadline), retire — each in its own chained span.
#[allow(clippy::too_many_arguments)]
fn run_cell<P>(
    lap: &mut Lap,
    account: &mut SimAccount,
    scratch: &mut SimScratch<Timed<P>>,
    cfg: SimConfig,
    schedule: Schedule,
    programs: Vec<Timed<P>>,
    mut monitor: WindowMonitor,
    good_start: f64,
    bound: f64,
) -> Outcome
where
    P: PredProgram<Upper = Timed<OneThirdRule>>,
{
    let n = cfg.n;
    account.programs_built += lap.lap();
    let mut sim = Simulator::with_scratch(cfg, schedule, programs, scratch);
    account.sim_built += lap.lap();

    let deadline = TimePoint::new(good_start + bound * DEADLINE_FACTOR);
    let mut cursor = LogCursor::new(n);
    let mut monitor_ticks = 0;
    sim.run_until(deadline, |s| {
        let start = now_ticks();
        let now = s.now().get();
        cursor.drain(s.programs(), now, |p, r, ho, t| {
            monitor.observe_event(p, r, ho, t);
        });
        let done = monitor.witness().is_some();
        monitor_ticks += now_ticks() - start;
        done
    });
    account.run += lap.lap();
    account.monitor += monitor_ticks;

    let outcome = Outcome {
        empirical_length: monitor.witness().map(|(_, t)| t - good_start),
        within_bound: false,
        events: sim.stats().events_dispatched,
        wall_nanos: 0,
    };
    account.absorb(sim.stats(), sim.programs(), |p| core_upper(p.upper()));
    account.bench += lap.lap();
    sim.retire(scratch);
    account.retired += lap.lap();
    outcome
}
