//! The measurement harness for §4.2's two scenarios.
//!
//! * **Scenario 1** ("not nice" runs, Theorems 3 and 6): a bad period
//!   `[0, τG)` followed by a good period. We measure the time from `τG`
//!   until the target predicate window is achieved — the *empirical minimal
//!   length of a good period* — and compare it with the theorem bound.
//! * **Scenario 2** ("nice" runs, Theorems 5 and 7): the good period starts
//!   at `τG = 0`.
//!
//! All quantities are in normalized units (`Φ− = 1`), directly comparable
//! with [`BoundParams`].

use ho_core::algorithms::OneThirdRule;
use ho_core::contact::ContactPlan;
use ho_core::executor::MessageStats;
use ho_core::process::{ProcessId, ProcessSet};
use ho_core::telemetry::{Event, EventKind, Telemetry, TelemetrySummary};
use ho_core::translation::Translated;
use ho_sim::{
    BadPeriodConfig, GoodKind, LinkSchedule, Schedule, SimConfig, SimScratch, SimStats, Simulator,
    TimePoint,
};

use crate::alg2::Alg2Program;
use crate::alg3::Alg3Program;
use crate::bounds::BoundParams;
use crate::monitor::{LogCursor, WindowMonitor};

/// When the good period starts.
#[derive(Clone, Copy, Debug)]
pub enum Scenario {
    /// The good period is initial (`τG = 0`) — a "nice" run.
    Initial,
    /// A bad period of the given length precedes the good period — a
    /// "not nice" run.
    AfterBad {
        /// Length of the bad period `[0, τG)`.
        bad_len: f64,
        /// Fault behaviour during the bad period.
        bad: BadPeriodConfig,
    },
    /// A [`ContactPlan`] link schedule precedes the good period: the
    /// period rules stay calm, and all disruption comes from scheduled
    /// link outages — the system-level twin of the round-synchronous
    /// `ContactPlanAdversary`. The good period starts at the plan's
    /// horizon, where every link is permanently up again.
    AfterContactPlan {
        /// The deterministic link schedule driving the bad period.
        plan: ContactPlan,
        /// Seed for the plan's seed-rotated choices.
        seed: u64,
        /// Real-time length mapped onto one plan round.
        round_len: f64,
    },
}

impl Scenario {
    /// A default "not nice" scenario: a lossy, crashy bad period of the
    /// given length.
    #[must_use]
    pub fn rough(bad_len: f64) -> Self {
        Scenario::AfterBad {
            bad_len,
            bad: BadPeriodConfig::default(),
        }
    }

    /// A contact-plan scenario: scheduled link outages until the plan's
    /// horizon, then a good period.
    #[must_use]
    pub fn contact(plan: ContactPlan, seed: u64, round_len: f64) -> Self {
        Scenario::AfterContactPlan {
            plan,
            seed,
            round_len,
        }
    }

    /// The good-period start time `τG`.
    #[must_use]
    pub fn good_start(&self) -> f64 {
        match self {
            Scenario::Initial => 0.0,
            Scenario::AfterBad { bad_len, .. } => *bad_len,
            Scenario::AfterContactPlan {
                plan, round_len, ..
            } => (plan.good_from() - 1) as f64 * round_len,
        }
    }

    fn schedule(&self, n: usize, pi0: ProcessSet, kind: GoodKind) -> Schedule {
        match self {
            Scenario::Initial => Schedule::always_good(pi0, kind),
            Scenario::AfterBad { bad_len, bad } => {
                Schedule::bad_then_good(*bad, TimePoint::new(*bad_len), pi0, kind)
            }
            Scenario::AfterContactPlan {
                plan,
                seed,
                round_len,
            } => {
                let link = LinkSchedule::new(*plan, *seed, n, *round_len);
                let horizon = link.horizon();
                Schedule::bad_then_good(BadPeriodConfig::calm(), horizon, pi0, kind)
                    .with_link_schedule(link)
            }
        }
    }
}

/// The outcome of one measurement run.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// When the good period started (`τG`).
    pub good_start: f64,
    /// When the target was achieved (absolute time), if it was before the
    /// deadline.
    pub achieved_at: Option<f64>,
    /// The paper's bound for this target (normalized units).
    pub bound: f64,
    /// The witnessing first round `ρ0` of the predicate window, if any.
    pub rho0: Option<u64>,
}

impl Measurement {
    /// The empirical minimal good-period length: `achieved_at − τG`.
    #[must_use]
    pub fn empirical_length(&self) -> Option<f64> {
        self.achieved_at.map(|t| t - self.good_start)
    }

    /// Whether the run achieved the target within the theorem bound
    /// (the theorems are worst-case, so this should always hold up to the
    /// observation slack `slack`).
    #[must_use]
    pub fn within_bound(&self, slack: f64) -> bool {
        self.empirical_length()
            .is_some_and(|l| l <= self.bound + slack)
    }

    /// Measured length as a fraction of the bound (`None` if not achieved).
    #[must_use]
    pub fn tightness(&self) -> Option<f64> {
        self.empirical_length().map(|l| l / self.bound)
    }
}

/// A [`Measurement`] together with the run's execution statistics: the
/// detailed form the sim-layer sweep aggregates into `BENCH_sweep.json`'s
/// `sim_layer` section. Message accounting is the same [`MessageStats`]
/// struct the round-synchronous executor reports, so both layers aggregate
/// uniformly.
#[derive(Clone, Debug)]
pub struct SimMeasurement {
    /// The predicate-achievement measurement against the theorem bound.
    pub measurement: Measurement,
    /// Engine counters: steps, transmissions, drops, crashes.
    pub stats: SimStats,
    /// Unified message accounting (engine deliveries + the programs'
    /// payload-construction counters).
    pub messages: MessageStats,
    /// Highest round any program entered.
    pub max_round: u64,
    /// The run's telemetry digest (`Some` iff the scratch carried an
    /// active [`Telemetry`] handle). The drained event ring stays in the
    /// scratch for the caller to inspect (forensics on violation).
    pub telemetry: Option<TelemetrySummary>,
}

/// Per-worker reusable simulator storage for the sim-layer sweep: one
/// [`SimScratch`] per measured program type, so consecutive scenarios —
/// whichever implementation they run — reuse queue buckets, process slots
/// and reception buffers (see [`run_alg2_scenario_with`]).
#[derive(Default)]
pub struct SimLayerScratch {
    alg2: SimScratch<Alg2Program<OneThirdRule>>,
    alg3: SimScratch<Alg3Program<OneThirdRule>>,
    /// The worker's flight-recorder ring (off by default): installed on
    /// each scenario's [`Simulator`] when active and recovered afterwards,
    /// so its events stay drainable until the next scenario resets it.
    telemetry: Telemetry,
}

impl SimLayerScratch {
    /// An empty scratch: the first scenario allocates, the rest reuse.
    #[must_use]
    pub fn new() -> Self {
        SimLayerScratch::default()
    }

    /// Installs (or disables, with [`Telemetry::off`]) the telemetry
    /// handle every subsequent scenario on this scratch records into.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The telemetry handle, holding the most recent scenario's events
    /// (each scenario resets it on entry, so drain before the next run).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

/// How far past the bound we keep simulating before declaring failure.
const DEADLINE_FACTOR: f64 = 6.0;

/// Record window for the measured programs: the monitor's [`LogCursor`]
/// drains after every event, so the programs only need to retain the
/// largest batch of rounds one event can complete — a recovery
/// fast-forward spanning the bad period, a handful of rounds for the
/// scenarios measured here. 64 is an order of magnitude of slack; the
/// drain assert turns any miscalibration into a loud failure.
const RECORD_WINDOW: usize = 64;

/// Measures the good-period length needed by **Algorithm 2** to achieve
/// `P_su(π0, ρ0, ρ0+x−1)` in a π0-down good period (Theorems 3 and 5).
///
/// `pi0` is the synchronous subset; processes outside are down during the
/// good period.
#[must_use]
pub fn measure_alg2_space_uniform(
    params: BoundParams,
    pi0: ProcessSet,
    x: u64,
    scenario: Scenario,
    seed: u64,
) -> Measurement {
    run_alg2_scenario(params, pi0, x, scenario, seed).measurement
}

/// [`measure_alg2_space_uniform`] with the run's full execution statistics.
#[must_use]
pub fn run_alg2_scenario(
    params: BoundParams,
    pi0: ProcessSet,
    x: u64,
    scenario: Scenario,
    seed: u64,
) -> SimMeasurement {
    run_alg2_scenario_with(params, pi0, x, scenario, seed, &mut SimLayerScratch::new())
}

/// [`run_alg2_scenario`] reusing `scratch`'s simulator storage — the
/// sim-layer sweep's entry point.
#[must_use]
pub fn run_alg2_scenario_with(
    params: BoundParams,
    pi0: ProcessSet,
    x: u64,
    scenario: Scenario,
    seed: u64,
    scratch: &mut SimLayerScratch,
) -> SimMeasurement {
    let n = params.n;
    let cfg = SimConfig::normalized(n, params.phi, params.delta).with_seed(seed);
    let schedule = scenario.schedule(n, pi0, GoodKind::PiDown);
    let programs: Vec<Alg2Program<OneThirdRule>> = (0..n)
        .map(|p| {
            Alg2Program::new(
                OneThirdRule::new(n),
                ProcessId::new(p),
                p as u64,
                params.alg2_timeout(),
            )
            .with_record_window(RECORD_WINDOW)
        })
        .collect();
    let mut sim = Simulator::with_scratch(cfg, schedule, programs, &mut scratch.alg2);
    if scratch.telemetry.is_on() {
        scratch.telemetry.reset();
        sim.set_telemetry(std::mem::take(&mut scratch.telemetry));
    }

    let bound = match scenario {
        Scenario::Initial => params.theorem5(x),
        Scenario::AfterBad { .. } | Scenario::AfterContactPlan { .. } => params.theorem3(x),
    };
    let good_start = scenario.good_start();
    let deadline = TimePoint::new(good_start + bound * DEADLINE_FACTOR);

    // Streaming evaluation: the monitor ingests each newly executed round
    // once and resumes from its failure frontier, instead of the retained
    // SystemTrace being rescanned from round 1 at every poll.
    let mut monitor = WindowMonitor::space_uniform(pi0, x, good_start);
    let mut cursor = LogCursor::new(n);
    sim.run_until(deadline, |s| {
        let now = s.now().get();
        cursor.drain(s.programs(), now, |p, r, ho, t| {
            monitor.observe_event(p, r, ho, t);
        });
        monitor.witness().is_some()
    });
    let witness = monitor.witness();
    let mut telemetry = sim.take_telemetry();
    if let Some((r, t)) = witness {
        telemetry.record(
            r,
            t,
            Event::ALL,
            EventKind::PredicateWitness { witness_round: r },
        );
    }
    let out = SimMeasurement {
        measurement: Measurement {
            good_start,
            achieved_at: witness.map(|(_, t)| t),
            bound,
            rho0: witness.map(|(r, _)| r),
        },
        stats: sim.stats().clone(),
        messages: sim.message_stats(),
        max_round: sim
            .programs()
            .iter()
            .map(Alg2Program::round)
            .max()
            .unwrap_or(0),
        telemetry: telemetry.summary(),
    };
    scratch.telemetry = telemetry;
    sim.retire(&mut scratch.alg2);
    out
}

/// Measures the good-period length needed by **Algorithm 3** to achieve
/// `P_k(π0, ρ0, ρ0+x−1)` in a π0-arbitrary good period (Theorems 6 and 7).
///
/// `π0` is taken as the first `n − f` processes; the rest run under
/// arbitrary (bad) rules throughout.
#[must_use]
pub fn measure_alg3_kernel(
    params: BoundParams,
    f: usize,
    x: u64,
    scenario: Scenario,
    seed: u64,
) -> Measurement {
    run_alg3_scenario(params, f, x, scenario, seed).measurement
}

/// [`measure_alg3_kernel`] with the run's full execution statistics — the
/// sim-layer sweep's entry point.
#[must_use]
pub fn run_alg3_scenario(
    params: BoundParams,
    f: usize,
    x: u64,
    scenario: Scenario,
    seed: u64,
) -> SimMeasurement {
    run_alg3_scenario_with(params, f, x, scenario, seed, &mut SimLayerScratch::new())
}

/// [`run_alg3_scenario`] with reusable scratch storage — the sweep's
/// batched entry point.
#[must_use]
pub fn run_alg3_scenario_with(
    params: BoundParams,
    f: usize,
    x: u64,
    scenario: Scenario,
    seed: u64,
    scratch: &mut SimLayerScratch,
) -> SimMeasurement {
    let n = params.n;
    assert!(2 * f < n, "Algorithm 3 requires f < n/2");
    let pi0 = ProcessSet::from_indices(0..n - f);
    let cfg = SimConfig::normalized(n, params.phi, params.delta).with_seed(seed);
    let schedule = scenario.schedule(n, pi0, GoodKind::PiArbitrary);
    let programs: Vec<Alg3Program<OneThirdRule>> = (0..n)
        .map(|p| {
            Alg3Program::new(
                OneThirdRule::new(n),
                ProcessId::new(p),
                p as u64,
                f,
                params.alg3_timeout(),
            )
            .with_record_window(RECORD_WINDOW)
        })
        .collect();
    let mut sim = Simulator::with_scratch(cfg, schedule, programs, &mut scratch.alg3);
    if scratch.telemetry.is_on() {
        scratch.telemetry.reset();
        sim.set_telemetry(std::mem::take(&mut scratch.telemetry));
    }

    let bound = match scenario {
        Scenario::Initial => params.theorem7(x),
        Scenario::AfterBad { .. } | Scenario::AfterContactPlan { .. } => params.theorem6(x),
    };
    let good_start = scenario.good_start();
    let deadline = TimePoint::new(good_start + bound * DEADLINE_FACTOR);

    // Streaming evaluation from the failure frontier, as in
    // [`measure_alg2_space_uniform`].
    let mut monitor = WindowMonitor::kernel(pi0, x, good_start);
    let mut cursor = LogCursor::new(n);
    sim.run_until(deadline, |s| {
        let now = s.now().get();
        cursor.drain(s.programs(), now, |p, r, ho, t| {
            monitor.observe_event(p, r, ho, t);
        });
        monitor.witness().is_some()
    });
    let witness = monitor.witness();
    let mut telemetry = sim.take_telemetry();
    if let Some((r, t)) = witness {
        telemetry.record(
            r,
            t,
            Event::ALL,
            EventKind::PredicateWitness { witness_round: r },
        );
    }
    let out = SimMeasurement {
        measurement: Measurement {
            good_start,
            achieved_at: witness.map(|(_, t)| t),
            bound,
            rho0: witness.map(|(r, _)| r),
        },
        stats: sim.stats().clone(),
        messages: sim.message_stats(),
        max_round: sim
            .programs()
            .iter()
            .map(Alg3Program::round)
            .max()
            .unwrap_or(0),
        telemetry: telemetry.summary(),
    };
    scratch.telemetry = telemetry;
    sim.retire(&mut scratch.alg3);
    out
}

/// The outcome of a full-stack consensus run (experiment E8).
#[derive(Clone, Debug)]
pub struct StackOutcome {
    /// The measurement against the §4.2.2(c) bound (time to all-`π0`
    /// decisions).
    pub measurement: Measurement,
    /// The decision of each process, if reached.
    pub decisions: Vec<Option<u64>>,
    /// Total send steps executed.
    pub send_steps: u64,
}

/// Runs the **full stack** — Algorithm 3 at the bottom, the `P_k → P_su`
/// macro-round translation (Algorithm 4) in the middle, OneThirdRule on
/// top — in a π0-arbitrary good period, and measures the time from `τG`
/// until every `π0` process has decided.
///
/// The §4.2.2(c) bound (`2f + 3` kernel rounds) is the reference.
#[must_use]
pub fn measure_full_stack(
    params: BoundParams,
    f: usize,
    scenario: Scenario,
    seed: u64,
) -> StackOutcome {
    let n = params.n;
    // Algorithm 3 needs f < n/2; OneThirdRule on top additionally needs
    // |π0| = n − f > 2n/3, i.e. f < n/3, to reach its quorums within π0.
    assert!(3 * f < n, "the full stack with OTR requires f < n/3");
    let pi0 = ProcessSet::from_indices(0..n - f);
    let cfg = SimConfig::normalized(n, params.phi, params.delta).with_seed(seed);
    let schedule = scenario.schedule(n, pi0, GoodKind::PiArbitrary);
    let programs: Vec<Alg3Program<Translated<OneThirdRule>>> = (0..n)
        .map(|p| {
            // This run never reads the round log (the stop condition is
            // the decisions), so the tightest window suffices.
            Alg3Program::new(
                Translated::new(OneThirdRule::new(n), f),
                ProcessId::new(p),
                p as u64,
                f,
                params.alg3_timeout(),
            )
            .with_record_window(1)
        })
        .collect();
    let mut sim = Simulator::new(cfg, schedule, programs);

    let bound = params.full_stack(f);
    let good_start = scenario.good_start();
    let deadline = TimePoint::new(good_start + bound * DEADLINE_FACTOR);

    let mut achieved_at = None;
    sim.run_until(deadline, |s| {
        let done = pi0.iter().all(|p| s.program(p).decision().is_some());
        if done && achieved_at.is_none() {
            achieved_at = Some(s.now().get());
        }
        done
    });

    let decisions = sim.programs().iter().map(Alg3Program::decision).collect();
    StackOutcome {
        measurement: Measurement {
            good_start,
            achieved_at,
            bound,
            rho0: None,
        },
        decisions,
        send_steps: sim.stats().send_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alg2_initial_scenario_within_theorem5() {
        let params = BoundParams::new(4, 1.0, 2.0);
        let pi0 = ProcessSet::full(4);
        let m = measure_alg2_space_uniform(params, pi0, 2, Scenario::Initial, 1);
        assert!(m.achieved_at.is_some(), "P_su achieved");
        // Observation slack: the last transition is observed at the receive
        // step following the Δ-delayed delivery.
        assert!(m.within_bound(params.delta + params.phi + 1.0), "{m:?}");
    }

    #[test]
    fn alg2_after_bad_within_theorem3() {
        let params = BoundParams::new(4, 1.0, 2.0);
        let pi0 = ProcessSet::full(4);
        for seed in 0..3 {
            let m = measure_alg2_space_uniform(params, pi0, 2, Scenario::rough(60.0), seed);
            assert!(m.achieved_at.is_some(), "seed {seed}: P_su achieved");
            assert!(
                m.within_bound(params.delta + params.phi + 1.0),
                "seed {seed}: {m:?}"
            );
        }
    }

    #[test]
    fn alg2_after_contact_plan_within_theorem3() {
        // Episodic d3/b2/c2: good_from = 9, so with round_len = 5 the
        // good period starts at τG = 40.
        let params = BoundParams::new(4, 1.0, 2.0);
        let pi0 = ProcessSet::full(4);
        let plan = ContactPlan::Episodic {
            dark: 3,
            bright: 2,
            cycles: 2,
        };
        for seed in 0..3 {
            let scenario = Scenario::contact(plan, seed, 5.0);
            assert!((scenario.good_start() - 40.0).abs() < 1e-12);
            let m = measure_alg2_space_uniform(params, pi0, 2, scenario, seed);
            assert!(m.achieved_at.is_some(), "seed {seed}: P_su achieved");
            assert!(
                m.within_bound(params.delta + params.phi + 1.0),
                "seed {seed}: {m:?}"
            );
        }
    }

    #[test]
    fn alg3_after_contact_plan_within_theorem6() {
        // One replica dark for 8 plan rounds, then permanently back.
        let params = BoundParams::new(4, 1.0, 2.0);
        let plan = ContactPlan::StoreAndForward { dark: 8 };
        let m = measure_alg3_kernel(params, 1, 2, Scenario::contact(plan, 5, 5.0), 9);
        assert!(m.achieved_at.is_some(), "P_k achieved");
        assert!(m.within_bound(alg3_slack(&params)), "{m:?}");
    }

    #[test]
    fn alg2_with_pi0_subset() {
        // π̄0 = {3} is down during the good period; Psu over {0,1,2}.
        let params = BoundParams::new(4, 1.0, 2.0);
        let pi0 = ProcessSet::from_indices(0..3);
        let m = measure_alg2_space_uniform(params, pi0, 2, Scenario::rough(40.0), 7);
        assert!(m.achieved_at.is_some());
    }

    /// Observation slack for Algorithm 3 measurements: the theorems count
    /// `P_k(·, ·, x)` as achieved when the round-`x` messages are received,
    /// but the harness observes `HO(p, x)` only when `T_p^x` executes — one
    /// INIT exchange later. Post-timeout steps alternate receive /
    /// INIT-resend, so the exchange costs up to `δ + (2n+2)φ`.
    fn alg3_slack(params: &BoundParams) -> f64 {
        params.delta + (2.0 * params.n as f64 + 2.0) * params.phi + 1.0
    }

    #[test]
    fn alg3_initial_scenario_within_theorem7() {
        let params = BoundParams::new(4, 1.0, 2.0);
        let m = measure_alg3_kernel(params, 1, 2, Scenario::Initial, 3);
        assert!(m.achieved_at.is_some(), "P_k achieved");
        assert!(m.within_bound(alg3_slack(&params)), "{m:?}");
    }

    #[test]
    fn alg3_after_bad_within_theorem6() {
        let params = BoundParams::new(5, 1.0, 2.0);
        for seed in 0..3 {
            let m = measure_alg3_kernel(params, 2, 2, Scenario::rough(80.0), seed);
            assert!(m.achieved_at.is_some(), "seed {seed}");
            assert!(m.within_bound(alg3_slack(&params)), "seed {seed}: {m:?}");
        }
    }

    #[test]
    fn full_stack_decides_within_bound() {
        let params = BoundParams::new(5, 1.0, 2.0);
        let f = 1;
        let out = measure_full_stack(params, f, Scenario::rough(50.0), 11);
        let m = &out.measurement;
        assert!(m.achieved_at.is_some(), "consensus reached: {out:?}");
        // The §4.2.2(c) bound counts rounds until P2_otr holds at the macro
        // level; the *decision* trails it by up to one macro-round of
        // micro-rounds, plus the usual observation slack.
        let slack = (f as f64 + 1.0) * params.alg3_round_cost() + alg3_slack(&params);
        assert!(m.within_bound(slack), "{m:?}");
        // Agreement among deciders.
        let decided: Vec<u64> = out.decisions.iter().flatten().copied().collect();
        assert!(!decided.is_empty());
        assert!(decided.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn measurement_accessors() {
        let m = Measurement {
            good_start: 10.0,
            achieved_at: Some(25.0),
            bound: 20.0,
            rho0: Some(3),
        };
        assert_eq!(m.empirical_length(), Some(15.0));
        assert!(m.within_bound(0.0));
        assert!((m.tightness().unwrap() - 0.75).abs() < 1e-12);
        let never = Measurement {
            achieved_at: None,
            ..m
        };
        assert_eq!(never.empirical_length(), None);
        assert!(!never.within_bound(100.0));
    }
}
