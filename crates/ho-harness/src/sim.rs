//! The sim-layer axis: sweeping the predicate *implementation* stack.
//!
//! The model-level sweep ([`Sweep`](crate::Sweep)) exercises the paper's
//! *upper* layer — consensus algorithms against adversarial HO
//! assignments. This module sweeps the *lower* layer of Figure 1: the
//! system-level simulator running Algorithms 2 and 3 over lossy,
//! crash-prone, partially synchronous links, with a per-scenario verdict
//! checking the **delivered predicate** — did the implementation actually
//! establish the `P_su` / `P_k` window the theorems promise, within the
//! theorem bound, under this fault model and seed?
//!
//! Both layers ride the same [`SendPlan`](ho_core::SendPlan) kernel and
//! pooled-payload runtime, and both report the same
//! [`MessageStats`](ho_core::MessageStats) accounting, so a grid's results
//! aggregate uniformly into one [`SimReport`].

use std::time::Instant;

use ho_core::contact::ContactPlan;
use ho_core::executor::MessageStats;
use ho_core::telemetry::{Event, Telemetry, TelemetrySummary};
use ho_predicates::bounds::BoundParams;
use ho_predicates::measure::{
    run_alg2_scenario_with, run_alg3_scenario_with, Scenario as GoodPeriodStart, SimLayerScratch,
};
use ho_predicates::SimMeasurement;
use ho_sim::BadPeriodConfig;

use crate::par::{default_threads, par_map};
use crate::report::MessageTotals;
use crate::scenario::permille;

/// Normalized process-speed bound `φ` used by the canonical sim grid.
const PHI: f64 = 1.0;
/// Normalized transmission delay `δ` used by the canonical sim grid.
const DELTA: f64 = 2.0;

/// Which predicate-implementation algorithm a sim scenario runs. The upper
/// layer is OneThirdRule in both cases — the scenario measures the
/// *implementation* layer, not consensus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImplementationSpec {
    /// Algorithm 2: `P_su(Π, ρ0, ρ0+x−1)` in a π0-down good period
    /// (π0 = Π here — everyone is up and synchronous).
    Alg2,
    /// Algorithm 3 with resilience `f` (`f < n/2`): `P_k(π0, ρ0, ρ0+x−1)`
    /// in a π0-arbitrary good period, `π0` the first `n − f` processes.
    Alg3 {
        /// The resilience parameter.
        f: usize,
    },
}

impl ImplementationSpec {
    /// Stable name used in reports.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            ImplementationSpec::Alg2 => "alg2_space_uniform".into(),
            ImplementationSpec::Alg3 { f } => format!("alg3_kernel_f{f}"),
        }
    }
}

/// The link-fault model preceding (and shaping) the good period.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkFaultSpec {
    /// The good period is initial (`τG = 0`) — a "nice" run; Theorems 5/7
    /// give the bound.
    GoodFromStart,
    /// A loss-heavy bad period of length `bad_len`, then good; Theorems
    /// 3/6 give the bound.
    LossyThenGood {
        /// Length of the bad period (normalized units).
        bad_len: f64,
        /// Per-transmission loss probability during the bad period.
        loss: f64,
    },
    /// The default chaotic bad period (loss, crashes, slowdown, delay),
    /// then good.
    CrashyThenGood {
        /// Length of the bad period (normalized units).
        bad_len: f64,
    },
    /// A bad period whose only faults are process omissions (§2.2's ST/DT
    /// classes), then good.
    OmissiveThenGood {
        /// Length of the bad period (normalized units).
        bad_len: f64,
        /// Send-omission probability.
        send: f64,
        /// Receive-omission probability.
        recv: f64,
    },
    /// A [`ContactPlan`] link schedule (scheduled link outages over calm
    /// period rules), then good from the plan's horizon; Theorems 3/6
    /// give the bound. The plan's seed-rotated choices derive from the
    /// scenario seed.
    ContactPlanThenGood {
        /// The link schedule preceding the good period.
        plan: ContactPlan,
        /// Real-time length mapped onto one plan round.
        round_len: f64,
    },
}

/// A length in normalized time units rendered as integer centiunits,
/// keeping fault names dot-free (`rl250` = round length 2.5).
fn centi(t: f64) -> u64 {
    (t * 100.0).round() as u64
}

impl LinkFaultSpec {
    /// Stable name used in reports. Probabilities render as integer
    /// permille and time lengths as integer centiunits, so every name is
    /// dot-free and unambiguous across grids.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            LinkFaultSpec::GoodFromStart => "good_from_start".into(),
            LinkFaultSpec::LossyThenGood { bad_len, loss } => {
                format!("lossy_then_good_t{}_p{}", centi(*bad_len), permille(*loss))
            }
            LinkFaultSpec::CrashyThenGood { bad_len } => {
                format!("crashy_then_good_t{}", centi(*bad_len))
            }
            LinkFaultSpec::OmissiveThenGood {
                bad_len,
                send,
                recv,
            } => format!(
                "omissive_then_good_t{}_p{}_p{}",
                centi(*bad_len),
                permille(*send),
                permille(*recv)
            ),
            LinkFaultSpec::ContactPlanThenGood { plan, round_len } => {
                format!("{}_rl{}", plan.label(), centi(*round_len))
            }
        }
    }

    /// The measurement-harness scenario this fault model maps to. `seed`
    /// drives a contact plan's seed-rotated choices; the other fault
    /// models draw their randomness inside the simulator and ignore it.
    #[must_use]
    pub fn good_period_start(&self, seed: u64) -> GoodPeriodStart {
        match *self {
            LinkFaultSpec::GoodFromStart => GoodPeriodStart::Initial,
            LinkFaultSpec::LossyThenGood { bad_len, loss } => GoodPeriodStart::AfterBad {
                bad_len,
                bad: BadPeriodConfig::lossy(loss),
            },
            LinkFaultSpec::CrashyThenGood { bad_len } => GoodPeriodStart::AfterBad {
                bad_len,
                bad: BadPeriodConfig::default(),
            },
            LinkFaultSpec::OmissiveThenGood {
                bad_len,
                send,
                recv,
            } => GoodPeriodStart::AfterBad {
                bad_len,
                bad: BadPeriodConfig::omissive(send, recv),
            },
            LinkFaultSpec::ContactPlanThenGood { plan, round_len } => {
                GoodPeriodStart::contact(plan, seed, round_len)
            }
        }
    }
}

/// One cell of the sim-layer sweep: a fully determined system-level run.
#[derive(Clone, Debug)]
pub struct SimScenario {
    /// The implementation algorithm under test.
    pub implementation: ImplementationSpec,
    /// The link-fault model.
    pub fault: LinkFaultSpec,
    /// Number of processes.
    pub n: usize,
    /// RNG seed (step jitter, loss, crash roulette).
    pub seed: u64,
    /// The predicate-window length `x` the run must deliver.
    pub window: u64,
    /// Runs the scenario with the flight recorder + metrics registry
    /// active. Recording only observes — the verdict is bit-identical to
    /// an unrecorded run (`tests/telemetry_equivalence.rs` pins this).
    pub telemetry: bool,
}

impl SimScenario {
    /// A stable identifier for reports.
    #[must_use]
    pub fn id(&self) -> String {
        format!(
            "{}/{}/n{}/s{}",
            self.implementation.name(),
            self.fault.name(),
            self.n,
            self.seed
        )
    }

    /// The observation slack added on top of the theorem bound: the
    /// theorems count message *reception*, the harness observes `HO(p, r)`
    /// only when `T_p^r` executes — one delivery (Algorithm 2) or one INIT
    /// exchange (Algorithm 3) later. The formulas live on [`BoundParams`],
    /// next to the theorem bounds they qualify.
    #[must_use]
    pub fn slack(&self) -> f64 {
        let params = BoundParams::new(self.n, PHI, DELTA);
        match self.implementation {
            ImplementationSpec::Alg2 => params.alg2_slack(),
            ImplementationSpec::Alg3 { .. } => params.alg3_slack(),
        }
    }

    /// Executes the scenario and reports the verdict: the delivered
    /// predicate checked against the implementation's promise.
    #[must_use]
    pub fn run(&self) -> SimVerdict {
        self.run_with(&mut SimLayerScratch::new())
    }

    /// [`run`](SimScenario::run) with reusable scratch storage, so batched
    /// sweeps recycle the event queue, process slots and reception buffers
    /// across scenarios instead of reallocating them per cell.
    #[must_use]
    pub fn run_with(&self, scratch: &mut SimLayerScratch) -> SimVerdict {
        let start = Instant::now();
        // The recorder ring lives in the scratch: a telemetry-on scenario
        // reuses the previous scenario's allocation (reset, not realloc),
        // a telemetry-off scenario must not inherit a stale ring.
        if self.telemetry {
            if !scratch.telemetry().is_on() {
                scratch.set_telemetry(Telemetry::on());
            }
        } else if scratch.telemetry().is_on() {
            scratch.set_telemetry(Telemetry::off());
        }
        let params = BoundParams::new(self.n, PHI, DELTA);
        let good_start = self.fault.good_period_start(self.seed);
        let outcome: SimMeasurement = match self.implementation {
            ImplementationSpec::Alg2 => run_alg2_scenario_with(
                params,
                ho_core::ProcessSet::full(self.n),
                self.window,
                good_start,
                self.seed,
                scratch,
            ),
            ImplementationSpec::Alg3 { f } => {
                run_alg3_scenario_with(params, f, self.window, good_start, self.seed, scratch)
            }
        };
        let m = &outcome.measurement;
        let achieved = m.achieved_at.is_some();
        let within_bound = m.within_bound(self.slack());
        // The paper's promise: a good period of the theorem-bound length
        // suffices. A run that never achieves the window (the deadline is
        // 6× the bound) or achieves it late contradicts the bound.
        let violation = if !achieved {
            Some(format!(
                "{}: predicate window never delivered (deadline 6x bound {:.1})",
                self.id(),
                m.bound
            ))
        } else if !within_bound {
            Some(format!(
                "{}: delivered at {:.2} past bound {:.2} + slack {:.2}",
                self.id(),
                m.empirical_length().unwrap_or(f64::NAN),
                m.bound,
                self.slack()
            ))
        } else {
            None
        };
        let wall_nanos = start.elapsed().as_nanos() as u64;
        // Forensics: a broken promise drains the ring (the last K events
        // leading up to the violation) out of the scratch before the next
        // scenario resets it.
        let forensic_events = (violation.is_some() && scratch.telemetry().is_on())
            .then(|| scratch.telemetry().events().copied().collect());
        SimVerdict {
            implementation: self.implementation.name(),
            fault: self.fault.name(),
            n: self.n,
            seed: self.seed,
            window: self.window,
            achieved,
            within_bound,
            empirical_length: m.empirical_length(),
            bound: m.bound,
            rho0: m.rho0,
            violation,
            max_round: outcome.max_round,
            send_steps: outcome.stats.send_steps,
            transmissions: outcome.stats.transmissions,
            dropped: outcome.stats.dropped,
            crashes: outcome.stats.crashes,
            messages: outcome.messages,
            events_dispatched: outcome.stats.events_dispatched,
            peak_queue_depth: outcome.stats.peak_queue_depth,
            wall_nanos,
            telemetry: outcome.telemetry,
            forensic_events,
        }
    }
}

/// The outcome of one sim-layer scenario.
#[derive(Clone, Debug)]
pub struct SimVerdict {
    /// Implementation name.
    pub implementation: String,
    /// Fault-model name.
    pub fault: String,
    /// Number of processes.
    pub n: usize,
    /// The scenario seed.
    pub seed: u64,
    /// The required predicate-window length.
    pub window: u64,
    /// Whether the predicate window was delivered at all.
    pub achieved: bool,
    /// Whether it was delivered within the theorem bound (+ slack).
    pub within_bound: bool,
    /// Good-period time until delivery.
    pub empirical_length: Option<f64>,
    /// The theorem bound for this scenario.
    pub bound: f64,
    /// The witnessing first round of the window.
    pub rho0: Option<u64>,
    /// The delivered-predicate violation, if the run broke the promise.
    pub violation: Option<String>,
    /// Highest round any process entered.
    pub max_round: u64,
    /// Send steps executed.
    pub send_steps: u64,
    /// Point-to-point transmissions.
    pub transmissions: u64,
    /// Transmissions dropped.
    pub dropped: u64,
    /// Crash events.
    pub crashes: u64,
    /// Unified message accounting (same struct as the model layer).
    pub messages: MessageStats,
    /// Events dispatched from the simulator's queue — the engine's unit
    /// of work.
    pub events_dispatched: u64,
    /// High-water mark of pending events in the simulator's queue.
    pub peak_queue_depth: u64,
    /// Wall-clock nanoseconds for this scenario. The run does not
    /// determine it, so no report aggregates it; `benchmark/` reads it.
    pub wall_nanos: u64,
    /// Telemetry digest (`Some` iff the scenario ran with the recorder
    /// on). A diagnostic — never part of equivalence comparisons.
    pub telemetry: Option<TelemetrySummary>,
    /// The drained flight-recorder ring, captured only when a
    /// telemetry-on run broke its promise — the raw material for a
    /// forensic artifact.
    pub forensic_events: Option<Vec<Event>>,
}

impl SimVerdict {
    /// Whether the run kept the implementation's promise.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.violation.is_none()
    }

    /// The scenario identifier.
    #[must_use]
    pub fn id(&self) -> String {
        format!(
            "{}/{}/n{}/s{}",
            self.implementation, self.fault, self.n, self.seed
        )
    }
}

/// A builder for (implementation × link-fault × size × seed) sim-layer
/// sweeps — the lower-layer sibling of [`Sweep`](crate::Sweep).
#[derive(Clone, Debug)]
pub struct SimSweep {
    implementations: Vec<ImplementationSpec>,
    faults: Vec<LinkFaultSpec>,
    sizes: Vec<usize>,
    seeds: Vec<u64>,
    window: u64,
    telemetry: bool,
    threads: Option<usize>,
}

impl Default for SimSweep {
    fn default() -> Self {
        SimSweep {
            implementations: vec![ImplementationSpec::Alg2],
            faults: vec![LinkFaultSpec::GoodFromStart],
            sizes: vec![4],
            seeds: (0..5).collect(),
            window: 2,
            telemetry: false,
            threads: None,
        }
    }
}

impl SimSweep {
    /// An empty sweep with defaults (Alg2, good from start, n = 4,
    /// 5 seeds, window 2).
    #[must_use]
    pub fn new() -> Self {
        SimSweep::default()
    }

    /// Sets the implementation axis.
    #[must_use]
    pub fn implementations(
        mut self,
        implementations: impl IntoIterator<Item = ImplementationSpec>,
    ) -> Self {
        self.implementations = implementations.into_iter().collect();
        self
    }

    /// Sets the link-fault axis.
    #[must_use]
    pub fn faults(mut self, faults: impl IntoIterator<Item = LinkFaultSpec>) -> Self {
        self.faults = faults.into_iter().collect();
        self
    }

    /// Sets the system-size axis. Sizes incompatible with an
    /// implementation's resilience (`f ≥ n/2` for Algorithm 3) are skipped
    /// for that implementation.
    #[must_use]
    pub fn sizes(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.sizes = sizes.into_iter().collect();
        self
    }

    /// Sets the seed axis.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the predicate-window length every scenario must deliver.
    #[must_use]
    pub fn window(mut self, window: u64) -> Self {
        assert!(window >= 1, "a predicate window spans at least one round");
        self.window = window;
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
    /// (implementation, fault, size, seed).
    #[must_use]
    pub fn scenarios(&self) -> Vec<SimScenario> {
        let mut out = Vec::new();
        for &implementation in &self.implementations {
            for &fault in &self.faults {
                for &n in &self.sizes {
                    if let ImplementationSpec::Alg3 { f } = implementation {
                        if 2 * f >= n {
                            continue; // resilience bound f < n/2
                        }
                    }
                    for &seed in &self.seeds {
                        out.push(SimScenario {
                            implementation,
                            fault,
                            n,
                            seed,
                            window: self.window,
                            telemetry: self.telemetry,
                        });
                    }
                }
            }
        }
        out
    }

    /// Runs every scenario across the worker pool and aggregates.
    #[must_use]
    pub fn run(&self) -> SimReport {
        let verdicts: Vec<SimVerdict> = par_map(
            &self.scenarios(),
            self.threads.unwrap_or_else(default_threads),
            SimLayerScratch::new,
            |scratch, s| s.run_with(scratch),
        );
        SimReport::aggregate(verdicts)
    }
}

/// The aggregated outcome of a [`SimSweep`] run — what `sweep --check`
/// gates as its `sim` section.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Per-scenario verdicts, in grid order.
    pub verdicts: Vec<SimVerdict>,
    /// Number of scenarios executed.
    pub scenarios: usize,
    /// Scenarios whose predicate window was delivered.
    pub achieved: usize,
    /// Scenarios that broke the implementation's promise.
    pub violations: usize,
    /// Events dispatched across the grid.
    pub events_dispatched: u64,
    /// Largest per-scenario queue high-water mark across the grid.
    pub peak_queue_depth: u64,
    /// Unified message-cost totals (same shape as the model layer's).
    pub totals: MessageTotals,
    /// Point-to-point transmissions across the grid.
    pub transmissions: u64,
    /// Transmissions dropped across the grid.
    pub dropped: u64,
    /// Crash events across the grid.
    pub crashes: u64,
}

impl SimReport {
    /// Folds verdicts into a report.
    #[must_use]
    pub fn aggregate(verdicts: Vec<SimVerdict>) -> Self {
        let scenarios = verdicts.len();
        let achieved = verdicts.iter().filter(|v| v.achieved).count();
        let violations = verdicts.iter().filter(|v| !v.is_ok()).count();
        let mut totals = MessageTotals::default();
        for v in &verdicts {
            totals.absorb_stats(&v.messages);
            totals.rounds += v.max_round;
        }
        SimReport {
            scenarios,
            achieved,
            violations,
            events_dispatched: verdicts.iter().map(|v| v.events_dispatched).sum(),
            peak_queue_depth: verdicts
                .iter()
                .map(|v| v.peak_queue_depth)
                .max()
                .unwrap_or(0),
            totals,
            transmissions: verdicts.iter().map(|v| v.transmissions).sum(),
            dropped: verdicts.iter().map(|v| v.dropped).sum(),
            crashes: verdicts.iter().map(|v| v.crashes).sum(),
            verdicts,
        }
    }

    /// The verdicts that broke the implementation's promise.
    #[must_use]
    pub fn violating(&self) -> Vec<&SimVerdict> {
        self.verdicts.iter().filter(|v| !v.is_ok()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_cartesian_with_resilience_filter() {
        let sweep = SimSweep::new()
            .implementations([ImplementationSpec::Alg2, ImplementationSpec::Alg3 { f: 2 }])
            .faults([LinkFaultSpec::GoodFromStart])
            .sizes([4, 5])
            .seeds(0..3);
        // Alg2 runs at both sizes; Alg3 f=2 needs n ≥ 5.
        assert_eq!(sweep.scenarios().len(), 2 * 3 + 3);
    }

    #[test]
    fn nice_runs_deliver_their_predicates_within_bound() {
        let report = SimSweep::new()
            .implementations([ImplementationSpec::Alg2, ImplementationSpec::Alg3 { f: 1 }])
            .faults([LinkFaultSpec::GoodFromStart])
            .sizes([4])
            .seeds(0..3)
            .run();
        assert_eq!(report.scenarios, 6);
        assert_eq!(report.achieved, 6, "{:?}", report.violating());
        assert_eq!(report.violations, 0, "{:?}", report.violating());
        assert!(report.totals.delivered > 0);
        assert!(report.totals.payload_allocs > 0);
    }

    #[test]
    fn rough_runs_still_deliver_after_the_bad_period() {
        let report = SimSweep::new()
            .implementations([ImplementationSpec::Alg2])
            .faults([
                LinkFaultSpec::LossyThenGood {
                    bad_len: 40.0,
                    loss: 0.5,
                },
                LinkFaultSpec::CrashyThenGood { bad_len: 40.0 },
            ])
            .sizes([4])
            .seeds(0..3)
            .run();
        assert_eq!(report.violations, 0, "{:?}", report.violating());
        assert!(report.crashes > 0 || report.dropped > 0, "faults happened");
    }

    #[test]
    fn contact_plan_faults_deliver_after_the_horizon() {
        let report = SimSweep::new()
            .implementations([ImplementationSpec::Alg2, ImplementationSpec::Alg3 { f: 1 }])
            .faults([LinkFaultSpec::ContactPlanThenGood {
                plan: ContactPlan::Episodic {
                    dark: 3,
                    bright: 2,
                    cycles: 2,
                },
                round_len: 5.0,
            }])
            .sizes([4])
            .seeds(0..3)
            .run();
        assert_eq!(report.scenarios, 6);
        assert_eq!(report.violations, 0, "{:?}", report.violating());
        assert!(
            report.dropped > 0,
            "scheduled outages dropped transmissions"
        );
        for v in &report.verdicts {
            assert!(
                v.id().contains("contact_episodic_d3b2c2_rl500"),
                "{}",
                v.id()
            );
        }
    }

    #[test]
    fn fault_names_are_dot_free() {
        let faults = [
            LinkFaultSpec::GoodFromStart,
            LinkFaultSpec::LossyThenGood {
                bad_len: 40.0,
                loss: 0.5,
            },
            LinkFaultSpec::CrashyThenGood { bad_len: 37.5 },
            LinkFaultSpec::OmissiveThenGood {
                bad_len: 40.0,
                send: 0.25,
                recv: 0.3,
            },
            LinkFaultSpec::ContactPlanThenGood {
                plan: ContactPlan::StoreAndForward { dark: 8 },
                round_len: 2.5,
            },
        ];
        for f in &faults {
            assert!(!f.name().contains('.'), "float leaked into {}", f.name());
        }
        assert_eq!(faults[1].name(), "lossy_then_good_t4000_p500");
        assert_eq!(faults[2].name(), "crashy_then_good_t3750");
        assert_eq!(faults[4].name(), "contact_store_forward_d8_rl250");
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let sweep = SimSweep::new()
            .implementations([ImplementationSpec::Alg2])
            .faults([LinkFaultSpec::GoodFromStart])
            .sizes([4])
            .seeds(0..6);
        let seq = sweep.clone().threads(1).run();
        let par = sweep.threads(4).run();
        let key = |r: &SimReport| {
            r.verdicts
                .iter()
                .map(|v| (v.id(), v.empirical_length, v.max_round, v.transmissions))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&seq), key(&par), "sim scenarios are deterministic");
    }

    #[test]
    fn verdicts_carry_unified_accounting() {
        let v = SimScenario {
            implementation: ImplementationSpec::Alg2,
            fault: LinkFaultSpec::GoodFromStart,
            n: 4,
            seed: 1,
            window: 2,
            telemetry: false,
        }
        .run();
        assert!(v.is_ok(), "{:?}", v.violation);
        // Every delivery entered a buffer; every send step constructed a
        // wire envelope (plus payloads): the same MessageStats shape the
        // executor reports.
        assert!(v.messages.delivered > 0);
        assert!(v.messages.payload_allocs >= v.send_steps);
        assert!(v.messages.payload_reuses > 0, "pools engage within a run");
    }
}
