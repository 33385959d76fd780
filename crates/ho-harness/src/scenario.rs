//! The scenario space: (algorithm × adversary × size × seed) descriptors
//! and the execution of one scenario on the round-synchronous machine.

use ho_core::adversary::{
    Adversary, CrashRecovery, EventuallyGood, FullDelivery, KernelOnly, Partition, RandomLoss,
};
use ho_core::algorithms::{LastVoting, OneThirdRule, UniformVoting};
use ho_core::contact::{ContactPlan, ContactPlanAdversary};
use ho_core::executor::{RoundExecutor, RoundScratch, RunError};
use ho_core::process::ProcessSet;
use ho_core::round::Round;
use ho_core::telemetry::{Event, EventKind, Telemetry, TelemetrySummary};
use ho_core::trace::TraceMode;
use ho_core::HoAlgorithm;
use ho_predicates::monitor::{PredicateSummary, ScenarioMonitor};

/// Which consensus algorithm a scenario runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgorithmSpec {
    /// Algorithm 1 of the paper (broadcast, `P_otr`).
    OneThirdRule,
    /// Two-round voting phases (broadcast, needs `P_nek` for safety).
    UniformVoting,
    /// HO Paxos: four-round coordinator phases (unicast-heavy).
    LastVoting,
}

impl AlgorithmSpec {
    /// All supported algorithms.
    pub const ALL: [AlgorithmSpec; 3] = [
        AlgorithmSpec::OneThirdRule,
        AlgorithmSpec::UniformVoting,
        AlgorithmSpec::LastVoting,
    ];

    /// Stable name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmSpec::OneThirdRule => "one_third_rule",
            AlgorithmSpec::UniformVoting => "uniform_voting",
            AlgorithmSpec::LastVoting => "last_voting",
        }
    }
}

/// Which fault environment a scenario runs under. Parameters that the
/// underlying adversaries draw randomly are derived deterministically from
/// the scenario seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdversarySpec {
    /// No transmission faults.
    FullDelivery,
    /// Independent per-transmission loss (the DT class).
    RandomLoss {
        /// Loss probability in `[0, 1]`.
        loss: f64,
    },
    /// A static partition into `blocks` contiguous blocks.
    Partition {
        /// Number of blocks (≥ 1).
        blocks: usize,
    },
    /// Transient outages: each process is down for a seed-derived interval.
    CrashRecovery,
    /// Aggressive loss that always preserves a non-empty kernel
    /// (UniformVoting's safety environment).
    KernelOnly {
        /// Loss probability for non-pivot transmissions.
        loss: f64,
    },
    /// Chaos, then uniform delivery over all of Π (the liveness
    /// environment of Theorem 1).
    EventuallyGood {
        /// Rounds of chaos before the good period.
        bad_rounds: u64,
        /// Loss probability during the chaos.
        loss: f64,
    },
    /// A deterministic schedule of directed link up/down intervals
    /// (episodic partitions, rotating contact windows, store-and-forward
    /// darkness), permanently all-up from the plan's `good_from()` round.
    ContactPlan {
        /// The link schedule.
        plan: ContactPlan,
    },
}

/// A probability rendered as an integer permille, keeping report names
/// free of `.` (which the scenario-id scheme reserves for nothing, but a
/// float's `Display` makes `0.3` and `0.30`-style labels ambiguous across
/// grids).
pub(crate) fn permille(p: f64) -> u64 {
    (p * 1000.0).round() as u64
}

impl AdversarySpec {
    /// Stable name used in reports. Probabilities render as integer
    /// permille (`random_loss_p300` = 30% loss) so every name is dot-free
    /// and two grids can never collide on float formatting.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            AdversarySpec::FullDelivery => "full_delivery".into(),
            AdversarySpec::RandomLoss { loss } => format!("random_loss_p{}", permille(*loss)),
            AdversarySpec::Partition { blocks } => format!("partition_{blocks}"),
            AdversarySpec::CrashRecovery => "crash_recovery".into(),
            AdversarySpec::KernelOnly { loss } => format!("kernel_only_p{}", permille(*loss)),
            AdversarySpec::EventuallyGood { bad_rounds, loss } => {
                format!("eventually_good_{bad_rounds}_p{}", permille(*loss))
            }
            AdversarySpec::ContactPlan { plan } => plan.label(),
        }
    }

    /// The contact plan, when this spec is one.
    #[must_use]
    pub fn contact_plan(&self) -> Option<ContactPlan> {
        match self {
            AdversarySpec::ContactPlan { plan } => Some(*plan),
            _ => None,
        }
    }

    /// Builds the concrete adversary for `n` processes under `seed`.
    #[must_use]
    pub fn build(&self, n: usize, seed: u64) -> Box<dyn Adversary + Send> {
        match *self {
            AdversarySpec::FullDelivery => Box::new(FullDelivery),
            AdversarySpec::RandomLoss { loss } => Box::new(RandomLoss::new(loss, seed)),
            AdversarySpec::Partition { blocks } => {
                let blocks = blocks.clamp(1, n);
                // Contiguous blocks of (roughly) equal size.
                let per = n.div_ceil(blocks);
                let sets: Vec<ProcessSet> = (0..blocks)
                    .map(|b| ProcessSet::from_indices((b * per)..(((b + 1) * per).min(n))))
                    .filter(|s| !s.is_empty())
                    .collect();
                Box::new(Partition::new(sets))
            }
            AdversarySpec::CrashRecovery => {
                // Seed-derived outages: each process is down once, for a
                // window whose start and length depend on the seed.
                let outages: Vec<(usize, Round, Round)> = (0..n)
                    .map(|q| {
                        let h = mix(seed, q as u64);
                        let start = 1 + h % 8;
                        let len = 1 + (h >> 8) % 4;
                        (q, Round(start), Round(start + len))
                    })
                    .collect();
                Box::new(CrashRecovery::new(n, &outages))
            }
            AdversarySpec::KernelOnly { loss } => Box::new(KernelOnly::new(loss, seed)),
            AdversarySpec::EventuallyGood { bad_rounds, loss } => Box::new(EventuallyGood::new(
                bad_rounds,
                ProcessSet::full(n),
                loss,
                seed,
            )),
            AdversarySpec::ContactPlan { plan } => Box::new(ContactPlanAdversary::new(plan, seed)),
        }
    }
}

/// SplitMix64-style mixing for seed-derived scenario parameters.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One cell of the sweep: a fully determined run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The algorithm under test.
    pub algorithm: AlgorithmSpec,
    /// The fault environment.
    pub adversary: AdversarySpec,
    /// Number of processes.
    pub n: usize,
    /// The seed deriving initial values and adversary randomness.
    pub seed: u64,
    /// Round budget before the run is declared undecided.
    pub max_rounds: u64,
    /// Extra rounds to keep executing *after* every process has decided,
    /// with the safety checker still observing — this is what turns
    /// "decided" into "decided irrevocably": a decision revoked or changed
    /// in any cooldown round surfaces as a violation.
    pub cooldown_rounds: u64,
    /// Whether to stream a [`ScenarioMonitor`] over the run and report a
    /// [`PredicateSummary`] in the verdict. Monitoring rides the
    /// executor's round-observer hook, so the trace still runs in
    /// statistics-only mode — no row is ever retained.
    pub monitor_predicates: bool,
    /// Whether to run with the flight recorder + metrics registry active
    /// (see [`ho_core::telemetry`]). Recording only observes the run —
    /// the verdict is bit-identical either way — and adds a
    /// [`TelemetrySummary`] to the verdict, plus the drained event ring
    /// when the run ends in a violation.
    pub telemetry: bool,
}

impl Scenario {
    /// Seed-derived initial values: a small value domain so that quorums
    /// and ties are actually exercised.
    #[must_use]
    pub fn initial_values(&self) -> Vec<u64> {
        (0..self.n)
            .map(|p| mix(self.seed, 0x5eed ^ p as u64) % 5)
            .collect()
    }

    /// A stable identifier for reports.
    #[must_use]
    pub fn id(&self) -> String {
        format!(
            "{}/{}/n{}/s{}",
            self.algorithm.name(),
            self.adversary.name(),
            self.n,
            self.seed
        )
    }

    /// Executes the scenario to completion and reports the verdict.
    #[must_use]
    pub fn run(&self) -> Verdict {
        self.run_reusing(&mut ScenarioScratch::default())
    }

    /// Executes the scenario reusing a worker-owned scratch: the executor's
    /// type-independent round buffers survive from scenario to scenario, so
    /// a sweep worker stops paying the warm-up allocations per scenario.
    /// The verdict is identical to [`Scenario::run`]'s.
    #[must_use]
    pub fn run_reusing(&self, scratch: &mut ScenarioScratch) -> Verdict {
        match self.algorithm {
            AlgorithmSpec::OneThirdRule => self.run_with(OneThirdRule::new(self.n), scratch),
            AlgorithmSpec::UniformVoting => self.run_with(UniformVoting::new(self.n), scratch),
            AlgorithmSpec::LastVoting => self.run_with(LastVoting::new(self.n), scratch),
        }
    }

    fn run_with<A>(&self, alg: A, scratch: &mut ScenarioScratch) -> Verdict
    where
        A: HoAlgorithm<Value = u64>,
    {
        let start = std::time::Instant::now();
        let mut adversary = self.adversary.build(self.n, self.seed);
        // The sweep never reads rows back — verdicts come from the
        // consensus checker, the running stats and (when enabled) the
        // streaming predicate monitor — so the trace runs in the
        // statistics-only mode; with monitoring off the per-round support
        // sets are never even computed.
        let mut exec = RoundExecutor::with_scratch(
            alg,
            self.initial_values(),
            TraceMode::Off,
            std::mem::take(&mut scratch.round),
        );
        if self.telemetry {
            // Reuse the worker's ring across scenarios: the first
            // telemetry-on scenario allocates it, the rest reset it.
            let mut telemetry = std::mem::take(&mut scratch.telemetry);
            if !telemetry.is_on() {
                telemetry = Telemetry::on();
            }
            telemetry.reset();
            exec.set_telemetry(telemetry);
        }
        let mut bank = self
            .monitor_predicates
            .then(|| ScenarioMonitor::new(self.n));
        let mut observer = bank.as_mut();
        let (decided_round, mut violation) = match exec.run_until_all_decided_observed(
            &mut adversary,
            self.max_rounds,
            &mut observer,
        ) {
            Ok(r) => (Some(r.get()), None),
            Err(RunError::MaxRoundsExceeded { .. }) => (None, None),
            Err(RunError::Violation(v)) => (None, Some(v.to_string())),
        };
        if violation.is_none() && self.cooldown_rounds > 0 {
            // Keep the machine running past the decision (or the budget):
            // the checker observes every round, so a revoked or changed
            // decision here becomes the verdict's violation.
            if let Err(RunError::Violation(v)) =
                exec.run_observed(&mut adversary, self.cooldown_rounds, &mut observer)
            {
                violation = Some(v.to_string());
            }
        }
        let stats = exec.message_stats();
        let predicates = bank.map(|b| b.summary());
        let mut telemetry_handle = exec.take_telemetry();
        if let Some(p) = &predicates {
            // The model layer's witness: the first round of a P2_otr
            // window, stamped after the run (the monitor streams, so
            // there is no per-round hook to catch it live).
            if let Some(r) = p.first_p2otr {
                telemetry_handle.record(
                    r,
                    r as f64,
                    Event::ALL,
                    EventKind::PredicateWitness { witness_round: r },
                );
            }
        }
        let telemetry = telemetry_handle.summary();
        // Violations are rare and terminal, so draining the ring into an
        // owned forensic payload may allocate — it is outside the round
        // loop and outside the steady-state alloc proof.
        let forensic_events = (violation.is_some() && telemetry_handle.is_on())
            .then(|| telemetry_handle.events().copied().collect());
        scratch.telemetry = telemetry_handle;
        let verdict = Verdict {
            algorithm: self.algorithm.name(),
            adversary: self.adversary.name(),
            n: self.n,
            seed: self.seed,
            decided_round,
            decided_processes: exec.checker().decided().len(),
            decision_value: exec.checker().decision_value().copied(),
            violation,
            rounds_run: exec.current_round().get(),
            payload_allocs: stats.payload_allocs,
            payload_reuses: stats.payload_reuses,
            delivered_messages: stats.delivered,
            predicates,
            telemetry,
            forensic_events,
            wall_nanos: start.elapsed().as_nanos() as u64,
        };
        // Hand the round buffers back for the next scenario.
        scratch.round = exec.into_scratch();
        verdict
    }
}

/// Worker-owned buffers reused across scenarios by
/// [`Scenario::run_reusing`] (and the rsm layer's
/// [`RsmScenario::run_reusing`](crate::rsm::RsmScenario::run_reusing)).
#[derive(Debug, Default)]
pub struct ScenarioScratch {
    pub(crate) round: RoundScratch,
    /// Per-shard round buffers for the rsm layer's sharded scenarios
    /// (resized to the scenario's shard count on use).
    pub(crate) shard_rounds: Vec<RoundScratch>,
    /// The worker's flight-recorder ring, kept warm across scenarios:
    /// the first telemetry-on scenario allocates it, every later one
    /// resets and reuses it (off scenarios leave it untouched).
    pub(crate) telemetry: Telemetry,
}

/// The outcome of one scenario.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Adversary name.
    pub adversary: String,
    /// Number of processes.
    pub n: usize,
    /// The scenario seed.
    pub seed: u64,
    /// The round by which *all* processes had decided, if they did.
    pub decided_round: Option<u64>,
    /// How many processes had decided when the run ended.
    pub decided_processes: usize,
    /// The common decision value, if anyone decided.
    pub decision_value: Option<u64>,
    /// A consensus safety violation (agreement, integrity/validity, or
    /// irrevocability), if the checker caught one.
    pub violation: Option<String>,
    /// Rounds actually executed.
    pub rounds_run: u64,
    /// Payload constructions under the SendPlan kernel (O(n) per broadcast
    /// round).
    pub payload_allocs: u64,
    /// Payload constructions written into recycled buffers — zero
    /// allocator traffic (fresh allocations are
    /// `payload_allocs − payload_reuses`).
    pub payload_reuses: u64,
    /// Messages delivered into mailboxes.
    pub delivered_messages: u64,
    /// Streamed predicate statistics (`Some` iff
    /// [`Scenario::monitor_predicates`] was set): which communication
    /// predicates held, when, and for how long.
    pub predicates: Option<PredicateSummary>,
    /// The run's telemetry digest (`Some` iff [`Scenario::telemetry`]
    /// was set): event counts by kind, ring drop count, per-phase time
    /// breakdown.
    pub telemetry: Option<TelemetrySummary>,
    /// The drained flight-recorder ring, present only when the run ended
    /// in a safety violation with telemetry on — the raw material of the
    /// forensic artifact.
    pub forensic_events: Option<Vec<Event>>,
    /// Wall-clock nanoseconds for this scenario.
    pub wall_nanos: u64,
}

impl Verdict {
    /// The scenario identifier ([`Scenario::id`]), derived on demand —
    /// building the string per scenario was measurable sweep overhead.
    #[must_use]
    pub fn id(&self) -> String {
        format!(
            "{}/{}/n{}/s{}",
            self.algorithm, self.adversary, self.n, self.seed
        )
    }

    /// Whether the run was safe (possibly undecided, but never wrong).
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.violation.is_none()
    }

    /// Whether every process decided within the budget.
    #[must_use]
    pub fn all_decided(&self) -> bool {
        self.decided_round.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(algorithm: AlgorithmSpec, adversary: AdversarySpec) -> Scenario {
        Scenario {
            algorithm,
            adversary,
            n: 4,
            seed: 7,
            max_rounds: 60,
            cooldown_rounds: 0,
            monitor_predicates: false,
            telemetry: false,
        }
    }

    #[test]
    fn monitoring_is_verdict_neutral_and_fills_predicates() {
        for adversary in [
            AdversarySpec::FullDelivery,
            AdversarySpec::RandomLoss { loss: 0.3 },
            AdversarySpec::KernelOnly { loss: 0.8 },
        ] {
            let mut s = scenario(AlgorithmSpec::OneThirdRule, adversary);
            s.cooldown_rounds = 10;
            let plain = s.run();
            s.monitor_predicates = true;
            let monitored = s.run();
            assert_eq!(plain.decided_round, monitored.decided_round);
            assert_eq!(plain.decision_value, monitored.decision_value);
            assert_eq!(plain.violation, monitored.violation);
            assert_eq!(plain.delivered_messages, monitored.delivered_messages);
            assert!(plain.predicates.is_none());
            let p = monitored.predicates.expect("summary present");
            assert_eq!(p.rounds, monitored.rounds_run, "every round observed");
        }
    }

    #[test]
    fn monitored_full_delivery_sees_p2otr_immediately() {
        let mut s = scenario(AlgorithmSpec::OneThirdRule, AdversarySpec::FullDelivery);
        s.monitor_predicates = true;
        s.cooldown_rounds = 5;
        let p = s.run().predicates.unwrap();
        assert_eq!(p.first_p2otr, Some(1), "rounds 1 and 2 are both full");
        assert_eq!(p.nek_rounds, p.rounds, "kernel is Π every round");
        assert_eq!(p.first_empty_kernel, None);
        assert_eq!(p.largest_kernel_window, p.rounds);
        assert_eq!(p.largest_uniform_window, p.rounds);
    }

    #[test]
    fn monitored_kernel_only_preserves_nek() {
        // The KernelOnly adversary exists to preserve UniformVoting's
        // safety environment; the monitor must agree.
        let mut s = scenario(
            AlgorithmSpec::UniformVoting,
            AdversarySpec::KernelOnly { loss: 0.8 },
        );
        s.monitor_predicates = true;
        for seed in 0..10 {
            s.seed = seed;
            let v = s.run();
            let p = v.predicates.unwrap();
            assert_eq!(
                p.first_empty_kernel, None,
                "seed {seed}: kernel_only emptied the kernel"
            );
            assert_eq!(p.nek_rounds, p.rounds);
            assert!(v.is_safe(), "seed {seed}: UV is safe under P_nek");
        }
    }

    #[test]
    fn cooldown_rounds_run_past_the_decision() {
        let mut s = scenario(AlgorithmSpec::OneThirdRule, AdversarySpec::FullDelivery);
        let before = s.run();
        s.cooldown_rounds = 25;
        let after = s.run();
        assert_eq!(before.decided_round, after.decided_round);
        assert!(after.is_safe(), "decisions must survive the cooldown");
        assert_eq!(
            after.rounds_run,
            before.rounds_run + 25,
            "cooldown rounds actually execute"
        );
    }

    #[test]
    fn full_delivery_decides_quickly() {
        let v = scenario(AlgorithmSpec::OneThirdRule, AdversarySpec::FullDelivery).run();
        assert!(v.is_safe());
        assert!(v.all_decided());
        assert!(v.decided_round.unwrap() <= 3);
        // Validity: the decision is one of the proposals.
        let s = scenario(AlgorithmSpec::OneThirdRule, AdversarySpec::FullDelivery);
        assert!(s.initial_values().contains(&v.decision_value.unwrap()));
    }

    #[test]
    fn partition_blocks_are_disjoint_and_cover() {
        for n in 1..=9 {
            for blocks in 1..=4 {
                let _ = AdversarySpec::Partition { blocks }.build(n, 1);
            }
        }
    }

    #[test]
    fn verdict_counts_plan_allocs_below_deliveries() {
        let v = scenario(
            AlgorithmSpec::OneThirdRule,
            AdversarySpec::EventuallyGood {
                bad_rounds: 3,
                loss: 0.5,
            },
        )
        .run();
        // Broadcast algorithm at n = 4: the plan kernel allocates n per
        // round for up to n² deliveries per round.
        assert!(v.payload_allocs < v.delivered_messages);
        assert_eq!(v.payload_allocs, 4 * v.rounds_run);
    }

    #[test]
    fn scratch_reuse_is_verdict_neutral() {
        // One scratch threaded through mixed algorithms and sizes must
        // reproduce the fresh-scratch verdicts exactly.
        let mut scratch = ScenarioScratch::default();
        for (algorithm, n) in [
            (AlgorithmSpec::OneThirdRule, 7),
            (AlgorithmSpec::LastVoting, 4),
            (AlgorithmSpec::UniformVoting, 10),
            (AlgorithmSpec::OneThirdRule, 4),
        ] {
            let s = Scenario {
                algorithm,
                adversary: AdversarySpec::RandomLoss { loss: 0.3 },
                n,
                seed: 11,
                max_rounds: 60,
                cooldown_rounds: 5,
                monitor_predicates: false,
                telemetry: false,
            };
            let fresh = s.run();
            let reused = s.run_reusing(&mut scratch);
            assert_eq!(fresh.decided_round, reused.decided_round);
            assert_eq!(fresh.decision_value, reused.decision_value);
            assert_eq!(fresh.violation, reused.violation);
            assert_eq!(fresh.delivered_messages, reused.delivered_messages);
            assert_eq!(fresh.payload_allocs, reused.payload_allocs);
        }
    }

    #[test]
    fn broadcast_scenarios_reuse_almost_every_payload() {
        let v = scenario(AlgorithmSpec::OneThirdRule, AdversarySpec::FullDelivery).run();
        // OneThirdRule writes through the plan slot: only round 1 allocates.
        assert_eq!(v.payload_allocs - v.payload_reuses, v.n as u64);
    }

    #[test]
    fn same_seed_same_verdict() {
        let s = scenario(
            AlgorithmSpec::LastVoting,
            AdversarySpec::RandomLoss { loss: 0.3 },
        );
        let a = s.run();
        let b = s.run();
        assert_eq!(a.decided_round, b.decided_round);
        assert_eq!(a.decision_value, b.decision_value);
        assert_eq!(a.delivered_messages, b.delivered_messages);
    }

    #[test]
    fn crash_recovery_outages_are_seed_deterministic() {
        let s = scenario(AlgorithmSpec::OneThirdRule, AdversarySpec::CrashRecovery);
        assert_eq!(s.run().decided_round, s.run().decided_round);
    }

    #[test]
    fn contact_plan_scenarios_decide_after_reconnection() {
        // OTR cannot decide across an episodic partition or a rotating
        // window, but every plan ends in permanent full delivery — the
        // run must decide there and stay safe throughout.
        for plan in [
            ContactPlan::Episodic {
                dark: 4,
                bright: 1,
                cycles: 3,
            },
            ContactPlan::Rotating {
                window: 3,
                windows: 4,
            },
            ContactPlan::StoreAndForward { dark: 12 },
        ] {
            let mut s = scenario(
                AlgorithmSpec::OneThirdRule,
                AdversarySpec::ContactPlan { plan },
            );
            s.max_rounds = plan.good_from() + 20;
            s.cooldown_rounds = 5;
            for seed in 0..3 {
                s.seed = seed;
                let v = s.run();
                assert!(v.is_safe(), "{}: {:?}", v.id(), v.violation);
                assert!(v.all_decided(), "{}: undecided", v.id());
                assert!(
                    v.decided_round.unwrap() <= plan.good_from() + 3,
                    "{}: decided only at {:?}",
                    v.id(),
                    v.decided_round
                );
            }
        }
    }

    #[test]
    fn adversary_names_are_dot_free_and_distinct() {
        let specs = [
            AdversarySpec::FullDelivery,
            AdversarySpec::RandomLoss { loss: 0.2 },
            AdversarySpec::RandomLoss { loss: 0.3 },
            AdversarySpec::Partition { blocks: 2 },
            AdversarySpec::CrashRecovery,
            AdversarySpec::KernelOnly { loss: 0.8 },
            AdversarySpec::EventuallyGood {
                bad_rounds: 6,
                loss: 0.5,
            },
            AdversarySpec::ContactPlan {
                plan: ContactPlan::StoreAndForward { dark: 8 },
            },
        ];
        let names: Vec<String> = specs.iter().map(AdversarySpec::name).collect();
        for name in &names {
            assert!(!name.contains('.'), "float leaked into {name}");
        }
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "{names:?}");
        assert_eq!(names[1], "random_loss_p200");
        assert_eq!(names[6], "eventually_good_6_p500");
    }
}
