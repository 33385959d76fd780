//! The sweep: a cartesian scenario grid executed across every core.

use crate::par::{default_threads, par_map};
use crate::report::SweepReport;
use crate::scenario::{AdversarySpec, AlgorithmSpec, Scenario, ScenarioScratch, Verdict};

/// A builder for (algorithm × adversary × size × seed) sweeps.
///
/// ```
/// use ho_harness::{AdversarySpec, AlgorithmSpec, Sweep};
///
/// let report = Sweep::new()
///     .algorithms([AlgorithmSpec::OneThirdRule])
///     .adversaries([AdversarySpec::RandomLoss { loss: 0.3 }])
///     .sizes([4, 7])
///     .seeds(0..50)
///     .max_rounds(80)
///     .run();
/// assert_eq!(report.verdicts.len(), 100);
/// assert_eq!(report.violations, 0, "OTR is safe under any HO assignment");
/// ```
#[derive(Clone, Debug)]
pub struct Sweep {
    algorithms: Vec<AlgorithmSpec>,
    adversaries: Vec<AdversarySpec>,
    sizes: Vec<usize>,
    seeds: Vec<u64>,
    max_rounds: u64,
    cooldown_rounds: u64,
    monitor_predicates: bool,
    telemetry: bool,
    threads: Option<usize>,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep {
            algorithms: vec![AlgorithmSpec::OneThirdRule],
            adversaries: vec![AdversarySpec::FullDelivery],
            sizes: vec![4],
            seeds: (0..10).collect(),
            max_rounds: 100,
            cooldown_rounds: 0,
            monitor_predicates: false,
            telemetry: false,
            threads: None,
        }
    }
}

impl Sweep {
    /// An empty sweep with defaults (OTR, full delivery, n = 4, 10 seeds).
    #[must_use]
    pub fn new() -> Self {
        Sweep::default()
    }

    /// Sets the algorithms axis.
    #[must_use]
    pub fn algorithms(mut self, algorithms: impl IntoIterator<Item = AlgorithmSpec>) -> Self {
        self.algorithms = algorithms.into_iter().collect();
        self
    }

    /// Sets the adversaries axis.
    #[must_use]
    pub fn adversaries(mut self, adversaries: impl IntoIterator<Item = AdversarySpec>) -> Self {
        self.adversaries = adversaries.into_iter().collect();
        self
    }

    /// Sets the system-size axis.
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

    /// Sets the per-scenario round budget.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Keeps every scenario running for `rounds` extra rounds after all
    /// processes decide, with the safety checker still observing — the
    /// lever for testing decision *irrevocability* rather than mere
    /// decision.
    #[must_use]
    pub fn cooldown_rounds(mut self, rounds: u64) -> Self {
        self.cooldown_rounds = rounds;
        self
    }

    /// Streams a predicate monitor over every scenario: each verdict gains
    /// a `predicates` summary (kernel non-emptiness, largest kernel and
    /// space-uniform windows, first `P2_otr` round) evaluated online on
    /// the executor's round-observer hook — the trace stays in
    /// statistics-only mode and no row is ever retained.
    #[must_use]
    pub fn monitor_predicates(mut self, monitor: bool) -> Self {
        self.monitor_predicates = monitor;
        self
    }

    /// Runs every scenario with the flight recorder + metrics registry
    /// active (see [`ho_core::telemetry`]): each verdict gains a
    /// `telemetry` digest and, on a violation, the drained event ring.
    /// Recording only observes the run — verdicts are bit-identical to an
    /// unrecorded sweep (`tests/telemetry_equivalence.rs` pins this).
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
    /// (algorithm, adversary, size, seed).
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(
            self.algorithms.len() * self.adversaries.len() * self.sizes.len() * self.seeds.len(),
        );
        for &algorithm in &self.algorithms {
            for adversary in &self.adversaries {
                for &n in &self.sizes {
                    for &seed in &self.seeds {
                        out.push(Scenario {
                            algorithm,
                            adversary: *adversary,
                            n,
                            seed,
                            max_rounds: self.max_rounds,
                            cooldown_rounds: self.cooldown_rounds,
                            monitor_predicates: self.monitor_predicates,
                            telemetry: self.telemetry,
                        });
                    }
                }
            }
        }
        out
    }

    /// Runs every scenario across the worker pool and aggregates. Workers
    /// claim one scenario at a time and carry one [`ScenarioScratch`]
    /// each, so round buffers are reused from scenario to scenario.
    #[must_use]
    pub fn run(&self) -> SweepReport {
        let verdicts: Vec<Verdict> = par_map(
            &self.scenarios(),
            self.threads.unwrap_or_else(default_threads),
            ScenarioScratch::default,
            |scratch, s| s.run_reusing(scratch),
        );
        SweepReport::aggregate(verdicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_cartesian() {
        let sweep = Sweep::new()
            .algorithms(AlgorithmSpec::ALL)
            .adversaries([
                AdversarySpec::FullDelivery,
                AdversarySpec::RandomLoss { loss: 0.2 },
            ])
            .sizes([4, 5])
            .seeds(0..3);
        assert_eq!(sweep.scenarios().len(), 3 * 2 * 2 * 3);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let sweep = Sweep::new()
            .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
            .adversaries([AdversarySpec::RandomLoss { loss: 0.4 }])
            .sizes([4])
            .seeds(0..16)
            .max_rounds(60);
        let seq = sweep.clone().threads(1).run();
        let par = sweep.threads(4).run();
        let key = |r: &SweepReport| {
            r.verdicts
                .iter()
                .map(|v| (v.id(), v.decided_round, v.decision_value))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&seq), key(&par), "scenario outcomes are deterministic");
    }

    #[test]
    fn monitored_sweep_reports_predicates_grid_wide() {
        let report = Sweep::new()
            .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
            .adversaries([
                AdversarySpec::FullDelivery,
                AdversarySpec::RandomLoss { loss: 0.3 },
            ])
            .sizes([4])
            .seeds(0..4)
            .monitor_predicates(true)
            .run();
        assert_eq!(report.predicate_totals.monitored, report.scenarios);
        assert_eq!(
            report.predicate_totals.rounds, report.totals.rounds,
            "every executed round is observed"
        );
        assert!(report.predicate_totals.p2otr_scenarios > 0);
        // The predicate fields survive the verdict's JSON round trip.
        let json = crate::verdict_json(&report.verdicts[0]).pretty();
        let parsed = crate::Json::parse(&json).expect("round-trips");
        let crate::Json::Obj(map) = parsed else {
            panic!("object expected")
        };
        assert!(map.contains_key("predicates"));
        assert!(json.contains("first_p2otr"));
        // Unmonitored sweeps carry no predicate fields.
        let plain = Sweep::new().seeds(0..2).run();
        assert_eq!(plain.predicate_totals.monitored, 0);
        assert!(!crate::verdict_json(&plain.verdicts[0])
            .pretty()
            .contains("\"predicates\""));
    }

    #[test]
    fn report_aggregates_match_verdicts() {
        let report = Sweep::new()
            .adversaries([AdversarySpec::FullDelivery])
            .sizes([4])
            .seeds(0..5)
            .run();
        assert_eq!(report.scenarios, 5);
        assert_eq!(report.decided, 5);
        assert_eq!(report.violations, 0);
        let allocs: u64 = report.verdicts.iter().map(|v| v.payload_allocs).sum();
        assert_eq!(report.totals.payload_allocs, allocs);
    }
}
