//! Property-style sweep tests: consensus safety at scale.
//!
//! Each property drives the `Sweep` API over ≥ 100 seeds per cell and
//! asserts the consensus safety specification — agreement, validity
//! (integrity) and decision irrevocability — which the executor's
//! `ConsensusChecker` verifies online after every round. A scenario whose
//! verdict carries no violation passed all three for its entire run.
//!
//! Scoping note: OneThirdRule and LastVoting are safe under *any* HO
//! assignment, so they are swept under the full fault zoo (random loss,
//! partitions, crash–recovery). UniformVoting's safety predicate `P_nek`
//! requires a non-empty kernel every round — a single down process empties
//! the kernel — so its zero-violation sweep runs under kernel-preserving
//! environments, and a separate property asserts the harness *detects*
//! its agreement violations outside `P_nek` (the paper's reason for
//! stating the predicate at all).

use heardof::harness::{AdversarySpec, AlgorithmSpec, Sweep, SweepReport};

const SEEDS: u64 = 100;

fn assert_all_safe(report: &SweepReport, label: &str) {
    let violating = report.violating();
    assert!(
        violating.is_empty(),
        "{label}: {} of {} scenarios violated safety; first: {} -> {}",
        violating.len(),
        report.scenarios,
        violating[0].id(),
        violating[0].violation.as_deref().unwrap_or("?"),
    );
}

/// OTR and LastVoting: agreement, validity and irrevocability hold under
/// every adversary in the zoo, for every seed — no predicate needed.
#[test]
fn otr_and_last_voting_safe_under_full_fault_zoo() {
    let report = Sweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
        .adversaries([
            AdversarySpec::RandomLoss { loss: 0.35 },
            AdversarySpec::Partition { blocks: 2 },
            AdversarySpec::CrashRecovery,
        ])
        .sizes([4, 7])
        .seeds(0..SEEDS)
        .max_rounds(80)
        .run();
    assert_eq!(report.scenarios, 2 * 3 * 2 * SEEDS as usize);
    assert_all_safe(&report, "OTR/LastVoting under fault zoo");
}

/// UniformVoting within its safety predicate: kernel-preserving loss (a
/// rotating pivot heard by everyone) never produces a violation.
#[test]
fn uniform_voting_safe_within_pnek() {
    let report = Sweep::new()
        .algorithms([AlgorithmSpec::UniformVoting])
        .adversaries([
            AdversarySpec::FullDelivery,
            AdversarySpec::KernelOnly { loss: 0.8 },
        ])
        .sizes([4, 7])
        .seeds(0..SEEDS)
        .max_rounds(80)
        .run();
    assert_eq!(report.scenarios, 2 * 2 * SEEDS as usize);
    assert_all_safe(&report, "UniformVoting within P_nek");
}

/// UniformVoting outside `P_nek`: the sweep must *catch* agreement
/// violations (disjoint groups — in space under partitions/loss, in time
/// under staggered outages — confirm different votes). This is the
/// checker's sensitivity test: a harness that reported zero here would be
/// blind.
#[test]
fn uniform_voting_violations_outside_pnek_are_detected() {
    let report = Sweep::new()
        .algorithms([AlgorithmSpec::UniformVoting])
        .adversaries([
            AdversarySpec::RandomLoss { loss: 0.4 },
            AdversarySpec::Partition { blocks: 2 },
            AdversarySpec::CrashRecovery,
        ])
        .sizes([4, 7])
        .seeds(0..SEEDS)
        .max_rounds(80)
        .run();
    assert!(
        report.violations > 0,
        "expected detected agreement violations outside P_nek"
    );
    // Every reported violation is an agreement violation (never integrity:
    // decided values are always proposals; never a revocation: decisions
    // are sticky in all three algorithms).
    for v in report.violating() {
        let msg = v.violation.as_deref().unwrap();
        assert!(msg.contains("agreement violated"), "{}: {msg}", v.id());
    }
}

/// Liveness where the predicates hold: under eventually-good communication
/// every OTR and LastVoting scenario decides, and decisions are valid
/// proposals. (UniformVoting is excluded: the chaos prefix has empty
/// kernels, where UV is not even safe — see the detection property above.)
#[test]
fn eventually_good_decides_with_valid_values() {
    let adversary = AdversarySpec::EventuallyGood {
        bad_rounds: 5,
        loss: 0.6,
    };
    let report = Sweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
        .adversaries([adversary])
        .sizes([4])
        .seeds(0..SEEDS)
        .max_rounds(120)
        .run();
    assert_all_safe(&report, "eventually-good");
    for v in &report.verdicts {
        assert!(v.all_decided(), "{} never decided", v.id());
        // Validity, re-checked end-to-end from the verdict itself.
        let scenario = heardof::harness::Scenario {
            algorithm: AlgorithmSpec::ALL
                .into_iter()
                .find(|a| a.name() == v.algorithm)
                .unwrap(),
            adversary,
            n: v.n,
            seed: v.seed,
            max_rounds: 120,
            cooldown_rounds: 0,
            monitor_predicates: false,
            telemetry: false,
        };
        assert!(
            scenario
                .initial_values()
                .contains(&v.decision_value.unwrap()),
            "{}: decided a non-proposal",
            v.id()
        );
    }
}

/// Decision irrevocability, exercised beyond the decision round: the
/// cooldown keeps every scenario running for 100 rounds *after* all
/// processes decide — under continued chaos, not just clean delivery —
/// with the online checker observing each round. A decision revoked or
/// changed in the cooldown becomes a violation in the verdict.
#[test]
fn decisions_are_irrevocable_over_long_runs() {
    // All three algorithms survive a clean-delivery cooldown; OTR and
    // LastVoting additionally survive one that begins in chaos (UV stays
    // out of the chaotic cell — empty kernels are outside its safety
    // predicate, see above).
    let sweeps = [
        Sweep::new()
            .algorithms(AlgorithmSpec::ALL)
            .adversaries([AdversarySpec::FullDelivery]),
        Sweep::new()
            .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
            .adversaries([AdversarySpec::EventuallyGood {
                bad_rounds: 3,
                loss: 0.5,
            }]),
    ];
    for sweep in sweeps {
        let report = sweep
            .sizes([4, 7])
            .seeds(0..SEEDS)
            .max_rounds(500)
            .cooldown_rounds(100)
            .run();
        assert_all_safe(&report, "post-decision cooldown runs");
        assert_eq!(report.decided, report.scenarios);
        // The cooldown actually ran: every verdict executed well past
        // its decision round.
        for v in &report.verdicts {
            assert!(
                v.rounds_run >= v.decided_round.unwrap() + 100,
                "{}: no cooldown executed",
                v.id()
            );
        }
    }
}

/// The SendPlan acceptance criterion, measured across the whole sweep:
/// broadcast algorithms allocate O(n) payloads per round where the legacy
/// per-destination scheme cloned O(n²).
#[test]
fn sweep_confirms_o_n_payload_allocations() {
    let n = 7;
    let report = Sweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::UniformVoting])
        .adversaries([AdversarySpec::FullDelivery])
        .sizes([n])
        .seeds(0..SEEDS)
        .max_rounds(50)
        .run();
    for v in &report.verdicts {
        // Pure-broadcast algorithms: exactly n payloads per round.
        assert_eq!(v.payload_allocs, n as u64 * v.rounds_run, "{}", v.id());
        // Full delivery: n² deliveries per round, each of which the
        // per-destination scheme would have cloned.
        assert_eq!(
            v.delivered_messages,
            (n * n) as u64 * v.rounds_run,
            "{}",
            v.id()
        );
    }
}
