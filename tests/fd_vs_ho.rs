//! HO under the fault classes that defeat FD consensus; the FD side is
//! Appendix A of the paper.

use heardof::core::adversary::{CrashRecovery, CrashStop, FullDelivery, RandomLoss};
use heardof::core::algorithms::OneThirdRule;
use heardof::core::executor::RoundExecutor;
use heardof::core::process::ProcessSet;
use heardof::core::round::Round;

#[test]
fn criticism_1_ct_blocks_under_loss_ho_does_not() {
    // FD algorithms require reliable links; the HO algorithm treats loss as
    // ordinary transmission faults.
    for seed in 0..5 {
        let mut adv = RandomLoss::new(0.35, seed);
        let mut exec = RoundExecutor::new(OneThirdRule::new(3), vec![1, 2, 3]);
        let r = exec
            .run_until_all_decided(&mut adv, 500)
            .expect("OTR decides under the same loss");
        let decisions = exec.decisions();
        let v = decisions[0].expect("p0 decided");
        assert!(
            decisions.iter().all(|d| *d == Some(v)),
            "seed {seed}: agreement: {decisions:?}"
        );
        assert!([1, 2, 3].contains(&v), "seed {seed}: validity: decided {v}");
        // The slowest of the five seeds (seed 3) decides at round 15.
        assert!(r <= Round(15), "seed {seed}: decided at {r:?}");
    }
}

#[test]
fn criticism_2_crash_recovery_gap() {
    // p1 crashes and recovers. A crash-stop FD algorithm loses the
    // recovered process forever, and the crash-recovery one needs stable
    // storage + retransmission; OTR needs nothing.
    let mut adv = CrashRecovery::new(3, &[(1, Round(2), Round(6))]);
    let mut exec = RoundExecutor::new(OneThirdRule::new(3), vec![10, 11, 12]);
    let r = exec
        .run_until_all_decided(&mut adv, 50)
        .expect("OTR, unchanged, decides in the crash-recovery model");
    assert!(r >= Round(7), "p1 decides after its outage ends");
}

#[test]
fn both_models_handle_crash_stop() {
    // Crash-stop (the SP class) is the one case the FD model was made for:
    // the HO algorithm copes too.
    let mut adv = CrashStop::new(4, &[(3, Round(1))]);
    let mut exec = RoundExecutor::new(OneThirdRule::new(4), vec![5, 6, 7, 8]);
    let scope = ProcessSet::from_indices(0..3);
    exec.run_until_decided_in(scope, &mut adv, 30)
        .expect("survivors decide");
}

#[test]
fn message_cost_comparison_failure_free() {
    // In a failure-free run OTR needs no retransmission and no stable
    // storage: every process decides by round 2, and the only messages are
    // one broadcast per process per round.
    let n = 3;
    let mut exec = RoundExecutor::new(OneThirdRule::new(n), vec![1, 2, 3]);
    let r = exec
        .run_until_all_decided(&mut FullDelivery, 50)
        .expect("OTR decides without faults");
    assert!(r <= Round(2), "decided at {r:?}");
    let rounds = exec.current_round().get();
    assert_eq!(
        exec.message_stats().delivered,
        (n * n) as u64 * rounds,
        "n² deliveries per round"
    );
}

#[test]
fn ho_is_identical_code_across_fault_classes() {
    // One binary decision procedure, four fault classes (SP, ST, DP→n/a
    // benign, DT): the exact same OneThirdRule instance decides under all.
    type Run = Box<dyn FnMut() -> Option<Round>>;
    let runs: Vec<(&str, Run)> = vec![
        (
            "SP (crash-stop)",
            Box::new(|| {
                let mut adv = CrashStop::new(4, &[(3, Round(2))]);
                let mut exec = RoundExecutor::new(OneThirdRule::new(4), vec![1, 2, 3, 4]);
                exec.run_until_decided_in(ProcessSet::from_indices(0..3), &mut adv, 50)
                    .ok()
            }),
        ),
        (
            "ST/DT (crash-recovery)",
            Box::new(|| {
                let mut adv = CrashRecovery::new(4, &[(0, Round(1), Round(3))]);
                let mut exec = RoundExecutor::new(OneThirdRule::new(4), vec![1, 2, 3, 4]);
                exec.run_until_all_decided(&mut adv, 50).ok()
            }),
        ),
        (
            "DT (loss)",
            Box::new(|| {
                let mut adv = RandomLoss::new(0.3, 5);
                let mut exec = RoundExecutor::new(OneThirdRule::new(4), vec![1, 2, 3, 4]);
                exec.run_until_all_decided(&mut adv, 200).ok()
            }),
        ),
    ];
    for (name, mut run) in runs {
        assert!(run().is_some(), "{name}: OTR must decide");
    }
}
