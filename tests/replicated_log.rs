//! Property tests for the replicated log at pipeline depth 1: one
//! `MultiSlot<OneThirdRule>` slot in flight, driven directly by the round
//! executor. The log invariants hold under arbitrary transmission-fault
//! patterns.
//!
//! * **Prefix consistency** (no forks): any two replicas' applied logs
//!   agree on their common prefix — the atomic-broadcast safety property.
//! * **Slot integrity**: every applied slot is a well-formed batch of
//!   some replica's commands, and no command is applied twice
//!   ([`check_logs`]).
//! * **Monotonicity**: a replica's log only grows.

use heardof::core::adversary::{FullDelivery, Scripted};
use heardof::core::algorithms::OneThirdRule;
use heardof::core::executor::RoundExecutor;
use heardof::core::process::ProcessSet;
use heardof::rsm::{check_logs, MultiSlot, RsmConfig, WorkloadSpec};
use proptest::prelude::*;

type Log = Vec<u64>;

fn make(n: usize) -> RoundExecutor<MultiSlot<OneThirdRule>> {
    let alg = MultiSlot::new(
        OneThirdRule::new(n),
        WorkloadSpec::FixedRate { per_round: 2 },
        RsmConfig::with_depth(1),
        42,
    );
    let initial = alg.initial_checker_values();
    RoundExecutor::new(alg, initial)
}

fn logs(exec: &RoundExecutor<MultiSlot<OneThirdRule>>) -> Vec<Log> {
    exec.states().iter().map(|s| s.applied().to_vec()).collect()
}

fn arb_script(n: usize, rounds: usize) -> impl Strategy<Value = Vec<Vec<ProcessSet>>> {
    let mask = (1u128 << n) - 1;
    proptest::collection::vec(proptest::collection::vec(0u128..=mask, n), rounds).prop_map(
        move |rows| {
            rows.into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|bits| {
                            ProcessSet::from_indices((0..n).filter(|i| bits & (1 << i) != 0))
                        })
                        .collect()
                })
                .collect()
        },
    )
}

fn prefix_consistent(logs: &[Log]) -> bool {
    logs.iter().all(|a| {
        logs.iter().all(|b| {
            let c = a.len().min(b.len());
            a[..c] == b[..c]
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No fault pattern can fork the log.
    #[test]
    fn logs_never_fork(script in arb_script(4, 24)) {
        let n = 4;
        let rounds = script.len() as u64;
        let mut exec = make(n);
        let mut adv = Scripted::new(script);
        exec.run(&mut adv, rounds).expect("no safety violation");
        let logs = logs(&exec);
        prop_assert!(prefix_consistent(&logs), "fork: {logs:?}");
    }

    /// Every applied slot is a well-formed batch, applied exactly once.
    #[test]
    fn slot_integrity(script in arb_script(4, 24)) {
        let n = 4;
        let rounds = script.len() as u64;
        let mut exec = make(n);
        let mut adv = Scripted::new(script);
        exec.run(&mut adv, rounds).expect("no safety violation");
        let logs = logs(&exec);
        let refs: Vec<&[u64]> = logs.iter().map(Vec::as_slice).collect();
        let max_batch = exec.algorithm().config().max_batch as u64;
        let check = check_logs(&refs, n, max_batch);
        prop_assert!(check.is_ok(), "{:?}", check.violation);
    }

    /// Logs are monotone: chaos then healing only extends them.
    #[test]
    fn logs_grow_monotonically(script in arb_script(4, 16)) {
        let n = 4;
        let rounds = script.len() as u64;
        let mut exec = make(n);
        let mut adv = Scripted::new(script);
        exec.run(&mut adv, rounds).expect("no violation");
        let before = logs(&exec);
        exec.run(&mut FullDelivery, 4).expect("no violation");
        let after = logs(&exec);
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(a.len() >= b.len());
            prop_assert_eq!(&a[..b.len()], &b[..]);
        }
    }
}

#[test]
fn healthy_network_sustains_one_slot_per_two_rounds() {
    let n = 4;
    let mut exec = make(n);
    exec.run(&mut FullDelivery, 40).unwrap();
    for s in exec.states() {
        assert_eq!(s.applied().len(), 20, "OneThirdRule decides every 2 rounds");
    }
}
