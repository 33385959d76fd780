//! The rolling-outage generator of `rsm_recovery`.

use ho_benchmark::outage::{quiet_tail, rolling_outages, DARK, GAP};
use ho_benchmark::workloads::rsm::DRAIN_ROUNDS;

#[test]
fn schedules_are_seed_deterministic() {
    assert_eq!(
        rolling_outages(7, 12_000, 42),
        rolling_outages(7, 12_000, 42)
    );
    assert_ne!(
        rolling_outages(7, 12_000, 42),
        rolling_outages(7, 12_000, 43)
    );
}

#[test]
fn every_replica_is_hit_round_robin() {
    for n in [4, 7, 13] {
        for seed in 0..20 {
            let rounds = 12_000;
            assert!(rounds - quiet_tail(rounds) >= n as u64 * (GAP.1 + DARK.1));
            let outages = rolling_outages(n, rounds, seed);
            let mut hit = vec![0; n];
            for (i, &(q, _, _)) in outages.iter().enumerate() {
                hit[q] += 1;
                assert_eq!(q, (outages[0].0 + i) % n, "round-robin order");
            }
            assert!(hit.iter().all(|&h| h >= 1), "n = {n}, seed {seed}: {hit:?}");
        }
    }
}

#[test]
fn never_more_than_one_replica_dark_and_lengths_in_range() {
    for seed in 0..50 {
        let outages = rolling_outages(5, 10_000, seed);
        assert!(!outages.is_empty());
        assert!(outages[0].1.get() >= GAP.0, "the run starts healthy");
        for &(_, from, to) in &outages {
            let len = to.get() - from.get() + 1;
            assert!((DARK.0..=DARK.1).contains(&len), "outage of {len} rounds");
        }
        for pair in outages.windows(2) {
            let gap = pair[1].1.get() - pair[0].2.get();
            assert!((GAP.0..=GAP.1).contains(&gap), "gap of {gap} rounds");
        }
    }
}

#[test]
fn outages_stop_before_the_run_ends() {
    for (rounds, seed) in [(600, 1), (4000, 2), (10_000, 3), (12_000, 4)] {
        let tail = quiet_tail(rounds);
        assert!(tail >= 2 * DRAIN_ROUNDS, "room to drain twice over");
        for (_, _, to) in rolling_outages(7, rounds, seed) {
            assert!(
                to.get() <= rounds - tail,
                "outage reaches into the quiet tail"
            );
        }
    }
    // A run too short for any outage gets none, not a truncated one.
    assert!(rolling_outages(4, 300, 9).is_empty());
}
