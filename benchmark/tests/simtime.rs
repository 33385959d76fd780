//! Simulated-time latency reconstruction on a hand-built three-round trace.

use ho_benchmark::simtime::{pair_samples, RoundClock};

/// Replica p completes log round 1 at t = 11.0 and round 2 at t = 23.5;
/// the lower layer then skips round 3 and runs rounds 3 and 4 back to back
/// at t = 40.25.
fn clock() -> RoundClock {
    let mut clock = RoundClock::new();
    assert_eq!(clock.completed(), 0);
    assert_eq!(clock.advance(0, 5.0), None, "no round completed yet");
    assert_eq!(clock.advance(1, 11.0), Some(1));
    assert_eq!(
        clock.advance(1, 12.0),
        None,
        "an event that completed nothing"
    );
    assert_eq!(clock.advance(2, 23.5), Some(2));
    assert_eq!(
        clock.advance(4, 40.25),
        Some(3),
        "first of the two new rounds"
    );
    assert_eq!(clock.completed(), 4);
    clock
}

#[test]
fn rounds_map_to_the_time_their_transition_ran() {
    let clock = clock();
    assert_eq!(
        clock.time_of(0),
        0.0,
        "construction admits the first arrivals"
    );
    assert_eq!(clock.time_of(1), 11.0);
    assert_eq!(clock.time_of(2), 23.5);
    assert_eq!(clock.time_of(3), 40.25);
    assert_eq!(
        clock.time_of(4),
        40.25,
        "a skipped round runs with its successor"
    );
}

#[test]
fn latency_is_the_distance_between_admission_and_apply_transitions() {
    let clock = clock();
    // Admitted at construction (round 0), applied in round 2: 2 rounds.
    assert_eq!(clock.latency_tu(2, 2), 23.5);
    // Admitted in round 1, applied in round 2: 1 round.
    assert_eq!(clock.latency_tu(2, 1), 12.5);
    // Admitted in round 2, applied in round 3 (which ran at 40.25).
    assert_eq!(clock.latency_tu(3, 1), 16.75);
    // Admitted and applied in the same transition.
    assert_eq!(clock.latency_tu(3, 0), 0.0);
}

#[test]
fn samples_split_over_own_batches_in_apply_order() {
    // Slots 6 and 9 carried this replica's batches of 2 and 3 commands.
    let pairs = pair_samples(&[(6, 2), (9, 3)], &[4, 4, 2, 2, 1]).expect("counts agree");
    assert_eq!(pairs, vec![(6, 4), (6, 4), (9, 2), (9, 2), (9, 1)]);
    assert_eq!(pair_samples(&[], &[]), Some(Vec::new()));
}

#[test]
fn a_count_mismatch_is_reported_not_papered_over() {
    assert_eq!(pair_samples(&[(6, 2)], &[4, 4, 2]), None);
    assert_eq!(pair_samples(&[(6, 2), (7, 1)], &[4]), None);
}
