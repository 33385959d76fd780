//! Lockstep proof that the calendar queue schedules a run the same way
//! however the run is driven.
//!
//! The event queue has one backend, the calendar wheel; its runs are
//! pinned in `tests/sim_layer_pins.rs`. The wheel keeps state between
//! calls, though: a `run_for` deadline that falls mid-day parks its cursor
//! there, and a recycled [`SimScratch`] hands a new run the reset arena of
//! an earlier, larger one. This suite drives the same Algorithm 2 and 3
//! runs three ways (one `run_for` to the horizon, seven off-grid slices,
//! and one recycled scratch) and asserts they agree on everything
//! observable: round/decision trajectories, every [`SimStats`] field (the
//! queue diagnostics included) and the merged message accounting. The
//! algorithms' timeouts put step events and period boundaries at
//! arbitrary distances from the slice deadlines.

#[path = "common/sim_zoo.rs"]
mod sim_zoo;

use std::fmt::Debug;

use heardof::core::executor::MessageStats;
use heardof::predicates::RoundLog;
use heardof::sim::{Program, SimScratch, SimStats, Simulator, TimePoint};
use sim_zoo::{alg2_programs, alg2_words, alg3_programs, alg3_words, jittered, zoo_entry, ZOO};

const HORIZON: f64 = 200.0;

/// Runs `programs(n)` over every zoo entry and seeds `0..5`, once per way
/// of driving the queue, and asserts every way observes the same
/// `observe(program)` for each process and the same counters.
fn assert_identical_across_drives<P: Program, T: PartialEq + Debug>(
    name: &str,
    n: usize,
    programs: impl Fn(usize) -> Vec<P>,
    observe: impl Fn(&P) -> T,
) {
    let result = |sim: &Simulator<P>| -> (Vec<T>, SimStats, MessageStats) {
        let per_process = sim.programs().iter().map(&observe).collect();
        (per_process, sim.stats().clone(), sim.message_stats())
    };
    // One scratch carried across every recycled run, first warmed by a
    // larger run, so each run starts on a reset queue and truncated slots.
    let mut scratch = SimScratch::new();
    let mut warm = Simulator::new(jittered(4 * n, 0), zoo_entry(4 * n, 0), programs(4 * n));
    warm.run_for(TimePoint::new(HORIZON));
    warm.retire(&mut scratch);
    for entry in 0..ZOO {
        for seed in 0..5 {
            let (cfg, schedule) = (jittered(n, seed), zoo_entry(n, entry));
            let mut once = Simulator::new(cfg, schedule.clone(), programs(n));
            once.run_for(TimePoint::new(HORIZON));
            let mut sliced = Simulator::new(cfg, schedule.clone(), programs(n));
            for slice in 1..=7 {
                sliced.run_for(TimePoint::new(HORIZON * f64::from(slice) / 7.0));
            }
            let mut recycled = Simulator::with_scratch(cfg, schedule, programs(n), &mut scratch);
            recycled.run_for(TimePoint::new(HORIZON));
            let expected = result(&once);
            assert!(
                expected.1.events_dispatched > 0,
                "{name}/{entry}/s{seed}: ran"
            );
            for (drive, sim) in [("sliced", &sliced), ("recycled", &recycled)] {
                assert_eq!(
                    result(sim),
                    expected,
                    "{name}/{entry}/s{seed}: the {drive} run diverged"
                );
            }
            recycled.retire(&mut scratch);
        }
    }
}

#[test]
fn alg2_trajectories_identical_across_schedulers() {
    assert_identical_across_drives("alg2", 4, alg2_programs, |p| {
        (alg2_words(p), p.records().to_vec())
    });
}

#[test]
fn alg3_trajectories_identical_across_schedulers() {
    let f = 2;
    assert_identical_across_drives(
        "alg3",
        5,
        |n| alg3_programs(n, f),
        |p| (alg3_words(p), p.records().to_vec()),
    );
}
