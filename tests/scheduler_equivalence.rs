//! Lockstep proof that the calendar-wheel scheduler is bit-identical to
//! the binary-heap oracle.
//!
//! The simulator's event queue has two backends
//! ([`SchedulerKind`](heardof::sim::SchedulerKind)): the original
//! `BinaryHeap`, kept as the equivalence oracle, and the bucketed calendar
//! wheel the engine now defaults to. Both must dispatch the exact same
//! `(time, seq)` sequence — FIFO at equal timestamps included — so every
//! observable of a run must match: per-process received histories,
//! round/decision trajectories, every behavioural counter, *and* the
//! queue-mechanics diagnostics (`events_dispatched`, `peak_queue_depth`)
//! that `SimStats` equality deliberately excludes.
//!
//! (Mirrors `tests/sim_engine_equivalence.rs`: same-seed lockstep runs
//! across the fault-schedule zoo, here extended with an episodic
//! contact-plan entry so link gating is exercised under both backends.)

use heardof::core::algorithms::OneThirdRule;
use heardof::core::contact::ContactPlan;
use heardof::core::process::{ProcessId, ProcessSet};
use heardof::predicates::{Alg2Program, Alg3Program, BoundParams, RoundLog};
use heardof::sim::{
    BadPeriodConfig, DelayTiming, GoodKind, LinkSchedule, Period, PeriodKind, Program, Schedule,
    SchedulerKind, SimConfig, SimStats, Simulator, StepKind, StepTiming, TimePoint, WireMsg,
};
use proptest::prelude::*;

/// The fault-schedule zoo: every period shape the simulator models, plus a
/// scheduled-outage contact plan active over the whole run and two
/// many-boundary alternations (the wheel is 64 time units round here, so
/// both cross period boundaries well past one revolution).
fn schedule_zoo(n: usize) -> Vec<(&'static str, Schedule)> {
    vec![
        (
            "always_good_pi_down",
            Schedule::always_good(ProcessSet::full(n), GoodKind::PiDown),
        ),
        (
            "always_good_pi_arbitrary_subset",
            Schedule::always_good(ProcessSet::from_indices(0..n - 1), GoodKind::PiArbitrary),
        ),
        (
            "lossy_then_good",
            Schedule::bad_then_good(
                BadPeriodConfig::lossy(0.6),
                TimePoint::new(30.0),
                ProcessSet::full(n),
                GoodKind::PiDown,
            ),
        ),
        (
            "crashy_then_good",
            Schedule::bad_then_good(
                BadPeriodConfig::default(),
                TimePoint::new(30.0),
                ProcessSet::full(n),
                GoodKind::PiArbitrary,
            ),
        ),
        (
            "omissive_forever",
            Schedule::new(vec![Period {
                start: TimePoint::ZERO,
                kind: PeriodKind::Bad(BadPeriodConfig::omissive(0.4, 0.3)),
            }]),
        ),
        (
            "episodic_contact_plan",
            Schedule::always_good(ProcessSet::full(n), GoodKind::PiDown).with_link_schedule(
                LinkSchedule::new(
                    ContactPlan::Episodic {
                        dark: 3,
                        bright: 2,
                        cycles: 12,
                    },
                    7,
                    n,
                    2.5,
                ),
            ),
        ),
        // π0 = Π minus one under π0-down: the outsider is forced down and
        // recovered, and its in-flight messages purged (`sent_at <
        // period.start`), at every boundary (one every 7 or 13 time units).
        (
            "alternating_lossy_pi_down_minus_one",
            Schedule::alternating(
                BadPeriodConfig::lossy(0.4),
                7.0,
                13.0,
                12,
                ProcessSet::from_indices(0..n - 1),
                GoodKind::PiDown,
            ),
        ),
        // Integer period lengths: under worst-case timing (steps every Φ+ =
        // 1, deliveries after Δ = 2) period starts tie with step and
        // delivery timestamps, and only the seq tiebreak orders them.
        (
            "alternating_crashy_integer_lengths",
            Schedule::alternating(
                BadPeriodConfig::default(),
                3.0,
                5.0,
                20,
                ProcessSet::from_indices(0..n - 1),
                GoodKind::PiArbitrary,
            ),
        ),
    ]
}

/// One zoo entry by name (a fresh copy for each of a lockstep pair's runs).
fn zoo_entry(n: usize, name: &str) -> Schedule {
    let (_, schedule) = schedule_zoo(n)
        .into_iter()
        .find(|(s, _)| *s == name)
        .expect("a zoo entry of that name");
    schedule
}

fn config(n: usize, seed: u64, scheduler: SchedulerKind) -> SimConfig {
    SimConfig::normalized(n, 1.0, 2.0)
        .with_seed(seed)
        .with_step_timing(StepTiming::Jittered)
        .with_delay_timing(DelayTiming::Jittered)
        .with_scheduler(scheduler)
}

/// Full-stats equality: the behavioural counters `SimStats == SimStats`
/// compares, plus the queue diagnostics it excludes. Across *schedulers*
/// (same fan-out mode) everything must match.
fn assert_stats_identical(wheel: &SimStats, heap: &SimStats, ctx: &str) {
    assert_eq!(wheel, heap, "{ctx}: behavioural counters diverged");
    assert_eq!(
        wheel.events_dispatched, heap.events_dispatched,
        "{ctx}: events_dispatched diverged"
    );
    assert_eq!(
        wheel.peak_queue_depth, heap.peak_queue_depth,
        "{ctx}: peak_queue_depth diverged"
    );
}

/// A chatter program recording its full received history (same witness as
/// `tests/sim_engine_equivalence.rs`): any reordering — even of two
/// same-timestamp deliveries — changes a value-dependent selection and
/// cascades into a different history.
#[derive(Clone, Debug, Default)]
struct Recorder {
    sent: u64,
    received: Vec<(ProcessId, u64)>,
    crashes: u64,
    want_send: bool,
}

impl Program for Recorder {
    type Msg = u64;

    fn next_step(&mut self) -> StepKind<u64> {
        self.want_send = !self.want_send;
        if self.want_send {
            self.sent += 1;
            StepKind::send_all(self.sent)
        } else {
            StepKind::Receive
        }
    }

    fn select_message(&mut self, buffer: &[(ProcessId, WireMsg<u64>)]) -> Option<usize> {
        buffer
            .iter()
            .enumerate()
            .max_by_key(|(i, (q, m))| (**m, q.index(), *i))
            .map(|(i, _)| i)
    }

    fn on_receive(&mut self, message: Option<(ProcessId, WireMsg<u64>)>) {
        if let Some((q, m)) = message {
            self.received.push((q, *m));
        }
    }

    fn on_crash(&mut self) {
        self.crashes += 1;
        self.received.clear(); // volatile
    }

    fn on_recover(&mut self) {}
}

fn recorder_run(
    n: usize,
    seed: u64,
    schedule: Schedule,
    scheduler: SchedulerKind,
) -> (Vec<Vec<(ProcessId, u64)>>, SimStats) {
    let mut sim = Simulator::new(
        config(n, seed, scheduler),
        schedule,
        vec![Recorder::default(); n],
    );
    sim.run_for(TimePoint::new(120.0));
    let histories = sim.programs().iter().map(|p| p.received.clone()).collect();
    (histories, sim.stats().clone())
}

#[test]
fn recorder_histories_identical_across_schedulers_50_seeds() {
    let n = 4;
    for (name, _) in schedule_zoo(n) {
        for seed in 0..50 {
            let pick = || zoo_entry(n, name);
            let (wheel_hist, wheel_stats) = recorder_run(n, seed, pick(), SchedulerKind::Wheel);
            let (heap_hist, heap_stats) = recorder_run(n, seed, pick(), SchedulerKind::Heap);
            assert_eq!(
                wheel_hist, heap_hist,
                "{name}/n{n}/s{seed}: received histories diverged"
            );
            assert_stats_identical(&wheel_stats, &heap_stats, &format!("{name}/n{n}/s{seed}"));
        }
    }
}

#[test]
fn worst_case_timing_floods_the_queue_with_ties_identically() {
    // Under WorstCase step/delay timing every process steps on the same
    // grid and every broadcast lands exactly Δ later: the queue is full of
    // equal-timestamp events and dispatch order is decided purely by the
    // FIFO seq tiebreak. Any deviation from strict FIFO in either backend
    // shows up here. The integer-length alternation adds period starts to
    // the ties.
    let n = 6;
    for name in ["always_good_pi_down", "alternating_crashy_integer_lengths"] {
        for seed in 0..10 {
            let run = |scheduler| {
                let mut sim = Simulator::new(
                    SimConfig::normalized(n, 1.0, 2.0)
                        .with_seed(seed)
                        .with_scheduler(scheduler),
                    zoo_entry(n, name),
                    vec![Recorder::default(); n],
                );
                sim.run_for(TimePoint::new(150.0));
                let histories: Vec<Vec<(ProcessId, u64)>> =
                    sim.programs().iter().map(|p| p.received.clone()).collect();
                (histories, sim.stats().clone())
            };
            let (wheel_hist, wheel_stats) = run(SchedulerKind::Wheel);
            let (heap_hist, heap_stats) = run(SchedulerKind::Heap);
            assert_eq!(
                wheel_hist, heap_hist,
                "{name}/s{seed}: tie-break order diverged"
            );
            assert_stats_identical(
                &wheel_stats,
                &heap_stats,
                &format!("{name}/worst_case/s{seed}"),
            );
        }
    }
}

#[test]
fn dense_buckets_at_n16_identical_across_schedulers() {
    // Jittered delays at n = 16 scatter every broadcast into 16 events:
    // a few hundred pending events over a handful of wheel days, so each
    // day's run is sorted with dozens of entries and takes frontier pushes
    // while it drains.
    let n = 16;
    for name in ["always_good_pi_down", "alternating_lossy_pi_down_minus_one"] {
        for seed in 0..5 {
            let (wheel_hist, wheel_stats) =
                recorder_run(n, seed, zoo_entry(n, name), SchedulerKind::Wheel);
            let (heap_hist, heap_stats) =
                recorder_run(n, seed, zoo_entry(n, name), SchedulerKind::Heap);
            assert!(wheel_stats.peak_queue_depth > 100, "{name}/s{seed}: dense");
            assert_eq!(wheel_hist, heap_hist, "{name}/n{n}/s{seed}: histories");
            assert_stats_identical(&wheel_stats, &heap_stats, &format!("{name}/n{n}/s{seed}"));
        }
    }
}

#[test]
fn alg2_trajectories_identical_across_schedulers() {
    let n = 4;
    let params = BoundParams::new(n, 1.0, 2.0);
    for (name, _) in schedule_zoo(n) {
        for seed in 0..5 {
            let run = |scheduler| {
                let schedule = zoo_entry(n, name);
                let programs: Vec<Alg2Program<OneThirdRule>> = (0..n)
                    .map(|p| {
                        Alg2Program::new(
                            OneThirdRule::new(n),
                            ProcessId::new(p),
                            p as u64 % 3,
                            params.alg2_timeout(),
                        )
                    })
                    .collect();
                let mut sim = Simulator::new(config(n, seed, scheduler), schedule, programs);
                sim.run_for(TimePoint::new(200.0));
                let per_process: Vec<_> = sim
                    .programs()
                    .iter()
                    .map(|p| {
                        (
                            p.round(),
                            p.decision(),
                            p.crash_count(),
                            p.records().to_vec(),
                        )
                    })
                    .collect();
                (per_process, sim.stats().clone())
            };
            let (wheel, wheel_stats) = run(SchedulerKind::Wheel);
            let (heap, heap_stats) = run(SchedulerKind::Heap);
            assert_eq!(wheel, heap, "{name}/s{seed}: Alg2 trajectories diverged");
            assert_stats_identical(&wheel_stats, &heap_stats, &format!("alg2/{name}/s{seed}"));
        }
    }
}

#[test]
fn alg3_trajectories_identical_across_schedulers() {
    let n = 5;
    let f = 2;
    let params = BoundParams::new(n, 1.0, 2.0);
    for (name, _) in schedule_zoo(n) {
        for seed in 0..5 {
            let run = |scheduler| {
                let schedule = zoo_entry(n, name);
                let programs: Vec<Alg3Program<OneThirdRule>> = (0..n)
                    .map(|p| {
                        Alg3Program::new(
                            OneThirdRule::new(n),
                            ProcessId::new(p),
                            p as u64 % 3,
                            f,
                            params.alg3_timeout(),
                        )
                    })
                    .collect();
                let mut sim = Simulator::new(config(n, seed, scheduler), schedule, programs);
                sim.run_for(TimePoint::new(200.0));
                let per_process: Vec<_> = sim
                    .programs()
                    .iter()
                    .map(|p| {
                        (
                            p.round(),
                            p.decision(),
                            p.crash_count(),
                            p.inits_sent(),
                            p.records().to_vec(),
                        )
                    })
                    .collect();
                (per_process, sim.stats().clone())
            };
            let (wheel, wheel_stats) = run(SchedulerKind::Wheel);
            let (heap, heap_stats) = run(SchedulerKind::Heap);
            assert_eq!(wheel, heap, "{name}/s{seed}: Alg3 trajectories diverged");
            assert_stats_identical(&wheel_stats, &heap_stats, &format!("alg3/{name}/s{seed}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized lockstep: arbitrary size, seed, timing mode and zoo
    /// entry — wheel and heap agree on everything observable.
    #[test]
    fn schedulers_agree_on_random_configurations(
        n in 2usize..=6,
        seed in 0u64..1000,
        zoo_idx in 0usize..8,
        jitter in 0u8..4,
        horizon in 40u64..160,
    ) {
        let pick = || schedule_zoo(n)[zoo_idx].1.clone();
        let run = |scheduler| {
            let mut cfg = SimConfig::normalized(n, 1.0, 2.0)
                .with_seed(seed)
                .with_scheduler(scheduler);
            if jitter & 1 != 0 {
                cfg = cfg.with_step_timing(StepTiming::Jittered);
            }
            if jitter & 2 != 0 {
                cfg = cfg.with_delay_timing(DelayTiming::Jittered);
            }
            let mut sim = Simulator::new(cfg, pick(), vec![Recorder::default(); n]);
            sim.run_for(TimePoint::new(horizon as f64));
            let histories: Vec<Vec<(ProcessId, u64)>> =
                sim.programs().iter().map(|p| p.received.clone()).collect();
            (histories, sim.stats().clone())
        };
        let (wheel_hist, wheel_stats) = run(SchedulerKind::Wheel);
        let (heap_hist, heap_stats) = run(SchedulerKind::Heap);
        prop_assert_eq!(wheel_hist, heap_hist, "histories diverged");
        prop_assert_eq!(&wheel_stats, &heap_stats, "stats diverged");
        prop_assert_eq!(
            wheel_stats.events_dispatched, heap_stats.events_dispatched,
            "events_dispatched diverged"
        );
        prop_assert_eq!(
            wheel_stats.peak_queue_depth, heap_stats.peak_queue_depth,
            "peak_queue_depth diverged"
        );
    }
}
