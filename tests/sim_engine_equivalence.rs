//! Lockstep proof that the engine's two fan-out paths deliver the same
//! run.
//!
//! A broadcast plan fans one pooled payload out to every destination by
//! reference count, and destinations sharing a delay ride one coalesced
//! queue event. A unicast plan travels as one owned payload and one queue
//! event per destination. Both draw per-destination loss and delay in
//! ascending destination order, so a broadcast and a unicast of the same
//! message to every process, in that order, must produce the same run.
//! This suite wraps each program in [`Unicasting`], which rewrites every
//! broadcast into that unicast, runs both across the fault-schedule zoo
//! and asserts **identical** behaviour: per-process received histories,
//! round/decision trajectories and every behavioural counter. What may
//! differ is what the pooled path exists to save: payload constructions,
//! queue events and queue depth.

#[path = "common/sim_zoo.rs"]
mod sim_zoo;

use std::fmt::Debug;

use heardof::core::algorithms::OneThirdRule;
use heardof::core::executor::MessageStats;
use heardof::core::process::{ProcessId, ProcessSet};
use heardof::core::send_plan::SendPlan;
use heardof::predicates::{Alg2Program, BoundParams, RoundLog};
use heardof::sim::{
    GoodKind, Program, Schedule, SimStats, Simulator, StepKind, TimePoint, WireMsg,
};
use sim_zoo::{
    alg2_programs, alg2_words, alg3_programs, alg3_words, jittered, recorders, zoo_entry, ZOO,
};

/// `P` with every broadcast sent as a unicast of the same message to each
/// of the `n` processes, in ascending order.
#[derive(Clone, Debug)]
struct Unicasting<P> {
    inner: P,
    n: usize,
}

impl<P: Program> Program for Unicasting<P> {
    type Msg = P::Msg;

    fn next_step(&mut self) -> StepKind<P::Msg> {
        match self.inner.next_step() {
            StepKind::Send(SendPlan::Broadcast(payload)) => {
                let pairs = (0..self.n).map(|q| (ProcessId::new(q), (*payload).clone()));
                StepKind::Send(SendPlan::unicast(pairs.collect()))
            }
            step => step,
        }
    }

    fn select_message(&mut self, buffer: &[(ProcessId, WireMsg<P::Msg>)]) -> Option<usize> {
        self.inner.select_message(buffer)
    }

    fn on_receive(&mut self, message: Option<(ProcessId, WireMsg<P::Msg>)>) {
        self.inner.on_receive(message);
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_recover(&mut self) {
        self.inner.on_recover();
    }

    fn discard_buffered(&self, msg: &P::Msg) -> bool {
        self.inner.discard_buffered(msg)
    }

    fn message_stats(&self) -> MessageStats {
        self.inner.message_stats()
    }
}

/// The counters that describe what happened in a run, as opposed to what
/// it cost: every [`SimStats`] field but the broadcast count, the payload
/// construction counters and the queue diagnostics.
fn behaviour(s: &SimStats) -> [u64; 9] {
    [
        s.send_steps,
        s.receive_steps,
        s.empty_receives,
        s.transmissions,
        s.dropped,
        s.discarded,
        s.crashes,
        s.recoveries,
        s.messages.delivered,
    ]
}

/// Runs `programs(n)` over every zoo entry and seeds `0..seeds` up to
/// `horizon`, as written and wrapped in [`Unicasting`], and asserts both
/// observe the same `observe(program)` for each process and the same
/// behavioural counters.
fn assert_identical_across_fanouts<P: Program, T: PartialEq + Debug>(
    name: &str,
    n: usize,
    (seeds, horizon): (u64, f64),
    programs: impl Fn(usize) -> Vec<P>,
    observe: impl Fn(&P) -> T,
) {
    for entry in 0..ZOO {
        for seed in 0..seeds {
            let (cfg, schedule) = (jittered(n, seed), zoo_entry(n, entry));
            let mut pooled = Simulator::new(cfg, schedule.clone(), programs(n));
            pooled.run_for(TimePoint::new(horizon));
            let unicasting = programs(n)
                .into_iter()
                .map(|inner| Unicasting { inner, n })
                .collect();
            let mut unicast = Simulator::new(cfg, schedule, unicasting);
            unicast.run_for(TimePoint::new(horizon));

            let at = format!("{name}/n{n}/{entry}/s{seed}");
            let (pooled_stats, unicast_stats) = (pooled.stats(), unicast.stats());
            assert!(
                pooled_stats.broadcast_sends > 0,
                "{at}: pooled run broadcast"
            );
            assert_eq!(
                unicast_stats.broadcast_sends, 0,
                "{at}: unicast run broadcast"
            );
            let observed: Vec<T> = pooled.programs().iter().map(&observe).collect();
            let unicast_observed: Vec<T> = unicast
                .programs()
                .iter()
                .map(|p| observe(&p.inner))
                .collect();
            assert_eq!(observed, unicast_observed, "{at}: processes diverged");
            assert_eq!(
                behaviour(pooled_stats),
                behaviour(unicast_stats),
                "{at}: counters diverged\n{pooled_stats:?}\n{unicast_stats:?}"
            );
        }
    }
}

#[test]
fn recorder_histories_identical_across_fanout_modes() {
    for n in [2, 5] {
        assert_identical_across_fanouts("recorder", n, (6, 120.0), recorders, |p| {
            (p.sent, p.crashes, p.received.clone())
        });
    }
}

#[test]
fn alg2_behaviour_identical_across_fanout_modes() {
    assert_identical_across_fanouts("alg2", 4, (5, 200.0), alg2_programs, |p| {
        (alg2_words(p), p.records().to_vec())
    });
}

#[test]
fn alg3_behaviour_identical_across_fanout_modes() {
    let f = 2;
    let programs = |n| alg3_programs(n, f);
    assert_identical_across_fanouts("alg3", 5, (5, 200.0), programs, |p| {
        (alg3_words(p), p.records().to_vec())
    });
}

#[test]
fn pooled_mode_shares_payload_allocations() {
    // The recipients of one broadcast alias one pooled payload slot, and
    // steady-state sends land in recycled slots.
    let n = 4;
    let params = BoundParams::new(n, 1.0, 2.0);
    let programs: Vec<Alg2Program<OneThirdRule>> = (0..n)
        .map(|p| {
            Alg2Program::new(
                OneThirdRule::new(n),
                ProcessId::new(p),
                1u64,
                params.alg2_timeout(),
            )
        })
        .collect();
    let schedule = Schedule::always_good(ProcessSet::full(n), GoodKind::PiDown);
    let mut sim = Simulator::new(jittered(n, 3), schedule, programs);
    sim.run_for(TimePoint::new(100.0));
    let stats = sim.message_stats();
    assert!(
        stats.payload_reuses > 0,
        "steady-state sends must land in recycled pool slots: {stats:?}"
    );
}
