//! The sim-layer fault-schedule zoo and the programs the sim suites run
//! over it.
//!
//! Shared by `tests/sim_layer_pins.rs`, `tests/scheduler_equivalence.rs`
//! and `tests/sim_engine_equivalence.rs`. Include it with
//! `#[path = "common/sim_zoo.rs"] mod sim_zoo;`.

// Each suite uses a subset of these helpers.
#![allow(dead_code)]

use heardof::core::algorithms::OneThirdRule;
use heardof::core::contact::ContactPlan;
use heardof::core::process::{ProcessId, ProcessSet};
use heardof::predicates::{Alg2Program, Alg3Program, BoundParams};
use heardof::sim::{
    BadPeriodConfig, DelayTiming, GoodKind, LinkSchedule, Period, PeriodKind, Program, Schedule,
    SimConfig, StepKind, StepTiming, TimePoint, WireMsg,
};

/// Number of entries in the fault-schedule zoo.
pub const ZOO: usize = 8;

/// The fault-schedule zoo: every period shape the simulator models, a
/// scheduled-outage contact plan over the whole run, and two
/// many-boundary alternations (the wheel is 64 time units round here, so
/// both cross period boundaries well past one revolution).
pub fn zoo_entry(n: usize, entry: usize) -> Schedule {
    let (all, all_but_one) = (ProcessSet::full(n), ProcessSet::from_indices(0..n - 1));
    let (lossy, crashy) = (BadPeriodConfig::lossy(0.6), BadPeriodConfig::default());
    let t30 = TimePoint::new(30.0);
    match entry {
        // Always good: π0 = Π under π0-down, π0 = Π minus one under
        // π0-arbitrary.
        0 => Schedule::always_good(all, GoodKind::PiDown),
        1 => Schedule::always_good(all_but_one, GoodKind::PiArbitrary),
        // Lossy, then crashy, bad periods before a good one.
        2 => Schedule::bad_then_good(lossy, t30, all, GoodKind::PiDown),
        3 => Schedule::bad_then_good(crashy, t30, all, GoodKind::PiArbitrary),
        // Omissive forever.
        4 => Schedule::new(vec![Period {
            start: TimePoint::ZERO,
            kind: PeriodKind::Bad(BadPeriodConfig::omissive(0.4, 0.3)),
        }]),
        // Always good under an episodic contact plan.
        5 => {
            let plan = ContactPlan::Episodic {
                dark: 3,
                bright: 2,
                cycles: 12,
            };
            Schedule::always_good(all, GoodKind::PiDown)
                .with_link_schedule(LinkSchedule::new(plan, 7, n, 2.5))
        }
        // π0 = Π minus one under π0-down: the outsider is forced down and
        // recovered, and its in-flight messages purged (`sent_at <
        // period.start`), at every boundary (one every 7 or 13 time units).
        6 => {
            let bad = BadPeriodConfig::lossy(0.4);
            Schedule::alternating(bad, 7.0, 13.0, 12, all_but_one, GoodKind::PiDown)
        }
        // Integer period lengths: under worst-case timing (steps every Φ+ =
        // 1, deliveries after Δ = 2) period starts tie with step and
        // delivery timestamps, and only the seq tiebreak orders them.
        7 => Schedule::alternating(crashy, 3.0, 5.0, 20, all_but_one, GoodKind::PiArbitrary),
        _ => panic!("the zoo has {ZOO} entries"),
    }
}

/// `φ = 1`, `δ = 2`, worst-case step and delay timing.
pub fn worst_case(n: usize, seed: u64) -> SimConfig {
    SimConfig::normalized(n, 1.0, 2.0).with_seed(seed)
}

/// [`worst_case`] with jittered step gaps and delays.
pub fn jittered(n: usize, seed: u64) -> SimConfig {
    worst_case(n, seed)
        .with_step_timing(StepTiming::Jittered)
        .with_delay_timing(DelayTiming::Jittered)
}

/// A chatter program recording its full received history: its selection
/// depends on the buffered values, so any reordering, even of two
/// same-timestamp deliveries or of a recycled payload slot read through a
/// stale handle, cascades into a different history.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    pub sent: u64,
    pub received: Vec<(ProcessId, u64)>,
    pub crashes: u64,
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

pub fn recorders(n: usize) -> Vec<Recorder> {
    vec![Recorder::default(); n]
}

/// Algorithm 2 over OneThirdRule at size `n`, process `p` proposing
/// `p mod 3`, with the Algorithm 2 timeout for `φ = 1`, `δ = 2`.
pub fn alg2_programs(n: usize) -> Vec<Alg2Program<OneThirdRule>> {
    let timeout = BoundParams::new(n, 1.0, 2.0).alg2_timeout();
    (0..n)
        .map(|p| {
            Alg2Program::new(
                OneThirdRule::new(n),
                ProcessId::new(p),
                p as u64 % 3,
                timeout,
            )
        })
        .collect()
}

/// Algorithm 3 over OneThirdRule at size `n` tolerating `f`, process `p`
/// proposing `p mod 3`, with the Algorithm 3 timeout for `φ = 1`, `δ = 2`.
pub fn alg3_programs(n: usize, f: usize) -> Vec<Alg3Program<OneThirdRule>> {
    let timeout = BoundParams::new(n, 1.0, 2.0).alg3_timeout();
    (0..n)
        .map(|p| {
            let (id, init) = (ProcessId::new(p), p as u64 % 3);
            Alg3Program::new(OneThirdRule::new(n), id, init, f, timeout)
        })
        .collect()
}

/// The words that summarise an Algorithm 2 process: its round, its
/// decision (0 for none, `v + 1` for `v`) and its crash count.
pub fn alg2_words(p: &Alg2Program<OneThirdRule>) -> Vec<u64> {
    let decision = p.decision().map_or(0, |d| d + 1);
    vec![p.round(), decision, p.crash_count()]
}

/// [`alg2_words`] for Algorithm 3, plus the INIT messages it sent.
pub fn alg3_words(p: &Alg3Program<OneThirdRule>) -> Vec<u64> {
    let decision = p.decision().map_or(0, |d| d + 1);
    vec![p.round(), decision, p.crash_count(), p.inits_sent()]
}
