//! `Timed<…>` forwards every trait method to the wrapped value's *same*
//! method. A wrapper that let a default method fall through would, for
//! example, turn the pooled `send_into` path into the allocating `send`
//! path — silently changing what the traced pass measures.

use std::cell::RefCell;

use ho_benchmark::timed::Timed;
use ho_core::adversary::Adversary;
use ho_core::executor::MessageStats;
use ho_core::pool::PayloadPool;
use ho_core::process::{ProcessId, ProcessSet};
use ho_core::round::Round;
use ho_core::send_plan::{PlanSlot, PlanSpares, SendPlan};
use ho_core::{HoAlgorithm, Mailbox};
use ho_predicates::record::{RoundLog, RoundRecord};
use ho_sim::program::{Program, StepKind, WireMsg};

/// Records which of its methods ran; overrides every default with a body
/// that does *not* route through another trait method.
#[derive(Default)]
struct Recorder {
    calls: RefCell<Vec<&'static str>>,
    records: Vec<RoundRecord>,
}

impl Recorder {
    fn note(&self, name: &'static str) {
        self.calls.borrow_mut().push(name);
    }

    fn take(&self) -> Vec<&'static str> {
        std::mem::take(&mut *self.calls.borrow_mut())
    }
}

impl HoAlgorithm for Recorder {
    type State = u64;
    type Message = u64;
    type Value = u64;

    fn n(&self) -> usize {
        self.note("n");
        3
    }
    fn init(&self, _p: ProcessId, v: u64) -> u64 {
        self.note("init");
        v
    }
    fn send(&self, _r: Round, _p: ProcessId, s: &u64) -> SendPlan<u64> {
        self.note("send");
        SendPlan::broadcast(*s)
    }
    fn send_into(&self, _r: Round, _p: ProcessId, s: &u64, slot: &mut PlanSlot<'_, u64>) -> u64 {
        self.note("send_into");
        slot.broadcast(*s)
    }
    fn message(&self, _r: Round, _p: ProcessId, s: &u64, _q: ProcessId) -> Option<u64> {
        self.note("message");
        Some(*s + 100)
    }
    fn transition(&self, _r: Round, _p: ProcessId, s: &mut u64, mb: &Mailbox<u64>) {
        self.note("transition");
        *s += mb.len() as u64;
    }
    fn decision(&self, s: &u64) -> Option<u64> {
        self.note("decision");
        Some(*s)
    }
    fn broadcast_message(&self, _r: Round, _p: ProcessId, s: &u64) -> Option<u64> {
        self.note("broadcast_message");
        Some(*s + 200)
    }
}

#[test]
fn algorithm_methods_forward_one_to_one() {
    let timed = Timed::new(Recorder::default());
    let (r, p, q) = (Round(1), ProcessId::new(0), ProcessId::new(1));
    let take = || timed.inner().take();

    assert_eq!(timed.n(), 3);
    assert_eq!(take(), ["n"]);
    assert_eq!(timed.calls(), 0, "n() is forwarded without a clock read");

    let mut state = timed.init(p, 7);
    assert_eq!(take(), ["init"]);

    assert_eq!(timed.send(r, p, &state).broadcast_payload(), Some(&7));
    assert_eq!(take(), ["send"]);

    let (mut plan, mut spares, mut pool) = (
        SendPlan::Silent,
        PlanSpares::default(),
        PayloadPool::default(),
    );
    timed.send_into(
        r,
        p,
        &state,
        &mut PlanSlot::new(&mut plan, &mut spares, &mut pool),
    );
    assert_eq!(take(), ["send_into"], "must not fall through to send()");
    assert_eq!(plan.broadcast_payload(), Some(&7));

    assert_eq!(timed.message(r, p, &state, q), Some(107));
    assert_eq!(take(), ["message"], "must not be re-derived from send()");

    assert_eq!(timed.broadcast_message(r, p, &state), Some(207));
    assert_eq!(take(), ["broadcast_message"]);

    let mut mailbox = Mailbox::empty();
    mailbox.push(q, 1);
    timed.transition(r, p, &mut state, &mailbox);
    assert_eq!(take(), ["transition"]);
    assert_eq!(state, 8);

    assert_eq!(timed.decision(&state), Some(8));
    assert_eq!(take(), ["decision"]);

    assert_eq!(timed.calls(), 7, "every call but n() was timed once");
}

impl Adversary for Recorder {
    fn fill_ho_sets(&mut self, _r: Round, ho: &mut [ProcessSet]) {
        self.note("fill_ho_sets");
        ho.fill(ProcessSet::empty());
    }
    fn ho_sets(&mut self, _r: Round, n: usize) -> Vec<ProcessSet> {
        self.note("ho_sets");
        vec![ProcessSet::full(n); n]
    }
}

#[test]
fn adversary_methods_forward_one_to_one() {
    let mut timed = Timed::new(Recorder::default());
    let mut ho = vec![ProcessSet::full(2); 2];
    timed.fill_ho_sets(Round(1), &mut ho);
    assert_eq!(timed.inner().take(), ["fill_ho_sets"]);
    assert!(ho.iter().all(|s| s.is_empty()));

    assert_eq!(timed.ho_sets(Round(1), 2), vec![ProcessSet::full(2); 2]);
    assert_eq!(
        timed.inner().take(),
        ["ho_sets"],
        "must not be re-derived from fill_ho_sets()"
    );
    assert_eq!(timed.calls(), 2);
}

impl Program for Recorder {
    type Msg = u64;

    fn next_step(&mut self) -> StepKind<u64> {
        self.note("next_step");
        StepKind::Receive
    }
    fn select_message(&mut self, buffer: &[(ProcessId, WireMsg<u64>)]) -> Option<usize> {
        self.note("select_message");
        buffer.len().checked_sub(1)
    }
    fn on_receive(&mut self, _message: Option<(ProcessId, WireMsg<u64>)>) {
        self.note("on_receive");
    }
    fn on_crash(&mut self) {
        self.note("on_crash");
    }
    fn on_recover(&mut self) {
        self.note("on_recover");
    }
    fn discard_buffered(&self, msg: &u64) -> bool {
        self.note("discard_buffered");
        *msg == 13
    }
    fn message_stats(&self) -> MessageStats {
        self.note("message_stats");
        MessageStats {
            payload_allocs: 5,
            payload_reuses: 4,
            delivered: 3,
        }
    }
}

impl RoundLog for Recorder {
    fn records(&self) -> &[RoundRecord] {
        &self.records
    }
    fn discarded(&self) -> u64 {
        17
    }
}

#[test]
fn program_methods_forward_one_to_one() {
    let mut timed = Timed::new(Recorder::default());
    let buffer = [(ProcessId::new(1), WireMsg::Owned(9u64))];

    assert_eq!(timed.next_step(), StepKind::Receive);
    assert_eq!(timed.select_message(&buffer), Some(0));
    timed.on_receive(None);
    timed.on_crash();
    timed.on_recover();
    assert_eq!(
        timed.inner().take(),
        [
            "next_step",
            "select_message",
            "on_receive",
            "on_crash",
            "on_recover"
        ]
    );
    assert_eq!(timed.calls(), 5);

    // The two defaulted methods reach the program's overrides — a wrapper
    // on the trait defaults would keep every message and report no stats —
    // and cost no clock read.
    assert!(timed.discard_buffered(&13));
    assert!(!timed.discard_buffered(&14));
    assert_eq!(timed.message_stats().delivered, 3);
    assert_eq!(
        timed.inner().take(),
        ["discard_buffered", "discard_buffered", "message_stats"]
    );
    assert_eq!(timed.calls(), 5);

    assert_eq!(
        RoundLog::discarded(&timed),
        17,
        "the log's own default is overridden too"
    );
    assert!(timed.records().is_empty());
}

#[test]
fn ticks_accumulate_only_inside_calls() {
    let timed = Timed::new(Recorder::default());
    assert_eq!(timed.ticks(), 0);
    let mut state = timed.init(ProcessId::new(0), 1);
    for _ in 0..1000 {
        timed.transition(Round(1), ProcessId::new(0), &mut state, &Mailbox::empty());
    }
    assert_eq!(timed.calls(), 1001);
    let before = timed.ticks();
    assert!(before > 0);
    std::hint::black_box((0..100_000u64).sum::<u64>());
    assert_eq!(
        timed.ticks(),
        before,
        "time outside calls is not the wrapper's"
    );
}
