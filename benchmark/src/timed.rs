//! Transparent timing wrappers: how the traced pass attributes host time
//! to layers without touching the layers' own code.
//!
//! [`Timed<T>`] wraps a [`Program`], an [`HoAlgorithm`] or an
//! [`Adversary`] and forwards **every** trait method — defaults included —
//! to the wrapped value's *same* method, so a wrapped algorithm keeps its
//! pooled `send_into` path and a wrapped program keeps its buffer pruning.
//! Around each forwarded call it reads the repo's span clock
//! (`ho_core::telemetry::now_ticks`: `rdtsc` on x86_64) and accumulates
//! the elapsed ticks into a `Cell<u64>`; the traced pass converts ticks to
//! nanoseconds with the ratio it measures over its own wall time.
//!
//! Two kinds of method are forwarded *without* a clock read, because a
//! 16 ns read on each side of a 1 ns getter would measure the clock:
//! `HoAlgorithm::n`, and the per-buffered-message predicates
//! `Program::discard_buffered` / `Program::message_stats`. Their cost
//! stays with the caller's self time.

use std::cell::Cell;

use ho_core::adversary::Adversary;
use ho_core::executor::MessageStats;
use ho_core::process::{ProcessId, ProcessSet};
use ho_core::round::Round;
use ho_core::send_plan::{PlanSlot, SendPlan};
use ho_core::telemetry::now_ticks;
use ho_core::{HoAlgorithm, Mailbox};
use ho_predicates::record::{RoundLog, RoundRecord};
use ho_sim::program::{Program, StepKind, WireMsg};

/// A value plus the ticks spent inside its trait methods.
#[derive(Clone, Debug)]
pub struct Timed<T> {
    inner: T,
    ticks: Cell<u64>,
    calls: Cell<u64>,
}

impl<T> Timed<T> {
    /// Wraps `inner` with zeroed counters.
    #[must_use]
    pub fn new(inner: T) -> Self {
        Timed {
            inner,
            ticks: Cell::new(0),
            calls: Cell::new(0),
        }
    }

    /// The wrapped value.
    #[must_use]
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Ticks accumulated inside timed trait calls.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks.get()
    }

    /// Number of timed trait calls.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    #[inline]
    fn span<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let start = now_ticks();
        let out = f(&self.inner);
        self.close(start);
        out
    }

    #[inline]
    fn span_mut<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let start = now_ticks();
        let out = f(&mut self.inner);
        self.close(start);
        out
    }

    #[inline]
    fn close(&self, start: u64) {
        self.ticks
            .set(self.ticks.get() + now_ticks().saturating_sub(start));
        self.calls.set(self.calls.get() + 1);
    }
}

impl<A: HoAlgorithm> HoAlgorithm for Timed<A> {
    type State = A::State;
    type Message = A::Message;
    type Value = A::Value;

    #[inline]
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn init(&self, p: ProcessId, initial_value: Self::Value) -> Self::State {
        self.span(|a| a.init(p, initial_value))
    }

    fn send(&self, r: Round, p: ProcessId, state: &Self::State) -> SendPlan<Self::Message> {
        self.span(|a| a.send(r, p, state))
    }

    fn send_into(
        &self,
        r: Round,
        p: ProcessId,
        state: &Self::State,
        slot: &mut PlanSlot<'_, Self::Message>,
    ) -> u64 {
        self.span(|a| a.send_into(r, p, state, slot))
    }

    fn message(
        &self,
        r: Round,
        p: ProcessId,
        state: &Self::State,
        q: ProcessId,
    ) -> Option<Self::Message> {
        self.span(|a| a.message(r, p, state, q))
    }

    fn transition(
        &self,
        r: Round,
        p: ProcessId,
        state: &mut Self::State,
        mailbox: &Mailbox<Self::Message>,
    ) {
        self.span(|a| a.transition(r, p, state, mailbox));
    }

    fn decision(&self, state: &Self::State) -> Option<Self::Value> {
        self.span(|a| a.decision(state))
    }

    fn broadcast_message(
        &self,
        r: Round,
        p: ProcessId,
        state: &Self::State,
    ) -> Option<Self::Message> {
        self.span(|a| a.broadcast_message(r, p, state))
    }
}

impl<Adv: Adversary> Adversary for Timed<Adv> {
    fn fill_ho_sets(&mut self, r: Round, ho: &mut [ProcessSet]) {
        self.span_mut(|a| a.fill_ho_sets(r, ho));
    }

    fn ho_sets(&mut self, r: Round, n: usize) -> Vec<ProcessSet> {
        self.span_mut(|a| a.ho_sets(r, n))
    }
}

impl<P: Program> Program for Timed<P> {
    type Msg = P::Msg;

    fn next_step(&mut self) -> StepKind<Self::Msg> {
        self.span_mut(Program::next_step)
    }

    fn select_message(&mut self, buffer: &[(ProcessId, WireMsg<Self::Msg>)]) -> Option<usize> {
        self.span_mut(|p| p.select_message(buffer))
    }

    fn on_receive(&mut self, message: Option<(ProcessId, WireMsg<Self::Msg>)>) {
        self.span_mut(|p| p.on_receive(message));
    }

    fn on_crash(&mut self) {
        self.span_mut(Program::on_crash);
    }

    fn on_recover(&mut self) {
        self.span_mut(Program::on_recover);
    }

    #[inline]
    fn discard_buffered(&self, msg: &Self::Msg) -> bool {
        self.inner.discard_buffered(msg)
    }

    #[inline]
    fn message_stats(&self) -> MessageStats {
        self.inner.message_stats()
    }
}

impl<L: RoundLog> RoundLog for Timed<L> {
    fn records(&self) -> &[RoundRecord] {
        self.inner.records()
    }

    fn discarded(&self) -> u64 {
        self.inner.discarded()
    }
}
