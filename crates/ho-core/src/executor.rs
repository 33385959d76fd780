//! The round-synchronous HO machine.
//!
//! [`RoundExecutor`] runs an [`HoAlgorithm`] round by round against an
//! [`Adversary`] that chooses the heard-of sets, records the resulting
//! [`Trace`], and checks the consensus safety properties after every round.
//!
//! This is the *model-level* executor: rounds are a global synchronous loop
//! and transmission faults are exactly the adversary's choices. The
//! *system-level* execution — where rounds have to be built out of timed
//! send/receive steps in good periods — lives in the `ho-predicates` crate.
//!
//! ## The allocation-free round loop
//!
//! Every per-round buffer is persistent: the mailboxes [`Mailbox::clear`]
//! (retaining capacity) instead of being re-created, the [`Outbox`]
//! recollects plans in place (recycling broadcast payload `Arc`s once their
//! recipients have dropped them), the adversary writes into a reused
//! scratch slice, and the trace row is copied out of a reused buffer — or,
//! under [`TraceMode::Off`], never materialised at all. In steady state a
//! broadcast round performs **zero** heap allocations
//! (see `tests/alloc_steady_state.rs`). Beyond the adversary's and the
//! algorithm's own work a round costs, per process, one plan, one table
//! attach, one count of the mailbox and one checker observation.

use crate::adversary::Adversary;
use crate::algorithm::HoAlgorithm;
use crate::consensus::{ConsensusChecker, ConsensusViolation};
use crate::mailbox::Mailbox;
use crate::observer::{NullObserver, RoundObserver};
use crate::process::{ProcessId, ProcessSet};
use crate::round::Round;
use crate::send_plan::Outbox;
use crate::telemetry::{Event, EventKind, Phase, Telemetry};
use crate::trace::{Trace, TraceMode};

/// Message-cost accounting for a run: what the send phase allocated and
/// how many messages it delivered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Payload constructions performed under the plan kernel: plan
    /// construction (one per broadcast, one per unicast pair) plus the
    /// per-recipient deep clones of delivered unicast messages. Broadcast
    /// deliveries share the constructed payload, which makes a broadcast
    /// round cost `O(n)` constructions for its `O(n²)` deliveries; unicast
    /// rounds gain nothing from sharing.
    pub payload_allocs: u64,
    /// How many of those constructions were written into recycled payload
    /// buffers and therefore touched the allocator *zero* times
    /// (see [`PlanSlot`](crate::send_plan::PlanSlot)). Fresh heap
    /// allocations are `payload_allocs − payload_reuses`.
    pub payload_reuses: u64,
    /// Messages delivered into mailboxes (shared or owned).
    pub delivered: u64,
}

/// The type-independent round buffers of a [`RoundExecutor`] — the
/// adversary's HO scratch slice and the trace-row scratch. Recovered with
/// [`RoundExecutor::into_scratch`] and passed to the next executor via
/// [`RoundExecutor::with_scratch`], so a sweep worker reuses them across
/// scenarios (the message-typed buffers — mailboxes, outbox — cannot cross
/// algorithm types and stay internal).
#[derive(Debug, Default)]
pub struct RoundScratch {
    ho: Vec<ProcessSet>,
    row: Vec<ProcessSet>,
}

impl MessageStats {
    /// Payload constructions that actually hit the allocator:
    /// `payload_allocs − payload_reuses`.
    #[must_use]
    pub fn fresh_allocs(&self) -> u64 {
        self.payload_allocs - self.payload_reuses
    }

    /// Folds another accounting into this one. Both execution machines —
    /// the round-synchronous executor and the system-level simulator —
    /// report this struct, so reports aggregate the two layers uniformly.
    pub fn merge(&mut self, other: &MessageStats) {
        self.payload_allocs += other.payload_allocs;
        self.payload_reuses += other.payload_reuses;
        self.delivered += other.delivered;
    }
}

/// Why a run stopped early.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError<V> {
    /// A consensus safety property was violated (this indicates a bug in the
    /// algorithm under test — the executor never masks it).
    Violation(ConsensusViolation<V>),
    /// The round budget was exhausted before the goal was reached.
    MaxRoundsExceeded {
        /// The budget that was exhausted.
        max_rounds: u64,
        /// How many processes had decided when we gave up.
        decided: usize,
    },
}

impl<V: std::fmt::Debug> std::fmt::Display for RunError<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Violation(v) => write!(f, "{v}"),
            RunError::MaxRoundsExceeded {
                max_rounds,
                decided,
            } => write!(
                f,
                "goal not reached within {max_rounds} rounds ({decided} processes decided)"
            ),
        }
    }
}

impl<V: std::fmt::Debug> std::error::Error for RunError<V> {}

impl<V> From<ConsensusViolation<V>> for RunError<V> {
    fn from(v: ConsensusViolation<V>) -> Self {
        RunError::Violation(v)
    }
}

/// Runs an HO algorithm round by round under an adversary.
pub struct RoundExecutor<A: HoAlgorithm> {
    alg: A,
    states: Vec<A::State>,
    trace: Trace,
    checker: ConsensusChecker<A::Value>,
    round: Round,
    msg_stats: MessageStats,
    // Persistent round buffers — cleared and refilled every round, never
    // re-created (see the module docs).
    mailboxes: Vec<Mailbox<A::Message>>,
    outbox: Outbox<A::Message>,
    scratch: RoundScratch,
    // The flight recorder + metrics registry. Off by default: a null
    // check per record site, zero cost when inactive (the same contract
    // as RoundObserver). See `crate::telemetry`.
    telemetry: Telemetry,
}

impl<A: HoAlgorithm> RoundExecutor<A> {
    /// Creates an executor with one process per initial value, recording
    /// the full trace.
    ///
    /// # Panics
    ///
    /// Panics if `initial_values.len() != alg.n()`.
    #[must_use]
    pub fn new(alg: A, initial_values: Vec<A::Value>) -> Self {
        Self::with_trace_mode(alg, initial_values, TraceMode::Full)
    }

    /// Creates an executor with the given trace retention mode.
    /// [`TraceMode::Off`] is the sweep configuration: HO statistics stay
    /// exact but no row is ever materialised, and the per-round support
    /// sets are never even computed.
    ///
    /// # Panics
    ///
    /// Panics if `initial_values.len() != alg.n()`.
    #[must_use]
    pub fn with_trace_mode(alg: A, initial_values: Vec<A::Value>, mode: TraceMode) -> Self {
        Self::with_scratch(alg, initial_values, mode, RoundScratch::default())
    }

    /// Like [`RoundExecutor::with_trace_mode`], seeded with round buffers
    /// recovered from a previous executor ([`RoundExecutor::into_scratch`])
    /// so back-to-back scenarios skip the warm-up allocations.
    ///
    /// # Panics
    ///
    /// Panics if `initial_values.len() != alg.n()`.
    #[must_use]
    pub fn with_scratch(
        alg: A,
        initial_values: Vec<A::Value>,
        mode: TraceMode,
        mut scratch: RoundScratch,
    ) -> Self {
        assert_eq!(
            initial_values.len(),
            alg.n(),
            "need one initial value per process"
        );
        let states: Vec<A::State> = initial_values
            .iter()
            .enumerate()
            .map(|(p, v)| alg.init(ProcessId::new(p), v.clone()))
            .collect();
        let n = initial_values.len();
        scratch.ho.clear();
        scratch.ho.resize(n, ProcessSet::empty());
        scratch.row.clear();
        RoundExecutor {
            alg,
            states,
            trace: Trace::with_mode(n, mode),
            checker: ConsensusChecker::new(initial_values),
            round: Round(0),
            msg_stats: MessageStats::default(),
            mailboxes: (0..n).map(|_| Mailbox::with_capacity(n)).collect(),
            outbox: Outbox::default(),
            scratch,
            telemetry: Telemetry::off(),
        }
    }

    /// Installs a [`Telemetry`] handle (flight recorder + metrics). Pass
    /// [`Telemetry::off`] to disable; an off handle keeps the round loop
    /// bit-identical and effectively free of telemetry cost.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The executor's telemetry handle.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The executor's telemetry handle, mutably — how embedding layers
    /// (the log driver, the harness) record their own events into the
    /// same ring.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Removes and returns the telemetry handle (for scratch reuse by
    /// the next scenario), leaving the executor off.
    pub fn take_telemetry(&mut self) -> Telemetry {
        std::mem::take(&mut self.telemetry)
    }

    /// Recovers the type-independent round buffers for reuse by the next
    /// scenario's executor.
    #[must_use]
    pub fn into_scratch(self) -> RoundScratch {
        self.scratch
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.alg.n()
    }

    /// The algorithm under execution.
    #[must_use]
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    /// The last completed round (`Round(0)` before the first).
    #[must_use]
    pub fn current_round(&self) -> Round {
        self.round
    }

    /// The recorded heard-of trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The per-process states (read-only).
    #[must_use]
    pub fn states(&self) -> &[A::State] {
        &self.states
    }

    /// The consensus checker (decisions observed so far).
    #[must_use]
    pub fn checker(&self) -> &ConsensusChecker<A::Value> {
        &self.checker
    }

    /// Current decisions, indexed by process.
    #[must_use]
    pub fn decisions(&self) -> Vec<Option<A::Value>> {
        self.states.iter().map(|s| self.alg.decision(s)).collect()
    }

    /// Message-cost accounting across all rounds run so far.
    #[must_use]
    pub fn message_stats(&self) -> MessageStats {
        self.msg_stats
    }

    /// Executes one round with the HO sets chosen by `adversary`.
    ///
    /// The effective `HO(p, r)` recorded in the trace is the *support of the
    /// mailbox*: the adversary authorises a transmission `q → p`, but if
    /// `S_q^r` produces no message for `p`, then `q ∉ HO(p, r)`.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError::Violation`] if the round broke a consensus
    /// safety property.
    pub fn step(&mut self, adversary: &mut impl Adversary) -> Result<Round, RunError<A::Value>> {
        self.step_observed(adversary, &mut NullObserver)
    }

    /// [`RoundExecutor::step`] with a streaming [`RoundObserver`]: the
    /// observer receives the round's effective HO sets right after
    /// delivery, *whatever the trace retention mode* — this is how
    /// predicate monitors run under [`TraceMode::Off`] without a retained
    /// trace. While the observer is [`active`](RoundObserver::active) the
    /// HO row is built into the executor's reused scratch buffer, so an
    /// allocation-free observer keeps the whole round loop allocation-free.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError::Violation`] if the round broke a consensus
    /// safety property.
    pub fn step_observed(
        &mut self,
        adversary: &mut impl Adversary,
        observer: &mut impl RoundObserver,
    ) -> Result<Round, RunError<A::Value>> {
        let r = self.round.next();
        let tel_on = self.telemetry.is_on();
        if tel_on {
            self.telemetry
                .record(r.get(), r.get() as f64, Event::ALL, EventKind::RoundStart);
        }
        // Phase spans are sampled (see `telemetry::SPAN_SAMPLE_PERIOD`):
        // rounds run in fractions of a microsecond, so timing every one
        // would make the clock reads the dominant telemetry cost.
        let timed = self.telemetry.spans_this_round(r.get());
        let mut span = if timed { self.telemetry.clock() } else { 0 };
        // The adversary writes into the executor's scratch slice; the
        // universe size is the slice length, so coverage is structural.
        adversary.fill_ho_sets(r, &mut self.scratch.ho);
        if timed {
            span = self.telemetry.span(Phase::HoFill, span);
        }

        // Clear last round's mailboxes *before* recollecting plans: this
        // drops the recipients' shared payload references, making the
        // broadcast `Arc`s uniquely owned and therefore reusable.
        for mb in &mut self.mailboxes {
            mb.clear();
        }

        // Sending phase: S_q^r evaluated once per process on the
        // *pre-round* states, then fanned out per the HO assignment.
        // Broadcast payloads are shared, not cloned per destination.
        self.msg_stats.payload_reuses += self.outbox.recollect(&self.alg, r, &self.states);
        self.msg_stats.payload_allocs += self.outbox.payload_allocs();
        if timed {
            span = self.telemetry.span(Phase::Send, span);
        }
        for (p, mb) in self.mailboxes.iter_mut().enumerate() {
            // Unicast deliveries deep-clone per recipient; count them so
            // payload_allocs is the kernel's true construction cost, and
            // count the clones served from the mailbox's retired payloads
            // as reuses.
            let delivery = self
                .outbox
                .deliver_into(ProcessId::new(p), self.scratch.ho[p], mb);
            self.msg_stats.payload_allocs += delivery.clones;
            self.msg_stats.payload_reuses += delivery.recycled;
        }
        if timed {
            span = self.telemetry.span(Phase::Deliver, span);
        }

        // Record the effective HO sets — but compute the support sets only
        // when the trace's retention mode stores rows or an observer is
        // listening; otherwise the statistics need just the mailbox sizes,
        // each counted once for the trace and the message statistics both
        // (a count is a software popcount on the default x86-64 target).
        if self.trace.wants_rows() || observer.active() {
            self.scratch.row.clear();
            self.scratch
                .row
                .extend(self.mailboxes.iter().map(Mailbox::senders));
            // Under TraceMode::Off this records statistics only.
            self.trace.record_round(&self.scratch.row);
            if observer.active() {
                observer.observe_round(r, &self.scratch.row);
            }
            self.msg_stats.delivered +=
                self.mailboxes.iter().map(|mb| mb.len() as u64).sum::<u64>();
        } else {
            let delivered = &mut self.msg_stats.delivered;
            let heard = self.mailboxes.iter().map(Mailbox::len);
            self.trace
                .note_round(heard.inspect(|&h| *delivered += h as u64));
        }
        if timed {
            span = self.telemetry.span(Phase::Monitor, span);
        }

        // Transition phase: T_p^r.
        for (p, mailbox) in self.mailboxes.iter().enumerate() {
            let pid = ProcessId::new(p);
            // With telemetry on, note first decisions (the extra
            // `decision` read is gated so the off path is unchanged).
            let was_decided = tel_on && self.alg.decision(&self.states[p]).is_some();
            self.alg.transition(r, pid, &mut self.states[p], mailbox);
            let decision = self.alg.decision(&self.states[p]);
            if tel_on && !was_decided && decision.is_some() {
                self.telemetry
                    .record(r.get(), r.get() as f64, p as u32, EventKind::Decide);
            }
            if let Err(violation) = self.checker.observe(pid, r, decision.as_ref()) {
                self.telemetry.record(
                    r.get(),
                    r.get() as f64,
                    p as u32,
                    EventKind::ViolationFlagged,
                );
                return Err(violation.into());
            }
        }
        if timed {
            self.telemetry.span(Phase::Oracle, span);
        }

        self.round = r;
        Ok(r)
    }

    /// Runs exactly `rounds` rounds.
    ///
    /// # Errors
    ///
    /// Propagates safety violations.
    pub fn run(
        &mut self,
        adversary: &mut impl Adversary,
        rounds: u64,
    ) -> Result<(), RunError<A::Value>> {
        self.run_observed(adversary, rounds, &mut NullObserver)
    }

    /// Runs exactly `rounds` rounds with a streaming [`RoundObserver`]
    /// (see [`RoundExecutor::step_observed`]).
    ///
    /// # Errors
    ///
    /// Propagates safety violations.
    pub fn run_observed(
        &mut self,
        adversary: &mut impl Adversary,
        rounds: u64,
        observer: &mut impl RoundObserver,
    ) -> Result<(), RunError<A::Value>> {
        for _ in 0..rounds {
            self.step_observed(adversary, observer)?;
        }
        Ok(())
    }

    /// Runs until every process in `scope` has decided, or the budget runs
    /// out. Returns the round by which all of `scope` had decided.
    ///
    /// # Errors
    ///
    /// [`RunError::MaxRoundsExceeded`] if termination is not reached within
    /// `max_rounds`; [`RunError::Violation`] on safety violations.
    pub fn run_until_decided_in(
        &mut self,
        scope: ProcessSet,
        adversary: &mut impl Adversary,
        max_rounds: u64,
    ) -> Result<Round, RunError<A::Value>> {
        self.run_until_decided_in_observed(scope, adversary, max_rounds, &mut NullObserver)
    }

    /// [`RoundExecutor::run_until_decided_in`] with a streaming
    /// [`RoundObserver`] (see [`RoundExecutor::step_observed`]).
    ///
    /// # Errors
    ///
    /// See [`RoundExecutor::run_until_decided_in`].
    pub fn run_until_decided_in_observed(
        &mut self,
        scope: ProcessSet,
        adversary: &mut impl Adversary,
        max_rounds: u64,
        observer: &mut impl RoundObserver,
    ) -> Result<Round, RunError<A::Value>> {
        while !self.checker.terminated(scope) {
            if self.round.get() >= max_rounds {
                return Err(RunError::MaxRoundsExceeded {
                    max_rounds,
                    decided: self.checker.decided().len(),
                });
            }
            self.step_observed(adversary, observer)?;
        }
        Ok(self
            .checker
            .last_decision_round(scope)
            .expect("scope terminated"))
    }

    /// Runs until *all* processes decide ([`RoundExecutor::run_until_decided_in`] with
    /// `scope = Π`).
    ///
    /// # Errors
    ///
    /// See [`RoundExecutor::run_until_decided_in`].
    pub fn run_until_all_decided(
        &mut self,
        adversary: &mut impl Adversary,
        max_rounds: u64,
    ) -> Result<Round, RunError<A::Value>> {
        self.run_until_decided_in(ProcessSet::full(self.n()), adversary, max_rounds)
    }

    /// [`RoundExecutor::run_until_all_decided`] with a streaming
    /// [`RoundObserver`] (see [`RoundExecutor::step_observed`]).
    ///
    /// # Errors
    ///
    /// See [`RoundExecutor::run_until_decided_in`].
    pub fn run_until_all_decided_observed(
        &mut self,
        adversary: &mut impl Adversary,
        max_rounds: u64,
        observer: &mut impl RoundObserver,
    ) -> Result<Round, RunError<A::Value>> {
        self.run_until_decided_in_observed(
            ProcessSet::full(self.n()),
            adversary,
            max_rounds,
            observer,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FullDelivery, Scripted};

    /// Decide your own value after `k` rounds — enough to exercise the
    /// executor plumbing without algorithmic complexity.
    struct DecideOwnAfter {
        n: usize,
        k: u64,
    }

    #[derive(Clone, Debug)]
    struct St {
        v: u64,
        rounds: u64,
        heard_total: usize,
    }

    impl HoAlgorithm for DecideOwnAfter {
        type State = St;
        type Message = u64;
        type Value = u64;

        fn n(&self) -> usize {
            self.n
        }
        fn init(&self, _p: ProcessId, v: u64) -> St {
            St {
                v,
                rounds: 0,
                heard_total: 0,
            }
        }
        fn send(&self, _r: Round, _p: ProcessId, s: &St) -> crate::send_plan::SendPlan<u64> {
            crate::send_plan::SendPlan::broadcast(s.v)
        }
        fn transition(&self, _r: Round, _p: ProcessId, s: &mut St, mb: &Mailbox<u64>) {
            s.rounds += 1;
            s.heard_total += mb.len();
        }
        fn decision(&self, s: &St) -> Option<u64> {
            // All processes share initial value in these tests, so this is
            // agreement-safe.
            (s.rounds >= self.k).then_some(s.v)
        }
    }

    #[test]
    fn runs_and_records_trace() {
        let alg = DecideOwnAfter { n: 3, k: 2 };
        let mut exec = RoundExecutor::new(alg, vec![7, 7, 7]);
        let r = exec
            .run_until_all_decided(&mut FullDelivery, 10)
            .expect("decides");
        assert_eq!(r, Round(2));
        assert_eq!(exec.trace().rounds(), 2);
        assert_eq!(exec.decisions(), vec![Some(7), Some(7), Some(7)]);
    }

    #[test]
    fn max_rounds_enforced() {
        let alg = DecideOwnAfter { n: 2, k: 100 };
        let mut exec = RoundExecutor::new(alg, vec![1, 1]);
        let err = exec
            .run_until_all_decided(&mut FullDelivery, 5)
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::MaxRoundsExceeded { max_rounds: 5, .. }
        ));
    }

    #[test]
    fn trace_reflects_adversary() {
        let alg = DecideOwnAfter { n: 2, k: 10 };
        let mut exec = RoundExecutor::new(alg, vec![1, 1]);
        let script = vec![vec![
            ProcessSet::from_indices([0]),
            ProcessSet::from_indices([0, 1]),
        ]];
        let mut adv = Scripted::new(script);
        exec.step(&mut adv).unwrap();
        assert_eq!(
            exec.trace().ho(ProcessId::new(0), Round(1)),
            ProcessSet::from_indices([0])
        );
        assert_eq!(
            exec.trace().ho(ProcessId::new(1), Round(1)),
            ProcessSet::from_indices([0, 1])
        );
    }

    #[test]
    fn ho_is_mailbox_support_not_adversary_grant() {
        /// Sends only to destination 0.
        struct OnlyToZero;
        impl HoAlgorithm for OnlyToZero {
            type State = u64;
            type Message = u64;
            type Value = u64;
            fn n(&self) -> usize {
                2
            }
            fn init(&self, _p: ProcessId, v: u64) -> u64 {
                v
            }
            fn send(&self, _r: Round, _p: ProcessId, s: &u64) -> crate::send_plan::SendPlan<u64> {
                crate::send_plan::SendPlan::to(ProcessId::new(0), *s)
            }
            fn transition(&self, _r: Round, _p: ProcessId, _s: &mut u64, _mb: &Mailbox<u64>) {}
            fn decision(&self, _s: &u64) -> Option<u64> {
                None
            }
        }
        let mut exec = RoundExecutor::new(OnlyToZero, vec![1, 2]);
        exec.step(&mut FullDelivery).unwrap();
        // p1 received nothing even though the adversary allowed everything.
        assert_eq!(
            exec.trace().ho(ProcessId::new(1), Round(1)),
            ProcessSet::empty()
        );
        assert_eq!(
            exec.trace().ho(ProcessId::new(0), Round(1)),
            ProcessSet::full(2)
        );
    }

    #[test]
    fn broadcast_rounds_allocate_o_n_payloads() {
        let alg = DecideOwnAfter { n: 4, k: 100 };
        let mut exec = RoundExecutor::new(alg, vec![1; 4]);
        exec.run(&mut FullDelivery, 10).unwrap();
        let stats = exec.message_stats();
        // One payload per broadcaster per round — O(n), not O(n²).
        assert_eq!(stats.payload_allocs, 4 * 10);
        // All n² transmissions are still delivered.
        assert_eq!(stats.delivered, 16 * 10);
    }

    #[test]
    fn broadcast_payloads_are_recycled_after_the_first_round() {
        // DecideOwnAfter is a broadcast algorithm but does not override
        // send_into, so nothing is reused...
        let mut exec = RoundExecutor::new(DecideOwnAfter { n: 4, k: 100 }, vec![1; 4]);
        exec.run(&mut FullDelivery, 10).unwrap();
        assert_eq!(exec.message_stats().payload_reuses, 0);
        // ...while OneThirdRule writes through the slot: from round 2 on,
        // every broadcast payload lands in round 1's recycled Arc.
        use crate::algorithms::OneThirdRule;
        let mut exec = RoundExecutor::new(OneThirdRule::new(4), vec![1u64, 2, 3, 4]);
        exec.run(&mut FullDelivery, 10).unwrap();
        let stats = exec.message_stats();
        assert_eq!(stats.payload_allocs, 4 * 10);
        assert_eq!(stats.payload_reuses, 4 * 9, "all rounds after the first");
        assert_eq!(stats.fresh_allocs(), 4);
    }

    #[test]
    fn trace_mode_off_keeps_stats_but_no_rows() {
        use crate::trace::TraceMode;
        let alg = DecideOwnAfter { n: 3, k: 2 };
        let mut exec = RoundExecutor::with_trace_mode(alg, vec![7, 7, 7], TraceMode::Off);
        let r = exec
            .run_until_all_decided(&mut FullDelivery, 10)
            .expect("decides");
        assert_eq!(r, Round(2));
        assert_eq!(exec.trace().rounds(), 2);
        assert_eq!(exec.trace().retained_rounds(), 0);
        assert_eq!(exec.trace().transmission_faults(), 0);
        assert_eq!(exec.decisions(), vec![Some(7), Some(7), Some(7)]);
    }

    #[test]
    fn trace_mode_window_retains_the_suffix() {
        use crate::trace::TraceMode;
        let alg = DecideOwnAfter { n: 2, k: 100 };
        let mut exec = RoundExecutor::with_trace_mode(alg, vec![1, 1], TraceMode::Window(3));
        exec.run(&mut FullDelivery, 8).unwrap();
        let t = exec.trace();
        assert_eq!(t.rounds(), 8);
        assert_eq!(t.retained_rounds(), 3);
        assert_eq!(t.first_retained_round(), Round(6));
        assert_eq!(t.ho(ProcessId::new(0), Round(8)), ProcessSet::full(2));
    }

    #[test]
    fn scratch_round_trips_between_scenarios() {
        let alg = DecideOwnAfter { n: 4, k: 2 };
        let mut exec = RoundExecutor::new(alg, vec![3; 4]);
        exec.run(&mut FullDelivery, 3).unwrap();
        let scratch = exec.into_scratch();
        // A smaller follow-up scenario reuses the buffers.
        let alg = DecideOwnAfter { n: 2, k: 2 };
        let mut exec =
            RoundExecutor::with_scratch(alg, vec![5; 2], crate::trace::TraceMode::Off, scratch);
        exec.run(&mut FullDelivery, 3).unwrap();
        assert_eq!(exec.decisions(), vec![Some(5), Some(5)]);
    }

    #[test]
    fn state_access() {
        let alg = DecideOwnAfter { n: 2, k: 1 };
        let mut exec = RoundExecutor::new(alg, vec![3, 3]);
        exec.run(&mut FullDelivery, 1).unwrap();
        assert_eq!(exec.states()[0].heard_total, 2);
        assert_eq!(exec.current_round(), Round(1));
        assert_eq!(exec.n(), 2);
    }
}
