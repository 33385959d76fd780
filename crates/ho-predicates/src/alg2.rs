//! **Algorithm 2**: ensuring `P_su(π0, ·, ·)` in a *π0-down* good period.
//!
//! ```text
//! Reception policy: highest round number first
//! rp ← 1 ; next_rp ← 1 ; sp ← init_p            (rp, sp on stable storage)
//! while true:
//!   msg ← S_p^rp(sp) ; send ⟨msg, rp⟩ to all     (1 send step)
//!   ip ← 0
//!   while next_rp = rp:
//!     ip ← ip + 1
//!     if ip ≥ 2δ + (n+2)φ: next_rp ← rp + 1      (timeout)
//!     receive a message                          (1 receive step)
//!     if ⟨msg, r′⟩ from q: store; if r′ > rp: next_rp ← r′
//!   R ← messages stored for round rp
//!   sp ← T_p^rp(R, sp)
//!   forall r′ ∈ [rp+1, next_rp−1]: sp ← T_p^{r′}(∅, sp)
//!   rp ← next_rp
//! ```
//!
//! The algorithm sends **no messages of its own** — it only wraps the upper
//! layer's round messages with a round number.
//!
//! ## Stable and volatile state
//!
//! `rp` and `sp` live *on* stable storage: the program's `StableImage`
//! is the only `(rp, sp)` it has, written in place by `finish_round` alone
//! (lines 19–22, ending at the persist point). Steps are atomic, so a
//! crash finds the record as the last finished round left it, and there
//! is no in-memory twin to restore and no per-round copy of the upper
//! state — see `crate::stable` for the argument (§4.2.1). `next_rp`,
//! `msgsRcv`, `ip` and the position in the loop are `Volatile`: recovery
//! restarts the outer loop (line 6) with them reinitialized.
//!
//! ## The unified message path
//!
//! The program emits the upper layer's plan *natively*: `S_p^r` is written
//! through a [`PlanSlot`] backed by the program's generation-stamped
//! [`PayloadPool`], exactly like the round-synchronous executor's outbox —
//! except that here recipients hold payloads *across* rounds (until the
//! round they belong to finishes), so a displaced payload slot parks in
//! the pool until the last recipient lets go. The wire envelope
//! ([`Alg2Msg`]) goes through a second plan slot of its own, so in steady
//! state a send step constructs both the payload and the envelope into
//! recycled slots: **zero** heap allocations per round
//! (`tests/alloc_steady_state.rs`).

use ho_core::algorithm::HoAlgorithm;
use ho_core::executor::MessageStats;
use ho_core::pool::PooledPayload;
use ho_core::process::ProcessId;
use ho_core::round::Round;
use ho_core::Mailbox;
use ho_sim::program::{policy, Program, StepKind, WireMsg};

use crate::record::{BoundedLog, RoundLog, RoundRecord};
use crate::send_path::SendPath;
use crate::stable::StableImage;
use crate::StoredMsgs;

/// The wire format of Algorithm 2: the upper layer's round-`round` message.
///
/// The payload is the upper layer's [`SendPlan`](ho_core::SendPlan)
/// broadcast payload, carried as a generation-stamped pool handle: the
/// engine's `send to all` fans one handle out to `n` destinations, so a
/// round costs one payload construction per sender instead of one per
/// transmission — and that construction lands in a recycled slot once the
/// pool warms up.
#[derive(Clone, Debug, PartialEq)]
pub struct Alg2Msg<M> {
    /// The round this message belongs to.
    pub round: u64,
    /// The payload produced by the upper layer's sending function
    /// (`None` if `S_p^r` produced no broadcast message).
    pub payload: Option<PooledPayload<M>>,
}

impl<M> Alg2Msg<M> {
    /// Builds a wire message, wrapping the payload for shared fan-out.
    #[must_use]
    pub fn new(round: u64, payload: Option<M>) -> Self {
        Alg2Msg {
            round,
            payload: payload.map(PooledPayload::new),
        }
    }
}

/// What a crash loses: `next_rp`, `msgsRcv`, `ip` and whether the round's
/// send step is still due.
#[derive(Clone, Debug)]
struct Volatile<A: HoAlgorithm> {
    next_round: u64,
    msgs: StoredMsgs<A>,
    i: u64,
    sending: bool,
}

impl<A: HoAlgorithm> Volatile<A> {
    /// Line 6 with `rp = round`, as on every recovery.
    fn restart(&mut self, round: u64) {
        self.next_round = round;
        self.msgs.clear();
        self.i = 0;
        self.sending = true;
    }
}

/// Algorithm 2 as a step [`Program`], wrapping any broadcast [`HoAlgorithm`].
#[derive(Clone, Debug)]
pub struct Alg2Program<A: HoAlgorithm> {
    alg: A,
    p: ProcessId,
    /// Receive-step budget per round, `⌈2δ + (n+2)φ⌉`.
    timeout: u64,
    stable: StableImage<A::State>,
    vol: Volatile<A>,
    // ---- the unified send path ----
    /// `S_p^r`'s pool-backed plan slot plus the [`Alg2Msg`] envelope's
    /// (shared machinery — see [`SendPath`]).
    path: SendPath<A, Alg2Msg<A::Message>>,
    /// The round mailbox handed to `T_p^r`, persistent across rounds.
    mailbox: Mailbox<A::Message>,
    // ---- observability ----
    records: BoundedLog,
    crashes: u64,
}

impl<A: HoAlgorithm> Alg2Program<A> {
    /// Creates the program for process `p` with the given receive-step
    /// `timeout` (use [`BoundParams::alg2_timeout`](crate::bounds::BoundParams::alg2_timeout)).
    #[must_use]
    pub fn new(alg: A, p: ProcessId, initial_value: A::Value, timeout: u64) -> Self {
        assert!(timeout >= 1, "timeout must be at least one receive step");
        Alg2Program {
            stable: StableImage {
                round: 1,
                state: alg.init(p, initial_value),
            },
            alg,
            p,
            timeout,
            vol: Volatile {
                next_round: 1,
                msgs: Vec::new(),
                i: 0,
                sending: true,
            },
            path: SendPath::new(),
            mailbox: Mailbox::empty(),
            records: BoundedLog::new(),
            crashes: 0,
        }
    }

    /// Caps the observability log at the last `window` executed rounds:
    /// the program stops accreting one record (a `ProcessSet` plus a round
    /// number) per round, which matters on long runs where only a bounded
    /// predicate window is ever evaluated. A polling
    /// [`SystemTrace`](crate::record::SystemTrace) must observe at least
    /// every `window` executed rounds (it asserts this).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn with_record_window(mut self, window: usize) -> Self {
        self.records.set_window(window);
        self
    }

    /// The upper-layer algorithm.
    #[must_use]
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    /// Current upper-layer state `s_p`.
    #[must_use]
    pub fn state(&self) -> &A::State {
        &self.stable.state
    }

    /// Current round `r_p`.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.stable.round
    }

    /// The upper layer's decision, if reached.
    #[must_use]
    pub fn decision(&self) -> Option<A::Value> {
        self.alg.decision(&self.stable.state)
    }

    /// Number of crashes survived.
    #[must_use]
    pub fn crash_count(&self) -> u64 {
        self.crashes
    }

    /// Ends round `rp` on the stable record (lines 19–22).
    fn finish_round(&mut self) {
        let next = self.vol.next_round;
        self.stable.finish_round(
            &self.alg,
            self.p,
            next,
            &self.vol.msgs,
            &mut self.mailbox,
            &mut self.records,
        );
        // Space optimisation sanctioned by §4.2.1: drop messages for rounds
        // already completed.
        self.vol.msgs.retain(|(_, mr, _)| *mr >= next);
        self.vol.sending = true;
        self.vol.i = 0;
    }
}

impl<A: HoAlgorithm> Program for Alg2Program<A> {
    type Msg = Alg2Msg<A::Message>;

    fn next_step(&mut self) -> StepKind<Self::Msg> {
        if self.vol.sending {
            self.vol.sending = false;
            self.vol.i = 0;
            // S_p^r written through the shared pool-backed send path: the
            // payload construction lands in a recycled slot whenever one
            // has drained (recipients hold payloads across rounds, so the
            // generation-stamped pool — not the executor's
            // take-it-back-now trick — is what makes this reuse possible),
            // and the Alg2Msg envelope goes through a slot of its own.
            let round = self.stable.round;
            let state = &self.stable.state;
            self.path
                .emit(&self.alg, Round(round), self.p, state, |payload| Alg2Msg {
                    round,
                    payload,
                })
        } else {
            // Lines 11–13: count the receive step; on timeout, move on after
            // this (still executed) receive.
            self.vol.i += 1;
            if self.vol.i >= self.timeout {
                self.vol.next_round = self.vol.next_round.max(self.stable.round + 1);
            }
            StepKind::Receive
        }
    }

    fn select_message(&mut self, buffer: &[(ProcessId, WireMsg<Self::Msg>)]) -> Option<usize> {
        policy::highest_round_first(buffer, |m| m.round)
    }

    fn on_receive(&mut self, message: Option<(ProcessId, WireMsg<Self::Msg>)>) {
        let round = self.stable.round;
        if let Some((q, m)) = message {
            if m.round >= round {
                // Keep the payload *handle* — the sender's slot stays
                // parked (generation-checked) until this round finishes.
                self.vol.msgs.push((q, m.round, m.payload.clone()));
            }
            if m.round > round {
                self.vol.next_round = self.vol.next_round.max(m.round);
            }
        }
        if self.vol.next_round > round {
            self.finish_round();
        }
    }

    fn on_crash(&mut self) {
        self.crashes += 1;
    }

    fn on_recover(&mut self) {
        // Restart at line 6: rp, sp are on stable storage, where the crash
        // left them; msgsRcv and next_rp are reinitialized.
        self.vol.restart(self.stable.round);
    }

    fn discard_buffered(&self, m: &Self::Msg) -> bool {
        // Line 14 ignores messages for completed rounds; dropping them
        // from the buffer (§4.2.1's space optimisation) is behaviourally
        // identical and keeps the buffer — and the payload pinning —
        // bounded under re-announcement storms.
        m.round < self.stable.round
    }

    fn message_stats(&self) -> MessageStats {
        self.path.stats()
    }
}

impl<A: HoAlgorithm> RoundLog for Alg2Program<A> {
    fn records(&self) -> &[RoundRecord] {
        self.records.records()
    }

    fn discarded(&self) -> u64 {
        self.records.discarded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ho_core::algorithms::OneThirdRule;
    use ho_core::process::ProcessSet;
    use ho_sim::{GoodKind, Schedule, SimConfig, Simulator, TimePoint};

    use crate::bounds::BoundParams;
    use crate::record::SystemTrace;

    fn make_programs(n: usize, timeout: u64, values: &[u64]) -> Vec<Alg2Program<OneThirdRule>> {
        (0..n)
            .map(|p| Alg2Program::new(OneThirdRule::new(n), ProcessId::new(p), values[p], timeout))
            .collect()
    }

    #[test]
    fn good_period_produces_uniform_rounds_and_decision() {
        let n = 4;
        let params = BoundParams::new(n, 1.0, 2.0);
        let cfg = SimConfig::normalized(n, 1.0, 2.0);
        let pi0 = ProcessSet::full(n);
        let schedule = Schedule::always_good(pi0, GoodKind::PiDown);
        let programs = make_programs(n, params.alg2_timeout(), &[3, 1, 4, 1]);
        let mut sim = Simulator::new(cfg, schedule, programs);

        let mut st = SystemTrace::new(n);
        let decided = sim.run_until(TimePoint::new(1000.0), |s| {
            s.programs().iter().all(|p| p.decision().is_some())
        });
        st.observe(sim.programs(), sim.now().get());
        assert!(decided, "OTR over Algorithm 2 decides in a Π-good period");
        assert!(
            sim.programs().iter().all(|p| p.decision() == Some(1)),
            "smallest value wins"
        );

        // Every executed round is space uniform over Π (Lemma B.6).
        let (rho0, _) = st
            .find_space_uniform_window(pi0, 2, 0.0)
            .expect("uniform window");
        assert!(rho0 >= 1);
    }

    #[test]
    fn initial_good_period_meets_theorem5_bound() {
        // Theorem 5: an initial good period of x(2δ+(n+2)φ+1)φ achieves
        // P_su(π0, 1, x). Check the window completes within the bound
        // (plus delivery slack δ+φ for the final transition to be observed).
        let n = 4;
        let (phi, delta) = (1.0, 2.0);
        let params = BoundParams::new(n, phi, delta);
        let cfg = SimConfig::normalized(n, phi, delta);
        let pi0 = ProcessSet::full(n);
        let schedule = Schedule::always_good(pi0, GoodKind::PiDown);
        let programs = make_programs(n, params.alg2_timeout(), &[3, 1, 4, 1]);
        let mut sim = Simulator::new(cfg, schedule, programs);

        let x = 2;
        let bound = params.theorem5(x);
        let mut st = SystemTrace::new(n);
        let achieved = sim.run_until(TimePoint::new(bound * 3.0), |s| {
            let mut probe = SystemTrace::new(n);
            probe.observe(s.programs(), s.now().get());
            probe.find_space_uniform_window(pi0, x, 0.0).is_some()
        });
        st.observe(sim.programs(), sim.now().get());
        assert!(achieved, "P_su(Π, 1..x) achieved");
        assert!(
            sim.now().get() <= bound + delta + phi + 1e-9,
            "achieved at {} > bound {}",
            sim.now().get(),
            bound
        );
    }

    #[test]
    fn crash_recovery_resumes_from_stable_storage() {
        let n = 3;
        let alg = OneThirdRule::new(n);
        let mut prog = Alg2Program::new(alg, ProcessId::new(0), 5u64, 4);
        // Drive manually: send, then 4 receives (empty) → timeout, round 2.
        assert!(matches!(prog.next_step(), StepKind::Send(_)));
        for _ in 0..4 {
            assert_eq!(prog.next_step(), StepKind::Receive);
            prog.on_receive(None);
        }
        assert_eq!(prog.round(), 2);
        // Crash: round and state must come back from stable storage.
        prog.on_crash();
        prog.on_recover();
        assert_eq!(prog.round(), 2, "stable storage preserved rp");
        assert_eq!(prog.crash_count(), 1);
        assert!(
            matches!(prog.next_step(), StepKind::Send(_)),
            "restarts at line 6"
        );
    }

    #[test]
    fn recovery_at_every_step_equals_the_round_boundary_image() {
        use crate::recovery_check::{check, log, Log, View, N};
        let replicas: Vec<Alg2Program<Log>> = (0..N)
            .map(|p| Alg2Program::new(log(), ProcessId::new(p), 0, N as u64))
            .collect();
        let view = View::<Alg2Program<Log>> {
            round: |p| p.round(),
            state: |p| p.state(),
            volatile_is_reset: |p| {
                let v = &p.vol;
                v.next_round == p.stable.round && v.msgs.is_empty() && v.i == 0 && v.sending
            },
            // Every replica's ROUND message; the last one meets the timeout.
            inbox: |round_msgs| round_msgs.to_vec(),
        };
        check(replicas, view, 24);
    }

    #[test]
    fn higher_round_message_fast_forwards() {
        let n = 3;
        let alg = OneThirdRule::new(n);
        let mut prog = Alg2Program::new(alg, ProcessId::new(0), 5u64, 100);
        let _ = prog.next_step(); // send round 1
        assert_eq!(prog.next_step(), StepKind::Receive);
        // A round-7 message arrives: jump to round 7 immediately (lines
        // 17–18), executing rounds 1..6 (round 1 with the stored payload
        // absent — only the round-7 message is stored).
        prog.on_receive(Some((
            ProcessId::new(1),
            WireMsg::Owned(Alg2Msg::new(7, Some(9u64))),
        )));
        assert_eq!(prog.round(), 7);
        // Records: rounds 1..=6 executed (1 real + 5 empty).
        assert_eq!(prog.records().len(), 6);
        assert!(prog
            .records()
            .iter()
            .all(|r| r.ho.is_empty() || r.round == 1));
    }

    #[test]
    fn stale_messages_are_ignored() {
        let n = 3;
        let alg = OneThirdRule::new(n);
        let mut prog = Alg2Program::new(alg, ProcessId::new(0), 5u64, 100);
        let _ = prog.next_step();
        // Jump to round 3.
        let _ = prog.next_step();
        prog.on_receive(Some((
            ProcessId::new(1),
            WireMsg::Owned(Alg2Msg::new(3, Some(1u64))),
        )));
        assert_eq!(prog.round(), 3);
        // A late round-1 message must not be stored.
        let before = prog.vol.msgs.len();
        let _ = prog.next_step();
        prog.on_receive(Some((
            ProcessId::new(2),
            WireMsg::Owned(Alg2Msg::new(1, Some(2u64))),
        )));
        assert_eq!(prog.vol.msgs.len(), before);
    }

    #[test]
    fn sends_no_extra_messages() {
        // Algorithm 2 relies exclusively on the upper layer's messages: one
        // broadcast per round, nothing else.
        let n = 3;
        let cfg = SimConfig::normalized(n, 1.0, 1.0);
        let schedule = Schedule::always_good(ProcessSet::full(n), GoodKind::PiDown);
        let programs = make_programs(n, 8, &[1, 2, 3]);
        let mut sim = Simulator::new(cfg, schedule, programs);
        sim.run_for(TimePoint::new(200.0));
        let max_round: u64 = sim.programs().iter().map(|p| p.round()).max().unwrap();
        // Each process sends at most one broadcast per round it entered.
        assert!(sim.stats().send_steps <= n as u64 * max_round);
    }
}
