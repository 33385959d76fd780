//! **Algorithm 3**: ensuring `P_k(π0, ·, ·)` in a *π0-arbitrary* good
//! period (requires `f < n/2`).
//!
//! ```text
//! Reception policy: highest round message from each process, round-robin
//! rp ← 1 ; next_rp ← 1 ; sp ← init_p            (rp, sp on stable storage)
//! while true:
//!   msg ← S_p^rp(sp) ; send ⟨ROUND, rp, msg⟩ to all
//!   i ← 0
//!   while next_rp = rp:
//!     receive a message
//!     if ⟨ROUND, msg, r′⟩ or ⟨INIT, msg, r′+1⟩ from q:
//!       store ⟨msg, r′, q⟩ ; if r′ > rp: next_rp ← r′
//!     if f+1 ⟨INIT, rp+1, −⟩ from distinct processes:
//!       next_rp ← max(rp + 1, next_rp)
//!     i ← i + 1
//!     if i ≥ 2δ + (2n+1)φ: send ⟨INIT, rp+1, msg⟩ to all
//!   R ← messages stored for round rp ; sp ← T_p^rp(R, sp)
//!   forall r′ ∈ [rp+1, next_rp−1]: sp ← T_p^{r′}(∅, sp)
//!   rp ← next_rp
//! ```
//!
//! Key differences from Byzantine clock synchronization (§4.2.2): a process
//! that merely *intends* to advance announces it with INIT; `f + 1` INIT
//! announcements — at least one from a correct process in `π0` — let
//! everyone advance, and a single ROUND message from a higher round drags a
//! late process forward immediately, giving fast synchronization at the
//! start of a good period.
//!
//! ## Stable and volatile state
//!
//! As in [Algorithm 2](crate::alg2), `rp` and `sp` live *on* stable
//! storage: the program's `StableImage` is the only `(rp, sp)` it has,
//! written in place by `finish_round` alone; with atomic steps a crash
//! finds it as the last finished round left it, so there is no in-memory
//! twin and no per-round copy of the upper state (`crate::stable`,
//! §4.2.1). `Volatile` is what a crash loses; recovery restarts the
//! outer loop with it reinitialized.

use ho_core::algorithm::HoAlgorithm;
use ho_core::executor::MessageStats;
use ho_core::pool::PooledPayload;
use ho_core::process::{ProcessId, ProcessSet};
use ho_core::round::Round;
use ho_core::Mailbox;
use ho_sim::program::{policy, Program, StepKind, WireMsg};

use crate::record::{BoundedLog, RoundLog, RoundRecord};
use crate::send_path::SendPath;
use crate::stable::StableImage;
use crate::StoredMsgs;

/// The wire format of Algorithm 3.
///
/// Payloads are the upper layer's [`SendPlan`](ho_core::SendPlan) broadcast
/// payloads, carried as generation-stamped pool handles
/// (see [`Alg2Msg`](crate::Alg2Msg)).
#[derive(Clone, Debug, PartialEq)]
pub enum Alg3Msg<M> {
    /// `⟨ROUND, r, msg⟩`: the sender is in round `r`; `msg` is the upper
    /// layer's round-`r` message.
    Round {
        /// The sender's round.
        round: u64,
        /// Upper-layer payload for `round`.
        payload: Option<PooledPayload<M>>,
    },
    /// `⟨INIT, ρ, msg⟩`: the sender wants to enter round `ρ`; `msg` is its
    /// round-`ρ−1` message (so an INIT also counts as a round-`ρ−1`
    /// message).
    Init {
        /// The round the sender wants to enter.
        round: u64,
        /// Upper-layer payload for `round − 1`.
        payload: Option<PooledPayload<M>>,
    },
}

impl<M> Alg3Msg<M> {
    /// Builds a ROUND message, wrapping the payload for shared fan-out.
    #[must_use]
    pub fn round(round: u64, payload: Option<M>) -> Self {
        Alg3Msg::Round {
            round,
            payload: payload.map(PooledPayload::new),
        }
    }

    /// Builds an INIT message, wrapping the payload for shared fan-out.
    #[must_use]
    pub fn init(round: u64, payload: Option<M>) -> Self {
        Alg3Msg::Init {
            round,
            payload: payload.map(PooledPayload::new),
        }
    }

    /// The round number used by the reception policy (the wire round).
    #[must_use]
    pub fn wire_round(&self) -> u64 {
        match self {
            Alg3Msg::Round { round, .. } | Alg3Msg::Init { round, .. } => *round,
        }
    }

    /// The round this message *contributes a payload to*: `r` for ROUND
    /// messages, `ρ − 1` for INIT messages.
    #[must_use]
    pub fn content_round(&self) -> u64 {
        match self {
            Alg3Msg::Round { round, .. } => *round,
            Alg3Msg::Init { round, .. } => round - 1,
        }
    }
}

/// What a crash loses.
#[derive(Clone, Debug)]
struct Volatile<A: HoAlgorithm> {
    next_round: u64,
    msgs: StoredMsgs<A>,
    /// Distinct senders of `⟨INIT, ρ, −⟩` per target round `ρ > rp`.
    init_senders: Vec<(u64, ProcessSet)>,
    i: u64,
    mode: Mode,
    /// Whether this round's INIT has been announced (for `InitResend::Once`).
    init_sent_this_round: bool,
}

impl<A: HoAlgorithm> Volatile<A> {
    /// The top of the outer loop with `rp = round`, as on every recovery.
    fn restart(&mut self, round: u64) {
        self.next_round = round;
        self.msgs.clear();
        self.init_senders.clear();
        self.i = 0;
        self.mode = Mode::SendRound;
        self.init_sent_this_round = false;
    }
}

/// How often a stuck process re-announces its INIT once the timeout has
/// passed (ablation knob; the paper's pseudo-code re-announces on every
/// loop iteration).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InitResend {
    /// Re-announce after every receive step past the timeout (the paper's
    /// literal reading; guarantees an INIT lands within `τ0 + 1` steps of
    /// any point in a good period).
    #[default]
    EveryStep,
    /// Announce once per round only. Cheaper, but an INIT lost in a bad
    /// period is never replaced — rounds can wedge (see the `ablation`
    /// experiment).
    Once,
}

/// Which reception policy Algorithm 3 uses (ablation knob).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Alg3Policy {
    /// The paper's policy: highest round per process, round-robin over
    /// processes — no sender can starve another.
    #[default]
    RoundRobin,
    /// Algorithm 2's simpler policy. A process with a backlog of
    /// high-round messages can starve others (this is exactly why the
    /// paper gives Algorithm 3 its own policy).
    HighestFirst,
}

/// Algorithm 3 as a step [`Program`], wrapping any broadcast [`HoAlgorithm`].
#[derive(Clone, Debug)]
pub struct Alg3Program<A: HoAlgorithm> {
    alg: A,
    p: ProcessId,
    /// Resilience parameter (`|π0| = n − f`).
    f: usize,
    /// INIT quorum (defaults to `f + 1`).
    init_quorum: usize,
    /// Receive-step budget `⌈2δ + (2n+1)φ⌉` before INIT announcements.
    timeout: u64,
    /// INIT re-announcement policy.
    resend: InitResend,
    /// Reception policy.
    policy: Alg3Policy,
    stable: StableImage<A::State>,
    vol: Volatile<A>,
    /// Receive steps taken so far: the round-robin pointer of the reception
    /// policy (any value is fair, so recovery leaves it alone).
    recv_steps: u64,
    // ---- the unified send path (shared with `Alg2Program`) ----
    path: SendPath<A, Alg3Msg<A::Message>>,
    mailbox: Mailbox<A::Message>,
    // ---- observability ----
    records: BoundedLog,
    crashes: u64,
    inits_sent: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    SendRound,
    Recv,
    SendInit,
}

impl<A: HoAlgorithm> Alg3Program<A> {
    /// Creates the program for process `p`.
    ///
    /// `f` is the resilience parameter (`|π0| = n − f`, `f < n/2`);
    /// `timeout` is `⌈2δ + (2n+1)φ⌉` receive steps
    /// (see [`BoundParams::alg3_timeout`](crate::bounds::BoundParams::alg3_timeout)).
    ///
    /// # Panics
    ///
    /// Panics unless `f < n/2` and `timeout ≥ 1`.
    #[must_use]
    pub fn new(alg: A, p: ProcessId, initial_value: A::Value, f: usize, timeout: u64) -> Self {
        assert!(2 * f < alg.n(), "Algorithm 3 requires f < n/2");
        assert!(timeout >= 1, "timeout must be at least one receive step");
        Alg3Program {
            stable: StableImage {
                round: 1,
                state: alg.init(p, initial_value),
            },
            alg,
            p,
            f,
            init_quorum: f + 1,
            timeout,
            resend: InitResend::default(),
            policy: Alg3Policy::default(),
            vol: Volatile {
                next_round: 1,
                msgs: Vec::new(),
                init_senders: Vec::new(),
                i: 0,
                mode: Mode::SendRound,
                init_sent_this_round: false,
            },
            recv_steps: 0,
            path: SendPath::new(),
            mailbox: Mailbox::empty(),
            records: BoundedLog::new(),
            crashes: 0,
            inits_sent: 0,
        }
    }

    /// Caps the observability log at the last `window` executed rounds
    /// (see `Alg2Program::with_record_window`).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn with_record_window(mut self, window: usize) -> Self {
        self.records.set_window(window);
        self
    }

    /// Sets the INIT re-announcement policy (ablation knob).
    #[must_use]
    pub fn with_resend(mut self, resend: InitResend) -> Self {
        self.resend = resend;
        self
    }

    /// Sets the reception policy (ablation knob).
    #[must_use]
    pub fn with_policy(mut self, policy: Alg3Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the INIT quorum (default `f + 1`; §5 notes that varying
    /// the quorums for INIT and ROUND messages goes back to [20, 24]).
    ///
    /// # Panics
    ///
    /// Panics if `quorum == 0`.
    #[must_use]
    pub fn with_init_quorum(mut self, quorum: usize) -> Self {
        assert!(quorum > 0, "INIT quorum must be positive");
        self.init_quorum = quorum;
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

    /// The resilience parameter `f` (`|π0| = n − f`).
    #[must_use]
    pub fn resilience(&self) -> usize {
        self.f
    }

    /// The INIT quorum in force (default `f + 1`).
    #[must_use]
    pub fn init_quorum(&self) -> usize {
        self.init_quorum
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

    /// Number of INIT broadcasts sent.
    #[must_use]
    pub fn inits_sent(&self) -> u64 {
        self.inits_sent
    }

    fn note_init_sender(&mut self, target: u64, q: ProcessId) -> usize {
        let senders = &mut self.vol.init_senders;
        if let Some((_, set)) = senders.iter_mut().find(|(r, _)| *r == target) {
            set.insert(q);
            return set.len();
        }
        senders.push((target, ProcessSet::singleton(q)));
        1
    }

    /// Evaluates `S_p^r` through the shared pool-backed send path and
    /// wraps it in the wire envelope — ROUND for the round broadcast,
    /// INIT for announcements. Both constructions land in recycled pool
    /// slots in steady state.
    fn emit_wire(&mut self, init: bool) -> StepKind<Alg3Msg<A::Message>> {
        let StableImage { round, state } = &self.stable;
        let wire_round = if init { round + 1 } else { *round };
        self.path
            .emit(&self.alg, Round(*round), self.p, state, |payload| {
                if init {
                    Alg3Msg::Init {
                        round: wire_round,
                        payload,
                    }
                } else {
                    Alg3Msg::Round {
                        round: wire_round,
                        payload,
                    }
                }
            })
    }

    /// Ends round `rp` on the stable record (lines 18–20).
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
        self.vol.msgs.retain(|(_, mr, _)| *mr >= next);
        self.vol.init_senders.retain(|(r, _)| *r > next);
        self.vol.mode = Mode::SendRound;
        self.vol.i = 0;
        self.vol.init_sent_this_round = false;
    }
}

impl<A: HoAlgorithm> Program for Alg3Program<A> {
    type Msg = Alg3Msg<A::Message>;

    fn next_step(&mut self) -> StepKind<Self::Msg> {
        match self.vol.mode {
            Mode::SendRound => {
                self.vol.mode = Mode::Recv;
                self.vol.i = 0;
                self.emit_wire(false)
            }
            Mode::SendInit => {
                self.vol.mode = Mode::Recv;
                self.inits_sent += 1;
                self.vol.init_sent_this_round = true;
                self.emit_wire(true)
            }
            Mode::Recv => {
                self.recv_steps += 1;
                StepKind::Receive
            }
        }
    }

    fn select_message(&mut self, buffer: &[(ProcessId, WireMsg<Self::Msg>)]) -> Option<usize> {
        match self.policy {
            Alg3Policy::RoundRobin => {
                policy::round_robin_highest(buffer, self.recv_steps, self.alg.n(), |m| {
                    m.wire_round()
                })
            }
            Alg3Policy::HighestFirst => policy::highest_round_first(buffer, |m| m.wire_round()),
        }
    }

    fn on_receive(&mut self, message: Option<(ProcessId, WireMsg<Self::Msg>)>) {
        let round = self.stable.round;
        if let Some((q, m)) = message {
            let content = m.content_round();
            if content >= round {
                let payload = match &*m {
                    Alg3Msg::Round { payload, .. } | Alg3Msg::Init { payload, .. } => {
                        payload.clone()
                    }
                };
                // Store at most one payload per (round, sender).
                let msgs = &mut self.vol.msgs;
                if !msgs.iter().any(|(s, mr, _)| *s == q && *mr == content) {
                    msgs.push((q, content, payload));
                }
            }
            if content > round {
                self.vol.next_round = self.vol.next_round.max(content);
            }
            if let Alg3Msg::Init { round: target, .. } = *m {
                if target > round {
                    let distinct = self.note_init_sender(target, q);
                    // Line 16: f + 1 INITs for rp + 1 advance the round.
                    if target == round + 1 && distinct >= self.init_quorum {
                        self.vol.next_round = self.vol.next_round.max(round + 1);
                    }
                }
            }
        }
        // Lines 18–20: count this receive step; from the timeout on, every
        // further loop iteration re-announces INIT (one send step each).
        self.vol.i += 1;
        if self.vol.next_round > round {
            self.finish_round();
        } else if self.vol.i >= self.timeout
            && (self.resend == InitResend::EveryStep || !self.vol.init_sent_this_round)
        {
            self.vol.mode = Mode::SendInit;
        }
    }

    fn on_crash(&mut self) {
        self.crashes += 1;
    }

    fn on_recover(&mut self) {
        self.vol.restart(self.stable.round);
    }

    fn discard_buffered(&self, m: &Self::Msg) -> bool {
        // A message whose *content* round is behind `rp` contributes
        // nothing (line 13 stores only `r′ ≥ rp`, and its INIT target — at
        // most content + 1 — cannot exceed `rp` either): drop it from the
        // buffer. Without this, every INIT re-announcement outlives its
        // round in the buffer and reception (one message per step) can
        // never catch up — unbounded memory and pinned payload slots.
        m.content_round() < self.stable.round
    }

    fn message_stats(&self) -> MessageStats {
        self.path.stats()
    }
}

impl<A: HoAlgorithm> RoundLog for Alg3Program<A> {
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
    use ho_sim::{GoodKind, Schedule, SimConfig, Simulator, TimePoint};

    use crate::bounds::BoundParams;
    use crate::record::SystemTrace;

    fn make_programs(
        n: usize,
        f: usize,
        timeout: u64,
        values: &[u64],
    ) -> Vec<Alg3Program<OneThirdRule>> {
        (0..n)
            .map(|p| {
                Alg3Program::new(
                    OneThirdRule::new(n),
                    ProcessId::new(p),
                    values[p],
                    f,
                    timeout,
                )
            })
            .collect()
    }

    /// The wire message a send step broadcasts, if the step was a send.
    fn sent(step: StepKind<Alg3Msg<u64>>) -> Option<Alg3Msg<u64>> {
        match step {
            StepKind::Send(plan) => plan.broadcast_payload().cloned(),
            StepKind::Receive => None,
        }
    }

    #[test]
    fn kernel_rounds_in_pi_arbitrary_good_period() {
        // n = 5, f = 2, π0 = {0, 1, 2}: kernel rounds over π0 must appear
        // even though {3, 4} are unrestricted (here: down by never being
        // in π0 and the arbitrary rules applying).
        let n = 5;
        let f = 2;
        let params = BoundParams::new(n, 1.0, 2.0);
        let cfg = SimConfig::normalized(n, 1.0, 2.0).with_seed(5);
        let pi0 = ProcessSet::from_indices(0..3);
        let schedule = Schedule::always_good(pi0, GoodKind::PiArbitrary);
        let programs = make_programs(n, f, params.alg3_timeout(), &[9, 4, 7, 1, 2]);
        let mut sim = Simulator::new(cfg, schedule, programs);

        let found = sim.run_until(TimePoint::new(2000.0), |s| {
            let mut probe = SystemTrace::new(n);
            probe.observe(s.programs(), s.now().get());
            probe.find_kernel_window(pi0, 2, 0.0).is_some()
        });
        assert!(found, "P_k(π0, ·, ·) windows appear");
    }

    #[test]
    fn initial_good_period_meets_theorem7_shape() {
        // All of Π synchronous from t = 0: x kernel rounds complete within
        // the Theorem 7 bound (plus observation slack).
        let n = 4;
        let f = 1;
        let (phi, delta) = (1.0, 2.0);
        let params = BoundParams::new(n, phi, delta);
        let cfg = SimConfig::normalized(n, phi, delta);
        let pi0 = ProcessSet::full(n);
        let schedule = Schedule::always_good(pi0, GoodKind::PiArbitrary);
        let programs = make_programs(n, f, params.alg3_timeout(), &[3, 1, 4, 1]);
        let mut sim = Simulator::new(cfg, schedule, programs);

        let x = 3;
        let bound = params.theorem7(x);
        let achieved = sim.run_until(TimePoint::new(bound * 3.0), |s| {
            let mut probe = SystemTrace::new(n);
            probe.observe(s.programs(), s.now().get());
            probe.find_kernel_window(pi0, x, 0.0).is_some()
        });
        assert!(achieved);
        // Slack: the bound counts message *reception*; the harness observes
        // HO at the transition, one INIT exchange later (receive steps
        // alternate with INIT resends post-timeout: up to (2n+2)φ + δ).
        let slack = delta + (2.0 * n as f64 + 2.0) * phi + 1.0;
        assert!(
            sim.now().get() <= bound + slack + 1e-9,
            "achieved at {} > bound {} + slack {}",
            sim.now().get(),
            bound,
            slack
        );
    }

    #[test]
    fn init_quorum_advances_round() {
        let n = 5;
        let f = 2;
        let alg = OneThirdRule::new(n);
        let mut prog = Alg3Program::new(alg, ProcessId::new(0), 5u64, f, 1000);
        let _ = prog.next_step(); // ROUND 1 broadcast
                                  // f + 1 = 3 distinct INITs for round 2 advance us to round 2.
        for q in 1..=3 {
            assert_eq!(prog.next_step(), StepKind::Receive);
            prog.on_receive(Some((
                ProcessId::new(q),
                WireMsg::Owned(Alg3Msg::init(2, Some(7u64))),
            )));
        }
        assert_eq!(prog.round(), 2);
        // The INITs also contributed round-1 payloads: HO(0, 1) = {1, 2, 3}.
        assert_eq!(prog.records()[0].ho, ProcessSet::from_indices([1, 2, 3]));
    }

    #[test]
    fn fewer_than_quorum_inits_do_not_advance() {
        let n = 5;
        let f = 2;
        let alg = OneThirdRule::new(n);
        let mut prog = Alg3Program::new(alg, ProcessId::new(0), 5u64, f, 1000);
        let _ = prog.next_step();
        for q in 1..=2 {
            let _ = prog.next_step();
            prog.on_receive(Some((
                ProcessId::new(q),
                WireMsg::Owned(Alg3Msg::init(2, None)),
            )));
        }
        assert_eq!(prog.round(), 1, "2 < f+1 INITs");
        // Duplicate INIT from the same sender must not count twice.
        let _ = prog.next_step();
        prog.on_receive(Some((
            ProcessId::new(2),
            WireMsg::Owned(Alg3Msg::init(2, None)),
        )));
        assert_eq!(prog.round(), 1, "duplicates don't reach the quorum");
    }

    #[test]
    fn higher_round_message_drags_forward() {
        let n = 5;
        let alg = OneThirdRule::new(n);
        let mut prog = Alg3Program::new(alg, ProcessId::new(0), 5u64, 2, 1000);
        let _ = prog.next_step();
        let _ = prog.next_step();
        prog.on_receive(Some((
            ProcessId::new(3),
            WireMsg::Owned(Alg3Msg::round(9, Some(1u64))),
        )));
        assert_eq!(prog.round(), 9, "ROUND message for r′ > rp jumps to r′");
    }

    #[test]
    fn timeout_triggers_init_resends() {
        let n = 3;
        let alg = OneThirdRule::new(n);
        let mut prog = Alg3Program::new(alg, ProcessId::new(0), 5u64, 1, 2);
        let _ = prog.next_step(); // ROUND
                                  // Two empty receives reach the timeout → INIT; then the pattern
                                  // re-arms every receive step.
        let _ = prog.next_step();
        prog.on_receive(None);
        let _ = prog.next_step();
        prog.on_receive(None);
        match sent(prog.next_step()) {
            Some(Alg3Msg::Init { round, .. }) => assert_eq!(round, 2),
            other => panic!("expected INIT, got {other:?}"),
        }
        assert_eq!(prog.inits_sent(), 1);
        // Still stuck → receive, then INIT again.
        let _ = prog.next_step();
        prog.on_receive(None);
        assert!(matches!(sent(prog.next_step()), Some(Alg3Msg::Init { .. })));
        assert_eq!(prog.inits_sent(), 2);
    }

    #[test]
    fn recovery_restores_stable_round() {
        let n = 3;
        let alg = OneThirdRule::new(n);
        let mut prog = Alg3Program::new(alg, ProcessId::new(0), 5u64, 1, 1000);
        let _ = prog.next_step();
        let _ = prog.next_step();
        prog.on_receive(Some((
            ProcessId::new(1),
            WireMsg::Owned(Alg3Msg::round(4, Some(2u64))),
        )));
        assert_eq!(prog.round(), 4);
        prog.on_crash();
        prog.on_recover();
        assert_eq!(prog.round(), 4, "rp restored from stable storage");
        assert!(matches!(
            sent(prog.next_step()),
            Some(Alg3Msg::Round { round: 4, .. })
        ));
    }

    #[test]
    fn recovery_at_every_step_equals_the_round_boundary_image() {
        use crate::recovery_check::{check, log, Log, View, N};
        let replicas: Vec<Alg3Program<Log>> = (0..N)
            .map(|p| Alg3Program::new(log(), ProcessId::new(p), 0, 1, N as u64))
            .collect();
        let view = View::<Alg3Program<Log>> {
            round: |p| p.round(),
            state: |p| p.state(),
            volatile_is_reset: |p| {
                let v = &p.vol;
                v.next_round == p.stable.round
                    && v.msgs.is_empty()
                    && v.init_senders.is_empty()
                    && v.i == 0
                    && v.mode == Mode::SendRound
                    && !v.init_sent_this_round
            },
            // Every replica's ROUND message (the last one meets the
            // timeout), then every replica's INIT for the next round.
            inbox: |round_msgs| {
                let inits = round_msgs.iter().map(|m| match m {
                    Alg3Msg::Round { round, payload } => Alg3Msg::Init {
                        round: round + 1,
                        payload: payload.clone(),
                    },
                    init => panic!("a round opens with ROUND, not {init:?}"),
                });
                round_msgs.iter().cloned().chain(inits).collect()
            },
        };
        check(replicas, view, 24);
    }

    #[test]
    fn custom_init_quorum_of_one() {
        // With quorum 1, a single INIT advances the round (the quorum
        // variations §5 attributes to [20, 24]).
        let n = 5;
        let alg = OneThirdRule::new(n);
        let mut prog = Alg3Program::new(alg, ProcessId::new(0), 5u64, 2, 1000).with_init_quorum(1);
        assert_eq!(prog.init_quorum(), 1);
        assert_eq!(prog.resilience(), 2);
        let _ = prog.next_step();
        let _ = prog.next_step();
        prog.on_receive(Some((
            ProcessId::new(1),
            WireMsg::Owned(Alg3Msg::init(2, None)),
        )));
        assert_eq!(prog.round(), 2, "one INIT suffices at quorum 1");
    }

    #[test]
    fn oversized_init_quorum_disables_init_path() {
        let n = 5;
        let alg = OneThirdRule::new(n);
        let mut prog =
            Alg3Program::new(alg, ProcessId::new(0), 5u64, 2, 1000).with_init_quorum(n + 1);
        let _ = prog.next_step();
        for q in 1..n {
            let _ = prog.next_step();
            prog.on_receive(Some((
                ProcessId::new(q),
                WireMsg::Owned(Alg3Msg::init(2, None)),
            )));
        }
        assert_eq!(prog.round(), 1, "n INITs < n+1 quorum: stuck by design");
        // ROUND messages still drag forward.
        let _ = prog.next_step();
        prog.on_receive(Some((
            ProcessId::new(1),
            WireMsg::Owned(Alg3Msg::round(2, None)),
        )));
        assert_eq!(prog.round(), 2);
    }

    #[test]
    fn resend_once_sends_single_init_per_round() {
        use crate::alg3::InitResend;
        let n = 3;
        let alg = OneThirdRule::new(n);
        let mut prog =
            Alg3Program::new(alg, ProcessId::new(0), 5u64, 1, 2).with_resend(InitResend::Once);
        let _ = prog.next_step(); // ROUND
        for _ in 0..10 {
            match prog.next_step() {
                StepKind::Receive => prog.on_receive(None),
                StepKind::Send(plan) => assert!(
                    matches!(plan.broadcast_payload(), Some(Alg3Msg::Init { .. })),
                    "unexpected plan {plan:?}"
                ),
            }
        }
        assert_eq!(prog.inits_sent(), 1, "exactly one INIT per round");
    }

    #[test]
    fn wire_and_content_rounds() {
        let m: Alg3Msg<u64> = Alg3Msg::Init {
            round: 5,
            payload: None,
        };
        assert_eq!(m.wire_round(), 5);
        assert_eq!(m.content_round(), 4);
        let m: Alg3Msg<u64> = Alg3Msg::Round {
            round: 5,
            payload: None,
        };
        assert_eq!(m.content_round(), 5);
    }
}
