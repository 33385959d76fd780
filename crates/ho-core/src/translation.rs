//! The `P_k → P_su` translation (Algorithms 4 and 7, Theorem 8).
//!
//! `f + 1` rounds satisfying `P_k(Π0, ·, ·)` (with `|Π0| = n − f`) can be
//! turned into **one macro-round** satisfying `P_su(Π0, ·, ·)`, provided
//! `n > 2f`. The construction relays everything heard:
//!
//! ```text
//! Variables: Listen_p = Π ; Known_p = {⟨S_p^R(s_p), p⟩}
//! Round r:
//!   S: send ⟨Known_p⟩ to all
//!   T: Listen_p ← Listen_p ∩ {q | ⟨Known_q⟩ received}
//!      if r ≢ 0 (mod f+1):
//!        Known_p ← Known_p ∪ ⋃_{q ∈ Listen_p} Known_q
//!      else:
//!        NewHO_p ← {s | ⟨−, s⟩ ∈ Known_q for n−f processes q ∈ Listen_p}
//!        apply inner T_p^R with the messages of NewHO_p
//!        Listen_p ← Π ; Known_p ← {⟨S_p^{R+1}(s_p), p⟩}
//! ```
//!
//! [`Translated`] is the generic combinator: it wraps any *broadcast* HO
//! algorithm `A` and yields an HO algorithm whose round `r` is micro-round
//! `r` of the translation and whose macro-round `R = ⌈r/(f+1)⌉` runs `A`.
//!
//! A round in steady state allocates nothing: `Known_p` ([`Known`]) keeps
//! the messages a macro-round retires and `clone_from`s the next one's
//! into them, on the wire as in the state, and the counting round builds
//! the inner mailbox and the next `S_p^{R+1}` in buffers the state owns.

use std::fmt;

use crate::algorithm::HoAlgorithm;
use crate::mailbox::Mailbox;
use crate::pool::PayloadPool;
use crate::process::{ProcessId, ProcessSet, MAX_PROCESSES};
use crate::round::Round;
use crate::send_plan::{PlanSlot, PlanSpares, SendPlan};

/// The `P_k → P_su` translation of a broadcast HO algorithm.
///
/// The inner algorithm must be a *broadcast* algorithm (the same message to
/// every destination, like OneThirdRule); the translation relays these
/// messages wholesale, which only makes sense when the message does not
/// depend on the destination.
///
/// # Erratum: `f + 1` vs `f + 2` rounds
///
/// As printed in the paper, a macro-round spans `f + 1` rounds — `f` relay
/// rounds followed by the counting round. Our reproduction found rare
/// counterexamples at `n = 2f + 1`: a process `s ∉ Π0` can enter the
/// `Known` set of exactly one `Π0` member in the *last* relay round, and
/// the `n − f` voucher threshold is then met at processes that also listen
/// to the (up to `f`) co-kernel processes but missed at processes that do
/// not — breaking space uniformity (Lemma C.5's "known at `r_{f+1}` ⇒
/// heard by `r_f`" step fails; see `tests/translation_erratum.rs`).
/// [`Translated::corrected`] uses `f + 2` rounds (`f + 1` relay rounds),
/// which restores the all-or-nothing property: a value reaching its first
/// `Π0` member only in relay round `f + 1` would need `f + 1` distinct
/// relays outside `Π0`, but only `f` exist. [`Translated::new`] stays
/// faithful to the paper.
#[derive(Clone, Copy, Debug)]
pub struct Translated<A> {
    inner: A,
    f: usize,
    relay_rounds: u64,
}

impl<A: HoAlgorithm> Translated<A> {
    /// Wraps `inner`, tolerating `f` transmission-faulty processes per
    /// macro-round (`|Π0| = n − f`), with the paper's `f + 1` rounds per
    /// macro-round (`f` relay rounds — see the erratum note on the type).
    ///
    /// # Panics
    ///
    /// Panics unless `n > 2f` (required by Theorem 8).
    #[must_use]
    pub fn new(inner: A, f: usize) -> Self {
        assert!(inner.n() > 2 * f, "translation requires n > 2f");
        Translated {
            inner,
            f,
            relay_rounds: f as u64,
        }
    }

    /// The corrected translation: `f + 2` rounds per macro-round (`f + 1`
    /// relay rounds), for which space uniformity is exact (see the erratum
    /// note on the type).
    ///
    /// # Panics
    ///
    /// Panics unless `n > 2f`.
    #[must_use]
    pub fn corrected(inner: A, f: usize) -> Self {
        assert!(inner.n() > 2 * f, "translation requires n > 2f");
        Translated {
            inner,
            f,
            relay_rounds: f as u64 + 1,
        }
    }

    /// Rounds per macro-round: `f + 1` for [`Translated::new`], `f + 2` for
    /// [`Translated::corrected`].
    #[must_use]
    pub fn rounds_per_macro(&self) -> u64 {
        self.relay_rounds + 1
    }

    /// The wrapped algorithm.
    #[must_use]
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The number of micro-rounds needed to execute `macro_rounds` inner
    /// rounds.
    #[must_use]
    pub fn micro_rounds_for(&self, macro_rounds: u64) -> u64 {
        macro_rounds * self.rounds_per_macro()
    }
}

/// `Known_p`: `⟨message, origin⟩` pairs, at most one per origin, in
/// insertion order — the translation's relay variable and, as `⟨Known_p⟩`,
/// its round message.
///
/// Emptying the set retires its messages instead of dropping them, and an
/// insertion `clone_from`s into a retired one, so a set that is emptied and
/// refilled every macro-round (or a recycled payload buffer overwritten
/// through [`Clone::clone_from`]) reuses the heap its messages own.
pub struct Known<M> {
    pairs: Vec<(ProcessId, M)>,
    /// The origins in `pairs`.
    origins: ProcessSet,
    /// Messages retired by `clear`, at most as many as `pairs` ever held.
    retired: Vec<M>,
}

impl<M> Default for Known<M> {
    fn default() -> Self {
        Known {
            pairs: Vec::new(),
            origins: ProcessSet::empty(),
            retired: Vec::new(),
        }
    }
}

impl<M: Clone> Known<M> {
    /// The pairs, in insertion order.
    #[must_use]
    pub fn pairs(&self) -> &[(ProcessId, M)] {
        &self.pairs
    }

    /// Adds `⟨m, s⟩` unless a message of origin `s` is already known.
    fn insert(&mut self, s: ProcessId, m: &M) {
        if self.origins.contains(s) {
            return;
        }
        self.origins.insert(s);
        let m = match self.retired.pop() {
            Some(mut retired) => {
                retired.clone_from(m);
                retired
            }
            None => m.clone(),
        };
        self.pairs.push((s, m));
    }

    /// Empties the set, keeping its messages for `insert` to reuse.
    fn clear(&mut self) {
        self.origins = ProcessSet::empty();
        self.retired.extend(self.pairs.drain(..).map(|(_, m)| m));
    }
}

impl<M: Clone> Clone for Known<M> {
    fn clone(&self) -> Self {
        Known {
            pairs: self.pairs.clone(),
            origins: self.origins,
            retired: Vec::new(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.clear();
        for (s, m) in &source.pairs {
            self.insert(*s, m);
        }
    }
}

impl<M: fmt::Debug> fmt::Debug for Known<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.pairs).finish()
    }
}

/// State of the translation: the inner state plus the relay bookkeeping.
pub struct TranslatedState<A: HoAlgorithm> {
    /// Inner algorithm state `s_p`.
    pub inner: A::State,
    /// `Listen_p`: processes still listened to in this macro-round.
    pub listen: ProcessSet,
    /// `Known_p`: the `⟨message, origin⟩` pairs collected this macro-round.
    pub known: Known<A::Message>,
    /// `NewHO_p` of the last completed macro-round (for analysis: Theorem 8
    /// is checked against these sets).
    pub last_new_ho: Option<ProcessSet>,
    scratch: Scratch<A::Message>,
}

/// Buffers the counting round reuses from one macro-round to the next.
/// Overwritten before every read, so not part of the state proper: a clone
/// starts with fresh ones.
struct Scratch<M> {
    /// The mailbox handed to the inner `T_p^R`.
    inner_mb: Mailbox<M>,
    /// The slot `S_p^{R+1}(s_p)` is written through.
    plan: SendPlan<M>,
    spares: PlanSpares<M>,
    pool: PayloadPool<M>,
}

impl<M> Default for Scratch<M> {
    fn default() -> Self {
        Scratch {
            inner_mb: Mailbox::empty(),
            plan: SendPlan::Silent,
            spares: PlanSpares::default(),
            pool: PayloadPool::new(),
        }
    }
}

// Manual impls: deriving would wrongly require `A: Clone + Debug` instead of
// bounds on the associated types (which the trait already guarantees).
impl<A: HoAlgorithm> Clone for TranslatedState<A> {
    fn clone(&self) -> Self {
        TranslatedState {
            inner: self.inner.clone(),
            listen: self.listen,
            known: self.known.clone(),
            last_new_ho: self.last_new_ho,
            scratch: Scratch::default(),
        }
    }
}

impl<A: HoAlgorithm> fmt::Debug for TranslatedState<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TranslatedState")
            .field("inner", &self.inner)
            .field("listen", &self.listen)
            .field("known", &self.known)
            .field("last_new_ho", &self.last_new_ho)
            .finish()
    }
}

impl<A: HoAlgorithm> Translated<A> {
    /// Opens macro-round `R`: `Listen_p ← Π ; Known_p ← {⟨S_p^R(s_p), p⟩}`.
    fn open_macro_round(&self, macro_round: u64, p: ProcessId, state: &mut TranslatedState<A>) {
        state.listen = ProcessSet::full(self.n());
        state.known.clear();
        let Scratch {
            plan, spares, pool, ..
        } = &mut state.scratch;
        self.inner.send_into(
            Round(macro_round),
            p,
            &state.inner,
            &mut PlanSlot::new(plan, spares, pool),
        );
        if let Some(m) = plan.broadcast_payload() {
            state.known.insert(p, m);
        }
    }
}

impl<A: HoAlgorithm> HoAlgorithm for Translated<A> {
    type State = TranslatedState<A>;
    type Message = Known<A::Message>;
    type Value = A::Value;

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn init(&self, p: ProcessId, initial_value: A::Value) -> Self::State {
        let mut state = TranslatedState {
            inner: self.inner.init(p, initial_value),
            listen: ProcessSet::empty(),
            known: Known::default(),
            last_new_ho: None,
            scratch: Scratch::default(),
        };
        self.open_macro_round(1, p, &mut state);
        state
    }

    fn send(&self, _r: Round, _p: ProcessId, state: &Self::State) -> SendPlan<Self::Message> {
        // `send ⟨Known_p⟩ to all`: Known_p is O(n)-sized, so sharing one
        // payload per round (instead of cloning it per destination) takes a
        // relay round from O(n³) copied words down to O(n²).
        SendPlan::broadcast(state.known.clone())
    }

    fn send_into(
        &self,
        _r: Round,
        _p: ProcessId,
        state: &Self::State,
        slot: &mut PlanSlot<'_, Self::Message>,
    ) -> u64 {
        // Same plan as `send`; `clone_from` additionally reuses the heap of
        // the messages in the buffer when the slot hands back a unique one.
        slot.broadcast_with(|| state.known.clone(), |buf| buf.clone_from(&state.known))
    }

    fn transition(
        &self,
        r: Round,
        p: ProcessId,
        state: &mut Self::State,
        mb: &Mailbox<Self::Message>,
    ) {
        let per = self.rounds_per_macro();
        // Listen_p ← Listen_p ∩ {q | ⟨Known_q⟩ received}.
        state.listen = state.listen.intersection(mb.senders());

        if !r.is_phase_end(per) {
            // Relay: union in everything heard from still-listened senders.
            for (q, known_q) in mb.iter() {
                if state.listen.contains(q) {
                    for (s, m) in known_q.pairs() {
                        state.known.insert(*s, m);
                    }
                }
            }
        } else {
            let (macro_round, _) = r.phase(per);
            let n = self.n();
            // NewHO_p: origins vouched for by ≥ n − f listened senders
            // (each `Known_q` names an origin at most once), with the
            // first message heard for each.
            let mut counts = [0usize; MAX_PROCESSES];
            let mut payload: [Option<&A::Message>; MAX_PROCESSES] = [None; MAX_PROCESSES];
            for (q, known_q) in mb.iter() {
                if !state.listen.contains(q) {
                    continue;
                }
                for (s, m) in known_q.pairs() {
                    counts[s.index()] += 1;
                    payload[s.index()].get_or_insert(m);
                }
            }
            let mut new_ho = ProcessSet::empty();
            let inner_mb = &mut state.scratch.inner_mb;
            inner_mb.clear();
            for s in 0..n {
                if counts[s] >= n - self.f {
                    let sid = ProcessId::new(s);
                    new_ho.insert(sid);
                    inner_mb.push_trusted_recycled(
                        sid,
                        payload[s].expect("counted origin has a payload"),
                    );
                }
            }
            state.last_new_ho = Some(new_ho);
            // Inner transition for macro-round R, then reset for R + 1.
            self.inner
                .transition(Round(macro_round), p, &mut state.inner, inner_mb);
            self.open_macro_round(macro_round + 1, p, state);
        }
    }

    fn decision(&self, state: &Self::State) -> Option<A::Value> {
        self.inner.decision(&state.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Adversary, FullDelivery, RandomLoss};
    use crate::algorithms::OneThirdRule;
    use crate::executor::RoundExecutor;

    /// Drops a rotating set of `f` senders each micro-round, so every round
    /// still satisfies `P_k(Π0, r, r)` for the surviving `Π0`… but only if
    /// the survivors form a fixed kernel. For the Theorem-8 test we keep a
    /// *fixed* Π0 = {f..n} and let the first `f` processes be unreliable.
    struct KernelAdversary {
        pi0: ProcessSet,
        chaos: RandomLoss,
    }

    impl Adversary for KernelAdversary {
        fn fill_ho_sets(&mut self, r: Round, ho: &mut [ProcessSet]) {
            self.chaos.fill_ho_sets(r, ho);
            for (p, slot) in ho.iter_mut().enumerate() {
                if self.pi0.contains(ProcessId::new(p)) {
                    // Processes in Π0 hear at least Π0 (P_k), plus noise.
                    *slot = self.pi0.union(*slot);
                }
            }
        }
    }

    #[test]
    fn translated_otr_decides_under_full_delivery() {
        let alg = Translated::new(OneThirdRule::new(4), 1);
        let mut exec = RoundExecutor::new(alg, vec![3u64, 1, 4, 1]);
        let r = exec.run_until_all_decided(&mut FullDelivery, 20).unwrap();
        // Two macro-rounds of f+1 = 2 micro-rounds each.
        assert_eq!(r, Round(4));
        assert!(exec.decisions().iter().all(|d| *d == Some(1)));
    }

    #[test]
    fn theorem8_kernel_rounds_yield_uniform_macro_round() {
        // n = 5, f = 2: Π0 = {2, 3, 4}. Micro rounds satisfy P_k(Π0, ·, ·);
        // every completed macro-round must have NewHO_p identical (= some
        // superset of Π0) across all p ∈ Π0.
        let n = 5;
        let f = 2;
        let pi0 = ProcessSet::from_indices(f..n);
        let alg = Translated::new(OneThirdRule::new(n), f);
        let mut exec = RoundExecutor::new(alg, vec![9u64, 8, 3, 5, 7]);
        let mut adv = KernelAdversary {
            pi0,
            chaos: RandomLoss::new(0.6, 42),
        };
        for _ in 0..4 * (f as u64 + 1) {
            exec.step(&mut adv).unwrap();
            // At each macro-round boundary, compare NewHO across Π0.
            let news: Vec<ProcessSet> = pi0
                .iter()
                .filter_map(|p| exec.states()[p.index()].last_new_ho)
                .collect();
            if news.len() == pi0.len() {
                let first = news[0];
                assert!(
                    news.iter().all(|h| *h == first),
                    "macro-round not space-uniform over Π0: {news:?}"
                );
                assert!(first.is_superset(pi0), "NewHO must contain Π0");
            }
        }
    }

    #[test]
    fn known_keeps_one_message_per_origin_and_recycles_their_heap() {
        let p = ProcessId::new;
        let mut known: Known<Vec<u64>> = Known::default();
        known.insert(p(2), &vec![7, 7]);
        known.insert(p(0), &vec![1]);
        known.insert(p(2), &vec![9]); // origin 2 is already known
        assert_eq!(known.pairs(), [(p(2), vec![7, 7]), (p(0), vec![1])]);
        // `clear` retires the two vectors; the next inserts write into
        // their heap (last retired first) instead of allocating.
        let heap: Vec<*const u64> = known.pairs().iter().map(|(_, m)| m.as_ptr()).collect();
        known.clear();
        assert!(known.pairs().is_empty());
        known.insert(p(2), &vec![3]); // no longer known: the mask was reset
        known.insert(p(1), &vec![4, 5]);
        assert_eq!(known.pairs(), [(p(2), vec![3]), (p(1), vec![4, 5])]);
        assert_eq!(known.pairs()[0].1.as_ptr(), heap[1]);
        assert_eq!(known.pairs()[1].1.as_ptr(), heap[0]);
        // `clone_from` is clear + insert: same pairs, recycled heap.
        let mut wire = known.clone();
        let heap: Vec<*const u64> = wire.pairs().iter().map(|(_, m)| m.as_ptr()).collect();
        known.clear();
        known.insert(p(3), &vec![8]);
        wire.clone_from(&known);
        assert_eq!(wire.pairs(), [(p(3), vec![8])]);
        assert_eq!(wire.pairs()[0].1.as_ptr(), heap[1]);
    }

    #[test]
    fn micro_round_accounting() {
        let alg = Translated::new(OneThirdRule::<u64>::new(7), 3);
        assert_eq!(alg.rounds_per_macro(), 4);
        assert_eq!(alg.micro_rounds_for(5), 20);
        assert_eq!(alg.inner().n(), 7);
    }

    #[test]
    #[should_panic(expected = "n > 2f")]
    fn rejects_too_large_f() {
        let _ = Translated::new(OneThirdRule::<u64>::new(4), 2);
    }

    #[test]
    fn safety_under_random_loss() {
        let alg = Translated::new(OneThirdRule::new(5), 1);
        let mut exec = RoundExecutor::new(alg, vec![4u64, 2, 8, 6, 0]);
        let mut adv = RandomLoss::new(0.5, 3);
        exec.run(&mut adv, 120).expect("no safety violation");
    }

    #[test]
    fn listen_shrinks_within_macro_round_and_resets() {
        let n = 3;
        let alg = Translated::new(OneThirdRule::new(n), 1); // 2 micro-rounds
        let mut exec = RoundExecutor::new(alg, vec![1u64, 2, 3]);
        // Micro-round 1: p0 hears only p0 → Listen_0 = {0}.
        let mut adv = crate::adversary::Scripted::new(vec![
            vec![
                ProcessSet::from_indices([0]),
                ProcessSet::full(n),
                ProcessSet::full(n),
            ],
            vec![ProcessSet::full(n); n],
        ]);
        exec.step(&mut adv).unwrap();
        assert_eq!(exec.states()[0].listen, ProcessSet::from_indices([0]));
        // Micro-round 2 ends the macro-round: Listen resets to Π.
        exec.step(&mut adv).unwrap();
        assert_eq!(exec.states()[0].listen, ProcessSet::full(n));
    }
}
