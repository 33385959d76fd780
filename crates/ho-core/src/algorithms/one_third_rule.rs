//! Algorithm 1 of the paper: the *OneThirdRule* algorithm.
//!
//! ```text
//! Initialization: x_p ← v_p
//! Round r:
//!   S_p^r: send ⟨x_p⟩ to all processes
//!   T_p^r: if |HO(p, r)| > 2n/3 then
//!            if the values received, except at most ⌊n/3⌋, are equal to x̄
//!              then x_p ← x̄
//!              else x_p ← smallest x_q received
//!          if more than 2n/3 values received are equal to x̄ then DECIDE(x̄)
//! ```
//!
//! The algorithm never violates integrity or agreement, under *any* HO
//! assignment; the predicate `P_otr` (Table 1) ensures termination
//! (Theorem 1). Rounds in which no messages are received are harmless.
//!
//! Cost per transition: one count of the mailbox at or below the guard of
//! line 7; past it, one pairwise `O(|HO|²)` mode fold serves both rules.

use std::marker::PhantomData;

use crate::algorithm::HoAlgorithm;
use crate::mailbox::Mailbox;
use crate::process::ProcessId;
use crate::round::Round;
use crate::send_plan::SendPlan;

/// The OneThirdRule consensus algorithm over values `V`.
///
/// `V` is any totally ordered value domain ("smallest `x_q` received" needs
/// `Ord`). The algorithm is parameterised only by `n`.
#[derive(Clone, Copy, Debug)]
pub struct OneThirdRule<V = u64> {
    n: usize,
    _values: PhantomData<fn() -> V>,
}

impl<V> OneThirdRule<V> {
    /// OneThirdRule over `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        OneThirdRule {
            n,
            _values: PhantomData,
        }
    }

    /// The update threshold: `|HO| > 2n/3`, i.e. `3·|HO| > 2n`.
    #[must_use]
    pub fn update_quorum(&self, heard: usize) -> bool {
        3 * heard > 2 * self.n
    }

    /// "All received values except at most ⌊n/3⌋ equal `x̄`":
    /// `count(x̄) ≥ received − ⌊n/3⌋`.
    #[must_use]
    pub fn almost_all(&self, count: usize, received: usize) -> bool {
        count + self.n / 3 >= received
    }
}

/// Per-process state of OneThirdRule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OtrState<V> {
    /// The current estimate `x_p`.
    pub x: V,
    /// The decision, once taken (irrevocable).
    pub decision: Option<V>,
}

impl<V: Clone + std::fmt::Debug + Ord> HoAlgorithm for OneThirdRule<V> {
    type State = OtrState<V>;
    type Message = V;
    type Value = V;

    fn n(&self) -> usize {
        self.n
    }

    fn init(&self, _p: ProcessId, initial_value: V) -> OtrState<V> {
        OtrState {
            x: initial_value,
            decision: None,
        }
    }

    fn send(&self, _r: Round, _p: ProcessId, state: &OtrState<V>) -> SendPlan<V> {
        // `send ⟨x_p⟩ to all processes`: one shared payload per round.
        SendPlan::broadcast(state.x.clone())
    }

    fn send_into(
        &self,
        _r: Round,
        _p: ProcessId,
        state: &OtrState<V>,
        slot: &mut crate::send_plan::PlanSlot<'_, V>,
    ) -> u64 {
        // Same plan as `send`, written through the reusable slot.
        slot.broadcast(state.x.clone())
    }

    fn transition(&self, _r: Round, _p: ProcessId, state: &mut OtrState<V>, mb: &Mailbox<V>) {
        // Line 7 before line 8. Deciding takes more than 2n/3 *identical*
        // values, hence more than 2n/3 values: at or below the guard
        // nothing can change — the rounds a partition or heavy loss is
        // made of.
        let heard = mb.len();
        if !self.update_quorum(heard) {
            return;
        }
        // One mode computation serves both the update and the decision
        // rule.
        let (mode, count) = mb.mode_with_count().expect("heard > 2n/3 ≥ 0");
        // The most frequent value; unique whenever the "almost all" test
        // passes (two values can't both miss at most ⌊n/3⌋ of > 2n/3
        // messages).
        if self.almost_all(count, heard) {
            state.x = mode.clone();
        } else {
            state.x = mb.min_message().expect("non-empty").clone();
        }
        // Decide on > 2n/3 identical values (lines 11–12).
        if 3 * count > 2 * self.n && state.decision.is_none() {
            state.decision = Some(mode);
        }
    }

    fn decision(&self, state: &OtrState<V>) -> Option<V> {
        state.decision.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        CrashRecovery, CrashStop, FullDelivery, Partition, RandomLoss, Scripted,
    };
    use crate::executor::RoundExecutor;
    use crate::process::ProcessSet;

    #[test]
    fn nice_run_decides_min_in_two_rounds() {
        // Round 1: everyone adopts the smallest value; round 2: everyone
        // sees > 2n/3 identical values and decides.
        let mut exec = RoundExecutor::new(OneThirdRule::new(4), vec![3u64, 1, 2, 9]);
        let r = exec.run_until_all_decided(&mut FullDelivery, 10).unwrap();
        assert_eq!(r, Round(2));
        assert!(exec.decisions().iter().all(|d| *d == Some(1)));
    }

    #[test]
    fn unanimous_initial_values_decide_in_one_round() {
        let mut exec = RoundExecutor::new(OneThirdRule::new(3), vec![5u64, 5, 5]);
        let r = exec.run_until_all_decided(&mut FullDelivery, 10).unwrap();
        assert_eq!(r, Round(1));
    }

    #[test]
    fn empty_rounds_are_harmless() {
        // P_otr allows rounds in which no messages are received.
        let n = 4;
        let silent = vec![ProcessSet::empty(); n];
        let mut adv = Scripted::new(vec![silent.clone(), silent.clone(), silent]);
        let mut exec = RoundExecutor::new(OneThirdRule::new(n), vec![3u64, 1, 2, 9]);
        exec.run(&mut adv, 3).unwrap();
        assert!(exec.decisions().iter().all(Option::is_none));
        // After the silence, a nice period still decides.
        let r = exec.run_until_all_decided(&mut FullDelivery, 10).unwrap();
        assert_eq!(r, Round(5));
    }

    #[test]
    fn safety_under_heavy_loss() {
        let mut adv = RandomLoss::new(0.6, 99);
        let mut exec = RoundExecutor::new(OneThirdRule::new(7), vec![4u64, 2, 6, 1, 5, 3, 0]);
        // May or may not decide, but must never violate safety (step returns
        // Err on violation).
        exec.run(&mut adv, 200).expect("no safety violation");
    }

    #[test]
    fn safety_under_partition() {
        // Two blocks of 3 in n = 7: neither reaches the 2n/3 quorum of 5, so
        // nobody decides — and certainly nobody disagrees.
        let mut adv = Partition::new(vec![
            ProcessSet::from_indices([0, 1, 2]),
            ProcessSet::from_indices([3, 4, 5, 6]),
        ]);
        let mut exec = RoundExecutor::new(OneThirdRule::new(7), vec![1u64, 1, 1, 2, 2, 2, 2]);
        exec.run(&mut adv, 50).expect("no violation");
        assert!(exec.decisions()[..3].iter().all(Option::is_none));
        // The 4-block has only 4 < 2·7/3 + ε members… 3·4 = 12 ≤ 14, no decision.
        assert!(exec.decisions().iter().all(Option::is_none));
    }

    #[test]
    fn crash_stop_with_enough_survivors_decides() {
        // n = 4, one crash leaves 3 > 2·4/3 alive: survivors decide.
        let mut adv = CrashStop::new(4, &[(3, Round(1))]);
        let mut exec = RoundExecutor::new(OneThirdRule::new(4), vec![3u64, 1, 2, 0]);
        let scope = ProcessSet::from_indices([0, 1, 2]);
        let r = exec.run_until_decided_in(scope, &mut adv, 20).unwrap();
        assert!(r <= Round(3));
        // 0 crashed before sending anything; min surviving value is 1.
        assert_eq!(exec.decisions()[0], Some(1));
    }

    #[test]
    fn crash_recovery_is_transparent() {
        // §3.3: without any changes OTR works in the crash-recovery model.
        let mut adv = CrashRecovery::new(4, &[(0, Round(1), Round(3))]);
        let mut exec = RoundExecutor::new(OneThirdRule::new(4), vec![9u64, 4, 7, 5]);
        let r = exec.run_until_all_decided(&mut adv, 20).unwrap();
        // p0 is down rounds 1–3 and decides after recovering.
        assert!(r >= Round(4));
        let d = exec.decisions();
        assert!(d.iter().all(|v| *v == d[0]));
    }

    #[test]
    fn decision_threshold_is_strictly_greater() {
        // n = 3: hearing exactly 2 = 2n/3 identical values must NOT decide.
        let alg = OneThirdRule::new(3);
        let mut st = alg.init(ProcessId::new(0), 1u64);
        let mb: Mailbox<u64> = [(ProcessId::new(0), 1), (ProcessId::new(1), 1)]
            .into_iter()
            .collect();
        alg.transition(Round(1), ProcessId::new(0), &mut st, &mb);
        assert_eq!(st.decision, None, "2 of n=3 is not > 2n/3");
        // Three identical values do decide.
        let mb: Mailbox<u64> = [
            (ProcessId::new(0), 1),
            (ProcessId::new(1), 1),
            (ProcessId::new(2), 1),
        ]
        .into_iter()
        .collect();
        alg.transition(Round(2), ProcessId::new(0), &mut st, &mb);
        assert_eq!(st.decision, Some(1));
    }

    /// A mailbox of `heard` messages, all carrying `value`.
    fn unanimous(heard: usize, value: u64) -> Mailbox<u64> {
        (0..heard).map(|q| (ProcessId::new(q), value)).collect()
    }

    #[test]
    fn at_the_guard_nothing_changes_and_one_past_it_everything_does() {
        // 3·|HO| = 2n exactly: the guard of line 7 is strict, so neither
        // the estimate nor the decision may move — even though every value
        // heard is the same. One more message updates and decides.
        for (n, at_guard) in [(3, 2), (6, 4)] {
            let alg = OneThirdRule::new(n);
            let mut st = alg.init(ProcessId::new(0), 9u64);
            let untouched = st.clone();
            alg.transition(
                Round(1),
                ProcessId::new(0),
                &mut st,
                &unanimous(at_guard, 1),
            );
            assert_eq!(st, untouched, "n = {n}: {at_guard} heard is not > 2n/3");
            alg.transition(Round(2), ProcessId::new(0), &mut st, &Mailbox::empty());
            assert_eq!(st, untouched, "n = {n}: an empty round is a no-op");
            let past = unanimous(at_guard + 1, 1);
            alg.transition(Round(3), ProcessId::new(0), &mut st, &past);
            assert_eq!((st.x, st.decision), (1, Some(1)), "n = {n}");
        }
        // Past the guard without > 2n/3 identical values: update only.
        let alg = OneThirdRule::new(6);
        let mut st = alg.init(ProcessId::new(0), 9u64);
        let mut mb = unanimous(4, 2);
        mb.push(ProcessId::new(4), 1);
        alg.transition(Round(1), ProcessId::new(0), &mut st, &mb);
        assert_eq!((st.x, st.decision), (2, None), "4 of 5 heard: almost all");
    }

    #[test]
    fn almost_all_rule_adopts_majority_value() {
        // n = 4, hears 3 messages [7, 7, 1]: except at most ⌊4/3⌋ = 1 all
        // equal 7 → adopt 7 (not min).
        let alg = OneThirdRule::new(4);
        let mut st = alg.init(ProcessId::new(0), 9u64);
        let mb: Mailbox<u64> = [
            (ProcessId::new(0), 7),
            (ProcessId::new(1), 7),
            (ProcessId::new(2), 1),
        ]
        .into_iter()
        .collect();
        alg.transition(Round(1), ProcessId::new(0), &mut st, &mb);
        assert_eq!(st.x, 7);
    }

    #[test]
    fn mixed_values_adopt_min() {
        // n = 4, hears [7, 3, 1]: no value covers all-but-⌊n/3⌋ → min = 1.
        let alg = OneThirdRule::new(4);
        let mut st = alg.init(ProcessId::new(0), 9u64);
        let mb: Mailbox<u64> = [
            (ProcessId::new(0), 7),
            (ProcessId::new(1), 3),
            (ProcessId::new(2), 1),
        ]
        .into_iter()
        .collect();
        alg.transition(Round(1), ProcessId::new(0), &mut st, &mb);
        assert_eq!(st.x, 1);
    }

    #[test]
    fn below_quorum_keeps_estimate() {
        let alg = OneThirdRule::new(4);
        let mut st = alg.init(ProcessId::new(0), 9u64);
        let mb: Mailbox<u64> = [(ProcessId::new(1), 1), (ProcessId::new(2), 1)]
            .into_iter()
            .collect();
        alg.transition(Round(1), ProcessId::new(0), &mut st, &mb);
        assert_eq!(st.x, 9, "2 of n=4 is not > 2n/3; estimate unchanged");
    }

    #[test]
    fn decision_is_stable_once_taken() {
        let mut exec = RoundExecutor::new(OneThirdRule::new(3), vec![2u64, 2, 2]);
        exec.run_until_all_decided(&mut FullDelivery, 5).unwrap();
        // Further chaotic rounds cannot shake the decision (checker would
        // report Revoked).
        let mut adv = RandomLoss::new(0.5, 1);
        exec.run(&mut adv, 50).expect("decision stays put");
        assert!(exec.decisions().iter().all(|d| *d == Some(2)));
    }
}
