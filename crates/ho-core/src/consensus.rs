//! The consensus specification and its runtime checker.
//!
//! Consensus (§3.1) over initial values `v_i`:
//!
//! * **Integrity** — any decision value is the initial value of some process.
//! * **Agreement** — no two processes decide differently.
//! * **Termination** — all processes (or, with restricted-scope predicates,
//!   all processes in `Π0`) eventually decide.
//!
//! The checker observes decisions as they happen and reports the first
//! safety violation; termination is checked at the end of a run against a
//! scope. An observation that changes nothing costs one comparison, and
//! "who has decided" is a field kept up to date where decisions are recorded.

use std::fmt;

use crate::process::{ProcessId, ProcessSet};
use crate::round::Round;

/// A violation of the consensus safety specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsensusViolation<V> {
    /// A decision value was not any process's initial value.
    Integrity {
        /// The offending process.
        process: ProcessId,
        /// The round in which it decided.
        round: Round,
        /// The decided value.
        value: V,
    },
    /// Two processes decided different values.
    Agreement {
        /// The first decider observed.
        first: (ProcessId, V),
        /// The conflicting decider.
        second: (ProcessId, V),
        /// The round of the conflicting decision.
        round: Round,
    },
    /// A process changed or withdrew a previous decision.
    Revoked {
        /// The offending process.
        process: ProcessId,
        /// What it had decided.
        was: V,
        /// What it reports now (`None` = withdrawn).
        now: Option<V>,
        /// The round of the revocation.
        round: Round,
    },
}

impl<V: fmt::Debug> fmt::Display for ConsensusViolation<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsensusViolation::Integrity {
                process,
                round,
                value,
            } => write!(
                f,
                "integrity violated: {process} decided {value:?} at {round:?}, \
                 which is no process's initial value"
            ),
            ConsensusViolation::Agreement {
                first,
                second,
                round,
            } => write!(
                f,
                "agreement violated at {round:?}: {} decided {:?} but {} decided {:?}",
                first.0, first.1, second.0, second.1
            ),
            ConsensusViolation::Revoked {
                process,
                was,
                now,
                round,
            } => write!(
                f,
                "decision revoked at {round:?}: {process} had decided {was:?}, now {now:?}"
            ),
        }
    }
}

impl<V: fmt::Debug> std::error::Error for ConsensusViolation<V> {}

/// Observes decisions round by round and checks integrity, agreement and
/// irrevocability online.
#[derive(Clone, Debug)]
pub struct ConsensusChecker<V> {
    initial: Vec<V>,
    decisions: Vec<Option<(V, Round)>>,
    /// The support of `decisions`, updated where a decision is recorded.
    decided: ProcessSet,
}

impl<V: Clone + PartialEq + fmt::Debug> ConsensusChecker<V> {
    /// A checker for a run starting from the given initial values.
    #[must_use]
    pub fn new(initial: Vec<V>) -> Self {
        let n = initial.len();
        ConsensusChecker {
            initial,
            decisions: vec![None; n],
            decided: ProcessSet::empty(),
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.initial.len()
    }

    /// The lowest-index decider and its value, if anyone decided.
    fn first_decider(&self) -> Option<(ProcessId, &V)> {
        let q = self.decided.min()?;
        let (v, _) = self.decisions[q.index()].as_ref().expect("in `decided`");
        Some((q, v))
    }

    /// Records the decision state of `p` after round `r`.
    ///
    /// Call with `p`'s current decision (possibly `None`) after every round;
    /// the checker detects revocation as well as fresh violations.
    ///
    /// # Errors
    ///
    /// Returns the violation if integrity, agreement or irrevocability is
    /// broken by this observation.
    pub fn observe(
        &mut self,
        p: ProcessId,
        r: Round,
        decision: Option<&V>,
    ) -> Result<(), ConsensusViolation<V>> {
        match (&self.decisions[p.index()], decision) {
            (None, None) => Ok(()),
            (Some((was, _)), now) if now == Some(was) => Ok(()),
            (Some((was, _)), now) => Err(ConsensusViolation::Revoked {
                process: p,
                was: was.clone(),
                now: now.cloned(),
                round: r,
            }),
            (None, Some(v)) => {
                if !self.initial.contains(v) {
                    return Err(ConsensusViolation::Integrity {
                        process: p,
                        round: r,
                        value: v.clone(),
                    });
                }
                if let Some((q, w)) = self.first_decider().filter(|(_, w)| *w != v) {
                    return Err(ConsensusViolation::Agreement {
                        first: (q, w.clone()),
                        second: (p, v.clone()),
                        round: r,
                    });
                }
                self.decisions[p.index()] = Some((v.clone(), r));
                self.decided.insert(p);
                Ok(())
            }
        }
    }

    /// The set of processes that have decided.
    #[must_use]
    pub fn decided(&self) -> ProcessSet {
        self.decided
    }

    /// Whether every process in `scope` has decided (the termination
    /// condition, restricted to `scope` as in Theorem 2).
    #[must_use]
    pub fn terminated(&self, scope: ProcessSet) -> bool {
        scope.is_subset(self.decided)
    }

    /// The common decision value, if at least one process decided.
    #[must_use]
    pub fn decision_value(&self) -> Option<&V> {
        self.first_decider().map(|(_, v)| v)
    }

    /// The round at which `p` decided, if it has.
    #[must_use]
    pub fn decision_round(&self, p: ProcessId) -> Option<Round> {
        self.decisions[p.index()].as_ref().map(|(_, r)| *r)
    }

    /// The latest decision round among processes in `scope`, if all decided.
    #[must_use]
    pub fn last_decision_round(&self, scope: ProcessSet) -> Option<Round> {
        self.terminated(scope).then(|| {
            let rounds = scope.iter().filter_map(|p| self.decision_round(p));
            rounds.max().unwrap_or(Round(0))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn accepts_valid_run() {
        let mut c = ConsensusChecker::new(vec![10, 20, 30]);
        assert!(c.observe(p(0), Round(2), Some(&20)).is_ok());
        assert!(c.observe(p(1), Round(3), Some(&20)).is_ok());
        assert!(c.observe(p(2), Round(3), None).is_ok());
        assert!(!c.terminated(ProcessSet::full(3)));
        assert!(c.terminated(ProcessSet::from_indices([0, 1])));
        assert_eq!(c.decision_value(), Some(&20));
        assert_eq!(c.decision_round(p(1)), Some(Round(3)));
        assert_eq!(
            c.last_decision_round(ProcessSet::from_indices([0, 1])),
            Some(Round(3))
        );
    }

    #[test]
    fn integrity_violation_detected() {
        let mut c = ConsensusChecker::new(vec![1, 2]);
        let err = c.observe(p(0), Round(1), Some(&99)).unwrap_err();
        assert!(matches!(
            err,
            ConsensusViolation::Integrity { value: 99, .. }
        ));
    }

    #[test]
    fn agreement_violation_detected() {
        let mut c = ConsensusChecker::new(vec![1, 2]);
        c.observe(p(0), Round(1), Some(&1)).unwrap();
        let err = c.observe(p(1), Round(2), Some(&2)).unwrap_err();
        assert!(matches!(err, ConsensusViolation::Agreement { .. }));
    }

    #[test]
    fn revocation_detected() {
        let mut c = ConsensusChecker::new(vec![1, 2]);
        c.observe(p(0), Round(1), Some(&1)).unwrap();
        let err = c.observe(p(0), Round(2), None).unwrap_err();
        assert!(matches!(err, ConsensusViolation::Revoked { now: None, .. }));
        // Changing the value is also a revocation (not agreement) for the
        // same process.
        let mut c = ConsensusChecker::new(vec![1, 2]);
        c.observe(p(0), Round(1), Some(&1)).unwrap();
        let err = c.observe(p(0), Round(2), Some(&2)).unwrap_err();
        assert!(matches!(err, ConsensusViolation::Revoked { .. }));
    }

    #[test]
    fn repeated_same_decision_ok() {
        let mut c = ConsensusChecker::new(vec![5]);
        c.observe(p(0), Round(1), Some(&5)).unwrap();
        assert!(c.observe(p(0), Round(2), Some(&5)).is_ok());
    }

    #[test]
    fn last_decision_round_none_until_all_decide() {
        let mut c = ConsensusChecker::new(vec![1, 1]);
        c.observe(p(0), Round(4), Some(&1)).unwrap();
        assert_eq!(c.last_decision_round(ProcessSet::full(2)), None);
        c.observe(p(1), Round(6), Some(&1)).unwrap();
        assert_eq!(c.last_decision_round(ProcessSet::full(2)), Some(Round(6)));
    }

    #[test]
    fn incremental_state_matches_a_replayed_model() {
        // Random observation sequences — valid decisions, values nobody
        // proposed, conflicting values, withdrawals and changes — against
        // a model that rescans on every call.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..200 {
            let n = 1 + (next() % 70) as usize;
            let initial: Vec<u64> = (0..n).map(|_| next() % 3).collect();
            let mut c = ConsensusChecker::new(initial.clone());
            let mut model: Vec<Option<(u64, Round)>> = vec![None; n];
            for step in 1..=300 {
                let (q, r) = (p((next() % n as u64) as usize), Round(step));
                // Mostly the value already decided, so runs get long.
                let now = match next() % 8 {
                    0 => None,
                    1 => Some(next() % 4),
                    _ => model
                        .iter()
                        .flatten()
                        .next()
                        .map(|d| d.0)
                        .or(Some(initial[0])),
                };
                let first = model
                    .iter()
                    .enumerate()
                    .find_map(|(i, d)| d.map(|(w, _)| (p(i), w)));
                let expected = match (model[q.index()], now) {
                    (None, None) => Ok(()),
                    (Some((was, _)), now) if now == Some(was) => Ok(()),
                    (Some((was, _)), now) => Err(ConsensusViolation::Revoked {
                        process: q,
                        was,
                        now,
                        round: r,
                    }),
                    (None, Some(v)) if !initial.contains(&v) => {
                        Err(ConsensusViolation::Integrity {
                            process: q,
                            round: r,
                            value: v,
                        })
                    }
                    (None, Some(v)) => match first.filter(|&(_, w)| w != v) {
                        Some(first) => Err(ConsensusViolation::Agreement {
                            first,
                            second: (q, v),
                            round: r,
                        }),
                        None => {
                            model[q.index()] = Some((v, r));
                            Ok(())
                        }
                    },
                };
                assert_eq!(c.observe(q, r, now.as_ref()), expected, "trial {trial}");
                let support: ProcessSet = (0..n).filter(|&i| model[i].is_some()).map(p).collect();
                assert_eq!(c.decided(), support, "trial {trial} step {step}");
                assert_eq!(
                    c.decision_value(),
                    model.iter().flatten().next().map(|d| &d.0)
                );
                let scope: ProcessSet = (0..n).filter(|_| next() & 3 == 0).map(p).collect();
                assert_eq!(c.terminated(scope), scope.is_subset(support));
                let rounds: Option<Vec<Round>> = scope
                    .iter()
                    .map(|i| model[i.index()].map(|d| d.1))
                    .collect();
                assert_eq!(
                    c.last_decision_round(scope),
                    rounds.map(|rs| rs.into_iter().max().unwrap_or(Round(0)))
                );
            }
        }
    }

    #[test]
    fn violation_display_messages() {
        let v: ConsensusViolation<u32> = ConsensusViolation::Agreement {
            first: (p(0), 1),
            second: (p(1), 2),
            round: Round(3),
        };
        let s = v.to_string();
        assert!(s.contains("agreement violated"));
    }
}
