//! Good/bad period schedules (§4.1).
//!
//! The system alternates between *good* periods — where the synchrony and
//! fault assumptions hold for a subset `π0` — and *bad* periods, where
//! behaviour is arbitrary (but benign). Three flavours of good period, from
//! strongest to weakest:
//!
//! 1. **Π-good** — `π0 = Π`, everybody synchronous, nobody crashes;
//! 2. **π0-down** — `π0` synchronous and crash-free, `π̄0` down for the
//!    whole period and none of its messages in transit;
//! 3. **π0-arbitrary** — `π0` synchronous and crash-free; *no restriction*
//!    on `π̄0` (crashes, recoveries, asynchrony, loss).
//!
//! Case 1 is case 2 with `π0 = Π`, so the implementation (and the paper)
//! distinguishes only π0-down and π0-arbitrary.

use ho_core::contact::ContactPlan;
use ho_core::process::{ProcessId, ProcessSet};

use crate::config::BadPeriodConfig;
use crate::time::TimePoint;

/// A real-valued-time rendering of a [`ContactPlan`]: the plan's 1-based
/// rounds are mapped onto time with a fixed `round_len`, and every
/// transmission consults [`LinkSchedule::link_up`] at its send time.
///
/// The schedule is self-limiting: past the plan's guaranteed-good point
/// (`(good_from − 1) · round_len`) every link is unconditionally up, so a
/// good period placed at or after that horizon keeps the §4.1 synchrony
/// guarantees — and the theorem bounds — intact. Before the horizon the
/// plan *adds* deterministic link downs on top of whatever the period
/// rules decide.
#[derive(Clone, Copy, Debug)]
pub struct LinkSchedule {
    plan: ContactPlan,
    seed: u64,
    n: usize,
    round_len: f64,
}

impl LinkSchedule {
    /// Renders `plan` over `n` processes with `round_len` time units per
    /// plan round, decisions drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `round_len` is not positive.
    #[must_use]
    pub fn new(plan: ContactPlan, seed: u64, n: usize, round_len: f64) -> Self {
        assert!(round_len > 0.0, "round length must be positive");
        LinkSchedule {
            plan,
            seed,
            n,
            round_len,
        }
    }

    /// The underlying plan.
    #[must_use]
    pub fn plan(&self) -> ContactPlan {
        self.plan
    }

    /// The time at which the plan's permanent fully-connected suffix
    /// begins — place the schedule's good period at or after this.
    #[must_use]
    pub fn horizon(&self) -> TimePoint {
        TimePoint::new((self.plan.good_from() - 1) as f64 * self.round_len)
    }

    /// Whether the directed link `from → to` is up at time `t`.
    #[must_use]
    pub fn link_up(&self, from: ProcessId, to: ProcessId, t: TimePoint) -> bool {
        let round = (t.get() / self.round_len).floor().max(0.0) as u64 + 1;
        self.plan.link_up(self.seed, self.n, round, from, to)
    }
}

/// The flavour of a good period.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GoodKind {
    /// `π̄0` processes are down throughout; none of their messages are in
    /// transit during the period.
    PiDown,
    /// `π̄0` processes are unrestricted (crash, recover, run at any speed,
    /// lose messages).
    PiArbitrary,
}

/// One period of the schedule.
#[derive(Clone, Copy, Debug)]
pub enum PeriodKind {
    /// A good period for the subset `π0`.
    Good {
        /// The synchronous subset.
        pi0: ProcessSet,
        /// Flavour.
        kind: GoodKind,
    },
    /// A bad period with the given fault behaviour.
    Bad(BadPeriodConfig),
}

impl PeriodKind {
    /// A Π-good period over `n` processes (case 1 = case 2 with `π0 = Π`).
    #[must_use]
    pub fn all_good(n: usize) -> Self {
        PeriodKind::Good {
            pi0: ProcessSet::full(n),
            kind: GoodKind::PiDown,
        }
    }

    /// Whether this is a good period.
    #[must_use]
    pub fn is_good(&self) -> bool {
        matches!(self, PeriodKind::Good { .. })
    }
}

/// A period: `[start, end)` with `end = None` meaning "until the end of the
/// run".
#[derive(Clone, Copy, Debug)]
pub struct Period {
    /// Start time (inclusive).
    pub start: TimePoint,
    /// Behaviour during the period.
    pub kind: PeriodKind,
}

/// A full schedule: consecutive periods starting at time 0, optionally
/// overlaid with a deterministic contact-plan [`LinkSchedule`].
#[derive(Clone, Debug)]
pub struct Schedule {
    periods: Vec<Period>,
    link: Option<LinkSchedule>,
}

impl Schedule {
    /// Builds a schedule from periods.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, does not start at 0, or is not sorted by
    /// strictly increasing start time.
    #[must_use]
    pub fn new(periods: Vec<Period>) -> Self {
        assert!(!periods.is_empty(), "schedule needs at least one period");
        assert_eq!(
            periods[0].start,
            TimePoint::ZERO,
            "schedule must start at time 0"
        );
        for w in periods.windows(2) {
            assert!(
                w[0].start < w[1].start,
                "periods must have strictly increasing start times"
            );
        }
        Schedule {
            periods,
            link: None,
        }
    }

    /// Overlays a contact-plan link schedule: before the plan's horizon
    /// every transmission additionally requires its directed link to be
    /// up. Good periods starting at or after [`LinkSchedule::horizon`]
    /// are unaffected (the plan is all-up there by construction), so the
    /// synchrony guarantees a verdict is checked against still hold.
    #[must_use]
    pub fn with_link_schedule(mut self, link: LinkSchedule) -> Self {
        self.link = Some(link);
        self
    }

    /// The contact-plan link schedule, if one is overlaid.
    #[must_use]
    pub fn link_schedule(&self) -> Option<&LinkSchedule> {
        self.link.as_ref()
    }

    /// Whether the directed link `from → to` is up at `t` — `true` when
    /// no link schedule is overlaid.
    #[must_use]
    pub fn link_up(&self, from: ProcessId, to: ProcessId, t: TimePoint) -> bool {
        self.link.is_none_or(|l| l.link_up(from, to, t))
    }

    /// A single good period covering all of time (the fault-free system):
    /// scenario 2 of §4.2 — "the good period starts from the beginning".
    #[must_use]
    pub fn always_good(pi0: ProcessSet, kind: GoodKind) -> Self {
        Schedule::new(vec![Period {
            start: TimePoint::ZERO,
            kind: PeriodKind::Good { pi0, kind },
        }])
    }

    /// Scenario 1 of §4.2: a bad period `[0, good_start)` followed by a good
    /// period lasting to the end of the run.
    #[must_use]
    pub fn bad_then_good(
        bad: BadPeriodConfig,
        good_start: TimePoint,
        pi0: ProcessSet,
        kind: GoodKind,
    ) -> Self {
        assert!(
            good_start > TimePoint::ZERO,
            "good period must start after 0"
        );
        Schedule::new(vec![
            Period {
                start: TimePoint::ZERO,
                kind: PeriodKind::Bad(bad),
            },
            Period {
                start: good_start,
                kind: PeriodKind::Good { pi0, kind },
            },
        ])
    }

    /// Strict alternation bad/good with the given durations, repeated
    /// `cycles` times, ending with a final good period that lasts forever.
    #[must_use]
    pub fn alternating(
        bad: BadPeriodConfig,
        bad_len: f64,
        good_len: f64,
        cycles: usize,
        pi0: ProcessSet,
        kind: GoodKind,
    ) -> Self {
        assert!(
            bad_len > 0.0 && good_len > 0.0,
            "period lengths must be positive"
        );
        let mut t = 0.0;
        let mut periods = Vec::new();
        for _ in 0..cycles {
            periods.push(Period {
                start: TimePoint::new(t),
                kind: PeriodKind::Bad(bad),
            });
            t += bad_len;
            periods.push(Period {
                start: TimePoint::new(t),
                kind: PeriodKind::Good { pi0, kind },
            });
            t += good_len;
        }
        periods.push(Period {
            start: TimePoint::new(t),
            kind: PeriodKind::Bad(bad),
        });
        periods.push(Period {
            start: TimePoint::new(t + bad_len),
            kind: PeriodKind::Good { pi0, kind },
        });
        Schedule::new(periods)
    }

    /// The periods, in order.
    #[must_use]
    pub fn periods(&self) -> &[Period] {
        &self.periods
    }

    /// The period in force at time `t`.
    #[must_use]
    pub fn at(&self, t: TimePoint) -> &Period {
        let idx = self
            .periods
            .partition_point(|p| p.start <= t)
            .saturating_sub(1);
        &self.periods[idx]
    }

    /// The kind in force at `t`.
    #[must_use]
    pub fn kind_at(&self, t: TimePoint) -> &PeriodKind {
        &self.at(t).kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ho_core::ProcessId;

    fn pi0() -> ProcessSet {
        ProcessSet::from_indices([0, 1, 2])
    }

    #[test]
    fn lookup_at_boundaries() {
        let s = Schedule::bad_then_good(
            BadPeriodConfig::default(),
            TimePoint::new(10.0),
            pi0(),
            GoodKind::PiDown,
        );
        assert!(!s.kind_at(TimePoint::ZERO).is_good());
        assert!(!s.kind_at(TimePoint::new(9.999)).is_good());
        assert!(s.kind_at(TimePoint::new(10.0)).is_good());
        assert!(s.kind_at(TimePoint::new(1e9)).is_good());
    }

    #[test]
    fn alternating_layout() {
        let s = Schedule::alternating(
            BadPeriodConfig::calm(),
            5.0,
            20.0,
            2,
            pi0(),
            GoodKind::PiDown,
        );
        assert!(!s.kind_at(TimePoint::new(0.0)).is_good());
        assert!(s.kind_at(TimePoint::new(5.0)).is_good());
        assert!(!s.kind_at(TimePoint::new(25.0)).is_good());
        assert!(s.kind_at(TimePoint::new(30.0)).is_good());
    }

    #[test]
    #[should_panic(expected = "start at time 0")]
    fn must_start_at_zero() {
        let _ = Schedule::new(vec![Period {
            start: TimePoint::new(1.0),
            kind: PeriodKind::all_good(3),
        }]);
    }

    #[test]
    fn link_schedule_maps_time_onto_plan_rounds() {
        let plan = ContactPlan::StoreAndForward { dark: 4 };
        let link = LinkSchedule::new(plan, 9, 4, 2.5);
        let dark = plan.dark_replica(9, 4);
        let other = ProcessId::new((dark.index() + 1) % 4);
        // Before the horizon the dark replica's links are down…
        assert_eq!(link.horizon(), TimePoint::new(10.0));
        for t in [0.0, 2.4, 9.9] {
            assert!(!link.link_up(dark, other, TimePoint::new(t)), "t = {t}");
            assert!(!link.link_up(other, dark, TimePoint::new(t)), "t = {t}");
            assert!(link.link_up(dark, dark, TimePoint::new(t)), "self-delivery");
        }
        // …and from the horizon on everything is up forever.
        for t in [10.0, 10.1, 1e6] {
            assert!(link.link_up(dark, other, TimePoint::new(t)), "t = {t}");
        }
        // The schedule overlay defaults to all-up without a plan.
        let s = Schedule::always_good(pi0(), GoodKind::PiDown);
        assert!(s.link_up(dark, other, TimePoint::ZERO));
        let s = s.with_link_schedule(link);
        assert!(!s.link_up(dark, other, TimePoint::ZERO));
        assert!(s.link_schedule().is_some());
    }

    #[test]
    fn all_good_covers_everyone() {
        match PeriodKind::all_good(4) {
            PeriodKind::Good { pi0, kind } => {
                assert_eq!(pi0, ProcessSet::full(4));
                assert_eq!(kind, GoodKind::PiDown);
            }
            PeriodKind::Bad(_) => unreachable!(),
        }
    }
}
