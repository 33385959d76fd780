//! Contact plans: deterministic schedules of directed link up/down
//! intervals — the DTN-style disruption the memoryless fault zoo
//! (crash, lossy, partition) cannot express.
//!
//! A [`ContactPlan`] is a pure function from `(seed, n, round)` to a
//! connectivity [`Phase`]: which directed links carry messages in that
//! round. The same spec drives both execution layers:
//!
//! * the round-synchronous layer through [`ContactPlanAdversary`]
//!   (scratch-buffer [`Adversary`], zero allocations per round), and
//! * the real-valued-time layer through `ho-sim`'s link schedule, which
//!   maps simulation time onto plan rounds and consults
//!   [`ContactPlan::link_up`] at every transmission.
//!
//! Every plan ends in a *guaranteed-good* suffix: from
//! [`ContactPlan::good_from`] on, all links are permanently up. That
//! round is the reference point for graceful-degradation metrics — how
//! late predicate windows arrive, and how long a reconnecting replica
//! takes to catch up — and the bound the CI smoke job enforces.
//!
//! All plan decisions (block rotation, contact pairs, the dark replica)
//! derive from [`contact_seed`], a SplitMix64-style stream split that is
//! golden-pinned in `tests/rsm_properties.rs` so plans stay reproducible
//! across refactors, like `shard_seed`.

use crate::adversary::Adversary;
use crate::process::{ProcessId, ProcessSet};
use crate::round::Round;

/// Derives the decision stream for one contact-plan choice point: `salt`
/// names the choice (cycle index, window index, a role constant), `seed`
/// is the scenario seed. SplitMix64-style finalizer; the constants are
/// load-bearing — golden-pinned, do not change.
#[must_use]
pub fn contact_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .rotate_left(17)
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Salt naming the store-and-forward dark-replica choice.
const DARK_REPLICA_SALT: u64 = 0x5af0;

/// The connectivity of one round under a contact plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Every directed link is up.
    AllUp,
    /// An episodic partition: links are up only within each block.
    Blocks {
        /// One side of the split.
        a: ProcessSet,
        /// The other side (`b = Π \ a`).
        b: ProcessSet,
    },
    /// A contact window: links are up only among `set`; every process
    /// outside it is dark for the round.
    Contact {
        /// The processes currently in contact.
        set: ProcessSet,
    },
    /// A store-and-forward gap: all links touching `dark` are down; the
    /// rest of the system is fully connected.
    Isolated {
        /// The dark process.
        dark: ProcessId,
    },
}

impl Phase {
    /// Whether the directed link `from → to` carries messages in this
    /// phase. Self-delivery (`from == to`) is always up.
    #[must_use]
    pub fn link_up(self, from: ProcessId, to: ProcessId) -> bool {
        if from == to {
            return true;
        }
        match self {
            Phase::AllUp => true,
            Phase::Blocks { a, .. } => a.contains(from) == a.contains(to),
            Phase::Contact { set } => set.contains(from) && set.contains(to),
            Phase::Isolated { dark } => from != dark && to != dark,
        }
    }
}

/// A seed-deterministic schedule of directed link up/down intervals.
///
/// All intervals are in *plan rounds* (1-based); the sim layer maps
/// real-valued time onto them with a fixed round length. Every variant
/// ends in permanent full connectivity at [`ContactPlan::good_from`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContactPlan {
    /// Episodic partitions: `cycles` cycles of `dark` rounds split into
    /// two blocks (membership rotated per cycle by the seed stream)
    /// followed by `bright` fully-connected rounds; then permanently up.
    Episodic {
        /// Partitioned rounds per cycle.
        dark: u32,
        /// Fully-connected rounds per cycle.
        bright: u32,
        /// Number of dark/bright cycles before the good suffix.
        cycles: u32,
    },
    /// Rotating contact windows: for `windows` windows of `window`
    /// rounds each, only a seed-chosen pair of processes is in contact
    /// (everyone else is dark); then permanently up.
    Rotating {
        /// Rounds per contact window.
        window: u32,
        /// Number of windows before the good suffix.
        windows: u32,
    },
    /// A store-and-forward gap: one seed-chosen replica is dark for
    /// rounds `1..=dark` — it hears only itself and nobody hears it —
    /// while the rest of the system stays fully connected; then the
    /// replica reconnects for good and bounded backfill is its only
    /// path back to the log frontier.
    StoreAndForward {
        /// Length of the dark prefix in rounds.
        dark: u32,
    },
}

impl ContactPlan {
    /// The connectivity phase of plan round `round` (1-based) in a
    /// system of `n` processes, under `seed`. Pure and allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` — a one-process system has no links to
    /// schedule.
    #[must_use]
    pub fn phase(&self, seed: u64, n: usize, round: u64) -> Phase {
        assert!(n >= 2, "contact plans need at least two processes");
        if round >= self.good_from() {
            return Phase::AllUp;
        }
        match *self {
            ContactPlan::Episodic { dark, bright, .. } => {
                let period = u64::from(dark) + u64::from(bright);
                let cycle = (round - 1) / period;
                let pos = (round - 1) % period;
                if pos >= u64::from(dark) {
                    return Phase::AllUp;
                }
                // Rotate which processes share a block every cycle: the
                // shifted index decides the side, so membership drifts
                // through the whole ring as cycles pass.
                let rot = (contact_seed(seed, cycle) % n as u64) as usize;
                let half = n.div_ceil(2);
                let a = ProcessSet::from_indices((0..n).filter(|&p| (p + rot) % n < half));
                Phase::Blocks {
                    a,
                    b: a.complement(n),
                }
            }
            ContactPlan::Rotating { window, .. } => {
                let w = (round - 1) / u64::from(window);
                let k = contact_seed(seed, w);
                let a = (k % n as u64) as usize;
                let b = (a + 1 + ((k >> 32) % (n as u64 - 1)) as usize) % n;
                Phase::Contact {
                    set: ProcessSet::from_indices([a, b]),
                }
            }
            ContactPlan::StoreAndForward { .. } => Phase::Isolated {
                dark: self.dark_replica(seed, n),
            },
        }
    }

    /// Whether the directed link `from → to` is up in plan round
    /// `round` — the one-spec chokepoint both execution layers consult.
    #[must_use]
    pub fn link_up(&self, seed: u64, n: usize, round: u64, from: ProcessId, to: ProcessId) -> bool {
        self.phase(seed, n, round).link_up(from, to)
    }

    /// The first round of the permanent fully-connected suffix — the
    /// plan's *guaranteed-good* point. Degradation metrics (predicate
    /// lateness, catch-up latency) are measured from here.
    #[must_use]
    pub fn good_from(&self) -> u64 {
        match *self {
            ContactPlan::Episodic {
                dark,
                bright,
                cycles,
            } => {
                let period = u64::from(dark) + u64::from(bright);
                // The last cycle's bright rounds already run connected,
                // so the suffix starts right after its dark prefix.
                (u64::from(cycles).saturating_sub(1)) * period + u64::from(dark) + 1
            }
            ContactPlan::Rotating { window, windows } => u64::from(window) * u64::from(windows) + 1,
            ContactPlan::StoreAndForward { dark } => u64::from(dark) + 1,
        }
    }

    /// The store-and-forward dark replica under `seed` (seed-chosen so
    /// no process index is structurally privileged across the grid).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn dark_replica(&self, seed: u64, n: usize) -> ProcessId {
        assert!(n > 0, "empty system");
        ProcessId::new((contact_seed(seed, DARK_REPLICA_SALT) % n as u64) as usize)
    }

    /// Counts dark process-rounds over `1..=rounds`: pairs `(p, r)` in
    /// which `p`'s only contact is itself (it hears nobody and nobody
    /// hears it) — the graceful-degradation denominator summed into
    /// the `contact` line of `sweep --check`.
    #[must_use]
    pub fn dark_rounds(&self, seed: u64, n: usize, rounds: u64) -> u64 {
        let mut dark = 0;
        for r in 1..=rounds {
            match self.phase(seed, n, r) {
                Phase::AllUp | Phase::Blocks { .. } => {}
                Phase::Contact { set } => dark += (n - set.len()) as u64,
                Phase::Isolated { .. } => dark += 1,
            }
        }
        dark
    }

    /// A short, dot-free label for scenario ids (`.` never appears, so
    /// contact-plan ids stay grep- and filesystem-safe).
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            ContactPlan::Episodic {
                dark,
                bright,
                cycles,
            } => format!("contact_episodic_d{dark}b{bright}c{cycles}"),
            ContactPlan::Rotating { window, windows } => {
                format!("contact_rotating_w{window}x{windows}")
            }
            ContactPlan::StoreAndForward { dark } => format!("contact_store_forward_d{dark}"),
        }
    }
}

/// The round-synchronous implementation of a [`ContactPlan`]: an
/// [`Adversary`] whose HO sets are exactly the processes with an up link
/// into each destination. Pure per-round arithmetic over `Copy` bitsets
/// — zero allocations in steady state (counting-allocator proven in
/// `tests/alloc_steady_state.rs`).
#[derive(Clone, Copy, Debug)]
pub struct ContactPlanAdversary {
    plan: ContactPlan,
    seed: u64,
}

impl ContactPlanAdversary {
    /// An adversary executing `plan` under `seed`.
    #[must_use]
    pub fn new(plan: ContactPlan, seed: u64) -> Self {
        ContactPlanAdversary { plan, seed }
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> ContactPlan {
        self.plan
    }
}

impl Adversary for ContactPlanAdversary {
    fn fill_ho_sets(&mut self, r: Round, ho: &mut [ProcessSet]) {
        let n = ho.len();
        match self.plan.phase(self.seed, n, r.get()) {
            Phase::AllUp => ho.fill(ProcessSet::full(n)),
            Phase::Blocks { a, b } => {
                for (p, slot) in ho.iter_mut().enumerate() {
                    *slot = if a.contains(ProcessId::new(p)) { a } else { b };
                }
            }
            Phase::Contact { set } => {
                for (p, slot) in ho.iter_mut().enumerate() {
                    let p = ProcessId::new(p);
                    *slot = if set.contains(p) {
                        set
                    } else {
                        ProcessSet::singleton(p)
                    };
                }
            }
            Phase::Isolated { dark } => {
                let mut up = ProcessSet::full(n);
                up.remove(dark);
                for (p, slot) in ho.iter_mut().enumerate() {
                    let p = ProcessId::new(p);
                    *slot = if p == dark {
                        ProcessSet::singleton(p)
                    } else {
                        up
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(plan: ContactPlan, seed: u64, n: usize, r: u64) -> Vec<ProcessSet> {
        ContactPlanAdversary::new(plan, seed).ho_sets(Round(r), n)
    }

    #[test]
    fn episodic_alternates_partition_and_full_delivery() {
        let plan = ContactPlan::Episodic {
            dark: 3,
            bright: 2,
            cycles: 2,
        };
        // Dark rounds: two disjoint blocks covering Π, each hearing
        // itself only.
        for r in [1, 3, 6, 8] {
            let ho = fill(plan, 42, 4, r);
            let Phase::Blocks { a, b } = plan.phase(42, 4, r) else {
                panic!("round {r} must be partitioned");
            };
            assert_eq!(a.union(b), ProcessSet::full(4));
            assert!(a.intersection(b).is_empty());
            for (p, &set) in ho.iter().enumerate() {
                assert!(set == a || set == b);
                assert!(set.contains(ProcessId::new(p)));
            }
        }
        // Bright rounds and the good suffix: full delivery.
        for r in [4, 5, 9, 10, 11, 500] {
            assert!(
                fill(plan, 42, 4, r)
                    .iter()
                    .all(|&s| s == ProcessSet::full(4)),
                "round {r} must be fully connected"
            );
        }
        assert_eq!(plan.good_from(), 9, "last dark round is 8");
    }

    #[test]
    fn episodic_blocks_rotate_between_cycles() {
        let plan = ContactPlan::Episodic {
            dark: 4,
            bright: 2,
            cycles: 8,
        };
        let phases: Vec<Phase> = (0..8).map(|c| plan.phase(7, 5, c * 6 + 1)).collect();
        assert!(
            phases.windows(2).any(|w| w[0] != w[1]),
            "block membership must drift across cycles: {phases:?}"
        );
    }

    #[test]
    fn rotating_contact_isolates_everyone_else() {
        let plan = ContactPlan::Rotating {
            window: 5,
            windows: 4,
        };
        for r in 1..=20 {
            let ho = fill(plan, 9, 6, r);
            let Phase::Contact { set } = plan.phase(9, 6, r) else {
                panic!("round {r} is within the rotation");
            };
            assert_eq!(set.len(), 2, "contact pairs");
            for (p, &s) in ho.iter().enumerate() {
                let p = ProcessId::new(p);
                if set.contains(p) {
                    assert_eq!(s, set);
                } else {
                    assert_eq!(s, ProcessSet::singleton(p), "round {r}: {p} is dark");
                }
            }
        }
        assert_eq!(plan.good_from(), 21);
        assert!(fill(plan, 9, 6, 21)
            .iter()
            .all(|&s| s == ProcessSet::full(6)));
        // The pair rotates with the seed stream.
        let pair = |r| match plan.phase(9, 6, r) {
            Phase::Contact { set } => set,
            _ => unreachable!(),
        };
        assert!(
            (1..4).any(|w| pair(w * 5 + 1) != pair(1)),
            "contact pair must rotate across windows"
        );
    }

    #[test]
    fn store_and_forward_darkens_exactly_one_replica() {
        let plan = ContactPlan::StoreAndForward { dark: 2000 };
        let d = plan.dark_replica(3, 4);
        for r in [1, 999, 2000] {
            let ho = fill(plan, 3, 4, r);
            assert_eq!(ho[d.index()], ProcessSet::singleton(d), "round {r}");
            for (p, &s) in ho.iter().enumerate() {
                if p != d.index() {
                    assert!(!s.contains(d), "round {r}: nobody hears {d}");
                    assert_eq!(s.len(), 3, "round {r}: the rest stay connected");
                }
            }
        }
        assert_eq!(plan.good_from(), 2001);
        assert!(fill(plan, 3, 4, 2001)
            .iter()
            .all(|&s| s == ProcessSet::full(4)));
        assert_eq!(plan.dark_rounds(3, 4, 2500), 2000);
    }

    #[test]
    fn dark_replica_choice_varies_with_the_seed() {
        let plan = ContactPlan::StoreAndForward { dark: 10 };
        let choices: Vec<ProcessId> = (0..16).map(|s| plan.dark_replica(s, 4)).collect();
        assert!(choices.windows(2).any(|w| w[0] != w[1]), "{choices:?}");
    }

    #[test]
    fn link_up_matches_the_adversary_ho_sets() {
        // The sim layer consults link_up; the model layer fills HO sets.
        // They must be two views of the same function.
        let plans = [
            ContactPlan::Episodic {
                dark: 3,
                bright: 2,
                cycles: 3,
            },
            ContactPlan::Rotating {
                window: 2,
                windows: 5,
            },
            ContactPlan::StoreAndForward { dark: 7 },
        ];
        for plan in plans {
            for seed in 0..4 {
                for r in 1..=18 {
                    let ho = fill(plan, seed, 5, r);
                    for (p, row) in ho.iter().enumerate() {
                        for q in 0..5 {
                            let expected = row.contains(ProcessId::new(q));
                            let got =
                                plan.link_up(seed, 5, r, ProcessId::new(q), ProcessId::new(p));
                            assert_eq!(expected, got, "{plan:?} seed {seed} r {r} {q}->{p}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fill_overwrites_stale_slots() {
        let mut scratch = vec![ProcessSet::full(4); 4];
        let plan = ContactPlan::Rotating {
            window: 4,
            windows: 2,
        };
        ContactPlanAdversary::new(plan, 1).fill_ho_sets(Round(1), &mut scratch);
        let Phase::Contact { set } = plan.phase(1, 4, 1) else {
            panic!("round 1 is a contact window");
        };
        for (p, &s) in scratch.iter().enumerate() {
            let p = ProcessId::new(p);
            if !set.contains(p) {
                assert_eq!(s, ProcessSet::singleton(p), "stale slot survived");
            }
        }
    }

    #[test]
    fn plans_are_deterministic_under_seed() {
        let plan = ContactPlan::Episodic {
            dark: 5,
            bright: 3,
            cycles: 4,
        };
        for r in 1..=40 {
            assert_eq!(fill(plan, 11, 7, r), fill(plan, 11, 7, r));
        }
        assert_ne!(
            (1..=20).map(|r| fill(plan, 11, 7, r)).collect::<Vec<_>>(),
            (1..=20).map(|r| fill(plan, 12, 7, r)).collect::<Vec<_>>(),
            "different seeds rotate differently"
        );
    }

    #[test]
    fn labels_are_dot_free_and_distinct() {
        let labels = [
            ContactPlan::Episodic {
                dark: 8,
                bright: 4,
                cycles: 3,
            }
            .label(),
            ContactPlan::Rotating {
                window: 4,
                windows: 6,
            }
            .label(),
            ContactPlan::StoreAndForward { dark: 40 }.label(),
        ];
        for l in &labels {
            assert!(!l.contains('.'), "{l}");
        }
        let mut dedup = labels.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
