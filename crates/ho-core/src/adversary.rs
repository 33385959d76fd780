//! Adversaries: generators of heard-of sets.
//!
//! In the HO model all benign faults — crashes, crash-recovery, send/receive
//! omission, link loss — manifest as *transmission faults*: `q ∉ HO(p, r)`.
//! An [`Adversary`] decides, round by round, which transmissions fail. The
//! [`RoundExecutor`](crate::executor::RoundExecutor) asks the adversary for
//! the HO assignment of each round, which makes fault classes SP, ST, DP and
//! DT (§2.2) all expressible with the same machinery.
//!
//! ## The scratch-buffer contract
//!
//! The primary method, [`Adversary::fill_ho_sets`], writes the round's HO
//! assignment into a caller-owned `&mut [ProcessSet]` scratch slice: the
//! universe size is the slice length, every slot must be overwritten, and
//! nothing is allocated — the executor reuses one scratch slice for the
//! whole run. The allocating [`Adversary::ho_sets`] is a derived
//! convenience for tests and examples.
//!
//! Cost per round: the lossy adversaries pay one raw draw, one compare and
//! one OR per ordered pair plus one store per row; the rest fill or copy.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::process::{ProcessId, ProcessSet, MAX_PROCESSES};
use crate::round::Round;

/// A loss probability as a `2⁻⁶⁴` fixed-point threshold:
/// `next_u64() < threshold` holds with probability `threshold / 2⁶⁴`.
/// One raw draw and an integer compare per transmission — the lossy
/// adversaries sample `n²` of these per round, so the float-free form
/// matters. `loss = 0` is exactly "never", `loss = 1` is capped at
/// `1 − 2⁻⁶⁴` (indistinguishable in any finite run).
#[derive(Clone, Copy, Debug)]
struct LossThreshold(u64);

impl LossThreshold {
    fn new(loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0, 1]");
        LossThreshold(if loss >= 1.0 {
            u64::MAX
        } else {
            (loss * (u64::MAX as f64)) as u64
        })
    }

    /// One round of lossy HO rows. In row `p`, every `q` other than `p`
    /// and `pivot` (`KernelOnly`'s; `None` for plain loss) draws once, in
    /// ascending order, and is heard unless its draw falls below the
    /// threshold; `p` and `pivot` are heard without drawing. The outcome is
    /// OR-ed into a register as a bit: no branch on a draw no predictor can
    /// follow, no 128-bit shift per pair.
    fn fill(self, rng: &mut SmallRng, ho: &mut [ProcessSet], pivot: Option<usize>) {
        let n = ho.len();
        assert!(n <= MAX_PROCESSES, "n = {n} exceeds MAX_PROCESSES");
        // The generator's state stays in registers for the whole round.
        let mut draws = rng.clone();
        for (p, slot) in ho.iter_mut().enumerate() {
            let pivot = pivot.unwrap_or(p);
            let mut words = [0u64; 2];
            for (w, word) in words.iter_mut().enumerate() {
                let base = 64 * w;
                for q in base..n.min(base + 64) {
                    let heard = q == p || q == pivot || draws.next_u64() >= self.0;
                    *word |= u64::from(heard) << (q - base);
                }
            }
            *slot = ProcessSet::from_words(words);
        }
        *rng = draws;
    }
}

/// A generator of heard-of assignments.
pub trait Adversary {
    /// Writes the HO sets for round `r` into `ho`: slot `p` becomes
    /// `HO(p, r)` — the set of processes whose round-`r` message reaches
    /// `p`. The universe size is `n = ho.len()`; implementations must
    /// overwrite every slot (stale contents from the previous round are
    /// otherwise carried over).
    fn fill_ho_sets(&mut self, r: Round, ho: &mut [ProcessSet]);

    /// The HO sets for round `r` as a freshly allocated vector — a
    /// convenience wrapper over [`Adversary::fill_ho_sets`] for callers off
    /// the hot path.
    fn ho_sets(&mut self, r: Round, n: usize) -> Vec<ProcessSet> {
        let mut ho = vec![ProcessSet::empty(); n];
        self.fill_ho_sets(r, &mut ho);
        ho
    }
}

impl<A: Adversary + ?Sized> Adversary for &mut A {
    fn fill_ho_sets(&mut self, r: Round, ho: &mut [ProcessSet]) {
        (**self).fill_ho_sets(r, ho);
    }
}

impl<A: Adversary + ?Sized> Adversary for Box<A> {
    fn fill_ho_sets(&mut self, r: Round, ho: &mut [ProcessSet]) {
        (**self).fill_ho_sets(r, ho);
    }
}

/// No transmission faults: `HO(p, r) = Π` for every `p` and `r`
/// (the fault-free "nice run").
#[derive(Clone, Copy, Debug, Default)]
pub struct FullDelivery;

impl Adversary for FullDelivery {
    fn fill_ho_sets(&mut self, _r: Round, ho: &mut [ProcessSet]) {
        ho.fill(ProcessSet::full(ho.len()));
    }
}

/// Replays an explicit script of HO assignments; after the script is
/// exhausted, delivers everything.
#[derive(Clone, Debug)]
pub struct Scripted {
    script: Vec<Vec<ProcessSet>>,
}

impl Scripted {
    /// Round `r` uses `script[r - 1]`; rounds past the end use full delivery.
    #[must_use]
    pub fn new(script: Vec<Vec<ProcessSet>>) -> Self {
        Scripted { script }
    }
}

impl Adversary for Scripted {
    fn fill_ho_sets(&mut self, r: Round, ho: &mut [ProcessSet]) {
        match self.script.get((r.get() - 1) as usize) {
            Some(row) => {
                assert_eq!(row.len(), ho.len(), "scripted round has wrong width");
                ho.copy_from_slice(row);
            }
            None => ho.fill(ProcessSet::full(ho.len())),
        }
    }
}

/// Independent per-transmission loss: each `(q → p)` transmission with
/// `q ≠ p` fails with probability `loss`; processes always hear themselves.
///
/// This is the DT (dynamic/transient) fault class in its purest form.
#[derive(Clone, Debug)]
pub struct RandomLoss {
    loss: LossThreshold,
    rng: SmallRng,
}

impl RandomLoss {
    /// Loss probability `loss ∈ [0, 1]`, deterministic under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not within `[0, 1]`.
    #[must_use]
    pub fn new(loss: f64, seed: u64) -> Self {
        RandomLoss {
            loss: LossThreshold::new(loss),
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Adversary for RandomLoss {
    fn fill_ho_sets(&mut self, _r: Round, ho: &mut [ProcessSet]) {
        self.loss.fill(&mut self.rng, ho, None);
    }
}

/// Permanent crashes (the SP fault class / crash-stop model): once process
/// `q`'s crash round is reached, `q` sends no more messages, so `q` drops out
/// of every HO set.
///
/// A crashed process still "receives": in the HO model a crashed process is
/// indistinguishable from one that receives all messages but sends none
/// (§3.2), so `HO(crashed, r)` is kept equal to the live set.
#[derive(Clone, Debug)]
pub struct CrashStop {
    /// `crash_round[q] = Some(r)` — `q` sends nothing from round `r` on.
    crash_round: Vec<Option<Round>>,
}

impl CrashStop {
    /// Builds the schedule; `crashes` maps process index to its crash round.
    #[must_use]
    pub fn new(n: usize, crashes: &[(usize, Round)]) -> Self {
        let mut crash_round = vec![None; n];
        for &(q, r) in crashes {
            crash_round[q] = Some(r);
        }
        CrashStop { crash_round }
    }

    /// Processes still sending in round `r`.
    #[must_use]
    pub fn alive(&self, r: Round) -> ProcessSet {
        self.crash_round
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none_or(|cr| r < cr))
            .map(|(q, _)| ProcessId::new(q))
            .collect()
    }
}

impl Adversary for CrashStop {
    fn fill_ho_sets(&mut self, r: Round, ho: &mut [ProcessSet]) {
        debug_assert_eq!(ho.len(), self.crash_round.len());
        let alive = self.alive(r);
        ho.fill(alive);
    }
}

/// Crash–recovery (the DT fault class): processes are *down* during
/// scheduled round intervals. A down process sends nothing and receives
/// nothing (`HO = ∅`); everyone else simply does not hear it. After the
/// interval it resumes — with its state intact at this layer, since the HO
/// abstraction pushes recovery handling into the implementation layer (§3.3).
#[derive(Clone, Debug)]
pub struct CrashRecovery {
    /// `down[q]` = list of inclusive round intervals during which `q` is down.
    down: Vec<Vec<(Round, Round)>>,
}

impl CrashRecovery {
    /// Builds the schedule; `outages` maps process index to `(from, to)`
    /// inclusive round intervals.
    #[must_use]
    pub fn new(n: usize, outages: &[(usize, Round, Round)]) -> Self {
        let mut down = vec![Vec::new(); n];
        for &(q, a, b) in outages {
            assert!(a <= b, "outage interval must be ordered");
            down[q].push((a, b));
        }
        CrashRecovery { down }
    }

    /// Whether `q` is down in round `r`.
    #[must_use]
    pub fn is_down(&self, q: ProcessId, r: Round) -> bool {
        self.down[q.index()].iter().any(|&(a, b)| a <= r && r <= b)
    }
}

impl Adversary for CrashRecovery {
    fn fill_ho_sets(&mut self, r: Round, ho: &mut [ProcessSet]) {
        let n = ho.len();
        let up: ProcessSet = (0..n)
            .map(ProcessId::new)
            .filter(|&q| !self.is_down(q, r))
            .collect();
        for (p, slot) in ho.iter_mut().enumerate() {
            *slot = if self.is_down(ProcessId::new(p), r) {
                ProcessSet::empty()
            } else {
                up
            };
        }
    }
}

/// A static network partition: processes only hear members of their own
/// block. Consensus-breaking if two blocks both exceed the algorithm's
/// quorum; used by the safety tests to show OTR never violates agreement
/// even then.
#[derive(Clone, Debug)]
pub struct Partition {
    blocks: Vec<ProcessSet>,
    /// Per-process block cache, built lazily for the universe size of the
    /// first `fill_ho_sets` call (the partition is static, so every round
    /// after that is a plain copy).
    assignment: Vec<ProcessSet>,
}

impl Partition {
    /// Builds a partition from blocks; blocks must be disjoint.
    ///
    /// # Panics
    ///
    /// Panics if two blocks overlap.
    #[must_use]
    pub fn new(blocks: Vec<ProcessSet>) -> Self {
        let mut seen = ProcessSet::empty();
        for b in &blocks {
            assert!(seen.intersection(*b).is_empty(), "blocks must be disjoint");
            seen = seen.union(*b);
        }
        Partition {
            blocks,
            assignment: Vec::new(),
        }
    }

    fn block_of(&self, p: ProcessId) -> ProcessSet {
        self.blocks
            .iter()
            .copied()
            .find(|b| b.contains(p))
            .unwrap_or_else(|| ProcessSet::singleton(p))
    }
}

impl Adversary for Partition {
    fn fill_ho_sets(&mut self, _r: Round, ho: &mut [ProcessSet]) {
        if self.assignment.len() != ho.len() {
            self.assignment = (0..ho.len())
                .map(|p| self.block_of(ProcessId::new(p)))
                .collect();
        }
        ho.copy_from_slice(&self.assignment);
    }
}

/// The system alternating between *bad* and *good* periods at the HO level:
/// rounds `1..=bad_rounds` have adversarial (random-loss) HO sets, from round
/// `bad_rounds + 1` on every process hears exactly `good_set`.
///
/// After the switch the trace satisfies `P_su(good_set, bad_rounds+1, ∞)`,
/// hence `P2_otr(good_set)` and (for `|good_set| > 2n/3`) `P_otr^restr`.
#[derive(Clone, Debug)]
pub struct EventuallyGood {
    bad_rounds: u64,
    good_set: ProcessSet,
    chaos: RandomLoss,
}

impl EventuallyGood {
    /// `bad_rounds` rounds of chaos with the given loss rate, then uniform
    /// delivery over `good_set` forever.
    #[must_use]
    pub fn new(bad_rounds: u64, good_set: ProcessSet, loss: f64, seed: u64) -> Self {
        EventuallyGood {
            bad_rounds,
            good_set,
            chaos: RandomLoss::new(loss, seed),
        }
    }
}

impl Adversary for EventuallyGood {
    fn fill_ho_sets(&mut self, r: Round, ho: &mut [ProcessSet]) {
        if r.get() <= self.bad_rounds {
            self.chaos.fill_ho_sets(r, ho);
        } else {
            // Processes outside Π0 get whatever; give them Π0 too so the
            // unrestricted P_otr also eventually holds.
            ho.fill(self.good_set);
        }
    }
}

/// Guarantees a non-empty kernel every round while dropping as much as
/// possible: one pivot process (rotating each round) is heard by everybody;
/// every other transmission fails independently with probability `loss`.
///
/// This is the weakest environment in which `UniformVoting` is live
/// (`P_nek`), and a stress test for OTR's safety.
#[derive(Clone, Debug)]
pub struct KernelOnly {
    loss: LossThreshold,
    rng: SmallRng,
}

impl KernelOnly {
    /// Loss probability for non-pivot transmissions.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not within `[0, 1]`.
    #[must_use]
    pub fn new(loss: f64, seed: u64) -> Self {
        KernelOnly {
            loss: LossThreshold::new(loss),
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Adversary for KernelOnly {
    fn fill_ho_sets(&mut self, r: Round, ho: &mut [ProcessSet]) {
        let pivot = ((r.get() - 1) % ho.len() as u64) as usize;
        self.loss.fill(&mut self.rng, ho, Some(pivot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    /// Records `rounds` rounds through the scratch-slice path, reusing one
    /// buffer the way the executor does.
    fn record(adv: &mut impl Adversary, n: usize, rounds: u64) -> Trace {
        let mut t = Trace::new(n);
        let mut ho = vec![ProcessSet::empty(); n];
        for r in 1..=rounds {
            adv.fill_ho_sets(Round(r), &mut ho);
            t.record_round(&ho);
        }
        t
    }

    #[test]
    fn full_delivery_hears_everyone() {
        let t = record(&mut FullDelivery, 4, 3);
        for (r, hos) in t.iter() {
            for &ho in hos {
                assert_eq!(ho, ProcessSet::full(4), "round {r}");
            }
        }
    }

    #[test]
    fn random_loss_keeps_self() {
        let mut adv = RandomLoss::new(0.9, 42);
        let t = record(&mut adv, 8, 20);
        for (r, hos) in t.iter() {
            for (p, &ho) in hos.iter().enumerate() {
                assert!(ho.contains(ProcessId::new(p)), "round {r} process {p}");
            }
        }
    }

    #[test]
    fn random_loss_deterministic_under_seed() {
        let a = record(&mut RandomLoss::new(0.5, 7), 5, 10);
        let b = record(&mut RandomLoss::new(0.5, 7), 5, 10);
        for r in 1..=10 {
            assert_eq!(a.round(Round(r)), b.round(Round(r)));
        }
    }

    #[test]
    fn allocating_view_matches_fill() {
        // The derived ho_sets must be the same assignment fill_ho_sets
        // writes (same RNG stream consumption).
        let mut a = RandomLoss::new(0.4, 9);
        let mut b = RandomLoss::new(0.4, 9);
        let mut scratch = vec![ProcessSet::empty(); 6];
        for r in 1..=10 {
            a.fill_ho_sets(Round(r), &mut scratch);
            assert_eq!(b.ho_sets(Round(r), 6), scratch);
        }
    }

    #[test]
    fn fill_overwrites_stale_slots() {
        // A scratch slice carrying the previous round's sets must be fully
        // overwritten by every adversary.
        let mut scratch = vec![ProcessSet::full(4); 4];
        CrashRecovery::new(4, &[(2, Round(1), Round(5))]).fill_ho_sets(Round(1), &mut scratch);
        assert!(scratch[2].is_empty());
        assert!(!scratch[0].contains(ProcessId::new(2)));
    }

    #[test]
    fn crash_stop_removes_sender_permanently() {
        let mut adv = CrashStop::new(4, &[(2, Round(3))]);
        let t = record(&mut adv, 4, 5);
        // Before round 3: everyone heard.
        assert_eq!(t.ho(ProcessId::new(0), Round(2)), ProcessSet::full(4));
        // From round 3 on: p2 gone from every HO set.
        for r in 3..=5 {
            for p in 0..4 {
                assert!(!t
                    .ho(ProcessId::new(p), Round(r))
                    .contains(ProcessId::new(2)));
            }
        }
    }

    #[test]
    fn crash_recovery_outage_is_transient() {
        let mut adv = CrashRecovery::new(3, &[(1, Round(2), Round(3))]);
        let t = record(&mut adv, 3, 5);
        // During the outage p1 hears nothing and is heard by nobody.
        assert!(t.ho(ProcessId::new(1), Round(2)).is_empty());
        assert!(!t
            .ho(ProcessId::new(0), Round(3))
            .contains(ProcessId::new(1)));
        // After recovery p1 is back.
        assert!(t
            .ho(ProcessId::new(0), Round(4))
            .contains(ProcessId::new(1)));
        assert_eq!(t.ho(ProcessId::new(1), Round(4)), ProcessSet::full(3));
    }

    #[test]
    fn partition_isolates_blocks() {
        let a = ProcessSet::from_indices([0, 1]);
        let b = ProcessSet::from_indices([2, 3]);
        let mut adv = Partition::new(vec![a, b]);
        let t = record(&mut adv, 4, 2);
        assert_eq!(t.ho(ProcessId::new(0), Round(1)), a);
        assert_eq!(t.ho(ProcessId::new(3), Round(1)), b);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_blocks_rejected() {
        let _ = Partition::new(vec![
            ProcessSet::from_indices([0, 1]),
            ProcessSet::from_indices([1, 2]),
        ]);
    }

    #[test]
    fn eventually_good_becomes_uniform() {
        use crate::predicate::{P2Otr, Potr, Predicate};
        let pi0 = ProcessSet::from_indices([0, 1, 2]);
        let mut adv = EventuallyGood::new(5, pi0, 0.8, 3);
        let t = record(&mut adv, 4, 8);
        assert!(P2Otr::new(pi0).holds(&t));
        assert!(Potr.holds(&t));
    }

    #[test]
    fn kernel_only_has_nonempty_kernel() {
        use crate::predicate::{NonEmptyKernel, Predicate};
        let mut adv = KernelOnly::new(0.95, 11);
        let t = record(&mut adv, 6, 30);
        assert!(NonEmptyKernel.holds(&t));
    }
}
