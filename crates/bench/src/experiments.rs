//! The experiment implementations behind the artifact tables.
//!
//! One function per experiment id (the crate docs list them); each returns a
//! [`Table`] that the corresponding binary prints. The criterion benches
//! reuse the same entry points with reduced sweep sizes.

use ho_core::adversary::{Adversary, EventuallyGood, RandomLoss};
use ho_core::algorithms::OneThirdRule;
use ho_core::executor::RoundExecutor;
use ho_core::predicate::{Potr, PotrRestricted, Predicate};
use ho_core::process::{ProcessId, ProcessSet};
use ho_core::round::Round;
use ho_core::translation::Translated;
use ho_predicates::alg2::Alg2Program;
use ho_predicates::bounds::BoundParams;
use ho_predicates::measure::{
    measure_alg2_space_uniform, measure_alg3_kernel, measure_full_stack, Scenario,
};
use ho_predicates::record::SystemTrace;
use ho_sim::{
    BadPeriodConfig, GoodKind, Period, PeriodKind, Schedule, SimConfig, Simulator, TimePoint,
};

use crate::table::{f1, f2, Table};

/// Aggregate of a seed sweep of one measurement configuration.
#[derive(Clone, Copy, Debug)]
pub struct SweepStats {
    /// Runs attempted.
    pub runs: usize,
    /// Runs that achieved the target before the deadline.
    pub achieved: usize,
    /// Worst (max) empirical good-period length over achieving runs.
    pub max_len: f64,
    /// Mean empirical length over achieving runs.
    pub mean_len: f64,
    /// The theorem bound.
    pub bound: f64,
}

impl SweepStats {
    fn from_lengths(lengths: &[f64], runs: usize, bound: f64) -> Self {
        let achieved = lengths.len();
        let max_len = lengths.iter().copied().fold(0.0, f64::max);
        let mean_len = if achieved == 0 {
            0.0
        } else {
            lengths.iter().sum::<f64>() / achieved as f64
        };
        SweepStats {
            runs,
            achieved,
            max_len,
            mean_len,
            bound,
        }
    }

    /// `max_len / bound` — how tight the worst run is against the theorem.
    #[must_use]
    pub fn tightness(&self) -> f64 {
        if self.bound == 0.0 {
            0.0
        } else {
            self.max_len / self.bound
        }
    }
}

/// Sweep driver for the Algorithm 2 measurements (E3 / E5).
#[must_use]
pub fn sweep_alg2(params: BoundParams, x: u64, initial: bool, seeds: u64) -> SweepStats {
    let pi0 = ProcessSet::full(params.n);
    let mut lengths = Vec::new();
    let mut bound = 0.0;
    for seed in 0..seeds {
        let scenario = if initial {
            Scenario::Initial
        } else {
            Scenario::rough(50.0 + 7.0 * seed as f64)
        };
        let m = measure_alg2_space_uniform(params, pi0, x, scenario, seed);
        bound = m.bound;
        if let Some(len) = m.empirical_length() {
            lengths.push(len);
        }
    }
    SweepStats::from_lengths(&lengths, seeds as usize, bound)
}

/// Sweep driver for the Algorithm 3 measurements (E6 / E7).
#[must_use]
pub fn sweep_alg3(params: BoundParams, f: usize, x: u64, initial: bool, seeds: u64) -> SweepStats {
    let mut lengths = Vec::new();
    let mut bound = 0.0;
    for seed in 0..seeds {
        let scenario = if initial {
            Scenario::Initial
        } else {
            Scenario::rough(50.0 + 7.0 * seed as f64)
        };
        let m = measure_alg3_kernel(params, f, x, scenario, seed);
        bound = m.bound;
        if let Some(len) = m.empirical_length() {
            lengths.push(len);
        }
    }
    SweepStats::from_lengths(&lengths, seeds as usize, bound)
}

// ---------------------------------------------------------------------
// T1 — Table 1: the predicates paired with OneThirdRule.

/// T1: empirical validation of Theorems 1 and 2 over randomized runs — when
/// a trace witnesses `P_otr` (resp. `P_otr^restr`), OneThirdRule has decided
/// (resp. `Π0` has); OTR never violates safety either way.
#[must_use]
pub fn table1_predicates(n: usize, trials: u64) -> Table {
    let mut t = Table::new(
        format!("Table 1 — ⟨OTR, P_otr⟩ and ⟨OTR, P_otr^restr⟩ (n = {n}, {trials} runs each)"),
        &[
            "adversary",
            "runs",
            "P_otr",
            "P_otr^restr",
            "decided|P_otr",
            "safety-violations",
        ],
    );
    let full = ProcessSet::full(n);
    let quorum = ProcessSet::from_indices(0..(2 * n / 3 + 1));
    type AdversaryFactory = Box<dyn Fn(u64) -> Box<dyn Adversary>>;
    let cases: Vec<(&str, AdversaryFactory)> = vec![
        (
            "eventually-good(Π)",
            Box::new(move |seed| Box::new(EventuallyGood::new(6, full, 0.7, seed))),
        ),
        (
            "eventually-good(Π0)",
            Box::new(move |seed| Box::new(EventuallyGood::new(6, quorum, 0.7, seed))),
        ),
        (
            "random-loss(0.5)",
            Box::new(|seed| Box::new(RandomLoss::new(0.5, seed))),
        ),
    ];
    for (name, mk) in cases {
        let mut otr_holds = 0u64;
        let mut restr_holds = 0u64;
        let mut decided_given_otr = 0u64;
        let mut violations = 0u64;
        for seed in 0..trials {
            let mut adv = mk(seed);
            let mut exec = RoundExecutor::new(OneThirdRule::new(n), (0..n as u64).collect());
            if exec.run(&mut adv, 14).is_err() {
                violations += 1;
                continue;
            }
            let trace = exec.trace();
            let otr = Potr.holds(trace);
            let restr = PotrRestricted.holds(trace);
            otr_holds += u64::from(otr);
            restr_holds += u64::from(restr);
            if otr && exec.decisions().iter().all(Option::is_some) {
                decided_given_otr += 1;
            }
        }
        t.row(vec![
            name.to_owned(),
            trials.to_string(),
            otr_holds.to_string(),
            restr_holds.to_string(),
            format!("{decided_given_otr}/{otr_holds}"),
            violations.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E3 / E5 — Theorems 3 and 5 (Algorithm 2 good-period lengths).

/// E3: measured vs Theorem 3 (non-initial π0-down good periods), sweeping
/// `x` and `n`.
#[must_use]
pub fn thm3_table(phi: f64, delta: f64, seeds: u64) -> Table {
    let mut t = Table::new(
        format!("Theorem 3 — Alg. 2, non-initial good period (φ={phi}, δ={delta})"),
        &[
            "n",
            "x",
            "bound",
            "measured-max",
            "measured-mean",
            "max/bound",
            "achieved",
        ],
    );
    for n in [4usize, 7, 10] {
        for x in [1u64, 2, 4] {
            let params = BoundParams::new(n, phi, delta);
            let s = sweep_alg2(params, x, false, seeds);
            t.row(vec![
                n.to_string(),
                x.to_string(),
                f1(s.bound),
                f1(s.max_len),
                f1(s.mean_len),
                f2(s.tightness()),
                format!("{}/{}", s.achieved, s.runs),
            ]);
        }
    }
    t
}

/// E5: measured vs Theorem 5 (initial good periods) plus the "nice vs
/// not-nice" ratio at each `x`.
#[must_use]
pub fn thm5_table(phi: f64, delta: f64, seeds: u64) -> Table {
    let mut t = Table::new(
        format!("Theorem 5 — Alg. 2, initial good period (φ={phi}, δ={delta})"),
        &[
            "n",
            "x",
            "bound(T5)",
            "measured-max",
            "bound(T3)",
            "T3/T5 bound",
            "T3/T5 measured",
        ],
    );
    for n in [4usize, 7, 10] {
        for x in [2u64, 4] {
            let params = BoundParams::new(n, phi, delta);
            let init = sweep_alg2(params, x, true, seeds);
            let later = sweep_alg2(params, x, false, seeds);
            let measured_ratio = if init.max_len > 0.0 {
                later.max_len / init.max_len
            } else {
                0.0
            };
            t.row(vec![
                n.to_string(),
                x.to_string(),
                f1(init.bound),
                f1(init.max_len),
                f1(later.bound),
                f2(later.bound / init.bound),
                f2(measured_ratio),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// C4 — Corollary 4: P2_otr vs P1/1_otr.

/// One run of the two-short-periods route to `P1/1_otr`: bad, good(L),
/// bad, good(L), bad…; succeeds if a space-uniform round completes in the
/// first good period and a kernel round in the second.
fn p11otr_two_periods_achieved(params: BoundParams, good_len: f64, seed: u64) -> bool {
    let n = params.n;
    let pi0 = ProcessSet::full(n);
    let bad = BadPeriodConfig::default();
    let bad_len = 40.0;
    let g1 = bad_len;
    let g2 = g1 + good_len + bad_len;
    let schedule = Schedule::new(vec![
        Period {
            start: TimePoint::ZERO,
            kind: PeriodKind::Bad(bad),
        },
        Period {
            start: TimePoint::new(g1),
            kind: PeriodKind::Good {
                pi0,
                kind: GoodKind::PiDown,
            },
        },
        Period {
            start: TimePoint::new(g1 + good_len),
            kind: PeriodKind::Bad(bad),
        },
        Period {
            start: TimePoint::new(g2),
            kind: PeriodKind::Good {
                pi0,
                kind: GoodKind::PiDown,
            },
        },
        Period {
            start: TimePoint::new(g2 + good_len),
            kind: PeriodKind::Bad(bad),
        },
    ]);
    let cfg = SimConfig::normalized(n, params.phi, params.delta).with_seed(seed);
    let programs: Vec<Alg2Program<OneThirdRule>> = (0..n)
        .map(|p| {
            Alg2Program::new(
                OneThirdRule::new(n),
                ProcessId::new(p),
                p as u64,
                params.alg2_timeout(),
            )
        })
        .collect();
    let mut sim = Simulator::new(cfg, schedule, programs);
    let mut st = SystemTrace::new(n);
    // Observe incrementally so round-completion timestamps are meaningful.
    sim.run_until(TimePoint::new(g2 + good_len), |s| {
        st.observe(s.programs(), s.now().get());
        false
    });

    // Space-uniform round inside good period 1.
    let su = st
        .find_space_uniform_window(pi0, 1, g1)
        .filter(|(_, t)| *t <= g1 + good_len);
    // Kernel round inside good period 2, at a later round.
    let Some((su_round, _)) = su else {
        return false;
    };
    st.find_kernel_window(pi0, 1, g2)
        .filter(|(r, t)| *r > su_round && *t <= g2 + good_len)
        .is_some()
}

/// C4: the trade-off between one long good period (`P2_otr`) and two
/// shorter ones (`P1/1_otr`).
#[must_use]
pub fn corollary4_table(phi: f64, delta: f64, seeds: u64) -> Table {
    let mut t = Table::new(
        format!("Corollary 4 — P2_otr vs P1/1_otr (φ={phi}, δ={delta})"),
        &[
            "n",
            "P2otr bound (1 period)",
            "P1/1 bound (each of 2)",
            "contiguous saving",
            "P1/1 achieved @bound",
        ],
    );
    for n in [4usize, 7, 10] {
        let params = BoundParams::new(n, phi, delta);
        let each = params.corollary4_p11otr_each();
        // Allow the same observation slack as the Theorem-5 tests.
        let good_len = each + params.delta + params.phi + 1.0;
        let ok = (0..seeds)
            .filter(|&s| p11otr_two_periods_achieved(params, good_len, s))
            .count();
        t.row(vec![
            n.to_string(),
            f1(params.corollary4_p2otr()),
            f1(each),
            f2(params.corollary4_p2otr() / each),
            format!("{ok}/{seeds}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E6 / E7 — Theorems 6 and 7 (Algorithm 3 good-period lengths).

/// E6: measured vs Theorem 6 (non-initial π0-arbitrary good periods).
#[must_use]
pub fn thm6_table(phi: f64, delta: f64, seeds: u64) -> Table {
    let mut t = Table::new(
        format!("Theorem 6 — Alg. 3, non-initial π0-arbitrary good period (φ={phi}, δ={delta})"),
        &[
            "n",
            "f",
            "x",
            "bound",
            "measured-max",
            "max/bound",
            "achieved",
        ],
    );
    for (n, f) in [(4usize, 1usize), (5, 2), (9, 4)] {
        for x in [1u64, 2, 4] {
            let params = BoundParams::new(n, phi, delta);
            let s = sweep_alg3(params, f, x, false, seeds);
            t.row(vec![
                n.to_string(),
                f.to_string(),
                x.to_string(),
                f1(s.bound),
                f1(s.max_len),
                f2(s.tightness()),
                format!("{}/{}", s.achieved, s.runs),
            ]);
        }
    }
    t
}

/// E7: measured vs Theorem 7 (initial π0-arbitrary good periods), plus the
/// initial/non-initial comparison for Algorithm 3.
#[must_use]
pub fn thm7_table(phi: f64, delta: f64, seeds: u64) -> Table {
    let mut t = Table::new(
        format!("Theorem 7 — Alg. 3, initial good period (φ={phi}, δ={delta})"),
        &[
            "n",
            "f",
            "x",
            "bound(T7)",
            "measured-max",
            "bound(T6)",
            "T6/T7 bound",
        ],
    );
    for (n, f) in [(4usize, 1usize), (5, 2), (9, 4)] {
        for x in [2u64, 4] {
            let params = BoundParams::new(n, phi, delta);
            let s = sweep_alg3(params, f, x, true, seeds);
            t.row(vec![
                n.to_string(),
                f.to_string(),
                x.to_string(),
                f1(params.theorem7(x)),
                f1(s.max_len),
                f1(params.theorem6(x)),
                f2(params.theorem6(x) / params.theorem7(x)),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// E8 — the full stack (§4.2.2c).

/// E8: consensus latency of the full stack (Alg. 3 + Alg. 4 + OTR) in a
/// π0-arbitrary good period, against the `2f+3`-round bound; sweeps `f`.
#[must_use]
pub fn full_stack_table(phi: f64, delta: f64, seeds: u64) -> Table {
    let mut t = Table::new(
        format!("§4.2.2(c) — full stack consensus (φ={phi}, δ={delta})"),
        &[
            "n",
            "f",
            "bound(2f+3 rounds)",
            "decided-max",
            "decided-mean",
            "agreement",
            "achieved",
        ],
    );
    for (n, f) in [(4usize, 1usize), (5, 1), (7, 2), (10, 3)] {
        let params = BoundParams::new(n, phi, delta);
        let mut lengths = Vec::new();
        let mut bound = 0.0;
        let mut agreement = true;
        for seed in 0..seeds {
            let out =
                measure_full_stack(params, f, Scenario::rough(40.0 + 5.0 * seed as f64), seed);
            bound = out.measurement.bound;
            if let Some(len) = out.measurement.empirical_length() {
                lengths.push(len);
            }
            let vals: Vec<u64> = out.decisions.iter().flatten().copied().collect();
            agreement &= vals.windows(2).all(|w| w[0] == w[1]);
        }
        let s = SweepStats::from_lengths(&lengths, seeds as usize, bound);
        t.row(vec![
            n.to_string(),
            f.to_string(),
            f1(bound),
            f1(s.max_len),
            f1(s.mean_len),
            agreement.to_string(),
            format!("{}/{}", s.achieved, s.runs),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// T8 — the P_k → P_su translation (Theorem 8).

/// T8: model-level check of Theorem 8 — under per-round `P_k(Π0)` HO
/// assignments, completed macro-rounds of the translation should be space
/// uniform over `Π0`. Compares the paper's `f+1`-round translation with the
/// corrected `f+2`-round variant (see the erratum note on
/// [`Translated`]): at `n = 2f+1` the printed version admits rare
/// non-uniform macro-rounds; the corrected one never does.
#[must_use]
pub fn translation_table(trials: u64) -> Table {
    let mut t = Table::new(
        "Theorem 8 — kernel rounds ⇒ space-uniform macro-rounds",
        &[
            "n",
            "f",
            "variant",
            "runs",
            "macro-rounds",
            "uniform",
            "⊇Π0",
            "violations",
        ],
    );
    struct KernelAdv {
        pi0: ProcessSet,
        chaos: RandomLoss,
    }
    impl Adversary for KernelAdv {
        fn fill_ho_sets(&mut self, r: Round, ho: &mut [ProcessSet]) {
            self.chaos.fill_ho_sets(r, ho);
            for (p, slot) in ho.iter_mut().enumerate() {
                if self.pi0.contains(ProcessId::new(p)) {
                    *slot = self.pi0.union(*slot);
                }
            }
        }
    }
    for (n, f) in [(3usize, 1usize), (5, 2), (7, 3), (9, 4)] {
        for paper_variant in [true, false] {
            let pi0 = ProcessSet::from_indices(f..n);
            let mut macro_rounds = 0u64;
            let mut uniform = 0u64;
            let mut contains = 0u64;
            let mut violations = 0u64;
            for seed in 0..trials {
                let alg = if paper_variant {
                    Translated::new(OneThirdRule::new(n), f)
                } else {
                    Translated::corrected(OneThirdRule::new(n), f)
                };
                let per = alg.rounds_per_macro();
                let mut exec = RoundExecutor::new(alg, (0..n as u64).collect());
                let mut adv = KernelAdv {
                    pi0,
                    chaos: RandomLoss::new(0.6, seed),
                };
                let mut bad_run = false;
                for m in 1..=per * 6 {
                    if exec.step(&mut adv).is_err() {
                        violations += 1;
                        bad_run = true;
                        break;
                    }
                    if m % per != 0 {
                        continue;
                    }
                    let news: Vec<ProcessSet> = pi0
                        .iter()
                        .filter_map(|p| exec.states()[p.index()].last_new_ho)
                        .collect();
                    if news.len() == pi0.len() {
                        macro_rounds += 1;
                        if news.windows(2).all(|w| w[0] == w[1]) {
                            uniform += 1;
                        }
                        if news.iter().all(|s| s.is_superset(pi0)) {
                            contains += 1;
                        }
                    }
                }
                let _ = bad_run;
            }
            t.row(vec![
                n.to_string(),
                f.to_string(),
                if paper_variant {
                    "paper f+1"
                } else {
                    "corrected f+2"
                }
                .to_owned(),
                trials.to_string(),
                macro_rounds.to_string(),
                uniform.to_string(),
                contains.to_string(),
                violations.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_runs_clean() {
        let t = table1_predicates(4, 20);
        assert_eq!(t.len(), 3);
        let r = t.render();
        // No safety violations, ever (last column of each data row).
        for line in r.lines().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            if !cells.is_empty() {
                assert_eq!(*cells.last().unwrap(), "0", "violations in: {line}");
            }
        }
    }

    #[test]
    fn sweep_alg2_achieves_within_bound() {
        let params = BoundParams::new(4, 1.0, 2.0);
        let s = sweep_alg2(params, 2, true, 3);
        assert_eq!(s.achieved, 3);
        // Tightness can exceed 1 only by the observation slack.
        assert!(s.max_len <= s.bound + params.delta + params.phi + 1.0);
    }

    #[test]
    fn p11otr_route_works() {
        let params = BoundParams::new(4, 1.0, 2.0);
        let good_len = params.corollary4_p11otr_each() + params.delta + params.phi + 1.0;
        let ok = (0..3)
            .filter(|&s| p11otr_two_periods_achieved(params, good_len, s))
            .count();
        assert!(ok >= 2, "two short periods implement P1/1_otr ({ok}/3)");
    }

    #[test]
    fn translation_table_confirms_theorem8() {
        let t = translation_table(20);
        let r = t.render();
        for line in r.lines().skip(3) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            if cells.is_empty() {
                continue;
            }
            // Layout: n f variant(2 words) runs macro uniform ⊇Π0 violations
            let (macro_r, uniform, contains, viol) = (cells[5], cells[6], cells[7], cells[8]);
            assert_eq!(viol, "0", "violations: {line}");
            assert_eq!(macro_r, contains, "kernel containment: {line}");
            if line.contains("corrected") {
                assert_eq!(
                    macro_r, uniform,
                    "corrected variant must be uniform: {line}"
                );
            }
        }
    }
}
