//! Ablations of the predicate-layer design choices.
//!
//! The paper fixes three design decisions without exploring alternatives;
//! these experiments probe each one. Findings:
//!
//! * **Algorithm 2's timeout** `⌈2δ + (n+2)φ⌉` is load-bearing: at 0.5×
//!   the achievement rate of `P_su` collapses (rounds end before the
//!   slowest admissible message arrives); at ≥ 0.9× it is perfect. The
//!   constant is tight-ish, not conservative.
//! * **Algorithm 3's INIT re-announcement** (every step vs once per round)
//!   is a *worst-case* defence: an INIT lost in a bad period could wedge a
//!   round with the once-only variant, but randomized runs merely get
//!   slower — some other `π0` process's progress rescues the wedge via
//!   higher-round ROUND messages.
//! * **Algorithm 3's round-robin reception policy** is likewise a
//!   worst-case defence. With the newest-first tie-break (see
//!   `ho_sim::program::policy`) the simple highest-round-first policy
//!   performs the same in randomized runs, including against 20×-fast
//!   outsiders; what *does* starve progress is an oldest-first tie-break
//!   (see `highest_round_first`).

use ho_core::algorithms::OneThirdRule;
use ho_core::process::{ProcessId, ProcessSet};
use ho_predicates::alg2::Alg2Program;
use ho_predicates::alg3::{Alg3Policy, Alg3Program, InitResend};
use ho_predicates::bounds::BoundParams;
use ho_predicates::record::SystemTrace;
use ho_sim::{BadPeriodConfig, GoodKind, Schedule, SimConfig, Simulator, StepTiming, TimePoint};

use crate::table::{f1, Table};

/// Outcome of one ablation cell: how many seeds achieved the target, and
/// the mean time (after the good-period start) for those that did.
#[derive(Clone, Copy, Debug)]
pub struct AblationCell {
    /// Achieving runs.
    pub achieved: usize,
    /// Total runs.
    pub runs: usize,
    /// Mean achievement time over achieving runs.
    pub mean_time: f64,
}

impl AblationCell {
    fn gather(results: impl Iterator<Item = Option<f64>>) -> Self {
        let all: Vec<Option<f64>> = results.collect();
        let ok: Vec<f64> = all.iter().flatten().copied().collect();
        AblationCell {
            achieved: ok.len(),
            runs: all.len(),
            mean_time: if ok.is_empty() {
                0.0
            } else {
                ok.iter().sum::<f64>() / ok.len() as f64
            },
        }
    }

    fn cells(&self) -> [String; 2] {
        [
            format!("{}/{}", self.achieved, self.runs),
            if self.achieved == 0 {
                "-".to_owned()
            } else {
                f1(self.mean_time)
            },
        ]
    }
}

/// One Algorithm-2 run with a scaled timeout; returns the time (relative to
/// the good-period start) at which `P_su(Π, ·, ·+1)` completed, if it did.
fn alg2_run_with_timeout(params: BoundParams, timeout: u64, seed: u64) -> Option<f64> {
    let n = params.n;
    let pi0 = ProcessSet::full(n);
    let good_start = 40.0;
    let cfg = SimConfig::normalized(n, params.phi, params.delta)
        .with_seed(seed)
        .with_step_timing(StepTiming::Jittered);
    let schedule = Schedule::bad_then_good(
        BadPeriodConfig::lossy(0.5),
        TimePoint::new(good_start),
        pi0,
        GoodKind::PiDown,
    );
    let programs: Vec<Alg2Program<OneThirdRule>> = (0..n)
        .map(|p| Alg2Program::new(OneThirdRule::new(n), ProcessId::new(p), p as u64, timeout))
        .collect();
    let mut sim = Simulator::new(cfg, schedule, programs);
    let mut st = SystemTrace::new(n);
    let mut hit = None;
    let deadline = good_start + params.theorem3(2) * 6.0;
    sim.run_until(TimePoint::new(deadline), |s| {
        st.observe(s.programs(), s.now().get());
        hit = st.find_space_uniform_window(pi0, 2, good_start);
        hit.is_some()
    });
    hit.map(|(_, t)| t - good_start)
}

/// Ablation 1: Algorithm 2's timeout constant.
#[must_use]
pub fn ablation_alg2_timeout(params: BoundParams, seeds: u64) -> Table {
    let mut t = Table::new(
        format!(
            "Ablation — Alg. 2 timeout factor (n={}, φ={}, δ={}; nominal ⌈2δ+(n+2)φ⌉ = {})",
            params.n,
            params.phi,
            params.delta,
            params.alg2_timeout()
        ),
        &[
            "timeout-factor",
            "timeout",
            "P_su(x=2) achieved",
            "mean time",
        ],
    );
    for factor in [0.5, 0.7, 0.9, 1.0, 1.5] {
        let timeout = ((params.alg2_timeout() as f64) * factor).round().max(1.0) as u64;
        let cell =
            AblationCell::gather((0..seeds).map(|s| alg2_run_with_timeout(params, timeout, s)));
        let [ach, time] = cell.cells();
        t.row(vec![format!("{factor:.1}"), timeout.to_string(), ach, time]);
    }
    t
}

/// One Algorithm-3 run with the given knobs; returns the time (relative to
/// the good-period start) at which `P_k(π0, ·, ·+1)` completed.
fn alg3_run(
    params: BoundParams,
    f: usize,
    resend: InitResend,
    policy: Alg3Policy,
    bad: BadPeriodConfig,
    seed: u64,
) -> Option<f64> {
    let n = params.n;
    let pi0 = ProcessSet::from_indices(0..n - f);
    let good_start = 60.0;
    let cfg = SimConfig::normalized(n, params.phi, params.delta).with_seed(seed);
    let schedule =
        Schedule::bad_then_good(bad, TimePoint::new(good_start), pi0, GoodKind::PiArbitrary);
    let programs: Vec<Alg3Program<OneThirdRule>> = (0..n)
        .map(|p| {
            Alg3Program::new(
                OneThirdRule::new(n),
                ProcessId::new(p),
                p as u64,
                f,
                params.alg3_timeout(),
            )
            .with_resend(resend)
            .with_policy(policy)
        })
        .collect();
    let mut sim = Simulator::new(cfg, schedule, programs);
    let mut st = SystemTrace::new(n);
    let mut hit = None;
    let deadline = good_start + params.theorem6(2) * 6.0;
    sim.run_until(TimePoint::new(deadline), |s| {
        st.observe(s.programs(), s.now().get());
        hit = st.find_kernel_window(pi0, 2, good_start);
        hit.is_some()
    });
    hit.map(|(_, t)| t - good_start)
}

/// Ablation 2: INIT re-announcement (every step vs once per round).
#[must_use]
pub fn ablation_init_resend(params: BoundParams, f: usize, seeds: u64) -> Table {
    let mut t = Table::new(
        format!(
            "Ablation — Alg. 3 INIT re-announcement (n={}, f={f}, lossy bad period)",
            params.n
        ),
        &["resend", "P_k(x=2) achieved", "mean time"],
    );
    for (name, resend) in [
        ("every step (paper)", InitResend::EveryStep),
        ("once per round", InitResend::Once),
    ] {
        let bad = BadPeriodConfig::lossy(0.7);
        let cell = AblationCell::gather(
            (0..seeds).map(|s| alg3_run(params, f, resend, Alg3Policy::RoundRobin, bad, s)),
        );
        let [ach, time] = cell.cells();
        t.row(vec![name.to_owned(), ach, time]);
    }
    t
}

/// Ablation 3: reception policy, with arbitrarily fast outsiders.
#[must_use]
pub fn ablation_policy(params: BoundParams, f: usize, seeds: u64) -> Table {
    let mut t = Table::new(
        format!(
            "Ablation — Alg. 3 reception policy (n={}, f={f}, π̄0 up to 20× fast)",
            params.n
        ),
        &["policy", "P_k(x=2) achieved", "mean time"],
    );
    // Fast outsiders with low loss: they stay alive, race ahead in round
    // numbers during the bad period, and flood the good period.
    let bad = BadPeriodConfig {
        loss: 0.2,
        crash_prob: 0.0,
        fast_factor: 20.0,
        slow_factor: 1.0,
        extra_delay_factor: 0.5,
        ..BadPeriodConfig::calm()
    };
    for (name, policy) in [
        ("round-robin (paper)", Alg3Policy::RoundRobin),
        ("highest-first", Alg3Policy::HighestFirst),
    ] {
        let cell = AblationCell::gather(
            (0..seeds).map(|s| alg3_run(params, f, InitResend::EveryStep, policy, bad, s)),
        );
        let [ach, time] = cell.cells();
        t.row(vec![name.to_owned(), ach, time]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_timeout_achieves() {
        let params = BoundParams::new(4, 1.0, 2.0);
        let cell = AblationCell::gather(
            (0..3).map(|s| alg2_run_with_timeout(params, params.alg2_timeout(), s)),
        );
        assert_eq!(cell.achieved, 3, "{cell:?}");
    }

    #[test]
    fn paper_resend_always_achieves() {
        let params = BoundParams::new(4, 1.0, 2.0);
        for seed in 0..3 {
            assert!(
                alg3_run(
                    params,
                    1,
                    InitResend::EveryStep,
                    Alg3Policy::RoundRobin,
                    BadPeriodConfig::lossy(0.7),
                    seed,
                )
                .is_some(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn round_robin_beats_highest_first_under_fast_outsiders() {
        let params = BoundParams::new(4, 1.0, 2.0);
        let bad = BadPeriodConfig {
            loss: 0.2,
            crash_prob: 0.0,
            fast_factor: 20.0,
            slow_factor: 1.0,
            extra_delay_factor: 0.5,
            ..BadPeriodConfig::calm()
        };
        let rr = AblationCell::gather((0..4).map(|s| {
            alg3_run(
                params,
                1,
                InitResend::EveryStep,
                Alg3Policy::RoundRobin,
                bad,
                s,
            )
        }));
        assert_eq!(rr.achieved, 4, "round-robin must always achieve: {rr:?}");
    }
}
