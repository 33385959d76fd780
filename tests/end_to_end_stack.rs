//! End-to-end runs of the complete two-layer architecture (Figure 1):
//! OneThirdRule on top, the predicate implementation layer below, the
//! partially synchronous system at the bottom — across alternating good and
//! bad periods, crashes, recoveries and loss.

#[path = "common/pins.rs"]
mod pins;

use heardof::core::algorithms::OneThirdRule;
use heardof::core::process::{ProcessId, ProcessSet};
use heardof::core::translation::Translated;
use heardof::predicates::alg2::Alg2Program;
use heardof::predicates::alg3::Alg3Program;
use heardof::predicates::bounds::BoundParams;
use heardof::predicates::record::SystemTrace;
use heardof::sim::{BadPeriodConfig, GoodKind, Schedule, SimConfig, Simulator, TimePoint};

#[test]
fn alg2_stack_decides_across_alternating_periods() {
    // bad(30) → good(60) cycles; the first sufficiently long good period
    // produces the decision.
    let n = 4;
    let params = BoundParams::new(n, 1.0, 2.0);
    let pi0 = ProcessSet::full(n);
    let schedule = Schedule::alternating(
        BadPeriodConfig::lossy(0.6),
        30.0,
        60.0,
        2,
        pi0,
        GoodKind::PiDown,
    );
    let cfg = SimConfig::normalized(n, 1.0, 2.0).with_seed(8);
    let programs: Vec<Alg2Program<OneThirdRule>> = (0..n)
        .map(|p| {
            Alg2Program::new(
                OneThirdRule::new(n),
                ProcessId::new(p),
                10 + p as u64,
                params.alg2_timeout(),
            )
        })
        .collect();
    let mut sim = Simulator::new(cfg, schedule, programs);
    let decided = sim.run_until(TimePoint::new(500.0), |s| {
        s.programs().iter().all(|p| p.decision().is_some())
    });
    assert!(decided, "alternating schedule still reaches consensus");
    let d: Vec<u64> = sim.programs().iter().filter_map(|p| p.decision()).collect();
    assert!(d.windows(2).all(|w| w[0] == w[1]), "agreement: {d:?}");
    assert!(d[0] >= 10 && d[0] < 10 + n as u64, "integrity: {d:?}");
}

#[test]
fn alg2_stack_survives_crashes_with_stable_storage() {
    let n = 4;
    let params = BoundParams::new(n, 1.0, 2.0);
    let pi0 = ProcessSet::full(n);
    let bad = BadPeriodConfig {
        loss: 0.3,
        crash_prob: 0.08,
        min_down: 2.0,
        max_down: 10.0,
        ..BadPeriodConfig::default()
    };
    let schedule = Schedule::bad_then_good(bad, TimePoint::new(100.0), pi0, GoodKind::PiDown);
    let cfg = SimConfig::normalized(n, 1.0, 2.0).with_seed(21);
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
    let decided = sim.run_until(TimePoint::new(400.0), |s| {
        s.programs().iter().all(|p| p.decision().is_some())
    });
    assert!(decided);
    assert!(
        sim.stats().crashes > 0,
        "the bad period should actually crash someone (seed-dependent)"
    );
    let d: Vec<u64> = sim.programs().iter().filter_map(|p| p.decision()).collect();
    assert!(d.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn alg3_stack_with_corrected_translation_decides() {
    // The full paper stack but with the corrected f+2-round translation:
    // decisions still arrive in a π0-arbitrary good period.
    let n = 5;
    let f = 1;
    let params = BoundParams::new(n, 1.0, 2.0);
    let pi0 = ProcessSet::from_indices(0..n - f);
    let schedule = Schedule::bad_then_good(
        BadPeriodConfig::default(),
        TimePoint::new(50.0),
        pi0,
        GoodKind::PiArbitrary,
    );
    let cfg = SimConfig::normalized(n, 1.0, 2.0).with_seed(5);
    let programs: Vec<Alg3Program<Translated<OneThirdRule>>> = (0..n)
        .map(|p| {
            Alg3Program::new(
                Translated::corrected(OneThirdRule::new(n), f),
                ProcessId::new(p),
                p as u64,
                f,
                params.alg3_timeout(),
            )
        })
        .collect();
    let mut sim = Simulator::new(cfg, schedule, programs);
    let decided = sim.run_until(TimePoint::new(2000.0), |s| {
        pi0.iter().all(|p| s.program(p).decision().is_some())
    });
    assert!(decided, "corrected stack decides");
    let d: Vec<u64> = pi0
        .iter()
        .filter_map(|p| sim.program(p).decision())
        .collect();
    assert!(d.windows(2).all(|w| w[0] == w[1]), "agreement: {d:?}");
}

#[test]
fn system_trace_satisfies_model_level_predicates() {
    // Run the Alg-2 stack in an always-good system and check that the
    // *model-level* P_otr^restr predicate holds on the system-level trace —
    // the two layers meet exactly at the communication predicate.
    use heardof::core::predicate::{PotrRestricted, Predicate};

    let n = 4;
    let params = BoundParams::new(n, 1.0, 2.0);
    let pi0 = ProcessSet::full(n);
    let cfg = SimConfig::normalized(n, 1.0, 2.0).with_seed(2);
    let schedule = Schedule::always_good(pi0, GoodKind::PiDown);
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
    sim.run_until(TimePoint::new(300.0), |s| {
        st.observe(s.programs(), s.now().get());
        s.programs().iter().all(|p| p.decision().is_some())
    });
    st.observe(sim.programs(), sim.now().get());
    let trace = st.to_core_trace();
    assert!(
        PotrRestricted.holds(&trace),
        "the system layer delivered the predicate the HO layer needs"
    );
}

// ---------------------------------------------------------------------
// Golden full-stack pins: the replicated log on top of Algorithms 2 / 3.
//
// The digests below were computed on the commit *before* Algorithms 2/3
// stopped copying `(rp, sp)` into a second stable image every round and
// the translation stopped allocating; they pin that such host-time work
// changes nothing a replica, a client or the network can observe.
// ---------------------------------------------------------------------

mod golden {
    use super::*;
    use heardof::rsm::{FlowControl, MultiSlot, RsmConfig, RsmState, WorkloadSpec};
    use heardof::sim::{Program, SimStats};

    const N: usize = 4;
    const F: usize = 1;
    const HORIZON: f64 = 6000.0;

    /// FNV-1a over 64-bit words.
    struct Digest(u64);

    impl Digest {
        fn new() -> Self {
            Digest(pins::FNV_OFFSET)
        }

        fn word(&mut self, w: u64) {
            self.0 = pins::fold(self.0, w);
        }

        fn words(&mut self, ws: &[u64]) {
            self.word(ws.len() as u64);
            ws.iter().for_each(|&w| self.word(w));
        }

        fn replica(&mut self, round: u64, log: &RsmState<OneThirdRule>) {
            self.word(round);
            self.words(log.applied());
            let s = log.stats();
            self.words(&[
                s.applied_commands,
                s.own_applied_commands,
                s.requeued_commands,
                s.backfill_received,
                s.backfill_adopted,
                s.lease_takeovers,
            ]);
            self.words(&s.latencies);
        }

        fn sim(&mut self, s: &SimStats) {
            self.words(&[
                s.send_steps,
                s.receive_steps,
                s.empty_receives,
                s.transmissions,
                s.dropped,
                s.discarded,
                s.crashes,
                s.recoveries,
                s.broadcast_sends,
                s.messages.payload_allocs,
                s.messages.payload_reuses,
                s.messages.delivered,
                s.events_dispatched,
                s.peak_queue_depth,
            ]);
        }
    }

    fn log(seed: u64) -> MultiSlot<OneThirdRule> {
        let mut cfg = RsmConfig::with_depth(4);
        cfg.flow = FlowControl::on();
        MultiSlot::new(
            OneThirdRule::new(N),
            WorkloadSpec::ClosedLoop { clients: 8 },
            cfg,
            seed,
        )
    }

    /// 40 tu bad, 400 tu good, good for good well before the horizon.
    fn alternating(bad: BadPeriodConfig, pi0: ProcessSet, kind: GoodKind) -> Schedule {
        Schedule::alternating(bad, 40.0, 400.0, 10, pi0, kind)
    }

    /// Runs the cell to the horizon and digests everything observable:
    /// `(round, applied log, counters, latency samples)` per replica, then
    /// the network's statistics.
    fn run<P: Program>(
        cfg: SimConfig,
        schedule: Schedule,
        programs: Vec<P>,
        view: impl Fn(&P) -> (u64, &RsmState<OneThirdRule>),
    ) -> (u64, SimStats) {
        let mut sim = Simulator::new(cfg, schedule, programs);
        sim.run_for(TimePoint::new(HORIZON));
        let mut d = Digest::new();
        let mut longest = 0;
        for p in sim.programs() {
            let (round, log) = view(p);
            longest = longest.max(log.applied().len());
            d.replica(round, log);
        }
        assert!(longest > 100, "the log did real work: {longest} slots");
        d.sim(sim.stats());
        (d.0, sim.stats().clone())
    }

    #[test]
    fn crashy_alg2_log_is_pinned() {
        let params = BoundParams::new(N, 1.0, 2.0);
        let programs: Vec<Alg2Program<MultiSlot<OneThirdRule>>> = (0..N)
            .map(|p| Alg2Program::new(log(31), ProcessId::new(p), 0, params.alg2_timeout()))
            .collect();
        let (digest, stats) = run(
            SimConfig::normalized(N, 1.0, 2.0).with_seed(17),
            alternating(
                BadPeriodConfig::default(),
                ProcessSet::full(N),
                GoodKind::PiDown,
            ),
            programs,
            |p| (p.round(), p.state()),
        );
        assert!(
            stats.crashes > 0 && stats.recoveries > 0,
            "the cell must exercise recovery from stable storage: {stats:?}"
        );
        assert_eq!(digest, ALG2_CRASHY, "{stats:?}");
    }

    #[test]
    fn lossy_alg3_translated_log_is_pinned() {
        let params = BoundParams::new(N, 1.0, 2.0);
        let pi0 = ProcessSet::from_indices(0..N - F);
        let programs: Vec<Alg3Program<Translated<MultiSlot<OneThirdRule>>>> = (0..N)
            .map(|p| {
                Alg3Program::new(
                    Translated::new(log(32), F),
                    ProcessId::new(p),
                    0,
                    F,
                    params.alg3_timeout(),
                )
            })
            .collect();
        let (digest, stats) = run(
            SimConfig::normalized(N, 1.0, 2.0).with_seed(18),
            alternating(BadPeriodConfig::lossy(0.5), pi0, GoodKind::PiArbitrary),
            programs,
            |p| (p.round(), &p.state().inner),
        );
        assert!(stats.dropped > 0, "the cell must lose messages: {stats:?}");
        assert_eq!(digest, ALG3_LOSSY, "{stats:?}");
    }

    const ALG2_CRASHY: u64 = 10_617_749_553_133_428_945;
    const ALG3_LOSSY: u64 = 9_090_913_116_599_366_282;
}
