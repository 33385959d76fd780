//! Lockstep proof that telemetry is observation-only: a run with the
//! flight recorder and metrics registry on is bit-identical to the same
//! run with them off, on both execution layers.
//!
//! The recorder's contract mirrors `RoundObserver`'s: inactive costs one
//! branch, and *active costs no behaviour* — it reads the round state,
//! never steers it. Each grid below runs twice, telemetry off and on,
//! across 50 seeds × the fault-schedule zoo, and every verdict must match
//! after stripping only the fields telemetry *adds* (the digest, the
//! forensic ring, wall-clock time): decisions, rounds, violations,
//! message accounting, predicate windows, log contents — everything the
//! run computes — byte for byte.

use heardof::harness::{
    AdversarySpec, AlgorithmSpec, ImplementationSpec, LinkFaultSpec, RsmSweep, RsmVerdict,
    SimSweep, SimVerdict, Sweep, Verdict, WorkloadSpec,
};

/// The model-layer fault zoo: every adversary shape the harness sweeps,
/// including the ones that *violate* (UniformVoting outside `P_nek`), so
/// the forensic-capture path is exercised under comparison too.
fn model_sweeps() -> Vec<Sweep> {
    vec![
        Sweep::new()
            .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
            .adversaries([
                AdversarySpec::FullDelivery,
                AdversarySpec::RandomLoss { loss: 0.4 },
                AdversarySpec::Partition { blocks: 2 },
                AdversarySpec::CrashRecovery,
                AdversarySpec::KernelOnly { loss: 0.8 },
                AdversarySpec::EventuallyGood {
                    bad_rounds: 6,
                    loss: 0.5,
                },
            ])
            .sizes([4])
            .seeds(0..50)
            .max_rounds(60),
        // The violating cells: agreement breaks, the ring drains into
        // forensic events — and the verdict still matches the off run.
        Sweep::new()
            .algorithms([AlgorithmSpec::UniformVoting])
            .adversaries([
                AdversarySpec::RandomLoss { loss: 0.4 },
                AdversarySpec::Partition { blocks: 2 },
            ])
            .sizes([4])
            .seeds(0..50)
            .max_rounds(60),
    ]
}

/// A model verdict with the telemetry-added fields stripped — the
/// comparison key. Wall clock is the only other nondeterministic field.
fn model_key(mut v: Verdict) -> String {
    v.wall_nanos = 0;
    v.telemetry = None;
    v.forensic_events = None;
    format!("{v:?}")
}

fn sim_key(mut v: SimVerdict) -> String {
    v.wall_nanos = 0;
    v.telemetry = None;
    v.forensic_events = None;
    format!("{v:?}")
}

/// Rsm verdicts carry no wall clock: everything but the telemetry-added
/// fields is compared.
fn rsm_key(mut v: RsmVerdict) -> String {
    v.telemetry = None;
    v.forensic_events = None;
    format!("{v:?}")
}

#[test]
fn model_layer_verdicts_identical_with_recorder_on_50_seeds() {
    for sweep in model_sweeps() {
        let off = sweep.clone().telemetry(false).run();
        let on = sweep.telemetry(true).run();
        assert_eq!(off.scenarios, on.scenarios);
        for (o, t) in off.verdicts.iter().zip(&on.verdicts) {
            assert!(
                o.telemetry.is_none(),
                "{}: off run carries a digest",
                o.id()
            );
            let digest = t.telemetry.expect("telemetry-on verdicts carry a digest");
            assert!(
                digest.events_recorded > 0,
                "{}: the recorder was live",
                t.id()
            );
            if t.violation.is_some() {
                assert!(
                    t.forensic_events.as_ref().is_some_and(|e| !e.is_empty()),
                    "{}: a violating telemetry-on run drains its ring",
                    t.id()
                );
            } else {
                assert!(t.forensic_events.is_none());
            }
            assert_eq!(
                model_key(o.clone()),
                model_key(t.clone()),
                "{}: recorder changed the verdict",
                o.id()
            );
        }
        // The violating grid really violates — the comparison above
        // covered the forensic path, not just clean runs.
        if on.verdicts.iter().any(|v| v.algorithm == "uniform_voting") {
            assert!(on.violations > 0, "UV outside P_nek must violate");
        }
    }
}

#[test]
fn sim_layer_verdicts_identical_with_recorder_on_50_seeds() {
    let sweep = SimSweep::new()
        .implementations([ImplementationSpec::Alg2, ImplementationSpec::Alg3 { f: 1 }])
        .faults([
            LinkFaultSpec::GoodFromStart,
            LinkFaultSpec::LossyThenGood {
                bad_len: 40.0,
                loss: 0.5,
            },
            LinkFaultSpec::CrashyThenGood { bad_len: 40.0 },
            LinkFaultSpec::OmissiveThenGood {
                bad_len: 40.0,
                send: 0.3,
                recv: 0.3,
            },
        ])
        .sizes([4])
        .seeds(0..50)
        .window(2);
    let off = sweep.clone().telemetry(false).run();
    let on = sweep.telemetry(true).run();
    assert_eq!(off.scenarios, on.scenarios);
    assert!(off.scenarios >= 2 * 4 * 50, "the whole zoo ran");
    for (o, t) in off.verdicts.iter().zip(&on.verdicts) {
        assert!(o.telemetry.is_none());
        let digest = t.telemetry.expect("telemetry-on verdicts carry a digest");
        assert!(
            digest.events_recorded > 0,
            "{}: the engine recorded dispatches",
            t.id()
        );
        assert_eq!(
            sim_key(o.clone()),
            sim_key(t.clone()),
            "{}: recorder changed the verdict",
            o.id()
        );
    }
}

#[test]
fn rsm_layer_verdicts_identical_with_recorder_on() {
    // The service layer on top: pipelined log, flow control on and off,
    // lossy delivery. Shorter seed range — each scenario runs a whole
    // service history — but the same byte-for-byte contract.
    let sweep = RsmSweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule])
        .adversaries([
            AdversarySpec::FullDelivery,
            AdversarySpec::RandomLoss { loss: 0.25 },
        ])
        .sizes([4])
        .depths([4])
        .workloads([WorkloadSpec::FixedRate { per_round: 2 }])
        .leases([false, true])
        .seeds(0..10)
        .rounds(120);
    let off = sweep.clone().telemetry(false).run();
    let on = sweep.telemetry(true).run();
    assert_eq!(off.scenarios, on.scenarios);
    for (o, t) in off.verdicts.iter().zip(&on.verdicts) {
        assert!(o.telemetry.is_none());
        assert!(
            t.telemetry.is_some(),
            "{}: telemetry-on rsm verdicts carry a digest",
            t.id()
        );
        assert_eq!(
            rsm_key(o.clone()),
            rsm_key(t.clone()),
            "{}: recorder changed the verdict",
            o.id()
        );
    }
}
