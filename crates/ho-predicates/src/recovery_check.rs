//! Test oracle for crash recovery: the semantics of a stable-storage
//! *image* — a copy of `(rp, sp)` taken at every round boundary and
//! restored on recovery — held by the test instead of by the programs.
//!
//! Replicas of a `MultiSlot<OneThirdRule>` log (so `sp` is a whole
//! replicated-log state, not a single value) run in lock step, every
//! replica receiving every replica's messages. At each round boundary the
//! test clones replica 0's `(rp, sp)`; then, for every step index inside
//! the round, a copy of replica 0 takes that many steps, crashes and
//! recovers, and must (a) hold exactly the cloned `(rp, sp)`, (b) have its
//! volatile state reinitialized, and (c) from there on send the same
//! messages, take the same number of steps and reach the same `(rp, sp)`
//! as the uncrashed replica fed the same messages.

use ho_core::algorithms::OneThirdRule;
use ho_core::process::ProcessId;
use ho_rsm::{FlowControl, MultiSlot, RsmConfig, RsmState, WorkloadSpec};
use ho_sim::program::{Program, StepKind, WireMsg};

pub(crate) const N: usize = 4;

pub(crate) type Log = MultiSlot<OneThirdRule>;
type LogState = RsmState<OneThirdRule>;

pub(crate) fn log() -> Log {
    let mut cfg = RsmConfig::with_depth(4);
    cfg.flow = FlowControl::on();
    MultiSlot::new(
        OneThirdRule::new(N),
        WorkloadSpec::ClosedLoop { clients: 8 },
        cfg,
        7,
    )
}

/// What the oracle needs to see of a program.
pub(crate) struct View<P: Program> {
    pub round: fn(&P) -> u64,
    pub state: fn(&P) -> &LogState,
    /// Whether every volatile field holds its start-of-round value.
    pub volatile_is_reset: fn(&P) -> bool,
    /// The messages a replica is fed in a round, in order, given every
    /// replica's round message for it.
    pub inbox: fn(&[P::Msg]) -> Vec<P::Msg>,
}

/// Everything observable of `(rp, sp)`.
fn image(round: u64, state: &LogState) -> impl PartialEq + std::fmt::Debug {
    (
        round,
        state.applied().to_vec(),
        state.pending_commands(),
        state.workload().generated(),
        format!("{:?} {state:?}", state.stats()),
    )
}

/// One atomic step: a send (recorded in `sent`) or the reception of the
/// next inbox message (λ once the inbox is exhausted).
fn step<P: Program>(
    p: &mut P,
    inbox: &mut impl Iterator<Item = (ProcessId, P::Msg)>,
    sent: &mut Vec<P::Msg>,
) {
    match p.next_step() {
        StepKind::Send(plan) => sent.push(
            plan.broadcast_payload()
                .expect("Algorithms 2 and 3 broadcast")
                .clone(),
        ),
        StepKind::Receive => p.on_receive(inbox.next().map(|(q, m)| (q, WireMsg::Owned(m)))),
    }
}

/// Steps `p` through `inbox` until it leaves round `r`; returns the number
/// of steps taken and the messages sent.
fn finish_round<P: Program>(
    p: &mut P,
    view: &View<P>,
    r: u64,
    inbox: &[(ProcessId, P::Msg)],
) -> (usize, Vec<P::Msg>) {
    let mut feed = inbox.iter().cloned();
    let (mut steps, mut sent) = (0, Vec::new());
    while (view.round)(p) == r {
        step(p, &mut feed, &mut sent);
        steps += 1;
        assert!(steps <= 4 * inbox.len() + 4, "round {r} does not end");
    }
    (steps, sent)
}

pub(crate) fn check<P>(mut replicas: Vec<P>, view: View<P>, rounds: u64)
where
    P: Program + Clone,
    P::Msg: PartialEq,
{
    for r in 1..=rounds {
        assert!(replicas.iter().all(|p| (view.round)(p) == r), "lock step");
        // A round opens with its send step: collect every replica's round
        // message from a copy, so that each replica still has the whole
        // round ahead of it.
        let round_msgs: Vec<P::Msg> = replicas
            .iter()
            .map(|p| {
                let mut sent = Vec::new();
                step(&mut p.clone(), &mut std::iter::empty(), &mut sent);
                sent.pop().expect("a round opens with its send step")
            })
            .collect();
        let inbox: Vec<(ProcessId, P::Msg)> = (view.inbox)(&round_msgs)
            .into_iter()
            .enumerate()
            .map(|(i, m)| (ProcessId::new(i % N), m))
            .collect();

        let boundary = replicas[0].clone();
        let reference = (r, (view.state)(&boundary).clone());
        let (steps, sent) = finish_round(&mut replicas[0], &view, r, &inbox);
        let after = image((view.round)(&replicas[0]), (view.state)(&replicas[0]));

        for k in 0..steps {
            let mut crashed = boundary.clone();
            let mut feed = inbox.iter().cloned();
            for _ in 0..k {
                step(&mut crashed, &mut feed, &mut Vec::new());
            }
            crashed.on_crash();
            crashed.on_recover();
            assert_eq!(
                image((view.round)(&crashed), (view.state)(&crashed)),
                image(reference.0, &reference.1),
                "round {r}, crash after {k} steps: (rp, sp) is not the round-boundary image"
            );
            assert!(
                (view.volatile_is_reset)(&crashed),
                "round {r}, crash after {k} steps: volatile state survived"
            );
            let (steps_again, sent_again) = finish_round(&mut crashed, &view, r, &inbox);
            assert!(
                steps_again == steps && sent_again == sent,
                "round {r}, crash after {k} steps: the recovered replica diverges"
            );
            assert_eq!(
                image((view.round)(&crashed), (view.state)(&crashed)),
                after,
                "round {r}, crash after {k} steps: different (rp, sp) at the next boundary"
            );
        }

        for p in &mut replicas[1..] {
            finish_round(p, &view, r, &inbox);
        }
    }
    assert!(
        (view.state)(&replicas[0]).applied().len() > 8,
        "the log must have grown for sp to be non-trivial"
    );
}
