//! Reconstructing command latency in simulated time.
//!
//! `ho-rsm` stamps commands with *round numbers* (arrival round, apply
//! round). In the full stack a round of replica `p` has no global time: it
//! ends whenever `p`'s Algorithm 2/3 program executes that round's
//! transition. The warm-up pass therefore polls, after every simulator
//! event, how many log rounds each replica has completed, and keeps one
//! [`RoundClock`] per replica: the simulated time at which each of its
//! rounds' transitions ran. A command admitted in round `a` and applied in
//! round `b` at replica `p` then took `clock_p[b] − clock_p[a]` time units
//! — admission and apply both happen inside those transitions.

/// The simulated time at which each log round's transition executed at one
/// replica. Round 0 is construction (`init` draws the first arrivals) at
/// time 0.
#[derive(Clone, Debug)]
pub struct RoundClock {
    times: Vec<f64>,
}

impl Default for RoundClock {
    fn default() -> Self {
        RoundClock { times: vec![0.0] }
    }
}

impl RoundClock {
    /// A clock that has seen construction only.
    #[must_use]
    pub fn new() -> Self {
        RoundClock::default()
    }

    /// Rounds whose transition has executed.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.times.len() as u64 - 1
    }

    /// Notes that the replica has now completed `completed` rounds, at
    /// simulated time `now`. Every round newly completed since the last
    /// call ran at `now` — more than one when the lower layer skipped
    /// rounds and ran their empty transitions back to back. Returns the
    /// first newly completed round, the one whose transition saw the
    /// round's messages: the only one that can decide, apply or admit on
    /// behalf of earlier rounds' traffic.
    pub fn advance(&mut self, completed: u64, now: f64) -> Option<u64> {
        let first_new = self.completed() + 1;
        if completed < first_new {
            return None;
        }
        self.times.resize(completed as usize + 1, now);
        Some(first_new)
    }

    /// The simulated time at which round `round`'s transition executed.
    ///
    /// # Panics
    ///
    /// Panics if the round has not completed.
    #[must_use]
    pub fn time_of(&self, round: u64) -> f64 {
        self.times[round as usize]
    }

    /// Admission → apply latency in time units of a command applied in
    /// round `apply_round` whose latency in rounds (as `ho-rsm` reports it:
    /// apply round − arrival round) was `latency_rounds`.
    #[must_use]
    pub fn latency_tu(&self, apply_round: u64, latency_rounds: u64) -> f64 {
        self.time_of(apply_round) - self.time_of(apply_round - latency_rounds)
    }
}

/// Hands the latency samples a replica logged during one poll interval to
/// the slots it applied in that interval.
///
/// `own_batches` lists, in apply order, `(slot, command count)` for the
/// newly applied slots whose batch this replica proposed; `ho-rsm` pushes
/// one latency sample per own applied command in exactly that order, so
/// the samples split into consecutive runs. Returns `(slot, latency in
/// rounds)` per command, or `None` when the counts disagree (an accounting
/// bug the benchmark must not paper over).
#[must_use]
pub fn pair_samples(own_batches: &[(u64, u64)], new_latencies: &[u64]) -> Option<Vec<(u64, u64)>> {
    let expected: u64 = own_batches.iter().map(|&(_, count)| count).sum();
    if expected != new_latencies.len() as u64 {
        return None;
    }
    let mut samples = new_latencies.iter();
    let mut out = Vec::with_capacity(new_latencies.len());
    for &(slot, count) in own_batches {
        for _ in 0..count {
            out.push((slot, *samples.next().expect("counted above")));
        }
    }
    Some(out)
}
