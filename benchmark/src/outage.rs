//! The rolling-outage schedule of `rsm_recovery`.
//!
//! The repo's own `AdversarySpec::CrashRecovery` takes every replica down
//! once, in the first dozen rounds — useless over thousands of rounds. The
//! benchmark generates its own `CrashRecovery::new(n, &outages)` input: a
//! replica goes dark every 150–250 rounds, round-robin over all replicas
//! (leaseholders included), for 10–60 rounds, for the whole run except a
//! quiet tail in which the logs can converge.

use ho_core::round::Round;

use crate::stats::SplitMix;

/// Rounds between the end of one outage and the start of the next.
pub const GAP: (u64, u64) = (150, 250);
/// Length of one outage in rounds (the lease timeout is 8, so every outage
/// of a leaseholder forces takeovers; 60 rounds is far past one window).
pub const DARK: (u64, u64) = (10, 60);

/// `(replica, first dark round, last dark round)` per outage — the input
/// of `ho_core::adversary::CrashRecovery::new`.
pub type Outages = Vec<(usize, Round, Round)>;

/// The outage-free tail of a `rounds`-round run: a twentieth of the run,
/// at least [`crate::workloads::rsm::DRAIN_ROUNDS`] × 2.
#[must_use]
pub fn quiet_tail(rounds: u64) -> u64 {
    (rounds / 20).max(2 * crate::workloads::rsm::DRAIN_ROUNDS)
}

/// The seed-deterministic rolling-outage schedule for `n` replicas over
/// `rounds` rounds.
///
/// Guarantees: outages never overlap (at most one replica is dark), they
/// visit replicas round-robin from a seed-chosen start, and none reaches
/// into the last [`quiet_tail`] rounds. Every replica is hit at least once
/// whenever `rounds − quiet_tail(rounds) ≥ n · (GAP.1 + DARK.1)`.
#[must_use]
pub fn rolling_outages(n: usize, rounds: u64, seed: u64) -> Outages {
    let mut rng = SplitMix(seed ^ (n as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let last_allowed = rounds.saturating_sub(quiet_tail(rounds));
    let mut replica = rng.range(0, n as u64 - 1) as usize;
    let mut outages = Vec::new();
    let mut t = 0;
    loop {
        let start = t + rng.range(GAP.0, GAP.1);
        let end = start + rng.range(DARK.0, DARK.1) - 1;
        if end > last_allowed {
            return outages;
        }
        outages.push((replica, Round(start), Round(end)));
        replica = (replica + 1) % n;
        t = end;
    }
}
