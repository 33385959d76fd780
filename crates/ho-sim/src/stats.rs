//! Run statistics: step, message and fault counters, plus two
//! event-queue diagnostics.
//!
//! Message accounting is shared with the round-synchronous executor: the
//! simulator embeds the same [`MessageStats`] struct the executor reports,
//! so sweep reports aggregate both layers uniformly. The engine fills
//! `messages.delivered`; the payload-construction counters
//! (`payload_allocs` / `payload_reuses`) live with the programs — they own
//! the payload pools — and are merged in by
//! [`Simulator::message_stats`](crate::Simulator::message_stats).

use ho_core::executor::MessageStats;

/// Counters accumulated over a simulation run. Every field is a pure
/// function of the configuration, the schedule and the programs, so two
/// runs of the same setup compare equal field by field.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Send steps executed (each may fan out to `n` transmissions).
    pub send_steps: u64,
    /// Receive steps executed (including receptions of the empty message λ).
    pub receive_steps: u64,
    /// Receive steps that returned the empty message λ.
    pub empty_receives: u64,
    /// Point-to-point transmissions handed to the network.
    pub transmissions: u64,
    /// Transmissions dropped (bad-period loss, π0-down purge, or
    /// destination down).
    pub dropped: u64,
    /// Buffered messages discarded as provably ignorable
    /// ([`Program::discard_buffered`](crate::Program::discard_buffered) —
    /// §4.2.1's space optimisation applied to the reception buffer).
    pub discarded: u64,
    /// Crash events (including forced downs at π0-down period starts).
    pub crashes: u64,
    /// Recovery events.
    pub recoveries: u64,
    /// Broadcast send steps: one pooled wire payload fanned out to `n`
    /// destinations by reference count — one payload construction per
    /// step, not `n`.
    pub broadcast_sends: u64,
    /// Message accounting in the executor's terms. The engine counts
    /// `delivered` (transmissions that reached a buffer); see the module
    /// docs for where the construction counters come from.
    pub messages: MessageStats,
    /// Events dispatched from the queue — the engine's unit of work. A
    /// coalesced broadcast dispatches one event per distinct delay, not one
    /// per destination.
    pub events_dispatched: u64,
    /// High-water mark of pending events in the queue.
    pub peak_queue_depth: u64,
}

impl SimStats {
    /// Total steps taken by all processes.
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        self.send_steps + self.receive_steps
    }

    /// Transmissions that reached a buffer.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.messages.delivered
    }

    /// Fraction of transmissions that were delivered, in `[0, 1]`
    /// (1.0 when nothing was sent).
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.transmissions == 0 {
            1.0
        } else {
            self.delivered() as f64 / self.transmissions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_ratio() {
        let s = SimStats {
            send_steps: 4,
            receive_steps: 10,
            transmissions: 8,
            dropped: 2,
            messages: MessageStats {
                delivered: 6,
                ..MessageStats::default()
            },
            ..SimStats::default()
        };
        assert_eq!(s.total_steps(), 14);
        assert_eq!(s.delivered(), 6);
        assert!((s.delivery_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_run_ratio_is_one() {
        assert_eq!(SimStats::default().delivery_ratio(), 1.0);
    }
}
