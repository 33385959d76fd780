//! `Mailbox::try_refill` against the definition it abbreviates: clear, then
//! one `try_push` per item.
//!
//! The bulk fill appends without searching whenever a sender is past every
//! sender before it, and the replicated log rebuilds one inner mailbox per
//! live slot per round through it — so the shortcut must be invisible: the
//! same iteration order, lookups, heard-of set, length and mode as the
//! one-by-one build, and a `DuplicateSender` for exactly the same
//! sequences, whatever order the senders come in.

use heardof::core::mailbox::{DuplicateSender, Mailbox};
use heardof::core::process::{ProcessId, ProcessSet};

use proptest::prelude::*;

/// Senders range past the 16-entry stack buffer of `mode_with_count`.
const SENDERS: usize = 24;

/// Everything a transition function can read from a mailbox.
type Observed = (
    Vec<(ProcessId, u64)>,
    Vec<Option<u64>>,
    ProcessSet,
    usize,
    Option<(u64, usize)>,
);

fn observe(mb: &Mailbox<u64>) -> Observed {
    (
        mb.iter().map(|(q, m)| (q, *m)).collect(),
        (0..SENDERS)
            .map(|q| mb.from(ProcessId::new(q)).copied())
            .collect(),
        mb.senders(),
        mb.len(),
        mb.mode_with_count(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bulk_fill_is_one_by_one_try_push(
        drawn in proptest::collection::vec(0usize..SENDERS, 0..=32usize),
        shape in 0u8..4,
    ) {
        let mut senders = drawn;
        match shape {
            // As drawn: shuffled, with repeats.
            0 => {}
            // Strictly ascending — the append-only path.
            1 => {
                senders.sort_unstable();
                senders.dedup();
            }
            // Strictly descending — every item after the first is searched.
            2 => {
                senders.sort_unstable_by(|a, b| b.cmp(a));
                senders.dedup();
            }
            // Ascending with the repeats kept: the duplicate is adjacent.
            _ => senders.sort_unstable(),
        }
        // Few distinct values, so modes tie and the tie-break is exercised.
        let items: Vec<(ProcessId, u64)> = senders
            .iter()
            .enumerate()
            .map(|(i, &q)| (ProcessId::new(q), (i as u64 * 7 + q as u64) % 3))
            .collect();

        let mut one_by_one = Mailbox::empty();
        let pushed: Result<(), DuplicateSender> = items
            .iter()
            .try_for_each(|&(q, m)| one_by_one.try_push(q, m));

        // The bulk side starts dirty: the refill must forget all of it.
        let mut bulk: Mailbox<u64> = (0..SENDERS).map(|q| (ProcessId::new(q), 99)).collect();
        let refilled = bulk.try_refill(items.iter().copied());

        prop_assert_eq!(refilled, pushed, "senders {:?}", senders);
        let mut seen = std::collections::HashSet::new();
        prop_assert_eq!(pushed.is_ok(), senders.iter().all(|q| seen.insert(q)));
        // Equal on success, and equal on rejection too: both stop at the
        // first duplicate holding the messages before it.
        prop_assert_eq!(observe(&bulk), observe(&one_by_one), "senders {:?}", senders);
    }
}
