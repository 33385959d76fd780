//! The stable storage of Algorithms 2 and 3: `rp` and `sp` (§3.3, §4.2.1).
//!
//! The paper keeps `rp` and `sp` *on* stable storage; an in-memory copy is
//! an optimisation it allows (§4.2.1), not a second pair of variables.
//! [`StableImage`] is accordingly the only `(rp, sp)` a program has: it
//! reads and writes the record in place. The record changes only inside
//! [`StableImage::finish_round`], whose last write is the persist point,
//! and a simulator step is atomic — a crash falls between steps, never
//! inside one — so at every crash point the record holds exactly what the
//! process would have persisted. Recovery therefore restores nothing and
//! copies nothing, and no round pays for a copy of the upper state (under
//! `MultiSlot` that is a whole replicated log): a round costs the same
//! however long the run has been.
//! `crate::recovery_check` keeps the copying semantics as a test oracle.

use ho_core::algorithm::{HoAlgorithm, HoAlgorithmExt};
use ho_core::process::{ProcessId, ProcessSet};
use ho_core::round::Round;
use ho_core::Mailbox;

use crate::record::{BoundedLog, RoundRecord};
use crate::send_path::fill_round_mailbox;
use crate::StoredMsgs;

/// The stable-storage record: `rp` and `sp` themselves, not a copy of them
/// (see the module docs). A crash leaves it untouched.
#[derive(Clone, Debug)]
pub(crate) struct StableImage<S> {
    pub(crate) round: u64,
    pub(crate) state: S,
}

impl<S> StableImage<S> {
    /// The end of round `rp`, shared by both algorithms: `sp ← T_p^{rp}(R,
    /// sp)` with `R` the round-`rp` messages among `msgs`, `sp ← T_p^{r′}(∅,
    /// sp)` for the skipped rounds `r′ ∈ [rp+1, next−1]`, then `rp ← next`
    /// — the persist point. Every executed round is logged in `records`.
    pub(crate) fn finish_round<A: HoAlgorithm<State = S>>(
        &mut self,
        alg: &A,
        p: ProcessId,
        next: u64,
        msgs: &StoredMsgs<A>,
        mailbox: &mut Mailbox<A::Message>,
        records: &mut BoundedLog,
    ) {
        let r = self.round;
        debug_assert!(next > r);
        fill_round_mailbox::<A>(mailbox, msgs, r);
        alg.transition(Round(r), p, &mut self.state, mailbox);
        records.push(RoundRecord {
            round: r,
            ho: mailbox.senders(),
        });
        for r_skip in (r + 1)..next {
            alg.apply_empty_rounds(p, &mut self.state, Round(r_skip), Round(r_skip + 1));
            records.push(RoundRecord {
                round: r_skip,
                ho: ProcessSet::empty(),
            });
        }
        self.round = next;
    }
}
