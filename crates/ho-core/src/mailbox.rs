//! The partial vector of messages received in a round.
//!
//! At the end of round `r`, process `p` makes a state transition according to
//! `T_p^r(μ⃗, s_p)`, where `μ⃗` is the partial vector of messages received by
//! `p` in round `r`. [`Mailbox`] is that vector; its *support* (the set of
//! senders) is the heard-of set `HO(p, r)`.
//!
//! Three representation choices serve the hot paths:
//!
//! * **Shared payloads** — an entry holds either an owned message or a
//!   reference-counted one ([`Mailbox::push_shared`]). Broadcast rounds
//!   deliver one `Arc` per recipient instead of one deep clone per
//!   recipient, which is what makes the [`SendPlan`](crate::send_plan)
//!   kernel `O(n)` in payload allocations per round.
//! * **The round table** — the executor's delivery path attaches *one*
//!   reference-counted table of the whole round's plans per mailbox and
//!   records the broadcast senders as a bitset. A broadcast round then
//!   costs one refcount bump and one bitset store per *recipient* — no
//!   per-message entry at all; reads resolve `table[q]`'s payload on the
//!   fly. The n² per-delivery work was the sweep's single largest cost.
//! * **Sorted sender index** — explicit entries stay in arrival order (the
//!   paper's reception-order semantics), but a side index sorted by sender
//!   makes [`Mailbox::from`] and the duplicate-sender check `O(log n)`
//!   instead of a linear scan, and deliveries in ascending sender order
//!   append without searching at all — one message at a time through any
//!   push, or a whole mailbox in one pass through
//!   [`Mailbox::try_refill`], which is how a relay that demultiplexes one
//!   round's messages into many inner mailboxes (the replicated log)
//!   rebuilds each of them. Predicate evaluation calls `from` millions of
//!   times in the benches.

use std::fmt;
use std::sync::Arc;

use crate::pool::PooledPayload;
use crate::process::{ProcessId, ProcessSet};
use crate::send_plan::SendPlan;

/// The error of [`Mailbox::try_push`]: a message from this sender is
/// already present (rounds are communication closed, so a process hears of
/// each peer at most once per round).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DuplicateSender(pub ProcessId);

impl fmt::Display for DuplicateSender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "duplicate sender {} in mailbox", self.0)
    }
}

impl std::error::Error for DuplicateSender {}

/// An explicitly stored message payload: owned (unicast and test
/// construction), shared (broadcast delivery through
/// [`Mailbox::push_shared`]), or a generation-stamped pool handle
/// ([`Mailbox::push_pooled`] — how the simulator's Algorithms 2/3 hand
/// payloads they held across rounds to the transition function without a
/// deep clone). Table-delivered broadcasts store no payload at all — only
/// a bit in the mailbox's `from_table` set.
#[derive(Clone, Debug)]
enum Payload<M> {
    Owned(M),
    Shared(Arc<M>),
    Pooled(PooledPayload<M>),
}

impl<M> Payload<M> {
    fn get(&self) -> &M {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(m) => m,
            Payload::Pooled(m) => m,
        }
    }
}

/// The messages received by one process in one round.
///
/// The mailbox preserves sender identity; `HO(p, r)` is [`Mailbox::senders`].
/// Every accessor that the paper's transition functions need — counting
/// occurrences of a value, finding the smallest received value, quorum tests
/// — is provided here so that algorithm code reads like the pseudo-code.
///
/// Messages arrive either as explicit entries (owned or `Arc`-shared) or
/// through the *round table*: a shared vector of the round's send plans,
/// with the table-delivered senders recorded as a bitset. Iteration order
/// is arrival order for explicit entries; when both representations are
/// populated (the executor's delivery path, which pushes in ascending
/// sender order), iteration merges the two streams by sender id — which
/// *is* arrival order there.
#[derive(Clone)]
pub struct Mailbox<M> {
    /// `(sender, message)` in arrival order (explicit deliveries only).
    entries: Vec<(ProcessId, Payload<M>)>,
    /// Indices into `entries`, sorted by sender id (the lookup index).
    sorted: Vec<u32>,
    /// The round's plan table, shared with every recipient of the round.
    table: Option<Arc<Vec<SendPlan<M>>>>,
    /// Senders whose broadcast was delivered through the table: the
    /// message from `q` is `table[q].broadcast_payload()`.
    from_table: ProcessSet,
    /// Owned payloads retired by [`Mailbox::clear`], kept for
    /// [`Mailbox::push_trusted_recycled`] to `clone_from` into — unicast
    /// delivery's answer to the broadcast path's recycled `Arc`s. Stays
    /// empty for messages without drop glue, which have nothing to reuse.
    spare_payloads: Vec<M>,
}

/// How many retired owned payloads a [`Mailbox`] keeps for reuse: a round
/// delivers at most one message per sender, so one spare per possible
/// sender covers every round shape.
const SPARE_PAYLOADS: usize = crate::process::MAX_PROCESSES;

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Mailbox {
            entries: Vec::new(),
            sorted: Vec::new(),
            table: None,
            from_table: ProcessSet::empty(),
            spare_payloads: Vec::new(),
        }
    }
}

impl<M: fmt::Debug> fmt::Debug for Mailbox<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<M> Mailbox<M> {
    /// An empty mailbox (a round in which `p` heard of nobody; the predicate
    /// `P_otr` explicitly allows such rounds).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// An empty mailbox pre-sized for `n` possible senders — a round
    /// delivers at most one message per sender, so a capacity-`n` mailbox
    /// never grows. The executor allocates its per-process mailboxes this
    /// way: without it, a lossy run re-allocates whenever some round's
    /// delivery count first exceeds every earlier round's.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Mailbox {
            entries: Vec::with_capacity(n),
            sorted: Vec::with_capacity(n),
            table: None,
            from_table: ProcessSet::empty(),
            spare_payloads: Vec::with_capacity(n),
        }
    }

    /// Builds a mailbox from `(sender, message)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the same sender appears twice: rounds are communication
    /// closed, so a process hears of each peer at most once per round.
    #[must_use]
    pub fn from_entries(entries: Vec<(ProcessId, M)>) -> Self {
        let mut mb = Mailbox::empty();
        for (q, m) in entries {
            mb.push(q, m);
        }
        mb
    }

    /// Position of `sender` in the sorted index: `Ok(pos)` if present,
    /// `Err(pos)` with the insertion point otherwise.
    fn index_of(&self, sender: ProcessId) -> Result<usize, usize> {
        self.sorted
            .binary_search_by_key(&sender, |&i| self.entries[i as usize].0)
    }

    /// The message `q` delivered through the round table, if any.
    fn table_message(&self, q: ProcessId) -> Option<&M> {
        if !self.from_table.contains(q) {
            return None;
        }
        Some(
            self.table
                .as_ref()
                .expect("table senders recorded without an attached table")[q.index()]
            .broadcast_payload()
            .expect("table sender must reference a broadcast plan"),
        )
    }

    /// Where a message from `sender` goes in the sorted index: `Ok(pos)`
    /// if no explicit entry from `sender` exists, `Err(pos)` with the
    /// existing entry's position otherwise. Deliveries arrive in ascending
    /// sender order on every hot path, so the overwhelmingly common case is
    /// a sender past the current maximum — which appends, with no binary
    /// search and no index shift. This is the one place that test lives.
    fn vacancy(&self, sender: ProcessId) -> Result<usize, usize> {
        let max_so_far = self.sorted.last().map(|&i| self.entries[i as usize].0);
        if max_so_far.is_none_or(|max| max < sender) {
            return Ok(self.sorted.len());
        }
        match self.index_of(sender) {
            Ok(pos) => Err(pos),
            Err(pos) => Ok(pos),
        }
    }

    fn try_push_payload(
        &mut self,
        sender: ProcessId,
        payload: Payload<M>,
    ) -> Result<(), DuplicateSender> {
        if self.from_table.contains(sender) {
            return Err(DuplicateSender(sender));
        }
        match self.vacancy(sender) {
            Ok(pos) => {
                self.insert_at(pos, sender, payload);
                Ok(())
            }
            Err(_) => Err(DuplicateSender(sender)),
        }
    }

    /// Inserts without the duplicate check — the executor's hot path, where
    /// the `Outbox` delivery loop already guarantees one message per sender
    /// (each sender appears once in the HO set and each plan addresses a
    /// destination at most once). The invariant is still enforced in debug
    /// builds.
    fn push_payload_trusted(&mut self, sender: ProcessId, payload: Payload<M>) {
        debug_assert!(
            !self.from_table.contains(sender),
            "duplicate sender {sender} in mailbox"
        );
        let pos = self.vacancy(sender).unwrap_or_else(|pos| {
            debug_assert!(false, "duplicate sender {sender} in mailbox");
            pos
        });
        self.insert_at(pos, sender, payload);
    }

    fn insert_at(&mut self, pos: usize, sender: ProcessId, payload: Payload<M>) {
        self.entries.push((sender, payload));
        self.sorted.insert(pos, (self.entries.len() - 1) as u32);
    }

    /// Empties the mailbox while retaining the entry and sorted-index
    /// capacity — what lets the executor reuse one mailbox per process
    /// across every round instead of re-allocating `n` mailboxes per round.
    /// Releases the round table so the outbox can recycle its buffers, and
    /// retires owned payloads into the spare pool so the next round's
    /// unicast deliveries can [`Clone::clone_from`] into them instead of
    /// constructing fresh ones — for payloads that own something: a
    /// message without drop glue (`u64`, every OTR/UV round message) has
    /// no heap for `clone_from` to reuse, so retiring it would only grow
    /// the pool.
    pub fn clear(&mut self) {
        if std::mem::needs_drop::<M>() {
            for (_, payload) in self.entries.drain(..) {
                if self.spare_payloads.len() >= SPARE_PAYLOADS {
                    break;
                }
                if let Payload::Owned(m) = payload {
                    self.spare_payloads.push(m);
                }
            }
        }
        self.entries.clear();
        self.sorted.clear();
        self.table = None;
        self.from_table = ProcessSet::empty();
    }

    /// Adds an owned message from `sender`, rejecting duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`DuplicateSender`] if a message from `sender` is already
    /// present.
    pub fn try_push(&mut self, sender: ProcessId, message: M) -> Result<(), DuplicateSender> {
        self.try_push_payload(sender, Payload::Owned(message))
    }

    /// Empties the mailbox ([`Mailbox::clear`]) and refills it with owned
    /// messages, rejecting duplicates: the same mailbox as one
    /// [`Mailbox::try_push`] per item, built in one pass. A relay that
    /// demultiplexes messages it iterates in ascending sender order (the
    /// replicated log, once per live slot per round) pays one comparison
    /// and one append per message: a sender past every sender so far
    /// cannot be a duplicate in a freshly cleared mailbox, so the search is
    /// not skipped but unnecessary. Anything out of order takes the
    /// checked `try_push`.
    ///
    /// # Errors
    ///
    /// Returns [`DuplicateSender`] at the first sender seen twice; the
    /// mailbox then holds the messages before it.
    pub fn try_refill(
        &mut self,
        messages: impl IntoIterator<Item = (ProcessId, M)>,
    ) -> Result<(), DuplicateSender> {
        self.clear();
        let mut max_so_far: Option<ProcessId> = None;
        for (sender, message) in messages {
            if max_so_far.is_none_or(|max| max < sender) {
                max_so_far = Some(sender);
                // Room first, entry second. A value that is live across
                // `push`'s call into the allocator is kept in memory for
                // the unwind path: the entry was assembled on the stack
                // from narrow stores and copied out with wide loads — a
                // store-forwarding stall per message, 18 % of the
                // replicated log's run. With room proved beforehand
                // (`reserve` guarantees it, the assertion says so to the
                // compiler) `push` cannot grow and stores the fields
                // straight into place.
                if self.entries.len() == self.entries.capacity() {
                    self.entries.reserve(1);
                }
                assert!(self.entries.len() < self.entries.capacity());
                self.entries.push((sender, Payload::Owned(message)));
                self.sorted.push((self.entries.len() - 1) as u32);
            } else {
                self.try_push(sender, message)?;
            }
        }
        Ok(())
    }

    /// Adds a shared message from `sender`, rejecting duplicates
    /// (see [`Mailbox::push_shared`]).
    ///
    /// # Errors
    ///
    /// Returns [`DuplicateSender`] if a message from `sender` is already
    /// present.
    pub fn try_push_shared(
        &mut self,
        sender: ProcessId,
        message: Arc<M>,
    ) -> Result<(), DuplicateSender> {
        self.try_push_payload(sender, Payload::Shared(message))
    }

    /// Adds an owned message from `sender`.
    ///
    /// This is the pseudo-code-fidelity entry point: like the paper's
    /// communication-closed rounds, it treats a duplicate sender as an
    /// impossibility and panics. Fallible callers use [`Mailbox::try_push`].
    ///
    /// # Panics
    ///
    /// Panics if a message from `sender` is already present.
    pub fn push(&mut self, sender: ProcessId, message: M) {
        if let Err(e) = self.try_push(sender, message) {
            panic!("{e}");
        }
    }

    /// Adds a shared message from `sender` — how broadcast plans deliver:
    /// every recipient's mailbox holds the same reference-counted payload,
    /// so a broadcast costs one allocation regardless of fan-out.
    ///
    /// # Panics
    ///
    /// Panics if a message from `sender` is already present.
    pub fn push_shared(&mut self, sender: ProcessId, message: Arc<M>) {
        if let Err(e) = self.try_push_shared(sender, message) {
            panic!("{e}");
        }
    }

    /// Adds a pool-handle message from `sender` — the simulator's delivery
    /// path: the recipient keeps the generation-stamped handle it received,
    /// so every later read (including this mailbox's) is checked against
    /// slot recycling.
    ///
    /// # Panics
    ///
    /// Panics if a message from `sender` is already present.
    pub fn push_pooled(&mut self, sender: ProcessId, message: PooledPayload<M>) {
        if let Err(e) = self.try_push_payload(sender, Payload::Pooled(message)) {
            panic!("{e}");
        }
    }

    /// Hot-path owned insert: duplicate senders are a caller bug, checked
    /// only by a debug assertion (see [`Outbox`](crate::send_plan::Outbox)).
    #[cfg(test)]
    pub(crate) fn push_trusted(&mut self, sender: ProcessId, message: M) {
        self.push_payload_trusted(sender, Payload::Owned(message));
    }

    /// Hot-path owned insert that *clones from* `source`, reusing a payload
    /// retired by [`Mailbox::clear`] when one is available: the clone goes
    /// through [`Clone::clone_from`], which reuses the retired payload's
    /// heap for types that implement it (`Vec`, `String`, nested
    /// containers). Returns whether the construction needed no fresh buffer:
    /// a retired payload was reused, or the message type owns no heap at
    /// all (no drop glue — such payloads are never retired, see
    /// [`Mailbox::clear`]). Duplicate senders are a caller bug
    /// (debug-asserted), as in [`Mailbox::push_trusted`].
    pub(crate) fn push_trusted_recycled(&mut self, sender: ProcessId, source: &M) -> bool
    where
        M: Clone,
    {
        match self.spare_payloads.pop() {
            Some(mut payload) => {
                payload.clone_from(source);
                self.push_payload_trusted(sender, Payload::Owned(payload));
                true
            }
            None => {
                self.push_payload_trusted(sender, Payload::Owned(source.clone()));
                !std::mem::needs_drop::<M>()
            }
        }
    }

    /// Binds this mailbox to the round's shared plan table and records
    /// `senders` as delivered through it: the message from each `q` in
    /// `senders` is `table[q].broadcast_payload()`. One refcount bump and
    /// one bitset store per recipient per round — the whole point.
    ///
    /// Callers guarantee that every sender in `senders` has a broadcast
    /// plan in `table` and does not collide with explicit entries (debug
    /// asserted). A mailbox fed from *two different* outboxes cannot share
    /// both tables; the second delivery falls back to per-entry shared
    /// pushes (correct, just not O(1)).
    pub(crate) fn deliver_table(&mut self, table: Arc<Vec<SendPlan<M>>>, senders: ProcessSet) {
        if let Some(bound) = &self.table {
            if !Arc::ptr_eq(bound, &table) {
                // Cold path: a second outbox delivering into the same
                // mailbox within one round. Materialise these broadcasts
                // as ordinary shared entries instead of rebinding (which
                // would resolve the earlier senders against the wrong
                // plans). `push_shared` keeps the duplicate-sender panic.
                for q in senders.iter() {
                    match &table[q.index()] {
                        SendPlan::Broadcast(m) => self.push_pooled(q, m.clone()),
                        _ => unreachable!("table senders must reference broadcast plans"),
                    }
                }
                return;
            }
        }
        debug_assert!(
            senders.iter().all(|q| table[q.index()].is_broadcast()),
            "table senders must reference broadcast plans"
        );
        debug_assert!(
            senders
                .iter()
                .all(|q| self.index_of(q).is_err() && !self.from_table.contains(q)),
            "duplicate sender in mailbox"
        );
        self.table = Some(table);
        self.from_table = self.from_table.union(senders);
    }

    /// The heard-of set: the support of the partial vector.
    #[must_use]
    pub fn senders(&self) -> ProcessSet {
        let explicit: ProcessSet = self.entries.iter().map(|(q, _)| *q).collect();
        explicit.union(self.from_table)
    }

    /// Number of messages received, `|HO(p, r)|`. An entries-only mailbox
    /// (unicast rounds, a relay's inner mailboxes) skips the bitset count,
    /// which without a hardware `POPCNT` is two rounds of bit tricks.
    #[must_use]
    pub fn len(&self) -> usize {
        if self.from_table.is_empty() {
            return self.entries.len();
        }
        self.entries.len() + self.from_table.len()
    }

    /// Whether no message was received.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.from_table.is_empty()
    }

    /// The message received from `q`, if any (bitset probe for
    /// table-delivered broadcasts, binary search over the sorted sender
    /// index otherwise).
    #[must_use]
    pub fn from(&self, q: ProcessId) -> Option<&M> {
        if let Some(m) = self.table_message(q) {
            return Some(m);
        }
        self.index_of(q).ok().map(|pos| {
            let (_, payload) = &self.entries[self.sorted[pos] as usize];
            payload.get()
        })
    }

    /// Iterates over `(sender, message)` pairs in arrival order (explicit
    /// entries and table-delivered broadcasts merged by sender id — which
    /// is arrival order on the executor's delivery path).
    pub fn iter(&self) -> MailboxIter<'_, M> {
        MailboxIter {
            entries: &self.entries,
            entry_pos: 0,
            table: self.table.as_deref().map_or(&[], Vec::as_slice),
            table_left: self.from_table,
        }
    }

    /// Iterates over the received messages only.
    pub fn messages(&self) -> impl Iterator<Item = &M> + Clone {
        self.iter().map(|(_, m)| m)
    }

    /// Maps every message, keeping senders.
    #[must_use]
    pub fn map<N>(&self, mut f: impl FnMut(&M) -> N) -> Mailbox<N> {
        let mut mb = Mailbox::empty();
        for (q, m) in self.iter() {
            // iter() yields each sender exactly once, so trusted is sound.
            mb.push_payload_trusted(q, Payload::Owned(f(m)));
        }
        mb
    }

    /// Keeps only the messages whose *sender* satisfies the filter.
    #[must_use]
    pub fn filter_senders(&self, keep: ProcessSet) -> Mailbox<M>
    where
        M: Clone,
    {
        let mut mb = Mailbox::empty();
        mb.from_table = self.from_table.intersection(keep);
        if !mb.from_table.is_empty() {
            // Only carry the round table when a table-delivered sender
            // actually survives the filter — a stray table reference keeps
            // every payload alive and blocks the outbox's Arc reuse.
            mb.table = self.table.clone();
        }
        for (q, m) in &self.entries {
            if keep.contains(*q) {
                // Senders are unique here because they were unique in `self`.
                mb.push_payload_trusted(*q, m.clone());
            }
        }
        mb
    }
}

/// Iterator over a [`Mailbox`]'s `(sender, message)` pairs: explicit
/// entries in arrival order, merged with table-delivered senders in
/// ascending sender order.
pub struct MailboxIter<'m, M> {
    entries: &'m [(ProcessId, Payload<M>)],
    entry_pos: usize,
    /// The round table (empty slice when none attached).
    table: &'m [SendPlan<M>],
    table_left: ProcessSet,
}

// Manual impl: deriving would wrongly require `M: Clone` for what is a
// shared-reference cursor.
impl<M> Clone for MailboxIter<'_, M> {
    fn clone(&self) -> Self {
        MailboxIter {
            entries: self.entries,
            entry_pos: self.entry_pos,
            table: self.table,
            table_left: self.table_left,
        }
    }
}

impl<'m, M> MailboxIter<'m, M> {
    #[inline]
    fn take_table(&mut self, t: ProcessId) -> (ProcessId, &'m M) {
        // `t` is always the minimum of `table_left` here.
        self.table_left.drop_min();
        let m = self.table[t.index()]
            .broadcast_payload()
            .expect("table sender must reference a broadcast plan");
        (t, m)
    }
}

impl<'m, M> Iterator for MailboxIter<'m, M> {
    type Item = (ProcessId, &'m M);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        // The two single-stream cases are the hot paths: broadcast rounds
        // are table-only, manual/unicast mailboxes are entries-only. The
        // genuine merge only runs for mixed broadcast+unicast rounds.
        if self.table_left.is_empty() {
            let (q, m) = self.entries.get(self.entry_pos)?;
            self.entry_pos += 1;
            return Some((*q, m.get()));
        }
        match self.entries.get(self.entry_pos) {
            None => {
                let t = self.table_left.min().expect("non-empty");
                Some(self.take_table(t))
            }
            Some((q, m)) => {
                let t = self.table_left.min().expect("non-empty");
                if *q < t {
                    self.entry_pos += 1;
                    Some((*q, m.get()))
                } else {
                    Some(self.take_table(t))
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.entries.len() - self.entry_pos + self.table_left.len();
        (left, Some(left))
    }
}

impl<M: Ord> Mailbox<M> {
    /// The smallest received message (used by OneThirdRule's
    /// "smallest `x_q` received" rule).
    #[must_use]
    pub fn min_message(&self) -> Option<&M> {
        self.messages().min()
    }
}

impl<M: PartialEq> Mailbox<M> {
    /// Number of received messages equal to `value`.
    #[must_use]
    pub fn count_equal(&self, value: &M) -> usize {
        self.messages().filter(|m| *m == value).count()
    }

    /// Whether strictly more than `threshold` received messages equal
    /// `value` (the paper's "more than 2n/3 values received are equal to x").
    #[must_use]
    pub fn has_quorum_for(&self, value: &M, threshold: usize) -> bool {
        self.count_equal(value) > threshold
    }
}

impl<M: Ord + Clone> Mailbox<M> {
    /// The most frequent received message; ties are broken towards the
    /// smallest message so the result is deterministic.
    ///
    /// Runs a pairwise `O(|HO|²)` count instead of collect-and-sort: the
    /// mailbox holds at most `n` messages and this sits in the transition
    /// functions' hot loop, where avoiding the scratch allocation (and the
    /// sort) wins for every realistic `n`.
    #[must_use]
    pub fn mode(&self) -> Option<M> {
        self.mode_with_count().map(|(m, _)| m)
    }

    /// [`Mailbox::mode`] together with its multiplicity — one pass serves
    /// callers that need both (OneThirdRule's update *and* decision rules).
    #[must_use]
    pub fn mode_with_count(&self) -> Option<(M, usize)> {
        // Resolve every payload once into a stack buffer, then count
        // pairwise over the bare references — the quadratic part must not
        // pay the table-resolution cost per access. The buffer covers
        // every realistic system size; larger mailboxes spill to a sorted
        // heap buffer, `O(|HO| log |HO|)` up to `MAX_PROCESSES` entries.
        const STACK: usize = 16;
        if self.len() <= STACK {
            let mut resolved: [Option<&M>; STACK] = [None; STACK];
            let mut k = 0;
            for m in self.messages() {
                resolved[k] = Some(m);
                k += 1;
            }
            return Self::mode_of(resolved[..k].iter().flatten().copied());
        }
        self.mode_spilled()
    }

    /// The past-the-stack-buffer path of [`Mailbox::mode_with_count`]:
    /// spill the message refs to a `MAX_PROCESSES`-sized stack buffer
    /// (senders are distinct process ids, so a mailbox can never exceed
    /// it), sort, and count runs — still allocation-free, like the whole
    /// round hot loop. The first run of maximal length wins, which is
    /// exactly the pairwise fold's tie-break (ties go to the smallest
    /// message) because sorted order visits values ascending.
    fn mode_spilled(&self) -> Option<(M, usize)> {
        let mut spilled: [Option<&M>; crate::process::MAX_PROCESSES] =
            [None; crate::process::MAX_PROCESSES];
        let mut k = 0;
        for m in self.messages() {
            spilled[k] = Some(m);
            k += 1;
        }
        // Every slot in ..k is Some, and Option's ordering agrees with the
        // payloads' ordering on all-Some slices.
        spilled[..k].sort_unstable();
        let mut best: Option<(&M, usize)> = None;
        let mut i = 0;
        while i < k {
            let run_start = i;
            while i < k && spilled[i] == spilled[run_start] {
                i += 1;
            }
            let count = i - run_start;
            if best.is_none_or(|(_, bc)| count > bc) {
                best = Some((spilled[run_start].expect("filled slot"), count));
            }
        }
        best.map(|(m, c)| (m.clone(), c))
    }

    /// The pairwise mode/count fold over an iterable of message refs.
    fn mode_of<'m, I>(messages: I) -> Option<(M, usize)>
    where
        I: Iterator<Item = &'m M> + Clone,
        M: 'm,
    {
        let mut best: Option<(&M, usize)> = None;
        for m in messages.clone() {
            if let Some((bm, _)) = best {
                // Already counted this value (and a recount cannot beat
                // itself) — the common case once an algorithm converges
                // and every message is equal.
                if m == bm {
                    continue;
                }
            }
            let count = messages.clone().filter(|x| *x == m).count();
            let better = match best {
                None => true,
                Some((bm, bc)) => count > bc || (count == bc && m < bm),
            };
            if better {
                best = Some((m, count));
            }
        }
        best.map(|(m, c)| (m.clone(), c))
    }
}

impl<M> FromIterator<(ProcessId, M)> for Mailbox<M> {
    fn from_iter<I: IntoIterator<Item = (ProcessId, M)>>(iter: I) -> Self {
        Mailbox::from_entries(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// A seeded xorshift64 stream for the randomized tests.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn senders_is_support() {
        let mb: Mailbox<u32> = [(p(0), 7), (p(2), 9)].into_iter().collect();
        assert_eq!(mb.senders(), ProcessSet::from_indices([0, 2]));
        assert_eq!(mb.len(), 2);
    }

    #[test]
    fn from_returns_message() {
        let mb: Mailbox<u32> = [(p(0), 7), (p(2), 9)].into_iter().collect();
        assert_eq!(mb.from(p(2)), Some(&9));
        assert_eq!(mb.from(p(1)), None);
    }

    #[test]
    fn from_finds_out_of_order_senders() {
        // Arrival order is not sender order; the sorted index must still
        // resolve every sender.
        let mb: Mailbox<u32> = [(p(5), 50), (p(1), 10), (p(3), 30), (p(0), 0)]
            .into_iter()
            .collect();
        for (q, v) in [(0, 0), (1, 10), (3, 30), (5, 50)] {
            assert_eq!(mb.from(p(q)), Some(&v));
        }
        assert_eq!(mb.from(p(2)), None);
        assert_eq!(mb.from(p(6)), None);
        // Arrival order preserved for iteration.
        let order: Vec<usize> = mb.iter().map(|(q, _)| q.index()).collect();
        assert_eq!(order, vec![5, 1, 3, 0]);
    }

    #[test]
    #[should_panic(expected = "duplicate sender")]
    fn duplicate_sender_rejected() {
        let _ = Mailbox::from_entries(vec![(p(0), 1u32), (p(0), 2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate sender")]
    fn duplicate_shared_sender_rejected() {
        let mut mb = Mailbox::empty();
        mb.push_shared(p(0), Arc::new(1u32));
        mb.push_shared(p(0), Arc::new(2u32));
    }

    #[test]
    fn shared_and_owned_entries_mix() {
        let mut mb = Mailbox::empty();
        let shared = Arc::new(7u32);
        mb.push_shared(p(1), Arc::clone(&shared));
        mb.push(p(0), 9);
        assert_eq!(mb.from(p(1)), Some(&7));
        assert_eq!(mb.from(p(0)), Some(&9));
        assert_eq!(mb.count_equal(&7), 1);
        // The shared entry aliases the original allocation.
        assert!(std::ptr::eq(mb.from(p(1)).unwrap(), shared.as_ref()));
    }

    #[test]
    fn table_delivery_is_readable_through_every_accessor() {
        // Senders 0 and 2 broadcast via the table; 1 unicasts explicitly.
        let table = Arc::new(vec![
            SendPlan::broadcast(10u32),
            SendPlan::to(p(9), 11),
            SendPlan::broadcast(12),
        ]);
        let mut mb = Mailbox::empty();
        mb.deliver_table(Arc::clone(&table), ProcessSet::from_indices([0, 2]));
        mb.push_trusted(p(1), 11);
        assert_eq!(mb.len(), 3);
        assert!(!mb.is_empty());
        assert_eq!(mb.senders(), ProcessSet::from_indices([0, 1, 2]));
        assert_eq!(mb.from(p(0)), Some(&10));
        assert_eq!(mb.from(p(1)), Some(&11));
        assert_eq!(mb.from(p(2)), Some(&12));
        assert_eq!(mb.from(p(3)), None);
        // Merged iteration is ascending by sender here.
        let pairs: Vec<(usize, u32)> = mb.iter().map(|(q, m)| (q.index(), *m)).collect();
        assert_eq!(pairs, vec![(0, 10), (1, 11), (2, 12)]);
        assert_eq!(mb.min_message(), Some(&10));
        assert_eq!(mb.mode_with_count(), Some((10, 1)));
        assert_eq!(mb.count_equal(&12), 1);
        // The table payload is aliased, not cloned.
        assert!(std::ptr::eq(
            mb.from(p(0)).unwrap(),
            table[0].broadcast_payload().unwrap()
        ));
        // map/filter preserve table-delivered messages.
        assert_eq!(mb.map(|m| m + 1).from(p(2)), Some(&13));
        let kept = mb.filter_senders(ProcessSet::from_indices([1, 2]));
        assert_eq!(kept.senders(), ProcessSet::from_indices([1, 2]));
        assert_eq!(kept.from(p(2)), Some(&12));
        // try_push sees table senders as duplicates.
        let mut mb2 = mb.clone();
        assert_eq!(mb2.try_push(p(0), 99), Err(DuplicateSender(p(0))));
        // clear releases the table.
        mb2.clear();
        assert!(mb2.is_empty());
        assert_eq!(mb2.from(p(0)), None);
    }

    #[test]
    fn second_round_table_falls_back_to_shared_entries() {
        // Delivering from two different outboxes into one mailbox must not
        // rebind the table (the first senders would resolve against the
        // wrong plans); the second delivery materialises shared entries.
        let table_a = Arc::new(vec![SendPlan::broadcast(10u32), SendPlan::Silent]);
        let table_b = Arc::new(vec![SendPlan::Silent, SendPlan::broadcast(21u32)]);
        let mut mb = Mailbox::empty();
        mb.deliver_table(Arc::clone(&table_a), ProcessSet::from_indices([0]));
        mb.deliver_table(Arc::clone(&table_b), ProcessSet::from_indices([1]));
        assert_eq!(mb.from(p(0)), Some(&10), "first table still authoritative");
        assert_eq!(mb.from(p(1)), Some(&21), "second delivery readable");
        assert_eq!(mb.len(), 2);
        assert_eq!(mb.senders(), ProcessSet::from_indices([0, 1]));
        // The fallback aliases table B's payload rather than cloning it.
        assert!(std::ptr::eq(
            mb.from(p(1)).unwrap(),
            table_b[1].broadcast_payload().unwrap()
        ));
    }

    #[test]
    fn filter_senders_drops_unused_round_table() {
        let table = Arc::new(vec![SendPlan::broadcast(5u32)]);
        let mut mb = Mailbox::empty();
        mb.deliver_table(Arc::clone(&table), ProcessSet::from_indices([0]));
        mb.push_trusted(p(1), 6);
        // Filtering away every table sender must not retain the table.
        let kept = mb.filter_senders(ProcessSet::from_indices([1]));
        assert!(kept.table.is_none());
        assert_eq!(kept.from(p(1)), Some(&6));
        // Filtering that keeps a table sender carries it.
        let kept = mb.filter_senders(ProcessSet::from_indices([0]));
        assert!(kept.table.is_some());
        assert_eq!(kept.from(p(0)), Some(&5));
    }

    #[test]
    fn try_push_reports_duplicates_without_panicking() {
        let mut mb = Mailbox::empty();
        assert_eq!(mb.try_push(p(0), 1u32), Ok(()));
        assert_eq!(mb.try_push(p(0), 2), Err(DuplicateSender(p(0))));
        assert_eq!(
            mb.try_push_shared(p(0), Arc::new(3)),
            Err(DuplicateSender(p(0)))
        );
        // The rejected pushes left the mailbox untouched.
        assert_eq!(mb.len(), 1);
        assert_eq!(mb.from(p(0)), Some(&1));
    }

    #[test]
    fn clear_retains_capacity() {
        let mut mb = Mailbox::empty();
        for i in 0..8 {
            mb.push(p(i), i as u32);
        }
        let entries_cap = mb.entries.capacity();
        let sorted_cap = mb.sorted.capacity();
        mb.clear();
        assert!(mb.is_empty());
        assert_eq!(mb.senders(), ProcessSet::empty());
        assert_eq!(mb.entries.capacity(), entries_cap);
        assert_eq!(mb.sorted.capacity(), sorted_cap);
        // Reusable after clearing.
        mb.push(p(3), 99);
        assert_eq!(mb.from(p(3)), Some(&99));
    }

    #[test]
    fn clear_recycles_only_payloads_that_own_something() {
        // A payload without drop glue has no heap for `clone_from` to
        // reuse: retiring it would only grow the spare pool, which nothing
        // on the `push` path ever drains.
        let mut plain: Mailbox<u64> = Mailbox::with_capacity(7);
        let mut owning: Mailbox<Vec<u8>> = Mailbox::with_capacity(7);
        for cycle in 0..1000u64 {
            plain.clear();
            owning.clear();
            for q in 0..7 {
                plain.push(p(q), cycle);
                owning.push(p(q), vec![q as u8; 3]);
            }
        }
        plain.clear();
        owning.clear();
        assert!(plain.spare_payloads.is_empty());
        assert!(!owning.spare_payloads.is_empty());
        assert!(owning.spare_payloads.len() <= SPARE_PAYLOADS);
        assert!(owning.push_trusted_recycled(p(0), &vec![1, 2]));
        // Without a retired payload an owning message takes a fresh buffer;
        // a plain one never needs any.
        assert!(!Mailbox::empty().push_trusted_recycled(p(0), &vec![1u8, 2]));
        assert!(plain.push_trusted_recycled(p(0), &1));
    }

    #[test]
    fn append_test_still_rejects_table_senders() {
        // `try_push` appends without searching when the sender is past
        // every *explicit* sender — which must not let through a sender
        // the round table already delivered, above or below all of them.
        let n = 12;
        let table: Arc<Vec<SendPlan<u64>>> =
            Arc::new((0..n).map(|q| SendPlan::broadcast(q as u64)).collect());
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        for trial in 0..200 {
            let mask = next() as u128 & ((1 << n) - 1);
            let via_table: ProcessSet = (0..n).filter(|q| mask >> q & 1 == 1).map(p).collect();
            let mut mb = Mailbox::empty();
            mb.deliver_table(Arc::clone(&table), via_table);
            // Explicit senders in ascending order: each one appends.
            for q in (0..n).map(p).filter(|&q| !via_table.contains(q)) {
                if next() & 1 == 0 {
                    assert_eq!(mb.try_push(q, 100), Ok(()), "trial {trial}");
                }
            }
            let before: Vec<(ProcessId, u64)> = mb.iter().map(|(q, m)| (q, *m)).collect();
            for q in via_table.iter() {
                assert_eq!(mb.try_push(q, 7), Err(DuplicateSender(q)), "trial {trial}");
                assert_eq!(
                    mb.try_push_shared(q, Arc::new(7)),
                    Err(DuplicateSender(q)),
                    "trial {trial}"
                );
            }
            let after: Vec<(ProcessId, u64)> = mb.iter().map(|(q, m)| (q, *m)).collect();
            assert_eq!(after, before, "trial {trial}: a rejected push left a trace");
            assert_eq!(mb.len(), before.len());
        }
    }

    #[test]
    fn len_counts_entries_table_senders_and_both() {
        // `len` takes a shortcut when nothing came through the round
        // table; all three shapes must still agree with iteration.
        let n = 100;
        let table: Arc<Vec<SendPlan<u64>>> =
            Arc::new((0..n).map(|q| SendPlan::broadcast(q as u64)).collect());
        let mut next = xorshift(0xD1B5_4A32_D192_ED03);
        for trial in 0..100 {
            let via_table: ProcessSet = (0..n).filter(|_| next() & 3 == 0).map(p).collect();
            let explicit: Vec<ProcessId> = (0..n)
                .map(p)
                .filter(|&q| !via_table.contains(q) && next() & 3 == 0)
                .collect();
            for (with_table, with_entries) in [(false, true), (true, false), (true, true)] {
                let mut mb = Mailbox::empty();
                if with_table {
                    mb.deliver_table(Arc::clone(&table), via_table);
                }
                for &q in explicit.iter().filter(|_| with_entries) {
                    mb.push(q, 7);
                }
                assert_eq!(mb.len(), mb.iter().count(), "trial {trial}");
                assert_eq!(mb.len(), mb.senders().len(), "trial {trial}");
                assert_eq!(mb.is_empty(), mb.iter().next().is_none(), "trial {trial}");
            }
        }
    }

    #[test]
    fn count_and_quorum() {
        let mb: Mailbox<u32> = [(p(0), 5), (p(1), 5), (p(2), 8)].into_iter().collect();
        assert_eq!(mb.count_equal(&5), 2);
        assert!(mb.has_quorum_for(&5, 1));
        assert!(!mb.has_quorum_for(&5, 2));
    }

    #[test]
    fn min_message() {
        let mb: Mailbox<u32> = [(p(0), 5), (p(1), 3)].into_iter().collect();
        assert_eq!(mb.min_message(), Some(&3));
        assert_eq!(Mailbox::<u32>::empty().min_message(), None);
    }

    #[test]
    fn mode_breaks_ties_to_smallest() {
        let mb: Mailbox<u32> = [(p(0), 5), (p(1), 3), (p(2), 5), (p(3), 3)]
            .into_iter()
            .collect();
        assert_eq!(mb.mode(), Some(3));
    }

    #[test]
    fn mode_handles_large_mailboxes_past_the_stack_buffer() {
        // 20 senders (> the 16-slot stack buffer): the sort-based spilled
        // path must agree with the buffered one.
        let mb: Mailbox<u32> = (0..20).map(|i| (p(i), (i % 3) as u32)).collect();
        assert_eq!(mb.mode_with_count(), Some((0, 7)));
    }

    #[test]
    fn spilled_mode_breaks_ties_to_smallest() {
        // 24 senders, values 0..=3 six times each: a four-way tie that the
        // sorted run-scan must break towards 0.
        let mb: Mailbox<u32> = (0..24).map(|i| (p(i), (i % 4) as u32)).collect();
        assert_eq!(mb.mode_with_count(), Some((0, 6)));
    }

    /// The reference implementation: count every value, max count, ties to
    /// the smallest value.
    fn naive_mode(values: &[u64]) -> Option<(u64, usize)> {
        let mut best: Option<(u64, usize)> = None;
        for &v in values {
            let count = values.iter().filter(|x| **x == v).count();
            let better = match best {
                None => true,
                Some((bv, bc)) => count > bc || (count == bc && v < bv),
            };
            if better {
                best = Some((v, count));
            }
        }
        best
    }

    #[test]
    fn mode_matches_naive_counter_up_to_max_processes() {
        // Randomized equivalence across both paths (stack-buffered ≤ 16,
        // sorted spill above) for every size the bitset supports.
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        for trial in 0..300 {
            let n = 1 + (next() % crate::process::MAX_PROCESSES as u64) as usize;
            // Small domains force heavy ties; larger ones force singletons.
            let domain = 1 + next() % 9;
            let mb: Mailbox<u64> = (0..n).map(|i| (p(i), next() % domain)).collect();
            let values: Vec<u64> = mb.messages().copied().collect();
            assert_eq!(
                mb.mode_with_count(),
                naive_mode(&values),
                "trial {trial}, n = {n}, domain = {domain}"
            );
        }
        // Pin both boundary sizes explicitly.
        for n in [16, 17, 128] {
            let mb: Mailbox<u64> = (0..n).map(|i| (p(i), next() % 4)).collect();
            let values: Vec<u64> = mb.messages().copied().collect();
            assert_eq!(mb.mode_with_count(), naive_mode(&values), "n = {n}");
        }
    }

    #[test]
    fn filter_senders_restricts() {
        let mb: Mailbox<u32> = [(p(0), 1), (p(1), 2), (p(2), 3)].into_iter().collect();
        let kept = mb.filter_senders(ProcessSet::from_indices([1, 2]));
        assert_eq!(kept.senders(), ProcessSet::from_indices([1, 2]));
        assert_eq!(kept.from(p(0)), None);
        assert_eq!(kept.from(p(2)), Some(&3));
    }

    #[test]
    fn map_preserves_senders() {
        let mb: Mailbox<u32> = [(p(0), 1), (p(1), 2)].into_iter().collect();
        let doubled = mb.map(|m| m * 2);
        assert_eq!(doubled.from(p(1)), Some(&4));
    }
}
