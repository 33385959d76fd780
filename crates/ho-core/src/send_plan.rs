//! The per-round send plan: `S_p^r` evaluated **once** per process.
//!
//! The paper's sending function `S_p^r` maps a destination to an optional
//! message. Evaluating it per destination forces every execution machine to
//! make `n` calls — and `n` message clones — per sender per round, `O(n²)`
//! clones per round even for pure-broadcast algorithms like OneThirdRule
//! whose round message does not depend on the destination at all.
//!
//! [`SendPlan`] is the closed form of `S_p^r`: produced once per process
//! per round, it states *how* the round's messages fan out —
//! [`SendPlan::Broadcast`] (one shared payload for every destination),
//! [`SendPlan::Unicast`] (an explicit destination list, for
//! coordinator-based algorithms like LastVoting) or [`SendPlan::Silent`].
//! Broadcast payloads are reference-counted, so a broadcast round costs one
//! payload allocation per sender (`O(n)` per round) no matter how many
//! destinations hear it; recipients share the payload through their
//! [`Mailbox`](crate::mailbox::Mailbox).
//!
//! [`Outbox`] is a whole round's worth of plans — one per process — with
//! the delivery and accounting loops all four execution machines
//! (round-synchronous executor, translation, Algorithms 2/3, simulator)
//! share.

use std::sync::Arc;

use crate::algorithm::HoAlgorithm;
use crate::mailbox::Mailbox;
use crate::pool::{PayloadPool, PooledPayload};
use crate::process::{ProcessId, ProcessSet};
use crate::round::Round;

/// How one process's round-`r` messages fan out: the closed form of the
/// sending function `S_p^r`.
#[derive(Debug)]
pub enum SendPlan<M> {
    /// The same message to every destination (`send ⟨m⟩ to all`). The
    /// payload is shared — cloning the plan, or delivering it to any number
    /// of destinations, never copies `M` — and generation-stamped: a
    /// recipient that held onto the payload while its slot was recycled
    /// trips a debug assertion instead of reading the wrong round's data.
    Broadcast(PooledPayload<M>),
    /// Distinct messages to an explicit set of destinations (coordinator
    /// rounds, point-to-point phases). Destinations must be distinct.
    Unicast(Vec<(ProcessId, M)>),
    /// No message this round.
    Silent,
}

impl<M> SendPlan<M> {
    /// A broadcast of `message` to all destinations.
    #[must_use]
    pub fn broadcast(message: M) -> Self {
        SendPlan::Broadcast(PooledPayload::new(message))
    }

    /// A unicast plan from explicit `(destination, message)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a destination appears twice: rounds are communication
    /// closed, so `S_p^r` yields at most one message per destination.
    #[must_use]
    pub fn unicast(pairs: Vec<(ProcessId, M)>) -> Self {
        let mut seen = ProcessSet::empty();
        for (q, _) in &pairs {
            assert!(!seen.contains(*q), "duplicate destination {q} in send plan");
            seen.insert(*q);
        }
        SendPlan::Unicast(pairs)
    }

    /// A single message to a single destination.
    #[must_use]
    pub fn to(destination: ProcessId, message: M) -> Self {
        SendPlan::Unicast(vec![(destination, message)])
    }

    /// The empty plan.
    #[must_use]
    pub const fn silent() -> Self {
        SendPlan::Silent
    }

    /// The message this plan sends to destination `q`, if any — the
    /// original per-destination view `S_p^r(s_p)(q)`.
    #[must_use]
    pub fn message_for(&self, q: ProcessId) -> Option<&M> {
        match self {
            SendPlan::Broadcast(m) => Some(m),
            SendPlan::Unicast(pairs) => pairs.iter().find(|(d, _)| *d == q).map(|(_, m)| m),
            SendPlan::Silent => None,
        }
    }

    /// The shared payload of a broadcast plan (`None` for unicast/silent).
    #[must_use]
    pub fn broadcast_payload(&self) -> Option<&M> {
        match self {
            SendPlan::Broadcast(m) => Some(m),
            _ => None,
        }
    }

    /// The shared payload *handle* of a broadcast plan (`None` for
    /// unicast/silent). Cloning the handle is how Algorithms 2 and 3 thread
    /// the payload straight into their wire messages: one refcount bump, no
    /// payload copy.
    #[must_use]
    pub fn broadcast_handle(&self) -> Option<&PooledPayload<M>> {
        match self {
            SendPlan::Broadcast(m) => Some(m),
            _ => None,
        }
    }

    /// Consumes the plan, returning the shared broadcast payload if the
    /// plan is a broadcast. The step machines of Algorithms 2 and 3 thread
    /// this handle straight into their wire messages, so the payload is
    /// allocated exactly once per (process, round).
    #[must_use]
    pub fn into_broadcast_payload(self) -> Option<PooledPayload<M>> {
        match self {
            SendPlan::Broadcast(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this plan sends the same message to everybody.
    #[must_use]
    pub fn is_broadcast(&self) -> bool {
        matches!(self, SendPlan::Broadcast(_))
    }

    /// Whether this plan sends nothing.
    #[must_use]
    pub fn is_silent(&self) -> bool {
        match self {
            SendPlan::Silent => true,
            SendPlan::Unicast(pairs) => pairs.is_empty(),
            SendPlan::Broadcast(_) => false,
        }
    }

    /// How many destinations receive a message under full delivery in a
    /// universe of `n` processes.
    #[must_use]
    pub fn dest_count(&self, n: usize) -> usize {
        match self {
            SendPlan::Broadcast(_) => n,
            SendPlan::Unicast(pairs) => pairs.len(),
            SendPlan::Silent => 0,
        }
    }

    /// How many payload allocations *constructing* this plan cost: `1` for
    /// a broadcast (shared by all destinations thereafter), one per pair
    /// for unicast. Unicast deliveries additionally clone per recipient —
    /// [`Outbox::deliver_into`] reports those — so the full new-scheme cost
    /// is construction + delivery clones. Broadcasts are the quantity the
    /// SendPlan refactor drives from `O(n²)` to `O(n)` per round; unicast
    /// plans gain nothing from sharing (each destination's message is
    /// distinct by definition).
    #[must_use]
    pub fn payload_allocs(&self) -> usize {
        match self {
            SendPlan::Broadcast(_) => 1,
            SendPlan::Unicast(pairs) => pairs.len(),
            SendPlan::Silent => 0,
        }
    }
}

impl<M: Clone> Clone for SendPlan<M> {
    fn clone(&self) -> Self {
        match self {
            // Cloning a broadcast shares the payload.
            SendPlan::Broadcast(m) => SendPlan::Broadcast(m.clone()),
            SendPlan::Unicast(pairs) => SendPlan::Unicast(pairs.clone()),
            SendPlan::Silent => SendPlan::Silent,
        }
    }
}

/// Plans compare structurally by message content (broadcast payloads by
/// value, not by slot identity).
impl<M: PartialEq> PartialEq for SendPlan<M> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (SendPlan::Broadcast(a), SendPlan::Broadcast(b)) => a == b,
            (SendPlan::Unicast(a), SendPlan::Unicast(b)) => a == b,
            (SendPlan::Silent, SendPlan::Silent) => true,
            _ => false,
        }
    }
}

/// Spare buffers retired from a sender's previous plans, kept for reuse by
/// [`PlanSlot`]: the destination vector of a displaced unicast plan.
/// (Displaced broadcast payloads go to the shared [`PayloadPool`] instead —
/// unlike destination vectors, which every sender needs simultaneously in a
/// unicast round, a retired payload slot can serve *any* sender's next
/// broadcast.)
#[derive(Debug)]
pub struct PlanSpares<M> {
    pairs: Vec<(ProcessId, M)>,
}

// Cloning spares clones the (cleared) buffers — only relevant for cloning
// whole step machines that embed their spares, e.g. the simulator programs.
impl<M: Clone> Clone for PlanSpares<M> {
    fn clone(&self) -> Self {
        PlanSpares {
            pairs: self.pairs.clone(),
        }
    }
}

impl<M> Default for PlanSpares<M> {
    fn default() -> Self {
        PlanSpares { pairs: Vec::new() }
    }
}

/// A writable slot for one sender's round-`r` plan, backed by the sender's
/// previous plan, its [`PlanSpares`], and a shared [`PayloadPool`].
///
/// This is the scratch-buffer side of the sending API: instead of returning
/// a freshly allocated [`SendPlan`], an algorithm *writes* its plan through
/// the slot, and the slot recycles the buffers of earlier rounds — a
/// broadcast payload slot from the sender's own previous plan or the shared
/// pool (reusable once every recipient has dropped its reference, whether
/// that takes one round — the executor — or many — the simulator's
/// Algorithms 2/3, whose recipients hold payloads across rounds) and the
/// sender's unicast destination vector. In steady state both broadcast
/// rounds and shape-alternating coordinator rounds cost **zero** heap
/// allocations.
#[derive(Debug)]
pub struct PlanSlot<'a, M> {
    plan: &'a mut SendPlan<M>,
    spares: &'a mut PlanSpares<M>,
    pool: &'a mut PayloadPool<M>,
}

impl<'a, M> PlanSlot<'a, M> {
    /// Builds a slot over a caller-owned plan, spare buffers, and retired-
    /// payload pool.
    #[must_use]
    pub fn new(
        plan: &'a mut SendPlan<M>,
        spares: &'a mut PlanSpares<M>,
        pool: &'a mut PayloadPool<M>,
    ) -> Self {
        PlanSlot { plan, spares, pool }
    }

    /// Replaces the slot's plan, retiring the displaced plan's buffers into
    /// the spares (destination vectors) or the pool (broadcast payloads —
    /// parked even while recipients still share them).
    fn install(&mut self, new: SendPlan<M>) {
        let old = std::mem::replace(self.plan, new);
        match old {
            SendPlan::Broadcast(handle) => self.pool.retire(handle),
            SendPlan::Unicast(mut pairs) => {
                if pairs.capacity() > self.spares.pairs.capacity() {
                    pairs.clear();
                    self.spares.pairs = pairs;
                }
            }
            SendPlan::Silent => {}
        }
    }

    /// Writes a broadcast of `message`, reusing the current plan's or a
    /// pooled broadcast allocation when one is uniquely owned. Returns the
    /// number of payload buffers reused in place (0 or 1).
    pub fn broadcast(&mut self, message: M) -> u64 {
        let mut msg = Some(message);
        if let SendPlan::Broadcast(handle) = &mut *self.plan {
            if handle.try_rewrite(|slot| *slot = msg.take().expect("unwritten")) {
                return 1;
            }
        }
        if let Some(handle) = self
            .pool
            .take_rewrite(|slot| *slot = msg.take().expect("unwritten"))
        {
            self.install(SendPlan::Broadcast(handle));
            return 1;
        }
        self.install(SendPlan::broadcast(msg.take().expect("unwritten")));
        0
    }

    /// Like [`PlanSlot::broadcast`], but lets the caller overwrite a
    /// reusable payload buffer in place instead of building a fresh payload
    /// first: `reuse` runs when a uniquely owned payload from an earlier
    /// round is available (e.g. `Clone::clone_into`, which also reuses the
    /// payload's own heap), `make` builds the payload otherwise. Returns
    /// the number of payload buffers reused in place (0 or 1).
    pub fn broadcast_with(
        &mut self,
        make: impl FnOnce() -> M,
        mut reuse: impl FnOnce(&mut M),
    ) -> u64 {
        if let SendPlan::Broadcast(handle) = &mut *self.plan {
            match handle.rewrite_or_return(reuse) {
                Ok(()) => return 1,
                Err(unspent) => reuse = unspent,
            }
        }
        if let Some(handle) = self.pool.take_rewrite(reuse) {
            self.install(SendPlan::Broadcast(handle));
            return 1;
        }
        self.install(SendPlan::broadcast(make()));
        0
    }

    /// Writes a single-destination plan, reusing the current or spare
    /// destination vector. Returns the number of buffers reused in place.
    pub fn unicast_to(&mut self, destination: ProcessId, message: M) -> u64 {
        if let SendPlan::Unicast(pairs) = &mut *self.plan {
            pairs.clear();
            pairs.push((destination, message));
            return 1;
        }
        let mut pairs = std::mem::take(&mut self.spares.pairs);
        let reused = u64::from(pairs.capacity() > 0);
        pairs.clear();
        pairs.push((destination, message));
        self.install(SendPlan::Unicast(pairs));
        reused
    }

    /// Writes the empty plan. An existing unicast plan is emptied in place
    /// (keeping its buffer warm — [`SendPlan::is_silent`] treats an empty
    /// destination list as silent); a broadcast plan is retired into the
    /// spares.
    pub fn silent(&mut self) {
        match &mut *self.plan {
            SendPlan::Unicast(pairs) => pairs.clear(),
            SendPlan::Broadcast(_) => self.install(SendPlan::Silent),
            SendPlan::Silent => {}
        }
    }

    /// Installs an already-built plan (the non-reusing fallback the default
    /// [`HoAlgorithm::send_into`](crate::algorithm::HoAlgorithm::send_into)
    /// uses).
    pub fn set(&mut self, plan: SendPlan<M>) {
        self.install(plan);
    }
}

/// One round's send plans, one per process, plus delivery accounting.
///
/// This is the kernel every execution machine drives: collect the plans
/// from the pre-round states, then deliver each destination's view under
/// whatever HO assignment the machine's fault model produced.
///
/// An `Outbox` is reusable: [`Outbox::recollect`] overwrites the previous
/// round's plans through [`PlanSlot`]s, recycling their payload buffers
/// instead of allocating fresh ones.
#[derive(Debug)]
pub struct Outbox<M> {
    /// The round's plan table, behind one `Arc` so delivery can attach the
    /// *whole table* to each recipient's mailbox: one refcount bump per
    /// recipient per round, not one per delivered broadcast message.
    plans: Arc<Vec<SendPlan<M>>>,
    spares: Vec<PlanSpares<M>>,
    /// Retired broadcast payload slots, shared across senders (see
    /// [`PayloadPool`]).
    pool: PayloadPool<M>,
    /// Senders whose current plan is a broadcast — delivery to a recipient
    /// intersects this with the HO set instead of matching every plan.
    broadcast_set: ProcessSet,
    /// `dest_index[d]` = senders whose unicast plan addresses `d` — so
    /// delivery probes only the senders that actually hit this recipient.
    dest_index: Vec<ProcessSet>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox {
            plans: Arc::new(Vec::new()),
            spares: Vec::new(),
            pool: PayloadPool::default(),
            broadcast_set: ProcessSet::empty(),
            dest_index: Vec::new(),
        }
    }
}

/// What one [`Outbox::deliver_into`] call cost: the per-recipient deep
/// clones of delivered unicast messages, and how many of those clones were
/// written into payloads recycled from the recipient's previous round
/// (zero allocator traffic for `clone_from`-friendly message types).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Payload constructions: one per delivered unicast message (broadcast
    /// deliveries share the plan's payload and construct nothing).
    pub clones: u64,
    /// Clones that needed no fresh buffer: served from the mailbox's
    /// retired-payload pool, or of a message type that owns no heap.
    pub recycled: u64,
}

impl<M: Clone> Outbox<M> {
    /// An empty, reusable outbox (see [`Outbox::recollect`]).
    #[must_use]
    pub fn new() -> Self {
        Outbox::default()
    }

    /// Evaluates `S_q^r` once per process over the pre-round states into a
    /// freshly allocated outbox.
    #[must_use]
    pub fn collect<A>(alg: &A, r: Round, states: &[A::State]) -> Outbox<A::Message>
    where
        A: HoAlgorithm<Message = M>,
    {
        let mut out = Outbox::default();
        out.recollect(alg, r, states);
        out
    }

    /// Re-evaluates `S_q^r` once per process over the pre-round states,
    /// overwriting this outbox's previous plans in place. Each sender's
    /// plan is written through a [`PlanSlot`], so payload buffers from the
    /// previous round are recycled where the algorithm's
    /// [`send_into`](crate::algorithm::HoAlgorithm::send_into) supports it.
    ///
    /// Returns the number of payload buffers reused in place this round.
    /// For the broadcast `Arc`s to be reusable, the previous round's
    /// mailboxes must have been cleared *before* this call (otherwise their
    /// shared references keep every payload alive).
    pub fn recollect<A>(&mut self, alg: &A, r: Round, states: &[A::State]) -> u64
    where
        A: HoAlgorithm<Message = M>,
    {
        if Arc::get_mut(&mut self.plans).is_none() {
            // A recipient still references the previous round's table (the
            // executor clears its mailboxes first, so this is the cold
            // path); start a fresh one.
            self.plans = Arc::new(Vec::with_capacity(states.len()));
        }
        let plans = Arc::get_mut(&mut self.plans).expect("checked unique above");
        plans.truncate(states.len());
        self.spares.truncate(states.len());
        while plans.len() < states.len() {
            plans.push(SendPlan::Silent);
        }
        while self.spares.len() < states.len() {
            self.spares.push(PlanSpares::default());
        }
        let mut reused = 0;
        for (q, state) in states.iter().enumerate() {
            let mut slot = PlanSlot::new(&mut plans[q], &mut self.spares[q], &mut self.pool);
            reused += alg.send_into(r, ProcessId::new(q), state, &mut slot);
        }
        self.index_plans();
        reused
    }

    /// Rebuilds the per-kind sender sets and the destination index from
    /// the current plans.
    fn index_plans(&mut self) {
        let mut broadcast = ProcessSet::empty();
        self.dest_index.clear();
        self.dest_index
            .resize(self.plans.len(), ProcessSet::empty());
        for (q, plan) in self.plans.iter().enumerate() {
            match plan {
                SendPlan::Broadcast(_) => broadcast.insert(ProcessId::new(q)),
                SendPlan::Unicast(pairs) => {
                    for (d, _) in pairs {
                        // Destinations outside the universe are legal plan
                        // content but undeliverable; ignore them here.
                        if let Some(slot) = self.dest_index.get_mut(d.index()) {
                            slot.insert(ProcessId::new(q));
                        }
                    }
                }
                SendPlan::Silent => {}
            }
        }
        self.broadcast_set = broadcast;
    }

    /// Builds an outbox directly from plans (one per process).
    #[must_use]
    pub fn from_plans(plans: Vec<SendPlan<M>>) -> Self {
        let mut out = Outbox {
            plans: Arc::new(plans),
            spares: Vec::new(),
            pool: PayloadPool::default(),
            broadcast_set: ProcessSet::empty(),
            dest_index: Vec::new(),
        };
        out.index_plans();
        out
    }

    /// Number of senders covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the outbox covers no senders.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// The plan of sender `q`.
    #[must_use]
    pub fn plan(&self, q: ProcessId) -> &SendPlan<M> {
        &self.plans[q.index()]
    }

    /// Delivers into `dest`'s mailbox every message the HO assignment
    /// `allowed` lets through: for each authorised sender `q`, the message
    /// (if any) that `q`'s plan addresses to `dest`. Broadcast payloads are
    /// delivered by reference count, not by deep clone; unicast payloads
    /// are cloned per recipient, into payload buffers the mailbox retired
    /// last round where available.
    ///
    /// Returns the round's [`DeliveryStats`] for this recipient: add
    /// `clones` to [`Outbox::payload_allocs`] for the total construction
    /// count under the plan kernel, `recycled` of which touched no fresh
    /// payload buffer.
    pub fn deliver_into(
        &self,
        dest: ProcessId,
        allowed: ProcessSet,
        mailbox: &mut Mailbox<M>,
    ) -> DeliveryStats {
        let mut stats = DeliveryStats::default();
        // Senders are unique (drawn from a set) and each plan addresses a
        // destination at most once, so the trusted (debug-assert-only)
        // mailbox inserts are sound here. Unicast deliveries only touch
        // the senders whose plan actually addresses *this* recipient.
        let addressed = self
            .dest_index
            .get(dest.index())
            .copied()
            .unwrap_or_else(ProcessSet::empty);
        for q in allowed.intersection(addressed).iter() {
            if let SendPlan::Unicast(pairs) = &self.plans[q.index()] {
                if let Some((_, m)) = pairs.iter().find(|(d, _)| *d == dest) {
                    stats.recycled += u64::from(mailbox.push_trusted_recycled(q, m));
                    stats.clones += 1;
                }
            }
        }
        // Broadcast deliveries are one bitset intersection and one
        // `deliver_table` call attaching the round table — a single
        // refcount bump per recipient, no per-message work at all.
        let broadcasters = allowed.intersection(self.broadcast_set);
        if !broadcasters.is_empty() {
            mailbox.deliver_table(Arc::clone(&self.plans), broadcasters);
        }
        stats
    }

    /// Total payload allocations this round's sending phase cost
    /// (see [`SendPlan::payload_allocs`]).
    #[must_use]
    pub fn payload_allocs(&self) -> u64 {
        self.plans.iter().map(|p| p.payload_allocs() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn broadcast_serves_every_destination() {
        let plan = SendPlan::broadcast(7u64);
        assert!(plan.is_broadcast());
        assert!(!plan.is_silent());
        assert_eq!(plan.message_for(p(0)), Some(&7));
        assert_eq!(plan.message_for(p(5)), Some(&7));
        assert_eq!(plan.broadcast_payload(), Some(&7));
        assert_eq!(plan.dest_count(4), 4);
        assert_eq!(plan.payload_allocs(), 1);
    }

    #[test]
    fn unicast_serves_only_listed_destinations() {
        let plan = SendPlan::unicast(vec![(p(1), 10u64), (p(3), 30)]);
        assert_eq!(plan.message_for(p(1)), Some(&10));
        assert_eq!(plan.message_for(p(3)), Some(&30));
        assert_eq!(plan.message_for(p(0)), None);
        assert_eq!(plan.broadcast_payload(), None);
        assert_eq!(plan.dest_count(4), 2);
        assert_eq!(plan.payload_allocs(), 2);
    }

    #[test]
    fn silent_serves_nobody() {
        let plan: SendPlan<u64> = SendPlan::silent();
        assert!(plan.is_silent());
        assert_eq!(plan.message_for(p(0)), None);
        assert_eq!(plan.dest_count(9), 0);
        assert_eq!(plan.payload_allocs(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate destination")]
    fn duplicate_unicast_destination_rejected() {
        let _ = SendPlan::unicast(vec![(p(1), 1u64), (p(1), 2)]);
    }

    #[test]
    fn cloning_a_broadcast_shares_the_payload() {
        let plan = SendPlan::broadcast(vec![1u64, 2, 3]);
        let copy = plan.clone();
        let (a, b) = match (&plan, &copy) {
            (SendPlan::Broadcast(a), SendPlan::Broadcast(b)) => (a, b),
            _ => unreachable!(),
        };
        assert!(
            crate::pool::PooledPayload::ptr_eq(a, b),
            "clone must not copy the payload"
        );
    }

    #[test]
    fn outbox_delivery_respects_ho_and_destinations() {
        let plans = vec![
            SendPlan::broadcast(vec![100u64]), // p0 broadcasts
            SendPlan::to(p(0), vec![200]),     // p1 unicasts to p0 only
            SendPlan::silent(),                // p2 silent
        ];
        let outbox = Outbox::from_plans(plans);
        assert_eq!(outbox.len(), 3);
        assert_eq!(outbox.payload_allocs(), 2);

        // p0 hears everyone: gets p0's broadcast and p1's unicast. The
        // unicast delivery is the round's only deep clone (cold: the
        // mailbox has no retired payloads yet).
        let mut mb = Mailbox::empty();
        assert_eq!(
            outbox.deliver_into(p(0), ProcessSet::full(3), &mut mb),
            DeliveryStats {
                clones: 1,
                recycled: 0
            }
        );
        assert_eq!(mb.senders(), ProcessSet::from_indices([0, 1]));
        assert_eq!(mb.from(p(1)), Some(&vec![200]));

        // After a clear, the same delivery is served from the retired
        // payload — a construction, but no fresh buffer. (Payloads that
        // own no heap are not retired: they never need a buffer.)
        mb.clear();
        assert_eq!(
            outbox.deliver_into(p(0), ProcessSet::full(3), &mut mb),
            DeliveryStats {
                clones: 1,
                recycled: 1
            }
        );
        assert_eq!(mb.from(p(1)), Some(&vec![200]));

        // p1 hears everyone but only the broadcast addresses it — shared,
        // so zero deep clones.
        let mut mb = Mailbox::empty();
        assert_eq!(
            outbox.deliver_into(p(1), ProcessSet::full(3), &mut mb),
            DeliveryStats::default()
        );
        assert_eq!(mb.senders(), ProcessSet::from_indices([0]));

        // HO restriction masks the broadcast.
        let mut mb = Mailbox::empty();
        assert_eq!(
            outbox.deliver_into(p(1), ProcessSet::from_indices([1, 2]), &mut mb),
            DeliveryStats::default()
        );
        assert!(mb.is_empty());
    }

    #[test]
    fn plan_slot_reuses_unique_broadcast_allocation() {
        let mut plan = SendPlan::broadcast(1u64);
        let payload_ptr = match &plan {
            SendPlan::Broadcast(a) => a.as_ptr(),
            _ => unreachable!(),
        };
        let mut spares = PlanSpares::default();
        let mut pool = PayloadPool::default();
        let mut slot = PlanSlot::new(&mut plan, &mut spares, &mut pool);
        assert_eq!(slot.broadcast(2), 1, "unique payload is rewritten in place");
        match &plan {
            SendPlan::Broadcast(a) => {
                assert_eq!(**a, 2);
                assert_eq!(a.as_ptr(), payload_ptr, "no new allocation");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn plan_slot_allocates_while_payload_is_shared() {
        let mut plan = SendPlan::broadcast(1u64);
        let held = match &plan {
            SendPlan::Broadcast(a) => a.clone(),
            _ => unreachable!(),
        };
        let mut spares = PlanSpares::default();
        let mut pool = PayloadPool::default();
        let mut slot = PlanSlot::new(&mut plan, &mut spares, &mut pool);
        // A recipient still holds the payload: rewriting must not alias it.
        assert_eq!(slot.broadcast(2), 0);
        assert_eq!(*held, 1, "the shared payload is untouched");
        assert_eq!(plan.broadcast_payload(), Some(&2));
        // Once the recipient drops its reference, the retired slot comes
        // back into service via the pool.
        drop(held);
        let mut slot = PlanSlot::new(&mut plan, &mut spares, &mut pool);
        assert_eq!(slot.broadcast(3), 1);
    }

    #[test]
    fn plan_slot_pool_parks_payloads_held_across_rounds() {
        // The simulator shape the generation-stamped pool exists for: the
        // recipient holds the payload for several further rounds. Each
        // displaced handle parks in the pool (PR 3's ArcPool dropped it),
        // and the *first* round after the recipient lets go reuses it.
        let mut plan = SendPlan::broadcast(0u64);
        let held = match &plan {
            SendPlan::Broadcast(a) => a.clone(),
            _ => unreachable!(),
        };
        let held_ptr = held.as_ptr();
        let mut spares = PlanSpares::default();
        let mut pool = PayloadPool::default();
        assert_eq!(
            PlanSlot::new(&mut plan, &mut spares, &mut pool).broadcast(1),
            0,
            "round 1 allocates: round 0's payload is still held"
        );
        assert_eq!(
            PlanSlot::new(&mut plan, &mut spares, &mut pool).broadcast(2),
            1,
            "round 2 rewrites round 1's (unheld) payload in place"
        );
        // The recipient finally drops its reference: the parked slot 0
        // returns to service even though it sat shared in the pool.
        drop(held);
        let mut probe = pool.take_rewrite(|v| *v = 9).expect("slot 0 drained");
        assert_eq!(probe.as_ptr(), held_ptr, "the parked allocation, reused");
        assert!(probe.is_unique());
    }

    #[test]
    fn plan_slot_pool_serves_shape_alternation_across_senders() {
        // The LastVoting rotation shape: sender A broadcasts, then switches
        // to unicast (retiring its payload to the pool); sender B's *first
        // ever* broadcast must reuse A's retired payload, not allocate.
        let mut plan_a = SendPlan::Silent;
        let mut plan_b = SendPlan::Silent;
        let mut spares_a = PlanSpares::default();
        let mut spares_b = PlanSpares::default();
        let mut pool = PayloadPool::default();
        assert_eq!(
            PlanSlot::new(&mut plan_a, &mut spares_a, &mut pool).broadcast(1u64),
            0,
            "the very first broadcast allocates"
        );
        let arc_ptr = match &plan_a {
            SendPlan::Broadcast(a) => a.as_ptr(),
            _ => unreachable!(),
        };
        // A's shape flips to unicast: the payload retires to the pool.
        PlanSlot::new(&mut plan_a, &mut spares_a, &mut pool).unicast_to(p(0), 2);
        assert_eq!(
            PlanSlot::new(&mut plan_b, &mut spares_b, &mut pool).broadcast(3u64),
            1,
            "B's first broadcast reuses A's retired payload"
        );
        match &plan_b {
            SendPlan::Broadcast(a) => {
                assert_eq!(**a, 3);
                assert_eq!(a.as_ptr(), arc_ptr, "same allocation");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn plan_slot_reuses_unicast_pairs_across_silent_rounds() {
        let mut plan: SendPlan<u64> = SendPlan::Silent;
        let mut spares = PlanSpares::default();
        let mut pool = PayloadPool::default();
        let mut slot = PlanSlot::new(&mut plan, &mut spares, &mut pool);
        assert_eq!(slot.unicast_to(p(2), 7), 0, "first round allocates");
        slot.silent();
        assert!(plan.is_silent(), "empty destination list reads as silent");
        let mut slot = PlanSlot::new(&mut plan, &mut spares, &mut pool);
        assert_eq!(slot.unicast_to(p(1), 9), 1, "buffer kept warm");
        assert_eq!(plan.message_for(p(1)), Some(&9));
        assert_eq!(plan.message_for(p(2)), None);
    }

    #[test]
    fn recollect_reuses_payloads_once_mailboxes_clear() {
        struct Bcast;
        impl HoAlgorithm for Bcast {
            type State = u64;
            type Message = u64;
            type Value = u64;
            fn n(&self) -> usize {
                2
            }
            fn init(&self, _p: ProcessId, v: u64) -> u64 {
                v
            }
            fn send(&self, _r: Round, _p: ProcessId, s: &u64) -> SendPlan<u64> {
                SendPlan::broadcast(*s)
            }
            fn send_into(
                &self,
                _r: Round,
                _p: ProcessId,
                s: &u64,
                slot: &mut PlanSlot<'_, u64>,
            ) -> u64 {
                slot.broadcast(*s)
            }
            fn transition(&self, _r: Round, _p: ProcessId, _s: &mut u64, _mb: &Mailbox<u64>) {}
            fn decision(&self, _s: &u64) -> Option<u64> {
                None
            }
        }
        let states = [10u64, 20];
        let mut outbox = Outbox::new();
        assert_eq!(outbox.recollect(&Bcast, Round(1), &states), 0);
        let mut mailboxes: Vec<Mailbox<u64>> = vec![Mailbox::empty(), Mailbox::empty()];
        for (i, mb) in mailboxes.iter_mut().enumerate() {
            outbox.deliver_into(p(i), ProcessSet::full(2), mb);
        }
        // Mailboxes still reference the payloads: no reuse possible.
        assert_eq!(outbox.recollect(&Bcast, Round(2), &states), 0);
        // After clearing the recipients, both Arcs are unique again.
        for mb in &mut mailboxes {
            mb.clear();
        }
        assert_eq!(outbox.recollect(&Bcast, Round(3), &states), 2);
        assert_eq!(outbox.plan(p(0)).broadcast_payload(), Some(&10));
    }

    #[test]
    fn broadcast_delivery_shares_one_payload_across_recipients() {
        let outbox = Outbox::from_plans(vec![SendPlan::broadcast(vec![9u8; 64])]);
        let mut boxes: Vec<Mailbox<Vec<u8>>> = (0..8).map(|_| Mailbox::empty()).collect();
        for (i, mb) in boxes.iter_mut().enumerate() {
            outbox.deliver_into(p(i), ProcessSet::full(1), mb);
        }
        // All eight mailboxes alias the same allocation.
        let firsts: Vec<*const Vec<u8>> = boxes
            .iter()
            .map(|mb| mb.from(p(0)).unwrap() as *const _)
            .collect();
        assert!(firsts.windows(2).all(|w| w[0] == w[1]));
    }
}
