//! The generation-stamped payload pool.
//!
//! Broadcast payloads are reference counted: one allocation fans out to any
//! number of recipients ([`SendPlan`](crate::send_plan::SendPlan)). In the
//! round-synchronous executor, recipients release their references before
//! the next round's plans are collected, so a displaced payload is reusable
//! almost immediately. In the *system-level* simulator this is false:
//! Algorithms 2 and 3 store received payloads until the round they belong
//! to finishes, which may be many wall-clock rounds after the send — the
//! executor's "take it back if it is unique right now" trick (PR 3's
//! `ArcPool`) silently dropped every such payload and allocated fresh.
//!
//! [`PayloadPool`] generalizes that pool to payloads held *across* rounds:
//!
//! * retired handles are **retained even while recipients still share
//!   them** — the pool simply waits until the last recipient lets go;
//! * every slot carries a monotonic **generation**: rewriting a slot (only
//!   possible once its reference count proves no recipient still holds the
//!   old generation — debug-asserted) bumps the generation, and every read
//!   through a [`PooledPayload`] handle debug-asserts that the slot still
//!   carries the generation the handle was issued for. A use-after-recycle
//!   bug is therefore a loud assertion failure, not silent corruption.
//!
//! The pool is deliberately dumb about *which* slot to hand out: it scans
//! its retired list for the first uniquely owned slot. Retired lists are
//! small (bounded by how many payloads are simultaneously alive, itself
//! bounded by payload lifetime in rounds), so the scan is a few refcount
//! loads in practice.

use std::fmt;
use std::sync::Arc;

/// One pooled payload allocation: the value plus the monotonic generation
/// stamp that detects rewrites.
///
/// Slots are only ever mutated through [`PooledPayload::try_rewrite`] /
/// [`PayloadPool::take_unique`], both of which require the `Arc` to be
/// uniquely owned — so a shared slot is immutable and a handle's generation
/// check can never race.
#[derive(Debug)]
pub struct PayloadSlot<M> {
    generation: u64,
    value: M,
}

/// A reference-counted handle to a [`PayloadSlot`], stamped with the
/// generation it was issued for.
///
/// Cloning bumps the reference count (this is how a broadcast fans out to
/// `n` recipients for free); dereferencing debug-asserts the slot still
/// holds this handle's generation.
pub struct PooledPayload<M> {
    slot: Arc<PayloadSlot<M>>,
    generation: u64,
}

impl<M> PooledPayload<M> {
    /// A fresh, pool-less payload (generation 0). This is what
    /// [`SendPlan::broadcast`](crate::send_plan::SendPlan::broadcast) uses
    /// on cold paths; hot paths allocate through a [`PayloadPool`] instead.
    #[must_use]
    pub fn new(value: M) -> Self {
        PooledPayload {
            slot: Arc::new(PayloadSlot {
                generation: 0,
                value,
            }),
            generation: 0,
        }
    }

    /// The generation this handle was issued for.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether two handles share the same slot allocation.
    #[must_use]
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.slot, &b.slot)
    }

    /// The slot address (for allocation-identity assertions in tests).
    #[must_use]
    pub fn as_ptr(&self) -> *const M {
        &self.slot.value
    }

    /// Whether this handle is the only reference to its slot — i.e. no
    /// recipient still holds the payload and a rewrite would succeed.
    #[must_use]
    pub fn is_unique(&mut self) -> bool {
        Arc::get_mut(&mut self.slot).is_some()
    }

    /// Rewrites the slot in place if this handle is the only reference to
    /// it, bumping the generation; returns whether the rewrite happened.
    /// The uniqueness check is exactly the proof that no recipient still
    /// holds the old generation.
    pub fn try_rewrite(&mut self, write: impl FnOnce(&mut M)) -> bool {
        self.rewrite_or_return(write).is_ok()
    }

    /// [`PooledPayload::try_rewrite`] that hands `write` back unspent when
    /// the slot is shared: one uniqueness probe (a locked compare-exchange)
    /// for a caller with a fallback, not one to ask and one to write.
    pub(crate) fn rewrite_or_return<W: FnOnce(&mut M)>(&mut self, write: W) -> Result<(), W> {
        match Arc::get_mut(&mut self.slot) {
            Some(slot) => {
                debug_assert_eq!(
                    slot.generation, self.generation,
                    "rewriting through a stale handle"
                );
                slot.generation += 1;
                write(&mut slot.value);
                self.generation = slot.generation;
                Ok(())
            }
            None => Err(write),
        }
    }
}

impl<M> std::ops::Deref for PooledPayload<M> {
    type Target = M;

    fn deref(&self) -> &M {
        debug_assert_eq!(
            self.slot.generation, self.generation,
            "pooled payload was rewritten while this handle was live"
        );
        &self.slot.value
    }
}

impl<M> Clone for PooledPayload<M> {
    fn clone(&self) -> Self {
        PooledPayload {
            slot: Arc::clone(&self.slot),
            generation: self.generation,
        }
    }
}

impl<M: fmt::Debug> fmt::Debug for PooledPayload<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Handles compare by payload value (the generation is an implementation
/// detail of the pooling, not of the message).
impl<M: PartialEq> PartialEq for PooledPayload<M> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<M: Eq> Eq for PooledPayload<M> {}

/// How many retired handles a [`PayloadPool`] retains by default. Demand is
/// bounded by how many payloads are simultaneously alive — the payload
/// lifetime in rounds for the simulator's programs, one rotation for the
/// executor's shape-alternating coordinators.
const DEFAULT_RETAINED: usize = 32;

/// A pool of retired payload slots, reused once their recipients let go.
///
/// Unlike PR 3's `ArcPool` (which dropped any retired payload that was
/// still shared when probed), retiring a still-shared handle *parks* it:
/// the pool holds its own reference and [`PayloadPool::take_unique`] skips
/// it until the recipients' references drain away. That is what makes the
/// pool work for the simulator, where Algorithms 2 and 3 hold received
/// payloads across rounds.
#[derive(Debug)]
pub struct PayloadPool<M> {
    retired: Vec<PooledPayload<M>>,
    capacity: usize,
}

// Cloning a pool shares its parked slots: both pools see them reusable
// only once every handle — including the sibling pool's — lets go. Only
// relevant for cloning whole step machines that embed a pool.
impl<M> Clone for PayloadPool<M> {
    fn clone(&self) -> Self {
        PayloadPool {
            retired: self.retired.clone(),
            capacity: self.capacity,
        }
    }
}

impl<M> Default for PayloadPool<M> {
    fn default() -> Self {
        PayloadPool {
            retired: Vec::new(),
            capacity: DEFAULT_RETAINED,
        }
    }
}

impl<M> PayloadPool<M> {
    /// An empty pool with the default retention capacity.
    #[must_use]
    pub fn new() -> Self {
        PayloadPool::default()
    }

    /// An empty pool retaining at most `capacity` retired handles.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        PayloadPool {
            retired: Vec::new(),
            capacity,
        }
    }

    /// Number of retired handles currently parked in the pool.
    #[must_use]
    pub fn len(&self) -> usize {
        self.retired.len()
    }

    /// Whether the pool holds no retired handles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.retired.is_empty()
    }

    /// Parks a displaced handle for later reuse. Shared handles are kept —
    /// they become reusable when their recipients drop their references. A
    /// full pool drops the incoming handle (the slot then dies with its
    /// last recipient).
    pub fn retire(&mut self, handle: PooledPayload<M>) {
        if self.retired.len() < self.capacity {
            self.retired.push(handle);
        }
    }

    /// Takes a uniquely owned slot out of the pool, rewrites it in place
    /// (bumping its generation), and returns a handle for the new
    /// generation. Returns `None` — without allocating or dropping
    /// anything — when every parked slot is still shared.
    pub fn take_rewrite(&mut self, write: impl FnOnce(&mut M)) -> Option<PooledPayload<M>> {
        let idx = self
            .retired
            .iter_mut()
            .position(|h| Arc::get_mut(&mut h.slot).is_some())?;
        let mut handle = self.retired.swap_remove(idx);
        let rewritten = handle.try_rewrite(write);
        debug_assert!(rewritten, "slot was unique at the position probe");
        Some(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_handle_reads_back() {
        let h = PooledPayload::new(41u64);
        assert_eq!(*h, 41);
        assert_eq!(h.generation(), 0);
    }

    #[test]
    fn clone_shares_the_slot() {
        let a = PooledPayload::new(vec![1u8, 2, 3]);
        let b = a.clone();
        assert!(PooledPayload::ptr_eq(&a, &b));
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn rewrite_requires_uniqueness_and_bumps_generation() {
        let mut a = PooledPayload::new(1u64);
        let b = a.clone();
        assert!(!a.try_rewrite(|_| unreachable!("b still holds the slot")));
        drop(b);
        assert!(a.try_rewrite(|v| *v = 2));
        assert_eq!(*a, 2);
        assert_eq!(a.generation(), 1);
    }

    #[test]
    fn pool_parks_shared_handles_until_they_drain() {
        let mut pool = PayloadPool::new();
        let a = PooledPayload::new(10u64);
        let held = a.clone();
        pool.retire(a);
        assert_eq!(pool.len(), 1);
        // Still shared: nothing reusable, and the handle is NOT dropped.
        assert!(pool.take_rewrite(|_| ()).is_none());
        assert_eq!(pool.len(), 1, "shared handles are parked, not dropped");
        // The recipient lets go: the slot comes back with a new generation.
        drop(held);
        let b = pool.take_rewrite(|v| *v = 20).expect("slot drained");
        assert_eq!(*b, 20);
        assert_eq!(b.generation(), 1);
        assert!(pool.is_empty());
    }

    #[test]
    fn pool_reuses_the_same_allocation() {
        let mut pool = PayloadPool::new();
        let a = PooledPayload::new(1u64);
        let ptr = a.as_ptr();
        pool.retire(a);
        let b = pool.take_rewrite(|v| *v = 2).unwrap();
        assert_eq!(b.as_ptr(), ptr, "no new allocation");
    }

    #[test]
    fn full_pool_drops_the_incoming_handle() {
        let mut pool = PayloadPool::with_capacity(1);
        pool.retire(PooledPayload::new(1u64));
        pool.retire(PooledPayload::new(2u64));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rewritten while this handle was live")]
    fn stale_handle_read_is_caught() {
        // Forge the failure mode the generation stamp exists to catch: a
        // handle whose slot was rewritten behind its back. (Normal pool use
        // cannot get here — rewrites require uniqueness.)
        let mut a = PooledPayload::new(1u64);
        let stale = PooledPayload {
            slot: Arc::clone(&a.slot),
            generation: a.generation,
        };
        // Drop `stale`'s refcount contribution by leaking a raw copy of the
        // metadata instead: simulate by rewriting after manually restoring
        // uniqueness.
        let forged_gen = stale.generation;
        drop(stale);
        assert!(a.try_rewrite(|v| *v = 2));
        let stale = PooledPayload {
            slot: Arc::clone(&a.slot),
            generation: forged_gen,
        };
        let _ = *stale; // debug-asserts
    }
}
