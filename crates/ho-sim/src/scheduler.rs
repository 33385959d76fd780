//! The discrete-event engine's event queue: a bucketed calendar queue.
//!
//! The engine dispatches strictly in `(time, seq)` order — time first, FIFO
//! at equal timestamps. `CalendarQueue` implements that contract as a
//! time wheel: a power-of-two ring of buckets, one simulated *day* (a
//! bucket width of time) per bucket, with a far-overflow tier for events
//! beyond the wheel's horizon. Buckets are intrusive linked lists over one
//! shared node arena, so event storage is recycled through a free list and
//! the arena only ever grows to the queue's high-water mark. The day under
//! the cursor is kept apart as one sorted run: its bucket list is walked
//! and sorted **once**, when the cursor arrives, so a pop is a `Vec::pop`
//! and a push onto the cursor day a binary-search insert — neither depends
//! on how many events share the day. Every other push is `O(1)`. Event
//! days are computed **once at push time** in integer arithmetic, so
//! cursor advancement never re-derives a day from floating point.
//!
//! Every pop yields the exact global `(time, seq)` minimum: the unit tests
//! replay randomized and edge-case traces against a binary-heap reference
//! model, and `tests/sim_layer_pins.rs` pins whole runs across the fault
//! zoo.

use std::cmp::Reverse;

use crate::time::TimePoint;

/// Number of buckets on the wheel (one simulated day each). Power of two so
/// the cursor is a mask, sized so the default horizon (`NBUCKETS × width`)
/// comfortably covers step gaps, message delays and crash-recovery spans;
/// anything further lands in the far tier and migrates on wrap.
const NBUCKETS: usize = 128;

/// The bucket width the engine derives from its timing config: half the
/// smallest recurring inter-event gap, so steady-state bucket occupancy
/// stays near one event per process.
#[must_use]
pub(crate) fn wheel_width(phi_minus: f64, delta: f64) -> f64 {
    (phi_minus.min(delta) * 0.5).max(1e-9)
}

/// Arena null index: end of a bucket or free list.
const NIL: u32 = u32::MAX;

/// An arena node: one pending event, on an intrusive singly-linked list
/// (its day's bucket, the far tier, or the free list) or referenced from
/// the cursor day's sorted run.
struct Node<T> {
    /// Integer day index, fixed at push time: `floor(at / width)` clamped
    /// to the cursor. All ordering decisions after the push are integer.
    day: u64,
    at: TimePoint,
    seq: u64,
    next: u32,
    /// `None` once popped and the node sits on the free list.
    item: Option<T>,
}

/// The calendar queue: `NBUCKETS` bucket lists plus a far tier, all
/// intrusive lists over one shared node arena, and the cursor day as one
/// sorted run. The arena and the run grow to the queue's global high-water
/// mark and are then permanently warm — a rare event burst never grows
/// per-bucket storage (there is none), which is what keeps steady-state
/// rounds allocation-free.
///
/// Invariant: bucket lists hold only days *after* the cursor; `today`
/// holds every pending node of the cursor day.
pub(crate) struct CalendarQueue<T> {
    arena: Vec<Node<T>>,
    /// Free-list head: nodes recycled by pops.
    free: u32,
    /// The cursor day's pending events as `(at, seq, node)`, sorted
    /// descending by `(at, seq)`: the global minimum is the last element.
    today: Vec<(TimePoint, u64, u32)>,
    /// Per-bucket list heads, bucket `day & mask`.
    buckets: Vec<u32>,
    /// Far-tier list head: events at or beyond `day + NBUCKETS` days.
    far: u32,
    far_len: usize,
    mask: u64,
    inv_width: f64,
    /// Current day: every pending near event has `node.day >= day`.
    day: u64,
    /// Events currently on the wheel (`today` plus the buckets).
    near: usize,
}

impl<T> CalendarQueue<T> {
    pub(crate) fn new(width: f64, reserve: usize) -> Self {
        CalendarQueue {
            // Steady state holds one step event per process plus in-flight
            // coalesced broadcasts; start with headroom over n.
            arena: Vec::with_capacity(reserve.saturating_mul(4)),
            free: NIL,
            today: Vec::with_capacity(reserve.saturating_mul(4)),
            buckets: vec![NIL; NBUCKETS],
            far: NIL,
            far_len: 0,
            mask: (NBUCKETS - 1) as u64,
            inv_width: width.recip(),
            day: 0,
            near: 0,
        }
    }

    /// Empties the queue for a fresh run with bucket width `width`:
    /// pending events are dropped, every buffer keeps its capacity.
    pub(crate) fn reset(&mut self, width: f64) {
        self.arena.clear();
        self.free = NIL;
        self.today.clear();
        self.buckets.fill(NIL);
        self.far = NIL;
        self.far_len = 0;
        self.inv_width = width.recip();
        self.day = 0;
        self.near = 0;
    }

    pub(crate) fn len(&self) -> usize {
        self.near + self.far_len
    }

    fn alloc(&mut self, day: u64, at: TimePoint, seq: u64, item: T) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let node = &mut self.arena[i as usize];
            self.free = node.next;
            node.day = day;
            node.at = at;
            node.seq = seq;
            node.next = NIL;
            node.item = Some(item);
            i
        } else {
            self.arena.push(Node {
                day,
                at,
                seq,
                next: NIL,
                item: Some(item),
            });
            (self.arena.len() - 1) as u32
        }
    }

    pub(crate) fn push(&mut self, at: TimePoint, seq: u64, item: T) {
        // `as u64` truncates toward zero — floor, for non-negative time.
        // The clamp covers a push whose own day is already behind the
        // cursor — the floating-point edge where an event pushed at the
        // current instant rounds into a passed day, or a push made after a
        // deadline-limited pop parked the cursor on a later day: placing it
        // on the cursor day keeps its true `(at, seq)` key authoritative.
        let day = ((at.get() * self.inv_width) as u64).max(self.day);
        let i = self.alloc(day, at, seq, item);
        if day >= self.day + NBUCKETS as u64 {
            self.arena[i as usize].next = self.far;
            self.far = i;
            self.far_len += 1;
            return;
        }
        self.near += 1;
        if day == self.day {
            let pos = self.today.partition_point(|&(a, s, _)| (a, s) > (at, seq));
            self.today.insert(pos, (at, seq, i));
        } else {
            let bucket = (day & self.mask) as usize;
            self.arena[i as usize].next = self.buckets[bucket];
            self.buckets[bucket] = i;
        }
    }

    /// Pops the global `(at, seq)` minimum if its time is `<= deadline`.
    ///
    /// The last element of `today` *is* the global minimum: a day maps to
    /// exactly one bucket, and every earlier day was exhausted before the
    /// cursor advanced past it.
    pub(crate) fn pop_at_most(&mut self, deadline: TimePoint) -> Option<(TimePoint, T)> {
        while self.today.is_empty() {
            if self.near > 0 {
                self.day += 1;
                if self.day & self.mask == 0 {
                    // A wheel wrap advances the horizon by a full ring:
                    // pull newly-reachable far events onto the wheel.
                    self.migrate();
                }
            } else if self.far_len > 0 {
                // Jump the cursor straight to the earliest far day instead
                // of spinning the wheel through empty years.
                let mut jump = u64::MAX;
                let mut i = self.far;
                while i != NIL {
                    let node = &self.arena[i as usize];
                    jump = jump.min(node.day);
                    i = node.next;
                }
                debug_assert!(jump >= self.day);
                self.day = jump;
                self.migrate();
            } else {
                return None;
            }
            self.open_day();
        }
        let &(at, _, i) = self.today.last().expect("checked non-empty");
        if at > deadline {
            return None;
        }
        self.today.pop();
        let node = &mut self.arena[i as usize];
        let item = node.item.take().expect("pending node holds its event");
        node.next = self.free;
        self.free = i;
        self.near -= 1;
        Some((at, item))
    }

    /// The cursor has arrived on a new day: moves that day's bucket list —
    /// all of it, since the horizon admits one day per bucket — into
    /// `today` and sorts it. `seq` is unique, so the unstable sort is exact.
    fn open_day(&mut self) {
        let bucket = (self.day & self.mask) as usize;
        let mut i = std::mem::replace(&mut self.buckets[bucket], NIL);
        while i != NIL {
            let node = &self.arena[i as usize];
            debug_assert_eq!(node.day, self.day);
            self.today.push((node.at, node.seq, i));
            i = node.next;
        }
        self.today
            .sort_unstable_by_key(|&(at, seq, _)| Reverse((at, seq)));
    }

    /// Relinks far nodes whose day now falls inside the horizon onto the
    /// wheel. Pure pointer surgery within the arena — never allocates.
    fn migrate(&mut self) {
        let horizon = self.day + NBUCKETS as u64;
        let mut prev = NIL;
        let mut i = self.far;
        while i != NIL {
            let (day, next) = {
                let node = &self.arena[i as usize];
                (node.day, node.next)
            };
            if day < horizon {
                if prev == NIL {
                    self.far = next;
                } else {
                    self.arena[prev as usize].next = next;
                }
                let bucket = (day & self.mask) as usize;
                self.arena[i as usize].next = self.buckets[bucket];
                self.buckets[bucket] = i;
                self.far_len -= 1;
                self.near += 1;
            } else {
                prev = i;
            }
            i = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BinaryHeap;

    const FAR: TimePoint = TimePoint::MAX;

    /// The reference model: one global binary heap over `(at, seq)`, whose
    /// pops are the dispatch order by definition.
    #[derive(Default)]
    struct Heap(BinaryHeap<Reverse<(TimePoint, u64, u32)>>);

    impl Heap {
        fn push(&mut self, at: TimePoint, seq: u64, item: u32) {
            self.0.push(Reverse((at, seq, item)));
        }

        fn pop_at_most(&mut self, deadline: TimePoint) -> Option<(TimePoint, u32)> {
            match self.0.peek() {
                Some(&Reverse((at, _, _))) if at <= deadline => {
                    self.0.pop().map(|Reverse((at, _, item))| (at, item))
                }
                _ => None,
            }
        }
    }

    /// The wheel and the reference model fed one trace: every pop — and
    /// the length after it — must agree, so a test only has to choose what
    /// to push and when.
    struct Lockstep {
        heap: Heap,
        wheel: CalendarQueue<u32>,
        seq: u64,
    }

    impl Lockstep {
        fn new() -> Self {
            Lockstep {
                heap: Heap::default(),
                wheel: CalendarQueue::new(0.5, 4),
                seq: 0,
            }
        }

        fn push(&mut self, at: f64) {
            let at = TimePoint::new(at);
            self.heap.push(at, self.seq, self.seq as u32);
            self.wheel.push(at, self.seq, self.seq as u32);
            self.seq += 1;
        }

        fn pop(&mut self, deadline: TimePoint) -> Option<(f64, u32)> {
            let expect = self.heap.pop_at_most(deadline);
            assert_eq!(self.wheel.pop_at_most(deadline), expect);
            assert_eq!(self.wheel.len(), self.heap.0.len());
            expect.map(|(at, item)| (at.get(), item))
        }

        fn drain(&mut self) -> Vec<u32> {
            std::iter::from_fn(|| self.pop(FAR))
                .map(|(_, x)| x)
                .collect()
        }
    }

    #[test]
    fn fifo_at_equal_timestamps() {
        let mut q = Lockstep::new();
        for _ in 0..10 {
            q.push(3.25);
        }
        assert_eq!(q.drain(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_jump_the_cursor() {
        let mut q = Lockstep::new();
        for at in [0.1, 10_000.0, 250.0] {
            q.push(at);
        }
        assert_eq!(q.wheel.len(), 3);
        assert_eq!(q.drain(), vec![0, 2, 1]);
    }

    #[test]
    fn deadline_is_respected_without_losing_events() {
        let mut q = Lockstep::new();
        q.push(1.0);
        q.push(5.0);
        assert_eq!(q.pop(TimePoint::new(2.0)), Some((1.0, 0)));
        assert_eq!(q.pop(TimePoint::new(2.0)), None);
        assert_eq!(q.pop(TimePoint::new(5.0)), Some((5.0, 1)));
    }

    /// The wheel replays a randomized push/pop trace in exactly the heap's
    /// order — interleaved pushes only at the current frontier, as in the
    /// engine (events are only scheduled while dispatching one).
    #[test]
    fn wheel_matches_heap_on_random_traces() {
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = Lockstep::new();
            let push = |q: &mut Lockstep, rng: &mut SmallRng, now: f64| {
                // Mostly near events, occasionally far beyond the horizon,
                // with repeated exact timestamps to exercise FIFO.
                let dt = match rng.gen_range(0u32..10) {
                    0 => 500.0 + rng.gen_range(0.0..100.0),
                    1..=3 => 2.0,
                    _ => rng.gen_range(0.0..8.0),
                };
                q.push(now + dt);
            };
            for _ in 0..50 {
                push(&mut q, &mut rng, 0.0);
            }
            while let Some((now, _)) = q.pop(FAR) {
                // Simulate dispatch-time scheduling at the new frontier.
                if rng.gen_bool(0.6) {
                    push(&mut q, &mut rng, now);
                }
                if q.seq > 600 {
                    break;
                }
            }
        }
    }

    #[test]
    fn pushes_onto_the_half_drained_cursor_day_pop_in_order() {
        let mut q = Lockstep::new();
        // Day 4 (width 0.5) holds items 0..5; item 5 waits on day 20.
        for at in [2.3, 2.05, 2.4, 2.1, 2.2, 10.2] {
            q.push(at);
        }
        assert_eq!(q.pop(FAR), Some((2.05, 1)));
        assert_eq!(q.pop(FAR), Some((2.1, 3)));
        // The frontier is 2.1, mid-day: a tie with the last popped time, a
        // tie with a pending event (FIFO puts it second), one below and one
        // above everything pending.
        for at in [2.1, 2.3, 2.15, 2.45] {
            q.push(at);
        }
        let day4: Vec<u32> = (0..7).map(|_| q.pop(FAR).expect("day 4").1).collect();
        assert_eq!(day4, vec![6, 8, 4, 0, 7, 2, 9]);
        // A deadline short of the next event parks the cursor on day 20
        // with the clock still at 2.45: later pushes for days 11 and 19
        // are clamped onto the cursor day and keep their true keys.
        assert_eq!(q.pop(TimePoint::new(5.0)), None);
        for at in [5.5, 10.2, 9.9, 10.1] {
            q.push(at);
        }
        assert_eq!(q.drain(), vec![10, 12, 13, 5, 11]);
    }

    /// The engine's `run_for` slices: each deadline ends in a `None` that
    /// may fall in the middle of a day, and the next slice resumes there.
    #[test]
    fn deadline_slices_resume_in_the_middle_of_a_day() {
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = Lockstep::new();
            for _ in 0..40 {
                q.push(rng.gen_range(0.0..4.0));
            }
            let mut popped = 0;
            for slice in 1..=10 {
                // Slice ends off the day grid (days end at multiples of 0.5).
                let deadline = TimePoint::new(f64::from(slice) * 3.7);
                while let Some((now, _)) = q.pop(deadline) {
                    popped += 1;
                    for _ in 0..rng.gen_range(0u32..3) {
                        if q.seq < 400 {
                            q.push(now + rng.gen_range(0.0..3.0));
                        }
                    }
                }
            }
            popped += q.drain().len();
            assert_eq!(popped as u64, q.seq, "seed {seed}: every event popped once");
        }
    }

    #[test]
    fn dense_day_with_interleaved_frontier_pushes() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut q = Lockstep::new();
        // 500 events inside one bucket width, on a coarse lattice so exact
        // timestamp ties are common.
        for _ in 0..500 {
            q.push(7.0 + f64::from(rng.gen_range(0u32..64)) / 128.0);
        }
        let mut last = 0.0;
        while let Some((now, _)) = q.pop(FAR) {
            assert!(now >= last, "time never runs backwards");
            last = now;
            if q.seq < 1000 && rng.gen_bool(0.5) {
                q.push(now + f64::from(rng.gen_range(0u32..16)) / 128.0);
            }
        }
        assert!(q.seq >= 700, "pushes were interleaved: {}", q.seq);
    }

    #[test]
    fn far_jump_lands_on_a_day_shared_with_migrated_far_events() {
        let mut q = Lockstep::new();
        // All but item 0 start in the far tier (days 2000, 2020 and 4000
        // against a 128-day horizon). Draining item 0 empties the wheel, so
        // the cursor jumps to day 2000, where three migrated events — two
        // tied — are sorted on arrival.
        for at in [0.1, 1000.3, 1000.1, 2000.0, 1000.3, 1010.0, 1000.2] {
            q.push(at);
        }
        assert_eq!(q.pop(FAR), Some((0.1, 0)));
        assert_eq!(q.pop(FAR), Some((1000.1, 2)));
        // A frontier push onto the landing day, between migrated events.
        q.push(1000.25);
        assert_eq!(q.drain(), vec![6, 7, 1, 4, 5, 3]);
    }

    #[test]
    fn reset_drops_pending_events_and_keeps_order() {
        let mut q = Lockstep::new();
        for seq in 0..32 {
            q.push(f64::from(seq) * 0.3);
        }
        q.wheel.reset(0.5);
        q.heap.0.clear();
        assert_eq!(q.wheel.len(), 0, "reset drops pending events");
        for at in [1.0, 0.5, 1.0] {
            q.push(at);
        }
        assert_eq!(q.drain(), vec![33, 32, 34]);
    }
}
