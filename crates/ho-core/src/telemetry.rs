//! Flight recorder + metrics: zero-alloc tracing for both execution layers.
//!
//! Observability with the same contract as [`RoundObserver`]
//! (`crate::observer`): **inactive costs nothing**. A [`Telemetry`] handle
//! is either *off* — a null pointer, every record call one predictable
//! branch — or *on*, in which case it owns
//!
//! * a [`FlightRecorder`]: a fixed-capacity ring buffer of typed, `Copy`
//!   [`Event`]s stamped with round / sim-time / process. When the ring
//!   wraps, the oldest events are overwritten and the drop is *counted*
//!   ([`TelemetrySummary::events_dropped`]) — truncation is visible in
//!   every report, never silent. On a safety violation or late predicate
//!   window the harness drains the ring into a self-contained forensic
//!   JSON artifact (see `ho-harness`).
//! * a [`Metrics`] registry: allocation-free per-[`EventKind`] counters
//!   and per-[`Phase`] log2-bucket latency histograms fed by scoped span
//!   timers ([`Telemetry::clock`] / [`Telemetry::span`]), giving the
//!   per-phase time breakdown (HO-set fill / send / delivery / predicate
//!   monitoring / oracle) behind the `telemetry` object of every
//!   `sweep --scenario` document.
//!
//! Everything is preallocated at [`Telemetry::on`]; recording in steady
//! state performs **zero** heap allocations (proved alongside the round
//! loop in `tests/alloc_steady_state.rs`), and a recorder-on run is
//! bit-identical to a recorder-off run (`tests/telemetry_equivalence.rs`)
//! because telemetry only ever *reads* the execution it observes.
//!
//! Span timestamps are raw ticks: `rdtsc` cycles on x86_64, monotonic
//! nanoseconds elsewhere. Reports therefore present per-phase *shares* of
//! the total, which are unit-agnostic, rather than absolute times.
//!
//! Phase spans are **sampled** — one round in [`SPAN_SAMPLE_PERIOD`] — so
//! the clock reads stay a rounding error against the round loop itself. A
//! sweep still collects thousands of samples per phase, and because the
//! sample grid (round number) is independent of phase behaviour, the
//! per-phase shares are unbiased.

/// What happened — the typed payload of one recorded [`Event`].
///
/// Variants carry at most a couple of machine words so the whole event
/// stays `Copy` and the ring buffer stays a flat preallocated array.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A round began on the executor (model layer: one per global round).
    RoundStart,
    /// A process decided for the first time.
    Decide,
    /// The flow-control lease timeout re-opened slots to contention
    /// (rsm layer; `takeovers` = cumulative count after this round).
    LeaseTakeover {
        /// Cumulative lease takeovers after this round.
        takeovers: u64,
    },
    /// Catch-up backfill entries were delivered into mailboxes
    /// (rsm layer; `entries` = how many arrived this round).
    BackfillEntry {
        /// Backfill entries delivered this round.
        entries: u64,
    },
    /// Admission backpressure deferred client arrivals
    /// (rsm layer; `deferred` = how many this round).
    DeferredAdmission {
        /// Arrivals deferred this round.
        deferred: u64,
    },
    /// A contact-plan period boundary changed the link schedule
    /// (sim layer).
    ContactPhaseChange,
    /// The discrete-event scheduler dispatched an event
    /// (sim layer; `queue_depth` = pending events after the pop).
    SchedulerDispatch {
        /// Pending events after this dispatch.
        queue_depth: u64,
    },
    /// A predicate monitor found its window (`witness_round` = the first
    /// round of the witnessing window).
    PredicateWitness {
        /// First round of the witnessing window.
        witness_round: u64,
    },
    /// A process crashed (sim layer).
    ProcessCrash,
    /// A crashed process recovered (sim layer).
    ProcessRecover,
    /// The oracle flagged a safety violation — usually the last event
    /// before the harness drains the ring.
    ViolationFlagged,
}

/// How many [`EventKind`] variants exist (the counter-registry width).
pub const EVENT_KINDS: usize = 11;

impl EventKind {
    /// The counter-registry slot for this kind.
    #[must_use]
    pub fn index(&self) -> usize {
        match self {
            EventKind::RoundStart => 0,
            EventKind::Decide => 1,
            EventKind::LeaseTakeover { .. } => 2,
            EventKind::BackfillEntry { .. } => 3,
            EventKind::DeferredAdmission { .. } => 4,
            EventKind::ContactPhaseChange => 5,
            EventKind::SchedulerDispatch { .. } => 6,
            EventKind::PredicateWitness { .. } => 7,
            EventKind::ProcessCrash => 8,
            EventKind::ProcessRecover => 9,
            EventKind::ViolationFlagged => 10,
        }
    }

    /// Stable snake_case name used in reports and forensic artifacts.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RoundStart => "round_start",
            EventKind::Decide => "decide",
            EventKind::LeaseTakeover { .. } => "lease_takeover",
            EventKind::BackfillEntry { .. } => "backfill_entry",
            EventKind::DeferredAdmission { .. } => "deferred_admission",
            EventKind::ContactPhaseChange => "contact_phase_change",
            EventKind::SchedulerDispatch { .. } => "scheduler_dispatch",
            EventKind::PredicateWitness { .. } => "predicate_witness",
            EventKind::ProcessCrash => "process_crash",
            EventKind::ProcessRecover => "process_recover",
            EventKind::ViolationFlagged => "violation_flagged",
        }
    }

    /// The kind's scalar detail (count, depth, witness round), if it
    /// carries one — what forensic artifacts serialize as `detail`.
    #[must_use]
    pub fn detail(&self) -> Option<u64> {
        match *self {
            EventKind::LeaseTakeover { takeovers } => Some(takeovers),
            EventKind::BackfillEntry { entries } => Some(entries),
            EventKind::DeferredAdmission { deferred } => Some(deferred),
            EventKind::SchedulerDispatch { queue_depth } => Some(queue_depth),
            EventKind::PredicateWitness { witness_round } => Some(witness_round),
            _ => None,
        }
    }

    /// The name of every kind, in registry order (for summary tables).
    #[must_use]
    pub fn names() -> [&'static str; EVENT_KINDS] {
        [
            "round_start",
            "decide",
            "lease_takeover",
            "backfill_entry",
            "deferred_admission",
            "contact_phase_change",
            "scheduler_dispatch",
            "predicate_witness",
            "process_crash",
            "process_recover",
            "violation_flagged",
        ]
    }
}

/// One flight-recorder entry: a [`EventKind`] stamped with where and when.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// The round the event belongs to (0 when the layer has no round yet).
    pub round: u64,
    /// Simulation time (sim layer) or the round as a real (model layer).
    pub time: f64,
    /// The process concerned, or [`Event::ALL`] for whole-system events.
    pub process: u32,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Sentinel process id for events that concern the whole system.
    pub const ALL: u32 = u32::MAX;
}

impl Default for Event {
    fn default() -> Self {
        Event {
            round: 0,
            time: 0.0,
            process: Event::ALL,
            kind: EventKind::RoundStart,
        }
    }
}

/// Default ring capacity: deep enough to hold the last ~K rounds of a
/// busy scenario, small enough to live comfortably in a worker scratch.
pub const DEFAULT_RECORDER_CAPACITY: usize = 4096;

/// Phase spans are timed on every round divisible by this (power of
/// two, so the check is a mask). See [`Telemetry::spans_this_round`].
pub const SPAN_SAMPLE_PERIOD: u64 = 8;

/// A fixed-capacity ring buffer of [`Event`]s. Preallocated once; pushing
/// never allocates. When full, the oldest event is overwritten and the
/// overwrite is counted — [`FlightRecorder::events_dropped`] makes the
/// truncation visible in reports.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    buf: Vec<Event>,
    /// Next write position.
    next: usize,
    /// Live events (≤ capacity).
    len: usize,
    /// Total events ever pushed (≥ len).
    recorded: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a flight recorder needs at least one slot");
        FlightRecorder {
            buf: vec![Event::default(); capacity],
            next: 0,
            len: 0,
            recorded: 0,
        }
    }

    /// The fixed capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Live events currently in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever recorded (including overwritten ones).
    #[must_use]
    pub fn events_recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to ring wrap-around — recorded but no longer held.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.recorded - self.len as u64
    }

    /// Appends an event, overwriting the oldest when full. Never
    /// allocates.
    #[inline]
    pub fn push(&mut self, event: Event) {
        self.buf[self.next] = event;
        self.next += 1;
        if self.next == self.buf.len() {
            self.next = 0;
        }
        if self.len < self.buf.len() {
            self.len += 1;
        }
        self.recorded += 1;
    }

    /// The held events in chronological order (oldest first) — what a
    /// forensic dump drains.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let start = (self.next + self.buf.len() - self.len) % self.buf.len();
        self.buf[start..]
            .iter()
            .chain(&self.buf[..start])
            .take(self.len)
    }

    /// Empties the ring, retaining the allocation (scenario-to-scenario
    /// reuse in sweep workers).
    pub fn clear(&mut self) {
        self.next = 0;
        self.len = 0;
        self.recorded = 0;
    }
}

/// An executor phase with its own span timer and latency histogram —
/// the five stages of `RoundExecutor::step_observed`, in loop order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The adversary (or predicate implementation) fills the HO sets.
    HoFill = 0,
    /// `S_p^r`: plan recollection and payload construction.
    Send = 1,
    /// Fan-out of plans into mailboxes.
    Deliver = 2,
    /// HO-row build + trace/observer (predicate monitoring).
    Monitor = 3,
    /// `T_p^r` transitions plus the consensus oracle.
    Oracle = 4,
}

/// How many [`Phase`] variants exist.
pub const PHASES: usize = 5;

/// log2 histogram buckets per phase (bucket `b` holds spans with
/// `floor(log2(ticks)) == b - 1`; bucket 0 holds zero-tick spans, bucket
/// 64 the `≥ 2^63`-tick tail).
pub const HIST_BUCKETS: usize = 65;

impl Phase {
    /// Stable snake_case name used in reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Phase::HoFill => "ho_fill",
            Phase::Send => "send",
            Phase::Deliver => "deliver",
            Phase::Monitor => "monitor",
            Phase::Oracle => "oracle",
        }
    }

    /// Every phase, in loop order.
    #[must_use]
    pub fn all() -> [Phase; PHASES] {
        [
            Phase::HoFill,
            Phase::Send,
            Phase::Deliver,
            Phase::Monitor,
            Phase::Oracle,
        ]
    }
}

/// The allocation-free metrics registry: per-kind event counters and
/// per-phase span totals + log2 latency histograms. Plain inline arrays —
/// creating one performs a single allocation (inside [`Telemetry::on`]'s
/// box) and updating it performs none.
#[derive(Clone, Debug)]
pub struct Metrics {
    /// Events recorded, by [`EventKind::index`].
    pub kind_counts: [u64; EVENT_KINDS],
    /// Total ticks spent per phase.
    pub phase_ticks: [u64; PHASES],
    /// Spans closed per phase.
    pub phase_spans: [u64; PHASES],
    /// log2-bucketed span durations per phase.
    pub phase_hist: [[u64; HIST_BUCKETS]; PHASES],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            kind_counts: [0; EVENT_KINDS],
            phase_ticks: [0; PHASES],
            phase_spans: [0; PHASES],
            phase_hist: [[0; HIST_BUCKETS]; PHASES],
        }
    }
}

impl Metrics {
    /// The log2 bucket for a span of `ticks` (bucket 0 = zero ticks).
    #[must_use]
    pub fn bucket(ticks: u64) -> usize {
        (64 - ticks.leading_zeros()) as usize
    }

    /// Records one closed span.
    #[inline]
    pub fn observe_span(&mut self, phase: Phase, ticks: u64) {
        let p = phase as usize;
        self.phase_ticks[p] += ticks;
        self.phase_spans[p] += 1;
        self.phase_hist[p][Self::bucket(ticks)] += 1;
    }

    /// Zeroes every counter and histogram.
    pub fn clear(&mut self) {
        *self = Metrics::default();
    }
}

/// Raw timestamp for span timers: `rdtsc` on x86_64 (a handful of cycles,
/// no syscall), monotonic nanoseconds elsewhere.
#[cfg(target_arch = "x86_64")]
#[inline]
#[must_use]
pub fn now_ticks() -> u64 {
    // Safe: RDTSC is unprivileged and has no memory effects.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Raw timestamp for span timers (portable fallback): nanoseconds since
/// the first call.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
#[must_use]
pub fn now_ticks() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// The recorder + metrics pair a [`Telemetry`] handle owns when on.
#[derive(Clone, Debug)]
pub struct TelemetryInner {
    /// The event ring.
    pub recorder: FlightRecorder,
    /// The counter/histogram registry.
    pub metrics: Metrics,
}

/// A no-op-able handle to the flight recorder and metrics registry.
///
/// The default ([`Telemetry::off`]) holds nothing: `is_on()` is a null
/// check, every `record`/`span` call is one branch, and the handle is a
/// single machine word — the *inactive costs nothing* contract of
/// [`RoundObserver`](crate::observer::RoundObserver), applied to
/// telemetry. [`Telemetry::on`] allocates the ring and registry once;
/// from then on recording is allocation-free.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Box<TelemetryInner>>,
}

impl Telemetry {
    /// The null handle: nothing is recorded, nothing is allocated.
    #[must_use]
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    /// An active handle with the default ring capacity.
    #[must_use]
    pub fn on() -> Self {
        Telemetry::with_capacity(DEFAULT_RECORDER_CAPACITY)
    }

    /// An active handle with a ring of `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Box::new(TelemetryInner {
                recorder: FlightRecorder::with_capacity(capacity),
                metrics: Metrics::default(),
            })),
        }
    }

    /// Whether recording is active.
    #[inline]
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether round `round`'s phase spans should be timed. Spans are
    /// sampled — one round in [`SPAN_SAMPLE_PERIOD`] — so the per-round
    /// clock reads cost a fraction of a percent instead of double-digit
    /// overhead on sub-microsecond rounds; `false` always when off.
    #[inline]
    #[must_use]
    pub fn spans_this_round(&self, round: u64) -> bool {
        self.inner.is_some() && round.is_multiple_of(SPAN_SAMPLE_PERIOD)
    }

    /// Clears the ring and registry, retaining all allocations — the
    /// scenario-to-scenario reset in sweep workers. A no-op when off.
    pub fn reset(&mut self) {
        if let Some(inner) = &mut self.inner {
            inner.recorder.clear();
            inner.metrics.clear();
        }
    }

    /// Records one event (and bumps its kind counter). One branch when
    /// off; never allocates.
    #[inline]
    pub fn record(&mut self, round: u64, time: f64, process: u32, kind: EventKind) {
        if let Some(inner) = &mut self.inner {
            inner.metrics.kind_counts[kind.index()] += 1;
            inner.recorder.push(Event {
                round,
                time,
                process,
                kind,
            });
        }
    }

    /// Opens a span: the current tick count, or 0 when off (so an
    /// inactive handle never even reads the clock).
    #[inline]
    #[must_use]
    pub fn clock(&self) -> u64 {
        if self.inner.is_some() {
            now_ticks()
        } else {
            0
        }
    }

    /// Closes a span opened at `start` against `phase` and opens the
    /// next one: returns the closing timestamp so consecutive phases
    /// chain with one clock read each. A no-op (returning 0) when off.
    #[inline]
    pub fn span(&mut self, phase: Phase, start: u64) -> u64 {
        match &mut self.inner {
            Some(inner) => {
                let now = now_ticks();
                inner.metrics.observe_span(phase, now.saturating_sub(start));
                now
            }
            None => 0,
        }
    }

    /// The live recorder + registry, if on.
    #[must_use]
    pub fn inner(&self) -> Option<&TelemetryInner> {
        self.inner.as_deref()
    }

    /// The held events in chronological order (empty iterator when off).
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.inner.iter().flat_map(|inner| inner.recorder.iter())
    }

    /// A `Copy` digest of the run — what verdicts carry. `None` when off.
    #[must_use]
    pub fn summary(&self) -> Option<TelemetrySummary> {
        self.inner.as_ref().map(|inner| TelemetrySummary {
            events_recorded: inner.recorder.events_recorded(),
            events_dropped: inner.recorder.events_dropped(),
            kind_counts: inner.metrics.kind_counts,
            phase_ticks: inner.metrics.phase_ticks,
            phase_spans: inner.metrics.phase_spans,
        })
    }
}

/// The `Copy` digest of one run's telemetry: event totals by kind plus
/// the per-phase time breakdown. This is a *diagnostic*: it must never
/// participate in equivalence comparisons (span ticks are wall-clock
/// noise).
#[derive(Clone, Copy, Debug, Default)]
pub struct TelemetrySummary {
    /// Total events recorded (including overwritten ones).
    pub events_recorded: u64,
    /// Events lost to ring wrap — visible truncation, per cell.
    pub events_dropped: u64,
    /// Events by [`EventKind::index`].
    pub kind_counts: [u64; EVENT_KINDS],
    /// Ticks per [`Phase`].
    pub phase_ticks: [u64; PHASES],
    /// Spans per [`Phase`].
    pub phase_spans: [u64; PHASES],
}

impl TelemetrySummary {
    /// Folds another run's digest into this one (cell aggregation).
    pub fn merge(&mut self, other: &TelemetrySummary) {
        self.events_recorded += other.events_recorded;
        self.events_dropped += other.events_dropped;
        for (a, b) in self.kind_counts.iter_mut().zip(&other.kind_counts) {
            *a += b;
        }
        for (a, b) in self.phase_ticks.iter_mut().zip(&other.phase_ticks) {
            *a += b;
        }
        for (a, b) in self.phase_spans.iter_mut().zip(&other.phase_spans) {
            *a += b;
        }
    }

    /// Ticks across all phases.
    #[must_use]
    pub fn total_ticks(&self) -> u64 {
        self.phase_ticks.iter().sum()
    }

    /// The share of total ticks a phase took (0 when nothing was timed).
    #[must_use]
    pub fn phase_share(&self, phase: Phase) -> f64 {
        let total = self.total_ticks();
        if total == 0 {
            0.0
        } else {
            self.phase_ticks[phase as usize] as f64 / total as f64
        }
    }

    /// The count recorded for one event kind.
    #[must_use]
    pub fn count(&self, kind: &EventKind) -> u64 {
        self.kind_counts[kind.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing() {
        let mut t = Telemetry::off();
        assert!(!t.is_on());
        t.record(1, 1.0, 0, EventKind::RoundStart);
        assert_eq!(t.clock(), 0);
        assert_eq!(t.span(Phase::Send, 0), 0);
        assert!(t.summary().is_none());
        assert_eq!(t.events().count(), 0);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut rec = FlightRecorder::with_capacity(4);
        for r in 0..6u64 {
            rec.push(Event {
                round: r,
                time: r as f64,
                process: 0,
                kind: EventKind::RoundStart,
            });
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.events_recorded(), 6);
        assert_eq!(rec.events_dropped(), 2);
        // Oldest two were overwritten; the rest drain chronologically.
        let rounds: Vec<u64> = rec.iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![2, 3, 4, 5]);
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.events_dropped(), 0);
        assert_eq!(rec.capacity(), 4);
    }

    #[test]
    fn spans_feed_the_histograms() {
        let mut t = Telemetry::with_capacity(8);
        let t0 = t.clock();
        let t1 = t.span(Phase::HoFill, t0);
        assert!(t1 >= t0);
        let _ = t.span(Phase::Send, t1);
        let s = t.summary().expect("on");
        assert_eq!(s.phase_spans[Phase::HoFill as usize], 1);
        assert_eq!(s.phase_spans[Phase::Send as usize], 1);
        assert_eq!(s.phase_spans.iter().sum::<u64>(), 2);
        let inner = t.inner().expect("on");
        let hist_total: u64 = inner.metrics.phase_hist[Phase::HoFill as usize]
            .iter()
            .sum();
        assert_eq!(hist_total, 1);
        // Shares over all phases sum to 1 when anything was timed (or
        // all zero when the clock was too coarse to advance).
        let share_sum: f64 = Phase::all().iter().map(|p| s.phase_share(*p)).sum();
        assert!(share_sum == 0.0 || (share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log2_buckets_are_monotone() {
        assert_eq!(Metrics::bucket(0), 0);
        assert_eq!(Metrics::bucket(1), 1);
        assert_eq!(Metrics::bucket(2), 2);
        assert_eq!(Metrics::bucket(3), 2);
        assert_eq!(Metrics::bucket(4), 3);
        assert_eq!(Metrics::bucket(u64::MAX), 64);
        assert!(Metrics::bucket(u64::MAX) < HIST_BUCKETS);
    }

    #[test]
    fn kind_registry_is_consistent() {
        let kinds = [
            EventKind::RoundStart,
            EventKind::Decide,
            EventKind::LeaseTakeover { takeovers: 1 },
            EventKind::BackfillEntry { entries: 2 },
            EventKind::DeferredAdmission { deferred: 3 },
            EventKind::ContactPhaseChange,
            EventKind::SchedulerDispatch { queue_depth: 4 },
            EventKind::PredicateWitness { witness_round: 5 },
            EventKind::ProcessCrash,
            EventKind::ProcessRecover,
            EventKind::ViolationFlagged,
        ];
        assert_eq!(kinds.len(), EVENT_KINDS);
        let names = EventKind::names();
        for kind in &kinds {
            assert_eq!(names[kind.index()], kind.name());
        }
        // Indices are a bijection onto 0..EVENT_KINDS.
        let mut seen = [false; EVENT_KINDS];
        for kind in &kinds {
            assert!(!seen[kind.index()], "duplicate index for {kind:?}");
            seen[kind.index()] = true;
        }
        assert_eq!(kinds[2].detail(), Some(1));
        assert_eq!(kinds[0].detail(), None);
    }

    #[test]
    fn summaries_merge_per_field() {
        let mut t = Telemetry::with_capacity(8);
        t.record(1, 1.0, 0, EventKind::RoundStart);
        t.record(1, 1.0, 1, EventKind::Decide);
        let a = t.summary().unwrap();
        let mut merged = a;
        merged.merge(&a);
        assert_eq!(merged.events_recorded, 2 * a.events_recorded);
        assert_eq!(merged.count(&EventKind::Decide), 2);
        assert_eq!(merged.count(&EventKind::RoundStart), 2);
    }

    #[test]
    fn reset_retains_capacity_and_zeroes_counts() {
        let mut t = Telemetry::with_capacity(4);
        for r in 0..9u64 {
            t.record(r, r as f64, 0, EventKind::RoundStart);
        }
        assert_eq!(t.summary().unwrap().events_dropped, 5);
        t.reset();
        let s = t.summary().unwrap();
        assert_eq!(s.events_recorded, 0);
        assert_eq!(s.events_dropped, 0);
        assert_eq!(s.kind_counts, [0; EVENT_KINDS]);
        assert!(t.is_on());
    }
}
