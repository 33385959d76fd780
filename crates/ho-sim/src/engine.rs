//! The discrete-event simulation engine.
//!
//! The engine owns the processes' [`Program`]s, the per-process message
//! buffers, the event queue and the global real-valued clock. It enforces
//! the §4.1 semantics:
//!
//! * **steps are atomic** and take no time; time elapses *between* steps;
//! * in a good period, every `π0` process takes at least one step per `Φ+`
//!   and at most one per `Φ−`;
//! * a message sent between `π0` processes at `t` inside a good period is in
//!   the destination buffer by `t + Δ` (send → make-ready collapsed into a
//!   single delivery event with delay ≤ Δ);
//! * at the start of a *π0-down* good period, `π̄0` processes are forced
//!   down and their in-flight messages are purged ("no messages from `π̄0`
//!   in transit");
//! * in bad periods (and for `π̄0` in *π0-arbitrary* good periods):
//!   messages may be lost or arbitrarily delayed, processes may crash
//!   (volatile state lost — [`Program::on_crash`]), recover, or run slow.
//!
//! The message path is the [`SendPlan`] kernel shared with the
//! round-synchronous executor: programs emit plans, a broadcast's single
//! pooled payload fans out to `n` destinations by reference count, and
//! in-flight/buffered copies are generation-checked pool handles. On the
//! pooled path a broadcast is additionally *coalesced* in the event queue:
//! destinations sharing a delivery delay ride one [`Event::BroadcastReady`]
//! carrying a recipient mask, with per-recipient gating (destination down,
//! π0-down purge) applied at dispatch — under worst-case delay timing a
//! broadcast costs one queue event instead of `n`. Unicast plans travel
//! as one `Event::MakeReady` per destination, carrying an owned payload.
//!
//! Events wait in one calendar queue, which dispatches in `(time, seq)`
//! order (see [`crate::scheduler`]).
//!
//! Which period is in force is never looked up by time: every boundary is
//! an [`Event::PeriodStart`] in the queue, and dispatching it moves the
//! index (`Simulator::period_idx`) that every timing, routing and purge rule
//! reads — so the cost of an event does not grow with the schedule.

use ho_core::executor::MessageStats;
use ho_core::process::{ProcessId, ProcessSet};
use ho_core::send_plan::SendPlan;
use ho_core::telemetry::{Event as TelemetryEvent, EventKind, Telemetry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{DelayTiming, SimConfig, StepTiming};
use crate::program::{Program, StepKind, WireMsg};
use crate::schedule::{GoodKind, Period, PeriodKind, Schedule};
use crate::scheduler::{wheel_width, CalendarQueue};
use crate::stats::SimStats;
use crate::time::TimePoint;

#[derive(Clone, Debug)]
enum Event<M> {
    /// Process `p` takes its next atomic step; stale if `gen` mismatches.
    Step { p: ProcessId, gen: u64 },
    /// A unicast message, owned by its one in-flight copy, becomes ready
    /// for reception at `dest`.
    MakeReady {
        dest: ProcessId,
        from: ProcessId,
        sent_at: TimePoint,
        msg: M,
    },
    /// A coalesced broadcast delivery: every destination in `recipients`
    /// drew the same delay at send time, so they share one in-flight event
    /// and one pool handle ([`WireMsg::Shared`]), which keeps the sender's
    /// payload slot pinned — and generation-checked — until every copy is
    /// consumed or dropped. Fan-out — including the per-recipient
    /// destination-down and π0-down-purge gates — happens at dispatch, in
    /// ascending process order: exactly the order the per-destination
    /// events would have fired, since their sequence numbers were
    /// consecutive.
    BroadcastReady {
        from: ProcessId,
        sent_at: TimePoint,
        recipients: ProcessSet,
        msg: WireMsg<M>,
    },
    /// A schedule period begins.
    PeriodStart(usize),
    /// Process `p` recovers from a bad-period crash.
    Recover { p: ProcessId, gen: u64 },
}

struct ProcessSlot<M> {
    down: bool,
    /// Whether the engine forced this process down (π0-down period) rather
    /// than a random bad-period crash.
    forced_down: bool,
    step_gen: u64,
    /// The reception buffer: broadcast entries are pool handles into their
    /// senders' payload slots, so buffering costs no payload copy.
    buffer: Vec<(ProcessId, WireMsg<M>)>,
}

/// Reusable simulator storage: the event queue's buckets, the process
/// slots (with their reception buffers) and the broadcast fan-out scratch.
///
/// A sweep runs thousands of scenarios back to back; constructing each
/// [`Simulator`] via [`Simulator::with_scratch`] and returning its storage
/// with [`Simulator::retire`] keeps those allocations warm across
/// scenarios — the sim-layer analogue of the round loop's `RoundScratch`.
pub struct SimScratch<P: Program> {
    queue: Option<CalendarQueue<Event<P::Msg>>>,
    slots: Vec<ProcessSlot<P::Msg>>,
    fanout: Vec<(u64, ProcessSet)>,
}

impl<P: Program> SimScratch<P> {
    /// An empty scratch: the first scenario allocates, the rest reuse.
    #[must_use]
    pub fn new() -> Self {
        SimScratch {
            queue: None,
            slots: Vec::new(),
            fanout: Vec::new(),
        }
    }
}

impl<P: Program> Default for SimScratch<P> {
    fn default() -> Self {
        SimScratch::new()
    }
}

/// The discrete-event simulator.
pub struct Simulator<P: Program> {
    cfg: SimConfig,
    schedule: Schedule,
    programs: Vec<P>,
    slots: Vec<ProcessSlot<P::Msg>>,
    queue: CalendarQueue<Event<P::Msg>>,
    /// Send-time coalescing scratch: `(delay bit pattern, recipients)` per
    /// distinct delay drawn by one broadcast. Kept on the simulator so
    /// steady-state broadcasts never allocate.
    fanout: Vec<(u64, ProcessSet)>,
    now: TimePoint,
    /// Index of the schedule period in force at `now`, moved only by
    /// [`Event::PeriodStart`]. Sound because those events are pushed first
    /// at construction: they carry the lowest sequence numbers, so a
    /// boundary wins every timestamp tie and is dispatched before anything
    /// that must observe the new period.
    period_idx: usize,
    seq: u64,
    rng: SmallRng,
    stats: SimStats,
    /// Flight recorder + metrics (see [`ho_core::telemetry`]): off by
    /// default — one branch per hook — and installed by the harness via
    /// [`Simulator::set_telemetry`]. Telemetry only observes the run, so
    /// recorded and unrecorded executions are bit-identical.
    telemetry: Telemetry,
}

impl<P: Program> Simulator<P> {
    /// Builds a simulator over `programs` (one per process).
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != cfg.n` or the config is inconsistent.
    #[must_use]
    pub fn new(cfg: SimConfig, schedule: Schedule, programs: Vec<P>) -> Self {
        Simulator::with_scratch(cfg, schedule, programs, &mut SimScratch::new())
    }

    /// Builds a simulator reusing `scratch`'s storage (see [`SimScratch`]).
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != cfg.n` or the config is inconsistent.
    #[must_use]
    pub fn with_scratch(
        cfg: SimConfig,
        schedule: Schedule,
        programs: Vec<P>,
        scratch: &mut SimScratch<P>,
    ) -> Self {
        cfg.validate();
        assert_eq!(programs.len(), cfg.n, "one program per process");
        let width = wheel_width(cfg.phi_minus, cfg.delta);
        let mut queue = scratch
            .queue
            .take()
            .unwrap_or_else(|| CalendarQueue::new(width, cfg.n));
        queue.reset(width);
        // Recycled slots keep their buffers' capacity; fresh ones are
        // pre-sized to n so first-round reception never reallocates.
        let mut slots = std::mem::take(&mut scratch.slots);
        slots.truncate(cfg.n);
        for slot in &mut slots {
            slot.down = false;
            slot.forced_down = false;
            slot.step_gen = 0;
            slot.buffer.clear();
        }
        while slots.len() < cfg.n {
            slots.push(ProcessSlot {
                down: false,
                forced_down: false,
                step_gen: 0,
                buffer: Vec::with_capacity(cfg.n),
            });
        }
        let mut fanout = std::mem::take(&mut scratch.fanout);
        fanout.clear();
        let mut sim = Simulator {
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
            schedule,
            programs,
            slots,
            queue,
            fanout,
            now: TimePoint::ZERO,
            period_idx: 0,
            seq: 0,
            stats: SimStats::default(),
            telemetry: Telemetry::off(),
        };
        // Period-start events (skip index 0; it is in force at t = 0).
        for i in 1..sim.schedule.periods().len() {
            let start = sim.schedule.periods()[i].start;
            sim.push(start, Event::PeriodStart(i));
        }
        // Apply the initial period's forced-down rule, then schedule first
        // steps for every up process. (apply_period_entry is not used here:
        // it would also schedule steps for pi0, double-scheduling them.)
        if let PeriodKind::Good {
            pi0,
            kind: GoodKind::PiDown,
        } = sim.schedule.periods()[0].kind
        {
            for p in pi0.complement(sim.cfg.n).iter() {
                sim.crash(p, true);
            }
        }
        for p in 0..sim.cfg.n {
            let pid = ProcessId::new(p);
            if !sim.slots[p].down {
                let first = sim.first_step_offset(pid);
                sim.schedule_step(pid, first);
            }
        }
        sim
    }

    /// Returns this simulator's reusable storage to `scratch`: queue
    /// buckets, process slots and the fan-out scratch keep their capacity
    /// for the next scenario. Pending events and buffered messages are
    /// dropped (releasing their pool handles).
    pub fn retire(self, scratch: &mut SimScratch<P>) {
        let width = wheel_width(self.cfg.phi_minus, self.cfg.delta);
        let Simulator {
            mut queue,
            mut slots,
            mut fanout,
            ..
        } = self;
        for slot in &mut slots {
            slot.buffer.clear();
        }
        fanout.clear();
        queue.reset(width);
        scratch.queue = Some(queue);
        scratch.slots = slots;
        scratch.fanout = fanout;
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> TimePoint {
        self.now
    }

    /// Run statistics so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Message accounting for the whole run, in the round-synchronous
    /// executor's terms: engine-side deliveries merged with every
    /// program's payload-construction counters
    /// ([`Program::message_stats`]) — the unified two-layer view.
    #[must_use]
    pub fn message_stats(&self) -> MessageStats {
        let mut stats = self.stats.messages;
        for program in &self.programs {
            stats.merge(&program.message_stats());
        }
        stats
    }

    /// Read access to the programs.
    #[must_use]
    pub fn programs(&self) -> &[P] {
        &self.programs
    }

    /// Read access to one program.
    #[must_use]
    pub fn program(&self, p: ProcessId) -> &P {
        &self.programs[p.index()]
    }

    /// Whether `p` is currently down.
    #[must_use]
    pub fn is_down(&self, p: ProcessId) -> bool {
        self.slots[p.index()].down
    }

    /// The schedule driving this run.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Installs a telemetry handle (recorder + metrics). Pass
    /// [`Telemetry::off`] to disable recording.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Read access to the telemetry handle.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Takes the telemetry handle out, leaving an off handle behind —
    /// how the harness recovers the ring for draining and reuse.
    pub fn take_telemetry(&mut self) -> Telemetry {
        std::mem::take(&mut self.telemetry)
    }

    /// Runs until `stop` returns true (checked after every event) or the
    /// clock passes `deadline`. Returns `true` iff `stop` fired.
    pub fn run_until(&mut self, deadline: TimePoint, mut stop: impl FnMut(&Self) -> bool) -> bool {
        if stop(self) {
            return true;
        }
        while let Some((at, event)) = self.queue.pop_at_most(deadline) {
            self.now = at;
            self.stats.events_dispatched += 1;
            self.telemetry.record(
                0,
                at.get(),
                TelemetryEvent::ALL,
                EventKind::SchedulerDispatch {
                    queue_depth: self.queue.len() as u64,
                },
            );
            self.dispatch(event);
            if stop(self) {
                return true;
            }
        }
        false
    }

    /// Runs until `deadline` unconditionally.
    pub fn run_for(&mut self, deadline: TimePoint) {
        self.run_until(deadline, |_| false);
    }

    // ------------------------------------------------------------------
    // Event plumbing.

    fn push(&mut self, at: TimePoint, event: Event<P::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, event);
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(self.queue.len() as u64);
    }

    fn schedule_step(&mut self, p: ProcessId, dt: f64) {
        let gen = self.slots[p.index()].step_gen;
        self.push(self.now.after(dt), Event::Step { p, gen });
    }

    fn dispatch(&mut self, event: Event<P::Msg>) {
        match event {
            Event::Step { p, gen } => self.on_step(p, gen),
            Event::MakeReady {
                dest,
                from,
                sent_at,
                msg,
            } => self.on_make_ready(dest, from, sent_at, msg),
            Event::BroadcastReady {
                from,
                sent_at,
                recipients,
                msg,
            } => self.on_broadcast_ready(from, sent_at, recipients, msg),
            Event::PeriodStart(idx) => self.on_period_start(idx),
            Event::Recover { p, gen } => self.on_recover_event(p, gen),
        }
    }

    // ------------------------------------------------------------------
    // Timing rules.

    /// Index of the period in force at `now`: the cached one, checked
    /// against the schedule's own lookup in debug builds.
    fn period_index(&self) -> usize {
        debug_assert!(std::ptr::eq(
            &self.schedule.periods()[self.period_idx],
            self.schedule.at(self.now)
        ));
        self.period_idx
    }

    /// The period in force at `now`.
    fn period(&self) -> &Period {
        &self.schedule.periods()[self.period_index()]
    }

    /// Whether `now` falls in a good period whose `π0` contains `p`.
    fn in_good_sync(&self, p: ProcessId) -> bool {
        match self.period().kind {
            PeriodKind::Good { pi0, .. } => pi0.contains(p),
            PeriodKind::Bad(_) => false,
        }
    }

    /// Offset of the first step after (re-)entering synchrony or starting.
    fn first_step_offset(&mut self, p: ProcessId) -> f64 {
        if self.in_good_sync(p) {
            match self.cfg.step_timing {
                StepTiming::WorstCase => self.cfg.phi_plus,
                StepTiming::Fastest => self.cfg.phi_minus,
                StepTiming::Jittered => self.rng.gen_range(0.0..=self.cfg.phi_plus),
            }
        } else {
            let (fast, slow) = self.bad_speed_band();
            self.rng
                .gen_range(self.cfg.phi_minus / fast..=self.cfg.phi_plus * slow)
        }
    }

    /// Gap to the next step for an up process at the current time.
    fn step_gap(&mut self, p: ProcessId) -> f64 {
        if self.in_good_sync(p) {
            match self.cfg.step_timing {
                StepTiming::WorstCase => self.cfg.phi_plus,
                StepTiming::Fastest => self.cfg.phi_minus,
                StepTiming::Jittered => self.rng.gen_range(self.cfg.phi_minus..=self.cfg.phi_plus),
            }
        } else {
            let (fast, slow) = self.bad_speed_band();
            self.rng
                .gen_range(self.cfg.phi_minus / fast..=self.cfg.phi_plus * slow)
        }
    }

    /// `(fast, slow)` speed-band multipliers under the current bad rules.
    fn bad_speed_band(&self) -> (f64, f64) {
        let rules = self.arbitrary_rules();
        (rules.fast_factor.max(1.0), rules.slow_factor.max(1.0))
    }

    /// The bad rules applying to non-synchronous behaviour right now: the
    /// bad period's own config, or (inside a good period) the most recent
    /// bad period's config — a backwards walk from the current period,
    /// one step in an alternating schedule — or the default if the
    /// schedule has none before now.
    fn arbitrary_rules(&self) -> crate::config::BadPeriodConfig {
        self.schedule.periods()[..=self.period_index()]
            .iter()
            .rev()
            .find_map(|p| match p.kind {
                PeriodKind::Bad(cfg) => Some(cfg),
                PeriodKind::Good { .. } => None,
            })
            .unwrap_or_default()
    }

    /// The π0-down purge: no message a `π̄0` process sent before the
    /// period began is in transit during it.
    fn purged(&self, from: ProcessId, sent_at: TimePoint) -> bool {
        let period = self.period();
        match period.kind {
            PeriodKind::Good {
                pi0,
                kind: GoodKind::PiDown,
            } => !pi0.contains(from) && sent_at < period.start,
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Step execution.

    fn on_step(&mut self, p: ProcessId, gen: u64) {
        let idx = p.index();
        if self.slots[idx].down || self.slots[idx].step_gen != gen {
            return;
        }

        // Bad-rules crash roulette (never inside a good period for π0).
        if !self.in_good_sync(p) {
            let rules = self.arbitrary_rules();
            if rules.crash_prob > 0.0 && self.rng.gen_bool(rules.crash_prob) {
                self.crash(p, false);
                let down_for = self
                    .rng
                    .gen_range(rules.min_down..=rules.max_down.max(rules.min_down));
                let gen = self.slots[idx].step_gen;
                self.push(self.now.after(down_for), Event::Recover { p, gen });
                return;
            }
        }

        match self.programs[idx].next_step() {
            StepKind::Send(plan) => {
                self.stats.send_steps += 1;
                self.consume_plan(p, plan);
            }
            StepKind::Receive => {
                self.stats.receive_steps += 1;
                // Prune provably ignorable messages first (§4.2.1 applied
                // to the buffer — see [`Program::discard_buffered`]): this
                // bounds the buffer under INIT-resend storms and releases
                // the pinned payload handles back to their senders' pools.
                let program = &self.programs[idx];
                let buffer = &mut self.slots[idx].buffer;
                let before = buffer.len();
                buffer.retain(|(_, m)| !program.discard_buffered(m));
                self.stats.discarded += (before - buffer.len()) as u64;
                let received = if self.slots[idx].buffer.is_empty() {
                    None
                } else {
                    let choice = self.programs[idx].select_message(&self.slots[idx].buffer);
                    choice.map(|i| self.slots[idx].buffer.remove(i))
                };
                if received.is_none() {
                    self.stats.empty_receives += 1;
                }
                self.programs[idx].on_receive(received);
            }
        }

        let gap = self.step_gap(p);
        self.schedule_step(p, gap);
    }

    // ------------------------------------------------------------------
    // Network.

    /// Executes one send plan — the same closed form of `S_p^r` the
    /// round-synchronous executor consumes. A broadcast fans its single
    /// pooled payload out to all `n` destinations (the sender included) by
    /// reference count.
    fn consume_plan(&mut self, from: ProcessId, plan: SendPlan<P::Msg>) {
        match plan {
            SendPlan::Broadcast(payload) => {
                self.stats.broadcast_sends += 1;
                // Sample per-destination routing in ascending destination
                // order, then coalesce the survivors of each distinct delay
                // into one in-flight event with a recipient mask. Under
                // worst-case delay timing every good-period destination
                // shares Δ, so a broadcast costs one event.
                let mut fanout = std::mem::take(&mut self.fanout);
                debug_assert!(fanout.is_empty());
                for q in 0..self.cfg.n {
                    let dest = ProcessId::new(q);
                    self.stats.transmissions += 1;
                    let (lost, delay) = self.route(from, dest);
                    if lost {
                        self.stats.dropped += 1;
                        continue;
                    }
                    let bits = delay.to_bits();
                    match fanout.iter_mut().find(|(b, _)| *b == bits) {
                        Some((_, recipients)) => recipients.insert(dest),
                        None => fanout.push((bits, ProcessSet::singleton(dest))),
                    }
                }
                let sent_at = self.now;
                for (bits, recipients) in fanout.drain(..) {
                    self.push(
                        sent_at.after(f64::from_bits(bits)),
                        Event::BroadcastReady {
                            from,
                            sent_at,
                            recipients,
                            msg: WireMsg::Shared(payload.clone()),
                        },
                    );
                }
                self.fanout = fanout;
            }
            SendPlan::Unicast(pairs) => {
                for (dest, msg) in pairs {
                    self.stats.transmissions += 1;
                    let (lost, delay) = self.route(from, dest);
                    if lost {
                        self.stats.dropped += 1;
                        continue;
                    }
                    let sent_at = self.now;
                    let event = Event::MakeReady {
                        dest,
                        from,
                        sent_at,
                        msg,
                    };
                    self.push(sent_at.after(delay), event);
                }
            }
            SendPlan::Silent => {}
        }
    }

    /// Loss and delay for a transmission starting now.
    fn route(&mut self, from: ProcessId, to: ProcessId) -> (bool, f64) {
        // Contact-plan overlay: a transmission on a scheduled-down
        // directed link is lost regardless of the period rules. Past the
        // plan's horizon every link is up, so good periods placed there
        // keep their delivery guarantee.
        if !self.schedule.link_up(from, to, self.now) {
            return (true, 0.0);
        }
        match self.period().kind {
            PeriodKind::Good { pi0, .. } if pi0.contains(from) && pi0.contains(to) => {
                let delay = match self.cfg.delay_timing {
                    DelayTiming::WorstCase => self.cfg.delta,
                    DelayTiming::Jittered => self.rng.gen_range(0.0..=self.cfg.delta),
                };
                (false, delay)
            }
            _ => {
                // Bad period, or a transmission touching π̄0 in a good
                // period: arbitrary rules. Send-omission, link loss and
                // receive-omission all end in non-reception (§2.3); they
                // are sampled separately only for the statistics.
                let rules = self.arbitrary_rules();
                let dropped = (rules.send_omission > 0.0 && self.rng.gen_bool(rules.send_omission))
                    || (rules.loss > 0.0 && self.rng.gen_bool(rules.loss))
                    || (rules.receive_omission > 0.0 && self.rng.gen_bool(rules.receive_omission));
                if dropped {
                    (true, 0.0)
                } else {
                    let max = self.cfg.delta * (1.0 + rules.extra_delay_factor.max(0.0));
                    (false, self.rng.gen_range(0.0..=max))
                }
            }
        }
    }

    fn on_make_ready(&mut self, dest: ProcessId, from: ProcessId, sent_at: TimePoint, msg: P::Msg) {
        if self.purged(from, sent_at) || self.slots[dest.index()].down {
            self.stats.dropped += 1;
            return;
        }
        self.stats.messages.delivered += 1;
        self.slots[dest.index()]
            .buffer
            .push((from, WireMsg::Owned(msg)));
    }

    /// Delivers a coalesced broadcast: per-recipient gating at the shared
    /// delivery instant, in ascending process order — bit-identical to the
    /// per-destination events it replaces (their sequence numbers were
    /// consecutive, so nothing could interleave).
    fn on_broadcast_ready(
        &mut self,
        from: ProcessId,
        sent_at: TimePoint,
        recipients: ProcessSet,
        msg: WireMsg<P::Msg>,
    ) {
        // The π0-down purge depends only on the sender and the shared
        // delivery time, so it gates the whole mask at once.
        let purge = self.purged(from, sent_at);
        for dest in recipients.iter() {
            if purge || self.slots[dest.index()].down {
                self.stats.dropped += 1;
                continue;
            }
            self.stats.messages.delivered += 1;
            self.slots[dest.index()].buffer.push((from, msg.clone()));
        }
    }

    // ------------------------------------------------------------------
    // Crashes, recoveries, period transitions.

    fn crash(&mut self, p: ProcessId, forced: bool) {
        let idx = p.index();
        if self.slots[idx].down {
            self.slots[idx].forced_down |= forced;
            return;
        }
        self.stats.crashes += 1;
        self.telemetry
            .record(0, self.now.get(), p.index() as u32, EventKind::ProcessCrash);
        self.slots[idx].down = true;
        self.slots[idx].forced_down = forced;
        self.slots[idx].step_gen += 1; // invalidate pending steps
        self.slots[idx].buffer.clear(); // volatile buffer lost
        self.programs[idx].on_crash();
    }

    fn recover(&mut self, p: ProcessId) {
        let idx = p.index();
        if !self.slots[idx].down {
            return;
        }
        self.stats.recoveries += 1;
        self.telemetry.record(
            0,
            self.now.get(),
            p.index() as u32,
            EventKind::ProcessRecover,
        );
        self.slots[idx].down = false;
        self.slots[idx].forced_down = false;
        self.slots[idx].step_gen += 1;
        self.programs[idx].on_recover();
        let first = self.first_step_offset(p);
        self.schedule_step(p, first);
    }

    fn on_recover_event(&mut self, p: ProcessId, gen: u64) {
        // Only recover if the crash that scheduled this is still current.
        if self.slots[p.index()].down && self.slots[p.index()].step_gen == gen {
            self.recover(p);
        }
    }

    fn on_period_start(&mut self, idx: usize) {
        self.period_idx = idx;
        // A period boundary is where the link/fault regime changes — the
        // sim-layer analogue of a contact-plan phase change.
        self.telemetry.record(
            idx as u64,
            self.now.get(),
            TelemetryEvent::ALL,
            EventKind::ContactPhaseChange,
        );
        self.apply_period_entry(idx);
    }

    /// Applies entry rules of period `idx` (assumed in force at `self.now`).
    fn apply_period_entry(&mut self, idx: usize) {
        let kind = self.schedule.periods()[idx].kind;
        match kind {
            PeriodKind::Good { pi0, kind } => {
                // π0 members must be up and meeting the Φ+ bound from the
                // very start of the period.
                for p in pi0.iter() {
                    if self.slots[p.index()].down {
                        self.recover(p);
                    } else {
                        self.slots[p.index()].step_gen += 1;
                        let first = self.first_step_offset(p);
                        self.schedule_step(p, first);
                    }
                }
                if kind == GoodKind::PiDown {
                    for p in pi0.complement(self.cfg.n).iter() {
                        self.crash(p, true);
                    }
                }
            }
            PeriodKind::Bad(_) => {
                // Forced-down processes come back up when the π0-down good
                // period ends.
                for p in (0..self.cfg.n).map(ProcessId::new) {
                    if self.slots[p.index()].forced_down {
                        self.recover(p);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BadPeriodConfig;
    use crate::schedule::Period;
    use ho_core::process::ProcessSet;

    /// Broadcasts a counter, then receives forever; records everything.
    #[derive(Clone, Debug, Default)]
    struct Chatter {
        sent: u64,
        received: Vec<(ProcessId, u64)>,
        crashes: u64,
        recoveries: u64,
        want_send: bool,
    }

    impl Program for Chatter {
        type Msg = u64;

        fn next_step(&mut self) -> StepKind<u64> {
            self.want_send = !self.want_send;
            if self.want_send {
                self.sent += 1;
                StepKind::send_all(self.sent)
            } else {
                StepKind::Receive
            }
        }

        fn select_message(&mut self, _buffer: &[(ProcessId, WireMsg<u64>)]) -> Option<usize> {
            Some(0)
        }

        fn on_receive(&mut self, message: Option<(ProcessId, WireMsg<u64>)>) {
            if let Some((q, m)) = message {
                self.received.push((q, *m));
            }
        }

        fn on_crash(&mut self) {
            self.crashes += 1;
        }

        fn on_recover(&mut self) {
            self.recoveries += 1;
        }
    }

    fn all_good_sim(n: usize, phi: f64, delta: f64) -> Simulator<Chatter> {
        let cfg = SimConfig::normalized(n, phi, delta);
        let schedule = Schedule::always_good(ProcessSet::full(n), GoodKind::PiDown);
        Simulator::new(cfg, schedule, vec![Chatter::default(); n])
    }

    #[test]
    fn messages_flow_in_good_period() {
        let mut sim = all_good_sim(3, 1.0, 2.0);
        sim.run_for(TimePoint::new(50.0));
        for p in sim.programs() {
            assert!(p.sent > 10, "everyone keeps sending");
            assert!(!p.received.is_empty(), "everyone receives");
        }
        assert_eq!(sim.stats().dropped, 0, "no loss in an all-good run");
    }

    #[test]
    fn good_period_step_rate_is_bounded() {
        // Worst-case timing: steps every Φ+ exactly. In 100 time units with
        // Φ+ = 2, a process takes about 50 steps.
        let mut sim = all_good_sim(2, 2.0, 1.0);
        sim.run_for(TimePoint::new(100.0));
        let steps = sim.stats().total_steps();
        assert!((2 * 45..=2 * 51).contains(&steps), "got {steps}");
    }

    #[test]
    fn good_period_delivery_within_delta() {
        // With worst-case delay = Δ every delivery is exactly Δ after the
        // send; the first receive at time ≥ Φ+ + Δ can see a message.
        let mut sim = all_good_sim(2, 1.0, 3.0);
        sim.run_for(TimePoint::new(30.0));
        assert!(sim.stats().delivered() > 0);
        // In-flight messages at the deadline are neither delivered nor
        // dropped yet.
        assert!(sim.stats().delivered() + sim.stats().dropped <= sim.stats().transmissions);
    }

    #[test]
    fn pi_down_forces_outsiders_down() {
        let n = 3;
        let pi0 = ProcessSet::from_indices([0, 1]);
        let cfg = SimConfig::normalized(n, 1.0, 1.0);
        let schedule = Schedule::always_good(pi0, GoodKind::PiDown);
        let mut sim = Simulator::new(cfg, schedule, vec![Chatter::default(); n]);
        sim.run_for(TimePoint::new(20.0));
        assert!(sim.is_down(ProcessId::new(2)));
        assert_eq!(sim.program(ProcessId::new(2)).sent, 0, "down from t=0");
        assert!(sim.program(ProcessId::new(0)).sent > 0);
    }

    #[test]
    fn bad_period_loses_messages() {
        let n = 2;
        let cfg = SimConfig::normalized(n, 1.0, 1.0).with_seed(7);
        let bad = BadPeriodConfig {
            loss: 1.0,
            crash_prob: 0.0,
            ..BadPeriodConfig::default()
        };
        let schedule = Schedule::new(vec![Period {
            start: TimePoint::ZERO,
            kind: PeriodKind::Bad(bad),
        }]);
        let mut sim = Simulator::new(cfg, schedule, vec![Chatter::default(); n]);
        sim.run_for(TimePoint::new(50.0));
        assert_eq!(sim.stats().delivered(), 0, "loss = 1.0 drops everything");
        assert!(sim.stats().dropped > 0);
    }

    #[test]
    fn bad_then_good_transition_recovers_flow() {
        let n = 3;
        let cfg = SimConfig::normalized(n, 1.0, 1.0).with_seed(3);
        let bad = BadPeriodConfig {
            loss: 1.0,
            crash_prob: 0.0,
            ..BadPeriodConfig::default()
        };
        let schedule = Schedule::bad_then_good(
            bad,
            TimePoint::new(30.0),
            ProcessSet::full(n),
            GoodKind::PiDown,
        );
        let mut sim = Simulator::new(cfg, schedule, vec![Chatter::default(); n]);
        sim.run_for(TimePoint::new(29.0));
        assert_eq!(sim.stats().delivered(), 0);
        sim.run_for(TimePoint::new(60.0));
        assert!(sim.stats().delivered() > 0, "good period delivers");
    }

    #[test]
    fn crashes_and_recoveries_fire_hooks() {
        let n = 2;
        let cfg = SimConfig::normalized(n, 1.0, 1.0).with_seed(11);
        let bad = BadPeriodConfig {
            crash_prob: 0.2,
            min_down: 1.0,
            max_down: 3.0,
            slow_factor: 1.0,
            extra_delay_factor: 0.0,
            ..BadPeriodConfig::calm()
        };
        let schedule = Schedule::new(vec![Period {
            start: TimePoint::ZERO,
            kind: PeriodKind::Bad(bad),
        }]);
        let mut sim = Simulator::new(cfg, schedule, vec![Chatter::default(); n]);
        sim.run_for(TimePoint::new(200.0));
        assert!(sim.stats().crashes > 0, "crash roulette fires");
        assert!(sim.stats().recoveries > 0, "recoveries follow");
        let total_hooks: u64 = sim.programs().iter().map(|p| p.crashes).sum();
        assert_eq!(total_hooks, sim.stats().crashes);
    }

    #[test]
    fn telemetry_records_engine_events() {
        let n = 2;
        let cfg = SimConfig::normalized(n, 1.0, 1.0).with_seed(11);
        let bad = BadPeriodConfig {
            crash_prob: 0.2,
            min_down: 1.0,
            max_down: 3.0,
            slow_factor: 1.0,
            extra_delay_factor: 0.0,
            ..BadPeriodConfig::calm()
        };
        let schedule = Schedule::bad_then_good(
            bad,
            TimePoint::new(100.0),
            ProcessSet::full(n),
            GoodKind::PiDown,
        );
        let mut sim = Simulator::new(cfg, schedule, vec![Chatter::default(); n]);
        sim.set_telemetry(Telemetry::with_capacity(256));
        sim.run_for(TimePoint::new(200.0));
        let stats = sim.stats().clone();
        let telemetry = sim.take_telemetry();
        assert!(!sim.telemetry().is_on(), "handle taken");
        let s = telemetry.summary().expect("recorder was on");
        assert_eq!(
            s.count(&EventKind::SchedulerDispatch { queue_depth: 0 }),
            stats.events_dispatched
        );
        assert_eq!(s.count(&EventKind::ProcessCrash), stats.crashes);
        assert_eq!(s.count(&EventKind::ProcessRecover), stats.recoveries);
        assert_eq!(s.count(&EventKind::ContactPhaseChange), 1, "one boundary");
        // The ring wrapped (dispatches far exceed its capacity) and the
        // truncation is counted, not hidden.
        assert!(s.events_dropped > 0);
        assert_eq!(s.events_recorded - s.events_dropped, 256);
    }

    #[test]
    fn run_until_stop_condition() {
        let mut sim = all_good_sim(2, 1.0, 1.0);
        let fired = sim.run_until(TimePoint::new(1000.0), |s| {
            s.programs().iter().any(|p| p.sent >= 5)
        });
        assert!(fired);
        assert!(sim.now().get() < 1000.0);
    }

    /// The cached period index against the schedule's own lookup, after
    /// every event and across `run_for`-style slices — in release builds
    /// too, where the `debug_assert` in `period_index` is compiled out.
    /// Integer period lengths under worst-case timing make boundaries tie
    /// with step and delivery timestamps; the jittered run scatters them.
    #[test]
    fn cached_period_is_the_schedule_lookup_at_every_event() {
        let n = 4;
        let pi0 = ProcessSet::from_indices(0..n - 1);
        for (step, delay) in [
            (StepTiming::WorstCase, DelayTiming::WorstCase),
            (StepTiming::Jittered, DelayTiming::Jittered),
        ] {
            for kind in [GoodKind::PiDown, GoodKind::PiArbitrary] {
                let cfg = SimConfig::normalized(n, 1.0, 2.0)
                    .with_seed(5)
                    .with_step_timing(step)
                    .with_delay_timing(delay);
                let schedule =
                    Schedule::alternating(BadPeriodConfig::lossy(0.3), 3.0, 5.0, 30, pi0, kind);
                let boundaries = schedule.periods().len() as u64 - 1;
                let mut sim = Simulator::new(cfg, schedule, vec![Chatter::default(); n]);
                let mut seen = 0u64;
                for slice in 1..=10 {
                    // Slice ends fall inside periods and on boundaries.
                    let deadline = TimePoint::new(f64::from(slice) * 26.0);
                    sim.run_until(deadline, |s| {
                        let cached: *const Period = &s.schedule.periods()[s.period_idx];
                        assert!(std::ptr::eq(cached, s.schedule.at(s.now)), "{}", s.now);
                        seen = seen.max(s.period_idx as u64);
                        false
                    });
                }
                assert_eq!(seen, boundaries, "the run crossed every boundary");
            }
        }
    }

    #[test]
    fn omissive_bad_period_drops_transmissions() {
        let n = 3;
        let cfg = SimConfig::normalized(n, 1.0, 1.0).with_seed(13);
        let bad = BadPeriodConfig::omissive(0.5, 0.5);
        let schedule = Schedule::new(vec![Period {
            start: TimePoint::ZERO,
            kind: PeriodKind::Bad(bad),
        }]);
        let mut sim = Simulator::new(cfg, schedule, vec![Chatter::default(); n]);
        sim.run_for(TimePoint::new(100.0));
        let s = sim.stats();
        // fault prob = 1 − 0.5·0.5 = 0.75; allow wide tolerance.
        let ratio = s.dropped as f64 / s.transmissions as f64;
        assert!(ratio > 0.6 && ratio < 0.9, "drop ratio {ratio}");
    }

    #[test]
    fn fast_outsiders_step_faster_than_phi_minus() {
        // A speedy bad period lets processes step well below the Φ− gap —
        // the arbitrarily-fast regime of the real-valued-clock remark.
        let n = 1;
        let cfg = SimConfig::normalized(n, 1.0, 1.0).with_seed(2);
        let schedule = Schedule::new(vec![Period {
            start: TimePoint::ZERO,
            kind: PeriodKind::Bad(BadPeriodConfig::speedy(10.0)),
        }]);
        let mut sim = Simulator::new(cfg, schedule, vec![Chatter::default(); n]);
        sim.run_for(TimePoint::new(100.0));
        // With gaps in [0.1, 1.0], expect far more than 100 steps.
        assert!(
            sim.stats().total_steps() > 150,
            "steps {}",
            sim.stats().total_steps()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let n = 3;
            let cfg = SimConfig::normalized(n, 1.5, 2.0)
                .with_seed(seed)
                .with_step_timing(StepTiming::Jittered)
                .with_delay_timing(DelayTiming::Jittered);
            let schedule = Schedule::bad_then_good(
                BadPeriodConfig::lossy(0.5),
                TimePoint::new(20.0),
                ProcessSet::full(n),
                GoodKind::PiDown,
            );
            let mut sim = Simulator::new(cfg, schedule, vec![Chatter::default(); n]);
            sim.run_for(TimePoint::new(100.0));
            (sim.stats().clone(), sim.programs()[0].received.clone())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds diverge");
    }
}
