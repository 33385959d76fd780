//! What the simulator-driven workloads share: one view over Algorithm 2
//! and Algorithm 3 programs, and the tick account that turns the spans of
//! a traced pass into the `sim.*` / `pred.*` / `layer.*` numbers.

use ho_core::telemetry::now_ticks;
use ho_core::HoAlgorithm;
use ho_predicates::record::RoundLog;
use ho_predicates::{Alg2Program, Alg3Program};
use ho_sim::{Program, SimStats};

use crate::protocol::Layers;
use crate::stats;
use crate::timed::Timed;

/// What the benchmark reads of a predicate-implementation program.
pub trait PredProgram: Program + RoundLog {
    /// The HO algorithm the program implements rounds for.
    type Upper: HoAlgorithm;
    fn upper(&self) -> &Self::Upper;
    fn upper_state(&self) -> &<Self::Upper as HoAlgorithm>::State;
    /// The round the process is in (`r_p`, starting at 1).
    fn current_round(&self) -> u64;
    /// INIT broadcasts sent (Algorithm 3; 0 for Algorithm 2).
    fn inits_sent(&self) -> u64;
    fn decision(&self) -> Option<<Self::Upper as HoAlgorithm>::Value> {
        self.upper().decision(self.upper_state())
    }
}

impl<A: HoAlgorithm> PredProgram for Alg2Program<A> {
    type Upper = A;
    fn upper(&self) -> &A {
        self.algorithm()
    }
    fn upper_state(&self) -> &A::State {
        self.state()
    }
    fn current_round(&self) -> u64 {
        self.round()
    }
    fn inits_sent(&self) -> u64 {
        0
    }
}

impl<A: HoAlgorithm> PredProgram for Alg3Program<A> {
    type Upper = A;
    fn upper(&self) -> &A {
        self.algorithm()
    }
    fn upper_state(&self) -> &A::State {
        self.state()
    }
    fn current_round(&self) -> u64 {
        self.round()
    }
    fn inits_sent(&self) -> u64 {
        Alg3Program::inits_sent(self)
    }
}

impl<P: PredProgram> PredProgram for Timed<P> {
    type Upper = P::Upper;
    fn upper(&self) -> &P::Upper {
        self.inner().upper()
    }
    fn upper_state(&self) -> &<P::Upper as HoAlgorithm>::State {
        self.inner().upper_state()
    }
    fn current_round(&self) -> u64 {
        self.inner().current_round()
    }
    fn inits_sent(&self) -> u64 {
        self.inner().inits_sent()
    }
}

/// Ticks the upper algorithm of a traced program spent, split by the crate
/// the code lives in.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpperTicks {
    /// Consensus algorithm and `Translated` (ho-core).
    pub core: u64,
    /// `MultiSlot` self time (ho-rsm).
    pub rsm: u64,
    /// Timed calls behind those ticks.
    pub calls: u64,
}

impl UpperTicks {
    #[must_use]
    pub fn total(self) -> u64 {
        self.core + self.rsm
    }

    pub fn add(&mut self, other: UpperTicks) {
        self.core += other.core;
        self.rsm += other.rsm;
        self.calls += other.calls;
    }
}

/// A single-level upper algorithm (`Timed<OneThirdRule>`,
/// `Timed<Translated<…>>`): all of it is ho-core.
#[must_use]
pub fn core_upper<A: HoAlgorithm>(alg: &Timed<A>) -> UpperTicks {
    UpperTicks {
        core: alg.ticks(),
        rsm: 0,
        calls: alg.calls(),
    }
}

/// The `harness.*` numbers of one facade pass: per-scenario wall times as
/// the verdicts report them, against the wall time of the whole `run()`.
pub fn harness_layers(layers: &mut Layers, facade_ns: u64, mut scenario_ns: Vec<f64>) {
    let inside: f64 = scenario_ns.iter().sum();
    stats::sort(&mut scenario_ns);
    let overhead_share = 1.0 - inside / facade_ns as f64;
    layers.insert(
        "harness.scenario_ns_p50",
        stats::quantile(&scenario_ns, 0.5),
    );
    layers.insert(
        "harness.scenario_ns_p99",
        stats::quantile(&scenario_ns, 0.99),
    );
    layers.insert("harness.overhead_share", overhead_share);
    layers.insert(
        "layer.harness_self_ms",
        overhead_share * facade_ns as f64 * 1e-6,
    );
}

/// The chained clock of one traced pass: every tick between `start` and
/// the last `lap` lands in exactly one bucket.
pub struct Lap {
    last: u64,
}

impl Lap {
    #[must_use]
    pub fn start() -> Self {
        Lap { last: now_ticks() }
    }

    /// Ticks since the previous lap (or the start).
    pub fn lap(&mut self) -> u64 {
        let now = now_ticks();
        let d = now - self.last;
        self.last = now;
        d
    }
}

/// Tick and work totals of a traced pass over simulator cells.
#[derive(Clone, Debug, Default)]
pub struct SimAccount {
    // Top-level spans (chained, disjoint).
    pub programs_built: u64,
    pub sim_built: u64,
    pub run: u64,
    pub retired: u64,
    pub bench: u64,
    // Spans enclosed by `run` — except that the upper algorithm's `init`
    // runs while the programs are built: a few calls per cell against
    // thousands, booked with the rest of `upper`.
    pub program_callbacks: u64,
    pub monitor: u64,
    pub upper: UpperTicks,
    pub timer_calls: u64,
    // Work.
    pub cells: u64,
    pub ops: u64,
    pub events: u64,
    pub steps: u64,
    pub transmissions: u64,
    pub dropped: u64,
    pub peak_queue_depth: u64,
    pub rounds: u64,
    pub inits: u64,
}

impl SimAccount {
    /// Folds one finished cell's engine counters and program totals in.
    /// `upper_of` reads the upper algorithm's ticks off one program.
    pub fn absorb<P: PredProgram>(
        &mut self,
        stats: &SimStats,
        programs: &[Timed<P>],
        upper_of: impl Fn(&P) -> UpperTicks,
    ) {
        self.cells += 1;
        self.events += stats.events_dispatched;
        self.steps += stats.total_steps();
        self.transmissions += stats.transmissions;
        self.dropped += stats.dropped;
        self.peak_queue_depth = self.peak_queue_depth.max(stats.peak_queue_depth);
        for program in programs {
            self.program_callbacks += program.ticks();
            self.timer_calls += program.calls();
            self.rounds += program.inner().current_round() - 1;
            self.inits += program.inner().inits_sent();
            let upper = upper_of(program.inner());
            self.timer_calls += upper.calls;
            self.upper.add(upper);
        }
    }

    /// Self time of the engine: construction, retirement, and the run
    /// minus everything the run called back into.
    #[must_use]
    pub fn sim_self(&self) -> u64 {
        self.sim_built + self.retired + (self.run - self.program_callbacks - self.monitor)
    }

    /// Self time of Algorithms 2/3 and the window monitors.
    #[must_use]
    pub fn pred_self(&self) -> u64 {
        self.programs_built + self.program_callbacks + self.monitor - self.upper.total()
    }

    /// Writes the `sim.*`, `pred.*`, `layer.*` and `trace.*` numbers.
    /// `ns` is nanoseconds per tick, `wall_ms` the pass's wall time.
    pub fn write(&self, layers: &mut Layers, ns: f64, wall_ms: f64) {
        let ms = |ticks: u64| ticks as f64 * ns * 1e-6;
        let per = |ticks: u64, count: u64| {
            if count == 0 {
                0.0
            } else {
                ticks as f64 * ns / count as f64
            }
        };
        let core = self.upper.core;
        let rsm = self.upper.rsm;
        let parts = [core, self.sim_self(), self.pred_self(), rsm, self.bench];
        layers.insert("layer.core_self_ms", ms(core));
        layers.insert("layer.sim_self_ms", ms(self.sim_self()));
        layers.insert("layer.pred_self_ms", ms(self.pred_self()));
        layers.insert("layer.rsm_self_ms", ms(rsm));
        layers.insert("layer.bench_self_ms", ms(self.bench));
        layers.insert(
            "layer.sum_over_wall",
            parts.iter().map(|&t| ms(t)).sum::<f64>() / wall_ms,
        );
        layers.insert("trace.pass_wall_ms", wall_ms);
        layers.insert(
            "trace.timed_region_ms",
            ms(self.programs_built + self.sim_built + self.run + self.retired),
        );
        layers.insert("trace.timer_calls", self.timer_calls as f64);

        layers.insert("sim.events", self.events as f64);
        layers.insert("sim.steps", self.steps as f64);
        layers.insert(
            "sim.engine_self_ns_per_event",
            per(
                self.run - self.program_callbacks - self.monitor,
                self.events,
            ),
        );
        layers.insert(
            "sim.events_per_op",
            self.events as f64 / self.ops.max(1) as f64,
        );
        layers.insert("sim.peak_queue_depth", self.peak_queue_depth as f64);
        layers.insert(
            "sim.dropped_share",
            self.dropped as f64 / self.transmissions.max(1) as f64,
        );
        layers.insert(
            "sim.construct_us_per_cell",
            per(self.sim_built + self.retired, self.cells) * 1e-3,
        );
        layers.insert(
            "pred.program_self_ns_per_step",
            per(self.program_callbacks - self.upper.total(), self.steps),
        );
        layers.insert(
            "pred.steps_per_round",
            self.steps as f64 / self.rounds.max(1) as f64,
        );
        layers.insert("pred.rounds", self.rounds as f64);
        layers.insert("pred.monitor_ns_per_event", per(self.monitor, self.events));
        layers.insert(
            "pred.init_msgs_per_round",
            self.inits as f64 / self.rounds.max(1) as f64,
        );
    }
}
