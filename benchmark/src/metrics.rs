//! The metric and workload tables — the names `BENCHMARK.json` must agree
//! with (`--list` prints them, `ci.sh` diffs them) — and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Host metrics may move by this share between runs of one commit before
/// `--repeat` calls the benchmark unsteady; the simulated metrics must
/// repeat exactly. The same numbers are the bounds in `BENCHMARK.json`.
pub const END_TO_END: [(MetricDef, f64); 5] = [
    (lower("setup_s", "s"), 0.25),
    (higher("throughput_ops_s", "ops/s"), 0.10),
    (lower("sim_latency_p50", "rounds_or_tu"), 0.05),
    (lower("sim_latency_p99", "rounds_or_tu"), 0.15),
    (lower("peak_rss_mib", "MiB"), 0.25),
];

/// End-to-end metrics that are functions of (code, seed) only.
pub const EXACT: [&str; 2] = ["sim_latency_p50", "sim_latency_p99"];

/// Every per-layer metric of the traced run. A workload that does not
/// drive a layer reports that layer's metrics as 0.
pub const PER_LAYER: [MetricDef; 66] = [
    // Host time of the traced pass by layer (self time: a span minus the
    // spans it encloses), and how well the parts add up to the pass.
    lower("layer.core_self_ms", "ms"),
    lower("layer.harness_self_ms", "ms"),
    lower("layer.sim_self_ms", "ms"),
    lower("layer.pred_self_ms", "ms"),
    lower("layer.rsm_self_ms", "ms"),
    lower("layer.bench_self_ms", "ms"),
    lower("layer.sum_over_wall", "ratio"),
    // ho-core: the round executor, adversaries, consensus algorithms.
    lower("core.rounds", "count"),
    lower("core.step_ns", "ns"),
    lower("core.adversary_ns", "ns"),
    lower("core.algorithm_ns", "ns"),
    lower("core.executor_self_ns", "ns"),
    lower("core.delivered_per_round", "count"),
    lower("core.fresh_payload_allocs_per_round", "count"),
    // ho-harness: the Sweep / SimSweep facades.
    lower("harness.scenario_ns_p50", "ns"),
    lower("harness.scenario_ns_p99", "ns"),
    lower("harness.overhead_share", "ratio"),
    // ho-sim: the discrete-event engine.
    lower("sim.events", "count"),
    lower("sim.steps", "count"),
    lower("sim.engine_self_ns_per_event", "ns"),
    lower("sim.events_per_op", "count"),
    lower("sim.peak_queue_depth", "count"),
    lower("sim.dropped_share", "ratio"),
    lower("sim.construct_us_per_cell", "us"),
    // ho-predicates: Algorithms 2 and 3, the window monitors, the bounds.
    lower("pred.program_self_ns_per_step", "ns"),
    lower("pred.steps_per_round", "count"),
    lower("pred.rounds", "count"),
    lower("pred.monitor_ns_per_event", "ns"),
    lower("pred.init_msgs_per_round", "count"),
    lower("pred.bound_tightness_worst", "ratio"),
    lower("pred.late_windows", "count"),
    // ho-rsm: the multi-slot log.
    lower("rsm.multislot_self_ns_per_round", "ns"),
    lower("rsm.inner_consensus_ns_per_round", "ns"),
    lower("rsm.oracle_ms", "ms"),
    lower("rsm.stats_ms", "ms"),
    lower("rsm.rounds_per_slot", "rounds"),
    higher("rsm.cmds_per_slot", "count"),
    lower("rsm.noop_slot_share", "ratio"),
    lower("rsm.requeued_per_applied", "ratio"),
    lower("rsm.lease_takeovers", "count"),
    lower("rsm.backfill_per_applied", "ratio"),
    lower("rsm.divergent_round_share", "ratio"),
    lower("rsm.catch_up_rounds_max", "rounds"),
    lower("rsm.apply_gap_max_rounds", "rounds"),
    lower("rsm.delivered_msgs_per_cmd", "count"),
    lower("rsm.shed_share", "ratio"),
    lower("rsm.ladder_p99_rounds_r1", "rounds"),
    lower("rsm.ladder_p99_rounds_r2", "rounds"),
    lower("rsm.ladder_p99_rounds_r4", "rounds"),
    lower("rsm.ladder_p99_rounds_r8", "rounds"),
    higher("rsm.sustained_rate_cmds_round", "count"),
    higher("rsm.single_node_cmds_s", "ops/s"),
    // The whole stack: MultiSlot over Alg2/Alg3 in the simulator.
    lower("stack.origin_to_all_apply_p50", "tu"),
    lower("stack.origin_to_all_apply_p99", "tu"),
    lower("stack.service_gap_max_tu", "tu"),
    higher("stack.cmds_per_event", "count"),
    lower("stack.slice_wall_ratio_last_first", "ratio"),
    lower("stack.heap_bytes_per_cmd", "B"),
    // The allocator and the tracing itself.
    lower("alloc.count_per_op", "count"),
    lower("alloc.bytes_per_op", "B"),
    lower("trace.pass_wall_ms", "ms"),
    lower("trace.timed_region_ms", "ms"),
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.timer_calls", "count"),
    lower("trace.probe_cells_matched", "count"),
    lower("trace.untraced_pass_ms", "ms"),
];

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "model_grid",
        "ho-core's executor, adversaries and consensus checker do all the work; an engine or log optimisation must read no change here",
    ),
    (
        "sim_grid",
        "ho-sim + Alg2/Alg3 dominate under worst-case timing, where every broadcast coalesces into one event; ho-rsm idle",
    ),
    (
        "sim_jitter",
        "the same engine with jittered delays scattering each broadcast into n events, so a scheduler change that wins sim_grid and loses here shows",
    ),
    (
        "rsm_steady",
        "the replicated log's slot/batch/apply path on the round executor, fault-free and lightly lossy: the log's best case, closed and open loop",
    ),
    (
        "rsm_recovery",
        "the same log under rolling replica outages and 30% loss: lease takeover, requeue, backfill and catch-up, so a steady-state gain paid for in recovery shows",
    ),
    (
        "stack_e2e",
        "client command through MultiSlot, Alg2/Alg3 and the simulated network: every layer works, and command latency is in simulated time units",
    ),
    (
        "stack_soak",
        "one long full-stack run: cost per command grows with run length (the whole log is cloned into stable storage every round), which short cells hide",
    ),
];

/// A run's result: the contract's last line of standard output.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// The single-line JSON object.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite metric value (a bug in the benchmark: JSON
    /// cannot carry it, and no measured quantity is NaN or infinite).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Fills every [`PER_LAYER`] metric from `layers` (0 where a workload does
/// not drive the layer), in table order.
///
/// # Panics
///
/// Panics if `layers` names a metric the table does not have — a typo in a
/// workload would otherwise silently drop a number.
#[must_use]
pub fn per_layer_metrics(
    layers: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64, &'static str)> {
    for name in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "workload reported unknown per-layer metric {name}"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not provide it.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
