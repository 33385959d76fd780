//! Aggregated sweep results and their JSON form.

use std::collections::BTreeMap;
use std::time::Duration;

use ho_core::telemetry::{Event, EventKind, Phase, TelemetrySummary};
use ho_predicates::monitor::PredicateSummary;

use crate::json::Json;
use crate::par::ChunkPolicy;
use crate::scenario::Verdict;

/// Incremental object builder shared by every verdict/summary emitter —
/// the model-layer, sim-layer and rsm-layer documents all spell optional
/// counters (`value | null`) and scalar fields the same way, so none of
/// them hand-rolls `map_or(Json::Null, …)` chains.
#[derive(Debug, Default)]
pub struct JsonFields(Vec<(String, Json)>);

impl JsonFields {
    /// An empty object under construction.
    #[must_use]
    pub fn new() -> Self {
        JsonFields::default()
    }

    /// Appends an already-built value.
    #[must_use]
    pub fn field(mut self, key: &str, value: Json) -> Self {
        self.0.push((key.to_owned(), value));
        self
    }

    /// Appends an exact unsigned counter.
    #[must_use]
    pub fn uint(self, key: &str, value: u64) -> Self {
        self.field(key, Json::UInt(value))
    }

    /// Appends an optional counter (`null` when absent).
    #[must_use]
    pub fn opt_uint(self, key: &str, value: Option<u64>) -> Self {
        self.field(key, value.map_or(Json::Null, Json::UInt))
    }

    /// Appends a floating-point rate.
    #[must_use]
    pub fn float(self, key: &str, value: f64) -> Self {
        self.field(key, Json::Float(value))
    }

    /// Appends an optional floating-point rate (`null` when the quantity
    /// is undefined — e.g. a ratio over an empty denominator).
    #[must_use]
    pub fn opt_float(self, key: &str, value: Option<f64>) -> Self {
        self.field(key, value.map_or(Json::Null, Json::Float))
    }

    /// Appends a boolean.
    #[must_use]
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.field(key, Json::Bool(value))
    }

    /// Appends a string.
    #[must_use]
    pub fn str(self, key: &str, value: impl Into<String>) -> Self {
        self.field(key, Json::Str(value.into()))
    }

    /// Appends an optional string (`null` when absent).
    #[must_use]
    pub fn opt_str(self, key: &str, value: Option<String>) -> Self {
        self.field(key, value.map_or(Json::Null, Json::Str))
    }

    /// Finishes the object.
    #[must_use]
    pub fn build(self) -> Json {
        Json::Obj(self.0.into_iter().collect())
    }
}

/// Message-cost totals across a sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MessageTotals {
    /// Payload constructions under the SendPlan kernel.
    pub payload_allocs: u64,
    /// Constructions served from recycled buffers (no allocator traffic).
    pub payload_reuses: u64,
    /// Messages delivered into mailboxes.
    pub delivered: u64,
    /// Rounds executed across all scenarios.
    pub rounds: u64,
}

impl MessageTotals {
    /// Constructions that actually hit the allocator.
    #[must_use]
    pub fn fresh_allocs(&self) -> u64 {
        self.payload_allocs - self.payload_reuses
    }

    /// Folds one run's [`MessageStats`](ho_core::MessageStats) — from
    /// either execution layer — into the totals.
    pub fn absorb_stats(&mut self, stats: &ho_core::MessageStats) {
        self.payload_allocs += stats.payload_allocs;
        self.payload_reuses += stats.payload_reuses;
        self.delivered += stats.delivered;
    }
}

/// Grid-wide predicate statistics, aggregated over the monitored verdicts
/// of a sweep (all zero when the sweep ran unmonitored).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredicateTotals {
    /// Verdicts that carried a [`PredicateSummary`].
    pub monitored: usize,
    /// Rounds observed across monitored scenarios.
    pub rounds: u64,
    /// Rounds with a non-empty kernel (`P_nek` held).
    pub nek_rounds: u64,
    /// Monitored scenarios in which some round had an empty kernel.
    pub empty_kernel_scenarios: usize,
    /// Monitored scenarios that achieved `P2_otr(Π)`.
    pub p2otr_scenarios: usize,
    /// The largest kernel window seen in any monitored scenario.
    pub largest_kernel_window: u64,
    /// The largest space-uniform window seen in any monitored scenario.
    pub largest_uniform_window: u64,
}

impl PredicateTotals {
    /// Folds another report's totals into this one (used when a grid is
    /// split across several sweeps).
    pub fn merge(&mut self, other: &PredicateTotals) {
        self.monitored += other.monitored;
        self.rounds += other.rounds;
        self.nek_rounds += other.nek_rounds;
        self.empty_kernel_scenarios += other.empty_kernel_scenarios;
        self.p2otr_scenarios += other.p2otr_scenarios;
        self.largest_kernel_window = self.largest_kernel_window.max(other.largest_kernel_window);
        self.largest_uniform_window = self
            .largest_uniform_window
            .max(other.largest_uniform_window);
    }

    fn absorb(&mut self, s: &PredicateSummary) {
        self.monitored += 1;
        self.rounds += s.rounds;
        self.nek_rounds += s.nek_rounds;
        self.empty_kernel_scenarios += usize::from(s.first_empty_kernel.is_some());
        self.p2otr_scenarios += usize::from(s.first_p2otr.is_some());
        self.largest_kernel_window = self.largest_kernel_window.max(s.largest_kernel_window);
        self.largest_uniform_window = self.largest_uniform_window.max(s.largest_uniform_window);
    }
}

/// The aggregated outcome of a [`Sweep`](crate::Sweep) run.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Per-scenario verdicts, in grid order.
    pub verdicts: Vec<Verdict>,
    /// Number of scenarios executed.
    pub scenarios: usize,
    /// Scenarios in which every process decided.
    pub decided: usize,
    /// Scenarios that hit a consensus safety violation.
    pub violations: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Throughput.
    pub scenarios_per_sec: f64,
    /// Worker threads used.
    pub threads: usize,
    /// The work-stealing chunk policy the sweep ran under (recorded so a
    /// chunk-tuning run is self-describing).
    pub chunk: ChunkPolicy,
    /// Message-cost totals.
    pub totals: MessageTotals,
    /// Predicate-statistics totals over the monitored verdicts.
    pub predicate_totals: PredicateTotals,
    /// Merged telemetry digest over the recorded verdicts (`None` when the
    /// sweep ran with the recorder off).
    pub telemetry_totals: Option<TelemetrySummary>,
}

impl SweepReport {
    /// Folds verdicts into a report run under the given chunk policy.
    #[must_use]
    pub fn aggregate(
        verdicts: Vec<Verdict>,
        elapsed: Duration,
        threads: usize,
        chunk: ChunkPolicy,
    ) -> Self {
        let scenarios = verdicts.len();
        let decided = verdicts.iter().filter(|v| v.all_decided()).count();
        let violations = verdicts.iter().filter(|v| !v.is_safe()).count();
        let totals = MessageTotals {
            payload_allocs: verdicts.iter().map(|v| v.payload_allocs).sum(),
            payload_reuses: verdicts.iter().map(|v| v.payload_reuses).sum(),
            delivered: verdicts.iter().map(|v| v.delivered_messages).sum(),
            rounds: verdicts.iter().map(|v| v.rounds_run).sum(),
        };
        let mut predicate_totals = PredicateTotals::default();
        for summary in verdicts.iter().filter_map(|v| v.predicates.as_ref()) {
            predicate_totals.absorb(summary);
        }
        let telemetry_totals = merge_telemetry(verdicts.iter().map(|v| v.telemetry.as_ref()));
        let wall_seconds = elapsed.as_secs_f64();
        SweepReport {
            scenarios,
            decided,
            violations,
            wall_seconds,
            scenarios_per_sec: if wall_seconds > 0.0 {
                scenarios as f64 / wall_seconds
            } else {
                f64::INFINITY
            },
            threads,
            chunk,
            totals,
            predicate_totals,
            telemetry_totals,
            verdicts,
        }
    }

    /// The verdicts that hit a safety violation.
    #[must_use]
    pub fn violating(&self) -> Vec<&Verdict> {
        self.verdicts.iter().filter(|v| !v.is_safe()).collect()
    }

    /// Per-(algorithm, adversary) decided/violation counts — the table the
    /// sweep exists to produce.
    #[must_use]
    pub fn by_cell(&self) -> BTreeMap<(String, String), (usize, usize, usize)> {
        let mut cells: BTreeMap<(String, String), (usize, usize, usize)> = BTreeMap::new();
        for v in &self.verdicts {
            let cell = cells
                .entry((v.algorithm.to_owned(), v.adversary.clone()))
                .or_default();
            cell.0 += 1;
            if v.all_decided() {
                cell.1 += 1;
            }
            if !v.is_safe() {
                cell.2 += 1;
            }
        }
        cells
    }

    /// The JSON document `crates/bench` writes as `BENCH_sweep.json`.
    ///
    /// `include_verdicts` controls whether the full per-scenario list is
    /// embedded (large) or only the aggregates and the per-cell table.
    #[must_use]
    pub fn to_json(&self, include_verdicts: bool) -> Json {
        // Per-cell recorder drop counts (telemetry-on sweeps only): ring
        // wrap is visible truncation and must surface next to the cell it
        // truncated.
        let mut dropped_by_cell: BTreeMap<(String, String), u64> = BTreeMap::new();
        for v in &self.verdicts {
            if let Some(t) = &v.telemetry {
                *dropped_by_cell
                    .entry((v.algorithm.to_owned(), v.adversary.clone()))
                    .or_default() += t.events_dropped;
            }
        }
        let cells: Vec<Json> = self
            .by_cell()
            .into_iter()
            .map(|((alg, adv), (total, decided, violations))| {
                let dropped = dropped_by_cell.get(&(alg.clone(), adv.clone())).copied();
                JsonFields::new()
                    .str("algorithm", alg)
                    .str("adversary", adv)
                    .uint("scenarios", total as u64)
                    .uint("decided", decided as u64)
                    .uint("violations", violations as u64)
                    .opt_uint("events_dropped", dropped)
                    .build()
            })
            .collect();
        let mut fields = vec![
            ("scenarios", Json::UInt(self.scenarios as u64)),
            ("decided", Json::UInt(self.decided as u64)),
            ("violations", Json::UInt(self.violations as u64)),
            ("wall_seconds", Json::Float(self.wall_seconds)),
            ("scenarios_per_sec", Json::Float(self.scenarios_per_sec)),
            ("threads", Json::UInt(self.threads as u64)),
            ("chunk", chunk_policy_json(&self.chunk)),
            (
                "messages",
                Json::obj([
                    ("payload_allocs", Json::UInt(self.totals.payload_allocs)),
                    ("payload_reuses", Json::UInt(self.totals.payload_reuses)),
                    ("fresh_allocs", Json::UInt(self.totals.fresh_allocs())),
                    ("delivered", Json::UInt(self.totals.delivered)),
                    ("rounds", Json::UInt(self.totals.rounds)),
                ]),
            ),
            ("cells", Json::Arr(cells)),
        ];
        if self.predicate_totals.monitored > 0 {
            fields.push(("predicates", predicate_totals_json(&self.predicate_totals)));
        }
        if let Some(t) = &self.telemetry_totals {
            fields.push(("telemetry", telemetry_summary_json(t)));
        }
        if include_verdicts {
            fields.push((
                "verdicts",
                Json::Arr(self.verdicts.iter().map(verdict_json).collect()),
            ));
        }
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }
}

/// Merges per-verdict telemetry digests; `None` when no verdict carried
/// one (recorder-off sweeps add nothing to any report).
fn merge_telemetry<'a>(
    summaries: impl Iterator<Item = Option<&'a TelemetrySummary>>,
) -> Option<TelemetrySummary> {
    let mut merged: Option<TelemetrySummary> = None;
    for s in summaries.flatten() {
        merged
            .get_or_insert_with(TelemetrySummary::default)
            .merge(s);
    }
    merged
}

/// The JSON form of one run's [`TelemetrySummary`]: event totals by kind
/// plus the per-phase time breakdown. Span ticks are raw (`rdtsc` cycles
/// or nanoseconds, platform-dependent), so the `share` fields — fractions
/// of the run's total timed ticks — are the unit-agnostic numbers to read.
#[must_use]
pub fn telemetry_summary_json(s: &TelemetrySummary) -> Json {
    let events = Json::Obj(
        EventKind::names()
            .iter()
            .zip(&s.kind_counts)
            .map(|(name, count)| ((*name).to_owned(), Json::UInt(*count)))
            .collect(),
    );
    let phases = Json::Obj(
        Phase::all()
            .iter()
            .map(|p| {
                (
                    p.name().to_owned(),
                    JsonFields::new()
                        .uint("ticks", s.phase_ticks[*p as usize])
                        .uint("spans", s.phase_spans[*p as usize])
                        .float("share", s.phase_share(*p))
                        .build(),
                )
            })
            .collect(),
    );
    JsonFields::new()
        .uint("events_recorded", s.events_recorded)
        .uint("events_dropped", s.events_dropped)
        .field("events", events)
        .field("phases", phases)
        .build()
}

/// The JSON form of one flight-recorder [`Event`] (a forensic-artifact
/// row): `process` is `null` for whole-system events, `detail` carries the
/// kind's scalar (count, queue depth, witness round) when it has one.
#[must_use]
pub fn telemetry_event_json(e: &Event) -> Json {
    JsonFields::new()
        .uint("round", e.round)
        .float("time", e.time)
        .opt_uint(
            "process",
            (e.process != Event::ALL).then_some(u64::from(e.process)),
        )
        .str("kind", e.kind.name())
        .opt_uint("detail", e.kind.detail())
        .build()
}

/// The exact command that reruns one scenario from the committed grids —
/// what forensic artifacts embed as their `repro` line.
#[must_use]
pub fn repro_command(scenario_id: &str) -> String {
    format!("cargo run --release -p bench --bin sweep -- --scenario {scenario_id}")
}

/// A self-contained forensic artifact: the violated scenario, its seed,
/// the exact repro command, the run's telemetry digest and the drained
/// flight-recorder ring (the last K events leading up to the violation).
#[must_use]
pub fn forensic_artifact_json(
    scenario_id: &str,
    seed: u64,
    violation: &str,
    telemetry: Option<&TelemetrySummary>,
    events: &[Event],
) -> Json {
    let mut fields = JsonFields::new()
        .str("scenario", scenario_id)
        .uint("seed", seed)
        .str("violation", violation)
        .str("repro", repro_command(scenario_id));
    if let Some(t) = telemetry {
        fields = fields.field("telemetry", telemetry_summary_json(t));
    }
    fields
        .field(
            "events",
            Json::Arr(events.iter().map(telemetry_event_json).collect()),
        )
        .build()
}

/// The JSON form of a sim-layer sweep ([`SimReport`](crate::SimReport)) —
/// the `sim_layer` section of `BENCH_sweep.json`.
///
/// `include_verdicts` controls whether the full per-scenario list is
/// embedded or only the aggregates.
#[must_use]
pub fn sim_report_json(report: &crate::sim::SimReport, include_verdicts: bool) -> Json {
    let mut fields = vec![
        ("scenarios", Json::UInt(report.scenarios as u64)),
        ("achieved", Json::UInt(report.achieved as u64)),
        ("violations", Json::UInt(report.violations as u64)),
        ("wall_seconds", Json::Float(report.wall_seconds)),
        ("scenarios_per_sec", Json::Float(report.scenarios_per_sec)),
        ("events_dispatched", Json::UInt(report.events_dispatched)),
        ("peak_queue_depth", Json::UInt(report.peak_queue_depth)),
        ("events_per_sec", Json::Float(report.events_per_sec)),
        ("threads", Json::UInt(report.threads as u64)),
        ("chunk", chunk_policy_json(&report.chunk)),
        (
            "delivery",
            Json::obj([
                ("transmissions", Json::UInt(report.transmissions)),
                ("delivered", Json::UInt(report.totals.delivered)),
                ("dropped", Json::UInt(report.dropped)),
                ("crashes", Json::UInt(report.crashes)),
            ]),
        ),
        (
            "messages",
            Json::obj([
                ("payload_allocs", Json::UInt(report.totals.payload_allocs)),
                ("payload_reuses", Json::UInt(report.totals.payload_reuses)),
                ("fresh_allocs", Json::UInt(report.totals.fresh_allocs())),
                ("rounds", Json::UInt(report.totals.rounds)),
            ]),
        ),
    ];
    if let Some(t) = merge_telemetry(report.verdicts.iter().map(|v| v.telemetry.as_ref())) {
        fields.push(("telemetry", telemetry_summary_json(&t)));
    }
    if include_verdicts {
        fields.push((
            "verdicts",
            Json::Arr(report.verdicts.iter().map(sim_verdict_json).collect()),
        ));
    }
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The JSON form of one sim-layer verdict.
#[must_use]
pub fn sim_verdict_json(v: &crate::sim::SimVerdict) -> Json {
    let mut fields = JsonFields::new()
        .str("id", v.id())
        .bool("achieved", v.achieved)
        .bool("within_bound", v.within_bound)
        .field(
            "empirical_length",
            v.empirical_length.map_or(Json::Null, Json::Float),
        )
        .float("bound", v.bound)
        .opt_uint("rho0", v.rho0)
        .opt_str("violation", v.violation.clone())
        .uint("max_round", v.max_round)
        .uint("transmissions", v.transmissions)
        .uint("delivered", v.messages.delivered)
        .uint("payload_allocs", v.messages.payload_allocs)
        .uint("payload_reuses", v.messages.payload_reuses)
        .uint("wall_nanos", v.wall_nanos);
    if let Some(t) = &v.telemetry {
        fields = fields.field("telemetry", telemetry_summary_json(t));
    }
    fields.build()
}

/// The JSON form of the work-stealing [`ChunkPolicy`] a sweep ran under.
#[must_use]
pub fn chunk_policy_json(policy: &ChunkPolicy) -> Json {
    JsonFields::new()
        .uint("target_claims", policy.target_claims as u64)
        .uint("max_chunk", policy.max_chunk as u64)
        .build()
}

/// The JSON form of one model-layer verdict.
#[must_use]
pub fn verdict_json(v: &Verdict) -> Json {
    let mut fields = JsonFields::new()
        .str("id", v.id())
        .opt_uint("decided_round", v.decided_round)
        .opt_uint("decision", v.decision_value)
        .opt_str("violation", v.violation.clone())
        .uint("rounds", v.rounds_run)
        .uint("payload_allocs", v.payload_allocs)
        .uint("payload_reuses", v.payload_reuses)
        .uint("delivered", v.delivered_messages);
    if let Some(p) = &v.predicates {
        fields = fields.field("predicates", predicate_summary_json(p));
    }
    if let Some(t) = &v.telemetry {
        fields = fields.field("telemetry", telemetry_summary_json(t));
    }
    fields.build()
}

/// The JSON form of a per-scenario [`PredicateSummary`].
#[must_use]
pub fn predicate_summary_json(s: &PredicateSummary) -> Json {
    JsonFields::new()
        .uint("rounds", s.rounds)
        .uint("nek_rounds", s.nek_rounds)
        .opt_uint("first_empty_kernel", s.first_empty_kernel)
        .uint("largest_kernel_window", s.largest_kernel_window)
        .uint("uniform_rounds", s.uniform_rounds)
        .uint("largest_uniform_window", s.largest_uniform_window)
        .opt_uint("first_p2otr", s.first_p2otr)
        .build()
}

/// The JSON form of grid-wide [`PredicateTotals`] — shared with
/// `crates/bench`, which extends it with throughput fields, so the two
/// documents cannot drift.
#[must_use]
pub fn predicate_totals_json(t: &PredicateTotals) -> Json {
    JsonFields::new()
        .uint("monitored_scenarios", t.monitored as u64)
        .uint("rounds", t.rounds)
        .uint("nek_rounds", t.nek_rounds)
        .uint("empty_kernel_scenarios", t.empty_kernel_scenarios as u64)
        .uint("p2otr_scenarios", t.p2otr_scenarios as u64)
        .uint("largest_kernel_window", t.largest_kernel_window)
        .uint("largest_uniform_window", t.largest_uniform_window)
        .build()
}

/// The JSON form of an rsm-layer sweep ([`RsmReport`](crate::RsmReport)) —
/// the `rsm_layer` section of `BENCH_sweep.json`.
///
/// `include_verdicts` controls whether the full per-scenario list is
/// embedded or only the aggregates and the per-cell table.
#[must_use]
pub fn rsm_report_json(report: &crate::rsm::RsmReport, include_verdicts: bool) -> Json {
    let cells: Vec<Json> = report
        .by_cell()
        .into_iter()
        .map(
            |((algorithm, adversary, depth, shards, workload, lease), cell)| {
                JsonFields::new()
                    .str("algorithm", algorithm)
                    .str("adversary", adversary)
                    .uint("depth", depth as u64)
                    .uint("shards", shards as u64)
                    .str("workload", workload)
                    .bool("lease", lease)
                    .uint("scenarios", cell.scenarios as u64)
                    .uint("violations", cell.violations as u64)
                    .uint("slots", cell.slots)
                    .uint("commands", cell.commands)
                    .uint("generated_commands", cell.generated)
                    .uint("requeued_commands", cell.requeued)
                    .uint("noop_slots", cell.noop_slots)
                    .uint("lease_takeovers", cell.lease_takeovers)
                    .uint("deferred_commands", cell.deferred_commands)
                    .opt_float("requeue_ratio", cell.requeue_ratio())
                    .float("rounds_per_slot", cell.rounds_per_slot())
                    .float("commands_per_sec", cell.commands_per_sec())
                    .uint("worst_p99_latency_rounds", cell.worst_p99_latency)
                    .uint("backfill_entries", cell.backfill_entries)
                    .uint("divergent_rounds", cell.divergent_rounds)
                    .uint("dark_rounds", cell.dark_rounds)
                    .uint("worst_catch_up_rounds", cell.worst_catch_up)
                    .uint("events_dropped", cell.events_dropped)
                    .build()
            },
        )
        .collect();
    let mut fields = JsonFields::new()
        .uint("scenarios", report.scenarios as u64)
        .uint("violations", report.violations as u64)
        .float("wall_seconds", report.wall_seconds)
        .float("scenarios_per_sec", report.scenarios_per_sec)
        .float("commands_per_sec", report.commands_per_sec)
        .uint("threads", report.threads as u64)
        .field("chunk", chunk_policy_json(&report.chunk))
        .field(
            "service",
            JsonFields::new()
                .uint("rounds", report.totals.rounds)
                .uint("slots", report.totals.slots)
                .uint("commands", report.totals.commands)
                .uint("generated_commands", report.totals.generated)
                .uint("requeued_commands", report.totals.requeued)
                .opt_float(
                    "requeue_ratio",
                    (report.totals.commands != 0)
                        .then(|| report.totals.requeued as f64 / report.totals.commands as f64),
                )
                .float("rounds_per_slot", report.rounds_per_slot())
                .uint("worst_p99_latency_rounds", report.totals.worst_p99_latency)
                .build(),
        )
        .field("cells", Json::Arr(cells));
    if let Some(t) = merge_telemetry(report.verdicts.iter().map(|v| v.telemetry.as_ref())) {
        fields = fields.field("telemetry", telemetry_summary_json(&t));
    }
    if include_verdicts {
        fields = fields.field(
            "verdicts",
            Json::Arr(report.verdicts.iter().map(rsm_verdict_json).collect()),
        );
    }
    fields.build()
}

/// The JSON form of one rsm-layer verdict.
#[must_use]
pub fn rsm_verdict_json(v: &crate::rsm::RsmVerdict) -> Json {
    let mut fields = JsonFields::new()
        .str("id", v.id())
        .opt_str("violation", v.violation.clone())
        .uint("rounds", v.rounds_run)
        .uint("shards", v.shards as u64)
        .bool("lease", v.lease)
        .uint("slots", v.slots)
        .uint("min_slots", v.min_slots)
        .uint("noop_slots", v.noop_slots)
        .uint("commands", v.commands)
        .uint("generated_commands", v.generated_commands)
        .uint("requeued_commands", v.requeued_commands)
        .uint("lease_takeovers", v.lease_takeovers)
        .uint("deferred_commands", v.deferred_commands)
        .uint("backfill_entries", v.backfill_entries)
        .uint("divergent_rounds", v.divergent_rounds)
        .uint("dark_rounds", v.dark_rounds)
        .opt_uint("catch_up_rounds", v.catch_up_rounds)
        .opt_float("requeue_ratio", v.requeue_ratio())
        .float("rounds_per_slot", v.rounds_per_slot())
        .float("commands_per_sec", v.commands_per_sec())
        .float("commands_per_round", v.commands_per_round())
        .uint("latency_samples", v.latency_samples)
        .opt_uint("latency_p50", v.latency_p50)
        .opt_uint("latency_p90", v.latency_p90)
        .opt_uint("latency_p99", v.latency_p99)
        .opt_uint("latency_max", v.latency_max)
        .uint("payload_allocs", v.payload_allocs)
        .uint("payload_reuses", v.payload_reuses)
        .uint("delivered", v.delivered_messages)
        .uint("wall_nanos", v.wall_nanos);
    if let Some(t) = &v.telemetry {
        fields = fields.field("telemetry", telemetry_summary_json(t));
    }
    fields.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AdversarySpec, AlgorithmSpec, Scenario};

    fn verdicts(k: usize) -> Vec<Verdict> {
        (0..k)
            .map(|i| {
                Scenario {
                    algorithm: AlgorithmSpec::OneThirdRule,
                    adversary: AdversarySpec::FullDelivery,
                    n: 4,
                    seed: i as u64,
                    max_rounds: 20,
                    cooldown_rounds: 0,
                    monitor_predicates: false,
                    telemetry: false,
                }
                .run()
            })
            .collect()
    }

    #[test]
    fn json_shape() {
        let report = SweepReport::aggregate(
            verdicts(3),
            Duration::from_millis(5),
            2,
            ChunkPolicy::default(),
        );
        let json = report.to_json(true).pretty();
        assert!(json.contains("\"scenarios\": 3"));
        assert!(json.contains("\"cells\""));
        assert!(json.contains("\"verdicts\""));
        assert!(json.contains("one_third_rule/full_delivery"));
        let without = report.to_json(false).pretty();
        assert!(!without.contains("\"verdicts\""));
    }

    #[test]
    fn by_cell_counts() {
        let report = SweepReport::aggregate(
            verdicts(4),
            Duration::from_millis(1),
            1,
            ChunkPolicy::default(),
        );
        let cells = report.by_cell();
        let cell = cells
            .get(&("one_third_rule".to_owned(), "full_delivery".to_owned()))
            .unwrap();
        assert_eq!(*cell, (4, 4, 0));
    }
}
