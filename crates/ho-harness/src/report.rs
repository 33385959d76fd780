//! Aggregated sweep results and the JSON form of single verdicts.

use ho_core::telemetry::{Event, EventKind, Phase, TelemetrySummary};
use ho_predicates::monitor::PredicateSummary;

use crate::json::Json;
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
    /// Message-cost totals.
    pub totals: MessageTotals,
    /// Predicate-statistics totals over the monitored verdicts.
    pub predicate_totals: PredicateTotals,
    /// Merged telemetry digest over the recorded verdicts (`None` when the
    /// sweep ran with the recorder off).
    pub telemetry_totals: Option<TelemetrySummary>,
}

impl SweepReport {
    /// Folds verdicts into a report.
    #[must_use]
    pub fn aggregate(verdicts: Vec<Verdict>) -> Self {
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
        SweepReport {
            scenarios,
            decided,
            violations,
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
        .float("commands_per_round", v.commands_per_round())
        .uint("latency_samples", v.latency_samples)
        .opt_uint("latency_p50", v.latency_p50)
        .opt_uint("latency_p90", v.latency_p90)
        .opt_uint("latency_p99", v.latency_p99)
        .opt_uint("latency_max", v.latency_max)
        .uint("payload_allocs", v.payload_allocs)
        .uint("payload_reuses", v.payload_reuses)
        .uint("delivered", v.delivered_messages);
    if let Some(t) = &v.telemetry {
        fields = fields.field("telemetry", telemetry_summary_json(t));
    }
    fields.build()
}
