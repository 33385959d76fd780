//! # ho-harness — the parallel scenario-sweep harness
//!
//! Executes thousands of (algorithm × adversary × size × seed) consensus
//! scenarios concurrently on the round-synchronous machine, collecting
//! per-scenario verdicts — decided round, safety violations, message-cost
//! accounting — into an aggregated, JSON-serializable [`SweepReport`].
//!
//! The sweep rides on the [`SendPlan`](ho_core::SendPlan) kernel: every
//! scenario records the kernel's payload allocations (`O(n)` per
//! broadcast round) next to its deliveries (`O(n²)`), so
//! `BENCH_sweep.json` tracks both release over release.
//!
//! ```
//! use ho_harness::{AdversarySpec, AlgorithmSpec, Sweep};
//!
//! // 300 scenarios across every core: three algorithms, fifty seeds of
//! // chaos-then-good and fifty of clean delivery. (UniformVoting is kept
//! // out of empty-kernel chaos — its safety predicate P_nek forbids it,
//! // and the sweep *does* catch the violation if you try.)
//! let report = Sweep::new()
//!     .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
//!     .adversaries([
//!         AdversarySpec::FullDelivery,
//!         AdversarySpec::EventuallyGood { bad_rounds: 4, loss: 0.5 },
//!     ])
//!     .sizes([4])
//!     .seeds(0..50)
//!     .run();
//! assert_eq!(report.scenarios, 200);
//! assert_eq!(report.violations, 0);
//! assert!(report.verdicts.iter().all(|v| v.all_decided()));
//! ```

pub mod json;
pub mod par;
pub mod report;
pub mod rsm;
pub mod scenario;
pub mod sim;
pub mod sweep;

pub use json::Json;
pub use par::{
    default_threads, par_map, par_map_weighted_with_policy, par_map_with, par_map_with_policy,
    ChunkPolicy,
};
pub use report::{
    chunk_policy_json, forensic_artifact_json, predicate_totals_json, repro_command,
    rsm_report_json, rsm_verdict_json, sim_report_json, sim_verdict_json, telemetry_event_json,
    telemetry_summary_json, verdict_json, JsonFields, MessageTotals, PredicateTotals, SweepReport,
};
pub use rsm::{RsmCell, RsmCellKey, RsmReport, RsmScenario, RsmSweep, RsmTotals, RsmVerdict};
pub use scenario::{AdversarySpec, AlgorithmSpec, Scenario, ScenarioScratch, Verdict};
pub use sim::{ImplementationSpec, LinkFaultSpec, SimReport, SimScenario, SimSweep, SimVerdict};
pub use sweep::Sweep;

// The per-scenario predicate statistics carried by monitored verdicts.
pub use ho_predicates::monitor::PredicateSummary;

// The rsm layer's workload shapes (axis values for `RsmSweep`).
pub use ho_rsm::WorkloadSpec;

// The contact-plan link schedules (axis values for every sweep layer).
pub use ho_core::contact::ContactPlan;

// The flight-recorder / metrics types carried by telemetry-on verdicts.
pub use ho_core::telemetry::{Event, EventKind, Phase, Telemetry, TelemetrySummary};
