//! # ho-harness — the parallel scenario-sweep harness
//!
//! Executes thousands of (algorithm × adversary × size × seed) consensus
//! scenarios concurrently on the round-synchronous machine, collecting
//! per-scenario verdicts — decided round, safety violations, message-cost
//! accounting — into an aggregated [`SweepReport`].
//!
//! The sweep rides on the [`SendPlan`](ho_core::SendPlan) kernel: every
//! scenario records the kernel's payload allocations (`O(n)` per
//! broadcast round) next to its deliveries (`O(n²)`), and
//! `tests/sweep_properties.rs` checks that ratio across the grid.
//!
//! All three builders ([`Sweep`], [`SimSweep`], [`RsmSweep`]) run the same
//! pipeline: materialise the grid, map it over one worker pool (workers
//! claim one scenario at a time and merge their verdicts back into grid
//! order), aggregate. A report is a function of its verdicts alone — it
//! records no wall-clock rate, worker count or scheduling parameter — so
//! apart from per-verdict timings (`wall_nanos`, telemetry ticks) it is
//! the same at any worker count (`tests/harness_pins.rs` pins this).
//! Timing lives in the separate `benchmark/` workspace, which reads each
//! model and sim verdict's `wall_nanos`.
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
mod par;
pub mod report;
pub mod rsm;
pub mod scenario;
pub mod sim;
pub mod sweep;

pub use json::Json;
pub use report::{
    forensic_artifact_json, repro_command, rsm_verdict_json, sim_verdict_json,
    telemetry_event_json, telemetry_summary_json, verdict_json, JsonFields, MessageTotals,
    PredicateTotals, SweepReport,
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
