//! # ho-sim — the system-level model of §4.1
//!
//! A discrete-event simulator implementing the paper's variant of the
//! DLS partially synchronous model:
//!
//! * a fictitious global **real-valued clock** (`f64`, not integers — see
//!   the paper's remark on why ℝ matters for π0-arbitrary good periods);
//! * processes execute **atomic send / receive steps**; the network's
//!   make-ready step is folded into a bounded-delay delivery event;
//! * **good periods**: every `π0` process takes ≥ 1 step per `Φ+` and
//!   ≤ 1 per `Φ−`; messages between `π0` processes are ready within `Δ`;
//! * **bad periods**: crashes, recoveries, send/receive omission
//!   (as message drops), loss and arbitrary slowness;
//! * good periods come in **π0-down** and **π0-arbitrary** flavours
//!   ([`schedule::GoodKind`]).
//!
//! Processes are [`program::Program`]s: step machines that never see the
//! clock, only their own atomic steps — exactly the information available
//! to a process in the paper's model. The `ho-predicates` crate implements
//! the paper's Algorithms 2 and 3 as such programs.

pub mod config;
pub mod engine;
pub mod program;
pub mod schedule;
pub mod scheduler;
pub mod stats;
pub mod time;

pub use config::{BadPeriodConfig, DelayTiming, SimConfig, StepTiming};
pub use engine::{SimScratch, Simulator};
pub use program::{Program, StepKind, WireMsg};
pub use schedule::{GoodKind, LinkSchedule, Period, PeriodKind, Schedule};
pub use stats::SimStats;
pub use time::TimePoint;
