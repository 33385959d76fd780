//! # ho-core — the Heard-Of round model
//!
//! The model layer of *"Communication Predicates: A High-Level Abstraction
//! for Coping with Transient and Dynamic Faults"* (Hutle & Schiper,
//! DSN 2007).
//!
//! An HO algorithm is a pair of per-round functions `⟨S_p^r, T_p^r⟩`
//! ([`algorithm::HoAlgorithm`]); all benign faults — crashes, recoveries,
//! omissions, link loss — are *transmission faults*, visible to the
//! algorithm only through the heard-of sets `HO(p, r)` recorded in a
//! [`trace::Trace`]. A problem is solved by a pair `⟨A, P⟩` of an algorithm
//! and a [`predicate::Predicate`] over those traces.
//!
//! ```
//! use ho_core::algorithms::OneThirdRule;
//! use ho_core::adversary::EventuallyGood;
//! use ho_core::executor::RoundExecutor;
//! use ho_core::predicate::{Potr, Predicate};
//! use ho_core::process::ProcessSet;
//!
//! // 5 rounds of chaos, then uniform delivery over all four processes:
//! let mut adversary = EventuallyGood::new(5, ProcessSet::full(4), 0.7, 1);
//! let mut exec = RoundExecutor::new(OneThirdRule::new(4), vec![3u64, 1, 4, 1]);
//! exec.run(&mut adversary, 5 + 2).unwrap();
//!
//! // The trace witnesses P_otr, so Theorem 1 applies — and indeed:
//! assert!(Potr.holds(exec.trace()));
//! assert!(exec.decisions().iter().all(Option::is_some));
//! ```

pub mod adversary;
pub mod algorithm;
pub mod algorithms;
pub mod consensus;
pub mod contact;
pub mod executor;
pub mod mailbox;
pub mod observer;
pub mod pool;
pub mod predicate;
pub mod process;
pub mod round;
pub mod send_plan;
pub mod telemetry;
pub mod trace;
pub mod translation;

pub use algorithm::{HoAlgorithm, HoAlgorithmExt};
pub use consensus::{ConsensusChecker, ConsensusViolation};
pub use contact::{contact_seed, ContactPlan, ContactPlanAdversary};
pub use executor::{MessageStats, RoundExecutor, RoundScratch, RunError};
pub use mailbox::{DuplicateSender, Mailbox};
pub use observer::{NullObserver, RoundObserver};
pub use pool::{PayloadPool, PayloadSlot, PooledPayload};
pub use process::{ProcessId, ProcessSet, MAX_PROCESSES};
pub use round::Round;
pub use send_plan::{DeliveryStats, Outbox, PlanSlot, PlanSpares, SendPlan};
pub use telemetry::{
    Event, EventKind, FlightRecorder, Metrics, Phase, Telemetry, TelemetrySummary,
};
pub use trace::{Trace, TraceMode};
pub use translation::Translated;
