//! # heardof
//!
//! A complete implementation of *"Communication Predicates: A High-Level
//! Abstraction for Coping with Transient and Dynamic Faults"* (Hutle &
//! Schiper, DSN 2007).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the Heard-Of round model: algorithms (`OneThirdRule`,
//!   `UniformVoting`, `LastVoting`), communication predicates as first-class
//!   values, round executors, adversaries and the `P_k → P_su` translation.
//! * [`sim`] — the DLS-style system-level simulator with real-valued time,
//!   send/receive/make-ready steps and good/bad period schedules.
//! * [`predicates`] — the predicate implementation layer: Algorithm 2
//!   (π0-down good periods), Algorithm 3 (π0-arbitrary good periods),
//!   macro-round translation, and the closed-form good-period bounds of
//!   Theorems 3, 5, 6 and 7.
//! * [`rsm`] — the replicated-log service: repeated consensus pipelined
//!   over the round runtime (multi-slot windows, client workloads, applied-
//!   log checker) — the layer real systems consume consensus through.
//! * [`harness`] — the parallel scenario-sweep harness: thousands of
//!   (algorithm × adversary × size × seed) runs fanned across every core,
//!   with per-scenario verdicts and SendPlan message accounting.
//!
//! ## Quick start
//!
//! ```
//! use heardof::core::algorithms::OneThirdRule;
//! use heardof::core::adversary::FullDelivery;
//! use heardof::core::executor::RoundExecutor;
//!
//! // Four processes propose 0, 1, 2, 3; with perfect communication the
//! // OneThirdRule algorithm decides the smallest value in two rounds.
//! let alg = OneThirdRule::new(4);
//! let mut exec = RoundExecutor::new(alg, vec![0u64, 1, 2, 3]);
//! let mut adversary = FullDelivery;
//! exec.run_until_all_decided(&mut adversary, 10).unwrap();
//! assert!(exec.decisions().iter().all(|d| *d == Some(0)));
//! ```

pub use ho_core as core;
pub use ho_harness as harness;
pub use ho_predicates as predicates;
pub use ho_rsm as rsm;
pub use ho_sim as sim;
