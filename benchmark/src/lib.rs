//! # ho-benchmark — the HO stack's end-to-end and per-layer benchmark
//!
//! One binary, one **named workload** per invocation, one JSON result line.
//! The workloads, metrics, protocol and the frozen API surface this crate
//! is allowed to call are specified in `benchmark/README.md`; the machine-
//! readable contract is `BENCHMARK.json` at the repository root.
//!
//! The crate measures the stack *from the outside*: it calls the public
//! functions of `ho-core`, `ho-sim`, `ho-predicates`, `ho-rsm` and the
//! `Sweep`/`SimSweep` facades of `ho-harness`, and produces per-layer
//! numbers by wrapping programs, algorithms and adversaries in the
//! transparent [`timed::Timed`] wrappers defined here.

pub mod alloc;
pub mod metrics;
pub mod outage;
pub mod protocol;
pub mod repeat;
pub mod simtime;
pub mod stats;
pub mod timed;
pub mod workloads;
