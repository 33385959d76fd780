//! # ho-predicates — the predicate implementation layer (§4)
//!
//! The lower layer of Figure 1: algorithms that *implement* communication
//! predicates on top of the partially synchronous system model of `ho-sim`,
//! plus the closed-form good-period bounds the paper proves about them.
//!
//! * [`alg2`] — **Algorithm 2**: `P_su(π0, ·, ·)` in *π0-down* good periods.
//! * [`alg3`] — **Algorithm 3**: `P_k(π0, ·, ·)` in *π0-arbitrary* good
//!   periods (`f < n/2`).
//! * The macro-round translation (Algorithm 4) is
//!   [`ho_core::translation::Translated`]; stacking `Alg3Program<Translated<A>>`
//!   gives the paper's complete construction.
//! * [`bounds`] — Theorems 3, 5, 6, 7, Corollary 4 and the §4.2.2(c)
//!   full-stack bound as plain formulas.
//! * [`record`] / [`measure`] — observability and the measurement harness
//!   behind the `bench` crate's theorem tables.
//! * [`monitor`] — online predicate monitoring: streaming, failure-
//!   frontier evaluators for kernel / space-uniform / `P2_otr` windows,
//!   equivalent to the batch `find_*` searches but incremental, trace-free
//!   and allocation-free in steady state.
//!
//! ```
//! use ho_predicates::bounds::BoundParams;
//! use ho_predicates::measure::{measure_alg2_space_uniform, Scenario};
//! use ho_core::process::ProcessSet;
//!
//! let params = BoundParams::new(4, 1.0, 2.0);
//! let m = measure_alg2_space_uniform(
//!     params, ProcessSet::full(4), 2, Scenario::Initial, 42);
//! // Theorem 5 is a worst-case bound; the run must land within it
//! // (δ + φ observation slack for the final delivery).
//! assert!(m.within_bound(params.delta + params.phi + 1.0));
//! ```

use ho_core::algorithm::HoAlgorithm;
use ho_core::pool::PooledPayload;
use ho_core::process::ProcessId;

/// Messages stored for pending rounds by Algorithms 2 and 3:
/// `(sender, round, shared payload handle)`. Holding the pool handle across
/// rounds is exactly the pattern the generation-stamped [`PooledPayload`]
/// exists for: the sender cannot recycle the slot while it sits here, and a
/// read through a stale handle would trip the generation assertion.
pub(crate) type StoredMsgs<A> = Vec<(
    ProcessId,
    u64,
    Option<PooledPayload<<A as HoAlgorithm>::Message>>,
)>;

pub mod alg2;
pub mod alg3;
pub mod bounds;
pub mod measure;
pub mod monitor;
pub mod record;
#[cfg(test)]
pub(crate) mod recovery_check;
pub(crate) mod send_path;
pub(crate) mod stable;

pub use alg2::{Alg2Msg, Alg2Program};
pub use alg3::{Alg3Msg, Alg3Policy, Alg3Program, InitResend};
pub use bounds::BoundParams;
pub use measure::{
    measure_alg2_space_uniform, measure_alg3_kernel, measure_full_stack, run_alg2_scenario,
    run_alg3_scenario, Measurement, Scenario, SimMeasurement, StackOutcome,
};
pub use monitor::{Accept, LogCursor, PredicateSummary, ScenarioMonitor, WindowMonitor};
pub use record::{RoundLog, RoundRecord, SystemTrace};
