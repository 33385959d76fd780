//! # ho-rsm — a replicated-log service on the HO kernel
//!
//! The paper's consensus algorithms are single-shot; real systems consume
//! consensus as **repeated consensus driving a replicated log**. This
//! crate is that layer: a pipelined multi-slot replicated state machine
//! built directly on the `ho-core` round runtime, so every adversary, the
//! scratch-buffer discipline and the pooled SendPlan kernel apply to the
//! log service unchanged.
//!
//! * [`MultiSlot`] — the tentpole: any single-shot
//!   [`HoAlgorithm`](ho_core::HoAlgorithm) lifted into a multi-slot log
//!   algorithm with a configurable pipeline depth. One HO round advances
//!   *every* live slot; slots decide out of order and apply in order;
//!   replicas adopt decided values from peers' bundles, and a replica
//!   that falls out of the window catches up by bounded backfill.
//! * [`workload`] — client command generators (fixed-rate, bursty,
//!   closed-loop, skewed-key) batching commands into slot proposals.
//! * [`LogDriver`] — the service front end: run, inspect applied logs,
//!   aggregate throughput (commands, slots) and latency-in-rounds.
//! * [`checker`] — the deterministic applied-log oracle: prefix
//!   agreement, exactly-once apply, batch integrity.
//! * [`shard`] — the partitioned store: the keyspace range-partitioned
//!   across many independent `MultiSlot` groups behind an
//!   allocation-free generation-time router, merged back into one
//!   service view by [`ShardedLogDriver`] and checked by the sharded
//!   oracle (per-shard invariants plus cross-shard namespace
//!   containment and exactly-once).
//!
//! ```
//! use ho_core::adversary::RandomLoss;
//! use ho_core::algorithms::OneThirdRule;
//! use ho_rsm::{LogDriver, RsmConfig, WorkloadSpec};
//!
//! // Five replicas, four slots in flight, 2 commands/round, 30% loss.
//! let mut service = LogDriver::new(
//!     OneThirdRule::new(5),
//!     WorkloadSpec::FixedRate { per_round: 2 },
//!     RsmConfig::with_depth(4),
//!     7,
//! );
//! service.run(&mut RandomLoss::new(0.3, 7), 80).unwrap();
//! let check = service.check();
//! assert!(check.is_ok(), "{:?}", check.violation);
//! assert!(check.commands > 0, "the service made progress under loss");
//! ```

pub mod checker;
pub mod driver;
pub mod shard;
pub mod slots;
pub mod workload;

pub use checker::{
    check_logs, check_sharded_logs, count_commands, decode_batch, decode_slot_value, encode_batch,
    encode_slot_value, lease_holder, BatchRef, LogCheck, ShardedLogCheck,
};
pub use driver::{LogDriver, ServiceStats};
pub use shard::{shard_of, shard_seed, ShardSpec, ShardedLogDriver, MAX_SHARDS, SHARD_SHIFT};
pub use slots::{
    FlowControl, MultiSlot, ReplicaStats, RsmConfig, RsmMessage, RsmState, SlotPayload,
};
pub use workload::{Command, WorkloadSpec, WorkloadState};
