//! A replicated log from repeated consensus — the application the paper's
//! first sentence motivates ("consensus is related to replication and
//! appears when implementing atomic broadcast…").
//!
//! Part 1: one slot at a time. Five replicas order a stream of client
//! commands through `ho-rsm`'s [`LogDriver`] at pipeline depth 1: one
//! OneThirdRule instance per log slot, the next slot opening when the
//! last one applies. Transmission faults (here: a replica isolated for a
//! while, then 30% random loss) delay slots but can never fork the log,
//! and the isolated replica catches up by backfill once it hears the
//! others again.
//!
//! Part 2: the production shape — the same driver keeps a client
//! workload flowing end-to-end under a **crash-recovery** adversary: four
//! slots in flight per round, batched proposals, decided slots applied in
//! order, crashed replicas backfilled after recovery. The applied log is
//! printed and checked for prefix agreement and exactly-once apply.
//!
//! ```sh
//! cargo run --example replicated_log
//! ```

use heardof::core::adversary::{CrashRecovery, FullDelivery, RandomLoss, Scripted};
use heardof::core::algorithms::OneThirdRule;
use heardof::core::process::ProcessSet;
use heardof::core::round::Round;
use heardof::rsm::{decode_slot_value, LogDriver, RsmConfig, WorkloadSpec};

fn print_lengths(service: &LogDriver<OneThirdRule>) {
    for (p, log) in service.applied_logs().iter().enumerate() {
        println!("  replica {p}: {} slots", log.len());
    }
}

fn main() {
    let n = 5;
    let mut service = LogDriver::new(
        OneThirdRule::new(n),
        WorkloadSpec::FixedRate { per_round: 2 },
        RsmConfig::with_depth(1),
        7,
    );

    // Phase 1: healthy network, 10 rounds → 5 slots applied everywhere.
    service.run(&mut FullDelivery, 10).unwrap();
    println!("after 10 healthy rounds:");
    print_lengths(&service);

    // Phase 2: replica 4 partitioned away for 12 rounds; the quorum keeps
    // ordering commands. (Scripted is absolute-round-indexed: pad over the
    // 10 rounds already executed.)
    let quorum = ProcessSet::from_indices(0..4);
    let solo = ProcessSet::from_indices([4]);
    let full = ProcessSet::full(n);
    let mut script = vec![vec![full; n]; 10];
    script.extend(vec![vec![quorum, quorum, quorum, quorum, solo]; 12]);
    service.run(&mut Scripted::new(script), 12).unwrap();
    println!("\nafter 12 rounds with replica 4 isolated:");
    print_lengths(&service);

    // Phase 3: the partition heals under a lossy network; replica 4 catches
    // up from the applied values backfilled in every bundle.
    service.run(&mut RandomLoss::new(0.3, 7), 30).unwrap();
    println!("\nafter healing + 30 rounds at 30% loss:");
    print_lengths(&service);

    // The invariants that make this a replicated log: prefix agreement and
    // exactly-once apply.
    let check = service.check();
    assert!(
        check.is_ok(),
        "log invariant violated: {:?}",
        check.violation
    );
    println!(
        "\n{} slots, {} commands: prefix agreement + exactly-once verified ✓",
        check.slots, check.commands
    );

    // ── Part 2: the pipelined log service under crash-recovery ──────────
    //
    // The production shape: a LogDriver keeps four slots in flight per
    // round, batches a fixed-rate client workload into proposals, and the
    // slot-keyed value ordering rotates which replica's batch wins. Every
    // replica is down for a staggered window; the quorum keeps ordering
    // and backfill catches the recovered replicas up.
    println!("\n=== pipelined log service (ho-rsm), crash-recovery adversary ===");
    let n = 5;
    let mut service = LogDriver::new(
        OneThirdRule::new(n),
        WorkloadSpec::FixedRate { per_round: 2 },
        RsmConfig::with_depth(4),
        42,
    );
    let outages: Vec<(usize, Round, Round)> = (0..n)
        .map(|q| (q, Round(5 + 4 * q as u64), Round(10 + 4 * q as u64)))
        .collect();
    println!("outages: each replica down for 5 rounds, staggered: {outages:?}");
    let mut adv = CrashRecovery::new(n, &outages);
    service.run(&mut adv, 60).unwrap();

    let check = service.check();
    assert!(
        check.is_ok(),
        "log invariant violated: {:?}",
        check.violation
    );
    let stats = service.service_stats();
    println!(
        "after 60 rounds: {} slots ordered ({} no-ops), {} commands applied, \
         {} requeued after lost slots",
        check.slots, check.noop_slots, check.commands, stats.requeued_commands
    );
    println!(
        "apply latency (rounds): p50={:?} p99={:?} max={:?}",
        stats.latency_percentile(50),
        stats.latency_percentile(99),
        stats.latency_percentile(100),
    );

    println!("\napplied log (slot: proposer commands [first, first+count)):");
    let logs = service.applied_logs();
    let longest = logs.iter().max_by_key(|l| l.len()).unwrap();
    for (slot, &value) in longest.iter().enumerate().take(12) {
        let b = decode_slot_value(slot as u64, value);
        println!(
            "  slot {slot:2}: replica {} × {} commands [{}..{})",
            b.proposer,
            b.count,
            b.first,
            b.first + b.count
        );
    }
    if longest.len() > 12 {
        println!("  … {} more slots", longest.len() - 12);
    }
    println!(
        "replica log lengths: {:?} — prefix agreement + exactly-once verified ✓",
        logs.iter().map(|l| l.len()).collect::<Vec<_>>()
    );
}
