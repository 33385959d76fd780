//! Bit-identity of the three sweep builders, sequential and pooled.
//!
//! Each digest folds, per cell and in seed order, every field a verdict
//! reports except the ones a run does not determine: the wall clock
//! (`wall_nanos`), the telemetry digest and the forensic event ring. Each
//! grid runs on one worker and on two, and both runs must hit the same
//! pinned table: the worker pool decides only *where* a scenario runs,
//! never what it reports or where its verdict lands in the report.

#[path = "common/pins.rs"]
mod pins;

use heardof::harness::{
    AdversarySpec, AlgorithmSpec, ContactPlan, ImplementationSpec, LinkFaultSpec, RsmSweep,
    SimSweep, Sweep, Verdict, WorkloadSpec,
};
use pins::{assert_pinned, fold, FNV_OFFSET};

fn fold_all(h: u64, words: &[u64]) -> u64 {
    words.iter().fold(h, |h, &x| fold(h, x))
}

/// Folds a string as its length, then its bytes.
fn fold_str(h: u64, s: &str) -> u64 {
    s.bytes()
        .fold(fold(h, s.len() as u64), |h, b| fold(h, u64::from(b)))
}

/// An optional word as one word: 0 for `None`, `x + 1` for `Some(x)`.
fn opt(x: Option<u64>) -> u64 {
    x.map_or(0, |x| x + 1)
}

/// One digest per cell of `seeds` consecutive verdicts.
fn cells<V>(verdicts: &[V], seeds: usize, digest: impl Fn(u64, &V) -> u64) -> Vec<u64> {
    verdicts
        .chunks(seeds)
        .map(|cell| cell.iter().fold(FNV_OFFSET, &digest))
        .collect()
}

/// One digest per (algorithm, adversary) row of `model_layer_pins.rs`'s
/// grid: n {4, 7, 10} × 20 seeds.
fn model_digests(
    algorithms: &[AlgorithmSpec],
    adversaries: &[AdversarySpec],
    threads: usize,
) -> Vec<u64> {
    let report = Sweep::new()
        .algorithms(algorithms.iter().copied())
        .adversaries(adversaries.iter().copied())
        .sizes([4, 7, 10])
        .seeds((0..20).map(|i| (1 << 20) + i))
        .max_rounds(120)
        .threads(threads)
        .run();
    cells(&report.verdicts, 60, |h, v| {
        let v = Verdict {
            wall_nanos: 0,
            telemetry: None,
            forensic_events: None,
            ..v.clone()
        };
        fold_str(h, &format!("{v:?}"))
    })
}

#[test]
fn model_sweep_verdicts_are_pinned_on_one_and_two_workers() {
    let zoo = [
        AdversarySpec::FullDelivery,
        AdversarySpec::RandomLoss { loss: 0.2 },
        AdversarySpec::RandomLoss { loss: 0.4 },
        AdversarySpec::Partition { blocks: 2 },
        AdversarySpec::CrashRecovery,
        AdversarySpec::KernelOnly { loss: 0.8 },
        AdversarySpec::EventuallyGood {
            bad_rounds: 6,
            loss: 0.5,
        },
    ];
    // {OneThirdRule, LastVoting} × zoo, then UniformVoting × {full
    // delivery, kernel-only 0.8}.
    #[rustfmt::skip]
    const MODEL: [u64; 16] = [
        0xbbec_c067_1f02_a397, 0xfc75_c529_2fc8_b36d, 0x5bd4_2593_0ff8_2b10,
        0xfb45_0a2d_3575_3501, 0x4cbe_b532_1002_8c81, 0x10b8_a1b1_9ad2_b474,
        0x3a06_b629_5b75_b551, 0xf40e_9cfa_433a_5c68, 0x33aa_1f57_84f6_4573,
        0x88fa_4b09_e8b7_9e03, 0xd44c_d541_b7da_0629, 0x268c_c3b2_7061_8533,
        0xba8e_3307_5f17_bb89, 0x0c92_4cd9_0075_3d29, 0xb703_ef39_8aba_2808,
        0xb6a0_bddd_0aa2_38cc,
    ];
    for threads in [1, 2] {
        let mut got = model_digests(
            &[AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting],
            &zoo,
            threads,
        );
        got.extend(model_digests(
            &[AlgorithmSpec::UniformVoting],
            &[zoo[0], zoo[5]],
            threads,
        ));
        assert_pinned("MODEL", &got, &MODEL);
    }
}

#[test]
fn sim_sweep_verdicts_are_pinned_on_one_and_two_workers() {
    // {Alg2, Alg3 f=1} × four fault shapes × n {4, 5}, 4 seeds each.
    #[rustfmt::skip]
    const SIM: [u64; 16] = [
        0xeaed_13a0_bfdb_a925, 0xe20d_3849_9e34_0ea5, 0x6224_130d_5af8_8f9f,
        0xb972_9ec7_fcda_f4fc, 0x0c71_99bf_59f5_e10c, 0xe4b1_afc7_bfbc_d601,
        0xc24e_5e94_135d_6481, 0xc18e_6d67_a2b3_75c1, 0xd6f5_1477_23c2_a4d3,
        0x643d_90fc_8191_b7cf, 0x9827_2c50_dbe4_2510, 0x061a_4b30_0a09_9e66,
        0x3b5b_ad7a_86ba_8075, 0x34da_4f07_03ce_4553, 0x86ad_97da_d964_6514,
        0x2ef7_0829_22ca_27f6,
    ];
    let episodic = ContactPlan::Episodic {
        dark: 3,
        bright: 2,
        cycles: 2,
    };
    let sweep = SimSweep::new()
        .implementations([ImplementationSpec::Alg2, ImplementationSpec::Alg3 { f: 1 }])
        .faults([
            LinkFaultSpec::GoodFromStart,
            LinkFaultSpec::LossyThenGood {
                bad_len: 30.0,
                loss: 0.5,
            },
            LinkFaultSpec::CrashyThenGood { bad_len: 30.0 },
            LinkFaultSpec::ContactPlanThenGood {
                plan: episodic,
                round_len: 5.0,
            },
        ])
        .sizes([4, 5])
        .seeds(0..4)
        .window(2);
    for threads in [1, 2] {
        let report = sweep.clone().threads(threads).run();
        let got = cells(&report.verdicts, 4, |h, v| {
            let h = fold_str(fold_str(h, &v.implementation), &v.fault);
            let h = fold_str(h, &format!("{:?}", v.violation));
            let m = &v.messages;
            let h = fold_all(h, &[v.n as u64, v.seed, v.window, u64::from(v.achieved)]);
            let h = fold_all(h, &[u64::from(v.within_bound), v.bound.to_bits()]);
            let h = fold_all(h, &[opt(v.empirical_length.map(f64::to_bits)), v.max_round]);
            let h = fold_all(h, &[opt(v.rho0), v.send_steps, v.transmissions]);
            let h = fold_all(h, &[v.dropped, v.crashes, m.payload_allocs]);
            let h = fold_all(h, &[m.payload_reuses, m.delivered]);
            fold_all(h, &[v.events_dispatched, v.peak_queue_depth])
        });
        assert_pinned("SIM", &got, &SIM);
    }
}

#[test]
fn rsm_sweep_verdicts_are_pinned_on_one_and_two_workers() {
    // {OneThirdRule, LastVoting} × {random loss 0.2, store-and-forward 12}
    // × shards {1, 4, 8} × leases {off, on}, 2 seeds each.
    #[rustfmt::skip]
    const RSM: [u64; 24] = [
        0xfe80_e324_fabc_2587, 0x52cb_fd1e_90a2_9327, 0x9655_572c_4878_b17c,
        0xe61d_698c_2422_2e16, 0xb018_d923_4327_4b96, 0xe5b2_c740_7389_7831,
        0x53d6_8134_efce_3fe1, 0x5146_7b41_7b42_146b, 0xc1d2_5afb_4b2e_2300,
        0x2f75_bb80_dbd7_bd51, 0xd7a6_81b1_da84_a61e, 0xe414_f6da_686a_68e2,
        0x6d34_fd2f_8fe6_e05e, 0x64f4_f7d2_efc8_45ea, 0xaed1_afcc_2a56_b2ca,
        0xbde8_f39b_5b3b_1521, 0x585d_0c87_3cfa_d8bd, 0x2634_febe_b148_f809,
        0xc619_c8bc_dae7_157a, 0x3c32_4ba3_508e_441f, 0x7ee4_2eef_9e93_d3f4,
        0x9cba_b9ad_3e41_5ae7, 0x4b51_0bf5_6e8f_0ac5, 0xec01_4d96_c30a_7a9f,
    ];
    let sweep = RsmSweep::new()
        .algorithms([AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting])
        .adversaries([
            AdversarySpec::RandomLoss { loss: 0.2 },
            AdversarySpec::ContactPlan {
                plan: ContactPlan::StoreAndForward { dark: 12 },
            },
        ])
        .sizes([4])
        .depths([4])
        .shards([1, 4, 8])
        .workloads([WorkloadSpec::FixedRate { per_round: 2 }])
        .leases([false, true])
        .seeds(0..2)
        .rounds(40);
    for threads in [1, 2] {
        let report = sweep.clone().threads(threads).run();
        let got = cells(&report.verdicts, 2, |h, v| {
            let h = fold_str(fold_str(h, v.algorithm), &v.adversary);
            let h = fold_str(fold_str(h, &v.workload), &format!("{:?}", v.violation));
            let h = fold_all(h, &[v.n as u64, v.depth as u64, v.shards as u64]);
            let h = fold_all(h, &[u64::from(v.lease), v.seed, v.rounds_run]);
            let h = fold_all(h, &[v.slots, v.min_slots, v.noop_slots, v.commands]);
            let h = fold_all(h, &[v.generated_commands, v.requeued_commands]);
            let h = fold_all(h, &[v.lease_takeovers, v.deferred_commands]);
            let h = fold_all(h, &[v.hot_generated, v.backfill_entries]);
            let h = fold_all(h, &[v.divergent_rounds, v.dark_rounds]);
            let h = fold_all(h, &[opt(v.catch_up_rounds), v.latency_samples]);
            let h = fold_all(h, &[opt(v.latency_p50), opt(v.latency_p90)]);
            let h = fold_all(h, &[opt(v.latency_p99), opt(v.latency_max)]);
            let h = fold_all(h, &[v.payload_allocs, v.payload_reuses]);
            fold(h, v.delivered_messages)
        });
        assert_pinned("RSM", &got, &RSM);
    }
}
