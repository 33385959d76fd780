//! Bit-identity of the model layer, outside the benchmark.
//!
//! Two families of digests, both **generated on the commit before the
//! lossy adversaries went branch-free, OneThirdRule read its `|HO| > 2n/3`
//! guard first and the consensus checker became incremental** — not by a
//! retired implementation kept alive as an oracle:
//!
//! * the HO rows the seeded adversaries draw (the RNG stream: which pairs
//!   draw, in which order, against which threshold), for universe sizes on
//!   both sides of the 64-bit word boundary and for the two threshold
//!   ends, loss 0 and loss 1;
//! * everything a `Sweep` verdict reports, per cell of the benchmark's
//!   48-cell `model_grid` shape.
//!
//! A change to any draw, decision, round count, delivery count or payload
//! counter in any cell shows here.

#[path = "common/pins.rs"]
mod pins;

use heardof::core::adversary::{Adversary, EventuallyGood, KernelOnly, RandomLoss};
use heardof::core::process::ProcessSet;
use heardof::core::round::Round;
use heardof::harness::{AdversarySpec, AlgorithmSpec, Sweep};
use pins::{fold, fold_set, FNV_OFFSET};

const SIZES: [usize; 9] = [1, 2, 4, 7, 10, 63, 64, 65, 128];

/// The digest of 40 rounds × seeds 1–5 of `build(n, seed)`'s HO rows,
/// through one reused scratch slice the way the executor drives it.
fn rows_digest<A: Adversary>(n: usize, build: impl Fn(usize, u64) -> A) -> u64 {
    let mut h = FNV_OFFSET;
    let mut ho = vec![ProcessSet::empty(); n];
    for seed in 1..=5 {
        let mut adversary = build(n, seed);
        for r in 1..=40 {
            adversary.fill_ho_sets(Round(r), &mut ho);
            h = ho.iter().fold(h, |h, &set| fold_set(h, set));
        }
    }
    h
}

#[test]
fn lossy_adversary_rows_are_pinned() {
    // Rows: RandomLoss 0.0, 0.2, 0.4, 1.0; KernelOnly 0.8;
    // EventuallyGood(6 bad rounds, loss 0.5, good set Π). Columns: SIZES.
    const PINNED: [[u64; 9]; 6] = [
        [
            0xb157_8d9b_21b9_6425,
            0x3324_2cdd_ffa0_8925,
            0x4d4f_464b_ff8e_7f25,
            0xa644_9f07_9785_d425,
            0x665e_10a2_6ea8_4d05,
            0xa95c_581a_4d71_ae65,
            0xc48c_5e43_9cb1_b325,
            0x278f_49f5_6954_07e5,
            0xa137_3cb2_0767_6325,
        ],
        [
            0xb157_8d9b_21b9_6425,
            0x6563_d691_837a_e0e4,
            0x617e_6adc_0bad_d6a6,
            0x6161_3120_c3b2_a3d3,
            0x70a8_6f73_d7bd_8ad4,
            0xb655_18a2_db72_62e7,
            0xab0e_2b6a_fda9_9cd4,
            0xe47a_6517_8e32_cd78,
            0xc52c_9949_98ef_6759,
        ],
        [
            0xb157_8d9b_21b9_6425,
            0x590c_aeed_be45_2925,
            0x7d04_197f_5563_78ae,
            0x0292_eb99_5b5b_1cb0,
            0xff6c_33f5_29d1_c922,
            0x2133_f41f_38af_2043,
            0xaf1f_97fb_69a7_1b9c,
            0xc13d_773e_50f8_5e6d,
            0xe838_8846_007a_3fd3,
        ],
        [
            0xb157_8d9b_21b9_6425,
            0x708e_9f7e_5e8d_c925,
            0xc76e_41fe_3f87_ff25,
            0x7f02_ff76_e596_9425,
            0x4121_7153_a0ed_7755,
            0x58cf_897a_449b_f9e5,
            0x9ed9_bd5d_b2df_3ce5,
            0xf8c0_61b9_8d8f_c2e5,
            0x1191_7e1d_dd02_9ca5,
        ],
        [
            0xb157_8d9b_21b9_6425,
            0xd6a4_fb7a_58c5_e925,
            0xaf93_b54a_9df6_4266,
            0x0c88_4f25_8f93_df2c,
            0x24ce_3707_c933_dbf3,
            0xe282_e8dc_4f35_bd95,
            0x611a_811b_d039_32cb,
            0x4c98_0e65_df43_a193,
            0x4f01_6413_233f_b770,
        ],
        [
            0xb157_8d9b_21b9_6425,
            0xadef_dd05_7949_d0e6,
            0xecdf_8ef1_510f_d922,
            0xb848_d852_e90e_410a,
            0x0379_b4b7_c056_cde6,
            0x9969_bba4_54be_4dcd,
            0x42c7_5e9a_f517_9716,
            0x8fb0_815d_db26_6a77,
            0x49d6_68dc_b053_0603,
        ],
    ];
    let rows = [
        SIZES.map(|n| rows_digest(n, |_, seed| RandomLoss::new(0.0, seed))),
        SIZES.map(|n| rows_digest(n, |_, seed| RandomLoss::new(0.2, seed))),
        SIZES.map(|n| rows_digest(n, |_, seed| RandomLoss::new(0.4, seed))),
        SIZES.map(|n| rows_digest(n, |_, seed| RandomLoss::new(1.0, seed))),
        SIZES.map(|n| rows_digest(n, |_, seed| KernelOnly::new(0.8, seed))),
        SIZES.map(|n| {
            rows_digest(n, |n, seed| {
                EventuallyGood::new(6, ProcessSet::full(n), 0.5, seed)
            })
        }),
    ];
    assert_eq!(rows, PINNED, "columns: n = {SIZES:?}\n{rows:#018x?}");
}

/// One digest per (algorithm, adversary, n) cell over 20 seeds, in the
/// facade's grid order, of every simulated field a verdict carries.
fn grid_digests(algorithms: &[AlgorithmSpec], adversaries: &[AdversarySpec]) -> Vec<u64> {
    const SEEDS: u64 = 20;
    let report = Sweep::new()
        .algorithms(algorithms.iter().copied())
        .adversaries(adversaries.iter().copied())
        .sizes([4, 7, 10])
        // The benchmark's seeds for `--seed 1`.
        .seeds((0..SEEDS).map(|i| (1 << 20) + i))
        .max_rounds(120)
        .threads(1)
        .run();
    report
        .verdicts
        .chunks(SEEDS as usize)
        .map(|cell| {
            cell.iter().fold(FNV_OFFSET, |h, v| {
                [
                    v.decided_round.map_or(0, |r| r + 1),
                    v.rounds_run,
                    v.decision_value.map_or(0, |d| d + 1),
                    v.decided_processes as u64,
                    v.delivered_messages,
                    v.payload_allocs,
                    v.payload_reuses,
                    u64::from(v.violation.is_some()),
                ]
                .into_iter()
                .fold(h, fold)
            })
        })
        .collect()
}

#[test]
fn model_grid_verdicts_are_pinned() {
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
    // {OneThirdRule, LastVoting} × zoo × n {4, 7, 10}: three per line, one
    // line per (algorithm, adversary).
    #[rustfmt::skip]
    const SAFE_ANYWHERE: [u64; 42] = [
        0x052f_d6e7_c576_5e3c, 0x6071_b7b6_74b3_b579, 0x550c_bf3a_9a11_9925,
        0xa11b_9d26_aa4e_bc30, 0xa4f4_b326_8220_ebf6, 0x36ce_c7c0_de15_9155,
        0xa240_8ccc_69cd_182d, 0x4fe3_b9f5_8122_ba92, 0x40b2_28dc_fd33_9417,
        0xbd63_f855_1eea_5d35, 0xad74_d572_f178_bfe5, 0x006a_2b72_004d_ad0d,
        0xd47f_e895_6ce9_7d08, 0x09bd_a4d7_6666_8c0a, 0xe2c4_695e_c742_362f,
        0x9448_92ae_8a0d_52c7, 0x85ab_0c03_cf3e_c1ad, 0x3631_dd61_7b67_09eb,
        0x90f8_6273_1cbb_65f2, 0x299d_2b92_b424_2820, 0xbd63_c1ba_0a9c_83a6,
        0x2db3_eb07_53ea_2f25, 0xed3c_5e01_42b8_61a6, 0xba06_3489_21d0_aea5,
        0x8609_edfd_d477_f712, 0x5eb6_9e7b_ef4d_9043, 0xbf3b_b2e0_0f77_8bf2,
        0x9503_82cc_230a_db40, 0x7462_09cb_6122_f3fb, 0x46aa_ba11_da52_d7ba,
        0xca8a_55b6_638e_4d25, 0x0385_faef_d769_1c05, 0x6124_66a3_f705_c505,
        0x8033_2a68_8aa8_a97e, 0x7083_0a2f_f15e_8cb7, 0x8c98_665e_5557_10b2,
        0x5c9a_cf4a_118d_9a41, 0xb5b9_199d_838e_8ed0, 0xbf5e_dd4d_81a2_3237,
        0x2d9f_adda_c607_e66e, 0x7e84_ad57_5707_98cf, 0x0ac3_23d6_6d5f_730d,
    ];
    // UniformVoting × {full delivery, kernel-only 0.8} × n {4, 7, 10}.
    #[rustfmt::skip]
    const WITHIN_PNEK: [u64; 6] = [
        0x8a9b_6ec0_4dc7_b525, 0x59bf_07de_6b1b_4e26, 0x939e_8efd_c4d1_5bc5,
        0x493e_3959_e215_164d, 0x17e3_2c9a_6849_2faa, 0xee7d_28b3_d7d6_88ae,
    ];
    let grid = (
        grid_digests(
            &[AlgorithmSpec::OneThirdRule, AlgorithmSpec::LastVoting],
            &zoo,
        ),
        grid_digests(&[AlgorithmSpec::UniformVoting], &[zoo[0], zoo[5]]),
    );
    assert_eq!(
        grid,
        (SAFE_ANYWHERE.to_vec(), WITHIN_PNEK.to_vec()),
        "\n{grid:#018x?}"
    );
}
