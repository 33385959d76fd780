//! Bit-identity of the sim layer, outside the benchmark.
//!
//! The digests below were **generated on the commit before the event
//! queue lost its binary-heap backend and the engine lost its
//! per-destination clone fan-out**. There, every table was printed under
//! all four combinations of queue backend and fan-out, and all four
//! agreed on the behaviour (histories, trajectories, every behavioural
//! counter); the two backends also agreed on the queue diagnostics. What
//! is pinned is the surviving path: the calendar queue with pooled,
//! coalesced broadcasts.
//!
//! Each digest folds, per run and in seed order, every process's full
//! received history or round/decision trajectory, every [`SimStats`]
//! field (the queue diagnostics `events_dispatched` and `peak_queue_depth`
//! included) and the merged [`Simulator::message_stats`]. A change to any
//! dispatch order, even between two events at the same timestamp, moves
//! a digest.

#[path = "common/pins.rs"]
mod pins;
#[path = "common/sim_zoo.rs"]
mod sim_zoo;

use heardof::core::executor::MessageStats;
use heardof::predicates::{RoundLog, RoundRecord};
use heardof::sim::{
    DelayTiming, Program, Schedule, SimConfig, SimScratch, SimStats, Simulator, StepTiming,
    TimePoint,
};
use pins::{assert_pinned, fold, fold_set, FNV_OFFSET};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_zoo::{
    alg2_programs, alg2_words, alg3_programs, alg3_words, jittered, recorders, worst_case,
    zoo_entry, Recorder, ZOO,
};

fn fold_recorder(h: u64, p: &Recorder) -> u64 {
    let h = [p.sent, p.crashes, p.received.len() as u64]
        .into_iter()
        .fold(h, fold);
    p.received
        .iter()
        .fold(h, |h, &(q, m)| fold(fold(h, q.index() as u64), m))
}

/// Folds a round/decision trajectory: the words that summarise the
/// process, then every executed round with its effective HO set.
fn fold_trajectory(h: u64, words: &[u64], records: &[RoundRecord]) -> u64 {
    let h = words.iter().copied().fold(h, fold);
    let h = fold(h, records.len() as u64);
    records
        .iter()
        .fold(h, |h, r| fold_set(fold(h, r.round), r.ho))
}

/// Folds every counter a run reports: all of [`SimStats`], then the
/// merged two-layer message accounting.
fn fold_stats(h: u64, s: &SimStats, messages: MessageStats) -> u64 {
    [
        s.send_steps,
        s.receive_steps,
        s.empty_receives,
        s.transmissions,
        s.dropped,
        s.discarded,
        s.crashes,
        s.recoveries,
        s.broadcast_sends,
        s.messages.payload_allocs,
        s.messages.payload_reuses,
        s.messages.delivered,
        s.events_dispatched,
        s.peak_queue_depth,
        messages.payload_allocs,
        messages.payload_reuses,
        messages.delivered,
    ]
    .into_iter()
    .fold(h, fold)
}

/// Folds a finished run into `h`: each program through `per_process`, in
/// process order, then the run's counters.
fn fold_run<P: Program>(h: u64, sim: &Simulator<P>, per_process: impl Fn(u64, &P) -> u64) -> u64 {
    let h = sim.programs().iter().fold(h, per_process);
    fold_stats(h, sim.stats(), sim.message_stats())
}

/// Builds a simulator over `programs` and runs it to `horizon`.
fn run<P: Program>(
    cfg: SimConfig,
    schedule: Schedule,
    programs: Vec<P>,
    horizon: f64,
) -> Simulator<P> {
    let mut sim = Simulator::new(cfg, schedule, programs);
    sim.run_for(TimePoint::new(horizon));
    sim
}

/// Recorder runs at size `n` under `cfg(n, seed)` up to `horizon`, keyed
/// by zoo entry and seed.
fn recorder_runs(
    n: usize,
    cfg: fn(usize, u64) -> SimConfig,
    horizon: f64,
) -> impl Fn(usize, u64) -> Simulator<Recorder> {
    move |entry, seed| run(cfg(n, seed), zoo_entry(n, entry), recorders(n), horizon)
}

/// One digest per zoo entry in `entries`: the runs `sim(entry, seed)` for
/// every seed below `seeds`, folded in seed order, each program through
/// `per_process`.
fn table<P: Program>(
    entries: impl IntoIterator<Item = usize>,
    seeds: u64,
    sim: impl Fn(usize, u64) -> Simulator<P>,
    per_process: impl Fn(u64, &P) -> u64 + Copy,
) -> Vec<u64> {
    entries
        .into_iter()
        .map(|entry| {
            (0..seeds).fold(FNV_OFFSET, |h, seed| {
                fold_run(h, &sim(entry, seed), per_process)
            })
        })
        .collect()
}

#[test]
fn recorder_histories_are_pinned_50_seeds() {
    let got = table(0..ZOO, 50, recorder_runs(4, jittered, 120.0), fold_recorder);
    assert_pinned("RECORDER_N4", &got, &RECORDER_N4);
}

#[test]
fn recorder_histories_at_n2_and_n5_are_pinned() {
    let got: Vec<u64> = [2, 5]
        .into_iter()
        .flat_map(|n| table(0..ZOO, 6, recorder_runs(n, jittered, 120.0), fold_recorder))
        .collect();
    assert_pinned("RECORDER_N2_N5", &got, &RECORDER_N2_N5);
}

#[test]
fn sliced_runs_replay_the_pinned_histories() {
    // `run_for` in slices whose deadlines fall off the wheel's day grid:
    // each slice ends in a deadline-limited pop that may park the cursor
    // mid-day, and the next slice resumes there.
    let sliced = |entry, seed| {
        let mut sim = Simulator::new(jittered(4, seed), zoo_entry(4, entry), recorders(4));
        for slice in 1..=7 {
            sim.run_for(TimePoint::new(120.0 * f64::from(slice) / 7.0));
        }
        sim
    };
    let got = table(0..ZOO, 50, sliced, fold_recorder);
    assert_pinned("RECORDER_N4", &got, &RECORDER_N4);
}

#[test]
fn recycled_scratch_replays_the_pinned_histories() {
    // One scratch carried across every run, first warmed by a larger,
    // denser run, so each run starts on a reset queue and truncated slots.
    let scratch = std::cell::RefCell::new(SimScratch::new());
    run(jittered(16, 0), zoo_entry(16, 0), recorders(16), 120.0).retire(&mut scratch.borrow_mut());
    let recycled = |entry, seed| {
        let (cfg, schedule) = (jittered(4, seed), zoo_entry(4, entry));
        let mut sim =
            Simulator::with_scratch(cfg, schedule, recorders(4), &mut scratch.borrow_mut());
        sim.run_for(TimePoint::new(120.0));
        sim
    };
    let got = table(0..ZOO, 50, recycled, fold_recorder);
    assert_pinned("RECORDER_N4", &got, &RECORDER_N4);
}

#[test]
fn worst_case_timing_ties_are_pinned() {
    // Under worst-case step/delay timing every process steps on the same
    // grid and every broadcast lands exactly Δ later: the queue is full of
    // equal-timestamp events and dispatch order is decided purely by the
    // FIFO seq tiebreak. The integer-length alternation adds period starts
    // to the ties.
    let got = table(
        [0, 7],
        10,
        recorder_runs(6, worst_case, 150.0),
        fold_recorder,
    );
    assert_pinned("WORST_CASE_TIES", &got, &WORST_CASE_TIES);
}

#[test]
fn dense_buckets_at_n16_are_pinned() {
    // Jittered delays at n = 16 scatter every broadcast into 16 events:
    // a few hundred pending events over a handful of wheel days, so each
    // day's run is sorted with dozens of entries and takes frontier pushes
    // while it drains.
    let runs = recorder_runs(16, jittered, 120.0);
    let dense = |entry, seed| {
        let sim = runs(entry, seed);
        assert!(sim.stats().peak_queue_depth > 100, "{entry}/s{seed}: dense");
        sim
    };
    let got = table([0, 6], 5, dense, fold_recorder);
    assert_pinned("DENSE_N16", &got, &DENSE_N16);
}

#[test]
fn alg2_trajectories_are_pinned() {
    let n = 4;
    let got = table(
        0..ZOO,
        5,
        |entry, seed| {
            run(
                jittered(n, seed),
                zoo_entry(n, entry),
                alg2_programs(n),
                200.0,
            )
        },
        |h, p| fold_trajectory(h, &alg2_words(p), p.records()),
    );
    assert_pinned("ALG2", &got, &ALG2);
}

#[test]
fn alg3_trajectories_are_pinned() {
    let (n, f) = (5, 2);
    let got = table(
        0..ZOO,
        5,
        |entry, seed| {
            run(
                jittered(n, seed),
                zoo_entry(n, entry),
                alg3_programs(n, f),
                200.0,
            )
        },
        |h, p| fold_trajectory(h, &alg3_words(p), p.records()),
    );
    assert_pinned("ALG3", &got, &ALG3);
}

#[test]
fn random_configurations_are_pinned() {
    // A fixed corpus of 48 configurations: arbitrary size, seed, timing
    // mode, zoo entry and horizon, drawn from one seeded generator.
    let mut rng = SmallRng::seed_from_u64(0x5eed_c0de);
    let got: Vec<u64> = (0..48)
        .map(|_| {
            let n = rng.gen_range(2usize..=6);
            let mut cfg = worst_case(n, rng.gen_range(0u64..1000));
            let entry = rng.gen_range(0..ZOO);
            let jitter = rng.gen_range(0u32..4);
            let horizon = rng.gen_range(40u64..160);
            if jitter & 1 != 0 {
                cfg = cfg.with_step_timing(StepTiming::Jittered);
            }
            if jitter & 2 != 0 {
                cfg = cfg.with_delay_timing(DelayTiming::Jittered);
            }
            let sim = run(cfg, zoo_entry(n, entry), recorders(n), horizon as f64);
            fold_run(FNV_OFFSET, &sim, fold_recorder)
        })
        .collect();
    assert_pinned("RANDOM_CONFIGURATIONS", &got, &RANDOM_CONFIGURATIONS);
}

// Generated with `PINS_PRINT=1 cargo test --test sim_layer_pins -- --nocapture`.

#[rustfmt::skip]
const RECORDER_N4: [u64; 8] = [
    0xd010_2279_cd21_1685, 0xee77_719a_e536_903b, 0xbde0_ab95_dfc1_adc7,
    0xe346_e35a_d886_4fc2, 0x3a82_eb8a_40fd_e641, 0x9e95_62bd_257f_81b2,
    0xecbf_b3eb_e45d_839d, 0x8276_a402_6143_4238,
];

#[rustfmt::skip]
const RECORDER_N2_N5: [u64; 16] = [
    0x83fe_0def_d13c_31ca, 0xbf61_969e_a1bf_a98e, 0xa35f_8ebc_8d9b_de44,
    0x9719_70bd_e208_2fd8, 0xebe5_6684_abab_7512, 0xfefa_3088_37ef_47c5,
    0xa9e4_3760_6c4a_449f, 0x3117_c280_d482_b6a4, 0x58ef_6f0c_418a_4231,
    0xd86d_71d5_5d1b_c179, 0x77cf_8f18_3a6e_4500, 0x95c9_6989_b0e5_07ea,
    0x33ec_c404_82d8_75f4, 0x52c5_ed75_29d7_d667, 0x914c_eaaf_826f_f055,
    0x43f3_f5f9_3a70_1b4f,
];

#[rustfmt::skip]
const WORST_CASE_TIES: [u64; 2] = [
    0x8553_29e2_3875_c075, 0xa8b3_8f6f_d3c3_5402,
];

#[rustfmt::skip]
const DENSE_N16: [u64; 2] = [
    0xa41e_4d3b_a6f1_0eb5, 0x1649_a340_45c1_53ee,
];

#[rustfmt::skip]
const ALG2: [u64; 8] = [
    0xaabe_459a_88c9_fda1, 0xacd5_e83c_82ca_038e, 0x170a_8105_9721_9313,
    0x8202_3ae1_e579_8781, 0x0329_ae57_c7ab_780f, 0x1d83_15db_6548_0070,
    0x25b8_81e0_701e_cf49, 0x3af0_92d7_1fc5_dba5,
];

#[rustfmt::skip]
const ALG3: [u64; 8] = [
    0x3b00_4ff0_f911_089d, 0x06f2_9698_199e_be00, 0x49a7_8dde_780f_cd22,
    0xe6a7_7bc9_34a1_7325, 0x912e_0a41_13d7_f4e2, 0x249d_8615_484f_1ee3,
    0xa6cd_741c_2042_858c, 0x45f7_4ea6_9aef_c62a,
];

#[rustfmt::skip]
const RANDOM_CONFIGURATIONS: [u64; 48] = [
    0xe965_df85_8862_e33a, 0xaf1b_6ffd_5ce9_204e, 0x298d_9379_3b70_3836,
    0x9e6a_98b4_d26b_cb0e, 0x09cf_9ce9_ad20_c5eb, 0x0a96_2bfa_036c_39eb,
    0x46e1_87af_5e7a_1900, 0x1b56_3779_3c3e_1e20, 0x2dfe_aa90_e1df_f7c6,
    0x7ef5_f264_934a_8474, 0x4f2c_d004_9462_66e7, 0x3f36_e44c_2690_95a8,
    0xc841_f5dc_08e3_ee49, 0x4023_19ee_5298_af49, 0x5c70_577c_e95d_4c91,
    0xacc1_48f1_f476_e346, 0xd7aa_15e5_f7ab_c7b4, 0x0279_05fc_eb00_2be5,
    0x2e87_3db8_378c_a723, 0xc403_cf82_7dbb_80a3, 0x33a1_533e_8552_5e5f,
    0x7857_1656_b792_efb6, 0x3f6f_036e_523f_c71b, 0x178b_b10f_f07f_3f75,
    0xeaa1_a34c_6b0b_49a6, 0x8e89_7268_5f8f_0a4b, 0xc2e0_6c3c_e6d7_6d07,
    0xb973_a42f_9e5e_2bc2, 0x8250_a48c_bb2b_302d, 0x6575_93f0_e6f7_cbbf,
    0x3aa1_3f29_6ea9_1695, 0xe8a4_eaa2_ca8e_5d5c, 0xa8f1_b4b6_9b83_ab8d,
    0xa697_ae47_9356_9670, 0x738d_682e_ca9f_5565, 0x65c4_72bc_baca_c251,
    0x2323_59b9_8d57_ff7d, 0x4fe0_1868_b5a3_7fa6, 0x9e47_3f82_827d_83af,
    0x8ff8_071f_5288_03a2, 0x45e5_507f_cf0b_5890, 0xe47b_aa93_232c_4f78,
    0x6988_1c9f_21f1_a124, 0x4aac_821f_d0d2_26a6, 0x1381_7749_b065_96b2,
    0x282c_7e46_f75b_034b, 0x7ec0_5490_ee39_583b, 0x32f3_9933_bd08_b8b8,
];
