//! The percentile picker: the median, and the highest percentile that
//! still has at least ten samples beyond it.

use ho_benchmark::stats::{
    grouped_quantile, median, quantile, quartiles, samples_beyond, tail_percentile, MIN_BEYOND,
};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn median_of_odd_even_and_unsorted_input() {
    assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&mut [7.0]), 7.0);
}

#[test]
fn quantiles_are_observed_samples() {
    let samples = ramp(1000);
    assert_eq!(quantile(&samples, 0.5), 500.0);
    assert_eq!(quantile(&samples, 0.99), 990.0);
    assert_eq!(quantile(&samples, 1.0), 1000.0);
    // A latency in rounds stays a whole number even with few samples.
    assert_eq!(quantile(&[2.0, 2.0, 3.0], 0.5), 2.0);
}

#[test]
fn p99_needs_a_thousand_samples() {
    // 1 000 samples: exactly ten lie beyond the 99th percentile.
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert_eq!(tail_percentile(1000), Some(0.99));
    // One fewer and the picker has to fall back to p95.
    assert_eq!(samples_beyond(999, 0.99), 9);
    assert_eq!(tail_percentile(999), Some(0.95));
}

#[test]
fn the_picker_climbs_with_the_sample_count() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(50), None, "fewer than ten beyond even p90");
    assert_eq!(tail_percentile(101), Some(0.9));
    assert_eq!(tail_percentile(10_000), Some(0.999));
    assert_eq!(tail_percentile(100_000), Some(0.9999));
    for n in [101, 250, 1000, 5000, 20_000, 1_000_000] {
        let q = tail_percentile(n).expect("enough samples");
        assert!(samples_beyond(n, q) >= MIN_BEYOND, "n = {n}, q = {q}");
    }
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&mut ramp(10)), [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&mut ramp(5)), [1.5, 3.0, 4.5]);
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&mut [20.0, 10.0]), [7.5, 15.0, 22.5]);
}

#[test]
fn grouped_quantiles_interpolate_inside_the_round() {
    // 10 samples: 2 2 2 3 3 3 3 3 4 4. Rank 5 falls two fifths into the
    // five 3s, whose interval is (2.5, 3.5].
    let samples = [2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0, 4.0, 4.0];
    assert_eq!(quantile(&samples, 0.5), 3.0);
    assert!((grouped_quantile(&samples, 0.5) - 2.9).abs() < 1e-12);
    // Rank 10 is the end of the 4s' interval.
    assert!((grouped_quantile(&samples, 1.0) - 4.5).abs() < 1e-12);
    // One more 2 moves the grouped median by a tenth, not by a round.
    let shifted = [2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 4.0, 4.0];
    assert!((grouped_quantile(&shifted, 0.5) - 2.75).abs() < 1e-12);
    // All samples equal: the median is the value itself.
    assert_eq!(grouped_quantile(&[7.0; 9], 0.5), 7.0);
}

#[test]
fn only_tied_whole_numbers_are_grouped() {
    // Real-valued time units: the observed sample, untouched.
    let jittered = [10.25, 11.5, 11.5, 12.75, 40.0];
    assert_eq!(grouped_quantile(&jittered, 0.5), 11.5);
    // A whole number nobody ties with is an observation like any other.
    assert_eq!(grouped_quantile(&jittered, 1.0), 40.0);
    assert_eq!(grouped_quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    // A lattice value inside a mixed sample is still grouped: ranks 2..=4
    // of 6 are the three 42s; the median (rank 3) is two thirds into them.
    let mixed = [40.5, 42.0, 42.0, 42.0, 43.25, 600.0];
    assert!((grouped_quantile(&mixed, 0.5) - (41.5 + 2.0 / 3.0)).abs() < 1e-12);
}
