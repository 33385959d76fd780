//! The percentile picker and the small order statistics the protocol uses.

/// Tail percentiles the picker chooses from, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [0.9999, 0.999, 0.99, 0.95, 0.9];

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts `values` ascending (total order; the protocol never produces NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`) of ascending `sorted`: the
/// smallest sample with at least `q·n` samples at or below it — always an
/// observed value.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `(0, 1]`.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
    sorted[rank(sorted.len(), q)]
}

/// The `q`-quantile with ties on the unit lattice read as grouped data.
///
/// Latencies in rounds are whole numbers, and so are latencies in time
/// units under worst-case timing (every step and delay is a whole number
/// of `Φ−`). Thousands of samples then share the value `v` the quantile
/// falls on, and the nearest-rank quantile is blind to everything but the
/// side of an edge the rank is on: it reads the same 40 tu whether 51 % or
/// 95 % of the scenarios took 40 tu, and flips by a whole round from seed
/// to seed when a pooled median sits between 6 and 7 rounds. Here the tied
/// samples stand for the unit interval `(v − ½, v + ½]` and the quantile
/// is interpolated by rank inside it, so it moves by the few hundredths
/// the distribution actually shifted. A sample that is not a whole number,
/// or not tied, is returned as it is.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `(0, 1]`.
#[must_use]
pub fn grouped_quantile(sorted: &[f64], q: f64) -> f64 {
    let v = quantile(sorted, q);
    let below = sorted.partition_point(|&x| x < v);
    let tied = sorted.partition_point(|&x| x <= v) - below;
    if v.fract() != 0.0 || tied < 2 {
        return v;
    }
    let into = (q * sorted.len() as f64 - below as f64).clamp(0.0, tied as f64);
    v - 0.5 + into / tied as f64
}

/// Index of the nearest-rank `q`-quantile among `n` ascending samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `q`-quantile's position.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - 1 - rank(n, q)
}

/// The highest of [`TAIL_CANDIDATES`] that still has at least
/// [`MIN_BEYOND`] of the `n` samples beyond it; `None` when even the
/// lowest candidate does not (fewer than ~100 samples).
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// The median of `values` (mean of the middle two for an even count).
/// Sorts in place.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    sort(values);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile with the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive): the spread the
/// acceptance rule is stated in. Sorts in place.
///
/// # Panics
///
/// Panics with fewer than two values.
#[must_use]
pub fn quartiles(values: &mut [f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    sort(values);
    let n = values.len();
    [1usize, 2, 3].map(|i| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    })
}

/// FNV-1a over a stream of words: the order-sensitive fingerprint every
/// pass is compared by (applied logs, decisions, event counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a slice of words in, length first.
    pub fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }
}

/// SplitMix64: the benchmark's own deterministic stream for generated
/// inputs (the rolling-outage schedules).
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }
}
