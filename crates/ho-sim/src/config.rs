//! Simulation parameters: the synchrony bounds of §4.1.
//!
//! In a good period, processes in `π0` take at least one step per `Φ+` and
//! at most one step per `Φ−` time units, and a message sent at `t` between
//! `π0` processes is in the destination buffer by `t + Δ`. The paper scales
//! everything by `1/Φ−`: `φ = Φ+/Φ−` is the normalized process-speed bound
//! and `δ = Δ/Φ−` the normalized transmission delay. [`SimConfig::normalized`]
//! builds configurations directly in that normalized form (`Φ− = 1`).

use ho_core::process::MAX_PROCESSES;

/// How step intervals are drawn within the `[Φ−, Φ+]` band.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StepTiming {
    /// Every gap is exactly `Φ+` (the slowest admissible process — the
    /// worst case the theorems are stated against).
    #[default]
    WorstCase,
    /// Every gap is exactly `Φ−` (fastest admissible).
    Fastest,
    /// Gaps drawn uniformly from `[Φ−, Φ+]`.
    Jittered,
}

/// How message delays are drawn within `(0, Δ]` for good-period messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DelayTiming {
    /// Every delay is exactly `Δ` (worst case).
    #[default]
    WorstCase,
    /// Delays drawn uniformly from `(0, Δ]`.
    Jittered,
}

/// The synchrony and timing parameters of a simulation.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of processes `n`.
    pub n: usize,
    /// `Φ+`: in a good period every `π0` process takes ≥ 1 step per `Φ+`.
    pub phi_plus: f64,
    /// `Φ−`: in a good period every `π0` process takes ≤ 1 step per `Φ−`.
    pub phi_minus: f64,
    /// `Δ`: good-period transmission bound between `π0` processes.
    pub delta: f64,
    /// Step interval policy.
    pub step_timing: StepTiming,
    /// Message delay policy.
    pub delay_timing: DelayTiming,
    /// RNG seed — every run is deterministic under its seed.
    pub seed: u64,
}

impl SimConfig {
    /// A configuration in the paper's normalized units: `Φ− = 1`,
    /// `Φ+ = φ`, `Δ = δ`. All reported times are then directly comparable
    /// with the theorem formulas.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 1`, `φ ≥ 1` and `δ > 0`.
    #[must_use]
    pub fn normalized(n: usize, phi: f64, delta: f64) -> Self {
        assert!(n >= 1, "need at least one process");
        assert!(phi >= 1.0, "φ = Φ+/Φ− is at least 1");
        assert!(delta > 0.0, "δ must be positive");
        SimConfig {
            n,
            phi_plus: phi,
            phi_minus: 1.0,
            delta,
            step_timing: StepTiming::default(),
            delay_timing: DelayTiming::default(),
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the step-interval policy.
    #[must_use]
    pub fn with_step_timing(mut self, timing: StepTiming) -> Self {
        self.step_timing = timing;
        self
    }

    /// Sets the message-delay policy.
    #[must_use]
    pub fn with_delay_timing(mut self, timing: DelayTiming) -> Self {
        self.delay_timing = timing;
        self
    }

    /// `φ = Φ+/Φ−`, the normalized process speed bound.
    #[must_use]
    pub fn phi(&self) -> f64 {
        self.phi_plus / self.phi_minus
    }

    /// `δ = Δ/Φ−`, the normalized transmission delay.
    #[must_use]
    pub fn delta_norm(&self) -> f64 {
        self.delta / self.phi_minus
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds [`MAX_PROCESSES`], if `Φ+ < Φ−`, or
    /// if any bound is non-positive.
    pub fn validate(&self) {
        assert!(self.n >= 1, "need at least one process");
        assert!(
            self.n <= MAX_PROCESSES,
            "n = {} exceeds MAX_PROCESSES",
            self.n
        );
        assert!(self.phi_minus > 0.0, "Φ− must be positive");
        assert!(self.phi_plus >= self.phi_minus, "Φ+ must be at least Φ−");
        assert!(self.delta > 0.0, "Δ must be positive");
    }
}

/// Behaviour of the system during *bad* periods (and of `π̄0` during
/// π0-arbitrary good periods): arbitrary, but benign.
///
/// The paper's §2.3 point is that send omission, link loss and receive
/// omission are indistinguishable at the HO level — all three are
/// *transmission faults*. The simulator still models them separately so
/// experiments can attribute faults to components: a transmission fails
/// with probability `1 − (1−send_omission)(1−loss)(1−receive_omission)`.
#[derive(Clone, Copy, Debug)]
pub struct BadPeriodConfig {
    /// Probability that the *sender* drops an outgoing copy
    /// (send-omission fault of the process).
    pub send_omission: f64,
    /// Probability that the *link* loses the message.
    pub loss: f64,
    /// Probability that the *receiver* drops the message at make-ready
    /// time (receive-omission fault of the process).
    pub receive_omission: f64,
    /// Extra delay factor: surviving messages take up to
    /// `Δ · (1 + extra_delay_factor)` to become ready.
    pub extra_delay_factor: f64,
    /// Per-step crash probability for a process running under bad rules.
    pub crash_prob: f64,
    /// Downtime bounds `[min_down, max_down]` after a crash.
    pub min_down: f64,
    /// See [`BadPeriodConfig::min_down`].
    pub max_down: f64,
    /// Step-slowdown factor: step gaps drawn up to `Φ+ · slow_factor`.
    pub slow_factor: f64,
    /// Step-speedup factor: step gaps drawn down to `Φ−/fast_factor`.
    ///
    /// The paper's remark on real-valued clocks (§4.1) exists precisely so
    /// that processes outside `π0` can be *arbitrarily fast* relative to
    /// `π0`; raise this to exercise that regime.
    pub fast_factor: f64,
}

impl Default for BadPeriodConfig {
    fn default() -> Self {
        BadPeriodConfig {
            send_omission: 0.0,
            receive_omission: 0.0,
            loss: 0.3,
            extra_delay_factor: 4.0,
            crash_prob: 0.02,
            min_down: 5.0,
            max_down: 50.0,
            slow_factor: 5.0,
            fast_factor: 1.0,
        }
    }
}

impl BadPeriodConfig {
    /// A maximally quiet bad period: no loss, no crashes, no slowdown —
    /// useful to isolate one fault dimension in tests.
    #[must_use]
    pub fn calm() -> Self {
        BadPeriodConfig {
            send_omission: 0.0,
            receive_omission: 0.0,
            loss: 0.0,
            extra_delay_factor: 0.0,
            crash_prob: 0.0,
            min_down: 0.0,
            max_down: 0.0,
            slow_factor: 1.0,
            fast_factor: 1.0,
        }
    }

    /// A bad period whose processes run up to `fast_factor`× faster than
    /// the `Φ−` bound (and lose nothing): models the arbitrarily-fast
    /// outsiders of the real-valued-clock remark.
    #[must_use]
    pub fn speedy(fast_factor: f64) -> Self {
        BadPeriodConfig {
            fast_factor,
            ..BadPeriodConfig::calm()
        }
    }

    /// A chaotic bad period with the given message-loss rate.
    #[must_use]
    pub fn lossy(loss: f64) -> Self {
        BadPeriodConfig {
            loss,
            ..BadPeriodConfig::default()
        }
    }

    /// A bad period whose only faults are process omissions (no link loss,
    /// no crashes): the ST/DT omission classes of §2.2.
    #[must_use]
    pub fn omissive(send_omission: f64, receive_omission: f64) -> Self {
        BadPeriodConfig {
            send_omission,
            receive_omission,
            loss: 0.0,
            crash_prob: 0.0,
            ..BadPeriodConfig::default()
        }
    }

    /// The probability that a transmission under these rules fails for any
    /// of the three §2.3 reasons.
    #[must_use]
    pub fn transmission_fault_prob(&self) -> f64 {
        1.0 - (1.0 - self.send_omission) * (1.0 - self.loss) * (1.0 - self.receive_omission)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_config_units() {
        let c = SimConfig::normalized(4, 2.0, 5.0);
        assert_eq!(c.phi(), 2.0);
        assert_eq!(c.delta_norm(), 5.0);
        c.validate();
    }

    #[test]
    fn builder_methods() {
        let c = SimConfig::normalized(4, 1.5, 3.0)
            .with_seed(9)
            .with_step_timing(StepTiming::Jittered)
            .with_delay_timing(DelayTiming::Jittered);
        assert_eq!(c.seed, 9);
        assert_eq!(c.step_timing, StepTiming::Jittered);
        assert_eq!(c.delay_timing, DelayTiming::Jittered);
    }

    #[test]
    #[should_panic(expected = "φ = Φ+/Φ− is at least 1")]
    fn phi_below_one_rejected() {
        let _ = SimConfig::normalized(4, 0.5, 3.0);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_PROCESSES")]
    fn n_above_max_processes_rejected() {
        SimConfig::normalized(MAX_PROCESSES + 1, 1.0, 2.0).validate();
    }

    #[test]
    fn bad_period_presets() {
        let calm = BadPeriodConfig::calm();
        assert_eq!(calm.loss, 0.0);
        assert_eq!(calm.crash_prob, 0.0);
        let lossy = BadPeriodConfig::lossy(0.8);
        assert_eq!(lossy.loss, 0.8);
        let om = BadPeriodConfig::omissive(0.2, 0.1);
        assert_eq!(om.loss, 0.0);
        assert_eq!(om.send_omission, 0.2);
        assert_eq!(om.receive_omission, 0.1);
    }

    #[test]
    fn transmission_fault_probability_composes() {
        let c = BadPeriodConfig {
            send_omission: 0.5,
            loss: 0.5,
            receive_omission: 0.0,
            ..BadPeriodConfig::calm()
        };
        assert!((c.transmission_fault_prob() - 0.75).abs() < 1e-12);
        assert_eq!(BadPeriodConfig::calm().transmission_fault_prob(), 0.0);
    }
}
