//! The measurement protocol shared by every workload.
//!
//! A workload is a fixed list of **cells**; running every cell once is a
//! **pass**. A run sets up (inputs from the seed + one warm-up pass that
//! also collects the simulated-time observations) three times and reports
//! the median set-up time, then repeats timed passes until `--seconds`
//! have gone by. Every timed pass must reproduce the warm-up pass's
//! per-cell fingerprints exactly — that is what licenses reporting the
//! warm-up pass's simulated latencies beside the timed passes' host
//! throughput. Oracles run after every cell, outside the timed region.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;
use crate::metrics::{self, RunResult, END_TO_END};
use crate::stats;
use crate::workloads;

/// How many times a run sets up; `setup_s` is the median.
pub const SETUPS: usize = 3;
/// The fewest timed passes a run reports a median over.
pub const MIN_TIMED_PASSES: usize = 3;

/// Workload size: `1` is the committed size, `20` the `--smoke` size
/// (seeds per cell, rounds per cell and horizons divided by 20).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale(pub u64);

impl Scale {
    pub const FULL: Scale = Scale(1);
    pub const SMOKE: Scale = Scale(20);

    /// `full / scale`, at least `floor`.
    #[must_use]
    pub fn down(self, full: u64, floor: u64) -> u64 {
        (full / self.0).max(floor)
    }
}

/// What one cell of a pass produced — compared field by field between
/// passes, and between the traced and the untraced pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellDigest {
    pub name: String,
    /// Applied logs, decisions or verdicts, hashed in order.
    pub fingerprint: u64,
    /// Rounds executed or simulator events dispatched.
    pub work: u64,
    /// Operations completed (scenarios or applied commands).
    pub ops: u64,
}

/// One pass over every cell.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host time of the timed region: construction + run of every cell.
    pub timed_ns: u64,
    pub cells: Vec<CellDigest>,
}

impl Pass {
    /// Operations completed across all cells.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.cells.iter().map(|c| c.ops).sum()
    }

    /// Operations per second of timed region.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.ops() as f64 / (self.timed_ns as f64 * 1e-9)
    }

    /// Names the first cell that differs from `reference`, if any.
    #[must_use]
    pub fn first_mismatch(&self, reference: &Pass) -> Option<String> {
        first_mismatch(&self.cells, &reference.cells)
    }
}

/// Names the first of `cells` that differs from its `reference`, if any.
#[must_use]
pub fn first_mismatch(cells: &[CellDigest], reference: &[CellDigest]) -> Option<String> {
    if cells.len() != reference.len() {
        return Some(format!(
            "{} cells instead of {}",
            cells.len(),
            reference.len()
        ));
    }
    cells
        .iter()
        .zip(reference)
        .find(|(a, b)| a != b)
        .map(|(a, b)| format!("cell {}: {a:?} instead of {b:?}", b.name))
}

/// What the warm-up pass observed of the *modelled* system.
#[derive(Clone, Debug, Default)]
pub struct Observation {
    /// Request → result latency samples in the workload's simulated clock.
    pub latencies: Vec<f64>,
    /// `"rounds"` or `"tu"`.
    pub clock: &'static str,
    /// Operations attempted (see each workload for the exact population).
    pub attempted: u64,
    /// Operations that failed or never completed.
    pub failed: u64,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

/// Per-layer numbers of a traced pass, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A named workload. `Err` is an oracle failure: the run prints it and
/// exits non-zero.
pub trait Workload {
    /// One timed pass: no polling, no observation.
    fn pass(&mut self) -> Result<Pass, String>;
    /// The warm-up pass: the same cells, plus the simulated-time
    /// observations (collected with polling where they need it).
    fn observe(&mut self) -> Result<(Pass, Observation), String>;
    /// The traced pass: the same cells under the timing wrappers. Returns
    /// the per-layer numbers and the traced cells' digests, which the
    /// protocol requires to equal the untraced pass's.
    fn trace(&mut self) -> Result<(Layers, Vec<CellDigest>), String>;
}

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Runs one workload to the protocol and returns the result line's
/// content; human-readable notes go to standard output before it.
///
/// # Errors
///
/// An unknown workload, an oracle failure, or a pass that does not
/// reproduce the warm-up pass.
pub fn run(opts: &RunOptions, process_start: Instant) -> Result<RunResult, String> {
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for k in 0..SETUPS {
        // The first set-up is timed from process start, so loading the
        // binary and the allocator's first pages are in it.
        let started = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut workload = workloads::build(&opts.workload, opts.seed, opts.scale)
            .ok_or_else(|| format!("unknown workload {:?} (see --list)", opts.workload))?;
        let (warm, observation) = workload.observe()?;
        setup_secs.push(started.elapsed().as_secs_f64());
        if let Some((_, previous, _)) = &last {
            if let Some(diff) = warm.first_mismatch(previous) {
                return Err(format!("set-up {k} did not reproduce set-up 0: {diff}"));
            }
        }
        last = Some((workload, warm, observation));
    }
    let (mut workload, warm, mut observation) = last.expect("SETUPS >= 1");
    let setup_s = stats::median(&mut setup_secs);

    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (allocs_before, bytes_before) = alloc::snapshot();
    let measuring = Instant::now();
    let mut throughputs = Vec::new();
    let mut pass_ms = Vec::new();
    let mut ops = 0u64;
    while throughputs.len() < MIN_TIMED_PASSES || measuring.elapsed().as_secs_f64() < budget {
        let pass = workload.pass()?;
        if let Some(diff) = pass.first_mismatch(&warm) {
            return Err(format!(
                "timed pass {} did not reproduce the warm-up pass: {diff}",
                throughputs.len()
            ));
        }
        ops += pass.ops();
        pass_ms.push(pass.timed_ns as f64 * 1e-6);
        throughputs.push(pass.throughput());
    }
    let (allocs_after, bytes_after) = alloc::snapshot();
    let passes = throughputs.len();
    let throughput = stats::median(&mut throughputs);
    println!(
        "# {}: seed {} · {} cells · {} ops/pass · {} timed passes · throughput median {:.0} ops/s (min {:.0}, max {:.0})",
        opts.workload,
        opts.seed,
        warm.cells.len(),
        warm.ops(),
        passes,
        throughput,
        throughputs[0],
        throughputs[passes - 1],
    );

    stats::sort(&mut observation.latencies);
    let n = observation.latencies.len();
    let tail = stats::tail_percentile(n);
    // At full size every workload must support the p99 it reports; the
    // smoke size (1/20) only checks that the machinery runs.
    if opts.scale == Scale::FULL && tail.is_none_or(|q| q < 0.99) {
        return Err(format!(
            "{n} latency samples cannot support a p99 with {} samples beyond it",
            stats::MIN_BEYOND
        ));
    }
    if n == 0 {
        return Err("the warm-up pass observed no latency sample".into());
    }
    let p50 = stats::grouped_quantile(&observation.latencies, 0.5);
    let p99 = stats::grouped_quantile(&observation.latencies, 0.99);
    println!(
        "# simulated latency in {}: {n} samples, p50 {p50}, p99 {p99} ({} samples beyond), highest supported percentile {}",
        observation.clock,
        stats::samples_beyond(n, 0.99),
        tail.map_or("none".to_owned(), |q| (q * 100.0).to_string()),
    );
    println!(
        "# ops attempted {} · failed {} · setup {:?} s",
        observation.attempted, observation.failed, setup_secs
    );
    for note in &observation.notes {
        println!("# {note}");
    }

    let metrics = if opts.trace {
        let (mut layers, traced) = workload.trace()?;
        if let Some(diff) = first_mismatch(&traced, &warm.cells) {
            return Err(format!(
                "traced pass differs from the untraced pass: {diff}"
            ));
        }
        layers.insert("trace.probe_cells_matched", traced.len() as f64);
        let untraced_ms = stats::median(&mut pass_ms);
        layers.insert("trace.untraced_pass_ms", untraced_ms);
        if let Some(&timed) = layers.get("trace.timed_region_ms") {
            layers.insert("trace.overhead_ratio", timed / untraced_ms);
        }
        layers.insert(
            "alloc.count_per_op",
            (allocs_after - allocs_before) as f64 / ops as f64,
        );
        layers.insert(
            "alloc.bytes_per_op",
            (bytes_after - bytes_before) as f64 / ops as f64,
        );
        metrics::per_layer_metrics(&layers)
    } else {
        let values = [setup_s, throughput, p50, p99, metrics::peak_rss_mib()];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((def, _), value)| (def.name, value, def.unit))
            .collect()
    };
    Ok(RunResult {
        correct: true,
        attempted: observation.attempted,
        failed: observation.failed,
        metrics,
    })
}
