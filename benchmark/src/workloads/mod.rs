//! The seven named workloads.

use crate::protocol::{Scale, Workload};

pub mod model_grid;
pub mod rsm;
pub mod sim_grid;
pub mod sim_jitter;
pub mod simcell;
pub mod stack;

/// Spreads the run seed over the cell seeds: run `S` uses cell seeds
/// `S·2²⁰ + i`, so two runs with neighbouring `--seed`s share no scenario.
#[must_use]
pub fn cell_seed(run_seed: u64, i: u64) -> u64 {
    (run_seed << 20).wrapping_add(i)
}

/// Builds the named workload's inputs from the run seed.
#[must_use]
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "model_grid" => Box::new(model_grid::ModelGrid::new(seed, scale)),
        "sim_grid" => Box::new(sim_grid::SimGrid::new(seed, scale)),
        "sim_jitter" => Box::new(sim_jitter::SimJitter::new(seed, scale)),
        "rsm_steady" => Box::new(rsm::RsmWorkload::steady(seed, scale)),
        "rsm_recovery" => Box::new(rsm::RsmWorkload::recovery(seed, scale)),
        "stack_e2e" => Box::new(stack::Stack::e2e(seed, scale)),
        "stack_soak" => Box::new(stack::Stack::soak(seed, scale)),
        _ => return None,
    })
}
