//! # bench — the experiment harness
//!
//! One entry point per paper artifact (how to run them: the README's
//! *Building, testing, benching*):
//!
//! | id | artifact | binary | bench |
//! |----|----------|--------|-------|
//! | T1 | Table 1 predicates | `table1` | `table1_predicates` |
//! | E3 | Theorem 3 | `thm3` | `thm3_alg2_good_period` |
//! | E5 | Theorem 5 | `thm5` | `thm5_initial` |
//! | C4 | Corollary 4 | `cor4` | — |
//! | E6 | Theorem 6 | `thm6` | `thm6_alg3_good_period` |
//! | E7 | Theorem 7 | `thm7` | — |
//! | E8 | §4.2.2(c) | `stack` | `full_stack` |
//! | T8 | Theorem 8 | `translation` | — |
//! | AB | design-choice ablations | `ablation` | — |
//! | SW | scenario sweep baseline (`BENCH_sweep.json`) | `sweep` | — |

pub mod ablation;
pub mod experiments;
pub mod sweep;
pub mod table;
