//! # bench — the experiment harness
//!
//! One entry point per paper artifact (how to run them: the README's
//! *Building, testing, checking*):
//!
//! | id | artifact | binary |
//! |----|----------|--------|
//! | T1 | Table 1 predicates | `table1` |
//! | E3 | Theorem 3 | `thm3` |
//! | E5 | Theorem 5 | `thm5` |
//! | C4 | Corollary 4 | `cor4` |
//! | E6 | Theorem 6 | `thm6` |
//! | E7 | Theorem 7 | `thm7` |
//! | E8 | §4.2.2(c) | `stack` |
//! | T8 | Theorem 8 | `translation` |
//! | AB | design-choice ablations | `ablation` |
//! | SW | scenario-sweep verdicts (`sweep --check`) | `sweep` |

pub mod ablation;
pub mod experiments;
pub mod sweep;
pub mod table;
