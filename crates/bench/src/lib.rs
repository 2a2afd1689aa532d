//! Shared harness code for the experiment binaries.
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | Binary   | Reproduces | Section |
//! |----------|------------|---------|
//! | `fig6`   | Hit probability vs. h (CLOCK vs 2Q, α ∈ {1.07, 1.01}) | 4.1 |
//! | `fig7`   | Hit probability vs. N | 4.1 |
//! | `table1` | TPC-R data set sizes vs. scale factor | 4.2 |
//! | `fig8`   | PMV overhead vs. F (templates T1, T2) | 4.2 |
//! | `fig9`   | PMV overhead vs. combination factor h | 4.2 |
//! | `fig10`  | Query execution time vs. PMV overhead across scale factors | 4.2 |
//! | `fig11`  | Maintenance TW for transaction T (MV vs PMV) | 4.3 |
//! | `fig12`  | Maintenance speedup ratio vs. insert fraction p | 4.3 |
//! | `policy_ablation` | CLOCK/2Q/LRU/LRU-2 (the paper's stated future work) | 4.1 |
//! | `f_tradeoff` | Hit probability vs. tuples served under a fixed byte budget | 3.2 |
//! | `maint_ablation` | Maintenance filter indices on vs. off | 3.4 |
//! | `drift` | Policy adaptivity when the hot set rotates | 3.2 |
//! | `warmup` | Hit probability vs. number of warm-up queries | 4.1 |
//!
//! Every binary prints an aligned table plus JSON lines, and accepts
//! `--paper` to run at the paper's full parameters (slower) and
//! `--quick` for a fast smoke run.

pub mod report;
pub mod tpcr_harness;

pub use report::{ExperimentReport, Row};
