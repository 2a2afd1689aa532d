//! # pmv-analysis — static analysis for the PMV system
//!
//! This crate is the analysis umbrella described in DESIGN.md §12. It
//! has two halves:
//!
//! 1. **Template verifier** (`verify` — re-exported from
//!    [`pmv_core::verify`]). Registration-time checks that a
//!    [`pmv_core::ViewDef`]'s template, discretizers and maintenance
//!    filter satisfy the paper's soundness preconditions *without
//!    executing anything*, producing typed diagnostics PMV001–PMV006.
//!    The verifier lives in `pmv-core` so `PmvManager::register` can
//!    call it without a dependency cycle; this crate re-exports it as
//!    the analysis entry point and houses the corpus and property
//!    tests that pin its behaviour.
//!
//! 2. **Source lint rules** ([`lint`], run per file by `pmv-analyze`
//!    as its depth-0 pass). Repo-specific concurrency rules over `crates/**` source text:
//!    no shard write guard held across executor calls, no lock
//!    acquisition inside `catch_unwind` closures, DB-before-shard lock
//!    order, and no `Relaxed` atomics outside designated statistics
//!    modules.
//!
//! 3. **Interprocedural protocol analyzer** ([`rules_ipa`], driven by
//!    the `pmv-analyze` binary). Builds a workspace call graph
//!    ([`graph`]) and per-function fact summaries ([`summaries`]), then
//!    verifies the lock/pin/durability contracts *across* function
//!    boundaries: every file-local rule re-checked one-or-more calls
//!    deep, plus `pin_reaches_blocking_lock`, `dio_funnel_reach` and
//!    `durable_before_visible` (DESIGN.md §17). Reports render as text
//!    or SARIF 2.1.0 ([`sarif`]).
//!
//! Run both source passes with:
//!
//! ```text
//! cargo run -p pmv-analysis --bin pmv-analyze -- [--json] [--sarif FILE] [--deny-warnings] [paths…]
//! ```

pub mod graph;
pub mod lint;
pub mod rules_ipa;
pub mod sarif;
pub mod summaries;

pub use pmv_core::verify::{
    estimate_tuple_bytes, verify_def, verify_parts, DiagCode, Diagnostic, FilterSpec, Severity,
    VerifyOptions, VerifyPolicy, VerifyReport,
};
