//! # pmv-analysis — static analysis for the PMV system
//!
//! This crate is the analysis umbrella described in DESIGN.md §12. It
//! has two halves:
//!
//! 1. **Template verifier** (`verify` — re-exported from
//!    [`pmv_core::verify`]). Registration-time checks that a
//!    [`pmv_core::PartialViewDef`]'s template, discretizers and maintenance
//!    filter satisfy the paper's soundness preconditions *without
//!    executing anything*, producing typed diagnostics PMV001–PMV006.
//!    The verifier lives in `pmv-core` so `EpochDb::register` can
//!    call it without a dependency cycle; this crate re-exports it as
//!    the analysis entry point and houses the corpus and property
//!    tests that pin its behaviour.
//!
//! 2. **Protocol analyzer** (the `pmv-analyze` binary). One pipeline
//!    over `crates/**` source text: the lexer, item index and call
//!    graph ([`graph`]), the effect-site index and per-function
//!    summaries ([`summaries`]), and the table of lock / pin /
//!    durability contracts with the loop that checks each one both
//!    directly and through calls ([`contracts`]). Reports render as
//!    text or SARIF 2.1.0; [`sarif`] builds both halves' JSON documents
//!    (the two SARIF reports and the verifier's own JSON report).
//!
//! ```text
//! cargo run -p pmv-analysis --bin pmv-analyze -- [--json] [--sarif FILE] [--deny-warnings] [paths…]
//! ```

pub mod contracts;
pub mod graph;
pub mod sarif;
pub mod summaries;

pub use pmv_core::verify::{
    estimate_entry_bytes, estimate_tuple_bytes, verify_def, verify_parts, DiagCode, Diagnostic,
    FilterSpec, Severity, VerifyOptions, VerifyReport,
};
