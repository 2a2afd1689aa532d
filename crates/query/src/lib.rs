//! Query substrate: the template class of the paper's Section 2.1, a
//! planner/executor for it, and the transactional machinery around it.
//!
//! The paper considers queries from templates
//!
//! ```text
//! qt: select Ls from R1, R2, …, Rn where Cjoin and Cselect;
//! ```
//!
//! where `Cjoin` holds the equi-join conditions plus parameterless
//! selections, and `Cselect = ∧ Ci` with each `Ci` a disjunction of
//! equality predicates (`∨ R.a = v_r`) or of *disjoint* intervals
//! (`∨ v_r < R.a < w_r`). This crate models exactly that class:
//!
//! * [`Interval`], [`Condition`] — the two disjunctive forms.
//! * [`QueryTemplate`], [`TemplateBuilder`], [`QueryInstance`] — templates
//!   and their parameter bindings.
//! * [`Database`] — relations + secondary indexes + DML with delta capture.
//! * [`exec`] — an index-nested-loop executor and a naive full-scan oracle.
//! * [`txn`] — transactions with undo, producing [`pmv_storage::DeltaBatch`]es.

pub mod condition;
pub mod dbview;
pub mod engine;
pub mod exec;
pub mod parser;
pub mod table_stats;
pub mod template;
pub mod txn;

pub use condition::{Condition, Interval};
pub use dbview::{DataView, DbSnapshot};
pub use engine::{Database, SnapStats};
pub use exec::{
    execute, execute_bounded, execute_bounded_arc, execute_scan, explain, join_fixed, upquery_fill,
    ExecBudget, ExecStats,
};
pub use parser::parse_template;
pub use table_stats::{ColumnStats, Histogram, RelationStats, TableStats};
pub use template::{
    AttrRef, CondForm, CondTemplate, QueryInstance, QueryTemplate, TemplateBuilder,
};
pub use txn::Transaction;

/// Which limit of an [`ExecBudget`] was exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed mid-execution.
    Deadline,
    /// The tuple-examination cap was reached.
    Tuples,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetExceeded::Deadline => write!(f, "deadline exceeded"),
            BudgetExceeded::Tuples => write!(f, "tuple budget exceeded"),
        }
    }
}

/// Crate-wide error type.
#[derive(Debug)]
pub enum QueryError {
    /// Underlying storage failure.
    Storage(pmv_storage::StorageError),
    /// Template construction or binding problem.
    Template(String),
    /// Execution ran out of its [`ExecBudget`] (deadline or row cap).
    /// The caller may still hold sound partial results from the cache.
    Budget(BudgetExceeded),
    /// An injected fault fired mid-execution (see `pmv-faultinject`).
    /// Transient by construction: a retry draws a fresh decision.
    Fault(String),
    /// A write would duplicate an existing row on a declared unique key
    /// (see [`engine::Database::declare_unique_key`]). The write was
    /// rejected before touching the relation.
    Unique(String),
}

impl QueryError {
    /// Whether a retry of the same operation could plausibly succeed.
    /// Injected faults are transient; budget and template errors are not.
    pub fn is_transient(&self) -> bool {
        matches!(self, QueryError::Fault(_))
    }

    /// Whether this is a budget (deadline / row-cap) exhaustion.
    pub fn is_budget(&self) -> bool {
        matches!(self, QueryError::Budget(_))
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Storage(e) => write!(f, "storage error: {e}"),
            QueryError::Template(msg) => write!(f, "template error: {msg}"),
            QueryError::Budget(b) => write!(f, "execution budget: {b}"),
            QueryError::Fault(site) => write!(f, "injected fault at {site}"),
            QueryError::Unique(msg) => write!(f, "unique key violation: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<pmv_storage::StorageError> for QueryError {
    fn from(e: pmv_storage::StorageError) -> Self {
        QueryError::Storage(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, QueryError>;
