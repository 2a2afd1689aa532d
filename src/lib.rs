//! # pmv — Partial Materialized Views
//!
//! A from-scratch Rust reproduction of *Partial Materialized Views*
//! (Gang Luo, ICDE 2007). A **partial materialized view (PMV)** caches a
//! bounded set of the most frequently accessed query results for a
//! parameterized query template, so an RDBMS can return transactionally
//! consistent *partial* results within a millisecond while the full query
//! continues to execute — without the storage and maintenance cost of a
//! traditional materialized view.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`storage`] — values, schemas, tuples, heap relations, deltas.
//! * [`index`] — hash and B+-tree secondary indexes with composite keys.
//! * [`query`] — query templates (`Cjoin` + disjunctive `Cselect`),
//!   planner, index-nested-loop executor, transactions, 2PL locks.
//! * [`cache`] — replacement policies: CLOCK and simplified 2Q.
//! * [`core`] — the paper's contribution: basic condition parts, the PMV
//!   store, the O1/O2/O3 pipeline, deferred maintenance, MV baselines,
//!   and the Section 3.6 extensions.
//! * [`workload`] — Zipfian bcp streams, TPC-R-style data and query
//!   generators.
//!
//! See `examples/quickstart.rs` for a five-minute tour, or run the whole
//! flow in miniature:
//!
//! ```
//! use pmv::prelude::*;
//! use pmv::index::IndexDef;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut db = Database::new();
//! db.create_relation(Schema::new(
//!     "items",
//!     vec![
//!         Column::new("id", ColumnType::Int),
//!         Column::new("kind", ColumnType::Int),
//!     ],
//! ))?;
//! for i in 0..100i64 {
//!     db.insert("items", tuple![i, i % 5])?;
//! }
//! db.create_index(IndexDef::btree("items", vec![1]))?;
//!
//! let template = TemplateBuilder::new("by_kind")
//!     .relation(db.schema("items")?)
//!     .select("items", "id")?
//!     .cond_eq("items", "kind")?
//!     .build()?;
//! // The host: it owns the views it registers, queries pin its published
//! // snapshot, and every commit maintains every view it owns before the
//! // next snapshot publishes.
//! let edb = EpochDb::new(db);
//! let def = PartialViewDef::all_equality("items_pmv", template.clone())?;
//! let pmv = edb.register(def, PmvConfig::default())?;
//!
//! let q = template.bind(vec![Condition::Equality(vec![Value::Int(3)])])?;
//! let cold = edb.query(&pmv, &q)?; // fills the PMV
//! assert!(cold.partial.is_empty());
//! let warm = edb.query(&pmv, &q)?; // serves partial results
//! assert_eq!(warm.partial.len(), pmv.config().f);
//! assert_eq!(
//!     cold.all_results().len(),
//!     warm.all_results().len(),
//! );
//!
//! // Delete one served row: the commit evicts it from the PMV, though
//! // the commit does not name the view.
//! let row = edb.read().relation("items")?.iter()
//!     .find(|(_, t)| t.get(1) == &Value::Int(3))
//!     .map(|(row, _)| row)
//!     .expect("a kind-3 item");
//! edb.commit(&[], move |db| {
//!     let mut txn = Transaction::begin(db);
//!     txn.delete("items", row)?;
//!     Ok(((), txn.commit()))
//! })?;
//! let after = edb.query(&pmv, &q)?;
//! assert_eq!(after.all_results().len(), warm.all_results().len() - 1);
//! assert_eq!(after.ds_leftover, 0); // nothing stale was served
//! # Ok(())
//! # }
//! ```

pub use pmv_cache as cache;
pub use pmv_core as core;
pub use pmv_index as index;
pub use pmv_query as query;
pub use pmv_storage as storage;
pub use pmv_workload as workload;

/// Commonly used items, for `use pmv::prelude::*`.
pub mod prelude {
    pub use pmv_cache::{ClockPolicy, PolicyKind, ReplacementPolicy, TwoQPolicy};
    pub use pmv_core::{
        run_plain, verify_def, verify_parts, BcpKey, DiagCode, Discretizer, EpochDb,
        PartialViewDef, PmvConfig, PmvStats, QueryOutcome, Severity, SharedPmv, VerifyOptions,
        VerifyReport,
    };
    pub use pmv_query::{
        Condition, Database, Interval, QueryInstance, QueryTemplate, TemplateBuilder, Transaction,
    };
    pub use pmv_storage::{tuple, Column, ColumnType, Schema, Tuple, Value};
}
