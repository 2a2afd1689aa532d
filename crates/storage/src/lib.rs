//! Storage substrate for the Partial Materialized View (PMV) reproduction.
//!
//! The paper (Luo, "Partial Materialized Views", ICDE 2007) prototypes its
//! technique inside PostgreSQL. This crate provides the storage layer of the
//! in-memory RDBMS substrate we build instead: typed values, relation
//! schemas, tuples, slotted heap relations with stable row identifiers,
//! and delta capture for change propagation (the paper's `ΔR`). A
//! relation is shared between database versions as a plain
//! `Arc<HeapRelation>` and written through `Arc::make_mut`; the one map
//! of name to relation lives in `pmv-query`'s `Database`.
//!
//! Everything is deliberately simple and allocation-conscious: tuples are
//! boxed slices of 16-byte [`Value`]s, short strings are inline and long
//! ones reference-counted so tuple clones never copy string data, and
//! every structure can report its heap footprint so the PMV layer can
//! enforce the paper's storage bound `UB`.

mod cowvec;
pub mod delta;
pub mod error;
mod prefetch;
pub mod relation;
pub mod schema;
pub mod size;
pub mod string;
pub mod tuple;
pub mod value;

pub use delta::{Delta, DeltaBatch};
pub use error::StorageError;
pub use prefetch::prefetch_read;
pub use relation::{HeapRelation, RowId};
pub use schema::{Column, ColumnType, Schema};
pub use size::HeapSize;
pub use string::Str;
pub use tuple::Tuple;
pub use value::Value;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
