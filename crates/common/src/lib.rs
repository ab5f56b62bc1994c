//! Shared foundations for the MIX mediator workspace.
//!
//! This crate holds the pieces every other MIX crate needs and that must
//! agree across crate boundaries:
//!
//! * [`Value`] — the scalar domain `D` of the paper's data model
//!   ("string-like" constants plus the numeric types the relational
//!   sources produce), with the comparison semantics used by `WHERE`
//!   clauses and XMAS `select`/`join` conditions.
//! * [`CmpOp`] — the relational operators `=, !=, <, <=, >, >=` of the
//!   Fig. 4 grammar.
//! * [`Name`] — cheaply clonable identifiers for variables, labels,
//!   table and column names.
//! * [`MixError`] / [`Result`] — the workspace-wide error type, with
//!   [`ResultContext`] for attributing failures to a source.
//! * [`Stats`] — typed per-source counters (queries issued, tuples
//!   shipped, navigation commands served) that make the paper's
//!   performance claims measurable; re-exported from `mix-obs`
//!   together with [`Counter`], [`Snapshot`] and [`Delta`].

pub mod block;
pub mod column;
pub mod error;
pub mod intern;
pub mod name;
pub mod pool;
pub mod prefetch;
pub mod retry;
pub mod ring;
pub mod shard;
pub mod stats;
pub mod value;

pub use block::{BlockPolicy, BlockRamp, MAX_AUTO_BLOCK};
pub use column::{ColData, Column, ColumnBlock};
pub use error::{BackendError, FaultKind, MixError, Result, ResultContext};
pub use intern::intern;
pub use name::Name;
pub use pool::{JobHandle, Pool, PoolJob, Step};
pub use prefetch::{PrefetchPolicy, AUTO_PREFETCH_DEPTH};
pub use retry::RetryPolicy;
pub use shard::{ShardedLru, DEFAULT_SHARDS};
pub use stats::{BlockRows, Counter, Delta, Snapshot, Stats};
pub use value::{CmpOp, ScalarKey, Value};
