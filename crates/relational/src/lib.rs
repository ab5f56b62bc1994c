//! An in-memory relational database substrate.
//!
//! The paper's mediator sits on relational sources that offer exactly
//! two capabilities: answering SQL queries, and delivering results
//! through *cursors* ("relational databases support a basic form of
//! partial result evaluation: the client issues an SQL query … and
//! receives a cursor"), while offering *no* context mechanism — a query
//! cannot refer to previously visited tuples. This crate is that
//! substrate, built from scratch:
//!
//! * [`schema`] / [`table`] / [`Database`] — typed tables with primary
//!   keys (keys become the wrapper's tuple oids, Fig. 2), each with a
//!   columnar mirror and one equality index per column, built on first
//!   use.
//! * [`ast`] + [`parse_sql`] — a SQL subset: `SELECT [DISTINCT] cols
//!   FROM t a, u b WHERE a.x = b.y AND a.z > 5 ORDER BY a.x`.
//! * [`plan`] + [`exec`] — a planner (full or index-lookup scans →
//!   index-probing/nested-loop joins with pushed-down single-table
//!   filters → sort → project → distinct) and a
//!   pipelined executor delivering rows through [`Cursor`], which counts
//!   every tuple shipped to the mediator in the shared
//!   [`Stats`](mix_common::Stats).
//!
//! Shipped-tuple counts are the measurable form of the paper's "transfer
//! of the minimum amount of data between the mediator and the sources".

pub mod ast;
pub mod db;
pub mod exec;
pub mod fault;
pub mod fixtures;
pub mod parser;
pub mod plan;
pub mod prefetch;
pub mod reference;
pub mod schema;
pub mod sharded;
pub mod table;

pub use ast::{ColRef, FromItem, Operand, Pred, SelectItem, SelectStmt};
pub use db::Database;
pub use exec::Cursor;
pub use fault::FaultPolicy;
pub use parser::parse_sql;
pub use prefetch::{active_prefetchers, prefetch_pool_stats, prefetch_pool_workers};
pub use schema::{Column, ColumnType, Schema};
pub use sharded::{Backend, ShardScheme, ShardSpec, ShardedDatabase};
pub use table::{Row, Table};
