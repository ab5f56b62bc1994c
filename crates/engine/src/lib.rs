//! The MIX evaluation engine (paper Section 4).
//!
//! Two evaluators over the same value model:
//!
//! * [`eager`] — the conventional-mediator baseline: evaluates an XMAS
//!   plan to a fully materialized result document, shipping every
//!   source tuple. Direct transcription of the operator definitions of
//!   Section 3; also provides the Fig. 5 tree rendering of binding
//!   tables. Used both as the measurable "compute the full result"
//!   strawman and as an independent oracle for the lazy engine.
//! * [`stream`] + [`vdoc`] — *navigation-driven lazy evaluation*: every
//!   operator is a lazy stream over binding tuples, group-by partitions
//!   are consumed incrementally (the stateless presorted `gBy` of
//!   Table 1), every operator answers one pull — "up to `n` tuples" —
//!   by pulling from its inputs only what that demand needs, relational
//!   sources arrive through cursors in typed column blocks on a ramp
//!   that starts at one row, and [`vdoc::VirtualResult`] exposes the
//!   plan's result
//!   as a virtual document: nothing is computed until `d`/`r`
//!   navigation commands demand it.
//!
//! The shared value model [`lval::LVal`] distinguishes source nodes
//! (navigated *in place* — copied lazily, never materialized at the
//! mediator), constructed elements with skolem oids, and lazy lists.
//! Constructed-node oids are exactly the Section 5 ids that "encode …
//! the values of the group-by attributes associated with the nodes that
//! enclose the given node, and the variable to which this node was
//! bound" — which is what makes queries-from-nodes decontextualizable.

pub mod context;
pub mod eager;
pub mod explain;
pub(crate) mod hashkey;
pub mod lval;
pub mod pathwalk;
pub mod stream;
pub mod vdoc;

pub use context::{AccessMode, EvalContext, GByMode};
pub use eager::{eval_table, evaluate, evaluate_profiled, render_binding_table};
pub use explain::render_annotated;
pub use lval::{BindingTable, LTuple, LVal};
pub use vdoc::{NodeContext, VirtualResult};
