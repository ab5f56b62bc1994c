//! The MIX rewriting optimizer (paper Section 6, Table 2).
//!
//! "Efficient composition plans are derived in MIX by having a rewriter
//! module optimize the straightforward (and inefficient) composition
//! plans." The rewriter here:
//!
//! * applies the Table 2 rules — pushing `getD` through `crElt`/`cat`
//!   (rules 1–7), detecting unsatisfiable paths (rule 4), merging
//!   `getD` chains (rule 10), eliminating `tD`/`mksrc` pairs (rule 11),
//!   introducing joins so selections can be pushed past nested plans
//!   (rules 8–9, Fig. 16→18), and pushing semijoins below grouping
//!   (rule 12, Fig. 20→21);
//! * runs the prose's global steps: selection pushdown, live-variable
//!   analysis with dead-operator elimination, and join→semijoin
//!   conversion (Fig. 19→20);
//! * replaces each rule match in place, so a firing costs the subtree
//!   it touches, not the whole plan;
//! * keeps every step in a [`RewriteTrace`] as data — the starting plan
//!   plus one edit per step — so the paper's Fig. 13→22 derivation can
//!   be replayed and rendered on request, and costs nothing to render
//!   when nobody asks;
//! * finally [`split`]s the plan: the maximal relational fragment
//!   becomes one `rQ` operator carrying generated SQL (Fig. 22), with
//!   an `ORDER BY` on the group-by key columns so the mediator can run
//!   the *stateless* presorted `gBy`. [`optimize`] runs the rewrite
//!   once and hands back its fixpoint, the pre-split logical plan,
//!   beside the split one.

pub mod driver;
pub mod passes;
pub mod rules;
pub mod sortedness;
pub mod split;
pub mod util;

pub use driver::{
    optimize, rewrite, rewrite_with_disabled, Optimized, RewriteOutcome, RewriteTrace, TraceStep,
};
pub use sortedness::key_contiguous;
pub use split::{schema_prune, split_plan};
