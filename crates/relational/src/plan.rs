//! Planner: SQL AST → physical plan.
//!
//! The plan shape is fixed and simple — left-deep joins in FROM-list
//! order with single-table predicates pushed to scans, hash joins on
//! equi-predicates (nested loops otherwise), then sort, project,
//! distinct. MIX is "not concerned with cost-based optimization issues"
//! at the source; what matters is *pipelined* delivery.

use crate::ast::{ColRef, Operand, SelectStmt};
use crate::db::Database;
use crate::table::Table;
use mix_common::{CmpOp, MixError, Name, Result, Value};
use std::sync::Arc;

/// A predicate with column references resolved to offsets in the
/// concatenated row of the subplan it is attached to.
#[derive(Debug, Clone)]
pub struct RPred {
    pub lhs: usize,
    pub op: CmpOp,
    pub rhs: ROperand,
}

/// Resolved right-hand side.
#[derive(Debug, Clone)]
pub enum ROperand {
    Col(usize),
    Const(Value),
}

/// Physical plan nodes.
#[derive(Debug, Clone)]
pub enum PhysPlan {
    /// Base-table scan with pushed-down predicates.
    Scan {
        table: Arc<Table>,
        preds: Vec<RPred>,
        name: Name,
    },
    /// Hash join: stream `left`, build a hash table on `right` keyed by
    /// `right_key` (offset local to the right input), probing with
    /// `left_key` (offset into the left row). `post` filters the joined
    /// row.
    HashJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        left_key: usize,
        right_key: usize,
        post: Vec<RPred>,
    },
    /// Nested-loop (cartesian) join with post-filter.
    NlJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        post: Vec<RPred>,
    },
    /// Blocking sort on the given offsets.
    Sort {
        input: Box<PhysPlan>,
        keys: Vec<usize>,
    },
    /// Column projection (with optional duplicate elimination).
    Project {
        input: Box<PhysPlan>,
        cols: Vec<usize>,
        distinct: bool,
    },
}

impl PhysPlan {
    /// Output arity of this node.
    pub fn arity(&self) -> usize {
        match self {
            PhysPlan::Scan { table, .. } => table.schema().arity(),
            PhysPlan::HashJoin { left, right, .. } | PhysPlan::NlJoin { left, right, .. } => {
                left.arity() + right.arity()
            }
            PhysPlan::Sort { input, .. } => input.arity(),
            PhysPlan::Project { cols, .. } => cols.len(),
        }
    }

    /// One-line-per-node indented plan rendering (for tests and the
    /// experiments harness).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            PhysPlan::Scan { name, preds, .. } => {
                let _ = writeln!(out, "{pad}Scan({name}) preds={}", preds.len());
            }
            PhysPlan::HashJoin {
                left,
                right,
                left_key,
                right_key,
                post,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}HashJoin(l[{left_key}]=r[{right_key}]) post={}",
                    post.len()
                );
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            PhysPlan::NlJoin { left, right, post } => {
                let _ = writeln!(out, "{pad}NlJoin post={}", post.len());
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            PhysPlan::Sort { input, keys } => {
                let _ = writeln!(out, "{pad}Sort{keys:?}");
                input.explain_into(out, depth + 1);
            }
            PhysPlan::Project {
                input,
                cols,
                distinct,
            } => {
                let _ = writeln!(out, "{pad}Project{cols:?} distinct={distinct}");
                input.explain_into(out, depth + 1);
            }
        }
    }
}

/// Column-reference resolution context: the FROM bindings in order,
/// each with its schema, plus running offsets.
struct Resolver<'a> {
    bindings: Vec<(Name, &'a crate::schema::Schema, usize)>,
}

impl<'a> Resolver<'a> {
    /// Global offset of `col` within the concatenated row, restricted to
    /// the first `upto` FROM bindings.
    fn resolve(&self, col: &ColRef, upto: usize) -> Result<usize> {
        let mut found = None;
        for (name, schema, offset) in self.bindings.iter().take(upto) {
            let applies = match &col.qualifier {
                Some(q) => q == name,
                None => true,
            };
            if !applies {
                continue;
            }
            if let Some(i) = schema.col_index(col.column.as_str()) {
                if found.is_some() && col.qualifier.is_none() {
                    return Err(MixError::invalid(format!("ambiguous column {col}")));
                }
                found = Some(offset + i);
                if col.qualifier.is_some() {
                    break;
                }
            }
        }
        found.ok_or_else(|| MixError::unknown("column", col.to_string()))
    }

    /// Which FROM binding (index) a global offset belongs to.
    fn binding_of(&self, offset: usize) -> usize {
        let mut last = 0;
        for (i, (_, _, off)) in self.bindings.iter().enumerate() {
            if offset >= *off {
                last = i;
            }
        }
        last
    }
}

/// Build a physical plan for `stmt` against `db`.
pub fn build_plan(db: &Database, stmt: &SelectStmt) -> Result<PhysPlan> {
    if stmt.from.is_empty() {
        return Err(MixError::invalid("empty FROM clause"));
    }
    // Resolve FROM bindings and offsets.
    let mut tables = Vec::new();
    for item in &stmt.from {
        tables.push(db.table(item.table.as_str())?);
    }
    let resolver = Resolver {
        bindings: tables
            .iter()
            .zip(&stmt.from)
            .scan(0usize, |off, (t, item)| {
                let entry = (item.binding().clone(), t.schema(), *off);
                *off += t.schema().arity();
                Some(entry)
            })
            .collect(),
    };

    // Classify predicates: (resolved lhs, op, rhs) + highest binding touched.
    struct CPred {
        lhs: usize,
        op: CmpOp,
        rhs: ROperand,
        max_binding: usize,
        used: bool,
    }
    let mut preds = Vec::new();
    for p in &stmt.preds {
        let lhs = resolver.resolve(&p.lhs, stmt.from.len())?;
        let (rhs, max_b) = match &p.rhs {
            Operand::Const(v) => (ROperand::Const(v.clone()), resolver.binding_of(lhs)),
            Operand::Col(c) => {
                let r = resolver.resolve(c, stmt.from.len())?;
                (
                    ROperand::Col(r),
                    resolver.binding_of(lhs).max(resolver.binding_of(r)),
                )
            }
        };
        preds.push(CPred {
            lhs,
            op: p.op,
            rhs,
            max_binding: max_b,
            used: false,
        });
    }

    // Left-deep join build.
    let mut plan: Option<PhysPlan> = None;
    let mut built_arity = 0usize;
    for (bi, t) in tables.iter().enumerate() {
        let t_offset = resolver.bindings[bi].2;
        let t_arity = t.schema().arity();
        // Single-table predicates for this table (local offsets).
        let mut local = Vec::new();
        for p in preds.iter_mut().filter(|p| !p.used && p.max_binding == bi) {
            let lhs_b = resolver.binding_of(p.lhs);
            let self_contained = lhs_b == bi
                && match &p.rhs {
                    ROperand::Const(_) => true,
                    ROperand::Col(r) => resolver.binding_of(*r) == bi,
                };
            if self_contained {
                local.push(RPred {
                    lhs: p.lhs - t_offset,
                    op: p.op,
                    rhs: match &p.rhs {
                        ROperand::Const(v) => ROperand::Const(v.clone()),
                        ROperand::Col(r) => ROperand::Col(*r - t_offset),
                    },
                });
                p.used = true;
            }
        }
        let scan = PhysPlan::Scan {
            table: Arc::clone(t),
            preds: local,
            name: stmt.from[bi].binding().clone(),
        };
        plan = Some(match plan {
            None => scan,
            Some(left) => {
                // Find one equi-predicate linking left part ↔ this table.
                let mut join_key = None;
                for p in preds.iter_mut().filter(|p| !p.used && p.max_binding == bi) {
                    if p.op != CmpOp::Eq {
                        continue;
                    }
                    if let ROperand::Col(r) = p.rhs {
                        let (lb, rb) = (resolver.binding_of(p.lhs), resolver.binding_of(r));
                        let (lk, rk) = if lb < bi && rb == bi {
                            (p.lhs, r - t_offset)
                        } else if rb < bi && lb == bi {
                            (r, p.lhs - t_offset)
                        } else {
                            continue;
                        };
                        p.used = true;
                        join_key = Some((lk, rk));
                        break;
                    }
                }
                // Remaining predicates now answerable become post-filters.
                let mut post = Vec::new();
                for p in preds.iter_mut().filter(|p| !p.used && p.max_binding == bi) {
                    post.push(RPred {
                        lhs: p.lhs,
                        op: p.op,
                        rhs: p.rhs.clone(),
                    });
                    p.used = true;
                }
                match join_key {
                    Some((lk, rk)) => PhysPlan::HashJoin {
                        left: Box::new(left),
                        right: Box::new(scan),
                        left_key: lk,
                        right_key: rk,
                        post,
                    },
                    None => PhysPlan::NlJoin {
                        left: Box::new(left),
                        right: Box::new(scan),
                        post,
                    },
                }
            }
        });
        built_arity = t_offset + t_arity;
    }
    let mut plan = plan.expect("non-empty FROM");
    debug_assert_eq!(plan.arity(), built_arity);

    // ORDER BY (on the full concatenated row, before projection).
    if !stmt.order_by.is_empty() {
        let keys = stmt
            .order_by
            .iter()
            .map(|c| resolver.resolve(c, stmt.from.len()))
            .collect::<Result<Vec<_>>>()?;
        plan = PhysPlan::Sort {
            input: Box::new(plan),
            keys,
        };
    }

    // Projection (+ DISTINCT).
    let cols = if stmt.items.is_empty() {
        (0..plan.arity()).collect()
    } else {
        stmt.items
            .iter()
            .map(|it| resolver.resolve(&it.col, stmt.from.len()))
            .collect::<Result<Vec<_>>>()?
    };
    plan = PhysPlan::Project {
        input: Box::new(plan),
        cols,
        distinct: stmt.distinct,
    };
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::sample_db;
    use crate::parser::parse_sql;

    #[test]
    fn single_table_preds_pushed_to_scan() {
        let db = sample_db();
        let stmt = parse_sql("SELECT * FROM orders WHERE value > 1000").unwrap();
        let plan = build_plan(&db, &stmt).unwrap();
        let text = plan.explain();
        assert!(text.contains("Scan(orders) preds=1"), "{text}");
    }

    #[test]
    fn equi_join_becomes_hash_join() {
        let db = sample_db();
        let stmt =
            parse_sql("SELECT c.id, o.orid FROM customer c, orders o WHERE c.id = o.cid").unwrap();
        let plan = build_plan(&db, &stmt).unwrap();
        assert!(plan.explain().contains("HashJoin"), "{}", plan.explain());
    }

    #[test]
    fn non_equi_join_is_nested_loop() {
        let db = sample_db();
        let stmt =
            parse_sql("SELECT c.id, o.orid FROM customer c, orders o WHERE c.id < o.cid").unwrap();
        let plan = build_plan(&db, &stmt).unwrap();
        let text = plan.explain();
        assert!(text.contains("NlJoin post=1"), "{text}");
    }

    #[test]
    fn unknown_names_error() {
        let db = sample_db();
        assert!(build_plan(&db, &parse_sql("SELECT * FROM nope").unwrap()).is_err());
        assert!(build_plan(&db, &parse_sql("SELECT nope FROM customer").unwrap()).is_err());
        assert!(build_plan(&db, &parse_sql("SELECT x.id FROM customer c").unwrap()).is_err());
    }

    #[test]
    fn ambiguous_bare_column_rejected() {
        let db = sample_db();
        // `id` exists in customer; joining customer twice makes it ambiguous.
        let stmt = parse_sql("SELECT id FROM customer a, customer b").unwrap();
        assert!(build_plan(&db, &stmt).is_err());
    }
}
