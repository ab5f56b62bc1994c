//! Planner: SQL AST → physical plan.
//!
//! The plan shape is fixed and simple — left-deep joins in FROM-list
//! order with single-table predicates pushed to scans, index joins on
//! equi-predicates (nested loops otherwise), then sort, project,
//! distinct. MIX is "not concerned with cost-based optimization issues"
//! at the source; what matters is *pipelined* delivery, and that a
//! statement pinned to one key costs the key's rows, not the table's:
//! a scan with a pushed `col = const` reads the column index
//! ([`Access::Lookup`]), and a join probes its base table's index per
//! driving row instead of reading that table at all.

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

/// How a scan reaches its candidate rows. Either way every candidate
/// is checked against the scan's predicates, so the access path changes
/// what is read, never what is returned, nor its order.
#[derive(Debug, Clone)]
pub enum Access {
    /// Every row, in table order.
    Full,
    /// The rows of `col`'s index under `key` (see
    /// [`crate::table::KeyIndex`]), in table order: exactly the rows
    /// where `col = key` holds when [`Value::eq_key_is_exact`], a
    /// superset otherwise.
    Lookup { col: usize, key: Value },
}

/// A base-table scan with pushed-down predicates (offsets local to
/// the table).
#[derive(Debug, Clone)]
pub struct Scan {
    pub table: Arc<Table>,
    pub preds: Vec<RPred>,
    pub name: Name,
    pub access: Access,
}

impl Scan {
    /// Take the access path from the first `=` const conjunct. When
    /// the index answers that conjunct exactly it leaves `preds`; the
    /// others are checked on the candidates.
    fn choose_access(&mut self) {
        let lookup = self
            .preds
            .iter()
            .enumerate()
            .find_map(|(i, p)| match (p.op, &p.rhs) {
                (CmpOp::Eq, ROperand::Const(key)) => Some((i, p.lhs, key.clone())),
                _ => None,
            });
        let Some((i, col, key)) = lookup else {
            return;
        };
        if key.eq_key_is_exact() {
            self.preds.remove(i);
        }
        self.access = Access::Lookup { col, key };
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let _ = write!(out, "{pad}Scan({})", self.name);
        if let Access::Lookup { col, .. } = &self.access {
            let _ = write!(out, " Lookup({})", self.table.schema().columns()[*col].name);
        }
        let _ = writeln!(out, " preds={}", self.preds.len());
    }
}

/// Physical plan nodes.
#[derive(Debug, Clone)]
pub enum PhysPlan {
    /// Base-table scan.
    Scan(Scan),
    /// Index join: stream `left`; for each of its rows, probe the
    /// index of `right`'s table on `right_key` (offset local to the
    /// right table) with the row's `left_key` (offset into the left
    /// row). A candidate joins when the key equality, `right.preds`
    /// and `post` (offsets into the joined row) all hold. `right` is
    /// never read on its own, so its access is always `Full`.
    HashJoin {
        left: Box<PhysPlan>,
        right: Scan,
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
            PhysPlan::Scan(scan) => scan.table.schema().arity(),
            PhysPlan::HashJoin { left, right, .. } => left.arity() + right.table.schema().arity(),
            PhysPlan::NlJoin { left, right, .. } => left.arity() + right.arity(),
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
            PhysPlan::Scan(scan) => scan.explain_into(out, depth),
            PhysPlan::HashJoin {
                left,
                right,
                left_key,
                right_key,
                post,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}HashJoin(l[{left_key}]=r[{right_key}]) probe=index post={}",
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
        let mut scan = Scan {
            table: Arc::clone(t),
            preds: local,
            name: stmt.from[bi].binding().clone(),
            access: Access::Full,
        };
        plan = Some(match plan {
            None => {
                scan.choose_access();
                PhysPlan::Scan(scan)
            }
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
                        right: scan,
                        left_key: lk,
                        right_key: rk,
                        post,
                    },
                    None => {
                        scan.choose_access();
                        PhysPlan::NlJoin {
                            left: Box::new(left),
                            right: Box::new(PhysPlan::Scan(scan)),
                            post,
                        }
                    }
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
    fn equality_on_a_constant_becomes_a_lookup() {
        let db = sample_db();
        let plan = |sql: &str| build_plan(&db, &parse_sql(sql).unwrap()).unwrap().explain();
        // The first `=` const conjunct is the access path, which answers
        // it; the others are checked on its candidates.
        let text = plan("SELECT * FROM orders WHERE value > 10 AND cid = 'A' AND orid = 1");
        assert!(text.contains("Scan(orders) Lookup(cid) preds=2"), "{text}");
        let text = plan("SELECT * FROM orders WHERE value != 10");
        assert!(text.contains("Scan(orders) preds=1"), "{text}");
        // A key past 2^53 is not exact: its conjunct stays to re-check.
        let text = plan("SELECT * FROM orders WHERE orid = 9007199254740993");
        assert!(text.contains("Scan(orders) Lookup(orid) preds=1"), "{text}");
        // A nested-loop join's inner scan is read once: it may look up.
        let text = plan("SELECT * FROM customer c, orders o WHERE c.id < o.cid AND o.cid = 'A'");
        assert!(text.contains("Scan(o) Lookup(cid) preds=0"), "{text}");
    }

    /// The decontextualized in-place statement: one lookup drives the
    /// plan and every join probes an index, so its cost follows the
    /// pinned customer, not the table sizes.
    #[test]
    fn inplace_statement_plan_is_pinned() {
        let db = sample_db();
        let stmt = parse_sql(
            "SELECT DISTINCT c1.id, c1.addr, c1.name, o1.orid, o1.cid, o1.value \
             FROM customer c1, orders o1, customer c2, orders o2 \
             WHERE c1.id = 'C000000' AND o1.value < 40000 AND c1.id = o1.cid \
             AND c2.id = 'C000000' AND c2.id = o2.cid AND c1.id = c2.id \
             ORDER BY c1.id, o1.orid",
        )
        .unwrap();
        assert_eq!(
            build_plan(&db, &stmt).unwrap().explain(),
            "Project[0, 1, 2, 3, 4, 5] distinct=true
  Sort[0, 3]
    HashJoin(l[6]=r[1]) probe=index post=0
      HashJoin(l[0]=r[0]) probe=index post=0
        HashJoin(l[0]=r[1]) probe=index post=0
          Scan(c1) Lookup(id) preds=0
          Scan(o1) preds=1
        Scan(c2) preds=1
      Scan(o2) preds=0
"
        );
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
