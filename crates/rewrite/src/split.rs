//! Plan splitting and SQL generation (Section 6, Fig. 22).
//!
//! After rewriting, "the simplified algebraic plan can then be input to
//! a module which splits the plan into two components: one part
//! consisting of restructuring and grouping operators which is executed
//! at the mediator; the second part … is translated into a query in the
//! appropriate query language for sending to the sources, and is
//! represented at the mediator by a source access operator" — the `rQ`
//! operator.
//!
//! The split walks the plan top-down and replaces every *maximal*
//! subtree expressible as a conjunctive SQL query (scans of wrapped
//! relations, `getD` paths over their tuple structure, selections,
//! joins and semijoins — semijoins render as self-joins with
//! `DISTINCT`) with one `rQ`. When a `groupBy` sits above a fragment,
//! the generated SQL gets an `ORDER BY` on the group variables' key
//! columns so the mediator can run the *stateless* presorted `gBy`
//! (Fig. 22's `ORDER BY c1.id, o1.orid`).

use crate::util::{child_mut, children};
use mix_algebra::{Cond, CondArg, Op, Plan, RqBinding, RqKind, Side};
use mix_common::{CmpOp, Name, Value};
use mix_relational::{ColRef, FromItem, Operand, Pred, SelectItem, SelectStmt};
use mix_wrapper::{Catalog, RelationSource};
use mix_xml::{oid::OidKind, Step};

/// Replace every maximal relational fragment with an `rQ` operator.
pub fn split_plan(plan: &Plan, catalog: &Catalog) -> Plan {
    Plan::new(split_op(&plan.root, catalog, &[]))
}

fn split_op(op: &Op, catalog: &Catalog, hint: &[Name]) -> Op {
    if let Some(frag) = convert(op, catalog) {
        if !frag.vars.is_empty() && co_partitioned(&frag, catalog) {
            return make_rq(frag, hint);
        }
    }
    // Not convertible here: recurse, threading the sort hint through
    // order-preserving operators and (re)setting it at groupBy.
    match op {
        Op::GroupBy { input, group, out } => Op::GroupBy {
            input: Box::new(split_op(input, catalog, group)),
            group: group.clone(),
            out: out.clone(),
        },
        Op::GetD { .. }
        | Op::Select { .. }
        | Op::CrElt { .. }
        | Op::Cat { .. }
        | Op::Apply { .. }
        | Op::OrderBy { .. }
        | Op::Project { .. }
        | Op::TupleDestroy { .. } => {
            // unary, order-preserving: keep the hint for the input; for
            // apply, the nested plan needs no splitting (pure
            // collection).
            let kids = children(op);
            let mut out = op.clone();
            for (i, k) in kids.iter().enumerate() {
                let child_hint = if i == 0 { hint } else { &[] };
                *child_mut(&mut out, i) = split_op(k, catalog, child_hint);
            }
            out
        }
        Op::Join { left, right, cond } => Op::Join {
            left: Box::new(split_op(left, catalog, hint)),
            right: Box::new(split_op(right, catalog, &[])),
            cond: cond.clone(),
        },
        Op::SemiJoin {
            left,
            right,
            cond,
            keep,
        } => {
            let (lh, rh): (&[Name], &[Name]) = match keep {
                Side::Left => (hint, &[]),
                Side::Right => (&[], hint),
            };
            Op::SemiJoin {
                left: Box::new(split_op(left, catalog, lh)),
                right: Box::new(split_op(right, catalog, rh)),
                cond: cond.clone(),
                keep: *keep,
            }
        }
        Op::MkSrcOver { input, var } => Op::MkSrcOver {
            input: Box::new(split_op(input, catalog, &[])),
            var: var.clone(),
        },
        _ => op.clone(),
    }
}

// ---------------------------------------------------------------------
// Fragment representation.
// ---------------------------------------------------------------------

/// Where a fragment variable's value comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
enum VOrigin {
    /// The whole tuple element of FROM entry `i`.
    Tuple(usize),
    /// A field element `<col>value</col>` of FROM entry `i`.
    Field(usize, Name),
    /// The text value of a column of FROM entry `i`.
    FieldVal(usize, Name),
}

impl VOrigin {
    fn shifted(&self, by: usize) -> VOrigin {
        match self {
            VOrigin::Tuple(i) => VOrigin::Tuple(i + by),
            VOrigin::Field(i, c) => VOrigin::Field(i + by, c.clone()),
            VOrigin::FieldVal(i, c) => VOrigin::FieldVal(i + by, c.clone()),
        }
    }
}

/// A resolved predicate: `(from, col) op rhs`.
#[derive(Debug, Clone)]
struct FPred {
    lhs: (usize, Name),
    op: CmpOp,
    rhs: FOperand,
}

#[derive(Debug, Clone)]
enum FOperand {
    Col(usize, Name),
    Const(Value),
}

impl FPred {
    fn shifted(&self, by: usize) -> FPred {
        FPred {
            lhs: (self.lhs.0 + by, self.lhs.1.clone()),
            op: self.op,
            rhs: match &self.rhs {
                FOperand::Col(i, c) => FOperand::Col(i + by, c.clone()),
                FOperand::Const(v) => FOperand::Const(v.clone()),
            },
        }
    }
}

/// A subtree expressible as one SQL query.
struct Frag {
    server: Name,
    from: Vec<RelationSource>,
    preds: Vec<FPred>,
    vars: Vec<(Name, VOrigin)>,
    distinct: bool,
    order: Vec<Name>,
}

impl Frag {
    fn origin_of(&self, var: &Name) -> Option<&VOrigin> {
        self.vars.iter().find(|(v, _)| v == var).map(|(_, o)| o)
    }
}

// ---------------------------------------------------------------------
// Conversion.
// ---------------------------------------------------------------------

fn convert(op: &Op, catalog: &Catalog) -> Option<Frag> {
    match op {
        Op::MkSrc { source, var } => {
            let rel = catalog.relation_info(source.as_str())?.clone();
            Some(Frag {
                server: rel.db().name().clone(),
                from: vec![rel],
                preds: vec![],
                vars: vec![(var.clone(), VOrigin::Tuple(0))],
                distinct: false,
                order: vec![],
            })
        }
        Op::GetD {
            input,
            from,
            path,
            to,
        } => {
            let mut f = convert(input, catalog)?;
            let origin = f.origin_of(from)?.clone();
            let new_origin = resolve_path(&f, &origin, path.steps())?;
            f.vars.push((to.clone(), new_origin));
            Some(f)
        }
        Op::Select { input, cond } => {
            let mut f = convert(input, catalog)?;
            let preds = convert_cond(&f, cond)?;
            f.preds.extend(preds);
            Some(f)
        }
        Op::Join { left, right, cond } => {
            let f = merge(convert(left, catalog)?, convert(right, catalog)?, None)?;
            attach_cond(f, cond.as_ref())
        }
        Op::SemiJoin {
            left,
            right,
            cond,
            keep,
        } => {
            let fl = convert(left, catalog)?;
            let fr = convert(right, catalog)?;
            let kept: Vec<(Name, VOrigin)> = match keep {
                Side::Left => fl.vars.clone(),
                Side::Right => fr
                    .vars
                    .iter()
                    .map(|(v, o)| (v.clone(), o.shifted(fl.from.len())))
                    .collect(),
            };
            // Resolve the condition against the *full* variable set,
            // then keep only the surviving side's bindings (the other
            // side's relations stay in FROM — the self-join of Fig. 22).
            let f = merge(fl, fr, None)?;
            let mut f = attach_cond(f, cond.as_ref())?;
            f.vars = kept;
            f.distinct = true;
            Some(f)
        }
        Op::Project { input, vars } => {
            let f = convert(input, catalog)?;
            let mut kept = Vec::new();
            for v in vars {
                kept.push((v.clone(), f.origin_of(v)?.clone()));
            }
            Some(Frag { vars: kept, ..f })
        }
        Op::OrderBy { input, vars } => {
            let mut f = convert(input, catalog)?;
            f.order.extend(vars.iter().cloned());
            Some(f)
        }
        _ => None,
    }
}

/// Can this fragment execute as one SQL statement on its server even if
/// that server is a *sharded* federation? A multi-relation statement is
/// shard-safe only when its FROM entries are provably co-partitioned:
/// every entry must be linked — transitively — to every other by an
/// equality predicate over the tables' declared shard columns, so
/// joining rows always live on the same shard. Single-relation
/// fragments and unsharded backends are always pushable (this returns
/// `true` without inspecting predicates, keeping unsharded SQL
/// byte-identical). When the guard rejects, the split recurses instead,
/// producing one `rQ` per relation with the join at the mediator.
fn co_partitioned(frag: &Frag, catalog: &Catalog) -> bool {
    if frag.from.len() <= 1 {
        return true;
    }
    let Ok(backend) = catalog.database(frag.server.as_str()) else {
        return true;
    };
    if backend.as_sharded().is_none() {
        return true;
    }
    let shard_col = |i: usize| backend.shard_col(frag.from[i].relation().as_str());
    // Union-find over FROM entries; shard-col = shard-col equi-preds
    // are the edges.
    let mut parent: Vec<usize> = (0..frag.from.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for p in &frag.preds {
        if p.op != CmpOp::Eq {
            continue;
        }
        let FOperand::Col(j, ref jc) = p.rhs else {
            continue;
        };
        let (i, ic) = (p.lhs.0, &p.lhs.1);
        if shard_col(i) == Some(ic) && shard_col(j) == Some(jc) {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            parent[ri] = rj;
        }
    }
    let root = find(&mut parent, 0);
    (1..frag.from.len()).all(|i| find(&mut parent, i) == root)
}

fn merge(fl: Frag, fr: Frag, vars_override: Option<Vec<(Name, VOrigin)>>) -> Option<Frag> {
    if fl.server != fr.server {
        return None;
    }
    let shift = fl.from.len();
    let mut from = fl.from;
    from.extend(fr.from);
    let mut preds = fl.preds;
    preds.extend(fr.preds.iter().map(|p| p.shifted(shift)));
    let vars = vars_override.unwrap_or_else(|| {
        let mut v = fl.vars.clone();
        v.extend(fr.vars.iter().map(|(n, o)| (n.clone(), o.shifted(shift))));
        v
    });
    let mut order = fl.order;
    order.extend(fr.order);
    Some(Frag {
        server: fl.server,
        from,
        preds,
        vars,
        distinct: fl.distinct || fr.distinct,
        order,
    })
}

fn attach_cond(mut f: Frag, cond: Option<&Cond>) -> Option<Frag> {
    if let Some(c) = cond {
        let preds = convert_cond(&f, c)?;
        f.preds.extend(preds);
    }
    Some(f)
}

/// Resolve a `getD` path against the wrapper's tuple structure.
fn resolve_path(f: &Frag, origin: &VOrigin, steps: &[Step]) -> Option<VOrigin> {
    let mut cur = origin.clone();
    let mut steps = steps.iter();
    // First step matches the start node itself.
    let first = steps.next()?;
    match (&cur, first) {
        (VOrigin::Tuple(i), Step::Label(l)) if l == f.from[*i].element() => {}
        (VOrigin::Tuple(_), Step::Wild) => {}
        (VOrigin::Field(_, c), Step::Label(l)) if l == c => {}
        (VOrigin::Field(_, _), Step::Wild) => {}
        (VOrigin::FieldVal(_, _), Step::Data) => {}
        _ => return None,
    }
    for step in steps {
        cur = match (&cur, step) {
            (VOrigin::Tuple(i), Step::Label(l)) => {
                let cols = f.from[*i].columns().ok()?;
                if cols.contains(l) {
                    VOrigin::Field(*i, l.clone())
                } else {
                    return None;
                }
            }
            (VOrigin::Field(i, c), Step::Data) => VOrigin::FieldVal(*i, c.clone()),
            _ => return None,
        };
    }
    Some(cur)
}

/// Translate a condition into SQL predicates (possibly several, for
/// oid-based conditions over composite keys).
fn convert_cond(f: &Frag, cond: &Cond) -> Option<Vec<FPred>> {
    let col_of = |v: &Name| -> Option<(usize, Name)> {
        match f.origin_of(v)? {
            VOrigin::Field(i, c) | VOrigin::FieldVal(i, c) => Some((*i, c.clone())),
            VOrigin::Tuple(_) => None,
        }
    };
    match cond {
        Cond::Cmp { l, op, r } => {
            let (lhs, op, rhs) = match (l, r) {
                (CondArg::Var(a), CondArg::Const(c)) => {
                    (col_of(a)?, *op, FOperand::Const(c.clone()))
                }
                (CondArg::Const(c), CondArg::Var(a)) => {
                    (col_of(a)?, op.flip(), FOperand::Const(c.clone()))
                }
                (CondArg::Var(a), CondArg::Var(b)) => {
                    let (bi, bc) = col_of(b)?;
                    (col_of(a)?, *op, FOperand::Col(bi, bc))
                }
                _ => return None,
            };
            Some(vec![FPred { lhs, op, rhs }])
        }
        Cond::OidEq { var, oid } => {
            let VOrigin::Tuple(i) = f.origin_of(var)? else {
                return None;
            };
            let OidKind::Key(text) = oid.kind() else {
                return None;
            };
            let keys = f.from[*i].key_columns().ok()?;
            let parts: Vec<&str> = text.split('|').collect();
            if parts.len() != keys.len() {
                return None;
            }
            Some(
                keys.into_iter()
                    .zip(parts)
                    .map(|(col, part)| FPred {
                        lhs: (*i, col),
                        op: CmpOp::Eq,
                        rhs: FOperand::Const(Value::parse_literal(part)),
                    })
                    .collect(),
            )
        }
        Cond::OidCmp { l, r } => {
            let VOrigin::Tuple(li) = f.origin_of(l)? else {
                return None;
            };
            let VOrigin::Tuple(ri) = f.origin_of(r)? else {
                return None;
            };
            let lk = f.from[*li].key_columns().ok()?;
            let rk = f.from[*ri].key_columns().ok()?;
            if lk.len() != rk.len() {
                return None;
            }
            Some(
                lk.into_iter()
                    .zip(rk)
                    .map(|(a, b)| FPred {
                        lhs: (*li, a),
                        op: CmpOp::Eq,
                        rhs: FOperand::Col(*ri, b),
                    })
                    .collect(),
            )
        }
        // A conjunction pushes only if every conjunct does.
        Cond::And(cs) => {
            let mut preds = Vec::new();
            for c in cs {
                preds.extend(convert_cond(f, c)?);
            }
            Some(preds)
        }
    }
}

// ---------------------------------------------------------------------
// SQL generation.
// ---------------------------------------------------------------------

fn make_rq(frag: Frag, hint: &[Name]) -> Op {
    // Fig. 22-style aliases: first letter of the relation + counter
    // (customer → c1, c2; orders → o1, o2).
    let mut per_letter: std::collections::HashMap<char, usize> = std::collections::HashMap::new();
    let aliases: Vec<Name> = frag
        .from
        .iter()
        .map(|rel| {
            let letter = rel.relation().as_str().chars().next().unwrap_or('t');
            let n = per_letter.entry(letter).or_insert(0);
            *n += 1;
            Name::new(format!("{letter}{n}"))
        })
        .collect();

    // SELECT items + the rQ map, deduplicating shared origins.
    let mut items: Vec<SelectItem> = Vec::new();
    let mut col_pos: std::collections::HashMap<(usize, Name), usize> =
        std::collections::HashMap::new();
    let mut pos_of = |items: &mut Vec<SelectItem>, i: usize, col: Name| -> usize {
        if let Some(&p) = col_pos.get(&(i, col.clone())) {
            return p;
        }
        let p = items.len();
        items.push(SelectItem {
            col: ColRef::qualified(aliases[i].clone(), col.clone()),
            alias: None,
        });
        col_pos.insert((i, col), p);
        p
    };
    let mut map = Vec::new();
    for (var, origin) in &frag.vars {
        let kind = match origin {
            VOrigin::Tuple(i) => {
                let rel = &frag.from[*i];
                let cols = rel.columns().unwrap_or_default();
                let keys = rel.key_columns().unwrap_or_default();
                let positions: Vec<(Name, usize)> = cols
                    .iter()
                    .map(|c| (c.clone(), pos_of(&mut items, *i, c.clone())))
                    .collect();
                let key = keys
                    .iter()
                    .filter_map(|k| positions.iter().find(|(c, _)| c == k).map(|(_, p)| *p))
                    .collect();
                RqKind::Element {
                    element: rel.element().clone(),
                    cols: positions,
                    key,
                }
            }
            // A Field origin is the field *element*, not its value —
            // shipping it as a bare value collapses `$B IN $A/col` to
            // `$B IN $A/col/data()` and diverges from the naive plan
            // (wrong skolem argument, wrong construction).
            VOrigin::Field(i, c) => {
                let col = pos_of(&mut items, *i, c.clone());
                let keys = frag.from[*i].key_columns().unwrap_or_default();
                let key = keys
                    .iter()
                    .map(|k| pos_of(&mut items, *i, k.clone()))
                    .collect();
                RqKind::FieldElement {
                    element: c.clone(),
                    col,
                    key,
                }
            }
            VOrigin::FieldVal(i, c) => RqKind::Value {
                col: pos_of(&mut items, *i, c.clone()),
            },
        };
        map.push(RqBinding {
            var: var.clone(),
            kind,
        });
    }

    // WHERE clause.
    let preds: Vec<Pred> = frag
        .preds
        .iter()
        .map(|p| Pred {
            lhs: ColRef::qualified(aliases[p.lhs.0].clone(), p.lhs.1.clone()),
            op: p.op,
            rhs: match &p.rhs {
                FOperand::Const(v) => Operand::Const(v.clone()),
                FOperand::Col(i, c) => {
                    Operand::Col(ColRef::qualified(aliases[*i].clone(), c.clone()))
                }
            },
        })
        .collect();

    // ORDER BY: the group-by hint variables' key columns first, then
    // the remaining exported tuple variables' keys (stable navigation
    // order), then explicit orderBy variables.
    let mut order_by: Vec<ColRef> = Vec::new();
    let push_var_keys = |order_by: &mut Vec<ColRef>, var: &Name| match frag.origin_of(var) {
        Some(VOrigin::Tuple(i)) => {
            for k in frag.from[*i].key_columns().unwrap_or_default() {
                let c = ColRef::qualified(aliases[*i].clone(), k);
                if !order_by.contains(&c) {
                    order_by.push(c);
                }
            }
        }
        Some(VOrigin::Field(i, c)) | Some(VOrigin::FieldVal(i, c)) => {
            let c = ColRef::qualified(aliases[*i].clone(), c.clone());
            if !order_by.contains(&c) {
                order_by.push(c);
            }
        }
        None => {}
    };
    for h in hint {
        push_var_keys(&mut order_by, h);
    }
    for (var, origin) in &frag.vars {
        if matches!(origin, VOrigin::Tuple(_)) {
            push_var_keys(&mut order_by, var);
        }
    }
    for v in &frag.order {
        push_var_keys(&mut order_by, v);
    }

    let sql = SelectStmt {
        distinct: frag.distinct,
        items,
        from: frag
            .from
            .iter()
            .zip(&aliases)
            .map(|(rel, a)| FromItem {
                table: rel.relation().clone(),
                alias: Some(a.clone()),
            })
            .collect(),
        preds,
        order_by,
    };
    Op::RelQuery {
        server: frag.server,
        sql,
        map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_algebra::{translate, validate};
    use mix_wrapper::fig2_catalog;
    use mix_xquery::parse_query;

    const Q1: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
         WHERE $C/id/data() = $O/cid/data() \
         RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";

    #[test]
    fn q1_pushes_join_to_sql() {
        let (cat, _db) = fig2_catalog();
        let plan = translate(&parse_query(Q1).unwrap()).unwrap();
        let split = split_plan(&plan, &cat);
        validate(&split).unwrap();
        let text = split.render();
        assert!(text.contains("rQ(db1"), "{text}");
        // One single rQ feeding the grouping machinery; no mksrc left.
        assert!(!text.contains("mksrc"), "{text}");
        assert!(text.contains("WHERE c1.id = o1.cid"), "{text}");
        // Presorted gBy support: ORDER BY the group variable's key first.
        assert!(text.contains("ORDER BY c1.id, o1.orid"), "{text}");
        assert!(text.contains("gBy([$C] -> $X)"), "{text}");
    }

    #[test]
    fn selection_pushed_into_sql() {
        let (cat, _db) = fig2_catalog();
        let q = "FOR $O IN document(root2)/order WHERE $O/value > 2000 RETURN $O";
        let plan = translate(&parse_query(q).unwrap()).unwrap();
        let split = split_plan(&plan, &cat);
        let text = split.render();
        assert!(text.contains("WHERE o1.value > 2000"), "{text}");
        assert!(!text.contains("select"), "{text}");
    }

    #[test]
    fn oid_selection_becomes_key_predicate() {
        use mix_xml::Oid;
        let (cat, _db) = fig2_catalog();
        let q = "FOR $C IN source(&root1)/customer RETURN $C";
        let plan = translate(&parse_query(q).unwrap()).unwrap();
        let Op::TupleDestroy { input, var, root } = plan.root else {
            panic!()
        };
        let fixed = Plan::new(Op::TupleDestroy {
            input: Box::new(Op::Select {
                input,
                cond: Cond::OidEq {
                    var: Name::new("C"),
                    oid: Oid::key("XYZ123"),
                },
            }),
            var,
            root,
        });
        let text = split_plan(&fixed, &cat).render();
        assert!(text.contains("WHERE c1.id = 'XYZ123'"), "{text}");
    }

    #[test]
    fn semijoin_renders_as_distinct_self_join() {
        use mix_xml::LabelPath;
        let (cat, _db) = fig2_catalog();
        // Lsemijoin: customers (kept) having an order with value > 20000.
        let customers = Op::GetD {
            input: Box::new(Op::MkSrc {
                source: Name::new("root1"),
                var: Name::new("K"),
            }),
            from: Name::new("K"),
            path: LabelPath::parse("customer").unwrap(),
            to: Name::new("C"),
        };
        let big_orders = Op::Select {
            input: Box::new(Op::GetD {
                input: Box::new(Op::GetD {
                    input: Box::new(Op::MkSrc {
                        source: Name::new("root2"),
                        var: Name::new("J"),
                    }),
                    from: Name::new("J"),
                    path: LabelPath::parse("order").unwrap(),
                    to: Name::new("O"),
                }),
                from: Name::new("O"),
                path: LabelPath::parse("order.value.data()").unwrap(),
                to: Name::new("3"),
            }),
            cond: Cond::cmp_const("3", CmpOp::Gt, 20000),
        };
        // join condition via cid: bind both sides' ids
        let customers = Op::GetD {
            input: Box::new(customers),
            from: Name::new("C"),
            path: LabelPath::parse("customer.id.data()").unwrap(),
            to: Name::new("1"),
        };
        let big_orders = Op::GetD {
            input: Box::new(big_orders),
            from: Name::new("O"),
            path: LabelPath::parse("order.cid.data()").unwrap(),
            to: Name::new("2"),
        };
        let plan = Plan::new(Op::TupleDestroy {
            input: Box::new(Op::SemiJoin {
                left: Box::new(big_orders),
                right: Box::new(customers),
                cond: Some(Cond::cmp_vars("1", CmpOp::Eq, "2")),
                keep: Side::Right,
            }),
            var: Name::new("C"),
            root: Some(Name::new("rootv")),
        });
        validate(&plan).unwrap();
        let text = split_plan(&plan, &cat).render();
        assert!(text.contains("SELECT DISTINCT"), "{text}");
        // Self-join style: both customer (kept) and orders (filter) in FROM.
        assert!(text.contains("FROM orders o1, customer c1"), "{text}");
        assert!(text.contains("o1.value > 20000"), "{text}");
        assert!(text.contains("c1.id = o1.cid"), "{text}");
    }

    #[test]
    fn co_partitioned_join_pushes_to_sharded_backend() {
        // customer.id = orders.cid links the two declared shard
        // columns, so the join is shard-local and still renders as one
        // rQ — with SQL byte-identical to the unsharded split.
        let db = mix_relational::fixtures::sample_db();
        let (cat, _sharded) = mix_wrapper::wrap_customers_orders_sharded(
            &db,
            mix_relational::ShardScheme::Hash { shards: 4 },
        )
        .unwrap();
        let plan = translate(&parse_query(Q1).unwrap()).unwrap();
        let text = split_plan(&plan, &cat).render();
        assert_eq!(text.matches("rQ(").count(), 1, "{text}");
        assert!(text.contains("WHERE c1.id = o1.cid"), "{text}");
        assert!(text.contains("ORDER BY c1.id, o1.orid"), "{text}");

        let (unsharded_cat, _db) = fig2_catalog();
        assert_eq!(text, split_plan(&plan, &unsharded_cat).render());
    }

    #[test]
    fn non_co_partitioned_join_splits_per_relation() {
        // id-to-orid joins rows that live on different shards: the
        // fragment must not become one statement. Each relation gets
        // its own rQ and the join runs at the mediator.
        let db = mix_relational::fixtures::sample_db();
        let (cat, _sharded) = mix_wrapper::wrap_customers_orders_sharded(
            &db,
            mix_relational::ShardScheme::Hash { shards: 4 },
        )
        .unwrap();
        let q = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
                 WHERE $C/id/data() = $O/orid/data() RETURN $O";
        let plan = translate(&parse_query(q).unwrap()).unwrap();
        let text = split_plan(&plan, &cat).render();
        assert_eq!(text.matches("rQ(").count(), 2, "{text}");
        assert!(text.contains("join("), "{text}");
        // The same query on the unsharded catalog still merges.
        let (unsharded_cat, _db) = fig2_catalog();
        let text = split_plan(&plan, &unsharded_cat).render();
        assert_eq!(text.matches("rQ(").count(), 1, "{text}");
    }

    #[test]
    fn mixed_servers_do_not_merge() {
        // A second database under different server name.
        let (mut cat, _db) = fig2_catalog();
        let mut db2 = mix_relational::Database::new("db2");
        db2.create_table(
            "extra",
            mix_relational::Schema::new(
                vec![mix_relational::Column::new(
                    "k",
                    mix_relational::ColumnType::Int,
                )],
                &["k"],
            )
            .unwrap(),
        )
        .unwrap();
        cat.register_relation(RelationSource::new(db2, "extra", "extra", "root9"));
        let q = "FOR $C IN source(&root1)/customer $E IN document(root9)/extra \
                 WHERE $C/id/data() = $E/k/data() RETURN $C";
        let plan = translate(&parse_query(q).unwrap()).unwrap();
        let text = split_plan(&plan, &cat).render();
        // Two rQ operators (one per server) with the join at the mediator.
        assert_eq!(text.matches("rQ(").count(), 2, "{text}");
        assert!(text.contains("join("), "{text}");
    }

    #[test]
    fn file_sources_stay_at_mediator() {
        let mut cat = Catalog::new();
        cat.register_xml(
            mix_xml::parse_document("filesrc", "<list><a><x>1</x></a></list>").unwrap(),
        );
        let q = "FOR $A IN document(filesrc)/a WHERE $A/x/data() > 0 RETURN $A";
        let plan = translate(&parse_query(q).unwrap()).unwrap();
        let text = split_plan(&plan, &cat).render();
        assert!(!text.contains("rQ("), "{text}");
        assert!(text.contains("mksrc(filesrc"), "{text}");
    }
}

// ---------------------------------------------------------------------
// Schema-aware pruning (the paper's suggested extension).
// ---------------------------------------------------------------------

/// Prune `getD` operators whose paths provably cannot match the
/// wrapper's tuple structure, using the relation schemas.
///
/// Section 6: "We do not consider the case of using source schema in
/// the rest of the discussion, except note that by adding additional
/// rewrite rules we can include this case easily in our framework" —
/// this is that rule. A query asking for `customer.bogus` collapses to
/// the empty plan before any SQL is issued.
///
/// Returns `None` when nothing changed.
pub fn schema_prune(plan: &Plan, catalog: &Catalog) -> Option<Plan> {
    let mut changed = false;
    let root = prune_op(&plan.root, catalog, &mut changed);
    if changed {
        Some(Plan::new(root))
    } else {
        None
    }
}

fn prune_op(op: &Op, catalog: &Catalog, changed: &mut bool) -> Op {
    if let Op::GetD {
        input, from, path, ..
    } = op
    {
        if let Some(origin) = wrapper_origin(input, from, catalog) {
            if definitely_unmatchable(&origin, path.steps()) {
                *changed = true;
                return Op::Empty {
                    vars: crate::util::bound_vars(op),
                };
            }
        }
    }
    let kids = children(op);
    let mut out = op.clone();
    for (i, k) in kids.iter().enumerate() {
        *child_mut(&mut out, i) = prune_op(k, catalog, changed);
    }
    out
}

/// Where in the wrapper's tuple structure a variable is bound, if that
/// can be derived from its producer chain.
enum WOrigin {
    Tuple(RelationSource),
    Field(RelationSource, Name),
    FieldVal,
}

fn wrapper_origin(scope: &Op, var: &Name, catalog: &Catalog) -> Option<WOrigin> {
    let producer = crate::util::find_producer(scope, var)?;
    match producer {
        Op::MkSrc { source, .. } => catalog
            .relation_info(source.as_str())
            .cloned()
            .map(WOrigin::Tuple),
        Op::GetD {
            input, from, path, ..
        } => {
            let base = wrapper_origin(input, from, catalog)?;
            follow(&base, path.steps())
        }
        _ => None,
    }
}

/// Follow a (matchable) path from an origin; `None` when the outcome is
/// unknown or the path escapes the known structure.
fn follow(origin: &WOrigin, steps: &[Step]) -> Option<WOrigin> {
    let mut cur = match origin {
        WOrigin::Tuple(r) => WOrigin::Tuple(r.clone()),
        WOrigin::Field(r, c) => WOrigin::Field(r.clone(), c.clone()),
        WOrigin::FieldVal => WOrigin::FieldVal,
    };
    let mut it = steps.iter();
    // first step: the node itself
    match (&cur, it.next()?) {
        (WOrigin::Tuple(r), Step::Label(l)) if l == r.element() => {}
        (WOrigin::Field(_, c), Step::Label(l)) if l == c => {}
        (WOrigin::FieldVal, Step::Data) => {}
        (_, Step::Wild) => {}
        _ => return None,
    }
    for step in it {
        cur = match (&cur, step) {
            (WOrigin::Tuple(r), Step::Label(l)) if r.columns().ok()?.contains(l) => {
                WOrigin::Field(r.clone(), l.clone())
            }
            (WOrigin::Field(_, _), Step::Data) => WOrigin::FieldVal,
            _ => return None,
        };
    }
    Some(cur)
}

/// Is the path provably unsatisfiable from this origin? Conservative:
/// wildcards and unknown shapes return `false`.
fn definitely_unmatchable(origin: &WOrigin, steps: &[Step]) -> bool {
    let mut cur = match origin {
        WOrigin::Tuple(r) => WOrigin::Tuple(r.clone()),
        WOrigin::Field(r, c) => WOrigin::Field(r.clone(), c.clone()),
        WOrigin::FieldVal => WOrigin::FieldVal,
    };
    let mut it = steps.iter();
    let Some(first) = it.next() else { return false };
    match (&cur, first) {
        (WOrigin::Tuple(r), Step::Label(l)) => {
            if l != r.element() {
                return true;
            }
        }
        (WOrigin::Field(_, c), Step::Label(l)) => {
            if l != c {
                return true;
            }
        }
        (WOrigin::FieldVal, Step::Label(_)) => return true,
        (WOrigin::Tuple(_) | WOrigin::Field(_, _), Step::Data) => {
            // tuple elements have element children; fields have a text
            // child only via a further step
            if matches!(cur, WOrigin::Tuple(_)) {
                return true;
            }
        }
        _ => return false, // wildcard or already-satisfied leaf
    }
    for step in it {
        match (&cur, step) {
            (WOrigin::Tuple(r), Step::Label(l)) => {
                let Ok(cols) = r.columns() else { return false };
                if !cols.contains(l) {
                    return true;
                }
                cur = WOrigin::Field(r.clone(), l.clone());
            }
            (WOrigin::Tuple(_), Step::Data) => return true,
            (WOrigin::Field(_, _), Step::Data) => cur = WOrigin::FieldVal,
            (WOrigin::Field(_, _), Step::Label(_)) => return true,
            (WOrigin::FieldVal, _) => return true,
            (_, Step::Wild) => return false,
        }
    }
    false
}

#[cfg(test)]
mod schema_prune_tests {
    use super::*;
    use mix_algebra::translate;
    use mix_wrapper::fig2_catalog;
    use mix_xquery::parse_query;

    #[test]
    fn bogus_column_collapses_to_empty() {
        let (cat, _) = fig2_catalog();
        let q = "FOR $C IN source(&root1)/customer $X IN $C/bogus RETURN $X";
        let plan = translate(&parse_query(q).unwrap()).unwrap();
        let pruned = schema_prune(&plan, &cat).expect("prunes");
        assert!(pruned.render().contains("empty"), "{}", pruned.render());
    }

    #[test]
    fn valid_paths_are_untouched() {
        let (cat, _) = fig2_catalog();
        let q = "FOR $C IN source(&root1)/customer $X IN $C/name RETURN $X";
        let plan = translate(&parse_query(q).unwrap()).unwrap();
        assert!(schema_prune(&plan, &cat).is_none());
    }

    #[test]
    fn too_deep_paths_are_pruned() {
        let (cat, _) = fig2_catalog();
        // name has a text leaf, not a `sub` element.
        let q = "FOR $C IN source(&root1)/customer $X IN $C/name/sub RETURN $X";
        let plan = translate(&parse_query(q).unwrap()).unwrap();
        assert!(schema_prune(&plan, &cat).is_some());
    }
}
