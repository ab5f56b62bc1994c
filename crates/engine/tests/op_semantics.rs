//! Per-operator semantics conformance: each XMAS operator evaluated by
//! BOTH engines (eager tables, lazy streams) on hand-built plans, with
//! the outputs compared tuple by tuple.

use mix_algebra::{CatArg, ChildSpec, Cond, Op, Side};
use mix_common::{CmpOp, Name};
use mix_engine::stream::{build_stream, TStream};
use mix_engine::{eager, AccessMode, EvalContext, LTuple, LVal};
use mix_wrapper::fig2_catalog;
use mix_xml::LabelPath;
use std::collections::HashMap;
use std::sync::Arc;

fn mk(source: &str, var: &str) -> Op {
    Op::MkSrc {
        source: Name::new(source),
        var: Name::new(var),
    }
}

fn getd(input: Op, from: &str, path: &str, to: &str) -> Op {
    Op::GetD {
        input: Box::new(input),
        from: Name::new(from),
        path: LabelPath::parse(path).unwrap(),
        to: Name::new(to),
    }
}

/// Render one tuple as comparable text (oids of every binding).
fn tuple_key(ctx: &EvalContext, t: &LTuple) -> String {
    t.vars
        .iter()
        .zip(&t.vals)
        .map(|(v, val)| format!("{}={}", v, render_val(ctx, val)))
        .collect::<Vec<_>>()
        .join(" ")
}

fn render_val(ctx: &EvalContext, v: &LVal) -> String {
    match v {
        LVal::Part(p) => {
            let inner: Vec<String> = p
                .force()
                .unwrap()
                .iter()
                .map(|t| tuple_key(ctx, t))
                .collect();
            format!("{{{}}}", inner.join("; "))
        }
        LVal::List(l) => {
            let inner: Vec<String> = mix_engine::lval::force_list(l)
                .unwrap()
                .iter()
                .map(|e| render_val(ctx, e))
                .collect();
            format!("[{}]", inner.join(","))
        }
        other => ctx.lval_oid(other).to_string(),
    }
}

/// Drain `stream` with pulls of `size()` tuples each, checking every
/// operator's `pull_block` contract on the way: `k ≤ n`, and a short
/// pull (exhaustion) is followed only by empty pulls.
fn drain_blocks(stream: &mut dyn TStream, mut size: impl FnMut() -> usize) -> Vec<LTuple> {
    let mut out = Vec::new();
    loop {
        let n = size();
        let before = out.len();
        let k = stream.pull_block(&mut out, n).unwrap();
        assert_eq!(out.len() - before, k, "the count is the tuples appended");
        assert!(k <= n, "a pull of {n} returned {k}");
        if k < n {
            for n in [1, 7] {
                assert_eq!(
                    stream.pull_block(&mut out, n).unwrap(),
                    0,
                    "pull after exhaustion"
                );
            }
            return out;
        }
    }
}

/// Evaluate `op` with both engines and assert identical tuples. The
/// lazy side runs with and without hash joins and is drained three
/// ways: one `next()` at a time, in 512-tuple blocks, and in a seeded
/// sequence of 1/2/3/7-tuple pulls.
fn assert_engines_agree(op: &Op) -> Vec<String> {
    let (catalog, _) = fig2_catalog();
    // eager
    let ectx = EvalContext::new(catalog.clone(), AccessMode::Eager);
    let table = eager::eval_table(op, &ectx, &HashMap::new()).unwrap();
    let eager_rows: Vec<String> = table.tuples.iter().map(|t| tuple_key(&ectx, t)).collect();
    // lazy
    for hash_joins in [true, false] {
        for drain in ["next", "block", "mixed"] {
            let mut lctx = EvalContext::new(catalog.clone(), AccessMode::Lazy);
            lctx.hash_joins = hash_joins;
            let lctx = Arc::new(lctx);
            let mut stream = build_stream(op, &lctx, &Arc::new(HashMap::new())).unwrap();
            let mut seed = 0x5eed_u64;
            let tuples: Vec<LTuple> = match drain {
                "next" => std::iter::from_fn(|| stream.next().unwrap()).collect(),
                "block" => drain_blocks(&mut *stream, || 512),
                _ => drain_blocks(&mut *stream, || {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    [1, 2, 3, 7][(seed >> 33) as usize % 4]
                }),
            };
            let lazy_rows: Vec<String> = tuples.iter().map(|t| tuple_key(&lctx, t)).collect();
            assert_eq!(
                eager_rows,
                lazy_rows,
                "engines disagree for {} (hash_joins={hash_joins}, drain={drain})",
                op.head()
            );
        }
    }
    eager_rows
}

#[test]
fn mksrc_and_getd() {
    let rows = assert_engines_agree(&getd(mk("root1", "K"), "K", "customer", "C"));
    assert_eq!(rows.len(), 2);
    assert!(rows[0].contains("C=&DEF345"), "{rows:?}");
}

#[test]
fn select_const_and_var() {
    let op = Op::Select {
        input: Box::new(getd(
            getd(mk("root2", "J"), "J", "order", "O"),
            "O",
            "order.value.data()",
            "V",
        )),
        cond: Cond::cmp_const("V", CmpOp::Gt, 2000),
    };
    assert_eq!(assert_engines_agree(&op).len(), 2);
}

#[test]
fn select_oid_eq() {
    let op = Op::Select {
        input: Box::new(getd(mk("root1", "K"), "K", "customer", "C")),
        cond: Cond::OidEq {
            var: Name::new("C"),
            oid: mix_xml::Oid::key("XYZ123"),
        },
    };
    let rows = assert_engines_agree(&op);
    assert_eq!(rows.len(), 1);
    assert!(rows[0].contains("&XYZ123"));
}

#[test]
fn join_with_condition_and_cartesian() {
    let customers = getd(
        getd(mk("root1", "K"), "K", "customer", "C"),
        "C",
        "customer.id.data()",
        "1",
    );
    let orders = getd(
        getd(mk("root2", "J"), "J", "order", "O"),
        "O",
        "order.cid.data()",
        "2",
    );
    let join = Op::Join {
        left: Box::new(customers.clone()),
        right: Box::new(orders.clone()),
        cond: Some(Cond::cmp_vars("1", CmpOp::Eq, "2")),
    };
    assert_eq!(assert_engines_agree(&join).len(), 3);
    let cart = Op::Join {
        left: Box::new(customers),
        right: Box::new(orders),
        cond: None,
    };
    assert_eq!(assert_engines_agree(&cart).len(), 6);
}

#[test]
fn semijoin_both_sides() {
    let customers = getd(
        getd(mk("root1", "K"), "K", "customer", "C"),
        "C",
        "customer.id.data()",
        "1",
    );
    let big_orders = Op::Select {
        input: Box::new(getd(
            getd(
                getd(mk("root2", "J"), "J", "order", "O"),
                "O",
                "order.cid.data()",
                "2",
            ),
            "O",
            "order.value.data()",
            "V",
        )),
        cond: Cond::cmp_const("V", CmpOp::Gt, 100_000),
    };
    // Keep customers having a big order (left side kept).
    let keep_left = Op::SemiJoin {
        left: Box::new(customers.clone()),
        right: Box::new(big_orders.clone()),
        cond: Some(Cond::cmp_vars("1", CmpOp::Eq, "2")),
        keep: Side::Left,
    };
    let rows = assert_engines_agree(&keep_left);
    assert_eq!(rows.len(), 1);
    assert!(rows[0].contains("&XYZ123"));
    // Keep big orders of existing customers (right side kept).
    let keep_right = Op::SemiJoin {
        left: Box::new(customers),
        right: Box::new(big_orders),
        cond: Some(Cond::cmp_vars("1", CmpOp::Eq, "2")),
        keep: Side::Right,
    };
    assert_eq!(assert_engines_agree(&keep_right).len(), 1);
}

#[test]
fn oid_cmp_join() {
    // Self-join of customers on node identity.
    let a = getd(mk("root1", "K"), "K", "customer", "C");
    let b = getd(mk("root1", "K2"), "K2", "customer", "C2");
    let join = Op::Join {
        left: Box::new(a),
        right: Box::new(b),
        cond: Some(Cond::OidCmp {
            l: Name::new("C"),
            r: Name::new("C2"),
        }),
    };
    assert_eq!(assert_engines_agree(&join).len(), 2);
}

#[test]
fn project_keeps_listed_vars() {
    let op = Op::Project {
        input: Box::new(getd(mk("root1", "K"), "K", "customer", "C")),
        vars: vec![Name::new("C")],
    };
    let rows = assert_engines_agree(&op);
    assert_eq!(rows.len(), 2);
    assert!(!rows[0].contains("K="), "{rows:?}");
}

#[test]
fn crelt_cat_and_lists() {
    let base = getd(mk("root1", "K"), "K", "customer", "C");
    let e1 = Op::CrElt {
        input: Box::new(base),
        label: Name::new("rec"),
        skolem: Name::new("f"),
        group: vec![Name::new("C")],
        children: ChildSpec::Single(Name::new("C")),
        tag: Name::new("R"),
        out: Name::new("R"),
    };
    let cat = Op::Cat {
        input: Box::new(e1),
        left: CatArg::Single(Name::new("R")),
        right: CatArg::Single(Name::new("C")),
        out: Name::new("W"),
    };
    let wrapped = Op::CrElt {
        input: Box::new(cat),
        label: Name::new("outer"),
        skolem: Name::new("g"),
        group: vec![Name::new("C")],
        children: ChildSpec::ListVar(Name::new("W")),
        tag: Name::new("V"),
        out: Name::new("V"),
    };
    let rows = assert_engines_agree(&wrapped);
    assert_eq!(rows.len(), 2);
    assert!(rows[0].contains("V=&($V,g(&DEF345))"), "{rows:?}");
    assert!(rows[0].contains("W=[&($R,f(&DEF345)),&DEF345]"), "{rows:?}");
}

#[test]
fn group_by_and_apply() {
    let orders = getd(
        getd(mk("root2", "J"), "J", "order", "O"),
        "O",
        "order.cid.data()",
        "Cid",
    );
    let grouped = Op::GroupBy {
        input: Box::new(orders),
        group: vec![Name::new("Cid")],
        out: Name::new("X"),
    };
    let rows = assert_engines_agree(&grouped);
    assert_eq!(rows.len(), 2, "{rows:?}"); // XYZ123 and DEF345 groups
    let applied = Op::Apply {
        input: Box::new(grouped),
        plan: Box::new(Op::TupleDestroy {
            input: Box::new(Op::NestedSrc {
                var: Name::new("X"),
            }),
            var: Name::new("O"),
            root: None,
        }),
        param: Some(Name::new("X")),
        out: Name::new("Z"),
    };
    let rows = assert_engines_agree(&applied);
    assert!(rows[0].contains("Z=[&28904,&87456]"), "{rows:?}");
    assert!(rows[1].contains("Z=[&99111]"), "{rows:?}");
}

#[test]
fn order_by_sorts_by_oid() {
    // Orders arrive in orid order; sort by the customer-id *value* key.
    let orders = getd(
        getd(mk("root2", "J"), "J", "order", "O"),
        "O",
        "order.cid.data()",
        "Cid",
    );
    let sorted = Op::OrderBy {
        input: Box::new(orders),
        vars: vec![Name::new("Cid"), Name::new("O")],
    };
    let rows = assert_engines_agree(&sorted);
    assert_eq!(rows.len(), 3);
    assert!(rows[0].contains("Cid=DEF345"), "{rows:?}");
}

#[test]
fn mksrc_over_inline_view() {
    let view = Op::TupleDestroy {
        input: Box::new(getd(mk("root1", "K"), "K", "customer", "C")),
        var: Name::new("C"),
        root: Some(Name::new("v")),
    };
    let op = getd(
        Op::MkSrcOver {
            input: Box::new(view),
            var: Name::new("A"),
        },
        "A",
        "customer.name.data()",
        "N",
    );
    let rows = assert_engines_agree(&op);
    assert_eq!(rows.len(), 2);
    assert!(rows[0].contains("N=DEFCorp."), "{rows:?}");
}

#[test]
fn empty_plan_yields_nothing() {
    assert!(assert_engines_agree(&Op::Empty {
        vars: vec![Name::new("X")]
    })
    .is_empty());
}

#[test]
fn rq_value_and_element_bindings() {
    use mix_algebra::{RqBinding, RqKind};
    use mix_relational::parse_sql;
    let op = Op::RelQuery {
        server: Name::new("db1"),
        sql: parse_sql(
            "SELECT o.orid, o.cid, o.value FROM orders o WHERE o.value > 400 ORDER BY o.orid",
        )
        .unwrap(),
        map: vec![
            RqBinding {
                var: Name::new("O"),
                kind: RqKind::Element {
                    element: Name::new("order"),
                    cols: vec![
                        (Name::new("orid"), 0),
                        (Name::new("cid"), 1),
                        (Name::new("value"), 2),
                    ],
                    key: vec![0],
                },
            },
            RqBinding {
                var: Name::new("V"),
                kind: RqKind::Value { col: 2 },
            },
        ],
    };
    let rows = assert_engines_agree(&op);
    assert_eq!(rows.len(), 3);
    assert!(rows[0].contains("O=&28904"), "{rows:?}");
    assert!(rows[0].contains("V=2400"), "{rows:?}");
}
