//! The paper's performance claims as hard assertions on the work
//! counters (the benchmark harness measures the same quantities over
//! parameter sweeps; these tests pin the *shape* of each claim).

use mix::prelude::*;
use mix_repro::datagen::customers_orders;

const Q1: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
     WHERE $C/id/data() = $O/cid/data() \
     RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";

fn mediator(catalog: Catalog, optimize: bool, access: AccessMode) -> Mediator {
    Mediator::with_options(
        catalog,
        MediatorOptions::builder()
            .access(access)
            .optimize(optimize)
            .build(),
    )
}

/// E1: browsing k of N results ships ~k·(orders+1) tuples under lazy
/// evaluation, but the whole database under eager evaluation.
#[test]
fn e1_lazy_browse_ships_prefix_only() {
    let n = 300;
    let per = 4;
    let (catalog, db) = customers_orders(n, per, 11);
    let stats = db.stats().clone();

    // Lazy: browse 5 CustRecs shallowly.
    let m = mediator(catalog.clone(), true, AccessMode::Lazy);
    let mut s = m.session();
    stats.reset();
    let p0 = s.query(Q1).unwrap();
    let mut cur = s.d(p0).unwrap();
    for _ in 0..4 {
        cur = cur.and_then(|c| s.r(c).unwrap());
    }
    let lazy_shipped = stats.get(Counter::TuplesShipped);

    // Eager: the same query materializes everything up front.
    let m = mediator(catalog, true, AccessMode::Eager);
    let mut s = m.session();
    stats.reset();
    let _p0 = s.query(Q1).unwrap();
    let eager_shipped = stats.get(Counter::TuplesShipped);

    assert!(
        lazy_shipped * 5 < eager_shipped,
        "lazy={lazy_shipped} eager={eager_shipped}"
    );
    // Eager ships at least every joined row.
    assert!(eager_shipped >= (n * per) as u64);
}

/// E2: time-to-first-result under lazy evaluation is O(1) in source
/// tuples, independent of database size.
#[test]
fn e2_first_result_cost_independent_of_n() {
    let mut first_costs = Vec::new();
    for n in [50usize, 500, 2000] {
        let (catalog, db) = customers_orders(n, 2, 3);
        let stats = db.stats().clone();
        let m = mediator(catalog, true, AccessMode::Lazy);
        let mut s = m.session();
        stats.reset();
        let p0 = s.query(Q1).unwrap();
        let _first = s.d(p0).unwrap().unwrap();
        first_costs.push(stats.get(Counter::TuplesShipped));
    }
    // Identical prefix cost at every scale.
    assert_eq!(first_costs[0], first_costs[1], "{first_costs:?}");
    assert_eq!(first_costs[1], first_costs[2], "{first_costs:?}");
}

/// E3: an in-place query via decontextualization ships far less than
/// materializing the context subtree and querying the copy.
#[test]
fn e3_decontext_beats_materialize() {
    let (catalog, db) = customers_orders(200, 30, 5);
    let stats = db.stats().clone();
    let m = mediator(catalog, true, AccessMode::Lazy);
    let mut s = m.session();
    let p0 = s.query(Q1).unwrap();
    let p1 = s.d(p0).unwrap().unwrap(); // first CustRec (30 orders below)
    let q = "FOR $O IN document(root)/OrderInfo WHERE $O/order/value > 99000 RETURN $O";

    let med_stats = s.ctx().stats().clone();
    stats.reset();
    med_stats.reset();
    let a = s.q(q, p1).unwrap();
    let _ = s.child_count(a).unwrap();
    let decontext_shipped = stats.get(Counter::TuplesShipped);
    let decontext_built = med_stats.get(Counter::NodesBuilt);

    stats.reset();
    med_stats.reset();
    let b = s.q_materialized(q, p1).unwrap();
    let _ = s.child_count(b).unwrap();
    let materialize_built = med_stats.get(Counter::NodesBuilt);

    // The materializing baseline copies the full 30-order subtree to
    // the mediator; decontextualization only touches the matching
    // orders (high selectivity ⇒ almost none).
    assert!(
        materialize_built > 30 * 4,
        "materialize_built={materialize_built}"
    );
    assert!(
        decontext_built < materialize_built,
        "decontext_built={decontext_built} materialize_built={materialize_built}"
    );
    // And the decontextualized SQL ships only the context's matching
    // rows, not whole relations.
    assert!(
        decontext_shipped < 30,
        "decontext_shipped={decontext_shipped}"
    );
}

/// E4: composition optimization ships the most restrictive query — the
/// naive composed plan ships entire relations.
#[test]
fn e4_pushdown_ships_less() {
    let (catalog, db) = customers_orders(400, 6, 9);
    let stats = db.stats().clone();
    const VIEW: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
         WHERE $C/id/data() = $O/cid/data() \
         RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";
    let report = "FOR $R IN document(v)/CustRec $S IN $R/OrderInfo \
         WHERE $S/order/value > 99500 RETURN $R";
    let mut shipped = Vec::new();
    for optimize in [true, false] {
        let mut m = mediator(catalog.clone(), optimize, AccessMode::Lazy);
        m.define_view("v", VIEW).unwrap();
        let mut s = m.session();
        stats.reset();
        let p = s.query(report).unwrap();
        let _ = s.child_count(p).unwrap();
        shipped.push(stats.get(Counter::TuplesShipped));
    }
    let (optimized, naive) = (shipped[0], shipped[1]);
    assert!(optimized * 3 < naive, "optimized={optimized} naive={naive}");
}

/// E5: rewriting removes unnecessary element construction at the
/// mediator (nodes built for objects the query discards).
#[test]
fn e5_mediator_builds_fewer_nodes() {
    let (catalog, db) = customers_orders(300, 5, 13);
    let stats = db.stats().clone();
    const VIEW: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
         WHERE $C/id/data() = $O/cid/data() \
         RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";
    let report = "FOR $R IN document(v)/CustRec $S IN $R/OrderInfo \
         WHERE $S/order/value > 99500 RETURN $R";
    let _ = stats;
    let mut built = Vec::new();
    for optimize in [true, false] {
        let mut m = mediator(catalog.clone(), optimize, AccessMode::Lazy);
        m.define_view("v", VIEW).unwrap();
        let mut s = m.session();
        let med_stats = s.ctx().stats().clone();
        med_stats.reset();
        let p = s.query(report).unwrap();
        let _ = s.child_count(p).unwrap();
        built.push(med_stats.get(Counter::NodesBuilt));
    }
    assert!(
        built[0] < built[1],
        "optimized={} naive={}",
        built[0],
        built[1]
    );
}

/// E6: a decontextualized in-place query's cost tracks the context, not
/// the database: doubling unrelated customers leaves it unchanged.
#[test]
fn e6_in_place_query_cost_tracks_context() {
    let mut costs = Vec::new();
    for n in [100usize, 800] {
        let (catalog, db) = customers_orders(n, 10, 21);
        let stats = db.stats().clone();
        let m = mediator(catalog, true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        let p1 = s.d(p0).unwrap().unwrap();
        stats.reset();
        let a = s
            .q(
                "FOR $O IN document(root)/OrderInfo WHERE $O/order/value > 50000 RETURN $O",
                p1,
            )
            .unwrap();
        let _ = s.child_count(a).unwrap();
        costs.push(stats.get(Counter::TuplesShipped));
    }
    // Same context (customer C000000 with 10 orders) ⇒ same cost.
    assert_eq!(costs[0], costs[1], "{costs:?}");
}

/// E6 as a gate on the source itself: an in-place `q` + `child_count`
/// from the first `CustRec` examines and ships the same rows at 200 and
/// at 2000 customers. The statement's fixing selections become index
/// lookups and its joins index probes, so nothing scales with a table.
#[test]
fn in_place_query_source_cost_tracks_navigation_not_database_size() {
    let mut costs = Vec::new();
    for n in [200usize, 2000] {
        let (catalog, db) = customers_orders(n, 2, 21);
        let stats = db.stats().clone();
        let m = mediator(catalog, true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        let p1 = s.d(p0).unwrap().unwrap();
        stats.reset();
        let a = s
            .q(
                "FOR $O IN document(root)/OrderInfo WHERE $O/order/value < 60000 RETURN $O",
                p1,
            )
            .unwrap();
        let _ = s.child_count(a).unwrap();
        costs.push((
            stats.get(Counter::RowsScanned),
            stats.get(Counter::TuplesShipped),
        ));
    }
    assert_eq!(costs[0], costs[1], "(rows scanned, tuples shipped)");
    assert!(costs[0].0 <= 16, "rows scanned: {costs:?}");
}

/// Four threads race to the first lookup on one shared database: one
/// of them builds the column index, and all see the same rows.
#[test]
fn concurrent_first_lookups_agree() {
    let (_catalog, db) = customers_orders(500, 3, 5);
    let sql = "SELECT o.orid, o.value FROM orders o WHERE o.cid = 'C000123'";
    let start = std::sync::Barrier::new(4);
    let results: Vec<Vec<Vec<Value>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    db.execute_sql(sql).unwrap().collect_all().unwrap()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(results[0].len(), 3);
    assert!(results.iter().all(|r| r == &results[0]), "{results:?}");
}

/// The hash join kernel does O(|L| + |R| + |output|) work where the
/// nested loop pays |L|·|R| — checked on the probe counter for a naive
/// (mediator-joined) Q1 plan.
#[test]
fn hash_join_probes_are_linear_not_quadratic() {
    let n = 30;
    let per = 3; // 30 customers × 90 orders
    let (catalog, _db) = customers_orders(n, per, 19);
    let mut probes = Vec::new();
    let mut builds = Vec::new();
    let mut fallbacks = Vec::new();
    for hash_joins in [true, false] {
        let m = Mediator::with_options(
            catalog.clone(),
            MediatorOptions::builder()
                .access(AccessMode::Lazy)
                .optimize(false) // keep the join at the mediator
                .hash_joins(hash_joins)
                .build(),
        );
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        let _ = s.render(p0); // force the full result
        probes.push(s.ctx().stats().get(Counter::JoinProbes));
        builds.push(s.ctx().stats().get(Counter::HashBuilds));
        fallbacks.push(s.ctx().stats().get(Counter::NlFallbacks));
    }
    let (hash, nl) = (probes[0], probes[1]);
    let (l, r) = ((n) as u64, (n * per) as u64);
    // Hash: one probe per bucket candidate — here every order matches
    // exactly one customer, so ≤ |L| + |R| + |output|.
    assert!(hash <= l + 2 * r, "hash probes={hash}");
    assert!(builds[0] >= 1, "hash kernel built an index");
    assert_eq!(builds[1], 0, "the nested loop builds no keyed index");
    // Nested loop: every pair.
    assert!(nl >= l * r, "nl probes={nl}");
    assert!(hash * 5 < nl, "hash={hash} nl={nl}");
    // Exact counters per kernel (probes, builds, fallbacks): a kernel
    // change that moves any of them fails here.
    assert_eq!((probes[0], builds[0], fallbacks[0]), (90, 1, 0), "hash");
    assert_eq!((probes[1], builds[1], fallbacks[1]), (2700, 0, 1), "nl");

    // The same pins for a mediator-side semi-join: customers ⋉ orders
    // on the customer id, drained through the virtual result.
    use mix::algebra::{Cond, Op, Side};
    use mix::xml::path::LabelPath;
    use std::sync::Arc;
    // mksrc → getD(element) → getD(element.field.data())
    let side = |src: &str, elem: &str, var: &str, field: &str, id: &str| {
        let doc_var = format!("{var}0");
        Op::GetD {
            input: Box::new(Op::GetD {
                input: Box::new(Op::MkSrc {
                    source: src.into(),
                    var: doc_var.as_str().into(),
                }),
                from: doc_var.as_str().into(),
                path: LabelPath::parse(elem).unwrap(),
                to: var.into(),
            }),
            from: var.into(),
            path: LabelPath::parse(&format!("{elem}.{field}.data()")).unwrap(),
            to: id.into(),
        }
    };
    let plan = Plan::new(Op::TupleDestroy {
        input: Box::new(Op::SemiJoin {
            left: Box::new(side("root1", "customer", "C", "id", "CID")),
            right: Box::new(side("root2", "order", "O", "cid", "OCID")),
            cond: Some(Cond::cmp_vars("CID", CmpOp::Eq, "OCID")),
            keep: Side::Left,
        }),
        var: "C".into(),
        root: Some("res".into()),
    });
    validate(&plan).unwrap();
    let mut semi = Vec::new();
    for hash_joins in [true, false] {
        let mut ctx = EvalContext::new(catalog.clone(), AccessMode::Lazy);
        ctx.hash_joins = hash_joins;
        let ctx = Arc::new(ctx);
        let v = VirtualResult::new(&plan, Arc::clone(&ctx)).unwrap();
        let mut kids = 0;
        let mut cur = v.first_child(v.root());
        while let Some(c) = cur {
            kids += 1;
            cur = v.next_sibling(c);
        }
        assert_eq!(kids, n, "every customer has orders");
        let stats = ctx.stats();
        semi.push((
            stats.get(Counter::JoinProbes),
            stats.get(Counter::HashBuilds),
            stats.get(Counter::NlFallbacks),
        ));
    }
    assert_eq!(semi[0], (30, 1, 0), "hash semi-join");
    assert_eq!(semi[1], (1335, 0, 1), "nl semi-join");
}

/// The join kernels are lazy on their outer input: when the outer side
/// is empty, the inner side is never pulled and no hash index is built.
/// (A build-first hash join would drain the inner side before
/// discovering the outer is empty.)
#[test]
fn empty_outer_join_pulls_zero_inner_tuples() {
    use mix::algebra::{Cond, Op, Side};
    use mix::xml::path::LabelPath;
    use std::sync::Arc;

    let n = 40;
    let per = 25; // 1000 orders — pulling any would show in the counter
    let (catalog, db) = customers_orders(n, per, 7);
    let src_stats = db.stats().clone();

    // σ($CID = "ZZZ") over the customers — provably empty on this data.
    let left = Op::Select {
        input: Box::new(Op::GetD {
            input: Box::new(Op::GetD {
                input: Box::new(Op::MkSrc {
                    source: "root1".into(),
                    var: "K".into(),
                }),
                from: "K".into(),
                path: LabelPath::parse("customer").unwrap(),
                to: "C".into(),
            }),
            from: "C".into(),
            path: LabelPath::parse("customer.id.data()").unwrap(),
            to: "CID".into(),
        }),
        cond: Cond::cmp_const("CID", CmpOp::Eq, "ZZZ"),
    };
    let right = Op::GetD {
        input: Box::new(Op::GetD {
            input: Box::new(Op::MkSrc {
                source: "root2".into(),
                var: "K2".into(),
            }),
            from: "K2".into(),
            path: LabelPath::parse("order").unwrap(),
            to: "O".into(),
        }),
        from: "O".into(),
        path: LabelPath::parse("order.cid.data()").unwrap(),
        to: "OCID".into(),
    };
    let equi = Cond::cmp_vars("CID", CmpOp::Eq, "OCID");

    for semijoin in [false, true] {
        let joined = if semijoin {
            Op::SemiJoin {
                left: Box::new(left.clone()),
                right: Box::new(right.clone()),
                cond: Some(equi.clone()),
                keep: Side::Left,
            }
        } else {
            Op::Join {
                left: Box::new(left.clone()),
                right: Box::new(right.clone()),
                cond: Some(equi.clone()),
            }
        };
        let out = if semijoin { "C" } else { "O" };
        let plan = Plan::new(Op::TupleDestroy {
            input: Box::new(joined),
            var: out.into(),
            root: Some("res".into()),
        });
        validate(&plan).unwrap();

        let ctx = Arc::new(EvalContext::new(catalog.clone(), AccessMode::Lazy));
        src_stats.reset();
        let v = VirtualResult::new(&plan, Arc::clone(&ctx)).unwrap();
        assert!(v.first_child(v.root()).is_none(), "semijoin={semijoin}");
        // The outer side drained its n customers finding no survivor;
        // none of the n·per orders crossed the wire.
        assert!(
            src_stats.get(Counter::TuplesShipped) <= n as u64,
            "semijoin={semijoin} shipped={}",
            src_stats.get(Counter::TuplesShipped)
        );
        // And the kernel did no inner-side work at all.
        assert_eq!(
            ctx.stats().get(Counter::HashBuilds),
            0,
            "semijoin={semijoin}"
        );
        assert_eq!(
            ctx.stats().get(Counter::JoinProbes),
            0,
            "semijoin={semijoin}"
        );
        assert_eq!(
            ctx.stats().get(Counter::NlFallbacks),
            0,
            "semijoin={semijoin}"
        );
    }
}

/// Block-at-a-time prefetch must not cost navigate-and-stop sessions
/// anything: every fetch ramp starts at one tuple, so descending to
/// the first result ships exactly one source row under every policy —
/// including the default `Auto`.
#[test]
fn block_auto_first_result_ships_one_row() {
    let (catalog, db) = customers_orders(500, 3, 23);
    let stats = db.stats().clone();
    for block in [BlockPolicy::Off, BlockPolicy::Auto, BlockPolicy::Fixed(64)] {
        let m = Mediator::with_options(
            catalog.clone(),
            MediatorOptions::builder().block(block).build(),
        );
        let mut s = m.session();
        stats.reset();
        let p0 = s.query(Q1).unwrap();
        let _p1 = s.d(p0).unwrap().unwrap();
        assert_eq!(
            stats.get(Counter::TuplesShipped),
            1,
            "{block:?}: first d() must ship one tuple"
        );
    }
}

/// `Off` is the paper's one-tuple-per-pull model and `Fixed(1)` clamps
/// every block to one tuple: both must produce identical cumulative
/// rows-shipped counts at *every* step of a browse session (and the
/// adaptive policy may only ever run ahead, never behind).
#[test]
fn block_off_and_fixed_one_ship_identical_counts() {
    let (catalog, db) = customers_orders(40, 2, 29);
    let stats = db.stats().clone();
    let mut traces: Vec<Vec<u64>> = Vec::new();
    let mut totals: Vec<u64> = Vec::new();
    for block in [BlockPolicy::Off, BlockPolicy::Fixed(1), BlockPolicy::Auto] {
        let m = Mediator::with_options(
            catalog.clone(),
            MediatorOptions::builder().block(block).build(),
        );
        let mut s = m.session();
        stats.reset();
        let p0 = s.query(Q1).unwrap();
        let mut trace = vec![stats.get(Counter::TuplesShipped)];
        let mut cur = s.d(p0).unwrap();
        while let Some(c) = cur {
            trace.push(stats.get(Counter::TuplesShipped));
            cur = s.r(c).unwrap();
        }
        traces.push(trace);
        totals.push(stats.get(Counter::TuplesShipped));
    }
    assert_eq!(traces[0], traces[1], "Fixed(1) must match Off bit-for-bit");
    assert_eq!(
        traces[0].len(),
        traces[2].len(),
        "same result cardinality under every policy"
    );
    for (i, (off, auto)) in traces[0].iter().zip(&traces[2]).enumerate() {
        assert!(auto >= off, "step {i}: auto={auto} ran behind off={off}");
    }
    // All policies ship each row exactly once on a full drain.
    assert_eq!(totals[0], totals[1], "{totals:?}");
    assert_eq!(totals[0], totals[2], "{totals:?}");
}

/// Every block policy produces the identical result document.
#[test]
fn block_policies_are_result_equivalent() {
    let (catalog, _db) = customers_orders(25, 3, 31);
    let mut rendered: Vec<String> = Vec::new();
    for block in [BlockPolicy::Off, BlockPolicy::Fixed(8), BlockPolicy::Auto] {
        let m = Mediator::with_options(
            catalog.clone(),
            MediatorOptions::builder().block(block).build(),
        );
        let mut s = m.session();
        let p0 = s.query(Q1).unwrap();
        rendered.push(s.render(p0));
    }
    assert_eq!(rendered[0], rendered[1]);
    assert_eq!(rendered[0], rendered[2]);
}

/// The memory claim: the lazy result's materialization high-watermark
/// tracks how far navigation went.
#[test]
fn lazy_memory_watermark() {
    let (catalog, _db) = customers_orders(500, 3, 17);
    let m = mediator(catalog, true, AccessMode::Lazy);
    let mut s = m.session();
    let p0 = s.query(Q1).unwrap();
    let shallow = {
        let _ = s.d(p0);
        s.ctx().stats().get(Counter::NodesBuilt)
    };
    // Walk everything.
    let mut cur = s.d(p0).unwrap();
    while let Some(c) = cur {
        let _ = s.render(c);
        cur = s.r(c).unwrap();
    }
    let deep = s.ctx().stats().get(Counter::NodesBuilt);
    assert!(shallow * 10 < deep, "shallow={shallow} deep={deep}");
}
