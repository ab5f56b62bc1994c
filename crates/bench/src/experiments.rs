//! The measured experiments E1–E8 (DESIGN.md §5): every performance
//! claim of the paper, as a parameter sweep printing one table.
//!
//! All tables report *work counters* (tuples shipped from the sources,
//! nodes built at the mediator) and wall-clock milliseconds. Counter
//! columns are deterministic; milliseconds vary with the machine —
//! EXPERIMENTS.md records one reference run.

use crate::{browse_k, drain, scaled_mediator, Q1};
use mix::prelude::*;
use std::fmt::Write as _;
use std::time::Instant;

const VIEW: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
     WHERE $C/id/data() = $O/cid/data() \
     RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// E1 — lazy evaluation ships only what navigation demands.
///
/// Claim (Sections 1, 4): "the MIX mediator produces the XML result
/// tree as the user navigates into it, hence avoiding unnecessary
/// computations"; Web users browse just a few results. Sweep the
/// database size N and the number of results browsed k; compare source
/// tuples shipped and time for lazy vs. the conventional
/// full-materialization baseline.
pub fn e1_lazy_vs_eager() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E1: browse k of N results (orders/customer = 4)");
    let _ = writeln!(
        out,
        "{:>6} {:>5} | {:>12} {:>10} | {:>12} {:>10}",
        "N", "k", "lazy_shipped", "lazy_ms", "eager_shipped", "eager_ms"
    );
    for n in [100usize, 300, 1000, 3000] {
        for k in [1usize, 5, 20] {
            // lazy
            let (m, stats) = scaled_mediator(n, 4, 42, true, AccessMode::Lazy);
            let mut s = m.session();
            stats.reset();
            let t = Instant::now();
            let p0 = s.query(Q1).expect("query");
            browse_k(&mut s, p0, k);
            let lazy_ms = ms(t);
            let lazy_shipped = stats.get(Counter::TuplesShipped);
            // eager
            let (m, stats) = scaled_mediator(n, 4, 42, true, AccessMode::Eager);
            let mut s = m.session();
            stats.reset();
            let t = Instant::now();
            let p0 = s.query(Q1).expect("query");
            browse_k(&mut s, p0, k);
            let eager_ms = ms(t);
            let eager_shipped = stats.get(Counter::TuplesShipped);
            let _ = writeln!(
                out,
                "{n:>6} {k:>5} | {lazy_shipped:>12} {lazy_ms:>10.2} | {eager_shipped:>12} {eager_ms:>10.2}"
            );
        }
    }
    out
}

/// E2 — time-to-first-result is independent of the database size under
/// lazy evaluation (it grows with N under eager evaluation).
pub fn e2_first_result_latency() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E2: cost of reaching the FIRST result");
    let _ = writeln!(
        out,
        "{:>6} | {:>12} {:>10} | {:>12} {:>10}",
        "N", "lazy_shipped", "lazy_ms", "eager_shipped", "eager_ms"
    );
    for n in [100usize, 500, 2000, 8000] {
        let (m, stats) = scaled_mediator(n, 2, 3, true, AccessMode::Lazy);
        let mut s = m.session();
        stats.reset();
        let t = Instant::now();
        let p0 = s.query(Q1).expect("query");
        let _ = s.d(p0).expect("first result");
        let lazy_ms = ms(t);
        let lazy_shipped = stats.get(Counter::TuplesShipped);

        let (m, stats) = scaled_mediator(n, 2, 3, true, AccessMode::Eager);
        let mut s = m.session();
        stats.reset();
        let t = Instant::now();
        let p0 = s.query(Q1).expect("query");
        let _ = s.d(p0).expect("first result");
        let eager_ms = ms(t);
        let eager_shipped = stats.get(Counter::TuplesShipped);
        let _ = writeln!(
            out,
            "{n:>6} | {lazy_shipped:>12} {lazy_ms:>10.2} | {eager_shipped:>12} {eager_ms:>10.2}"
        );
    }
    out
}

/// E3 — queries-in-place via decontextualization vs. materializing the
/// context subtree and querying the copy (Section 1: "this solution is
/// unacceptable … the tree rooted at x may be large").
pub fn e3_decontext_vs_materialize() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E3: in-place query from a CustRec with F orders (selective predicate)"
    );
    let _ = writeln!(
        out,
        "{:>6} | {:>14} {:>12} {:>8} | {:>14} {:>12} {:>8}",
        "F", "decon_shipped", "decon_nodes", "ms", "mat_shipped", "mat_nodes", "ms"
    );
    for fanout in [10usize, 50, 200, 500] {
        let (m, stats) = scaled_mediator(50, fanout, 5, true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s.query(Q1).expect("query");
        let p1 = s.d(p0).expect("nav").expect("first CustRec");
        let med = s.ctx().stats().clone();
        let q = "FOR $O IN document(root)/OrderInfo WHERE $O/order/value > 99000 RETURN $O";

        stats.reset();
        med.reset();
        let t = Instant::now();
        let a = s.q(q, p1).expect("decontext");
        let _ = s.child_count(a);
        let decon_ms = ms(t);
        let (ds, dn) = (
            stats.get(Counter::TuplesShipped),
            med.get(Counter::NodesBuilt),
        );

        stats.reset();
        med.reset();
        let t = Instant::now();
        let b = s.q_materialized(q, p1).expect("materialize");
        let _ = s.child_count(b);
        let mat_ms = ms(t);
        let (msd, mn) = (
            stats.get(Counter::TuplesShipped),
            med.get(Counter::NodesBuilt),
        );
        let _ = writeln!(
            out,
            "{fanout:>6} | {ds:>14} {dn:>12} {decon_ms:>8.2} | {msd:>14} {mn:>12} {mat_ms:>8.2}"
        );
    }
    out
}

/// E4 — composition optimization pushes the most restrictive query to
/// the source; sweep the selectivity of the composed query's predicate.
pub fn e4_pushdown_selectivity() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E4: composed query, threshold sweep (N=400, 6 orders each)"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>6} | {:>12} {:>8} | {:>12} {:>8}",
        "threshold", "hits", "opt_shipped", "opt_ms", "naive_shipped", "naive_ms"
    );
    for threshold in [50_000i64, 90_000, 99_000, 99_900] {
        let report = format!(
            "FOR $R IN document(v)/CustRec $S IN $R/OrderInfo \
             WHERE $S/order/value > {threshold} RETURN $R"
        );
        let mut row = Vec::new();
        let mut hits = 0;
        for optimize in [true, false] {
            let (catalog, db) = mix_repro::datagen::customers_orders(400, 6, 9);
            let stats = db.stats().clone();
            let mut m = Mediator::with_options(
                catalog,
                MediatorOptions::builder().optimize(optimize).build(),
            );
            m.define_view("v", VIEW).expect("view");
            let mut s = m.session();
            stats.reset();
            let t = Instant::now();
            let p = s.query(&report).expect("report");
            hits = s.child_count(p).expect("count");
            row.push((stats.get(Counter::TuplesShipped), ms(t)));
        }
        let _ = writeln!(
            out,
            "{threshold:>9} {hits:>6} | {:>12} {:>8.2} | {:>12} {:>8.2}",
            row[0].0, row[0].1, row[1].0, row[1].1
        );
    }
    out
}

/// E5 — rewriting removes unnecessary element construction and grouping
/// at the mediator (Section 6's first bullet).
pub fn e5_mediator_work() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E5: mediator work for the composed query (threshold = 99000)"
    );
    let _ = writeln!(
        out,
        "{:>6} | {:>10} {:>10} | {:>10} {:>10}",
        "N", "opt_nodes", "opt_ops", "naive_nodes", "naive_ops"
    );
    for n in [100usize, 300, 1000] {
        let report = "FOR $R IN document(v)/CustRec $S IN $R/OrderInfo \
             WHERE $S/order/value > 99000 RETURN $R";
        let mut cells = Vec::new();
        for optimize in [true, false] {
            let (catalog, _db) = mix_repro::datagen::customers_orders(n, 5, 13);
            let mut m = Mediator::with_options(
                catalog,
                MediatorOptions::builder().optimize(optimize).build(),
            );
            m.define_view("v", VIEW).expect("view");
            let mut s = m.session();
            let med = s.ctx().stats().clone();
            med.reset();
            let p = s.query(report).expect("report");
            let _ = s.child_count(p);
            cells.push((med.get(Counter::NodesBuilt), med.get(Counter::MediatorOps)));
        }
        let _ = writeln!(
            out,
            "{n:>6} | {:>10} {:>10} | {:>10} {:>10}",
            cells[0].0, cells[0].1, cells[1].0, cells[1].1
        );
    }
    out
}

/// E6 — the cost of a decontextualized in-place query tracks the
/// context's data, not the database size.
pub fn e6_in_place_scaling() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E6: in-place query from the first CustRec (10 orders), database sweep"
    );
    let _ = writeln!(out, "{:>6} | {:>12} {:>8}", "N", "shipped", "ms");
    for n in [100usize, 400, 1600, 6400] {
        let (m, stats) = scaled_mediator(n, 10, 21, true, AccessMode::Lazy);
        let mut s = m.session();
        let p0 = s.query(Q1).expect("query");
        let p1 = s.d(p0).expect("nav").expect("first CustRec");
        stats.reset();
        let t = Instant::now();
        let a = s
            .q(
                "FOR $O IN document(root)/OrderInfo WHERE $O/order/value > 50000 RETURN $O",
                p1,
            )
            .expect("in-place");
        let _ = s.child_count(a);
        let _ = writeln!(
            out,
            "{n:>6} | {:>12} {:>8.2}",
            stats.get(Counter::TuplesShipped),
            ms(t)
        );
    }
    out
}

/// E7 — ablation: stateless presorted gBy vs. the stateful (hash)
/// implementation (Section 4, Table 1).
pub fn e7_gby_ablation() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E7: full drain of Q1, groupBy implementation sweep");
    let _ = writeln!(
        out,
        "{:>7} | {:>13} | {:>12}",
        "groups", "stateless_ms", "hash_ms"
    );
    for n in [200usize, 1000, 4000] {
        let mut cells = Vec::new();
        for gby in [GByMode::StatelessPresorted, GByMode::Hash] {
            let (catalog, _db) = mix_repro::datagen::customers_orders(n, 5, 31);
            let m = Mediator::with_options(catalog, MediatorOptions::builder().gby(gby).build());
            let mut s = m.session();
            let t = Instant::now();
            let p0 = s.query(Q1).expect("query");
            let _ = drain(&mut s, p0);
            cells.push(ms(t));
        }
        let _ = writeln!(out, "{n:>7} | {:>13.2} | {:>12.2}", cells[0], cells[1]);
    }
    out
}

/// E8 — ablation: what individual rewrite rules buy, measured as source
/// tuples shipped by the composed query with the rule disabled.
pub fn e8_rule_ablation() -> String {
    use mix::qdom::splice::compose;
    use mix::rewrite::{rewrite_with_disabled, split_plan};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E8: composed query (threshold 99000, N=400), rule ablations"
    );
    let _ = writeln!(
        out,
        "{:>28} | {:>12} {:>6}",
        "disabled rule", "shipped", "#rQ"
    );
    let report = "FOR $R IN document(rootv)/CustRec $S IN $R/OrderInfo \
         WHERE $S/order/value > 99000 RETURN $R";
    for disabled in [
        vec![],
        vec!["R12-semijoin-below-group"],
        vec!["R9-join-introduction"],
        vec!["select-pushdown", "getd-pushdown"],
    ] {
        let (catalog, db) = mix_repro::datagen::customers_orders(400, 6, 9);
        let stats = db.stats().clone();
        let view = mix::algebra::translate_with_root(&parse_query(VIEW).unwrap(), "rootv").unwrap();
        let q = translate(&parse_query(report).unwrap()).unwrap();
        let naive = compose(&q, "rootv", &view);
        let rewritten = rewrite_with_disabled(&naive, &disabled);
        let split = split_plan(&rewritten.plan, &catalog);
        let n_rq = split.render().matches("rQ(").count();
        // Execute the ablated plan lazily and drain it.
        let ctx = std::sync::Arc::new(EvalContext::new(catalog, AccessMode::Lazy));
        stats.reset();
        let v = VirtualResult::new(&split, ctx).expect("ablated plan runs");
        let mut n = 0usize;
        let mut cur = v.first_child(v.root());
        while let Some(c) = cur {
            n += 1;
            cur = v.next_sibling(c);
        }
        let label = if disabled.is_empty() {
            "(none)".to_string()
        } else {
            disabled.join("+")
        };
        let _ = writeln!(
            out,
            "{label:>28} | {:>12} {n_rq:>6}   ({n} results)",
            stats.get(Counter::TuplesShipped)
        );
    }
    out
}

/// Run every experiment, returning the combined report.
pub fn run_all() -> String {
    let mut out = String::new();
    for (name, f) in [
        ("E1", e1_lazy_vs_eager as fn() -> String),
        ("E2", e2_first_result_latency),
        ("E3", e3_decontext_vs_materialize),
        ("E4", e4_pushdown_selectivity),
        ("E5", e5_mediator_work),
        ("E6", e6_in_place_scaling),
        ("E7", e7_gby_ablation),
        ("E8", e8_rule_ablation),
    ] {
        out.push_str(&format!(
            "\n==================== {name} ====================\n"
        ));
        out.push_str(&f());
    }
    out
}
