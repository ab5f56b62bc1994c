//! Derivation pins for the rewrite driver: exact rule sequences, a
//! byte-identical rendering of two derivations, the step bound, and
//! the logical-plan property.
//!
//! The sequences and the golden renderings were recorded from the
//! driver that re-matched from the root, rebuilt every ancestor and
//! rendered the whole plan at every firing. Any later driver must fire
//! the same rules in the same places, so these stay bit-for-bit.

use mix::prelude::*;
use mix_repro::datagen::customers_orders;
use mix_workload::fuzz::FuzzConfig;
use mix_workload::gen::{Dataset, Rng};
use mix_workload::script::{gen_script, run_script_raw};
use std::sync::Arc;

const Q1: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
     WHERE $C/id/data() = $O/cid/data() \
     RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";

const Q_FIG12: &str = "FOR $R in document(rootv)/CustRec $S in $R/OrderInfo \
     WHERE $S/order/value > 20000 RETURN $R";

/// The `sales_report` example's report query over its view.
const REPORT: &str = "FOR $R IN document(custorders)/CustRec $S IN $R/OrderInfo \
     WHERE $S/order/value > 99000 \
     RETURN $R";

/// An in-place query from a `CustRec` node.
const INPLACE: &str = "FOR $O IN document(root)/OrderInfo WHERE $O/order/value > 20000 RETURN $O";

/// The unsatisfiable composition of `tests/paper_figures.rs`.
const UNSAT: &str = "FOR $R IN document(rootv)/Nothing RETURN $R";

/// No rewrite may use more than this many steps: a tenth of the
/// driver's `MAX_STEPS` safety cap (500).
const STEP_BOUND: usize = 50;

/// Fig. 12's query over the Q1 view: rewrite, then split (Figs. 13→22).
const FIG12_SEQUENCE: &[&str] = &[
    "R10-chain-merge",
    "R11-td-mksrc",
    "R2-getd-crelt-exact",
    "R1-getd-crelt-push",
    "select-pushdown",
    "R5-getd-cat-push",
    "select-pushdown",
    "R9-join-introduction",
    "select-pushdown",
    "R3-getd-crelt-single",
    "select-pushdown",
    "getd-pushdown",
    "select-pushdown",
    "dead-elimination",
    "join-to-semijoin",
    "R12-semijoin-below-group",
    "R12-semijoin-below-group",
    "R12-semijoin-below-group",
    "split-to-sql",
];

/// The in-place query from the first `CustRec` of Q1 over Fig. 2's data.
const INPLACE_SEQUENCE: &[&str] = &[
    "R10-chain-merge",
    "R1-getd-crelt-push",
    "getd-pushdown",
    "select-pushdown",
    "R5-getd-cat-push",
    "getd-pushdown",
    "select-pushdown",
    "R9-join-introduction",
    "getd-pushdown",
    "select-pushdown",
    "R2-getd-crelt-exact",
    "R3-getd-crelt-single",
    "select-pushdown",
    "getd-pushdown",
    "select-pushdown",
    "dead-elimination",
    "R10-chain-merge",
    "join-to-semijoin",
    "R12-semijoin-below-group",
    "R12-semijoin-below-group",
    "split-to-sql",
];

fn view_plan() -> Plan {
    mix::algebra::translate_with_root(&parse_query(Q1).unwrap(), "rootv").unwrap()
}

/// `query` naively composed with the Q1 view named `rootv`.
fn composed(query: &str) -> Plan {
    let q = translate(&parse_query(query).unwrap()).unwrap();
    mix::qdom::splice::compose(&q, "rootv", &view_plan())
}

#[test]
fn fig12_over_q1_rule_sequence() {
    let (catalog, _) = mix::wrapper::fig2_catalog();
    let out = optimize(&composed(Q_FIG12), &catalog);
    assert_eq!(out.trace.rule_sequence(), FIG12_SEQUENCE);
    // The rewrite alone is the same derivation without the split.
    let logical = rewrite(&composed(Q_FIG12));
    assert_eq!(
        logical.trace.rule_sequence(),
        FIG12_SEQUENCE[..FIG12_SEQUENCE.len() - 1]
    );
}

#[test]
fn fig13_to_fig22_render_is_byte_identical() {
    let (catalog, _) = mix::wrapper::fig2_catalog();
    let out = optimize(&composed(Q_FIG12), &catalog);
    let golden = include_str!("golden/fig13_22_derivation.txt");
    assert_eq!(out.trace.render(), golden);
    // The rewrite's rendering is the same text up to the split step.
    let rewritten = rewrite(&composed(Q_FIG12)).trace.render();
    let split_at = golden.find("--- step 19 (split-to-sql) ---").unwrap();
    assert_eq!(rewritten, golden[..split_at]);
}

#[test]
fn sales_report_rule_sequence() {
    let (catalog, _db) = customers_orders(500, 8, 7);
    let mut m = Mediator::new(catalog);
    m.define_view("custorders", Q1).unwrap();
    let mut s = m.session();
    let p = s.query(REPORT).unwrap();
    let seq = s.result_info(p).trace.rule_sequence();
    assert_eq!(seq.len(), 19);
    // REPORT over the view is Fig. 12's derivation step for step.
    assert_eq!(seq, FIG12_SEQUENCE);
}

#[test]
fn inplace_q_from_a_custrec_rule_sequence_and_render() {
    let (catalog, _) = mix::wrapper::fig2_catalog();
    let m = Mediator::new(catalog);
    let mut s = m.session();
    let p0 = s.query(Q1).unwrap();
    let rec = s.d(p0).unwrap().unwrap();
    let p1 = s.q(INPLACE, rec).unwrap();
    let trace = &s.result_info(p1).trace;
    assert_eq!(trace.rule_sequence(), INPLACE_SEQUENCE);
    assert_eq!(
        trace.render(),
        include_str!("golden/inplace_q_derivation.txt")
    );
}

#[test]
fn unsatisfiable_query_rule_sequence() {
    let out = rewrite(&composed(UNSAT));
    assert_eq!(
        out.trace.rule_sequence(),
        ["R11-td-mksrc", "R4-unsatisfiable", "empty-propagation"]
    );
}

/// Every result root a script run handed back, resolved in `s`.
fn result_roots(s: &QdomSession<'_>, raw: &[Option<Reply>]) -> Vec<QNode> {
    let mut roots: Vec<QNode> = raw
        .iter()
        .filter_map(|r| match r {
            Some(Reply::Node(w)) => s.resolve_handle(*w).ok(),
            _ => None,
        })
        .collect();
    roots.dedup();
    roots
}

/// Case `case` of the default fuzz configuration (the smoke's scripts).
fn fuzz_case(cfg: &FuzzConfig, case: usize) -> (Dataset, mix_workload::script::Script) {
    let mut rng = Rng(cfg.master_seed).split(case as u64);
    let ds = Dataset::gen(&mut rng, cfg.scale);
    let script = gen_script(&mut rng, &ds, cfg.script_len);
    (ds, script)
}

#[test]
fn logical_plan_is_the_rewrite_of_the_naive_plan() {
    let cfg = FuzzConfig::default();
    let mut checked = 0;
    for case in 0..4 {
        let (ds, script) = fuzz_case(&cfg, case);
        let (catalog, _db) = ds.build();
        let m = Arc::new(Mediator::new(catalog));
        let mut s = m.session_arc();
        let raw = run_script_raw(&mut s, &script);
        for p in result_roots(&s, &raw) {
            let info = s.result_info(p);
            assert_eq!(
                info.logical_plan,
                rewrite(&info.naive_plan).plan,
                "case {case}:\n{}",
                info.naive_plan.render()
            );
            checked += 1;
        }
    }
    assert!(checked >= 8, "only {checked} results checked");
}

/// Steps in the derivation of result `p` (rewrite, pruning and split).
fn steps_of(s: &QdomSession<'_>, p: QNode) -> usize {
    s.result_info(p).trace.steps.len()
}

#[test]
fn no_rewrite_of_the_fuzz_smoke_queries_takes_more_than_50_steps() {
    let cfg = FuzzConfig::default();
    let mut worst = (0, 0);
    for case in 0..cfg.cases {
        let (ds, script) = fuzz_case(&cfg, case);
        let (catalog, _db) = ds.build();
        let m = Arc::new(Mediator::new(catalog));
        let mut s = m.session_arc();
        let raw = run_script_raw(&mut s, &script);
        for p in result_roots(&s, &raw) {
            worst = worst.max((steps_of(&s, p), case));
        }
    }
    assert!(
        worst.0 <= STEP_BOUND,
        "case {} takes {} steps",
        worst.1,
        worst.0
    );
}

#[test]
fn no_rewrite_of_the_mixbench_query_classes_takes_more_than_50_steps() {
    // mixbench's query classes (mixbench/src/workload.rs): Q1, the
    // value-filtered Q1, the name prefix, the point lookup, REPORT over
    // the view, and the in-place `<`/`>` queries from a CustRec.
    let filtered = |v: i64| {
        format!(
            "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
             WHERE $C/id/data() = $O/cid/data() AND $O/value/data() > {v} \
             RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {{$O}} </CustRec> {{$C}}"
        )
    };
    let report = |v: i64| {
        format!(
            "FOR $R IN document(sales_report)/CustRec $S IN $R/OrderInfo \
             WHERE $S/order/value > {v} RETURN $R"
        )
    };
    let inplace = |op: &str, v: i64| {
        format!("FOR $O IN document(root)/OrderInfo WHERE $O/order/value {op} {v} RETURN $O")
    };
    let (catalog, _db) = customers_orders(40, 4, 7);
    let mut m = Mediator::new(catalog);
    m.define_view("sales_report", Q1).unwrap();
    let mut s = m.session();
    let top = [
        Q1.to_string(),
        filtered(10_000),
        filtered(95_000),
        "FOR $C IN source(&root1)/customer WHERE $C/name/data() < \"M\" RETURN $C".to_string(),
        "FOR $C IN source(&root1)/customer WHERE $C/id/data() = \"C000003\" RETURN $C".to_string(),
        report(90_000),
        report(98_000),
    ];
    for text in &top {
        let p = s.query(text).unwrap();
        let n = steps_of(&s, p);
        assert!(n <= STEP_BOUND, "{text} takes {n} steps");
    }
    let p0 = s.query(Q1).unwrap();
    let rec = s.d(p0).unwrap().unwrap();
    for text in [inplace("<", 25_000), inplace(">", 70_000)] {
        let p = s.q(&text, rec).unwrap();
        let n = steps_of(&s, p);
        assert!(n <= STEP_BOUND, "{text} takes {n} steps");
    }
}
