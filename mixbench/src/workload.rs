//! The six workloads: their query texts, their seeded scripts and the
//! oracle that checks answers against the raw tables.
//!
//! A script is a pure function of `(workload, seed, index)`; the target
//! sees only the commands it produces.

use crate::rec::Op;
use crate::rng::{balanced_slot, SplitMix64};
use crate::target::{Cx, Target};
use mix::prelude::*;
use std::sync::Arc;

/// The paper's running-example view Q1 (Fig. 3).
pub const Q1: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
     WHERE $C/id/data() = $O/cid/data() \
     RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";

/// Q1 is also defined as this view, for the composed REPORT query.
pub const VIEW: &str = "sales_report";

/// Value thresholds of the seven "Q1 + value filter" browse classes.
const BROWSE_VALUES: [i64; 7] = [10_000, 25_000, 40_000, 55_000, 70_000, 85_000, 95_000];
/// Name bounds of the four "customer-name prefix" browse classes.
const BROWSE_NAMES: [&str; 4] = ["C", "G", "M", "T"];
/// Top-level query classes a browse script picks from: Q1, the value
/// filters, the name prefixes.
pub const BROWSE_CLASSES: usize = 1 + BROWSE_VALUES.len() + BROWSE_NAMES.len();
/// A browse cycle has thirteen slots: Q1 twice, every other class
/// once, in seeded order. Name-prefix queries cost a tenth of the view
/// queries, so script latency has two modes; with thirteen slots the
/// median sits inside one class (the third filter) and p90 inside Q1,
/// not on a boundary between classes where it would flip from run to
/// run.
const BROWSE_SLOTS: u64 = BROWSE_CLASSES as u64 + 1;
/// Value thresholds of the hot in-place classes: each once as `<` and
/// once as `>`, twelve texts that fit the 16-entry plan cache.
const HOT_VALUES: [i64; 6] = [10_000, 25_000, 40_000, 55_000, 70_000, 85_000];
pub const HOT_CLASSES: usize = 2 * HOT_VALUES.len();
/// Thresholds the REPORT query of a drain script picks from.
const REPORT_VALUES: [i64; 6] = [90_000, 92_000, 94_000, 95_000, 96_000, 98_000];

/// Siblings a browse walk visits.
pub const WALK_SIBLINGS: usize = 20;
/// CustRecs an in-place script visits, and queries issued from each.
const INPLACE_RECS: usize = 8;
const INPLACE_QS_PER_REC: usize = 2;
/// Hot classes one in-place script uses, each twice: first a plan-cache
/// miss (sessions are fresh), then a hit. The rest of the script's
/// queries carry a never-seen constant: always a miss.
const INPLACE_HOT_PER_SCRIPT: usize = 7;
/// Rows per bulk export, warm re-exports, renders and trailing navs.
const BULK_ROWS: u32 = 512;
const BULK_WARM_EXPORTS: usize = 8;
const BULK_RENDERS: usize = 4;
/// Shard-key point lookups after the remote drain.
const REMOTE_LOOKUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BrowseInproc,
    InplaceInproc,
    DrainInproc,
    RemoteDrain,
    ServedNav,
    ServedBulk,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::BrowseInproc,
        Workload::InplaceInproc,
        Workload::DrainInproc,
        Workload::RemoteDrain,
        Workload::ServedNav,
        Workload::ServedBulk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowseInproc => "browse_inproc",
            Workload::InplaceInproc => "inplace_inproc",
            Workload::DrainInproc => "drain_inproc",
            Workload::RemoteDrain => "remote_drain",
            Workload::ServedNav => "served_nav",
            Workload::ServedBulk => "served_bulk",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Runs over loopback against an in-process `Server`.
    pub fn served(self) -> bool {
        matches!(self, Workload::ServedNav | Workload::ServedBulk)
    }

    /// Scripts per wire session before it is closed and reopened
    /// (results cannot be released, so a session only grows).
    pub fn scripts_per_session(self) -> u64 {
        match self {
            Workload::ServedBulk => 16,
            _ => 32,
        }
    }

    /// Fixed-seed scripts run single-threaded before any timing: the
    /// golden digest pins their transcript, and the shipped-data
    /// counters are taken over them — counts that repeat exactly
    /// whatever the machine speed or the `--seed`. Whole schedule
    /// cycles, so every class is in.
    pub fn gate_scripts(self) -> u64 {
        match self {
            Workload::BrowseInproc | Workload::ServedNav => 3 * BROWSE_SLOTS,
            Workload::InplaceInproc => HOT_CLASSES as u64,
            Workload::DrainInproc => 3,
            Workload::RemoteDrain => 2,
            Workload::ServedBulk => 4,
        }
    }
}

fn q1_filtered(min_value: i64) -> String {
    format!(
        "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
         WHERE $C/id/data() = $O/cid/data() AND $O/value/data() > {min_value} \
         RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {{$O}} </CustRec> {{$C}}"
    )
}

fn name_prefix(bound: &str) -> String {
    format!("FOR $C IN source(&root1)/customer WHERE $C/name/data() < \"{bound}\" RETURN $C")
}

fn report(min_value: i64) -> String {
    format!(
        "FOR $R IN document({VIEW})/CustRec $S IN $R/OrderInfo \
         WHERE $S/order/value > {min_value} RETURN $R"
    )
}

fn lookup(id: &str) -> String {
    format!("FOR $C IN source(&root1)/customer WHERE $C/id/data() = \"{id}\" RETURN $C")
}

fn inplace(less: bool, bound: i64) -> String {
    let op = if less { "<" } else { ">" };
    format!("FOR $O IN document(root)/OrderInfo WHERE $O/order/value {op} {bound} RETURN $O")
}

/// Nodes under one CustRec: the record, the customer element with its
/// three fields (element + text each), and per order an OrderInfo, an
/// order element and three fields.
fn custrec_nodes(orders: usize) -> u64 {
    (1 + 1 + 6 + orders * 8) as u64
}

/// What the raw tables say the answers must be.
#[derive(Debug)]
pub struct Oracle {
    ids: Vec<Arc<str>>,
    names: Vec<Arc<str>>,
    /// Order values per customer, in `orid` order.
    orders: Vec<Vec<i64>>,
    /// Per browse class, the customers its result lists, in id order.
    browse: Vec<Vec<u32>>,
}

impl Oracle {
    pub fn new(catalog: &Catalog) -> Oracle {
        let db = catalog.databases().next().expect("one backend");
        let text = |v: &Value| match v {
            Value::Str(s) => Arc::clone(s),
            other => other.to_string().into(),
        };
        let customers = db.table("customer").expect("customer table");
        let ids: Vec<Arc<str>> = customers.rows().iter().map(|r| text(&r[0])).collect();
        let names: Vec<Arc<str>> = customers.rows().iter().map(|r| text(&r[2])).collect();
        let index: std::collections::HashMap<&str, usize> =
            ids.iter().enumerate().map(|(i, s)| (&**s, i)).collect();
        let mut orders = vec![Vec::new(); ids.len()];
        for r in db.table("orders").expect("orders table").rows() {
            if let (Value::Str(cid), Value::Int(v)) = (&r[1], &r[2]) {
                orders[index[&**cid]].push(*v);
            }
        }
        let mut o = Oracle {
            ids,
            names,
            orders,
            browse: Vec::new(),
        };
        o.browse = (0..BROWSE_CLASSES)
            .map(|c| {
                (0..o.ids.len() as u32)
                    .filter(|&i| o.browse_matches(c, i as usize))
                    .collect()
            })
            .collect();
        o
    }

    fn browse_matches(&self, class: usize, i: usize) -> bool {
        match class {
            0 => !self.orders[i].is_empty(),
            c if c <= BROWSE_VALUES.len() => {
                self.orders[i].iter().any(|&v| v > BROWSE_VALUES[c - 1])
            }
            c => &*self.names[i] < BROWSE_NAMES[c - 1 - BROWSE_VALUES.len()],
        }
    }

    pub fn customers(&self) -> usize {
        self.ids.len()
    }

    fn q1_nodes(&self) -> u64 {
        self.orders
            .iter()
            .filter(|o| !o.is_empty())
            .map(|o| custrec_nodes(o.len()))
            .sum()
    }

    fn report_nodes(&self, min_value: i64) -> u64 {
        self.orders
            .iter()
            .filter(|o| o.iter().any(|&v| v > min_value))
            .map(|o| custrec_nodes(o.len()))
            .sum()
    }
}

fn browse_text(class: usize) -> String {
    match class {
        0 => Q1.to_string(),
        c if c <= BROWSE_VALUES.len() => q1_filtered(BROWSE_VALUES[c - 1]),
        c => name_prefix(BROWSE_NAMES[c - 1 - BROWSE_VALUES.len()]),
    }
}

/// Run script `index` of the run seeded `seed`.
pub fn run_script<T: Target>(w: Workload, cx: &mut Cx<T>, oracle: &Oracle, seed: u64, index: u64) {
    let mut rng = SplitMix64::for_script(seed, index);
    match w {
        Workload::BrowseInproc | Workload::ServedNav => {
            let slot = balanced_slot(seed, index, BROWSE_SLOTS);
            browse(cx, oracle, slot.saturating_sub(1));
        }
        Workload::InplaceInproc => inplace_script(cx, oracle, &mut rng, seed, index),
        Workload::DrainInproc => {
            drain_query(cx, Q1, oracle.q1_nodes());
            // Two REPORTs to one Q1, so the first-result median sits
            // inside the REPORT mode, not between the two.
            for k in 0..2 {
                let slot = balanced_slot(seed, 2 * index + k, REPORT_VALUES.len() as u64);
                let min = REPORT_VALUES[slot];
                drain_query(cx, &report(min), oracle.report_nodes(min));
            }
        }
        Workload::RemoteDrain => {
            drain_query(cx, Q1, oracle.q1_nodes());
            for _ in 0..REMOTE_LOOKUPS {
                point_lookup(cx, oracle, rng.below(oracle.customers() as u64) as usize);
            }
        }
        Workload::ServedBulk => bulk(cx, oracle, &mut rng),
    }
    cx.flush_nav();
}

/// Step down from `p` to its first leaf and fetch the value there (in
/// every result of these workloads, the customer's id).
fn leaf_value<T: Target>(cx: &mut Cx<T>, p: WireNode) -> Option<Value> {
    let mut cur = p;
    while let Some(c) = cx.d(cur) {
        cur = c;
    }
    cx.fv(cur)
}

fn expect_id<T: Target>(cx: &mut Cx<T>, got: Option<Value>, want: Option<&Arc<str>>) {
    let ok = matches!((&got, want), (Some(Value::Str(g)), Some(w)) if g == w);
    cx.expect(ok, || {
        format!("leaf value {got:?}, the tables say {want:?}")
    });
}

/// `query` → first `d`, then a sibling walk: `fl`, down to the id leaf,
/// `fv`, `r`.
fn browse<T: Target>(cx: &mut Cx<T>, oracle: &Oracle, class: usize) {
    let Some((_, mut cur)) = cx.query_first(&browse_text(class)) else {
        return;
    };
    let label = if class <= BROWSE_VALUES.len() {
        "CustRec"
    } else {
        "customer"
    };
    let walk = cx.begin(Op::Walk);
    for j in 0..WALK_SIBLINGS {
        let Some(rec) = cur else {
            cx.fail(|| format!("class {class}: result ended after {j} siblings"));
            break;
        };
        let got = cx.fl(rec);
        cx.expect(got.as_ref().is_some_and(|l| l.as_str() == label), || {
            format!("class {class}: label {got:?}, expected {label}")
        });
        let id = leaf_value(cx, rec);
        let want = oracle.browse[class]
            .get(j)
            .map(|&i| &oracle.ids[i as usize]);
        expect_id(cx, id, want);
        cur = cx.r(rec);
    }
    cx.end(walk, 1);
}

/// Q1, then from each of the first eight CustRecs two in-place
/// queries: seven hot classes twice each (a plan-cache miss, then a
/// hit) and two with a constant no session has seen (always a miss),
/// in seeded order. Which seven rotates, so twelve scripts use every
/// class equally.
fn inplace_script<T: Target>(
    cx: &mut Cx<T>,
    oracle: &Oracle,
    rng: &mut SplitMix64,
    seed: u64,
    index: u64,
) {
    const QS: usize = INPLACE_RECS * INPLACE_QS_PER_REC;
    let Some((_, mut cur)) = cx.query_first(Q1) else {
        return;
    };
    let first =
        (index + SplitMix64::new(seed).below(HOT_CLASSES as u64)) as usize * INPLACE_HOT_PER_SCRIPT;
    let mut plan: Vec<Option<usize>> = (0..2 * INPLACE_HOT_PER_SCRIPT)
        .map(|i| Some((first + i / 2) % HOT_CLASSES))
        .collect();
    plan.resize(QS, None);
    rng.shuffle(&mut plan);
    for (k, pair) in plan.chunks(INPLACE_QS_PER_REC).enumerate() {
        let Some(rec) = cur else {
            cx.fail(|| format!("Q1 ended after {k} CustRecs"));
            return;
        };
        let customer = oracle.browse[0][k] as usize;
        cx.fl(rec);
        let id = leaf_value(cx, rec);
        expect_id(cx, id, Some(&oracle.ids[customer]));
        for (j, class) in pair.iter().enumerate() {
            let (less, bound) = match class {
                Some(c) => (c % 2 == 0, HOT_VALUES[c / 2]),
                // Above every order value, so the answer stays checkable.
                None => (
                    true,
                    100_000 + (index as usize * QS + k * pair.len() + j) as i64,
                ),
            };
            let want = oracle.orders[customer]
                .iter()
                .filter(|&&v| if less { v < bound } else { v > bound })
                .count() as u64;
            let tok = cx.begin(Op::InplaceQ);
            let text = inplace(less, bound);
            if let Reply::Node(a) = cx.command(Op::CmdQ, Command::Q { text, from: rec }) {
                let got = cx.command(Op::CmdChildCount, Command::ChildCount { p: a });
                cx.expect(matches!(got, Reply::Count(n) if n == want), || {
                    format!("in-place count {got:?}, the tables say {want}")
                });
            }
            cx.end(tok, 1);
        }
        cur = cx.r(rec);
    }
}

fn drain_below<T: Target>(cx: &mut Cx<T>, p: WireNode) -> u64 {
    let mut n = 0;
    let mut cur = cx.d(p);
    while let Some(c) = cur {
        n += 1 + drain_below(cx, c);
        cur = cx.r(c);
    }
    n
}

/// Issue `text` and visit every node of its result with `d`/`r`.
fn drain_query<T: Target>(cx: &mut Cx<T>, text: &str, want_nodes: u64) {
    let Some((_, first)) = cx.query_first(text) else {
        return;
    };
    let tok = cx.begin(Op::Drain);
    let mut n = 0;
    let mut cur = first;
    while let Some(c) = cur {
        n += 1 + drain_below(cx, c);
        cur = cx.r(c);
    }
    cx.end(tok, n);
    cx.expect(n == want_nodes, || {
        format!("drained {n} nodes, the tables say {want_nodes}")
    });
}

/// A query on the shard key: routed to one shard, one customer back.
fn point_lookup<T: Target>(cx: &mut Cx<T>, oracle: &Oracle, customer: usize) {
    let id = &oracle.ids[customer];
    let Some((_, Some(first))) = cx.query_first(&lookup(id)) else {
        cx.fail(|| format!("lookup of {id} found nothing"));
        return;
    };
    let got = leaf_value(cx, first);
    expect_id(cx, got, Some(id));
    let more = cx.r(first);
    cx.expect(more.is_none(), || format!("lookup of {id} found two rows"));
}

/// Few large frames: a cold bulk export, warm re-exports, renders.
fn bulk<T: Target>(cx: &mut Cx<T>, oracle: &Oracle, rng: &mut SplitMix64) {
    let Some((p0, _)) = cx.query_first(Q1) else {
        return;
    };
    let export = Command::Export {
        p: p0,
        max_rows: BULK_ROWS,
    };
    let mut handles = Vec::new();
    for i in 0..=BULK_WARM_EXPORTS {
        let tok = cx.begin(Op::Bulk);
        let reply = cx.command(Op::CmdExport, export.clone());
        cx.end(tok, 1);
        let Reply::Block(b) = reply else { continue };
        let want_rows = (BULK_ROWS as usize).min(oracle.browse[0].len());
        let labelled = (0..b.len()).all(|r| b.value_at(r, 1) == Value::str("CustRec"));
        cx.expect(b.len() == want_rows && labelled, || {
            format!(
                "export {i}: {} rows, expected {want_rows} CustRecs",
                b.len()
            )
        });
        if i == 0 {
            handles = (0..b.len())
                .filter_map(|r| match b.value_at(r, 0) {
                    Value::Int(n) => Some(WireNode {
                        result: p0.result,
                        node: n as u32,
                    }),
                    _ => None,
                })
                .collect();
        }
    }
    if handles.is_empty() {
        cx.fail(|| "export returned no handles".to_string());
        return;
    }
    let mut picked = handles[0];
    for _ in 0..BULK_RENDERS {
        let row = rng.below(handles.len() as u64) as usize;
        picked = handles[row];
        let tok = cx.begin(Op::Bulk);
        let reply = cx.command(Op::CmdRender, Command::Render { p: picked });
        cx.end(tok, 1);
        let id = &oracle.ids[oracle.browse[0][row] as usize];
        cx.expect(
            matches!(&reply, Reply::Text(t) if t.contains(&**id)),
            || format!("render of row {row} does not mention {id}"),
        );
    }
    cx.fl(picked);
    let customer = cx.d(picked);
    if let Some(c) = customer {
        cx.d(c);
    }
    cx.r(picked);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back_and_texts_are_distinct() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        let mut texts: Vec<String> = (0..BROWSE_CLASSES).map(browse_text).collect();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), 12);
        const { assert!(HOT_CLASSES <= 16, "hot classes must fit the plan cache") };
    }
}
