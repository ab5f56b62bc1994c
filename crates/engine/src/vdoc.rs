//! The virtual result document.
//!
//! "The client receives a virtual answer document (QDOM object) in
//! response to his query. This document is not really computed or
//! transferred into the client memory until navigation commands request
//! a part of it." — [`VirtualResult`] is that object. It implements
//! [`NavDoc`], so the client navigates it exactly like a main-memory
//! document, while every `d`/`r` step expands at most one node:
//!
//! * a step among the root's children pulls one tuple from the plan's
//!   top stream;
//! * a step into a source-copied subtree delegates to the (lazy)
//!   source view;
//! * a step among a constructed element's children forces its child
//!   list one element further (which may pull group-partition tuples,
//!   which may pull source tuples, …).
//!
//! Expanded nodes are kept in an arena so node ids stay valid for the
//! whole session; the arena size is therefore the *navigation
//! high-watermark*, the memory metric of experiment E1.

use crate::context::EvalContext;
use crate::lval::{LList, LVal};
use crate::stream::{build_stream_profiled, BlockBuf, TStream};
use mix_algebra::Op;
use mix_common::{Counter, MixError, Name, Result, Value};
use mix_obs::ExecProfile;
use mix_xml::{NavDoc, NodeRef, Oid};
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;

/// A lazily materialized view of an XMAS plan's result.
pub struct VirtualResult {
    ctx: Arc<EvalContext>,
    name: Name,
    profile: Arc<ExecProfile>,
    inner: Mutex<Inner>,
}

struct Inner {
    nodes: Vec<VNode>,
    /// The plan's top stream; `None` once exhausted (or for `Empty`).
    stream: Option<Box<dyn TStream>>,
    td_var: Name,
    /// Vertex ids already exported at the root (tD set semantics).
    seen_root: std::collections::HashSet<mix_xml::Oid>,
    /// Tuples prefetched ahead of root navigation on the context's
    /// block ramp.
    block: BlockBuf,
    /// A backend/plan failure that stopped expansion. Nodes
    /// materialized before it stay navigable; asking for more past the
    /// failure point re-reports it.
    error: Option<MixError>,
}

struct VNode {
    parent: Option<u32>,
    /// Index among the parent's children.
    index: usize,
    kind: VKind,
    kids: Vec<u32>,
    kids_done: bool,
}

enum VKind {
    /// The result root (`list`, id `&rootv`).
    Root,
    /// A source node, navigated in place.
    Src { doc: Name, node: NodeRef },
    /// A constructed element; children come from its (lazy) list.
    Built { label: Name, oid: Oid, list: LList },
    /// A list value exported as a `list`-labeled node.
    ListNode { list: LList },
    /// A text leaf.
    Leaf { value: Value },
}

impl VirtualResult {
    /// Build the virtual result of `plan` (rooted at `tD`). No source
    /// work happens yet beyond compiling the streams.
    pub fn new(plan: &mix_algebra::Plan, ctx: Arc<EvalContext>) -> Result<VirtualResult> {
        let profile = Arc::new(ExecProfile::new());
        let (stream, td_var, name) = match &plan.root {
            Op::TupleDestroy { input, var, root } => {
                // The plan-root tD is node 0; the stream tree numbers
                // from 1 in the same pre-order as the EXPLAIN renderer.
                let mut next = 1usize;
                let s = build_stream_profiled(
                    input,
                    &ctx,
                    &Arc::new(HashMap::new()),
                    Some(&profile),
                    &mut next,
                )?;
                (
                    Some(s),
                    var.clone(),
                    root.clone().unwrap_or_else(|| Name::new("result")),
                )
            }
            Op::Empty { .. } => (None, Name::new("_"), Name::new("rootv")),
            other => {
                return Err(MixError::invalid(format!(
                    "plan root must be tD, found {}",
                    other.name()
                )))
            }
        };
        let root = VNode {
            parent: None,
            index: 0,
            kind: VKind::Root,
            kids: Vec::new(),
            kids_done: false,
        };
        // Traced sessions pull one tuple per step so recorded span/event
        // sequences stay identical to the paper's one-tuple-per-pull
        // model.
        let ramp = if ctx.tracer.enabled() {
            mix_common::BlockPolicy::Off.ramp()
        } else {
            ctx.block_ramp()
        };
        Ok(VirtualResult {
            ctx,
            name,
            profile,
            inner: Mutex::new(Inner {
                nodes: vec![root],
                stream,
                td_var,
                seen_root: std::collections::HashSet::new(),
                block: BlockBuf::new(ramp),
                error: None,
            }),
        })
    }

    /// The evaluation context (shared stats, sources).
    pub fn ctx(&self) -> &Arc<EvalContext> {
        &self.ctx
    }

    /// Per-node execution metrics, accumulated as navigation drives the
    /// plan ([`crate::explain::render_annotated`] joins them back onto
    /// the plan tree).
    pub fn profile(&self) -> &Arc<ExecProfile> {
        &self.profile
    }

    /// Number of arena nodes materialized so far — the navigation
    /// high-watermark.
    pub fn nodes_materialized(&self) -> usize {
        self.inner.lock().unwrap().nodes.len()
    }

    /// The failure that stopped result expansion, if one occurred.
    /// Already-materialized nodes remain navigable regardless.
    pub fn last_error(&self) -> Option<MixError> {
        self.inner.lock().unwrap().error.clone()
    }

    /// The decontextualization payload for a node: its oid plus the
    /// oids of its ancestors (nearest first, excluding the root).
    /// Skolem oids in this chain carry the bound variable and the
    /// group-by keys (Section 5).
    pub fn context(&self, n: NodeRef) -> NodeContext {
        let inner = self.inner.lock().unwrap();
        let oid = self.oid_inner(&inner, n);
        let mut ancestors = Vec::new();
        let mut cur = inner.nodes[n.0 as usize].parent;
        while let Some(p) = cur {
            if p == 0 {
                break;
            }
            ancestors.push(self.oid_inner(&inner, NodeRef(p)));
            cur = inner.nodes[p as usize].parent;
        }
        NodeContext { oid, ancestors }
    }

    fn oid_inner(&self, inner: &Inner, n: NodeRef) -> Oid {
        match &inner.nodes[n.0 as usize].kind {
            VKind::Root => Oid::root(self.name.clone()),
            VKind::Src { doc, node } => match self.ctx.doc(doc) {
                Ok(d) => d.oid(*node),
                Err(_) => Oid::surrogate(u64::MAX),
            },
            VKind::Built { oid, .. } => oid.clone(),
            VKind::ListNode { .. } => Oid::surrogate(n.0 as u64),
            VKind::Leaf { value } => Oid::lit(value.clone()),
        }
    }

    fn wrap(&self, inner: &mut Inner, val: LVal, parent: u32, index: usize) -> u32 {
        self.ctx.stats().inc(Counter::NodesBuilt);
        let kind = match val {
            LVal::Src { doc, node } => VKind::Src { doc, node },
            LVal::Leaf(v) => VKind::Leaf { value: v },
            LVal::Elem(e) => VKind::Built {
                label: e.label.clone(),
                oid: e.oid.clone(),
                list: e.children.clone(),
            },
            LVal::List(l) => VKind::ListNode { list: l },
            LVal::Part(_) => {
                // Partitions never survive tD in validated plans.
                VKind::ListNode {
                    list: LList::empty(),
                }
            }
        };
        let id = inner.nodes.len() as u32;
        inner.nodes.push(VNode {
            parent: Some(parent),
            index,
            kind,
            kids: Vec::new(),
            kids_done: false,
        });
        inner.nodes[parent as usize].kids.push(id);
        id
    }

    /// Produce (and cache) the parent's `i`-th child. A backend
    /// failure is latched by the producer that hit it: cached children
    /// stay reachable, subtrees whose producers are unaffected keep
    /// expanding, and only asking past the failed producer's
    /// materialized prefix re-reports the error.
    fn kid(&self, parent: u32, i: usize) -> Result<Option<NodeRef>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            let node = &inner.nodes[parent as usize];
            if let Some(&k) = node.kids.get(i) {
                return Ok(Some(NodeRef(k)));
            }
            if node.kids_done {
                return Ok(None);
            }
            let next_index = node.kids.len();
            // Produce one more child, depending on the node's kind.
            match &node.kind {
                VKind::Root => {
                    let td_var = inner.td_var.clone();
                    let Some(t) = inner.block.pop() else {
                        let Inner { stream, block, .. } = &mut *inner;
                        let Some(stream) = stream.as_mut() else {
                            // A stream torn down by a backend failure
                            // re-reports it; a drained stream is done.
                            if let Some(e) = &inner.error {
                                return Err(e.clone());
                            }
                            inner.nodes[parent as usize].kids_done = true;
                            continue;
                        };
                        self.profile.record_pull(0);
                        match block.refill(&mut **stream) {
                            Ok(0) => {
                                inner.stream = None;
                                inner.nodes[parent as usize].kids_done = true;
                            }
                            Ok(_) => {}
                            Err(e) => {
                                inner.stream = None;
                                inner.error = Some(e.clone());
                                return Err(e);
                            }
                        }
                        continue;
                    };
                    let val = t
                        .get(&td_var)
                        .ok_or_else(|| MixError::plan("tD var unbound"))?
                        .clone();
                    // tD set semantics: skip values whose vertex id was
                    // already exported.
                    if let Some(key) = crate::eager::dedup_key(&self.ctx, &val) {
                        if !inner.seen_root.insert(key) {
                            continue;
                        }
                    }
                    self.profile.record_tuples(0, 1);
                    self.wrap(&mut inner, val, parent, next_index);
                }
                VKind::Src { doc, node } => {
                    let d = self.ctx.doc(doc)?;
                    let doc_name = doc.clone();
                    // The next source child: sibling of the last kid's
                    // source node, or the first child.
                    let next_src = if next_index == 0 {
                        d.try_first_child(*node)
                    } else {
                        let last = inner.nodes[parent as usize].kids[next_index - 1];
                        match &inner.nodes[last as usize].kind {
                            VKind::Src { node, .. } => d.try_next_sibling(*node),
                            _ => Ok(None),
                        }
                    };
                    let next_src = match next_src {
                        Ok(s) => s,
                        Err(e) => {
                            inner.error = Some(e.clone());
                            return Err(e);
                        }
                    };
                    match next_src {
                        None => inner.nodes[parent as usize].kids_done = true,
                        Some(s) => {
                            let val = match d.value(s) {
                                Some(v) => LVal::Leaf(v),
                                None => LVal::Src {
                                    doc: doc_name,
                                    node: s,
                                },
                            };
                            self.wrap(&mut inner, val, parent, next_index);
                        }
                    }
                }
                VKind::Built { list, .. } | VKind::ListNode { list } => {
                    let list = list.clone();
                    match list.get(next_index) {
                        Ok(None) => inner.nodes[parent as usize].kids_done = true,
                        Ok(Some(v)) => {
                            self.wrap(&mut inner, v, parent, next_index);
                        }
                        Err(e) => {
                            inner.error = Some(e.clone());
                            return Err(e);
                        }
                    }
                }
                VKind::Leaf { .. } => {
                    inner.nodes[parent as usize].kids_done = true;
                }
            }
        }
    }
}

impl NavDoc for VirtualResult {
    fn doc_name(&self) -> &Name {
        &self.name
    }

    fn root(&self) -> NodeRef {
        NodeRef(0)
    }

    fn first_child(&self, n: NodeRef) -> Option<NodeRef> {
        self.try_first_child(n).unwrap_or(None)
    }

    fn next_sibling(&self, n: NodeRef) -> Option<NodeRef> {
        self.try_next_sibling(n).unwrap_or(None)
    }

    fn try_first_child(&self, n: NodeRef) -> Result<Option<NodeRef>> {
        self.ctx.stats().inc(Counter::NavCommands);
        self.kid(n.0, 0)
    }

    fn try_next_sibling(&self, n: NodeRef) -> Result<Option<NodeRef>> {
        self.ctx.stats().inc(Counter::NavCommands);
        let (parent, index) = {
            let inner = self.inner.lock().unwrap();
            let node = &inner.nodes[n.0 as usize];
            match node.parent {
                Some(p) => (p, node.index),
                None => return Ok(None),
            }
        };
        self.kid(parent, index + 1)
    }

    fn label(&self, n: NodeRef) -> Option<Name> {
        self.ctx.stats().inc(Counter::NavCommands);
        let inner = self.inner.lock().unwrap();
        match &inner.nodes[n.0 as usize].kind {
            VKind::Root => Some(Name::new("list")),
            VKind::Src { doc, node } => self.ctx.doc(doc).ok()?.label(*node),
            VKind::Built { label, .. } => Some(label.clone()),
            VKind::ListNode { .. } => Some(Name::new("list")),
            VKind::Leaf { .. } => None,
        }
    }

    fn value(&self, n: NodeRef) -> Option<Value> {
        self.ctx.stats().inc(Counter::NavCommands);
        let inner = self.inner.lock().unwrap();
        match &inner.nodes[n.0 as usize].kind {
            VKind::Leaf { value } => Some(value.clone()),
            VKind::Src { doc, node } => self.ctx.doc(doc).ok()?.value(*node),
            _ => None,
        }
    }

    fn oid(&self, n: NodeRef) -> Oid {
        let inner = self.inner.lock().unwrap();
        self.oid_inner(&inner, n)
    }
}

/// What Section 5 decodes from a node id: the node's oid and the oids
/// of its enclosing nodes.
#[derive(Debug, Clone)]
pub struct NodeContext {
    pub oid: Oid,
    /// Enclosing nodes' oids, nearest first (root excluded).
    pub ancestors: Vec<Oid>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AccessMode;
    use crate::eager;
    use mix_algebra::translate;
    use mix_wrapper::fig2_catalog;
    use mix_xml::print::render_tree;
    use mix_xquery::parse_query;

    const Q1: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
         WHERE $C/id/data() = $O/cid/data() \
         RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";

    fn virtual_q1() -> VirtualResult {
        let ctx = Arc::new(EvalContext::new(fig2_catalog().0, AccessMode::Lazy));
        let plan = translate(&parse_query(Q1).unwrap()).unwrap();
        VirtualResult::new(&plan, ctx).unwrap()
    }

    #[test]
    fn lazy_result_equals_eager_result() {
        let v = virtual_q1();
        let lazy_text = render_tree(&v, v.root());
        let ctx = EvalContext::new(fig2_catalog().0, AccessMode::Eager);
        let plan = translate(&parse_query(Q1).unwrap()).unwrap();
        let eager_doc = eager::evaluate(&plan, &ctx).unwrap();
        let eager_text = render_tree(&eager_doc, eager_doc.root());
        assert_eq!(lazy_text, eager_text);
    }

    #[test]
    fn nothing_computed_until_navigation() {
        let ctx = Arc::new(EvalContext::new(fig2_catalog().0, AccessMode::Lazy));
        let db_stats = ctx.catalog().database("db1").unwrap().stats().clone();
        db_stats.reset();
        let plan = translate(&parse_query(Q1).unwrap()).unwrap();
        let v = VirtualResult::new(&plan, Arc::clone(&ctx)).unwrap();
        // Creating the virtual document issues no SQL.
        assert_eq!(db_stats.get(Counter::SqlQueries), 0);
        let _root = v.root();
        assert_eq!(db_stats.get(Counter::SqlQueries), 0);
        // The first descent starts pulling.
        let first = v.first_child(v.root()).unwrap();
        assert!(db_stats.get(Counter::SqlQueries) > 0);
        let shipped_after_first = db_stats.get(Counter::TuplesShipped);
        // Walking the rest ships more.
        let mut cur = Some(first);
        while let Some(n) = cur {
            cur = v.next_sibling(n);
        }
        assert!(db_stats.get(Counter::TuplesShipped) > shipped_after_first);
    }

    #[test]
    fn example_2_1_navigation_session() {
        // p1 = d(p0); p2 = r(p1); p3 = d(p1) — Section 2, Example 2.1.
        let v = virtual_q1();
        let p0 = v.root();
        let p1 = v.first_child(p0).unwrap();
        assert_eq!(v.label(p1).unwrap().as_str(), "CustRec");
        let p2 = v.next_sibling(p1).unwrap();
        assert_eq!(v.label(p2).unwrap().as_str(), "CustRec");
        assert!(v.next_sibling(p2).is_none());
        let p3 = v.first_child(p1).unwrap();
        assert_eq!(v.label(p3).unwrap().as_str(), "customer");
        // and into OrderInfo
        let oi = v.next_sibling(p3).unwrap();
        assert_eq!(v.label(oi).unwrap().as_str(), "OrderInfo");
    }

    #[test]
    fn node_ids_stay_valid_after_navigation() {
        let v = virtual_q1();
        let p1 = v.first_child(v.root()).unwrap();
        let label_before = v.label(p1);
        let _p2 = v.next_sibling(p1);
        let _p3 = v.first_child(p1);
        assert_eq!(v.label(p1), label_before);
        // revisiting children returns the same node ids
        assert_eq!(v.first_child(p1), v.first_child(p1));
    }

    #[test]
    fn context_decodes_skolem_chain() {
        let v = virtual_q1();
        let p1 = v.first_child(v.root()).unwrap(); // CustRec f(&DEF345)
        let ctx1 = v.context(p1);
        let (func, var, args) = ctx1.oid.as_skolem().unwrap();
        assert_eq!(func.as_str(), "f");
        assert_eq!(var.as_str(), "V");
        assert_eq!(args[0].to_string(), "&DEF345");
        assert!(ctx1.ancestors.is_empty());
        // Descend into OrderInfo: ancestors include the CustRec skolem.
        let cust = v.first_child(p1).unwrap();
        let oi = v.next_sibling(cust).unwrap();
        let ctx2 = v.context(oi);
        assert_eq!(ctx2.oid.as_skolem().unwrap().0.as_str(), "g");
        assert_eq!(ctx2.ancestors[0], ctx1.oid);
    }

    #[test]
    fn value_fetch_on_leaves() {
        let v = virtual_q1();
        let p1 = v.first_child(v.root()).unwrap();
        let cust = v.first_child(p1).unwrap();
        let id_field = v.first_child(cust).unwrap();
        assert_eq!(v.label(id_field).unwrap().as_str(), "id");
        let leaf = v.first_child(id_field).unwrap();
        assert_eq!(v.value(leaf), Some(Value::str("DEF345")));
        assert!(v.first_child(leaf).is_none());
    }

    #[test]
    fn materialization_watermark_tracks_navigation() {
        let v = virtual_q1();
        let before = v.nodes_materialized();
        let _ = v.first_child(v.root());
        let after = v.nodes_materialized();
        assert!(after > before);
        // Only one CustRec was materialized, not both.
        let full = {
            let v2 = virtual_q1();
            let t = render_tree(&v2, v2.root());
            let _ = t;
            v2.nodes_materialized()
        };
        assert!(after < full, "partial={after} full={full}");
    }
}
