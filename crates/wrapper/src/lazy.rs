//! The lazy navigable view of a wrapped relation.
//!
//! A [`LazyRelationalDoc`] looks exactly like the materialized document
//! of Fig. 2 through the [`NavDoc`] interface, but tuples are fetched
//! from the source cursor *one at a time, as navigation reaches them*:
//!
//! * the root exists immediately — no SQL has been issued yet;
//! * the first `d(root)` issues `SELECT * FROM r ORDER BY key` and pulls
//!   one row;
//! * each `r(tuple_i)` on the most recent tuple pulls row `i+1`;
//! * navigation *within* an already-fetched tuple touches the source
//!   not at all.
//!
//! Fetched tuples are kept (node ids handed to the client must remain
//! valid), so the memory high-watermark equals the furthest point the
//! client navigated — the paper's partial-evaluation claim in
//! measurable form.

use crate::relsource::RelationSource;
use mix_common::{
    BlockPolicy, BlockRamp, ColumnBlock, MixError, Name, PrefetchPolicy, Result, RetryPolicy, Value,
};
use mix_relational::Cursor;
use mix_xml::{Document, NavDoc, NodeRef, Oid};
use std::sync::Mutex;

/// A virtual document over one relation, fetching tuples on demand.
pub struct LazyRelationalDoc {
    source: RelationSource,
    retry: RetryPolicy,
    prefetch: PrefetchPolicy,
    state: Mutex<State>,
}

struct State {
    /// Arena holding the root plus every tuple subtree fetched so far.
    doc: Document,
    /// Live cursor; `None` before the first fetch and after exhaustion.
    cursor: Option<Cursor>,
    /// Whether the cursor has been opened at least once.
    opened: bool,
    /// A backend error the retry policy could not absorb. Latched: the
    /// already-fetched prefix stays navigable, but every navigation
    /// step that needs *more* data reports this error again.
    error: Option<MixError>,
    /// Tuple element nodes, in fetch order.
    tuples: Vec<NodeRef>,
    /// Column names (cached at open).
    columns: Vec<Name>,
    /// Adaptive block sizing for successive fetches: the first pull
    /// ships exactly one tuple regardless of policy, so navigate-and-
    /// stop sessions are indistinguishable from `BlockPolicy::Off`.
    ramp: BlockRamp,
}

impl LazyRelationalDoc {
    /// Wrap `source` lazily. No SQL is issued yet. Fetches follow the
    /// default block policy ([`BlockPolicy::Auto`]) and retry policy;
    /// see [`LazyRelationalDoc::with_opts`].
    pub fn new(source: RelationSource) -> LazyRelationalDoc {
        LazyRelationalDoc::with_block(source, BlockPolicy::default())
    }

    /// Wrap `source` lazily with an explicit block policy.
    /// [`BlockPolicy::Off`] pulls one tuple per navigation step (the
    /// paper's model); the others prefetch ahead of navigation in
    /// blocks, bounded by the ramp.
    pub fn with_block(source: RelationSource, block: BlockPolicy) -> LazyRelationalDoc {
        LazyRelationalDoc::with_opts(source, block, RetryPolicy::default())
    }

    /// Wrap `source` lazily with explicit block and retry policies.
    /// Transient backend faults are retried inside the fetch (invisible
    /// to the caller and to the block ramp); what `retry` cannot absorb
    /// surfaces as an error from the navigation step that needed the
    /// data.
    pub fn with_opts(
        source: RelationSource,
        block: BlockPolicy,
        retry: RetryPolicy,
    ) -> LazyRelationalDoc {
        LazyRelationalDoc::with_policies(source, block, retry, PrefetchPolicy::Off)
    }

    /// Wrap `source` lazily with explicit block, retry and prefetch
    /// policies. With prefetch enabled, a background thread keeps up to
    /// `depth` blocks in flight *after* the first navigation step has
    /// demanded data — laziness before the first demand and all
    /// shipped-tuple accounting are unchanged (the thread replays the
    /// same block ramp the synchronous path would have run).
    pub fn with_policies(
        source: RelationSource,
        block: BlockPolicy,
        retry: RetryPolicy,
        prefetch: PrefetchPolicy,
    ) -> LazyRelationalDoc {
        let doc = Document::new(source.root().clone(), "list");
        LazyRelationalDoc {
            source,
            retry,
            prefetch,
            state: Mutex::new(State {
                doc,
                cursor: None,
                opened: false,
                error: None,
                tuples: Vec::new(),
                columns: Vec::new(),
                ramp: block.ramp(),
            }),
        }
    }

    /// Number of tuples fetched so far (the laziness metric).
    pub fn fetched(&self) -> usize {
        self.state.lock().unwrap().tuples.len()
    }

    /// The latched backend error, if fetching has failed permanently.
    pub fn last_error(&self) -> Option<MixError> {
        self.state.lock().unwrap().error.clone()
    }

    /// Ensure at least `n + 1` tuples are fetched (so index `n` exists),
    /// stopping early if the cursor runs dry. Returns the tuple node at
    /// index `n` if it exists; a backend failure the retry policy could
    /// not absorb is latched and re-reported on every further call.
    fn fetch_to(&self, n: usize) -> Result<Option<NodeRef>> {
        let mut st = self.state.lock().unwrap();
        // Already-materialized tuples are served even after a failure —
        // the latched error only gates *new* fetches.
        if let Some(&t) = st.tuples.get(n) {
            return Ok(Some(t));
        }
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        if !st.opened {
            st.opened = true;
            let stmt = self.source.scan_stmt()?;
            let mut cursor = self.source.db().execute(&stmt)?;
            if self.prefetch.enabled() {
                // The ramp clone must predate the consumer's first
                // `next_size` call: the cursor mirrors one step per
                // synchronous pull before handing it to the thread.
                cursor.enable_prefetch(self.prefetch, st.ramp.clone(), self.retry);
            }
            st.cursor = Some(cursor);
            st.columns = self.source.columns()?;
        }
        while st.tuples.len() <= n {
            let st = &mut *st;
            let Some(cur) = st.cursor.as_mut() else { break };
            // Fetch a whole block per ramp step; the schema lookup is
            // hoisted out of the per-row loop. Transient faults are
            // retried inside `next_cblock_retrying`, re-requesting the
            // same block size so the ramp is undisturbed.
            let want = st.ramp.next_size();
            let mut block = ColumnBlock::new(cur.arity());
            let got = match cur.next_cblock_retrying(&mut block, want, &self.retry) {
                Ok(got) => got,
                Err(e) => {
                    st.cursor = None;
                    st.error = Some(e.clone());
                    return Err(e);
                }
            };
            if got == 0 {
                st.cursor = None;
                break;
            }
            let schema = self
                .source
                .db()
                .table(self.source.relation().as_str())
                .ok()
                .map(|t| t.schema().clone());
            let root = st.doc.root_ref();
            let elem = self.source.element();
            for row in block.iter_rows() {
                let key = match &schema {
                    Some(s) => s.key_text(&row),
                    None => String::new(),
                };
                let tuple = st
                    .doc
                    .add_elem_with_oid(root, elem.clone(), Oid::key(key.clone()));
                for (c, v) in st.columns.iter().zip(row) {
                    let field =
                        st.doc
                            .add_elem_with_oid(tuple, c.clone(), Oid::key(format!("{key}.{c}")));
                    st.doc.add_text_with_oid(field, v.clone(), Oid::lit(v));
                }
                st.tuples.push(tuple);
            }
        }
        Ok(st.tuples.get(n).copied())
    }
}

impl NavDoc for LazyRelationalDoc {
    fn doc_name(&self) -> &Name {
        self.source.root()
    }

    fn root(&self) -> NodeRef {
        self.state.lock().unwrap().doc.root_ref()
    }

    /// Infallible view of [`NavDoc::try_first_child`]: a backend
    /// failure degrades to "no child" (legacy callers; the engine's
    /// navigation path uses the `try_` form and sees the error).
    fn first_child(&self, n: NodeRef) -> Option<NodeRef> {
        self.try_first_child(n).unwrap_or(None)
    }

    fn next_sibling(&self, n: NodeRef) -> Option<NodeRef> {
        self.try_next_sibling(n).unwrap_or(None)
    }

    fn try_first_child(&self, n: NodeRef) -> Result<Option<NodeRef>> {
        if n == self.root() {
            return self.fetch_to(0);
        }
        Ok(self.state.lock().unwrap().doc.first_child(n))
    }

    fn try_next_sibling(&self, n: NodeRef) -> Result<Option<NodeRef>> {
        {
            let st = self.state.lock().unwrap();
            if let Some(s) = st.doc.next_sibling(n) {
                return Ok(Some(s));
            }
            // Not the last fetched tuple ⇒ genuinely no sibling.
            if st.tuples.last() != Some(&n) {
                return Ok(None);
            }
        }
        let idx = self.state.lock().unwrap().tuples.len();
        self.fetch_to(idx)
    }

    fn label(&self, n: NodeRef) -> Option<Name> {
        self.state.lock().unwrap().doc.label(n)
    }

    fn value(&self, n: NodeRef) -> Option<Value> {
        self.state.lock().unwrap().doc.value(n)
    }

    fn oid(&self, n: NodeRef) -> Oid {
        self.state.lock().unwrap().doc.oid(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_common::{BlockPolicy, Counter};
    use mix_relational::fixtures::{gen_db, sample_db};
    use mix_xml::nav::nav_children;

    fn lazy_customers() -> LazyRelationalDoc {
        RelationSource::new(sample_db(), "customer", "customer", "root1").lazy()
    }

    #[test]
    fn no_sql_until_first_descent() {
        // Fresh view: root exists, zero queries issued.
        let src = RelationSource::new(sample_db(), "customer", "customer", "root1");
        let stats = src.db().stats().clone();
        let lazy = src.lazy();
        let _root = lazy.root();
        assert_eq!(stats.get(Counter::SqlQueries), 0);
        let _ = lazy.first_child(lazy.root());
        assert_eq!(stats.get(Counter::SqlQueries), 1);
        assert_eq!(stats.get(Counter::TuplesShipped), 1);
    }

    #[test]
    fn tuples_fetch_one_per_sibling_step() {
        // The paper-faithful mode: exactly one tuple per navigation step.
        let src = RelationSource::new(gen_db(50, 0, 1), "customer", "customer", "root1");
        let stats = src.db().stats().clone();
        let lazy = src.lazy_with_block(BlockPolicy::Off);
        let mut n = lazy.first_child(lazy.root()).unwrap();
        assert_eq!(stats.get(Counter::TuplesShipped), 1);
        for expect in 2..=10u64 {
            n = lazy.next_sibling(n).unwrap();
            assert_eq!(stats.get(Counter::TuplesShipped), expect);
        }
        assert_eq!(lazy.fetched(), 10);
        // Navigation inside a fetched tuple costs nothing.
        let field = lazy.first_child(n).unwrap();
        let _ = lazy.next_sibling(field);
        let _ = lazy.label(field);
        assert_eq!(stats.get(Counter::TuplesShipped), 10);
    }

    #[test]
    fn auto_ramp_ships_one_first_then_blocks() {
        let src = RelationSource::new(gen_db(50, 0, 1), "customer", "customer", "root1");
        let stats = src.db().stats().clone();
        let lazy = src.lazy(); // default = Auto
        let mut n = lazy.first_child(lazy.root()).unwrap();
        // The first descent ships exactly one tuple — same as Off.
        assert_eq!(stats.get(Counter::TuplesShipped), 1);
        assert_eq!(lazy.fetched(), 1);
        // Stepping to tuple 4 (index 3) fetches blocks 2 then 4:
        // cumulative 1, 3, 7 — overfetch stays under 2x consumption.
        for _ in 0..3 {
            n = lazy.next_sibling(n).unwrap();
        }
        assert_eq!(stats.get(Counter::TuplesShipped), 7);
        assert_eq!(lazy.fetched(), 7);
        // Draining everything ships all 50 exactly once, in blocks.
        let mut count = 4;
        while let Some(next) = lazy.next_sibling(n) {
            n = next;
            count += 1;
        }
        assert_eq!(count, 50);
        assert_eq!(stats.get(Counter::TuplesShipped), 50);
        // 1+2+4+8+16 = 31, then a final partial block of 19.
        assert_eq!(stats.get(Counter::BlocksShipped), 6);
        // Fixed(n) also starts at one tuple, then jumps to n.
        let src = RelationSource::new(gen_db(50, 0, 2), "customer", "customer", "root1");
        let stats = src.db().stats().clone();
        let lazy = src.lazy_with_block(BlockPolicy::Fixed(8));
        let first = lazy.first_child(lazy.root()).unwrap();
        assert_eq!(stats.get(Counter::TuplesShipped), 1);
        let _ = lazy.next_sibling(first).unwrap();
        assert_eq!(stats.get(Counter::TuplesShipped), 9);
    }

    #[test]
    fn lazy_view_equals_materialized_view() {
        let src = RelationSource::new(sample_db(), "customer", "customer", "root1");
        let eager = src.materialize().unwrap();
        let lazy = src.lazy();
        // Walk the lazy view to exhaustion, then compare rendering.
        let kids = nav_children(&lazy, lazy.root());
        assert_eq!(kids.len(), 2);
        assert!(lazy.next_sibling(*kids.last().unwrap()).is_none());
        let lt = mix_xml::print::render_tree(&lazy, lazy.root());
        let et = mix_xml::print::render_tree(&eager, eager.root());
        assert_eq!(lt, et);
    }

    #[test]
    fn exhausted_cursor_stays_exhausted() {
        let lazy = lazy_customers();
        let kids = nav_children(&lazy, lazy.root());
        let last = *kids.last().unwrap();
        assert!(lazy.next_sibling(last).is_none());
        assert!(lazy.next_sibling(last).is_none());
        assert_eq!(lazy.fetched(), 2);
    }

    #[test]
    fn empty_relation_has_no_children() {
        let mut db = sample_db();
        db.create_table(
            "empty",
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
        let lazy = RelationSource::new(db, "empty", "e", "root9").lazy();
        assert!(lazy.first_child(lazy.root()).is_none());
    }
}
