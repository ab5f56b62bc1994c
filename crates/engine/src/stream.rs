//! Lazy tuple streams — the pipelined operator implementations of
//! Section 4.
//!
//! Every XMAS operator compiles to a [`TStream`] that produces binding
//! tuples strictly on demand; "when an operator … receives a navigation
//! command from an operator that is above it in the plan, it sends
//! navigation commands to the operators below, and combines the results
//! it receives". The one command is [`TStream::pull_block`] — "up to
//! `n` tuples" — and each operator has exactly one implementation of
//! it. Highlights:
//!
//! * `mksrc` walks source children one at a time (one relational tuple
//!   per step on wrapped relations);
//! * one join and one semi-join kernel: a hash index over the extracted
//!   equi-keys, where a nested loop is the same kernel with no keys;
//! * the presorted `gBy` is the *stateless* implementation of Table 1:
//!   it holds only its input's current block (one tuple under
//!   [`mix_common::BlockPolicy::Off`]), discovers a group's members by
//!   advancing the shared input until the key changes, and skipping a
//!   group drains exactly that group (the `repeat r(bs) until key
//!   changes` loop of Table 1); the hash `gBy` is the stateful one;
//! * `apply` materializes nothing: the collected list is a lazy view
//!   over the group partition;
//! * `rQ` holds a live SQL cursor and pulls typed column blocks on the
//!   block ramp — one row per pull under [`mix_common::BlockPolicy::Off`]
//!   — decoding each block column-aware into binding tuples.
//!
//! Plans must be validated before compilation
//! ([`mix_algebra::validate()`]); streams report violated invariants as
//! [`MixError::Plan`] errors (a bad plan fails the query, never the
//! process). Backend failures propagate through every operator as
//! `Err`: the navigation command that needed the missing data sees the
//! typed [`MixError::Backend`], while tuples produced before the
//! failure remain valid.

use crate::context::{EvalContext, GByMode};
use crate::eager::{build_element, cat_value, cond_holds};
use crate::explain::subtree_size;
use crate::hashkey::{KeyCache, KeyPart};
use crate::lval::LElem;
use crate::lval::{KidGen, LList, LTuple, LVal, LazyList, Partition};
use crate::pathwalk::eval_path;
use mix_algebra::{Op, Side};
use mix_common::{ColumnBlock, Counter, MixError, Name, Result, ResultContext, Value};
use mix_obs::{ExecProfile, SpanId, TracerHandle};
use mix_relational::Cursor;
use mix_xml::{NavDoc, NodeRef, Oid};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::sync::Mutex;

/// A lazy stream of binding tuples.
///
/// One protocol between operators: a consumer asks for up to `n`
/// tuples and each operator pulls from its inputs only what that
/// demand needs.
pub trait TStream: Send {
    /// The variable schema of produced tuples.
    fn vars(&self) -> Arc<Vec<Name>>;

    /// Append up to `n` tuples to `out`; returns how many were
    /// produced, `k ≤ n`. Fewer than `n` (in particular `0`) is
    /// returned only on exhaustion — every body must uphold this, it is
    /// what lets drain loops skip the final empty pull. `Err` is a
    /// source/backend failure at exactly the pull that needed the
    /// missing data.
    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize>;

    /// Hint that this stream is about to be drained to exhaustion: an
    /// `rQ` stream starts its armed prefetcher now (laziness is moot
    /// for a consumer committed to a full drain), overlapping its
    /// backend fetch with whatever the caller does first. Default
    /// no-op; pass-through operators forward to their input.
    fn prime(&mut self) {}
}

impl dyn TStream + '_ {
    /// The next tuple: `pull_block(_, 1)`. Allocates per call, so
    /// operators pull single tuples through a reused slot instead.
    // Not `Iterator::next`: a failed pull is `Err`, not `Some(Err)`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<LTuple>> {
        pull_one(self, &mut Vec::with_capacity(1))
    }
}

/// Pull exactly one tuple from `s` through the reused `slot`.
fn pull_one(s: &mut dyn TStream, slot: &mut Vec<LTuple>) -> Result<Option<LTuple>> {
    slot.clear();
    s.pull_block(slot, 1)?;
    Ok(slot.pop())
}

/// Drain `s` to exhaustion into `out`, block at a time (the shared
/// barrier loop: join/semi-join build sides and sorts). Relies on the
/// [`TStream::pull_block`] contract — a short block means exhaustion —
/// to avoid a final empty pull.
pub(crate) fn drain_stream(s: &mut dyn TStream, out: &mut Vec<LTuple>) -> Result<()> {
    while s.pull_block(out, mix_common::MAX_AUTO_BLOCK)? == mix_common::MAX_AUTO_BLOCK {}
    Ok(())
}

/// A buffered adapter between a per-tuple consumer and a blockwise
/// producer: refills from `pull_block` on a block ramp (pinned at one
/// tuple under [`mix_common::BlockPolicy::Off`]) and hands out one
/// tuple at a time.
pub(crate) struct BlockBuf {
    /// Buffered tuples in reverse order: `pop` yields the next one and
    /// `push_back` returns one to the front.
    rev: Vec<LTuple>,
    ramp: mix_common::BlockRamp,
    done: bool,
}

impl BlockBuf {
    pub(crate) fn new(ramp: mix_common::BlockRamp) -> BlockBuf {
        BlockBuf {
            rev: Vec::new(),
            ramp,
            done: false,
        }
    }

    /// The next buffered tuple, if any (never pulls).
    pub(crate) fn pop(&mut self) -> Option<LTuple> {
        self.rev.pop()
    }

    /// Return `t` to the front of the buffer.
    fn push_back(&mut self, t: LTuple) {
        self.rev.push(t);
    }

    /// Refill the empty buffer with one ramp-sized pull from `input`;
    /// returns the number of tuples fetched (`0` on exhaustion). A
    /// failed pull leaves the buffer empty.
    pub(crate) fn refill(&mut self, input: &mut dyn TStream) -> Result<usize> {
        debug_assert!(self.rev.is_empty());
        match input.pull_block(&mut self.rev, self.ramp.next_size()) {
            Ok(got) => {
                self.rev.reverse();
                Ok(got)
            }
            Err(e) => {
                self.rev.clear();
                Err(e)
            }
        }
    }

    /// The next tuple, refilling from `input` when the buffer is empty;
    /// `None` once `input` is exhausted.
    fn pull(&mut self, input: &mut dyn TStream) -> Result<Option<LTuple>> {
        if self.rev.is_empty() && !self.done {
            self.done = self.refill(input)? == 0;
        }
        Ok(self.rev.pop())
    }
}

/// Nested-plan environment: partition bindings for `nestedSrc`.
pub type Env = Arc<HashMap<Name, Partition>>;

/// Compile a tuple-producing operator into a stream.
///
/// Fails on unresolvable sources/servers; runtime invariants assume a
/// validated plan.
pub fn build_stream(op: &Op, ctx: &Arc<EvalContext>, env: &Env) -> Result<Box<dyn TStream>> {
    let mut next = 1;
    build_stream_profiled(op, ctx, env, None, &mut next)
}

/// [`build_stream`] with per-node accounting: nodes get pre-order ids
/// starting at `*next` (the session reserves id 0 for the plan-root
/// `tD`), and — when `profile` is given or the context's tracer is
/// enabled — each stream is wrapped to record pulls/tuples and emit an
/// operator span ([`crate::explain::render_annotated`] joins the
/// profile back onto the plan).
pub(crate) fn build_stream_profiled(
    op: &Op,
    ctx: &Arc<EvalContext>,
    env: &Env,
    profile: Option<&Arc<ExecProfile>>,
    next: &mut usize,
) -> Result<Box<dyn TStream>> {
    ctx.stats().inc(Counter::MediatorOps);
    let id = *next;
    *next += 1;
    let mut extra: Vec<(&'static str, String)> = Vec::new();
    let raw: Box<dyn TStream> = match op {
        Op::MkSrc { source, var } => {
            extra.push(("src", source.to_string()));
            let doc = ctx.doc(source)?;
            Box::new(MkSrcStream {
                doc,
                source: source.clone(),
                vars: Arc::new(vec![var.clone()]),
                cur: None,
                started: false,
            })
        }
        Op::MkSrcOver { input, var } => {
            let Op::TupleDestroy {
                input: view_input,
                var: view_var,
                ..
            } = &**input
            else {
                // Keep ids aligned with the renderer's walk even though
                // this subtree is never compiled.
                *next += subtree_size(input);
                return Ok(Box::new(EmptyStream {
                    vars: Arc::new(vec![var.clone()]),
                }));
            };
            *next += 1; // the view's tD node
            let inner = build_stream_profiled(view_input, ctx, env, profile, next)?;
            Box::new(MkSrcOverStream {
                inner,
                view_var: view_var.clone(),
                vars: Arc::new(vec![var.clone()]),
                slot: Vec::new(),
            })
        }
        Op::GetD {
            input,
            from,
            path,
            to,
        } => {
            let input = build_stream_profiled(input, ctx, env, profile, next)?;
            let mut vars = (*input.vars()).clone();
            vars.push(to.clone());
            Box::new(GetDStream {
                ctx: Arc::clone(ctx),
                input,
                from: from.clone(),
                path: path.clone(),
                vars: Arc::new(vars),
                pending: VecDeque::new(),
                buf: Vec::new(),
            })
        }
        Op::Select { input, cond } => {
            let input = build_stream_profiled(input, ctx, env, profile, next)?;
            Box::new(SelectStream {
                ctx: Arc::clone(ctx),
                input,
                cond: cond.clone(),
                buf: Vec::new(),
            })
        }
        Op::Project { input, vars } => {
            let input = build_stream_profiled(input, ctx, env, profile, next)?;
            Box::new(ProjectStream {
                input,
                keep: Arc::new(vars.clone()),
                buf: Vec::new(),
            })
        }
        Op::Join { left, right, cond } => {
            let left = build_stream_profiled(left, ctx, env, profile, next)?;
            let right = build_stream_profiled(right, ctx, env, profile, next)?;
            let mut vars = (*left.vars()).clone();
            vars.extend(right.vars().iter().cloned());
            let pairs = join_keys(ctx, cond.as_ref(), &left.vars(), &right.vars(), &mut extra);
            Box::new(HashJoinStream {
                ctx: Arc::clone(ctx),
                left,
                right: Some(right),
                index: HashMap::new(),
                pairs,
                cur_left: None,
                cur_key: None,
                idx: 0,
                cond: cond.clone(),
                vars: Arc::new(vars),
                lkeys: KeyCache::new(Side::Left),
                rkeys: KeyCache::new(Side::Right),
                slot: Vec::new(),
            })
        }
        Op::SemiJoin {
            left,
            right,
            cond,
            keep,
        } => {
            let left = build_stream_profiled(left, ctx, env, profile, next)?;
            let right = build_stream_profiled(right, ctx, env, profile, next)?;
            let pairs = join_keys(ctx, cond.as_ref(), &left.vars(), &right.vars(), &mut extra);
            let (kept, other) = match keep {
                Side::Left => (left, right),
                Side::Right => (right, left),
            };
            Box::new(HashSemiJoinStream {
                ctx: Arc::clone(ctx),
                kept,
                other: Some(other),
                index: HashMap::new(),
                pairs,
                cond: cond.clone(),
                keep: *keep,
                kept_keys: KeyCache::new(*keep),
                other_keys: KeyCache::new(match keep {
                    Side::Left => Side::Right,
                    Side::Right => Side::Left,
                }),
                slot: Vec::new(),
            })
        }
        Op::CrElt {
            input,
            label,
            skolem,
            group,
            children,
            out,
            tag,
        } => {
            let input = build_stream_profiled(input, ctx, env, profile, next)?;
            let mut vars = (*input.vars()).clone();
            vars.push(out.clone());
            Box::new(MapStream {
                ctx: Arc::clone(ctx),
                input,
                vars: Arc::new(vars),
                buf: Vec::new(),
                f: MapKind::CrElt {
                    label: label.clone(),
                    skolem: skolem.clone(),
                    group: group.clone(),
                    children: children.clone(),
                    tag: tag.clone(),
                },
            })
        }
        Op::Cat {
            input,
            left,
            right,
            out,
        } => {
            let input = build_stream_profiled(input, ctx, env, profile, next)?;
            let mut vars = (*input.vars()).clone();
            vars.push(out.clone());
            Box::new(MapStream {
                ctx: Arc::clone(ctx),
                input,
                vars: Arc::new(vars),
                buf: Vec::new(),
                f: MapKind::Cat {
                    left: left.clone(),
                    right: right.clone(),
                },
            })
        }
        Op::GroupBy {
            input: input_op,
            group,
            out,
        } => {
            let input = build_stream_profiled(input_op, ctx, env, profile, next)?;
            let mode = match ctx.gby_mode {
                GByMode::Auto => {
                    if mix_rewrite::key_contiguous(input_op, group) {
                        GByMode::StatelessPresorted
                    } else {
                        GByMode::Hash
                    }
                }
                m => m,
            };
            extra.push((
                "mode",
                match mode {
                    GByMode::StatelessPresorted => "presorted",
                    GByMode::Hash | GByMode::Auto => "hash",
                }
                .to_string(),
            ));
            match mode {
                GByMode::StatelessPresorted => Box::new(GByStream::new(
                    Arc::clone(ctx),
                    input,
                    group.clone(),
                    out.clone(),
                )),
                GByMode::Hash => Box::new(GByHashStream::new(
                    Arc::clone(ctx),
                    input,
                    group.clone(),
                    out.clone(),
                )),
                GByMode::Auto => unreachable!("resolved above"),
            }
        }
        Op::Apply {
            input,
            plan,
            param,
            out,
        } => {
            let input = build_stream_profiled(input, ctx, env, profile, next)?;
            let mut vars = (*input.vars()).clone();
            vars.push(out.clone());
            // The nested plan is compiled per activation; reserve its id
            // range now so the renderer's pre-order walk lines up and
            // activations aggregate onto the same nodes.
            let nested_base = *next;
            *next += subtree_size(plan);
            let Op::TupleDestroy {
                input: nested_input,
                var: nested_var,
                ..
            } = &**plan
            else {
                return Err(MixError::plan("nested plans must end in tD"));
            };
            Box::new(ApplyStream {
                ctx: Arc::clone(ctx),
                input,
                nested_input: Arc::new((**nested_input).clone()),
                nested_var: nested_var.clone(),
                param: param.clone(),
                env: Arc::clone(env),
                vars: Arc::new(vars),
                profile: profile.cloned(),
                nested_base,
                buf: Vec::new(),
            })
        }
        Op::NestedSrc { var } => {
            let part = env.get(var).cloned().ok_or_else(|| {
                MixError::invalid(format!("nestedSrc({}) unbound", var.display_var()))
            })?;
            Box::new(NestedSrcStream {
                vars: Arc::clone(&part.vars),
                part,
                idx: 0,
            })
        }
        Op::RelQuery { server, sql, map } => {
            extra.push(("server", server.to_string()));
            extra.push(("sql", sql.to_string()));
            extra.push(("block", ctx.block.label()));
            if ctx.prefetch.enabled() {
                // Only when on, so pinned span/EXPLAIN trees for the
                // default configuration stay byte-identical.
                extra.push(("prefetch", ctx.prefetch.label()));
            }
            let db = ctx.catalog().database(server.as_str()).context(server)?;
            // `shards=` appears only for sharded backends ("1/4" routed,
            // "4/4" scatter, "whole" fallback); single-backend EXPLAIN
            // trees stay byte-identical.
            if let Some(s) = db.shards_attr(sql) {
                extra.push(("shards", s));
            }
            let mut cursor = db.execute(sql).context(server)?;
            let ramp = ctx.block_ramp();
            if ctx.prefetch.enabled() {
                // The clone predates every next_size() call on `ramp`,
                // so the prefetcher replays this stream's exact pull
                // schedule (the cursor advances the mirror past the one
                // pull it serves synchronously).
                cursor.enable_prefetch(ctx.prefetch, ramp.clone(), ctx.retry);
            }
            Box::new(RelQueryStream {
                ctx: Arc::clone(ctx),
                cursor,
                vars: Arc::new(map.iter().map(|b| b.var.clone()).collect()),
                pending: VecDeque::new(),
                ramp,
                decoder: RqDecoder::new(map),
                profile: profile.cloned(),
                id,
                counted_retries: 0,
            })
        }
        Op::OrderBy { input, vars } => {
            let input = build_stream_profiled(input, ctx, env, profile, next)?;
            Box::new(OrderByStream {
                ctx: Arc::clone(ctx),
                input: Some(input),
                keys: vars.clone(),
                sorted: Vec::new(),
                idx: 0,
            })
        }
        Op::Empty { vars } => Box::new(EmptyStream {
            vars: Arc::new(vars.clone()),
        }),
        Op::TupleDestroy { .. } => {
            return Err(MixError::invalid(
                "tD is handled by the virtual-result layer, not as a stream",
            ))
        }
    };
    Ok(instrument(raw, op.name(), extra, ctx, profile, id))
}

/// The equi-key pairs a join kernel buckets on, and its `kernel=`
/// attribute. No pairs — hash joins disabled, or no extractable
/// equi-conjunct — makes the kernel a nested loop: one bucket holding
/// the other input in its original order, every candidate re-verified
/// against the full condition.
fn join_keys(
    ctx: &EvalContext,
    cond: Option<&mix_algebra::Cond>,
    left: &[Name],
    right: &[Name],
    extra: &mut Vec<(&'static str, String)>,
) -> Vec<mix_algebra::EquiPair> {
    let split = mix_algebra::split_equi(cond, left, right);
    if ctx.hash_joins && split.hashable() {
        extra.push(("kernel", "hash".to_string()));
        split.pairs
    } else {
        ctx.stats().inc(Counter::NlFallbacks);
        extra.push(("kernel", "nl".to_string()));
        Vec::new()
    }
}

/// Wrap `inner` so pulls/tuples are counted into `profile` and an
/// operator span is emitted on the context's tracer. On the default
/// path (no profile, tracer disabled) the stream is returned untouched
/// — observability costs nothing when off.
fn instrument(
    inner: Box<dyn TStream>,
    kind: &'static str,
    extra: Vec<(&'static str, String)>,
    ctx: &Arc<EvalContext>,
    profile: Option<&Arc<ExecProfile>>,
    id: usize,
) -> Box<dyn TStream> {
    if let Some(p) = profile {
        if !extra.is_empty() {
            let detail = extra
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            p.set_detail(id, detail);
        }
    }
    if profile.is_none() && !ctx.tracer.enabled() {
        return inner;
    }
    Box::new(TracedStream {
        inner,
        tracer: ctx.tracer.clone(),
        profile: profile.cloned(),
        id,
        kind,
        extra,
        span: None,
        started: false,
        pulls: 0,
        tuples: 0,
    })
}

/// The wrapper [`instrument`] installs: opens a span at the first pull
/// (so unnavigated operators leave no trace), counts pulls and tuples,
/// and closes the span with the totals when the pipeline is dropped.
/// During each pull the span is pushed as the tracer's current parent,
/// so work demanded from operators below (and source `sql`/`row`
/// events) nests under it.
struct TracedStream {
    inner: Box<dyn TStream>,
    tracer: TracerHandle,
    profile: Option<Arc<ExecProfile>>,
    id: usize,
    kind: &'static str,
    extra: Vec<(&'static str, String)>,
    span: Option<SpanId>,
    started: bool,
    pulls: u64,
    tuples: u64,
}

impl TStream for TracedStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        self.inner.vars()
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        let traced = self.tracer.enabled();
        if !self.started {
            self.started = true;
            if traced {
                let mut attrs: Vec<(&'static str, String)> = vec![
                    ("node", self.id.to_string()),
                    ("depth", self.tracer.depth().to_string()),
                ];
                attrs.extend(self.extra.iter().cloned());
                self.span = self.tracer.start_span(self.kind, &attrs);
            }
        }
        // Traced: one tuple per span push, so spans and per-tuple events
        // nest exactly alike whatever the block size.
        let step = if traced { 1 } else { n };
        let mut k = 0;
        while k < n {
            self.pulls += 1;
            if let Some(p) = &self.profile {
                p.record_pull(self.id);
            }
            if let Some(s) = self.span {
                self.tracer.push(s);
            }
            let got = self.inner.pull_block(out, step);
            if self.span.is_some() {
                self.tracer.pop();
            }
            let got = got?;
            if got > 0 {
                self.tuples += got as u64;
                if let Some(p) = &self.profile {
                    p.record_tuples(self.id, got as u64);
                }
            }
            k += got;
            if got < step {
                break;
            }
        }
        Ok(k)
    }

    fn prime(&mut self) {
        self.inner.prime();
    }
}

impl Drop for TracedStream {
    fn drop(&mut self) {
        if let Some(s) = self.span.take() {
            self.tracer.end_span(
                s,
                &[
                    ("pulls", self.pulls.to_string()),
                    ("tuples", self.tuples.to_string()),
                ],
            );
        }
    }
}

// ---------------------------------------------------------------------

struct MkSrcStream {
    doc: Arc<dyn NavDoc>,
    source: Name,
    vars: Arc<Vec<Name>>,
    cur: Option<NodeRef>,
    started: bool,
}

impl TStream for MkSrcStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        Arc::clone(&self.vars)
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        let mut k = 0;
        while k < n {
            self.cur = if !self.started {
                self.started = true;
                self.doc.try_first_child(self.doc.root())?
            } else {
                match self.cur {
                    Some(c) => self.doc.try_next_sibling(c)?,
                    None => None,
                }
            };
            let Some(node) = self.cur else { break };
            out.push(LTuple::new(
                Arc::clone(&self.vars),
                vec![LVal::Src {
                    doc: self.source.clone(),
                    node,
                }],
            ));
            k += 1;
        }
        Ok(k)
    }
}

/// `mksrc` over an inline view plan: one binding per inner tuple's
/// tD-variable value — lazily, so naive composition still evaluates
/// navigation-driven.
struct MkSrcOverStream {
    inner: Box<dyn TStream>,
    view_var: Name,
    vars: Arc<Vec<Name>>,
    slot: Vec<LTuple>,
}

impl TStream for MkSrcOverStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        Arc::clone(&self.vars)
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        let mut k = 0;
        while k < n {
            let Some(t) = pull_one(&mut *self.inner, &mut self.slot)? else {
                break;
            };
            let v = t
                .get(&self.view_var)
                .ok_or_else(|| MixError::plan("view tD var unbound in mksrcOver"))?
                .clone();
            out.push(LTuple::new(Arc::clone(&self.vars), vec![v]));
            k += 1;
        }
        Ok(k)
    }
}

struct GetDStream {
    ctx: Arc<EvalContext>,
    input: Box<dyn TStream>,
    from: Name,
    path: mix_xml::LabelPath,
    vars: Arc<Vec<Name>>,
    pending: VecDeque<LTuple>,
    /// Scratch for input blocks, reused across pulls.
    buf: Vec<LTuple>,
}

impl GetDStream {
    /// Expand one input tuple into `pending` (0..m output tuples).
    fn expand(&mut self, t: LTuple) -> Result<()> {
        let base = t
            .get(&self.from)
            .ok_or_else(|| MixError::plan("getD source var unbound"))?
            .clone();
        let hits = eval_path(&self.ctx, &base, &self.path)?;
        for hit in hits {
            let mut vals = t.vals.clone();
            vals.push(hit);
            self.pending
                .push_back(LTuple::new(Arc::clone(&self.vars), vals));
        }
        Ok(())
    }
}

impl TStream for GetDStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        Arc::clone(&self.vars)
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        let mut k = 0;
        loop {
            while k < n {
                match self.pending.pop_front() {
                    Some(t) => {
                        out.push(t);
                        k += 1;
                    }
                    None => break,
                }
            }
            if k >= n {
                return Ok(k);
            }
            let mut buf = std::mem::take(&mut self.buf);
            let got = self.input.pull_block(&mut buf, n - k)?;
            for t in buf.drain(..) {
                self.expand(t)?;
            }
            self.buf = buf;
            if got == 0 {
                return Ok(k);
            }
        }
    }

    fn prime(&mut self) {
        self.input.prime();
    }
}

struct SelectStream {
    ctx: Arc<EvalContext>,
    input: Box<dyn TStream>,
    cond: mix_algebra::Cond,
    buf: Vec<LTuple>,
}

impl TStream for SelectStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        self.input.vars()
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        let mut k = 0;
        while k < n {
            self.buf.clear();
            if self.input.pull_block(&mut self.buf, n - k)? == 0 {
                break;
            }
            for t in self.buf.drain(..) {
                if cond_holds(&self.ctx, &self.cond, &t) {
                    out.push(t);
                    k += 1;
                }
            }
        }
        Ok(k)
    }

    fn prime(&mut self) {
        self.input.prime();
    }
}

/// Projection. Note: unlike the eager π̃, the streaming projection does
/// not eliminate duplicates (stateless operators cannot); rewritten
/// plans rely on `DISTINCT` in the pushed SQL instead.
struct ProjectStream {
    input: Box<dyn TStream>,
    keep: Arc<Vec<Name>>,
    buf: Vec<LTuple>,
}

impl TStream for ProjectStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        Arc::clone(&self.keep)
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        self.buf.clear();
        let got = self.input.pull_block(&mut self.buf, n)?;
        out.reserve(got);
        for t in self.buf.drain(..) {
            out.push(t.project(&self.keep)?);
        }
        Ok(got)
    }

    fn prime(&mut self) {
        self.input.prime();
    }
}

/// The join kernel, lazy in its left (driver) input: the right input
/// is drained when the first left tuple arrives, like the relational
/// executor's build side — but *not* before: an empty driver does zero
/// work on the inner input. Candidate pairs come from a hash index over
/// the extracted equi-keys; with no keys (the nested loop, see
/// [`join_keys`]) the index is one bucket holding the right input in
/// order. Output is left-major with matches in right-input order, and
/// the full condition is re-verified per candidate, so residual
/// conjuncts and hash-normalization collisions are handled uniformly.
struct HashJoinStream {
    ctx: Arc<EvalContext>,
    left: Box<dyn TStream>,
    right: Option<Box<dyn TStream>>,
    index: HashMap<Vec<KeyPart>, Vec<LTuple>>,
    pairs: Vec<mix_algebra::EquiPair>,
    cur_left: Option<LTuple>,
    cur_key: Option<Vec<KeyPart>>,
    idx: usize,
    cond: Option<mix_algebra::Cond>,
    vars: Arc<Vec<Name>>,
    /// Per-side variable→position caches: key extraction is an indexed
    /// load per tuple, not a name search ([`KeyCache`]).
    lkeys: KeyCache,
    rkeys: KeyCache,
    /// The driver is pulled one tuple at a time: one left tuple may
    /// fill the whole block, and pulling further ahead would ship
    /// tuples a navigate-and-stop session never uses.
    slot: Vec<LTuple>,
}

/// Drain a join's build side (once: `input` is taken) into `index`,
/// bucketed on its `keys` for `pairs`; each bucket keeps input order.
/// With no pairs every tuple lands in the one empty-key bucket.
fn build_index(
    ctx: &EvalContext,
    input: &mut Option<Box<dyn TStream>>,
    keys: &mut KeyCache,
    pairs: &[mix_algebra::EquiPair],
    index: &mut HashMap<Vec<KeyPart>, Vec<LTuple>>,
) -> Result<()> {
    let Some(mut input) = input.take() else {
        return Ok(());
    };
    if !pairs.is_empty() {
        ctx.stats().inc(Counter::HashBuilds);
    }
    let mut buf = Vec::new();
    drain_stream(&mut *input, &mut buf)?;
    for t in buf {
        // A keyless (Null) tuple can never satisfy the equi-conjuncts.
        if let Some(k) = keys.key(ctx, &t, pairs) {
            index.entry(k).or_default().push(t);
        }
    }
    Ok(())
}

impl TStream for HashJoinStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        Arc::clone(&self.vars)
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        // Vectorized probe: emit every surviving match of the current
        // left tuple before advancing, so left-major order (and the
        // per-left match order) is preserved exactly.
        let mut k = 0;
        while k < n {
            if self.cur_left.is_none() {
                if let Some(r) = self.right.as_mut() {
                    r.prime();
                }
                let Some(l) = pull_one(&mut *self.left, &mut self.slot)? else {
                    break;
                };
                let (ctx, pairs) = (&self.ctx, &self.pairs);
                build_index(
                    ctx,
                    &mut self.right,
                    &mut self.rkeys,
                    pairs,
                    &mut self.index,
                )?;
                self.cur_key = self.lkeys.key(&self.ctx, &l, &self.pairs);
                self.cur_left = Some(l);
                self.idx = 0;
            }
            let l = self.cur_left.as_ref().unwrap();
            let mut exhausted = true;
            if let Some(bucket) = self.cur_key.as_ref().and_then(|key| self.index.get(key)) {
                while self.idx < bucket.len() {
                    if k >= n {
                        exhausted = false;
                        break;
                    }
                    let r = &bucket[self.idx];
                    self.idx += 1;
                    self.ctx.stats().inc(Counter::JoinProbes);
                    let joined = l.concat(r);
                    if self
                        .cond
                        .as_ref()
                        .is_none_or(|c| cond_holds(&self.ctx, c, &joined))
                    {
                        out.push(joined);
                        k += 1;
                    }
                }
            }
            if exhausted {
                self.cur_left = None;
            }
        }
        Ok(k)
    }
}

/// The semi-join kernel: the kept side streams through, one tuple per
/// pull (each may be rejected, so it never pulls ahead); the other side
/// is indexed on first demand like [`HashJoinStream`]'s build side, and
/// each kept tuple is admitted iff its bucket holds a candidate
/// satisfying the full condition.
struct HashSemiJoinStream {
    ctx: Arc<EvalContext>,
    kept: Box<dyn TStream>,
    other: Option<Box<dyn TStream>>,
    index: HashMap<Vec<KeyPart>, Vec<LTuple>>,
    pairs: Vec<mix_algebra::EquiPair>,
    cond: Option<mix_algebra::Cond>,
    keep: Side,
    kept_keys: KeyCache,
    other_keys: KeyCache,
    slot: Vec<LTuple>,
}

impl HashSemiJoinStream {
    /// Join-side roles: the extracted pairs are oriented by the
    /// *operator's* left/right inputs, while `kept`/`other` are chosen
    /// by `keep`.
    fn other_side(&self) -> Side {
        match self.keep {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

impl TStream for HashSemiJoinStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        self.kept.vars()
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        let mut k = 0;
        while k < n {
            if let Some(o) = self.other.as_mut() {
                o.prime();
            }
            let Some(t) = pull_one(&mut *self.kept, &mut self.slot)? else {
                break;
            };
            debug_assert_eq!(self.other_keys.side(), self.other_side());
            let (ctx, pairs) = (&self.ctx, &self.pairs);
            build_index(
                ctx,
                &mut self.other,
                &mut self.other_keys,
                pairs,
                &mut self.index,
            )?;
            debug_assert_eq!(self.kept_keys.side(), self.keep);
            let key = self.kept_keys.key(&self.ctx, &t, &self.pairs);
            let Some(bucket) = key.and_then(|key| self.index.get(&key)) else {
                continue;
            };
            let stats = self.ctx.stats();
            let matched = bucket.iter().any(|o| {
                stats.inc(Counter::JoinProbes);
                let joined = match self.keep {
                    Side::Left => t.concat(o),
                    Side::Right => o.concat(&t),
                };
                self.cond
                    .as_ref()
                    .is_none_or(|c| cond_holds(&self.ctx, c, &joined))
            });
            if matched {
                out.push(t);
                k += 1;
            }
        }
        Ok(k)
    }
}

enum MapKind {
    CrElt {
        label: Name,
        skolem: Name,
        group: Vec<Name>,
        children: mix_algebra::ChildSpec,
        tag: Name,
    },
    Cat {
        left: mix_algebra::ChildSpec,
        right: mix_algebra::ChildSpec,
    },
}

struct MapStream {
    ctx: Arc<EvalContext>,
    input: Box<dyn TStream>,
    vars: Arc<Vec<Name>>,
    f: MapKind,
    /// Scratch for [`TStream::pull_block`], reused across pulls.
    buf: Vec<LTuple>,
}

impl MapStream {
    fn apply(&self, t: LTuple) -> Result<LTuple> {
        let val = match &self.f {
            MapKind::CrElt {
                label,
                skolem,
                group,
                children,
                tag,
            } => build_element(&self.ctx, &t, label, skolem, group, children, tag)?,
            MapKind::Cat { left, right } => cat_value(&t, left, right)?,
        };
        let mut vals = t.vals;
        vals.push(val);
        Ok(LTuple::new(Arc::clone(&self.vars), vals))
    }
}

impl TStream for MapStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        Arc::clone(&self.vars)
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let got = self.input.pull_block(&mut buf, n)?;
        out.reserve(got);
        for t in buf.drain(..) {
            out.push(self.apply(t)?);
        }
        self.buf = buf;
        Ok(got)
    }

    fn prime(&mut self) {
        self.input.prime();
    }
}

// ---------------------------------------------------------------------
// The stateless presorted groupBy (Table 1).
// ---------------------------------------------------------------------

struct GByShared {
    input: Box<dyn TStream>,
    block: BlockBuf,
}

impl GByShared {
    fn pull(&mut self) -> Result<Option<LTuple>> {
        self.block.pull(&mut *self.input)
    }
}

struct GByStream {
    ctx: Arc<EvalContext>,
    shared: Arc<Mutex<GByShared>>,
    group: Vec<Name>,
    /// `group[i]`'s slot in the input tuple layout, resolved once —
    /// the per-tuple key checks index `vals` directly instead of
    /// searching the name list for every tuple.
    positions: Vec<Option<usize>>,
    /// `positions` fully resolved and shared: every group's producer
    /// closure clones the `Rc` instead of collecting its own vector.
    pos: Option<Arc<[usize]>>,
    in_vars: Arc<Vec<Name>>,
    vars: Arc<Vec<Name>>,
    /// The group currently being (lazily) exposed; drained before the
    /// next group starts — exactly Table 1's `repeat b0s = r(bs) until
    /// keys differ` skip loop.
    current: Option<Partition>,
}

impl GByStream {
    fn new(
        ctx: Arc<EvalContext>,
        input: Box<dyn TStream>,
        group: Vec<Name>,
        out: Name,
    ) -> GByStream {
        let in_vars = input.vars();
        let vars: Vec<Name> = group.iter().cloned().chain([out]).collect();
        let positions = group
            .iter()
            .map(|g| in_vars.iter().position(|v| v == g))
            .collect();
        let block = BlockBuf::new(ctx.block_ramp());
        GByStream {
            ctx,
            shared: Arc::new(Mutex::new(GByShared { input, block })),
            group,
            positions,
            pos: None,
            in_vars,
            vars: Arc::new(vars),
            current: None,
        }
    }
}

fn group_key(ctx: &EvalContext, t: &LTuple, group: &[Name]) -> Result<Vec<Oid>> {
    group
        .iter()
        .map(|g| {
            t.get(g)
                .map(|v| ctx.lval_key(v))
                .ok_or_else(|| MixError::plan(format!("group var {} unbound", g.display_var())))
        })
        .collect()
}

impl TStream for GByStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        Arc::clone(&self.vars)
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        let mut k = 0;
        while k < n {
            // Finish the previous group first (skipping forward drains it).
            if let Some(prev) = self.current.take() {
                prev.force()?;
            }
            let Some(seed) = self.shared.lock().unwrap().pull()? else {
                break;
            };
            let pos: Arc<[usize]> = match &self.pos {
                Some(p) => Arc::clone(p),
                None => {
                    let resolved: Vec<usize> = self
                        .positions
                        .iter()
                        .zip(&self.group)
                        .map(|(p, g)| {
                            p.ok_or_else(|| {
                                MixError::plan(format!("group var {} unbound", g.display_var()))
                            })
                        })
                        .collect::<Result<_>>()?;
                    let p: Arc<[usize]> = Arc::from(resolved);
                    self.pos = Some(Arc::clone(&p));
                    p
                }
            };
            let key: Vec<Oid> = pos
                .iter()
                .map(|&i| self.ctx.lval_key(&seed.vals[i]))
                .collect();
            // Room for the trailing partition binding pushed below.
            let mut vals: Vec<LVal> = Vec::with_capacity(pos.len() + 1);
            vals.extend(pos.iter().map(|&i| seed.vals[i].clone()));
            // The partition producer: first the seed, then shared tuples
            // while the key matches (compared slot-wise, no per-tuple key
            // vector); a mismatching tuple is pushed back to the front of
            // the shared buffer.
            let shared = Arc::clone(&self.shared);
            let ctx = Arc::clone(&self.ctx);
            let mut seed = Some(seed);
            let producer = Box::new(move || {
                if let Some(s) = seed.take() {
                    return Ok(Some(s));
                }
                let mut sh = shared.lock().unwrap();
                let Some(t) = sh.pull()? else {
                    return Ok(None);
                };
                let same = pos
                    .iter()
                    .zip(&key)
                    .all(|(&i, k)| ctx.lval_key(&t.vals[i]) == *k);
                if same {
                    Ok(Some(t))
                } else {
                    sh.block.push_back(t);
                    Ok(None)
                }
            });
            let part = Partition::new(Arc::clone(&self.in_vars), producer);
            self.current = Some(part.clone());
            vals.push(LVal::Part(part));
            out.push(LTuple::new(Arc::clone(&self.vars), vals));
            k += 1;
        }
        Ok(k)
    }
}

/// The hash `gBy`: hash-partitions its input (groups in first-seen
/// order, correct on unsorted input), spooling it *on demand*, one
/// tuple per pull. Producing the n-th group tuple pulls only until
/// the n-th distinct key appears; forcing a partition drains the rest
/// of the input, since a later tuple may still belong to the group.
/// On key-contiguous input the output is identical to the presorted
/// stream's.
struct GByHashShared {
    ctx: Arc<EvalContext>,
    input: Box<dyn TStream>,
    done: bool,
    group: Vec<Name>,
    groups: Vec<(Vec<LVal>, Vec<LTuple>)>,
    index: HashMap<Vec<Oid>, usize>,
    slot: Vec<LTuple>,
}

impl GByHashShared {
    /// Spool one more input tuple into its group; `false` on
    /// exhaustion.
    fn advance(&mut self) -> Result<bool> {
        if self.done {
            return Ok(false);
        }
        let Some(t) = pull_one(&mut *self.input, &mut self.slot)? else {
            self.done = true;
            return Ok(false);
        };
        let key = group_key(&self.ctx, &t, &self.group)?;
        let slot = match self.index.get(&key) {
            Some(s) => *s,
            None => {
                let s = self.groups.len();
                self.index.insert(key, s);
                let vals: Vec<LVal> = self
                    .group
                    .iter()
                    .map(|g| {
                        t.get(g)
                            .cloned()
                            .ok_or_else(|| MixError::plan("group var unbound"))
                    })
                    .collect::<Result<_>>()?;
                self.groups.push((vals, Vec::new()));
                s
            }
        };
        self.groups[slot].1.push(t);
        Ok(true)
    }
}

struct GByHashStream {
    shared: Arc<Mutex<GByHashShared>>,
    in_vars: Arc<Vec<Name>>,
    vars: Arc<Vec<Name>>,
    next_group: usize,
}

impl GByHashStream {
    fn new(
        ctx: Arc<EvalContext>,
        input: Box<dyn TStream>,
        group: Vec<Name>,
        out: Name,
    ) -> GByHashStream {
        ctx.stats().inc(Counter::HashBuilds);
        let in_vars = input.vars();
        let vars: Vec<Name> = group.iter().cloned().chain([out]).collect();
        GByHashStream {
            shared: Arc::new(Mutex::new(GByHashShared {
                ctx,
                input,
                done: false,
                group,
                groups: Vec::new(),
                index: HashMap::new(),
                slot: Vec::new(),
            })),
            in_vars,
            vars: Arc::new(vars),
            next_group: 0,
        }
    }
}

impl TStream for GByHashStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        Arc::clone(&self.vars)
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        let mut k = 0;
        while k < n {
            let g = self.next_group;
            loop {
                let mut sh = self.shared.lock().unwrap();
                if sh.groups.len() > g {
                    break;
                }
                if !sh.advance()? {
                    return Ok(k);
                }
            }
            self.next_group += 1;
            let mut vals = self.shared.lock().unwrap().groups[g].0.clone();
            let shared = Arc::clone(&self.shared);
            let mut i = 0;
            let producer = Box::new(move || loop {
                let mut sh = shared.lock().unwrap();
                if i < sh.groups[g].1.len() {
                    let t = sh.groups[g].1[i].clone();
                    i += 1;
                    return Ok(Some(t));
                }
                if !sh.advance()? {
                    return Ok(None);
                }
            });
            let part = Partition::new(Arc::clone(&self.in_vars), producer);
            vals.push(LVal::Part(part));
            out.push(LTuple::new(Arc::clone(&self.vars), vals));
            k += 1;
        }
        Ok(k)
    }
}

// ---------------------------------------------------------------------

struct ApplyStream {
    ctx: Arc<EvalContext>,
    input: Box<dyn TStream>,
    /// The nested plan below its `tD` (destructured at build time).
    nested_input: Arc<Op>,
    nested_var: Name,
    param: Option<Name>,
    env: Env,
    vars: Arc<Vec<Name>>,
    profile: Option<Arc<ExecProfile>>,
    /// Pre-order id of the nested plan's `tD`; every activation numbers
    /// its streams from `nested_base + 1`, so metrics aggregate across
    /// activations.
    nested_base: usize,
    /// Scratch for input blocks, reused across pulls.
    buf: Vec<LTuple>,
}

impl ApplyStream {
    /// Attach the (lazy) collected list to one input tuple. The nested
    /// plan is not compiled until the list is first forced, so
    /// navigation that skips a group's list — counting result elements,
    /// jumping over groups — never pays for the activation.
    fn activate(&self, t: LTuple) -> Result<LTuple> {
        let param = match &self.param {
            Some(p) => {
                let v = t
                    .get(p)
                    .ok_or_else(|| MixError::plan("apply param unbound"))?
                    .clone();
                let LVal::Part(part) = v else {
                    return Err(MixError::plan(format!(
                        "apply parameter {} must be a partition",
                        p.display_var()
                    )));
                };
                Some((p.clone(), part))
            }
            None => None,
        };
        let ctx = Arc::clone(&self.ctx);
        let env = Arc::clone(&self.env);
        let nested_input = Arc::clone(&self.nested_input);
        let nvar = self.nested_var.clone();
        let profile = self.profile.clone();
        let nested_base = self.nested_base;
        let mut state: Option<(Box<dyn TStream>, std::collections::HashSet<mix_xml::Oid>)> = None;
        // The list is forced one element at a time, so the nested
        // stream is pulled one tuple at a time.
        let mut slot = Vec::new();
        let lazy = LazyList::new(Box::new(move || {
            // Compile on first demand; a compile failure surfaces as the
            // list's error (get_or_insert_with cannot propagate it).
            if state.is_none() {
                let mut env2 = (*env).clone();
                if let Some((p, part)) = &param {
                    env2.insert(p.clone(), part.clone());
                }
                let mut nid = nested_base + 1;
                let s = build_stream_profiled(
                    &nested_input,
                    &ctx,
                    &Arc::new(env2),
                    profile.as_ref(),
                    &mut nid,
                )?;
                state = Some((s, std::collections::HashSet::new()));
            }
            let (nested, seen) = state.as_mut().expect("just initialized");
            loop {
                let Some(t) = pull_one(&mut **nested, &mut slot)? else {
                    return Ok(None);
                };
                let v = t
                    .get(&nvar)
                    .ok_or_else(|| MixError::plan("nested tD var unbound"))?
                    .clone();
                // Set semantics at the nested-tD boundary (see
                // eager::dedup_key).
                if let Some(key) = crate::eager::dedup_key(&ctx, &v) {
                    if !seen.insert(key) {
                        continue;
                    }
                }
                return Ok(Some(v));
            }
        }));
        let mut vals = t.vals;
        vals.push(LVal::List(LList::lazy(lazy)));
        Ok(LTuple::new(Arc::clone(&self.vars), vals))
    }
}

impl TStream for ApplyStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        Arc::clone(&self.vars)
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        let mut buf = std::mem::take(&mut self.buf);
        let got = self.input.pull_block(&mut buf, n)?;
        for t in buf.drain(..) {
            out.push(self.activate(t)?);
        }
        self.buf = buf;
        Ok(got)
    }
}

struct NestedSrcStream {
    part: Partition,
    vars: Arc<Vec<Name>>,
    idx: usize,
}

impl TStream for NestedSrcStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        Arc::clone(&self.vars)
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        let mut k = 0;
        while k < n {
            let Some(t) = self.part.get(self.idx)? else {
                break;
            };
            self.idx += 1;
            out.push(t);
            k += 1;
        }
        Ok(k)
    }
}

/// Per-binding decode state for the `rQ` block decoder.
///
/// The eager engine's tuple-at-a-time decoder
/// ([`crate::eager::rq_row_to_vals`]) rebuilds every wrapper element
/// eagerly, one row at a time. Decoding a whole block at once amortizes
/// three costs the one-row protocol cannot:
///
/// * bindings that rebuild the *same* element from the same columns
///   (`$K`/`$C` after a pushed-down join) share one allocation per row;
/// * consecutive rows with an unchanged element key — runs produced by
///   the pushed `ORDER BY`, e.g. one customer's orders — share the
///   element across the whole run;
/// * an element's child elements materialize on first navigation
///   instead of at decode time, so a drain that never descends into the
///   element allocates one node instead of `1 + cols`.
///
/// Counters are charged exactly as the per-tuple decoder would charge
/// them, so every block policy reports identical totals.
enum RqSlot {
    /// Bind the leaf value at one column.
    Value { col: usize },
    /// Bit-identical to an earlier Element slot: share its value.
    Dup { of: usize, nodes: u64 },
    /// Rebuild a single field element `<col>value</col>`.
    FieldElement {
        element: Name,
        col: usize,
        key: Vec<usize>,
    },
    /// Rebuild a wrapper element, caching the last run.
    Element {
        element: Name,
        cols: Arc<Vec<(Name, usize)>>,
        key: Vec<usize>,
        /// The `NodesBuilt` charge per row: the element plus its
        /// (deferred) children, matching the eager decoder.
        nodes: u64,
        last_key: String,
        last: Option<LVal>,
    },
}

/// Stateless child generator for elements decoded from one column
/// block, shared by every fresh element the block yields — a deferred
/// child list carries no per-element producer state (see
/// [`ChildPart::Gen`]).
///
/// [`ChildPart::Gen`]: crate::lval::ChildPart::Gen
struct BlockKids {
    block: Arc<ColumnBlock>,
    cols: Arc<Vec<(Name, usize)>>,
}

impl KidGen for BlockKids {
    fn count(&self) -> usize {
        self.cols.len()
    }

    fn kid(&self, row: usize, i: usize, parent: &Oid) -> LVal {
        let (cname, pos) = &self.cols[i];
        let v = if *pos < self.block.arity() {
            self.block.value_at(row, *pos)
        } else {
            Value::Null
        };
        let key_text = parent.as_key().unwrap_or("");
        LVal::Elem(Arc::new(LElem {
            label: cname.clone(),
            oid: Oid::key(format!("{key_text}.{cname}")),
            children: LList::one(LVal::Leaf(v)),
        }))
    }
}

struct RqDecoder {
    slots: Vec<RqSlot>,
    /// Scratch for key rendering (reused across rows).
    keybuf: String,
}

impl RqDecoder {
    fn new(map: &[mix_algebra::RqBinding]) -> RqDecoder {
        use mix_algebra::RqKind;
        let mut slots: Vec<RqSlot> = Vec::with_capacity(map.len());
        for (i, b) in map.iter().enumerate() {
            let slot = match &b.kind {
                RqKind::Value { col } => RqSlot::Value { col: *col },
                RqKind::FieldElement { element, col, key } => RqSlot::FieldElement {
                    element: element.clone(),
                    col: *col,
                    key: key.clone(),
                },
                RqKind::Element { element, cols, key } => {
                    let dup = map[..i].iter().position(|e| e.kind == b.kind);
                    let nodes = 1 + cols.len() as u64;
                    match dup {
                        Some(of) => RqSlot::Dup { of, nodes },
                        None => RqSlot::Element {
                            element: element.clone(),
                            cols: Arc::new(cols.clone()),
                            key: key.clone(),
                            nodes,
                            last_key: String::new(),
                            last: None,
                        },
                    }
                }
            };
            slots.push(slot);
        }
        RqDecoder {
            slots,
            keybuf: String::new(),
        }
    }

    /// Decode a whole typed column block without materializing rows.
    ///
    /// Element run detection compares adjacent key *cells*
    /// ([`ColumnBlock::cell_eq`], no `Display` rendering on the fast
    /// path), and each element's lazy children borrow the shared block
    /// (`Arc<ColumnBlock>`) — one skolem oid minted per run, one block
    /// allocation per `cols.len()` children closures.
    ///
    /// Cell equality is stricter than rendered-key equality, so a false
    /// negative only builds a fresh element with the same oid, label
    /// and children — observationally identical, just unshared.
    fn decode_block(
        &mut self,
        ctx: &EvalContext,
        block: &Arc<ColumnBlock>,
        vars: &Arc<Vec<Name>>,
        out: &mut VecDeque<LTuple>,
    ) {
        use std::fmt::Write as _;
        let arity = block.arity();
        // One shared child generator per `Element` slot for this whole
        // block: every fresh element clones the `Rc` instead of
        // carrying its own producer.
        let mut gens: Vec<Option<Arc<dyn KidGen>>> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            gens.push(match slot {
                RqSlot::Element { cols, .. } => Some(Arc::new(BlockKids {
                    block: Arc::clone(block),
                    cols: Arc::clone(cols),
                })),
                _ => None,
            });
        }
        for r in 0..block.len() {
            // Headroom: downstream `crElt`/`cat` stages extend the
            // binding list in place (one push per stage), so an
            // exact-capacity Vec is guaranteed one realloc per tuple.
            let mut vals: Vec<LVal> = Vec::with_capacity(self.slots.len() + 2);
            for (s, slot) in self.slots.iter_mut().enumerate() {
                let v = match slot {
                    RqSlot::Value { col } => LVal::Leaf(if *col < arity {
                        block.value_at(r, *col)
                    } else {
                        Value::Null
                    }),
                    RqSlot::FieldElement { element, col, key } => {
                        self.keybuf.clear();
                        for (i, &k) in key.iter().enumerate() {
                            if i > 0 {
                                self.keybuf.push('|');
                            }
                            let kv = if k < arity {
                                block.value_at(r, k)
                            } else {
                                Value::Null
                            };
                            write!(self.keybuf, "{kv}").expect("write to String");
                        }
                        let v = if *col < arity {
                            block.value_at(r, *col)
                        } else {
                            Value::Null
                        };
                        ctx.stats().inc(Counter::NodesBuilt);
                        LVal::Elem(Arc::new(LElem {
                            label: element.clone(),
                            oid: Oid::key(format!("{}.{element}", self.keybuf)),
                            children: LList::one(LVal::Leaf(v)),
                        }))
                    }
                    RqSlot::Dup { of, nodes } => {
                        ctx.stats().add(Counter::NodesBuilt, *nodes);
                        vals[*of].clone()
                    }
                    RqSlot::Element {
                        element,
                        cols: _,
                        key,
                        nodes,
                        last_key,
                        last,
                    } => {
                        ctx.stats().add(Counter::NodesBuilt, *nodes);
                        let run = r > 0
                            && last.is_some()
                            && key.iter().all(|&k| k < arity && block.cell_eq(r - 1, r, k));
                        if run {
                            last.clone().expect("cached run element")
                        } else {
                            self.keybuf.clear();
                            for (i, &k) in key.iter().enumerate() {
                                if i > 0 {
                                    self.keybuf.push('|');
                                }
                                let kv = if k < arity {
                                    block.value_at(r, k)
                                } else {
                                    Value::Null
                                };
                                write!(self.keybuf, "{kv}").expect("write to String");
                            }
                            match last {
                                // Run continues across a block seam:
                                // the cached key text still matches.
                                Some(v) if *last_key == self.keybuf => v.clone(),
                                _ => {
                                    // One key-string allocation per
                                    // fresh element: the oid owns it,
                                    // and the run cache takes the
                                    // scratch buffer by swap.
                                    let oid = Oid::key(self.keybuf.clone());
                                    let gen = Arc::clone(
                                        gens[s].as_ref().expect("element slot generator"),
                                    );
                                    let v = LVal::Elem(Arc::new(LElem {
                                        label: element.clone(),
                                        oid: oid.clone(),
                                        children: LList::generated(gen, r as u32, oid),
                                    }));
                                    std::mem::swap(last_key, &mut self.keybuf);
                                    *last = Some(v.clone());
                                    v
                                }
                            }
                        }
                    }
                };
                vals.push(v);
            }
            out.push_back(LTuple::new(Arc::clone(vars), vals));
        }
    }
}

struct RelQueryStream {
    ctx: Arc<EvalContext>,
    cursor: Cursor,
    vars: Arc<Vec<Name>>,
    /// Converted tuples fetched ahead of consumption (empty under
    /// [`mix_common::BlockPolicy::Off`], where the ramp pins fetches
    /// to one row).
    pending: VecDeque<LTuple>,
    ramp: mix_common::BlockRamp,
    decoder: RqDecoder,
    /// Profile + node id so retry attempts are attributed to this `rQ`
    /// node in EXPLAIN ANALYZE output.
    profile: Option<Arc<ExecProfile>>,
    id: usize,
    /// Cursor retries already recorded into the profile.
    counted_retries: u64,
}

impl RelQueryStream {
    /// Fetch the next ramp-sized block from the server cursor and
    /// convert it; `false` on exhaustion. Transient backend faults are
    /// retried under the context's [`mix_common::RetryPolicy`] —
    /// re-requesting the same block, so the ramp is undisturbed.
    fn refill(&mut self) -> Result<bool> {
        let want = self.ramp.next_size();
        // The cursor knows how many rows can still come; cap the
        // preallocation so a nearly-drained cursor doesn't reserve a
        // full ramp block it will never fill.
        let (_, hi) = self.cursor.size_hint();
        let cap = hi.map_or(want, |h| want.min(h.max(1)));
        let mut block = ColumnBlock::new(self.cursor.arity());
        block.reserve(cap);
        let got = self
            .cursor
            .next_cblock_retrying(&mut block, want, &self.ctx.retry);
        self.note_retries();
        let got = got?;
        if got == 0 {
            return Ok(false);
        }
        // Lift the session's Auto-ramp floor: a later cursor in this
        // session skips the warm-up this drain already paid for.
        self.ctx.note_block(got);
        self.ctx
            .stats()
            .add(Counter::CellsDecoded, (got * block.arity()) as u64);
        if let Some(p) = &self.profile {
            p.record_alloc(self.id, block.byte_size());
        }
        self.pending.reserve(got);
        // The block is shared with every element's lazy children, so
        // each refill adopts a fresh one — no buffer reuse.
        let block = Arc::new(block);
        self.decoder
            .decode_block(&self.ctx, &block, &self.vars, &mut self.pending);
        Ok(true)
    }

    /// Record newly observed cursor retries into the profile, once.
    fn note_retries(&mut self) {
        if let Some(p) = &self.profile {
            let total = self.cursor.retries();
            if total > self.counted_retries {
                p.record_retries(self.id, total - self.counted_retries);
                self.counted_retries = total;
            }
        }
    }
}

impl TStream for RelQueryStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        Arc::clone(&self.vars)
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        let mut k = 0;
        while k < n {
            match self.pending.pop_front() {
                Some(t) => {
                    out.push(t);
                    k += 1;
                }
                None => {
                    if !self.refill()? {
                        break;
                    }
                }
            }
        }
        Ok(k)
    }

    fn prime(&mut self) {
        self.cursor.prime_prefetch();
    }
}

/// `orderBy` is inherently blocking: it drains its input and sorts by
/// the node ids of the listed variables.
struct OrderByStream {
    ctx: Arc<EvalContext>,
    input: Option<Box<dyn TStream>>,
    keys: Vec<Name>,
    sorted: Vec<LTuple>,
    idx: usize,
}

impl TStream for OrderByStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        match &self.input {
            Some(i) => i.vars(),
            None => self
                .sorted
                .first()
                .map(|t| Arc::clone(&t.vars))
                .unwrap_or_else(|| Arc::new(Vec::new())),
        }
    }

    fn pull_block(&mut self, out: &mut Vec<LTuple>, n: usize) -> Result<usize> {
        self.force()?;
        let end = (self.idx + n).min(self.sorted.len());
        let k = end - self.idx;
        out.extend_from_slice(&self.sorted[self.idx..end]);
        self.idx = end;
        Ok(k)
    }
}

impl OrderByStream {
    /// Drain and sort the input (once, in blocks).
    fn force(&mut self) -> Result<()> {
        if let Some(mut input) = self.input.take() {
            drain_stream(&mut *input, &mut self.sorted)?;
            let ctx = Arc::clone(&self.ctx);
            let keys = self.keys.clone();
            self.sorted.sort_by(|a, b| {
                for k in &keys {
                    let (x, y) = (a.get(k), b.get(k));
                    let o = match (x, y) {
                        (Some(x), Some(y)) => ctx.lval_oid(x).total_cmp(&ctx.lval_oid(y)),
                        _ => std::cmp::Ordering::Equal,
                    };
                    if o != std::cmp::Ordering::Equal {
                        return o;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        Ok(())
    }
}

struct EmptyStream {
    vars: Arc<Vec<Name>>,
}

impl TStream for EmptyStream {
    fn vars(&self) -> Arc<Vec<Name>> {
        Arc::clone(&self.vars)
    }

    fn pull_block(&mut self, _out: &mut Vec<LTuple>, _n: usize) -> Result<usize> {
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AccessMode;
    use mix_algebra::translate;
    use mix_wrapper::fig2_catalog;
    use mix_xquery::parse_query;

    fn lazy_ctx() -> Arc<EvalContext> {
        Arc::new(EvalContext::new(fig2_catalog().0, AccessMode::Lazy))
    }

    fn plan_input(q: &str) -> Op {
        let plan = translate(&parse_query(q).unwrap()).unwrap();
        match plan.root {
            Op::TupleDestroy { input, .. } => *input,
            other => other,
        }
    }

    const Q1: &str = "FOR $C IN source(&root1)/customer $O IN document(&root2)/order \
         WHERE $C/id/data() = $O/cid/data() \
         RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}";

    #[test]
    fn mksrc_pulls_one_tuple_per_next() {
        // Paper-faithful mode: the source ships exactly one tuple per
        // navigation pull (Auto would prefetch ahead after the first).
        let mut c = EvalContext::new(fig2_catalog().0, AccessMode::Lazy);
        c.block = mix_common::BlockPolicy::Off;
        let ctx = Arc::new(c);
        let op = Op::MkSrc {
            source: Name::new("root2"),
            var: Name::new("O"),
        };
        let mut s = build_stream(&op, &ctx, &Arc::new(HashMap::new())).unwrap();
        let stats = ctx.catalog().database("db1").unwrap().stats().clone();
        assert_eq!(stats.get(Counter::TuplesShipped), 0);
        assert!(s.next().unwrap().is_some());
        assert_eq!(stats.get(Counter::TuplesShipped), 1);
        assert!(s.next().unwrap().is_some());
        assert_eq!(stats.get(Counter::TuplesShipped), 2);
        assert!(s.next().unwrap().is_some());
        assert!(s.next().unwrap().is_none());
        assert_eq!(stats.get(Counter::TuplesShipped), 3);
    }

    #[test]
    fn select_filters_lazily() {
        let ctx = lazy_ctx();
        let op = plan_input("FOR $O IN document(root2)/order WHERE $O/value > 2000 RETURN $O");
        let mut s = build_stream(&op, &ctx, &Arc::new(HashMap::new())).unwrap();
        let mut n = 0;
        while s.next().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn q1_stream_produces_custrec_per_customer() {
        let ctx = lazy_ctx();
        let op = plan_input(Q1);
        let mut s = build_stream(&op, &ctx, &Arc::new(HashMap::new())).unwrap();
        let t1 = s.next().unwrap().unwrap();
        let v1 = t1.get(&Name::new("V")).unwrap();
        assert_eq!(ctx.lval_oid(v1).to_string(), "&($V,f(&DEF345))");
        let t2 = s.next().unwrap().unwrap();
        let v2 = t2.get(&Name::new("V")).unwrap();
        assert_eq!(ctx.lval_oid(v2).to_string(), "&($V,f(&XYZ123))");
        assert!(s.next().unwrap().is_none());
    }

    #[test]
    fn stateless_gby_partitions_by_group() {
        let ctx = lazy_ctx();
        let op = plan_input(Q1);
        let mut s = build_stream(&op, &ctx, &Arc::new(HashMap::new())).unwrap();
        let a = s.next().unwrap().unwrap();
        let LVal::Part(pa) = a.get(&Name::new("X")).unwrap().clone() else {
            panic!()
        };
        assert_eq!(pa.force().unwrap().len(), 1); // DEF345 has one order
        let b = s.next().unwrap().unwrap();
        let LVal::Part(pb) = b.get(&Name::new("X")).unwrap().clone() else {
            panic!()
        };
        assert_eq!(pb.force().unwrap().len(), 2); // XYZ123 has two
    }

    /// A catalog whose order stream interleaves customer ids
    /// (XYZ123, DEF345, XYZ123 in orid order) — unsorted group keys.
    fn interleaved_catalog() -> mix_wrapper::Catalog {
        let mut db = mix_relational::fixtures::sample_db();
        // orid 90000 sorts after DEF345's 99111? No: 90000 < 99111, so
        // the orid order is 28904(XYZ), 87456(XYZ), 90000(DEF), 99111(XYZ).
        db.insert(
            "orders",
            vec![
                mix_common::Value::Int(90000),
                mix_common::Value::str("DEF345"),
                mix_common::Value::Int(7),
            ],
        )
        .unwrap();
        db.insert(
            "orders",
            vec![
                mix_common::Value::Int(99999),
                mix_common::Value::str("XYZ123"),
                mix_common::Value::Int(8),
            ],
        )
        .unwrap();
        mix_wrapper::wrap_customers_orders(db)
    }

    #[test]
    fn stateless_gby_fragments_unsorted_input() {
        // The presorted stateless gBy on unsorted keys fragments groups
        // (Section 4: it *assumes* sorted input) — the documented
        // trade-off the E7 ablation measures. Forced explicitly:
        // `Auto` would refuse this plan (the group key comes from a
        // data() path) and pick the hash implementation.
        let ctx = Arc::new({
            let mut c = EvalContext::new(interleaved_catalog(), AccessMode::Lazy);
            c.gby_mode = GByMode::StatelessPresorted;
            c
        });
        let op = plan_input(
            "FOR $O IN document(root2)/order $B IN $O/cid/data() \
                             RETURN <g> $O </g> {$B}",
        );
        let mut s = build_stream(&op, &ctx, &Arc::new(HashMap::new())).unwrap();
        let mut groups = 0;
        while s.next().unwrap().is_some() {
            groups += 1;
        }
        assert_eq!(groups, 3);
    }

    #[test]
    fn hash_gby_handles_unsorted_input() {
        // Default mode is Auto; the group key comes from a data()
        // path, so the analysis refuses presorted and picks hash —
        // which groups the interleaved keys correctly.
        let ctx = Arc::new(EvalContext::new(interleaved_catalog(), AccessMode::Lazy));
        let op = plan_input(
            "FOR $O IN document(root2)/order $B IN $O/cid/data() \
                             RETURN <g> $O </g> {$B}",
        );
        let mut s = build_stream(&op, &ctx, &Arc::new(HashMap::new())).unwrap();
        let a = s.next().unwrap().unwrap();
        let LVal::Part(pa) = a.get(&Name::new("X")).unwrap().clone() else {
            panic!()
        };
        let b = s.next().unwrap().unwrap();
        let LVal::Part(pb) = b.get(&Name::new("X")).unwrap().clone() else {
            panic!()
        };
        assert!(s.next().unwrap().is_none());
        // First-seen order: XYZ123 (28904, 87456, 99999), then
        // DEF345 (90000, 99111).
        assert_eq!(pa.force().unwrap().len(), 3);
        assert_eq!(pb.force().unwrap().len(), 2);
    }

    #[test]
    fn hash_gby_first_group_is_lazy() {
        let ctx = Arc::new({
            let mut c = EvalContext::new(interleaved_catalog(), AccessMode::Lazy);
            c.gby_mode = GByMode::Hash;
            c
        });
        let stats = ctx.catalog().database("db1").unwrap().stats().clone();
        stats.reset();
        let op = plan_input(
            "FOR $O IN document(root2)/order $B IN $O/cid/data() \
                             RETURN <g> $O </g> {$B}",
        );
        let mut s = build_stream(&op, &ctx, &Arc::new(HashMap::new())).unwrap();
        let _first = s.next().unwrap().unwrap();
        let after_first = stats.get(Counter::TuplesShipped);
        while s.next().unwrap().is_some() {}
        // The first group tuple must not drain the order source.
        assert!(
            stats.get(Counter::TuplesShipped) > after_first,
            "first={after_first}, total={}",
            stats.get(Counter::TuplesShipped)
        );
    }

    #[test]
    fn apply_collection_is_lazy() {
        let ctx = lazy_ctx();
        let op = plan_input(Q1);
        let mut s = build_stream(&op, &ctx, &Arc::new(HashMap::new())).unwrap();
        let t = s.next().unwrap().unwrap();
        let LVal::List(l) = t.get(&Name::new("Z")).unwrap().clone() else {
            panic!()
        };
        let first = l.get(0).unwrap().unwrap();
        assert_eq!(ctx.lval_label(&first).unwrap().as_str(), "OrderInfo");
        assert!(l.get(1).unwrap().is_none()); // DEF345 has exactly one order
    }

    #[test]
    fn q1_first_custrec_does_not_drain_sources() {
        // The laziness claim: producing the first CustRec tuple must not
        // ship the whole join input.
        let ctx = lazy_ctx();
        let stats = ctx.catalog().database("db1").unwrap().stats().clone();
        stats.reset();
        let op = plan_input(Q1);
        let mut s = build_stream(&op, &ctx, &Arc::new(HashMap::new())).unwrap();
        let _first = s.next().unwrap().unwrap();
        let after_first = stats.get(Counter::TuplesShipped);
        while s.next().unwrap().is_some() {}
        // Draining the rest pulls at least one more customer tuple.
        assert!(
            stats.get(Counter::TuplesShipped) > after_first,
            "first={after_first}, total={}",
            stats.get(Counter::TuplesShipped)
        );
    }

    #[test]
    fn empty_and_project_streams() {
        let ctx = lazy_ctx();
        let mut s = build_stream(
            &Op::Empty {
                vars: vec![Name::new("X")],
            },
            &ctx,
            &Arc::new(HashMap::new()),
        )
        .unwrap();
        assert!(s.next().unwrap().is_none());

        let op = Op::Project {
            input: Box::new(Op::MkSrc {
                source: Name::new("root1"),
                var: Name::new("C"),
            }),
            vars: vec![Name::new("C")],
        };
        let mut s = build_stream(&op, &ctx, &Arc::new(HashMap::new())).unwrap();
        let t = s.next().unwrap().unwrap();
        assert_eq!(t.vars.len(), 1);
    }
}
