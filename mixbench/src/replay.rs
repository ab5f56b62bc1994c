//! The staged replay: a target that answers like a session, but first
//! walks every `query`/`q` text through the public stage functions —
//! `xquery` → `algebra` → `qdom` splice → `rewrite` → `engine` →
//! `relational` — timing each from outside, then times the session's
//! own dispatch of the same command, and (for served workloads) runs
//! each frame through the `proto` codec.
//!
//! The stages mirror what `QdomSession::query`/`q` do on a plan-cache
//! miss, so their sum should account for the dispatch next to it.

use crate::rec::{Op, Rec, Tok};
use crate::target::{Target, NAV_BATCH};
use mix::algebra::Op as PlanOp;
use mix::prelude::*;
use mix::qdom::decontext::decontextualize;
use mix::qdom::splice::{compose, references_source};
use mix::qdom::QdomSession;
use mix::rewrite::schema_prune;
use std::sync::Arc;

/// Frames up to this many bytes count as small (navigation-sized);
/// their codec cost is reported per frame, larger ones' per KiB.
const SMALL_FRAME: usize = 256;

pub struct Staged<'a> {
    session: QdomSession<'a>,
    mediator: &'a Mediator,
    /// `engine.open` runs against this context, not the session's.
    scratch: Arc<EvalContext>,
    rec: &'a mut Rec,
    codec: bool,
    nav_open: Option<(Tok, u64)>,
    /// The next `d` is the first pull of a fresh result.
    first_d_pending: bool,
    /// Nanoseconds spent in stage functions since the latest `query`.
    stage_ns: f64,
    /// Stage and dispatch nanoseconds of the latest top-level query,
    /// until the first `d` completes the pair.
    query_ns: Option<(f64, f64)>,
    /// Per top-level query: stage time over dispatch time (query plus
    /// first `d`) — how much of the session's work the stages explain.
    explained: Vec<f64>,
}

/// What a staged script leaves behind.
pub struct StagedDone {
    /// The session's counters.
    pub session: Snapshot,
    pub explained: Vec<f64>,
}

impl<'a> Staged<'a> {
    pub fn new(mediator: &'a Mediator, rec: &'a mut Rec, codec: bool) -> Staged<'a> {
        let opts = mediator.options();
        let mut scratch = EvalContext::new(mediator.catalog().clone(), AccessMode::Lazy);
        scratch.gby_mode = opts.gby;
        scratch.hash_joins = opts.hash_joins;
        scratch.block = opts.block;
        scratch.retry = opts.retry;
        scratch.prefetch = opts.prefetch;
        scratch.columnar = opts.columnar;
        Staged {
            session: mediator.session(),
            mediator,
            scratch: Arc::new(scratch),
            rec,
            codec,
            nav_open: None,
            first_d_pending: false,
            stage_ns: 0.0,
            query_ns: None,
            explained: Vec::new(),
        }
    }

    fn flush_nav(&mut self) {
        if let Some((tok, n)) = self.nav_open.take() {
            self.rec.end(tok, n);
        }
    }

    /// End the script.
    pub fn finish(mut self) -> StagedDone {
        self.flush_nav();
        StagedDone {
            session: self.session.ctx().stats().snapshot(),
            explained: self.explained,
        }
    }

    fn timed<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R {
        let tok = self.rec.begin(op);
        let out = f();
        self.stage_ns += self.rec.end(tok, 1);
        out
    }

    /// Compile `text` the way the session will, stage by stage.
    /// Failures end the replay of this command quietly: the dispatch
    /// that follows reports them as the command's own error.
    fn stage(&mut self, text: &str, from: Option<WireNode>) {
        let catalog = self.mediator.catalog().clone();
        let Ok(query) = self.timed(Op::XqueryParse, || parse_query(text)) else {
            return;
        };
        let Ok(mut plan) = self.timed(Op::AlgebraTranslate, || {
            translate_with_root(&query, "rootv_replay")
        }) else {
            return;
        };
        match from {
            None => {
                let mediator = self.mediator;
                plan = self.timed(Op::QdomCompose, || {
                    let mut plan = plan;
                    for name in mediator.view_names() {
                        if references_source(&plan.root, name.as_str()) {
                            let view = mediator.view(name.as_str()).expect("listed view");
                            plan = compose(&plan, name.as_str(), view);
                        }
                    }
                    plan
                });
            }
            Some(w) => {
                let Ok(p) = self.session.resolve_handle(w) else {
                    return;
                };
                let tok = self.rec.begin(Op::QdomDecontext);
                let nctx = self.session.context(p);
                let view = &self.session.result_info(p).logical_plan;
                let spliced = decontextualize(&plan, &nctx, view);
                self.rec.end(tok, 1);
                match spliced {
                    Ok(p) => plan = p,
                    Err(_) => return,
                }
            }
        }
        // `optimize` is rewrite-to-fixpoint interleaved with schema
        // pruning, then the SQL split; timed apart here.
        let tok = self.rec.begin(Op::RewriteOptimize);
        let mut out = mix::rewrite::rewrite(&plan);
        let mut fired = out.trace.steps.len() as u64;
        while let Some(pruned) = schema_prune(&out.plan, &catalog) {
            let again = mix::rewrite::rewrite(&pruned);
            fired += 1 + again.trace.steps.len() as u64;
            out.plan = again.plan;
        }
        self.stage_ns += self.rec.end_with(tok, Op::RewriteOptimize, 1, fired);
        let exec = self.timed(Op::RewriteSplit, || split_plan(&out.plan, &catalog));
        // The session keeps a logical (pre-split) plan for later
        // composition, and derives it with a second full rewrite.
        self.timed(Op::RewriteLogical, || mix::rewrite::rewrite(&plan));
        if self.timed(Op::AlgebraValidate, || validate(&exec)).is_err() {
            return;
        }
        let scratch = Arc::clone(&self.scratch);
        let Ok(result) = self.timed(Op::EngineOpen, || VirtualResult::new(&exec, scratch)) else {
            return;
        };
        let _ = self.timed(Op::EngineFirstChild, || {
            result.try_first_child(result.root())
        });
        drop(result);
        // The SQL the split plan ships, put straight to the backend:
        // the part of `engine.first_child` that is the source's, so
        // it is not counted towards the stages a second time.
        let stages = self.stage_ns;
        let mut shipped = Vec::new();
        collect_sql(&exec.root, &mut shipped);
        for (server, sql) in shipped {
            let Ok(db) = catalog.database(server.as_str()) else {
                continue;
            };
            let Ok(mut cursor) = self.timed(Op::RelExecute, || db.execute(sql)) else {
                continue;
            };
            let mut block = ColumnBlock::new(cursor.arity());
            let _ = self.timed(Op::RelCblock, || cursor.next_cblock(&mut block, 1));
        }
        self.stage_ns = stages;
    }

    /// One frame through the codec: encode, then decode what was
    /// encoded (the peer's half of the same frame).
    fn codec(&mut self, frame: Frame) {
        let tok = self.rec.begin(Op::ProtoEncodeSmall);
        let bytes = frame.encode();
        let small = bytes.len() <= SMALL_FRAME;
        let (enc, dec) = if small {
            (Op::ProtoEncodeSmall, Op::ProtoDecodeSmall)
        } else {
            (Op::ProtoEncodeLarge, Op::ProtoDecodeLarge)
        };
        self.rec.end_with(tok, enc, 1, bytes.len() as u64);
        let tok = self.rec.begin(dec);
        let decoded = Frame::decode_payload(&bytes[4..]);
        self.rec.end_with(tok, dec, 1, bytes.len() as u64);
        debug_assert!(decoded.is_ok());
    }
}

fn collect_sql<'p>(op: &'p PlanOp, out: &mut Vec<(&'p Name, &'p mix::relational::SelectStmt)>) {
    if let PlanOp::RelQuery { server, sql, .. } = op {
        out.push((server, sql));
    }
    for input in op.inputs() {
        collect_sql(input, out);
    }
}

impl Target for Staged<'_> {
    fn call(&mut self, cmd: Command) -> Reply {
        let is_nav = matches!(
            cmd,
            Command::D { .. } | Command::R { .. } | Command::Fl { .. } | Command::Fv { .. }
        );
        let first_d = std::mem::take(&mut self.first_d_pending);
        // In-process navigation is batch-timed, one step being at
        // clock resolution; with the codec interleaved (served
        // workloads, short scripts) every step is timed alone.
        if is_nav && !first_d && !self.codec {
            if self.nav_open.is_none() {
                self.nav_open = Some((self.rec.begin(Op::DispatchNav), 0));
            }
            let reply = self.session.dispatch(cmd);
            let (_, n) = self.nav_open.as_mut().expect("opened above");
            *n += 1;
            if *n == NAV_BATCH {
                self.flush_nav();
            }
            return reply;
        }
        self.flush_nav();
        match &cmd {
            Command::Query { text } => {
                self.stage_ns = 0.0;
                self.stage(text, None);
            }
            Command::Q { text, from } => self.stage(text, Some(*from)),
            _ => {}
        }
        let sent = self.codec.then(|| cmd.clone());
        let hits_before = self.session.ctx().stats().get(Counter::PlanCacheHits);
        let as_op = match &cmd {
            Command::Query { .. } => Op::DispatchQuery,
            Command::Q { .. } => Op::DispatchQMiss,
            _ if first_d => Op::DispatchFirstD,
            _ if is_nav => Op::DispatchNav,
            _ => Op::DispatchOther,
        };
        self.first_d_pending = matches!(cmd, Command::Query { .. });
        let tok = self.rec.begin(as_op);
        let reply = self.session.dispatch(cmd);
        let hit = self.session.ctx().stats().get(Counter::PlanCacheHits) > hits_before;
        let as_op = if as_op == Op::DispatchQMiss && hit {
            Op::DispatchQHit
        } else {
            as_op
        };
        let ns = self.rec.end_as(tok, as_op);
        match as_op {
            Op::DispatchQuery => self.query_ns = Some((self.stage_ns, ns)),
            Op::DispatchFirstD => {
                if let Some((stages, dispatch)) = self.query_ns.take() {
                    self.explained.push(stages / (dispatch + ns));
                }
            }
            _ => {}
        }
        if let Some(cmd) = sent {
            self.codec(Frame::Cmd(cmd));
            self.codec(Frame::Rep(reply.clone()));
        }
        reply
    }
}
