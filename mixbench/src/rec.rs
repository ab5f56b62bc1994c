//! The recorder every script reports to: per-operation samples always,
//! spans as well in a traced run. All timing is done here, from the
//! benchmark's side of the public API.

use crate::stats::Samples;
use std::fmt::Write as _;
use std::time::Instant;

macro_rules! ops {
    ($($variant:ident => $name:literal,)*) => {
        /// What a sample or span measures. The name's prefix is the
        /// program crate (layer) the time is spent in; `script`, `op.*`
        /// and `cmd.*` are the client's view.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Op { $($variant,)* }

        impl Op {
            pub const ALL: &'static [Op] = &[$(Op::$variant,)*];

            pub fn name(self) -> &'static str {
                match self { $(Op::$variant => $name,)* }
            }
        }
    };
}

ops! {
    // The client's view (live runs).
    Script => "script",
    FirstResult => "op.first_result",
    Walk => "op.walk",
    InplaceQ => "op.inplace_q",
    Drain => "op.drain",
    Bulk => "op.bulk",
    Nav => "cmd.nav",
    CmdQuery => "cmd.query",
    CmdFirstD => "cmd.first_d",
    CmdQ => "cmd.q",
    CmdChildCount => "cmd.child_count",
    CmdExport => "cmd.export",
    CmdRender => "cmd.render",
    CmdStats => "cmd.stats",
    SessionOpen => "serve.session_open",
    SessionClose => "serve.session_close",
    // The staged replay (in-process, stage by stage).
    Replay => "replay",
    DispatchQuery => "qdom.dispatch.query",
    DispatchFirstD => "qdom.dispatch.first_d",
    DispatchQHit => "qdom.dispatch.q_hit",
    DispatchQMiss => "qdom.dispatch.q_miss",
    DispatchNav => "qdom.dispatch.nav",
    DispatchOther => "qdom.dispatch.other",
    XqueryParse => "xquery.parse",
    AlgebraTranslate => "algebra.translate",
    QdomCompose => "qdom.compose",
    QdomDecontext => "qdom.decontext",
    RewriteOptimize => "rewrite.optimize",
    RewriteSplit => "rewrite.split",
    RewriteLogical => "rewrite.logical",
    AlgebraValidate => "algebra.validate",
    EngineOpen => "engine.open",
    EngineFirstChild => "engine.first_child",
    RelExecute => "relational.execute",
    RelCblock => "relational.cblock",
    ProtoEncodeSmall => "proto.encode.small",
    ProtoDecodeSmall => "proto.decode.small",
    ProtoEncodeLarge => "proto.encode.large",
    ProtoDecodeLarge => "proto.decode.large",
}

/// One recorded interval. `n` is how many commands (or nodes, or
/// bytes) it covers — batches exist because one in-process navigation
/// step is at clock resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub script_id: u64,
    pub name: &'static str,
    pub n: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open interval; give it back to [`Rec::end`].
#[derive(Debug)]
pub struct Tok {
    op: Op,
    t0: Instant,
    span: Option<u32>,
}

#[derive(Debug, Clone, Default)]
struct OpStats {
    /// Nanoseconds per unit, one per closed interval.
    samples: Vec<f64>,
    total_ns: f64,
    total_units: u64,
}

/// Samples per [`Op`], and the span tree when tracing.
#[derive(Debug)]
pub struct Rec {
    epoch: Instant,
    ops: Vec<OpStats>,
    spans: Option<Vec<Span>>,
    open: Vec<u32>,
    script_id: u64,
}

/// Stop recording spans past this many (a traced phase ends early when
/// it gets here); samples keep accumulating.
pub const SPAN_CAP: usize = 100_000;

impl Rec {
    pub fn new(epoch: Instant, trace: bool) -> Rec {
        Rec {
            epoch,
            ops: vec![OpStats::default(); Op::ALL.len()],
            spans: trace.then(Vec::new),
            open: Vec::new(),
            script_id: 0,
        }
    }

    /// Spans opened from now on belong to script `id`.
    pub fn set_script(&mut self, id: u64) {
        self.script_id = id;
    }

    pub fn span_count(&self) -> usize {
        self.spans.as_ref().map_or(0, Vec::len)
    }

    pub fn spans_full(&self) -> bool {
        self.span_count() >= SPAN_CAP
    }

    pub fn begin(&mut self, op: Op) -> Tok {
        let t0 = Instant::now();
        let span = match &mut self.spans {
            Some(spans) if spans.len() < SPAN_CAP || !self.open.is_empty() => {
                let id = spans.len() as u32;
                let start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
                spans.push(Span {
                    id,
                    parent: self.open.last().copied(),
                    script_id: self.script_id,
                    name: op.name(),
                    n: 1,
                    start_ns,
                    end_ns: start_ns,
                });
                self.open.push(id);
                Some(id)
            }
            _ => None,
        };
        Tok { op, t0, span }
    }

    /// Close `tok` as one sample of `elapsed / div`, adding `units` to
    /// the operation's unit total (`div` and `units` differ for codec
    /// spans: one sample per frame, units in bytes).
    pub fn end_with(&mut self, tok: Tok, op: Op, div: u64, units: u64) -> f64 {
        let t1 = Instant::now();
        let ns = t1.duration_since(tok.t0).as_nanos() as f64;
        let s = &mut self.ops[op as usize];
        s.samples.push(ns / div.max(1) as f64);
        s.total_ns += ns;
        s.total_units += units;
        if let (Some(id), Some(spans)) = (tok.span, &mut self.spans) {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(id), "spans must nest");
            let sp = &mut spans[id as usize];
            sp.name = op.name();
            sp.n = units;
            sp.end_ns = t1.duration_since(self.epoch).as_nanos() as u64;
        }
        ns
    }

    /// Close `tok` covering `n` units: one sample of `elapsed / n`.
    /// Returns the elapsed nanoseconds, as every `end*` does.
    pub fn end(&mut self, tok: Tok, n: u64) -> f64 {
        let op = tok.op;
        self.end_with(tok, op, n, n)
    }

    /// Close `tok` under another name, decided once the work is done
    /// (a `q` is a cache hit or a miss only in hindsight).
    pub fn end_as(&mut self, tok: Tok, op: Op) -> f64 {
        self.end_with(tok, op, 1, 1)
    }

    pub fn samples(&self, op: Op) -> Samples {
        Samples::new(self.ops[op as usize].samples.clone())
    }

    pub fn count(&self, op: Op) -> usize {
        self.ops[op as usize].samples.len()
    }

    pub fn total_ns(&self, op: Op) -> f64 {
        self.ops[op as usize].total_ns
    }

    pub fn total_units(&self, op: Op) -> u64 {
        self.ops[op as usize].total_units
    }

    /// Nanoseconds per unit over everything recorded for `op`.
    pub fn ns_per_unit(&self, op: Op) -> f64 {
        let s = &self.ops[op as usize];
        if s.total_units == 0 {
            0.0
        } else {
            s.total_ns / s.total_units as f64
        }
    }

    /// Fold another thread's recorder into this one.
    pub fn merge(&mut self, other: Rec) {
        for (a, b) in self.ops.iter_mut().zip(other.ops) {
            a.samples.extend(b.samples);
            a.total_ns += b.total_ns;
            a.total_units += b.total_units;
        }
        if let (Some(mine), Some(theirs)) = (&mut self.spans, other.spans) {
            let base = mine.len() as u32;
            mine.extend(theirs.into_iter().map(|mut s| {
                s.id += base;
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// One span as a JSON line.
pub fn span_json(s: &Span) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(out, "{{\"id\":{},\"parent\":", s.id);
    match s.parent {
        Some(p) => {
            let _ = write!(out, "{p}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"script_id\":{},\"name\":\"{}\",\"n\":{},\"start_ns\":{},\"end_ns\":{}}}",
        s.script_id, s.name, s.n, s.start_ns, s.end_ns
    );
    out
}

/// Per-name totals out of a span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Reduce spans to self times: a span's duration minus the part of its
/// interval that its children cover (children may overlap each other,
/// and are clipped to the parent).
pub fn reduce(spans: &[Span]) -> Vec<SelfTime> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                kids[p].push((a, b));
            }
        }
    }
    let mut out: Vec<SelfTime> = Vec::new();
    for (s, mut ivs) in spans.iter().zip(kids) {
        ivs.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for (a, b) in ivs {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let total = s.end_ns.saturating_sub(s.start_ns);
        let entry = match out.iter_mut().find(|e| e.name == s.name) {
            Some(e) => e,
            None => {
                out.push(SelfTime {
                    name: s.name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            script_id: 0,
            name,
            n: 1,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // script [0,100): children a [10,50) and b [40,70) overlap by 10,
        // c [90,120) sticks out past the parent and is clipped to 10;
        // a has a grandchild [20,30).
        let spans = vec![
            span(0, None, "script", 0, 100),
            span(1, Some(0), "a", 10, 50),
            span(2, Some(0), "b", 40, 70),
            span(3, Some(0), "c", 90, 120),
            span(4, Some(1), "leaf", 20, 30),
            span(5, None, "script", 200, 210),
        ];
        let r = reduce(&spans);
        let get = |n: &str| r.iter().find(|e| e.name == n).unwrap().clone();
        // covered = [10,70) ∪ [90,100) = 70 → self 30; second script adds 10.
        assert_eq!(get("script").self_ns, 30 + 10);
        assert_eq!(get("script").total_ns, 110);
        assert_eq!(get("script").count, 2);
        assert_eq!(get("a").self_ns, 30);
        assert_eq!(get("b").self_ns, 30);
        assert_eq!(get("c").self_ns, 30);
        assert_eq!(get("leaf").self_ns, 10);
    }

    #[test]
    fn recorder_nests_renames_and_merges() {
        let epoch = Instant::now();
        let mut r = Rec::new(epoch, true);
        r.set_script(7);
        let s = r.begin(Op::Script);
        let q = r.begin(Op::CmdQ);
        r.end_as(q, Op::DispatchQMiss);
        let n = r.begin(Op::Nav);
        r.end(n, 256);
        r.end(s, 1);
        assert_eq!(r.count(Op::DispatchQMiss), 1);
        assert_eq!(r.count(Op::CmdQ), 0);
        assert_eq!(r.total_units(Op::Nav), 256);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].name, "qdom.dispatch.q_miss");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].n, 256);
        assert!(spans.iter().all(|s| s.script_id == 7));
        let mut other = Rec::new(epoch, true);
        let t = other.begin(Op::Script);
        let c = other.begin(Op::Nav);
        other.end(c, 1);
        other.end(t, 1);
        r.merge(other);
        assert_eq!(r.spans().len(), 5);
        assert_eq!(r.spans()[4].parent, Some(3));
        assert_eq!(r.count(Op::Script), 2);
        assert!(span_json(&r.spans()[0]).starts_with("{\"id\":0,\"parent\":null,\"script_id\":7"));
    }
}
