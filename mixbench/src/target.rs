//! What a script talks to, and the context it runs in: command
//! counting, failure counting, navigation batching and the transcript
//! digest all live here so the six scripts stay declarative.

use crate::rec::{Op, Rec, Tok};
use mix::prelude::*;
use mix::qdom::QdomSession;

/// Anything that answers QDOM commands: an in-process session, a wire
/// client, or the staged-replay wrapper.
pub trait Target {
    fn call(&mut self, cmd: Command) -> Reply;
}

impl Target for QdomSession<'_> {
    fn call(&mut self, cmd: Command) -> Reply {
        self.dispatch(cmd)
    }
}

impl Target for WireClient {
    fn call(&mut self, cmd: Command) -> Reply {
        WireClient::call(self, cmd)
            .unwrap_or_else(|e| Reply::Err(MixError::internal(format!("wire: {e}"))))
    }
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Two digests of a run: the command sequence (what the generator
/// produced) and the reply transcript (what the program answered).
/// Node handles are left out of both — they are arena positions, free
/// to change under a refactor that keeps every answer the same.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub commands: Fnv,
    pub replies: Fnv,
}

impl Digest {
    fn command(&mut self, cmd: &Command) {
        self.commands.str(cmd.name());
        match cmd {
            Command::Query { text } | Command::Q { text, .. } => self.commands.str(text),
            Command::Export { max_rows, .. } => self.commands.u64(u64::from(*max_rows)),
            _ => {}
        }
    }

    fn value(h: &mut Fnv, v: &Value) {
        match v {
            Value::Null => h.str("~"),
            Value::Bool(b) => h.str(if *b { "t" } else { "f" }),
            Value::Int(i) => h.u64(*i as u64),
            Value::Float(x) => h.u64(x.to_bits()),
            Value::Str(s) => h.str(s),
        }
    }

    fn reply(&mut self, reply: &Reply) {
        let h = &mut self.replies;
        match reply {
            Reply::Node(_) => h.str("node"),
            Reply::Step(n) => h.str(if n.is_some() { "step" } else { "end" }),
            Reply::Label(l) => h.str(l.as_ref().map_or("~", |n| n.as_str())),
            Reply::Value(v) => Digest::value(h, v.as_ref().unwrap_or(&Value::Null)),
            Reply::Nodes(ns) => h.u64(ns.len() as u64),
            Reply::Count(n) => h.u64(*n),
            Reply::Text(t) => h.str(t),
            Reply::Block(b) => {
                // Column 0 is the handle column.
                h.u64(b.len() as u64);
                for r in 0..b.len() {
                    for c in 1..b.arity() {
                        Digest::value(h, &b.value_at(r, c));
                    }
                }
            }
            Reply::Stats(_) => h.str("stats"),
            Reply::Err(e) => h.str(&format!("err:{e}")),
        }
    }
}

/// Navigation commands are timed in batches of at most this many in
/// process; over the wire each is timed alone. Small enough that few
/// batches of a drain straddle a block fetch (the median then sits
/// firmly among the in-memory batches), large enough that the two
/// clock reads are under half a percent of a batch.
pub const NAV_BATCH: u64 = 64;

/// What a script did, once its context is gone.
#[derive(Debug)]
pub struct Done {
    pub cmds: u64,
    pub failed: u64,
    pub nodes: u64,
    pub first_failure: Option<String>,
}

/// The context one script runs in.
pub struct Cx<'a, T: Target> {
    target: &'a mut T,
    pub rec: &'a mut Rec,
    /// Time every navigation command on its own (served workloads: a
    /// round trip is far above clock resolution).
    per_cmd_nav: bool,
    digest: Option<&'a mut Digest>,
    nav_open: Option<(Tok, u64)>,
    /// Commands issued.
    pub cmds: u64,
    /// Commands answered `Reply::Err` (or a wire error), plus answers
    /// that contradict the oracle.
    pub failed: u64,
    /// Result nodes reached by `d`/`r`.
    pub nodes: u64,
    /// First failure, for the report.
    pub first_failure: Option<String>,
}

impl<'a, T: Target> Cx<'a, T> {
    pub fn new(
        target: &'a mut T,
        rec: &'a mut Rec,
        per_cmd_nav: bool,
        digest: Option<&'a mut Digest>,
    ) -> Cx<'a, T> {
        Cx {
            target,
            rec,
            per_cmd_nav,
            digest,
            nav_open: None,
            cmds: 0,
            failed: 0,
            nodes: 0,
            first_failure: None,
        }
    }

    /// Close the context, releasing the target and the recorder.
    pub fn finish(mut self) -> Done {
        self.flush_nav();
        Done {
            cmds: self.cmds,
            failed: self.failed,
            nodes: self.nodes,
            first_failure: self.first_failure.take(),
        }
    }

    /// Count an answer that contradicts what the data says.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Check an answer against the oracle.
    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why);
        }
    }

    fn raw(&mut self, cmd: Command) -> Reply {
        self.cmds += 1;
        if let Some(d) = self.digest.as_deref_mut() {
            d.command(&cmd);
        }
        let name = cmd.name();
        let reply = self.target.call(cmd);
        if let Some(d) = self.digest.as_deref_mut() {
            d.reply(&reply);
        }
        if let Reply::Err(e) = &reply {
            self.fail(|| format!("{name}: {e}"));
        }
        reply
    }

    /// Close the open navigation batch, if any.
    pub fn flush_nav(&mut self) {
        if let Some((tok, n)) = self.nav_open.take() {
            self.rec.end(tok, n);
        }
    }

    /// Open an interval around a client-visible operation.
    pub fn begin(&mut self, op: Op) -> Tok {
        self.flush_nav();
        self.rec.begin(op)
    }

    pub fn end(&mut self, tok: Tok, n: u64) {
        self.flush_nav();
        self.rec.end(tok, n);
    }

    /// A non-navigation command, timed on its own under `op`.
    pub fn command(&mut self, op: Op, cmd: Command) -> Reply {
        let tok = self.begin(op);
        let reply = self.raw(cmd);
        self.rec.end(tok, 1);
        reply
    }

    fn nav(&mut self, cmd: Command) -> Reply {
        if self.per_cmd_nav {
            let tok = self.rec.begin(Op::Nav);
            let reply = self.raw(cmd);
            self.rec.end(tok, 1);
            return reply;
        }
        if self.nav_open.is_none() {
            self.nav_open = Some((self.rec.begin(Op::Nav), 0));
        }
        let reply = self.raw(cmd);
        let (_, n) = self.nav_open.as_mut().expect("opened above");
        *n += 1;
        if *n == NAV_BATCH {
            self.flush_nav();
        }
        reply
    }

    fn step(&mut self, reply: Reply) -> Option<WireNode> {
        match reply {
            Reply::Step(Some(n)) => {
                self.nodes += 1;
                Some(n)
            }
            _ => None,
        }
    }

    pub fn d(&mut self, p: WireNode) -> Option<WireNode> {
        let r = self.nav(Command::D { p });
        self.step(r)
    }

    pub fn r(&mut self, p: WireNode) -> Option<WireNode> {
        let r = self.nav(Command::R { p });
        self.step(r)
    }

    pub fn fl(&mut self, p: WireNode) -> Option<Name> {
        match self.nav(Command::Fl { p }) {
            Reply::Label(l) => l,
            _ => None,
        }
    }

    pub fn fv(&mut self, p: WireNode) -> Option<Value> {
        match self.nav(Command::Fv { p }) {
            Reply::Value(v) => v,
            _ => None,
        }
    }

    /// Issue a top-level query and step to its first result, timing
    /// the pair as the first-result latency.
    pub fn query_first(&mut self, text: &str) -> Option<(WireNode, Option<WireNode>)> {
        let fr = self.begin(Op::FirstResult);
        let reply = self.command(Op::CmdQuery, Command::Query { text: text.into() });
        let out = match reply {
            Reply::Node(p0) => {
                let first = self.command(Op::CmdFirstD, Command::D { p: p0 });
                Some((p0, self.step(first)))
            }
            _ => None,
        };
        self.end(fr, 1);
        out
    }
}
