//! The binary codec: canonical encode/decode for every frame.
//!
//! All scalars are little-endian fixed width; strings and sequences are
//! `u32` count-prefixed. Floats travel as raw bit patterns
//! (`f64::to_bits`), so `-0.0`, `0.0` and any NaN payload survive
//! exactly. Booleans must be `0`/`1` on the wire — anything else is a
//! decode error — which together with the fixed layouts makes the
//! encoding *canonical*: re-encoding a decoded frame reproduces the
//! input bytes bit for bit.

use crate::message::{Command, Frame, Reply, WireNode};
use crate::PROTO_VERSION;
use mix_common::{BackendError, ColData, Column, ColumnBlock, FaultKind, MixError, Name, Value};
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Upper bound on one frame's payload, checked before any allocation.
/// Large enough for any realistic block reply, small enough that a
/// corrupt length prefix cannot OOM the peer.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// A malformed frame: where in the payload decoding failed, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset within the frame payload.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for MixError {
    fn from(e: DecodeError) -> MixError {
        MixError::parse("wire", e.pos, e.msg)
    }
}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

// ---- encoding --------------------------------------------------------

struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn node(&mut self, n: WireNode) {
        self.u32(n.result);
        self.u32(n.node);
    }
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.bool(*b);
            }
            Value::Int(i) => {
                self.u8(2);
                self.i64(*i);
            }
            Value::Float(f) => {
                self.u8(3);
                self.f64(*f);
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s);
            }
        }
    }
    fn block(&mut self, b: &ColumnBlock) {
        self.u32(b.len() as u32);
        self.u32(b.arity() as u32);
        for col in b.columns() {
            match col.data() {
                ColData::Null => self.u8(0),
                ColData::Int(xs) => {
                    self.u8(1);
                    for x in xs {
                        self.i64(*x);
                    }
                }
                ColData::Float(xs) => {
                    self.u8(2);
                    for x in xs {
                        self.f64(*x);
                    }
                }
                ColData::Bool(xs) => {
                    self.u8(3);
                    for x in xs {
                        self.bool(*x);
                    }
                }
                ColData::Str(xs) => {
                    self.u8(4);
                    for x in xs {
                        self.str(x);
                    }
                }
                ColData::Mixed(xs) => {
                    self.u8(5);
                    for x in xs {
                        self.value(x);
                    }
                }
            }
            match col.validity() {
                None => self.u8(0),
                Some(mask) => {
                    self.u8(1);
                    for v in mask {
                        self.bool(*v);
                    }
                }
            }
        }
    }
    fn error(&mut self, e: &MixError) {
        match e {
            MixError::Parse { what, pos, msg } => {
                self.u8(0);
                self.str(what);
                self.u64(*pos as u64);
                self.str(msg);
            }
            MixError::Unknown { what, name } => {
                self.u8(1);
                self.str(what);
                self.str(name);
            }
            MixError::Invalid(m) => {
                self.u8(2);
                self.str(m);
            }
            MixError::Navigation(m) => {
                self.u8(3);
                self.str(m);
            }
            MixError::Internal(m) => {
                self.u8(4);
                self.str(m);
            }
            MixError::Source { source, msg } => {
                self.u8(5);
                self.str(source.as_str());
                self.str(msg);
            }
            MixError::Backend(BackendError {
                server,
                kind,
                msg,
                retries,
            }) => {
                self.u8(6);
                self.str(server.as_str());
                self.u8(match kind {
                    FaultKind::Transient => 0,
                    FaultKind::Permanent => 1,
                });
                self.str(msg);
                self.u32(*retries);
            }
            MixError::Plan(m) => {
                self.u8(7);
                self.str(m);
            }
        }
    }
    fn command(&mut self, c: &Command) {
        match c {
            Command::Query { text } => {
                self.u8(0);
                self.str(text);
            }
            Command::Q { text, from } => {
                self.u8(1);
                self.str(text);
                self.node(*from);
            }
            Command::D { p } => {
                self.u8(2);
                self.node(*p);
            }
            Command::R { p } => {
                self.u8(3);
                self.node(*p);
            }
            Command::Fl { p } => {
                self.u8(4);
                self.node(*p);
            }
            Command::Fv { p } => {
                self.u8(5);
                self.node(*p);
            }
            Command::Children { p } => {
                self.u8(6);
                self.node(*p);
            }
            Command::ChildCount { p } => {
                self.u8(7);
                self.node(*p);
            }
            Command::Render { p } => {
                self.u8(8);
                self.node(*p);
            }
            Command::Explain { p } => {
                self.u8(9);
                self.node(*p);
            }
            Command::Export { p, max_rows } => {
                self.u8(10);
                self.node(*p);
                self.u32(*max_rows);
            }
            Command::Stats => self.u8(11),
        }
    }
    fn reply(&mut self, r: &Reply) {
        match r {
            Reply::Node(n) => {
                self.u8(0);
                self.node(*n);
            }
            Reply::Step(opt) => {
                self.u8(1);
                match opt {
                    None => self.u8(0),
                    Some(n) => {
                        self.u8(1);
                        self.node(*n);
                    }
                }
            }
            Reply::Label(opt) => {
                self.u8(2);
                match opt {
                    None => self.u8(0),
                    Some(n) => {
                        self.u8(1);
                        self.str(n.as_str());
                    }
                }
            }
            Reply::Value(opt) => {
                self.u8(3);
                match opt {
                    None => self.u8(0),
                    Some(v) => {
                        self.u8(1);
                        self.value(v);
                    }
                }
            }
            Reply::Nodes(nodes) => {
                self.u8(4);
                self.u32(nodes.len() as u32);
                for n in nodes {
                    self.node(*n);
                }
            }
            Reply::Count(c) => {
                self.u8(5);
                self.u64(*c);
            }
            Reply::Text(t) => {
                self.u8(6);
                self.str(t);
            }
            Reply::Block(b) => {
                self.u8(7);
                self.block(b);
            }
            Reply::Stats(counters) => {
                self.u8(8);
                self.u32(counters.len() as u32);
                for (label, v) in counters {
                    self.str(label);
                    self.u64(*v);
                }
            }
            Reply::Err(e) => {
                self.u8(9);
                self.error(e);
            }
        }
    }
    fn frame(&mut self, f: &Frame) {
        match f {
            Frame::Hello { version } => {
                self.u8(0);
                self.u8(*version);
            }
            Frame::Welcome { version, session } => {
                self.u8(1);
                self.u8(*version);
                self.u64(*session);
            }
            Frame::Reject { reason } => {
                self.u8(2);
                self.str(reason);
            }
            Frame::Cmd(c) => {
                self.u8(3);
                self.command(c);
            }
            Frame::Rep(r) => {
                self.u8(4);
                self.reply(r);
            }
            Frame::Bye => self.u8(5),
        }
    }
}

// ---- decoding --------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DResult<T> = Result<T, DecodeError>;

impl<'a> Dec<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> DResult<T> {
        Err(DecodeError {
            pos: self.pos,
            msg: msg.into(),
        })
    }
    /// Unread payload bytes. Saturating: even if an arithmetic bug ever
    /// pushed `pos` past the end, length math degrades to "0 remaining"
    /// (a truncation error) instead of an underflow panic.
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }
    fn take(&mut self, n: usize) -> DResult<&'a [u8]> {
        if self.remaining() < n {
            return self.err(format!(
                "truncated frame: need {n} bytes, have {}",
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> DResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> DResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => self.err(format!("bool byte must be 0/1, got {b}")),
        }
    }
    fn u32(&mut self) -> DResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> DResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> DResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> DResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A count prefix that still has to fit in the remaining payload:
    /// `min_elem` is the smallest possible encoding of one element
    /// (must be > 0), so a corrupt count fails here instead of in an
    /// allocation. Division, not multiplication: `n * min_elem` could
    /// itself overflow-saturate and mask the real bound.
    fn count(&mut self, min_elem: usize) -> DResult<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_elem.max(1) {
            return self.err(format!("count {n} exceeds remaining payload"));
        }
        Ok(n)
    }
    /// Pre-allocation cap for a claimed element count: never reserve
    /// more than the remaining payload could possibly hold, so a frame
    /// whose count field survives the semantic checks (e.g. block rows,
    /// whose per-element floor is 0 bytes for a `Null` column) still
    /// cannot force a large allocation before the first element read
    /// fails. Capacity is a hint — `push` past it just grows normally.
    fn prealloc(&self, n: usize, min_elem: usize) -> usize {
        n.min(self.remaining() / min_elem.max(1)).min(1 << 16)
    }
    fn str(&mut self) -> DResult<String> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => self.err("string is not valid UTF-8"),
        }
    }
    fn node(&mut self) -> DResult<WireNode> {
        Ok(WireNode {
            result: self.u32()?,
            node: self.u32()?,
        })
    }
    fn value(&mut self) -> DResult<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.bool()?),
            2 => Value::Int(self.i64()?),
            3 => Value::Float(self.f64()?),
            4 => Value::Str(Arc::from(self.str()?)),
            t => return self.err(format!("unknown value tag {t}")),
        })
    }
    fn block(&mut self) -> DResult<ColumnBlock> {
        // Rows is NOT bounded by remaining bytes — a `Null` column costs
        // zero bytes per row, so a legitimate count can exceed the
        // payload. It is bounded by the frame cap instead, and every
        // per-column allocation below is additionally capped by what
        // the payload could actually hold (`prealloc`).
        let rows = self.u32()? as usize;
        if rows > MAX_FRAME_LEN as usize {
            return self.err(format!("block row count {rows} exceeds frame bound"));
        }
        // Each column costs at least the type tag + the validity tag.
        let arity = self.count(2)?;
        // A zero-row block still shouldn't claim absurd width.
        if rows.saturating_mul(arity) > MAX_FRAME_LEN as usize {
            return self.err(format!("block {rows}x{arity} exceeds frame bound"));
        }
        let mut cols = Vec::with_capacity(self.prealloc(arity, 2));
        for _ in 0..arity {
            let data = match self.u8()? {
                0 => ColData::Null,
                1 => {
                    let mut xs = Vec::with_capacity(self.prealloc(rows, 8));
                    for _ in 0..rows {
                        xs.push(self.i64()?);
                    }
                    ColData::Int(xs)
                }
                2 => {
                    let mut xs = Vec::with_capacity(self.prealloc(rows, 8));
                    for _ in 0..rows {
                        xs.push(self.f64()?);
                    }
                    ColData::Float(xs)
                }
                3 => {
                    let mut xs = Vec::with_capacity(self.prealloc(rows, 1));
                    for _ in 0..rows {
                        xs.push(self.bool()?);
                    }
                    ColData::Bool(xs)
                }
                4 => {
                    let mut xs = Vec::with_capacity(self.prealloc(rows, 4));
                    for _ in 0..rows {
                        xs.push(Arc::from(self.str()?));
                    }
                    ColData::Str(xs)
                }
                5 => {
                    let mut xs = Vec::with_capacity(self.prealloc(rows, 1));
                    for _ in 0..rows {
                        xs.push(self.value()?);
                    }
                    ColData::Mixed(xs)
                }
                t => return self.err(format!("unknown column tag {t}")),
            };
            let valid = match self.u8()? {
                0 => None,
                1 => {
                    let mut mask = Vec::with_capacity(self.prealloc(rows, 1));
                    for _ in 0..rows {
                        mask.push(self.bool()?);
                    }
                    Some(mask)
                }
                t => return self.err(format!("validity tag must be 0/1, got {t}")),
            };
            match Column::from_parts(data, valid, rows) {
                Ok(c) => cols.push(c),
                Err(e) => return self.err(e.to_string()),
            }
        }
        Ok(ColumnBlock::from_columns(cols, rows))
    }
    fn error(&mut self) -> DResult<MixError> {
        Ok(match self.u8()? {
            0 => {
                let what = static_what(&self.str()?);
                let pos = self.u64()? as usize;
                MixError::parse(what, pos, self.str()?)
            }
            1 => {
                let what = static_what(&self.str()?);
                MixError::unknown(what, self.str()?)
            }
            2 => MixError::Invalid(self.str()?),
            3 => MixError::Navigation(self.str()?),
            4 => MixError::Internal(self.str()?),
            5 => MixError::Source {
                source: Name::new(self.str()?),
                msg: self.str()?,
            },
            6 => {
                let server = Name::new(self.str()?);
                let kind = match self.u8()? {
                    0 => FaultKind::Transient,
                    1 => FaultKind::Permanent,
                    t => return self.err(format!("unknown fault kind {t}")),
                };
                let msg = self.str()?;
                let retries = self.u32()?;
                MixError::Backend(BackendError {
                    server,
                    kind,
                    msg,
                    retries,
                })
            }
            7 => MixError::Plan(self.str()?),
            t => return self.err(format!("unknown error tag {t}")),
        })
    }
    fn command(&mut self) -> DResult<Command> {
        Ok(match self.u8()? {
            0 => Command::Query { text: self.str()? },
            1 => Command::Q {
                text: self.str()?,
                from: self.node()?,
            },
            2 => Command::D { p: self.node()? },
            3 => Command::R { p: self.node()? },
            4 => Command::Fl { p: self.node()? },
            5 => Command::Fv { p: self.node()? },
            6 => Command::Children { p: self.node()? },
            7 => Command::ChildCount { p: self.node()? },
            8 => Command::Render { p: self.node()? },
            9 => Command::Explain { p: self.node()? },
            10 => Command::Export {
                p: self.node()?,
                max_rows: self.u32()?,
            },
            11 => Command::Stats,
            t => return self.err(format!("unknown command tag {t}")),
        })
    }
    fn reply(&mut self) -> DResult<Reply> {
        Ok(match self.u8()? {
            0 => Reply::Node(self.node()?),
            1 => Reply::Step(match self.u8()? {
                0 => None,
                1 => Some(self.node()?),
                t => return self.err(format!("option tag must be 0/1, got {t}")),
            }),
            2 => Reply::Label(match self.u8()? {
                0 => None,
                1 => Some(Name::new(self.str()?)),
                t => return self.err(format!("option tag must be 0/1, got {t}")),
            }),
            3 => Reply::Value(match self.u8()? {
                0 => None,
                1 => Some(self.value()?),
                t => return self.err(format!("option tag must be 0/1, got {t}")),
            }),
            4 => {
                let n = self.count(8)?;
                let mut nodes = Vec::with_capacity(self.prealloc(n, 8));
                for _ in 0..n {
                    nodes.push(self.node()?);
                }
                Reply::Nodes(nodes)
            }
            5 => Reply::Count(self.u64()?),
            6 => Reply::Text(self.str()?),
            7 => Reply::Block(self.block()?),
            8 => {
                let n = self.count(12)?;
                let mut counters = Vec::with_capacity(self.prealloc(n, 12));
                for _ in 0..n {
                    let label = self.str()?;
                    counters.push((label, self.u64()?));
                }
                Reply::Stats(counters)
            }
            9 => Reply::Err(self.error()?),
            t => return self.err(format!("unknown reply tag {t}")),
        })
    }
    fn frame(&mut self) -> DResult<Frame> {
        let f = match self.u8()? {
            0 => Frame::Hello {
                version: self.u8()?,
            },
            1 => Frame::Welcome {
                version: self.u8()?,
                session: self.u64()?,
            },
            2 => Frame::Reject {
                reason: self.str()?,
            },
            3 => Frame::Cmd(self.command()?),
            4 => Frame::Rep(self.reply()?),
            5 => Frame::Bye,
            t => return self.err(format!("unknown frame tag {t}")),
        };
        if self.pos != self.buf.len() {
            return self.err(format!(
                "{} trailing bytes after frame body",
                self.buf.len() - self.pos
            ));
        }
        Ok(f)
    }
}

/// `MixError::Parse`/`Unknown` carry `&'static str` category tags; the
/// wire ships them as text, so decoding maps each back to the known
/// static. Unrecognized categories collapse to `"input"` — the message
/// text (which is what users see) is preserved exactly either way.
fn static_what(s: &str) -> &'static str {
    match s {
        "sql" => "sql",
        "xml" => "xml",
        "xquery" => "xquery",
        "wire" => "wire",
        "column" => "column",
        "key column" => "key column",
        "server" => "server",
        "source" => "source",
        "table" => "table",
        "view" => "view",
        "variable" => "variable",
        _ => "input",
    }
}

impl Frame {
    /// Encode the whole frame — length prefix, version byte, tag, body.
    ///
    /// Panics if the frame exceeds [`MAX_FRAME_LEN`] — that is a
    /// programmer error (the engine caps block sizes well below it);
    /// use [`Frame::try_encode`] where the frame size is data-driven.
    pub fn encode(&self) -> Vec<u8> {
        self.try_encode().expect("frame exceeds MAX_FRAME_LEN")
    }

    /// Checked encode: errors (instead of silently truncating the
    /// `u32` length prefix and shipping a frame the peer would
    /// misparse) when the body exceeds [`MAX_FRAME_LEN`]. The single
    /// whole-frame check also subsumes every interior `as u32` count
    /// cast: any string/sequence long enough to truncate its count
    /// prefix necessarily pushes the frame past the cap.
    pub fn try_encode(&self) -> Result<Vec<u8>, DecodeError> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// [`Frame::try_encode`] into a buffer the caller keeps, replacing
    /// its contents: a connection encodes every frame it sends into one
    /// allocation.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), DecodeError> {
        buf.clear();
        buf.extend_from_slice(&[0; 4]); // length prefix patched below
        let mut e = Enc { buf };
        e.u8(PROTO_VERSION);
        e.frame(self);
        match u32::try_from(buf.len() - 4) {
            Ok(len) if len <= MAX_FRAME_LEN => {
                buf[..4].copy_from_slice(&len.to_le_bytes());
                Ok(())
            }
            _ => Err(DecodeError {
                pos: 0,
                msg: format!(
                    "frame body of {} bytes exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}",
                    buf.len() - 4
                ),
            }),
        }
    }

    /// Decode one frame payload (everything after the length prefix:
    /// version byte, tag, body).
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, DecodeError> {
        let mut d = Dec {
            buf: payload,
            pos: 0,
        };
        let version = d.u8()?;
        if version != PROTO_VERSION {
            return d.err(format!(
                "protocol version mismatch: peer speaks v{version}, this build v{PROTO_VERSION}"
            ));
        }
        d.frame()
    }
}

/// Write one frame; returns the bytes put on the wire (header
/// included), for byte accounting.
pub fn write_frame<W: Write>(w: &mut W, f: &Frame) -> io::Result<usize> {
    let bytes = f.try_encode()?;
    w.write_all(&bytes)?;
    Ok(bytes.len())
}

/// Read one frame, consuming exactly its bytes and nothing past them
/// (an unbuffered [`FrameReader`] pass): for callers that hold no
/// per-stream state. Returns what [`FrameReader::read_frame`] returns.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<(Frame, usize)>> {
    FrameReader {
        inner: r,
        buf: Vec::new(),
        start: 0,
        end: 0,
        lookahead: false,
    }
    .read_frame()
}

/// Buffer a [`FrameReader`] starts with and falls back to after a large
/// frame: navigation commands and replies are tens of bytes, so one
/// `read` usually lands several whole frames.
const READ_CHUNK: usize = 4 << 10;

/// The incremental stream decoder: owns the read side of a byte stream
/// and hands out one length-prefixed frame at a time, however the
/// transport split or coalesced them. A small frame costs one `read`
/// call; frames that arrived together cost one between them.
///
/// An `Err` from the underlying `read` (a read timeout included) is
/// passed through with the bytes received so far kept, so the call can
/// simply be repeated. After `InvalidData` or `UnexpectedEof` the
/// stream has no frame boundary left to resume from.
pub struct FrameReader<R> {
    inner: R,
    /// `buf[start..end]` holds received, not yet decoded bytes; the
    /// rest of `buf` is room to read into.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Read as much as `buf` has room for, not only what the frame in
    /// progress still lacks.
    lookahead: bool,
}

impl<R: Read> FrameReader<R> {
    /// Wrap the read side of a stream.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
            lookahead: true,
        }
    }

    /// The wrapped stream (for its write side or its socket options).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// The next frame. `Ok(None)` means the peer closed cleanly at a
    /// frame boundary; a mid-frame close is `UnexpectedEof` and a
    /// malformed length or payload is `InvalidData`. On success, also
    /// returns the bytes the frame took on the wire (header included).
    pub fn read_frame(&mut self) -> io::Result<Option<(Frame, usize)>> {
        loop {
            let have = self.end - self.start;
            let mut need = 4;
            if have >= 4 {
                let header = self.buf[self.start..self.start + 4]
                    .try_into()
                    .expect("4 bytes");
                let len = u32::from_le_bytes(header);
                if !(1..=MAX_FRAME_LEN).contains(&len) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame length {len} outside [1, {MAX_FRAME_LEN}]"),
                    ));
                }
                need += len as usize;
                if have >= need {
                    let frame =
                        Frame::decode_payload(&self.buf[self.start + 4..self.start + need])?;
                    self.start += need;
                    if self.start == self.end {
                        self.start = 0;
                        self.end = 0;
                        if self.buf.len() > READ_CHUNK {
                            // One large frame must not pin its size for
                            // the life of the connection.
                            self.buf.truncate(READ_CHUNK);
                            self.buf.shrink_to_fit();
                        }
                    }
                    return Ok(Some((frame, need)));
                }
            }
            // Make room for the whole frame at `start`, then read.
            if self.start + need > self.buf.len() {
                self.buf.copy_within(self.start..self.end, 0);
                self.end = have;
                self.start = 0;
                if need > self.buf.len() {
                    self.buf.resize(need, 0);
                }
            }
            let upto = if self.lookahead {
                self.buf.len()
            } else {
                self.start + need
            };
            match self.inner.read(&mut self.buf[self.end..upto]) {
                // A clean close before any header byte is end-of-stream.
                Ok(0) if have == 0 => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed inside a frame",
                    ))
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(f: &Frame) {
        let bytes = f.encode();
        let (back, n) = read_frame(&mut &bytes[..]).unwrap().unwrap();
        assert_eq!(&back, f);
        assert_eq!(n, bytes.len());
        // Canonical: re-encoding reproduces the input bit for bit.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn scalar_frames_round_trip() {
        round_trip(&Frame::Hello {
            version: PROTO_VERSION,
        });
        round_trip(&Frame::Welcome {
            version: PROTO_VERSION,
            session: 42,
        });
        round_trip(&Frame::Reject {
            reason: "session limit reached".into(),
        });
        round_trip(&Frame::Bye);
    }

    #[test]
    fn commands_round_trip() {
        let p = WireNode { result: 3, node: 9 };
        for cmd in [
            Command::Query {
                text: "FOR $C IN source(&root1)/customer RETURN $C".into(),
            },
            Command::Q {
                text: "FOR $O IN document(root)/x RETURN $O".into(),
                from: p,
            },
            Command::D { p },
            Command::R { p },
            Command::Fl { p },
            Command::Fv { p },
            Command::Children { p },
            Command::ChildCount { p },
            Command::Render { p },
            Command::Explain { p },
            Command::Export { p, max_rows: 128 },
            Command::Stats,
        ] {
            round_trip(&Frame::Cmd(cmd));
        }
    }

    #[test]
    fn replies_round_trip() {
        let p = WireNode {
            result: 0,
            node: 17,
        };
        let block = ColumnBlock::from_rows(vec![
            vec![Value::Int(1), Value::str("a"), Value::Null],
            vec![Value::Int(2), Value::Null, Value::Bool(true)],
            vec![Value::Int(3), Value::str("c"), Value::Float(-0.0)],
        ]);
        for rep in [
            Reply::Node(p),
            Reply::Step(None),
            Reply::Step(Some(p)),
            Reply::Label(None),
            Reply::Label(Some(Name::new("CustRec"))),
            Reply::Value(Some(Value::Float(2.5))),
            Reply::Value(None),
            Reply::Nodes(vec![p, WireNode { result: 1, node: 2 }]),
            Reply::Count(7),
            Reply::Text("== plan ==".into()),
            Reply::Block(block),
            Reply::Stats(vec![
                ("tuples_shipped".into(), 12),
                ("sql_queries".into(), 1),
            ]),
            Reply::Err(MixError::plan("stale result handle 9")),
        ] {
            round_trip(&Frame::Rep(rep));
        }
    }

    #[test]
    fn errors_round_trip() {
        for e in [
            MixError::parse("xquery", 10, "expected FOR"),
            MixError::unknown("table", "custs"),
            MixError::invalid("bad plan"),
            MixError::Navigation("fv on element".into()),
            MixError::internal("oops"),
            MixError::source("db1", "gone"),
            MixError::backend("db2", FaultKind::Transient, "reset"),
            MixError::backend("db3", FaultKind::Permanent, "dead"),
            MixError::plan("apply param must be a partition"),
        ] {
            round_trip(&Frame::Rep(Reply::Err(e)));
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = Frame::Bye.encode();
        bytes[4] = PROTO_VERSION + 1; // corrupt the version byte
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version mismatch"), "{err}");
    }

    #[test]
    fn truncation_and_garbage_are_errors_not_panics() {
        let bytes = Frame::Cmd(Command::Query {
            text: "FOR $C IN source(&root1)/c RETURN $C".into(),
        })
        .encode();
        // Every prefix either cleanly reports EOF-at-boundary or fails.
        for cut in 0..bytes.len() {
            let r = read_frame(&mut &bytes[..cut]);
            match r {
                Ok(None) => assert_eq!(cut, 0, "only an empty stream is a clean close"),
                Ok(Some(_)) => panic!("truncated frame decoded at cut {cut}"),
                Err(_) => {}
            }
        }
        // Absurd length prefix is bounded before allocation.
        let mut huge = bytes.clone();
        huge[..4].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(read_frame(&mut &huge[..]).is_err());
        // Trailing garbage after a valid body is rejected.
        let mut padded = Frame::Bye.encode();
        padded.push(0xAA);
        let len = (padded.len() - 4) as u32;
        padded[..4].copy_from_slice(&len.to_le_bytes());
        assert!(read_frame(&mut &padded[..]).is_err());
    }

    #[test]
    fn non_canonical_bool_is_rejected() {
        let mut bytes = Frame::Rep(Reply::Value(Some(Value::Bool(true)))).encode();
        *bytes.last_mut().unwrap() = 2;
        assert!(read_frame(&mut &bytes[..]).is_err());
    }

    #[test]
    fn decode_error_maps_into_mix_and_io_errors() {
        let e = DecodeError {
            pos: 5,
            msg: "boom".into(),
        };
        assert_eq!(
            MixError::from(e.clone()).to_string(),
            "wire parse error at 5: boom"
        );
        assert_eq!(io::Error::from(e).kind(), io::ErrorKind::InvalidData);
    }
}
