//! The thin wire client: the paper's client-side QDOM library over a
//! socket.

use mix_common::{ColumnBlock, MixError, Name, Value};
use mix_proto::{write_frame, Command, Frame, FrameReader, Reply, WireNode, PROTO_VERSION};
use std::fmt;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// What can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum WireError {
    /// The socket failed (includes malformed frames).
    Io(io::Error),
    /// The server answered the command with a mediator error.
    Mix(MixError),
    /// The server refused the handshake (admission control or version
    /// mismatch).
    Rejected(String),
    /// The server broke the frame protocol (e.g. a reply variant the
    /// command never produces).
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::Mix(e) => write!(f, "{e}"),
            WireError::Rejected(r) => write!(f, "handshake rejected: {r}"),
            WireError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<MixError> for WireError {
    fn from(e: MixError) -> WireError {
        WireError::Mix(e)
    }
}

/// A connected wire session. Mirrors the in-process `QdomSession`
/// surface method for method; every call is one framed round trip.
pub struct WireClient {
    /// Owns the socket: replies are read through it, commands written
    /// to the stream inside it.
    reader: FrameReader<TcpStream>,
    /// Every frame sent is encoded here.
    out: Vec<u8>,
    session: u64,
}

impl WireClient {
    /// Connect and run the handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<WireClient, WireError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut reader = FrameReader::new(stream);
        write_frame(
            &mut reader.get_ref(),
            &Frame::Hello {
                version: PROTO_VERSION,
            },
        )?;
        match reader.read_frame()? {
            Some((Frame::Welcome { session, .. }, _)) => Ok(WireClient {
                reader,
                out: Vec::new(),
                session,
            }),
            Some((Frame::Reject { reason }, _)) => Err(WireError::Rejected(reason)),
            Some((other, _)) => Err(WireError::Protocol(format!(
                "expected Welcome, got {other:?}"
            ))),
            None => Err(WireError::Protocol("server closed during handshake".into())),
        }
    }

    /// The server-assigned session id (log correlation).
    pub fn session_id(&self) -> u64 {
        self.session
    }

    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        frame.encode_into(&mut self.out)?;
        self.reader.get_ref().write_all(&self.out)
    }

    /// Send one command and read its reply — the raw form of every
    /// typed method below.
    pub fn call(&mut self, cmd: Command) -> Result<Reply, WireError> {
        self.send(&Frame::Cmd(cmd))?;
        match self.reader.read_frame()? {
            Some((Frame::Rep(rep), _)) => Ok(rep),
            Some((Frame::Bye, _)) => Err(WireError::Protocol(
                "server closed the session (idle timeout or shutdown)".into(),
            )),
            Some((other, _)) => Err(WireError::Protocol(format!(
                "expected a reply, got {other:?}"
            ))),
            None => Err(WireError::Protocol("server dropped the connection".into())),
        }
    }

    /// Clean close: send `Bye`, wait for the server's `Bye`.
    pub fn close(mut self) -> Result<(), WireError> {
        self.send(&Frame::Bye)?;
        // The server answers Bye then closes; a straight close (e.g.
        // it shut down first) is fine too.
        match self.reader.read_frame() {
            Ok(Some((Frame::Bye, _))) | Ok(None) => Ok(()),
            Ok(Some((other, _))) => {
                Err(WireError::Protocol(format!("expected Bye, got {other:?}")))
            }
            Err(e) => Err(WireError::Io(e)),
        }
    }

    /// Wait (blocking) for the server to end the session — used to
    /// observe idle timeouts and graceful shutdown.
    pub fn wait_server_close(&mut self) -> Result<(), WireError> {
        match self.reader.read_frame() {
            Ok(Some((Frame::Bye, _))) | Ok(None) => Ok(()),
            Ok(Some((other, _))) => {
                Err(WireError::Protocol(format!("expected Bye, got {other:?}")))
            }
            Err(e) => Err(WireError::Io(e)),
        }
    }

    // ---- the typed QDOM surface ----------------------------------------

    /// Issue a query; returns the result root.
    pub fn query(&mut self, text: &str) -> Result<WireNode, WireError> {
        match self.call(Command::Query { text: text.into() })? {
            Reply::Node(n) => Ok(n),
            other => Err(unexpected(other, "query")),
        }
    }

    /// `q(query, p)`: query in place from `from`.
    pub fn q(&mut self, text: &str, from: WireNode) -> Result<WireNode, WireError> {
        match self.call(Command::Q {
            text: text.into(),
            from,
        })? {
            Reply::Node(n) => Ok(n),
            other => Err(unexpected(other, "q")),
        }
    }

    /// `d(p)`: first child.
    pub fn d(&mut self, p: WireNode) -> Result<Option<WireNode>, WireError> {
        match self.call(Command::D { p })? {
            Reply::Step(n) => Ok(n),
            other => Err(unexpected(other, "d")),
        }
    }

    /// `r(p)`: right sibling.
    pub fn r(&mut self, p: WireNode) -> Result<Option<WireNode>, WireError> {
        match self.call(Command::R { p })? {
            Reply::Step(n) => Ok(n),
            other => Err(unexpected(other, "r")),
        }
    }

    /// `fl(p)`: element label.
    pub fn fl(&mut self, p: WireNode) -> Result<Option<Name>, WireError> {
        match self.call(Command::Fl { p })? {
            Reply::Label(l) => Ok(l),
            other => Err(unexpected(other, "fl")),
        }
    }

    /// `fv(p)`: leaf value.
    pub fn fv(&mut self, p: WireNode) -> Result<Option<Value>, WireError> {
        match self.call(Command::Fv { p })? {
            Reply::Value(v) => Ok(v),
            other => Err(unexpected(other, "fv")),
        }
    }

    /// All children of `p`.
    pub fn children(&mut self, p: WireNode) -> Result<Vec<WireNode>, WireError> {
        match self.call(Command::Children { p })? {
            Reply::Nodes(ns) => Ok(ns),
            other => Err(unexpected(other, "children")),
        }
    }

    /// Child count of `p`.
    pub fn child_count(&mut self, p: WireNode) -> Result<u64, WireError> {
        match self.call(Command::ChildCount { p })? {
            Reply::Count(n) => Ok(n),
            other => Err(unexpected(other, "child_count")),
        }
    }

    /// Rendered subtree under `p`.
    pub fn render(&mut self, p: WireNode) -> Result<String, WireError> {
        match self.call(Command::Render { p })? {
            Reply::Text(t) => Ok(t),
            other => Err(unexpected(other, "render")),
        }
    }

    /// EXPLAIN (ANALYZE) for `p`'s result.
    pub fn explain(&mut self, p: WireNode) -> Result<String, WireError> {
        match self.call(Command::Explain { p })? {
            Reply::Text(t) => Ok(t),
            other => Err(unexpected(other, "explain")),
        }
    }

    /// Bulk-export up to `max_rows` children of `p` as one block.
    pub fn export(&mut self, p: WireNode, max_rows: u32) -> Result<ColumnBlock, WireError> {
        match self.call(Command::Export { p, max_rows })? {
            Reply::Block(b) => Ok(b),
            other => Err(unexpected(other, "export")),
        }
    }

    /// The session's work counters.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, WireError> {
        match self.call(Command::Stats)? {
            Reply::Stats(s) => Ok(s),
            other => Err(unexpected(other, "stats")),
        }
    }
}

fn unexpected(r: Reply, cmd: &str) -> WireError {
    match r {
        Reply::Err(e) => WireError::Mix(e),
        other => WireError::Protocol(format!("{cmd}: unexpected reply variant {other:?}")),
    }
}
