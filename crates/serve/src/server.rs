//! The pooled server: an acceptor, one parked reader per connection,
//! and a bounded worker pool. Every thread waits in the kernel or on a
//! condvar; nothing polls.
//!
//! * **One acceptor** blocks in `accept`, gives each connection a
//!   reader thread, reaps the readers that have finished, and at
//!   shutdown ends and joins the rest.
//! * **One reader per connection** blocks in `read`, with the idle
//!   timeout as the socket's read timeout (`HANDSHAKE_TIMEOUT` until
//!   the first frame: a connection that never says `Hello` cannot keep
//!   its thread). It decodes frames through [`FrameReader`] onto the
//!   session's queue; timeout, end of stream and shutdown become the
//!   queue's last event. It runs no session code, on a small stack.
//! * **`workers` session workers** drain ready queues and write replies
//!   with blocking `write_all`. A claimed flag gives each session
//!   exactly one worker at a time (commands of one session never
//!   interleave), while a slow session occupies at most one worker — it
//!   cannot head-of-line-block the rest.
//!
//! OS threads: `1 + workers`, plus one parked reader per connection —
//! at most `max_sessions` plus the connections still inside
//! `HANDSHAKE_TIMEOUT`. What `workers` bounds is the number of sessions
//! *executing* at once, and with it CPU demand and the allocator arenas
//! session memory spreads over. A thread per connection, and not one
//! thread sweeping nonblocking sockets, because std has no readiness
//! API: a sweep either spins (burning the core its clients need) or
//! sleeps (and every command waits out the sleep).
//!
//! Back-pressure: a reader whose session queue is full waits for a
//! worker to make room, so the socket stops being read and TCP
//! back-pressure reaches the client; the queue cap bounds memory per
//! session.
//!
//! Sessions are owned (`QdomSession<'static>` over an `Arc<Mediator>`),
//! so they migrate freely across worker threads between commands — the
//! engine's shared state is `Send + Sync` end to end.

use mix_common::MixError;
use mix_obs::{Counter, Stats};
use mix_proto::{Frame, FrameReader, Reply, PROTO_VERSION};
use mix_qdom::{Mediator, QdomSession};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{
    Ipv4Addr, Ipv6Addr, Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Lock without poisoning semantics: a panic on another thread while it
/// held the lock must not cascade into killing this one. Every mutex in
/// this module guards state that stays consistent across a panic (the
/// panic paths are session code, which never leaves queues half-pushed),
/// so recovering the guard is always safe — and one misbehaving session
/// must never take the shared ready/queue locks down with it.
fn lock_np<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Same, for a condvar wait.
fn wait_np<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// How long a connection may stay silent before its `Hello`; expiry
/// closes it without a word. Fixed: it guards the server's threads, not
/// a session, and `idle_timeout` takes over once the first frame is in.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Pause after a failed `accept` (fd exhaustion and the like), so the
/// error cannot spin the acceptor.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// Per-session event-queue cap; the reader of a session at the cap
/// waits until a worker drains it.
const QUEUE_CAP: usize = 128;

/// Reader stack: a reader decodes frames and queues them, nothing else.
const READER_STACK: usize = 128 << 10;

/// Server policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-session cap; connection attempts past it are answered
    /// with `Frame::Reject` at handshake. `0` = unlimited.
    pub max_sessions: usize,
    /// Per-session cap on materialized result nodes; once a session's
    /// `NodesBuilt` counter reaches it, further *result-creating*
    /// commands (`Query`/`Q`) answer `Reply::Err(MixError::Plan)`.
    /// Navigation of existing results stays allowed so the client can
    /// still read (and render) what it already paid for. `0` =
    /// unlimited.
    pub node_budget: u64,
    /// A session that sends nothing for this long is closed with a
    /// `Bye`. Zero = no idle timeout.
    pub idle_timeout: Duration,
    /// Session-worker threads in the pool. `0` (the default) sizes the
    /// pool to the hardware (`available_parallelism`). Sessions
    /// multiplex over this pool: however many are connected, at most
    /// this many execute at once.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_sessions: 256,
            node_budget: 0,
            idle_timeout: Duration::from_secs(30),
            workers: 0,
        }
    }
}

impl ServerConfig {
    fn worker_count(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
}

/// Builds one mediator per accepted session. To share compiled plans
/// across sessions, build the mediators inside with a common
/// [`mix_qdom::SharedPlanCache`]
/// (`MediatorOptions::builder().shared_plan_cache(..)`).
pub type MediatorFactory = dyn Fn() -> Mediator + Send + Sync;

/// One session's event, produced by its reader, consumed by a worker.
enum Event {
    /// A decoded frame plus its wire size (header included).
    Frame(Frame, usize),
    /// The read timeout passed with no traffic.
    Idle,
    /// Peer closed, read error, or undecodable bytes: close silently.
    Closed,
    /// Graceful server shutdown: say `Bye` and close.
    Shutdown,
}

/// The queue half of a connection — the only state its reader touches.
struct ConnQueue {
    events: VecDeque<Event>,
    /// In the ready queue or claimed by a worker — guards against a
    /// session being scheduled twice (and so against two workers
    /// interleaving one session's commands).
    scheduled: bool,
}

/// The session half — locked only by the (single) claiming worker.
struct SessState {
    session: Option<QdomSession<'static>>,
    handshook: bool,
    /// Holds one `live` slot (released exactly once at close).
    slot_held: bool,
    /// Every reply is encoded here: one allocation per connection.
    out: Vec<u8>,
}

struct Conn {
    id: u64,
    stream: TcpStream,
    queue: Mutex<ConnQueue>,
    /// Signalled when a full `queue` gets room (or the connection
    /// closes): the reader's back-pressure wait.
    space: Condvar,
    sess: Mutex<SessState>,
    /// Worker → reader: this connection is finished; stop reading it.
    closed: AtomicBool,
}

/// The worker pool's run queue.
struct Ready {
    queue: VecDeque<Arc<Conn>>,
    /// Workers waiting on `ready_cv`. Scheduling a session skips the
    /// notify — a system call — when nobody is there to hear it.
    parked: usize,
    /// Every reader has been joined, so no event can arrive any more:
    /// workers exit once `queue` is empty.
    drained: bool,
}

struct Shared {
    ready: Mutex<Ready>,
    ready_cv: Condvar,
    shutdown: AtomicBool,
    stats: Stats,
    live: AtomicUsize,
    config: ServerConfig,
    factory: Arc<MediatorFactory>,
}

impl Shared {
    /// Put a claimed session on the run queue.
    fn schedule(&self, conn: &Arc<Conn>) {
        let wake = {
            let mut ready = lock_np(&self.ready);
            ready.queue.push_back(Arc::clone(conn));
            ready.parked > 0
        };
        if wake {
            self.ready_cv.notify_one();
        }
    }

    /// Queue one event — waiting first while the session's queue is at
    /// its cap — and schedule the session on the worker pool if it is
    /// not already scheduled/claimed. `false`: a worker closed the
    /// connection meanwhile and the event was dropped.
    fn push_event(&self, conn: &Arc<Conn>, ev: Event) -> bool {
        let schedule = {
            let mut q = lock_np(&conn.queue);
            while q.events.len() >= QUEUE_CAP && !conn.closed.load(Ordering::SeqCst) {
                q = wait_np(&conn.space, q);
            }
            if conn.closed.load(Ordering::SeqCst) {
                return false;
            }
            q.events.push_back(ev);
            !std::mem::replace(&mut q.scheduled, true)
        };
        if schedule {
            self.schedule(conn);
        }
        true
    }
}

/// A running MIX server: acceptor + per-connection readers + a fixed
/// worker pool.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving: each
    /// accepted session gets a fresh `factory()` mediator and is
    /// multiplexed over the worker pool.
    pub fn start(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        factory: Arc<MediatorFactory>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let worker_count = config.worker_count();
        let shared = Arc::new(Shared {
            ready: Mutex::new(Ready {
                queue: VecDeque::new(),
                parked: 0,
                drained: false,
            }),
            ready_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: Stats::new(),
            live: AtomicUsize::new(0),
            config,
            factory,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("mix-serve-accept".into())
                .spawn(move || accept_loop(listener, shared))
                .expect("spawn acceptor")
        };
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("mix-serve-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn session worker")
            })
            .collect();
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-level counters: `SessionsOpened`/`Closed`/`Rejected`,
    /// `WireCommands`, `WireBytesIn`/`Out`. Session *work* counters
    /// (SQL, tuples, nodes) live on each session's own stats and are
    /// readable over the wire via `Command::Stats`.
    pub fn stats(&self) -> &Stats {
        &self.shared.stats
    }

    /// Sessions currently live (admitted and not yet closed).
    pub fn live_sessions(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Session-worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Graceful shutdown: stop accepting, let every in-flight command
    /// finish, send `Bye` to every session, join every thread. When
    /// this returns, all sessions are dropped — including their
    /// prefetch producers, so `active_prefetchers()` is back to what
    /// it was before the server started.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            // The acceptor is parked in `accept`: a throwaway connection
            // wakes it to see the flag. It then ends every reader (each
            // queues its session's `Shutdown`) before it returns.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            while !h.is_finished() && TcpStream::connect(wake).is_err() {
                thread::sleep(ACCEPT_BACKOFF);
            }
            let _ = h.join();
        }
        lock_np(&self.shared.ready).drained = true;
        self.shared.ready_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut readers: Vec<(Arc<Conn>, JoinHandle<()>)> = Vec::new();
    let mut next_id: u64 = 1;
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break; // the wake-up connection, or one too late to serve
        }
        let Ok((stream, _peer)) = accepted else {
            thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        reap(&shared, &mut readers, false);
        let _ = stream.set_nodelay(true);
        let conn = Arc::new(Conn {
            id: next_id,
            stream,
            queue: Mutex::new(ConnQueue {
                events: VecDeque::new(),
                scheduled: false,
            }),
            space: Condvar::new(),
            sess: Mutex::new(SessState {
                session: None,
                handshook: false,
                slot_held: false,
                out: Vec::new(),
            }),
            closed: AtomicBool::new(false),
        });
        next_id += 1;
        let spawned = {
            let (shared, conn) = (Arc::clone(&shared), Arc::clone(&conn));
            thread::Builder::new()
                .name(format!("mix-serve-read-{}", conn.id))
                .stack_size(READER_STACK)
                .spawn(move || read_loop(&shared, &conn))
        };
        // Out of threads: the connection is dropped, which closes it.
        if let Ok(handle) = spawned {
            readers.push((conn, handle));
        }
    }
    // Readers blocked in `read` see end-of-stream (after whatever the
    // client had already sent) and queue `Shutdown`.
    for (conn, _) in &readers {
        let _ = conn.stream.shutdown(NetShutdown::Read);
    }
    reap(&shared, &mut readers, true);
}

/// Join the readers that have finished — all of them when `all`, which
/// waits for each. A reader that panicked never queued a last event, so
/// its session is closed here.
fn reap(shared: &Shared, readers: &mut Vec<(Arc<Conn>, JoinHandle<()>)>, all: bool) {
    let mut i = 0;
    while i < readers.len() {
        if all || readers[i].1.is_finished() {
            let (conn, handle) = readers.swap_remove(i);
            if handle.join().is_err() {
                shared.push_event(&conn, Event::Closed);
            }
        } else {
            i += 1;
        }
    }
}

/// One connection's read side: block in `read`, queue each complete
/// frame, and end with the event that says why reading stopped.
fn read_loop(shared: &Shared, conn: &Arc<Conn>) {
    let mut frames = FrameReader::new(&conn.stream);
    // The timeout of the first read, then of every later one: only a
    // `Hello` keeps a connection open past its first frame, so from the
    // second read on it is a session's.
    let mut timeouts = [HANDSHAKE_TIMEOUT, shared.config.idle_timeout].into_iter();
    let last = loop {
        if let Some(t) = timeouts.next() {
            // `set_read_timeout` rejects zero, which here means "none".
            let t = (!t.is_zero()).then_some(t);
            if conn.stream.set_read_timeout(t).is_err() {
                break Event::Closed;
            }
        }
        match frames.read_frame() {
            Ok(Some((frame, n))) => {
                if !shared.push_event(conn, Event::Frame(frame, n)) {
                    return;
                }
            }
            _ if shared.shutdown.load(Ordering::SeqCst) => break Event::Shutdown,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                break Event::Idle
            }
            _ => break Event::Closed,
        }
    };
    shared.push_event(conn, last);
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let conn = {
            let mut ready = lock_np(&shared.ready);
            loop {
                if let Some(c) = ready.queue.pop_front() {
                    break c;
                }
                if ready.drained {
                    return;
                }
                ready.parked += 1;
                ready = wait_np(&shared.ready_cv, ready);
                ready.parked -= 1;
            }
        };
        serve_batch(&shared, &conn);
    }
}

/// Drain one session's queued events. The session is claimed
/// (`scheduled` stayed true when it was popped), so this worker is the
/// only one touching its `sess` state until the queue is seen empty.
fn serve_batch(shared: &Arc<Shared>, conn: &Arc<Conn>) {
    let mut sess = lock_np(&conn.sess);
    loop {
        let ev = {
            let mut q = lock_np(&conn.queue);
            if conn.closed.load(Ordering::SeqCst) {
                // Nothing queued after the close is served; a reader
                // still waiting for room must see the close.
                q.events.clear();
                conn.space.notify_one();
            }
            let Some(ev) = q.events.pop_front() else {
                q.scheduled = false; // unclaim: the next event reschedules
                return;
            };
            if q.events.len() + 1 == QUEUE_CAP {
                conn.space.notify_one(); // was full: the reader may be waiting
            }
            ev
        };
        // A panic in session code (mediator construction, dispatch, a
        // user-supplied tracer) must cost only this session: report it
        // on the wire if the socket still works, close the connection,
        // and keep the worker alive for everyone else. All shared locks
        // are either not held here or recovered via `lock_np`.
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            handle_event(shared, conn, &mut sess, ev)
        }))
        .is_err();
        if panicked {
            send(
                conn,
                &mut sess,
                &shared.stats,
                &Frame::Rep(Reply::Err(MixError::internal(
                    "session panicked; connection closed",
                ))),
            );
            close(conn, &mut sess, shared);
        }
    }
}

fn budget_exhausted(session: &QdomSession<'_>, budget: u64) -> bool {
    budget != 0 && session.ctx().stats().get(Counter::NodesBuilt) >= budget
}

fn handle_event(shared: &Arc<Shared>, conn: &Arc<Conn>, sess: &mut SessState, ev: Event) {
    let stats = &shared.stats;
    if !sess.handshook {
        // Nothing but a valid Hello opens a session; anything else —
        // silence until the idle deadline included — just drops the
        // connection (no slot was ever held).
        match ev {
            Event::Frame(Frame::Hello { version }, n) => {
                stats.add(Counter::WireBytesIn, n as u64);
                if version != PROTO_VERSION {
                    stats.inc(Counter::SessionsRejected);
                    send(
                        conn,
                        sess,
                        stats,
                        &Frame::Reject {
                            reason: format!(
                            "protocol version mismatch: client v{version}, server v{PROTO_VERSION}"
                        ),
                        },
                    );
                    return close(conn, sess, shared);
                }
                if !acquire_slot(&shared.live, shared.config.max_sessions) {
                    stats.inc(Counter::SessionsRejected);
                    send(
                        conn,
                        sess,
                        stats,
                        &Frame::Reject {
                            reason: format!(
                                "session limit reached ({} live)",
                                shared.config.max_sessions
                            ),
                        },
                    );
                    return close(conn, sess, shared);
                }
                sess.slot_held = true;
                stats.inc(Counter::SessionsOpened);
                if !send(
                    conn,
                    sess,
                    stats,
                    &Frame::Welcome {
                        version: PROTO_VERSION,
                        session: conn.id,
                    },
                ) {
                    return close(conn, sess, shared);
                }
                let mediator = Arc::new((shared.factory)());
                sess.session = Some(mediator.session_arc());
                sess.handshook = true;
            }
            _ => close(conn, sess, shared),
        }
        return;
    }
    match ev {
        Event::Frame(Frame::Cmd(cmd), n) => {
            stats.add(Counter::WireBytesIn, n as u64);
            stats.inc(Counter::WireCommands);
            let session = sess.session.as_mut().expect("handshook session");
            let reply =
                if cmd.creates_result() && budget_exhausted(session, shared.config.node_budget) {
                    Reply::Err(MixError::plan(format!(
                        "session node budget exhausted ({} nodes); navigation of existing \
                     results is still allowed",
                        shared.config.node_budget
                    )))
                } else {
                    session.dispatch(cmd)
                };
            if !send(conn, sess, stats, &Frame::Rep(reply)) {
                close(conn, sess, shared);
            }
        }
        Event::Frame(Frame::Bye, n) => {
            stats.add(Counter::WireBytesIn, n as u64);
            send(conn, sess, stats, &Frame::Bye);
            close(conn, sess, shared);
        }
        Event::Frame(_, n) => {
            // A handshake frame mid-session is a protocol violation;
            // answer once and close.
            stats.add(Counter::WireBytesIn, n as u64);
            send(
                conn,
                sess,
                stats,
                &Frame::Rep(Reply::Err(MixError::invalid(
                    "unexpected frame: only Cmd and Bye are valid after the handshake",
                ))),
            );
            close(conn, sess, shared);
        }
        Event::Idle | Event::Shutdown => {
            send(conn, sess, stats, &Frame::Bye);
            close(conn, sess, shared);
        }
        Event::Closed => close(conn, sess, shared),
    }
}

/// Finish a connection: drop the session (joining its prefetch
/// producers), release the admission slot, and hand the socket back to
/// the OS, which ends its reader's `read`.
fn close(conn: &Arc<Conn>, sess: &mut SessState, shared: &Arc<Shared>) {
    sess.session = None;
    if std::mem::take(&mut sess.slot_held) {
        shared.live.fetch_sub(1, Ordering::AcqRel);
        shared.stats.inc(Counter::SessionsClosed);
    }
    conn.closed.store(true, Ordering::SeqCst);
    let _ = conn.stream.shutdown(NetShutdown::Both);
}

/// Take one session slot, or refuse if the server is full.
fn acquire_slot(live: &AtomicUsize, max: usize) -> bool {
    let mut cur = live.load(Ordering::Relaxed);
    loop {
        if max != 0 && cur >= max {
            return false;
        }
        match live.compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
}

/// Replies larger than this give their buffer back after the write.
const OUT_KEEP: usize = 64 << 10;

/// Write one frame, blocking until the socket has taken it, and count
/// its bytes; `false` means the peer is gone (or the reply is too large
/// for a frame). A client that does not read its replies stalls its own
/// session's worker slot, nobody else.
fn send(conn: &Conn, sess: &mut SessState, stats: &Stats, frame: &Frame) -> bool {
    let out = &mut sess.out;
    let sent = frame.encode_into(out).is_ok() && (&conn.stream).write_all(out).is_ok();
    if sent {
        stats.add(Counter::WireBytesOut, out.len() as u64);
    }
    if out.capacity() > OUT_KEEP {
        *out = Vec::new();
    }
    sent
}
