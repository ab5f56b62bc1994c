//! The system under test, as each workload sets it up, and the loops
//! that drive scripts against it.
//!
//! Load is fixed, not derived from the machine: one client thread in
//! process; two client threads with one connection each against a
//! two-worker server for the served workloads.

use crate::rec::{Op, Rec};
use crate::replay::Staged;
use crate::target::{Cx, Digest, Done, Target};
use crate::workload::{run_script, Oracle, Workload, Q1, VIEW};
use mix::prelude::*;
use mix_repro::datagen::{customers_orders, customers_orders_sharded, ShardLayout};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Client threads (= connections) of a served workload.
pub const SERVED_CLIENTS: usize = 12;
/// Session workers of the in-process server.
pub const SERVER_WORKERS: usize = 2;
/// Seed of the generated database; scripts vary with `--seed`, the
/// data does not, so golden digests and memory compare across runs.
const DATA_SEED: u64 = 31;
/// Modelled round trip of every shard in `remote_drain`.
const REMOTE_RTT_MS: u64 = 2;

/// Session and backend counters summed over a phase.
#[derive(Debug, Clone)]
pub struct Counters(Vec<u64>);

impl Default for Counters {
    fn default() -> Counters {
        Counters(vec![0; Counter::ALL.len()])
    }
}

impl Counters {
    pub fn get(&self, c: Counter) -> u64 {
        let at = Counter::ALL.iter().position(|&x| x == c);
        self.0[at.expect("Counter::ALL lists every counter")]
    }

    fn add(&mut self, get: impl Fn(Counter) -> u64) {
        for (slot, &c) in self.0.iter_mut().zip(Counter::ALL.iter()) {
            *slot += get(c);
        }
    }

    fn add_counters(&mut self, other: &Counters) {
        self.add(|c| other.get(c));
    }

    /// Backend counters `after` less those `before`, plus the
    /// sessions' own over the same stretch.
    pub fn since(before: &Counters, after: &Counters, session: &Counters) -> Counters {
        let mut delta = Counters::default();
        for ((slot, a), b) in delta.0.iter_mut().zip(&after.0).zip(&before.0) {
            *slot = a - b;
        }
        delta.add_counters(session);
        delta
    }
}

/// One workload's system, ready for commands.
pub struct System {
    pub workload: Workload,
    pub catalog: Catalog,
    pub mediator: Arc<Mediator>,
    pub server: Option<Server>,
    /// Built on first use, so that set-up times the system alone.
    pub oracle: OnceLock<Oracle>,
}

fn options(w: Workload) -> MediatorOptions {
    let b = MediatorOptions::builder();
    match w {
        Workload::RemoteDrain => b.prefetch(PrefetchPolicy::Auto).build(),
        _ => b.build(),
    }
}

pub fn mediator_over(catalog: Catalog, options: MediatorOptions) -> Mediator {
    let mut m = Mediator::with_options(catalog, options);
    m.define_view(VIEW, Q1).expect("Q1 is a valid view");
    m
}

impl System {
    /// Generate the data, wrap it, build the mediator and (served
    /// workloads) start the server. This is what `setup_s` times.
    pub fn build(w: Workload) -> System {
        let catalog = match w {
            Workload::RemoteDrain => {
                let (catalog, db) =
                    customers_orders_sharded(400, 2, DATA_SEED, ShardLayout::Hash(4));
                db.set_latency_ms(Some(REMOTE_RTT_MS));
                catalog
            }
            _ => customers_orders(2000, 2, DATA_SEED).0,
        };
        let mediator = Arc::new(mediator_over(catalog.clone(), options(w)));
        let server = w.served().then(|| {
            let for_sessions = catalog.clone();
            let factory: Arc<dyn Fn() -> Mediator + Send + Sync> =
                Arc::new(move || mediator_over(for_sessions.clone(), options(w)));
            let config = ServerConfig {
                workers: SERVER_WORKERS,
                ..ServerConfig::default()
            };
            Server::start("127.0.0.1:0", config, factory).expect("bind loopback")
        });
        System {
            workload: w,
            catalog,
            mediator,
            server,
            oracle: OnceLock::new(),
        }
    }

    /// What the raw tables say the answers must be.
    pub fn oracle(&self) -> &Oracle {
        self.oracle.get_or_init(|| Oracle::new(&self.catalog))
    }

    pub fn connect(&self) -> std::result::Result<WireClient, WireError> {
        let server = self.server.as_ref().expect("served workload");
        WireClient::connect(server.addr())
    }

    /// Backend counters, summed over the catalog's databases.
    pub fn backend_counters(&self) -> Counters {
        let mut c = Counters::default();
        for db in self.catalog.databases() {
            let snap = db.stats().snapshot();
            c.add(|k| snap.get(k));
        }
        c
    }
}

/// How to drive one phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub seed: u64,
    pub duration: Duration,
    pub max_scripts: u64,
    /// Record spans as well as samples.
    pub trace: bool,
    /// Hash the command sequence and the reply transcript.
    pub digest: bool,
    pub epoch: Instant,
}

/// What one phase did.
pub struct Outcome {
    pub rec: Rec,
    pub digest: Digest,
    pub scripts: u64,
    pub cmds: u64,
    pub failed: u64,
    pub nodes: u64,
    pub wall: Duration,
    /// Session-side counters, summed over the sessions of in-process
    /// phases (wire sessions keep theirs behind the server).
    pub session: Counters,
    /// Staged phases: per top-level query, stage time over dispatch
    /// time.
    pub explained: Vec<f64>,
    /// Served phases: the process's thread count under load.
    pub os_threads: u64,
    pub first_failure: Option<String>,
}

impl Outcome {
    fn new(rec: Rec) -> Outcome {
        Outcome {
            rec,
            digest: Digest::default(),
            scripts: 0,
            cmds: 0,
            failed: 0,
            nodes: 0,
            wall: Duration::ZERO,
            session: Counters::default(),
            explained: Vec::new(),
            os_threads: 0,
            first_failure: None,
        }
    }

    fn tally(&mut self, done: Done) {
        self.scripts += 1;
        self.cmds += done.cmds;
        self.failed += done.failed;
        self.nodes += done.nodes;
        if self.first_failure.is_none() {
            self.first_failure = done.first_failure;
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    fn absorb(&mut self, other: Outcome) {
        self.rec.merge(other.rec);
        self.scripts += other.scripts;
        self.cmds += other.cmds;
        self.failed += other.failed;
        self.nodes += other.nodes;
        self.session.add_counters(&other.session);
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    pub fn cmds_per_s(&self) -> f64 {
        self.cmds as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Script `index` of the phase against `target`, its client-side
/// intervals going to `rec`.
fn drive<T: Target>(
    sys: &System,
    phase: Phase,
    index: u64,
    target: &mut T,
    rec: &mut Rec,
    per_cmd_nav: bool,
    digest: &mut Digest,
) -> Done {
    let digest = phase.digest.then_some(digest);
    let mut cx = Cx::new(target, rec, per_cmd_nav, digest);
    run_script(sys.workload, &mut cx, sys.oracle(), phase.seed, index);
    cx.finish()
}

/// Who answers the scripts of an in-process phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Local {
    /// A plain session: the live in-process workloads.
    Session,
    /// The staged replay: stage functions, then the same dispatch;
    /// `codec` also runs each frame through `proto`.
    Staged { codec: bool },
}

/// Scripts `0, 1, 2, …` in process on this thread, a fresh session per
/// script (results cannot be released, so sessions do not live long).
pub fn run_local(mediator: &Mediator, sys: &System, phase: Phase, local: Local) -> Outcome {
    let mut out = Outcome::new(Rec::new(phase.epoch, phase.trace));
    let mut digest = Digest::default();
    // The staged target records into `out.rec` itself; the script's own
    // client-side intervals then go to a recorder nobody reads.
    let mut unread = Rec::new(phase.epoch, false);
    let t0 = Instant::now();
    let mut index = 0;
    while index < phase.max_scripts && t0.elapsed() < phase.duration && !out.rec.spans_full() {
        out.rec.set_script(index);
        let (done, session) = match local {
            Local::Session => {
                let tok = out.rec.begin(Op::Script);
                let mut session = mediator.session();
                let rec = &mut out.rec;
                let done = drive(sys, phase, index, &mut session, rec, false, &mut digest);
                let snap = session.ctx().stats().snapshot();
                drop(session);
                out.rec.end(tok, 1);
                (done, snap)
            }
            Local::Staged { codec } => {
                let tok = out.rec.begin(Op::Replay);
                let mut staged = Staged::new(mediator, &mut out.rec, codec);
                let rec = &mut unread;
                let done = drive(sys, phase, index, &mut staged, rec, false, &mut digest);
                let staged = staged.finish();
                out.rec.end(tok, 1);
                out.explained.extend(staged.explained);
                (done, staged.session)
            }
        };
        out.session.add(|c| session.get(c));
        out.tally(done);
        index += 1;
    }
    out.wall = t0.elapsed();
    out.digest = digest;
    out
}

/// One wire client's share of a served phase: scripts `first`,
/// `first + stride`, … over one connection, reopened every
/// `scripts_per_session` scripts.
fn run_client(sys: &System, phase: Phase, first: u64, stride: u64) -> Outcome {
    let mut out = Outcome::new(Rec::new(phase.epoch, phase.trace));
    let mut digest = Digest::default();
    let t0 = Instant::now();
    let mut index = first;
    let mut client: Option<WireClient> = None;
    let mut on_session = 0;
    while index < phase.max_scripts && t0.elapsed() < phase.duration && !out.rec.spans_full() {
        out.rec.set_script(index);
        if on_session == sys.workload.scripts_per_session() {
            if let Some(c) = client.take() {
                let tok = out.rec.begin(Op::SessionClose);
                let closed = c.close();
                out.rec.end(tok, 1);
                if let Err(e) = closed {
                    out.fail(format!("close: {e}"));
                }
            }
        }
        let c = match &mut client {
            Some(c) => c,
            None => {
                let tok = out.rec.begin(Op::SessionOpen);
                let opened = sys.connect();
                out.rec.end(tok, 1);
                on_session = 0;
                match opened {
                    Ok(c) => client.insert(c),
                    Err(e) => {
                        out.fail(format!("connect: {e}"));
                        break;
                    }
                }
            }
        };
        let tok = out.rec.begin(Op::Script);
        let done = drive(sys, phase, index, c, &mut out.rec, true, &mut digest);
        out.rec.end(tok, 1);
        out.tally(done);
        on_session += 1;
        index += stride;
    }
    if let Some(c) = client {
        if let Err(e) = c.close() {
            out.fail(format!("close: {e}"));
        }
    }
    out.wall = t0.elapsed();
    out.digest = digest;
    out
}

/// A served phase over `clients` connections, one thread each.
pub fn run_served(sys: &System, phase: Phase, clients: usize) -> Outcome {
    let t0 = Instant::now();
    let mut os_threads = 0;
    let mut parts: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| scope.spawn(move || run_client(sys, phase, t as u64, clients as u64)))
            .collect();
        // Sample the thread count while the clients are at work.
        std::thread::sleep((phase.duration / 4).min(Duration::from_millis(50)));
        os_threads = crate::procfs::threads();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = parts.remove(0);
    for p in parts {
        out.absorb(p);
    }
    out.wall = t0.elapsed();
    out.os_threads = os_threads;
    out
}

/// The workload's live phase: in process or over the wire.
pub fn run_live(sys: &System, phase: Phase) -> Outcome {
    if sys.workload.served() {
        run_served(sys, phase, SERVED_CLIENTS)
    } else {
        run_local(&sys.mediator, sys, phase, Local::Session)
    }
}
